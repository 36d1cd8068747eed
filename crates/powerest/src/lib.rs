//! Activity-based power estimation — the workspace's substitute for
//! Synopsys Power Compiler "based on annotated switching activity of
//! randomly generated test vectors".
//!
//! [`estimate_power`] combines, per cell:
//!
//! * **dynamic** power: for every output net,
//!   `α · f · (E_internal + ½ · C_load · V²)`, where `C_load` sums the
//!   fan-out pin capacitances and (when a placement is supplied) HPWL-based
//!   wire capacitance;
//! * **clock** power for sequential cells (internal clock-tree energy every
//!   cycle regardless of data activity);
//! * **leakage**, exponential in temperature (doubling every
//!   [`PowerConfig::leakage_doubling_c`] kelvin) — the paper's
//!   "positive feedback between leakage power and temperature".
//!
//! [`power_map`] (or [`power_map_placed`], on a placement's
//! [`placement::PlacedGeometry`]) then aggregates per-cell watts onto the
//! thermal grid:
//!   "the power value in a thermal cell is the sum of power consumptions in
//!   all the standard cells that it covers."
//!
//! # Examples
//!
//! ```
//! use arithgen::{build_benchmark, BenchmarkConfig, UnitRole};
//! use logicsim::{Simulator, Workload};
//! use powerest::{estimate_power, PowerConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let nl = build_benchmark(&BenchmarkConfig::small())?;
//! let w = Workload::with_active_units(&nl, &[UnitRole::Alu.unit_id()], 0.4);
//! let mut sim = Simulator::new(&nl);
//! sim.run_workload(&w, 128, 1);
//! let report = estimate_power(&nl, &sim.activity(), None, None, &PowerConfig::default());
//! assert!(report.total_w() > 0.0);
//! # Ok(())
//! # }
//! ```

mod config;
mod density;
mod estimate;
mod report;

pub use config::PowerConfig;
pub use density::{power_map, power_map_placed};
pub use estimate::estimate_power;
pub use report::PowerReport;
