//! Static timing analysis over a placed netlist, with temperature
//! derating — the sign-off step behind the paper's claim that "the
//! maximum timing overhead caused by applying the proposed methods is
//! around 2%".
//!
//! The model is a classic linear one:
//!
//! * **cell delay** = `intrinsic + R_drive · C_load`, with `C_load` the
//!   fan-out pin caps plus HPWL-proportional wire cap;
//! * **wire delay** (per sink) = Elmore-style
//!   `R_wire(d) · (C_wire(d)/2 + C_sink)` over the Manhattan
//!   driver→sink distance `d`;
//! * **temperature derating** per the paper's §I: MOS drive weakens ≈4%
//!   per 10 °C (cell delays grow 0.4%/K) and interconnect slows ≈5% per
//!   10 °C (wire delays grow 0.5%/K), evaluated at each cell's local
//!   temperature when a thermal map is supplied.
//!
//! # Examples
//!
//! ```
//! use arithgen::{build_benchmark, BenchmarkConfig};
//! use placement::{Placer, PlacerConfig};
//! use timan::{analyze, TimingConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let nl = build_benchmark(&BenchmarkConfig::small())?;
//! let placed = Placer::new(PlacerConfig::default()).place(&nl)?;
//! let report = analyze(&nl, &placed.floorplan, &placed.placement, None, &TimingConfig::default())?;
//! assert!(report.critical_path_ps > 0.0);
//! # Ok(())
//! # }
//! ```

mod config;
mod error;
mod report;
mod sta;

pub use config::TimingConfig;
pub use error::TimingError;
pub use report::TimingReport;
pub use sta::{analyze, analyze_placed, check_placed};
