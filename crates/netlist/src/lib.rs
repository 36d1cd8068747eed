//! Gate-level netlist database for the `coolplace` stack.
//!
//! A [`Netlist`] is the placed-flow's central artifact: cell instances bound
//! to [`stdcell::Library`] masters, nets with a single driver and arbitrary
//! sinks, primary ports grouped into **units** (the nine arithmetic blocks
//! of the paper's synthetic benchmark), and the connectivity graph used by
//! the logic simulator, power estimator, placer and timing analyzer.
//!
//! Netlists are constructed through [`NetlistBuilder`], which performs
//! structural validation on [`NetlistBuilder::finish`]: single driver per
//! net, no floating inputs, and no combinational cycles. `finish` also
//! flattens the connectivity once — each net's endpoint cells, driver
//! cell and summed sink capacitance, each cell's input and output nets,
//! master and width — so per-placement passes read contiguous tables
//! ([`Netlist::net_endpoints`], [`Netlist::net_sink_cap_ff`],
//! [`Netlist::cell_input_nets`], …) instead of walking pins.
//!
//! # Examples
//!
//! ```
//! use netlist::NetlistBuilder;
//! use stdcell::{CellFunction, Drive, Library};
//!
//! # fn main() -> Result<(), netlist::NetlistError> {
//! let mut b = NetlistBuilder::new("tiny", Library::c65());
//! let unit = b.add_unit("u0");
//! let a = b.input_port("a", unit);
//! let y = b.net("y");
//! b.cell(unit, CellFunction::Inv, Drive::X1, &[a], &[y])?;
//! b.output_port("y", unit, y);
//! let nl = b.finish()?;
//! assert_eq!(nl.cell_count(), 1);
//! # Ok(())
//! # }
//! ```

mod builder;
mod database;
mod error;
mod graph;
mod stats;
mod tables;

pub use builder::NetlistBuilder;
pub use database::{
    CellId, CellInst, Net, NetDriver, NetId, Netlist, Pin, PinDir, PinId, Port, PortId, Unit,
    UnitId,
};
pub use error::NetlistError;
pub use graph::{combinational_levels, topo_order};
pub use stats::{NetlistStats, UnitStats};
