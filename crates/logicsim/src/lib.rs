//! Cycle-based gate-level logic simulation with switching-activity
//! annotation — the workspace's substitute for the paper's Synopsys VCS +
//! "annotated switching activity of randomly generated test vectors".
//!
//! The whole benchmark is a single synchronous domain (1 GHz in the paper),
//! so a two-valued, zero-delay, cycle-based simulator is sufficient: each
//! [`Simulator::step`] commits all flip-flops on the implicit clock edge
//! and re-settles the combinational logic in topological order, counting
//! per-net toggles along the way.
//!
//! [`SimProgram::compile`] (which [`Simulator::new`] calls) compiles the
//! netlist once into a levelized byte tape: one op per combinational
//! cell, grouped by logic level and then by function, holding its
//! [`stdcell::CellFunction`] and up to three input and two output net
//! slots. A cycle gathers the flip-flop `D`
//! nets into a capture buffer, scatters them to the `Q` nets, runs the
//! tape through [`stdcell::CellFunction::eval_bits`] over one byte per
//! net, and counts toggles by XOR against the previous settled state
//! into 16-bit counters that drain into 64-bit totals — no pointer
//! chasing through cells and pins, no allocation per cycle. The program
//! is immutable, so one program starts any number of simulators
//! ([`Simulator::with_program`]) without compiling again.
//!
//! Workloads drive the primary inputs of each *unit* independently
//! ([`Workload`]), which is exactly how the paper controls the size and
//! position of thermal hotspots. The simulator exploits that: it splits
//! the netlist into *segments*, the connected components of its units
//! (a net joins the units of its driver and its sinks; the paper's
//! benchmark has no net between units, so each of its 9 units is a
//! segment). Each segment owns a contiguous run of the tape, of the
//! flip-flops and of the net slots, and runs in a cycle only if one of
//! its primary inputs changed or one of its flip-flops changed state at
//! the edge. An idle unit's inputs are held, so its segment settles
//! within a few cycles and then costs nothing, and because a skipped
//! segment's values equal last cycle's and its toggles are exactly 0,
//! the [`Activity`] is the same bit for bit.
//!
//! # Examples
//!
//! ```
//! use logicsim::{Simulator, Workload};
//! use arithgen::{build_benchmark, BenchmarkConfig, UnitRole};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let nl = build_benchmark(&BenchmarkConfig::small())?;
//! let workload = Workload::with_active_units(&nl, &[UnitRole::ArrayMult.unit_id()], 0.5);
//! let mut sim = Simulator::new(&nl);
//! sim.run_workload(&workload, 256, 42);
//! let activity = sim.activity();
//! assert_eq!(activity.cycles(), 256);
//! # Ok(())
//! # }
//! ```

mod activity;
mod sim;
mod workload;

pub use activity::Activity;
pub use sim::{SimProgram, Simulator};
pub use workload::{UnitMode, Workload};
