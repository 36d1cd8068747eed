//! The benchmark harness behind `BENCH_sweep.json`. Its one `[[bench]]`
//! binary, `sweep` (`harness = false`), runs the scenario grid, times the
//! solver, optimizer, service, logic-simulation and wrapper stages, and
//! checks the paper's claims at paper scale; [`gate`] holds the rules CI
//! checks a run against.

pub mod gate;
