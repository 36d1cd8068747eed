//! Shared helpers for the benchmark harness that regenerates every table
//! and figure of the paper. The regeneration targets are `[[bench]]`
//! binaries with `harness = false`, so `cargo bench` reproduces the whole
//! evaluation; `perf` is a conventional Criterion suite.

pub mod gate;

// The dependency-free JSON layer moved down into the service crate
// (its disk cache shares the codec); benches keep their old import
// paths through this re-export.
pub use coolserved::json;

use postplace::{Flow, FlowError, FlowReport, Strategy};

/// Paper reference values for Fig. 6 (test set 1, scattered hotspots),
/// read off the published plot: `(area_overhead_pct, default, eri, hw)`.
pub const FIG6_PAPER: &[(f64, f64, f64, f64)] = &[
    (8.0, 6.0, 7.0, 6.5),
    (16.0, 11.3, 13.1, 12.0),
    (24.0, 15.5, 17.5, 16.5),
    (32.0, 20.2, 22.5, 21.0),
    (40.0, 24.0, 27.0, 25.0),
];

/// Paper Table I (test set 2, concentrated hotspot):
/// `(overhead_pct, rows, default_reduction, eri_reduction)`.
pub const TABLE1_PAPER: &[(f64, usize, f64, f64)] =
    &[(16.1, 20, 11.3, 13.1), (32.2, 40, 20.2, 28.6)];

/// Runs Default / ERI / HW at one matched overhead and returns the three
/// reports.
///
/// # Errors
///
/// The first strategy's [`FlowError`]; the bench binaries exit non-zero
/// on it.
pub fn run_triple(
    flow: &Flow,
    overhead: f64,
) -> Result<(FlowReport, FlowReport, FlowReport), FlowError> {
    let rows0 = flow.base_placement().floorplan.num_rows();
    let rows = ((overhead * rows0 as f64).round() as usize).max(1);
    let def = flow.run(Strategy::UniformSlack {
        area_overhead: overhead,
    })?;
    let eri = flow.run(Strategy::EmptyRowInsertion { rows })?;
    let hw = flow.run(Strategy::HotspotWrapper {
        area_overhead: overhead,
    })?;
    Ok((def, eri, hw))
}

/// Prints a section header.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}
