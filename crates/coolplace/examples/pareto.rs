//! The paper's headline comparison, automated: sweep the full transform
//! registry (the three paper techniques, the new targeted-row and
//! hot-bin-spread techniques, and composite pipelines) across a budget
//! grid and print the area-overhead-vs-peak-reduction Pareto frontier.
//!
//! Every candidate is screened by one thermal solve of its power-map
//! surrogate (none for a uniform scaling, which is priced in closed
//! form); only the surrogate-optimal points pay an exact re-place +
//! re-solve.
//!
//! ```sh
//! cargo run --release --example pareto [-- --fast]
//! ```
//!
//! `--fast` uses the scaled-down benchmark and a coarse mesh (what CI
//! runs); the default is the paper-scale configuration.

use coolplace::postplace::{Flow, FlowConfig, OptimizeRequest, WorkloadSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fast = std::env::args().any(|a| a == "--fast");
    let mut config = FlowConfig::with_workload(WorkloadSpec::clustered_hotspot());
    if fast {
        config = config.fast();
    }
    let flow = Flow::new(config)?;

    let budgets = [0.04, 0.08, 0.12, 0.16, 0.20, 0.25, 0.30, 0.35];
    let request = OptimizeRequest::builder()
        .for_flow(&flow)
        .frontier(budgets)
        .build()?;
    let response = flow.optimize(&request)?;
    println!("request {} -> cache key {}", request.label(), response.key);
    let frontier = response.frontier().expect("frontier goals yield frontiers");

    println!(
        "screened {} candidates ({} skipped), exact-verified {} ({:.0}% of screened)",
        frontier.screened,
        frontier.skipped,
        frontier.exact_runs,
        frontier.exact_share() * 100.0
    );
    println!();
    println!(
        "{:<34} {:>9} {:>10} {:>10}",
        "transform", "area +%", "est. red%", "exact red%"
    );
    for p in &frontier.points {
        println!(
            "{:<34} {:>9.2} {:>10.2} {:>10.2}",
            p.transform_id,
            p.report.area_overhead_pct,
            p.estimated_reduction_pct,
            p.report.reduction_pct()
        );
    }
    Ok(())
}
