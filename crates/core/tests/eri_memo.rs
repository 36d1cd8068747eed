//! The flow's memo of exact ERI runs: a memo-served answer is the one a
//! fresh flow computes, evaluation counts do not depend on what the flow
//! ran before, the memo stays bounded, and racing callers of one row
//! count run it once.

use std::sync::Arc;

use postplace::{
    best_strategy_within_budget_with, minimize_rows_for_target, CacheStats, Flow, FlowConfig,
    OptimizeConfig, OptimizeRequest, ParetoFrontier, Strategy, WorkloadSpec,
};
use thermalsim::ThermalConfig;

fn flow_at_32() -> Flow {
    let mut config = FlowConfig::with_workload(WorkloadSpec::clustered_hotspot()).fast();
    config.thermal = ThermalConfig::with_resolution(32, 32);
    Flow::new(config).unwrap()
}

/// `Debug` prints every field, each `f64` in shortest round-trip form,
/// so equal renders mean bit-identical values.
fn bits(value: &impl std::fmt::Debug) -> String {
    format!("{value:?}")
}

fn lookups(stats: CacheStats) -> u64 {
    stats.hits + stats.misses
}

#[test]
fn a_repeated_budget_search_matches_a_fresh_flow_and_skips_the_eri_solve() {
    let fresh = flow_at_32();
    let expected =
        best_strategy_within_budget_with(&fresh, 0.16, &OptimizeConfig::default()).unwrap();
    assert_eq!(expected.evaluations, 3, "all three candidates fit");

    let flow = flow_at_32();
    flow.prime_baseline().unwrap();
    let search = || best_strategy_within_budget_with(&flow, 0.16, &OptimizeConfig::default());
    let first = search().unwrap();
    let before = flow.thermal_cache().stats();
    let memo_before = flow.eri_memo_stats();
    let second = search().unwrap();
    let after = flow.thermal_cache().stats();
    let memo_after = flow.eri_memo_stats();

    assert_eq!(bits(&first), bits(&expected));
    assert_eq!(
        bits(&second),
        bits(&expected),
        "a memo-served search reports the same bits, evaluations included"
    );
    // Uniform and the wrapped placement are solved again; ERI is not.
    assert_eq!(
        lookups(after) - lookups(before),
        2,
        "{before:?} → {after:?}"
    );
    assert_eq!(memo_after.hits, memo_before.hits + 1, "{memo_after:?}");
    assert_eq!(memo_after.insertions, 1, "{memo_after:?}");
}

fn frontier_of(flow: &Flow) -> ParetoFrontier {
    let request = OptimizeRequest::builder()
        .for_flow(flow)
        .frontier([0.04, 0.12, 0.20, 0.30])
        .build()
        .unwrap();
    flow.optimize(&request)
        .unwrap()
        .frontier()
        .cloned()
        .expect("frontier goals yield frontiers")
}

#[test]
fn a_frontier_on_a_warm_eri_memo_matches_a_fresh_flows_frontier() {
    let fresh = flow_at_32();
    let expected = frontier_of(&fresh);
    let verified = fresh.eri_memo_stats().insertions;
    assert!(verified > 0, "the frontier exact-verifies ERI candidates");

    // The first frontier fills the memo with the row counts it
    // verifies; the second is answered from it.
    let flow = flow_at_32();
    let first = frontier_of(&flow);
    let before = flow.eri_memo_stats();
    let second = frontier_of(&flow);
    let after = flow.eri_memo_stats();
    assert_eq!(bits(&first), bits(&expected));
    assert_eq!(
        bits(&second),
        bits(&expected),
        "a memo-served frontier reports the same bits, exact_runs included"
    );
    assert_eq!(after.hits - before.hits, verified, "{before:?} → {after:?}");
    assert_eq!(after.insertions, before.insertions, "{after:?}");
}

#[test]
fn every_report_shares_the_baseline_hotspots() {
    let flow = flow_at_32();
    let search = best_strategy_within_budget_with(&flow, 0.16, &OptimizeConfig::default()).unwrap();
    let baseline = flow.baseline_hotspots().unwrap();
    assert!(!baseline.is_empty(), "the clustered workload has hotspots");
    assert!(Arc::ptr_eq(&search.report.hotspots, baseline));
    let eri = flow.run(Strategy::EmptyRowInsertion { rows: 2 }).unwrap();
    assert!(Arc::ptr_eq(&eri.hotspots, baseline), "and a memo entry");
}

#[test]
fn a_repeated_row_search_returns_the_same_optimum() {
    let flow = flow_at_32();
    let top = flow.run(Strategy::EmptyRowInsertion { rows: 8 }).unwrap();
    let target = top.reduction_pct() / 2.0;
    let first = minimize_rows_for_target(&flow, target, 8).unwrap();
    let inserted = flow.eri_memo_stats().insertions;
    let second = minimize_rows_for_target(&flow, target, 8).unwrap();
    assert_eq!(bits(&first), bits(&second), "evaluations included");
    assert_eq!(
        flow.eri_memo_stats().insertions,
        inserted,
        "the second search ran nothing"
    );
    let fresh = minimize_rows_for_target(&flow_at_32(), target, 8).unwrap();
    assert_eq!(bits(&fresh), bits(&first));
}

#[test]
fn the_memo_stays_within_its_capacity() {
    let flow = Flow::new(FlowConfig::concentrated_large().fast()).unwrap();
    let capacity = flow.eri_memo_stats().capacity;
    assert!(
        capacity >= 64,
        "one flow sees 37 row counts under budget_fine"
    );
    let first = flow.run(Strategy::EmptyRowInsertion { rows: 1 }).unwrap();
    for rows in 2..=capacity + 3 {
        let _ = flow.run(Strategy::EmptyRowInsertion { rows }).unwrap();
        assert!(flow.eri_memo_stats().len <= capacity);
    }
    let stats = flow.eri_memo_stats();
    assert_eq!(stats.insertions as usize, capacity + 3);
    assert_eq!(stats.evictions, 3, "{stats:?}");
    // The least recently used row count was evicted; running it again
    // computes the same report.
    let again = flow.run(Strategy::EmptyRowInsertion { rows: 1 }).unwrap();
    assert_eq!(flow.eri_memo_stats().insertions as usize, capacity + 4);
    assert_eq!(bits(&again), bits(&first));
}

#[test]
fn racing_callers_of_one_row_count_run_it_once() {
    let flow = flow_at_32();
    flow.prime_baseline().unwrap();
    // Whether the second caller arrives while the leader's run is still
    // in flight is up to the scheduler, so row counts are raced until
    // one wait is seen, within a fixed bound.
    let mut waited = 0;
    for rows in 1..=48 {
        let before = flow.eri_memo_stats();
        let (a, b) = std::thread::scope(|scope| {
            let leader = scope.spawn(|| flow.run(Strategy::EmptyRowInsertion { rows }));
            // Once the leader has missed, its run is in flight (or done):
            // the second caller waits for it or hits its entry. The poll
            // spins rather than yields: beside busy threads a yield hands
            // the core away, and the leader's run is often over before
            // this caller is scheduled again.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while flow.eri_memo_stats().misses == before.misses
                && std::time::Instant::now() < deadline
            {
                std::hint::spin_loop();
            }
            let b = flow.run(Strategy::EmptyRowInsertion { rows }).unwrap();
            (leader.join().unwrap().unwrap(), b)
        });
        assert_eq!(bits(&a), bits(&b));
        let after = flow.eri_memo_stats();
        assert_eq!(after.insertions, before.insertions + 1, "computed once");
        assert_eq!(after.misses, before.misses + 1, "{after:?}");
        assert_eq!(after.hits, before.hits + 1, "{after:?}");
        waited += after.waits - before.waits;
        if waited > 0 {
            break;
        }
    }
    assert!(waited > 0, "no caller ever found a run in flight");
}
