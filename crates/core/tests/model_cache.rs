//! The per-flow model cache's byte bound: a fine-mesh flow holds at most
//! `MODEL_CACHE_BYTES` of factorized models (or its two most recent), a
//! model heavier than the bound is still kept for its next lookup, and
//! a budget search's HW lookup still hits the die its uniform candidate
//! built when another search runs on the flow in between.

use std::sync::Arc;

use postplace::{
    best_strategy_within_budget_with, rows_for_budget, CacheStats, Flow, FlowConfig,
    OptimizeConfig, Strategy, WorkloadSpec, MODEL_CACHE_BYTES,
};
use thermalsim::ThermalConfig;

fn flow_at(n: usize) -> Flow {
    let mut config = FlowConfig::with_workload(WorkloadSpec::clustered_hotspot()).fast();
    config.thermal = ThermalConfig::with_resolution(n, n);
    Flow::new(config).unwrap()
}

fn within_bound(stats: CacheStats) -> bool {
    stats.bytes <= MODEL_CACHE_BYTES || stats.len <= 2
}

#[test]
fn a_128_flow_holds_at_most_its_byte_bound_over_forty_budget_searches() {
    let flow = flow_at(128);
    flow.prime_baseline().unwrap();
    let mut most = 0;
    for i in 0..40 {
        let budget = 0.04 + 0.0065 * f64::from(i);
        let search = best_strategy_within_budget_with(&flow, budget, &OptimizeConfig::default());
        assert!(search.is_ok(), "budget {budget}: {search:?}");
        let stats = flow.thermal_cache().stats();
        assert!(within_bound(stats), "search {i}: {stats:?}");
        most = most.max(stats.len);
    }
    let stats = flow.thermal_cache().stats();
    assert!(stats.evictions > 0, "the bound never bit: {stats:?}");
    // A 128×128×9 model holds ~1.2 MiB, so three fit under 4 MiB.
    assert_eq!(most, 3, "{stats:?}");
}

#[test]
fn a_model_heavier_than_the_bound_is_kept_for_its_next_lookup() {
    // A 256×256×9 model holds ~4.5 MiB of pivots, over the bound alone.
    let flow = flow_at(256);
    let die = flow.base_placement().floorplan.core();
    let first = flow.thermal_model(die).unwrap();
    let stats = flow.thermal_cache().stats();
    assert!(stats.bytes > MODEL_CACHE_BYTES, "{stats:?}");
    assert_eq!((stats.len, stats.misses), (1, 1), "{stats:?}");
    let again = flow.thermal_model(die).unwrap();
    assert!(Arc::ptr_eq(&first, &again), "the second lookup hit");
    assert_eq!(flow.thermal_cache().stats().hits, stats.hits + 1);
}

#[test]
fn a_search_between_the_uniform_and_hw_lookups_leaves_the_hw_lookup_a_hit() {
    // At 256² every model is over the bound, so only the floor of two
    // recent models keeps the die a budget search's uniform candidate
    // built until its HW candidate looks it up. The search's two
    // lookups of that die are the direct uniform and HW runs at `split`,
    // and a whole budget search at `between` runs on the flow between
    // them with its ERI candidate already in the flow's memo, as in a
    // warm budget stream.
    let (split, between) = (0.12, 0.20);
    let flow = flow_at(256);
    flow.prime_baseline().unwrap();
    // Warm the ERI memo at `between`, then build the die at `split`.
    let warm = [
        Strategy::EmptyRowInsertion {
            rows: rows_for_budget(&flow, between),
        },
        Strategy::UniformSlack {
            area_overhead: split,
        },
    ];
    for strategy in warm {
        let report = flow.run(strategy);
        assert!(report.is_ok(), "{strategy:?}: {report:?}");
    }
    let search =
        best_strategy_within_budget_with(&flow, between, &OptimizeConfig::default()).unwrap();
    assert_eq!(search.evaluations, 3, "all three candidates ran");
    let before = flow.thermal_cache().stats();
    assert!(before.evictions > 0, "the bound bit: {before:?}");
    let wrapped = flow.run(Strategy::HotspotWrapper {
        area_overhead: split,
    });
    assert!(wrapped.is_ok(), "{wrapped:?}");
    let after = flow.thermal_cache().stats();
    assert_eq!(after.misses, before.misses, "{before:?} → {after:?}");
    assert!(after.hits > before.hits, "{before:?} → {after:?}");
}
