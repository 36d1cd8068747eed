//! Acceptance tests for the budget goal's search: every in-budget,
//! applicable technique runs exactly once, the winner bit-matches the
//! best of the direct runs, HW's report bit-matches a direct run of the
//! wrapper although it wraps the uniform candidate's placement, each of
//! the three techniques' winning reports bit-matches a direct run
//! although only the winner is timed and measured, and the search spends
//! no screening solve.

use postplace::{
    best_strategy_within_budget_with, rows_for_budget, Flow, FlowConfig, FlowError, FlowReport,
    OptimizeConfig, Strategy, WorkloadSpec,
};
use thermalsim::ThermalConfig;

/// The four workloads perfbench's fine-mesh flows are built for.
fn fine_workloads() -> [WorkloadSpec; 4] {
    [
        FlowConfig::scattered_small().workload,
        FlowConfig::concentrated_large().workload,
        WorkloadSpec::clustered_hotspot(),
        WorkloadSpec::checkerboard(),
    ]
}

fn flow_at_32(workload: WorkloadSpec) -> Flow {
    let mut config = FlowConfig::with_workload(workload).fast();
    config.thermal = ThermalConfig::with_resolution(32, 32);
    Flow::new(config).unwrap()
}

/// `Debug` prints every field, each `f64` in shortest round-trip form,
/// so equal renders mean bit-identical reports.
fn bits(report: &FlowReport) -> String {
    format!("{report:?}")
}

/// The budget search done by hand: a direct, fresh run of every
/// technique whose planned overhead fits, the applicable ones kept if
/// their realized overhead fits too, the first of an exact tie winning.
fn best_direct_run(flow: &Flow, budget: f64) -> Option<FlowReport> {
    let cap_pct = budget * 100.0 + OptimizeConfig::default().budget_slack_pct;
    let rows0 = flow.base_placement().floorplan.num_rows() as f64;
    let candidates = [
        (
            Strategy::UniformSlack {
                area_overhead: budget,
            },
            budget,
        ),
        (
            Strategy::EmptyRowInsertion {
                rows: rows_for_budget(flow, budget),
            },
            rows_for_budget(flow, budget) as f64 / rows0,
        ),
        (
            Strategy::HotspotWrapper {
                area_overhead: budget,
            },
            budget,
        ),
    ];
    let mut best: Option<FlowReport> = None;
    for (strategy, planned) in candidates {
        if planned * 100.0 > cap_pct {
            continue;
        }
        // `run_transform` bypasses the flow's ERI memo, which the
        // search under test may have filled.
        let report = match flow.run_transform(&*strategy.to_transform()) {
            Ok(report) => report,
            Err(FlowError::BadStrategy { .. }) => continue,
            Err(e) => panic!("{strategy:?}: {e}"),
        };
        if report.area_overhead_pct <= cap_pct
            && best
                .as_ref()
                .is_none_or(|b| b.reduction_pct() < report.reduction_pct())
        {
            best = Some(report);
        }
    }
    best
}

#[test]
fn budget_winners_bit_match_the_best_direct_run() {
    let mut hw_winners = 0;
    for workload in fine_workloads() {
        let flow = flow_at_32(workload);
        let pitch = 1.0 / flow.base_placement().floorplan.num_rows() as f64;
        // Half a row pitch leaves ERI knowably over budget; one and a
        // half pitches admit its single row.
        for budget in [0.5 * pitch, 1.5 * pitch, 0.16] {
            let search =
                best_strategy_within_budget_with(&flow, budget, &OptimizeConfig::default())
                    .unwrap();
            let direct = best_direct_run(&flow, budget).expect("some technique fits");
            assert_eq!(
                bits(&search.report),
                bits(&direct),
                "{:?} at budget {budget}",
                flow.config().workload
            );
            assert_eq!(search.screened, 0);
            assert_eq!(search.evaluations + search.skipped_over_budget, 3);
            hw_winners += usize::from(search.report.transform_id.starts_with("hw:"));
        }
    }
    // An HW winner is the report built by wrapping the uniform
    // candidate's evaluated state; it matched a direct HW run above.
    assert!(hw_winners > 0, "no case exercised the shared HW state");
}

#[test]
fn each_technique_s_winning_report_bit_matches_a_direct_run() {
    // The search ranks candidates before timing them and times only the
    // winner. On the paper benchmark at a 16² mesh, the clustered
    // workload's winner is uniform at 1 %, ERI at 3 % and HW at 5 %; on
    // the small benchmark at 1 %, ERI is knowably over budget.
    let small = FlowConfig::with_workload(WorkloadSpec::clustered_hotspot()).fast();
    let mut paper = small.clone();
    paper.benchmark = arithgen::BenchmarkConfig::paper();
    let cases = [
        (&paper, 0.01, "uniform:0.01", 3, 0),
        (&paper, 0.03, "eri:4", 3, 0),
        (&paper, 0.05, "hw:0.05", 3, 0),
        (&small, 0.01, "uniform:0.01", 2, 1),
    ];
    for (config, budget, winner, evaluations, skipped) in cases {
        let flow = Flow::new(config.clone()).unwrap();
        let search =
            best_strategy_within_budget_with(&flow, budget, &OptimizeConfig::default()).unwrap();
        assert_eq!(search.report.transform_id, winner, "budget {budget}");
        assert_eq!(
            (search.evaluations, search.skipped_over_budget),
            (evaluations, skipped),
            "{winner}"
        );
        // A flow of its own, so an ERI winner is run, not read from the
        // memo the search filled.
        let direct = Flow::new(config.clone())
            .unwrap()
            .run(search.report.strategy)
            .unwrap();
        assert_eq!(bits(&search.report), bits(&direct), "{winner}");
    }
}

#[test]
fn a_budget_search_makes_three_model_lookups_and_no_screening_solve() {
    // One solve per candidate: the uniform die, the ERI die, and the
    // wrapped placement on the uniform die. HW's relaxed placement is
    // the uniform candidate's, already solved; a screening evaluator
    // would add a lookup of the base die.
    let flow = flow_at_32(WorkloadSpec::clustered_hotspot());
    flow.prime_baseline().unwrap();
    let before = flow.thermal_cache().stats();
    let search = best_strategy_within_budget_with(&flow, 0.16, &OptimizeConfig::default()).unwrap();
    let after = flow.thermal_cache().stats();
    assert_eq!(search.skipped_over_budget, 0, "all three candidates fit");
    assert_eq!(search.evaluations, 3);
    let lookups = |s: postplace::CacheStats| s.hits + s.misses;
    assert_eq!(
        lookups(after) - lookups(before),
        3,
        "{before:?} → {after:?}"
    );
}

#[test]
fn hw_is_skipped_or_fails_with_the_uniform_candidate_it_wraps() {
    let pitch_pct = 100.0
        / flow_at_32(WorkloadSpec::clustered_hotspot())
            .base_placement()
            .floorplan
            .num_rows() as f64;
    let lookups = |s: postplace::CacheStats| s.hits + s.misses;
    // Each case runs on its own flow, so its ERI run is not served from
    // the memo another case filled.
    let eri_only = |budget: f64, budget_slack_pct: f64| {
        let flow = flow_at_32(WorkloadSpec::clustered_hotspot());
        flow.prime_baseline().unwrap();
        let config = OptimizeConfig {
            budget_slack_pct,
            ..OptimizeConfig::default()
        };
        let before = lookups(flow.thermal_cache().stats());
        let search = best_strategy_within_budget_with(&flow, budget, &config).unwrap();
        let solves = lookups(flow.thermal_cache().stats()) - before;
        let direct = flow
            .run(Strategy::EmptyRowInsertion {
                rows: rows_for_budget(&flow, budget),
            })
            .unwrap();
        assert_eq!(bits(&search.report), bits(&direct));
        (search.evaluations, search.skipped_over_budget, solves)
    };
    // 1.9 pitches quantize ERI to one row; a slack of −0.5 pitch caps
    // the budget between the two, so uniform is skipped and HW with it.
    assert_eq!(eri_only(0.019 * pitch_pct, -0.5 * pitch_pct), (1, 1 + 1, 1));
    // A negative budget fails uniform's relaxation, and HW's identical
    // first stage is charged as failed without a second attempt; the
    // slack admits ERI's one-row minimum.
    assert_eq!(eri_only(-0.001, 2.0 * pitch_pct), (3, 0, 1));
}
