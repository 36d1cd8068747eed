//! Property tests for the flow's thermal-solve reuse ([`Flow::run`],
//! which re-solves against cached factorizations and a memoized
//! baseline, must match an independent [`ThermalSimulator`] solve of
//! the same placements to within solver tolerance across strategies and
//! mesh resolutions) and for the strategy-transform engine (surrogate
//! ranking must agree with exact ranking within the trust margin; every
//! registered transform id must round-trip through the parser).

use arithgen::UnitRole;
use postplace::{
    CandidateEvaluator, Flow, FlowConfig, OptimizeConfig, Strategy, TransformContext,
    TransformRegistry, TransformState, WorkloadSpec,
};
use powerest::power_map;
use proptest::prelude::*;
use thermalsim::{ThermalConfig, ThermalSimulator};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn cached_runs_match_reference_runs(
        n in 8usize..13,
        pick in 0usize..3,
        overhead in 0.08f64..0.3,
        rows in 2usize..10,
    ) {
        let mut config = FlowConfig::scattered_small().fast();
        config.thermal = ThermalConfig::with_resolution(n, n);
        let flow = Flow::new(config).unwrap();
        let strategy = match pick {
            0 => Strategy::UniformSlack { area_overhead: overhead },
            1 => Strategy::EmptyRowInsertion { rows },
            _ => Strategy::HotspotWrapper { area_overhead: overhead },
        };
        let cached = flow.run(strategy).unwrap();

        // The reference assembles and solves every field from scratch:
        // the baseline power map on the base core, then the transformed
        // placement's power map on its new core.
        let simulator = ThermalSimulator::new(flow.config().thermal.clone());
        let base = flow.base_placement();
        let (base_pmap, _) = flow.baseline_maps().unwrap();
        let before = simulator.solve(base.floorplan.core(), &base_pmap).unwrap();
        let ctx = TransformContext::new(&flow).unwrap();
        let mut state = TransformState::new(
            base.floorplan.clone(),
            base.placement.clone(),
            base.regions.clone(),
        );
        let next = strategy.to_transform().apply(&ctx, &mut state).unwrap();
        let grid = flow.config().thermal.grid;
        let pmap = power_map(
            flow.netlist(),
            &next.floorplan,
            &next.placement,
            flow.power(),
            grid.nx,
            grid.ny,
        );
        let after = simulator.solve(next.floorplan.core(), &pmap).unwrap();
        let reference_reduction_pct =
            (before.peak_rise() - after.peak_rise()) / before.peak_rise() * 100.0;

        prop_assert!(
            (cached.before.peak_c - before.peak_bin().1).abs() < 1e-5,
            "baseline peak: cached {} vs reference {}",
            cached.before.peak_c,
            before.peak_bin().1
        );
        prop_assert!(
            (cached.after.peak_c - after.peak_bin().1).abs() < 1e-5,
            "{strategy} peak: cached {} vs reference {}",
            cached.after.peak_c,
            after.peak_bin().1
        );
        prop_assert!((cached.after.gradient - after.gradient()).abs() < 1e-5);
        prop_assert!((cached.reduction_pct() - reference_reduction_pct).abs() < 1e-4);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The screening surrogate's candidate ranking must agree with the
    /// exact ranking at the top: the surrogate's top-1 pick, verified
    /// exactly, comes within the trust margin of the true exact best —
    /// that is precisely the guarantee the screen-then-verify loops
    /// (the budget and frontier goals of `Flow::optimize`) lean on when
    /// they stop spending exact runs early.
    #[test]
    fn surrogate_top1_tracks_exact_top1_within_the_trust_margin(
        n in 10usize..15,
        workload_pick in 0usize..4,
        budget in 0.10f64..0.26,
    ) {
        let workload = match workload_pick {
            0 => WorkloadSpec::clustered_hotspot(),
            1 => WorkloadSpec::checkerboard(),
            2 => WorkloadSpec {
                active: vec![UnitRole::BoothMult],
                toggle_probability: 0.6,
            },
            _ => WorkloadSpec {
                active: vec![UnitRole::RippleAdder, UnitRole::Alu, UnitRole::Mac],
                toggle_probability: 0.5,
            },
        };
        let mut config = FlowConfig::with_workload(workload).fast();
        config.thermal = ThermalConfig::with_resolution(n, n);
        let flow = Flow::new(config).unwrap();
        let evaluator = flow.delta_evaluator().unwrap();
        let registry = TransformRegistry::standard();
        let margin = OptimizeConfig::default().screen_margin_pct;

        // Screen and exact-evaluate every applicable candidate at this
        // budget; candidates the workload cannot realize are skipped on
        // both sides.
        let mut pairs: Vec<(String, f64, f64)> = Vec::new();
        for factory in registry.factories() {
            let Ok(transform) = factory.at_budget(&flow, budget) else { continue };
            let Ok(delta) = transform.power_delta(&flow) else { continue };
            let estimate = evaluator.evaluate(&delta).unwrap().reduction_pct;
            let Ok(report) = flow.run_transform(transform.as_ref()) else { continue };
            pairs.push((transform.id(), estimate, report.reduction_pct()));
        }
        prop_assert!(pairs.len() >= 3, "too few applicable candidates");
        let surrogate_top = pairs
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        let exact_top = pairs
            .iter()
            .max_by(|a, b| a.2.total_cmp(&b.2))
            .unwrap();
        prop_assert!(
            surrogate_top.2 >= exact_top.2 - margin,
            "surrogate picked {} ({:.2}% exact) but {} reaches {:.2}% — \
             outside the {margin:.1}pp trust margin",
            surrogate_top.0,
            surrogate_top.2,
            exact_top.0,
            exact_top.2,
        );
    }
}

#[test]
fn every_registered_transform_id_round_trips() {
    // The serde facade: for every registered family at several budgets
    // (composites included), the stable id parses back to a transform
    // with the identical id, kind and surrogate behavior.
    let flow = Flow::new(FlowConfig::scattered_small().fast()).unwrap();
    let registry = TransformRegistry::standard();
    let mut checked = 0usize;
    for factory in registry.factories() {
        for budget in [0.07, 0.16, 0.31] {
            let transform = factory.at_budget(&flow, budget).unwrap();
            let id = transform.id();
            let reparsed = TransformRegistry::parse(&id).unwrap();
            assert_eq!(reparsed.id(), id, "id must round-trip");
            assert_eq!(reparsed.kind(), transform.kind());
            assert_eq!(
                reparsed.as_strategy(),
                transform.as_strategy(),
                "{id}: facade must survive the round-trip"
            );
            let a = transform.power_delta(&flow).unwrap();
            let b = reparsed.power_delta(&flow).unwrap();
            assert_eq!(a, b, "{id}: surrogate must survive the round-trip");
            checked += 1;
        }
    }
    assert_eq!(checked, registry.len() * 3);
}
