//! The paper's qualitative results, asserted on the fast configuration so
//! they run in CI time. The paper-scale checks are the `paper` section of
//! the sweep bench (`cargo bench -p coolplace-bench --bench sweep`), gated
//! in CI by the `paper` rows of `coolplace_bench::gate`.

use coolplace::postplace::{Flow, FlowConfig, Strategy};

fn reductions_at(flow: &Flow, overhead: f64) -> (f64, f64, f64) {
    let rows0 = flow.base_placement().floorplan.num_rows();
    let rows = ((overhead * rows0 as f64).round() as usize).max(1);
    let def = flow
        .run(Strategy::UniformSlack {
            area_overhead: overhead,
        })
        .unwrap();
    let eri = flow.run(Strategy::EmptyRowInsertion { rows }).unwrap();
    let hw = flow
        .run(Strategy::HotspotWrapper {
            area_overhead: overhead,
        })
        .unwrap();
    (def.reduction_pct(), eri.reduction_pct(), hw.reduction_pct())
}

#[test]
fn fig6_shape_smart_beats_blind_and_grows_with_overhead() {
    let flow = Flow::new(FlowConfig::scattered_small().fast()).unwrap();
    let (d16, e16, h16) = reductions_at(&flow, 0.16);
    let (d32, e32, h32) = reductions_at(&flow, 0.32);
    // All schemes help, and help more with more area.
    for r in [d16, e16, h16, d32, e32, h32] {
        assert!(r > 0.0, "every scheme should reduce temperature");
    }
    assert!(d32 > d16 && e32 > e16 && h32 > h16);
    // ERI does not lose to Default (small tolerance for the reduced
    // configuration's noise).
    assert!(
        e16 > d16 - 0.3 && e32 > d32 - 0.3,
        "ERI {e16:.2}/{e32:.2} vs Default {d16:.2}/{d32:.2}"
    );
}

#[test]
fn table1_shape_eri_beats_default_on_concentrated_hotspots() {
    let flow = Flow::new(FlowConfig::concentrated_large().fast()).unwrap();
    let (d, e, _) = reductions_at(&flow, 0.161);
    assert!(
        e > d - 0.3,
        "concentrated: ERI {e:.2}% should track/beat Default {d:.2}%"
    );
}

#[test]
fn timing_overhead_stays_small() {
    // Paper: "maximum timing overhead ... around 2%".
    let flow = Flow::new(FlowConfig::scattered_small().fast()).unwrap();
    let rows = (0.32 * flow.base_placement().floorplan.num_rows() as f64).round() as usize;
    for strategy in [
        Strategy::EmptyRowInsertion { rows },
        Strategy::HotspotWrapper {
            area_overhead: 0.32,
        },
    ] {
        let r = flow.run(strategy).unwrap();
        assert!(
            r.timing_overhead_pct() < 6.0,
            "{strategy}: timing overhead {:.2}% too large",
            r.timing_overhead_pct()
        );
    }
}

#[test]
fn area_overheads_match_their_specification() {
    let flow = Flow::new(FlowConfig::scattered_small().fast()).unwrap();
    let rows0 = flow.base_placement().floorplan.num_rows();
    let def = flow
        .run(Strategy::UniformSlack { area_overhead: 0.2 })
        .unwrap();
    assert!((def.area_overhead_pct - 20.0).abs() < 2.0);
    let eri = flow
        .run(Strategy::EmptyRowInsertion { rows: rows0 / 5 })
        .unwrap();
    let expected = (rows0 / 5) as f64 / rows0 as f64 * 100.0;
    assert!((eri.area_overhead_pct - expected).abs() < 0.5);
}
