//! **ABL** — ablations of the design choices DESIGN.md calls out:
//!
//! 1. hotspot-driven vs blind (evenly spread) empty-row insertion;
//! 2. hotspot-wrapper ring width vs. achieved HW reduction;
//! 3. thermal-grid resolution vs. result stability;
//! 4. leakage–temperature feedback on/off.

use coolplace_bench::banner;
use postplace::{Flow, FlowConfig, Strategy};
use thermalsim::ThermalConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner("ABL-1: hotspot-driven vs blind (evenly spread) empty rows @16%");
    // The paper's motivation: "a smart, hotspot-driven allocation of area
    // can improve over a generalized one". Same number of empty rows,
    // different placement of those rows.
    {
        let flow = Flow::new(FlowConfig::scattered_small())?;
        let fp0 = &flow.base_placement().floorplan;
        let rows0 = fp0.num_rows();
        let rows = (0.16 * rows0 as f64).round() as usize;
        let eri = flow.run(Strategy::EmptyRowInsertion { rows })?;
        // Blind variant: evenly spaced insertion positions.
        let positions: Vec<usize> = (0..rows).map(|k| (k + 1) * rows0 / (rows + 1)).collect();
        let (fp2, mapping) = fp0.with_rows_inserted(&positions);
        let pl2 = flow.base_placement().placement.remap_rows(&fp2, &mapping);
        let (_, t0) = flow.baseline_maps()?;
        let (_, _, t2) = flow.analyze_placement(&fp2, &pl2)?;
        println!("hotspot-driven ERI : {:>6.2}%", eri.reduction_pct());
        println!("blind even rows    : {:>6.2}%", t0.reduction_to(&t2));
        assert!(
            eri.reduction_pct() >= t0.reduction_to(&t2) - 0.05,
            "localized insertion should not lose to blind rows"
        );
    }

    banner("ABL-2: wrapper ring width → HW reduction @16% overhead");
    for ring in [1.0, 2.0, 3.0, 4.5, 6.0] {
        let mut cfg = FlowConfig::scattered_small();
        cfg.wrapper.ring_rows = ring;
        let flow = Flow::new(cfg)?;
        let hw = flow.run(Strategy::HotspotWrapper {
            area_overhead: 0.16,
        })?;
        println!(
            "ring {ring:>4.1} rows: HW reduction {:>6.2}% (timing {:+.2}%)",
            hw.reduction_pct(),
            hw.timing_overhead_pct()
        );
    }

    banner("ABL-3: thermal mesh resolution → stability of the ERI result");
    let mut results = Vec::new();
    for n in [20, 40, 60] {
        let mut cfg = FlowConfig::scattered_small();
        cfg.thermal = ThermalConfig::with_resolution(n, n);
        let flow = Flow::new(cfg)?;
        let rows = (0.16 * flow.base_placement().floorplan.num_rows() as f64).round() as usize;
        let eri = flow.run(Strategy::EmptyRowInsertion { rows })?;
        println!(
            "grid {n:>2}x{n:<2}: ERI reduction {:>6.2}%",
            eri.reduction_pct()
        );
        results.push(eri.reduction_pct());
    }
    let spread = results.iter().fold(f64::MIN, |a, &b| a.max(b))
        - results.iter().fold(f64::MAX, |a, &b| a.min(b));
    println!("spread across resolutions: {spread:.2} pp");
    assert!(spread < 5.0, "result should be grid-stable");

    banner("ABL-4: leakage-temperature feedback");
    for iters in [0usize, 1, 3] {
        let mut cfg = FlowConfig::scattered_small();
        cfg.leakage_feedback_iters = iters;
        let flow = Flow::new(cfg)?;
        let (_, tmap) = flow.baseline_maps()?;
        println!(
            "feedback x{iters}: peak rise {:>6.2} K (mean {:>6.2} K)",
            tmap.peak_rise(),
            tmap.mean_rise()
        );
    }
    Ok(())
}
