//! **FIG6** — regenerates the paper's Fig. 6: peak-temperature reduction
//! versus area overhead for the three schemes (Default, ERI, HW) on test
//! set 1 (four scattered small hotspots).
//!
//! Expected shape (the paper's findings):
//! * both ERI and HW lie above the Default curve at matched overhead;
//! * ERI edges out HW by a small amount on this test set;
//! * effectiveness grows with the overhead.

use coolplace_bench::{banner, run_triple, FIG6_PAPER};
use postplace::{Flow, FlowConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner("FIG6: thermal efficiency of the techniques (test set 1)");
    let flow = Flow::new(FlowConfig::scattered_small())?;
    let (_, base) = flow.baseline_maps()?;
    println!(
        "base: peak rise {:.2} K, mean rise {:.2} K, core {}",
        base.peak_rise(),
        base.mean_rise(),
        flow.base_placement().floorplan.core()
    );
    println!(
        "\n{:>9} | {:>22} | {:>22} | {:>22}",
        "overhead", "Default red% (paper)", "ERI red% (paper)", "HW red% (paper)"
    );
    let mut rows_out = Vec::new();
    for &(ovh_pct, p_def, p_eri, p_hw) in FIG6_PAPER {
        let (def, eri, hw) = run_triple(&flow, ovh_pct / 100.0)?;
        println!(
            "{:>8.1}% | {:>13.2} ({:>5.1}) | {:>13.2} ({:>5.1}) | {:>13.2} ({:>5.1})",
            ovh_pct,
            def.reduction_pct(),
            p_def,
            eri.reduction_pct(),
            p_eri,
            hw.reduction_pct(),
            p_hw
        );
        rows_out.push((ovh_pct, def, eri, hw));
    }

    banner("shape checks");
    let mut ok = true;
    for (ovh, def, eri, hw) in &rows_out {
        let (d, e, h) = (def.reduction_pct(), eri.reduction_pct(), hw.reduction_pct());
        let above = e > d - 0.05 && h > d - 0.6;
        println!(
            "@{ovh:>4.1}%: ERI-Default {:+.2} pp, HW-Default {:+.2} pp {}",
            e - d,
            h - d,
            if above { "ok" } else { "MISMATCH" }
        );
        ok &= above;
    }
    // Monotonicity of every curve.
    for pair in rows_out.windows(2) {
        let (_, d0, e0, h0) = &pair[0];
        let (_, d1, e1, h1) = &pair[1];
        ok &= d1.reduction_pct() > d0.reduction_pct();
        ok &= e1.reduction_pct() > e0.reduction_pct();
        ok &= h1.reduction_pct() > h0.reduction_pct();
    }
    println!(
        "\nfigure-6 shape {}",
        if ok { "REPRODUCED" } else { "NOT reproduced" }
    );
    assert!(ok, "Fig. 6 shape must hold");
    Ok(())
}
