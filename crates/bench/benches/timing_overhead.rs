//! **TIMING** — verifies the paper's §IV text claim: "The maximum timing
//! overhead caused by applying the proposed methods is around 2%."
//!
//! Every strategy is timed (with temperature-derated STA) before and
//! after on both test sets; the harness reports all overheads and the
//! maximum across the proposed methods (ERI + HW, as in the paper).

use coolplace_bench::{banner, run_triple};
use postplace::{Flow, FlowConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner("TIMING: critical-path overhead of the techniques");
    let mut max_proposed: f64 = 0.0;
    for (name, config) in [
        ("scattered (test 1)", FlowConfig::scattered_small()),
        ("concentrated (test 2)", FlowConfig::concentrated_large()),
    ] {
        let flow = Flow::new(config)?;
        println!("\n-- {name} --");
        println!(
            "{:>9} | {:>10} | {:>10} | {:>10}",
            "overhead", "Default", "ERI", "HW"
        );
        for ovh in [0.08, 0.161, 0.24, 0.322] {
            let (def, eri, hw) = run_triple(&flow, ovh)?;
            println!(
                "{:>8.1}% | {:>+9.2}% | {:>+9.2}% | {:>+9.2}%",
                ovh * 100.0,
                def.timing_overhead_pct(),
                eri.timing_overhead_pct(),
                hw.timing_overhead_pct()
            );
            max_proposed = max_proposed
                .max(eri.timing_overhead_pct())
                .max(hw.timing_overhead_pct());
        }
    }
    banner("summary");
    println!(
        "max timing overhead of the proposed methods: {max_proposed:+.2}% \
         (paper: \"around 2%\")"
    );
    println!(
        "note: negative overheads occur because cooling the die speeds the \
         derated critical path up more than the stretched wires slow it down"
    );
    assert!(
        max_proposed < 5.0,
        "timing overhead should stay in the paper's low-single-digit band"
    );
    Ok(())
}
