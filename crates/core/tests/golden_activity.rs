//! Golden switching-activity digests: the logic simulator's output for
//! every `FlowConfig` preset, at paper scale and at `.fast()` scale, plus
//! one all-units-active `Workload::uniform` run. Activity feeds every
//! power map, content key and cached document, so any change to the
//! simulator must reproduce these bits exactly.

use arithgen::{build_benchmark, BenchmarkConfig};
use logicsim::{Activity, Simulator, Workload};
use postplace::{Flow, FlowConfig, WorkloadSpec};

/// FNV-1a over the cycle count and every net's toggle count
/// (little-endian `u64`s).
fn digest(activity: &Activity) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut write = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    write(activity.cycles());
    write(activity.net_count() as u64);
    for net in 0..activity.net_count() {
        write(activity.toggles(netlist::NetId::new(net)));
    }
    h
}

fn presets() -> [(&'static str, FlowConfig); 4] {
    [
        ("scattered_small", FlowConfig::scattered_small()),
        ("concentrated_large", FlowConfig::concentrated_large()),
        (
            "clustered_hotspot",
            FlowConfig::with_workload(WorkloadSpec::clustered_hotspot()),
        ),
        (
            "checkerboard",
            FlowConfig::with_workload(WorkloadSpec::checkerboard()),
        ),
    ]
}

fn check(scale: &str, cases: &[(&str, u64)], configure: impl Fn(FlowConfig) -> FlowConfig) {
    let got: Vec<String> = presets()
        .into_iter()
        .map(|(name, config)| {
            let flow = Flow::new(configure(config)).expect("flow builds");
            format!("{scale}/{name}: {:016x}", digest(flow.activity()))
        })
        .collect();
    let want: Vec<String> = cases
        .iter()
        .map(|(name, d)| format!("{scale}/{name}: {d:016x}"))
        .collect();
    assert_eq!(
        got,
        want,
        "switching activity moved (epoch {}): bump ENGINE_EPOCH if this moved on purpose",
        postplace::ENGINE_EPOCH
    );
}

#[test]
fn paper_scale_presets_match_their_golden_activity() {
    check(
        "paper",
        &[
            ("scattered_small", 0x2cac_509a_3076_b5b7),
            ("concentrated_large", 0xb203_fadd_e485_df70),
            ("clustered_hotspot", 0x493c_c2d3_74a6_ab0b),
            ("checkerboard", 0xe6ef_4ce2_8ac3_dbc1),
        ],
        |c| c,
    );
}

#[test]
fn fast_scale_presets_match_their_golden_activity() {
    check(
        "fast",
        &[
            ("scattered_small", 0xaa45_5b95_236a_c288),
            ("concentrated_large", 0xd163_49bc_1fdc_09c5),
            ("clustered_hotspot", 0xe692_3c55_c481_5297),
            ("checkerboard", 0x70c3_3c99_871c_6a93),
        ],
        FlowConfig::fast,
    );
}

#[test]
fn uniform_workload_matches_its_golden_activity() {
    let nl = build_benchmark(&BenchmarkConfig::paper()).expect("benchmark");
    let mut sim = Simulator::new(&nl);
    sim.run_workload(&Workload::uniform(&nl, 0.3), 64, 99);
    assert_eq!(
        format!("{:016x}", digest(&sim.activity())),
        format!("{:016x}", 0x26ce_de61_a36e_7f25u64),
        "switching activity moved (epoch {}): bump ENGINE_EPOCH if this moved on purpose",
        postplace::ENGINE_EPOCH
    );
}

#[test]
fn two_unit_workload_matches_its_golden_activity() {
    use arithgen::UnitRole;
    let nl = build_benchmark(&BenchmarkConfig::paper()).expect("benchmark");
    let mut sim = Simulator::new(&nl);
    let pair = [UnitRole::Divider.unit_id(), UnitRole::RippleAdder.unit_id()];
    sim.run_workload(&Workload::with_active_units(&nl, &pair, 0.5), 16, 5);
    sim.reset_activity();
    sim.run_workload(&Workload::with_active_units(&nl, &pair, 0.5), 256, 6);
    let two_units = digest(&sim.activity());
    // Hand the activity to a different unit: the pair goes quiet after
    // one cycle and the MAC wakes up, all without a reset.
    let mac = [UnitRole::Mac.unit_id()];
    sim.run_workload(&Workload::with_active_units(&nl, &mac, 0.3), 64, 7);
    assert_eq!(
        format!("{two_units:016x} {:016x}", digest(&sim.activity())),
        format!(
            "{:016x} {:016x}",
            0xfb11_858c_ff0a_5b51u64, 0xf373_0cc2_4c79_724cu64
        ),
        "switching activity moved (epoch {}): bump ENGINE_EPOCH if this moved on purpose",
        postplace::ENGINE_EPOCH
    );
}
