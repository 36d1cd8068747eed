//! Golden timing, wirelength and power bits on the paper design at the
//! default 40×40 mesh: the base placement and the uniform 0.16, ERI and
//! HW runs. Each case pins `critical_path_ps` and `slack_ps`, a digest of
//! the critical cells and the HPWL; the placed per-cell power is pinned
//! once. Any change to the timing analyzer, the wirelength model or the
//! placed power estimate must reproduce these bits.

use placement::total_hpwl;
use postplace::{Flow, FlowConfig, Strategy};
use timan::TimingReport;

/// FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn line(case: &str, timing: &TimingReport, hpwl_um: f64) -> String {
    let mut cells = Fnv::new();
    cells.write(timing.critical_cells.len() as u64);
    for cell in timing.critical_cells.iter() {
        cells.write(cell.index() as u64);
    }
    format!(
        "{case}: critical {:016x} slack {:016x} cells {:016x} hpwl {:016x}",
        timing.critical_path_ps.to_bits(),
        timing.slack_ps.to_bits(),
        cells.0,
        hpwl_um.to_bits()
    )
}

#[test]
fn paper_timing_hpwl_and_power_match_their_golden_bits() {
    let flow = Flow::new(FlowConfig::scattered_small()).expect("flow builds");
    let base = flow.base_placement();
    let rows = (0.16 * base.floorplan.num_rows() as f64).round() as usize;

    let mut got = Vec::new();
    let baseline = flow.run(Strategy::None).expect("baseline runs");
    got.push(line(
        "base",
        &baseline.timing_before,
        baseline.hpwl_before_um,
    ));
    // The public entry points reproduce the flow's baseline bits.
    let (_, tmap) = flow.baseline_maps().expect("baseline solve");
    let direct = timan::analyze(
        flow.netlist(),
        &base.floorplan,
        &base.placement,
        Some(&tmap),
        &flow.config().timing,
    )
    .expect("base placement is fully placed");
    assert_eq!(direct, baseline.timing_before);
    let direct_hpwl = total_hpwl(flow.netlist(), &base.floorplan, &base.placement);
    assert_eq!(direct_hpwl.to_bits(), baseline.hpwl_before_um.to_bits());

    for (case, strategy) in [
        (
            "uniform:0.16",
            Strategy::UniformSlack {
                area_overhead: 0.16,
            },
        ),
        ("eri", Strategy::EmptyRowInsertion { rows }),
        (
            "hw:0.16",
            Strategy::HotspotWrapper {
                area_overhead: 0.16,
            },
        ),
    ] {
        let report = flow.run(strategy).expect("strategy runs");
        got.push(line(case, &report.timing_after, report.hpwl_after_um));
    }

    let power = flow.power();
    let mut h = Fnv::new();
    for (id, _) in flow.netlist().cells() {
        h.write(power.cell_dynamic_w(id).to_bits());
        h.write(power.cell_leakage_w(id).to_bits());
    }
    got.push(format!(
        "power: cells {} digest {:016x}",
        flow.netlist().cell_count(),
        h.0
    ));

    let want = [
        "base: critical 40fc2a7f766c291e slack c0fbebff766c291e cells af7abb0f03804644 hpwl 4123e1dd4ccccc1c",
        "uniform:0.16: critical 40fcb3cf7bfb62b6 slack c0fc754f7bfb62b6 cells af7abb0f03804644 hpwl 41257c8a7fffff52",
        "eri: critical 40fbe783713048e3 slack c0fba903713048e3 cells af7abb0f03804644 hpwl 4124b182e66665b5",
        "hw:0.16: critical 40fc8140804a3c1c slack c0fc42c0804a3c1c cells af7abb0f03804644 hpwl 4128742c7fffff90",
        "power: cells 11446 digest 44ecb4264b3883c4",
    ];
    assert_eq!(
        got,
        want,
        "timing, wirelength or placed power moved (epoch {}): bump ENGINE_EPOCH if this moved on purpose",
        postplace::ENGINE_EPOCH
    );
}
