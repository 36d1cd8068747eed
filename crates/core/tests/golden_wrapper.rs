//! Golden hotspot-wrapper placements: the `(row, site)` of every cell
//! after the HW transform (uniform slack, then wrap) on the four
//! fine-mesh benchmark workloads at two overheads, plus the wrapper's
//! eviction and re-spread counts. Any change to the slot search, the
//! squeeze fallback or the placement index must reproduce these bits.

use placement::Placement;
use postplace::{
    detect_hotspots, hotspot_wrapper, split_hotspots_by_regions, wrap_regions, Flow, FlowConfig,
    HotspotWrapperTransform, PlacementTransform, TransformContext, TransformState,
    UniformSlackTransform, WorkloadSpec,
};

/// Lateral thermal mesh: fine enough for the resolution-aware wrap
/// thresholds to find the same kind of hotspots as the 128×128 service
/// workload, coarse enough for a debug-build test.
const MESH: usize = 32;

/// FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn write(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn placement_digest(placement: &Placement, evicted: usize, respread: usize) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (cell, slot) in placement.iter() {
        h.write(cell.index() as u64);
        h.write(u64::from(slot.row));
        h.write(u64::from(slot.site));
    }
    h.write(evicted as u64);
    h.write(respread as u64);
    h.0
}

/// The benchmark's fine-mesh flows: its base config (the paper design
/// under `scattered_small`) with each named workload and [`MESH`].
fn workloads() -> [(&'static str, WorkloadSpec); 4] {
    [
        ("scattered_small", FlowConfig::scattered_small().workload),
        (
            "concentrated_large",
            FlowConfig::concentrated_large().workload,
        ),
        ("clustered_hotspot", WorkloadSpec::clustered_hotspot()),
        ("checkerboard", WorkloadSpec::checkerboard()),
    ]
}

/// Runs HW at `overhead` and digests the result. The wrap stage is
/// replayed by hand to read its report; the replay must land on the
/// transform's own placement.
fn wrapped_digest(flow: &Flow, overhead: f64) -> u64 {
    let ctx = TransformContext::new(flow).expect("baseline power");
    let base = flow.base_placement();
    let (_, tmap) = flow.baseline_maps().expect("baseline solve");
    let hotspots = flow.baseline_hotspots().expect("baseline hotspots");
    let mut base_state = TransformState::with_thermal(
        base.floorplan.clone(),
        base.placement.clone(),
        base.regions.clone(),
        tmap,
        hotspots.to_vec(),
    );
    let transformed = HotspotWrapperTransform {
        area_overhead: overhead,
    }
    .apply(&ctx, &mut base_state.clone())
    .expect("hw applies");

    let mut relaxed = UniformSlackTransform {
        area_overhead: overhead,
    }
    .apply(&ctx, &mut base_state)
    .expect("uniform applies");
    relaxed.ensure_thermal(&ctx).expect("relaxed solve");
    let (tmap, _) = relaxed.analysis().expect("analysis");
    let config = flow.config();
    let hotspot_cfg = postplace::HotspotConfig {
        threshold_fraction: config.wrapper.threshold_fraction,
        ..config.hotspot
    }
    .scaled_for_mesh(MESH, MESH);
    let blobs = detect_hotspots(tmap, &hotspot_cfg);
    let spots = split_hotspots_by_regions(tmap, &blobs, &relaxed.regions, hotspot_cfg.min_bins);
    let regions = wrap_regions(&spots, &relaxed.floorplan, &config.wrapper);
    let mut placement = relaxed.placement.clone();
    let report = hotspot_wrapper(
        flow.netlist(),
        &relaxed.floorplan,
        &mut placement,
        &regions,
        ctx.power_report(),
        &config.wrapper,
    )
    .expect("wrapper runs");
    assert!(
        placement == transformed.placement,
        "the hand-replayed wrap stage diverged from HotspotWrapperTransform"
    );
    placement_digest(&placement, report.evicted, report.respread)
}

#[test]
fn wrapper_placements_match_their_golden_digests() {
    let golden: [(&str, [u64; 2]); 4] = [
        (
            "scattered_small",
            [0x3870_06fb_729d_f6c0, 0x29ab_9ea8_8e98_7da2],
        ),
        (
            "concentrated_large",
            [0x53c4_f951_98ad_80d1, 0x8158_e471_8de7_37a5],
        ),
        (
            "clustered_hotspot",
            [0x4100_6b57_8560_2134, 0x7b23_d630_8660_b8ed],
        ),
        (
            "checkerboard",
            [0x937e_3370_2813_7511, 0xf281_15d7_b2d3_4fa3],
        ),
    ];
    let mut got = Vec::new();
    let mut want = Vec::new();
    for ((name, workload), (_, digests)) in workloads().into_iter().zip(golden) {
        let mut config = FlowConfig::scattered_small();
        config.workload = workload;
        config.thermal.grid = thermalsim::GridSpec { nx: MESH, ny: MESH };
        let flow = Flow::new(config).expect("flow builds");
        for (overhead, digest) in [0.08, 0.20].into_iter().zip(digests) {
            got.push(format!(
                "{name}@{overhead}: {:016x}",
                wrapped_digest(&flow, overhead)
            ));
            want.push(format!("{name}@{overhead}: {digest:016x}"));
        }
    }
    assert_eq!(
        got,
        want,
        "hotspot-wrapper placements moved (epoch {}): bump ENGINE_EPOCH if this moved on purpose",
        postplace::ENGINE_EPOCH
    );
}
