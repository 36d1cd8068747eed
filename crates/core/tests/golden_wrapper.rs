//! Golden hotspot-wrapper placements: the `(row, site)` of every cell
//! after the HW transform (uniform slack, then wrap) on the four
//! fine-mesh benchmark workloads, at two overheads on a 32×32 mesh (with
//! the wrapper's eviction and re-spread counts) and at three budgets on
//! the service's 128×128 mesh. Any change to the slot search, the
//! squeeze fallback or the placement index must reproduce these bits.

use placement::Placement;
use postplace::{
    detect_hotspots, hotspot_wrapper, split_hotspots_by_regions, wrap_regions, Flow, FlowConfig,
    FlowError, HotspotWrapperTransform, PlacementTransform, TransformContext, TransformState,
    UniformSlackTransform, WorkloadSpec, WrapHotspotsTransform,
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

/// The flow of `workload` at the paper design on a `mesh`² grid, as the
/// service resolves a fine-mesh request.
fn flow_at(workload: WorkloadSpec, mesh: usize) -> Flow {
    let mut config = FlowConfig::scattered_small();
    config.workload = workload;
    config.thermal.grid = thermalsim::GridSpec { nx: mesh, ny: mesh };
    Flow::new(config).expect("flow builds")
}

/// The baseline state of `flow`: its base placement with the baseline
/// thermal analysis, as every exact run starts.
fn base_state(flow: &Flow) -> TransformState {
    let base = flow.base_placement();
    let (_, tmap) = flow.baseline_maps().expect("baseline solve");
    let hotspots = flow.baseline_hotspots().expect("baseline hotspots");
    TransformState::with_thermal(
        base.floorplan.clone(),
        base.placement.clone(),
        base.regions.clone(),
        tmap.into(),
        hotspots.clone(),
    )
}

/// Runs HW at `overhead` and digests the result. The wrap stage is
/// replayed by hand to read its report; the replay must land on the
/// transform's own placement.
fn wrapped_digest(flow: &Flow, overhead: f64) -> u64 {
    let ctx = TransformContext::new(flow).expect("baseline power");
    let mut base_state = base_state(flow);
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
    let tmap = relaxed.thermal_map().expect("thermal map");
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
        let flow = flow_at(workload, MESH);
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

/// The service's fine mesh: the `budget_fine` requests' flows.
const FINE_MESH: usize = 128;

/// HW on the 128×128 fine-mesh flows at three area budgets, as a budget
/// request runs it (the wrap stage on the uniform candidate's state). A
/// wrap the die cannot absorb is refused, which is an answer too.
#[test]
fn fine_mesh_wrapper_placements_match_their_golden_digests() {
    let golden: [(&str, [&str; 3]); 4] = [
        (
            "scattered_small",
            ["f705ed137a06517f", "28b5cb8ce10e7576", "62ca7483dcc6e3d4"],
        ),
        (
            "concentrated_large",
            ["a9e92ee4c123b7ad", "be508c378e83d6a1", "d393b62b62886605"],
        ),
        (
            "clustered_hotspot",
            ["refused", "36ed6fc303976a7d", "00cafd4f38fe4f7b"],
        ),
        (
            "checkerboard",
            ["c1c44a7a6d89e57a", "8562cf1e6d9a45b7", "f42cf2b0968a199e"],
        ),
    ];
    let mut got = Vec::new();
    let mut want = Vec::new();
    for ((name, workload), (_, digests)) in workloads().into_iter().zip(golden) {
        let flow = flow_at(workload, FINE_MESH);
        let ctx = TransformContext::new(&flow).expect("baseline power");
        for (budget, digest) in [0.05, 0.15, 0.28].into_iter().zip(digests) {
            let mut relaxed = UniformSlackTransform {
                area_overhead: budget,
            }
            .apply(&ctx, &mut base_state(&flow))
            .expect("uniform applies");
            let outcome = match WrapHotspotsTransform.apply(&ctx, &mut relaxed) {
                Ok(wrapped) => format!("{:016x}", placement_digest(&wrapped.placement, 0, 0)),
                Err(FlowError::BadStrategy { .. }) => "refused".to_string(),
                Err(e) => panic!("{name}@{budget}: {e}"),
            };
            got.push(format!("{name}@{budget}: {outcome}"));
            want.push(format!("{name}@{budget}: {digest}"));
        }
    }
    assert_eq!(
        got,
        want,
        "fine-mesh hotspot-wrapper placements moved (epoch {})",
        postplace::ENGINE_EPOCH
    );
}
