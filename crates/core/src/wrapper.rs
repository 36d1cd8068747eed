//! The Hotspot Wrapper (HW).
//!
//! "We isolate the hotspot from the rest of the circuit using a wrapper,
//! namely, the cells which are the source of the hotspot are enclosed in
//! a 'whitespace ring'. Once the hotspot is isolated, we reduce the cell
//! density inside the wrapper by moving cells not belonging to the
//! hotspot outside the wrapper and uniformly distribute the remaining
//! cells in the wrapper area."

use geom::{Grid2d, Rect};
use netlist::{CellId, Netlist};
use placement::{fill_whitespace, nearest_slot_outside, squeeze_into_row, Floorplan, Placement};
use powerest::PowerReport;
use serde::{Deserialize, Serialize};

use crate::{FlowError, Hotspot, PowerDelta};

/// Hotspot-wrapper parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WrapperConfig {
    /// Ring width added around each hotspot bounding box, in row pitches.
    pub ring_rows: f64,
    /// A cell is a hotspot *source* when its power density exceeds this
    /// multiple of the design's average power density.
    pub hot_cell_factor: f64,
    /// Detection threshold used to find the hotspot *cores* to wrap
    /// (higher than general-purpose detection: the wrapper targets the
    /// concentrated center of a hotspot, as in the paper's Fig. 4).
    pub threshold_fraction: f64,
    /// Regions whose hot cells occupy less than this fraction of the
    /// occupied area are left alone — there is no hotspot source to
    /// isolate, only diffused warmth.
    pub min_hot_share: f64,
}

impl Default for WrapperConfig {
    fn default() -> Self {
        WrapperConfig {
            ring_rows: 3.0,
            hot_cell_factor: 1.5,
            threshold_fraction: 0.3,
            min_hot_share: 0.25,
        }
    }
}

/// Computes the regions to wrap: each hotspot's bounding box grown by the
/// whitespace ring and clamped to the core. The grown ring is what makes
/// the wrapper effective — the hot cells get re-spread over
/// `bbox + ring`, diluting the hotspot's power density.
///
/// Wrappers whose *rings* collide are separated at the midline of their
/// overlap (the hotspot bounding boxes themselves never overlap); any
/// remaining overlaps (pathological geometry) are merged.
pub fn wrap_regions(
    hotspots: &[Hotspot],
    floorplan: &Floorplan,
    config: &WrapperConfig,
) -> Vec<Rect> {
    let core = floorplan.core();
    let ring = config.ring_rows * floorplan.row_height();
    let mut regions: Vec<Rect> = hotspots
        .iter()
        .map(|h| h.bbox.expand(ring).clamp_into(&core))
        .collect();
    // Negotiate ring collisions: cut both regions at the midline of their
    // overlap, along the axis with the smaller overlap.
    for _round in 0..64 {
        let mut changed = false;
        for i in 0..regions.len() {
            for j in i + 1..regions.len() {
                let (a, b) = (regions[i], regions[j]);
                if !a.intersects(&b) {
                    continue;
                }
                let ox = a.urx.min(b.urx) - a.llx.max(b.llx);
                let oy = a.ury.min(b.ury) - a.lly.max(b.lly);
                if ox <= oy {
                    let mid = (a.llx.max(b.llx) + a.urx.min(b.urx)) / 2.0;
                    if a.center().x <= b.center().x {
                        regions[i].urx = mid;
                        regions[j].llx = mid;
                    } else {
                        regions[j].urx = mid;
                        regions[i].llx = mid;
                    }
                } else {
                    let mid = (a.lly.max(b.lly) + a.ury.min(b.ury)) / 2.0;
                    if a.center().y <= b.center().y {
                        regions[i].ury = mid;
                        regions[j].lly = mid;
                    } else {
                        regions[j].ury = mid;
                        regions[i].lly = mid;
                    }
                }
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Merge anything still overlapping (e.g. concentric boxes).
    loop {
        let mut merged = false;
        'outer: for i in 0..regions.len() {
            for j in i + 1..regions.len() {
                if regions[i].intersects(&regions[j]) {
                    let union = regions[i].union(&regions[j]);
                    regions[i] = union;
                    regions.remove(j);
                    merged = true;
                    break 'outer;
                }
            }
        }
        if !merged {
            break;
        }
    }
    regions
}

/// The screening surrogate for a Hotspot Wrapper candidate: the paper's
/// HW starts from the Default solution at `area_overhead` (a uniform
/// density dilution, `1/(1 + overhead)` on every bin) and then re-spreads
/// each wrapped hotspot's power evenly over its grown region. Modeled on
/// the baseline mesh: all bins scale down uniformly, then the power of
/// the bins inside each wrap `region` is pooled and flattened across
/// them. Not a pure scaling (the wrapped bins deviate from it), so a
/// [`crate::DeltaCandidateEvaluator`] prices it by one thermal solve.
pub fn wrapper_power_delta(
    power: &Grid2d<f64>,
    regions: &[Rect],
    area_overhead: f64,
) -> PowerDelta {
    let diluted = crate::uniform_surrogate_map(power, area_overhead);
    PowerDelta::between(power, &wrap_surrogate_map(&diluted, regions), 1e-15)
}

/// The surrogate *map* of a wrap stage alone: the power of the bins
/// inside each wrap `region` pooled and flattened across them, with no
/// dilution — the composable map→map half of [`wrapper_power_delta`],
/// used by transform pipelines that stack wrapping on top of another
/// area-spending stage (uniform slack, row insertion).
pub fn wrap_surrogate_map(power: &Grid2d<f64>, regions: &[Rect]) -> Grid2d<f64> {
    let mut new_map = power.clone();
    for region in regions {
        let mut bins = Vec::new();
        let mut pooled = 0.0;
        for iy in 0..power.ny() {
            for ix in 0..power.nx() {
                if region.contains(power.bin_rect(ix, iy).center()) {
                    pooled += *new_map.get(ix, iy);
                    bins.push((ix, iy));
                }
            }
        }
        if bins.is_empty() {
            continue;
        }
        let flat = pooled / bins.len() as f64;
        for (ix, iy) in bins {
            *new_map.get_mut(ix, iy) = flat;
        }
    }
    new_map
}

/// What a wrapper transformation did.
#[derive(Debug, Clone, PartialEq)]
pub struct WrapperReport {
    /// The wrapped regions processed.
    pub regions: Vec<Rect>,
    /// Cells evicted out of the wrapped regions.
    pub evicted: usize,
    /// Hot cells re-spread inside the wrapped regions.
    pub respread: usize,
}

/// Applies the hotspot wrapper in place over pre-computed (disjoint)
/// `regions` — see [`wrap_regions`].
///
/// For every region: classify the cells inside by power density, move the
/// *cold* cells to the nearest free legal slot outside all wrapped
/// regions (the paper's "exclusive move bounds"), and spread the *hot*
/// cells uniformly over the region. Fillers are re-poured at the end.
///
/// # Errors
///
/// Returns [`FlowError::BadStrategy`] when no region is supplied or a
/// cell cannot be evicted (die too full), and propagates legalization
/// failures from the re-spread.
pub fn hotspot_wrapper(
    netlist: &Netlist,
    floorplan: &Floorplan,
    placement: &mut Placement,
    regions: &[Rect],
    power: &PowerReport,
    config: &WrapperConfig,
) -> Result<WrapperReport, FlowError> {
    if regions.is_empty() {
        return Err(FlowError::BadStrategy {
            detail: "no regions to wrap; run detection first".to_string(),
        });
    }
    let lib = netlist.library();
    // Average power density over the whole design (W/µm²). The hot/cold
    // classification is placement-independent, so compute it once.
    let total_area: f64 = netlist.total_cell_area_um2();
    let avg_density = power.total_w() / total_area;
    let mut hot_flags = Vec::new();
    for (id, cell) in netlist.cells() {
        if hot_flags.len() <= id.index() {
            hot_flags.resize(id.index() + 1, false);
        }
        let area = lib.cell_area_um2(cell.master());
        hot_flags[id.index()] = power.cell_w(id) / area >= config.hot_cell_factor * avg_density;
    }
    let is_hot = |id: netlist::CellId| hot_flags[id.index()];

    // Grow each region until it encloses its hotspot *sources*: the
    // detected thermal blob may cover only the core of the source
    // cluster, and re-spreading into a region smaller than the cluster
    // would concentrate it instead of diluting it. The placement is not
    // touched until the eviction phase, so the hot rects are stable here.
    let hot_rects: Vec<Rect> = netlist
        .cells()
        .filter(|&(id, _)| is_hot(id))
        .filter_map(|(id, _)| placement.cell_rect(netlist, floorplan, id))
        .collect();
    let core = floorplan.core();
    let ring = config.ring_rows * floorplan.row_height();
    let mut regions: Vec<Rect> = regions.to_vec();
    for region in &mut regions {
        for _ in 0..4 {
            let mut bbox: Option<Rect> = None;
            for rect in &hot_rects {
                if region.intersects(rect) {
                    bbox = Some(match bbox {
                        None => *rect,
                        Some(b) => b.union(rect),
                    });
                }
            }
            let Some(bbox) = bbox else { break };
            let grown = region.union(&bbox.expand(ring)).clamp_into(&core);
            if (grown.area() - region.area()).abs() < 1e-9 {
                break;
            }
            *region = grown;
        }
    }
    // Re-separate any regions that grew into each other.
    for _round in 0..64 {
        let mut changed = false;
        for i in 0..regions.len() {
            for j in i + 1..regions.len() {
                let (a, b) = (regions[i], regions[j]);
                if !a.intersects(&b) {
                    continue;
                }
                let ox = a.urx.min(b.urx) - a.llx.max(b.llx);
                let oy = a.ury.min(b.ury) - a.lly.max(b.lly);
                if ox <= oy {
                    let mid = (a.llx.max(b.llx) + a.urx.min(b.urx)) / 2.0;
                    if a.center().x <= b.center().x {
                        regions[i].urx = mid;
                        regions[j].llx = mid;
                    } else {
                        regions[j].urx = mid;
                        regions[i].llx = mid;
                    }
                } else {
                    let mid = (a.lly.max(b.lly) + a.ury.min(b.ury)) / 2.0;
                    if a.center().y <= b.center().y {
                        regions[i].ury = mid;
                        regions[j].lly = mid;
                    } else {
                        regions[j].ury = mid;
                        regions[i].lly = mid;
                    }
                }
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut evicted = 0usize;
    let mut respread = 0usize;
    let mut processed_regions = Vec::new();
    for region in regions.iter() {
        // Partition the cells touching the wrapped region. Any overlap
        // counts: a cell straddling the boundary would collide with the
        // re-spread.
        let mut hot_cells: Vec<CellId> = Vec::new();
        let mut cold_cells: Vec<(CellId, geom::Point, placement::PlacedCell)> = Vec::new();
        for (id, _) in netlist.cells() {
            let Some(rect) = placement.cell_rect(netlist, floorplan, id) else {
                continue;
            };
            if !region.intersects(&rect) {
                continue;
            }
            if is_hot(id) {
                hot_cells.push(id);
            } else {
                // `cell_rect` above answered, so the cell has a slot;
                // skip rather than assert if that ever stops holding.
                let Some(slot) = placement.location(id) else {
                    continue;
                };
                cold_cells.push((id, rect.center(), slot));
            }
        }
        // Diffused-warmth region with no real source: leave it alone
        // (wrapping it would only stretch wires).
        let hot_area: f64 = hot_cells
            .iter()
            .map(|&c| lib.cell_area_um2(netlist.cell(c).master()))
            .sum();
        let cold_area: f64 = cold_cells
            .iter()
            .map(|&(c, _, _)| lib.cell_area_um2(netlist.cell(c).master()))
            .sum();
        if hot_area < config.min_hot_share * (hot_area + cold_area) {
            continue;
        }
        processed_regions.push(*region);
        // Evict cold cells to the nearest legal slot outside every region.
        for (id, origin, original_slot) in cold_cells {
            placement.remove(id);
            if let Some((row, site)) =
                nearest_slot_outside(netlist, floorplan, placement, id, origin, &regions)
            {
                placement.place(netlist, floorplan, id, row, site);
                evicted += 1;
                continue;
            }
            // No single gap is wide enough (uniform placements have many
            // small gaps): shove cells aside in the nearest row that lies
            // completely outside every wrapped region.
            let mut done = false;
            let mut candidate_rows: Vec<usize> = (0..floorplan.num_rows())
                .filter(|&r| {
                    let rect = floorplan.row_rect(r);
                    !regions.iter().any(|g| g.intersects(&rect))
                })
                .collect();
            candidate_rows.sort_by(|&a, &b| {
                let da = ((floorplan.row_rect(a).center().y) - origin.y).abs();
                let db = ((floorplan.row_rect(b).center().y) - origin.y).abs();
                da.total_cmp(&db)
            });
            // Cap the fill of receiving rows: dumping every evicted cell
            // into the nearest row would build a dense, hot stripe right
            // against the wrapper. Relax the cap progressively on small
            // dies rather than fail outright.
            'caps: for cap in [0.82, 0.95, 1.01] {
                for &r in &candidate_rows {
                    if placement.row_utilization(floorplan, r as u32) > cap {
                        continue;
                    }
                    if squeeze_into_row(netlist, floorplan, placement, id, r as u32, origin.x) {
                        done = true;
                        break 'caps;
                    }
                }
            }
            if !done {
                // Best effort: the die is too full to move this (cold)
                // cell out — leave it where it was; the re-spread will
                // route the hot cells around it.
                placement.place(
                    netlist,
                    floorplan,
                    id,
                    original_slot.row,
                    original_slot.site,
                );
                continue;
            }
            evicted += 1;
        }
        // Re-spread the hot cells over the wrapped region, preserving
        // their relative arrangement (affine scale-up): power density
        // dilutes by the area ratio everywhere, locality is untouched
        // (the paper: "evenly redistribute the 'hot cells' so that they
        // are not closely grouped together"; "changes of cell positions
        // are local").
        let sources: Vec<(CellId, geom::Point)> = hot_cells
            .iter()
            .filter_map(|&id| {
                placement
                    .cell_center(netlist, floorplan, id)
                    .map(|c| (id, c))
            })
            .collect();
        for &id in &hot_cells {
            placement.remove(id);
        }
        spread_scaled(netlist, floorplan, placement, &sources, *region)?;
        respread += sources.len();
    }
    fill_whitespace(netlist, floorplan, placement)?;
    Ok(WrapperReport {
        regions: processed_regions,
        evicted,
        respread,
    })
}

/// Re-places `sources` (cells with their previous centers) into `region`
/// by scaling their arrangement to fill it: each cell's relative position
/// inside the sources' bounding box maps affinely onto the region, rows
/// are then packed left-to-right with uniform gaps. Falls back to
/// first-fit for overflow rows.
fn spread_scaled(
    netlist: &Netlist,
    floorplan: &Floorplan,
    placement: &mut Placement,
    sources: &[(CellId, geom::Point)],
    region: Rect,
) -> Result<(), FlowError> {
    use placement::region_row_segments;
    if sources.is_empty() {
        return Ok(());
    }
    let lib = netlist.library();
    let width_of = |id: CellId| lib.cell(netlist.cell(id).master()).width_sites();
    let segments = region_row_segments(floorplan, region);
    if segments.is_empty() {
        return Err(FlowError::BadStrategy {
            detail: "wrapped region covers no rows".to_string(),
        });
    }
    let capacity: u64 = segments.iter().map(|&(_, lo, hi)| (hi - lo) as u64).sum();
    let needed: u64 = sources.iter().map(|&(id, _)| width_of(id) as u64).sum();
    if needed > capacity {
        return Err(FlowError::BadStrategy {
            detail: format!(
                "wrapped region too small for its hot cells ({needed} > {capacity} sites)"
            ),
        });
    }
    // Source bounding box.
    let mut src = Rect::new(
        sources[0].1.x,
        sources[0].1.y,
        sources[0].1.x,
        sources[0].1.y,
    );
    for &(_, c) in sources {
        src = src.union(&Rect::new(c.x, c.y, c.x, c.y));
    }
    let sw = src.width().max(1e-9);
    let sh = src.height().max(1e-9);
    // Map each cell to a segment index by scaled y, collect per segment.
    let nseg = segments.len();
    let mut per_segment: Vec<Vec<(CellId, f64)>> = vec![Vec::new(); nseg];
    for &(id, c) in sources {
        let ty = ((c.y - src.lly) / sh).clamp(0.0, 1.0);
        let tx = (c.x - src.llx) / sw;
        let seg = ((ty * nseg as f64) as usize).min(nseg - 1);
        per_segment[seg].push((id, tx));
    }
    // Balance overflowing segments into neighbours (row quantization).
    for i in 0..nseg {
        loop {
            let (_, lo, hi) = segments[i];
            let cap = (hi - lo) as u64;
            let used: u64 = per_segment[i]
                .iter()
                .map(|&(id, _)| width_of(id) as u64)
                .sum();
            if used <= cap {
                break;
            }
            // Move the cell with the most extreme tx to the lighter
            // neighbouring segment.
            per_segment[i].sort_by(|a, b| a.1.total_cmp(&b.1));
            let take_last = i + 1 < nseg;
            let moved = if take_last {
                per_segment[i].pop()
            } else if per_segment[i].is_empty() {
                None
            } else {
                Some(per_segment[i].remove(0))
            };
            // `used > cap >= 0` implies the segment holds a cell; bail
            // out of the balance loop rather than assert on it.
            let Some(moved) = moved else {
                break;
            };
            let dst = if take_last { i + 1 } else { i - 1 };
            per_segment[dst].push(moved);
        }
    }
    // Place each segment: tx order, uniform gaps.
    let mut leftovers: Vec<CellId> = Vec::new();
    for (i, batch) in per_segment.iter_mut().enumerate() {
        if batch.is_empty() {
            continue;
        }
        batch.sort_by(|a, b| a.1.total_cmp(&b.1));
        let (row, lo, hi) = segments[i];
        let seg_sites = (hi - lo) as u64;
        let batch_width: u64 = batch.iter().map(|&(id, _)| width_of(id) as u64).sum();
        if batch_width > seg_sites {
            leftovers.extend(batch.iter().map(|&(id, _)| id));
            continue;
        }
        let free = seg_sites - batch_width;
        let n = batch.len() as u64;
        let gap_each = free / n;
        let extra = free % n;
        let mut cursor = lo as u64;
        for (k, &(id, _)) in batch.iter().enumerate() {
            cursor += gap_each + u64::from((k as u64) < extra);
            let w = width_of(id);
            // An unevicted straggler may occupy the ideal slot: nudge
            // right until the cell fits, or defer it to the sweep.
            let mut site = cursor as u32;
            let mut placed_at = None;
            while site + w <= hi {
                if placement.fits(row, site, w) {
                    placement.place(netlist, floorplan, id, row, site);
                    placed_at = Some(site);
                    break;
                }
                site += 1;
            }
            match placed_at {
                Some(site) => cursor = (site + w) as u64,
                None => leftovers.push(id),
            }
        }
    }
    // First-fit sweep for anything that could not be balanced.
    'outer: for id in leftovers {
        let w = width_of(id);
        for &(row, lo, hi) in &segments {
            let mut site = lo;
            while site + w <= hi {
                if placement.fits(row, site, w) {
                    placement.place(netlist, floorplan, id, row, site);
                    continue 'outer;
                }
                site += 1;
            }
        }
        return Err(FlowError::BadStrategy {
            detail: "wrapped region could not absorb its hot cells".to_string(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{detect_hotspots, HotspotConfig};
    use arithgen::{build_benchmark, BenchmarkConfig, UnitRole};
    use logicsim::{Simulator, Workload};
    use placement::{validate, Placer, PlacerConfig};
    use powerest::{estimate_power, power_map, PowerConfig};

    fn pipeline() -> (
        netlist::Netlist,
        placement::PlacementResult,
        PowerReport,
        thermalsim::ThermalMap,
    ) {
        let nl = build_benchmark(&BenchmarkConfig::small()).unwrap();
        let placed = Placer::new(PlacerConfig::with_utilization(0.6))
            .place(&nl)
            .unwrap();
        let w = Workload::with_active_units(&nl, &[UnitRole::BoothMult.unit_id()], 0.5);
        let mut sim = Simulator::new(&nl);
        sim.run_workload(&w, 16, 3);
        sim.reset_activity();
        sim.run_workload(&w, 128, 4);
        let report = estimate_power(
            &nl,
            &sim.activity(),
            Some((&placed.floorplan, &placed.placement)),
            None,
            &PowerConfig::default(),
        );
        let pmap = power_map(&nl, &placed.floorplan, &placed.placement, &report, 20, 20);
        let sim_t =
            thermalsim::ThermalSimulator::new(thermalsim::ThermalConfig::with_resolution(20, 20));
        let tmap = sim_t.solve(placed.floorplan.core(), &pmap).unwrap();
        (nl, placed, report, tmap)
    }

    #[test]
    fn wrapper_keeps_placement_legal_and_lowers_hotspot_density() {
        let (nl, mut placed, report, tmap) = pipeline();
        let hotspots = detect_hotspots(&tmap, &HotspotConfig::default());
        assert!(!hotspots.is_empty(), "booth workload must create a hotspot");
        let cfg = WrapperConfig::default();
        let regions = wrap_regions(&hotspots, &placed.floorplan, &cfg);
        let before_density = {
            let region = hotspots[0].bbox;
            cell_area_in(&nl, &placed.floorplan, &placed.placement, region) / region.area()
        };
        let wr = hotspot_wrapper(
            &nl,
            &placed.floorplan,
            &mut placed.placement,
            &regions,
            &report,
            &cfg,
        )
        .unwrap();
        assert!(validate(&nl, &placed.floorplan, &placed.placement).is_empty());
        assert!(wr.respread > 0);
        let after_density = {
            let region = hotspots[0].bbox;
            cell_area_in(&nl, &placed.floorplan, &placed.placement, region) / region.area()
        };
        assert!(
            after_density < before_density,
            "wrapper must thin the hotspot: {after_density:.3} vs {before_density:.3}"
        );
    }

    fn cell_area_in(nl: &netlist::Netlist, fp: &Floorplan, p: &Placement, region: Rect) -> f64 {
        nl.cells()
            .filter_map(|(id, _)| p.cell_rect(nl, fp, id))
            .filter_map(|r| r.intersection(&region))
            .map(|r| r.area())
            .sum()
    }

    #[test]
    fn wrap_regions_merges_overlaps_and_respects_bounds() {
        let (_, placed, _, tmap) = pipeline();
        let hotspots = detect_hotspots(&tmap, &HotspotConfig::default());
        let cfg = WrapperConfig::default();
        let merged = wrap_regions(&hotspots, &placed.floorplan, &cfg);
        for (i, a) in merged.iter().enumerate() {
            for b in merged.iter().skip(i + 1) {
                assert!(!a.intersects(b), "wrap regions must be disjoint");
            }
            assert!(placed.floorplan.core().contains_rect(a));
        }
    }

    #[test]
    fn wrapper_without_regions_is_an_error() {
        let (nl, mut placed, report, _) = pipeline();
        let err = hotspot_wrapper(
            &nl,
            &placed.floorplan.clone(),
            &mut placed.placement,
            &[],
            &report,
            &WrapperConfig::default(),
        );
        assert!(err.is_err());
    }
}
