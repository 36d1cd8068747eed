use geom::Rect;
use netlist::{CellId, Netlist};
use serde::{Deserialize, Serialize};

use crate::{assign_unit_regions, Floorplan, PlaceError, Placement};

/// Placer configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacerConfig {
    /// Target row-utilization factor ("total cell area divided by core
    /// area"). The paper's *Default* scheme lowers this to spread
    /// whitespace uniformly.
    pub utilization: f64,
    /// Fix the core width (µm) instead of deriving a square outline.
    pub fixed_core_width: Option<f64>,
    /// Fix the row count instead of deriving it from the aspect ratio.
    pub fixed_num_rows: Option<usize>,
    /// Reverse cell order on alternate rows (better row-to-row locality).
    pub serpentine: bool,
}

impl Default for PlacerConfig {
    fn default() -> Self {
        PlacerConfig {
            utilization: 0.85,
            fixed_core_width: None,
            fixed_num_rows: None,
            serpentine: true,
        }
    }
}

impl PlacerConfig {
    /// Default configuration at a specific utilization.
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is not in `(0, 1]`.
    pub fn with_utilization(utilization: f64) -> Self {
        assert!(
            utilization > 0.0 && utilization <= 1.0,
            "utilization must be in (0, 1]"
        );
        PlacerConfig {
            utilization,
            ..Default::default()
        }
    }
}

/// The placer's output: floorplan, legal placement (fillers inserted) and
/// the per-unit regions used.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementResult {
    /// The sized floorplan.
    pub floorplan: Floorplan,
    /// The legal, filler-complete placement.
    pub placement: Placement,
    /// Region assigned to each unit, in unit-id order.
    pub regions: Vec<Rect>,
}

/// Region-constrained row placer.
///
/// Each unit receives a rectangular region (area-proportional slicing);
/// its cells are packed into the region's row segments in netlist order —
/// which the generators emit in bit order, so connected cells land next
/// to each other — with whitespace spread uniformly inside each row
/// segment. This mirrors what a commercial tool produces for a blocked
/// design: uniform cell density at the requested utilization.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug, Clone, Default)]
pub struct Placer {
    config: PlacerConfig,
}

impl Placer {
    /// Creates a placer.
    pub fn new(config: PlacerConfig) -> Self {
        Placer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &PlacerConfig {
        &self.config
    }

    /// Floorplans and places `netlist`.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError::RegionOverflow`] / [`PlaceError::CoreTooSmall`]
    /// when the utilization target leaves insufficient space.
    pub fn place(&self, netlist: &Netlist) -> Result<PlacementResult, PlaceError> {
        let lib = netlist.library();
        let cell_area = netlist.total_cell_area_um2();
        let mut floorplan = match (self.config.fixed_core_width, self.config.fixed_num_rows) {
            (Some(w), Some(r)) => Floorplan::new(lib, w, r),
            (Some(w), None) => {
                let h = cell_area / self.config.utilization / w;
                let rows = (h / lib.row_height_um()).ceil().max(1.0) as usize;
                Floorplan::new(lib, w, rows)
            }
            (None, Some(r)) => {
                let w = cell_area / self.config.utilization / (r as f64 * lib.row_height_um());
                Floorplan::new(lib, w, r)
            }
            (None, None) => Floorplan::for_cell_area(lib, cell_area, self.config.utilization),
        };
        // Tiny designs can derive a core narrower than their widest cell;
        // widen to keep every row usable (a min-width floorplan rule).
        let widest_um = netlist
            .cells()
            .map(|(_, c)| lib.cell_width_um(c.master()))
            .fold(0.0f64, f64::max);
        if self.config.fixed_core_width.is_none() && floorplan.core().width() < widest_um * 2.0 {
            let width = widest_um * 2.0;
            let rows = (cell_area / self.config.utilization / (width * lib.row_height_um()))
                .ceil()
                .max(1.0) as usize;
            floorplan = Floorplan::new(lib, width, rows);
        }
        let site_area = lib.site_width_um() * lib.row_height_um();
        let needed_sites = (cell_area / site_area).ceil() as u64;
        if needed_sites > floorplan.total_sites() {
            return Err(PlaceError::CoreTooSmall {
                needed_sites,
                capacity_sites: floorplan.total_sites(),
            });
        }
        let regions = assign_unit_regions(netlist, floorplan.core());
        // Each unit's cells go into its region's row segments in order,
        // with uniform whitespace inside each segment. The runs wait per
        // row, and each row is built once; only the first-fit sweep, which
        // reads the row index, makes the placement sooner.
        let mut runs: Vec<Vec<(CellId, u32)>> = vec![Vec::new(); floorplan.num_rows()];
        let mut placement = None;
        for (unit, _) in netlist.units() {
            let cells = netlist.unit_cells(unit);
            let segments = region_row_segments(&floorplan, regions[unit.index()]);
            let widths: Vec<u32> = cells.iter().map(|&c| netlist.cell_width_sites(c)).collect();
            let needed: u64 = widths.iter().map(|&w| w as u64).sum();
            let capacity: u64 = segments.iter().map(|&(_, lo, hi)| (hi - lo) as u64).sum();
            let overflow = || PlaceError::RegionOverflow {
                unit: netlist.unit(unit).name().to_string(),
                needed_sites: needed,
                capacity_sites: capacity,
            };
            if needed > capacity {
                return Err(overflow());
            }
            let mut idx = 0usize; // next unplaced cell
            let mut placed_sites: u64 = 0;
            let mut seen_sites: u64 = 0;
            for (seg_no, &(row, lo, hi)) in segments.iter().enumerate() {
                if idx >= cells.len() {
                    break;
                }
                let seg_sites = (hi - lo) as u64;
                seen_sites += seg_sites;
                // Proportional target: by the end of this segment we
                // should have placed `needed × seen/capacity` sites worth
                // of cells.
                let target: u64 = if seg_no + 1 == segments.len() {
                    needed
                } else {
                    needed * seen_sites / capacity
                };
                let mut batch: Vec<usize> = Vec::new();
                let mut batch_width: u64 = 0;
                while idx < cells.len()
                    && placed_sites + batch_width < target
                    && batch_width + widths[idx] as u64 <= seg_sites
                {
                    batch_width += widths[idx] as u64;
                    batch.push(idx);
                    idx += 1;
                }
                if batch.is_empty() {
                    continue;
                }
                if self.config.serpentine && seg_no % 2 == 1 {
                    batch.reverse();
                }
                // Uniform gaps before each cell; the row segment ends flush.
                let free = seg_sites - batch_width;
                let n = batch.len() as u64;
                let gap_each = free / n;
                let extra = free % n;
                let mut cursor = lo as u64;
                runs[row as usize].extend(batch.iter().enumerate().map(|(i, &ci)| {
                    cursor += gap_each + u64::from((i as u64) < extra);
                    let site = cursor as u32;
                    cursor += widths[ci] as u64;
                    (cells[ci], site)
                }));
                placed_sites += batch_width;
            }
            if idx < cells.len() {
                // Proportional batching under-filled (can happen when one
                // cell is wider than a segment's leftover): sweep again,
                // first-fit.
                let built = build_rows(netlist, &floorplan, placement.take(), &mut runs);
                let placement = placement.insert(built);
                for &(row, lo, hi) in &segments {
                    if idx >= cells.len() {
                        break;
                    }
                    let mut site = lo;
                    while idx < cells.len() {
                        let Some(fit) = placement.first_fit(row, site, hi, widths[idx]) else {
                            break;
                        };
                        placement.place(netlist, &floorplan, cells[idx], row, fit);
                        site = fit + widths[idx];
                        idx += 1;
                    }
                }
                if idx < cells.len() {
                    return Err(overflow());
                }
            }
        }
        let placement = build_rows(netlist, &floorplan, placement, &mut runs);
        Ok(PlacementResult {
            floorplan,
            placement,
            regions,
        })
    }
}

/// Writes the waiting `runs` (per row, `(cell, site)` in any order) into
/// `placement`, or into a new placement when there is none, building
/// each row they touch once, and leaves `runs` empty.
fn build_rows(
    netlist: &Netlist,
    floorplan: &Floorplan,
    placement: Option<Placement>,
    runs: &mut [Vec<(CellId, u32)>],
) -> Placement {
    for run in runs.iter_mut() {
        run.sort_unstable_by_key(|&(_, site)| site);
    }
    let Some(mut placement) = placement else {
        let rows = runs.iter_mut().map(std::mem::take).collect();
        return Placement::from_rows(netlist, floorplan, rows);
    };
    for (row, run) in runs
        .iter_mut()
        .enumerate()
        .filter(|(_, run)| !run.is_empty())
    {
        let row = row as u32;
        run.extend(
            placement
                .row_cells(row)
                .iter()
                .map(|&(site, cell, _)| (cell, site)),
        );
        run.sort_unstable_by_key(|&(_, site)| site);
        placement.rewrite_row(netlist, floorplan, row, run);
        run.clear();
    }
    placement
}

/// Row segments of `region`: `(row, site_lo, site_hi)` for every row whose
/// center lies inside the region's vertical span.
pub fn region_row_segments(floorplan: &Floorplan, region: Rect) -> Vec<(u32, u32, u32)> {
    (0..floorplan.num_rows())
        .filter_map(|r| row_segment(floorplan, r, region))
        .collect()
}

/// Row `r`'s segment of `region` as in [`region_row_segments`], if the
/// row's center lies inside the region's vertical span.
pub(crate) fn row_segment(
    floorplan: &Floorplan,
    r: usize,
    region: Rect,
) -> Option<(u32, u32, u32)> {
    let row_rect = floorplan.row_rect(r);
    let cy = (row_rect.lly + row_rect.ury) / 2.0;
    if cy < region.lly || cy >= region.ury {
        return None;
    }
    let row = floorplan.row(r);
    let sw = floorplan.site_width();
    let lo = ((region.llx - row.origin_x) / sw).ceil().max(0.0) as u32;
    let hi_f = ((region.urx - row.origin_x) / sw).floor();
    let hi = (hi_f.max(0.0) as u32).min(row.num_sites);
    (hi > lo).then_some((r as u32, lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use arithgen::{build_benchmark, BenchmarkConfig};

    #[test]
    fn benchmark_places_fully_at_default_utilization() {
        let nl = build_benchmark(&BenchmarkConfig::small()).unwrap();
        let result = Placer::new(PlacerConfig::default()).place(&nl).unwrap();
        assert!(result.placement.is_fully_placed(&nl));
        assert!(crate::validate(&nl, &result.floorplan, &result.placement).is_empty());
    }

    #[test]
    fn cells_land_in_their_unit_region() {
        let nl = build_benchmark(&BenchmarkConfig::small()).unwrap();
        let result = Placer::new(PlacerConfig::default()).place(&nl).unwrap();
        let mut misplaced = 0;
        for (id, cell) in nl.cells() {
            let region = result.regions[cell.unit().index()];
            let center = result
                .placement
                .cell_center(&nl, &result.floorplan, id)
                .unwrap();
            // Row quantization can push boundary cells slightly out.
            if !region
                .expand(result.floorplan.row_height())
                .contains(center)
            {
                misplaced += 1;
            }
        }
        assert_eq!(misplaced, 0, "{misplaced} cells far outside their region");
    }

    #[test]
    fn lower_utilization_grows_the_core() {
        let nl = build_benchmark(&BenchmarkConfig::small()).unwrap();
        let tight = Placer::new(PlacerConfig::with_utilization(0.9))
            .place(&nl)
            .unwrap();
        let loose = Placer::new(PlacerConfig::with_utilization(0.6))
            .place(&nl)
            .unwrap();
        assert!(loose.floorplan.core().area() > tight.floorplan.core().area() * 1.4);
    }

    #[test]
    fn utilization_one_is_infeasible_or_tight() {
        let nl = build_benchmark(&BenchmarkConfig::small()).unwrap();
        // At u = 1.0 there is zero slack; region quantization makes this
        // either barely succeed or overflow — both acceptable, never panic.
        match Placer::new(PlacerConfig::with_utilization(1.0)).place(&nl) {
            Ok(r) => assert!(r.placement.is_fully_placed(&nl)),
            Err(e) => assert!(matches!(
                e,
                PlaceError::RegionOverflow { .. } | PlaceError::CoreTooSmall { .. }
            )),
        }
    }

    #[test]
    fn fixed_outline_is_respected() {
        let nl = build_benchmark(&BenchmarkConfig::small()).unwrap();
        let cfg = PlacerConfig {
            fixed_core_width: Some(335.0),
            utilization: 0.7,
            ..Default::default()
        };
        let result = Placer::new(cfg).place(&nl).unwrap();
        assert!((result.floorplan.core().width() - 334.8).abs() < 0.5);
    }
}
