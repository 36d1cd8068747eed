//! Empty Row Insertion (ERI).
//!
//! "In the area around a given hotspot, we insert an empty row between
//! useful rows. This row of whitespace will be filled with dummy cells.
//! In this way we increase the area only of the hotspot region." The die
//! outline grows vertically by one row pitch per inserted row, exactly as
//! in the paper's Table I (20 rows: 335×335 → 335×389 µm²).

use geom::Grid2d;
use netlist::Netlist;
use placement::{fill_whitespace, Floorplan, Placement};
use thermalsim::ThermalMap;

use crate::{FlowError, Hotspot, PowerDelta};

/// What an ERI transformation did.
#[derive(Debug, Clone, PartialEq)]
pub struct EriReport {
    /// Old-index row positions that received an empty row below them.
    pub insertion_positions: Vec<usize>,
    /// Resulting area overhead, as a fraction of the original core area.
    pub area_overhead: f64,
}

/// Inserts `rows` empty rows interleaved with the hotspot rows and
/// rebuilds the placement on the grown floorplan (cells move up rigidly;
/// fillers are re-poured).
///
/// Insertion positions are the gaps between used rows, ranked by the
/// temperature of the adjacent rows (from the hotspot bins of the thermal
/// map): the hottest gaps receive empty rows first; once every gap of a
/// hot band has one, further rows double up, widening the whitespace.
///
/// # Errors
///
/// Returns [`FlowError::BadStrategy`] when `rows == 0` or no hotspot was
/// supplied.
pub fn empty_row_insertion(
    netlist: &Netlist,
    floorplan: &Floorplan,
    placement: &Placement,
    map: &ThermalMap,
    hotspots: &[Hotspot],
    rows: usize,
) -> Result<(Floorplan, Placement, EriReport), FlowError> {
    let positions = eri_insertion_positions(floorplan, map, hotspots, rows)?;
    let (new_fp, mapping) = floorplan.with_rows_inserted(&positions);
    let mut new_placement = placement.remap_rows(&new_fp, &mapping);
    fill_whitespace(netlist, &new_fp, &mut new_placement)?;
    let area_overhead = new_fp.core().area() / floorplan.core().area() - 1.0;
    Ok((
        new_fp,
        new_placement,
        EriReport {
            insertion_positions: positions,
            area_overhead,
        },
    ))
}

/// Chooses where `rows` empty rows would go, without touching the
/// placement: the gaps between used rows ranked by the temperature of
/// the adjacent rows, hottest first, wrapping around once every hot gap
/// has one. This is the decision half of [`empty_row_insertion`], shared
/// with the candidate-screening surrogate ([`eri_power_delta`]).
///
/// # Errors
///
/// Returns [`FlowError::BadStrategy`] when `rows == 0`, no hotspot was
/// supplied, or the hotspots overlap no row.
pub fn eri_insertion_positions(
    floorplan: &Floorplan,
    map: &ThermalMap,
    hotspots: &[Hotspot],
    rows: usize,
) -> Result<Vec<usize>, FlowError> {
    if rows == 0 {
        return Err(FlowError::BadStrategy {
            detail: "empty row insertion needs rows > 0".to_string(),
        });
    }
    if hotspots.is_empty() {
        return Err(FlowError::BadStrategy {
            detail: "no hotspots to target; run detection first".to_string(),
        });
    }
    let n_rows = floorplan.num_rows();
    // Per-row heat score: the hottest hotspot bin overlapping the row.
    let grid = map.grid();
    let mut row_heat = vec![f64::NEG_INFINITY; n_rows];
    let mut any = false;
    for h in hotspots {
        for &(bx, by) in &h.bins {
            let (bx, by) = (bx as usize, by as usize);
            let bin = grid.bin_rect(bx, by);
            let t = *grid.get(bx, by);
            for (r, heat) in row_heat.iter_mut().enumerate() {
                if floorplan.row_rect(r).intersects(&bin) {
                    *heat = heat.max(t);
                    any = true;
                }
            }
        }
    }
    if !any {
        return Err(FlowError::BadStrategy {
            detail: "hotspots do not overlap any row".to_string(),
        });
    }
    hottest_gap_positions(&row_heat, rows, "no insertion candidates near the hotspots")
}

/// Turns a per-row heat profile into insertion positions: the candidate
/// gaps (below row `p`, `p = 0..=n_rows`) are scored by the heat of
/// their adjacent rows, ranked hottest first (ties by position, for
/// determinism), and `rows` insertions are assigned round-robin over the
/// ranking — the shared selection tail of [`eri_insertion_positions`]
/// and [`targeted_insertion_positions`], which differ only in how they
/// fill `row_heat`.
fn hottest_gap_positions(
    row_heat: &[f64],
    rows: usize,
    empty_detail: &str,
) -> Result<Vec<usize>, FlowError> {
    let n_rows = row_heat.len();
    let gap_score = |p: usize| -> f64 {
        let below = if p > 0 {
            row_heat[p - 1]
        } else {
            f64::NEG_INFINITY
        };
        let above = if p < n_rows {
            row_heat[p]
        } else {
            f64::NEG_INFINITY
        };
        below.max(above)
    };
    let mut candidates: Vec<usize> = (0..=n_rows).filter(|&p| gap_score(p).is_finite()).collect();
    candidates.sort_by(|&a, &b| gap_score(b).total_cmp(&gap_score(a)).then(a.cmp(&b)));
    if candidates.is_empty() {
        return Err(FlowError::BadStrategy {
            detail: empty_detail.to_string(),
        });
    }
    Ok((0..rows)
        .map(|k| candidates[k % candidates.len()])
        .collect())
}

/// Chooses where `rows` empty rows would go from the *whole* thermal
/// profile: every gap between rows is scored by the peak temperature of
/// its adjacent rows (no hotspot detection involved), and rows land on
/// the hottest **distinct** gaps first — only once every gap has one do
/// further rows double up. This is the decision half of the
/// temperature-profile-driven *targeted* row-insertion transform
/// ([`crate::TargetedRowInsertionTransform`]); contrast with
/// [`eri_insertion_positions`], which restricts scoring to detected
/// hotspot bins and wraps around the hot band early.
///
/// # Errors
///
/// Returns [`FlowError::BadStrategy`] when `rows == 0` or the floorplan
/// has no rows.
pub fn targeted_insertion_positions(
    floorplan: &Floorplan,
    map: &ThermalMap,
    rows: usize,
) -> Result<Vec<usize>, FlowError> {
    if rows == 0 {
        return Err(FlowError::BadStrategy {
            detail: "targeted row insertion needs rows > 0".to_string(),
        });
    }
    let n_rows = floorplan.num_rows();
    if n_rows == 0 {
        return Err(FlowError::BadStrategy {
            detail: "floorplan has no rows".to_string(),
        });
    }
    // Per-row heat: the hottest mesh bin overlapping the row, over the
    // full map — warm bands count even when no detector would fire.
    // Rows and mesh bands are both y-intervals, so each mesh row only
    // needs the placement rows its band can overlap (a constant-width
    // window), not the full O(mesh × rows) cross product.
    let grid = map.grid();
    let mut row_heat = vec![f64::NEG_INFINITY; n_rows];
    let h = floorplan.row_height();
    let lly = floorplan.core().lly;
    for iy in 0..grid.ny() {
        if grid.nx() == 0 {
            break;
        }
        // The band's peak over x, then its overlapping row window.
        let mut band_max = f64::NEG_INFINITY;
        for ix in 0..grid.nx() {
            band_max = band_max.max(*grid.get(ix, iy));
        }
        let band = grid.bin_rect(0, iy);
        let lo = (((band.lly - lly) / h).floor().max(0.0) as usize).min(n_rows);
        let hi = ((((band.ury - lly) / h).ceil().max(0.0) as usize) + 1).min(n_rows);
        for (r, heat) in row_heat.iter_mut().enumerate().take(hi).skip(lo) {
            if floorplan.row_rect(r).intersects(&band) {
                *heat = heat.max(band_max);
            }
        }
    }
    hottest_gap_positions(&row_heat, rows, "thermal map overlaps no row")
}

/// The surrogate *map* of a row-insertion stage: the power redistribution
/// `positions` would cause, modeled **on the baseline mesh** (fixed die
/// outline). The composable map→map half of [`eri_power_delta`], shared
/// by the ERI and targeted-row transforms and usable mid-pipeline.
///
/// The surrogate applies the real geometric transform — cells above each
/// inserted row shift up by one pitch, opening a powerless gap — then
/// compresses the stretched layout back onto the original die height and
/// scales all power by the area-dilution factor `H/H′`, mimicking the
/// grown outline at constant mesh. Power mass moves along `y` only,
/// exactly as rigid row remapping does.
pub fn eri_surrogate_map(
    power: &Grid2d<f64>,
    floorplan: &Floorplan,
    positions: &[usize],
) -> Grid2d<f64> {
    let core = floorplan.core();
    let h = floorplan.row_height();
    let n_rows = floorplan.num_rows();
    let grown = core.height() + positions.len() as f64 * h;
    if grown <= 0.0 || power.ny() == 0 {
        return power.clone();
    }
    // insertions_below[r] = rows inserted below placement row r.
    let mut insertions_below = vec![0usize; n_rows + 1];
    for &p in positions {
        for slot in insertions_below.iter_mut().skip(p.min(n_rows)) {
            *slot += 1;
        }
    }
    let compress = core.height() / grown;
    // Maps a baseline y (relative to the core) to its post-insertion,
    // re-compressed position. Within one placement row the shift is
    // constant, so the map is linear between row boundaries.
    let shifted = |y: f64| -> f64 {
        let row = ((y / h).floor().max(0.0) as usize).min(n_rows.saturating_sub(1));
        (y + insertions_below[row] as f64 * h) * compress
    };
    let ny = power.ny();
    let nx = power.nx();
    let mesh_h = core.height() / ny as f64;
    let mut new_map = Grid2d::new(nx, ny, power.extent(), 0.0);
    // Redistribute each mesh row's power along y: split the source
    // interval at placement-row boundaries (the map is linear inside
    // each), push every piece through the shift, and deposit it onto the
    // destination mesh rows by overlap. x columns are untouched.
    for iy in 0..ny {
        let y0 = iy as f64 * mesh_h;
        let y1 = y0 + mesh_h;
        // Split points: placement-row boundaries inside [y0, y1].
        let first_row = (y0 / h).floor() as usize;
        let mut cuts = vec![y0];
        let mut r = first_row + 1;
        while (r as f64) * h < y1 {
            if (r as f64) * h > y0 {
                cuts.push((r as f64) * h);
            }
            r += 1;
        }
        cuts.push(y1);
        for piece in cuts.windows(2) {
            let (u, v) = (piece[0], piece[1]);
            if v - u <= 0.0 {
                continue;
            }
            let frac = (v - u) / mesh_h;
            let (mu, mv) = (shifted(u), shifted(u) + (v - u) * compress);
            // Deposit onto destination mesh rows by overlap.
            let j0 = ((mu / mesh_h).floor().max(0.0) as usize).min(ny - 1);
            let j1 = ((mv / mesh_h).ceil().max(1.0) as usize).min(ny);
            for jy in j0..j1.max(j0 + 1) {
                let d0 = jy as f64 * mesh_h;
                let d1 = d0 + mesh_h;
                let overlap = (mv.min(d1) - mu.max(d0)).max(0.0);
                if overlap <= 0.0 {
                    continue;
                }
                let share = overlap / (mv - mu).max(1e-12);
                for ix in 0..nx {
                    *new_map.get_mut(ix, jy) += power.get(ix, iy) * frac * share * compress;
                }
            }
        }
    }
    new_map
}

/// The screening surrogate for an ERI candidate — the sparse delta
/// between the baseline map and [`eri_surrogate_map`]'s redistribution.
pub fn eri_power_delta(
    power: &Grid2d<f64>,
    floorplan: &Floorplan,
    positions: &[usize],
) -> PowerDelta {
    PowerDelta::between(
        power,
        &eri_surrogate_map(power, floorplan, positions),
        1e-15,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use arithgen::{build_benchmark, BenchmarkConfig};
    use geom::{Grid2d, Rect};
    use placement::{validate, Placer, PlacerConfig};

    /// A thermal map hot inside `hot` (38 °C) and cool elsewhere (30 °C).
    fn fake_map(core: Rect, hot: Rect) -> ThermalMap {
        let mut g = Grid2d::new(16, 16, core, 30.0);
        for iy in 0..16 {
            for ix in 0..16 {
                if g.bin_rect(ix, iy).intersects(&hot) {
                    *g.get_mut(ix, iy) = 38.0;
                }
            }
        }
        ThermalMap::new(g, 25.0)
    }

    fn fake_hotspot(map: &ThermalMap) -> Hotspot {
        let grid = map.grid();
        let bins: Vec<(usize, usize)> = grid
            .iter()
            .filter(|&(_, &t)| t > 34.0)
            .map(|(b, _)| b)
            .collect();
        let mut bbox = grid.bin_rect(bins[0].0, bins[0].1);
        for &(x, y) in &bins {
            bbox = bbox.union(&grid.bin_rect(x, y));
        }
        Hotspot {
            area_um2: bins.len() as f64 * grid.bin_width() * grid.bin_height(),
            bins: bins.iter().map(|&(x, y)| (x as u32, y as u32)).collect(),
            bbox,
            peak_c: 38.0,
        }
    }

    fn setup() -> (netlist::Netlist, placement::PlacementResult) {
        let nl = build_benchmark(&BenchmarkConfig::small()).unwrap();
        let placed = Placer::new(PlacerConfig::default()).place(&nl).unwrap();
        (nl, placed)
    }

    #[test]
    fn eri_grows_core_and_stays_legal() {
        let (nl, base) = setup();
        let core = base.floorplan.core();
        let hot = Rect::new(
            core.llx,
            core.lly + core.height() * 0.3,
            core.urx,
            core.lly + core.height() * 0.5,
        );
        let map = fake_map(core, hot);
        let hs = fake_hotspot(&map);
        let (fp2, p2, report) =
            empty_row_insertion(&nl, &base.floorplan, &base.placement, &map, &[hs], 8).unwrap();
        assert_eq!(fp2.num_rows(), base.floorplan.num_rows() + 8);
        assert!(validate(&nl, &fp2, &p2).is_empty(), "legal after ERI");
        let expected = 8.0 / base.floorplan.num_rows() as f64;
        assert!((report.area_overhead - expected).abs() < 1e-9);
    }

    #[test]
    fn insertions_land_in_the_hot_band() {
        let (nl, base) = setup();
        let core = base.floorplan.core();
        let hot = Rect::new(
            core.llx,
            core.lly + core.height() * 0.4,
            core.urx,
            core.lly + core.height() * 0.6,
        );
        let map = fake_map(core, hot);
        let hs = fake_hotspot(&map);
        let (_, _, report) =
            empty_row_insertion(&nl, &base.floorplan, &base.placement, &map, &[hs], 4).unwrap();
        let n = base.floorplan.num_rows() as f64;
        for &p in &report.insertion_positions {
            let frac = p as f64 / n;
            assert!(
                (0.3..=0.7).contains(&frac),
                "insertion at {frac:.2} of the core is outside the hot band"
            );
        }
    }

    #[test]
    fn cells_only_move_upward_rigidly() {
        let (nl, base) = setup();
        let core = base.floorplan.core();
        let hot = Rect::new(core.llx, core.lly, core.urx, core.lly + 12.0);
        let map = fake_map(core, hot);
        let hs = fake_hotspot(&map);
        let (fp2, p2, _) =
            empty_row_insertion(&nl, &base.floorplan, &base.placement, &map, &[hs], 3).unwrap();
        for (id, _) in nl.cells() {
            let before = base.placement.cell_rect(&nl, &base.floorplan, id).unwrap();
            let after = p2.cell_rect(&nl, &fp2, id).unwrap();
            assert_eq!(before.llx, after.llx, "no horizontal motion");
            assert!(after.lly >= before.lly - 1e-9, "no downward motion");
        }
    }

    #[test]
    fn many_rows_double_up_in_the_band() {
        let (nl, base) = setup();
        let core = base.floorplan.core();
        let hot = Rect::new(
            core.llx,
            core.lly + core.height() * 0.45,
            core.urx,
            core.lly + core.height() * 0.5,
        );
        let map = fake_map(core, hot);
        let hs = fake_hotspot(&map);
        let rows = base.floorplan.num_rows() / 2;
        let (fp2, p2, _) =
            empty_row_insertion(&nl, &base.floorplan, &base.placement, &map, &[hs], rows).unwrap();
        assert_eq!(fp2.num_rows(), base.floorplan.num_rows() + rows);
        assert!(validate(&nl, &fp2, &p2).is_empty());
    }

    #[test]
    fn targeted_positions_prefer_distinct_hot_gaps() {
        let (_, base) = setup();
        let core = base.floorplan.core();
        let hot = Rect::new(
            core.llx,
            core.lly + core.height() * 0.4,
            core.urx,
            core.lly + core.height() * 0.6,
        );
        let map = fake_map(core, hot);
        let rows = 4;
        let positions = targeted_insertion_positions(&base.floorplan, &map, rows).unwrap();
        assert_eq!(positions.len(), rows);
        // All four land in the hot band, and on *distinct* gaps (ERI
        // would wrap around its hotspot-band candidates earlier).
        let n = base.floorplan.num_rows() as f64;
        let mut seen = std::collections::HashSet::new();
        for &p in &positions {
            let frac = p as f64 / n;
            assert!((0.3..=0.7).contains(&frac), "insertion at {frac:.2}");
            assert!(seen.insert(p), "gap {p} doubled up before all were used");
        }
        // Unlike ERI, no hotspot detection is needed: a nearly-flat map
        // still yields positions instead of an error.
        let flat = fake_map(core, Rect::new(0.0, 0.0, 1.0, 1.0));
        assert!(targeted_insertion_positions(&base.floorplan, &flat, 2).is_ok());
        assert!(targeted_insertion_positions(&base.floorplan, &flat, 0).is_err());
    }

    #[test]
    fn zero_rows_is_rejected() {
        let (nl, base) = setup();
        let core = base.floorplan.core();
        let map = fake_map(core, Rect::new(0.0, 0.0, 10.0, 10.0));
        let hs = fake_hotspot(&map);
        assert!(
            empty_row_insertion(&nl, &base.floorplan, &base.placement, &map, &[hs], 0).is_err()
        );
    }
}
