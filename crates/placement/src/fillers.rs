//! Whitespace filling with dummy cells.
//!
//! The paper: "the available area overhead is filled with dummy cells
//! which do not contain active transistors and consume zero power. They
//! can guarantee the electrical continuity of power and ground rails in
//! each layout row." Every gap is therefore tiled completely; the tiling
//! is a function of the row gaps, so a [`Placement`] stores none and
//! derives it when asked ([`Placement::fillers`]), and [`crate::validate`]
//! checks that the library can tile every gap.

use netlist::{CellId, Netlist};
use stdcell::{LibCellId, Library};

use crate::{FillerInst, Floorplan, PlaceError, Placement};

/// The library's filler masters with their widths, widest first.
pub(crate) fn filler_masters(lib: &Library) -> Vec<(LibCellId, u32)> {
    lib.fillers()
        .into_iter()
        .map(|m| (m, lib.cell(m).width_sites()))
        .collect()
}

/// Tiles the gap of `row` from `site`, `width` sites wide, greedily with
/// the widest fitting master first, pushing each filler onto `out`.
/// Returns the sites left untiled, as `(site, width)`, when no master
/// fits what remains (never with a 1-site filler).
pub(crate) fn tile_gap(
    masters: &[(LibCellId, u32)],
    row: u32,
    mut site: u32,
    mut width: u32,
    out: &mut Vec<FillerInst>,
) -> Option<(u32, u32)> {
    while width > 0 {
        let Some(&(master, w)) = masters.iter().find(|&&(_, w)| w <= width) else {
            return Some((site, width));
        };
        out.push(FillerInst {
            master,
            row,
            site,
            width_sites: w,
        });
        site += w;
        width -= w;
    }
    None
}

impl Placement {
    /// The filler cells tiling every free gap of every row (greedy,
    /// widest master first), in row and site order. Fillers are derived
    /// from the row gaps on each call; nothing stores them.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError::UnfillableGap`] for the first gap the
    /// library cannot tile — which cannot happen with the `c65`
    /// library's 1-site filler.
    pub fn fillers(
        &self,
        netlist: &Netlist,
        floorplan: &Floorplan,
    ) -> Result<Vec<FillerInst>, PlaceError> {
        let masters = filler_masters(netlist.library());
        let mut fillers = Vec::new();
        for row in 0..floorplan.num_rows() as u32 {
            for (start, width) in self.row_gaps(floorplan, row) {
                if let Some((site, width)) = tile_gap(&masters, row, start, width, &mut fillers) {
                    return Err(PlaceError::UnfillableGap { row, site, width });
                }
            }
        }
        Ok(fillers)
    }
}

/// Splits `total_free` whitespace sites over weighted gap slots by
/// largest remainder: slot `j` receives `total_free · w[j] / Σw` sites,
/// rounded so the allocation sums exactly to `total_free`. The integer
/// half of temperature-driven whitespace shaping — callers derive the
/// weights (e.g. from a thermal profile) and re-pack the row with
/// [`respread_row`].
///
/// Non-finite or negative weights count as zero; if every weight is
/// zero the split is uniform.
pub fn weighted_row_gaps(total_free: u32, weights: &[f64]) -> Vec<u32> {
    if weights.is_empty() {
        return Vec::new();
    }
    let clean: Vec<f64> = weights
        .iter()
        .map(|&w| if w.is_finite() && w > 0.0 { w } else { 0.0 })
        .collect();
    let total: f64 = clean.iter().sum();
    let shares: Vec<f64> = if total > 0.0 {
        clean
            .iter()
            .map(|w| total_free as f64 * w / total)
            .collect()
    } else {
        vec![total_free as f64 / clean.len() as f64; clean.len()]
    };
    let mut gaps: Vec<u32> = shares.iter().map(|s| s.floor() as u32).collect();
    let assigned: u32 = gaps.iter().sum();
    // Hand the remainder to the largest fractional parts (ties by
    // position, for determinism).
    let mut order: Vec<usize> = (0..gaps.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = shares[a] - shares[a].floor();
        let fb = shares[b] - shares[b].floor();
        fb.total_cmp(&fa).then(a.cmp(&b))
    });
    for &j in order.iter().take((total_free - assigned) as usize) {
        gaps[j] += 1;
    }
    gaps
}

/// Re-packs one row's cells left-to-right with the given gap widths
/// (`gaps[i]` sites of whitespace before the `i`-th cell, in site
/// order): the cells keep their row and relative order, only the
/// whitespace between them moves.
///
/// # Panics
///
/// Panics if `gaps` is shorter than the row's cell count or the gaps
/// plus cell widths overflow the row.
pub fn respread_row(
    netlist: &Netlist,
    floorplan: &Floorplan,
    placement: &mut Placement,
    row: u32,
    gaps: &[u32],
) {
    let cells = placement.row_cells(row);
    assert!(
        gaps.len() >= cells.len(),
        "need one gap per cell: {} < {}",
        gaps.len(),
        cells.len()
    );
    let mut cursor = 0u32;
    let run: Vec<(CellId, u32)> = cells
        .iter()
        .zip(gaps)
        .map(|(&(_, id, width), &gap)| {
            let site = cursor + gap;
            cursor = site + width;
            (id, site)
        })
        .collect();
    placement.rewrite_row(netlist, floorplan, row, &run);
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{CellId, NetlistBuilder};
    use stdcell::{CellFunction, Drive, Library};

    fn setup() -> (Netlist, Floorplan, Placement) {
        let mut b = NetlistBuilder::new("t", Library::c65());
        let u = b.add_unit("u");
        let a = b.input_port("a", u);
        let n0 = b.net("n0");
        let n1 = b.net("n1");
        b.cell(u, CellFunction::Inv, Drive::X1, &[a], &[n0])
            .unwrap();
        b.cell(u, CellFunction::Inv, Drive::X1, &[n0], &[n1])
            .unwrap();
        let nl = b.finish().unwrap();
        let fp = Floorplan::new(nl.library(), 30.0, 2); // 100 sites/row
        let p = Placement::new(&nl, &fp);
        (nl, fp, p)
    }

    #[test]
    fn fillers_cover_every_free_site() {
        let (nl, fp, mut p) = setup();
        p.place(&nl, &fp, CellId::new(0), 0, 37);
        p.place(&nl, &fp, CellId::new(1), 1, 0);
        let filler_sites: u32 = p
            .fillers(&nl, &fp)
            .unwrap()
            .iter()
            .map(|f| f.width_sites)
            .sum();
        let cell_sites = 4; // two 2-site inverters
        assert_eq!(filler_sites + cell_sites, fp.total_sites() as u32);
    }

    #[test]
    fn fillers_do_not_overlap_cells_or_each_other() {
        let (nl, fp, mut p) = setup();
        p.place(&nl, &fp, CellId::new(0), 0, 37);
        p.place(&nl, &fp, CellId::new(1), 0, 61);
        let fillers = p.fillers(&nl, &fp).unwrap();
        // Reconstruct per-row coverage and require exact tiling.
        for row in 0..fp.num_rows() as u32 {
            let mut spans: Vec<(u32, u32)> = p
                .row_cells(row)
                .iter()
                .map(|&(s, _, w)| (s, w))
                .chain(
                    fillers
                        .iter()
                        .filter(|f| f.row == row)
                        .map(|f| (f.site, f.width_sites)),
                )
                .collect();
            spans.sort_unstable();
            let mut cursor = 0;
            for (s, w) in spans {
                assert_eq!(s, cursor, "gap or overlap at row {row} site {s}");
                cursor = s + w;
            }
            assert_eq!(cursor, fp.row(row as usize).num_sites);
        }
    }

    #[test]
    fn weighted_gaps_sum_exactly_and_follow_weights() {
        let gaps = weighted_row_gaps(10, &[1.0, 3.0, 1.0]);
        assert_eq!(gaps.iter().sum::<u32>(), 10);
        assert!(gaps[1] > gaps[0] && gaps[1] > gaps[2], "{gaps:?}");
        // Zero/degenerate weights fall back to a uniform split.
        let flat = weighted_row_gaps(9, &[0.0, f64::NAN, -1.0]);
        assert_eq!(flat.iter().sum::<u32>(), 9);
        assert_eq!(flat, vec![3, 3, 3]);
        assert!(weighted_row_gaps(5, &[]).is_empty());
    }

    #[test]
    fn respread_keeps_order_and_tiles_after_refill() {
        let (nl, fp, mut p) = setup();
        p.place(&nl, &fp, CellId::new(0), 0, 10);
        p.place(&nl, &fp, CellId::new(1), 0, 40);
        let used = 4; // two 2-site inverters
        let free = fp.row(0).num_sites - used;
        // All whitespace before the first cell, none between.
        let gaps = [free, 0, 0];
        respread_row(&nl, &fp, &mut p, 0, &gaps[..]);
        let cells = p.row_cells(0);
        assert_eq!(cells[0].1, CellId::new(0), "order preserved");
        assert_eq!(cells[0].0, free, "first cell pushed right");
        assert_eq!(cells[1].0, free + 2, "second cell packed against it");
        let filler_sites: u32 = p
            .fillers(&nl, &fp)
            .unwrap()
            .iter()
            .map(|f| f.width_sites)
            .sum();
        assert_eq!(filler_sites + used, fp.total_sites() as u32);
    }

    #[test]
    fn refilling_after_a_move_stays_consistent() {
        let (nl, fp, mut p) = setup();
        p.place(&nl, &fp, CellId::new(0), 0, 10);
        let before = p.fillers(&nl, &fp).unwrap();
        assert!(before.iter().any(|f| f.row == 0 && f.site == 0));
        // The fillers follow a move: derived from the gaps it leaves.
        p.place(&nl, &fp, CellId::new(0), 1, 10);
        let after = p.fillers(&nl, &fp).unwrap();
        assert_ne!(before, after);
        assert!(after
            .iter()
            .all(|f| f.row != 1 || f.site + f.width_sites <= 10 || f.site >= 12));
        let filler_sites: u32 = after.iter().map(|f| f.width_sites).sum();
        assert_eq!(filler_sites + 2, fp.total_sites() as u32);
    }

    #[test]
    fn a_library_without_a_one_site_filler_cannot_tile_an_odd_gap() {
        let lib = Library::new(
            "no-unit-filler",
            0.3,
            2.7,
            1.0,
            stdcell::c65_cells()
                .into_iter()
                .filter(|c| c.name() != "FILLERLL_1")
                .collect(),
        );
        let mut b = NetlistBuilder::new("t", lib);
        let u = b.add_unit("u");
        let a = b.input_port("a", u);
        let n0 = b.net("n0");
        b.cell(u, CellFunction::Inv, Drive::X1, &[a], &[n0])
            .unwrap();
        let nl = b.finish().unwrap();
        let fp = Floorplan::new(nl.library(), 30.0, 1); // 100 sites
        let mut p = Placement::new(&nl, &fp);
        p.place(&nl, &fp, CellId::new(0), 0, 37);
        assert_eq!(
            p.fillers(&nl, &fp),
            Err(PlaceError::UnfillableGap {
                row: 0,
                site: 36,
                width: 1
            })
        );
    }
}
