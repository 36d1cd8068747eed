use std::collections::BTreeMap;

use geom::{Point, Rect};
use netlist::{CellId, Netlist};
use serde::{Deserialize, Serialize};
use stdcell::LibCellId;

use crate::Floorplan;

/// A cell's placement slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacedCell {
    /// Row index (0 = bottom).
    pub row: u32,
    /// Leftmost occupied site within the row.
    pub site: u32,
}

/// A placed filler (dummy) cell. Fillers are placement artifacts, not
/// netlist content: zero power, zero pins, rail continuity only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FillerInst {
    /// The filler master in the library.
    pub master: LibCellId,
    /// Row index.
    pub row: u32,
    /// Leftmost occupied site.
    pub site: u32,
    /// Width in sites (cached from the master).
    pub width_sites: u32,
}

/// The placement database: a slot per netlist cell, a per-row occupancy
/// index for fast gap queries, and the filler list.
///
/// Each row's index keeps its cells by site plus a free-space summary
/// that every edit updates in O(log n), touching only the gaps it
/// changes: the sites in use, the width of the gap starting at each site
/// and, per block of sites, the widest gap starting in it, in a max
/// segment tree. A row's utilization and widest free gap are O(1), and
/// the nearest gap of a given width on either side of a site is
/// O(log sites).
///
/// # Examples
///
/// ```
/// use arithgen::{build_benchmark, BenchmarkConfig};
/// use placement::{Placer, PlacerConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let nl = build_benchmark(&BenchmarkConfig::small())?;
/// let result = Placer::new(PlacerConfig::default()).place(&nl)?;
/// let (cell, _) = nl.cells().next().expect("non-empty design");
/// let rect = result.placement.cell_rect(&nl, &result.floorplan, cell);
/// assert!(result.floorplan.core().contains_rect(&rect.expect("placed")));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    slots: Vec<Option<PlacedCell>>,
    fillers: Vec<FillerInst>,
    row_index: Vec<RowIndex>,
}

/// One row's occupancy: the cells by site and the free-space summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct RowIndex {
    /// `site → (cell, width_sites)`.
    cells: BTreeMap<u32, (CellId, u32)>,
    /// Sites in the row.
    sites: u32,
    /// Sites covered by cells.
    used: u32,
    /// Per site, the width of the free gap starting there (0: none),
    /// saturated at `u8::MAX`.
    gap_at: Vec<u8>,
    /// Per block of [`GAP_BLOCK`] sites, the widest free gap starting in
    /// it.
    blocks: BlockMax,
}

/// Sites per leaf of a row's [`BlockMax`] tree.
const GAP_BLOCK: u32 = 16;

/// A max segment tree over a row's blocks: the widest gap is O(1), and
/// the nearest block holding a gap at least `w` wide on either side of a
/// block is O(log blocks).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct BlockMax {
    /// Leaves of the bottom level: a power of two ≥ the row's blocks.
    leaves: usize,
    /// Node `i` holds the max of nodes `2i` and `2i + 1`; leaf `j` (node
    /// `leaves + j`) holds the widest gap starting in block `j`.
    max: Vec<u32>,
}

impl BlockMax {
    fn new(sites: u32) -> Self {
        let leaves = (sites.div_ceil(GAP_BLOCK) as usize)
            .max(1)
            .next_power_of_two();
        BlockMax {
            leaves,
            max: vec![0; 2 * leaves],
        }
    }

    fn widest(&self) -> u32 {
        self.max[1]
    }

    fn set(&mut self, block: usize, width: u32) {
        let mut i = self.leaves + block;
        self.max[i] = width;
        while i > 1 {
            i /= 2;
            let max = self.max[2 * i].max(self.max[2 * i + 1]);
            if self.max[i] == max {
                break;
            }
            self.max[i] = max;
        }
    }

    /// The last block at or before `block` holding a gap ≥ `width`.
    fn last_at_least(&self, block: usize, width: u32) -> Option<usize> {
        let mut i = self.leaves + block.min(self.leaves - 1);
        loop {
            if self.max[i] >= width {
                while i < self.leaves {
                    i = if self.max[2 * i + 1] >= width {
                        2 * i + 1
                    } else {
                        2 * i
                    };
                }
                return Some(i - self.leaves);
            }
            // Step to the subtree just left of `i`'s.
            while i.is_multiple_of(2) {
                i /= 2;
            }
            if i == 1 {
                return None;
            }
            i -= 1;
        }
    }

    /// The first block at or after `block` holding a gap ≥ `width`.
    fn first_at_least(&self, block: usize, width: u32) -> Option<usize> {
        if block >= self.leaves {
            return None;
        }
        let mut i = self.leaves + block;
        loop {
            if self.max[i] >= width {
                while i < self.leaves {
                    i = if self.max[2 * i] >= width {
                        2 * i
                    } else {
                        2 * i + 1
                    };
                }
                return Some(i - self.leaves);
            }
            // Step to the subtree just right of `i`'s.
            while !i.is_multiple_of(2) {
                if i == 1 {
                    return None;
                }
                i /= 2;
            }
            i += 1;
        }
    }
}

impl RowIndex {
    fn new(sites: u32) -> Self {
        let mut row = RowIndex {
            cells: BTreeMap::new(),
            sites,
            used: 0,
            gap_at: vec![0; sites as usize],
            blocks: BlockMax::new(sites),
        };
        let mut touched = Vec::new();
        row.mark_span(0, sites, true, &mut touched);
        row.refresh(&touched);
        row
    }

    /// End of the last cell that starts before `site`, or 0.
    fn end_before(&self, site: u32) -> u32 {
        self.cells
            .range(..site)
            .next_back()
            .map_or(0, |(&s, &(_, w))| s + w)
    }

    /// Start of the first cell at or after `site`, or the row end.
    fn start_from(&self, site: u32) -> u32 {
        self.cells
            .range(site..)
            .next()
            .map_or(self.sites, |(&s, _)| s)
    }

    /// Width of the free gap starting at `site` (0: none).
    fn gap_width(&self, site: u32) -> u32 {
        match self.gap_at[site as usize] {
            u8::MAX => self.start_from(site) - site,
            width => u32::from(width),
        }
    }

    /// Records (or, with `add` false, erases) the free gaps of the span
    /// `[lo, hi)` — which starts at a cell end (or 0) and ends at a cell
    /// start (or the row end) — noting the blocks they start in.
    fn mark_span(&mut self, lo: u32, hi: u32, add: bool, touched: &mut Vec<u32>) {
        let mut cursor = lo;
        let mut mark = |at: u32, width: u32| {
            self.gap_at[at as usize] = if add {
                u8::try_from(width).unwrap_or(u8::MAX)
            } else {
                0
            };
            let block = at / GAP_BLOCK;
            if touched.last() != Some(&block) {
                touched.push(block);
            }
        };
        for (&site, &(_, width)) in self.cells.range(lo..hi) {
            if site > cursor {
                mark(cursor, site - cursor);
            }
            cursor = site + width;
        }
        if hi > cursor {
            mark(cursor, hi - cursor);
        }
    }

    /// Recomputes the tree leaves of the `touched` blocks.
    fn refresh(&mut self, touched: &[u32]) {
        let mut last = None;
        for &block in touched {
            if last == Some(block) {
                continue;
            }
            last = Some(block);
            let lo = block * GAP_BLOCK;
            let hi = (lo + GAP_BLOCK).min(self.sites);
            let widest = match self.gap_at[lo as usize..hi as usize].iter().max() {
                Some(&u8::MAX) => (lo..hi).map(|s| self.gap_width(s)).max().unwrap_or(0),
                raw => raw.map_or(0, |&w| u32::from(w)),
            };
            self.blocks.set(block as usize, widest);
        }
    }

    /// Rewrites the gaps of the span `[lo, hi)` around an `edit` of the
    /// cells inside it.
    fn respan(&mut self, lo: u32, hi: u32, edit: impl FnOnce(&mut Self)) {
        let mut touched = Vec::new();
        self.mark_span(lo, hi, false, &mut touched);
        edit(self);
        self.mark_span(lo, hi, true, &mut touched);
        touched.sort_unstable();
        self.refresh(&touched);
    }

    /// Inserts `(site, cell, width)` entries at increasing sites, each
    /// already known to fit; only the gaps of the span they cover change.
    fn insert_run(&mut self, run: &[(u32, CellId, u32)]) {
        let (Some(&(first, _, _)), Some(&(last, _, last_width))) = (run.first(), run.last()) else {
            return;
        };
        let lo = self.end_before(first);
        let hi = self.start_from(last + last_width);
        self.respan(lo, hi, |row| {
            if row.cells.is_empty() {
                row.cells = run.iter().map(|&(s, c, w)| (s, (c, w))).collect();
            } else {
                for &(site, cell, width) in run {
                    row.cells.insert(site, (cell, width));
                }
            }
            row.used += run.iter().map(|&(_, _, w)| w).sum::<u32>();
        });
    }

    /// Removes the cell starting at `site`, if any.
    fn remove_at(&mut self, site: u32) {
        let Some(&(_, width)) = self.cells.get(&site) else {
            return;
        };
        let lo = self.end_before(site);
        let hi = self.start_from(site + width);
        self.respan(lo, hi, |row| {
            row.cells.remove(&site);
            row.used -= width;
        });
    }

    /// Re-targets the row to `sites` sites, rebuilding its gap index.
    fn resize(&mut self, sites: u32) {
        let cells = std::mem::take(&mut self.cells);
        *self = RowIndex::new(sites);
        let run: Vec<(u32, CellId, u32)> = cells.into_iter().map(|(s, (c, w))| (s, c, w)).collect();
        self.insert_run(&run);
    }
}

/// The free gaps of one row at least `width` sites wide, as
/// `[start, end)`, walked away from a start site; the block tree skips
/// every block without such a gap.
pub(crate) struct WideGaps<'a> {
    row: &'a RowIndex,
    width: u32,
    leftward: bool,
    block: usize,
    /// The current block's sites still to scan, `[lo, hi)`: a leftward
    /// walk takes them from `hi` down, a rightward one from `lo` up.
    lo: u32,
    hi: u32,
}

impl<'a> WideGaps<'a> {
    fn new(row: &'a RowIndex, width: u32, leftward: bool, site: u32) -> Self {
        let (block, lo, hi) = if leftward {
            let block = site.min(row.sites.saturating_sub(1)) / GAP_BLOCK;
            (
                block,
                block * GAP_BLOCK,
                site.saturating_add(1).min(row.sites),
            )
        } else {
            let block = site / GAP_BLOCK;
            (block, site, ((block + 1) * GAP_BLOCK).min(row.sites))
        };
        WideGaps {
            row,
            width: width.max(1),
            leftward,
            block: block as usize,
            lo,
            hi,
        }
    }
}

impl Iterator for WideGaps<'_> {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        let narrow = u8::try_from(self.width).unwrap_or(u8::MAX);
        loop {
            while self.lo < self.hi {
                let site = if self.leftward {
                    self.hi -= 1;
                    self.hi
                } else {
                    self.lo += 1;
                    self.lo - 1
                };
                if self.row.gap_at[site as usize] < narrow {
                    continue;
                }
                let width = self.row.gap_width(site);
                if width >= self.width {
                    return Some((site, site + width));
                }
            }
            self.block = if self.leftward {
                let before = self.block.checked_sub(1)?;
                self.row.blocks.last_at_least(before, self.width)?
            } else {
                self.row.blocks.first_at_least(self.block + 1, self.width)?
            };
            self.lo = self.block as u32 * GAP_BLOCK;
            self.hi = (self.lo + GAP_BLOCK).min(self.row.sites);
        }
    }
}

impl Placement {
    /// An empty placement for `netlist` over `floorplan`.
    pub fn new(netlist: &Netlist, floorplan: &Floorplan) -> Self {
        Placement {
            slots: vec![None; netlist.cell_count()],
            fillers: Vec::new(),
            row_index: (0..floorplan.num_rows())
                .map(|r| RowIndex::new(floorplan.row(r).num_sites))
                .collect(),
        }
    }

    /// Places (or moves) `cell` at `(row, site)`. Clears any fillers — the
    /// caller refills whitespace after a batch of moves.
    ///
    /// # Panics
    ///
    /// Panics if the slot would overlap another cell or leave the row.
    pub fn place(
        &mut self,
        netlist: &Netlist,
        floorplan: &Floorplan,
        cell: CellId,
        row: u32,
        site: u32,
    ) {
        self.place_run(netlist, floorplan, row, &[(cell, site)]);
    }

    /// Places (or moves) a run of distinct cells into `row` at increasing
    /// sites, updating the row's index once for the span the run covers.
    /// Clears any fillers.
    ///
    /// # Panics
    ///
    /// Panics if a slot would overlap another cell (or an earlier cell of
    /// the run) or leave the row.
    pub fn place_run(
        &mut self,
        netlist: &Netlist,
        floorplan: &Floorplan,
        row: u32,
        run: &[(CellId, u32)],
    ) {
        assert!(
            (row as usize) < floorplan.num_rows(),
            "row {row} out of range"
        );
        let Some(&(_, first)) = run.first() else {
            return;
        };
        // The cells the run could meet, as `[start, end)`: the one before
        // it and those after, walked alongside the run.
        let cells = &self.row_index[row as usize].cells;
        let mut existing = cells
            .range(..first)
            .next_back()
            .into_iter()
            .chain(cells.range(first..))
            .map(|(&s, &(_, w))| (s, s + w))
            .peekable();
        let mut entries = Vec::with_capacity(run.len());
        let mut run_end = 0;
        for &(cell, site) in run {
            let width = netlist.cell_width_sites(cell);
            assert!(
                site + width <= floorplan.row(row as usize).num_sites,
                "cell {cell} leaves row {row} (site {site} width {width})"
            );
            while existing.next_if(|&(_, end)| end <= site).is_some() {}
            assert!(
                site >= run_end && existing.peek().is_none_or(|&(s, _)| s >= site + width),
                "cell {cell} overlaps at row {row} site {site}"
            );
            run_end = site + width;
            entries.push((site, cell, width));
        }
        for &(cell, site) in run {
            self.remove(cell);
            self.slots[cell.index()] = Some(PlacedCell { row, site });
        }
        self.row_index[row as usize].insert_run(&entries);
        self.fillers.clear();
    }

    /// Removes `cell` from the placement (no-op when unplaced).
    pub fn remove(&mut self, cell: CellId) {
        if let Some(pc) = self.slots[cell.index()].take() {
            self.row_index[pc.row as usize].remove_at(pc.site);
            self.fillers.clear();
        }
    }

    /// Unplaces every cell of `row` at once and returns them as
    /// `(site, cell, width)` in site order. Clears any fillers.
    pub(crate) fn take_row(&mut self, row: u32) -> Vec<(u32, CellId, u32)> {
        let index = &mut self.row_index[row as usize];
        let cells = std::mem::replace(index, RowIndex::new(index.sites)).cells;
        self.fillers.clear();
        cells
            .into_iter()
            .map(|(site, (cell, width))| {
                self.slots[cell.index()] = None;
                (site, cell, width)
            })
            .collect()
    }

    /// Whether `[site, site+width)` in `row` is free of placed cells.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn fits(&self, row: u32, site: u32, width: u32) -> bool {
        let index = &self.row_index[row as usize].cells;
        // Previous occupant must end at or before `site`…
        if let Some((&s, &(_, w))) = index.range(..=site).next_back() {
            if s + w > site {
                return false;
            }
        }
        // …and the next must start at or after the end.
        if let Some((&s, _)) = index.range(site..).next() {
            if s < site + width {
                return false;
            }
        }
        true
    }

    /// The slot of `cell`, if placed.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn location(&self, cell: CellId) -> Option<PlacedCell> {
        self.slots[cell.index()]
    }

    /// Whether every netlist cell is placed.
    pub fn is_fully_placed(&self, netlist: &Netlist) -> bool {
        netlist
            .cells()
            .all(|(id, _)| self.slots[id.index()].is_some())
    }

    /// The physical footprint of `cell`, if placed.
    pub fn cell_rect(
        &self,
        netlist: &Netlist,
        floorplan: &Floorplan,
        cell: CellId,
    ) -> Option<Rect> {
        let pc = self.slots[cell.index()]?;
        let width = netlist.cell_width_sites(cell) as f64 * floorplan.site_width();
        let x = floorplan.site_x(pc.row as usize, pc.site);
        let y = floorplan.row(pc.row as usize).y;
        Some(Rect::new(x, y, x + width, y + floorplan.row_height()))
    }

    /// The center point of `cell`, if placed.
    pub fn cell_center(
        &self,
        netlist: &Netlist,
        floorplan: &Floorplan,
        cell: CellId,
    ) -> Option<Point> {
        self.cell_rect(netlist, floorplan, cell).map(|r| r.center())
    }

    /// Cells occupying `row`, in site order, as `(site, cell, width)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row_cells(&self, row: u32) -> Vec<(u32, CellId, u32)> {
        self.row_index[row as usize]
            .cells
            .iter()
            .map(|(&s, &(c, w))| (s, c, w))
            .collect()
    }

    /// Free gaps in `row` as `(site, width)` pairs, in site order.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row_gaps(&self, floorplan: &Floorplan, row: u32) -> Vec<(u32, u32)> {
        let total = floorplan.row(row as usize).num_sites;
        let mut gaps = Vec::new();
        let mut cursor = 0u32;
        for (&site, &(_, width)) in &self.row_index[row as usize].cells {
            if site > cursor {
                gaps.push((cursor, site - cursor));
            }
            cursor = site + width;
        }
        if cursor < total {
            gaps.push((cursor, total - cursor));
        }
        gaps
    }

    /// Fraction of `row`'s sites occupied by placed cells.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row_utilization(&self, floorplan: &Floorplan, row: u32) -> f64 {
        self.row_used_sites(row) as f64 / floorplan.row(row as usize).num_sites as f64
    }

    /// Sites of `row` covered by placed cells.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row_used_sites(&self, row: u32) -> u32 {
        self.row_index[row as usize].used
    }

    /// Width in sites of `row`'s widest free gap (0 when the row is full).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row_widest_gap(&self, row: u32) -> u32 {
        self.row_index[row as usize].blocks.widest()
    }

    /// The free gaps of `row` at least `width` sites wide that start at
    /// or before `site`, rightmost first.
    pub(crate) fn wide_gaps_left(&self, row: u32, site: u32, width: u32) -> WideGaps<'_> {
        WideGaps::new(&self.row_index[row as usize], width, true, site)
    }

    /// The free gaps of `row` at least `width` sites wide that start at
    /// or after `site`, leftmost first.
    pub(crate) fn wide_gaps_right(&self, row: u32, site: u32, width: u32) -> WideGaps<'_> {
        WideGaps::new(&self.row_index[row as usize], width, false, site)
    }

    /// The placed fillers.
    pub fn fillers(&self) -> &[FillerInst] {
        &self.fillers
    }

    /// Replaces the filler list (used by [`crate::fill_whitespace`]).
    pub fn set_fillers(&mut self, fillers: Vec<FillerInst>) {
        self.fillers = fillers;
    }

    /// Iterates over placed cells as `(cell, slot)`.
    pub fn iter(&self) -> impl Iterator<Item = (CellId, PlacedCell)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|pc| (CellId::new(i), pc)))
    }

    /// Rebuilds this placement onto a grown floorplan produced by
    /// [`Floorplan::with_rows_inserted`], moving each row (cells and
    /// index) to the row the supplied mapping names. Fillers are dropped
    /// (refill afterwards).
    ///
    /// # Panics
    ///
    /// Panics if the mapping has fewer entries than this placement has
    /// rows or names a row the new floorplan lacks.
    pub fn remap_rows(&self, floorplan_new: &Floorplan, mapping: &[usize]) -> Placement {
        let mut row_index: Vec<RowIndex> = (0..floorplan_new.num_rows())
            .map(|r| RowIndex::new(floorplan_new.row(r).num_sites))
            .collect();
        for (old, index) in self.row_index.iter().enumerate() {
            let new = mapping[old];
            let mut moved = index.clone();
            let sites = floorplan_new.row(new).num_sites;
            if moved.sites != sites {
                moved.resize(sites);
            }
            row_index[new] = moved;
        }
        let slots = self
            .slots
            .iter()
            .map(|slot| {
                slot.map(|pc| PlacedCell {
                    row: mapping[pc.row as usize] as u32,
                    site: pc.site,
                })
            })
            .collect();
        Placement {
            slots,
            fillers: Vec::new(),
            row_index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::NetlistBuilder;
    use stdcell::{CellFunction, Drive, Library};

    fn tiny() -> (Netlist, Floorplan) {
        let mut b = NetlistBuilder::new("t", Library::c65());
        let u = b.add_unit("u");
        let a = b.input_port("a", u);
        let mut prev = a;
        for i in 0..4 {
            let n = b.net(format!("n{i}"));
            b.cell(u, CellFunction::Inv, Drive::X1, &[prev], &[n])
                .unwrap();
            prev = n;
        }
        let nl = b.finish().unwrap();
        let fp = Floorplan::new(nl.library(), 30.0, 3);
        (nl, fp)
    }

    #[test]
    fn place_and_query_roundtrip() {
        let (nl, fp) = tiny();
        let mut p = Placement::new(&nl, &fp);
        let cell = CellId::new(0);
        p.place(&nl, &fp, cell, 1, 10);
        assert_eq!(p.location(cell), Some(PlacedCell { row: 1, site: 10 }));
        let rect = p.cell_rect(&nl, &fp, cell).unwrap();
        assert!((rect.llx - 3.0).abs() < 1e-9); // 10 sites × 0.3 µm
        assert!((rect.lly - 2.7).abs() < 1e-9);
    }

    #[test]
    fn overlap_detection() {
        let (nl, fp) = tiny();
        let mut p = Placement::new(&nl, &fp);
        p.place(&nl, &fp, CellId::new(0), 0, 10); // INV = 2 sites → [10,12)
        assert!(!p.fits(0, 11, 2));
        assert!(!p.fits(0, 9, 2));
        assert!(p.fits(0, 12, 2));
        assert!(p.fits(0, 8, 2));
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_place_panics() {
        let (nl, fp) = tiny();
        let mut p = Placement::new(&nl, &fp);
        p.place(&nl, &fp, CellId::new(0), 0, 10);
        p.place(&nl, &fp, CellId::new(1), 0, 11);
    }

    #[test]
    fn moving_a_cell_frees_its_old_slot() {
        let (nl, fp) = tiny();
        let mut p = Placement::new(&nl, &fp);
        let cell = CellId::new(0);
        p.place(&nl, &fp, cell, 0, 10);
        p.place(&nl, &fp, cell, 2, 0);
        assert!(p.fits(0, 10, 2), "old slot is free again");
        assert_eq!(p.row_cells(0).len(), 0);
        assert_eq!(p.row_cells(2).len(), 1);
    }

    #[test]
    fn gaps_cover_unoccupied_sites() {
        let (nl, fp) = tiny();
        let mut p = Placement::new(&nl, &fp);
        p.place(&nl, &fp, CellId::new(0), 0, 10);
        p.place(&nl, &fp, CellId::new(1), 0, 20);
        let gaps = p.row_gaps(&fp, 0);
        let total_sites = fp.row(0).num_sites;
        let gap_sites: u32 = gaps.iter().map(|&(_, w)| w).sum();
        assert_eq!(gap_sites + 4, total_sites); // two 2-site cells
        assert_eq!(gaps[0], (0, 10));
    }

    #[test]
    fn remap_rows_moves_cells_up() {
        let (nl, fp) = tiny();
        let mut p = Placement::new(&nl, &fp);
        p.place(&nl, &fp, CellId::new(0), 0, 0);
        p.place(&nl, &fp, CellId::new(1), 2, 6);
        let (fp2, mapping) = fp.with_rows_inserted(&[1]);
        let p2 = p.remap_rows(&fp2, &mapping);
        assert_eq!(p2.location(CellId::new(0)).unwrap().row, 0);
        assert_eq!(p2.location(CellId::new(1)).unwrap().row, 3);
    }
}
