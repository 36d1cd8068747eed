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

/// A filler (dummy) cell tiling whitespace. Fillers are placement
/// artifacts, not netlist content: zero power, zero pins, rail
/// continuity only; [`Placement::fillers`] derives them on demand.
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

/// The placement database: a slot per netlist cell and a per-row
/// occupancy index for fast gap queries. Filler cells are not stored:
/// [`Placement::fillers`] derives them from the row gaps.
///
/// Each row's index keeps its cells in a site-sorted vector plus a
/// free-space summary: the sites in use, the width of the gap starting
/// at each site and, per block of sites, the widest gap starting in it,
/// in a max segment tree. A cell edit touches only the gaps it changes;
/// a whole-row write ([`Placement::rewrite_row`], and every row of a
/// placement built at once) writes the gap bytes and block leaves in one
/// pass and builds the tree bottom-up. A row's utilization and widest
/// free gap are O(1), and the nearest gap of a given width on either
/// side of a site is O(log sites).
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
    row_index: Vec<RowIndex>,
}

/// One row's occupancy: the cells by site and the free-space summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct RowIndex {
    /// `(site, cell, width_sites)`, by site.
    cells: Vec<(u32, CellId, u32)>,
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

    /// Sets every inner node from the leaves, bottom-up.
    fn build(&mut self) {
        for i in (1..self.leaves).rev() {
            self.max[i] = self.max[2 * i].max(self.max[2 * i + 1]);
        }
    }

    /// Whether a gap at least `width` wide starts in `block`.
    fn holds(&self, block: usize, width: u32) -> bool {
        block < self.leaves && self.max[self.leaves + block] >= width
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
    /// A row of `sites` sites holding `cells`, `(site, cell, width)` at
    /// increasing sites, each past the end of the one before and inside
    /// the row: its index is written in one pass.
    fn built(sites: u32, cells: Vec<(u32, CellId, u32)>) -> Self {
        let mut row = RowIndex {
            cells: Vec::new(),
            sites,
            used: 0,
            gap_at: vec![0; sites as usize],
            blocks: BlockMax::new(sites),
        };
        row.rebuild(cells);
        row
    }

    /// Replaces the row's cells with `cells` (as [`RowIndex::built`]
    /// takes them) and returns the old ones. One pass writes every gap
    /// byte and block leaf; the tree is then built bottom-up.
    fn rebuild(&mut self, cells: Vec<(u32, CellId, u32)>) -> Vec<(u32, CellId, u32)> {
        self.gap_at.fill(0);
        self.blocks.max.fill(0);
        let (gap_at, max, leaves) = (&mut self.gap_at, &mut self.blocks.max, self.blocks.leaves);
        let mut note = |at: u32, width: u32| {
            gap_at[at as usize] = u8::try_from(width).unwrap_or(u8::MAX);
            let leaf = &mut max[leaves + (at / GAP_BLOCK) as usize];
            *leaf = (*leaf).max(width);
        };
        let (mut cursor, mut used) = (0, 0);
        for &(site, _, width) in &cells {
            if site > cursor {
                note(cursor, site - cursor);
            }
            cursor = site + width;
            used += width;
        }
        if self.sites > cursor {
            note(cursor, self.sites - cursor);
        }
        self.used = used;
        self.blocks.build();
        std::mem::replace(&mut self.cells, cells)
    }

    /// Position of the first cell at or after `site`.
    fn first_from(&self, site: u32) -> usize {
        self.cells.partition_point(|&(s, _, _)| s < site)
    }

    /// End of the last cell that starts before `site`, or 0.
    fn end_before(&self, site: u32) -> u32 {
        self.first_from(site)
            .checked_sub(1)
            .map_or(0, |i| self.cells[i].0 + self.cells[i].2)
    }

    /// Start of the first cell at or after `site`, or the row end.
    fn start_from(&self, site: u32) -> u32 {
        self.cells
            .get(self.first_from(site))
            .map_or(self.sites, |&(s, _, _)| s)
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
        let (from, to) = (self.first_from(lo), self.first_from(hi));
        let gap_at = &mut self.gap_at;
        let mut cursor = lo;
        let mut mark = |at: u32, width: u32| {
            gap_at[at as usize] = if add {
                u8::try_from(width).unwrap_or(u8::MAX)
            } else {
                0
            };
            let block = at / GAP_BLOCK;
            if touched.last() != Some(&block) {
                touched.push(block);
            }
        };
        for &(site, _, width) in &self.cells[from..to] {
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
            // Merge from the back: the run goes in among the cells after
            // it, each moved once.
            let cells = &mut row.cells;
            let (mut i, mut j) = (cells.len(), run.len());
            cells.extend_from_slice(run);
            while j > 0 {
                let k = i + j - 1;
                if i > 0 && cells[i - 1].0 > run[j - 1].0 {
                    cells[k] = cells[i - 1];
                    i -= 1;
                } else {
                    cells[k] = run[j - 1];
                    j -= 1;
                }
            }
            row.used += run.iter().map(|&(_, _, w)| w).sum::<u32>();
        });
    }

    /// Removes the cell starting at `site`, if any.
    fn remove_at(&mut self, site: u32) {
        let at = self.first_from(site);
        let Some(&(_, _, width)) = self.cells.get(at).filter(|&&(s, _, _)| s == site) else {
            return;
        };
        let lo = self.end_before(site);
        let hi = self.start_from(site + width);
        self.respan(lo, hi, |row| {
            row.cells.remove(at);
            row.used -= width;
        });
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
        let width = width.max(1);
        // A start block holding no gap this wide needs no site scan.
        let hi = if row.blocks.holds(block as usize, width) {
            hi
        } else {
            lo
        };
        WideGaps {
            row,
            width,
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
        Self::from_rows(netlist, floorplan, vec![Vec::new(); floorplan.num_rows()])
    }

    /// A placement for `netlist` over `floorplan` holding `rows[r]` in
    /// row `r`, each a run of distinct `(cell, site)` at increasing
    /// sites; each row's index is built once.
    ///
    /// # Panics
    ///
    /// Panics if `rows` does not have one run per row, a slot would
    /// overlap another cell or leave its row, or a cell is in two runs.
    pub(crate) fn from_rows(
        netlist: &Netlist,
        floorplan: &Floorplan,
        rows: Vec<Vec<(CellId, u32)>>,
    ) -> Self {
        assert_eq!(rows.len(), floorplan.num_rows(), "one run per row");
        let mut slots = vec![None; netlist.cell_count()];
        let row_index = rows
            .iter()
            .enumerate()
            .map(|(r, run)| {
                let row = r as u32;
                let entries = row_entries(netlist, floorplan, row, run);
                for &(site, cell, _) in &entries {
                    let slot: &mut Option<PlacedCell> = &mut slots[cell.index()];
                    assert!(slot.is_none(), "cell {cell} placed twice");
                    *slot = Some(PlacedCell { row, site });
                }
                RowIndex::built(floorplan.row(r).num_sites, entries)
            })
            .collect();
        Placement { slots, row_index }
    }

    /// Places (or moves) `cell` at `(row, site)`.
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
        let entries = row_entries(netlist, floorplan, row, run);
        let Some(&(first, _, _)) = entries.first() else {
            return;
        };
        // The cells the run could meet, as `[start, end)`: the one before
        // it and those after, walked alongside the run.
        let index = &self.row_index[row as usize];
        let mut existing = index.cells[index.first_from(first).saturating_sub(1)..]
            .iter()
            .map(|&(s, _, w)| (s, s + w))
            .peekable();
        for &(site, cell, width) in &entries {
            while existing.next_if(|&(_, end)| end <= site).is_some() {}
            assert!(
                existing.peek().is_none_or(|&(s, _)| s >= site + width),
                "cell {cell} overlaps at row {row} site {site}"
            );
        }
        for &(site, cell, _) in &entries {
            self.remove(cell);
            self.slots[cell.index()] = Some(PlacedCell { row, site });
        }
        self.row_index[row as usize].insert_run(&entries);
    }

    /// Makes the distinct cells of `run`, at increasing sites, the whole
    /// content of `row`: a cell of the run placed elsewhere moves, and a
    /// cell of the row left out of the run is unplaced. The row's index
    /// is written in one pass.
    ///
    /// # Panics
    ///
    /// Panics if a slot would overlap an earlier cell of the run or leave
    /// the row.
    pub fn rewrite_row(
        &mut self,
        netlist: &Netlist,
        floorplan: &Floorplan,
        row: u32,
        run: &[(CellId, u32)],
    ) {
        let entries = row_entries(netlist, floorplan, row, run);
        for &(_, cell, _) in &entries {
            if self.slots[cell.index()].is_some_and(|pc| pc.row != row) {
                self.remove(cell);
            }
        }
        let index = &mut self.row_index[row as usize];
        for (_, cell, _) in index.rebuild(entries) {
            self.slots[cell.index()] = None;
        }
        for &(site, cell, _) in &index.cells {
            self.slots[cell.index()] = Some(PlacedCell { row, site });
        }
    }

    /// Removes `cell` from the placement (no-op when unplaced).
    pub fn remove(&mut self, cell: CellId) {
        if let Some(pc) = self.slots[cell.index()].take() {
            self.row_index[pc.row as usize].remove_at(pc.site);
        }
    }

    /// Removes every cell of `cells` (unplaced ones and repeats are
    /// no-ops), leaving what [`Placement::remove`] of each in turn
    /// leaves. Each row that loses a cell is rewritten once, in one pass,
    /// as [`Placement::rewrite_row`] writes a row.
    pub fn remove_cells(&mut self, cells: &[CellId]) {
        let mut rows: Vec<u32> = cells
            .iter()
            .filter_map(|&cell| self.slots[cell.index()].take())
            .map(|pc| pc.row)
            .collect();
        rows.sort_unstable();
        rows.dedup();
        for row in rows {
            let index = &mut self.row_index[row as usize];
            let kept = index
                .cells
                .iter()
                .copied()
                .filter(|&(_, cell, _)| self.slots[cell.index()].is_some())
                .collect();
            index.rebuild(kept);
        }
    }

    /// The first site `s` of `row` in `[from, to - width]` where `width`
    /// sites from `s` are free of placed cells, found through the gap
    /// index (the first `s` that [`Placement::fits`]).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn first_fit(&self, row: u32, from: u32, to: u32, width: u32) -> Option<u32> {
        // The gap holding `from`, then the wide gaps starting past it.
        let holding = self
            .wide_gaps_left(row, from, width)
            .next()
            .filter(|&(_, end)| end >= from.saturating_add(width))
            .map(|_| from);
        holding
            .or_else(|| {
                let next = from.checked_add(1)?;
                self.wide_gaps_right(row, next, width)
                    .next()
                    .map(|(s, _)| s)
            })
            .filter(|&s| s.saturating_add(width) <= to)
    }

    /// Whether `[site, site+width)` in `row` is free of placed cells.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn fits(&self, row: u32, site: u32, width: u32) -> bool {
        let cells = &self.row_index[row as usize].cells;
        let next = cells.partition_point(|&(s, _, _)| s <= site);
        // Previous occupant must end at or before `site`…
        if let Some(&(s, _, w)) = next.checked_sub(1).map(|i| &cells[i]) {
            if s + w > site {
                return false;
            }
        }
        // …and the next must start at or after the end.
        cells.get(next).is_none_or(|&(s, _, _)| s >= site + width)
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
    pub fn row_cells(&self, row: u32) -> &[(u32, CellId, u32)] {
        &self.row_index[row as usize].cells
    }

    /// Free gaps in `row` as `(site, width)` pairs, in site order.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row_gaps(&self, floorplan: &Floorplan, row: u32) -> Vec<(u32, u32)> {
        debug_assert_eq!(
            floorplan.row(row as usize).num_sites,
            self.row_index[row as usize].sites
        );
        self.free_gaps(row).collect()
    }

    /// The free gaps of `row` as `(site, width)`, in site order.
    pub(crate) fn free_gaps(&self, row: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let index = &self.row_index[row as usize];
        let mut cells = index.cells.iter();
        let mut cursor = 0u32;
        std::iter::from_fn(move || {
            for &(site, _, width) in cells.by_ref() {
                let start = cursor;
                cursor = site + width;
                if site > start {
                    return Some((start, site - start));
                }
            }
            let start = cursor;
            cursor = index.sites;
            (start < index.sites).then(|| (start, index.sites - start))
        })
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

    /// Iterates over placed cells as `(cell, slot)`.
    pub fn iter(&self) -> impl Iterator<Item = (CellId, PlacedCell)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|pc| (CellId::new(i), pc)))
    }

    /// Rebuilds this placement onto a grown floorplan produced by
    /// [`Floorplan::with_rows_inserted`], moving each row (cells and
    /// index) to the row the supplied mapping names.
    ///
    /// # Panics
    ///
    /// Panics if the mapping has fewer entries than this placement has
    /// rows or names a row the new floorplan lacks.
    pub fn remap_rows(&self, floorplan_new: &Floorplan, mapping: &[usize]) -> Placement {
        let mut row_index: Vec<Option<RowIndex>> = vec![None; floorplan_new.num_rows()];
        for (old, index) in self.row_index.iter().enumerate() {
            let new = mapping[old];
            let sites = floorplan_new.row(new).num_sites;
            row_index[new] = Some(if index.sites == sites {
                index.clone()
            } else {
                RowIndex::built(sites, index.cells.clone())
            });
        }
        let row_index = row_index
            .into_iter()
            .enumerate()
            .map(|(r, index)| {
                index.unwrap_or_else(|| RowIndex::built(floorplan_new.row(r).num_sites, Vec::new()))
            })
            .collect();
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
        Placement { slots, row_index }
    }
}

/// `run` as `(site, cell, width)` entries of `row`.
///
/// # Panics
///
/// Panics if `row` is out of range, or a slot would leave the row or
/// overlap an earlier slot of the run.
fn row_entries(
    netlist: &Netlist,
    floorplan: &Floorplan,
    row: u32,
    run: &[(CellId, u32)],
) -> Vec<(u32, CellId, u32)> {
    assert!(
        (row as usize) < floorplan.num_rows(),
        "row {row} out of range"
    );
    let sites = floorplan.row(row as usize).num_sites;
    let mut run_end = 0;
    run.iter()
        .map(|&(cell, site)| {
            let width = netlist.cell_width_sites(cell);
            assert!(
                site + width <= sites,
                "cell {cell} leaves row {row} (site {site} width {width})"
            );
            assert!(
                site >= run_end,
                "cell {cell} overlaps at row {row} site {site}"
            );
            run_end = site + width;
            (site, cell, width)
        })
        .collect()
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
    fn removing_cells_in_one_batch_leaves_what_removing_them_in_turn_leaves() {
        let mut b = NetlistBuilder::new("t", Library::c65());
        let u = b.add_unit("u");
        let mut prev = b.input_port("a", u);
        for i in 0..240 {
            let n = b.net(format!("n{i}"));
            let drive = [Drive::X1, Drive::X2, Drive::X4][i % 3];
            b.cell(u, CellFunction::Inv, drive, &[prev], &[n]).unwrap();
            prev = n;
        }
        let nl = b.finish().unwrap();
        // Rows of 400 sites: a row's gaps span many blocks, and a row
        // emptied of most of its cells holds gaps wider than a byte.
        let fp = Floorplan::new(nl.library(), 120.0, 3);
        let mut full = Placement::new(&nl, &fp);
        let mut next = (0u32, 0u32);
        for (id, _) in nl.cells() {
            let width = nl.cell_width_sites(id);
            if next.1 + width > fp.row(next.0 as usize).num_sites {
                next = (next.0 + 1, 0);
            }
            if next.0 as usize == fp.num_rows() {
                break;
            }
            full.place(&nl, &fp, id, next.0, next.1);
            next.1 += width + (id.index() as u32 % 4);
        }
        assert!((0..3).all(|row| full.row_cells(row).len() > 40));
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        for round in 0..40 {
            let mut cells = Vec::new();
            for (id, _) in nl.cells() {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                // From a few cells per row up to most of the die, with
                // an occasional repeat.
                if rng % 40 < 1 + round {
                    cells.push(id);
                    if rng.is_multiple_of(7) {
                        cells.push(id);
                    }
                }
            }
            let mut batched = full.clone();
            batched.remove_cells(&cells);
            let mut sequential = full.clone();
            for &cell in &cells {
                sequential.remove(cell);
            }
            for (id, _) in nl.cells() {
                assert_eq!(batched.location(id), sequential.location(id));
            }
            for row in 0..fp.num_rows() as u32 {
                assert_eq!(batched.row_cells(row), sequential.row_cells(row));
                assert!(batched.free_gaps(row).eq(sequential.free_gaps(row)));
                assert_eq!(batched.row_widest_gap(row), sequential.row_widest_gap(row));
                assert_eq!(batched.row_used_sites(row), sequential.row_used_sites(row));
                for width in [1, 2, 5, 9] {
                    let right =
                        |p: &Placement| p.wide_gaps_right(row, 0, width).collect::<Vec<_>>();
                    assert_eq!(right(&batched), right(&sequential));
                }
            }
        }
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
