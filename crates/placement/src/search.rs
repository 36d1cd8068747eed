//! Slot search used by post-placement transformations: find legal free
//! space for a cell near a target point, optionally avoiding regions.

use geom::{Point, Rect};
use netlist::{CellId, Netlist};

use crate::{Floorplan, PlacedCell, Placement};

/// Counters of the searches one [`OutsideSlots`] answered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotSearchStats {
    /// Searches asked.
    pub searches: u64,
    /// Searches answered `None` without visiting a row: the cell is
    /// wider than every row's bound.
    pub skipped: u64,
    /// Rows whose gaps the searches walked.
    pub rows_scanned: u64,
}

/// Slot searches outside one fixed set of `forbidden` rectangles, for a
/// caller that moves many cells out of them one at a time (the hotspot
/// wrapper's evictions).
///
/// [`OutsideSlots::nearest`] finds the free slot for a cell nearest to
/// an origin (Manhattan distance between cell center and origin) whose
/// footprint does not intersect any forbidden rectangle. Rows are
/// ranked outward from the origin's row (`0, +1, −1, +2, …`, as many
/// ranks as the floorplan has rows). Every free gap that fits the cell
/// offers one candidate: its site nearest the origin, or, when that site
/// is forbidden, whichever of the gap's two ends is legal. The answer is
/// the nearest candidate; ties go to the lower row rank, then to the gap
/// further left, then to the gap's left end.
///
/// The search only visits free space that could still win. A site whose
/// left edge lies inside a forbidden rectangle is covered by no legal
/// footprint, so each row that a rectangle crosses keeps an upper bound
/// on its widest run of free sites outside every such interval and where
/// that run lies; once cells were placed in the row, the bound is read
/// again unless the run is still free. A row is skipped in O(1) when
/// that bound or its widest gap is narrower than the cell, and a cell
/// wider than every row's bound is answered `None` without a scan. The
/// start sites a forbidden rectangle rules out are worked out once per
/// row and cell width.
/// When the origin lies over such an interval, the nearest free run on
/// each side of it that could hold the cell (its frontier,
/// remembered per interval and width) bounds the row's distance before
/// any gap is read. The row walk stops once both rows of the next step
/// are no closer than the best candidate, and within a row the gaps are
/// walked outward from the origin, jumping over every gap that lies
/// wholly inside one forbidden interval and stopping each direction
/// once a lower bound on the distance of the next gap cannot win.
///
/// Placing a cell only shrinks free runs, so the bounds stay sound
/// across placements. A removal can widen a run outside the rectangles:
/// after removing a cell that is not wholly inside them, call
/// [`OutsideSlots::removed`] or [`OutsideSlots::refresh_row`], and after
/// any edit of a row no rectangle crosses, [`OutsideSlots::refresh_row`],
/// before the next search.
#[derive(Debug, Clone)]
pub struct OutsideSlots<'a> {
    floorplan: &'a Floorplan,
    forbidden: &'a [Rect],
    /// Per row, the sites whose left edge lies in a forbidden rectangle
    /// meeting the row, as sorted, disjoint inclusive intervals.
    inside: Vec<Vec<(u32, u32)>>,
    /// Per row with `inside` sites, an upper bound on its widest run of
    /// free sites that meets no `inside` interval.
    bound: Vec<RunBound>,
    /// An upper bound on every row's widest legal run: its `bound`, or
    /// its widest gap for a row no rectangle crosses.
    widest: u32,
    /// Per row, the known [`Frontier`]s of its `inside` intervals.
    frontiers: Vec<Vec<Frontier>>,
    /// Per row, the cell widths whose blocked start sites were worked
    /// out so far.
    blocked: Vec<Vec<BlockedStarts>>,
    stats: SlotSearchStats,
}

/// A cell width and the start sites of a row whose footprint that wide
/// would meet a forbidden rectangle, as sorted, disjoint, non-adjacent
/// inclusive intervals.
type BlockedStarts = (u32, Vec<(u32, u32)>);

/// A row's widest free run outside its `inside` intervals when last
/// read: placing a cell only shrinks free runs, so while the run is still
/// free it is still the widest.
#[derive(Debug, Clone, Copy, Default)]
struct RunBound {
    width: u32,
    /// The run's first site.
    start: u32,
    /// The row's used sites when the run was read.
    used: u32,
}

/// How far a legal footprint of one width must sit from one `inside`
/// interval `[a, b]` of a row: none starts in `(left, a - width]` or
/// in `[b + 1, right)`. Placing a cell only removes legal footprints, so
/// a frontier stays true until [`OutsideSlots::refresh_row`] forgets it.
#[derive(Debug, Clone, Copy)]
struct Frontier {
    interval: usize,
    width: u32,
    /// The last legal start left of the interval (`None`: there is none).
    left: Option<u32>,
    /// The first legal start right of it (`None`: there is none).
    right: Option<u32>,
    /// The row's used sites when the frontier was found: a row whose
    /// count has not moved since is not searched for it again. (A
    /// frontier that misses an edit is still true, only less tight.)
    used: u32,
}

impl<'a> OutsideSlots<'a> {
    /// A searcher for `placement` over `floorplan`, avoiding `forbidden`.
    pub fn new(floorplan: &'a Floorplan, placement: &Placement, forbidden: &'a [Rect]) -> Self {
        let inside: Vec<Vec<(u32, u32)>> = (0..floorplan.num_rows())
            .map(|r| inside_sites(floorplan, r, forbidden))
            .collect();
        let mut slots = OutsideSlots {
            floorplan,
            forbidden,
            bound: vec![RunBound::default(); inside.len()],
            frontiers: vec![Vec::new(); inside.len()],
            blocked: vec![Vec::new(); inside.len()],
            inside,
            widest: 0,
            stats: SlotSearchStats::default(),
        };
        for row in 0..floorplan.num_rows() as u32 {
            slots.refresh_row(placement, row);
        }
        slots
    }

    /// Re-reads `row`'s free runs from `placement` after an edit that
    /// may have widened one.
    pub fn refresh_row(&mut self, placement: &Placement, row: u32) {
        self.frontiers[row as usize].clear();
        let inside = &self.inside[row as usize];
        let widest = if inside.is_empty() {
            placement.row_widest_gap(row)
        } else {
            let bound = widest_run_outside(placement, row, inside);
            self.bound[row as usize] = bound;
            bound.width
        };
        self.widest = self.widest.max(widest);
    }

    /// [`OutsideSlots::refresh_row`] after removing a cell `width` sites
    /// wide from `slot`. Only the free gap now holding its sites can have
    /// widened, so unless the cell sat in the widest run the row's bound
    /// knows, the bound is read from that gap alone.
    pub fn removed(&mut self, placement: &Placement, slot: PlacedCell, width: u32) {
        let (row, site) = (slot.row, slot.site);
        let bound = self.bound[row as usize];
        let apart = bound.start + bound.width <= site || site + width <= bound.start;
        if self.inside[row as usize].is_empty()
            || !apart
            || !placement.fits(row, bound.start, bound.width)
        {
            self.refresh_row(placement, row);
            return;
        }
        // The run missed the cell and is free, so it was the widest
        // before the removal.
        let mut widest = RunBound {
            used: placement.row_used_sites(row),
            ..bound
        };
        if let Some((start, end)) = placement.wide_gaps_left(row, site, 1).next() {
            widen_by_gap(&mut widest, &self.inside[row as usize], start, end);
        }
        self.frontiers[row as usize].clear();
        self.bound[row as usize] = widest;
        self.widest = self.widest.max(widest.width);
    }

    /// The counters of every search so far.
    pub fn stats(&self) -> SlotSearchStats {
        self.stats
    }

    /// The nearest legal slot for `cell` (placed or not: its own slot
    /// counts as occupied) to `origin`, as `(row, site)`; see
    /// [`OutsideSlots`] for the candidate rule.
    pub fn nearest(
        &mut self,
        netlist: &Netlist,
        placement: &Placement,
        cell: CellId,
        origin: Point,
    ) -> Option<(u32, u32)> {
        let floorplan = self.floorplan;
        let width = netlist.cell_width_sites(cell);
        self.stats.searches += 1;
        if width > self.widest {
            self.stats.skipped += 1;
            return None;
        }
        let mut search = SlotSearch {
            floorplan,
            placement,
            origin,
            width,
            width_um: width as f64 * floorplan.site_width(),
            best: None,
        };
        let origin_row = floorplan
            .row_at(origin.y.clamp(floorplan.core().lly, floorplan.core().ury))
            .unwrap_or(0) as i64;
        let n_rows = floorplan.num_rows() as i64;
        for rank in 0..n_rows {
            // 0, +1, -1, +2, -2, …
            let step = (rank + 1) / 2;
            let r = if rank % 2 == 1 {
                // Rows further out are no closer than this step's pair.
                if !search.may_improve(origin_row + step) && !search.may_improve(origin_row - step)
                {
                    break;
                }
                origin_row + step
            } else {
                origin_row - step
            };
            if search.may_improve(r)
                && self.may_fit(placement, r as usize, width)
                && self.may_beat(placement, &search, r as usize)
            {
                self.stats.rows_scanned += 1;
                let blocked = self.blocked_starts(r as usize, width);
                search.scan_row(r as usize, rank as u64, blocked);
            }
        }
        search.best.map(|b| (b.row, b.site))
    }

    /// Whether row `r` may hold a legal footprint `width` sites wide. A
    /// bound that would let the row through is re-read if cells were
    /// placed in the row since and its run is no longer free.
    fn may_fit(&mut self, placement: &Placement, r: usize, width: u32) -> bool {
        if placement.row_widest_gap(r as u32) < width {
            return false;
        }
        let inside = &self.inside[r];
        if inside.is_empty() {
            return true;
        }
        let bound = &mut self.bound[r];
        if bound.width < width {
            return false;
        }
        let now = placement.row_used_sites(r as u32);
        if bound.used != now && !placement.fits(r as u32, bound.start, bound.width) {
            *bound = widest_run_outside(placement, r as u32, inside);
        }
        bound.used = now;
        bound.width >= width
    }

    /// The start sites of row `r` whose footprint `width` sites wide
    /// would meet a forbidden rectangle, by the same strict-overlap test
    /// as [`Rect::intersects`]: sorted, disjoint, non-adjacent inclusive
    /// intervals, worked out on the row's first search for the width.
    fn blocked_starts(&mut self, r: usize, width: u32) -> &[(u32, u32)] {
        let known = &mut self.blocked[r];
        let at = match known.iter().position(|&(w, _)| w == width) {
            Some(at) => at,
            None => {
                let rect = self.floorplan.row_rect(r);
                let mut blocked: Vec<(u32, u32)> = self
                    .forbidden
                    .iter()
                    .filter(|f| f.lly < rect.ury && rect.lly < f.ury)
                    .filter_map(|f| starts_meeting(self.floorplan, r, width, f))
                    .collect();
                blocked.sort_unstable();
                merge_intervals(&mut blocked);
                known.push((width, blocked));
                known.len() - 1
            }
        };
        &known[at].1
    }

    /// Whether a legal footprint in row `r` may beat the best candidate
    /// of `search`. When the origin lies over an `inside` interval,
    /// widened by half the cell on each side, every legal center sits at
    /// or beyond the interval's [`Frontier`] on one side; a remembered
    /// frontier that cannot rule the row out is brought up to date first.
    fn may_beat(&mut self, placement: &Placement, search: &SlotSearch, r: usize) -> bool {
        let Some(best) = search.best else {
            return true;
        };
        let (floorplan, half, origin) = (self.floorplan, search.width_um / 2.0, search.origin);
        let x = |s: u32| floorplan.site_x(r, s);
        let inside = &self.inside[r];
        let k = inside.partition_point(|&(_, b)| x(b + 1) + half <= origin.x);
        match inside.get(k) {
            Some(&(a, _)) if x(a) - half < origin.x => {}
            _ => return true,
        }
        let rect = floorplan.row_rect(r);
        let dy = ((rect.lly + rect.ury) / 2.0 - origin.y).abs();
        // The nearest legal center on either side; the slack covers the
        // rounding of the centers `consider` measures.
        let beats = |f: &Frontier| {
            let left = f.left.map_or(f64::INFINITY, |s| origin.x - (x(s) + half));
            let right = f.right.map_or(f64::INFINITY, |s| x(s) + half - origin.x);
            dy + left.min(right) - CENTER_SLACK_UM < best.distance
        };
        let width = search.width;
        let known = self.frontiers[r]
            .iter()
            .position(|f| f.interval == k && f.width == width);
        let used = placement.row_used_sites(r as u32);
        if let Some(i) = known {
            let f = self.frontiers[r][i];
            if !beats(&f) {
                return false;
            }
            if f.used == used {
                return true;
            }
        }
        let fresh = frontier(placement, r as u32, inside, k, width);
        match known {
            Some(i) => self.frontiers[r][i] = fresh,
            None => self.frontiers[r].push(fresh),
        }
        beats(&fresh)
    }
}

/// The [`Frontier`] of `inside[k]` for footprints `width` sites wide:
/// the free runs of `row` nearest the interval on each side that hold
/// `width` sites meeting no `inside` interval.
fn frontier(
    placement: &Placement,
    row: u32,
    inside: &[(u32, u32)],
    k: usize,
    width: u32,
) -> Frontier {
    let (a, b) = inside[k];
    // Rightward: the wide gaps from the one holding site `b + 1` on.
    let mut right = None;
    let mut gaps = placement
        .wide_gaps_left(row, b + 1, width)
        .next()
        .into_iter()
        .chain(placement.wide_gaps_right(row, b + 2, width));
    let mut j = k + 1;
    'right: for (start, end) in gaps.by_ref() {
        let mut s = start.max(b + 1);
        while s + width <= end {
            while j < inside.len() && inside[j].1 < s {
                j += 1;
            }
            match inside.get(j) {
                Some(&(c, d)) if c < s + width => s = d + 1,
                _ => {
                    right = Some(s);
                    break 'right;
                }
            }
        }
    }
    // Leftward: the wide gaps starting before site `a`, nearest first.
    let mut left = None;
    if let Some(from) = a.checked_sub(1) {
        let mut j = k;
        'left: for (start, end) in placement.wide_gaps_left(row, from, width) {
            let mut e = end.min(a);
            while e >= start + width {
                while j > 0 && inside[j - 1].0 >= e {
                    j -= 1;
                }
                match j.checked_sub(1).map(|i| inside[i]) {
                    Some((c, d)) if d + width >= e => e = c,
                    _ => {
                        left = Some(e - width);
                        break 'left;
                    }
                }
            }
        }
    }
    Frontier {
        interval: k,
        width,
        left,
        right,
        used: placement.row_used_sites(row),
    }
}

/// Rounding allowance of a distance lower bound against the distances
/// [`SlotSearch::consider`] measures, µm.
const CENTER_SLACK_UM: f64 = 1e-6;

/// The sites of row `r` whose left edge lies in a `forbidden` rectangle
/// meeting the row (by [`Rect::intersects`]'s strict test in y), as
/// sorted, disjoint inclusive intervals. A legal footprint covers none of
/// them: one right of a rectangle starts at or past its right edge, and
/// one left of it ends at or before its left edge, which lies a whole
/// site right of the last covered site's left edge.
fn inside_sites(floorplan: &Floorplan, r: usize, forbidden: &[Rect]) -> Vec<(u32, u32)> {
    let rect = floorplan.row_rect(r);
    let last = i64::from(floorplan.row(r).num_sites) - 1;
    let x = |s: i64| floorplan.site_x(r, s as u32);
    let sw = floorplan.site_width();
    let origin_x = floorplan.row(r).origin_x;
    let mut sites: Vec<(u32, u32)> = forbidden
        .iter()
        .filter(|f| f.lly < rect.ury && rect.lly < f.ury)
        .filter_map(|f| {
            let first = first_true(last, ((f.llx - origin_x) / sw).ceil(), |s| x(s) >= f.llx);
            let past = first_true(last, ((f.urx - origin_x) / sw).ceil(), |s| x(s) >= f.urx);
            (first < past).then(|| (first as u32, (past - 1) as u32))
        })
        .collect();
    sites.sort_unstable();
    merge_intervals(&mut sites);
    sites
}

/// Merges sorted inclusive intervals that overlap or touch, in place.
fn merge_intervals(intervals: &mut Vec<(u32, u32)>) {
    let mut merged = 0;
    for i in 0..intervals.len() {
        let (a, b) = intervals[i];
        if merged > 0 && a <= intervals[merged - 1].1 + 1 {
            let last = &mut intervals[merged - 1].1;
            *last = (*last).max(b);
        } else {
            intervals[merged] = (a, b);
            merged += 1;
        }
    }
    intervals.truncate(merged);
}

/// The widest run of free sites of `row` that meets none of the sorted,
/// disjoint `inside` intervals (the leftmost of equals).
fn widest_run_outside(placement: &Placement, row: u32, inside: &[(u32, u32)]) -> RunBound {
    let mut widest = RunBound {
        used: placement.row_used_sites(row),
        ..RunBound::default()
    };
    for (start, width) in placement.free_gaps(row) {
        widen_by_gap(&mut widest, inside, start, start + width);
    }
    widest
}

/// Takes into `widest` the widest run of the free gap `[start, end)`
/// that meets none of the sorted, disjoint `inside` intervals, if wider.
fn widen_by_gap(widest: &mut RunBound, inside: &[(u32, u32)], start: u32, end: u32) {
    let mut offer = |start: u32, end: u32| {
        if end > start + widest.width {
            (widest.start, widest.width) = (start, end - start);
        }
    };
    // Intervals ending before the gap cannot cut it.
    let mut k = inside.partition_point(|&(_, b)| b < start);
    let mut from = start;
    while k < inside.len() && inside[k].0 < end {
        let (a, b) = inside[k];
        offer(from, a);
        from = from.max(b + 1);
        k += 1;
    }
    offer(from, end);
}

/// A candidate slot with its distance and scan key `(rank, gap_start)`.
#[derive(Clone, Copy)]
struct Candidate {
    distance: f64,
    rank: u64,
    gap_start: u32,
    row: u32,
    site: u32,
}

/// State of one [`OutsideSlots::nearest`] query.
struct SlotSearch<'a> {
    floorplan: &'a Floorplan,
    placement: &'a Placement,
    origin: Point,
    width: u32,
    width_um: f64,
    best: Option<Candidate>,
}

/// The row being scanned.
struct RowScan<'b> {
    r: usize,
    rank: u64,
    rect: Rect,
    ideal_site: f64,
    max_site: u32,
    /// The row's forbidden start sites ([`OutsideSlots::blocked_starts`]).
    blocked: &'b [(u32, u32)],
}

impl SlotSearch<'_> {
    /// Whether a candidate at `distance` with scan key `(rank, gap_start)`
    /// would replace the best one — also the stop test for a lower bound
    /// that holds for every later key.
    fn beats(&self, distance: f64, rank: u64, gap_start: u32) -> bool {
        self.best.is_none_or(|b| {
            distance < b.distance
                || (distance == b.distance && (rank, gap_start) < (b.rank, b.gap_start))
        })
    }

    /// Whether row `r` exists and its center line is closer to the origin
    /// than the best candidate.
    fn may_improve(&self, r: i64) -> bool {
        if r < 0 || r >= self.floorplan.num_rows() as i64 {
            return false;
        }
        let rect = self.floorplan.row_rect(r as usize);
        let dy = ((rect.lly + rect.ury) / 2.0 - self.origin.y).abs();
        self.best.is_none_or(|b| dy < b.distance)
    }

    /// Center of the cell's footprint at `site`.
    fn center(&self, row: &RowScan, site: u32) -> Point {
        let x = self.floorplan.site_x(row.r, site);
        Rect::new(x, row.rect.lly, x + self.width_um, row.rect.ury).center()
    }

    fn consider(&mut self, row: &RowScan, gap_start: u32, site: u32) {
        let distance = self.center(row, site).manhattan_to(self.origin);
        if self.beats(distance, row.rank, gap_start) {
            self.best = Some(Candidate {
                distance,
                rank: row.rank,
                gap_start,
                row: row.r as u32,
                site,
            });
        }
    }

    /// Offers the candidate of the fitting gap `[start, end)`.
    fn offer(&mut self, row: &RowScan, start: u32, end: u32) {
        let (lo, hi) = (start, end - self.width);
        let site = row.ideal_site.clamp(lo as f64, hi as f64) as u32;
        if row.blocked_at(site).is_none() {
            self.consider(row, start, site);
            return;
        }
        // Try both gap extremes as fallbacks around a forbidden zone.
        for alt in [lo, hi] {
            if row.blocked_at(alt).is_none() {
                self.consider(row, start, alt);
            }
        }
    }

    /// The forbidden interval a gap `[start, end)` lies wholly inside —
    /// such a gap offers no candidate.
    fn swallowed_by(&self, row: &RowScan, start: u32, end: u32) -> Option<(u32, u32)> {
        row.blocked_at(start)
            .filter(|&(_, b)| i64::from(end) - i64::from(self.width) <= i64::from(b))
    }

    /// A lower bound on the distance of every legal start site left of
    /// `site` (`None`: there is none), given the footprint at `site - 1`
    /// is centered left of the origin.
    fn bound_left_of(&self, row: &RowScan, site: u32, dy: f64) -> Option<f64> {
        let c = self.center(row, site.checked_sub(1)?);
        Some(if c.x <= self.origin.x {
            c.manhattan_to(self.origin)
        } else {
            dy
        })
    }

    /// The mirror of [`SlotSearch::bound_left_of`] for sites right of
    /// `site`.
    fn bound_right_of(&self, row: &RowScan, site: u32, dy: f64) -> Option<f64> {
        if site >= row.max_site {
            return None;
        }
        let c = self.center(row, site + 1);
        Some(if c.x >= self.origin.x {
            c.manhattan_to(self.origin)
        } else {
            dy
        })
    }

    fn scan_row(&mut self, r: usize, rank: u64, blocked: &[(u32, u32)]) {
        let (r32, width) = (r as u32, self.width);
        let floorplan = self.floorplan;
        let placement = self.placement;
        let grid = floorplan.row(r);
        let ideal_x = self.origin.x - self.width_um / 2.0;
        let row = RowScan {
            r,
            rank,
            rect: floorplan.row_rect(r),
            ideal_site: ((ideal_x - grid.origin_x) / floorplan.site_width()).round(),
            max_site: grid.num_sites - width,
            blocked,
        };

        // An ideal site inside a forbidden interval `[a, b]` bounds the
        // whole row by the interval's nearest legal neighbours, and the
        // walks start at its ends: every gap starting inside it is
        // swallowed, except one that runs past `b` — the last fitting
        // gap starting at or before `b`.
        let pivot = row.ideal_site.clamp(0.0, grid.num_sites as f64) as u32;
        let nearest = row.ideal_site.clamp(0.0, row.max_site as f64) as u32;
        let (left_from, right_from) = match row.blocked_at(nearest) {
            None => (Some(pivot), pivot + 1),
            Some((a, b)) => {
                let dy = ((row.rect.lly + row.rect.ury) / 2.0 - self.origin.y).abs();
                let bound = match (
                    self.bound_left_of(&row, a, dy),
                    self.bound_right_of(&row, b, dy),
                ) {
                    (None, None) => return,
                    (Some(d), None) | (None, Some(d)) => d,
                    (Some(l), Some(r)) => l.min(r),
                };
                if !self.beats(bound, rank, 0) {
                    return;
                }
                if let Some((start, end)) = placement.wide_gaps_left(r32, b, width).next() {
                    if start >= a && end - width > b {
                        self.offer(&row, start, end);
                    }
                }
                (a.checked_sub(1), b + 1)
            }
        };

        // Leftward: the fitting gaps starting at or before `left_from`.
        // Every candidate of a gap ending at `end` sits at or left of
        // `end - width`.
        if let Some(from) = left_from {
            let mut gaps = placement.wide_gaps_left(r32, from, width);
            while let Some((start, end)) = gaps.next() {
                let c = self.center(&row, end - width);
                if c.x <= self.origin.x && !self.beats(c.manhattan_to(self.origin), rank, 0) {
                    break;
                }
                match self.swallowed_by(&row, start, end) {
                    Some((0, _)) => break,
                    Some((a, _)) => gaps = placement.wide_gaps_left(r32, a - 1, width),
                    None => {
                        self.offer(&row, start, end);
                        // The next gap ends a cell or more left of
                        // `start`: stop here if that cannot win either.
                        let Some(site) = start.checked_sub(width + 1) else {
                            break;
                        };
                        let c = self.center(&row, site);
                        if c.x <= self.origin.x && !self.beats(c.manhattan_to(self.origin), rank, 0)
                        {
                            break;
                        }
                    }
                }
            }
        }

        // Rightward: the fitting gaps starting at or after `right_from`.
        // Every candidate of a gap starting at `start` sits at or right
        // of `start`.
        let mut gaps = placement.wide_gaps_right(r32, right_from, width);
        while let Some((start, end)) = gaps.next() {
            let c = self.center(&row, start);
            if c.x >= self.origin.x && !self.beats(c.manhattan_to(self.origin), rank, start) {
                break;
            }
            match self.swallowed_by(&row, start, end) {
                // Every later gap starting inside the interval is
                // swallowed too, except one that runs past its end: the
                // last gap starting inside it.
                Some((_, b)) => {
                    let resume = match placement.wide_gaps_left(r32, b, width).next() {
                        Some((s, _)) if s > start => s,
                        _ => b + 1,
                    };
                    gaps = placement.wide_gaps_right(r32, resume, width);
                }
                None => {
                    self.offer(&row, start, end);
                    // The next gap starts a cell or more right of `end`:
                    // stop here if that cannot win either.
                    let next = end + 1;
                    if next > row.max_site {
                        break;
                    }
                    let c = self.center(&row, next);
                    if c.x >= self.origin.x && !self.beats(c.manhattan_to(self.origin), rank, next)
                    {
                        break;
                    }
                }
            }
        }
    }
}

impl RowScan<'_> {
    /// The forbidden interval holding start site `site`, if any.
    fn blocked_at(&self, site: u32) -> Option<(u32, u32)> {
        self.blocked
            .iter()
            .copied()
            .find(|&(a, b)| a <= site && site <= b)
    }
}

/// The start sites of row `r` whose footprint `width` sites wide overlaps
/// `f` in x, as an inclusive interval.
fn starts_meeting(floorplan: &Floorplan, r: usize, width: u32, f: &Rect) -> Option<(u32, u32)> {
    let origin_x = floorplan.row(r).origin_x;
    let sw = floorplan.site_width();
    let width_um = width as f64 * sw;
    let max_site = i64::from(floorplan.row(r).num_sites - width);
    let x = |s: i64| floorplan.site_x(r, s as u32);
    let first = first_true(
        max_site,
        ((f.llx - width_um - origin_x) / sw).floor() + 1.0,
        |s| f.llx < x(s) + width_um,
    );
    let past = first_true(max_site, ((f.urx - origin_x) / sw).ceil(), |s| {
        x(s) >= f.urx
    });
    (first < past).then(|| (first as u32, (past - 1) as u32))
}

/// The first `s` in `0..=max` where `pred` holds, or `max + 1`, for a
/// `pred` that is false up to some site and true from there on; `guess`
/// (an estimate of that site) seeds the walk.
fn first_true(max: i64, guess: f64, pred: impl Fn(i64) -> bool) -> i64 {
    let mut s = guess.clamp(0.0, (max + 1) as f64) as i64;
    while s > 0 && pred(s - 1) {
        s -= 1;
    }
    while s <= max && !pred(s) {
        s += 1;
    }
    s
}

/// Inserts `cell` into `row` by re-spreading the whole row uniformly —
/// the "shove aside" fallback used when no single gap is wide enough for
/// the cell. Existing row cells keep their left-to-right order; the new
/// cell is inserted at the position matching `target_x` (a cell already
/// placed elsewhere is moved).
///
/// Returns `false` (placement untouched) when the row lacks the total
/// free width.
///
/// # Panics
///
/// Panics if `row` is out of range.
pub fn squeeze_into_row(
    netlist: &Netlist,
    floorplan: &Floorplan,
    placement: &mut Placement,
    cell: CellId,
    row: u32,
    target_x: f64,
) -> bool {
    let width = netlist.cell_width_sites(cell);
    let own = placement
        .location(cell)
        .filter(|pc| pc.row == row)
        .map_or(0, |_| width);
    let needed = placement.row_used_sites(row) - own + width;
    // The row's own segment, as spreading into its rectangle finds it.
    let region = floorplan.row_rect(row as usize);
    let Some((_, lo, hi)) = crate::place::row_segment(floorplan, row as usize, region)
        .filter(|&(_, lo, hi)| hi - lo >= needed)
    else {
        return false;
    };
    // The new order: existing cells by site, the new cell by target x.
    let sw = floorplan.site_width();
    let target_site = ((target_x - floorplan.row(row as usize).origin_x) / sw) as u32;
    let occupants = placement.row_cells(row);
    let mut order: Vec<(CellId, u32)> = Vec::with_capacity(occupants.len() + 1);
    let mut inserted = false;
    for &(site, c, w) in occupants.iter().filter(|&&(_, c, _)| c != cell) {
        if !inserted && site >= target_site {
            order.push((cell, width));
            inserted = true;
        }
        order.push((c, w));
    }
    if !inserted {
        order.push((cell, width));
    }
    // Uniform gaps before each cell; the segment ends flush.
    let free = hi - lo - needed;
    let n = order.len() as u32;
    let (gap_each, extra) = (free / n, free % n);
    let mut cursor = lo;
    let run: Vec<(CellId, u32)> = order
        .iter()
        .enumerate()
        .map(|(i, &(c, w))| {
            cursor += gap_each + u32::from((i as u32) < extra);
            let site = cursor;
            cursor += w;
            (c, site)
        })
        .collect();
    placement.rewrite_row(netlist, floorplan, row, &run);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::NetlistBuilder;
    use stdcell::{CellFunction, Drive, Library};

    fn setup() -> (Netlist, Floorplan, Placement) {
        let mut b = NetlistBuilder::new("t", Library::c65());
        let u = b.add_unit("u");
        let a = b.input_port("a", u);
        let mut prev = a;
        for i in 0..3 {
            let n = b.net(format!("n{i}"));
            b.cell(u, CellFunction::Inv, Drive::X1, &[prev], &[n])
                .unwrap();
            prev = n;
        }
        let nl = b.finish().unwrap();
        let fp = Floorplan::new(nl.library(), 30.0, 4);
        let p = Placement::new(&nl, &fp);
        (nl, fp, p)
    }

    #[test]
    fn finds_slot_at_origin_when_empty() {
        let (nl, fp, p) = setup();
        // y = 5.4 sits exactly on the row-1/row-2 boundary: both rows'
        // centers are equidistant, either is a correct nearest slot.
        let origin = Point::new(15.0, 5.4);
        let (row, site) = OutsideSlots::new(&fp, &p, &[])
            .nearest(&nl, &p, CellId::new(0), origin)
            .unwrap();
        assert!(row == 1 || row == 2, "row {row}");
        // 15 µm = site 50; cell is 2 sites wide → starts at ~49.
        assert!((48..=50).contains(&site));
    }

    #[test]
    fn avoids_forbidden_regions() {
        let (nl, fp, p) = setup();
        let origin = Point::new(15.0, 5.4);
        // Forbid the two middle rows entirely.
        let forbidden = [Rect::new(0.0, 2.7, 30.0, 8.1)];
        let (row, _) = OutsideSlots::new(&fp, &p, &forbidden)
            .nearest(&nl, &p, CellId::new(0), origin)
            .unwrap();
        assert!(
            row == 0 || row == 3,
            "row {row} is inside the forbidden band"
        );
    }

    #[test]
    fn skips_occupied_space() {
        let (nl, fp, mut p) = setup();
        // Fill row 1 completely with cell 1 … can't (2 sites); instead
        // occupy the target area.
        p.place(&nl, &fp, CellId::new(1), 1, 48);
        let origin = Point::new(14.7, 2.8); // row 1, site ~48
        let (row, site) = OutsideSlots::new(&fp, &p, &[])
            .nearest(&nl, &p, CellId::new(0), origin)
            .unwrap();
        let rect = {
            let x = fp.site_x(row as usize, site);
            Rect::new(
                x,
                fp.row(row as usize).y,
                x + 0.6,
                fp.row(row as usize).y + 2.7,
            )
        };
        let occupied = p.cell_rect(&nl, &fp, CellId::new(1)).unwrap();
        assert!(!rect.intersects(&occupied));
    }

    #[test]
    fn returns_none_when_everything_is_forbidden() {
        let (nl, fp, p) = setup();
        let forbidden = [fp.core()];
        let mut slots = OutsideSlots::new(&fp, &p, &forbidden);
        assert!(slots
            .nearest(&nl, &p, CellId::new(0), Point::new(1.0, 1.0))
            .is_none());
        assert_eq!(
            slots.stats(),
            SlotSearchStats {
                searches: 1,
                skipped: 1,
                rows_scanned: 0
            },
            "no row can hold the cell, so the search is skipped"
        );
    }
}
