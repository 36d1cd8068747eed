//! Slot search used by post-placement transformations: find legal free
//! space for a cell near a target point, optionally avoiding regions.

use geom::{Point, Rect};
use netlist::{CellId, Netlist};

use crate::{Floorplan, Placement};

/// Finds the free slot for `cell` nearest to `origin` (Manhattan distance
/// between cell center and origin) whose footprint does not intersect any
/// `forbidden` rectangle. Returns `(row, site)`.
///
/// Rows are ranked outward from the origin's row (`0, +1, −1, +2, …`, as
/// many ranks as the floorplan has rows). Every free gap that fits the
/// cell offers one candidate: its site nearest the origin, or, when that
/// site is forbidden, whichever of the gap's two ends is legal. The
/// answer is the nearest candidate; ties go to the lower row rank, then
/// to the gap further left, then to the gap's left end.
///
/// The search only visits free space that could still win: a row whose
/// widest gap is narrower than the cell is skipped in O(1), the row walk
/// stops once both rows of the next step are no closer than the best
/// candidate, and within a row the gaps are walked outward from the
/// origin, jumping over every gap that lies wholly inside one forbidden
/// interval and stopping each direction once a lower bound on its
/// distance cannot win.
pub fn nearest_slot_outside(
    netlist: &Netlist,
    floorplan: &Floorplan,
    placement: &Placement,
    cell: CellId,
    origin: Point,
    forbidden: &[Rect],
) -> Option<(u32, u32)> {
    let width = netlist
        .library()
        .cell(netlist.cell(cell).master())
        .width_sites();
    let mut search = SlotSearch {
        floorplan,
        placement,
        origin,
        width,
        width_um: width as f64 * floorplan.site_width(),
        forbidden,
        best: None,
        grid: None,
        rect_sites: Vec::with_capacity(forbidden.len()),
        blocked: Vec::with_capacity(forbidden.len()),
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
            if !search.may_improve(origin_row + step) && !search.may_improve(origin_row - step) {
                break;
            }
            origin_row + step
        } else {
            origin_row - step
        };
        if search.may_improve(r) {
            search.scan_row(r as usize, rank as u64);
        }
    }
    search.best.map(|b| (b.row, b.site))
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

/// State of one [`nearest_slot_outside`] query.
struct SlotSearch<'a> {
    floorplan: &'a Floorplan,
    placement: &'a Placement,
    origin: Point,
    width: u32,
    width_um: f64,
    forbidden: &'a [Rect],
    best: Option<Candidate>,
    /// The site grid `(origin_x, num_sites)` that `rect_sites` is for.
    grid: Option<(f64, u32)>,
    /// Per forbidden rectangle, the start sites whose footprint meets it
    /// in x, as an inclusive interval.
    rect_sites: Vec<Option<(u32, u32)>>,
    /// The current row's forbidden start sites: sorted, disjoint,
    /// non-adjacent inclusive intervals.
    blocked: Vec<(u32, u32)>,
}

/// The row being scanned.
struct RowScan {
    r: usize,
    rank: u64,
    rect: Rect,
    ideal_site: f64,
    max_site: u32,
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

    /// The forbidden interval holding start site `site`, if any.
    fn blocked_at(&self, site: u32) -> Option<(u32, u32)> {
        self.blocked
            .iter()
            .copied()
            .find(|&(a, b)| a <= site && site <= b)
    }

    /// Offers the candidate of the fitting gap `[start, end)`.
    fn offer(&mut self, row: &RowScan, start: u32, end: u32) {
        let (lo, hi) = (start, end - self.width);
        let site = row.ideal_site.clamp(lo as f64, hi as f64) as u32;
        if self.blocked_at(site).is_none() {
            self.consider(row, start, site);
            return;
        }
        // Try both gap extremes as fallbacks around a forbidden zone.
        for alt in [lo, hi] {
            if self.blocked_at(alt).is_none() {
                self.consider(row, start, alt);
            }
        }
    }

    /// The forbidden interval a gap `[start, end)` lies wholly inside —
    /// such a gap offers no candidate.
    fn swallowed_by(&self, start: u32, end: u32) -> Option<(u32, u32)> {
        self.blocked_at(start)
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

    fn scan_row(&mut self, r: usize, rank: u64) {
        let (r32, width) = (r as u32, self.width);
        if self.placement.row_widest_gap(r32) < width {
            return;
        }
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
        };
        self.block_row(&row);

        // An ideal site inside a forbidden interval `[a, b]` bounds the
        // whole row by the interval's nearest legal neighbours, and the
        // walks start at its ends: every gap starting inside it is
        // swallowed, except one that runs past `b` — the last fitting
        // gap starting at or before `b`.
        let pivot = row.ideal_site.clamp(0.0, grid.num_sites as f64) as u32;
        let nearest = row.ideal_site.clamp(0.0, row.max_site as f64) as u32;
        let (left_from, right_from) = match self.blocked_at(nearest) {
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
                match self.swallowed_by(start, end) {
                    Some((0, _)) => break,
                    Some((a, _)) => gaps = placement.wide_gaps_left(r32, a - 1, width),
                    None => self.offer(&row, start, end),
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
            match self.swallowed_by(start, end) {
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
                None => self.offer(&row, start, end),
            }
        }
    }

    /// Fills [`SlotSearch::blocked`] with the start sites of `row` whose
    /// footprint would meet a forbidden rectangle, by the same
    /// strict-overlap test as [`Rect::intersects`].
    fn block_row(&mut self, row: &RowScan) {
        let grid = self.floorplan.row(row.r);
        if self.grid != Some((grid.origin_x, grid.num_sites)) {
            self.grid = Some((grid.origin_x, grid.num_sites));
            self.rect_sites.clear();
            for f in self.forbidden {
                self.rect_sites.push(self.sites_meeting(row, f));
            }
        }
        self.blocked.clear();
        for (f, sites) in self.forbidden.iter().zip(&self.rect_sites) {
            if let Some(interval) = sites {
                if f.lly < row.rect.ury && row.rect.lly < f.ury {
                    self.blocked.push(*interval);
                }
            }
        }
        self.blocked.sort_unstable();
        let mut merged = 0;
        for i in 0..self.blocked.len() {
            let (a, b) = self.blocked[i];
            if merged > 0 && a <= self.blocked[merged - 1].1 + 1 {
                let last = &mut self.blocked[merged - 1].1;
                *last = (*last).max(b);
            } else {
                self.blocked[merged] = (a, b);
                merged += 1;
            }
        }
        self.blocked.truncate(merged);
    }

    /// The start sites of `row` whose footprint overlaps `f` in x.
    fn sites_meeting(&self, row: &RowScan, f: &Rect) -> Option<(u32, u32)> {
        let origin_x = self.floorplan.row(row.r).origin_x;
        let sw = self.floorplan.site_width();
        let max_site = i64::from(row.max_site);
        let x = |s: i64| self.floorplan.site_x(row.r, s as u32);
        let first = first_true(
            max_site,
            ((f.llx - self.width_um - origin_x) / sw).floor() + 1.0,
            |s| f.llx < x(s) + self.width_um,
        );
        let past = first_true(max_site, ((f.urx - origin_x) / sw).ceil(), |s| {
            x(s) >= f.urx
        });
        (first < past).then(|| (first as u32, (past - 1) as u32))
    }
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
    let lib = netlist.library();
    let width = lib.cell(netlist.cell(cell).master()).width_sites();
    let slot = placement.location(cell);
    let own = slot.filter(|pc| pc.row == row).map_or(0, |_| width);
    if placement.row_used_sites(row) - own + width > floorplan.row(row as usize).num_sites {
        return false;
    }
    placement.remove(cell);
    let occupants = placement.take_row(row);
    // Build the new order: existing cells by site, new cell by target x.
    let sw = floorplan.site_width();
    let target_site = ((target_x - floorplan.row(row as usize).origin_x) / sw) as u32;
    let mut order: Vec<CellId> = Vec::with_capacity(occupants.len() + 1);
    let mut inserted = false;
    for &(site, c, _) in &occupants {
        if !inserted && site >= target_site {
            order.push(cell);
            inserted = true;
        }
        order.push(c);
    }
    if !inserted {
        order.push(cell);
    }
    let region = floorplan.row_rect(row as usize);
    if crate::spread_into_region(netlist, floorplan, placement, &order, region).is_err() {
        // The spread refuses a capacity shortfall of the row's site grid
        // before it moves any cell: put the row back as it was.
        let back: Vec<(CellId, u32)> = occupants.iter().map(|&(site, c, _)| (c, site)).collect();
        placement.place_run(netlist, floorplan, row, &back);
        if let Some(pc) = slot {
            placement.place(netlist, floorplan, cell, pc.row, pc.site);
        }
        return false;
    }
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
        let (row, site) = nearest_slot_outside(&nl, &fp, &p, CellId::new(0), origin, &[]).unwrap();
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
        let (row, _) =
            nearest_slot_outside(&nl, &fp, &p, CellId::new(0), origin, &forbidden).unwrap();
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
        let (row, site) = nearest_slot_outside(&nl, &fp, &p, CellId::new(0), origin, &[]).unwrap();
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
        assert!(nearest_slot_outside(
            &nl,
            &fp,
            &p,
            CellId::new(0),
            Point::new(1.0, 1.0),
            &forbidden
        )
        .is_none());
    }
}
