//! The slot search against a brute-force reference, and the row index
//! against values recomputed from scratch, over seeded random placements.

use arithgen::{build_benchmark, BenchmarkConfig};
use geom::{Point, Rect};
use netlist::{CellId, Netlist};
use placement::{
    respread_row, squeeze_into_row, weighted_row_gaps, Floorplan, OutsideSlots, Placement,
};

/// SplitMix64: a small, fixed generator so the cases never drift.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

fn width_of(netlist: &Netlist, cell: CellId) -> u32 {
    netlist
        .library()
        .cell(netlist.cell(cell).master())
        .width_sites()
}

/// The search's documented candidate rule as a brute force: every
/// fitting gap of every row offers its site nearest the origin (the
/// ideal site clamped into the gap) or, when that site is forbidden,
/// whichever of the gap's two ends is legal; rows are ranked `0, +1, −1,
/// …` from the origin's row, and the smallest `(distance, rank,
/// gap_start, site)` wins.
fn reference_slot(
    netlist: &Netlist,
    floorplan: &Floorplan,
    placement: &Placement,
    cell: CellId,
    origin: Point,
    forbidden: &[Rect],
) -> Option<(u32, u32)> {
    let width = width_of(netlist, cell);
    let width_um = width as f64 * floorplan.site_width();
    let mut best: Option<(f64, u64, u32, u32, u32)> = None;
    let origin_row = floorplan
        .row_at(origin.y.clamp(floorplan.core().lly, floorplan.core().ury))
        .unwrap_or(0) as i64;
    let n_rows = floorplan.num_rows() as i64;
    for rank in 0..n_rows {
        let step = (rank + 1) / 2;
        let r = if rank % 2 == 1 {
            origin_row + step
        } else {
            origin_row - step
        };
        if r < 0 || r >= n_rows {
            continue;
        }
        let r = r as usize;
        let row_rect = floorplan.row_rect(r);
        let footprint = |site: u32| {
            let x = floorplan.site_x(r, site);
            Rect::new(x, row_rect.lly, x + width_um, row_rect.ury)
        };
        let legal = |rect: &Rect| !forbidden.iter().any(|f| f.intersects(rect));
        let ideal_x = origin.x - width_um / 2.0;
        let ideal_site = ((ideal_x - floorplan.row(r).origin_x) / floorplan.site_width()).round();
        for (start, gap) in placement.row_gaps(floorplan, r as u32) {
            if gap < width {
                continue;
            }
            let (lo, hi) = (start, start + gap - width);
            let ideal = ideal_site.clamp(lo as f64, hi as f64) as u32;
            let sites = if legal(&footprint(ideal)) {
                vec![ideal]
            } else {
                [lo, hi]
                    .into_iter()
                    .filter(|&s| legal(&footprint(s)))
                    .collect()
            };
            for site in sites {
                let d = footprint(site).center().manhattan_to(origin);
                let key = (d, rank as u64, start, site, r as u32);
                let better = best.is_none_or(|b| {
                    d < b.0 || (d == b.0 && (key.1, key.2, key.3) < (b.1, b.2, b.3))
                });
                if better {
                    best = Some(key);
                }
            }
        }
    }
    best.map(|(_, _, _, site, r)| (r, site))
}

/// Places up to `tries` random cells at random free sites, denser in
/// some rows than others.
fn scatter(
    netlist: &Netlist,
    floorplan: &Floorplan,
    placement: &mut Placement,
    rng: &mut Rng,
    tries: usize,
) {
    let n_cells = netlist.cell_count() as u64;
    let n_rows = floorplan.num_rows() as u64;
    for _ in 0..tries {
        let cell = CellId::new(rng.below(n_cells) as usize);
        if placement.location(cell).is_some() {
            continue;
        }
        let row = rng.below(n_rows) as u32;
        // Skew the density: low rows fill up, high rows stay sparse.
        if rng.below(n_rows) < u64::from(row) {
            continue;
        }
        let width = width_of(netlist, cell);
        let sites = floorplan.row(row as usize).num_sites;
        if width > sites {
            continue;
        }
        let site = rng.below(u64::from(sites - width + 1)) as u32;
        if placement.fits(row, site, width) {
            placement.place(netlist, floorplan, cell, row, site);
        }
    }
}

/// 0–4 forbidden rectangles: random boxes, some snapped to row and site
/// boundaries, whole-row bands and the whole core.
fn forbidden_rects(floorplan: &Floorplan, rng: &mut Rng) -> Vec<Rect> {
    let core = floorplan.core();
    let pitch = floorplan.row_height();
    let sw = floorplan.site_width();
    let rows = floorplan.num_rows() as u64;
    let sites = u64::from(floorplan.row(0).num_sites);
    (0..rng.below(5))
        .map(|_| match rng.below(6) {
            0 => {
                let (y0, y1) = (rng.below(rows + 1), rng.below(rows + 1));
                Rect::new(core.llx, y0 as f64 * pitch, core.urx, y1 as f64 * pitch)
            }
            1 => core,
            2 => {
                let (x0, x1) = (rng.below(sites + 1), rng.below(sites + 1));
                let (y0, y1) = (rng.below(rows + 1), rng.below(rows + 1));
                Rect::new(
                    x0 as f64 * sw,
                    y0 as f64 * pitch,
                    x1 as f64 * sw,
                    y1 as f64 * pitch,
                )
            }
            3 => {
                // Touching the left or right core edge.
                let x = rng.range(core.llx, core.urx);
                let (y0, y1) = (rng.range(core.lly, core.ury), rng.range(core.lly, core.ury));
                if rng.below(2) == 0 {
                    Rect::new(core.llx, y0, x, y1)
                } else {
                    Rect::new(x, y0, core.urx, y1)
                }
            }
            _ => {
                let w = rng.range(0.0, core.width() * 0.6);
                let h = rng.range(0.0, core.height() * 0.6);
                let x = rng.range(core.llx - w / 2.0, core.urx);
                let y = rng.range(core.lly - h / 2.0, core.ury);
                Rect::new(x, y, x + w, y + h)
            }
        })
        .collect()
}

/// An origin inside the core or up to a third of its size outside.
fn origin(floorplan: &Floorplan, rng: &mut Rng) -> Point {
    let core = floorplan.core();
    let (mx, my) = (core.width() / 3.0, core.height() / 3.0);
    Point::new(
        rng.range(core.llx - mx, core.urx + mx),
        rng.range(core.lly - my, core.ury + my),
    )
}

/// Checks the search against the reference for `queries` random
/// (cell, origin) pairs under `forbidden`; returns how many found a slot.
fn compare(
    netlist: &Netlist,
    floorplan: &Floorplan,
    placement: &Placement,
    forbidden: &[Rect],
    rng: &mut Rng,
    queries: usize,
) -> usize {
    let mut found = 0;
    for _ in 0..queries {
        let cell = CellId::new(rng.below(netlist.cell_count() as u64) as usize);
        let origin = origin(floorplan, rng);
        let mut probe = placement.clone();
        probe.remove(cell);
        let want = reference_slot(netlist, floorplan, &probe, cell, origin, forbidden);
        let got =
            OutsideSlots::new(floorplan, &probe, forbidden).nearest(netlist, &probe, cell, origin);
        assert_eq!(
            got,
            want,
            "cell {cell} (width {}) from {origin:?} under {forbidden:?}",
            width_of(netlist, cell)
        );
        found += usize::from(got.is_some());
    }
    found
}

/// Asserts every row's index agrees with values recomputed from its gaps.
fn check_index(floorplan: &Floorplan, placement: &Placement, step: &str) {
    for row in 0..floorplan.num_rows() as u32 {
        let used: u32 = placement.row_cells(row).iter().map(|&(_, _, w)| w).sum();
        let gaps = placement.row_gaps(floorplan, row);
        let widest = gaps.iter().map(|&(_, w)| w).max().unwrap_or(0);
        let free: u32 = gaps.iter().map(|&(_, w)| w).sum();
        assert_eq!(
            placement.row_used_sites(row),
            used,
            "{step}: row {row} used"
        );
        assert_eq!(
            used + free,
            floorplan.row(row as usize).num_sites,
            "{step}: row {row}"
        );
        assert_eq!(
            placement.row_widest_gap(row),
            widest,
            "{step}: row {row} widest"
        );
        let sites = floorplan.row(row as usize).num_sites;
        for width in [1, 3, 8] {
            for (from, to) in [(0, sites), (sites / 3, sites), (sites / 4, sites / 2)] {
                let first_fit = (from..to)
                    .take_while(|&s| s + width <= to)
                    .find(|&s| placement.fits(row, s, width));
                assert_eq!(
                    placement.first_fit(row, from, to, width),
                    first_fit,
                    "{step}: row {row} first fit of {width} in [{from}, {to})"
                );
            }
        }
    }
}

#[test]
fn slot_search_matches_the_full_scan() {
    let netlist = build_benchmark(&BenchmarkConfig::small()).unwrap();
    let mut rng = Rng(17);
    let mut found = 0;
    let mut queries = 0;
    for _ in 0..40 {
        let rows = 3 + rng.below(14) as usize;
        // Up to ~500 sites a row: gaps wider than 255 sites take the
        // index's saturated path.
        let width_um = rng.range(8.0, 150.0);
        let floorplan = Floorplan::new(netlist.library(), width_um, rows);
        let mut placement = Placement::new(&netlist, &floorplan);
        let tries = rng.below(40 * rows as u64) as usize;
        scatter(&netlist, &floorplan, &mut placement, &mut rng, tries);
        for _ in 0..4 {
            let forbidden = forbidden_rects(&floorplan, &mut rng);
            found += compare(&netlist, &floorplan, &placement, &forbidden, &mut rng, 12);
            queries += 12;
        }
    }
    // The cases must exercise both outcomes.
    assert!(
        found > queries / 4 && found < queries,
        "{found} of {queries} found a slot"
    );
}

#[test]
fn row_index_tracks_every_edit() {
    let netlist = build_benchmark(&BenchmarkConfig::small()).unwrap();
    let mut rng = Rng(29);
    let mut floorplan = Floorplan::new(netlist.library(), 90.0, 8);
    let mut placement = Placement::new(&netlist, &floorplan);
    check_index(&floorplan, &placement, "empty");
    let n_cells = netlist.cell_count() as u64;
    for step in 0..300 {
        let rows = floorplan.num_rows() as u64;
        let row = rng.below(rows) as u32;
        let label = match rng.below(10) {
            0..=3 => {
                scatter(&netlist, &floorplan, &mut placement, &mut rng, 24);
                "place"
            }
            4 | 5 => {
                for _ in 0..4 {
                    placement.remove(CellId::new(rng.below(n_cells) as usize));
                }
                "remove"
            }
            6 => {
                let cell = CellId::new(rng.below(n_cells) as usize);
                let x = rng.range(floorplan.core().llx, floorplan.core().urx);
                squeeze_into_row(&netlist, &floorplan, &mut placement, cell, row, x);
                "squeeze"
            }
            7 | 8 => {
                let cells = placement.row_cells(row).len();
                let free = floorplan.row(row as usize).num_sites - placement.row_used_sites(row);
                let weights: Vec<f64> = (0..cells).map(|_| rng.unit()).collect();
                let gaps = weighted_row_gaps(free, &weights);
                respread_row(&netlist, &floorplan, &mut placement, row, &gaps);
                "respread"
            }
            _ => {
                let positions: Vec<usize> = (0..1 + rng.below(2))
                    .map(|_| rng.below(rows + 1) as usize)
                    .collect();
                let (grown, mapping) = floorplan.with_rows_inserted(&positions);
                placement = placement.remap_rows(&grown, &mapping);
                floorplan = grown;
                "remap"
            }
        };
        check_index(&floorplan, &placement, &format!("step {step} ({label})"));
        if step % 10 == 0 {
            let forbidden = forbidden_rects(&floorplan, &mut rng);
            compare(&netlist, &floorplan, &placement, &forbidden, &mut rng, 4);
        }
    }
}

/// 1–3 disjoint wrap-like regions side by side over one band of rows,
/// separated by gaps a few sites wide, edges off the site grid.
fn wrap_regions(floorplan: &Floorplan, rng: &mut Rng) -> Vec<Rect> {
    let core = floorplan.core();
    let pitch = floorplan.row_height();
    let sw = floorplan.site_width();
    let rows = floorplan.num_rows() as u64;
    let y0 = rng.below(rows) as f64 * pitch + rng.range(-0.4, 0.4) * pitch;
    let y1 = y0 + (1 + rng.below(rows / 2 + 1)) as f64 * pitch + rng.range(-0.4, 0.4) * pitch;
    let n = 1 + rng.below(3) as usize;
    let mut x = core.llx + rng.range(0.0, 0.3) * core.width();
    let mut regions = Vec::with_capacity(n);
    for _ in 0..n {
        let w = rng.range(0.05, 0.25) * core.width();
        regions.push(Rect::new(
            x,
            y0.max(core.lly),
            (x + w).min(core.urx),
            y1.min(core.ury),
        ));
        // A gap between neighbours, from under one cell to a few cells.
        x += w + rng.range(0.3, 8.0) * sw;
        if x >= core.urx {
            break;
        }
    }
    regions
}

/// Places up to `tries` cells across the edges of `regions`.
fn straddle(
    netlist: &Netlist,
    floorplan: &Floorplan,
    placement: &mut Placement,
    regions: &[Rect],
    rng: &mut Rng,
    tries: usize,
) {
    let sw = floorplan.site_width();
    for _ in 0..tries {
        let cell = CellId::new(rng.below(netlist.cell_count() as u64) as usize);
        if placement.location(cell).is_some() {
            continue;
        }
        let region = regions[rng.below(regions.len() as u64) as usize];
        let edge = if rng.below(2) == 0 {
            region.llx
        } else {
            region.urx
        };
        let Some(row) = floorplan.row_at(rng.range(region.lly, region.ury)) else {
            continue;
        };
        let width = width_of(netlist, cell);
        let sites = floorplan.row(row).num_sites;
        let first = ((edge - floorplan.row(row).origin_x) / sw).floor() as i64;
        let site = first - rng.below(u64::from(width)) as i64;
        if site < 0 || site as u32 + width > sites {
            continue;
        }
        if placement.fits(row as u32, site as u32, width) {
            placement.place(netlist, floorplan, cell, row as u32, site as u32);
        }
    }
}

/// Packs each row left to right with unplaced cells and gaps of 0–2
/// sites, up to a random fill between 75 % and the whole row, so many
/// rows keep only narrow gaps, as a placement near its target
/// utilization does.
fn pack(netlist: &Netlist, floorplan: &Floorplan, placement: &mut Placement, rng: &mut Rng) {
    let mut next = 0;
    for row in 0..floorplan.num_rows() as u32 {
        let sites = floorplan.row(row as usize).num_sites;
        let stop = (rng.range(0.75, 1.0) * f64::from(sites)) as u32;
        let mut site = rng.below(4) as u32;
        while next < netlist.cell_count() {
            let cell = CellId::new(next);
            if placement.location(cell).is_some() {
                next += 1;
                continue;
            }
            let width = width_of(netlist, cell);
            if site + width > stop {
                break;
            }
            if placement.fits(row, site, width) {
                placement.place(netlist, floorplan, cell, row, site);
                next += 1;
                site += width;
            } else {
                site += 1;
            }
            site += rng.below(3) as u32;
        }
    }
}

/// The wrapper's use of the search: evict every cell touching a wrap
/// region, one at a time, to the slot the search picks outside all of
/// them, with cells straddling the region edges and gaps between
/// neighbouring regions. One searcher serves every eviction of a case,
/// refreshed only where a removal may widen a run outside the regions;
/// every answer must be the reference's.
#[test]
fn slot_search_matches_the_reference_around_wrapped_regions() {
    let netlist = build_benchmark(&BenchmarkConfig::small()).unwrap();
    let mut rng = Rng(41);
    let (mut found, mut queries, mut skipped) = (0, 0, 0);
    for _ in 0..40 {
        let rows = 4 + rng.below(12) as usize;
        let width_um = rng.range(12.0, 120.0);
        let floorplan = Floorplan::new(netlist.library(), width_um, rows);
        let mut placement = Placement::new(&netlist, &floorplan);
        let regions = wrap_regions(&floorplan, &mut rng);
        straddle(
            &netlist,
            &floorplan,
            &mut placement,
            &regions,
            &mut rng,
            8 * rows,
        );
        pack(&netlist, &floorplan, &mut placement, &mut rng);
        let inside: Vec<CellId> = placement
            .iter()
            .map(|(cell, _)| cell)
            .filter(|&cell| {
                placement
                    .cell_rect(&netlist, &floorplan, cell)
                    .is_some_and(|rect| regions.iter().any(|g| g.intersects(&rect)))
            })
            .collect();
        let mut slots = OutsideSlots::new(&floorplan, &placement, &regions);
        for cell in inside {
            let rect = placement
                .cell_rect(&netlist, &floorplan, cell)
                .expect("placed");
            let row = placement.location(cell).expect("placed").row;
            placement.remove(cell);
            // A cell wholly inside one region frees no site outside them.
            if !regions.iter().any(|g| g.contains_rect(&rect)) {
                slots.refresh_row(&placement, row);
            }
            let origin = rect.center();
            let want = reference_slot(&netlist, &floorplan, &placement, cell, origin, &regions);
            let got = slots.nearest(&netlist, &placement, cell, origin);
            assert_eq!(
                got,
                want,
                "cell {cell} (width {}) from {origin:?} under {regions:?}",
                width_of(&netlist, cell)
            );
            queries += 1;
            if let Some((row, site)) = got {
                placement.place(&netlist, &floorplan, cell, row, site);
                found += 1;
            }
        }
        skipped += slots.stats().skipped;
    }
    assert!(
        found > queries / 4 && found < queries,
        "{found} of {queries} evictions found a slot"
    );
    assert!(skipped > 0, "no search was answered from the bounds alone");
}
