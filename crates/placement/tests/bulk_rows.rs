//! The bulk row paths against cell-by-cell builds: a placement whose rows
//! are written at once must be `==` (slots, cells, gap bytes and block
//! tree) to the same cells placed one run or one cell at a time.

use arithgen::{build_benchmark, BenchmarkConfig};
use geom::Rect;
use netlist::{CellId, Netlist};
use placement::{
    region_row_segments, respread_row, squeeze_into_row, weighted_row_gaps, Floorplan,
    OutsideSlots, Placement, Placer, PlacerConfig,
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
}

/// The placer's packing replayed through `place_run`, one segment at a
/// time, on the floorplan and regions `Placer::place` chose: each unit's
/// cells fill its region's row segments proportionally with uniform
/// gaps, and a unit that under-fills is swept again first-fit. Returns
/// the placement and whether any unit needed the sweep.
fn place_run_per_segment(
    netlist: &Netlist,
    floorplan: &Floorplan,
    regions: &[Rect],
    serpentine: bool,
) -> (Placement, bool) {
    let mut placement = Placement::new(netlist, floorplan);
    let mut swept = false;
    for (unit, _) in netlist.units() {
        let cells = netlist.unit_cells(unit);
        let widths: Vec<u64> = cells
            .iter()
            .map(|&c| u64::from(netlist.cell_width_sites(c)))
            .collect();
        let segments = region_row_segments(floorplan, regions[unit.index()]);
        let needed: u64 = widths.iter().sum();
        let capacity: u64 = segments.iter().map(|&(_, lo, hi)| u64::from(hi - lo)).sum();
        let (mut idx, mut placed, mut seen) = (0, 0, 0);
        for (seg_no, &(row, lo, hi)) in segments.iter().enumerate() {
            let seg_sites = u64::from(hi - lo);
            seen += seg_sites;
            let target = if seg_no + 1 == segments.len() {
                needed
            } else {
                needed * seen / capacity
            };
            let mut batch = Vec::new();
            let mut batch_width = 0;
            while idx < cells.len()
                && placed + batch_width < target
                && batch_width + widths[idx] <= seg_sites
            {
                batch_width += widths[idx];
                batch.push(idx);
                idx += 1;
            }
            if batch.is_empty() {
                continue;
            }
            if serpentine && seg_no % 2 == 1 {
                batch.reverse();
            }
            let free = seg_sites - batch_width;
            let n = batch.len() as u64;
            let mut cursor = u64::from(lo);
            let run: Vec<(CellId, u32)> = batch
                .iter()
                .enumerate()
                .map(|(i, &ci)| {
                    cursor += free / n + u64::from((i as u64) < free % n);
                    let site = cursor as u32;
                    cursor += widths[ci];
                    (cells[ci], site)
                })
                .collect();
            placement.place_run(netlist, floorplan, row, &run);
            placed += batch_width;
        }
        swept |= idx < cells.len();
        for &(row, lo, hi) in &segments {
            let mut site = lo;
            while idx < cells.len() {
                let width = widths[idx] as u32;
                let Some(fit) = placement.first_fit(row, site, hi, width) else {
                    break;
                };
                placement.place(netlist, floorplan, cells[idx], row, fit);
                site = fit + width;
                idx += 1;
            }
        }
        assert_eq!(idx, cells.len(), "the reference overflowed");
    }
    (placement, swept)
}

/// `placement` rebuilt cell by cell, each row left to right.
fn placed_cell_by_cell(
    netlist: &Netlist,
    floorplan: &Floorplan,
    placement: &Placement,
) -> Placement {
    let mut rebuilt = Placement::new(netlist, floorplan);
    for row in 0..floorplan.num_rows() as u32 {
        for &(site, cell, _) in placement.row_cells(row) {
            rebuilt.place(netlist, floorplan, cell, row, site);
        }
    }
    rebuilt
}

/// Places up to `tries` random cells at random free sites.
fn scatter(
    netlist: &Netlist,
    floorplan: &Floorplan,
    placement: &mut Placement,
    rng: &mut Rng,
    tries: usize,
) {
    for _ in 0..tries {
        let cell = CellId::new(rng.below(netlist.cell_count() as u64) as usize);
        if placement.location(cell).is_some() {
            continue;
        }
        let row = rng.below(floorplan.num_rows() as u64) as u32;
        let width = netlist.cell_width_sites(cell);
        let sites = floorplan.row(row as usize).num_sites;
        let site = rng.below(u64::from(sites.saturating_sub(width) + 1)) as u32;
        if site + width <= sites && placement.fits(row, site, width) {
            placement.place(netlist, floorplan, cell, row, site);
        }
    }
}

#[test]
fn placer_rows_match_placing_each_segment_in_turn() {
    let small = build_benchmark(&BenchmarkConfig::small()).unwrap();
    let paper = build_benchmark(&BenchmarkConfig::paper()).unwrap();
    let mut cases: Vec<(&Netlist, PlacerConfig)> = Vec::new();
    for netlist in [&small, &paper] {
        for utilization in [0.5, 0.6, 0.7, 0.8, 0.85, 0.9] {
            cases.push((netlist, PlacerConfig::with_utilization(utilization)));
        }
    }
    cases.push((&paper, PlacerConfig::with_utilization(0.95)));
    // At 63 rows one unit's proportional pass under-fills its segments,
    // so this case takes the first-fit sweep.
    let tall = PlacerConfig {
        fixed_num_rows: Some(63),
        ..PlacerConfig::with_utilization(0.905)
    };
    cases.push((&small, tall));
    let mut swept = 0;
    for (netlist, config) in cases {
        let placed = Placer::new(config.clone()).place(netlist).unwrap();
        let (want, sweep) =
            place_run_per_segment(netlist, &placed.floorplan, &placed.regions, true);
        assert!(
            placed.placement == want,
            "{} cells, {config:?}",
            netlist.cell_count()
        );
        swept += usize::from(sweep);
    }
    assert_eq!(swept, 1, "the tall case takes the first-fit sweep");
}

#[test]
fn squeezed_and_respread_rows_match_a_cell_by_cell_build() {
    let netlist = build_benchmark(&BenchmarkConfig::small()).unwrap();
    let mut rng = Rng(53);
    let (mut squeezed, mut refused, mut refused_placed) = (0, 0, 0);
    for case in 0..30 {
        let floorplan = Floorplan::new(netlist.library(), 20.0 + rng.unit() * 60.0, 6);
        let mut placement = Placement::new(&netlist, &floorplan);
        let tries = rng.below(300) as usize;
        scatter(&netlist, &floorplan, &mut placement, &mut rng, tries);
        for step in 0..20 {
            let row = rng.below(floorplan.num_rows() as u64) as u32;
            let before = placement.clone();
            if rng.below(2) == 0 {
                // A placed cell (the first of a random row) or any cell.
                let from = rng.below(floorplan.num_rows() as u64) as u32;
                let cell = match placement.row_cells(from).first() {
                    Some(&(_, cell, _)) if rng.below(2) == 0 => cell,
                    _ => CellId::new(rng.below(netlist.cell_count() as u64) as usize),
                };
                let x = floorplan.core().llx + rng.unit() * floorplan.core().width();
                if squeeze_into_row(&netlist, &floorplan, &mut placement, cell, row, x) {
                    squeezed += 1;
                } else {
                    refused += 1;
                    refused_placed += usize::from(before.location(cell).is_some());
                    assert!(
                        placement == before,
                        "case {case} step {step}: a refused squeeze moved cells"
                    );
                }
            } else {
                let cells = placement.row_cells(row).len();
                let free = floorplan.row(row as usize).num_sites - placement.row_used_sites(row);
                let weights: Vec<f64> = (0..cells).map(|_| rng.unit()).collect();
                let gaps = weighted_row_gaps(free, &weights);
                respread_row(&netlist, &floorplan, &mut placement, row, &gaps);
            }
            assert!(
                placement == placed_cell_by_cell(&netlist, &floorplan, &placement),
                "case {case} step {step}: row {row}"
            );
        }
    }
    assert!(
        squeezed > 0 && refused_placed > 0,
        "{squeezed} squeezed, {refused} refused ({refused_placed} of placed cells)"
    );
}

/// Random edits, among them whole-row rewrites of the row's own cells,
/// unplaced cells and cells taken from other rows; after each one every
/// row must be `==` to a cell-by-cell build.
#[test]
fn row_index_tracks_rewritten_rows() {
    let netlist = build_benchmark(&BenchmarkConfig::small()).unwrap();
    let mut rng = Rng(71);
    let floorplan = Floorplan::new(netlist.library(), 90.0, 8);
    let mut placement = Placement::new(&netlist, &floorplan);
    let n_cells = netlist.cell_count() as u64;
    for step in 0..200 {
        let row = rng.below(floorplan.num_rows() as u64) as u32;
        match rng.below(4) {
            0 => scatter(&netlist, &floorplan, &mut placement, &mut rng, 30),
            1 => {
                for _ in 0..4 {
                    placement.remove(CellId::new(rng.below(n_cells) as usize));
                }
            }
            _ => {
                // Keep a random subset of the row, add cells from anywhere,
                // and pack them left to right with random gaps.
                let mut cells: Vec<CellId> = placement
                    .row_cells(row)
                    .iter()
                    .map(|&(_, cell, _)| cell)
                    .filter(|_| rng.below(4) != 0)
                    .collect();
                for _ in 0..rng.below(6) {
                    let cell = CellId::new(rng.below(n_cells) as usize);
                    if !cells.contains(&cell) {
                        cells.push(cell);
                    }
                }
                let sites = floorplan.row(row as usize).num_sites;
                let mut site = 0;
                let mut run = Vec::new();
                for cell in cells {
                    let at = site + rng.below(4) as u32;
                    let width = netlist.cell_width_sites(cell);
                    if at + width > sites {
                        break;
                    }
                    run.push((cell, at));
                    site = at + width;
                }
                let left_out: Vec<CellId> = placement
                    .row_cells(row)
                    .iter()
                    .map(|&(_, cell, _)| cell)
                    .filter(|cell| !run.iter().any(|(c, _)| c == cell))
                    .collect();
                placement.rewrite_row(&netlist, &floorplan, row, &run);
                for (cell, site) in run {
                    let slot = placement.location(cell).expect("placed");
                    assert_eq!((slot.row, slot.site), (row, site), "step {step}");
                }
                for cell in left_out {
                    assert_eq!(placement.location(cell), None, "step {step}");
                }
            }
        }
        assert!(
            placement == placed_cell_by_cell(&netlist, &floorplan, &placement),
            "step {step}: row {row}"
        );
    }
}

/// Evicting every cell that touches a band of wrap-like regions through
/// [`OutsideSlots::removed`] gives the same answers and the same search
/// counters as re-reading each row whole: its bounds skip the same rows.
#[test]
fn removal_refresh_matches_a_whole_row_reread() {
    let netlist = build_benchmark(&BenchmarkConfig::small()).unwrap();
    let mut rng = Rng(89);
    let mut evictions = 0;
    for _ in 0..20 {
        let rows = 4 + rng.below(10) as usize;
        let floorplan = Floorplan::new(netlist.library(), 15.0 + rng.unit() * 80.0, rows);
        let mut placement = Placement::new(&netlist, &floorplan);
        let tries = 12 * rows * (1 + rng.below(4) as usize);
        scatter(&netlist, &floorplan, &mut placement, &mut rng, tries);
        let core = floorplan.core();
        let regions: Vec<Rect> = (0..1 + rng.below(3))
            .map(|_| {
                let (x, y) = (rng.unit() * core.width(), rng.unit() * core.height());
                let (w, h) = (
                    rng.unit() * core.width() / 3.0,
                    rng.unit() * core.height() / 2.0,
                );
                Rect::new(x, y, (x + w).min(core.urx), (y + h).min(core.ury))
            })
            .collect();
        let touching: Vec<CellId> = placement
            .iter()
            .map(|(cell, _)| cell)
            .filter(|&cell| {
                placement
                    .cell_rect(&netlist, &floorplan, cell)
                    .is_some_and(|rect| regions.iter().any(|g| g.intersects(&rect)))
            })
            .collect();
        let mut local = OutsideSlots::new(&floorplan, &placement, &regions);
        let mut whole = local.clone();
        for cell in touching {
            let slot = placement.location(cell).expect("placed");
            let rect = placement
                .cell_rect(&netlist, &floorplan, cell)
                .expect("placed");
            placement.remove(cell);
            if !regions.iter().any(|g| g.contains_rect(&rect)) {
                local.removed(&placement, slot, netlist.cell_width_sites(cell));
                whole.refresh_row(&placement, slot.row);
            }
            let origin = rect.center();
            let got = local.nearest(&netlist, &placement, cell, origin);
            assert_eq!(got, whole.nearest(&netlist, &placement, cell, origin));
            if let Some((row, site)) = got {
                placement.place(&netlist, &floorplan, cell, row, site);
            }
            evictions += 1;
        }
        assert_eq!(local.stats(), whole.stats());
    }
    assert!(evictions > 100, "{evictions} evictions");
}
