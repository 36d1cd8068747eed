//! Unit-region assignment: a slicing floorplan of the core.
//!
//! The paper's benchmark is "composed of nine arithmetic units of various
//! sizes" placed as blocks; workloads then light up individual blocks to
//! form hotspots. We reproduce that structure by slicing the core into one
//! rectangular region per unit: units are balanced into columns by area,
//! and each column is sliced vertically in proportion to its units' areas.

use geom::Rect;
use netlist::Netlist;

/// Assigns one core region per unit, in unit-id order.
///
/// Regions tile the core exactly: column widths are proportional to the
/// summed cell area of the units in each column, and each unit's height
/// share is proportional to its cell area within the column.
///
/// # Panics
///
/// Panics if the netlist has no units or a unit has zero cell area.
pub fn assign_unit_regions(netlist: &Netlist, core: Rect) -> Vec<Rect> {
    let areas: Vec<f64> = netlist
        .units()
        .map(|(id, unit)| {
            let area = netlist.unit_cell_area_um2(id);
            assert!(area > 0.0, "unit {} has no cells", unit.name());
            area
        })
        .collect();
    let n = areas.len();
    assert!(n > 0, "netlist has no units");
    // Balance units into up to 3 columns by greedy largest-first.
    let ncols = n.min(3);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| areas[b].total_cmp(&areas[a]));
    let mut columns: Vec<Vec<usize>> = vec![Vec::new(); ncols];
    let mut col_area = vec![0.0f64; ncols];
    for u in order {
        // The first of the lightest columns.
        let lightest = (1..ncols).fold(0, |best, c| {
            if col_area[c].total_cmp(&col_area[best]).is_lt() {
                c
            } else {
                best
            }
        });
        columns[lightest].push(u);
        col_area[lightest] += areas[u];
    }
    // Keep unit order stable within a column (deterministic layout).
    for c in &mut columns {
        c.sort_unstable();
    }
    let total_area: f64 = col_area.iter().sum();
    let mut regions = vec![Rect::default(); n];
    let mut x = core.llx;
    for (ci, col) in columns.iter().enumerate() {
        let w = core.width() * col_area[ci] / total_area;
        let mut y = core.lly;
        for &u in col {
            let h = core.height() * areas[u] / col_area[ci];
            regions[u] = Rect::new(x, y, x + w, y + h);
            y += h;
        }
        // Snap the last region in the column to the core edge.
        if let Some(&last) = col.last() {
            regions[last].ury = core.ury;
        }
        x += w;
    }
    // Snap the right edge of the last column.
    for col in columns.iter().rev().take(1) {
        for &u in col {
            regions[u].urx = core.urx;
        }
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;
    use arithgen::{build_benchmark, BenchmarkConfig};

    #[test]
    fn regions_tile_the_core() {
        let nl = build_benchmark(&BenchmarkConfig::small()).unwrap();
        let core = Rect::new(0.0, 0.0, 300.0, 300.0);
        let regions = assign_unit_regions(&nl, core);
        assert_eq!(regions.len(), 9);
        let total: f64 = regions.iter().map(Rect::area).sum();
        assert!(
            (total - core.area()).abs() < core.area() * 1e-9,
            "regions must tile the core: {total} vs {}",
            core.area()
        );
        for (i, a) in regions.iter().enumerate() {
            assert!(core.contains_rect(a), "region {i} leaves the core");
            for (j, b) in regions.iter().enumerate().skip(i + 1) {
                assert!(!a.intersects(b), "regions {i} and {j} overlap");
            }
        }
    }

    #[test]
    fn region_area_tracks_unit_area() {
        let nl = build_benchmark(&BenchmarkConfig::small()).unwrap();
        let core = Rect::new(0.0, 0.0, 300.0, 300.0);
        let regions = assign_unit_regions(&nl, core);
        let stats = netlist::NetlistStats::of(&nl);
        let total_cells: f64 = stats.units.iter().map(|u| u.cell_area_um2).sum();
        for u in &stats.units {
            let share = u.cell_area_um2 / total_cells;
            let got = regions[u.unit.index()].area() / core.area();
            // Slicing guarantees proportionality within column granularity.
            assert!(
                (got - share).abs() < 0.08,
                "{}: region share {got:.3} vs area share {share:.3}",
                u.name
            );
        }
    }
}
