use geom::{Grid2d, Rect};
use netlist::{CellId, Netlist};
use placement::{Floorplan, PlacedGeometry, Placement};

use crate::PowerReport;

/// Aggregates per-cell power onto an `nx`×`ny` grid over the core — the
/// paper's standard-cell → thermal-cell power mapping, with area-weighted
/// splitting for cells that straddle bins.
///
/// The returned grid is in watts per bin and sums to the placed cells'
/// total power.
///
/// # Panics
///
/// Panics if the report does not cover the netlist.
pub fn power_map(
    netlist: &Netlist,
    floorplan: &Floorplan,
    placement: &Placement,
    report: &PowerReport,
    nx: usize,
    ny: usize,
) -> Grid2d<f64> {
    splat_cells(netlist, floorplan.core(), report, nx, ny, |cell| {
        placement.cell_rect(netlist, floorplan, cell)
    })
}

/// [`power_map`] over the cell footprints of a placement's geometry.
///
/// # Panics
///
/// Panics if the report does not cover the netlist.
pub fn power_map_placed(
    netlist: &Netlist,
    geometry: &PlacedGeometry,
    report: &PowerReport,
    nx: usize,
    ny: usize,
) -> Grid2d<f64> {
    splat_cells(netlist, geometry.core(), report, nx, ny, |cell| {
        geometry.cell_rect(cell)
    })
}

/// Splats each placed cell's watts over its footprint on an `nx`×`ny`
/// grid over `core`.
fn splat_cells(
    netlist: &Netlist,
    core: Rect,
    report: &PowerReport,
    nx: usize,
    ny: usize,
    rect: impl Fn(CellId) -> Option<Rect>,
) -> Grid2d<f64> {
    assert_eq!(report.cell_count(), netlist.cell_count());
    let mut grid = Grid2d::new(nx, ny, core, 0.0);
    for (id, _) in netlist.cells() {
        if let Some(rect) = rect(id) {
            grid.splat(&rect, report.cell_w(id));
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{estimate_power, PowerConfig};
    use arithgen::{build_benchmark, BenchmarkConfig, UnitRole};
    use logicsim::{Simulator, Workload};
    use placement::{Placer, PlacerConfig};

    #[test]
    fn power_map_conserves_total_power() {
        let nl = build_benchmark(&BenchmarkConfig::small()).unwrap();
        let placed = Placer::new(PlacerConfig::default()).place(&nl).unwrap();
        let w = Workload::uniform(&nl, 0.4);
        let mut sim = Simulator::new(&nl);
        sim.run_workload(&w, 100, 2);
        let report = estimate_power(
            &nl,
            &sim.activity(),
            Some((&placed.floorplan, &placed.placement)),
            None,
            &PowerConfig::default(),
        );
        let map = power_map(&nl, &placed.floorplan, &placed.placement, &report, 20, 20);
        let geometry = PlacedGeometry::new(&nl, &placed.floorplan, &placed.placement);
        assert_eq!(map, power_map_placed(&nl, &geometry, &report, 20, 20));
        assert!(
            (map.sum() - report.total_w()).abs() < report.total_w() * 1e-9,
            "map {} vs report {}",
            map.sum(),
            report.total_w()
        );
    }

    #[test]
    fn active_unit_region_dominates_the_map() {
        let nl = build_benchmark(&BenchmarkConfig::small()).unwrap();
        let placed = Placer::new(PlacerConfig::default()).place(&nl).unwrap();
        let active = UnitRole::BoothMult.unit_id();
        let w = Workload::with_active_units(&nl, &[active], 0.5);
        let mut sim = Simulator::new(&nl);
        sim.run_workload(&w, 16, 3);
        sim.reset_activity();
        sim.run_workload(&w, 200, 4);
        let report = estimate_power(
            &nl,
            &sim.activity(),
            Some((&placed.floorplan, &placed.placement)),
            None,
            &PowerConfig::default(),
        );
        let map = power_map(&nl, &placed.floorplan, &placed.placement, &report, 20, 20);
        let ((px, py), _) = map.max_bin().unwrap();
        let peak_center = map.bin_rect(px, py).center();
        let region = placed.regions[active.index()];
        assert!(
            region
                .expand(placed.floorplan.row_height() * 2.0)
                .contains(peak_center),
            "power peak {peak_center} outside active region {region}"
        );
    }
}
