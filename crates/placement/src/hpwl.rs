//! Half-perimeter wirelength, the placer's quality metric and the wire
//! model feeding the timing analyzer.

use geom::{Point, Rect};
use netlist::{CellId, NetId, Netlist};

use crate::{Floorplan, PlacedGeometry, Placement};

/// The bounding box of a net's placed endpoints (pins are approximated by
/// their cell centers; port-driven endpoints are skipped), or `None` when
/// fewer than two endpoints are placed — the one wirelength kernel behind
/// [`net_hpwl`] and [`PlacedGeometry`]. `endpoints` are the net's
/// [`Netlist::net_endpoints`].
pub(crate) fn placed_bbox(
    endpoints: &[CellId],
    center: impl Fn(CellId) -> Option<Point>,
) -> Option<Rect> {
    // Min/max are exact, so folding coordinates one at a time gives the
    // same box as uniting point rectangles.
    let (mut llx, mut lly) = (f64::INFINITY, f64::INFINITY);
    let (mut urx, mut ury) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    let mut placed = 0;
    for c in endpoints.iter().filter_map(|&cell| center(cell)) {
        llx = llx.min(c.x);
        lly = lly.min(c.y);
        urx = urx.max(c.x);
        ury = ury.max(c.y);
        placed += 1;
    }
    (placed >= 2).then(|| Rect::new(llx, lly, urx, ury))
}

/// The half-perimeter of a [`placed_bbox`]; zero without one.
pub(crate) fn bbox_hpwl(bbox: Option<Rect>) -> f64 {
    bbox.map_or(0.0, |b| b.width() + b.height())
}

/// Half-perimeter wirelength of one net (µm): the half-perimeter of the
/// bounding box of its placed pins (pins are approximated by their cell
/// centers; port-driven endpoints are skipped). Nets with fewer than two
/// placed endpoints have zero length.
///
/// # Panics
///
/// Panics if `net` is out of range.
pub fn net_hpwl(
    netlist: &Netlist,
    floorplan: &Floorplan,
    placement: &Placement,
    net: NetId,
) -> f64 {
    bbox_hpwl(placed_bbox(netlist.net_endpoints(net), |cell| {
        placement.cell_center(netlist, floorplan, cell)
    }))
}

/// Total half-perimeter wirelength over all nets (µm); see
/// [`PlacedGeometry::total_hpwl`].
pub fn total_hpwl(netlist: &Netlist, floorplan: &Floorplan, placement: &Placement) -> f64 {
    PlacedGeometry::new(netlist, floorplan, placement).total_hpwl()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Placer, PlacerConfig};
    use arithgen::{build_benchmark, BenchmarkConfig};
    use netlist::{CellId, NetlistBuilder};
    use stdcell::{CellFunction, Drive, Library};

    #[test]
    fn two_pin_net_hpwl_is_manhattan_distance_of_centers() {
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
        let fp = Floorplan::new(nl.library(), 30.0, 2);
        let mut p = Placement::new(&nl, &fp);
        p.place(&nl, &fp, CellId::new(0), 0, 0);
        p.place(&nl, &fp, CellId::new(1), 1, 10);
        let mid = nl.nets().find(|(_, n)| n.name() == "n0").unwrap().0;
        let c0 = p.cell_center(&nl, &fp, CellId::new(0)).unwrap();
        let c1 = p.cell_center(&nl, &fp, CellId::new(1)).unwrap();
        assert!((net_hpwl(&nl, &fp, &p, mid) - c0.manhattan_to(c1)).abs() < 1e-9);
    }

    #[test]
    fn region_placement_keeps_wirelength_local() {
        // The region-ordered placer should beat a deliberately scrambled
        // placement by a wide margin on total HPWL.
        let nl = build_benchmark(&BenchmarkConfig::small()).unwrap();
        let good = Placer::new(PlacerConfig::default()).place(&nl).unwrap();
        let good_hpwl = total_hpwl(&nl, &good.floorplan, &good.placement);

        // Scrambled: place cells round-robin across rows, ignoring units.
        let fp = good.floorplan.clone();
        let mut bad = Placement::new(&nl, &fp);
        let mut cursors: Vec<u32> = vec![0; fp.num_rows()];
        for (i, (id, cell)) in nl.cells().enumerate() {
            let w = nl.library().cell(cell.master()).width_sites();
            let mut row = i % fp.num_rows();
            while cursors[row] + w > fp.row(row).num_sites {
                row = (row + 1) % fp.num_rows();
            }
            bad.place(&nl, &fp, id, row as u32, cursors[row]);
            cursors[row] += w;
        }
        let bad_hpwl = total_hpwl(&nl, &fp, &bad);
        assert!(
            good_hpwl * 2.0 < bad_hpwl,
            "good {good_hpwl:.0} vs scrambled {bad_hpwl:.0}"
        );
    }
}
