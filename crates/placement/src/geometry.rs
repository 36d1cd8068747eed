//! The geometry of one placement, computed in a single pass: where each
//! cell sits and how long each net is. Timing, wirelength, power and the
//! flow's per-cell temperatures all read it instead of recomputing cell
//! positions per use.

use geom::{Point, Rect};
use netlist::{CellId, NetId, Netlist};

use crate::hpwl::{bbox_hpwl, placed_bbox};
use crate::{Floorplan, Placement};

/// Each cell's footprint and each net's half-perimeter wirelength on one
/// placement.
///
/// The values are exactly those of [`Placement::cell_rect`],
/// [`Placement::cell_center`] and [`crate::net_hpwl`]; the geometry only
/// computes them once. It owns its values, so it describes the placement
/// as it was when built.
///
/// # Examples
///
/// ```
/// use arithgen::{build_benchmark, BenchmarkConfig};
/// use placement::{total_hpwl, PlacedGeometry, Placer, PlacerConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let nl = build_benchmark(&BenchmarkConfig::small())?;
/// let placed = Placer::new(PlacerConfig::default()).place(&nl)?;
/// let geometry = PlacedGeometry::new(&nl, &placed.floorplan, &placed.placement);
/// assert_eq!(
///     geometry.total_hpwl(),
///     total_hpwl(&nl, &placed.floorplan, &placed.placement)
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedGeometry {
    core: Rect,
    rects: Vec<Option<Rect>>,
    hpwl: Vec<f64>,
}

impl PlacedGeometry {
    /// Computes every cell's footprint, then every net's HPWL from the
    /// cell centers of the net's [`Netlist::net_endpoints`].
    pub fn new(netlist: &Netlist, floorplan: &Floorplan, placement: &Placement) -> Self {
        let rects: Vec<Option<Rect>> = netlist
            .cells()
            .map(|(id, _)| placement.cell_rect(netlist, floorplan, id))
            .collect();
        let center = |cell: CellId| rects[cell.index()].map(|r| r.center());
        let hpwl = netlist
            .nets()
            .map(|(id, _)| bbox_hpwl(placed_bbox(netlist.net_endpoints(id), center)))
            .collect();
        PlacedGeometry {
            core: floorplan.core(),
            rects,
            hpwl,
        }
    }

    /// The core outline of the floorplan.
    pub fn core(&self) -> Rect {
        self.core
    }

    /// The footprint of `cell`, if placed.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn cell_rect(&self, cell: CellId) -> Option<Rect> {
        self.rects[cell.index()]
    }

    /// The center point of `cell`, if placed.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn cell_center(&self, cell: CellId) -> Option<Point> {
        self.rects[cell.index()].map(|r| r.center())
    }

    /// Half-perimeter wirelength of `net` (µm); zero when fewer than two
    /// of its endpoints are placed.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn net_hpwl(&self, net: NetId) -> f64 {
        self.hpwl[net.index()]
    }

    /// The bounding box of `net`'s placed endpoints, or `None` when fewer
    /// than two are placed.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range of `netlist`, or `netlist` is not
    /// the one the geometry was built from.
    pub(crate) fn net_bbox(&self, netlist: &Netlist, net: NetId) -> Option<Rect> {
        placed_bbox(netlist.net_endpoints(net), |cell| self.cell_center(cell))
    }

    /// Total half-perimeter wirelength over all nets (µm), summed in net
    /// order.
    pub fn total_hpwl(&self) -> f64 {
        self.hpwl.iter().copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net_hpwl;
    use netlist::NetlistBuilder;
    use stdcell::{CellFunction, Drive, Library};

    /// `a → INV → n0 → INV → n1 → INV → n2`, with only the first two
    /// inverters placed.
    fn chain_with_an_unplaced_tail() -> (Netlist, Floorplan, Placement, [NetId; 4]) {
        let mut b = NetlistBuilder::new("t", Library::c65());
        let u = b.add_unit("u");
        let a = b.input_port("a", u);
        let n0 = b.net("n0");
        let n1 = b.net("n1");
        let n2 = b.net("n2");
        for (input, output) in [(a, n0), (n0, n1), (n1, n2)] {
            b.cell(u, CellFunction::Inv, Drive::X1, &[input], &[output])
                .unwrap();
        }
        let nl = b.finish().unwrap();
        let fp = Floorplan::new(nl.library(), 30.0, 2);
        let mut p = Placement::new(&nl, &fp);
        p.place(&nl, &fp, CellId::new(0), 0, 0);
        p.place(&nl, &fp, CellId::new(1), 1, 10);
        (nl, fp, p, [a, n0, n1, n2])
    }

    #[test]
    fn nets_with_fewer_than_two_placed_endpoints_have_no_length() {
        let (nl, fp, p, [a, n0, n1, n2]) = chain_with_an_unplaced_tail();
        let geometry = PlacedGeometry::new(&nl, &fp, &p);
        // n0: both endpoints placed. n1: its sink is unplaced. n2: no
        // sink, and its driver is unplaced. a: port-driven, one sink.
        assert!(geometry.net_hpwl(n0) > 0.0);
        for net in [a, n1, n2] {
            assert_eq!(geometry.net_hpwl(net), 0.0, "{net:?}");
            assert_eq!(geometry.net_bbox(&nl, net), None, "{net:?}");
        }
        for (id, _) in nl.nets() {
            assert_eq!(
                geometry.net_hpwl(id).to_bits(),
                net_hpwl(&nl, &fp, &p, id).to_bits()
            );
        }
        assert_eq!(geometry.cell_center(CellId::new(2)), None);
        assert_eq!(
            geometry.cell_center(CellId::new(1)),
            p.cell_center(&nl, &fp, CellId::new(1))
        );
        assert_eq!(geometry.total_hpwl(), geometry.net_hpwl(n0));
    }
}
