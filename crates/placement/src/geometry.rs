//! The geometry of one placement: where each cell sits, computed in one
//! pass, and how long each net is, measured on first read. Timing,
//! wirelength, power and the flow's per-cell temperatures all read it
//! instead of recomputing cell positions per use.

use std::sync::OnceLock;

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
/// as it was when built. The footprints are computed in
/// [`PlacedGeometry::new`]; the wirelengths on the first read of
/// [`PlacedGeometry::net_hpwls`], so a geometry that only feeds a power
/// map never measures a net.
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
///     geometry.total_hpwl(&nl),
///     total_hpwl(&nl, &placed.floorplan, &placed.placement)
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PlacedGeometry {
    core: Rect,
    rects: Vec<Option<Rect>>,
    hpwl: OnceLock<Vec<f64>>,
}

/// Two geometries are equal when their outlines and footprints are: the
/// wirelengths follow from those, measured or not.
impl PartialEq for PlacedGeometry {
    fn eq(&self, other: &Self) -> bool {
        self.core == other.core && self.rects == other.rects
    }
}

impl PlacedGeometry {
    /// Computes every cell's footprint.
    pub fn new(netlist: &Netlist, floorplan: &Floorplan, placement: &Placement) -> Self {
        let rects: Vec<Option<Rect>> = netlist
            .cells()
            .map(|(id, _)| placement.cell_rect(netlist, floorplan, id))
            .collect();
        PlacedGeometry {
            core: floorplan.core(),
            rects,
            hpwl: OnceLock::new(),
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

    /// Whether every cell of the netlist is placed.
    pub fn is_fully_placed(&self) -> bool {
        self.rects.iter().all(Option::is_some)
    }

    /// Each net's half-perimeter wirelength (µm), indexed by
    /// [`NetId::index`]: zero when fewer than two of its endpoints are
    /// placed. Measured from the cell centers of each net's
    /// [`Netlist::net_endpoints`] on the first call, then read back.
    ///
    /// # Panics
    ///
    /// Panics if `netlist` is not the one the geometry was built from.
    pub fn net_hpwls(&self, netlist: &Netlist) -> &[f64] {
        self.hpwl.get_or_init(|| {
            let center = |cell: CellId| self.cell_center(cell);
            netlist
                .nets()
                .map(|(id, _)| bbox_hpwl(placed_bbox(netlist.net_endpoints(id), center)))
                .collect()
        })
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
    ///
    /// # Panics
    ///
    /// As [`PlacedGeometry::net_hpwls`].
    pub fn total_hpwl(&self, netlist: &Netlist) -> f64 {
        self.net_hpwls(netlist).iter().copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{net_hpwl, total_hpwl};
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
        assert!(!geometry.is_fully_placed());
        let unmeasured = geometry.clone();
        // n0: both endpoints placed. n1: its sink is unplaced. n2: no
        // sink, and its driver is unplaced. a: port-driven, one sink.
        let hpwl = geometry.net_hpwls(&nl);
        assert!(hpwl[n0.index()] > 0.0);
        for net in [a, n1, n2] {
            assert_eq!(hpwl[net.index()], 0.0, "{net:?}");
            assert_eq!(geometry.net_bbox(&nl, net), None, "{net:?}");
        }
        assert_eq!(hpwl.len(), nl.net_count());
        for (id, _) in nl.nets() {
            assert_eq!(
                hpwl[id.index()].to_bits(),
                net_hpwl(&nl, &fp, &p, id).to_bits()
            );
        }
        assert_eq!(geometry.cell_center(CellId::new(2)), None);
        assert_eq!(
            geometry.cell_center(CellId::new(1)),
            p.cell_center(&nl, &fp, CellId::new(1))
        );
        assert_eq!(geometry.total_hpwl(&nl), hpwl[n0.index()]);
        assert_eq!(
            geometry.total_hpwl(&nl).to_bits(),
            total_hpwl(&nl, &fp, &p).to_bits()
        );
        // Measuring is a read: a measured geometry equals an unmeasured
        // copy, and a second read returns the first one's values.
        assert_eq!(geometry, unmeasured);
        assert!(std::ptr::eq(geometry.net_hpwls(&nl), hpwl));
        assert_eq!(
            unmeasured.total_hpwl(&nl).to_bits(),
            geometry.total_hpwl(&nl).to_bits()
        );
    }
}
