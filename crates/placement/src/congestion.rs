//! RUDY-style routing-demand estimation.
//!
//! The paper notes a by-product of empty-row insertion: "it increases the
//! distance between rows of cells, thus reducing routing congestion in
//! the hotspot regions". This estimator lets the benches quantify that
//! claim: each net spreads `hpwl / bbox_area` of wire demand uniformly
//! over its bounding box (Spindler & Johannes' RUDY).

use geom::{Grid2d, Rect};
use netlist::Netlist;

use crate::{Floorplan, PlacedGeometry, Placement};

/// Summary of a congestion map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CongestionStats {
    /// Peak bin demand (µm of wire per µm² of bin, dimensionless density).
    pub max: f64,
    /// Mean bin demand.
    pub mean: f64,
}

/// Computes the RUDY demand map at `nx`×`ny` over the core.
pub fn congestion_map(
    netlist: &Netlist,
    floorplan: &Floorplan,
    placement: &Placement,
    nx: usize,
    ny: usize,
) -> (Grid2d<f64>, CongestionStats) {
    let mut demand = Grid2d::new(nx, ny, floorplan.core(), 0.0);
    let geometry = PlacedGeometry::new(netlist, floorplan, placement);
    let hpwls = geometry.net_hpwls(netlist);
    for (id, _) in netlist.nets() {
        let hpwl = hpwls[id.index()];
        if hpwl <= 0.0 {
            continue;
        }
        // A positive wirelength implies placed endpoints.
        let Some(b) = geometry.net_bbox(netlist, id) else {
            continue;
        };
        let spread = Rect::new(b.llx, b.lly, b.urx.max(b.llx + 1.0), b.ury.max(b.lly + 1.0));
        demand.splat(&spread, hpwl);
    }
    // Normalize per bin area → wire density.
    let bin_area = demand.bin_width() * demand.bin_height();
    for v in demand.values_mut() {
        *v /= bin_area;
    }
    let max = demand.max_bin().map(|(_, v)| v).unwrap_or(0.0);
    let mean = demand.mean();
    (demand, CongestionStats { max, mean })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Placer, PlacerConfig};
    use arithgen::{build_benchmark, BenchmarkConfig};

    #[test]
    fn congestion_is_positive_and_peaks_above_mean() {
        let nl = build_benchmark(&BenchmarkConfig::small()).unwrap();
        let r = Placer::new(PlacerConfig::default()).place(&nl).unwrap();
        let (map, stats) = congestion_map(&nl, &r.floorplan, &r.placement, 16, 16);
        assert_eq!(map.nx(), 16);
        assert!(stats.max > 0.0);
        assert!(stats.max >= stats.mean);
    }

    #[test]
    fn spreading_cells_lowers_peak_congestion() {
        let nl = build_benchmark(&BenchmarkConfig::small()).unwrap();
        let dense = Placer::new(PlacerConfig::with_utilization(0.9))
            .place(&nl)
            .unwrap();
        let sparse = Placer::new(PlacerConfig::with_utilization(0.5))
            .place(&nl)
            .unwrap();
        let (_, d) = congestion_map(&nl, &dense.floorplan, &dense.placement, 16, 16);
        let (_, s) = congestion_map(&nl, &sparse.floorplan, &sparse.placement, 16, 16);
        assert!(s.max < d.max, "sparse {:.3} vs dense {:.3}", s.max, d.max);
    }
}
