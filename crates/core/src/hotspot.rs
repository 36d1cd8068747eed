//! Thermal-map hotspot detection and classification.
//!
//! Working post-placement, the flow knows both the functional information
//! (switching activity → power) and the physical information (cell
//! positions), "so as to exactly localize the thermal hotspots": we
//! threshold the thermal map and extract connected components.

use geom::{Grid2d, Rect};
use serde::{Deserialize, Serialize};
use thermalsim::ThermalMap;

/// Hotspot-detection parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HotspotConfig {
    /// Threshold position between mean and peak rise: a bin is hot when
    /// `T > mean + threshold_fraction · (peak − mean)`. 0 marks every
    /// above-average bin, 1 only the peak.
    pub threshold_fraction: f64,
    /// Components with fewer bins are ignored (noise).
    pub min_bins: usize,
}

impl Default for HotspotConfig {
    fn default() -> Self {
        HotspotConfig {
            threshold_fraction: 0.5,
            min_bins: 2,
        }
    }
}

impl HotspotConfig {
    /// Lateral cell count (`nx · ny`) the bin-count thresholds are tuned
    /// at — a 20×20 mesh, the coarse end of the paper's configurations.
    pub const REFERENCE_MESH_CELLS: usize = 400;

    /// Makes the bin-count threshold resolution-aware: `min_bins` names a
    /// *die-area* floor at the reference mesh, so on finer meshes (more
    /// cells per unit area) it scales up by cells-per-reference-cell.
    /// Without this, a fixed `min_bins` lets single-bin detection noise
    /// through on fine meshes — slivers whose wrap regions are too thin
    /// to absorb their hot cells (the ≥ 28×28 wrapper failure). Coarser
    /// meshes keep the configured value unchanged.
    ///
    /// # Examples
    ///
    /// ```
    /// use postplace::HotspotConfig;
    ///
    /// let config = HotspotConfig::default(); // min_bins = 2 at 20×20
    /// assert_eq!(config.scaled_for_mesh(16, 16).min_bins, 2);
    /// assert_eq!(config.scaled_for_mesh(28, 28).min_bins, 4);
    /// assert_eq!(config.scaled_for_mesh(40, 40).min_bins, 8);
    /// ```
    pub fn scaled_for_mesh(&self, nx: usize, ny: usize) -> HotspotConfig {
        let scale = (nx * ny) as f64 / Self::REFERENCE_MESH_CELLS as f64;
        HotspotConfig {
            min_bins: ((self.min_bins as f64 * scale).ceil() as usize).max(self.min_bins),
            ..*self
        }
    }
}

/// One detected hotspot: a connected set of hot thermal bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Hotspot {
    /// The `(ix, iy)` bins belonging to the component (`u32`, as every
    /// answer the service keeps holds them).
    pub bins: Vec<(u32, u32)>,
    /// Bounding box in die coordinates.
    pub bbox: Rect,
    /// Peak absolute temperature inside the component, °C.
    pub peak_c: f64,
    /// Component area in µm².
    pub area_um2: f64,
}

/// Hotspot-pattern classification, deciding which technique fits
/// (the paper: ERI "is particularly useful" for wide/large hotspots, the
/// wrapper "for small concentrated hotspots").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HotspotClass {
    /// Several small hotspots spread over the die (the paper's test 1).
    ScatteredSmall,
    /// One large concentrated hotspot (the paper's test 2).
    ConcentratedLarge,
    /// No significant thermal structure.
    Uniform,
}

/// Detects hotspots by thresholding and 4-connected component labelling.
/// Components are returned hottest first.
pub fn detect_hotspots(map: &ThermalMap, config: &HotspotConfig) -> Vec<Hotspot> {
    let grid = map.grid();
    let (nx, ny) = (grid.nx(), grid.ny());
    let peak = map.peak_bin().1;
    let mean = grid.mean();
    if peak - mean < 1e-9 {
        return Vec::new(); // numerically flat map
    }
    let threshold = mean + config.threshold_fraction * (peak - mean);
    let hot = |ix: usize, iy: usize| *grid.get(ix, iy) > threshold;
    let mut visited = vec![false; nx * ny];
    let mut hotspots = Vec::new();
    for sy in 0..ny {
        for sx in 0..nx {
            if visited[sy * nx + sx] || !hot(sx, sy) {
                continue;
            }
            // Flood fill.
            let mut bins = Vec::new();
            let mut stack = vec![(sx, sy)];
            visited[sy * nx + sx] = true;
            while let Some((x, y)) = stack.pop() {
                bins.push((x as u32, y as u32));
                let mut push = |x: usize, y: usize, stack: &mut Vec<(usize, usize)>| {
                    if !visited[y * nx + x] && hot(x, y) {
                        visited[y * nx + x] = true;
                        stack.push((x, y));
                    }
                };
                if x > 0 {
                    push(x - 1, y, &mut stack);
                }
                if x + 1 < nx {
                    push(x + 1, y, &mut stack);
                }
                if y > 0 {
                    push(x, y - 1, &mut stack);
                }
                if y + 1 < ny {
                    push(x, y + 1, &mut stack);
                }
            }
            if bins.len() < config.min_bins {
                continue;
            }
            let (bbox, peak_c) = extent(grid, &bins);
            let bin_area = grid.bin_width() * grid.bin_height();
            // The flow's baseline hotspots live as long as any report of
            // the flow, so they hold no spare capacity.
            bins.shrink_to_fit();
            hotspots.push(Hotspot {
                area_um2: bins.len() as f64 * bin_area,
                bins,
                bbox,
                peak_c,
            });
        }
    }
    hotspots.sort_by(|a, b| b.peak_c.total_cmp(&a.peak_c));
    hotspots
}

/// The bounding box of a non-empty set of bins and their peak value.
fn extent(grid: &Grid2d<f64>, bins: &[(u32, u32)]) -> (Rect, f64) {
    let rect = |&(x, y): &(u32, u32)| grid.bin_rect(x as usize, y as usize);
    let mut bbox = rect(&bins[0]);
    let mut peak_c = f64::MIN;
    for bin in bins {
        bbox = bbox.union(&rect(bin));
        peak_c = peak_c.max(*grid.get(bin.0 as usize, bin.1 as usize));
    }
    (bbox, peak_c)
}

/// Splits hotspots along placement-region boundaries.
///
/// Workload-driven hotspots frequently merge into one connected thermal
/// blob spanning several units (heat diffuses across region borders).
/// The paper's wrapper is applied per hotspot *source* — "cells belonging
/// to other units \[are\] placed outside the specified region" — so each
/// blob is intersected with the unit regions and split into one hotspot
/// per overlapped region. Pieces smaller than `min_bins` are dropped.
pub fn split_hotspots_by_regions(
    map: &ThermalMap,
    hotspots: &[Hotspot],
    regions: &[Rect],
    min_bins: usize,
) -> Vec<Hotspot> {
    let grid = map.grid();
    let bin_area = grid.bin_width() * grid.bin_height();
    let mut out = Vec::new();
    for h in hotspots {
        for region in regions {
            let bins: Vec<(u32, u32)> = h
                .bins
                .iter()
                .copied()
                .filter(|&(x, y)| region.contains(grid.bin_rect(x as usize, y as usize).center()))
                .collect();
            if bins.len() < min_bins {
                continue;
            }
            let (bbox, peak_c) = extent(grid, &bins);
            out.push(Hotspot {
                area_um2: bins.len() as f64 * bin_area,
                bins,
                bbox,
                peak_c,
            });
        }
    }
    out.sort_by(|a, b| b.peak_c.total_cmp(&a.peak_c));
    out
}

/// Classifies a hotspot pattern.
///
/// A single component covering a large share of the total hot area (or a
/// sizeable die fraction) is *concentrated*; several comparable components
/// are *scattered*; nothing significant is *uniform*.
pub fn classify_hotspots(hotspots: &[Hotspot], die: Rect) -> HotspotClass {
    if hotspots.is_empty() {
        return HotspotClass::Uniform;
    }
    let total: f64 = hotspots.iter().map(|h| h.area_um2).sum();
    let largest = hotspots.iter().map(|h| h.area_um2).fold(f64::MIN, f64::max);
    let die_fraction = largest / die.area();
    if largest / total > 0.7 || die_fraction > 0.15 {
        HotspotClass::ConcentratedLarge
    } else {
        HotspotClass::ScatteredSmall
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::Grid2d;

    fn map_from(fill: f64, spots: &[(usize, usize, f64)]) -> ThermalMap {
        let mut g = Grid2d::new(16, 16, Rect::new(0.0, 0.0, 160.0, 160.0), fill);
        for &(x, y, t) in spots {
            *g.get_mut(x, y) = t;
        }
        ThermalMap::new(g, 25.0)
    }

    #[test]
    fn flat_map_has_no_hotspots() {
        let map = map_from(30.0, &[]);
        assert!(detect_hotspots(&map, &HotspotConfig::default()).is_empty());
        assert_eq!(classify_hotspots(&[], map.die()), HotspotClass::Uniform);
    }

    #[test]
    fn single_blob_is_one_component() {
        let map = map_from(
            30.0,
            &[(4, 4, 40.0), (5, 4, 41.0), (4, 5, 40.5), (5, 5, 42.0)],
        );
        let spots = detect_hotspots(&map, &HotspotConfig::default());
        assert_eq!(spots.len(), 1);
        assert_eq!(spots[0].bins.len(), 4);
        assert_eq!(spots[0].peak_c, 42.0);
        // Bbox covers bins (4..6, 4..6) → 20 µm × 20 µm.
        assert!((spots[0].bbox.width() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn distant_blobs_are_separate_components() {
        let map = map_from(
            30.0,
            &[(2, 2, 40.0), (3, 2, 40.0), (12, 12, 39.0), (12, 13, 39.5)],
        );
        let spots = detect_hotspots(&map, &HotspotConfig::default());
        assert_eq!(spots.len(), 2);
        // Sorted hottest first.
        assert!(spots[0].peak_c >= spots[1].peak_c);
    }

    #[test]
    fn diagonal_adjacency_does_not_connect() {
        let map = map_from(30.0, &[(4, 4, 40.0), (5, 5, 40.0)]);
        let cfg = HotspotConfig {
            min_bins: 1,
            ..Default::default()
        };
        assert_eq!(detect_hotspots(&map, &cfg).len(), 2);
    }

    #[test]
    fn threshold_fraction_controls_sensitivity() {
        let map = map_from(30.0, &[(4, 4, 40.0), (8, 8, 34.0), (8, 9, 34.0)]);
        let strict = HotspotConfig {
            threshold_fraction: 0.9,
            min_bins: 1,
        };
        let lax = HotspotConfig {
            threshold_fraction: 0.3,
            min_bins: 1,
        };
        assert!(detect_hotspots(&map, &strict).len() < detect_hotspots(&map, &lax).len());
    }

    #[test]
    fn classification_separates_paper_test_sets() {
        let die = Rect::new(0.0, 0.0, 160.0, 160.0);
        // Four small scattered blobs.
        let scattered: Vec<Hotspot> = (0..4)
            .map(|i| Hotspot {
                bins: vec![(i, i)],
                bbox: Rect::new(0.0, 0.0, 10.0, 10.0),
                peak_c: 40.0,
                area_um2: 400.0,
            })
            .collect();
        assert_eq!(
            classify_hotspots(&scattered, die),
            HotspotClass::ScatteredSmall
        );
        // One big blob.
        let big = vec![Hotspot {
            bins: vec![(0, 0)],
            bbox: Rect::new(0.0, 0.0, 80.0, 80.0),
            peak_c: 45.0,
            area_um2: 6400.0,
        }];
        assert_eq!(
            classify_hotspots(&big, die),
            HotspotClass::ConcentratedLarge
        );
    }
}
