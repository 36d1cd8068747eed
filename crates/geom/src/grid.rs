use serde::{Deserialize, Serialize};

use crate::{Rect, Um};

/// A dense 2-D grid of values laid over a rectangular die region.
///
/// The grid is the common currency between the power estimator (power-density
/// maps), the thermal simulator (temperature maps) and the hotspot detector.
/// Bin `(0, 0)` is the lower-left corner, following die coordinates.
///
/// # Examples
///
/// ```
/// use geom::{Grid2d, Rect};
///
/// let mut g = Grid2d::new(4, 4, Rect::new(0.0, 0.0, 40.0, 40.0), 0.0f64);
/// *g.get_mut(2, 3) = 7.5;
/// assert_eq!(g.get(2, 3), &7.5);
/// assert_eq!(g.bin_of(25.0, 35.0), Some((2, 3)));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid2d<T> {
    nx: usize,
    ny: usize,
    extent: Rect,
    data: Vec<T>,
}

impl<T: Clone> Grid2d<T> {
    /// Creates a grid of `nx`×`ny` bins covering `extent`, filled with `fill`.
    ///
    /// # Panics
    ///
    /// Panics if `nx` or `ny` is zero or the extent is degenerate.
    pub fn new(nx: usize, ny: usize, extent: Rect, fill: T) -> Self {
        assert!(nx > 0 && ny > 0, "grid must have at least one bin per axis");
        assert!(
            extent.width() > 0.0 && extent.height() > 0.0,
            "grid extent must have positive area"
        );
        Grid2d {
            nx,
            ny,
            extent,
            data: vec![fill; nx * ny],
        }
    }
}

impl<T> Grid2d<T> {
    /// Wraps `values`, in `iy·nx + ix` order, as a grid of `nx`×`ny`
    /// bins covering `extent`, without copying them.
    ///
    /// # Panics
    ///
    /// Panics if `nx` or `ny` is zero, the extent is degenerate or
    /// `values` does not hold `nx·ny` entries.
    pub fn from_values(nx: usize, ny: usize, extent: Rect, values: Vec<T>) -> Self {
        assert!(nx > 0 && ny > 0, "grid must have at least one bin per axis");
        assert!(
            extent.width() > 0.0 && extent.height() > 0.0,
            "grid extent must have positive area"
        );
        assert_eq!(values.len(), nx * ny, "grid values must fill every bin");
        Grid2d {
            nx,
            ny,
            extent,
            data: values,
        }
    }

    /// Number of bins along x.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Number of bins along y.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// The die region covered by the grid.
    pub fn extent(&self) -> Rect {
        self.extent
    }

    /// Bin width in microns.
    pub fn bin_width(&self) -> Um {
        self.extent.width() / self.nx as f64
    }

    /// Bin height in microns.
    pub fn bin_height(&self) -> Um {
        self.extent.height() / self.ny as f64
    }

    fn index(&self, ix: usize, iy: usize) -> usize {
        assert!(ix < self.nx && iy < self.ny, "grid index out of bounds");
        iy * self.nx + ix
    }

    /// Reference to the value in bin `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics if the bin index is out of bounds.
    pub fn get(&self, ix: usize, iy: usize) -> &T {
        &self.data[self.index(ix, iy)]
    }

    /// Mutable reference to the value in bin `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics if the bin index is out of bounds.
    pub fn get_mut(&mut self, ix: usize, iy: usize) -> &mut T {
        let i = self.index(ix, iy);
        &mut self.data[i]
    }

    /// The bin containing die point `(x, y)`, or `None` outside the extent.
    /// Points on the upper/right boundary map into the last bin.
    pub fn bin_of(&self, x: Um, y: Um) -> Option<(usize, usize)> {
        self.bins().bin_of(x, y)
    }

    /// The die rectangle covered by bin `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics if the bin index is out of bounds.
    pub fn bin_rect(&self, ix: usize, iy: usize) -> Rect {
        self.bins().bin_rect(ix, iy)
    }

    /// The grid's bin layout, with the bin size divided out once: a
    /// caller locating many points or rectangles on one grid computes
    /// it once and gets the same bins as [`Grid2d::bin_of`] and
    /// [`Grid2d::bin_rect`].
    pub fn bins(&self) -> GridBins {
        GridBins {
            extent: self.extent,
            nx: self.nx,
            ny: self.ny,
            width: self.bin_width(),
            height: self.bin_height(),
        }
    }

    /// Iterates over `((ix, iy), &value)` in row-major order (y outer).
    pub fn iter(&self) -> impl Iterator<Item = ((usize, usize), &T)> {
        let nx = self.nx;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, v)| ((i % nx, i / nx), v))
    }

    /// The raw values in row-major order (y outer, x inner).
    pub fn values(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw values in row-major order.
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl Grid2d<f64> {
    /// Largest value together with its bin, or `None` for all-NaN grids.
    pub fn max_bin(&self) -> Option<((usize, usize), f64)> {
        self.iter()
            .filter(|(_, v)| !v.is_nan())
            .map(|(b, v)| (b, *v))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Smallest value together with its bin, or `None` for all-NaN grids.
    pub fn min_bin(&self) -> Option<((usize, usize), f64)> {
        self.iter()
            .filter(|(_, v)| !v.is_nan())
            .map(|(b, v)| (b, *v))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Sum of all bin values.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all bin values.
    pub fn mean(&self) -> f64 {
        self.sum() / (self.data.len() as f64)
    }

    /// Accumulates `amount` into the bins overlapped by `footprint`,
    /// weighted by overlap area. Portions outside the extent are dropped.
    ///
    /// This implements the paper's rule that "the power value in a thermal
    /// cell is the sum of power consumptions in all the standard cells that
    /// it covers", with area weighting for cells straddling bins.
    pub fn splat(&mut self, footprint: &Rect, amount: f64) {
        self.splat_each([(*footprint, amount)]);
    }

    /// [`Grid2d::splat`] of each `(footprint, amount)` in turn, with the
    /// bin geometry computed once for all of them.
    ///
    /// A bin's overlap with a footprint is the product of its column's
    /// overlap width and its row's overlap height, so each is computed
    /// once per footprint. Each takes the `max`/`min` operands and the
    /// strict-overlap test of `bin_rect(ix, iy).intersection(footprint)`,
    /// and bins are visited in the same order, so every sum keeps the
    /// bits of the per-bin intersection.
    pub fn splat_each(&mut self, items: impl IntoIterator<Item = (Rect, f64)>) {
        let bins = self.bins();
        let clip = self.extent.expand(-0.0);
        let mut widths = Vec::new();
        for (footprint, amount) in items {
            let total = footprint.area();
            if total <= 0.0 {
                // Degenerate footprint: deposit into the containing bin.
                if let Some((ix, iy)) = bins.bin_of(footprint.llx, footprint.lly) {
                    self.data[iy * bins.nx + ix] += amount;
                }
                continue;
            }
            let Some(clipped) = footprint.intersection(&clip) else {
                continue;
            };
            let (ix0, iy0) = bins.clamped(clipped.llx, clipped.lly);
            let (ix1, iy1) = bins.clamped(clipped.urx, clipped.ury);
            let (e, (w, h)) = (&bins.extent, (bins.width, bins.height));
            // Half-open ranges: `RangeInclusive` iterates measurably slower
            // in this loop.
            widths.clear();
            widths.extend(
                (ix0..ix1 + 1).map(|ix| overlap(e.llx, w, ix, footprint.llx, footprint.urx)),
            );
            for iy in iy0..iy1 + 1 {
                let Some(height) = overlap(e.lly, h, iy, footprint.lly, footprint.ury) else {
                    continue;
                };
                let row = iy * bins.nx;
                for (bin, width) in self.data[row + ix0..=row + ix1].iter_mut().zip(&widths) {
                    if let Some(width) = width {
                        *bin += amount * (width * height) / total;
                    }
                }
            }
        }
    }
}

/// The extent along one axis of the overlap of bin `i` (of size `step`
/// from `origin`) with the span `lo..hi`, if they share interior: the
/// side length of `bin_rect(..).intersection(..)` on that axis, from
/// the same operands.
fn overlap(origin: Um, step: Um, i: usize, lo: Um, hi: Um) -> Option<Um> {
    let (a, b) = (origin + i as f64 * step, origin + (i + 1) as f64 * step);
    let (bin_lo, bin_hi) = (a.min(b), a.max(b));
    if !(bin_lo < hi && lo < bin_hi) {
        return None;
    }
    let (start, end) = (bin_lo.max(lo), bin_hi.min(hi));
    Some(start.max(end) - start.min(end))
}

/// A [`Grid2d`]'s bin layout: its extent, bin counts and bin size
/// ([`Grid2d::bins`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridBins {
    extent: Rect,
    nx: usize,
    ny: usize,
    width: Um,
    height: Um,
}

impl GridBins {
    /// See [`Grid2d::bin_of`].
    pub fn bin_of(&self, x: Um, y: Um) -> Option<(usize, usize)> {
        let e = &self.extent;
        if x < e.llx || x > e.urx || y < e.lly || y > e.ury {
            return None;
        }
        Some(self.clamped(x, y))
    }

    /// The bin nearest die point `(x, y)`: [`GridBins::bin_of`] for points
    /// inside the extent, the nearest edge bin for points outside it.
    /// Total: the float-to-index casts saturate (NaN maps to 0), so no
    /// input can panic.
    fn clamped(&self, x: Um, y: Um) -> (usize, usize) {
        let e = &self.extent;
        let ix = (((x - e.llx) / self.width) as usize).min(self.nx - 1);
        let iy = (((y - e.lly) / self.height) as usize).min(self.ny - 1);
        (ix, iy)
    }

    /// See [`Grid2d::bin_rect`].
    ///
    /// # Panics
    ///
    /// Panics if the bin index is out of bounds.
    pub fn bin_rect(&self, ix: usize, iy: usize) -> Rect {
        assert!(ix < self.nx && iy < self.ny, "grid index out of bounds");
        let (w, h) = (self.width, self.height);
        Rect::new(
            self.extent.llx + ix as f64 * w,
            self.extent.lly + iy as f64 * h,
            self.extent.llx + (ix + 1) as f64 * w,
            self.extent.lly + (iy + 1) as f64 * h,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid4() -> Grid2d<f64> {
        Grid2d::new(4, 4, Rect::new(0.0, 0.0, 40.0, 40.0), 0.0)
    }

    #[test]
    fn bin_of_maps_boundaries_inward() {
        let g = grid4();
        assert_eq!(g.bin_of(0.0, 0.0), Some((0, 0)));
        assert_eq!(g.bin_of(40.0, 40.0), Some((3, 3)));
        assert_eq!(g.bin_of(-0.1, 1.0), None);
    }

    #[test]
    fn bin_rect_tiles_extent() {
        let g = grid4();
        let mut area = 0.0;
        for iy in 0..4 {
            for ix in 0..4 {
                area += g.bin_rect(ix, iy).area();
            }
        }
        assert!(crate::approx_eq(area, g.extent().area(), 1e-9));
    }

    #[test]
    fn splat_conserves_mass_inside_extent() {
        let mut g = grid4();
        g.splat(&Rect::new(5.0, 5.0, 25.0, 15.0), 2.0);
        assert!(crate::approx_eq(g.sum(), 2.0, 1e-12));
    }

    #[test]
    fn splat_weights_by_overlap() {
        let mut g = grid4();
        // Straddles bins (0,0) and (1,0) equally.
        g.splat(&Rect::new(5.0, 0.0, 15.0, 10.0), 4.0);
        assert!(crate::approx_eq(*g.get(0, 0), 2.0, 1e-12));
        assert!(crate::approx_eq(*g.get(1, 0), 2.0, 1e-12));
    }

    #[test]
    fn splat_outside_extent_is_dropped() {
        let mut g = grid4();
        g.splat(&Rect::new(100.0, 100.0, 110.0, 110.0), 1.0);
        assert_eq!(g.sum(), 0.0);
    }

    #[test]
    fn splat_clips_any_footprint_without_panicking() {
        let mut g = grid4();
        // Straddling the upper-right corner: only the inside quarter lands.
        g.splat(&Rect::new(35.0, 35.0, 45.0, 45.0), 4.0);
        assert!((g.sum() - 1.0).abs() < 1e-12);
        assert!((g.get(3, 3) - 1.0).abs() < 1e-12);
        // An unbounded footprint spreads its amount over infinite area:
        // every bin is visited, none gains anything, none is out of range.
        let inf = f64::INFINITY;
        g.splat(&Rect::new(-inf, -inf, inf, inf), 1.0);
        assert!((g.sum() - 1.0).abs() < 1e-12);
    }

    /// The per-call splat, re-deriving the bin size for every footprint
    /// and bin through the public accessors.
    fn splat_per_call(g: &mut Grid2d<f64>, footprint: &Rect, amount: f64) {
        let total = footprint.area();
        if total <= 0.0 {
            if let Some((ix, iy)) = g.bin_of(footprint.llx, footprint.lly) {
                *g.get_mut(ix, iy) += amount;
            }
            return;
        }
        let Some(clipped) = footprint.intersection(&g.extent().expand(-0.0)) else {
            return;
        };
        let e = g.extent();
        let bin = |x: Um, y: Um| {
            let ix = (((x - e.llx) / g.bin_width()) as usize).min(g.nx() - 1);
            let iy = (((y - e.lly) / g.bin_height()) as usize).min(g.ny() - 1);
            (ix, iy)
        };
        let ((ix0, iy0), (ix1, iy1)) =
            (bin(clipped.llx, clipped.lly), bin(clipped.urx, clipped.ury));
        for iy in iy0..=iy1 {
            for ix in ix0..=ix1 {
                if let Some(ov) = g.bin_rect(ix, iy).intersection(footprint) {
                    *g.get_mut(ix, iy) += amount * ov.area() / total;
                }
            }
        }
    }

    #[test]
    fn splat_each_equals_per_call_splats_bit_for_bit() {
        // An off-origin extent whose bin size is not a round number.
        let extent = Rect::new(3.1, -2.7, 43.3, 31.9);
        let footprints = [
            // Inside, straddling several bins.
            (Rect::new(7.0, 1.0, 19.4, 9.2), 1.5),
            // Degenerate: a point, a vertical and a horizontal segment
            // (one on the upper boundary), and one outside the core.
            (Rect::new(20.0, 5.0, 20.0, 5.0), 0.25),
            (Rect::new(10.0, 0.0, 10.0, 8.0), 0.5),
            (Rect::new(4.0, 31.9, 30.0, 31.9), 0.75),
            (Rect::new(-9.0, 5.0, -9.0, 5.0), 2.0),
            // Crossing each core edge and a corner.
            (Rect::new(0.0, 3.0, 6.0, 7.0), 1.0),
            (Rect::new(40.0, 3.0, 47.0, 7.0), 1.0),
            (Rect::new(10.0, -5.0, 14.0, -1.0), 1.0),
            (Rect::new(10.0, 30.0, 14.0, 35.0), 1.0),
            (Rect::new(41.0, 29.0, 50.0, 40.0), 3.0),
            // Entirely outside.
            (Rect::new(100.0, 100.0, 110.0, 110.0), 1.0),
        ];
        // And cell-sized footprints strewn over and around the core, from
        // a fixed linear congruential sequence.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut unit = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let strewn: Vec<(Rect, f64)> = (0..400)
            .map(|_| {
                let (x, y) = (unit() * 48.0 - 2.0, unit() * 40.0 - 5.0);
                let (w, h) = (unit() * 9.0, unit() * 3.0);
                (Rect::new(x, y, x + w, y + h), unit())
            })
            .collect();
        let footprints: Vec<(Rect, f64)> = footprints.into_iter().chain(strewn).collect();
        let mut each = Grid2d::new(7, 5, extent, 0.0);
        each.splat_each(footprints.iter().copied());
        let mut per_call = Grid2d::new(7, 5, extent, 0.0);
        for (footprint, amount) in &footprints {
            splat_per_call(&mut per_call, footprint, *amount);
        }
        let bits = |g: &Grid2d<f64>| g.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&each), bits(&per_call));
        assert!(each.sum() > 0.0);
    }

    #[test]
    fn max_and_min_bins() {
        let mut g = grid4();
        *g.get_mut(1, 2) = 9.0;
        *g.get_mut(3, 0) = -4.0;
        assert_eq!(g.max_bin(), Some(((1, 2), 9.0)));
        assert_eq!(g.min_bin(), Some(((3, 0), -4.0)));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        let g = grid4();
        let _ = g.get(4, 0);
    }
}
