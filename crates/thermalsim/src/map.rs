use geom::{Grid2d, Point, Rect};
use serde::{Deserialize, Serialize};

/// An extreme bin of [`Grid2d::max_bin`] / [`Grid2d::min_bin`], with a
/// grid holding nothing but `NaN` (their only `None`) read as a `NaN`
/// value at bin `(0, 0)` — a poisoned field reports a `NaN` peak
/// instead of aborting.
fn or_nan(bin: Option<((usize, usize), f64)>) -> ((usize, usize), f64) {
    bin.unwrap_or(((0, 0), f64::NAN))
}

/// The active-layer temperature field produced by a thermal solve.
///
/// Values are absolute °C; the paper reports *rises above ambient* and
/// relative reductions, so [`ThermalMap::peak_rise`] and friends are the
/// primary consumers' API.
///
/// # Examples
///
/// ```
/// use geom::{Grid2d, Rect};
/// use thermalsim::ThermalMap;
///
/// let mut g = Grid2d::new(2, 2, Rect::new(0.0, 0.0, 10.0, 10.0), 25.0);
/// *g.get_mut(1, 1) = 31.0;
/// let map = ThermalMap::new(g, 25.0);
/// assert_eq!(map.peak_rise(), 6.0);
/// assert_eq!(map.gradient(), 6.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThermalMap {
    grid: Grid2d<f64>,
    ambient_c: f64,
}

impl ThermalMap {
    /// Wraps a temperature grid (absolute °C).
    pub fn new(grid: Grid2d<f64>, ambient_c: f64) -> Self {
        ThermalMap { grid, ambient_c }
    }

    /// The temperature grid, absolute °C, one value per thermal cell.
    pub fn grid(&self) -> &Grid2d<f64> {
        &self.grid
    }

    /// Ambient temperature in °C.
    pub fn ambient_c(&self) -> f64 {
        self.ambient_c
    }

    /// The temperature (°C) under die point `p`: its bin's value, or
    /// ambient outside the map.
    pub fn temp_at(&self, p: Point) -> f64 {
        self.sampler()(p)
    }

    /// [`ThermalMap::temp_at`] for many points: the map's bin layout is
    /// computed once, not per point.
    pub fn sampler(&self) -> impl Fn(Point) -> f64 + '_ {
        let bins = self.grid.bins();
        move |p| match bins.bin_of(p.x, p.y) {
            Some((ix, iy)) => *self.grid.get(ix, iy),
            None => self.ambient_c,
        }
    }

    /// The die outline the map covers.
    pub fn die(&self) -> Rect {
        self.grid.extent()
    }

    /// Peak temperature (absolute °C) and its bin.
    pub fn peak_bin(&self) -> ((usize, usize), f64) {
        or_nan(self.grid.max_bin())
    }

    /// Peak temperature rise above ambient, in K.
    pub fn peak_rise(&self) -> f64 {
        self.peak_bin().1 - self.ambient_c
    }

    /// Mean temperature rise above ambient, in K.
    pub fn mean_rise(&self) -> f64 {
        self.grid.mean() - self.ambient_c
    }

    /// On-die temperature gradient: hottest minus coolest cell, in K.
    pub fn gradient(&self) -> f64 {
        let (_, max) = or_nan(self.grid.max_bin());
        let (_, min) = or_nan(self.grid.min_bin());
        max - min
    }

    /// Relative peak-temperature reduction from `self` to `after`, in
    /// percent of the original rise above ambient — the paper's
    /// y-axis metric in Fig. 6 and Table I.
    pub fn reduction_to(&self, after: &ThermalMap) -> f64 {
        let before = self.peak_rise();
        if before <= 0.0 {
            return 0.0;
        }
        (before - after.peak_rise()) / before * 100.0
    }

    /// Renders the map as a gnuplot-compatible matrix (one row per line,
    /// space-separated, y ascending) — the format behind the paper's
    /// Fig. 5 plots.
    pub fn to_matrix_string(&self) -> String {
        let mut out = String::new();
        for iy in 0..self.grid.ny() {
            let row: Vec<String> = (0..self.grid.nx())
                .map(|ix| format!("{:.4}", self.grid.get(ix, iy)))
                .collect();
            out.push_str(&row.join(" "));
            out.push('\n');
        }
        out
    }

    /// Renders a coarse ASCII heat map (`.:-=+*#%@` from coolest to
    /// hottest) for terminal inspection.
    pub fn to_ascii(&self) -> String {
        const RAMP: &[u8] = b".:-=+*#%@";
        let (_, max) = or_nan(self.grid.max_bin());
        let (_, min) = or_nan(self.grid.min_bin());
        let span = (max - min).max(1e-12);
        let mut out = String::new();
        // Render y top-down so the output matches die orientation.
        for iy in (0..self.grid.ny()).rev() {
            for ix in 0..self.grid.nx() {
                let t = (self.grid.get(ix, iy) - min) / span;
                let idx = ((t * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1);
                out.push(RAMP[idx] as char);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_with(values: &[(usize, usize, f64)]) -> ThermalMap {
        let mut g = Grid2d::new(4, 4, Rect::new(0.0, 0.0, 40.0, 40.0), 25.0);
        for &(x, y, t) in values {
            *g.get_mut(x, y) = t;
        }
        ThermalMap::new(g, 25.0)
    }

    #[test]
    fn peak_and_gradient() {
        let m = map_with(&[(1, 2, 40.0), (3, 3, 30.0)]);
        assert_eq!(m.peak_bin(), ((1, 2), 40.0));
        assert_eq!(m.peak_rise(), 15.0);
        assert_eq!(m.gradient(), 15.0);
    }

    #[test]
    fn temp_at_reads_the_bin_under_a_point_and_ambient_outside() {
        let m = ThermalMap::new(map_with(&[(1, 2, 40.0)]).grid().clone(), 20.0);
        assert_eq!(m.temp_at(Point::new(15.0, 25.0)), 40.0);
        assert_eq!(m.temp_at(Point::new(5.0, 5.0)), 25.0);
        assert_eq!(m.temp_at(Point::new(41.0, 5.0)), 20.0);
    }

    #[test]
    fn an_all_nan_map_reports_nan_instead_of_panicking() {
        let mut g = Grid2d::new(3, 2, Rect::new(0.0, 0.0, 30.0, 20.0), f64::NAN);
        let m = ThermalMap::new(g.clone(), 25.0);
        assert!(m.peak_rise().is_nan());
        assert!(m.gradient().is_nan());
        assert_eq!(m.to_ascii().lines().count(), 2);
        // One finite bin is still found among the NaNs.
        *g.get_mut(2, 1) = 30.0;
        assert_eq!(ThermalMap::new(g, 25.0).peak_bin(), ((2, 1), 30.0));
    }

    #[test]
    fn reduction_matches_paper_metric() {
        let before = map_with(&[(0, 0, 45.0)]); // 20 K rise
        let after = map_with(&[(0, 0, 41.0)]); // 16 K rise
        assert!((before.reduction_to(&after) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn reduction_of_cold_map_is_zero() {
        let m = map_with(&[]);
        let m2 = map_with(&[]);
        assert_eq!(m.reduction_to(&m2), 0.0);
    }

    #[test]
    fn matrix_string_has_ny_lines() {
        let m = map_with(&[(0, 0, 30.0)]);
        assert_eq!(m.to_matrix_string().lines().count(), 4);
    }

    #[test]
    fn ascii_uses_full_ramp() {
        let m = map_with(&[(0, 0, 30.0)]);
        let art = m.to_ascii();
        assert!(art.contains('@') && art.contains('.'));
    }
}
