use geom::{Grid2d, Rect};
use serde::{Deserialize, Serialize};

use crate::network::build_network;
use crate::{LayerStack, ThermalMap};

/// Lateral (x/y) mesh resolution.
///
/// The paper uses 40×40 (1600 surface cells, "a measuring point covers
/// less than 10 standard cells" for a ~12k-cell design).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GridSpec {
    /// Bins along x.
    pub nx: usize,
    /// Bins along y.
    pub ny: usize,
}

impl Default for GridSpec {
    fn default() -> Self {
        GridSpec { nx: 40, ny: 40 }
    }
}

/// Linear-solver backend selection for factorized thermal models.
///
/// Every stack this crate builds is a laterally uniform 7-point
/// stencil, which the spectral (DCT) direct solver answers at any mesh
/// size, so `Auto` is the default; the CSR path is the fallback for a
/// stack whose spectral factorization has a non-positive pivot and the
/// cross-check oracle the property tests pin the spectral path against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SolverKind {
    /// The spectral direct solver, with each answer residual-checked
    /// and re-solved on CSR if the check fails; CSR when the spectral
    /// factorization refuses the stack.
    #[default]
    Auto,
    /// Force the general CSR + MIC(0)-preconditioned path.
    Csr,
}

/// Full thermal-simulation configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThermalConfig {
    /// Lateral mesh resolution.
    pub grid: GridSpec,
    /// Z-layer stack and boundary conditions.
    pub stack: LayerStack,
    /// Relative residual tolerance for the linear solve.
    pub tolerance: f64,
    /// Solver backend for factorized models. Defaults to
    /// [`SolverKind::Auto`], so configurations serialized before this
    /// field existed keep deserializing.
    #[serde(default)]
    pub solver: SolverKind,
    /// Worker threads for the factorized solves (`0` and `1` both mean
    /// single-threaded). Solver results are bit-identical at any thread
    /// count, so this is purely a latency knob — it is deliberately
    /// **excluded** from [`ThermalConfig::stable_fingerprint`], which
    /// keys result caches by what a solve *computes*, not how fast.
    #[serde(default)]
    pub threads: usize,
}

impl ThermalConfig {
    /// The paper's configuration: 40×40 mesh over the 9-layer `c65` stack.
    pub fn paper() -> Self {
        ThermalConfig {
            grid: GridSpec::default(),
            stack: LayerStack::c65(),
            tolerance: 1e-9,
            solver: SolverKind::Auto,
            threads: 0,
        }
    }

    /// This configuration with an explicit solver backend.
    pub fn with_solver(mut self, solver: SolverKind) -> Self {
        self.solver = solver;
        self
    }

    /// This configuration with an explicit solver thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Paper stack at a custom lateral resolution (for tests and the
    /// grid-resolution ablation).
    pub fn with_resolution(nx: usize, ny: usize) -> Self {
        ThermalConfig {
            grid: GridSpec { nx, ny },
            ..ThermalConfig::paper()
        }
    }

    /// A stable content hash of everything a factorization depends on:
    /// mesh resolution, layer stack, boundary conditions, solver backend
    /// and tolerance. The `threads` knob is excluded on purpose: solves
    /// are bit-identical at any thread count, so results computed at
    /// different thread counts must share a cache key.
    ///
    /// Unlike `std`'s default hasher this is FNV-1a with a fixed seed —
    /// the value is identical across processes and releases, so it is
    /// safe to persist in on-disk cache keys.
    pub fn stable_fingerprint(&self) -> u64 {
        let mut h = StableFnv::new();
        h.write_usize(self.grid.nx);
        h.write_usize(self.grid.ny);
        h.write_f64(self.tolerance);
        h.write_u64(match self.solver {
            SolverKind::Auto => 0,
            SolverKind::Csr => 2,
        });
        h.write_f64(self.stack.h_bottom_w_m2k);
        h.write_f64(self.stack.h_top_w_m2k);
        h.write_f64(self.stack.package_resistance_k_w);
        h.write_f64(self.stack.ambient_c);
        h.write_usize(self.stack.active_layer());
        for layer in self.stack.layers() {
            h.write_f64(layer.thickness_um);
            h.write_f64(layer.conductivity_w_mk);
        }
        h.finish()
    }
}

/// Minimal FNV-1a 64-bit hasher with the standard offset basis — used
/// for process-stable fingerprints (cache keys persisted to disk), where
/// `DefaultHasher`'s unstable algorithm would be a liability.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StableFnv(u64);

impl StableFnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Self {
        StableFnv(Self::OFFSET)
    }

    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    pub(crate) fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    pub(crate) fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for ThermalConfig {
    fn default() -> Self {
        ThermalConfig::paper()
    }
}

/// Errors from thermal model construction or the linear solve.
#[derive(Debug, Clone, PartialEq)]
pub enum ThermalError {
    /// The power map does not match the mesh resolution or die outline.
    PowerGridMismatch {
        /// Expected `(nx, ny)`.
        expected: (usize, usize),
        /// Power map's `(nx, ny)`.
        got: (usize, usize),
    },
    /// A power bin held a negative or non-finite value.
    InvalidPower {
        /// The offending bin.
        bin: (usize, usize),
        /// The rejected value.
        watts: f64,
    },
    /// The underlying linear solver failed.
    Solve(spicenet::SolveError),
    /// Internal circuit construction error (a bug if it ever surfaces).
    Circuit(String),
}

impl ThermalError {
    pub(crate) fn from_circuit(e: spicenet::CircuitError) -> Self {
        ThermalError::Circuit(e.to_string())
    }
}

impl std::fmt::Display for ThermalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThermalError::PowerGridMismatch { expected, got } => write!(
                f,
                "power map is {}x{} but the mesh is {}x{}",
                got.0, got.1, expected.0, expected.1
            ),
            ThermalError::InvalidPower { bin, watts } => {
                write!(f, "invalid power {watts} W in bin ({}, {})", bin.0, bin.1)
            }
            ThermalError::Solve(e) => write!(f, "thermal solve failed: {e}"),
            ThermalError::Circuit(e) => write!(f, "thermal network construction: {e}"),
        }
    }
}

impl std::error::Error for ThermalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ThermalError::Solve(e) => Some(e),
            _ => None,
        }
    }
}

/// The steady-state thermal simulator.
///
/// See the [crate docs](crate) for the model description and an example.
#[derive(Debug, Clone, Default)]
pub struct ThermalSimulator {
    config: ThermalConfig,
}

impl ThermalSimulator {
    /// Creates a simulator with the given configuration.
    pub fn new(config: ThermalConfig) -> Self {
        ThermalSimulator { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &ThermalConfig {
        &self.config
    }

    /// Solves the steady-state temperature field for `power` (watts per
    /// thermal bin, covering the die outline `die`) and returns the
    /// active-layer [`ThermalMap`].
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::PowerGridMismatch`] when the power map
    /// resolution differs from the mesh, [`ThermalError::InvalidPower`]
    /// for negative/NaN bins, and [`ThermalError::Solve`] if the linear
    /// system cannot be solved.
    pub fn solve(&self, die: Rect, power: &Grid2d<f64>) -> Result<ThermalMap, ThermalError> {
        let GridSpec { nx, ny } = self.config.grid;
        let network = build_network(nx, ny, die, &self.config.stack, power)?;
        let temps = network.solve(self.config.tolerance)?;
        let mut grid = Grid2d::new(nx, ny, die, 0.0);
        for iy in 0..ny {
            for ix in 0..nx {
                *grid.get_mut(ix, iy) = temps[iy * nx + ix];
            }
        }
        Ok(ThermalMap::new(grid, self.config.stack.ambient_c))
    }

    /// Builds and factorizes the geometry-only network for `die` once,
    /// for repeated solves against many power maps — see
    /// [`FactorizedThermalModel`](crate::FactorizedThermalModel).
    ///
    /// # Errors
    ///
    /// Propagates network-construction and factorization failures.
    pub fn factorize(&self, die: Rect) -> Result<crate::FactorizedThermalModel, ThermalError> {
        crate::FactorizedThermalModel::build(&self.config, die)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn die() -> Rect {
        Rect::new(0.0, 0.0, 335.0, 335.0)
    }

    fn uniform_power(total_w: f64, n: usize) -> Grid2d<f64> {
        let mut g = Grid2d::new(n, n, die(), 0.0);
        let per = total_w / (n * n) as f64;
        g.values_mut().iter_mut().for_each(|v| *v = per);
        g
    }

    #[test]
    fn zero_power_is_ambient_everywhere() {
        let sim = ThermalSimulator::new(ThermalConfig::with_resolution(10, 10));
        let map = sim.solve(die(), &Grid2d::new(10, 10, die(), 0.0)).unwrap();
        for (_, &t) in map.grid().iter() {
            assert!((t - 25.0).abs() < 1e-6, "expected ambient, got {t}");
        }
        assert!(map.peak_rise().abs() < 1e-6);
    }

    #[test]
    fn uniform_power_heats_uniformly() {
        let sim = ThermalSimulator::new(ThermalConfig::with_resolution(10, 10));
        let map = sim.solve(die(), &uniform_power(5e-3, 10)).unwrap();
        assert!(map.peak_rise() > 0.5, "5 mW should heat a 0.1 mm² die");
        assert!(map.peak_rise() < 100.0, "…but not melt it");
        // Per-cell package exit + adiabatic sides + uniform injection →
        // a (numerically) flat field.
        assert!(map.gradient() < 1e-3 * map.peak_rise());
    }

    #[test]
    fn hotspot_is_warmer_than_far_field() {
        let sim = ThermalSimulator::new(ThermalConfig::with_resolution(16, 16));
        let mut p = Grid2d::new(16, 16, die(), 0.0);
        *p.get_mut(3, 3) = 2e-3;
        let map = sim.solve(die(), &p).unwrap();
        let (peak_bin, _) = map.peak_bin();
        assert_eq!(peak_bin, (3, 3), "peak must sit on the injection");
        let near = *map.grid().get(3, 3);
        let far = *map.grid().get(14, 14);
        assert!(near > far + 1e-3, "near {near} vs far {far}");
    }

    #[test]
    fn doubling_power_doubles_rise() {
        let sim = ThermalSimulator::new(ThermalConfig::with_resolution(8, 8));
        let m1 = sim.solve(die(), &uniform_power(2e-3, 8)).unwrap();
        let m2 = sim.solve(die(), &uniform_power(4e-3, 8)).unwrap();
        assert!((m2.peak_rise() - 2.0 * m1.peak_rise()).abs() < 1e-6);
    }

    #[test]
    fn monotonicity_adding_power_never_cools_any_cell() {
        let sim = ThermalSimulator::new(ThermalConfig::with_resolution(8, 8));
        let mut p1 = Grid2d::new(8, 8, die(), 0.0);
        *p1.get_mut(2, 2) = 1e-3;
        let m1 = sim.solve(die(), &p1).unwrap();
        let mut p2 = p1.clone();
        *p2.get_mut(6, 6) = 1e-3;
        let m2 = sim.solve(die(), &p2).unwrap();
        for ((_, &a), (_, &b)) in m1.grid().iter().zip(m2.grid().iter()) {
            assert!(b >= a - 1e-9);
        }
    }

    #[test]
    fn bigger_die_runs_cooler_at_same_power() {
        // The core mechanism behind the paper's Default scheme: area
        // overhead lowers the total thermal resistance.
        let sim = ThermalSimulator::new(ThermalConfig::with_resolution(10, 10));
        let small = die();
        let big = Rect::new(0.0, 0.0, 400.0, 400.0);
        let mut p_small = Grid2d::new(10, 10, small, 0.0);
        let mut p_big = Grid2d::new(10, 10, big, 0.0);
        for v in p_small.values_mut() {
            *v = 5e-5;
        }
        for v in p_big.values_mut() {
            *v = 5e-5;
        }
        let m_small = sim.solve(small, &p_small).unwrap();
        let m_big = sim.solve(big, &p_big).unwrap();
        assert!(m_big.peak_rise() < m_small.peak_rise());
    }

    #[test]
    fn mismatched_power_grid_is_rejected() {
        let sim = ThermalSimulator::new(ThermalConfig::with_resolution(8, 8));
        let p = Grid2d::new(4, 4, die(), 0.0);
        assert!(matches!(
            sim.solve(die(), &p),
            Err(ThermalError::PowerGridMismatch { .. })
        ));
    }

    #[test]
    fn negative_power_is_rejected() {
        let sim = ThermalSimulator::new(ThermalConfig::with_resolution(4, 4));
        let mut p = Grid2d::new(4, 4, die(), 0.0);
        *p.get_mut(1, 1) = -1.0;
        assert!(matches!(
            sim.solve(die(), &p),
            Err(ThermalError::InvalidPower { .. })
        ));
    }

    #[test]
    fn energy_balance_heat_out_equals_power_in() {
        // Sum of currents through the ambient source equals total power.
        use spicenet::{NodeRef, SolveOptions};
        let n = 6;
        let mut p = Grid2d::new(n, n, die(), 0.0);
        *p.get_mut(1, 4) = 3e-3;
        *p.get_mut(4, 1) = 2e-3;
        let stack = crate::LayerStack::c65();
        let network = crate::network::build_network(n, n, die(), &stack, &p).unwrap();
        let circuit = &network.circuit;
        let sol = circuit.solve(SolveOptions::default()).unwrap();
        // The single voltage source feeds the ambient node; at steady state
        // it must absorb exactly the injected 5 mW (current convention:
        // delivered into the circuit is negative when absorbing).
        let absorbed = -sol.vsource_current(0);
        let ambient_node = circuit.find_node("ambient").unwrap();
        let _ = sol.voltage(NodeRef::Node(ambient_node));
        assert!(
            (absorbed - 5e-3).abs() < 5e-3 * 1e-6 + 1e-12,
            "ambient absorbs {absorbed} W, injected 5e-3 W"
        );
    }
}
