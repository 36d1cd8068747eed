//! A thermal network factorized once and re-solved against many power
//! maps.
//!
//! The conductance matrix of the paper's RC mesh depends only on the die
//! outline, the mesh resolution and the layer stack — **not** on the
//! power map. The optimization loops on top of the flow (row-count
//! bisection, budget search, scenario sweeps) evaluate dozens of power
//! maps against a handful of die geometries, so assembling and
//! factoring the network per solve is pure waste. A
//! [`FactorizedThermalModel`] pays that cost once per geometry and turns
//! every subsequent evaluation into a re-solve.
//!
//! Two solver backends sit behind the same API (selected by
//! [`SolverKind`](crate::SolverKind));
//! [`FactorizedThermalModel::solver_name`] reports the one that answers:
//!
//! * **Spectral direct (`spectral-dct`, the `Auto` default)** — the mesh
//!   is a pure 7-point stencil over a laterally uniform stack, emitted
//!   as a layered, matrix-free [`spicenet::StencilSystem`] (a few
//!   hundred bytes), which [`spicenet::SpectralSystem::from_stencil`]
//!   factors at every mesh size: one cosine transform per lateral axis
//!   plus a Thomas sweep per lateral mode. An answer reads only the
//!   active layer, so a solve transforms forward only that layer's
//!   power plane and the constant Dirichlet layers (one row each), and
//!   only the active layer back. A 128×128×9 model holds ~1.2 MiB,
//!   nearly all of it Thomas pivots.
//!
//!   Every solve is checked in mode space before it is accepted: the
//!   residual `‖b̂ − Â·x̂‖/‖b̂‖` of every mode and layer against the
//!   per-layer coefficients of the stencil system (not the stored
//!   pivots), Parseval-weighted so that it estimates the spatial relative
//!   residual of the whole solved field, at no transform's cost. That
//!   catches a factorization that no longer matches its system, which
//!   is what the former 3-D residual caught. The transforms it does not
//!   see are fixed, data-independent code, pinned by the DCT property
//!   tests, the golden field digests and the CSR oracle. Under the
//!   `paranoid` feature every solve also runs the whole-field pipeline,
//!   requires its spatial 3-D residual within the tolerance and the
//!   active layer's bits to match the answer.
//! * **CSR (`csr-mic0`)** — the general [`spicenet::FactorizedCircuit`]
//!   path (Dirichlet reduction + MIC(0)-preconditioned CG): the backend
//!   of a stack whose spectral factorization has a non-positive pivot,
//!   the re-solve behind a failed residual check (built once, on first
//!   need), and the cross-check oracle the property tests pin the
//!   spectral path against (≤ 1e-6 K).

use std::cell::RefCell;
use std::sync::OnceLock;

use geom::{Grid2d, Rect};
use spicenet::{
    FactorizedCircuit, NodeId, Planes, RhsPlane, SolveError, SolveOptions, SolveStats, SpectralRhs,
    SpectralSystem, StencilSystem,
};

use crate::network::{build_circuit, build_stencil, validate_power};
use crate::{GridSpec, SolverKind, ThermalConfig, ThermalError, ThermalMap};

thread_local! {
    /// The active layer's right-hand side, reused by the thread's next
    /// spectral solve rather than allocated per solve.
    static ACTIVE_RHS: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// The spectral backend: the direct factorization plus the layered
/// system its residual check runs against.
#[derive(Debug)]
struct SpectralModel {
    spectral: SpectralSystem,
    system: StencilSystem,
    /// Power-dissipating layer index.
    active_layer: usize,
}

impl SpectralModel {
    /// The verified solve of one power map: the active layer's field in
    /// `iy·nx + ix` order. Only that layer is transformed back; its
    /// right-hand side comes straight from the power grid, the layer's
    /// Dirichlet value plus the watts of every powered bin, as
    /// [`StencilSystem::rhs_with`] adds them, and every other layer
    /// carries its constant Dirichlet value.
    fn solve(
        &self,
        power: &Grid2d<f64>,
        tolerance: f64,
        threads: usize,
    ) -> Result<(Vec<f64>, SolveStats), SolveError> {
        let active = self.active_layer;
        let fixed = self.system.fixed_rhs();
        let (field, stats) = ACTIVE_RHS.with_borrow_mut(|plane| {
            plane.clear();
            plane.extend(power.values().iter().map(|&watts| {
                if watts > 0.0 {
                    fixed[active] + watts
                } else {
                    fixed[active]
                }
            }));
            let layers = fixed
                .iter()
                .enumerate()
                .map(|(iz, &c)| {
                    if iz == active {
                        RhsPlane::Values(plane)
                    } else {
                        RhsPlane::Constant(c)
                    }
                })
                .collect();
            let rhs = SpectralRhs {
                layers,
                border: self.system.border_rhs(),
            };
            self.spectral
                .solve(&self.system, &rhs, Planes::One(active), tolerance, threads)
        })?;
        let temps = field.into_plane(active).unwrap_or_default();
        #[cfg(feature = "paranoid")]
        {
            let nz = self.system.dims().2;
            let b = self
                .system
                .rhs_with(&injections(power, |bin| bin * nz + active));
            spicenet::paranoid::check_spectral_plane(
                &self.spectral,
                &self.system,
                &b,
                active,
                &temps,
                tolerance,
                threads,
            );
        }
        Ok((temps, stats))
    }
}

/// The CSR backend: the factored circuit plus its active-layer nodes.
#[derive(Debug)]
struct CsrModel {
    factor: FactorizedCircuit,
    /// Active-layer node ids in `iy·nx + ix` order.
    active_nodes: Vec<NodeId>,
}

impl CsrModel {
    fn build(config: &ThermalConfig, die: Rect) -> Result<CsrModel, ThermalError> {
        let GridSpec { nx, ny } = config.grid;
        let network = build_circuit(nx, ny, die, &config.stack)?;
        let factor = network
            .circuit
            .factorize(solve_options(config))
            .map_err(ThermalError::Solve)?;
        Ok(CsrModel {
            factor,
            active_nodes: network.active_nodes,
        })
    }

    fn heap_bytes(&self) -> usize {
        self.factor.heap_bytes() + size_of_val(&self.active_nodes[..])
    }

    /// Solves one power map (validated by the caller) into `grid`.
    fn solve_into(
        &self,
        power: &Grid2d<f64>,
        grid: &mut Grid2d<f64>,
    ) -> Result<SolveStats, ThermalError> {
        let injections = injections(power, |bin| self.active_nodes[bin]);
        let (volts, stats) = self
            .factor
            .solve_injections_stats(&injections)
            .map_err(ThermalError::Solve)?;
        for (bin, t) in grid.values_mut().iter_mut().enumerate() {
            *t = volts[self.active_nodes[bin].index()];
        }
        Ok(stats)
    }
}

/// The powered bins of `power` as `(at(bin), watts)` current
/// injections, in `iy·nx + ix` bin order.
fn injections<T>(power: &Grid2d<f64>, at: impl Fn(usize) -> T) -> Vec<(T, f64)> {
    power
        .values()
        .iter()
        .enumerate()
        .filter(|&(_, &watts)| watts > 0.0)
        .map(|(bin, &watts)| (at(bin), watts))
        .collect()
}

fn solve_options(config: &ThermalConfig) -> SolveOptions {
    SolveOptions {
        tolerance: config.tolerance,
        threads: config.threads,
        ..Default::default()
    }
}

/// The solver backend of a factorized model. Both variants are boxed:
/// the factorizations carry hundreds of bytes of inline state.
#[derive(Debug)]
enum Backend {
    /// Spectral (DCT + per-mode Thomas) direct solve.
    Spectral(Box<SpectralModel>),
    /// General CSR + MIC(0) PCG.
    Csr(Box<CsrModel>),
}

/// The geometry-dependent half of a thermal solve, computed once: the
/// assembled and factored conductance system plus the active-layer
/// bookkeeping.
///
/// Solutions match [`ThermalSimulator::solve`](crate::ThermalSimulator)
/// to within the configured solver tolerance. The model is plain data
/// (`Send + Sync`), so one instance can serve many worker threads.
///
/// # Examples
///
/// ```
/// use geom::{Grid2d, Rect};
/// use thermalsim::{FactorizedThermalModel, ThermalConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let die = Rect::new(0.0, 0.0, 300.0, 300.0);
/// let model = FactorizedThermalModel::build(&ThermalConfig::with_resolution(8, 8), die)?;
/// let mut power = Grid2d::new(8, 8, die, 0.0);
/// *power.get_mut(4, 4) = 1e-3;
/// let hot = model.solve(&power)?; // re-solve, no re-assembly
/// *power.get_mut(4, 4) = 2e-3;
/// let hotter = model.solve(&power)?;
/// assert!(hotter.peak_rise() > hot.peak_rise());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FactorizedThermalModel {
    config: ThermalConfig,
    die: Rect,
    backend: Backend,
    /// The CSR model a failed spectral residual check re-solves on,
    /// built once on first need.
    fallback: OnceLock<Result<CsrModel, ThermalError>>,
}

impl FactorizedThermalModel {
    /// Assembles and factors the network for `die` under `config`, once.
    /// `Auto` takes the spectral backend unless its factorization
    /// refuses the stack (a non-positive mode pivot) and the CSR backend
    /// otherwise; `Csr` always takes CSR. Only the representation the
    /// chosen backend keeps is built.
    ///
    /// # Errors
    ///
    /// Propagates circuit-construction and factorization failures.
    pub fn build(config: &ThermalConfig, die: Rect) -> Result<Self, ThermalError> {
        let GridSpec { nx, ny } = config.grid;
        let spectral = match config.solver {
            SolverKind::Auto => {
                let system = build_stencil(nx, ny, die, &config.stack);
                SpectralSystem::from_stencil(&system).map(|spectral| SpectralModel {
                    spectral,
                    system,
                    active_layer: config.stack.active_layer(),
                })
            }
            SolverKind::Csr => None,
        };
        let backend = match spectral {
            Some(model) => Backend::Spectral(Box::new(model)),
            None => Backend::Csr(Box::new(CsrModel::build(config, die)?)),
        };
        Ok(FactorizedThermalModel {
            config: config.clone(),
            die,
            backend,
            fallback: OnceLock::new(),
        })
    }

    /// The configuration the model was built under.
    pub fn config(&self) -> &ThermalConfig {
        &self.config
    }

    /// The die outline the model was built for.
    pub fn die(&self) -> Rect {
        self.die
    }

    /// Dimension of the linear system actually solved.
    pub fn unknowns(&self) -> usize {
        match &self.backend {
            Backend::Spectral(m) => m.system.unknowns(),
            Backend::Csr(m) => m.factor.reduced_dim(),
        }
    }

    /// Bytes the model holds on the heap: the spectral factorization
    /// (nearly all of it Thomas pivots, ~1.2 MiB at 128×128×9; its
    /// layered system is a few hundred bytes more), or the CSR system and
    /// its MIC(0) factor, plus the CSR fallback once a failed residual
    /// check has built it.
    pub fn heap_bytes(&self) -> usize {
        let backend = match &self.backend {
            Backend::Spectral(m) => m.spectral.heap_bytes(),
            Backend::Csr(m) => m.heap_bytes(),
        };
        let fallback = match self.fallback.get() {
            Some(Ok(m)) => m.heap_bytes(),
            _ => 0,
        };
        backend + fallback
    }

    /// Human-readable name of the solver backend: `"spectral-dct"` or
    /// `"csr-mic0"`.
    pub fn solver_name(&self) -> &'static str {
        match &self.backend {
            Backend::Spectral(_) => "spectral-dct",
            Backend::Csr(_) => "csr-mic0",
        }
    }

    /// A stable content hash of the model's inputs: the thermal
    /// configuration fingerprint folded with the bit-exact die outline.
    /// Identical across processes — the piece of a persistent cache key
    /// this crate owns.
    pub fn stable_fingerprint(&self) -> u64 {
        let mut h = crate::sim::StableFnv::new();
        h.write_u64(self.config.stable_fingerprint());
        h.write_f64(self.die.llx);
        h.write_f64(self.die.lly);
        h.write_f64(self.die.urx);
        h.write_f64(self.die.ury);
        h.finish()
    }

    /// Solves the steady-state field for one power map (watts per thermal
    /// bin) against the cached factorization.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::PowerGridMismatch`] /
    /// [`ThermalError::InvalidPower`] for a bad power map and
    /// [`ThermalError::Solve`] if the re-solve fails.
    pub fn solve(&self, power: &Grid2d<f64>) -> Result<ThermalMap, ThermalError> {
        self.solve_with_stats(power).map(|(map, _)| map)
    }

    /// Like [`FactorizedThermalModel::solve`], additionally returning
    /// the [`SolveStats`] of the re-solve — the diagnostics behind the
    /// bench pipeline's solver-scaling section.
    ///
    /// # Errors
    ///
    /// Same as [`FactorizedThermalModel::solve`].
    pub fn solve_with_stats(
        &self,
        power: &Grid2d<f64>,
    ) -> Result<(ThermalMap, SolveStats), ThermalError> {
        let GridSpec { nx, ny } = self.config.grid;
        validate_power(nx, ny, power)?;
        let csr = |m: &CsrModel| -> Result<_, ThermalError> {
            let mut grid = Grid2d::new(nx, ny, self.die, 0.0);
            let stats = m.solve_into(power, &mut grid)?;
            Ok((grid, stats))
        };
        let (grid, stats) = match &self.backend {
            Backend::Spectral(m) => {
                match m.solve(power, self.config.tolerance, self.config.threads) {
                    Ok((temps, stats)) => (Grid2d::from_values(nx, ny, self.die, temps), stats),
                    Err(_) => csr(self.csr_fallback()?)?,
                }
            }
            Backend::Csr(m) => csr(m)?,
        };
        #[cfg(feature = "paranoid")]
        Self::check_rise_field(
            "solved temperature field",
            grid.values(),
            self.config.tolerance,
        );
        Ok((ThermalMap::new(grid, self.config.stack.ambient_c), stats))
    }

    /// The CSR model behind a failed residual check, built on first use
    /// and kept for every later fallback.
    fn csr_fallback(&self) -> Result<&CsrModel, ThermalError> {
        self.fallback
            .get_or_init(|| CsrModel::build(&self.config, self.die))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Paranoid-mode invariants on a solved rise field: every entry is
    /// finite, and — by the discrete maximum principle (the thermal
    /// operator is an M-matrix and injections are non-negative) — no
    /// cell cools below ambient beyond solver-tolerance noise.
    ///
    /// # Panics
    ///
    /// When an entry is non-finite or more negative than the
    /// tolerance-scaled bound.
    #[cfg(feature = "paranoid")]
    fn check_rise_field(what: &str, rises: &[f64], tolerance: f64) {
        spicenet::paranoid::check_finite(what, rises);
        let peak = rises.iter().fold(0.0f64, |m, &v| m.max(v));
        let bound = 10.0 * tolerance * peak.max(1.0);
        for (i, &v) in rises.iter().enumerate() {
            assert!(
                v >= -bound,
                "paranoid: {what} violates the maximum principle: \
                 rise {v} at index {i} is below ambient beyond {bound}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Layer, LayerStack, SolverKind, ThermalSimulator};

    fn die() -> Rect {
        Rect::new(0.0, 0.0, 335.0, 335.0)
    }

    /// Deterministic pseudo-random power in `[0, 4e-4)` per bin.
    fn hashed_power(nx: usize, ny: usize, seed: u64) -> Grid2d<f64> {
        let mut p = Grid2d::new(nx, ny, die(), 0.0);
        for iy in 0..ny {
            for ix in 0..nx {
                let h = (seed * 1_000_003)
                    .wrapping_add((iy * nx + ix) as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                *p.get_mut(ix, iy) = (h >> 40) as f64 / (1u64 << 24) as f64 * 4e-4;
            }
        }
        p
    }

    fn max_drift(a: &ThermalMap, b: &ThermalMap) -> f64 {
        a.grid()
            .iter()
            .zip(b.grid().iter())
            .map(|((_, x), (_, y))| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn matches_the_simulator_on_a_hotspot_map() {
        let config = ThermalConfig::with_resolution(12, 12);
        let sim = ThermalSimulator::new(config.clone());
        let model = FactorizedThermalModel::build(&config, die()).unwrap();
        assert_eq!(model.solver_name(), "spectral-dct");
        let mut p = Grid2d::new(12, 12, die(), 0.0);
        *p.get_mut(2, 9) = 3e-3;
        *p.get_mut(8, 3) = 1e-3;
        let fresh = sim.solve(die(), &p).unwrap();
        let cached = model.solve(&p).unwrap();
        for ((_, a), (_, b)) in fresh.grid().iter().zip(cached.grid().iter()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn a_model_weighs_its_pivots_or_its_csr_factor() {
        let spectral =
            FactorizedThermalModel::build(&ThermalConfig::with_resolution(128, 128), die())
                .unwrap();
        // One pivot per mode and layer, plus tables of a few KiB.
        let pivots = spectral.unknowns() * size_of::<f64>();
        let bytes = spectral.heap_bytes();
        assert!(bytes >= pivots && bytes < pivots + (64 << 10), "{bytes}");
        let mut config = ThermalConfig::with_resolution(16, 16);
        let small = FactorizedThermalModel::build(&config, die()).unwrap();
        config.solver = SolverKind::Csr;
        let csr = FactorizedThermalModel::build(&config, die()).unwrap();
        assert_eq!(csr.solver_name(), "csr-mic0");
        // The matrix and its factor hold ~7 entries a row each.
        let entries = 2 * 7 * csr.unknowns() * (size_of::<f64>() + size_of::<usize>());
        assert!(csr.heap_bytes() > entries / 2, "{}", csr.heap_bytes());
        assert!(csr.heap_bytes() > 4 * small.heap_bytes());
    }

    #[test]
    fn forced_csr_backend_matches_the_structured_default() {
        let config = ThermalConfig::with_resolution(10, 10);
        let csr =
            FactorizedThermalModel::build(&config.clone().with_solver(SolverKind::Csr), die())
                .unwrap();
        assert_eq!(csr.solver_name(), "csr-mic0");
        let auto = FactorizedThermalModel::build(&config, die()).unwrap();
        assert_eq!(auto.solver_name(), "spectral-dct");
        let mut p = Grid2d::new(10, 10, die(), 0.0);
        *p.get_mut(3, 3) = 2e-3;
        *p.get_mut(7, 6) = 5e-4;
        let drift = max_drift(&csr.solve(&p).unwrap(), &auto.solve(&p).unwrap());
        assert!(drift < 1e-6, "drift {drift:.3e} K");
    }

    #[test]
    fn spectral_backend_matches_the_csr_oracle() {
        // The generated stacks are laterally homogeneous, so Auto takes
        // the DCT direct tier at every mesh size — square, nx≠ny and odd
        // meshes — and must track the CSR oracle to within the CI drift
        // budget on random power maps.
        for (nx, ny) in [(12usize, 12usize), (16, 10), (15, 9)] {
            let config = ThermalConfig::with_resolution(nx, ny);
            let auto = FactorizedThermalModel::build(&config, die()).unwrap();
            assert_eq!(auto.solver_name(), "spectral-dct", "{nx}x{ny}");
            let oracle =
                FactorizedThermalModel::build(&config.with_solver(SolverKind::Csr), die()).unwrap();
            for seed in 0..3u64 {
                let p = hashed_power(nx, ny, seed);
                let (map, stats) = auto.solve_with_stats(&p).unwrap();
                assert_eq!(stats.iterations, 1, "direct solves do not iterate");
                let drift = max_drift(&map, &oracle.solve(&p).unwrap());
                assert!(drift <= 1e-6, "{nx}x{ny} seed {seed}: drift {drift:.3e} K");
            }
        }
    }

    /// FNV-1a over the bits of the solved field and the iteration count
    /// of one `Auto` solve, the part of a solve every answer reads. The
    /// relative residual is a diagnostic of the check, not part of the
    /// answer, so it is only required within the tolerance.
    fn field_digest(model: &FactorizedThermalModel, power: &Grid2d<f64>) -> u64 {
        let (map, stats) = model.solve_with_stats(power).unwrap();
        assert!(
            stats.relative_residual <= model.config().tolerance,
            "residual {:e} above the tolerance",
            stats.relative_residual
        );
        let mut h = crate::sim::StableFnv::new();
        for &v in map.grid().values() {
            h.write_f64(v);
        }
        h.write_usize(stats.iterations);
        h.finish()
    }

    /// Golden answers of `Auto` on odd meshes, which the spectral tier
    /// answers through the Bluestein transform.
    #[test]
    fn auto_odd_mesh_models_match_their_golden_digests() {
        let cases = [
            (25usize, 0x2b4a_075a_13ad_6cb9u64),
            (21, 0xfbfc_8e11_e366_66ac),
        ];
        let mut got = Vec::new();
        for &(n, _) in &cases {
            let model = FactorizedThermalModel::build(&ThermalConfig::with_resolution(n, n), die())
                .unwrap();
            assert_eq!(model.solver_name(), "spectral-dct", "{n}x{n}");
            let field = field_digest(&model, &hashed_power(n, n, 0));
            got.push(format!("{n}x{n}: field {field:016x}"));
        }
        let want: Vec<String> = cases
            .iter()
            .map(|(n, field)| format!("{n}x{n}: field {field:016x}"))
            .collect();
        assert_eq!(got, want, "odd-mesh spectral answers moved");
    }

    /// Golden answers of `Auto` on the benchmark meshes (40² for the
    /// paper scale, 128² for the fine budget search) and an even mesh
    /// with `nx ≠ ny`, under hashed and zero power. Every mesh must give
    /// the same bits at 1 and 2 solver threads.
    #[test]
    fn auto_benchmark_mesh_models_match_their_golden_digests() {
        let cases: [(usize, usize, [u64; 2]); 3] = [
            (40, 40, [0xcc9e_b933_8e4e_c88b, 0x266c_3e66_3c75_69a4]),
            (128, 128, [0x4977_7c38_f00c_f7e5, 0x7c68_0cb9_b648_efa4]),
            (64, 48, [0x970e_7262_d9f5_03d3, 0xb831_c3f3_9024_d7a4]),
        ];
        let mut got = Vec::new();
        for &(nx, ny, _) in &cases {
            let powers = [hashed_power(nx, ny, 0), Grid2d::new(nx, ny, die(), 0.0)];
            for threads in [1usize, 2] {
                let config = ThermalConfig::with_resolution(nx, ny).with_threads(threads);
                let model = FactorizedThermalModel::build(&config, die()).unwrap();
                assert_eq!(model.solver_name(), "spectral-dct", "{nx}x{ny}");
                let digests = powers.each_ref().map(|p| field_digest(&model, p));
                got.push(format!(
                    "{nx}x{ny} t={threads}: field {:016x} {:016x}",
                    digests[0], digests[1]
                ));
            }
        }
        let want: Vec<String> = cases
            .iter()
            .flat_map(|&(nx, ny, [hashed, zero])| {
                [1usize, 2].map(|t| format!("{nx}x{ny} t={t}: field {hashed:016x} {zero:016x}"))
            })
            .collect();
        assert_eq!(got, want, "benchmark-mesh spectral answers moved");
    }

    /// The active layer of the whole-field spectral solve of `power`,
    /// from the assembled z-innermost right-hand side with every layer
    /// transformed per solve and back: the field the model answered
    /// with before it transformed back only the active layer.
    fn whole_field_active_layer(model: &FactorizedThermalModel, power: &Grid2d<f64>) -> Vec<f64> {
        let Backend::Spectral(m) = &model.backend else {
            panic!("Auto takes the spectral backend on a layered stack");
        };
        let (nx, ny, nz) = m.system.dims();
        let active = m.active_layer;
        let b = m
            .system
            .rhs_with(&injections(power, |bin| bin * nz + active));
        let planes: Vec<Vec<f64>> = (0..nz)
            .map(|iz| {
                b[..nx * ny * nz]
                    .iter()
                    .skip(iz)
                    .step_by(nz)
                    .copied()
                    .collect()
            })
            .collect();
        let rhs = SpectralRhs {
            layers: planes.iter().map(|p| RhsPlane::Values(p)).collect(),
            border: b.get(nx * ny * nz).copied(),
        };
        let (field, _) = m
            .spectral
            .solve(&m.system, &rhs, Planes::All, 1e-9, 1)
            .unwrap();
        field.plane(active).unwrap().to_vec()
    }

    #[test]
    fn active_layer_answers_are_bitwise_the_whole_fields_active_layer() {
        // The model transforms back only the active layer, builds its
        // right-hand side from the power grid and transforms one row of
        // each constant Dirichlet layer. Its answers must carry
        // the bits of the whole-field solve of the assembled right-hand
        // side: even, odd (Bluestein), nx≠ny and 1×n meshes; stacks with
        // and without a package node (border node); one layer; the
        // active layer at the bottom, in the middle and on top; hashed
        // and zero power; 1, 2 and 4 threads.
        let layers = |n: usize| -> Vec<Layer> {
            (0..n)
                .map(|i| {
                    Layer::new(
                        format!("l{i}"),
                        2.0 + 3.0 * i as f64,
                        120.0 / (1 + i) as f64,
                    )
                })
                .collect()
        };
        let mut stacks = vec![(LayerStack::c65(), "c65")];
        for (nz, active, package, name) in [
            (1usize, 0usize, 157.0, "one layer, package"),
            (1, 0, 0.0, "one layer"),
            (3, 0, 157.0, "bottom active, package"),
            (3, 1, 0.0, "middle active"),
            (3, 2, 157.0, "top active, package"),
            (3, 2, 0.0, "top active"),
        ] {
            stacks.push((
                LayerStack::new(layers(nz), active, 8.0e3, 5.0e1, package, 25.0),
                name,
            ));
        }
        for (stack, name) in stacks {
            for (nx, ny) in [(12usize, 12usize), (15, 9), (16, 10), (1, 10)] {
                let powers = [hashed_power(nx, ny, 4), Grid2d::new(nx, ny, die(), 0.0)];
                for threads in [1usize, 2, 4] {
                    let mut config = ThermalConfig::with_resolution(nx, ny).with_threads(threads);
                    config.stack = stack.clone();
                    let model = FactorizedThermalModel::build(&config, die()).unwrap();
                    assert_eq!(model.solver_name(), "spectral-dct", "{name}");
                    for (p, power) in powers.iter().enumerate() {
                        let got = model.solve(power).unwrap();
                        let want = whole_field_active_layer(&model, power);
                        for (bin, (g, w)) in got.grid().values().iter().zip(&want).enumerate() {
                            assert_eq!(
                                g.to_bits(),
                                w.to_bits(),
                                "{name} {nx}x{ny} t={threads} power {p} bin {bin}: {g} vs {w}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn failed_residual_checks_answer_from_csr() {
        // A spectral factor that no longer matches the assembled system
        // (here: factored for a wider die) fails the residual check, and
        // the model re-solves on a CSR model built once, on first need.
        let (nx, ny) = (11usize, 10usize);
        let config = ThermalConfig::with_resolution(nx, ny);
        let mut model = FactorizedThermalModel::build(&config, die()).unwrap();
        let wider = build_stencil(nx, ny, Rect::new(0.0, 0.0, 360.0, 335.0), &config.stack);
        let Backend::Spectral(m) = &mut model.backend else {
            panic!("Auto takes the spectral backend on a layered stack");
        };
        m.spectral = SpectralSystem::from_stencil(&wider).unwrap();
        assert!(
            model.fallback.get().is_none(),
            "no CSR model before a failure"
        );
        let csr =
            FactorizedThermalModel::build(&config.with_solver(SolverKind::Csr), die()).unwrap();
        for seed in 0..2u64 {
            let p = hashed_power(nx, ny, seed);
            let (map, stats) = model.solve_with_stats(&p).unwrap();
            assert!(stats.iterations > 1, "CSR iterated");
            let drift = max_drift(&map, &csr.solve(&p).unwrap());
            assert!(drift <= 1e-6, "seed {seed}: drift {drift:.3e} K");
        }
        assert!(model.fallback.get().is_some_and(Result::is_ok));
        assert_eq!(model.solver_name(), "spectral-dct");
    }

    #[test]
    fn rejects_mismatched_and_invalid_power() {
        let model =
            FactorizedThermalModel::build(&ThermalConfig::with_resolution(6, 6), die()).unwrap();
        let wrong = Grid2d::new(4, 4, die(), 0.0);
        assert!(matches!(
            model.solve(&wrong),
            Err(ThermalError::PowerGridMismatch { .. })
        ));
        let mut bad = Grid2d::new(6, 6, die(), 0.0);
        *bad.get_mut(1, 1) = f64::NAN;
        assert!(matches!(
            model.solve(&bad),
            Err(ThermalError::InvalidPower { .. })
        ));
    }

    #[test]
    fn zero_power_stays_at_ambient() {
        let model =
            FactorizedThermalModel::build(&ThermalConfig::with_resolution(6, 6), die()).unwrap();
        let map = model.solve(&Grid2d::new(6, 6, die(), 0.0)).unwrap();
        assert!(map.peak_rise().abs() < 1e-6);
    }

    #[test]
    fn simulator_factorize_round_trips() {
        let sim = ThermalSimulator::new(ThermalConfig::with_resolution(8, 8));
        let model = sim.factorize(die()).unwrap();
        assert_eq!(model.config(), sim.config());
        assert_eq!(model.die(), die());
        assert!(model.unknowns() > 0);
    }
}
