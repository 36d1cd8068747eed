//! A thermal network factorized once and re-solved against many power
//! maps.
//!
//! The conductance matrix of the paper's RC mesh depends only on the die
//! outline, the mesh resolution and the layer stack — **not** on the
//! power map. The optimization loops on top of the flow (row-count
//! bisection, budget search, scenario sweeps) evaluate dozens of power
//! maps against a handful of die geometries, so assembling and
//! preconditioning the network per solve is pure waste. A
//! [`FactorizedThermalModel`] pays that cost once per geometry and turns
//! every subsequent evaluation into a preconditioned re-solve.
//!
//! Three solver tiers sit behind the same API (selected by
//! [`SolverKind`](crate::SolverKind)); [`FactorizedThermalModel::solver_name`]
//! reports the one that answers:
//!
//! * **Spectral direct (`spectral-dct`, the `Auto` default)** — the mesh
//!   is a pure 7-point stencil and every generated stack is laterally
//!   homogeneous, so whenever both lateral sizes admit a cosine
//!   transform (1 or even) [`spicenet::FactorizedStencil::with_spectral`]
//!   solves it directly: one transform plus a Thomas sweep per lateral
//!   mode, accepted only after a residual check.
//! * **Structured multigrid (`stencil-multigrid`)** — an
//!   indirection-free fused stencil matvec preconditioned by a geometric
//!   multigrid V-cycle, with near-mesh-independent iteration counts.
//!   `Auto` falls back to it on odd meshes (with a spectral coarse-grid
//!   solve when the coarsest grid is even); forced `Stencil` always
//!   takes it, as the spectral-free drift oracle.
//! * **CSR (`csr-mic0`)** — the general [`spicenet::FactorizedCircuit`]
//!   path (Dirichlet reduction + MIC(0)-preconditioned CG), kept as the
//!   fallback for irregular geometries and as the cross-check oracle the
//!   property tests pin the structured path against (≤ 1e-6 K).

use geom::{Grid2d, Rect};
use spicenet::{FactorizedCircuit, FactorizedStencil, NodeId, SolveOptions, SolveStats};

use crate::network::{build_geometry, validate_power, EmitSystem};
use crate::{GridSpec, SolverKind, ThermalConfig, ThermalError, ThermalMap};

/// Serializable description of one factorized model — solver backend,
/// problem size, multigrid depth and the stable content fingerprint of
/// its inputs. A result cache persists this next to the answers the
/// model produced, so on-disk entries remain auditable (and keyable)
/// without holding the factorization itself.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ModelMeta {
    /// Backend name (`"spectral-dct"`, `"stencil-multigrid"` or
    /// `"csr-mic0"`).
    pub solver: String,
    /// Lateral mesh extent.
    pub nx: usize,
    /// Lateral mesh extent.
    pub ny: usize,
    /// Vertical layers.
    pub nz: usize,
    /// Unknowns of the linear system actually solved.
    pub unknowns: usize,
    /// Multigrid hierarchy depth (0 on the CSR backend).
    pub multigrid_levels: usize,
    /// Stable content hash of (thermal config, die outline) — matches
    /// across processes, unlike `DefaultHasher` output.
    pub fingerprint: u64,
}

/// The solver backend of a factorized model.
#[derive(Debug)]
enum Backend {
    /// Structured stencil matvec + geometric multigrid PCG. Both
    /// variants are boxed: the factorizations are hundreds of bytes of
    /// inline state and the enum would otherwise carry the larger one
    /// everywhere.
    Stencil(Box<FactorizedStencil>),
    /// General CSR + MIC(0) PCG (fallback and cross-check oracle).
    Csr(Box<FactorizedCircuit>),
}

/// The geometry-dependent half of a thermal solve, computed once: the
/// assembled and preconditioned conductance system plus the active-layer
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
    /// Active-layer node ids in `iy·nx + ix` order (CSR addressing;
    /// empty on the stencil backend, which addresses cells
    /// arithmetically).
    active_nodes: Vec<NodeId>,
    /// Mesh layers (the stencil's z extent).
    nz: usize,
    /// Power-dissipating layer index.
    active_layer: usize,
}

impl FactorizedThermalModel {
    /// Assembles, reduces and preconditions the network for `die` under
    /// `config`, once.
    ///
    /// # Errors
    ///
    /// Propagates circuit-construction and factorization failures.
    pub fn build(config: &ThermalConfig, die: Rect) -> Result<Self, ThermalError> {
        let GridSpec { nx, ny } = config.grid;
        // Assemble only the representation the selected backend keeps —
        // the other one's build cost (notably ~150k interned node names
        // for a 128×128×9 circuit) is never paid.
        let emit = match config.solver {
            SolverKind::Auto | SolverKind::Stencil | SolverKind::Spectral => EmitSystem::Stencil,
            SolverKind::Csr => EmitSystem::Circuit,
        };
        let network = build_geometry(nx, ny, die, &config.stack, emit)?;
        let options = SolveOptions {
            tolerance: config.tolerance,
            threads: config.threads,
            ..Default::default()
        };
        let backend = match config.solver {
            SolverKind::Csr => Backend::Csr(Box::new(
                network
                    .circuit
                    .expect("circuit emitted")
                    .factorize(options)
                    .map_err(ThermalError::Solve)?,
            )),
            kind => {
                let sys = network.stencil.expect("stencil system emitted");
                // Auto composes the tiers: spectral direct when the
                // stack qualifies, multigrid otherwise. Forced `Stencil`
                // stays the spectral-free drift oracle.
                let factored = if kind == SolverKind::Stencil {
                    FactorizedStencil::new(sys, options)
                } else {
                    FactorizedStencil::with_spectral(sys, options)
                };
                Backend::Stencil(Box::new(factored.map_err(ThermalError::Solve)?))
            }
        };
        Ok(FactorizedThermalModel {
            config: config.clone(),
            die,
            backend,
            active_nodes: network.active_nodes,
            nz: config.stack.layers().len(),
            active_layer: config.stack.active_layer(),
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
            Backend::Stencil(f) => f.unknowns(),
            Backend::Csr(f) => f.reduced_dim(),
        }
    }

    /// Human-readable name of the active solver backend.
    pub fn solver_name(&self) -> &'static str {
        match &self.backend {
            Backend::Stencil(f) if f.spectral_direct() => "spectral-dct",
            Backend::Stencil(_) => "stencil-multigrid",
            Backend::Csr(_) => "csr-mic0",
        }
    }

    /// `true` when the model runs the structured stencil path.
    pub fn is_structured(&self) -> bool {
        matches!(self.backend, Backend::Stencil(_))
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

    /// The model's serializable metadata (see [`ModelMeta`]).
    pub fn meta(&self) -> ModelMeta {
        ModelMeta {
            solver: self.solver_name().to_string(),
            nx: self.config.grid.nx,
            ny: self.config.grid.ny,
            nz: self.nz,
            unknowns: self.unknowns(),
            multigrid_levels: match &self.backend {
                Backend::Stencil(f) => f.multigrid_levels(),
                Backend::Csr(_) => 0,
            },
            fingerprint: self.stable_fingerprint(),
        }
    }

    /// Grid-cell index of an active-layer bin (stencil addressing).
    fn grid_cell(&self, bin: usize) -> usize {
        bin * self.nz + self.active_layer
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
        let mut grid = Grid2d::new(nx, ny, self.die, 0.0);
        let stats = match &self.backend {
            Backend::Stencil(f) => {
                let mut injections = Vec::with_capacity(nx * ny);
                for iy in 0..ny {
                    for ix in 0..nx {
                        let watts = *power.get(ix, iy);
                        if watts > 0.0 {
                            injections.push((self.grid_cell(iy * nx + ix), watts));
                        }
                    }
                }
                let (temps, stats) = f
                    .solve_injections_stats(&injections)
                    .map_err(ThermalError::Solve)?;
                for iy in 0..ny {
                    for ix in 0..nx {
                        *grid.get_mut(ix, iy) = temps[self.grid_cell(iy * nx + ix)];
                    }
                }
                stats
            }
            Backend::Csr(f) => {
                let mut injections = Vec::with_capacity(nx * ny);
                for iy in 0..ny {
                    for ix in 0..nx {
                        let watts = *power.get(ix, iy);
                        if watts > 0.0 {
                            injections.push((self.active_nodes[iy * nx + ix], watts));
                        }
                    }
                }
                let (volts, stats) = f
                    .solve_injections_stats(&injections)
                    .map_err(ThermalError::Solve)?;
                for iy in 0..ny {
                    for ix in 0..nx {
                        *grid.get_mut(ix, iy) = volts[self.active_nodes[iy * nx + ix].index()];
                    }
                }
                stats
            }
        };
        #[cfg(feature = "paranoid")]
        Self::check_rise_field(
            "solved temperature field",
            grid.values(),
            self.config.tolerance,
        );
        Ok((ThermalMap::new(grid, self.config.stack.ambient_c), stats))
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
    use crate::{SolverKind, ThermalSimulator};

    fn die() -> Rect {
        Rect::new(0.0, 0.0, 335.0, 335.0)
    }

    #[test]
    fn matches_the_simulator_on_a_hotspot_map() {
        let config = ThermalConfig::with_resolution(12, 12);
        let sim = ThermalSimulator::new(config.clone());
        let model = FactorizedThermalModel::build(&config, die()).unwrap();
        assert!(model.is_structured(), "Auto selects the stencil path");
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
    fn forced_csr_backend_matches_the_structured_default() {
        let config = ThermalConfig::with_resolution(10, 10);
        let csr =
            FactorizedThermalModel::build(&config.clone().with_solver(SolverKind::Csr), die())
                .unwrap();
        assert!(!csr.is_structured());
        assert_eq!(csr.solver_name(), "csr-mic0");
        let stencil =
            FactorizedThermalModel::build(&config.with_solver(SolverKind::Stencil), die()).unwrap();
        assert_eq!(stencil.solver_name(), "stencil-multigrid");
        let mut p = Grid2d::new(10, 10, die(), 0.0);
        *p.get_mut(3, 3) = 2e-3;
        *p.get_mut(7, 6) = 5e-4;
        let a = csr.solve(&p).unwrap();
        let b = stencil.solve(&p).unwrap();
        for ((_, x), (_, y)) in a.grid().iter().zip(b.grid().iter()) {
            assert!((x - y).abs() < 1e-6, "{x} vs {y}");
        }
    }

    #[test]
    fn spectral_backend_matches_the_multigrid_oracle() {
        // The generated stacks are laterally homogeneous, so Auto (and
        // the explicit Spectral kind) take the DCT direct tier; forced
        // Stencil remains the spectral-free oracle it must track to
        // within the CI drift budget — square and nx≠ny meshes, random
        // power maps.
        for (nx, ny) in [(12usize, 12usize), (16, 10)] {
            let config = ThermalConfig::with_resolution(nx, ny);
            let auto = FactorizedThermalModel::build(&config, die()).unwrap();
            assert_eq!(auto.solver_name(), "spectral-dct", "{nx}x{ny}");
            assert!(auto.is_structured());
            let forced = FactorizedThermalModel::build(
                &config.clone().with_solver(SolverKind::Spectral),
                die(),
            )
            .unwrap();
            assert_eq!(forced.solver_name(), "spectral-dct");
            let oracle =
                FactorizedThermalModel::build(&config.with_solver(SolverKind::Stencil), die())
                    .unwrap();
            assert_eq!(oracle.solver_name(), "stencil-multigrid");
            for seed in 0..3u64 {
                let mut p = Grid2d::new(nx, ny, die(), 0.0);
                for iy in 0..ny {
                    for ix in 0..nx {
                        // Deterministic pseudo-random power in [0, 4e-4).
                        let h = (seed * 1_000_003)
                            .wrapping_add((iy * nx + ix) as u64)
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        *p.get_mut(ix, iy) = (h >> 40) as f64 / (1u64 << 24) as f64 * 4e-4;
                    }
                }
                let a = auto.solve(&p).unwrap();
                let f = forced.solve(&p).unwrap();
                let o = oracle.solve(&p).unwrap();
                for (((_, x), (_, y)), (_, w)) in
                    a.grid().iter().zip(f.grid().iter()).zip(o.grid().iter())
                {
                    assert_eq!(x.to_bits(), y.to_bits(), "Auto and Spectral agree exactly");
                    assert!((x - w).abs() <= 1e-6, "{nx}x{ny} seed {seed}: {x} vs {w}");
                }
            }
        }
    }

    /// Golden answers of the only production multigrid paths: `Auto` on
    /// odd meshes, where the spectral direct tier does not apply. 25×25
    /// semi-coarsens to an even 4×4 coarsest grid (spectral coarse
    /// solve); 21×21 bottoms out at 3×3 (dense Cholesky). The digest is
    /// FNV-1a over the bits of the solved field, the iteration count and
    /// the relative residual.
    #[test]
    fn auto_multigrid_models_match_their_golden_digests() {
        let cases = [
            (25usize, true, 0xaedb_d017_54dd_7b54u64),
            (21, false, 0xdc3b_0478_816a_53f8),
        ];
        let mut got = Vec::new();
        for &(n, spectral_coarse, _) in &cases {
            let model = FactorizedThermalModel::build(&ThermalConfig::with_resolution(n, n), die())
                .unwrap();
            assert_eq!(model.solver_name(), "stencil-multigrid", "{n}x{n}");
            let Backend::Stencil(f) = &model.backend else {
                panic!("{n}x{n}: Auto builds the stencil backend");
            };
            assert_eq!(f.spectral_coarse(), spectral_coarse, "{n}x{n}");
            let mut p = Grid2d::new(n, n, die(), 0.0);
            for iy in 0..n {
                for ix in 0..n {
                    let h = ((iy * n + ix) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    *p.get_mut(ix, iy) = (h >> 40) as f64 / (1u64 << 24) as f64 * 4e-4;
                }
            }
            let (map, stats) = model.solve_with_stats(&p).unwrap();
            assert!(stats.iterations > 1, "{n}x{n}: multigrid iterated");
            let mut h = crate::sim::StableFnv::new();
            for &v in map.grid().values() {
                h.write_f64(v);
            }
            h.write_usize(stats.iterations);
            h.write_f64(stats.relative_residual);
            got.push(format!("{n}x{n}: {:016x}", h.finish()));
        }
        let want: Vec<String> = cases
            .iter()
            .map(|(n, _, digest)| format!("{n}x{n}: {digest:016x}"))
            .collect();
        assert_eq!(got, want, "multigrid answers moved");
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

#[cfg(test)]
mod iter_probe {
    use super::*;

    #[test]
    #[ignore]
    fn print_iteration_counts() {
        for n in [20usize, 40, 80, 128] {
            let die = Rect::new(0.0, 0.0, 373.5, 375.3);
            for solver in [SolverKind::Stencil, SolverKind::Csr] {
                if solver == SolverKind::Csr && n > 80 {
                    continue;
                }
                let config = ThermalConfig::with_resolution(n, n).with_solver(solver);
                let built = std::time::Instant::now();
                let model = FactorizedThermalModel::build(&config, die).unwrap();
                let build_ms = built.elapsed().as_secs_f64() * 1e3;
                let mut power = geom::Grid2d::new(n, n, die, 1e-6);
                *power.get_mut(n / 2, n / 2) = 2e-3;
                let solve = std::time::Instant::now();
                let (_, stats) = model.solve_with_stats(&power).unwrap();
                let solve_ms = solve.elapsed().as_secs_f64() * 1e3;
                println!(
                    "{n}x{n}x9 [{}]: build {build_ms:.1} ms, solve {solve_ms:.2} ms, \
                     {} iterations, residual {:.2e}, unknowns {}",
                    model.solver_name(),
                    stats.iterations,
                    stats.relative_residual,
                    model.unknowns()
                );
            }
        }
    }
}
