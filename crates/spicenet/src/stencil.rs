//! Structured description of regular 7-point resistive meshes.
//!
//! The thermal network of the paper is a pure finite-volume stencil on a
//! regular `nx × ny × nz` grid: every cell couples to at most six
//! neighbours, the coupling conductances are known per axis, and the
//! Dirichlet (ambient) boundary folds into the diagonal and the
//! right-hand side. Squeezing that system through a general CSR matrix
//! pays index indirection for structure the matrix never had to store.
//!
//! This module keeps the structure explicit:
//!
//! * [`StencilOperator`] — the grid block: per-axis coupling-coefficient
//!   arrays over a dense z-innermost layout with a fused, indirection-free
//!   matvec;
//! * [`StencilSystem`] — the full SPD system: the grid block plus an
//!   optional *border node* (the shared package-resistance node every
//!   bottom-layer cell couples into) and the Dirichlet-folded RHS.
//!
//! A laterally homogeneous system is solved directly by
//! [`crate::SpectralSystem`], whose residual check runs the matvec here;
//! everything else goes through [`crate::FactorizedCircuit`].

/// The grid block of a 7-point stencil system: coupling conductances to
/// the `+x`/`+y`/`+z` neighbour per cell (zero on the high boundary),
/// plus per-cell *leak* conductance into eliminated (Dirichlet or border)
/// nodes, which contributes to the diagonal only.
///
/// Cells are stored z-innermost: cell `(ix, iy, iz)` lives at index
/// `(iy·nx + ix)·nz + iz`, so each vertical column is contiguous — the
/// layout the strong vertical couplings want.
///
/// # Examples
///
/// ```
/// use spicenet::StencilOperator;
///
/// // A 2×1×2 grid: lateral coupling 1.0 on both layers, vertical 2.0,
/// // and a unit leak out of every cell.
/// let op = StencilOperator::from_layers(2, 1, &[1.0, 1.0], &[1.0, 1.0], &[2.0], 1.0, 0.0);
/// let y = op.mul_vec(&[1.0, 0.0, 0.0, 0.0]);
/// assert_eq!(y[0], 4.0); // diag = leak 1 + gx 1 + gz 2
/// assert_eq!(y[1], -2.0); // vertical neighbour
/// assert_eq!(y[2], -1.0); // lateral neighbour
/// ```
#[derive(Debug, Clone)]
pub struct StencilOperator {
    pub(crate) nx: usize,
    pub(crate) ny: usize,
    pub(crate) nz: usize,
    /// Coupling to the `+x` neighbour (`i ↔ i + nz`); zero at `ix = nx−1`.
    pub(crate) gx: Vec<f64>,
    /// Coupling to the `+y` neighbour (`i ↔ i + nx·nz`); zero at `iy = ny−1`.
    pub(crate) gy: Vec<f64>,
    /// Coupling to the `+z` neighbour (`i ↔ i + 1`); zero at `iz = nz−1`.
    pub(crate) gz: Vec<f64>,
    /// Conductance into eliminated nodes (diagonal-only contribution).
    pub(crate) leak: Vec<f64>,
    /// Precomputed diagonal: `leak + Σ incident couplings`.
    diag: Vec<f64>,
}

impl StencilOperator {
    /// Builds an operator from per-cell coupling arrays (each of length
    /// `nx·ny·nz`, z-innermost). High-boundary entries of the coupling
    /// arrays are forced to zero; the diagonal is derived.
    ///
    /// # Panics
    ///
    /// Panics on zero dimensions, mismatched array lengths, or negative /
    /// non-finite conductances.
    pub fn new(
        nx: usize,
        ny: usize,
        nz: usize,
        mut gx: Vec<f64>,
        mut gy: Vec<f64>,
        mut gz: Vec<f64>,
        leak: Vec<f64>,
    ) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "stencil dimensions");
        let n = nx * ny * nz;
        assert!(
            gx.len() == n && gy.len() == n && gz.len() == n && leak.len() == n,
            "coefficient array length"
        );
        for v in gx.iter().chain(&gy).chain(&gz).chain(&leak) {
            assert!(v.is_finite() && *v >= 0.0, "conductances are ≥ 0");
        }
        let sy = nx * nz;
        for iy in 0..ny {
            for ix in 0..nx {
                let base = (iy * nx + ix) * nz;
                gz[base + nz - 1] = 0.0;
                if ix + 1 == nx {
                    gx[base..base + nz].fill(0.0);
                }
                if iy + 1 == ny {
                    gy[base..base + nz].fill(0.0);
                }
            }
        }
        let mut diag = leak.clone();
        for i in 0..n {
            diag[i] += gx[i] + gy[i] + gz[i];
            if i >= 1 && (i % nz) != 0 {
                diag[i] += gz[i - 1];
            }
            if !(i / nz).is_multiple_of(nx) {
                diag[i] += gx[i - nz];
            }
            if i >= sy {
                diag[i] += gy[i - sy];
            }
        }
        let op = StencilOperator {
            nx,
            ny,
            nz,
            gx,
            gy,
            gz,
            leak,
            diag,
        };
        // Assembly-time tripwire: the 7-point stencil must assemble to a
        // symmetric positive-definite operator; a one-sided coupling
        // update or sign slip trips the probe immediately instead of
        // surfacing as a mysteriously stalled CG much later.
        #[cfg(feature = "paranoid")]
        crate::paranoid::spot_check_spd("assembled stencil operator", n, |v| {
            let mut out = vec![0.0; v.len()];
            op.apply_into(v, &mut out);
            out
        });
        op
    }

    /// Builds an operator whose coefficients are uniform per z-layer —
    /// the shape the layered thermal mesh produces: `gx_layers[iz]` /
    /// `gy_layers[iz]` couple lateral neighbours within layer `iz`,
    /// `gz_interfaces[iz]` couples layers `iz ↔ iz+1`, and the bottom /
    /// top layers leak `leak_bottom` / `leak_top` per cell.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent layer-array lengths or invalid values.
    pub fn from_layers(
        nx: usize,
        ny: usize,
        gx_layers: &[f64],
        gy_layers: &[f64],
        gz_interfaces: &[f64],
        leak_bottom: f64,
        leak_top: f64,
    ) -> Self {
        let nz = gx_layers.len();
        assert!(nz > 0, "at least one layer");
        assert_eq!(gy_layers.len(), nz, "gy layer count");
        assert_eq!(gz_interfaces.len(), nz.saturating_sub(1), "interface count");
        let n = nx * ny * nz;
        let mut gx = vec![0.0; n];
        let mut gy = vec![0.0; n];
        let mut gz = vec![0.0; n];
        let mut leak = vec![0.0; n];
        for col in 0..nx * ny {
            let base = col * nz;
            for iz in 0..nz {
                gx[base + iz] = gx_layers[iz];
                gy[base + iz] = gy_layers[iz];
                if iz + 1 < nz {
                    gz[base + iz] = gz_interfaces[iz];
                }
            }
            leak[base] += leak_bottom;
            leak[base + nz - 1] += leak_top;
        }
        StencilOperator::new(nx, ny, nz, gx, gy, gz, leak)
    }

    /// Cells along x.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Cells along y.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Cells along z.
    pub fn nz(&self) -> usize {
        self.nz
    }

    /// Total cell count `nx·ny·nz`.
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// `true` when the grid has no cells (never — dimensions are
    /// validated positive — but clippy insists `len` has a companion).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `y = A·x` — the fused 7-point matvec: one linear pass over the
    /// coefficient arrays, neighbour accesses at fixed strides, no index
    /// indirection. This is the structured replacement for
    /// [`crate::CsrMatrix::mul_vec`] on grid systems.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.len()];
        self.apply_into(x, &mut y);
        y
    }

    /// `y = A·x` into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        let n = self.len();
        assert_eq!(x.len(), n, "dimension mismatch");
        assert_eq!(y.len(), n, "dimension mismatch");
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let sx = nz;
        let sy = nx * nz;
        for iy in 0..ny {
            for ix in 0..nx {
                let base = (iy * nx + ix) * nz;
                for iz in 0..nz {
                    let i = base + iz;
                    let mut acc = self.diag[i] * x[i];
                    if iz + 1 < nz {
                        acc -= self.gz[i] * x[i + 1];
                    }
                    if iz > 0 {
                        acc -= self.gz[i - 1] * x[i - 1];
                    }
                    if ix + 1 < nx {
                        acc -= self.gx[i] * x[i + sx];
                    }
                    if ix > 0 {
                        acc -= self.gx[i - sx] * x[i - sx];
                    }
                    if iy + 1 < ny {
                        acc -= self.gy[i] * x[i + sy];
                    }
                    if iy > 0 {
                        acc -= self.gy[i - sy] * x[i - sy];
                    }
                    y[i] = acc;
                }
            }
        }
    }
}

/// The shared package node of a [`StencilSystem`]: one extra unknown
/// every bottom-layer cell couples into with the same conductance, which
/// itself reaches the pinned ambient through the package resistance.
#[derive(Debug, Clone)]
pub(crate) struct BorderNode {
    /// Conductance between the border node and each bottom-layer cell.
    pub(crate) coupling: f64,
    /// Precomputed diagonal: `coupling · nx·ny + 1/R_package`.
    pub(crate) diag: f64,
    /// Dirichlet RHS contribution: `ambient / R_package`.
    pub(crate) rhs: f64,
}

/// Description of a layered 7-point stencil system, as emitted by the
/// thermal mesh builder: per-layer lateral conductances, per-interface
/// vertical conductances, boundary film conductances, the Dirichlet
/// (ambient) value they fold against, and an optional shared package
/// resistance behind the bottom face.
#[derive(Debug, Clone)]
pub struct LayeredStencilSpec<'a> {
    /// Lateral cells along x.
    pub nx: usize,
    /// Lateral cells along y.
    pub ny: usize,
    /// Per-layer x-neighbour coupling conductance, bottom layer first.
    pub gx_layers: &'a [f64],
    /// Per-layer y-neighbour coupling conductance, bottom layer first.
    pub gy_layers: &'a [f64],
    /// Per-interface vertical conductance (`iz ↔ iz+1`), length `nz−1`.
    pub gz_interfaces: &'a [f64],
    /// Per-cell conductance out of the bottom face.
    pub g_bottom: f64,
    /// Per-cell conductance out of the top face (straight to ambient).
    pub g_top: f64,
    /// The pinned ambient value (temperature, in the thermal analogy).
    pub ambient: f64,
    /// Shared package resistance between the bottom face and ambient;
    /// `0` ties the bottom face straight to ambient (no border node).
    pub package_resistance: f64,
}

/// A complete SPD stencil system: grid block, optional border node, and
/// the Dirichlet-folded right-hand side. This is what
/// `thermalsim::build_geometry` emits alongside the equivalent
/// [`crate::Circuit`] and what [`crate::SpectralSystem`] factors.
#[derive(Debug, Clone)]
pub struct StencilSystem {
    pub(crate) op: StencilOperator,
    pub(crate) border: Option<BorderNode>,
    /// Dirichlet contributions, length [`StencilSystem::unknowns`] (the
    /// border slot last when present).
    fixed_rhs: Vec<f64>,
}

impl StencilSystem {
    /// Assembles the system for a layered mesh.
    ///
    /// # Panics
    ///
    /// Panics on non-positive boundary conductances, a negative package
    /// resistance, or inconsistent layer arrays (see
    /// [`StencilOperator::from_layers`]).
    pub fn layered(spec: &LayeredStencilSpec<'_>) -> Self {
        assert!(
            spec.g_bottom > 0.0 && spec.g_top > 0.0,
            "boundary conductances are positive"
        );
        assert!(
            spec.package_resistance >= 0.0 && spec.package_resistance.is_finite(),
            "package resistance is ≥ 0"
        );
        let op = StencilOperator::from_layers(
            spec.nx,
            spec.ny,
            spec.gx_layers,
            spec.gy_layers,
            spec.gz_interfaces,
            spec.g_bottom,
            spec.g_top,
        );
        let (nx, ny, nz) = (op.nx, op.ny, op.nz);
        let border = (spec.package_resistance > 0.0).then(|| BorderNode {
            coupling: spec.g_bottom,
            diag: spec.g_bottom * (nx * ny) as f64 + 1.0 / spec.package_resistance,
            rhs: spec.ambient / spec.package_resistance,
        });
        let mut fixed_rhs = vec![0.0; op.len() + usize::from(border.is_some())];
        for col in 0..nx * ny {
            let base = col * nz;
            fixed_rhs[base + nz - 1] += spec.g_top * spec.ambient;
            if border.is_none() {
                fixed_rhs[base] += spec.g_bottom * spec.ambient;
            }
        }
        if let Some(b) = &border {
            fixed_rhs[op.len()] = b.rhs;
        }
        StencilSystem {
            op,
            border,
            fixed_rhs,
        }
    }

    /// The grid block.
    pub fn operator(&self) -> &StencilOperator {
        &self.op
    }

    /// This system with its grid block replaced by `op` — same border
    /// node and Dirichlet right-hand side. Builds the non-layered
    /// systems (wrapper rings, local conductance changes) the layered
    /// assembler cannot express.
    ///
    /// # Panics
    ///
    /// Panics when `op`'s dimensions differ from the current grid's.
    pub fn with_operator(mut self, op: StencilOperator) -> StencilSystem {
        assert_eq!(
            (op.nx, op.ny, op.nz),
            (self.op.nx, self.op.ny, self.op.nz),
            "replacement operator dimensions"
        );
        self.op = op;
        self
    }

    /// Grid cells (excluding the border node).
    pub fn grid_cells(&self) -> usize {
        self.op.len()
    }

    /// Total unknowns: grid cells plus the border node when present.
    pub fn unknowns(&self) -> usize {
        self.op.len() + usize::from(self.border.is_some())
    }

    /// The full right-hand side for one solve: the Dirichlet
    /// contributions with `injections` (grid-cell index, amps) added.
    /// Length [`StencilSystem::unknowns`], the border slot last.
    ///
    /// # Panics
    ///
    /// Panics if an injection names a cell outside the grid.
    pub fn rhs_with(&self, injections: &[(usize, f64)]) -> Vec<f64> {
        let ng = self.grid_cells();
        let mut rhs = self.fixed_rhs.clone();
        for &(cell, amps) in injections {
            assert!(cell < ng, "injection into a foreign cell");
            rhs[cell] += amps;
        }
        rhs
    }

    /// `y = A·x` over every unknown: the grid block, then the border
    /// node's column and row when present.
    pub(crate) fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        let ng = self.op.len();
        self.op.apply_into(&x[..ng], &mut y[..ng]);
        if let Some(b) = &self.border {
            let nx = self.op.nx;
            let nz = self.op.nz;
            let row_len = nx * nz;
            let xb = x[ng];
            // The bottom-face sum is accumulated per lateral row and the
            // row partials folded in row order.
            let mut sum = 0.0;
            for (row_x, row_y) in x[..ng]
                .chunks_exact(row_len)
                .zip(y[..ng].chunks_exact_mut(row_len))
            {
                let mut row_sum = 0.0;
                for ix in 0..nx {
                    row_sum += row_x[ix * nz];
                }
                sum += row_sum;
                for cell in row_y.chunks_exact_mut(nz) {
                    cell[0] -= b.coupling * xb;
                }
            }
            y[ng] = b.diag * xb - b.coupling * sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CsrMatrix, SolveOptions, SolveStats, SpectralSystem};

    /// A small layered spec with contrastive coefficients (mimicking the
    /// thermal stack's thin conductive + resistive layers).
    fn spec(nx: usize, ny: usize) -> LayeredStencilSpec<'static> {
        LayeredStencilSpec {
            nx,
            ny,
            gx_layers: &[6e-5, 4.8e-4, 4.8e-4, 2.4e-5],
            gy_layers: &[6e-5, 5.2e-4, 5.2e-4, 3.0e-5],
            gz_interfaces: &[1.2e-4, 2.6e-3, 3.1e-4],
            g_bottom: 7e-7,
            g_top: 4e-9,
            ambient: 25.0,
            package_resistance: 157.0,
        }
    }

    /// Expands a stencil system into CSR triplets (the oracle pattern).
    fn to_csr(sys: &StencilSystem) -> CsrMatrix {
        let op = sys.operator();
        let (nx, ny, nz) = (op.nx(), op.ny(), op.nz());
        let n = sys.unknowns();
        let ng = op.len();
        let sx = nz;
        let sy = nx * nz;
        let mut t = Vec::new();
        for i in 0..ng {
            t.push((i, i, op.diag[i]));
            if op.gz[i] != 0.0 {
                t.push((i, i + 1, -op.gz[i]));
                t.push((i + 1, i, -op.gz[i]));
            }
            if op.gx[i] != 0.0 {
                t.push((i, i + sx, -op.gx[i]));
                t.push((i + sx, i, -op.gx[i]));
            }
            if op.gy[i] != 0.0 {
                t.push((i, i + sy, -op.gy[i]));
                t.push((i + sy, i, -op.gy[i]));
            }
        }
        if let Some(b) = &sys.border {
            t.push((ng, ng, b.diag));
            for col in 0..nx * ny {
                t.push((ng, col * nz, -b.coupling));
                t.push((col * nz, ng, -b.coupling));
            }
        }
        CsrMatrix::from_triplets(n, &t)
    }

    /// The verified spectral solve of `sys` against `injections` at the
    /// default tolerance.
    fn spectral_solve(
        sys: &StencilSystem,
        injections: &[(usize, f64)],
        threads: usize,
    ) -> (Vec<f64>, SolveStats) {
        let sp = SpectralSystem::from_stencil(sys).expect("layered stacks qualify");
        sp.solve_checked(
            sys,
            &sys.rhs_with(injections),
            SolveOptions::default().tolerance,
            threads,
        )
        .unwrap()
    }

    /// Oracle: MIC(0)-preconditioned CG on the CSR expansion of `sys`
    /// at tight tolerance.
    fn csr_oracle(sys: &StencilSystem, injections: &[(usize, f64)]) -> Vec<f64> {
        let csr = to_csr(sys);
        let rhs = sys.rhs_with(injections);
        let precond = crate::sparse::Preconditioner::best(&csr);
        let (want, _, _) =
            crate::sparse::preconditioned_cg(&csr, &rhs, 1e-12, 20 * csr.n(), &precond).unwrap();
        want
    }

    #[test]
    fn stencil_matvec_matches_csr_matvec_elementwise() {
        for (nx, ny) in [(5, 7), (8, 8), (1, 6), (3, 1)] {
            let sys = StencilSystem::layered(&spec(nx, ny));
            let csr = to_csr(&sys);
            let n = sys.unknowns();
            let x: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 19) as f64 - 9.0).collect();
            let mut want = vec![0.0; n];
            csr.mul_vec_into(&x, &mut want);
            let mut got = vec![0.0; n];
            sys.apply_into(&x, &mut got);
            for i in 0..n {
                assert!(
                    (got[i] - want[i]).abs() <= 1e-12 * want[i].abs().max(1.0),
                    "{nx}x{ny} cell {i}: stencil {} vs csr {}",
                    got[i],
                    want[i]
                );
            }
        }
    }

    #[test]
    fn spectral_solve_matches_csr_mic0_cg() {
        // Even, odd and strongly rectangular meshes: the direct solve
        // lands on the CSR oracle's answer without iterating.
        for (nx, ny) in [(12, 12), (9, 13), (28, 4)] {
            let sys = StencilSystem::layered(&spec(nx, ny));
            // A scattered injection pattern at the top layer.
            let nz = sys.operator().nz();
            let injections: Vec<(usize, f64)> = (0..nx * ny)
                .step_by(5)
                .map(|col| (col * nz + nz - 1, 1e-4 * (1.0 + (col % 7) as f64)))
                .collect();
            let (got, stats) = spectral_solve(&sys, &injections, 1);
            assert_eq!(stats.iterations, 1, "direct solves do not iterate");
            let want = csr_oracle(&sys, &injections);
            for i in 0..got.len() {
                assert!(
                    (got[i] - want[i]).abs() < 1e-6,
                    "{nx}x{ny} cell {i}: spectral {} vs csr {}",
                    got[i],
                    want[i]
                );
            }
        }
    }

    #[test]
    fn with_spectral_takes_the_direct_path_on_homogeneous_systems() {
        // A uniform layered stack qualifies: the verified direct solve
        // answers it (a failed residual check would be an error here),
        // and the result stays within the oracle drift budget.
        for (nx, ny) in [(12usize, 12usize), (16, 12)] {
            let sys = StencilSystem::layered(&spec(nx, ny));
            assert!(
                SpectralSystem::from_stencil(&sys).is_some(),
                "{nx}x{ny} qualifies"
            );
            let nz = sys.operator().nz();
            let injections: Vec<(usize, f64)> = (0..nx * ny)
                .step_by(3)
                .map(|col| (col * nz + nz - 1, 2e-4 * (1.0 + (col % 7) as f64)))
                .collect();
            let (xd, stats) = spectral_solve(&sys, &injections, 1);
            assert_eq!(stats.iterations, 1, "direct solves do not iterate");
            assert!(stats.relative_residual <= SolveOptions::default().tolerance);
            let xo = csr_oracle(&sys, &injections);
            let drift = xd
                .iter()
                .zip(&xo)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(
                drift <= 1e-6,
                "{nx}x{ny}: spectral-vs-CSR drift {drift:.3e} K"
            );
        }
    }

    #[test]
    fn no_package_resistance_means_no_border_node() {
        let mut s = spec(5, 5);
        s.package_resistance = 0.0;
        let sys = StencilSystem::layered(&s);
        assert_eq!(sys.unknowns(), sys.grid_cells());
        let (warm, _) = spectral_solve(&sys, &[(0, 1e-3)], 1);
        assert!(warm[0] > 25.0);
    }

    #[test]
    fn zero_injections_settle_at_ambient() {
        let sys = StencilSystem::layered(&spec(6, 6));
        let (temps, _) = spectral_solve(&sys, &[], 1);
        for (i, &t) in temps.iter().enumerate() {
            assert!((t - 25.0).abs() < 1e-6, "cell {i}: {t}");
        }
    }

    /// Asserts the verified spectral solve of `sys` is bit-identical at
    /// 1, 2 and 4 threads: solution and relative residual.
    fn assert_thread_count_bit_identity(sys: &StencilSystem, label: &str) {
        let op = sys.operator();
        let nz = op.nz();
        let injections: Vec<(usize, f64)> = (0..op.nx() * op.ny())
            .step_by(4)
            .map(|col| (col * nz + nz - 1, 1e-4 * (1.0 + (col % 5) as f64)))
            .collect();
        let (x1, s1) = spectral_solve(sys, &injections, 1);
        for threads in [2usize, 4] {
            let (x, stats) = spectral_solve(sys, &injections, threads);
            assert_eq!(
                s1.relative_residual.to_bits(),
                stats.relative_residual.to_bits(),
                "{label} t={threads}: residual drifted"
            );
            for (i, (g, w)) in x.iter().zip(&x1).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{label} t={threads}: entry {i} drifted ({g} vs {w})"
                );
            }
        }
    }

    #[test]
    fn threaded_solves_are_bit_identical_across_thread_counts() {
        // The determinism contract behind `Flow::content_key`: the same
        // verified solve at 1, 2 and 4 threads must agree to the last
        // bit — odd meshes (the Bluestein transform), with and without a
        // border node.
        for (nx, ny, border) in [(9, 13, true), (16, 7, false), (25, 25, true)] {
            let mut s = spec(nx, ny);
            if !border {
                s.package_resistance = 0.0;
            }
            let sys = StencilSystem::layered(&s);
            assert_thread_count_bit_identity(&sys, &format!("{nx}x{ny}"));
        }
    }

    #[test]
    fn threaded_spectral_solves_are_bit_identical_across_thread_counts() {
        // Same contract on the even meshes of the radix-2 transform,
        // square and rectangular.
        for (nx, ny) in [(12usize, 12usize), (20, 12)] {
            let sys = StencilSystem::layered(&spec(nx, ny));
            assert_thread_count_bit_identity(&sys, &format!("{nx}x{ny}"));
        }
    }
}
