//! Matrix-free description of layered 7-point resistive meshes.
//!
//! The thermal network of the paper is a pure finite-volume stencil on a
//! regular `nx × ny × nz` grid: every cell couples to at most six
//! neighbours, the coupling conductances are known per axis, and the
//! Dirichlet (ambient) boundary folds into the diagonal and the
//! right-hand side. The die stack is laterally uniform, so every
//! coefficient is a function of the layer alone: [`StencilSystem`]
//! keeps one lateral conductance per layer and axis, one vertical
//! conductance per layer interface, a leak and a Dirichlet right-hand
//! side per layer, the optional *border node* (the shared package node
//! every bottom-layer cell couples into), and a 3×3 table per layer of
//! the diagonal at the low edge, interior and high edge in x and y. A
//! 128×128×9 system is a few hundred bytes, not megabytes of per-cell
//! arrays.
//!
//! [`crate::SpectralSystem`] factors the system directly and checks
//! each solve against its per-layer coefficients; the matrix-free
//! matvec here is the spatial cross-check of the tests and of
//! `paranoid` mode.

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

/// Position class of a cell along one lateral axis: `0` at the low edge,
/// `1` inside, `2` at the high edge. A length-1 axis has only class `0`,
/// which then has no neighbour on either side.
#[inline]
fn edge_class(i: usize, n: usize) -> usize {
    if i == 0 {
        0
    } else if i + 1 == n {
        2
    } else {
        1
    }
}

/// A complete SPD stencil system over a layered mesh: per-layer
/// coefficients, the optional border node and the Dirichlet-folded
/// right-hand side. This is what `thermalsim` emits alongside the
/// equivalent [`crate::Circuit`] and what [`crate::SpectralSystem`]
/// factors.
///
/// Unknowns are stored z-innermost: cell `(ix, iy, iz)` lives at index
/// `(iy·nx + ix)·nz + iz`, so each vertical column is contiguous; the
/// border node, when present, is the last unknown.
///
/// # Examples
///
/// ```
/// use spicenet::{LayeredStencilSpec, StencilSystem};
///
/// // A 2×1×2 grid: lateral coupling 1.0 on both layers, vertical 2.0,
/// // unit films out of the bottom and the top face, no package node.
/// let sys = StencilSystem::layered(&LayeredStencilSpec {
///     nx: 2,
///     ny: 1,
///     gx_layers: &[1.0, 1.0],
///     gy_layers: &[1.0, 1.0],
///     gz_interfaces: &[2.0],
///     g_bottom: 1.0,
///     g_top: 1.0,
///     ambient: 25.0,
///     package_resistance: 0.0,
/// });
/// // Column: diag = film 1 + gx 1 + gz 2, then the vertical and the
/// // lateral neighbour.
/// assert_eq!(sys.mul_vec(&[1.0, 0.0, 0.0, 0.0]), [4.0, -2.0, -1.0, 0.0]);
/// // Both faces fold the ambient into the right-hand side.
/// assert_eq!(sys.rhs_with(&[(0, 1.0)]), [26.0, 25.0, 25.0, 25.0]);
/// ```
#[derive(Debug, Clone)]
pub struct StencilSystem {
    pub(crate) nx: usize,
    pub(crate) ny: usize,
    pub(crate) nz: usize,
    /// Coupling to the `+x` neighbour, per layer.
    pub(crate) gx: Vec<f64>,
    /// Coupling to the `+y` neighbour, per layer.
    pub(crate) gy: Vec<f64>,
    /// Coupling across interface `iz ↔ iz+1`, length `nz−1`.
    pub(crate) gz: Vec<f64>,
    /// Conductance into eliminated nodes (diagonal-only), per layer.
    pub(crate) leak: Vec<f64>,
    /// Diagonal `leak + Σ incident couplings` of a cell at layer `iz`
    /// whose lateral position classes (see [`edge_class`]) are `cy`,
    /// `cx`: entry `(3·cy + cx)·nz + iz`.
    diag: Vec<f64>,
    pub(crate) border: Option<BorderNode>,
    /// Dirichlet right-hand side of every grid cell, per layer.
    fixed_rhs: Vec<f64>,
}

impl StencilSystem {
    /// Assembles the system for a layered mesh.
    ///
    /// # Panics
    ///
    /// Panics on zero lateral dimensions, an empty stack, inconsistent
    /// layer-array lengths, negative or non-finite conductances,
    /// non-positive boundary conductances or a negative package
    /// resistance.
    pub fn layered(spec: &LayeredStencilSpec<'_>) -> Self {
        let (nx, ny) = (spec.nx, spec.ny);
        let nz = spec.gx_layers.len();
        assert!(nx > 0 && ny > 0 && nz > 0, "stencil dimensions");
        assert_eq!(spec.gy_layers.len(), nz, "gy layer count");
        assert_eq!(spec.gz_interfaces.len(), nz - 1, "interface count");
        for v in spec
            .gx_layers
            .iter()
            .chain(spec.gy_layers)
            .chain(spec.gz_interfaces)
        {
            assert!(v.is_finite() && *v >= 0.0, "conductances are ≥ 0");
        }
        assert!(
            spec.g_bottom > 0.0 && spec.g_top > 0.0,
            "boundary conductances are positive"
        );
        assert!(
            spec.package_resistance >= 0.0 && spec.package_resistance.is_finite(),
            "package resistance is ≥ 0"
        );
        let (gx, gy, gz) = (
            spec.gx_layers.to_vec(),
            spec.gy_layers.to_vec(),
            spec.gz_interfaces.to_vec(),
        );
        let mut leak = vec![0.0; nz];
        leak[0] += spec.g_bottom;
        leak[nz - 1] += spec.g_top;
        // The diagonal sums in one fixed order — own couplings, then the
        // low neighbours' — with an absent high coupling as `0.0`.
        let mut diag = vec![0.0; 9 * nz];
        for (class, column) in diag.chunks_exact_mut(nz).enumerate() {
            let (cy, cx) = (class / 3, class % 3);
            let has_high_x = cx == 1 || (cx == 0 && nx > 1);
            let has_high_y = cy == 1 || (cy == 0 && ny > 1);
            for (iz, d) in column.iter_mut().enumerate() {
                let gx_high = if has_high_x { gx[iz] } else { 0.0 };
                let gy_high = if has_high_y { gy[iz] } else { 0.0 };
                let gz_high = if iz + 1 < nz { gz[iz] } else { 0.0 };
                let mut v = leak[iz];
                v += gx_high + gy_high + gz_high;
                if iz > 0 {
                    v += gz[iz - 1];
                }
                if cx > 0 {
                    v += gx[iz];
                }
                if cy > 0 {
                    v += gy[iz];
                }
                *d = v;
            }
        }
        let border = (spec.package_resistance > 0.0).then(|| BorderNode {
            coupling: spec.g_bottom,
            diag: spec.g_bottom * (nx * ny) as f64 + 1.0 / spec.package_resistance,
            rhs: spec.ambient / spec.package_resistance,
        });
        let mut fixed_rhs = vec![0.0; nz];
        fixed_rhs[nz - 1] += spec.g_top * spec.ambient;
        if border.is_none() {
            fixed_rhs[0] += spec.g_bottom * spec.ambient;
        }
        let sys = StencilSystem {
            nx,
            ny,
            nz,
            gx,
            gy,
            gz,
            leak,
            diag,
            border,
            fixed_rhs,
        };
        // Assembly-time tripwire: the 7-point stencil must assemble to a
        // symmetric positive-definite operator; a one-sided coupling
        // update or sign slip trips the probe immediately instead of
        // surfacing as a wrong field much later.
        #[cfg(feature = "paranoid")]
        crate::paranoid::spot_check_spd("assembled stencil system", sys.unknowns(), |v| {
            sys.mul_vec(v)
        });
        sys
    }

    /// Grid dimensions `(nx, ny, nz)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Grid cells (excluding the border node).
    pub fn grid_cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Total unknowns: grid cells plus the border node when present.
    pub fn unknowns(&self) -> usize {
        self.grid_cells() + usize::from(self.border.is_some())
    }

    /// The Dirichlet right-hand side of every grid cell, per layer: the
    /// pinned ambient folded in through the top face, and through the
    /// bottom face when no border node stands in between.
    pub fn fixed_rhs(&self) -> &[f64] {
        &self.fixed_rhs
    }

    /// The border node's right-hand side, when the system has one.
    pub fn border_rhs(&self) -> Option<f64> {
        self.border.as_ref().map(|b| b.rhs)
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
        let mut rhs = Vec::with_capacity(self.unknowns());
        for _ in 0..self.nx * self.ny {
            rhs.extend_from_slice(&self.fixed_rhs);
        }
        if let Some(b) = &self.border {
            rhs.push(b.rhs);
        }
        for &(cell, amps) in injections {
            assert!(cell < ng, "injection into a foreign cell");
            rhs[cell] += amps;
        }
        rhs
    }

    /// `A·x` over every unknown: the 7-point grid block, then the border
    /// node's column and row when present.
    ///
    /// # Panics
    ///
    /// Panics when `x.len()` is not [`StencilSystem::unknowns`].
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = Vec::with_capacity(self.unknowns());
        let border = self.apply_rows(x, |_, row| y.extend_from_slice(row));
        y.extend(border);
        y
    }

    /// `A·x`, streamed one y-row of grid cells at a time: `row(iy, ax)`
    /// receives the row's `nx·nz` entries (border column included) in
    /// row order, and the border row's entry is returned when a border
    /// node is present. Callers reduce or copy each row without
    /// materializing the whole product.
    ///
    /// A grid cell's entry sums in one fixed order — diagonal, then the
    /// `+z`, `−z`, `+x`, `−x`, `+y`, `−y` neighbours present, then the
    /// border column — applied one term at a time to a whole row, so the
    /// diagonal and lateral passes are contiguous loops over per-row
    /// coefficient patterns.
    ///
    /// # Panics
    ///
    /// Panics when `x.len()` is not [`StencilSystem::unknowns`].
    pub(crate) fn apply_rows(&self, x: &[f64], mut row: impl FnMut(usize, &[f64])) -> Option<f64> {
        assert_eq!(x.len(), self.unknowns(), "dimension mismatch");
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let ng = self.grid_cells();
        let row_len = nx * nz;
        // Per-row coefficient patterns: the diagonal of a row in each y
        // class, and the lateral couplings repeated per column.
        let diag_rows: Vec<f64> = (0..3)
            .flat_map(|cy| {
                (0..nx).flat_map(move |ix| {
                    let class = 3 * cy + edge_class(ix, nx);
                    self.diag[class * nz..(class + 1) * nz].iter().copied()
                })
            })
            .collect();
        let gx_row: Vec<f64> = self.gx.iter().copied().cycle().take(row_len).collect();
        let gy_row: Vec<f64> = self.gy.iter().copied().cycle().take(row_len).collect();
        let mut yr = vec![0.0; row_len];
        // The border row's bottom-face sum is accumulated per lateral
        // row and the row partials folded in row order.
        let mut bottom_sum = 0.0;
        for (iy, xr) in x[..ng].chunks_exact(row_len).enumerate() {
            let cy = edge_class(iy, ny);
            let diag = &diag_rows[cy * row_len..(cy + 1) * row_len];
            for ((yv, &d), &xv) in yr.iter_mut().zip(diag).zip(xr) {
                *yv = d * xv;
            }
            for (iz, &g) in self.gz.iter().enumerate() {
                for (yc, xc) in yr.chunks_exact_mut(nz).zip(xr.chunks_exact(nz)) {
                    yc[iz] -= g * xc[iz + 1];
                }
            }
            for (iz, &g) in self.gz.iter().enumerate() {
                for (yc, xc) in yr.chunks_exact_mut(nz).zip(xr.chunks_exact(nz)) {
                    yc[iz + 1] -= g * xc[iz];
                }
            }
            for ((yv, &g), &xv) in yr.iter_mut().zip(&gx_row).zip(&xr[nz..]) {
                *yv -= g * xv;
            }
            for ((yv, &g), &xv) in yr[nz..].iter_mut().zip(&gx_row).zip(xr) {
                *yv -= g * xv;
            }
            if iy + 1 < ny {
                let next = &x[(iy + 1) * row_len..(iy + 2) * row_len];
                for ((yv, &g), &xv) in yr.iter_mut().zip(&gy_row).zip(next) {
                    *yv -= g * xv;
                }
            }
            if iy > 0 {
                let prev = &x[(iy - 1) * row_len..iy * row_len];
                for ((yv, &g), &xv) in yr.iter_mut().zip(&gy_row).zip(prev) {
                    *yv -= g * xv;
                }
            }
            if let Some(b) = &self.border {
                let mut row_sum = 0.0;
                for ix in 0..nx {
                    row_sum += xr[ix * nz];
                }
                bottom_sum += row_sum;
                for cell in yr.chunks_exact_mut(nz) {
                    cell[0] -= b.coupling * x[ng];
                }
            }
            row(iy, &yr);
        }
        self.border
            .as_ref()
            .map(|b| b.diag * x[ng] - b.coupling * bottom_sum)
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
    /// Couplings come from the per-layer coefficients; each diagonal is
    /// re-derived as the layer's leak plus every incident coupling, so
    /// the oracle does not share the system's diagonal table.
    fn to_csr(sys: &StencilSystem) -> CsrMatrix {
        let (nx, ny, nz) = sys.dims();
        let n = sys.unknowns();
        let ng = sys.grid_cells();
        let mut t = Vec::new();
        for iy in 0..ny {
            for ix in 0..nx {
                for iz in 0..nz {
                    let i = (iy * nx + ix) * nz + iz;
                    let mut links = Vec::new();
                    if iz + 1 < nz {
                        links.push((i + 1, sys.gz[iz]));
                    }
                    if iz > 0 {
                        links.push((i - 1, sys.gz[iz - 1]));
                    }
                    if ix + 1 < nx {
                        links.push((i + nz, sys.gx[iz]));
                    }
                    if ix > 0 {
                        links.push((i - nz, sys.gx[iz]));
                    }
                    if iy + 1 < ny {
                        links.push((i + nx * nz, sys.gy[iz]));
                    }
                    if iy > 0 {
                        links.push((i - nx * nz, sys.gy[iz]));
                    }
                    let diag = sys.leak[iz] + links.iter().map(|&(_, g)| g).sum::<f64>();
                    t.push((i, i, diag));
                    t.extend(links.into_iter().map(|(j, g)| (i, j, -g)));
                }
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
        let sp = SpectralSystem::from_stencil(sys).expect("layered stacks factor");
        let (mut x, stats) = sp
            .solve_stencil_order(
                sys,
                &sys.rhs_with(injections),
                SolveOptions::default().tolerance,
                threads,
            )
            .unwrap();
        x.truncate(sys.grid_cells());
        (x, stats)
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
        for (nx, ny) in [(5, 7), (8, 8), (1, 6), (3, 1), (1, 1), (2, 2)] {
            for package_resistance in [157.0, 0.0] {
                let sys = StencilSystem::layered(&LayeredStencilSpec {
                    package_resistance,
                    ..spec(nx, ny)
                });
                let csr = to_csr(&sys);
                let n = sys.unknowns();
                let x: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 19) as f64 - 9.0).collect();
                let mut want = vec![0.0; n];
                csr.mul_vec_into(&x, &mut want);
                let got = sys.mul_vec(&x);
                for i in 0..n {
                    assert!(
                        (got[i] - want[i]).abs() <= 1e-12 * want[i].abs().max(1.0),
                        "{nx}x{ny} R={package_resistance} cell {i}: stencil {} vs csr {}",
                        got[i],
                        want[i]
                    );
                }
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
            let nz = sys.dims().2;
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
        // A layered stack factors: the verified direct solve answers it
        // (a failed residual check would be an error here), and the
        // result stays within the oracle drift budget.
        for (nx, ny) in [(12usize, 12usize), (16, 12)] {
            let sys = StencilSystem::layered(&spec(nx, ny));
            assert!(
                SpectralSystem::from_stencil(&sys).is_some(),
                "{nx}x{ny} factors"
            );
            let nz = sys.dims().2;
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
        let (nx, ny, nz) = sys.dims();
        let injections: Vec<(usize, f64)> = (0..nx * ny)
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
