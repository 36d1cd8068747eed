//! Structure-exploiting solver path for regular 7-point resistive meshes.
//!
//! The thermal network of the paper is a pure finite-volume stencil on a
//! regular `nx × ny × nz` grid: every cell couples to at most six
//! neighbours, the coupling conductances are known per axis, and the
//! Dirichlet (ambient) boundary folds into the diagonal and the
//! right-hand side. Squeezing that system through a general CSR matrix
//! pays index indirection and an O(n)-bandwidth triangular sweep per CG
//! iteration for structure the matrix never had to store.
//!
//! This module keeps the structure explicit end-to-end:
//!
//! * [`StencilOperator`] — the grid block: per-axis coupling-coefficient
//!   arrays over a dense z-innermost layout with a fused, indirection-free
//!   matvec;
//! * [`StencilSystem`] — the full SPD system: the grid block plus an
//!   optional *border node* (the shared package-resistance node every
//!   bottom-layer cell couples into) and the Dirichlet-folded RHS;
//! * [`MultigridPreconditioner`] — a geometric multigrid V-cycle
//!   (red-black z-line Gauss–Seidel smoothing, full-weighting restriction
//!   and its exact-transpose linear prolongation with lateral 2:1
//!   semi-coarsening, dense Cholesky on the coarsest grid) used as the CG
//!   preconditioner;
//! * [`FactorizedStencil`] — the [`crate::FactorizedCircuit`] counterpart:
//!   built once per geometry, then re-solved against many injection
//!   patterns through multigrid-preconditioned conjugate gradients with
//!   near-mesh-independent iteration counts.
//!
//! The z axis is *not* coarsened: thermal stacks are thin (a handful of
//! strongly-coupled layers with large conductivity jumps), which is
//! exactly the regime where lateral semi-coarsening plus exact vertical
//! line solves is the robust textbook choice — the line smoother absorbs
//! the vertical anisotropy, the hierarchy handles the lateral smoothness.

use crate::mna::SolveOptions;
use crate::pool::{Board, Partials};
use crate::spectral::SpectralSystem;
use crate::{exact_zero, SolveError, SolveStats};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Lateral size at (or below) which the hierarchy bottoms out into a
/// dense Cholesky solve (`≤ 4·4·nz` unknowns).
const COARSE_LATERAL_MAX: usize = 4;

/// Default CG iteration cap for the multigrid-preconditioned path.
/// V-cycle preconditioning converges in tens of iterations independent of
/// mesh size, so this is a generous backstop, not a tuning knob.
const DEFAULT_MAX_ITERATIONS: usize = 400;

/// The grid block of a 7-point stencil system: coupling conductances to
/// the `+x`/`+y`/`+z` neighbour per cell (zero on the high boundary),
/// plus per-cell *leak* conductance into eliminated (Dirichlet or border)
/// nodes, which contributes to the diagonal only.
///
/// Cells are stored z-innermost: cell `(ix, iy, iz)` lives at index
/// `(iy·nx + ix)·nz + iz`, so each vertical column is contiguous — the
/// layout the line smoother and the strong vertical couplings want.
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
    /// Precomputed inverse pivots of each vertical column's tridiagonal
    /// factorization (they depend only on `diag`/`gz`, not on the RHS),
    /// so the line smoother's Thomas sweeps run division-free.
    thomas_inv: Vec<f64>,
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
        let mut thomas_inv = vec![0.0; n];
        for col in 0..nx * ny {
            let base = col * nz;
            thomas_inv[base] = 1.0 / diag[base];
            for iz in 1..nz {
                let i = base + iz;
                let pivot = diag[i] - gz[i - 1] * gz[i - 1] * thomas_inv[i - 1];
                thomas_inv[i] = 1.0 / pivot;
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
            thomas_inv,
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

    /// `y = A·x` into a caller-provided buffer: the row-slab matvec with
    /// the whole grid as one slab.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        let n = self.len();
        assert_eq!(x.len(), n, "dimension mismatch");
        assert_eq!(y.len(), n, "dimension mismatch");
        self.apply_rows(x, &[], &[], y, 0);
    }

    /// The 2:1 laterally semi-coarsened operator (z untouched): vertical
    /// and leak conductances sum over each 2×2 lateral aggregate
    /// (parallel paths), lateral conductances crossing an aggregate
    /// interface contribute half their value (two hops in series) — on a
    /// uniform grid this reproduces rediscretization exactly.
    fn coarsened(&self) -> StencilOperator {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let nxc = nx.div_ceil(2);
        let nyc = ny.div_ceil(2);
        let nc = nxc * nyc * nz;
        let mut gx = vec![0.0; nc];
        let mut gy = vec![0.0; nc];
        let mut gz = vec![0.0; nc];
        let mut leak = vec![0.0; nc];
        for iy in 0..ny {
            for ix in 0..nx {
                let fbase = (iy * nx + ix) * nz;
                let cbase = ((iy / 2) * nxc + ix / 2) * nz;
                for iz in 0..nz {
                    gz[cbase + iz] += self.gz[fbase + iz];
                    leak[cbase + iz] += self.leak[fbase + iz];
                    // Links crossing an aggregate boundary (odd ix/iy).
                    if ix + 1 < nx && ix % 2 == 1 {
                        gx[cbase + iz] += 0.5 * self.gx[fbase + iz];
                    }
                    if iy + 1 < ny && iy % 2 == 1 {
                        gy[cbase + iz] += 0.5 * self.gy[fbase + iz];
                    }
                }
            }
        }
        StencilOperator::new(nxc, nyc, nz, gx, gy, gz, leak)
    }
}

/// Cell-centered interpolation weights along one lateral axis: fine cell
/// `i` reads ¾ from its owning coarse cell `i/2` and ¼ from the adjacent
/// one; at the grid edge all weight folds onto the owner.
#[inline]
fn lateral_weights(i: usize, nc: usize) -> [(usize, f64); 2] {
    let c0 = i / 2;
    let neighbour = if i.is_multiple_of(2) {
        c0.checked_sub(1)
    } else {
        (c0 + 1 < nc).then_some(c0 + 1)
    };
    match neighbour {
        Some(c1) => [(c0, 0.75), (c1, 0.25)],
        None => [(c0, 1.0), (c0, 0.0)],
    }
}

/// The weight fine cell `f` contributes to coarse cell `c` along one
/// lateral axis, or `0.0` when `c` is not one of `f`'s targets — the
/// gather-form view of [`lateral_weights`] that
/// [`StencilOperator::restrict_rows`] reads.
fn weight_to(f: usize, c: usize, nc: usize) -> f64 {
    for &(ci, wi) in &lateral_weights(f, nc) {
        if ci == c && !exact_zero(wi) {
            return wi;
        }
    }
    0.0
}

/// Sequential sum over the bottom-layer (`iz == 0`) cells of one lateral
/// row — the per-row partial of the border-node coupling sum. Both the
/// whole-system [`StencilSystem`] matvec and the threaded solver fold these
/// row partials in row order, which is what keeps the border row of the
/// operator bit-identical at any thread count.
fn border_row_sum(row: &[f64], nx: usize, nz: usize) -> f64 {
    let mut s = 0.0;
    for ix in 0..nx {
        s += row[ix * nz];
    }
    s
}

/// A coarse-level vector as seen from one worker's prolongation: either
/// the full replicated vector (the distributed/replicated transition) or
/// the worker's own row slab plus its one-row halos.
enum CoarseRows<'a> {
    /// Full-size replica, indexed by global row.
    Full(&'a [f64]),
    /// Distributed slab: rows `[iy0, iy0 + rows)` plus halo copies of
    /// rows `iy0 − 1` / `iy0 + rows` (never dereferenced at grid edges).
    Slab {
        rows: &'a [f64],
        lo: &'a [f64],
        hi: &'a [f64],
        iy0: usize,
    },
}

impl CoarseRows<'_> {
    fn row(&self, cy: usize, row_len: usize) -> &[f64] {
        match self {
            CoarseRows::Full(v) => &v[cy * row_len..][..row_len],
            CoarseRows::Slab { rows, lo, hi, iy0 } => {
                if cy < *iy0 {
                    &lo[..row_len]
                } else {
                    let r = cy - iy0;
                    if r < rows.len() / row_len {
                        &rows[r * row_len..][..row_len]
                    } else {
                        &hi[..row_len]
                    }
                }
            }
        }
    }
}

/// The stencil kernels, each written once over a contiguous range of
/// lateral rows (a *slab*). Values from the one row on either side of
/// the slab arrive as halo copies published through a
/// [`crate::pool::Board`]. The whole grid is one slab (`iy0 = 0`, empty
/// halos, `CoarseRows::Full`): a halo row is read only across an
/// interior slab boundary, never at `iy = 0` or `iy = ny − 1`. The
/// `slab_*` tests pin that any split reproduces the one-slab bits.
impl StencilOperator {
    /// `y_slab = A·x` over rows `[iy0, iy0 + rows)`; `x_lo` / `x_hi`
    /// hold rows `iy0 − 1` / `iy0 + rows` (unused at grid edges).
    fn apply_rows(&self, x: &[f64], x_lo: &[f64], x_hi: &[f64], y: &mut [f64], iy0: usize) {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let sx = nz;
        let sy = nx * nz;
        let row_len = nx * nz;
        let rows = y.len() / row_len;
        for ry in 0..rows {
            let iy = iy0 + ry;
            for ix in 0..nx {
                let base = (iy * nx + ix) * nz;
                let off = ry * row_len + ix * nz;
                for iz in 0..nz {
                    let i = base + iz;
                    let o = off + iz;
                    let mut acc = self.diag[i] * x[o];
                    if iz + 1 < nz {
                        acc -= self.gz[i] * x[o + 1];
                    }
                    if iz > 0 {
                        acc -= self.gz[i - 1] * x[o - 1];
                    }
                    if ix + 1 < nx {
                        acc -= self.gx[i] * x[o + sx];
                    }
                    if ix > 0 {
                        acc -= self.gx[i - sx] * x[o - sx];
                    }
                    if iy + 1 < ny {
                        let v = if ry + 1 < rows {
                            x[o + row_len]
                        } else {
                            x_hi[ix * nz + iz]
                        };
                        acc -= self.gy[i] * v;
                    }
                    if iy > 0 {
                        let v = if ry > 0 {
                            x[o - row_len]
                        } else {
                            x_lo[ix * nz + iz]
                        };
                        acc -= self.gy[i - sy] * v;
                    }
                    y[o] = acc;
                }
            }
        }
    }

    /// One colour phase of the red-black z-line Gauss–Seidel sweep over
    /// a row slab: for each lateral column of colour `(ix + iy) % 2`,
    /// the vertical tridiagonal system is solved *exactly*
    /// (division-free Thomas against the precomputed pivots) against the
    /// current lateral neighbour values. Within one colour no updated
    /// column reads another updated column (lateral neighbours always
    /// have the other colour), so slabs of the same phase run in
    /// parallel against pre-phase halo snapshots. Colour order `[0, 1]`
    /// and its reverse `[1, 0]` are exact adjoints of each other, which
    /// is what keeps the V-cycle a symmetric preconditioner.
    #[allow(clippy::too_many_arguments)]
    fn smooth_rows_color(
        &self,
        r: &[f64],
        x: &mut [f64],
        x_lo: &[f64],
        x_hi: &[f64],
        iy0: usize,
        color: usize,
        dp: &mut [f64],
    ) {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let sx = nz;
        let sy = nx * nz;
        let row_len = nx * nz;
        let rows = x.len() / row_len;
        for ry in 0..rows {
            let iy = iy0 + ry;
            let mut ix = (color + iy) % 2;
            while ix < nx {
                let base = (iy * nx + ix) * nz;
                let off = ry * row_len + ix * nz;
                let mut prev = 0.0;
                for (iz, slot) in dp.iter_mut().enumerate() {
                    let i = base + iz;
                    let o = off + iz;
                    let mut b = r[o];
                    if ix + 1 < nx {
                        b += self.gx[i] * x[o + sx];
                    }
                    if ix > 0 {
                        b += self.gx[i - sx] * x[o - sx];
                    }
                    if iy + 1 < ny {
                        let v = if ry + 1 < rows {
                            x[o + row_len]
                        } else {
                            x_hi[ix * nz + iz]
                        };
                        b += self.gy[i] * v;
                    }
                    if iy > 0 {
                        let v = if ry > 0 {
                            x[o - row_len]
                        } else {
                            x_lo[ix * nz + iz]
                        };
                        b += self.gy[i - sy] * v;
                    }
                    if iz > 0 {
                        b += self.gz[i - 1] * prev;
                    }
                    prev = b * self.thomas_inv[i];
                    *slot = prev;
                }
                let mut next = dp[nz - 1];
                x[off + nz - 1] = next;
                for iz in (0..nz.saturating_sub(1)).rev() {
                    let i = base + iz;
                    next = dp[iz] + self.gz[i] * self.thomas_inv[i] * next;
                    x[off + iz] = next;
                }
                ix += 2;
            }
        }
    }

    /// Full-weighting restriction `r_c = Pᵀ·r_f` for the cell-centered
    /// 2:1 lateral coarsening (weights ¾ / ¼ toward the owning and the
    /// adjacent coarse cell; z is injected unchanged), in gather form:
    /// fine defect rows in, coarse rows `[c_iy0, c_iy0 + crows)` out.
    /// Each coarse cell visits its contributing fine cells in ascending
    /// `(fy, fx)`, an order that does not depend on the slab split.
    fn restrict_rows(
        &self,
        t: &[f64],
        t_lo: &[f64],
        t_hi: &[f64],
        iy0: usize,
        r_c: &mut [f64],
        c_iy0: usize,
    ) {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let nxc = nx.div_ceil(2);
        let nyc = ny.div_ceil(2);
        let row_len = nx * nz;
        let crow_len = nxc * nz;
        let rows = t.len() / row_len;
        let crows = r_c.len() / crow_len;
        r_c.fill(0.0);
        for rc in 0..crows {
            let cy = c_iy0 + rc;
            for fy in (2 * cy).saturating_sub(1)..=(2 * cy + 2).min(ny - 1) {
                let wyv = weight_to(fy, cy, nyc);
                if exact_zero(wyv) {
                    continue;
                }
                let trow: &[f64] = if fy < iy0 {
                    &t_lo[..row_len]
                } else if fy < iy0 + rows {
                    &t[(fy - iy0) * row_len..][..row_len]
                } else {
                    &t_hi[..row_len]
                };
                for cx in 0..nxc {
                    for fx in (2 * cx).saturating_sub(1)..=(2 * cx + 2).min(nx - 1) {
                        let wxv = weight_to(fx, cx, nxc);
                        if exact_zero(wxv) {
                            continue;
                        }
                        let w = wyv * wxv;
                        let src = &trow[fx * nz..][..nz];
                        let dst = &mut r_c[rc * crow_len + cx * nz..][..nz];
                        for (d, s) in dst.iter_mut().zip(src) {
                            *d += w * s;
                        }
                    }
                }
            }
        }
    }

    /// Prolongation `x_f += P·x_c` over fine rows `[iy0, iy0 + rows)`,
    /// reading coarse rows through a [`CoarseRows`] view — the exact
    /// transpose of [`StencilOperator::restrict_rows`] (same weight
    /// table), which is what keeps the V-cycle symmetric.
    fn prolong_rows(&self, x_c: &CoarseRows<'_>, x_f: &mut [f64], iy0: usize) {
        let (nx, _ny, nz) = (self.nx, self.ny, self.nz);
        let nxc = nx.div_ceil(2);
        let nyc = self.ny.div_ceil(2);
        let row_len = nx * nz;
        let crow_len = nxc * nz;
        let rows = x_f.len() / row_len;
        for ry in 0..rows {
            let fy = iy0 + ry;
            let wy = lateral_weights(fy, nyc);
            for ix in 0..nx {
                let wx = lateral_weights(ix, nxc);
                let fbase = ry * row_len + ix * nz;
                for &(cy, wyv) in &wy {
                    if exact_zero(wyv) {
                        continue;
                    }
                    let crow = x_c.row(cy, crow_len);
                    for &(cx, wxv) in &wx {
                        let w = wyv * wxv;
                        if exact_zero(w) {
                            continue;
                        }
                        let src = &crow[cx * nz..][..nz];
                        let dst = &mut x_f[fbase..][..nz];
                        for (d, s) in dst.iter_mut().zip(src) {
                            *d += w * s;
                        }
                    }
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
/// `thermalsim::build_geometry` emits alongside the equivalent [`crate::Circuit`]
/// and what [`FactorizedStencil`] solves.
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

    /// Grid cells (excluding the border node).
    pub fn grid_cells(&self) -> usize {
        self.op.len()
    }

    /// Total unknowns: grid cells plus the border node when present.
    pub fn unknowns(&self) -> usize {
        self.op.len() + usize::from(self.border.is_some())
    }

    /// `y = A·x` over every unknown: the grid block, then the border
    /// node's column and row when present.
    pub(crate) fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        let ng = self.op.len();
        self.op.apply_into(&x[..ng], &mut y[..ng]);
        if let Some(b) = &self.border {
            let nz = self.op.nz;
            let row_len = self.op.nx * nz;
            let xb = x[ng];
            // The bottom-face sum is accumulated per lateral row and the
            // row partials folded in row order — the exact reduction
            // shape the threaded solver reproduces with one partial per
            // worker-owned row, keeping both paths bit-identical.
            let mut sum = 0.0;
            for (row_x, row_y) in x[..ng]
                .chunks_exact(row_len)
                .zip(y[..ng].chunks_exact_mut(row_len))
            {
                sum += border_row_sum(row_x, self.op.nx, nz);
                for cell in row_y.chunks_exact_mut(nz) {
                    cell[0] -= b.coupling * xb;
                }
            }
            y[ng] = b.diag * xb - b.coupling * sum;
        }
    }
}

/// Dense Cholesky factor of the coarsest-grid operator (a few dozen
/// unknowns): factored once at build, applied per V-cycle.
#[derive(Debug, Clone)]
struct DenseSpd {
    n: usize,
    /// Row-major lower-triangular factor (full `n×n` storage).
    l: Vec<f64>,
}

impl DenseSpd {
    fn from_stencil(op: &StencilOperator) -> Option<Self> {
        let n = op.len();
        let sx = op.nz;
        let sy = op.nx * op.nz;
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            a[i * n + i] = op.diag[i];
            if !exact_zero(op.gz[i]) {
                a[(i + 1) * n + i] = -op.gz[i];
            }
            if !exact_zero(op.gx[i]) {
                a[(i + sx) * n + i] = -op.gx[i];
            }
            if !exact_zero(op.gy[i]) {
                a[(i + sy) * n + i] = -op.gy[i];
            }
        }
        // In-place lower Cholesky.
        for j in 0..n {
            let mut d = a[j * n + j];
            for k in 0..j {
                d -= a[j * n + k] * a[j * n + k];
            }
            if d <= 0.0 || !d.is_finite() {
                return None;
            }
            let d = d.sqrt();
            a[j * n + j] = d;
            for i in j + 1..n {
                let mut v = a[i * n + j];
                for k in 0..j {
                    v -= a[i * n + k] * a[j * n + k];
                }
                a[i * n + j] = v / d;
            }
        }
        Some(DenseSpd { n, l: a })
    }

    fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        let n = self.n;
        // Forward: L·y = b.
        for i in 0..n {
            let mut acc = b[i];
            for (lij, xj) in self.l[i * n..i * n + i].iter().zip(&x[..i]) {
                acc -= lij * xj;
            }
            x[i] = acc / self.l[i * n + i];
        }
        // Backward: Lᵀ·x = y.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for (jj, xj) in x[i + 1..n].iter().enumerate() {
                acc -= self.l[(i + 1 + jj) * n + i] * xj;
            }
            x[i] = acc / self.l[i * n + i];
        }
    }
}

/// Scratch space for the whole-grid V-cycle recursion
/// ([`MultigridPreconditioner::cycle`]): per-level
/// residual/correction/defect vectors plus the Thomas sweep buffer. Every
/// SPMD worker owns one, so the preconditioner itself stays immutable
/// (`Send + Sync`) and one build serves any number of concurrent solves.
#[derive(Debug)]
struct MgWorkspace {
    rs: Vec<Vec<f64>>,
    xs: Vec<Vec<f64>>,
    tmp: Vec<Vec<f64>>,
    dp: Vec<f64>,
}

/// A geometric multigrid V-cycle over a [`StencilSystem`], used as the
/// SPD preconditioner of the structured CG path.
///
/// One application runs a single V(1,1) cycle: a red-black z-line
/// Gauss–Seidel pre-smoothing sweep, full-weighting restriction of the
/// defect through the laterally semi-coarsened hierarchy, a dense
/// Cholesky solve on the coarsest grid, transpose prolongation, and the
/// colour-reversed post-smoothing sweep — symmetric by construction, so
/// plain (non-flexible) CG stays valid. The border (package) node is
/// preconditioned diagonally; its coupling into the grid is weak (it
/// aggregates per-cell film conductances), so this costs no measurable
/// iterations.
#[derive(Debug, Clone)]
pub struct MultigridPreconditioner {
    levels: Vec<StencilOperator>,
    coarse: CoarseSolver,
    border_diag: Option<f64>,
}

/// The exact solver at the bottom of the V-cycle. The dense Cholesky is
/// the general-purpose workhorse; the spectral variant solves the
/// *homogenized* coarsest operator (per-layer mean coefficients) by
/// DCT + Thomas instead — still symmetric positive definite and linear,
/// so the V-cycle remains a valid CG preconditioner, and still a
/// replicated scalar computation, so the SPMD solver stays bit-identical
/// at any thread count.
#[derive(Debug, Clone)]
enum CoarseSolver {
    Dense(DenseSpd),
    Spectral(crate::spectral::SpectralSystem),
}

impl MultigridPreconditioner {
    /// Builds the hierarchy for `sys` (coarsening laterally 2:1 until the
    /// grid is at most 4×4 columns, then factoring the coarsest level
    /// densely).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Singular`] if the coarse factorization
    /// breaks down (an indefinite system — impossible for a resistive
    /// mesh with at least one leak to a pinned node).
    pub fn build(sys: &StencilSystem) -> Result<Self, SolveError> {
        Self::build_inner(sys, false)
    }

    /// [`Self::build`], but with the coarsest level solved spectrally
    /// (DCT + per-mode Thomas on the homogenized operator) instead of by
    /// dense Cholesky. Falls back to the dense factor when the coarse
    /// lateral sizes do not admit a transform (odd > 1) or the
    /// homogenized tridiagonals are not positive definite.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Singular`] exactly as [`Self::build`] does
    /// when the dense fallback itself breaks down.
    pub fn build_with_spectral_coarse(sys: &StencilSystem) -> Result<Self, SolveError> {
        Self::build_inner(sys, true)
    }

    fn build_inner(sys: &StencilSystem, spectral_coarse: bool) -> Result<Self, SolveError> {
        // Walk the hierarchy through a local operator instead of peeking
        // at `levels.last()`, so the loop needs no "non-empty" claims.
        let mut levels = Vec::new();
        let mut coarsest = sys.op.clone();
        while coarsest.nx.max(coarsest.ny) > COARSE_LATERAL_MAX {
            let next = coarsest.coarsened();
            levels.push(coarsest);
            coarsest = next;
        }
        let spectral = spectral_coarse
            .then(|| crate::spectral::SpectralSystem::homogenized(&coarsest))
            .flatten();
        let coarse = match spectral {
            Some(sp) => CoarseSolver::Spectral(sp),
            None => CoarseSolver::Dense(DenseSpd::from_stencil(&coarsest).ok_or_else(|| {
                SolveError::Singular {
                    detail: "coarse-grid factorization broke down \
                             (stencil system is not positive definite)"
                        .to_string(),
                }
            })?),
        };
        levels.push(coarsest);
        Ok(MultigridPreconditioner {
            levels,
            coarse,
            border_diag: sys.border.as_ref().map(|b| b.diag),
        })
    }

    /// Whether the coarsest level is solved spectrally.
    pub fn spectral_coarse(&self) -> bool {
        matches!(self.coarse, CoarseSolver::Spectral(_))
    }

    /// Number of levels in the hierarchy (finest included).
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// Unknowns on the coarsest level, which is solved exactly: by dense
    /// Cholesky, or spectrally in spectral-coarse mode.
    pub fn coarse_unknowns(&self) -> usize {
        self.levels.last().map(|l| l.len()).unwrap_or(0)
    }

    /// One level of the V-cycle over the whole grid: every kernel runs
    /// with the grid as one row slab. The SPMD solver runs this
    /// replicated on every worker below its distributed levels.
    fn cycle(&self, level: usize, ws: &mut MgWorkspace) {
        if level + 1 == self.levels.len() {
            let (rs, xs) = (&ws.rs[level], &mut ws.xs[level]);
            match &self.coarse {
                CoarseSolver::Dense(d) => d.solve_into(rs, xs),
                CoarseSolver::Spectral(s) => s.solve_grid_into(rs, xs),
            }
            return;
        }
        let op = &self.levels[level];
        ws.xs[level].fill(0.0);
        for color in [0, 1] {
            op.smooth_rows_color(
                &ws.rs[level],
                &mut ws.xs[level],
                &[],
                &[],
                0,
                color,
                &mut ws.dp,
            );
        }
        // Defect, restricted to the next level.
        op.apply_rows(&ws.xs[level], &[], &[], &mut ws.tmp[level], 0);
        for (t, r) in ws.tmp[level].iter_mut().zip(&ws.rs[level]) {
            *t = r - *t;
        }
        {
            let (_, tail) = ws.rs.split_at_mut(level + 1);
            op.restrict_rows(&ws.tmp[level], &[], &[], 0, &mut tail[0], 0);
        }
        self.cycle(level + 1, ws);
        {
            let (head, tail) = ws.xs.split_at_mut(level + 1);
            op.prolong_rows(&CoarseRows::Full(&tail[0]), &mut head[level], 0);
        }
        for color in [1, 0] {
            op.smooth_rows_color(
                &ws.rs[level],
                &mut ws.xs[level],
                &[],
                &[],
                0,
                color,
                &mut ws.dp,
            );
        }
    }
}

/// The structured counterpart of [`crate::FactorizedCircuit`]: a
/// [`StencilSystem`] plus its multigrid hierarchy, built once per
/// geometry and re-solved against many current-injection patterns with
/// near-mesh-independent iteration counts. Unknowns are addressed by
/// grid-cell index (`(iy·nx + ix)·nz + iz`); returned vectors cover the
/// grid cells (the border node is internal).
///
/// # Examples
///
/// ```
/// use spicenet::{FactorizedStencil, LayeredStencilSpec, SolveOptions, StencilSystem};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sys = StencilSystem::layered(&LayeredStencilSpec {
///     nx: 6,
///     ny: 6,
///     gx_layers: &[1e-3, 1e-3],
///     gy_layers: &[1e-3, 1e-3],
///     gz_interfaces: &[5e-3],
///     g_bottom: 1e-4,
///     g_top: 1e-5,
///     ambient: 25.0,
///     package_resistance: 150.0,
/// });
/// let f = FactorizedStencil::new(sys, SolveOptions::default())?;
/// let warm = f.solve_injections(&[(0, 1e-3)])?;
/// assert!(warm[0] > 25.0, "injection heats the cell above ambient");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FactorizedStencil {
    sys: StencilSystem,
    mg: MultigridPreconditioner,
    /// Tier-0 spectral direct factorization; present only when the
    /// system qualified at build time (see
    /// [`FactorizedStencil::with_spectral`]).
    spectral: Option<SpectralSystem>,
    static_rhs: Vec<f64>,
    tolerance: f64,
    max_iterations: usize,
    threads: usize,
    /// Full-field solves answered by the spectral direct path.
    direct_solves: AtomicUsize,
    /// Full-field solves answered by multigrid-preconditioned CG.
    iterative_solves: AtomicUsize,
}

/// Serializable summary of one stencil factorization — what a result
/// cache records next to the answers a factorization produced, so cached
/// entries stay auditable without holding the factorization itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StencilFactorMeta {
    /// Lateral grid extent.
    pub nx: usize,
    /// Lateral grid extent.
    pub ny: usize,
    /// Vertical layers.
    pub nz: usize,
    /// Total unknowns (grid cells + border node).
    pub unknowns: usize,
    /// Multigrid hierarchy depth (finest level included).
    pub multigrid_levels: usize,
    /// Unknowns on the coarsest multigrid level (its exact bottom solve).
    pub coarse_unknowns: usize,
}

impl FactorizedStencil {
    /// Builds the multigrid hierarchy for `sys`. Only `tolerance`,
    /// `max_iterations` and `threads` of `options` are honoured; solves
    /// are bit-identical at any thread count (see [`crate::pool`]).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Singular`] when the coarse-grid
    /// factorization breaks down.
    pub fn new(sys: StencilSystem, options: SolveOptions) -> Result<Self, SolveError> {
        Self::assemble(sys, options, None, false)
    }

    /// Like [`FactorizedStencil::new`], but additionally tries the
    /// spectral tier. When the system is bitwise laterally homogeneous
    /// (and the lateral sizes admit a DCT), full-field solves are
    /// answered by the `spicenet::spectral` direct solver — exact, no
    /// iteration — while the multigrid hierarchy behind the
    /// residual-verified fallback is built with its usual dense coarse
    /// factor, exactly as [`FactorizedStencil::new`] builds it. When the system
    /// does *not* qualify (wrapper rings, spread non-uniformities), the
    /// hierarchy is built with the spectral coarse-grid solver of the
    /// homogenized operator instead
    /// ([`MultigridPreconditioner::build_with_spectral_coarse`]).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Singular`] when the coarse-grid
    /// factorization breaks down.
    pub fn with_spectral(sys: StencilSystem, options: SolveOptions) -> Result<Self, SolveError> {
        let spectral = SpectralSystem::from_stencil(&sys);
        let spectral_coarse = spectral.is_none();
        Self::assemble(sys, options, spectral, spectral_coarse)
    }

    fn assemble(
        sys: StencilSystem,
        options: SolveOptions,
        spectral: Option<SpectralSystem>,
        spectral_coarse: bool,
    ) -> Result<Self, SolveError> {
        let mg = if spectral_coarse {
            MultigridPreconditioner::build_with_spectral_coarse(&sys)?
        } else {
            MultigridPreconditioner::build(&sys)?
        };
        let static_rhs = sys.fixed_rhs.clone();
        Ok(FactorizedStencil {
            sys,
            mg,
            spectral,
            static_rhs,
            tolerance: options.tolerance,
            max_iterations: options.max_iterations.unwrap_or(DEFAULT_MAX_ITERATIONS),
            threads: crate::pool::effective_threads(options.threads),
            direct_solves: AtomicUsize::new(0),
            iterative_solves: AtomicUsize::new(0),
        })
    }

    /// Whether full-field solves take the spectral direct path.
    pub fn spectral_direct(&self) -> bool {
        self.spectral.is_some()
    }

    /// Whether the multigrid hierarchy bottoms out in a spectral solve
    /// of the homogenized coarsest operator.
    pub fn spectral_coarse(&self) -> bool {
        self.mg.spectral_coarse()
    }

    /// Full-field solves answered by the spectral direct solver so far.
    pub fn direct_solves(&self) -> usize {
        self.direct_solves.load(Ordering::Relaxed)
    }

    /// Full-field solves answered by multigrid-preconditioned CG so far.
    pub fn iterative_solves(&self) -> usize {
        self.iterative_solves.load(Ordering::Relaxed)
    }

    /// The worker-thread count this factorization solves with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The underlying system.
    pub fn system(&self) -> &StencilSystem {
        &self.sys
    }

    /// Total unknowns (grid cells + border node).
    pub fn unknowns(&self) -> usize {
        self.sys.unknowns()
    }

    /// Levels in the multigrid hierarchy.
    pub fn multigrid_levels(&self) -> usize {
        self.mg.levels()
    }

    /// The factorization's serializable metadata.
    pub fn meta(&self) -> StencilFactorMeta {
        StencilFactorMeta {
            nx: self.sys.op.nx,
            ny: self.sys.op.ny,
            nz: self.sys.op.nz,
            unknowns: self.sys.unknowns(),
            multigrid_levels: self.mg.levels(),
            coarse_unknowns: self.mg.coarse_unknowns(),
        }
    }

    /// Solves for per-cell values with `injections` (grid-cell index,
    /// amps) added onto the Dirichlet RHS. Returns the grid-cell vector.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::NotConverged`] / [`SolveError::Singular`]
    /// from the iterative solve.
    ///
    /// # Panics
    ///
    /// Panics if an injection names a cell outside the grid.
    pub fn solve_injections(&self, injections: &[(usize, f64)]) -> Result<Vec<f64>, SolveError> {
        self.solve_injections_stats(injections).map(|(v, _)| v)
    }

    /// Like [`FactorizedStencil::solve_injections`], additionally
    /// returning the [`SolveStats`] of the re-solve.
    ///
    /// # Errors
    ///
    /// Same as [`FactorizedStencil::solve_injections`].
    ///
    /// # Panics
    ///
    /// Same as [`FactorizedStencil::solve_injections`].
    pub fn solve_injections_stats(
        &self,
        injections: &[(usize, f64)],
    ) -> Result<(Vec<f64>, SolveStats), SolveError> {
        let ng = self.sys.grid_cells();
        let mut rhs = self.static_rhs.clone();
        for &(cell, amps) in injections {
            assert!(cell < ng, "injection into a foreign cell");
            rhs[cell] += amps;
        }
        if let Some(sp) = &self.spectral {
            let mut x = sp.solve(&rhs, self.threads);
            let mut ax = vec![0.0; rhs.len()];
            self.sys.apply_into(&x, &mut ax);
            // Plain sequential norms in index order: deterministic and
            // thread-independent, like everything else on this path.
            let (mut nb, mut nr, mut net) = (0.0f64, 0.0f64, 0.0f64);
            for (b, a) in rhs.iter().zip(&ax) {
                let d = b - a;
                nb += b * b;
                nr += d * d;
                net += d;
            }
            let norm_b = nb.sqrt();
            let residual = if norm_b > 0.0 {
                nr.sqrt() / norm_b
            } else {
                0.0
            };
            // A direct solve lands at machine precision; anything worse
            // means the factorization no longer matches the system, so
            // fall through to the iterative path rather than return a
            // silently degraded field. The check is on deterministic
            // quantities, preserving bit-identity across thread counts.
            if residual.is_finite() && residual <= self.tolerance {
                #[cfg(feature = "paranoid")]
                crate::paranoid::check_conservation_net(
                    "spectral direct solve",
                    net,
                    rhs.len(),
                    norm_b,
                    self.tolerance,
                );
                let _ = net;
                self.direct_solves.fetch_add(1, Ordering::Relaxed);
                x.truncate(ng);
                return Ok((
                    x,
                    SolveStats {
                        iterations: 1,
                        relative_residual: residual,
                    },
                ));
            }
        }
        self.iterative_solves.fetch_add(1, Ordering::Relaxed);
        let (mut x, iterations, residual) = stencil_cg_spmd(
            &self.sys,
            &self.mg,
            &rhs,
            self.tolerance,
            self.max_iterations,
            self.threads,
        )
        .map_err(stencil_cg_failure)?;
        x.truncate(ng);
        let stats = SolveStats {
            iterations,
            relative_residual: residual,
        };
        Ok((x, stats))
    }
}

/// Row-slab partition of the multigrid hierarchy for one worker team.
///
/// The two finest levels are *distributed*: each worker owns a
/// contiguous band of lateral rows (and, because the memory layout is
/// y-outermost, a contiguous slice of every vector). Coarser levels are
/// *replicated*: they are tiny, and replicating them costs one
/// all-gather of the transition-level defect per V-cycle while removing
/// every synchronization below it.
///
/// Slabs are built bottom-up — an even split of the transition level,
/// doubled (and clamped) through the finer levels — so a worker's slab
/// at level `l` is exactly the 2:1 refinement of its slab at level
/// `l + 1`. That nesting guarantees every kernel needs at most the one
/// row on either side of its slab, which is what keeps the halo
/// protocol fixed-shape (and the results bit-identical) at any worker
/// count.
#[derive(Debug)]
struct SlabPlan {
    /// Effective worker count (clamped so every slab is non-empty).
    workers: usize,
    /// Number of distributed levels (0, 1 or 2).
    d_levels: usize,
    /// `bounds[l]`, `l < d_levels`: row partition of level `l`
    /// (`bounds[l][w]..bounds[l][w + 1]` is worker `w`'s slab).
    /// `bounds[d_levels]`: partition of the first *replicated* level's
    /// rows, used only for the transition restriction + all-gather.
    bounds: Vec<Vec<usize>>,
}

impl SlabPlan {
    fn new(mg: &MultigridPreconditioner, threads: usize) -> SlabPlan {
        let d = mg.levels.len().saturating_sub(1).min(2);
        if d == 0 {
            // Hierarchy of one level (≤ 4×4 lateral): nothing worth
            // distributing; a single worker runs the whole-grid cycle.
            return SlabPlan {
                workers: 1,
                d_levels: 0,
                bounds: vec![vec![0, mg.levels[0].ny]],
            };
        }
        let rows_d = mg.levels[d].ny;
        let t = crate::pool::effective_threads(threads).min(rows_d);
        let mut bounds: Vec<Vec<usize>> = Vec::with_capacity(d + 1);
        bounds.push((0..=t).map(|w| rows_d * w / t).collect());
        for l in (0..d).rev() {
            let ny_l = mg.levels[l].ny;
            let prev = &bounds[bounds.len() - 1];
            let next: Vec<usize> = prev.iter().map(|&b| (2 * b).min(ny_l)).collect();
            bounds.push(next);
        }
        bounds.reverse();
        SlabPlan {
            workers: t,
            d_levels: d,
            bounds,
        }
    }

    /// Worker `w`'s row range at level `l`.
    fn rows(&self, l: usize, w: usize) -> (usize, usize) {
        (self.bounds[l][w], self.bounds[l][w + 1])
    }
}

/// Read-only state shared by every SPMD worker of one solve.
struct SpmdShared<'a> {
    sys: &'a StencilSystem,
    mg: &'a MultigridPreconditioner,
    plan: &'a SlabPlan,
    board: Board,
    partials: Partials,
    tol: f64,
    max_iter: usize,
    norm_b: f64,
    /// Border entry of the RHS (`0` when the system has no border node).
    b_border: f64,
}

/// One worker's owned state: row slabs of every CG vector and of the
/// distributed multigrid levels, a full-size workspace for the
/// replicated coarse levels, and halo/scratch buffers.
struct SpmdCtx<'a> {
    b: &'a [f64],
    x: &'a mut [f64],
    r: &'a mut [f64],
    p: &'a mut [f64],
    z: &'a mut [f64],
    ap: &'a mut [f64],
    rs: Vec<&'a mut [f64]>,
    xs: Vec<&'a mut [f64]>,
    tmp: Vec<&'a mut [f64]>,
    /// Replicated coarse workspace: levels `≥ d_levels` full-size,
    /// distributed levels left empty (never touched by the recursion).
    ws: MgWorkspace,
    dp: Vec<f64>,
    halo_lo: Vec<f64>,
    halo_hi: Vec<f64>,
}

/// Splits a vector into per-worker row slabs along `bounds`.
fn split_rows<'a>(v: &'a mut [f64], bounds: &[usize], row_len: usize) -> Vec<&'a mut [f64]> {
    let mut out = Vec::with_capacity(bounds.len().saturating_sub(1));
    let mut rest = v;
    for win in bounds.windows(2) {
        let take = (win[1] - win[0]) * row_len;
        let (head, tail) = rest.split_at_mut(take);
        out.push(head);
        rest = tail;
    }
    out
}

/// Immutable counterpart of [`split_rows`].
fn split_rows_ref<'a>(v: &'a [f64], bounds: &[usize], row_len: usize) -> Vec<&'a [f64]> {
    let mut out = Vec::with_capacity(bounds.len().saturating_sub(1));
    let mut rest = v;
    for win in bounds.windows(2) {
        let take = (win[1] - win[0]) * row_len;
        let (head, tail) = rest.split_at(take);
        out.push(head);
        rest = tail;
    }
    out
}

/// A full-size [`MgWorkspace`] for the replicated levels only: levels
/// below `d` stay empty, the recursion never touches them (`d = 0`
/// sizes every level).
fn replicated_workspace(mg: &MultigridPreconditioner, d: usize) -> MgWorkspace {
    let sized = |(l, lev): (usize, &StencilOperator)| {
        if l >= d {
            vec![0.0; lev.len()]
        } else {
            Vec::new()
        }
    };
    MgWorkspace {
        rs: mg.levels.iter().enumerate().map(sized).collect(),
        xs: mg.levels.iter().enumerate().map(sized).collect(),
        tmp: mg.levels.iter().enumerate().map(sized).collect(),
        dp: vec![0.0; mg.levels[0].nz],
    }
}

/// Splits each distributed level's buffer into per-worker row slabs:
/// `out[w][l]` is worker `w`'s rows of level `l`.
fn split_levels<'a>(
    levels: &'a mut [Vec<f64>],
    mg: &MultigridPreconditioner,
    plan: &SlabPlan,
) -> Vec<Vec<&'a mut [f64]>> {
    let mut out: Vec<Vec<&mut [f64]>> = (0..plan.workers)
        .map(|_| Vec::with_capacity(levels.len()))
        .collect();
    for (l, level) in levels.iter_mut().enumerate() {
        let row_len = mg.levels[l].nx * mg.levels[l].nz;
        for (w, slab) in split_rows(level, &plan.bounds[l], row_len)
            .into_iter()
            .enumerate()
        {
            out[w].push(slab);
        }
    }
    out
}

/// Runs `f` on every worker of one SPMD team: allocates the CG vectors
/// and the distributed multigrid levels, hands each worker its row slabs
/// of them (and of `b` and the grid solution `x`) plus a replicated
/// coarse workspace, and returns the workers' results in worker order.
fn run_team<R: Send>(
    shared: &SpmdShared<'_>,
    b: &[f64],
    x: &mut [f64],
    f: impl Fn(usize, &mut SpmdCtx<'_>) -> R + Sync,
) -> Vec<R> {
    let (mg, plan) = (shared.mg, shared.plan);
    let d = plan.d_levels;
    let ng = x.len();
    let nz = mg.levels[0].nz;
    let row_len = mg.levels[0].nx * nz;
    let mut r = vec![0.0; ng];
    let mut p = vec![0.0; ng];
    let mut z = vec![0.0; ng];
    let mut ap = vec![0.0; ng];
    let level_buffers =
        || -> Vec<Vec<f64>> { (0..d).map(|l| vec![0.0; mg.levels[l].len()]).collect() };
    let (mut rs, mut xs, mut tmp) = (level_buffers(), level_buffers(), level_buffers());
    let bounds = &plan.bounds[0];
    let ctxs: Vec<SpmdCtx<'_>> = split_rows(x, bounds, row_len)
        .into_iter()
        .zip(split_rows(&mut r, bounds, row_len))
        .zip(split_rows(&mut p, bounds, row_len))
        .zip(split_rows(&mut z, bounds, row_len))
        .zip(split_rows(&mut ap, bounds, row_len))
        .zip(split_rows_ref(b, bounds, row_len))
        .zip(split_levels(&mut rs, mg, plan))
        .zip(split_levels(&mut xs, mg, plan))
        .zip(split_levels(&mut tmp, mg, plan))
        .map(|((((((((x, r), p), z), ap), b), rs), xs), tmp)| SpmdCtx {
            b,
            x,
            r,
            p,
            z,
            ap,
            rs,
            xs,
            tmp,
            ws: replicated_workspace(mg, d),
            dp: vec![0.0; nz],
            halo_lo: vec![0.0; row_len],
            halo_hi: vec![0.0; row_len],
        })
        .collect();
    crate::pool::run(ctxs, |w, mut ctx| f(w, &mut ctx))
}

/// Publishes the slab's first and last row and reads back the
/// neighbours' facing rows: after this, `halo_lo` holds the row below
/// the slab and `halo_hi` the row above (stale at grid edges, where the
/// kernels never read them). Two barriers per exchange.
fn spmd_exchange(
    shared: &SpmdShared<'_>,
    w: usize,
    row_len: usize,
    slab: &[f64],
    halo_lo: &mut [f64],
    halo_hi: &mut [f64],
) {
    let t = shared.plan.workers;
    if t == 1 {
        return;
    }
    let last = slab.len() - row_len;
    shared.board.publish(w, |v| {
        v.extend_from_slice(&slab[..row_len]);
        v.extend_from_slice(&slab[last..]);
    });
    shared.board.sync();
    if w > 0 {
        shared.board.read(w - 1, |s| {
            halo_lo[..row_len].copy_from_slice(&s[row_len..2 * row_len]);
        });
    }
    if w + 1 < t {
        shared.board.read(w + 1, |s| {
            halo_hi[..row_len].copy_from_slice(&s[..row_len]);
        });
    }
    shared.board.sync();
}

/// All-gathers the transition level: every worker publishes the replica
/// rows it just restricted and copies everyone else's verbatim — pure
/// copies of disjointly-computed rows, so the assembled vector does not
/// depend on the worker count.
fn spmd_allgather(shared: &SpmdShared<'_>, w: usize, row_len: usize, full: &mut [f64]) {
    let t = shared.plan.workers;
    if t == 1 {
        return;
    }
    let bounds = &shared.plan.bounds[shared.plan.d_levels];
    shared.board.publish(w, |v| {
        v.extend_from_slice(&full[bounds[w] * row_len..bounds[w + 1] * row_len]);
    });
    shared.board.sync();
    for s in 0..t {
        if s == w {
            continue;
        }
        shared.board.read(s, |src| {
            full[bounds[s] * row_len..bounds[s + 1] * row_len].copy_from_slice(src);
        });
    }
    shared.board.sync();
}

/// The fixed-shape distributed dot product: one [`crate::pool::dot_wide`]
/// partial per lateral row, folded in row order by every worker. The
/// reduction tree depends only on the mesh, never on the worker count —
/// the invariant behind the crate's bit-identical-at-any-thread-count
/// guarantee.
fn spmd_grid_dot(shared: &SpmdShared<'_>, w: usize, a: &[f64], b: &[f64], row_len: usize) -> f64 {
    let iy0 = shared.plan.bounds[0][w];
    for (ry, (ra, rb)) in a
        .chunks_exact(row_len)
        .zip(b.chunks_exact(row_len))
        .enumerate()
    {
        shared.partials.set(iy0 + ry, crate::pool::dot_wide(ra, rb));
    }
    shared.board.sync();
    let v = shared.partials.fold();
    shared.board.sync();
    v
}

/// Cooperative finite check over a distributed vector: per-row
/// non-finite counts are folded like a dot product, so every worker sees
/// the same verdict and panics (or not) at the same barrier phase —
/// a one-sided panic would strand the others at the next barrier.
#[cfg(feature = "paranoid")]
fn spmd_check_finite(
    what: &str,
    shared: &SpmdShared<'_>,
    w: usize,
    slab: &[f64],
    row_len: usize,
    replicated: f64,
) {
    let iy0 = shared.plan.bounds[0][w];
    for (ry, row) in slab.chunks_exact(row_len).enumerate() {
        let bad = row.iter().filter(|v| !v.is_finite()).count();
        shared.partials.set(iy0 + ry, bad as f64);
    }
    shared.board.sync();
    let total = shared.partials.fold();
    shared.board.sync();
    if total > 0.0 || !replicated.is_finite() {
        // Pinpoint local offenders first; if the fault is in another
        // worker's slab, still fail here so every worker leaves the
        // barrier protocol together.
        crate::paranoid::check_finite(what, slab);
        crate::paranoid::check_finite(what, &[replicated]);
        assert!(total < 0.5, "paranoid: non-finite values in {what}");
    }
}

/// One multigrid V-cycle in SPMD form: `z = M·r` over this worker's
/// slabs. Distributed levels smooth/restrict/prolong slab-wise with halo
/// exchanges; the coarse tail of the hierarchy is replicated — every
/// worker runs the identical whole-grid [`MultigridPreconditioner::cycle`]
/// on its own full-size copy of the transition defect.
fn spmd_vcycle(w: usize, ctx: &mut SpmdCtx<'_>, shared: &SpmdShared<'_>) {
    let plan = shared.plan;
    let d = plan.d_levels;
    let levels = &shared.mg.levels;
    let nz = levels[0].nz;
    let SpmdCtx {
        r,
        z,
        rs,
        xs,
        tmp,
        ws,
        dp,
        halo_lo,
        halo_hi,
        ..
    } = ctx;
    if d == 0 {
        // Tiny hierarchy: single worker, whole-grid cycle.
        ws.rs[0].copy_from_slice(r);
        shared.mg.cycle(0, ws);
        z.copy_from_slice(&ws.xs[0]);
        return;
    }
    rs[0].copy_from_slice(r);
    for l in 0..d {
        let op = &levels[l];
        let row_len = op.nx * nz;
        let lo = plan.bounds[l][w];
        xs[l].fill(0.0);
        for color in [0, 1] {
            spmd_exchange(shared, w, row_len, &*xs[l], halo_lo, halo_hi);
            op.smooth_rows_color(
                &*rs[l],
                &mut *xs[l],
                &halo_lo[..row_len],
                &halo_hi[..row_len],
                lo,
                color,
                dp,
            );
        }
        // Defect `tmp = rs − A·xs`, then restrict it down.
        spmd_exchange(shared, w, row_len, &*xs[l], halo_lo, halo_hi);
        op.apply_rows(
            &*xs[l],
            &halo_lo[..row_len],
            &halo_hi[..row_len],
            &mut *tmp[l],
            lo,
        );
        for (t_i, r_i) in tmp[l].iter_mut().zip(rs[l].iter()) {
            *t_i = r_i - *t_i;
        }
        spmd_exchange(shared, w, row_len, &*tmp[l], halo_lo, halo_hi);
        if l + 1 < d {
            op.restrict_rows(
                &*tmp[l],
                &halo_lo[..row_len],
                &halo_hi[..row_len],
                lo,
                &mut *rs[l + 1],
                plan.bounds[l + 1][w],
            );
        } else {
            // Transition: gather-restrict this worker's share of the
            // replicated defect, then all-gather the rest.
            let crow_len = levels[d].nx * nz;
            let (g_lo, g_hi) = plan.rows(d, w);
            op.restrict_rows(
                &*tmp[l],
                &halo_lo[..row_len],
                &halo_hi[..row_len],
                lo,
                &mut ws.rs[d][g_lo * crow_len..g_hi * crow_len],
                g_lo,
            );
            spmd_allgather(shared, w, crow_len, &mut ws.rs[d]);
        }
    }
    // Replicated coarse recursion — identical on every worker.
    shared.mg.cycle(d, ws);
    for l in (0..d).rev() {
        let op = &levels[l];
        let row_len = op.nx * nz;
        let lo = plan.bounds[l][w];
        if l + 1 == d {
            op.prolong_rows(&CoarseRows::Full(&ws.xs[d]), &mut *xs[l], lo);
        } else {
            let crow_len = levels[l + 1].nx * nz;
            let (head, tail) = xs.split_at_mut(l + 1);
            spmd_exchange(shared, w, crow_len, &*tail[0], halo_lo, halo_hi);
            op.prolong_rows(
                &CoarseRows::Slab {
                    rows: &*tail[0],
                    lo: &halo_lo[..crow_len],
                    hi: &halo_hi[..crow_len],
                    iy0: plan.bounds[l + 1][w],
                },
                &mut *head[l],
                lo,
            );
        }
        for color in [1, 0] {
            spmd_exchange(shared, w, row_len, &*xs[l], halo_lo, halo_hi);
            op.smooth_rows_color(
                &*rs[l],
                &mut *xs[l],
                &halo_lo[..row_len],
                &halo_hi[..row_len],
                lo,
                color,
                dp,
            );
        }
    }
    z.copy_from_slice(&*xs[0]);
}

/// One SPMD worker's whole CG solve. Control flow is *replicated*: every
/// worker computes the same `α`/`β`/convergence decisions from the same
/// deterministic reductions, so all workers take every branch together
/// (which is also what keeps the barrier protocol aligned). Returns
/// `(iterations, relative_residual, border_solution)`.
fn spmd_worker(
    w: usize,
    ctx: &mut SpmdCtx<'_>,
    shared: &SpmdShared<'_>,
) -> Result<(usize, f64, f64), (usize, f64)> {
    let sys = shared.sys;
    let op = &sys.op;
    let nz = op.nz;
    let row_len = op.nx * nz;
    let lo = shared.plan.bounds[0][w];
    ctx.x.fill(0.0);
    ctx.r.copy_from_slice(ctx.b);
    let mut xb = 0.0;
    let mut rb = shared.b_border;
    // z = M·r; the border node is preconditioned diagonally.
    spmd_vcycle(w, ctx, shared);
    let mut zb = match shared.mg.border_diag {
        Some(dg) => rb / dg,
        None => 0.0,
    };
    ctx.p.copy_from_slice(&*ctx.z);
    let mut pb = zb;
    let mut rz = spmd_grid_dot(shared, w, &*ctx.r, &*ctx.z, row_len) + rb * zb;
    if !rz.is_finite() || rz <= 0.0 {
        return Err((0, f64::INFINITY));
    }
    for it in 0..shared.max_iter {
        // ap = A·p: grid slab plus the replicated border column/row.
        spmd_exchange(
            shared,
            w,
            row_len,
            &*ctx.p,
            &mut ctx.halo_lo,
            &mut ctx.halo_hi,
        );
        op.apply_rows(
            &*ctx.p,
            &ctx.halo_lo[..row_len],
            &ctx.halo_hi[..row_len],
            &mut *ctx.ap,
            lo,
        );
        let mut apb = 0.0;
        if let Some(bn) = &sys.border {
            for (ry, row) in ctx.p.chunks_exact(row_len).enumerate() {
                shared.partials.set(lo + ry, border_row_sum(row, op.nx, nz));
            }
            for cell in ctx.ap.chunks_exact_mut(nz) {
                cell[0] -= bn.coupling * pb;
            }
            shared.board.sync();
            let bsum = shared.partials.fold();
            shared.board.sync();
            apb = bn.diag * pb - bn.coupling * bsum;
        }
        #[cfg(feature = "paranoid")]
        spmd_check_finite(
            "stencil SPMD CG matvec output",
            shared,
            w,
            ctx.ap,
            row_len,
            apb,
        );
        let pap = spmd_grid_dot(shared, w, &*ctx.p, &*ctx.ap, row_len) + pb * apb;
        if pap <= 0.0 {
            return Err((it, f64::INFINITY));
        }
        let alpha = rz / pap;
        for (xi, pi) in ctx.x.iter_mut().zip(ctx.p.iter()) {
            *xi += alpha * pi;
        }
        for (ri, api) in ctx.r.iter_mut().zip(ctx.ap.iter()) {
            *ri -= alpha * api;
        }
        xb += alpha * pb;
        rb -= alpha * apb;
        let norm_r = (spmd_grid_dot(shared, w, &*ctx.r, &*ctx.r, row_len) + rb * rb).sqrt();
        let rel = norm_r / shared.norm_b;
        #[cfg(feature = "paranoid")]
        crate::paranoid::check_residual("stencil SPMD CG", it + 1, rel);
        if rel < shared.tol {
            #[cfg(feature = "paranoid")]
            {
                spmd_check_finite("stencil SPMD CG solution", shared, w, ctx.x, row_len, xb);
                for (ry, row) in ctx.r.chunks_exact(row_len).enumerate() {
                    let mut s = 0.0;
                    for v in row {
                        s += v;
                    }
                    shared.partials.set(lo + ry, s);
                }
                shared.board.sync();
                let net = shared.partials.fold() + rb;
                shared.board.sync();
                crate::paranoid::check_conservation_net(
                    "stencil SPMD CG",
                    net,
                    sys.unknowns(),
                    shared.norm_b,
                    shared.tol,
                );
            }
            return Ok((it + 1, rel, xb));
        }
        spmd_vcycle(w, ctx, shared);
        zb = match shared.mg.border_diag {
            Some(dg) => rb / dg,
            None => 0.0,
        };
        let rz_new = spmd_grid_dot(shared, w, &*ctx.r, &*ctx.z, row_len) + rb * zb;
        if !rz_new.is_finite() || rz_new <= 0.0 {
            return Err((it + 1, rel));
        }
        let beta = rz_new / rz;
        rz = rz_new;
        for (pi, zi) in ctx.p.iter_mut().zip(ctx.z.iter()) {
            *pi = zi + beta * *pi;
        }
        pb = zb + beta * pb;
    }
    let norm_r = (spmd_grid_dot(shared, w, &*ctx.r, &*ctx.r, row_len) + rb * rb).sqrt();
    Err((shared.max_iter, norm_r / shared.norm_b))
}

/// Threaded, deterministic CG solve of a stencil system: the whole solve
/// runs as one SPMD team over row slabs (see [`crate::pool`]), and every
/// reduction has a fixed, mesh-determined shape — so the result is
/// **bit-identical at any thread count**, including `threads == 1`.
/// Mirrors `preconditioned_cg`'s contract (full solution vector,
/// iterations, relative residual).
fn stencil_cg_spmd(
    sys: &StencilSystem,
    mg: &MultigridPreconditioner,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    threads: usize,
) -> Result<(Vec<f64>, usize, f64), (usize, f64)> {
    let ng = sys.op.len();
    let n = sys.unknowns();
    let row_len0 = sys.op.nx * sys.op.nz;
    let b_border = if sys.border.is_some() { b[ng] } else { 0.0 };
    // ‖b‖ with the same fixed per-row reduction shape the workers use.
    let mut nb2 = 0.0;
    for row in b[..ng].chunks_exact(row_len0) {
        nb2 += crate::pool::dot_wide(row, row);
    }
    nb2 += b_border * b_border;
    let norm_b = nb2.sqrt();
    if exact_zero(norm_b) {
        return Ok((vec![0.0; n], 0, 0.0));
    }
    let plan = SlabPlan::new(mg, threads);
    let shared = SpmdShared {
        sys,
        mg,
        plan: &plan,
        board: Board::new(plan.workers),
        partials: Partials::new(sys.op.ny),
        tol,
        max_iter,
        norm_b,
        b_border,
    };
    // The grid part of the solution; the border scalar is replicated.
    let mut x = vec![0.0; ng];
    let outcomes = run_team(&shared, &b[..ng], &mut x, |w, ctx| {
        spmd_worker(w, ctx, &shared)
    });
    // Every worker returns the identical replicated outcome.
    let (iterations, rel, xb) = outcomes[0]?;
    if sys.border.is_some() {
        x.push(xb);
    }
    Ok((x, iterations, rel))
}

/// Maps a CG failure onto [`SolveError`], mirroring the CSR path.
fn stencil_cg_failure((iterations, residual): (usize, f64)) -> SolveError {
    if residual.is_infinite() {
        SolveError::Singular {
            detail: "stencil system is not positive definite".to_string(),
        }
    } else {
        SolveError::NotConverged {
            iterations,
            residual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrMatrix;

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
    fn multigrid_cg_matches_csr_mic0_cg() {
        for (nx, ny) in [(12, 12), (9, 13), (28, 4)] {
            let sys = StencilSystem::layered(&spec(nx, ny));
            let csr = to_csr(&sys);
            let f = FactorizedStencil::new(sys.clone(), SolveOptions::default()).unwrap();
            // A scattered injection pattern at the top layer.
            let nz = sys.operator().nz();
            let injections: Vec<(usize, f64)> = (0..nx * ny)
                .step_by(5)
                .map(|col| (col * nz + nz - 1, 1e-4 * (1.0 + (col % 7) as f64)))
                .collect();
            let (got, stats) = f.solve_injections_stats(&injections).unwrap();
            assert!(
                stats.iterations > 0 && stats.iterations < 60,
                "{} iterations",
                stats.iterations
            );
            // Oracle: Jacobi-CG on the CSR expansion at tight tolerance.
            let mut rhs = f.static_rhs.clone();
            for &(cell, amps) in &injections {
                rhs[cell] += amps;
            }
            let precond = crate::sparse::Preconditioner::best(&csr);
            let (want, _, _) =
                crate::sparse::preconditioned_cg(&csr, &rhs, 1e-12, 20 * csr.n(), &precond)
                    .unwrap();
            for i in 0..got.len() {
                assert!(
                    (got[i] - want[i]).abs() < 1e-6,
                    "{nx}x{ny} cell {i}: stencil {} vs csr {}",
                    got[i],
                    want[i]
                );
            }
        }
    }

    #[test]
    fn iteration_counts_stay_near_mesh_independent() {
        let mut iters = Vec::new();
        for n in [8usize, 16, 32] {
            let sys = StencilSystem::layered(&spec(n, n));
            let nz = sys.operator().nz();
            let f = FactorizedStencil::new(sys, SolveOptions::default()).unwrap();
            let (_, stats) = f
                .solve_injections_stats(&[(((n / 2) * n + n / 2) * nz + 1, 1e-3)])
                .unwrap();
            iters.push(stats.iterations);
        }
        let max = *iters.iter().max().unwrap();
        let min = *iters.iter().min().unwrap().max(&1);
        assert!(
            max <= 2 * min + 6,
            "iteration growth across meshes: {iters:?}"
        );
    }

    #[test]
    fn no_package_resistance_means_no_border_node() {
        let mut s = spec(5, 5);
        s.package_resistance = 0.0;
        let sys = StencilSystem::layered(&s);
        assert_eq!(sys.unknowns(), sys.grid_cells());
        let f = FactorizedStencil::new(sys, SolveOptions::default()).unwrap();
        let warm = f.solve_injections(&[(0, 1e-3)]).unwrap();
        assert!(warm[0] > 25.0);
    }

    #[test]
    fn zero_injections_settle_at_ambient() {
        let sys = StencilSystem::layered(&spec(6, 6));
        let f = FactorizedStencil::new(sys, SolveOptions::default()).unwrap();
        let temps = f.solve_injections(&[]).unwrap();
        for (i, &t) in temps.iter().enumerate() {
            assert!((t - 25.0).abs() < 1e-6, "cell {i}: {t}");
        }
    }

    #[test]
    fn restriction_is_the_exact_transpose_of_prolongation() {
        // <R r, x>_coarse == <r, P x>_fine for random vectors — the
        // symmetry requirement of the V-cycle.
        let op = StencilSystem::layered(&spec(9, 7)).operator().clone();
        let nxc = op.nx().div_ceil(2);
        let nyc = op.ny().div_ceil(2);
        let nc = nxc * nyc * op.nz();
        let r: Vec<f64> = (0..op.len()).map(|i| ((i * 13 + 5) % 23) as f64).collect();
        let xc: Vec<f64> = (0..nc).map(|i| ((i * 7 + 3) % 17) as f64).collect();
        let mut rc = vec![0.0; nc];
        op.restrict_rows(&r, &[], &[], 0, &mut rc, 0);
        let mut px = vec![0.0; op.len()];
        op.prolong_rows(&CoarseRows::Full(&xc), &mut px, 0);
        let lhs: f64 = rc.iter().zip(&xc).map(|(a, b)| a * b).sum();
        let rhs: f64 = r.iter().zip(&px).map(|(a, b)| a * b).sum();
        assert!(
            (lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    /// `bounds[w] = ny·w/t` — the level-0 row partition the slab tests
    /// emulate by hand.
    fn even_bounds(ny: usize, t: usize) -> Vec<usize> {
        (0..=t).map(|w| ny * w / t).collect()
    }

    fn assert_bits_eq(what: &str, got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}: entry {i} drifted ({g} vs {w})"
            );
        }
    }

    #[test]
    fn slab_matvec_is_bitwise_the_full_slab_matvec() {
        // 2/3/4 slabs against the whole grid as one slab, including
        // nx ≠ ny and odd extents.
        for (nx, ny) in [(12, 12), (9, 13), (17, 5)] {
            let op = StencilSystem::layered(&spec(nx, ny)).operator().clone();
            let row_len = nx * op.nz();
            let x: Vec<f64> = (0..op.len())
                .map(|i| ((i * 31 + 7) % 29) as f64 - 14.0)
                .collect();
            let mut want = vec![0.0; op.len()];
            op.apply_into(&x, &mut want);
            let zeros = vec![0.0; row_len];
            for t in [2, 3, 4] {
                let bounds = even_bounds(ny, t.min(ny));
                let mut got = vec![0.0; op.len()];
                for (w, win) in bounds.windows(2).enumerate() {
                    let (lo, hi) = (win[0], win[1]);
                    let x_lo = if lo > 0 {
                        &x[(lo - 1) * row_len..lo * row_len]
                    } else {
                        &zeros[..]
                    };
                    let x_hi = if hi < ny {
                        &x[hi * row_len..(hi + 1) * row_len]
                    } else {
                        &zeros[..]
                    };
                    op.apply_rows(
                        &x[lo * row_len..hi * row_len],
                        x_lo,
                        x_hi,
                        &mut got[lo * row_len..hi * row_len],
                        lo,
                    );
                    let _ = w;
                }
                assert_bits_eq(&format!("{nx}x{ny} matvec t={t}"), &got, &want);
            }
        }
    }

    #[test]
    fn slab_smoother_is_bitwise_the_full_slab_smoother() {
        // 2/3/4 slabs against the whole grid as one slab.
        for (nx, ny) in [(10, 14), (9, 13), (17, 5)] {
            let op = StencilSystem::layered(&spec(nx, ny)).operator().clone();
            let nz = op.nz();
            let row_len = nx * nz;
            let r: Vec<f64> = (0..op.len())
                .map(|i| ((i * 53 + 3) % 41) as f64 * 1e-4)
                .collect();
            let mut want = vec![0.0; op.len()];
            let mut dp = vec![0.0; nz];
            for color in [0, 1] {
                op.smooth_rows_color(&r, &mut want, &[], &[], 0, color, &mut dp);
            }
            let zeros = vec![0.0; row_len];
            for t in [2, 3, 4] {
                let bounds = even_bounds(ny, t.min(ny));
                let mut got = vec![0.0; op.len()];
                for color in [0, 1] {
                    // Pre-phase halo snapshot — what spmd_exchange gives
                    // every worker before a colour phase starts.
                    let snapshot = got.clone();
                    for win in bounds.windows(2) {
                        let (lo, hi) = (win[0], win[1]);
                        let x_lo = if lo > 0 {
                            &snapshot[(lo - 1) * row_len..lo * row_len]
                        } else {
                            &zeros[..]
                        };
                        let x_hi = if hi < ny {
                            &snapshot[hi * row_len..(hi + 1) * row_len]
                        } else {
                            &zeros[..]
                        };
                        op.smooth_rows_color(
                            &r[lo * row_len..hi * row_len],
                            &mut got[lo * row_len..hi * row_len],
                            x_lo,
                            x_hi,
                            lo,
                            color,
                            &mut dp,
                        );
                    }
                }
                assert_bits_eq(&format!("{nx}x{ny} smoother t={t}"), &got, &want);
            }
        }
    }

    #[test]
    fn threaded_solves_are_bit_identical_across_thread_counts() {
        // The determinism contract behind `Flow::content_key`: the same
        // solve at 1, 2 and 4 threads must agree to the last bit —
        // square, rectangular and odd meshes, with and without a border
        // node.
        for (nx, ny, border) in [(12, 12, true), (9, 13, true), (16, 7, false)] {
            let mut s = spec(nx, ny);
            if !border {
                s.package_resistance = 0.0;
            }
            let sys = StencilSystem::layered(&s);
            let nz = sys.operator().nz();
            let injections: Vec<(usize, f64)> = (0..nx * ny)
                .step_by(4)
                .map(|col| (col * nz + nz - 1, 1e-4 * (1.0 + (col % 5) as f64)))
                .collect();
            let mut baseline: Option<(Vec<f64>, SolveStats)> = None;
            for threads in [1usize, 2, 4] {
                let f = FactorizedStencil::new(
                    sys.clone(),
                    SolveOptions {
                        threads,
                        ..SolveOptions::default()
                    },
                )
                .unwrap();
                let (x, stats) = f.solve_injections_stats(&injections).unwrap();
                match &baseline {
                    None => baseline = Some((x, stats)),
                    Some((x1, s1)) => {
                        assert_eq!(s1.iterations, stats.iterations, "{nx}x{ny} t={threads}");
                        assert_eq!(
                            s1.relative_residual.to_bits(),
                            stats.relative_residual.to_bits(),
                            "{nx}x{ny} t={threads}: residual drifted"
                        );
                        assert_bits_eq(&format!("{nx}x{ny} solve t={threads}"), &x, x1);
                    }
                }
            }
        }
    }

    #[test]
    fn threaded_vcycle_preconditioner_is_bitwise_the_scalar_cycle() {
        // One V-cycle application z = M·r, threaded vs the single-worker
        // whole-grid recursion — pins the slab/halo/all-gather protocol,
        // independent of CG.
        for (nx, ny) in [(12, 12), (9, 13)] {
            let sys = StencilSystem::layered(&spec(nx, ny));
            let mg = MultigridPreconditioner::build(&sys).unwrap();
            let ng = sys.op.len();
            let r: Vec<f64> = (0..ng).map(|i| ((i * 19 + 5) % 13) as f64 * 1e-3).collect();
            // Oracle: the private cycle() on a workspace sized for every
            // level.
            let mut ws = replicated_workspace(&mg, 0);
            ws.rs[0].copy_from_slice(&r);
            mg.cycle(0, &mut ws);
            let want = ws.xs[0].clone();
            for threads in [2usize, 4] {
                let plan = SlabPlan::new(&mg, threads);
                let shared = SpmdShared {
                    sys: &sys,
                    mg: &mg,
                    plan: &plan,
                    board: Board::new(plan.workers),
                    partials: Partials::new(sys.op.ny),
                    tol: 1e-9,
                    max_iter: 1,
                    norm_b: 1.0,
                    b_border: 0.0,
                };
                let mut x = vec![0.0; ng];
                let z = run_team(&shared, &r, &mut x, |w, ctx| {
                    ctx.r.copy_from_slice(ctx.b);
                    spmd_vcycle(w, ctx, &shared);
                    ctx.z.to_vec()
                })
                .concat();
                assert_bits_eq(&format!("{nx}x{ny} vcycle t={threads}"), &z, &want);
            }
        }
    }

    #[test]
    fn with_spectral_takes_the_direct_path_on_homogeneous_systems() {
        // A uniform layered stack qualifies bit-for-bit: full-field
        // solves are answered by the spectral tier (exactly -- the
        // residual check inside the dispatch would otherwise fall back),
        // and the result stays within the oracle drift budget of the
        // plain multigrid factorization.
        for (nx, ny) in [(12usize, 12usize), (16, 12)] {
            let sys = StencilSystem::layered(&spec(nx, ny));
            let nz = sys.operator().nz();
            let injections: Vec<(usize, f64)> = (0..nx * ny)
                .step_by(3)
                .map(|col| (col * nz + nz - 1, 2e-4 * (1.0 + (col % 7) as f64)))
                .collect();
            let direct =
                FactorizedStencil::with_spectral(sys.clone(), SolveOptions::default()).unwrap();
            assert!(direct.spectral_direct(), "{nx}x{ny} qualifies");
            assert!(
                !direct.spectral_coarse(),
                "direct path keeps the dense coarse factor"
            );
            let oracle = FactorizedStencil::new(sys, SolveOptions::default()).unwrap();
            let (xd, stats) = direct.solve_injections_stats(&injections).unwrap();
            let (xo, _) = oracle.solve_injections_stats(&injections).unwrap();
            assert_eq!(direct.direct_solves(), 1, "spectral tier answered");
            assert_eq!(direct.iterative_solves(), 0);
            assert_eq!(stats.iterations, 1, "direct solves do not iterate");
            let drift = xd
                .iter()
                .zip(&xo)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(
                drift <= 1e-6,
                "{nx}x{ny}: spectral-vs-MG drift {drift:.3e} K"
            );
        }
    }

    #[test]
    fn threaded_spectral_solves_are_bit_identical_across_thread_counts() {
        // Same contract as the SPMD multigrid path: identical bits at 1,
        // 2 and 4 threads, square and rectangular meshes.
        for (nx, ny) in [(12usize, 12usize), (20, 12)] {
            let sys = StencilSystem::layered(&spec(nx, ny));
            let nz = sys.operator().nz();
            let injections: Vec<(usize, f64)> = (0..nx * ny)
                .step_by(4)
                .map(|col| (col * nz + nz - 1, 1e-4 * (1.0 + (col % 5) as f64)))
                .collect();
            let mut baseline: Option<(Vec<f64>, SolveStats)> = None;
            for threads in [1usize, 2, 4] {
                let f = FactorizedStencil::with_spectral(
                    sys.clone(),
                    SolveOptions {
                        threads,
                        ..SolveOptions::default()
                    },
                )
                .unwrap();
                assert!(f.spectral_direct());
                let (x, stats) = f.solve_injections_stats(&injections).unwrap();
                assert_eq!(f.direct_solves(), 1);
                match &baseline {
                    None => baseline = Some((x, stats)),
                    Some((x1, s1)) => {
                        assert_eq!(
                            s1.relative_residual.to_bits(),
                            stats.relative_residual.to_bits(),
                            "{nx}x{ny} t={threads}: residual drifted"
                        );
                        assert_bits_eq(&format!("{nx}x{ny} spectral t={threads}"), &x, x1);
                    }
                }
            }
        }
    }

    /// A wrapper-ring-style inhomogeneity: the layered stack with a ring
    /// of boosted lateral conductance in the device layer.
    fn ring_perturbed_system(nx: usize, ny: usize) -> StencilSystem {
        let sys = StencilSystem::layered(&spec(nx, ny));
        let op = sys.operator();
        let (nz, n) = (op.nz, op.len());
        let (mut gx, mut gy, mut gz, mut leak) =
            (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        gx.copy_from_slice(&op.gx[..n]);
        gy.copy_from_slice(&op.gy[..n]);
        gz.copy_from_slice(&op.gz[..n]);
        leak.copy_from_slice(&op.leak[..n]);
        for iy in 2..ny - 2 {
            for ix in 2..nx - 2 {
                let on_ring = ix == 2 || iy == 2 || ix == nx - 3 || iy == ny - 3;
                if on_ring {
                    let i = (iy * nx + ix) * nz + 1;
                    gx[i] *= 1.75;
                    gy[i] *= 1.75;
                }
            }
        }
        let ring = StencilOperator::new(nx, ny, nz, gx, gy, gz, leak);
        let mut out = sys;
        out.op = ring;
        out
    }

    #[test]
    fn inhomogeneous_systems_fall_back_to_multigrid_without_drift() {
        // The homogeneity-detection regression: a wrapper-ring system
        // must NOT qualify for the direct spectral path; it runs the
        // iterative solver (counted), under the spectral *coarse* mode,
        // and stays within the oracle drift budget of the plain dense
        // coarse factorization.
        let sys = ring_perturbed_system(16, 16);
        let nz = sys.operator().nz();
        let injections: Vec<(usize, f64)> = (0..16 * 16)
            .step_by(5)
            .map(|col| (col * nz + nz - 1, 1.5e-4 * (1.0 + (col % 3) as f64)))
            .collect();
        let f = FactorizedStencil::with_spectral(sys.clone(), SolveOptions::default()).unwrap();
        assert!(!f.spectral_direct(), "ring system must not qualify");
        assert!(
            f.spectral_coarse(),
            "falls back to the spectral coarse mode"
        );
        let (x, stats) = f.solve_injections_stats(&injections).unwrap();
        assert_eq!(f.direct_solves(), 0, "no spectral direct solve may run");
        assert_eq!(f.iterative_solves(), 1, "multigrid answered");
        assert!(stats.iterations > 1, "iterative path really iterated");
        let oracle = FactorizedStencil::new(sys, SolveOptions::default()).unwrap();
        let (xo, _) = oracle.solve_injections_stats(&injections).unwrap();
        assert_eq!(oracle.direct_solves(), 0);
        let drift = x
            .iter()
            .zip(&xo)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(drift <= 1e-6, "spectral-coarse drift {drift:.3e} K");
    }

    #[test]
    fn spectral_coarse_solves_are_bit_identical_across_thread_counts() {
        // The spectral coarse solver is replicated scalar code inside
        // each SPMD worker, so the full iterative solve keeps the
        // bit-identity contract. 16x8 semi-coarsens to an even 4x2
        // coarsest grid, which the transform supports (12 would bottom
        // out at 3 and fall back to the dense factor).
        let sys = ring_perturbed_system(16, 8);
        let nz = sys.operator().nz();
        let injections: Vec<(usize, f64)> = (0..16 * 8)
            .step_by(4)
            .map(|col| (col * nz + nz - 1, 1e-4 * (1.0 + (col % 5) as f64)))
            .collect();
        let mut baseline: Option<(Vec<f64>, SolveStats)> = None;
        for threads in [1usize, 2, 4] {
            let f = FactorizedStencil::with_spectral(
                sys.clone(),
                SolveOptions {
                    threads,
                    ..SolveOptions::default()
                },
            )
            .unwrap();
            assert!(f.spectral_coarse());
            let (x, stats) = f.solve_injections_stats(&injections).unwrap();
            match &baseline {
                None => baseline = Some((x, stats)),
                Some((x1, s1)) => {
                    assert_eq!(s1.iterations, stats.iterations, "t={threads}");
                    assert_eq!(
                        s1.relative_residual.to_bits(),
                        stats.relative_residual.to_bits(),
                        "t={threads}: residual drifted"
                    );
                    assert_bits_eq(&format!("spectral-coarse solve t={threads}"), &x, x1);
                }
            }
        }
    }

    /// FNV-1a over the bits of a solve: every solution entry, then the
    /// iteration count and the relative residual.
    fn solve_digest(x: &[f64], stats: &SolveStats) -> u64 {
        let words = x
            .iter()
            .map(|v| v.to_bits())
            .chain([stats.iterations as u64, stats.relative_residual.to_bits()]);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for word in words {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn multigrid_solves_match_their_golden_digests() {
        // Golden multigrid answers: dense-coarse solves on square, odd and
        // border-free meshes plus the spectral-coarse ring system, each at
        // 1 and 4 threads. They pin the V-cycle's bits on their own, with
        // no second kernel set to compare against.
        let mut border_free = spec(16, 7);
        border_free.package_resistance = 0.0;
        let cases = [
            (
                "12x12",
                StencilSystem::layered(&spec(12, 12)),
                false,
                0xdcbd_c81e_70ab_35fdu64,
            ),
            (
                "9x13",
                StencilSystem::layered(&spec(9, 13)),
                false,
                0x6b23_9ebc_cc90_ceca,
            ),
            (
                "16x7 border-free",
                StencilSystem::layered(&border_free),
                false,
                0x75b6_e1ab_730e_945b,
            ),
            (
                "16x8 ring",
                ring_perturbed_system(16, 8),
                true,
                0x110c_ee1c_ec85_25d9,
            ),
        ];
        let mut got = Vec::new();
        for (label, sys, spectral_coarse, _) in &cases {
            let nz = sys.operator().nz();
            let columns = sys.operator().nx() * sys.operator().ny();
            let injections: Vec<(usize, f64)> = (0..columns)
                .step_by(3)
                .map(|col| (col * nz + nz - 1, 1e-4 * (1.0 + (col % 7) as f64)))
                .collect();
            for threads in [1usize, 4] {
                let options = SolveOptions {
                    threads,
                    ..SolveOptions::default()
                };
                let f = if *spectral_coarse {
                    FactorizedStencil::with_spectral(sys.clone(), options)
                } else {
                    FactorizedStencil::new(sys.clone(), options)
                }
                .unwrap();
                assert_eq!(f.spectral_coarse(), *spectral_coarse, "{label}");
                let (x, stats) = f.solve_injections_stats(&injections).unwrap();
                assert_eq!(f.iterative_solves(), 1, "{label}: multigrid answered");
                got.push(format!(
                    "{label} t={threads}: {:016x}",
                    solve_digest(&x, &stats)
                ));
            }
        }
        let want: Vec<String> = cases
            .iter()
            .flat_map(|(label, _, _, digest)| {
                [1, 4].map(|threads| format!("{label} t={threads}: {digest:016x}"))
            })
            .collect();
        assert_eq!(got, want, "multigrid answers moved");
    }
}
