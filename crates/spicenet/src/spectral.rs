//! Spectral tier-0 solver: fast cosine transforms (DCT-II / DCT-III via a
//! mixed-radix FFT) and a *direct* solver for laterally homogeneous
//! stencil stacks.
//!
//! A layered die stack whose lateral conductances are uniform within each
//! layer diagonalizes in the cosine basis: the DCT-II vectors
//! `cos(πk(2j+1)/2n)` are exactly the eigenvectors of the 1-D Neumann
//! coupling matrix `g·tridiag(−1, [1,2,…,2,1], −1)`, with eigenvalues
//! `g·(2 − 2cos(πk/n))`. Transforming the right-hand side plane by plane
//! therefore turns the 3-D solve into `nx·ny` independent vertical
//! problems — one Thomas sweep per `(kx, ky)` mode — making the solve
//! direct (exact, no iteration) at near `O(n log n)`.
//!
//! Everything here is dependency-free and, like [`crate::pool::dot_wide`],
//! uses a fixed, shape-pure butterfly/summation order: each row, column,
//! and mode is processed by identical scalar code regardless of how the
//! work is partitioned, so results are bit-identical at any thread count.
//! That contract is load-bearing — `Flow::content_key` and the coolserved
//! disk cache key results by solved bits.

use crate::stencil::{StencilOperator, StencilSystem};

/// Minimal complex scalar for the internal FFT (no external deps).
#[derive(Clone, Copy, Debug, Default)]
struct Complex {
    re: f64,
    im: f64,
}

impl Complex {
    #[inline]
    fn add(self, o: Complex) -> Complex {
        Complex {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }

    #[inline]
    fn sub(self, o: Complex) -> Complex {
        Complex {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }

    #[inline]
    fn mul(self, o: Complex) -> Complex {
        Complex {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }
}

/// Reads `exp(−2πi·idx/(4n))` from the plan table, conjugated for the
/// inverse transform. The single 4n-entry table serves every recursion
/// level (all sub-sizes divide `n`) *and* the DCT post-twiddle
/// `exp(−iπk/2n)`, so forward and inverse share identical constants —
/// part of the bit-identity story.
#[inline]
fn twiddle(tw: &[Complex], idx: usize, conj: bool) -> Complex {
    let w = tw[idx];
    if conj {
        Complex {
            re: w.re,
            im: -w.im,
        }
    } else {
        w
    }
}

/// Decimation-in-time FFT of `m` points read from `src` at `stride`,
/// written to `out[0..m]`. `step` is the table stride for the current
/// sub-size (`4n/m`); odd sub-sizes fall back to a naive DFT, which
/// admits every even-composite length (20 = 4·5, 28 = 4·7, …). The
/// recursion shape depends only on `m`, never on the data or the caller's
/// threading, so the floating-point evaluation order is fixed.
fn fft_rec(
    src: &[Complex],
    stride: usize,
    out: &mut [Complex],
    m: usize,
    step: usize,
    conj: bool,
    tw: &[Complex],
) {
    if m == 1 {
        out[0] = src[0];
        return;
    }
    if m % 2 == 1 {
        for (k, o) in out.iter_mut().enumerate() {
            let mut acc = Complex::default();
            for j in 0..m {
                let w = twiddle(tw, (j * k) % m * step, conj);
                acc = acc.add(src[j * stride].mul(w));
            }
            *o = acc;
        }
        return;
    }
    let h = m / 2;
    let (lo, hi) = out.split_at_mut(h);
    fft_rec(src, stride * 2, lo, h, step * 2, conj, tw);
    fft_rec(&src[stride..], stride * 2, hi, h, step * 2, conj, tw);
    for k in 0..h {
        let w = twiddle(tw, k * step, conj);
        let t = w.mul(hi[k]);
        let e = lo[k];
        lo[k] = e.add(t);
        hi[k] = e.sub(t);
    }
}

/// Reusable FFT buffers for one transform length (grown on demand).
/// Workers allocate one per team member; none of the transform entry
/// points allocate per call once the scratch has warmed up.
#[derive(Clone, Debug, Default)]
pub struct DctScratch {
    a: Vec<Complex>,
    b: Vec<Complex>,
}

impl DctScratch {
    /// An empty scratch; buffers grow to fit the first plan that uses it.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, n: usize) {
        if self.a.len() < n {
            self.a.resize(n, Complex::default());
            self.b.resize(n, Complex::default());
        }
    }
}

/// A fixed-length DCT-II / DCT-III plan (Makhoul's length-`n` FFT
/// formulation). Supported lengths are 1 and any even `n` — the sweep
/// mesh band (12…512) is entirely even; odd meshes simply do not qualify
/// and stay on the multigrid path.
#[derive(Clone, Debug)]
pub struct DctPlan {
    n: usize,
    /// `tw[i] = exp(−2πi·i/(4n))`, length `4n`.
    tw: Vec<Complex>,
}

impl DctPlan {
    /// Whether a transform of length `n` is available.
    pub fn supported(n: usize) -> bool {
        n == 1 || (n > 0 && n.is_multiple_of(2))
    }

    /// Builds a plan, or `None` for unsupported lengths (0 or odd > 1).
    pub fn new(n: usize) -> Option<DctPlan> {
        if !Self::supported(n) {
            return None;
        }
        let q = 4 * n;
        let tw = (0..q)
            .map(|i| {
                let ang = -2.0 * std::f64::consts::PI * i as f64 / q as f64;
                Complex {
                    re: ang.cos(),
                    im: ang.sin(),
                }
            })
            .collect();
        Some(DctPlan { n, tw })
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True only for the trivial length-0 plan (never constructed; kept
    /// for the `len`/`is_empty` API convention).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place unnormalized DCT-II: `X[k] = Σⱼ x[j]·cos(πk(2j+1)/2n)`.
    pub fn forward(&self, x: &mut [f64], s: &mut DctScratch) {
        let n = self.n;
        debug_assert_eq!(x.len(), n);
        if n == 1 {
            return;
        }
        s.ensure(n);
        let DctScratch { a, b } = s;
        let (a, b) = (&mut a[..n], &mut b[..n]);
        // Makhoul reordering: evens ascending, odds descending.
        for j in 0..n / 2 {
            a[j] = Complex {
                re: x[2 * j],
                im: 0.0,
            };
            a[n - 1 - j] = Complex {
                re: x[2 * j + 1],
                im: 0.0,
            };
        }
        fft_rec(a, 1, b, n, 4, false, &self.tw);
        for (k, v) in x.iter_mut().enumerate() {
            let w = self.tw[k];
            *v = w.re * b[k].re - w.im * b[k].im;
        }
    }

    /// In-place scaled DCT-III, the exact inverse of [`Self::forward`]:
    /// `x[j] = (X[0] + 2·Σ_{k≥1} X[k]·cos(πk(2j+1)/2n)) / n`.
    pub fn inverse(&self, x: &mut [f64], s: &mut DctScratch) {
        let n = self.n;
        debug_assert_eq!(x.len(), n);
        if n == 1 {
            return;
        }
        s.ensure(n);
        let DctScratch { a, b } = s;
        let (a, b) = (&mut a[..n], &mut b[..n]);
        a[0] = Complex { re: x[0], im: 0.0 };
        for k in 1..n {
            let w = self.tw[k];
            let v = Complex {
                re: x[k],
                im: -x[n - k],
            };
            a[k] = Complex {
                re: w.re,
                im: -w.im,
            }
            .mul(v);
        }
        fft_rec(a, 1, b, n, 4, true, &self.tw);
        let inv_n = 1.0 / n as f64;
        for j in 0..n / 2 {
            x[2 * j] = b[j].re * inv_n;
            x[2 * j + 1] = b[n - 1 - j].re * inv_n;
        }
    }
}

/// Per-layer conductance profile of a laterally homogeneous operator.
struct LayerProfile {
    gxl: Vec<f64>,
    gyl: Vec<f64>,
    gzi: Vec<f64>,
    leak: Vec<f64>,
}

/// Extracts the layer profile iff the operator is *bitwise* laterally
/// homogeneous. Every `StencilOperator` is assembled by
/// `StencilOperator::new`, which derives `diag` and the Thomas pivots
/// from `gx/gy/gz/leak` alone — so uniformity of those four primitive
/// arrays fully determines the operator. Comparison is on bits
/// (`to_bits`) on purpose: qualification must be exact, and it sidesteps
/// float `==` while staying conservative about `-0.0`.
fn exact_profile(op: &StencilOperator) -> Option<LayerProfile> {
    let (nx, ny, nz) = (op.nx, op.ny, op.nz);
    let gxl: Vec<f64> = (0..nz)
        .map(|iz| if nx > 1 { op.gx[iz] } else { 0.0 })
        .collect();
    let gyl: Vec<f64> = (0..nz)
        .map(|iz| if ny > 1 { op.gy[iz] } else { 0.0 })
        .collect();
    let gzi: Vec<f64> = (0..nz)
        .map(|iz| if iz + 1 < nz { op.gz[iz] } else { 0.0 })
        .collect();
    let leak: Vec<f64> = op.leak[..nz].to_vec();
    for iy in 0..ny {
        for ix in 0..nx {
            let base = (iy * nx + ix) * nz;
            for iz in 0..nz {
                let i = base + iz;
                let want_gx = if ix + 1 < nx { gxl[iz] } else { 0.0 };
                let want_gy = if iy + 1 < ny { gyl[iz] } else { 0.0 };
                let want_gz = if iz + 1 < nz { gzi[iz] } else { 0.0 };
                if op.gx[i].to_bits() != want_gx.to_bits()
                    || op.gy[i].to_bits() != want_gy.to_bits()
                    || op.gz[i].to_bits() != want_gz.to_bits()
                    || op.leak[i].to_bits() != leak[iz].to_bits()
                {
                    return None;
                }
            }
        }
    }
    Some(LayerProfile {
        gxl,
        gyl,
        gzi,
        leak,
    })
}

/// Per-layer arithmetic means of the coupling arrays, accumulated in a
/// fixed index order. Used to build the *homogenized* operator behind the
/// spectral coarse-grid solver when the true operator does not qualify.
fn mean_profile(op: &StencilOperator) -> LayerProfile {
    let (nx, ny, nz) = (op.nx, op.ny, op.nz);
    let mut gxl = vec![0.0; nz];
    let mut gyl = vec![0.0; nz];
    let mut gzi = vec![0.0; nz];
    let mut leak = vec![0.0; nz];
    for iy in 0..ny {
        for ix in 0..nx {
            let base = (iy * nx + ix) * nz;
            for iz in 0..nz {
                let i = base + iz;
                if ix + 1 < nx {
                    gxl[iz] += op.gx[i];
                }
                if iy + 1 < ny {
                    gyl[iz] += op.gy[i];
                }
                if iz + 1 < nz {
                    gzi[iz] += op.gz[i];
                }
                leak[iz] += op.leak[i];
            }
        }
    }
    let cols = (nx * ny) as f64;
    let cx = ((nx.saturating_sub(1)) * ny).max(1) as f64;
    let cy = (nx * ny.saturating_sub(1)).max(1) as f64;
    for iz in 0..nz {
        gxl[iz] /= cx;
        gyl[iz] /= cy;
        gzi[iz] /= cols;
        leak[iz] /= cols;
    }
    LayerProfile {
        gxl,
        gyl,
        gzi,
        leak,
    }
}

/// Partial-pivot LU of a tiny dense system (the `(nz+1)²` border block).
#[derive(Clone, Debug)]
struct SmallLu {
    n: usize,
    lu: Vec<f64>,
    piv: Vec<usize>,
}

impl SmallLu {
    fn factor(n: usize, mut lu: Vec<f64>) -> Option<SmallLu> {
        debug_assert_eq!(lu.len(), n * n);
        let mut piv = Vec::with_capacity(n);
        for k in 0..n {
            let mut p = k;
            for i in k + 1..n {
                if lu[i * n + k].abs() > lu[p * n + k].abs() {
                    p = i;
                }
            }
            let pivot = lu[p * n + k];
            if !pivot.is_finite() || pivot.abs() <= 0.0 {
                return None;
            }
            piv.push(p);
            if p != k {
                for j in 0..n {
                    lu.swap(k * n + j, p * n + j);
                }
            }
            for i in k + 1..n {
                let f = lu[i * n + k] / pivot;
                lu[i * n + k] = f;
                for j in k + 1..n {
                    lu[i * n + j] -= f * lu[k * n + j];
                }
            }
        }
        Some(SmallLu { n, lu, piv })
    }

    fn solve(&self, b: &mut [f64]) {
        let n = self.n;
        debug_assert_eq!(b.len(), n);
        for (k, &p) in self.piv.iter().enumerate() {
            if p != k {
                b.swap(k, p);
            }
        }
        for i in 1..n {
            for j in 0..i {
                b[i] -= self.lu[i * n + j] * b[j];
            }
        }
        for i in (0..n).rev() {
            for j in i + 1..n {
                b[i] -= self.lu[i * n + j] * b[j];
            }
            b[i] /= self.lu[i * n + i];
        }
    }
}

/// The package-node coupling reduced to mode `(0, 0)`: the DCT-II of the
/// all-ones lateral profile is `nx·ny·δ_{k0}`, so the border couples
/// *only* into the zero mode. One tiny nonsymmetric `(nz+1)²` LU handles
/// it exactly.
#[derive(Clone, Debug)]
struct SpectralBorder {
    lu: SmallLu,
}

/// A factored spectral direct solver for a laterally homogeneous stencil
/// stack: forward DCT-II over both lateral axes, one Thomas tridiagonal
/// per `(kx, ky)` mode (division-free pivots, precomputed), inverse
/// DCT-III back. Construction fails (`None`) whenever the geometry does
/// not qualify — inhomogeneous coefficients, unsupported (odd > 1)
/// lateral sizes, or non-positive pivots — and callers fall back to
/// multigrid.
#[derive(Clone, Debug)]
pub struct SpectralSystem {
    nx: usize,
    ny: usize,
    nz: usize,
    plan_x: DctPlan,
    plan_y: DctPlan,
    /// Vertical interface conductance per layer (`gzi[nz−1] == 0`).
    gzi: Vec<f64>,
    /// Division-free Thomas pivots, plane-major: `inv[iz·nx·ny + m]` for
    /// mode `m = ky·nx + kx`.
    inv: Vec<f64>,
    border: Option<SpectralBorder>,
}

impl SpectralSystem {
    /// Factors the full system (grid + optional package border node) iff
    /// the operator is bitwise laterally homogeneous.
    pub fn from_stencil(sys: &StencilSystem) -> Option<SpectralSystem> {
        let prof = exact_profile(&sys.op)?;
        let border = sys.border.as_ref().map(|b| (b.coupling, b.diag));
        Self::build(&sys.op, &prof, border)
    }

    /// Factors a bare (border-free) operator iff it qualifies exactly.
    pub fn from_operator(op: &StencilOperator) -> Option<SpectralSystem> {
        let prof = exact_profile(op)?;
        Self::build(op, &prof, None)
    }

    /// Factors the *homogenized* operator (per-layer mean coefficients).
    /// This is an approximation of `op` — exact when `op` already
    /// qualifies — used as a multigrid coarse-grid solver.
    pub fn homogenized(op: &StencilOperator) -> Option<SpectralSystem> {
        let prof = mean_profile(op);
        Self::build(op, &prof, None)
    }

    fn build(
        op: &StencilOperator,
        prof: &LayerProfile,
        border: Option<(f64, f64)>,
    ) -> Option<SpectralSystem> {
        let (nx, ny, nz) = (op.nx, op.ny, op.nz);
        let plan_x = DctPlan::new(nx)?;
        let plan_y = DctPlan::new(ny)?;
        let nxy = nx * ny;
        let pi = std::f64::consts::PI;
        let lam_x: Vec<f64> = (0..nx)
            .map(|k| 2.0 - 2.0 * (pi * k as f64 / nx as f64).cos())
            .collect();
        let lam_y: Vec<f64> = (0..ny)
            .map(|k| 2.0 - 2.0 * (pi * k as f64 / ny as f64).cos())
            .collect();
        // Vertical-only part of the modal diagonal; the lateral part is
        // `gxl·λx(kx) + gyl·λy(ky)` (zero at the zero mode, matching the
        // Neumann row sums of the assembled operator).
        let dz: Vec<f64> = (0..nz)
            .map(|iz| {
                let mut d = prof.leak[iz];
                if iz + 1 < nz {
                    d += prof.gzi[iz];
                }
                if iz > 0 {
                    d += prof.gzi[iz - 1];
                }
                d
            })
            .collect();
        let mut inv = vec![0.0; nz * nxy];
        for (ky, &ly) in lam_y.iter().enumerate() {
            for (kx, &lx) in lam_x.iter().enumerate() {
                let m = ky * nx + kx;
                let mut prev = 0.0;
                for iz in 0..nz {
                    let diag = dz[iz] + prof.gxl[iz] * lx + prof.gyl[iz] * ly;
                    let pivot = if iz == 0 {
                        diag
                    } else {
                        diag - prof.gzi[iz - 1] * prof.gzi[iz - 1] * prev
                    };
                    if !pivot.is_finite() || pivot <= 0.0 {
                        // Mode tridiagonal not SPD (e.g. a floating stack
                        // with zero leak) — refuse, callers use multigrid.
                        return None;
                    }
                    prev = 1.0 / pivot;
                    inv[iz * nxy + m] = prev;
                }
            }
        }
        let border = match border {
            None => None,
            Some((coupling, bdiag)) => {
                let nb = nz + 1;
                let mut mat = vec![0.0; nb * nb];
                for iz in 0..nz {
                    mat[iz * nb + iz] = dz[iz];
                    if iz + 1 < nz {
                        mat[iz * nb + iz + 1] = -prof.gzi[iz];
                        mat[(iz + 1) * nb + iz] = -prof.gzi[iz];
                    }
                }
                // Grid rows see the border scaled by the zero-mode mass
                // `nx·ny`; the border row sees the plain sum. Nonsymmetric,
                // hence LU rather than the Cholesky used elsewhere.
                mat[nb - 1] = -coupling * nxy as f64;
                mat[nz * nb] = -coupling;
                mat[nz * nb + nz] = bdiag;
                Some(SpectralBorder {
                    lu: SmallLu::factor(nb, mat)?,
                })
            }
        };
        Some(SpectralSystem {
            nx,
            ny,
            nz,
            plan_x,
            plan_y,
            gzi: prof.gzi.clone(),
            inv,
            border,
        })
    }

    /// Grid dimensions `(nx, ny, nz)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Unknown count including the border slot when present.
    pub fn unknowns(&self) -> usize {
        self.nx * self.ny * self.nz + usize::from(self.border.is_some())
    }

    /// Whether the factorization carries a package border node.
    pub fn has_border(&self) -> bool {
        self.border.is_some()
    }
}

/// Even worker bounds over `n` items, the same fixed partition rule the
/// SPMD multigrid solver uses (`bounds[w] = n·w/workers`).
fn even_bounds(n: usize, workers: usize) -> Vec<usize> {
    (0..=workers).map(|w| n * w / workers).collect()
}

/// Splits each plane of `planes` into per-worker disjoint element ranges:
/// `result[w][iz]` is worker `w`'s slice of plane `iz`.
fn split_planes<'a>(planes: &'a mut [Vec<f64>], bounds: &[usize]) -> Vec<Vec<&'a mut [f64]>> {
    let workers = bounds.len() - 1;
    let mut out: Vec<Vec<&'a mut [f64]>> = (0..workers)
        .map(|_| Vec::with_capacity(planes.len()))
        .collect();
    for plane in planes.iter_mut() {
        let mut rest: &mut [f64] = plane.as_mut_slice();
        for (w, slot) in out.iter_mut().enumerate() {
            let take = bounds[w + 1] - bounds[w];
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(take);
            slot.push(head);
            rest = tail;
        }
    }
    out
}

/// Splits one slice into per-worker chunks sized by `bounds`.
fn split_slices<'a, T>(mut rest: &'a mut [T], bounds: &[usize]) -> Vec<&'a mut [T]> {
    let workers = bounds.len() - 1;
    let mut out = Vec::with_capacity(workers);
    for w in 0..workers {
        let take = bounds[w + 1] - bounds[w];
        let (head, tail) = rest.split_at_mut(take);
        out.push(head);
        rest = tail;
    }
    out
}

impl SpectralSystem {
    /// Direct solve. `rhs` covers the grid in the z-innermost stencil
    /// layout plus, when a border was factored, one trailing border slot;
    /// the returned vector has the same shape.
    ///
    /// The pipeline runs in five slab-parallel stages over the shared
    /// `pool` worker teams — forward row DCTs, forward column DCTs, the
    /// per-mode Thomas sweeps, inverse column DCTs, inverse row DCTs —
    /// with the border fix sequential in between. No stage performs a
    /// cross-thread reduction and every row/column/mode is transformed by
    /// identical scalar code whatever the partition, so the solution is
    /// bit-identical at any `threads`.
    pub fn solve(&self, rhs: &[f64], threads: usize) -> Vec<f64> {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let nxy = nx * ny;
        let ng = nxy * nz;
        let expect = ng + usize::from(self.border.is_some());
        assert_eq!(rhs.len(), expect, "spectral rhs length mismatch");
        let team = crate::pool::effective_threads(threads);
        let mut planes: Vec<Vec<f64>> = vec![vec![0.0; nxy]; nz];

        // Stage 1: gather x-rows out of the z-innermost RHS and DCT them.
        {
            let t = team.min(ny);
            let row_bounds = even_bounds(ny, t);
            let elem_bounds: Vec<usize> = row_bounds.iter().map(|r| r * nx).collect();
            let ctxs = split_planes(&mut planes, &elem_bounds);
            let plan_x = &self.plan_x;
            let row_bounds = &row_bounds;
            crate::pool::run(ctxs, move |w, mut slabs: Vec<&mut [f64]>| {
                let mut scratch = DctScratch::new();
                let y0 = row_bounds[w];
                let rows = row_bounds[w + 1] - y0;
                for (iz, slab) in slabs.iter_mut().enumerate() {
                    for r in 0..rows {
                        let iy = y0 + r;
                        let row = &mut slab[r * nx..(r + 1) * nx];
                        for (ix, v) in row.iter_mut().enumerate() {
                            *v = rhs[(iy * nx + ix) * nz + iz];
                        }
                        plan_x.forward(row, &mut scratch);
                    }
                }
            });
        }

        // Stage 2: forward DCT along y, whole planes per worker.
        self.column_pass(&mut planes, team, false);

        // Mode-(0,0) RHS must be captured before Thomas overwrites it:
        // the border fix re-solves that mode against the coupled block.
        let b00: Vec<f64> = planes.iter().map(|p| p[0]).collect();

        // Stage 3: one Thomas sweep per mode; workers own disjoint mode
        // ranges of every plane, marching z sequentially inside.
        {
            let t = team.min(nxy);
            let bounds = even_bounds(nxy, t);
            let ctxs = split_planes(&mut planes, &bounds);
            let inv = &self.inv;
            let gzi = &self.gzi;
            let bounds = &bounds;
            crate::pool::run(ctxs, move |w, mut slabs: Vec<&mut [f64]>| {
                let m0 = bounds[w];
                let width = bounds[w + 1] - m0;
                for iz in 0..nz {
                    let inv_plane = &inv[iz * nxy + m0..iz * nxy + m0 + width];
                    if iz == 0 {
                        for (v, piv) in slabs[0].iter_mut().zip(inv_plane) {
                            *v *= piv;
                        }
                    } else {
                        let g = gzi[iz - 1];
                        for j in 0..width {
                            let prev = slabs[iz - 1][j];
                            slabs[iz][j] = (slabs[iz][j] + g * prev) * inv_plane[j];
                        }
                    }
                }
                for iz in (0..nz.saturating_sub(1)).rev() {
                    let g = gzi[iz];
                    let inv_plane = &inv[iz * nxy + m0..iz * nxy + m0 + width];
                    for j in 0..width {
                        let nxt = slabs[iz + 1][j];
                        slabs[iz][j] += g * inv_plane[j] * nxt;
                    }
                }
            });
        }

        // Border fix (sequential): mode (0,0) couples to the package node,
        // so its Thomas result is discarded and the (nz+1)² block solved
        // exactly instead.
        let mut xb = None;
        if let Some(border) = &self.border {
            let mut v = b00;
            v.push(rhs[ng]);
            border.lu.solve(&mut v);
            for (iz, plane) in planes.iter_mut().enumerate() {
                plane[0] = v[iz];
            }
            xb = Some(v[nz]);
        }

        // Stage 4: inverse DCT along y, whole planes per worker.
        self.column_pass(&mut planes, team, true);

        // Stage 5: inverse row DCTs, scattered straight into the
        // z-innermost output layout; workers own disjoint y-row slabs of
        // the output vector.
        let mut out = vec![0.0; expect];
        {
            let t = team.min(ny);
            let row_bounds = even_bounds(ny, t);
            let slab_bounds: Vec<usize> = row_bounds.iter().map(|r| r * nx * nz).collect();
            let slabs = split_slices(&mut out[..ng], &slab_bounds);
            let planes = &planes;
            let plan_x = &self.plan_x;
            let row_bounds = &row_bounds;
            crate::pool::run(slabs, move |w, slab: &mut [f64]| {
                let mut scratch = DctScratch::new();
                let mut row = vec![0.0; nx];
                let y0 = row_bounds[w];
                let rows = row_bounds[w + 1] - y0;
                for r in 0..rows {
                    let iy = y0 + r;
                    for (iz, plane) in planes.iter().enumerate() {
                        row.copy_from_slice(&plane[iy * nx..(iy + 1) * nx]);
                        plan_x.inverse(&mut row, &mut scratch);
                        for (ix, v) in row.iter().enumerate() {
                            slab[r * nx * nz + ix * nz + iz] = *v;
                        }
                    }
                }
            });
        }
        if let Some(v) = xb {
            out[ng] = v;
        }
        #[cfg(feature = "paranoid")]
        crate::paranoid::check_finite("spectral direct solve", &out);
        out
    }

    /// Forward (`inverse == false`) or inverse column transforms, planes
    /// distributed over the worker team.
    fn column_pass(&self, planes: &mut [Vec<f64>], team: usize, inverse: bool) {
        let (nx, ny) = (self.nx, self.ny);
        let t = team.min(planes.len());
        let bounds = even_bounds(planes.len(), t);
        let chunks = split_slices(planes, &bounds);
        let plan_y = &self.plan_y;
        crate::pool::run(chunks, move |_w, chunk: &mut [Vec<f64>]| {
            let mut scratch = DctScratch::new();
            let mut col = vec![0.0; ny];
            for plane in chunk.iter_mut() {
                for ix in 0..nx {
                    for (iy, c) in col.iter_mut().enumerate() {
                        *c = plane[iy * nx + ix];
                    }
                    if inverse {
                        plan_y.inverse(&mut col, &mut scratch);
                    } else {
                        plan_y.forward(&mut col, &mut scratch);
                    }
                    for (iy, c) in col.iter().enumerate() {
                        plane[iy * nx + ix] = *c;
                    }
                }
            }
        });
    }

    /// Sequential border-free solve into a caller slice — the multigrid
    /// coarse-solver entry point. Coarse lateral sizes are ≤ 4, so the
    /// per-call allocations inside [`Self::solve`] are a handful of
    /// sub-hundred-element vectors.
    pub(crate) fn solve_grid_into(&self, b: &[f64], x: &mut [f64]) {
        debug_assert!(self.border.is_none());
        let out = self.solve(b, 1);
        x[..out.len()].copy_from_slice(&out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::LayeredStencilSpec;

    /// Deterministic pseudo-random value in `[-1, 1]` (splitmix64 hash of
    /// the index — reproducible, no RNG dependency).
    fn noise(i: usize) -> f64 {
        let mut v = (i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x2545_F491_4F6C_DD1D);
        v ^= v >> 29;
        v = v.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        v ^= v >> 32;
        (v >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    /// O(n²) textbook DCT-II, the reference the fast path must match.
    fn naive_dct2(x: &[f64]) -> Vec<f64> {
        let n = x.len();
        (0..n)
            .map(|k| {
                x.iter()
                    .enumerate()
                    .map(|(j, &v)| {
                        v * (std::f64::consts::PI * k as f64 * (2 * j + 1) as f64 / (2 * n) as f64)
                            .cos()
                    })
                    .sum()
            })
            .collect()
    }

    fn assert_bits_eq(what: &str, got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}: bit drift at {i}: {g} vs {w}"
            );
        }
    }

    #[test]
    fn dct2_matches_the_naive_reference_elementwise() {
        for &n in &[
            1usize, 2, 4, 6, 8, 10, 12, 16, 20, 28, 32, 40, 64, 80, 128, 256, 512,
        ] {
            let plan = DctPlan::new(n).unwrap();
            let mut x: Vec<f64> = (0..n).map(|i| noise(i + 31 * n)).collect();
            let want = naive_dct2(&x);
            let mut s = DctScratch::new();
            plan.forward(&mut x, &mut s);
            let scale = want.iter().fold(1.0f64, |a, v| a.max(v.abs()));
            for (k, (g, w)) in x.iter().zip(&want).enumerate() {
                assert!(
                    (g - w).abs() <= 1e-11 * scale,
                    "n={n} k={k}: fast {g} vs naive {w}"
                );
            }
        }
    }

    #[test]
    fn round_trips_are_exact_to_1e12_for_every_even_size_up_to_512() {
        let mut s = DctScratch::new();
        for n in (8..=512usize).filter(|n| n % 2 == 0) {
            let plan = DctPlan::new(n).unwrap();
            let orig: Vec<f64> = (0..n).map(|i| noise(i + 7 * n)).collect();
            let mut x = orig.clone();
            plan.forward(&mut x, &mut s);
            plan.inverse(&mut x, &mut s);
            let scale = orig.iter().fold(1.0f64, |a, v| a.max(v.abs()));
            for (j, (g, w)) in x.iter().zip(&orig).enumerate() {
                assert!(
                    (g - w).abs() <= 1e-12 * scale,
                    "n={n} j={j}: round trip {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn odd_sizes_beyond_one_are_unsupported() {
        for &n in &[0usize, 3, 5, 7, 9, 15, 33, 511] {
            assert!(!DctPlan::supported(n), "n={n}");
            assert!(DctPlan::new(n).is_none(), "n={n}");
        }
        for &n in &[1usize, 2, 6, 14, 20, 256] {
            assert!(DctPlan::supported(n), "n={n}");
        }
    }

    #[test]
    fn small_lu_solves_a_nonsymmetric_system() {
        // A = [[0, 2, 1], [3, 1, 0], [1, 0, 4]] forces a pivot swap.
        let mat = vec![0.0, 2.0, 1.0, 3.0, 1.0, 0.0, 1.0, 0.0, 4.0];
        let lu = SmallLu::factor(3, mat).unwrap();
        let x_true = [1.5, -2.0, 0.25];
        let mut b = [
            2.0 * x_true[1] + x_true[2],
            3.0 * x_true[0] + x_true[1],
            x_true[0] + 4.0 * x_true[2],
        ];
        lu.solve(&mut b);
        for (g, w) in b.iter().zip(&x_true) {
            assert!((g - w).abs() < 1e-12, "{g} vs {w}");
        }
        // Singular matrices are refused, not mis-factored.
        assert!(SmallLu::factor(2, vec![1.0, 2.0, 2.0, 4.0]).is_none());
    }

    /// The test stack: same contrastive layer values as the stencil
    /// suite's fixture, nx≠ny on purpose.
    fn layered(nx: usize, ny: usize, package_resistance: f64) -> StencilSystem {
        StencilSystem::layered(&LayeredStencilSpec {
            nx,
            ny,
            gx_layers: &[6e-5, 4.8e-4, 4.8e-4, 2.4e-5],
            gy_layers: &[6e-5, 5.2e-4, 5.2e-4, 3.0e-5],
            gz_interfaces: &[1.2e-4, 2.6e-3, 3.1e-4],
            g_bottom: 7e-7,
            g_top: 4e-9,
            ambient: 25.0,
            package_resistance,
        })
    }

    fn check_direct_solve(sys: &StencilSystem) {
        let sp = SpectralSystem::from_stencil(sys).expect("homogeneous stack qualifies");
        assert_eq!(sp.unknowns(), sys.unknowns());
        let rhs: Vec<f64> = (0..sys.unknowns()).map(|i| noise(i + 101)).collect();
        let x = sp.solve(&rhs, 1);
        let mut ax = vec![0.0; sys.unknowns()];
        sys.apply_into(&x, &mut ax);
        let norm_b = rhs.iter().map(|v| v * v).sum::<f64>().sqrt();
        let norm_r = rhs
            .iter()
            .zip(&ax)
            .map(|(b, a)| (b - a) * (b - a))
            .sum::<f64>()
            .sqrt();
        assert!(
            norm_r <= 1e-9 * norm_b,
            "direct solve residual {:.3e} (‖b‖ {:.3e})",
            norm_r,
            norm_b
        );
    }

    #[test]
    fn direct_solve_is_exact_with_a_border_node() {
        check_direct_solve(&layered(20, 12, 157.0));
    }

    #[test]
    fn direct_solve_is_exact_without_a_border_node() {
        check_direct_solve(&layered(12, 16, 0.0));
    }

    #[test]
    fn direct_solve_handles_degenerate_lateral_sizes() {
        check_direct_solve(&layered(1, 8, 157.0));
        check_direct_solve(&layered(8, 1, 0.0));
        check_direct_solve(&layered(1, 1, 157.0));
    }

    #[test]
    fn threaded_solves_are_bit_identical_across_thread_counts() {
        let sys = layered(20, 12, 157.0);
        let sp = SpectralSystem::from_stencil(&sys).unwrap();
        let rhs: Vec<f64> = (0..sys.unknowns()).map(|i| noise(i + 55)).collect();
        let baseline = sp.solve(&rhs, 1);
        for threads in [2usize, 4] {
            let got = sp.solve(&rhs, threads);
            assert_bits_eq(
                &format!("spectral solve at {threads} threads"),
                &got,
                &baseline,
            );
        }
    }

    #[test]
    fn inhomogeneous_operators_do_not_qualify() {
        let (nx, ny, nz) = (8usize, 8usize, 3usize);
        let n = nx * ny * nz;
        let mut gx = vec![0.0; n];
        let mut gy = vec![0.0; n];
        let mut gz = vec![0.0; n];
        let leak = vec![1e-6; n];
        for iy in 0..ny {
            for ix in 0..nx {
                let base = (iy * nx + ix) * nz;
                for iz in 0..nz {
                    gx[base + iz] = 4e-4;
                    gy[base + iz] = 5e-4;
                    if iz + 1 < nz {
                        gz[base + iz] = 2e-3;
                    }
                }
            }
        }
        let uniform =
            StencilOperator::new(nx, ny, nz, gx.clone(), gy.clone(), gz.clone(), leak.clone());
        assert!(SpectralSystem::from_operator(&uniform).is_some());
        // A wrapper-ring-style lateral perturbation disqualifies the
        // direct path bit-for-bit…
        gx[(3 * nx + 3) * nz + 1] *= 1.5;
        let ring = StencilOperator::new(nx, ny, nz, gx, gy, gz, leak);
        assert!(SpectralSystem::from_operator(&ring).is_none());
        // …while the homogenized coarse-solver factorization still exists.
        assert!(SpectralSystem::homogenized(&ring).is_some());
    }

    #[test]
    fn homogenized_agrees_with_exact_on_an_already_homogeneous_operator() {
        let sys = layered(8, 8, 0.0);
        let exact = SpectralSystem::from_operator(sys.operator()).unwrap();
        let mean = SpectralSystem::homogenized(sys.operator()).unwrap();
        let rhs: Vec<f64> = (0..sys.operator().len()).map(|i| noise(i + 9)).collect();
        let a = exact.solve(&rhs, 1);
        let b = mean.solve(&rhs, 1);
        let scale = a.iter().fold(1.0f64, |acc, v| acc.max(v.abs()));
        for (g, w) in a.iter().zip(&b) {
            assert!((g - w).abs() <= 1e-9 * scale, "{g} vs {w}");
        }
    }
}
