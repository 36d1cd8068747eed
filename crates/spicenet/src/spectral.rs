//! Spectral solver: fast cosine transforms (DCT-II / DCT-III via a
//! mixed-radix FFT) and a *direct* solver for layered stencil stacks.
//!
//! A layered die stack whose lateral conductances are uniform within each
//! layer diagonalizes in the cosine basis: the DCT-II vectors
//! `cos(πk(2j+1)/2n)` are exactly the eigenvectors of the 1-D Neumann
//! coupling matrix `g·tridiag(−1, [1,2,…,2,1], −1)`, with eigenvalues
//! `g·(2 − 2cos(πk/n))`. Transforming the right-hand side plane by plane
//! therefore turns the 3-D solve into `nx·ny` independent vertical
//! problems — one Thomas sweep per `(kx, ky)` mode — making the solve
//! direct (exact, no iteration) at near `O(n log n)` for every lateral
//! size: even lengths recurse radix-2, odd lengths run Bluestein's
//! chirp-z convolution over a power-of-two FFT.
//!
//! The transforms are batched: one FFT kernel runs `lanes` interleaved
//! transforms at once (element `j` of lane `l` at `j·lanes + l`, real
//! and imaginary parts in separate arrays), so the innermost loop runs
//! across transforms and vectorizes. A plane's columns are already in
//! that layout; rows go through a transposed tile. Planes whose
//! right-hand side is entirely zero skip the forward transforms: their
//! spectrum is zero.
//!
//! Everything here is dependency-free and, like [`crate::pool::dot_wide`],
//! uses a fixed, shape-pure butterfly/summation order: each lane of a
//! batch runs the same scalar operations in the same order as a lone
//! transform, and Rust never contracts them into fused multiply-adds, so
//! the bits depend neither on the lane count nor on how the work is
//! partitioned, and results are bit-identical at any thread count. That
//! contract is load-bearing — `Flow::content_key` and the coolserved
//! disk cache key results by solved bits.

use crate::stencil::StencilSystem;
use crate::{exact_zero, SolveError, SolveStats};

/// Rows per transposed tile in the row passes of
/// [`SpectralSystem::solve`]: enough lanes to fill the vector units,
/// few enough that a tile of a long row stays cache-resident.
const ROW_TILE: usize = 16;

/// Minimal complex scalar for the twiddle and chirp tables (no external
/// deps).
#[derive(Clone, Copy, Debug)]
struct Complex {
    re: f64,
    im: f64,
}

impl Complex {
    /// `exp(i·angle)`.
    fn unit(angle: f64) -> Complex {
        Complex {
            re: angle.cos(),
            im: angle.sin(),
        }
    }

    #[inline]
    fn conj(self) -> Complex {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }
}

/// `(ar + i·ai)·(br + i·bi)`, in the one evaluation order every
/// transform uses.
#[inline]
fn cmul(ar: f64, ai: f64, br: f64, bi: f64) -> (f64, f64) {
    (ar * br - ai * bi, ar * bi + ai * br)
}

/// Reads `exp(−2πi·idx/len)` from a twiddle table of length `len`,
/// conjugated for the inverse transform. A plan's single 4n-entry table
/// serves every recursion level (all sub-sizes divide `n`) *and* the DCT
/// post-twiddle `exp(−iπk/2n)`, so forward and inverse share identical
/// constants — part of the bit-identity story.
#[inline]
fn twiddle(tw: &[Complex], idx: usize, conj: bool) -> Complex {
    let w = tw[idx];
    if conj {
        w.conj()
    } else {
        w
    }
}

/// Lane-interleaved complex data: element `j` of lane `l` at
/// `j·lanes + l`, real and imaginary parts in separate arrays.
#[derive(Clone, Debug, Default)]
struct Batch {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl Batch {
    fn zeros(len: usize) -> Batch {
        Batch {
            re: vec![0.0; len],
            im: vec![0.0; len],
        }
    }

    fn ensure(&mut self, len: usize) {
        if self.re.len() < len {
            self.re.resize(len, 0.0);
            self.im.resize(len, 0.0);
        }
    }
}

/// The fixed parameters of one batched FFT: twiddle table, direction
/// and the number of interleaved transforms.
#[derive(Clone, Copy)]
struct FftKernel<'a> {
    tw: &'a [Complex],
    conj: bool,
    lanes: usize,
}

impl FftKernel<'_> {
    /// Decimation-in-time FFT of `m` points per lane read from `src` at
    /// element stride `stride`, written to the first `m` elements of
    /// `out`. `step` is the table stride for the current sub-size
    /// (`tw.len()/m`); odd sub-sizes fall back to a naive DFT, which
    /// admits every even-composite length (20 = 4·5, 28 = 4·7, …). The
    /// recursion shape depends only on `m`, never on the data, the lane
    /// count or the caller's threading, so the floating-point
    /// evaluation order of every lane is fixed.
    fn run(
        self,
        src: (&[f64], &[f64]),
        stride: usize,
        out: (&mut [f64], &mut [f64]),
        m: usize,
        step: usize,
    ) {
        let lanes = self.lanes;
        let (src_re, src_im) = src;
        let (out_re, out_im) = out;
        if m == 1 {
            out_re[..lanes].copy_from_slice(&src_re[..lanes]);
            out_im[..lanes].copy_from_slice(&src_im[..lanes]);
            return;
        }
        if m % 2 == 1 {
            for k in 0..m {
                let acc_re = &mut out_re[k * lanes..(k + 1) * lanes];
                let acc_im = &mut out_im[k * lanes..(k + 1) * lanes];
                acc_re.fill(0.0);
                acc_im.fill(0.0);
                for j in 0..m {
                    let w = twiddle(self.tw, (j * k) % m * step, self.conj);
                    let at = j * stride * lanes;
                    let xr = &src_re[at..at + lanes];
                    let xi = &src_im[at..at + lanes];
                    for l in 0..lanes {
                        let (pr, pi) = cmul(xr[l], xi[l], w.re, w.im);
                        acc_re[l] += pr;
                        acc_im[l] += pi;
                    }
                }
            }
            return;
        }
        let h = m / 2;
        let (lo_re, hi_re) = out_re.split_at_mut(h * lanes);
        let (lo_im, hi_im) = out_im.split_at_mut(h * lanes);
        self.run(
            (src_re, src_im),
            stride * 2,
            (&mut *lo_re, &mut *lo_im),
            h,
            step * 2,
        );
        let odd = stride * lanes;
        self.run(
            (&src_re[odd..], &src_im[odd..]),
            stride * 2,
            (&mut *hi_re, &mut *hi_im),
            h,
            step * 2,
        );
        for k in 0..h {
            let w = twiddle(self.tw, k * step, self.conj);
            let at = k * lanes..(k + 1) * lanes;
            let (lr, li) = (&mut lo_re[at.clone()], &mut lo_im[at.clone()]);
            let (hr, hi) = (&mut hi_re[at.clone()], &mut hi_im[at]);
            for l in 0..lanes {
                let (tr, ti) = cmul(w.re, w.im, hr[l], hi[l]);
                let (er, ei) = (lr[l], li[l]);
                lr[l] = er + tr;
                li[l] = ei + ti;
                hr[l] = er - tr;
                hi[l] = ei - ti;
            }
        }
    }
}

/// Bluestein's chirp-z form of an odd-length DFT. With
/// `jk = (j² + k² − (k−j)²)/2`, the length-`n` transform becomes a
/// circular convolution against the chirp `exp(iπt²/n)`, evaluated at a
/// power-of-two length `m ≥ 2n − 1` with the radix-2 [`FftKernel`] — so
/// an odd prime length costs `O(n log n)` instead of the naive `O(n²)`.
#[derive(Clone, Debug)]
struct Bluestein {
    m: usize,
    /// `exp(−2πi·i/m)`, length `m`: the radix-2 table.
    tw: Vec<Complex>,
    /// `chirp[j] = exp(−iπj²/n)`, `j < n`.
    chirp: Vec<Complex>,
    /// The FFT of the conjugate chirp wrapped onto length `m`,
    /// pre-scaled by `1/m` so the inverse FFT needs no normalization.
    kernel: Batch,
}

impl Bluestein {
    /// `plan_tw` is the plan's `exp(−2πi·i/(4n))` table; reducing `j²`
    /// modulo `2n` reads every chirp value from it at a small angle.
    fn new(n: usize, plan_tw: &[Complex]) -> Bluestein {
        let m = (2 * n - 1).next_power_of_two();
        let tw: Vec<Complex> = (0..m)
            .map(|i| Complex::unit(-2.0 * std::f64::consts::PI * i as f64 / m as f64))
            .collect();
        let chirp: Vec<Complex> = (0..n).map(|j| plan_tw[2 * ((j * j) % (2 * n))]).collect();
        let mut wrapped = Batch::zeros(m);
        for (j, c) in chirp.iter().enumerate() {
            for at in [j, (m - j) % m] {
                wrapped.re[at] = c.re;
                wrapped.im[at] = -c.im;
            }
        }
        let mut kernel = Batch::zeros(m);
        let fft = FftKernel {
            tw: &tw,
            conj: false,
            lanes: 1,
        };
        fft.run(
            (&wrapped.re, &wrapped.im),
            1,
            (&mut kernel.re, &mut kernel.im),
            m,
            1,
        );
        let inv_m = 1.0 / m as f64;
        for v in kernel.re.iter_mut().chain(&mut kernel.im) {
            *v *= inv_m;
        }
        Bluestein {
            m,
            tw,
            chirp,
            kernel,
        }
    }

    /// `out = DFT(x)` per lane over `n` points (`x` holds `n·lanes`
    /// interleaved values), with conjugated twiddles when `conj`
    /// (computed as `conj(DFT(conj(x)))`). `u` and `v` are scratch.
    fn dft(
        &self,
        x: &Batch,
        out: &mut Batch,
        conj: bool,
        lanes: usize,
        u: &mut Batch,
        v: &mut Batch,
    ) {
        let n = self.chirp.len();
        let len = self.m * lanes;
        u.ensure(len);
        v.ensure(len);
        for (j, c) in self.chirp.iter().enumerate() {
            let at = j * lanes..(j + 1) * lanes;
            let (xr, xi) = (&x.re[at.clone()], &x.im[at.clone()]);
            let (ur, ui) = (&mut u.re[at.clone()], &mut u.im[at]);
            for l in 0..lanes {
                let xi = if conj { -xi[l] } else { xi[l] };
                (ur[l], ui[l]) = cmul(xr[l], xi, c.re, c.im);
            }
        }
        u.re[n * lanes..len].fill(0.0);
        u.im[n * lanes..len].fill(0.0);
        let fft = FftKernel {
            tw: &self.tw,
            conj: false,
            lanes,
        };
        fft.run((&u.re, &u.im), 1, (&mut v.re, &mut v.im), self.m, 1);
        for (k, (&wr, &wi)) in self.kernel.re.iter().zip(&self.kernel.im).enumerate() {
            let at = k * lanes..(k + 1) * lanes;
            let (vr, vi) = (&mut v.re[at.clone()], &mut v.im[at]);
            for l in 0..lanes {
                (vr[l], vi[l]) = cmul(vr[l], vi[l], wr, wi);
            }
        }
        let ifft = FftKernel { conj: true, ..fft };
        ifft.run((&v.re, &v.im), 1, (&mut u.re, &mut u.im), self.m, 1);
        for (k, c) in self.chirp.iter().enumerate() {
            let at = k * lanes..(k + 1) * lanes;
            let (ur, ui) = (&u.re[at.clone()], &u.im[at.clone()]);
            let (or, oi) = (&mut out.re[at.clone()], &mut out.im[at]);
            for l in 0..lanes {
                let (yr, yi) = cmul(ur[l], ui[l], c.re, c.im);
                (or[l], oi[l]) = (yr, if conj { -yi } else { yi });
            }
        }
    }
}

/// Reusable FFT buffers (grown on demand). Workers allocate one per team
/// member; none of the transform entry points allocate per call once the
/// scratch has warmed up to the largest batch it serves.
#[derive(Clone, Debug, Default)]
pub struct DctScratch {
    a: Batch,
    b: Batch,
    /// Bluestein convolution buffers (odd lengths only).
    u: Batch,
    v: Batch,
}

impl DctScratch {
    /// An empty scratch; buffers grow to fit the first plan that uses it.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Where Makhoul's reordering puts element `j` of a length-`n` vector:
/// the evens ascending, then the odds descending.
#[inline]
fn makhoul(j: usize, n: usize) -> usize {
    if j.is_multiple_of(2) {
        j / 2
    } else {
        n - 1 - j / 2
    }
}

/// A fixed-length DCT-II / DCT-III plan (Makhoul's length-`n` FFT
/// formulation, `⌈n/2⌉` evens ascending then the odds descending).
/// Every length `n ≥ 1` is supported: even lengths run the radix-2
/// recursion, odd lengths `> 1` its Bluestein convolution.
#[derive(Clone, Debug)]
pub struct DctPlan {
    n: usize,
    /// `tw[i] = exp(−2πi·i/(4n))`, length `4n`.
    tw: Vec<Complex>,
    /// The chirp-z transform, present exactly when `n` is odd and `> 1`.
    bluestein: Option<Bluestein>,
}

impl DctPlan {
    /// Builds a plan, or `None` for the empty length 0.
    pub fn new(n: usize) -> Option<DctPlan> {
        if n == 0 {
            return None;
        }
        let q = 4 * n;
        let tw: Vec<Complex> = (0..q)
            .map(|i| Complex::unit(-2.0 * std::f64::consts::PI * i as f64 / q as f64))
            .collect();
        let bluestein = (n > 1 && n % 2 == 1).then(|| Bluestein::new(n, &tw));
        Some(DctPlan { n, tw, bluestein })
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

    /// The length-`n` FFT of every lane of `s.a` into `s.b`: radix-2
    /// recursion for even `n`, the Bluestein convolution for odd `n`.
    fn fft(&self, s: &mut DctScratch, conj: bool, lanes: usize) {
        let DctScratch { a, b, u, v } = s;
        match &self.bluestein {
            Some(chirp) => chirp.dft(a, b, conj, lanes, u, v),
            None => {
                let fft = FftKernel {
                    tw: &self.tw,
                    conj,
                    lanes,
                };
                fft.run((&a.re, &a.im), 1, (&mut b.re, &mut b.im), self.n, 4);
            }
        }
    }

    /// In-place unnormalized DCT-II of one vector:
    /// `X[k] = Σⱼ x[j]·cos(πk(2j+1)/2n)`.
    pub fn forward(&self, x: &mut [f64], s: &mut DctScratch) {
        self.forward_lanes(x, 1, s);
    }

    /// In-place scaled DCT-III of one vector, the exact inverse of
    /// [`Self::forward`]:
    /// `x[j] = (X[0] + 2·Σ_{k≥1} X[k]·cos(πk(2j+1)/2n)) / n`.
    pub fn inverse(&self, x: &mut [f64], s: &mut DctScratch) {
        self.inverse_lanes(x, 1, s);
    }

    /// [`Self::forward`] of `lanes` interleaved vectors at once
    /// (element `j` of vector `l` at `x[j·lanes + l]`). Each lane's bits
    /// equal that vector transformed alone.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != n·lanes`.
    pub(crate) fn forward_lanes(&self, x: &mut [f64], lanes: usize, s: &mut DctScratch) {
        let n = self.n;
        assert_eq!(x.len(), n * lanes, "batched DCT length");
        if n == 1 {
            return;
        }
        s.a.ensure(n * lanes);
        s.b.ensure(n * lanes);
        let a = &mut s.a;
        for (j, v) in x.chunks_exact(lanes).enumerate() {
            let at = makhoul(j, n) * lanes;
            a.re[at..at + lanes].copy_from_slice(v);
            a.im[at..at + lanes].fill(0.0);
        }
        self.fft(s, false, lanes);
        let b = &s.b;
        for (k, v) in x.chunks_exact_mut(lanes).enumerate() {
            let w = self.tw[k];
            let at = k * lanes..(k + 1) * lanes;
            let (br, bi) = (&b.re[at.clone()], &b.im[at]);
            for l in 0..lanes {
                v[l] = w.re * br[l] - w.im * bi[l];
            }
        }
    }

    /// [`Self::inverse`] of `lanes` interleaved vectors at once (layout
    /// as in [`Self::forward_lanes`]). Each lane's bits equal that
    /// vector transformed alone.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != n·lanes`.
    pub(crate) fn inverse_lanes(&self, x: &mut [f64], lanes: usize, s: &mut DctScratch) {
        let n = self.n;
        assert_eq!(x.len(), n * lanes, "batched DCT length");
        if n == 1 {
            return;
        }
        s.a.ensure(n * lanes);
        s.b.ensure(n * lanes);
        let a = &mut s.a;
        a.re[..lanes].copy_from_slice(&x[..lanes]);
        a.im[..lanes].fill(0.0);
        for k in 1..n {
            let c = self.tw[k].conj();
            let at = k * lanes..(k + 1) * lanes;
            let (xk, xm) = (&x[at.clone()], &x[(n - k) * lanes..(n - k + 1) * lanes]);
            let (ar, ai) = (&mut a.re[at.clone()], &mut a.im[at]);
            for l in 0..lanes {
                (ar[l], ai[l]) = cmul(c.re, c.im, xk[l], -xm[l]);
            }
        }
        self.fft(s, true, lanes);
        let b = &s.b;
        let inv_n = 1.0 / n as f64;
        for (j, v) in x.chunks_exact_mut(lanes).enumerate() {
            let at = makhoul(j, n) * lanes;
            for (v, &br) in v.iter_mut().zip(&b.re[at..at + lanes]) {
                *v = br * inv_n;
            }
        }
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

/// A factored spectral direct solver for a layered stencil stack:
/// forward DCT-II over both lateral axes, one Thomas tridiagonal per
/// `(kx, ky)` mode (division-free pivots, precomputed), inverse DCT-III
/// back. Construction fails (`None`) when a mode's tridiagonal has a
/// non-positive pivot, and callers fall back to the general CSR solver.
#[derive(Clone, Debug)]
pub struct SpectralSystem {
    nx: usize,
    ny: usize,
    nz: usize,
    plan_x: DctPlan,
    plan_y: DctPlan,
    /// Vertical conductance per layer interface (`iz ↔ iz+1`).
    gzi: Vec<f64>,
    /// Division-free Thomas pivots, plane-major: `inv[iz·nx·ny + m]` for
    /// mode `m = ky·nx + kx`.
    inv: Vec<f64>,
    border: Option<SpectralBorder>,
}

impl SpectralSystem {
    /// Factors the full system (grid + optional package border node)
    /// from its layer profile, or `None` when a mode's pivot is not
    /// positive (e.g. a floating stack with zero leak).
    pub fn from_stencil(sys: &StencilSystem) -> Option<SpectralSystem> {
        let (nx, ny, nz) = sys.dims();
        let plan_x = DctPlan::new(nx)?;
        let plan_y = DctPlan::new(ny)?;
        let nxy = nx * ny;
        let gzi = &sys.gz;
        let pi = std::f64::consts::PI;
        let lam_x: Vec<f64> = (0..nx)
            .map(|k| 2.0 - 2.0 * (pi * k as f64 / nx as f64).cos())
            .collect();
        let lam_y: Vec<f64> = (0..ny)
            .map(|k| 2.0 - 2.0 * (pi * k as f64 / ny as f64).cos())
            .collect();
        // Vertical-only part of the modal diagonal; the lateral part is
        // `gx·λx(kx) + gy·λy(ky)` (zero at the zero mode, matching the
        // Neumann row sums of the assembled operator).
        let dz: Vec<f64> = (0..nz)
            .map(|iz| {
                let mut d = sys.leak[iz];
                if iz + 1 < nz {
                    d += gzi[iz];
                }
                if iz > 0 {
                    d += gzi[iz - 1];
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
                    let diag = dz[iz] + sys.gx[iz] * lx + sys.gy[iz] * ly;
                    let pivot = if iz == 0 {
                        diag
                    } else {
                        diag - gzi[iz - 1] * gzi[iz - 1] * prev
                    };
                    if !pivot.is_finite() || pivot <= 0.0 {
                        // Mode tridiagonal not SPD — refuse, callers use
                        // CSR.
                        return None;
                    }
                    prev = 1.0 / pivot;
                    inv[iz * nxy + m] = prev;
                }
            }
        }
        let border = match &sys.border {
            None => None,
            Some(b) => {
                let nb = nz + 1;
                let mut mat = vec![0.0; nb * nb];
                for iz in 0..nz {
                    mat[iz * nb + iz] = dz[iz];
                    if iz + 1 < nz {
                        mat[iz * nb + iz + 1] = -gzi[iz];
                        mat[(iz + 1) * nb + iz] = -gzi[iz];
                    }
                }
                // Grid rows see the border scaled by the zero-mode mass
                // `nx·ny`; the border row sees the plain sum. Nonsymmetric,
                // hence LU rather than the Cholesky used elsewhere.
                mat[nb - 1] = -b.coupling * nxy as f64;
                mat[nz * nb] = -b.coupling;
                mat[nz * nb + nz] = b.diag;
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
            gzi: gzi.clone(),
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

/// Even worker bounds over `n` items (`bounds[w] = n·w/workers`).
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

/// Folds the residual `d = b − a` of one run of unknowns into the sums
/// `[Σb², Σd², Σd]`, in index order.
fn fold_residual(sums: [f64; 3], b: &[f64], a: &[f64]) -> [f64; 3] {
    let [mut nb, mut nr, mut net] = sums;
    for (&b, &a) in b.iter().zip(a) {
        let d = b - a;
        nb += b * b;
        nr += d * d;
        net += d;
    }
    [nb, nr, net]
}

impl SpectralSystem {
    /// Direct solve. `rhs` covers the grid in the z-innermost stencil
    /// layout plus, when a border was factored, one trailing border slot;
    /// the returned vector has the same shape.
    ///
    /// The pipeline runs in five slab-parallel stages over the shared
    /// `pool` worker teams — forward row DCTs, forward column DCTs, the
    /// per-mode Thomas sweeps, inverse column DCTs, inverse row DCTs —
    /// with the border fix sequential in between. The forward stages
    /// touch only the planes with a non-zero right-hand side; every other
    /// plane's spectrum stays `0.0`, which can differ from a transformed
    /// zero plane only in the sign of a zero, and `x + (−0) == x`. No
    /// stage performs a cross-thread reduction and every row, column and
    /// mode is transformed by identical scalar code whatever the
    /// partition and batch width, so the solution is bit-identical at
    /// any `threads`.
    pub fn solve(&self, rhs: &[f64], threads: usize) -> Vec<f64> {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let nxy = nx * ny;
        let ng = nxy * nz;
        let expect = ng + usize::from(self.border.is_some());
        assert_eq!(rhs.len(), expect, "spectral rhs length mismatch");
        let team = crate::pool::effective_threads(threads);
        let mut planes: Vec<Vec<f64>> = vec![vec![0.0; nxy]; nz];
        let mut loaded = vec![false; nz];
        for column in rhs[..ng].chunks_exact(nz) {
            for (flag, &v) in loaded.iter_mut().zip(column) {
                *flag |= !exact_zero(v);
            }
        }

        // Stage 1: gather tiles of x-rows of the loaded planes out of the
        // z-innermost RHS in one sequential pass and DCT them; workers own
        // disjoint y-row slabs.
        let loaded_iz: Vec<usize> = (0..nz).filter(|&iz| loaded[iz]).collect();
        {
            let t = team.min(ny);
            let row_bounds = even_bounds(ny, t);
            let elem_bounds: Vec<usize> = row_bounds.iter().map(|r| r * nx).collect();
            let ctxs = split_planes(&mut planes, &elem_bounds);
            let plan_x = &self.plan_x;
            let (row_bounds, loaded_iz) = (&row_bounds, &loaded_iz);
            crate::pool::run(ctxs, move |w, mut slabs: Vec<&mut [f64]>| {
                let mut scratch = DctScratch::new();
                let mut tiles = vec![0.0; loaded_iz.len() * nx * ROW_TILE];
                let y0 = row_bounds[w];
                let rows = row_bounds[w + 1] - y0;
                for r0 in (0..rows).step_by(ROW_TILE) {
                    let lanes = ROW_TILE.min(rows - r0);
                    let block = nx * lanes;
                    let rows_in = &rhs[(y0 + r0) * nx * nz..(y0 + r0 + lanes) * nx * nz];
                    for (c, cell) in rows_in.chunks_exact(nz).enumerate() {
                        let (r, ix) = (c / nx, c % nx);
                        for (k, &iz) in loaded_iz.iter().enumerate() {
                            tiles[k * block + ix * lanes + r] = cell[iz];
                        }
                    }
                    for (tile, &iz) in tiles.chunks_exact_mut(block).zip(loaded_iz) {
                        plan_x.forward_lanes(tile, lanes, &mut scratch);
                        for r in 0..lanes {
                            let row = &mut slabs[iz][(r0 + r) * nx..(r0 + r + 1) * nx];
                            for (ix, v) in row.iter_mut().enumerate() {
                                *v = tile[ix * lanes + r];
                            }
                        }
                    }
                }
            });
        }

        // Stage 2: forward DCT along y of the loaded planes.
        let loaded_planes = planes
            .iter_mut()
            .zip(&loaded)
            .filter(|(_, &l)| l)
            .map(|(p, _)| p.as_mut_slice())
            .collect();
        self.column_pass(loaded_planes, team, false);

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

        // Stage 4: inverse DCT along y, every plane.
        self.column_pass(
            planes.iter_mut().map(Vec::as_mut_slice).collect(),
            team,
            true,
        );

        // Stage 5: inverse DCTs of tiles of x-rows, scattered straight
        // into the z-innermost output layout; workers own disjoint y-row
        // slabs of the output vector.
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
                let mut tiles = vec![0.0; nz * nx * ROW_TILE];
                let y0 = row_bounds[w];
                let rows = row_bounds[w + 1] - y0;
                for r0 in (0..rows).step_by(ROW_TILE) {
                    let lanes = ROW_TILE.min(rows - r0);
                    let block = nx * lanes;
                    for (tile, plane) in tiles.chunks_exact_mut(block).zip(planes) {
                        for r in 0..lanes {
                            let row0 = (y0 + r0 + r) * nx;
                            for (ix, v) in plane[row0..row0 + nx].iter().enumerate() {
                                tile[ix * lanes + r] = *v;
                            }
                        }
                        plan_x.inverse_lanes(tile, lanes, &mut scratch);
                    }
                    let rows_out = &mut slab[r0 * nx * nz..(r0 + lanes) * nx * nz];
                    for (c, cell) in rows_out.chunks_exact_mut(nz).enumerate() {
                        let (r, ix) = (c / nx, c % nx);
                        for (iz, v) in cell.iter_mut().enumerate() {
                            *v = tiles[iz * block + ix * lanes + r];
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

    /// Forward (`inverse == false`) or inverse column transforms of
    /// `planes`, whole planes distributed over the worker team. A plane
    /// (`iy·nx + ix` order) is already `nx` interleaved columns, so each
    /// plane is one batched transform.
    fn column_pass(&self, mut planes: Vec<&mut [f64]>, team: usize, inverse: bool) {
        let t = team.min(planes.len()).max(1);
        let bounds = even_bounds(planes.len(), t);
        let chunks = split_slices(&mut planes, &bounds);
        let (plan_y, nx) = (&self.plan_y, self.nx);
        crate::pool::run(chunks, move |_w, chunk: &mut [&mut [f64]]| {
            let mut scratch = DctScratch::new();
            for plane in chunk.iter_mut() {
                if inverse {
                    plan_y.inverse_lanes(plane, nx, &mut scratch);
                } else {
                    plan_y.forward_lanes(plane, nx, &mut scratch);
                }
            }
        });
    }

    /// Direct solve of `sys` — the system this factorization was built
    /// from — for `rhs` (see [`StencilSystem::rhs_with`]), accepted only
    /// after a residual check against `sys`. Returns the grid-cell part
    /// of the solution.
    ///
    /// A direct solve lands at machine precision; a relative residual
    /// `‖b − A·x‖/‖b‖` above `tolerance` means the factorization no
    /// longer matches the system, so the solve is refused rather than
    /// returned as a silently degraded field. The check is on
    /// deterministic quantities, preserving bit-identity across thread
    /// counts.
    ///
    /// # Errors
    ///
    /// [`SolveError::NotConverged`] carrying the residual when the check
    /// fails.
    pub fn solve_checked(
        &self,
        sys: &StencilSystem,
        rhs: &[f64],
        tolerance: f64,
        threads: usize,
    ) -> Result<(Vec<f64>, SolveStats), SolveError> {
        let mut x = self.solve(rhs, threads);
        // Plain sequential norms in index order, folded row by row as the
        // matvec streams: deterministic and thread-independent, like
        // everything else on this path.
        let row_len = self.nx * self.nz;
        let mut sums = [0.0; 3];
        let border = sys.apply_rows(&x, |iy, ax| {
            sums = fold_residual(sums, &rhs[iy * row_len..(iy + 1) * row_len], ax);
        });
        if let Some(a) = border {
            sums = fold_residual(sums, &rhs[sys.grid_cells()..], &[a]);
        }
        let [nb, nr, net] = sums;
        let norm_b = nb.sqrt();
        let residual = if norm_b > 0.0 {
            nr.sqrt() / norm_b
        } else {
            0.0
        };
        if !(residual.is_finite() && residual <= tolerance) {
            return Err(SolveError::NotConverged {
                iterations: 1,
                residual,
            });
        }
        #[cfg(feature = "paranoid")]
        crate::paranoid::check_conservation_net(
            "spectral direct solve",
            net,
            rhs.len(),
            norm_b,
            tolerance,
        );
        let _ = net;
        x.truncate(sys.grid_cells());
        Ok((
            x,
            SolveStats {
                iterations: 1,
                relative_residual: residual,
            },
        ))
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
            1usize, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 25, 27, 28, 32, 40, 64, 80, 127, 128, 256,
            509, 512,
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

    /// Forward then inverse over every length in `sizes`, exact to 1e-12
    /// of the input's magnitude.
    fn assert_round_trips(sizes: impl Iterator<Item = usize>) {
        let mut s = DctScratch::new();
        for n in sizes {
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
    fn round_trips_are_exact_to_1e12_for_every_even_size_up_to_512() {
        assert_round_trips((2..=512).step_by(2));
    }

    #[test]
    fn round_trips_are_exact_to_1e12_for_every_odd_size_up_to_512() {
        assert_round_trips((1..=511).step_by(2));
    }

    #[test]
    fn only_length_zero_is_unsupported() {
        assert!(DctPlan::new(0).is_none());
        for &n in &[1usize, 2, 3, 5, 6, 7, 9, 14, 15, 20, 33, 256, 511] {
            assert_eq!(DctPlan::new(n).map(|p| p.len()), Some(n), "n={n}");
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
        let sp = SpectralSystem::from_stencil(sys).expect("layered stacks factor");
        assert_eq!(sp.unknowns(), sys.unknowns());
        let rhs: Vec<f64> = (0..sys.unknowns()).map(|i| noise(i + 101)).collect();
        let x = sp.solve(&rhs, 1);
        let ax = sys.mul_vec(&x);
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
        check_direct_solve(&layered(25, 13, 157.0));
    }

    #[test]
    fn direct_solve_is_exact_without_a_border_node() {
        check_direct_solve(&layered(12, 16, 0.0));
        check_direct_solve(&layered(9, 27, 0.0));
    }

    #[test]
    fn direct_solve_handles_degenerate_lateral_sizes() {
        check_direct_solve(&layered(1, 8, 157.0));
        check_direct_solve(&layered(8, 1, 0.0));
        check_direct_solve(&layered(1, 1, 157.0));
        check_direct_solve(&layered(3, 1, 157.0));
    }

    #[test]
    fn threaded_solves_are_bit_identical_across_thread_counts() {
        // A right-hand side on every unknown, and one that loads only
        // the second layer and the border, so the forward transforms
        // skip the load-free planes.
        for (nx, ny) in [(20, 12), (25, 21), (16, 10)] {
            let sys = layered(nx, ny, 157.0);
            let sp = SpectralSystem::from_stencil(&sys).unwrap();
            let nz = sys.dims().2;
            let dense: Vec<f64> = (0..sys.unknowns()).map(|i| noise(i + 55)).collect();
            let sparse: Vec<f64> = (0..sys.unknowns())
                .map(|i| {
                    if i == sys.grid_cells() || i % nz == 1 {
                        noise(i + 7)
                    } else {
                        0.0
                    }
                })
                .collect();
            for (label, rhs) in [("dense", dense), ("two-plane", sparse)] {
                let baseline = sp.solve(&rhs, 1);
                for threads in [2usize, 4] {
                    let got = sp.solve(&rhs, threads);
                    assert_bits_eq(
                        &format!("{nx}x{ny} {label} spectral solve at {threads} threads"),
                        &got,
                        &baseline,
                    );
                }
            }
        }
    }

    /// Each lane of a batched forward and inverse transform of length
    /// `n` must carry the bits of that vector transformed alone, at
    /// every batch width in `widths`.
    fn assert_batches_are_lone_transforms(n: usize, widths: &[usize], s: &mut DctScratch) {
        let plan = DctPlan::new(n).unwrap();
        let widest = widths.iter().copied().max().unwrap_or(0);
        let vectors: Vec<Vec<f64>> = (0..widest)
            .map(|l| (0..n).map(|j| noise(j + n * (l + 3))).collect())
            .collect();
        for inverse in [false, true] {
            let transform = |x: &mut [f64], lanes: usize, s: &mut DctScratch| {
                if inverse {
                    plan.inverse_lanes(x, lanes, s);
                } else {
                    plan.forward_lanes(x, lanes, s);
                }
            };
            let lone: Vec<Vec<f64>> = vectors
                .iter()
                .map(|v| {
                    let mut v = v.clone();
                    transform(&mut v, 1, s);
                    v
                })
                .collect();
            for &lanes in widths {
                let mut batch = vec![0.0; n * lanes];
                for (l, v) in vectors.iter().take(lanes).enumerate() {
                    for (j, x) in v.iter().enumerate() {
                        batch[j * lanes + l] = *x;
                    }
                }
                transform(&mut batch, lanes, s);
                for (l, want) in lone.iter().take(lanes).enumerate() {
                    let got: Vec<f64> = (0..n).map(|j| batch[j * lanes + l]).collect();
                    assert_bits_eq(
                        &format!("n={n} lanes={lanes} lane {l} inverse={inverse}"),
                        &got,
                        want,
                    );
                }
            }
        }
    }

    #[test]
    fn batched_transforms_are_bitwise_the_lone_transforms() {
        // Narrow batches (an even and an odd width) at every length up to
        // 256 and at the longest lengths, and a batch as wide as a 128²
        // plane's columns at the short lengths and the mesh lengths.
        // Every length's recursion bottoms out in sub-sizes covered here;
        // the cost grows with lanes × length², so longer lengths are
        // sampled to keep the debug-mode suite fast. A lone transform is
        // the one-lane batch, so the references are `forward_lanes` and
        // `inverse_lanes` at one lane.
        let mut s = DctScratch::new();
        for n in (1..=256).chain([509, 510, 511, 512]) {
            assert_batches_are_lone_transforms(n, &[2, 7], &mut s);
        }
        for n in (1..=32).chain([40, 48, 64, 127, 128]) {
            assert_batches_are_lone_transforms(n, &[128], &mut s);
        }
    }
}
