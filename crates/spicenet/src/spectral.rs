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
//! spectrum is zero. Only the planes a caller reads are transformed
//! back; the per-mode sweeps still solve every layer, and a mode-space
//! residual checks them against the stencil's coefficients.
//!
//! A solve's buffers — the spectra of the loaded layers, the FFT
//! scratch, the row tiles and the sweep blocks — live in a per-thread
//! workspace and are reused by the thread's next solve, so a solve
//! allocates only the planes it returns: plane-sized buffers allocated
//! per solve cost whatever the allocator's state makes them (a mapping,
//! a trim, page faults), which depends on the process's history.
//!
//! Everything here is dependency-free and, like [`crate::pool::dot_wide`],
//! uses a fixed, shape-pure butterfly/summation order: each lane of a
//! batch runs the same scalar operations in the same order as a lone
//! transform, and Rust never contracts them into fused multiply-adds, so
//! the bits depend neither on the lane count nor on how the work is
//! partitioned, and results are bit-identical at any thread count. That
//! contract is load-bearing — `Flow::content_key` and the coolserved
//! disk cache key results by solved bits.

use std::cell::RefCell;
use std::ops::Range;

use crate::stencil::StencilSystem;
use crate::{exact_zero, SolveError, SolveStats};

/// Rows per transposed tile in the row passes of
/// [`SpectralSystem::solve`]: enough lanes to fill the vector units,
/// few enough that a tile of a long row stays cache-resident.
const ROW_TILE: usize = 16;

/// Modes per block of the fused Thomas sweep and check in
/// [`SpectralSystem::solve`]: a block's spectrum, pivots and field stay
/// cache-resident from the forward sweep to its residual.
const MODE_BLOCK: usize = 512;

/// Spectrum planes a thread's [`Workspace`] keeps between solves:
/// enough for the loaded layers of a thermal solve (its active layer
/// and the Dirichlet layer above it) with room to spare.
const POOLED_PLANES: usize = 4;

/// The buffers [`SpectralSystem::solve`] reuses on one thread. Each
/// stage worker borrows its thread's workspace for the stage; worker 0
/// runs on the calling thread, so a single-threaded solve allocates
/// nothing here once the thread has run a solve of its size.
#[derive(Default)]
struct Workspace {
    dct: DctScratch,
    /// A row tile or a sweep block with its check scratch.
    buf: Vec<f64>,
    /// Spectrum planes given back by earlier solves.
    planes: Vec<Vec<f64>>,
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::default());
}

/// Runs `f` on this thread's FFT scratch and a zeroed buffer of `len`
/// values.
fn with_workspace<R>(len: usize, f: impl FnOnce(&mut DctScratch, &mut [f64]) -> R) -> R {
    WORKSPACE.with_borrow_mut(|ws| {
        if ws.buf.len() < len {
            ws.buf.resize(len, 0.0);
        }
        let buf = &mut ws.buf[..len];
        buf.fill(0.0);
        f(&mut ws.dct, buf)
    })
}

/// A zeroed plane of `len` values, from this thread's pool when it has
/// one.
fn take_plane(len: usize) -> Vec<f64> {
    let mut plane = WORKSPACE
        .with_borrow_mut(|ws| ws.planes.pop())
        .unwrap_or_default();
    plane.clear();
    plane.resize(len, 0.0);
    plane
}

/// Gives `planes` back to this thread's pool, up to [`POOLED_PLANES`].
fn give_planes(planes: impl IntoIterator<Item = Vec<f64>>) {
    WORKSPACE.with_borrow_mut(|ws| {
        for plane in planes {
            if ws.planes.len() < POOLED_PLANES {
                ws.planes.push(plane);
            }
        }
    });
}

/// The spectrum of a zero layer over one block of modes.
static ZERO_BLOCK: [f64; MODE_BLOCK] = [0.0; MODE_BLOCK];

/// `modes` of a layer's spectrum, `0.0` for a zero layer (`None`).
fn block_of<'a>(spectrum: Option<&'a [f64]>, modes: &Range<usize>) -> &'a [f64] {
    spectrum.map_or(&ZERO_BLOCK[..modes.len()], |s| &s[modes.clone()])
}

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

    /// Bytes the plan holds on the heap: its twiddle table and, for an
    /// odd length, the chirp-z tables.
    fn heap_bytes(&self) -> usize {
        size_of_val(&self.tw[..])
            + self.bluestein.as_ref().map_or(0, |b| {
                size_of_val(&b.tw[..])
                    + size_of_val(&b.chirp[..])
                    + size_of_val(&b.kernel.re[..])
                    + size_of_val(&b.kernel.im[..])
            })
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

/// The per-mode form of a layered stencil: the eigenvalues
/// `2 − 2cos(πk/n)` of the 1-D Neumann coupling along each lateral axis
/// and the vertical part of each layer's modal diagonal. Mode
/// `(kx, ky)` is the tridiagonal with diagonal
/// `dz[iz] + gx[iz]·λx(kx) + gy[iz]·λy(ky)` and off-diagonals `−gz`; the
/// lateral part is zero at the zero mode, matching the Neumann row sums
/// of the assembled operator.
struct ModalOperator {
    lam_x: Vec<f64>,
    lam_y: Vec<f64>,
    dz: Vec<f64>,
}

impl ModalOperator {
    fn of(sys: &StencilSystem) -> ModalOperator {
        let (nx, ny, nz) = sys.dims();
        let pi = std::f64::consts::PI;
        let lam = |n: usize| -> Vec<f64> {
            (0..n)
                .map(|k| 2.0 - 2.0 * (pi * k as f64 / n as f64).cos())
                .collect()
        };
        let dz = (0..nz)
            .map(|iz| {
                let mut d = sys.leak[iz];
                if iz + 1 < nz {
                    d += sys.gz[iz];
                }
                if iz > 0 {
                    d += sys.gz[iz - 1];
                }
                d
            })
            .collect();
        ModalOperator {
            lam_x: lam(nx),
            lam_y: lam(ny),
            dz,
        }
    }
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
        let ModalOperator { lam_x, lam_y, dz } = ModalOperator::of(sys);
        // One layer at a time over every mode: layer `iz` eliminates
        // against layer `iz − 1`'s pivots, so the modes' division chains
        // run side by side. Each mode sees the operations of its own
        // bottom-up sweep in the same order, hence the same bits.
        let mut inv = vec![0.0; nz * nxy];
        let layers = dz.iter().zip(&sys.gx).zip(&sys.gy);
        for (iz, ((&d, &gx), &gy)) in layers.enumerate() {
            let (done, rest) = inv.split_at_mut(iz * nxy);
            let below = iz
                .checked_sub(1)
                .map(|b| (gzi[b] * gzi[b], &done[b * nxy..]));
            for (ky, (row, &ly)) in rest[..nxy].chunks_exact_mut(nx).zip(&lam_y).enumerate() {
                for (kx, (slot, &lx)) in row.iter_mut().zip(&lam_x).enumerate() {
                    let diag = d + gx * lx + gy * ly;
                    let pivot = match below {
                        None => diag,
                        Some((g2, prev)) => diag - g2 * prev[ky * nx + kx],
                    };
                    if !pivot.is_finite() || pivot <= 0.0 {
                        // Mode tridiagonal not SPD — refuse, callers use
                        // CSR.
                        return None;
                    }
                    *slot = 1.0 / pivot;
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

    /// Bytes the factorization holds on the heap: the Thomas pivots (one
    /// `f64` per mode and layer, nearly all of it), the two transform
    /// plans and the border's small LU.
    pub fn heap_bytes(&self) -> usize {
        size_of_val(&self.inv[..])
            + size_of_val(&self.gzi[..])
            + self.plan_x.heap_bytes()
            + self.plan_y.heap_bytes()
            + self.border.as_ref().map_or(0, |b| {
                size_of_val(&b.lu.lu[..]) + size_of_val(&b.lu.piv[..])
            })
    }
}

/// Even worker bounds over `n` items (`bounds[w] = n·w/workers`).
fn even_bounds(n: usize, workers: usize) -> Vec<usize> {
    (0..=workers).map(|w| n * w / workers).collect()
}

/// Splits each of `planes` into per-worker disjoint element ranges:
/// `result[w][i]` is worker `w`'s slice of plane `i`.
fn split_planes<'a>(planes: Vec<&'a mut [f64]>, bounds: &[usize]) -> Vec<Vec<&'a mut [f64]>> {
    let workers = bounds.len() - 1;
    let mut out: Vec<Vec<&'a mut [f64]>> = (0..workers)
        .map(|_| Vec::with_capacity(planes.len()))
        .collect();
    for plane in planes {
        for (slot, head) in out.iter_mut().zip(split_slices(plane, bounds)) {
            slot.push(head);
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

/// Which layers of the solved field a [`SpectralSystem::solve`]
/// transforms back to space. The per-mode sweeps solve every layer
/// either way; only the inverse transforms are skipped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Planes {
    /// One layer: the power-dissipating one, say, the only layer a
    /// thermal answer reads.
    One(usize),
    /// Every layer: the whole field.
    All,
}

impl Planes {
    fn contains(self, iz: usize) -> bool {
        match self {
            Planes::One(layer) => layer == iz,
            Planes::All => true,
        }
    }
}

/// One layer of the right-hand side of a [`SpectralSystem::solve`].
#[derive(Clone, Copy, Debug)]
pub enum RhsPlane<'a> {
    /// No load on this layer: its spectrum is zero.
    Zero,
    /// A plane of values in `iy·nx + ix` order, transformed per solve.
    /// A plane whose values are all exactly zero is taken as
    /// [`RhsPlane::Zero`] and skips the transforms.
    Values(&'a [f64]),
    /// One value in every bin: a Dirichlet layer, say. Its rows are
    /// alike, so one row is transformed and copied to the others. Zero
    /// is taken as [`RhsPlane::Zero`].
    Constant(f64),
}

/// The right-hand side of one [`SpectralSystem::solve`].
#[derive(Clone, Debug)]
pub struct SpectralRhs<'a> {
    /// One entry per layer, bottom layer first.
    pub layers: Vec<RhsPlane<'a>>,
    /// The border node's entry: `Some` exactly when the factorization
    /// has a border node.
    pub border: Option<f64>,
}

/// The solved field of one [`SpectralSystem::solve`]: the layers it
/// transformed back, each in `iy·nx + ix` order, and the border node.
#[derive(Clone, Debug)]
pub struct SpectralField {
    planes: Vec<Option<Vec<f64>>>,
    border: Option<f64>,
}

impl SpectralField {
    /// Layer `iz`, when the solve transformed it back.
    pub fn plane(&self, iz: usize) -> Option<&[f64]> {
        self.planes.get(iz)?.as_deref()
    }

    /// Takes layer `iz` out of the field, when the solve transformed it
    /// back.
    pub fn into_plane(mut self, iz: usize) -> Option<Vec<f64>> {
        self.planes.get_mut(iz)?.take()
    }

    /// The border node's value, when the system has one.
    pub fn border(&self) -> Option<f64> {
        self.border
    }

    /// The whole field in the z-innermost layout of [`StencilSystem`]
    /// (cell `(ix, iy, iz)` at `(iy·nx + ix)·nz + iz`, the border node
    /// last), or `None` unless the solve transformed back every layer.
    pub fn to_stencil_order(&self) -> Option<Vec<f64>> {
        let planes: Vec<&[f64]> = self
            .planes
            .iter()
            .map(Option::as_deref)
            .collect::<Option<_>>()?;
        let cells = planes.first().map_or(0, |p| p.len());
        let mut out = Vec::with_capacity(cells * planes.len() + 1);
        for bin in 0..cells {
            out.extend(planes.iter().map(|p| p[bin]));
        }
        out.extend(self.border);
        Some(out)
    }
}

/// Copies `lanes` consecutive rows of length `nx` into a transposed
/// tile: element `ix` of row `r` lands at `ix·lanes + r`.
fn rows_to_tile(rows: &[f64], tile: &mut [f64], nx: usize, lanes: usize) {
    for (r, row) in rows.chunks_exact(nx).take(lanes).enumerate() {
        for (ix, &v) in row.iter().enumerate() {
            tile[ix * lanes + r] = v;
        }
    }
}

/// The inverse of [`rows_to_tile`].
fn tile_to_rows(tile: &[f64], rows: &mut [f64], nx: usize, lanes: usize) {
    for (r, row) in rows.chunks_exact_mut(nx).take(lanes).enumerate() {
        for (ix, v) in row.iter_mut().enumerate() {
            *v = tile[ix * lanes + r];
        }
    }
}

impl SpectralSystem {
    /// Direct solve of `sys`, the system this factorization was built
    /// from, for `rhs`, accepted only after a residual check against
    /// `sys`. Returns the layers `planes` names and the border node.
    ///
    /// The pipeline runs in slab-parallel stages over the shared `pool`
    /// worker teams: forward row then column DCTs of the layers of
    /// `rhs` that carry a load (a constant layer's rows share one
    /// transformed row), one Thomas sweep per `(kx, ky)` mode over every
    /// layer, the border fix of mode `(0, 0)`, the
    /// check, and inverse column then row DCTs of the requested layers
    /// only. A layer without a load keeps a spectrum of `0.0`, which
    /// can differ from a transformed zero plane only in the sign of a
    /// zero, and `x + (−0) == x`. Every row, column and mode is
    /// transformed by identical scalar code whatever the partition and
    /// batch width, so the solution is bit-identical at any `threads`,
    /// and a layer's bits do not depend on which other layers were
    /// transformed back.
    ///
    /// The check runs in mode space and costs no transform. With `b̂`
    /// the spectrum of the right-hand side and `x̂` the swept solution,
    /// it takes `‖b̂ − Â·x̂‖/‖b̂‖` over every mode and layer, where `Â`
    /// is each mode's tridiagonal built from the per-layer coefficients
    /// of `sys` (plus the border row and column at mode `(0, 0)`), not
    /// from the stored pivots. Each mode is weighted by its Parseval
    /// factor (`1/n` at wavenumber 0, `2/n` elsewhere, per axis), so the
    /// ratio is the spatial `‖b − A·x‖/‖b‖` of the exact inverse
    /// transform of `x̂`. A direct solve lands at machine precision; a
    /// residual above `tolerance` means the factorization no longer
    /// matches the system, so the solve is refused rather than returned
    /// as a silently degraded field. The sums are taken over fixed
    /// blocks of modes and folded in block order, so the residual's
    /// bits do not depend on `threads` either.
    ///
    /// # Errors
    ///
    /// [`SolveError::NotConverged`] carrying the residual when the check
    /// fails.
    ///
    /// # Panics
    ///
    /// Panics when `sys` has other dimensions than the factorization,
    /// when `rhs` has the wrong layer count, plane lengths or border
    /// entry, or when `planes` names a layer outside the stack.
    pub fn solve(
        &self,
        sys: &StencilSystem,
        rhs: &SpectralRhs<'_>,
        planes: Planes,
        tolerance: f64,
        threads: usize,
    ) -> Result<(SpectralField, SolveStats), SolveError> {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let nxy = nx * ny;
        assert_eq!(sys.dims(), self.dims(), "spectral system dimensions");
        assert_eq!(rhs.layers.len(), nz, "spectral rhs layer count");
        assert_eq!(
            rhs.border.is_some(),
            self.border.is_some(),
            "spectral rhs border entry"
        );
        if let Planes::One(iz) = planes {
            assert!(iz < nz, "spectral plane {iz} outside a {nz}-layer stack");
        }
        let team = crate::pool::effective_threads(threads);

        // Stages 1–2: forward row then column transforms of the layers
        // that carry a load, into spectra of their own.
        let mut transformed: Vec<Option<Vec<f64>>> = rhs
            .layers
            .iter()
            .map(|layer| match *layer {
                RhsPlane::Values(p) => {
                    assert_eq!(p.len(), nxy, "spectral rhs plane length");
                    p.iter().any(|&v| !exact_zero(v)).then(|| take_plane(nxy))
                }
                RhsPlane::Constant(c) => (!exact_zero(c)).then(|| {
                    let mut plane = take_plane(nxy);
                    let (row, rest) = plane.split_at_mut(nx);
                    row.fill(c);
                    with_workspace(0, |s, _| self.plan_x.forward(row, s));
                    for other in rest.chunks_exact_mut(nx) {
                        other.copy_from_slice(row);
                    }
                    plane
                }),
                RhsPlane::Zero => None,
            })
            .collect();
        let rows = rhs
            .layers
            .iter()
            .zip(&mut transformed)
            .filter_map(|(layer, out)| match (layer, out) {
                (RhsPlane::Values(p), Some(out)) => Some((*p, out.as_mut_slice())),
                _ => None,
            })
            .collect();
        self.row_pass(rows, team);
        self.column_pass(
            transformed
                .iter_mut()
                .flatten()
                .map(Vec::as_mut_slice)
                .collect(),
            team,
            false,
        );
        let spectra: Vec<Option<&[f64]>> = transformed.iter().map(Option::as_deref).collect();

        // Stage 3: one Thomas sweep per mode over every layer, the
        // border fix of mode (0,0) and the check; only the requested
        // layers of the solved spectrum are kept.
        let mut kept: Vec<Option<Vec<f64>>> = (0..nz)
            .map(|iz| planes.contains(iz).then(|| vec![0.0; nxy]))
            .collect();
        let (xb, residual) = self.sweep_and_check(sys, &spectra, rhs.border, &mut kept, team);
        give_planes(transformed.into_iter().flatten());
        if !(residual.is_finite() && residual <= tolerance) {
            return Err(SolveError::NotConverged {
                iterations: 1,
                residual,
            });
        }

        // Stages 4–5: inverse column then row DCTs of the kept layers.
        self.inverse(
            kept.iter_mut().flatten().map(Vec::as_mut_slice).collect(),
            team,
        );
        #[cfg(feature = "paranoid")]
        for plane in kept.iter().flatten() {
            crate::paranoid::check_finite("spectral direct solve", plane);
        }
        Ok((
            SpectralField {
                planes: kept,
                border: xb,
            },
            SolveStats {
                iterations: 1,
                relative_residual: residual,
            },
        ))
    }

    /// Forward row DCTs of each `(plane, spectrum)` pair, planes in
    /// `iy·nx + ix` order, through transposed tiles of x-rows; workers
    /// own disjoint y-row slabs of every spectrum.
    fn row_pass(&self, jobs: Vec<(&[f64], &mut [f64])>, team: usize) {
        let (nx, ny) = (self.nx, self.ny);
        let (sources, spectra): (Vec<&[f64]>, Vec<&mut [f64]>) = jobs.into_iter().unzip();
        let t = team.min(ny);
        let row_bounds = even_bounds(ny, t);
        let elem_bounds: Vec<usize> = row_bounds.iter().map(|r| r * nx).collect();
        let ctxs = split_planes(spectra, &elem_bounds);
        let (plan_x, sources, row_bounds) = (&self.plan_x, &sources, &row_bounds);
        crate::pool::run(ctxs, move |w, mut slabs: Vec<&mut [f64]>| {
            with_workspace(nx * ROW_TILE, |scratch, tile| {
                let y0 = row_bounds[w];
                let rows = row_bounds[w + 1] - y0;
                for (source, slab) in sources.iter().zip(&mut slabs) {
                    for r0 in (0..rows).step_by(ROW_TILE) {
                        let lanes = ROW_TILE.min(rows - r0);
                        let tile = &mut tile[..nx * lanes];
                        rows_to_tile(&source[(y0 + r0) * nx..], tile, nx, lanes);
                        plan_x.forward_lanes(tile, lanes, scratch);
                        tile_to_rows(tile, &mut slab[r0 * nx..], nx, lanes);
                    }
                }
            })
        });
    }

    /// The per-mode Thomas sweeps and the mode-space check of their
    /// result, over the spectrum of `spectra` (`None` is a zero layer),
    /// with mode `(0, 0)` re-solved against the border block when the
    /// system has one. Each `Some` entry of `out` receives its layer of
    /// the solved spectrum. Returns the border node's value and the
    /// relative residual of [`SpectralSystem::solve`]'s check.
    ///
    /// Workers own disjoint runs of [`MODE_BLOCK`]-mode blocks. A block's
    /// layers are solved into a worker-local scratch that stays
    /// cache-resident: the forward sweep marches up every layer, the
    /// back-substitution down to the bottom, the residual reads every
    /// layer, and only the layers of `out` are copied out. The
    /// residual's partial sums are taken per block and folded in block
    /// order after the workers join; the blocks do not depend on the
    /// team size, so neither do the residual's bits.
    fn sweep_and_check(
        &self,
        sys: &StencilSystem,
        spectra: &[Option<&[f64]>],
        b_border: Option<f64>,
        out: &mut [Option<Vec<f64>>],
        team: usize,
    ) -> (Option<f64>, f64) {
        let (nxy, nz) = (self.nx * self.ny, self.nz);
        let blocks = nxy.div_ceil(MODE_BLOCK);
        let bounds: Vec<usize> = even_bounds(blocks, team.min(blocks))
            .into_iter()
            .map(|b| (b * MODE_BLOCK).min(nxy))
            .collect();
        let layers: Vec<usize> = (0..nz).filter(|&iz| out[iz].is_some()).collect();
        let ctxs = split_planes(
            out.iter_mut().flatten().map(Vec::as_mut_slice).collect(),
            &bounds,
        );
        let check = ModalCheck::of(sys);
        let (check, bounds, layers) = (&check, &bounds, &layers);
        let parts = crate::pool::run(ctxs, move |w, mut slabs: Vec<&mut [f64]>| {
            with_workspace((nz + 5) * MODE_BLOCK, |_, buf| {
                let (x, scratch) = buf.split_at_mut(nz * MODE_BLOCK);
                let mut sums = Vec::new();
                let mut xb = None;
                let (start, end) = (bounds[w], bounds[w + 1]);
                for m0 in (start..end).step_by(MODE_BLOCK) {
                    let modes = m0..(m0 + MODE_BLOCK).min(end);
                    self.sweep_block(spectra, x, &modes);
                    let mut border = None;
                    if let (0, Some(lu), Some(b)) = (m0, &self.border, b_border) {
                        let mut v: Vec<f64> =
                            spectra.iter().map(|s| s.map_or(0.0, |s| s[0])).collect();
                        v.push(b);
                        lu.lu.solve(&mut v);
                        for (layer, &v) in x.chunks_exact_mut(MODE_BLOCK).zip(&v) {
                            layer[0] = v;
                        }
                        xb = Some(v[nz]);
                        border = Some((b, v[nz]));
                    }
                    sums.push(check.block(spectra, x, &modes, border, scratch));
                    let local = modes.start - start..modes.end - start;
                    for (slab, &iz) in slabs.iter_mut().zip(layers) {
                        slab[local.clone()].copy_from_slice(&x[iz * MODE_BLOCK..][..modes.len()]);
                    }
                }
                (xb, sums)
            })
        });
        let (mut nb, mut nr) = (0.0, 0.0);
        let mut xb = None;
        for (x, sums) in parts {
            xb = xb.or(x);
            for [b, r] in sums {
                nb += b;
                nr += r;
            }
        }
        let norm_b = nb.sqrt();
        let residual = if norm_b > 0.0 {
            nr.sqrt() / norm_b
        } else {
            0.0
        };
        (xb, residual)
    }

    /// The forward sweep up every layer, then the back-substitution down
    /// to the bottom, over `modes`: layer `iz` of the block lands in
    /// `x[iz·MODE_BLOCK..]`. A zero layer sweeps `0.0`, the spectrum it
    /// stands for.
    fn sweep_block(&self, spectra: &[Option<&[f64]>], x: &mut [f64], modes: &Range<usize>) {
        let (nxy, len) = (self.nx * self.ny, modes.len());
        let pivots = |iz: usize| &self.inv[iz * nxy + modes.start..iz * nxy + modes.end];
        for (iz, spectrum) in spectra.iter().enumerate() {
            let (piv, b) = (pivots(iz), block_of(*spectrum, modes));
            let (below, rest) = x.split_at_mut(iz * MODE_BLOCK);
            let x = &mut rest[..len];
            if iz == 0 {
                for ((x, &b), &p) in x.iter_mut().zip(b).zip(piv) {
                    *x = b * p;
                }
                continue;
            }
            let g = self.gzi[iz - 1];
            let prev = &below[(iz - 1) * MODE_BLOCK..][..len];
            for (((x, &b), &p), &xp) in x.iter_mut().zip(b).zip(piv).zip(prev) {
                *x = (b + g * xp) * p;
            }
        }
        for iz in (0..self.nz.saturating_sub(1)).rev() {
            let (g, piv) = (self.gzi[iz], pivots(iz));
            let (lower, upper) = x.split_at_mut((iz + 1) * MODE_BLOCK);
            let x = &mut lower[iz * MODE_BLOCK..][..len];
            for ((x, &p), &n) in x.iter_mut().zip(piv).zip(&upper[..len]) {
                *x += g * p * n;
            }
        }
    }

    /// Inverse column then row DCTs of `planes`, in place. The row pass
    /// goes through transposed tiles of x-rows; workers own disjoint
    /// y-row slabs of every plane.
    fn inverse(&self, mut planes: Vec<&mut [f64]>, team: usize) {
        let (nx, ny) = (self.nx, self.ny);
        self.column_pass(planes.iter_mut().map(|p| &mut **p).collect(), team, true);
        let t = team.min(ny);
        let row_bounds = even_bounds(ny, t);
        let elem_bounds: Vec<usize> = row_bounds.iter().map(|r| r * nx).collect();
        let ctxs = split_planes(planes, &elem_bounds);
        let (plan_x, row_bounds) = (&self.plan_x, &row_bounds);
        crate::pool::run(ctxs, move |w, mut slabs: Vec<&mut [f64]>| {
            with_workspace(nx * ROW_TILE, |scratch, tile| {
                let rows = row_bounds[w + 1] - row_bounds[w];
                for slab in &mut slabs {
                    for r0 in (0..rows).step_by(ROW_TILE) {
                        let lanes = ROW_TILE.min(rows - r0);
                        let tile = &mut tile[..nx * lanes];
                        rows_to_tile(&slab[r0 * nx..], tile, nx, lanes);
                        plan_x.inverse_lanes(tile, lanes, scratch);
                        tile_to_rows(tile, &mut slab[r0 * nx..], nx, lanes);
                    }
                }
            })
        });
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
            with_workspace(0, |scratch, _| {
                for plane in chunk.iter_mut() {
                    if inverse {
                        plan_y.inverse_lanes(plane, nx, scratch);
                    } else {
                        plan_y.forward_lanes(plane, nx, scratch);
                    }
                }
            })
        });
    }
}

/// The mode-space check of [`SpectralSystem::solve`]: the modal operator
/// `Â` of a stencil system, built from its per-layer coefficients, and
/// the Parseval weight of every mode.
struct ModalCheck<'a> {
    sys: &'a StencilSystem,
    op: ModalOperator,
    /// Per-axis Parseval weights: `1/n` at wavenumber 0, `2/n` above.
    wx: Vec<f64>,
    wy: Vec<f64>,
}

impl<'a> ModalCheck<'a> {
    fn of(sys: &'a StencilSystem) -> ModalCheck<'a> {
        let (nx, ny, _) = sys.dims();
        let weights = |n: usize| -> Vec<f64> {
            (0..n)
                .map(|k| if k == 0 { 1.0 } else { 2.0 } / n as f64)
                .collect()
        };
        ModalCheck {
            sys,
            op: ModalOperator::of(sys),
            wx: weights(nx),
            wy: weights(ny),
        }
    }

    /// The Parseval-weighted squared norms `[Σ w·b̂², Σ w·r̂²]` of the
    /// right-hand side and of the residual `r̂ = b̂ − Â·x̂` over one
    /// block of `modes` of every layer, the block's layer `iz` at
    /// `x[iz·MODE_BLOCK..]`. In the block holding mode `(0, 0)` of a
    /// system with a border node, `border` carries the node's right-hand
    /// side and value: the node pulls on mode `(0, 0)` of the bottom
    /// layer with its column scaled by the zero-mode mass `nx·ny`, and
    /// its own row reads that mode, the plain sum of the bottom layer.
    /// `scratch` holds `5·MODE_BLOCK` values. Each layer's sums are
    /// fixed-shape [`crate::pool::dot_wide`]s, folded bottom layer first.
    fn block(
        &self,
        spectra: &[Option<&[f64]>],
        x: &[f64],
        modes: &Range<usize>,
        border: Option<(f64, f64)>,
        scratch: &mut [f64],
    ) -> [f64; 2] {
        let sys = self.sys;
        let (nx, ny, nz) = sys.dims();
        let len = modes.len();
        let (lx, scratch) = scratch.split_at_mut(MODE_BLOCK);
        let (ly, scratch) = scratch.split_at_mut(MODE_BLOCK);
        let (w, scratch) = scratch.split_at_mut(MODE_BLOCK);
        let (r, wr) = scratch.split_at_mut(MODE_BLOCK);
        let (lx, ly, w, r, wr) = (
            &mut lx[..len],
            &mut ly[..len],
            &mut w[..len],
            &mut r[..len],
            &mut wr[..len],
        );
        let (mut kx, mut ky) = (modes.start % nx, modes.start / nx);
        for j in 0..len {
            lx[j] = self.op.lam_x[kx];
            ly[j] = self.op.lam_y[ky];
            w[j] = self.wx[kx] * self.wy[ky];
            kx += 1;
            if kx == nx {
                (kx, ky) = (0, ky + 1);
            }
        }
        let layer = |iz: usize| &x[iz * MODE_BLOCK..][..len];
        let node = border.and_then(|(b, xb)| Some((sys.border.as_ref()?, b, xb)));
        let (mut nb, mut nr) = (0.0, 0.0);
        for (iz, spectrum) in spectra.iter().enumerate() {
            let (dz, gx, gy) = (self.op.dz[iz], sys.gx[iz], sys.gy[iz]);
            for (((r, &x), &lx), &ly) in r.iter_mut().zip(layer(iz)).zip(&*lx).zip(&*ly) {
                *r = -((dz + gx * lx + gy * ly) * x);
            }
            if iz > 0 {
                let g = sys.gz[iz - 1];
                for (r, &x) in r.iter_mut().zip(layer(iz - 1)) {
                    *r += g * x;
                }
            }
            if iz + 1 < nz {
                let g = sys.gz[iz];
                for (r, &x) in r.iter_mut().zip(layer(iz + 1)) {
                    *r += g * x;
                }
            }
            if let (0, Some((node, _, xb))) = (iz, node) {
                r[0] += node.coupling * (nx * ny) as f64 * xb;
            }
            let b = block_of(*spectrum, modes);
            for ((wr, &w), &b) in wr.iter_mut().zip(&*w).zip(b) {
                *wr = w * b;
            }
            nb += crate::pool::dot_wide(wr, b);
            for (r, &b) in r.iter_mut().zip(b) {
                *r += b;
            }
            for ((wr, &w), &r) in wr.iter_mut().zip(&*w).zip(&*r) {
                *wr = w * r;
            }
            nr += crate::pool::dot_wide(wr, r);
        }
        if let Some((node, b, xb)) = node {
            let d = b - (node.diag * xb - node.coupling * x[0]);
            nb += b * b;
            nr += d * d;
        }
        [nb, nr]
    }
}

#[cfg(any(test, feature = "paranoid"))]
impl SpectralSystem {
    /// The whole-field solve of a right-hand side in the z-innermost
    /// layout of [`StencilSystem`] (border slot last), returned in that
    /// layout: the form the spatial 3-D residual reads.
    pub(crate) fn solve_stencil_order(
        &self,
        sys: &StencilSystem,
        rhs: &[f64],
        tolerance: f64,
        threads: usize,
    ) -> Result<(Vec<f64>, SolveStats), SolveError> {
        let nz = self.nz;
        let ng = self.nx * self.ny * nz;
        let planes: Vec<Vec<f64>> = (0..nz)
            .map(|iz| rhs[..ng].iter().skip(iz).step_by(nz).copied().collect())
            .collect();
        let rhs = SpectralRhs {
            layers: planes.iter().map(|p| RhsPlane::Values(p)).collect(),
            border: rhs.get(ng).copied(),
        };
        let (field, stats) = self.solve(sys, &rhs, Planes::All, tolerance, threads)?;
        let x = field.to_stencil_order().unwrap_or_default();
        Ok((x, stats))
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

    /// The mode-major Thomas pivots `from_stencil` computed before it
    /// went layer by layer: each mode's whole column, bottom up.
    fn mode_major_pivots(sys: &StencilSystem) -> Option<Vec<f64>> {
        let (nx, ny, nz) = sys.dims();
        let nxy = nx * ny;
        let gzi = &sys.gz;
        let ModalOperator { lam_x, lam_y, dz } = ModalOperator::of(sys);
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
                        return None;
                    }
                    prev = 1.0 / pivot;
                    inv[iz * nxy + m] = prev;
                }
            }
        }
        Some(inv)
    }

    #[test]
    fn layer_major_pivots_are_bitwise_the_mode_major_ones() {
        for (nx, ny) in [(20, 12), (25, 13), (9, 27), (16, 16), (1, 8), (1, 1)] {
            for package_resistance in [157.0, 0.0] {
                let sys = layered(nx, ny, package_resistance);
                let want = mode_major_pivots(&sys).expect("layered stacks factor");
                let got = SpectralSystem::from_stencil(&sys).expect("layered stacks factor");
                assert_bits_eq(
                    &format!("{nx}x{ny} pivots, package {package_resistance}"),
                    &got.inv,
                    &want,
                );
            }
        }
        // A negative leak on an upper layer makes some mode's pivot
        // non-positive: both orders refuse.
        let mut sys = layered(9, 8, 157.0);
        sys.leak[2] = -1.0;
        assert!(mode_major_pivots(&sys).is_none());
        assert!(SpectralSystem::from_stencil(&sys).is_none());
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
        let (x, stats) = sp.solve_stencil_order(sys, &rhs, 1e-9, 1).unwrap();
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
        // The modal check estimates the same ratio.
        let spatial = norm_r / norm_b;
        assert!(
            stats.relative_residual <= 10.0 * spatial.max(1e-15),
            "modal residual {:.3e} vs spatial {spatial:.3e}",
            stats.relative_residual
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
                let solve = |threads| sp.solve_stencil_order(&sys, &rhs, 1e-9, threads).unwrap();
                let (baseline, _) = solve(1);
                for threads in [2usize, 4] {
                    let (got, _) = solve(threads);
                    assert_bits_eq(
                        &format!("{nx}x{ny} {label} spectral solve at {threads} threads"),
                        &got,
                        &baseline,
                    );
                }
            }
        }
    }

    /// A layered fixture of `nz` layers (1 to 4) cut from [`layered`]'s
    /// coefficients, nx≠ny allowed.
    fn stack(nx: usize, ny: usize, nz: usize, package_resistance: f64) -> StencilSystem {
        StencilSystem::layered(&LayeredStencilSpec {
            nx,
            ny,
            gx_layers: &[6e-5, 4.8e-4, 4.8e-4, 2.4e-5][..nz],
            gy_layers: &[6e-5, 5.2e-4, 5.2e-4, 3.0e-5][..nz],
            gz_interfaces: &[1.2e-4, 2.6e-3, 3.1e-4][..nz - 1],
            g_bottom: 7e-7,
            g_top: 4e-9,
            ambient: 25.0,
            package_resistance,
        })
    }

    #[test]
    fn one_plane_solves_are_bitwise_layers_of_the_whole_field() {
        // Each stack is loaded the way a thermal model loads it: a
        // power plane on one layer (built from its Dirichlet value plus
        // the watts, as `rhs_with` adds them) and every other layer's
        // Dirichlet value as a constant layer. The
        // active layer alone must carry the bits of the whole-field
        // solve of the assembled right-hand side, with the same check,
        // at every thread count: even, odd (Bluestein), nx≠ny and 1×n
        // meshes, with and without a border node, one layer or four,
        // the active layer at the bottom, in the middle and on top,
        // under hashed and zero power.
        let meshes = [(12usize, 12usize), (25, 21), (16, 10), (1, 9), (7, 1)];
        for (nx, ny) in meshes {
            for package_resistance in [157.0, 0.0] {
                for nz in [1usize, 4] {
                    let sys = stack(nx, ny, nz, package_resistance);
                    let sp = SpectralSystem::from_stencil(&sys).unwrap();
                    let fixed = sys.fixed_rhs();
                    for active in [0, nz / 2, nz - 1] {
                        for hashed in [true, false] {
                            let watts: Vec<f64> = (0..nx * ny)
                                .map(|bin| {
                                    if hashed {
                                        (noise(bin + 3).abs() - 0.3).max(0.0) * 1e-3
                                    } else {
                                        0.0
                                    }
                                })
                                .collect();
                            let injections: Vec<(usize, f64)> = watts
                                .iter()
                                .enumerate()
                                .filter(|&(_, &w)| w > 0.0)
                                .map(|(bin, &w)| (bin * nz + active, w))
                                .collect();
                            let plane: Vec<f64> = watts
                                .iter()
                                .map(|&w| {
                                    if w > 0.0 {
                                        fixed[active] + w
                                    } else {
                                        fixed[active]
                                    }
                                })
                                .collect();
                            let rhs = SpectralRhs {
                                layers: fixed
                                    .iter()
                                    .enumerate()
                                    .map(|(iz, &c)| {
                                        if iz == active {
                                            RhsPlane::Values(&plane)
                                        } else {
                                            RhsPlane::Constant(c)
                                        }
                                    })
                                    .collect(),
                                border: sys.border_rhs(),
                            };
                            let label = format!(
                                "{nx}x{ny}x{nz} R={package_resistance} active {active} \
                                 hashed {hashed}"
                            );
                            let full = sys.rhs_with(&injections);
                            let (whole, whole_stats) =
                                sp.solve_stencil_order(&sys, &full, 1e-9, 1).unwrap();
                            let want: Vec<f64> = whole[..nx * ny * nz]
                                .iter()
                                .skip(active)
                                .step_by(nz)
                                .copied()
                                .collect();
                            for threads in [1usize, 2, 4] {
                                let (field, stats) = sp
                                    .solve(&sys, &rhs, Planes::One(active), 1e-9, threads)
                                    .unwrap();
                                assert_eq!(field.plane(active).map(<[f64]>::len), Some(nx * ny));
                                assert_eq!(
                                    field.to_stencil_order().is_some(),
                                    nz == 1,
                                    "{label}: only one layer is transformed back"
                                );
                                assert_bits_eq(
                                    &format!("{label} t={threads}"),
                                    field.plane(active).unwrap_or_default(),
                                    &want,
                                );
                                assert_eq!(
                                    field.border().map(f64::to_bits),
                                    whole.get(nx * ny * nz).map(|v| v.to_bits()),
                                    "{label} t={threads}: border node"
                                );
                                assert_eq!(
                                    stats.relative_residual.to_bits(),
                                    whole_stats.relative_residual.to_bits(),
                                    "{label} t={threads}: the check read another spectrum"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The bits of a one-layer solve of a 4-layer stack, layer 1 loaded
    /// with noise and the others with their Dirichlet constants, and of
    /// its residual.
    fn one_plane_bits(nx: usize, ny: usize) -> Vec<u64> {
        let sys = stack(nx, ny, 4, 157.0);
        let sp = SpectralSystem::from_stencil(&sys).unwrap();
        let plane: Vec<f64> = (0..nx * ny).map(|bin| noise(bin + 11)).collect();
        let rhs = SpectralRhs {
            layers: sys
                .fixed_rhs()
                .iter()
                .enumerate()
                .map(|(iz, &c)| {
                    if iz == 1 {
                        RhsPlane::Values(&plane)
                    } else {
                        RhsPlane::Constant(c)
                    }
                })
                .collect(),
            border: sys.border_rhs(),
        };
        let (field, stats) = sp.solve(&sys, &rhs, Planes::One(1), 1e-9, 1).unwrap();
        let mut bits: Vec<u64> = field
            .plane(1)
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        bits.push(stats.relative_residual.to_bits());
        bits
    }

    #[test]
    fn reused_workspaces_carry_nothing_between_solves() {
        // A thread keeps its solve buffers for its next solve. A solve on
        // a thread whose buffers were last filled by larger, odd
        // (Bluestein) and whole-field solves must carry the bits of the
        // same solve on a fresh thread.
        let fresh = std::thread::spawn(|| one_plane_bits(12, 10))
            .join()
            .unwrap();
        let reused = std::thread::spawn(|| {
            one_plane_bits(32, 24);
            one_plane_bits(25, 21);
            let sys = stack(16, 16, 4, 0.0);
            let rhs: Vec<f64> = (0..sys.unknowns()).map(|i| noise(i + 5)).collect();
            let (whole, _) = SpectralSystem::from_stencil(&sys)
                .unwrap()
                .solve_stencil_order(&sys, &rhs, 1e-9, 1)
                .unwrap();
            assert_eq!(whole.len(), sys.unknowns());
            one_plane_bits(12, 10)
        })
        .join()
        .unwrap();
        assert_eq!(reused, fresh, "a solve read what an earlier one left");
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
