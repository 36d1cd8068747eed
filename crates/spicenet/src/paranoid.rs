//! Dynamic numeric-invariant checks, compiled in only under the
//! `paranoid` cargo feature.
//!
//! Clippy's library pass keeps explicit panic sites out of the solver
//! stack, so it does not *panic by accident*; this module makes it *fail
//! loudly on purpose* when a numeric invariant breaks — non-finite matvec
//! outputs, operators that are not symmetric positive definite, CG
//! iterations that diverge, or converged solutions that do not conserve
//! the injected power. Everything here costs real time per iteration,
//! so it is compiled out by default and exercised by a dedicated CI job
//! (`cargo test -p spicenet --features paranoid`, etc.). Lane- or
//! thread-parallel kernels tend to corrupt results silently rather than
//! crash; these checks are the tripwire future perf work lands on.

use crate::{SpectralSystem, StencilSystem};

/// A CG iterate whose relative residual exceeds this factor is declared
/// divergent. The preconditioned residual is not strictly monotone, but
/// starting from `x0 = 0` the relative residual is 1 and a healthy
/// iteration never wanders orders of magnitude above it.
pub const CG_DIVERGENCE_FACTOR: f64 = 1e4;

/// Panics if any entry of `xs` is NaN or infinite.
///
/// # Panics
///
/// On the first non-finite entry, naming `what` and the index.
pub fn check_finite(what: &str, xs: &[f64]) {
    for (i, v) in xs.iter().enumerate() {
        assert!(
            v.is_finite(),
            "paranoid: non-finite value {v} at index {i} in {what}"
        );
    }
}

/// Panics if a relative residual has diverged past
/// [`CG_DIVERGENCE_FACTOR`] or gone non-finite.
///
/// # Panics
///
/// When `rel` is non-finite or exceeds the divergence cap.
pub fn check_residual(what: &str, iteration: usize, rel: f64) {
    assert!(
        rel.is_finite() && rel <= CG_DIVERGENCE_FACTOR,
        "paranoid: CG residual diverged in {what}: relative residual {rel} at iteration {iteration}"
    );
}

/// Power-conservation check at convergence: the residual `r = b − A·x`
/// is the *unbalanced* injection, so its net sum must vanish to within
/// the convergence tolerance (scaled by `‖b‖·√n` for the norm
/// inequality `|Σrᵢ| ≤ √n·‖r‖ < √n·tol·‖b‖`).
///
/// # Panics
///
/// When the residual sum exceeds the tolerance-implied bound by more
/// than a 10× safety margin.
pub fn check_conservation(what: &str, residual: &[f64], norm_b: f64, tol: f64) {
    check_conservation_net(what, residual.iter().sum(), residual.len(), norm_b, tol);
}

/// [`check_conservation`] for callers that have already reduced the
/// residual to its net sum — the distributed solver computes `Σrᵢ`
/// cooperatively across workers and cannot hand over one contiguous
/// residual slice.
///
/// # Panics
///
/// Same as [`check_conservation`].
pub fn check_conservation_net(what: &str, net: f64, len: usize, norm_b: f64, tol: f64) {
    let bound = 10.0 * tol * norm_b * (len.max(1) as f64).sqrt();
    assert!(
        net.abs() <= bound,
        "paranoid: converged solve does not conserve injections in {what}: \
         |Σr| = {} exceeds bound {bound}",
        net.abs()
    );
}

/// The full-field cross-check of a spectral solve that transformed
/// back only layer `iz`: re-solves `b` (the z-innermost right-hand side
/// of [`StencilSystem::rhs_with`], border slot last) with every layer
/// transformed back, requires the spatial relative residual
/// `‖b − A·x‖/‖b‖` against `sys` within `tolerance` and the residual's
/// net sum to conserve the injections, and requires layer `iz` of that
/// field to equal `plane` bit for bit.
///
/// # Panics
///
/// When the whole-field solve is refused, its residual exceeds the
/// tolerance, the injections are not conserved, or a bin of `plane`
/// differs from the whole field's.
pub fn check_spectral_plane(
    sp: &SpectralSystem,
    sys: &StencilSystem,
    b: &[f64],
    iz: usize,
    plane: &[f64],
    tolerance: f64,
    threads: usize,
) {
    let full = sp.solve_stencil_order(sys, b, tolerance, threads);
    assert!(
        full.is_ok(),
        "paranoid: the whole-field spectral solve refused an accepted answer: {full:?}"
    );
    let Ok((x, _)) = full else {
        return;
    };
    let (nx, _, nz) = sys.dims();
    let row_len = nx * nz;
    let mut sums = [0.0; 3];
    let border = sys.apply_rows(&x, |iy, ax| {
        sums = fold_residual(sums, &b[iy * row_len..(iy + 1) * row_len], ax);
    });
    if let Some(a) = border {
        sums = fold_residual(sums, &b[sys.grid_cells()..], &[a]);
    }
    let [nb, nr, net] = sums;
    let norm_b = nb.sqrt();
    let residual = if norm_b > 0.0 {
        nr.sqrt() / norm_b
    } else {
        0.0
    };
    assert!(
        residual <= tolerance,
        "paranoid: spectral whole field misses the stencil system: \
         relative residual {residual:e} above {tolerance:e}"
    );
    check_conservation_net("spectral whole field", net, b.len(), norm_b, tolerance);
    assert_eq!(plane.len() * nz, sys.grid_cells(), "paranoid: plane length");
    for (bin, v) in plane.iter().enumerate() {
        let full = x[bin * nz + iz];
        assert!(
            v.to_bits() == full.to_bits(),
            "paranoid: layer {iz} bin {bin} is {v} alone but {full} in the whole field"
        );
    }
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

/// A deterministic pseudo-random probe vector with entries in `[-1, 1]`
/// (xorshift64*; no external RNG dependency, reproducible across runs).
pub fn probe_vector(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64;
            u / (1u64 << 53) as f64 * 2.0 - 1.0
        })
        .collect()
}

/// Spot-checks that the operator behind `apply` is symmetric positive
/// definite on a handful of probe vectors: `xᵀ(Ay) = yᵀ(Ax)` to
/// rounding, and `xᵀAx > 0`. Probes catch assembly bugs (a one-sided
/// coupling update, a sign slip) without the O(n²) cost of a full
/// symmetry audit.
///
/// # Panics
///
/// When a probe pair violates symmetry beyond a rounding-scaled bound
/// or a probe's quadratic form is not strictly positive.
pub fn spot_check_spd(what: &str, n: usize, mut apply: impl FnMut(&[f64]) -> Vec<f64>) {
    if n == 0 {
        return;
    }
    let probes = [
        (
            probe_vector(n, 0x9E37_79B9_7F4A_7C15),
            probe_vector(n, 0xD1B5_4A32_D192_ED03),
        ),
        (
            probe_vector(n, 0x8AF8_63C1_27F1_9B75),
            probe_vector(n, 0xC2B2_AE3D_27D4_EB4F),
        ),
    ];
    for (x, y) in &probes {
        let ax = apply(x);
        let ay = apply(y);
        check_finite("SPD probe matvec", &ax);
        let xt_ay: f64 = x.iter().zip(&ay).map(|(a, b)| a * b).sum();
        let yt_ax: f64 = y.iter().zip(&ax).map(|(a, b)| a * b).sum();
        let scale = xt_ay.abs().max(yt_ax.abs()).max(1e-30);
        assert!(
            (xt_ay - yt_ax).abs() <= 1e-10 * scale,
            "paranoid: {what} is not symmetric: xᵀAy = {xt_ay} vs yᵀAx = {yt_ax}"
        );
        let xt_ax: f64 = x.iter().zip(&ax).map(|(a, b)| a * b).sum();
        assert!(
            xt_ax > 0.0,
            "paranoid: {what} is not positive definite: xᵀAx = {xt_ax}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_vectors_are_deterministic_and_bounded() {
        let a = probe_vector(64, 42);
        let b = probe_vector(64, 42);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| (-1.0..=1.0).contains(v)));
        // Not degenerate: entries differ.
        assert!(a.iter().any(|&v| (v - a[0]).abs() > 1e-3));
    }

    #[test]
    fn spd_spot_check_accepts_identity() {
        spot_check_spd("identity", 32, |v| v.to_vec());
    }

    #[test]
    #[should_panic(expected = "not symmetric")]
    fn spd_spot_check_rejects_asymmetric() {
        // A shift operator is maximally asymmetric.
        spot_check_spd("shift", 8, |v| {
            let mut out = vec![0.0; v.len()];
            out[1..].copy_from_slice(&v[..v.len() - 1]);
            out
        });
    }

    #[test]
    #[should_panic(expected = "not positive definite")]
    fn spd_spot_check_rejects_negated_identity() {
        spot_check_spd("negated identity", 8, |v| v.iter().map(|x| -x).collect());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn finite_check_catches_nan() {
        check_finite("unit test", &[0.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "does not conserve")]
    fn conservation_check_catches_leaks() {
        check_conservation("unit test", &[1.0, 1.0, 1.0], 1.0, 1e-9);
    }
}
