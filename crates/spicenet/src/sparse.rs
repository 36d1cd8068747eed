/// A compressed-sparse-row matrix, built from coordinate triplets.
///
/// Only what the conjugate-gradient solver needs: assembly with duplicate
/// summing, matrix-vector products, and diagonal extraction.
///
/// # Examples
///
/// ```
/// use spicenet::CsrMatrix;
///
/// // [2 -1; -1 2]
/// let m = CsrMatrix::from_triplets(2, &[(0, 0, 2.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 2.0)]);
/// let y = m.mul_vec(&[1.0, 1.0]);
/// assert_eq!(y, vec![1.0, 1.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Assembles an `n`×`n` matrix from `(row, col, value)` triplets,
    /// summing duplicates.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn from_triplets(n: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut counts = vec![0usize; n + 1];
        for &(r, c, _) in triplets {
            assert!(r < n && c < n, "triplet index out of range");
            counts[r + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let mut col_idx = vec![0usize; triplets.len()];
        let mut values = vec![0.0f64; triplets.len()];
        let mut cursor = counts.clone();
        for &(r, c, v) in triplets {
            let k = cursor[r];
            col_idx[k] = c;
            values[k] = v;
            cursor[r] += 1;
        }
        // Sort each row by column and merge duplicates.
        let mut out_row_ptr = vec![0usize; n + 1];
        let mut out_cols = Vec::with_capacity(triplets.len());
        let mut out_vals = Vec::with_capacity(triplets.len());
        for r in 0..n {
            let lo = counts[r];
            let hi = counts[r + 1];
            let mut row: Vec<(usize, f64)> = col_idx[lo..hi]
                .iter()
                .copied()
                .zip(values[lo..hi].iter().copied())
                .collect();
            row.sort_by_key(|&(c, _)| c);
            let mut merged: Vec<(usize, f64)> = Vec::with_capacity(row.len());
            for (c, v) in row {
                match merged.last_mut() {
                    Some((lc, lv)) if *lc == c => *lv += v,
                    _ => merged.push((c, v)),
                }
            }
            for (c, v) in merged {
                out_cols.push(c);
                out_vals.push(v);
            }
            out_row_ptr[r + 1] = out_cols.len();
        }
        CsrMatrix {
            n,
            row_ptr: out_row_ptr,
            col_idx: out_cols,
            values: out_vals,
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Stored non-zero count.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// `y = A·x` into a caller-provided buffer (the CG hot loop calls
    /// this once per iteration — no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n` or `y.len() != n`.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n, "dimension mismatch");
        assert_eq!(y.len(), self.n, "dimension mismatch");
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            *yr = acc;
        }
    }

    /// The main diagonal (zeros where unstored).
    pub fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.n];
        for (r, dr) in d.iter_mut().enumerate() {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                if self.col_idx[k] == r {
                    *dr = self.values[k];
                }
            }
        }
        d
    }
}

/// Zero-fill incomplete Cholesky factor `L` (lower triangular, diagonal
/// included) of a symmetric positive-definite [`CsrMatrix`], stored
/// row-wise with columns ascending.
///
/// For the M-matrices produced by Dirichlet-reduced resistive meshes the
/// factorization is guaranteed to exist (Meijerink–van der Vorst); for
/// general SPD input it may break down, in which case [`factor`] returns
/// `None` and callers fall back to Jacobi.
///
/// [`factor`]: IncompleteCholesky::factor
#[derive(Debug, Clone)]
pub(crate) struct IncompleteCholesky {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

/// Fraction of dropped fill lumped back into the diagonals (relaxed
/// modified IC). 1.0 is classical MIC; values slightly below avoid the
/// near-singular factors full compensation produces on meshes with
/// strong coefficient contrast (thin-layer stacks).
const MIC_RELAXATION: f64 = 0.97;

impl IncompleteCholesky {
    /// Modified IC(0) (Gustafsson): dropped fill is lumped into the
    /// diagonals of both rows it touches, preserving row sums. On mesh
    /// Laplacians this improves the preconditioned condition number from
    /// `O(h⁻²)` to `O(h⁻¹)`, roughly halving-again the iteration count
    /// of plain IC(0). Returns `None` on pivot breakdown (MIC gives up
    /// more easily than IC — callers fall back).
    ///
    /// Left-looking column algorithm. Because `a` is symmetric, the
    /// sparsity of column `j`'s lower triangle is row `j`'s upper
    /// triangle, so everything is read straight from the CSR rows.
    pub(crate) fn factor_modified(a: &CsrMatrix) -> Option<Self> {
        Self::factor_relaxed(a, MIC_RELAXATION)
    }

    pub(crate) fn factor_relaxed(a: &CsrMatrix, omega: f64) -> Option<Self> {
        let n = a.n;
        // Column-major L: column j holds rows i >= j with A[i][j] != 0.
        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        col_ptr.push(0);
        for j in 0..n {
            for k in a.row_ptr[j]..a.row_ptr[j + 1] {
                if a.col_idx[k] >= j {
                    row_idx.push(a.col_idx[k]);
                    values.push(a.values[k]);
                }
            }
            col_ptr.push(row_idx.len());
        }
        // Sparse accumulator for the active column + future-diagonal
        // compensation from dropped fill.
        let mut w = vec![0.0f64; n];
        let mut in_pattern = vec![usize::MAX; n];
        let mut diag_comp = vec![0.0f64; n];
        for j in 0..n {
            let (lo, hi) = (col_ptr[j], col_ptr[j + 1]);
            if hi == lo || row_idx[lo] != j {
                return None; // structurally missing diagonal
            }
            for k in lo..hi {
                let i = row_idx[k];
                w[i] = values[k];
                in_pattern[i] = j;
            }
            w[j] += diag_comp[j];
            // Columns k < j coupling into row j: the strict lower part of
            // CSR row j (pattern unchanged by zero-fill).
            for rk in a.row_ptr[j]..a.row_ptr[j + 1] {
                let k = a.col_idx[rk];
                if k >= j {
                    break; // row columns are ascending
                }
                let (klo, khi) = (col_ptr[k], col_ptr[k + 1]);
                // Find L[j][k] and the tail i >= j of column k.
                let Ok(pos) = row_idx[klo..khi].binary_search(&j) else {
                    continue;
                };
                let ljk = values[klo + pos];
                for kk in klo + pos..khi {
                    let i = row_idx[kk];
                    let update = ljk * values[kk];
                    if in_pattern[i] == j {
                        w[i] -= update;
                    } else {
                        // Dropped fill at (i, j): preserve row sums by
                        // lumping (a relaxed fraction of) it into both
                        // diagonals.
                        w[j] -= omega * update;
                        diag_comp[i] -= omega * update;
                    }
                }
            }
            let pivot = w[j];
            if pivot <= 0.0 || !pivot.is_finite() {
                return None;
            }
            let d = pivot.sqrt();
            values[lo] = d;
            for k in lo + 1..hi {
                values[k] = w[row_idx[k]] / d;
            }
        }
        // Transpose the column-major factor into the row-major lower
        // layout `apply_into` expects (columns ascending, diagonal last).
        let mut counts = vec![0usize; n + 1];
        for &i in &row_idx {
            counts[i + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let mut out_cols = vec![0usize; row_idx.len()];
        let mut out_vals = vec![0.0f64; row_idx.len()];
        let mut cursor = counts.clone();
        for j in 0..n {
            for k in col_ptr[j]..col_ptr[j + 1] {
                let i = row_idx[k];
                out_cols[cursor[i]] = j;
                out_vals[cursor[i]] = values[k];
                cursor[i] += 1;
            }
        }
        Some(IncompleteCholesky {
            n,
            row_ptr: counts,
            col_idx: out_cols,
            values: out_vals,
        })
    }

    /// Factors the lower triangle of `a` in its own sparsity pattern.
    /// Returns `None` when a pivot is non-positive (breakdown).
    pub(crate) fn factor(a: &CsrMatrix) -> Option<Self> {
        let n = a.n;
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..n {
            for k in a.row_ptr[r]..a.row_ptr[r + 1] {
                if a.col_idx[k] <= r {
                    col_idx.push(a.col_idx[k]);
                    values.push(a.values[k]);
                }
            }
            row_ptr.push(col_idx.len());
        }
        // Sparse dot of rows `i` and `j` over columns < `cut`, both sorted.
        let row_dot = |values: &[f64],
                       (ilo, ihi): (usize, usize),
                       (jlo, jhi): (usize, usize),
                       cut: usize,
                       cols: &[usize]| {
            let (mut p, mut q, mut acc) = (ilo, jlo, 0.0);
            while p < ihi && q < jhi && cols[p] < cut && cols[q] < cut {
                match cols[p].cmp(&cols[q]) {
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                    std::cmp::Ordering::Equal => {
                        acc += values[p] * values[q];
                        p += 1;
                        q += 1;
                    }
                }
            }
            acc
        };
        let mut diag_at = vec![usize::MAX; n];
        for i in 0..n {
            let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
            for k in lo..hi {
                let j = col_idx[k];
                if j < i {
                    let s = row_dot(&values, (lo, hi), (row_ptr[j], row_ptr[j + 1]), j, &col_idx);
                    values[k] = (values[k] - s) / values[diag_at[j]];
                } else {
                    // Columns are ascending, so this is the diagonal.
                    let s: f64 = values[lo..k].iter().map(|v| v * v).sum();
                    let pivot = values[k] - s;
                    if pivot <= 0.0 || !pivot.is_finite() {
                        return None;
                    }
                    values[k] = pivot.sqrt();
                    diag_at[i] = k;
                }
            }
            if diag_at[i] == usize::MAX {
                return None; // structurally missing diagonal
            }
        }
        Some(IncompleteCholesky {
            n,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Applies the preconditioner: solves `L·Lᵀ·z = r` into `z`.
    pub(crate) fn apply_into(&self, r: &[f64], z: &mut [f64]) {
        debug_assert_eq!(r.len(), self.n);
        debug_assert_eq!(z.len(), self.n);
        // Forward: L·y = r, overwriting z with y.
        for i in 0..self.n {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            let mut acc = r[i];
            for k in lo..hi - 1 {
                acc -= self.values[k] * z[self.col_idx[k]];
            }
            z[i] = acc / self.values[hi - 1];
        }
        // Backward: Lᵀ·z = y, scattering column-wise over the rows of L.
        for i in (0..self.n).rev() {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            z[i] /= self.values[hi - 1];
            let zi = z[i];
            for k in lo..hi - 1 {
                z[self.col_idx[k]] -= self.values[k] * zi;
            }
        }
    }
}

/// Preconditioner choice for [`preconditioned_cg`].
#[derive(Debug, Clone)]
pub(crate) enum Preconditioner {
    /// Diagonal scaling (stores the inverse diagonal).
    Jacobi(Vec<f64>),
    /// Zero-fill incomplete Cholesky.
    Ic0(IncompleteCholesky),
}

impl Preconditioner {
    /// Jacobi preconditioner from the matrix diagonal.
    pub(crate) fn jacobi(a: &CsrMatrix) -> Self {
        let minv = a
            .diagonal()
            .iter()
            .map(|&d| if d.abs() > 0.0 { 1.0 / d } else { 1.0 })
            .collect();
        Preconditioner::Jacobi(minv)
    }

    /// Strongest factorization that exists: modified IC(0), plain IC(0),
    /// then Jacobi.
    pub(crate) fn best(a: &CsrMatrix) -> Self {
        IncompleteCholesky::factor_modified(a)
            .or_else(|| IncompleteCholesky::factor(a))
            .map(Preconditioner::Ic0)
            .unwrap_or_else(|| Preconditioner::jacobi(a))
    }

    fn apply_into(&self, r: &[f64], z: &mut [f64]) {
        match self {
            Preconditioner::Jacobi(minv) => {
                for ((zi, ri), mi) in z.iter_mut().zip(r).zip(minv) {
                    *zi = ri * mi;
                }
            }
            Preconditioner::Ic0(ic) => ic.apply_into(r, z),
        }
    }
}

/// Jacobi-preconditioned conjugate gradients for SPD systems (the
/// default, assembly-per-solve path).
///
/// Returns `(x, iterations, relative_residual)`.
///
/// # Errors
///
/// Returns the iteration count and final residual if the tolerance is not
/// reached within `max_iter`.
pub(crate) fn conjugate_gradient(
    a: &CsrMatrix,
    b: &[f64],
    tol: f64,
    max_iter: usize,
) -> Result<(Vec<f64>, usize, f64), (usize, f64)> {
    preconditioned_cg(a, b, tol, max_iter, &Preconditioner::jacobi(a))
}

/// Conjugate gradients with a caller-supplied preconditioner — the
/// factorized path hands in an IC(0) factor computed once and amortized
/// over many right-hand sides.
///
/// Every dot product goes through [`crate::pool::chunked_dot`], the
/// fixed-shape reduction the threaded solvers also use — the summation
/// tree depends only on the vector length, never on how the work is
/// scheduled.
///
/// Returns `(x, iterations, relative_residual)`.
///
/// # Errors
///
/// Returns the iteration count and final residual if the tolerance is not
/// reached within `max_iter`.
pub(crate) fn preconditioned_cg(
    a: &CsrMatrix,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    precond: &Preconditioner,
) -> Result<(Vec<f64>, usize, f64), (usize, f64)> {
    let n = a.n;
    let norm_b = crate::pool::chunked_dot(b, b).sqrt();
    if crate::exact_zero(norm_b) {
        return Ok((vec![0.0; n], 0, 0.0));
    }
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut z = vec![0.0; n];
    precond.apply_into(&r, &mut z);
    let mut p = z.clone();
    let mut ap = vec![0.0; n];
    let mut rz: f64 = crate::pool::chunked_dot(&r, &z);
    if !rz.is_finite() || rz <= 0.0 {
        // rᵀM⁻¹r must be positive when M is SPD and r ≠ 0; anything else
        // (indefinite preconditioner, non-finite RHS) fails the solve
        // cleanly instead of silently corrupting the iteration.
        return Err((0, f64::INFINITY));
    }
    for it in 0..max_iter {
        a.mul_vec_into(&p, &mut ap);
        #[cfg(feature = "paranoid")]
        crate::paranoid::check_finite("preconditioned_cg matvec output", &ap);
        let pap: f64 = crate::pool::chunked_dot(&p, &ap);
        if pap <= 0.0 {
            // Not SPD (or numerically singular).
            return Err((it, f64::INFINITY));
        }
        let alpha = rz / pap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let norm_r = crate::pool::chunked_dot(&r, &r).sqrt();
        #[cfg(feature = "paranoid")]
        crate::paranoid::check_residual("preconditioned_cg", it + 1, norm_r / norm_b);
        if norm_r / norm_b < tol {
            #[cfg(feature = "paranoid")]
            {
                crate::paranoid::check_finite("preconditioned_cg solution", &x);
                crate::paranoid::check_conservation("preconditioned_cg", &r, norm_b, tol);
            }
            return Ok((x, it + 1, norm_r / norm_b));
        }
        precond.apply_into(&r, &mut z);
        let rz_new: f64 = crate::pool::chunked_dot(&r, &z);
        if !rz_new.is_finite() || rz_new <= 0.0 {
            return Err((it + 1, norm_r / norm_b));
        }
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    let norm_r = crate::pool::chunked_dot(&r, &r).sqrt();
    Err((max_iter, norm_r / norm_b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_are_summed() {
        let m = CsrMatrix::from_triplets(2, &[(0, 0, 1.0), (0, 0, 2.0), (1, 1, 1.0)]);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.diagonal(), vec![3.0, 1.0]);
    }

    #[test]
    fn cg_solves_laplacian_chain() {
        // Tridiagonal [2,-1] chain, b = e_0: classic SPD test.
        let n = 50;
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
                t.push((i + 1, i, -1.0));
            }
        }
        let a = CsrMatrix::from_triplets(n, &t);
        let mut b = vec![0.0; n];
        b[0] = 1.0;
        let (x, _, res) = conjugate_gradient(&a, &b, 1e-12, 10 * n).unwrap();
        assert!(res < 1e-10);
        // Check A x = b.
        let ax = a.mul_vec(&x);
        for i in 0..n {
            assert!((ax[i] - b[i]).abs() < 1e-8, "row {i}");
        }
    }

    #[test]
    fn cg_zero_rhs_returns_zero() {
        let a = CsrMatrix::from_triplets(2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        let (x, it, _) = conjugate_gradient(&a, &[0.0, 0.0], 1e-12, 10).unwrap();
        assert_eq!(x, vec![0.0, 0.0]);
        assert_eq!(it, 0);
    }

    #[test]
    fn cg_detects_indefinite_matrix() {
        let a = CsrMatrix::from_triplets(1, &[(0, 0, -1.0)]);
        assert!(conjugate_gradient(&a, &[1.0], 1e-12, 10).is_err());
    }

    fn laplacian_chain(n: usize) -> CsrMatrix {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
                t.push((i + 1, i, -1.0));
            }
        }
        CsrMatrix::from_triplets(n, &t)
    }

    #[test]
    fn ic0_is_exact_on_a_tridiagonal_matrix() {
        // Tridiagonal matrices have no fill-in, so IC(0) is a complete
        // Cholesky factor and one preconditioner application solves.
        let n = 40;
        let a = laplacian_chain(n);
        let ic = IncompleteCholesky::factor(&a).expect("M-matrix factors");
        let mut b = vec![0.0; n];
        b[0] = 1.0;
        b[n - 1] = -2.0;
        let mut x = vec![0.0; n];
        ic.apply_into(&b, &mut x);
        let ax = a.mul_vec(&x);
        for i in 0..n {
            assert!(
                (ax[i] - b[i]).abs() < 1e-9,
                "row {i}: {} vs {}",
                ax[i],
                b[i]
            );
        }
    }

    #[test]
    fn ic0_pcg_converges_faster_than_jacobi() {
        let n = 200;
        let a = laplacian_chain(n);
        let mut b = vec![0.0; n];
        b[n / 2] = 1.0;
        let (_, it_jacobi, _) =
            preconditioned_cg(&a, &b, 1e-10, 10 * n, &Preconditioner::jacobi(&a)).unwrap();
        let (x, it_ic, _) =
            preconditioned_cg(&a, &b, 1e-10, 10 * n, &Preconditioner::best(&a)).unwrap();
        assert!(
            it_ic < it_jacobi,
            "IC(0) took {it_ic} iterations, Jacobi {it_jacobi}"
        );
        let ax = a.mul_vec(&x);
        for i in 0..n {
            assert!((ax[i] - b[i]).abs() < 1e-7);
        }
    }

    #[test]
    fn ic0_breakdown_falls_back_to_jacobi() {
        // SPD but engineered so the (1,1) IC pivot goes non-positive is
        // hard with no fill; instead feed an indefinite matrix, whose
        // pivot breaks down immediately.
        let a = CsrMatrix::from_triplets(2, &[(0, 0, -1.0), (1, 1, 1.0)]);
        assert!(IncompleteCholesky::factor(&a).is_none());
        assert!(matches!(
            Preconditioner::best(&a),
            Preconditioner::Jacobi(_)
        ));
    }
}
