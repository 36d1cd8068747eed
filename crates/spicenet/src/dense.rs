//! Dense LU with partial pivoting — the fallback path for full MNA systems
//! (voltage sources between arbitrary nodes) and a cross-check for the
//! sparse iterative path in tests.

/// Solves `A·x = b` in place via LU with partial pivoting.
///
/// `a` is row-major `n`×`n`. Returns `None` when a pivot underflows
/// (singular matrix).
pub(crate) fn lu_solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    debug_assert!(a.len() == n && a.iter().all(|r| r.len() == n));
    const PIVOT_EPS: f64 = 1e-13;
    for col in 0..n {
        // Partial pivot.
        let (pivot_row, pivot_mag) = (col..n)
            .map(|r| (r, a[r][col].abs()))
            .max_by(|x, y| x.1.total_cmp(&y.1))?;
        if pivot_mag < PIVOT_EPS {
            return None;
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        let pivot = a[col][col];
        for r in col + 1..n {
            let factor = a[r][col] / pivot;
            if crate::exact_zero(factor) {
                continue;
            }
            let (upper_rows, lower_rows) = a.split_at_mut(r);
            for (elim, upper) in lower_rows[0][col..].iter_mut().zip(&upper_rows[col][col..]) {
                *elim -= factor * upper;
            }
            b[r] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for r in (0..n).rev() {
        let mut acc = b[r];
        for c in r + 1..n {
            acc -= a[r][c] * x[c];
        }
        x[r] = acc / a[r][r];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_small_system() {
        // x + y = 3; x - y = 1  →  x = 2, y = 1.
        let a = vec![vec![1.0, 1.0], vec![1.0, -1.0]];
        let x = lu_solve(a, vec![3.0, 1.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let x = lu_solve(a, vec![5.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(lu_solve(a, vec![1.0, 2.0]).is_none());
    }
}
