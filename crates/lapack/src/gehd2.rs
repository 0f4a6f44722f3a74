//! Unblocked Hessenberg reduction (LAPACK `DGEHD2`, paper §III-A).
//!
//! Applies `n − 2` elementary similarity transformations
//! `H = Q₁ᵀ⋯Qₙᵀ · A · Q₁⋯Qₙ`, where `Q_i` annihilates column `i` below the
//! first sub-diagonal. Memory-latency bound (level-2 BLAS only); serves as
//! the correctness oracle for the blocked and hybrid variants.

use ft_matrix::Matrix;

/// Reduces `a` to upper Hessenberg form in place.
///
/// On return, the upper triangle and first sub-diagonal of `a` hold `H`;
/// column `j` below the sub-diagonal holds the tail of the Householder
/// vector `v_j` (implicit leading 1 at row `j + 1`). Returns the reflector
/// scales `tau` (length `n.saturating_sub(2)`).
pub fn gehd2(a: &mut Matrix) -> Vec<f64> {
    assert!(a.is_square(), "gehd2: matrix must be square");
    let n = a.rows();
    if n < 3 {
        return vec![];
    }
    let mut tau = vec![0.0; n - 2];
    crate::gehrd::unblocked_tail(a, 0, &mut tau);
    tau
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gehrd::{extract_h, form_q};
    use ft_blas::Trans;
    use ft_matrix::{assert_matrix_eq, Matrix};

    fn verify_reduction(a0: &Matrix, a: &Matrix, tau: &[f64], tol: f64) {
        let n = a0.rows();
        let h = extract_h(a);
        assert!(h.is_upper_hessenberg(), "H not Hessenberg");
        let q = form_q(a, tau);

        // Q orthogonal
        let mut qqt = Matrix::zeros(n, n);
        ft_blas::gemm(
            Trans::No,
            Trans::Yes,
            1.0,
            &q.as_view(),
            &q.as_view(),
            0.0,
            &mut qqt.as_view_mut(),
        );
        assert_matrix_eq(&qqt, &Matrix::identity(n), tol, "QQᵀ = I");

        // A = Q·H·Qᵀ
        let mut qh = Matrix::zeros(n, n);
        ft_blas::gemm(
            Trans::No,
            Trans::No,
            1.0,
            &q.as_view(),
            &h.as_view(),
            0.0,
            &mut qh.as_view_mut(),
        );
        let mut qhqt = Matrix::zeros(n, n);
        ft_blas::gemm(
            Trans::No,
            Trans::Yes,
            1.0,
            &qh.as_view(),
            &q.as_view(),
            0.0,
            &mut qhqt.as_view_mut(),
        );
        assert_matrix_eq(&qhqt, a0, tol * a0.max_abs().max(1.0), "A = QHQᵀ");
    }

    #[test]
    fn reduces_random_matrices() {
        for &n in &[3usize, 4, 5, 8, 13, 32] {
            let a0 = ft_matrix::random::uniform(n, n, n as u64);
            let mut a = a0.clone();
            let tau = gehd2(&mut a);
            assert_eq!(tau.len(), n - 2);
            verify_reduction(&a0, &a, &tau, 1e-12 * n as f64);
        }
    }

    #[test]
    fn small_matrices_are_noops() {
        for n in 0..3 {
            let a0 = ft_matrix::random::uniform(n, n, 100 + n as u64);
            let mut a = a0.clone();
            let tau = gehd2(&mut a);
            assert!(tau.is_empty());
            assert_eq!(a, a0);
        }
    }

    #[test]
    fn already_hessenberg_stays_hessenberg() {
        let a0 = ft_matrix::random::hessenberg(10, 3);
        let mut a = a0.clone();
        let tau = gehd2(&mut a);
        verify_reduction(&a0, &a, &tau, 1e-11);
        let h = extract_h(&a);
        // The reduction of a Hessenberg matrix is itself (reflectors are
        // all near-identity up to sign conventions); at minimum the
        // Hessenberg profile is preserved exactly.
        assert!(h.is_upper_hessenberg());
    }

    #[test]
    fn eigen_spectrum_preserved_trace() {
        // Similarity preserves the trace; quick invariant check.
        let n = 12;
        let a0 = ft_matrix::random::uniform(n, n, 77);
        let trace0: f64 = (0..n).map(|i| a0[(i, i)]).sum();
        let mut a = a0.clone();
        let _tau = gehd2(&mut a);
        let h = extract_h(&a);
        let trace1: f64 = (0..n).map(|i| h[(i, i)]).sum();
        assert!((trace0 - trace1).abs() < 1e-12 * n as f64);
    }
}
