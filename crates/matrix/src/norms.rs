//! Matrix norms and reductions used by the paper's residual metrics.
//!
//! The paper reports two normalized residuals, both built on the 1-norm:
//! `‖A − QHQᵀ‖₁ / (N·‖A‖₁)` (Table II) and `‖QQᵀ − I‖₁ / N` (Table III).
//!
//! The max-based norms propagate NaN, as LAPACK's `dlange` does: a
//! residual over a factorization that holds a NaN is NaN, never a
//! passing number.

use crate::view::MatView;
use crate::Matrix;

/// The larger of `best` and `v`, NaN if either is NaN (`dlange`'s
/// `value < temp .or. disnan(temp)` rule; `f64::max` drops NaN instead).
pub fn nan_max(best: f64, v: f64) -> f64 {
    if best < v || v.is_nan() {
        v
    } else {
        best
    }
}

/// 1-norm: the maximum absolute column sum.
pub fn one_norm(a: &MatView<'_>) -> f64 {
    (0..a.cols())
        .map(|j| a.col(j).iter().map(|v| v.abs()).sum::<f64>())
        .fold(0.0, nan_max)
}

/// Infinity norm: the maximum absolute row sum.
pub fn inf_norm(a: &MatView<'_>) -> f64 {
    let mut sums = vec![0.0f64; a.rows()];
    for j in 0..a.cols() {
        for (i, v) in a.col(j).iter().enumerate() {
            sums[i] += v.abs();
        }
    }
    sums.into_iter().fold(0.0, nan_max)
}

/// Frobenius norm with overflow-safe scaling (LAPACK `dlange('F')` style).
pub fn fro_norm(a: &MatView<'_>) -> f64 {
    let mut scale = 0.0f64;
    let mut ssq = 1.0f64;
    for j in 0..a.cols() {
        for &v in a.col(j) {
            if v != 0.0 {
                let absv = v.abs();
                if scale < absv {
                    ssq = 1.0 + ssq * (scale / absv).powi(2);
                    scale = absv;
                } else {
                    ssq += (absv / scale).powi(2);
                }
            }
        }
    }
    scale * ssq.sqrt()
}

/// The largest absolute element.
pub fn max_abs(a: &MatView<'_>) -> f64 {
    (0..a.cols())
        .flat_map(|j| a.col(j).iter().map(|v| v.abs()))
        .fold(0.0, nan_max)
}

/// The sum of all elements (not absolute values). This is the quantity the
/// checksum aggregates `Sre`/`Sce` of the paper both estimate.
pub fn grand_sum(a: &MatView<'_>) -> f64 {
    let mut s = 0.0f64;
    for j in 0..a.cols() {
        s += a.col(j).iter().sum::<f64>();
    }
    s
}

/// Convenience overloads on owned matrices.
impl Matrix {
    /// See [`one_norm`].
    pub fn one_norm(&self) -> f64 {
        one_norm(&self.as_view())
    }

    /// See [`inf_norm`].
    pub fn inf_norm(&self) -> f64 {
        inf_norm(&self.as_view())
    }

    /// See [`fro_norm`].
    pub fn fro_norm(&self) -> f64 {
        fro_norm(&self.as_view())
    }

    /// See [`max_abs`].
    pub fn max_abs(&self) -> f64 {
        max_abs(&self.as_view())
    }

    /// See [`grand_sum`].
    pub fn grand_sum(&self) -> f64 {
        grand_sum(&self.as_view())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms_of_known_matrix() {
        // a = [1 -2; 3 4]
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]);
        assert_eq!(a.one_norm(), 6.0); // max(|1|+|3|, |2|+|4|)
        assert_eq!(a.inf_norm(), 7.0); // max(|1|+|2|, |3|+|4|)
        assert!((a.fro_norm() - 30.0f64.sqrt()).abs() < 1e-14);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.grand_sum(), 6.0);
    }

    #[test]
    fn norms_on_subviews() {
        let a = Matrix::from_rows(&[&[9.0, 9.0, 9.0], &[9.0, 1.0, -2.0], &[9.0, 3.0, 4.0]]);
        let v = a.view(1, 1, 2, 2);
        assert_eq!(one_norm(&v), 6.0);
        assert_eq!(inf_norm(&v), 7.0);
    }

    #[test]
    fn empty_matrix_norms_are_zero() {
        let a = Matrix::zeros(0, 0);
        assert_eq!(a.one_norm(), 0.0);
        assert_eq!(a.inf_norm(), 0.0);
        assert_eq!(a.fro_norm(), 0.0);
        assert_eq!(a.grand_sum(), 0.0);
    }

    #[test]
    fn max_norms_propagate_nan() {
        // A NaN anywhere — first, middle or last — makes the norm NaN.
        for at in [(0, 0), (1, 2), (2, 1)] {
            let mut a =
                Matrix::from_rows(&[&[1.0, -2.0, 3.0], &[4.0, 5.0, -6.0], &[7.0, 8.0, 9.0]]);
            a[at] = f64::NAN;
            assert!(a.one_norm().is_nan(), "one_norm, NaN at {at:?}");
            assert!(a.inf_norm().is_nan(), "inf_norm, NaN at {at:?}");
            assert!(a.max_abs().is_nan(), "max_abs, NaN at {at:?}");
        }
        assert!(nan_max(f64::NAN, 1.0).is_nan());
        assert!(nan_max(1.0, f64::NAN).is_nan());
        assert_eq!(nan_max(1.0, 2.0), 2.0);
        assert_eq!(nan_max(2.0, 1.0), 2.0);
    }

    #[test]
    fn fro_norm_scaling_is_overflow_safe() {
        let big = 1e200;
        let a = Matrix::filled(2, 2, big);
        let expected = big * 2.0; // sqrt(4 * big^2)
        assert!((a.fro_norm() - expected).abs() / expected < 1e-14);
    }

    #[test]
    fn identity_norms() {
        let i = Matrix::identity(5);
        assert_eq!(i.one_norm(), 1.0);
        assert_eq!(i.inf_norm(), 1.0);
        assert!((i.fro_norm() - 5.0f64.sqrt()).abs() < 1e-14);
        assert_eq!(i.grand_sum(), 5.0);
    }
}
