//! Verification metrics: the residuals reported in Tables II and III of
//! the paper, plus a combined check used by tests and examples.

use ft_matrix::Matrix;

pub use ft_lapack::gehrd::{factorization_residual, orthogonality_residual};

/// All the quality numbers for one factorization.
#[derive(Clone, Copy, Debug)]
pub struct ResidualReport {
    /// `‖A − QHQᵀ‖₁ / (N·‖A‖₁)` (Table II).
    pub factorization: f64,
    /// `‖QQᵀ − I‖₁ / N` (Table III).
    pub orthogonality: f64,
    /// Largest absolute entry below the first sub-diagonal of `H`
    /// (must be exactly zero by construction).
    pub hessenberg_defect: f64,
}

impl ResidualReport {
    /// Computes the report from the original matrix and the factors. A
    /// NaN anywhere in the factors makes the affected numbers NaN.
    pub fn compute(a0: &Matrix, q: &Matrix, h: &Matrix) -> Self {
        let n = h.rows();
        let defect = (0..n)
            .flat_map(|j| (j + 2..n).map(move |i| h[(i, j)].abs()))
            .fold(0.0, ft_matrix::nan_max);
        ResidualReport {
            factorization: factorization_residual(a0, q, h),
            orthogonality: orthogonality_residual(q),
            hessenberg_defect: defect,
        }
    }

    /// `true` when both residuals are below `tol` and `H` is exactly
    /// Hessenberg.
    pub fn acceptable(&self, tol: f64) -> bool {
        self.factorization < tol && self.orthogonality < tol && self.hessenberg_defect == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_lapack::{gehrd, GehrdConfig, HessFactorization};

    #[test]
    fn clean_factorization_reports_small_residuals() {
        let n = 48;
        let a = ft_matrix::random::uniform(n, n, 71);
        let mut packed = a.clone();
        let tau = gehrd(&mut packed, &GehrdConfig { nb: 8, nx: 2 });
        let f = HessFactorization { packed, tau };
        let r = ResidualReport::compute(&a, &f.q(), &f.h());
        assert!(r.acceptable(1e-14), "{r:?}");
    }

    #[test]
    fn nan_in_packed_storage_is_not_acceptable() {
        // One NaN in the H part, then one in the reflector (Q) storage.
        let n = 32;
        let a = ft_matrix::random::uniform(n, n, 73);
        let mut packed = a.clone();
        let tau = gehrd(&mut packed, &GehrdConfig::default());
        for at in [(3, 7), (20, 5)] {
            let mut f = HessFactorization {
                packed: packed.clone(),
                tau: tau.clone(),
            };
            f.packed[at] = f64::NAN;
            let r = ResidualReport::compute(&a, &f.q(), &f.h());
            assert!(r.factorization.is_nan(), "NaN at {at:?}: {r:?}");
            assert!(!r.acceptable(1e-11), "NaN at {at:?}: {r:?}");
        }
        // A NaN below the sub-diagonal of H is a NaN defect.
        let f = HessFactorization { packed, tau };
        let mut h = f.h();
        h[(9, 2)] = f64::NAN;
        let r = ResidualReport::compute(&a, &f.q(), &h);
        assert!(r.hessenberg_defect.is_nan(), "{r:?}");
    }

    #[test]
    fn corrupted_h_reports_large_residual() {
        let n = 32;
        let a = ft_matrix::random::uniform(n, n, 72);
        let mut packed = a.clone();
        let tau = gehrd(&mut packed, &GehrdConfig::default());
        let f = HessFactorization { packed, tau };
        let q = f.q();
        let mut h = f.h();
        h[(3, 7)] += 1.0;
        let r = ResidualReport::compute(&a, &q, &h);
        assert!(r.factorization > 1e-6, "{r:?}");
        assert!(!r.acceptable(1e-14));
    }
}
