//! Real Schur decomposition of an upper Hessenberg matrix with
//! accumulated Schur vectors (LAPACK `DHSEQR` job `'S'`, run by the Francis
//! QR iteration `lahqr` it shares with [`crate::eigenvalues_hessenberg`]),
//! plus eigenvector extraction for real eigenvalues.
//!
//! `H = Z·T·Zᵀ` with `Z` orthogonal and `T` quasi-upper-triangular
//! (1×1 blocks for real eigenvalues, 2×2 blocks for complex pairs).
//! Combined with the Hessenberg reduction `A = Q·H·Qᵀ` this yields the
//! full similarity `A = (QZ)·T·(QZ)ᵀ` — the complete dense nonsymmetric
//! eigensolver pipeline the paper's introduction motivates.

use crate::hseqr::{lahqr, Eigenvalue, NoConvergence};
use ft_matrix::Matrix;

/// Result of the Schur decomposition.
#[derive(Clone, Debug)]
pub struct SchurDecomposition {
    /// Quasi-upper-triangular real Schur factor.
    pub t: Matrix,
    /// Orthogonal Schur vectors (`H = Z·T·Zᵀ`).
    pub z: Matrix,
    /// Eigenvalues in deflation order (complex pairs adjacent).
    pub eigenvalues: Vec<Eigenvalue>,
}

/// Computes the real Schur form of the upper Hessenberg matrix `h`,
/// accumulating the transformations into `Z` (initialized to `z0`, or the
/// identity if `None` — pass the `Q` of a Hessenberg reduction to obtain
/// the Schur vectors of the original matrix directly).
pub fn real_schur(h: &Matrix, z0: Option<Matrix>) -> Result<SchurDecomposition, NoConvergence> {
    assert!(h.is_square(), "real_schur: matrix must be square");
    let n = h.rows();
    let mut z = z0.unwrap_or_else(|| Matrix::identity(n));
    assert_eq!(z.rows(), n, "real_schur: Z shape");
    assert_eq!(z.cols(), n, "real_schur: Z shape");
    let mut t = h.clone();
    let eigenvalues = lahqr(&mut t, Some(&mut z))?;
    Ok(SchurDecomposition { t, z, eigenvalues })
}

impl SchurDecomposition {
    /// `true` iff `T` is quasi-upper-triangular: zero below the first
    /// sub-diagonal and no two consecutive non-zero sub-diagonal entries.
    pub fn t_is_quasi_triangular(&self, tol: f64) -> bool {
        let n = self.t.rows();
        for j in 0..n {
            for i in j + 2..n {
                if self.t[(i, j)].abs() > tol {
                    return false;
                }
            }
        }
        let mut prev = false;
        for i in 1..n {
            let nz = self.t[(i, i - 1)].abs() > tol;
            if nz && prev {
                return false;
            }
            prev = nz;
        }
        true
    }

    /// Right eigenvectors for the **real** eigenvalues, as columns of an
    /// `n × k` matrix paired with their eigenvalues: solves
    /// `(T − λI)·y = 0` by back-substitution and maps through `Z`.
    ///
    /// Complex pairs are skipped (their invariant subspace is spanned by
    /// the corresponding two Schur vector columns).
    pub fn real_eigenvectors(&self) -> (Vec<f64>, Matrix) {
        let n = self.t.rows();
        let t = &self.t;
        let mut lambdas = vec![];
        let mut cols: Vec<Vec<f64>> = vec![];
        let small = f64::EPSILON * self.t.one_norm().max(1.0);

        for k in 0..n {
            let ev = self.eigenvalues[k];
            if !ev.is_real() {
                continue;
            }
            let lambda = ev.re;
            // Back-substitute y over rows k−1..0, with y[k] = 1. Walking
            // upward, a 2×2 block is met at its *second* row
            // (`t[i, i−1] ≠ 0`), in which case rows i−1 and i are solved
            // jointly.
            let mut y = vec![0.0; n];
            y[k] = 1.0;
            let mut row = k as isize - 1;
            while row >= 0 {
                let i = row as usize;
                let second_of_block = i > 0 && t[(i, i - 1)].abs() > small;
                if second_of_block {
                    let p = i - 1;
                    // Solve the 2×2 system for (y[p], y[p+1]).
                    let a11 = t[(p, p)] - lambda;
                    let a12 = t[(p, p + 1)];
                    let a21 = t[(p + 1, p)];
                    let a22 = t[(p + 1, p + 1)] - lambda;
                    let mut b1 = 0.0;
                    let mut b2 = 0.0;
                    for j in p + 2..=k {
                        b1 -= t[(p, j)] * y[j];
                        b2 -= t[(p + 1, j)] * y[j];
                    }
                    let det = a11 * a22 - a12 * a21;
                    let det = if det.abs() < small * small {
                        small * small
                    } else {
                        det
                    };
                    y[p] = (b1 * a22 - a12 * b2) / det;
                    y[p + 1] = (a11 * b2 - b1 * a21) / det;
                    row -= 2;
                } else {
                    let mut b = 0.0;
                    for j in i + 1..=k {
                        b -= t[(i, j)] * y[j];
                    }
                    let mut d = t[(i, i)] - lambda;
                    if d.abs() < small {
                        d = small; // perturb to avoid division blow-up
                    }
                    y[i] = b / d;
                    row -= 1;
                }
            }
            // v = Z·y, normalized.
            let mut v = vec![0.0; n];
            ft_blas::gemv(ft_blas::Trans::No, 1.0, &self.z.as_view(), &y, 0.0, &mut v);
            let norm = ft_blas::nrm2(&v);
            if norm > 0.0 {
                for x in &mut v {
                    *x /= norm;
                }
            }
            lambdas.push(lambda);
            cols.push(v);
        }

        let k = cols.len();
        let mut m = Matrix::zeros(n, k);
        for (j, col) in cols.iter().enumerate() {
            m.col_mut(j).copy_from_slice(col);
        }
        (lambdas, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hseqr::eigenvalues_hessenberg;
    use ft_blas::Trans;

    fn check_schur(h: &Matrix, tol: f64) -> SchurDecomposition {
        let n = h.rows();
        let s = real_schur(h, None).unwrap();
        assert!(
            s.t_is_quasi_triangular(1e-10 * (1.0 + h.max_abs())),
            "T not quasi-triangular"
        );
        // Z orthogonal.
        let mut zzt = Matrix::identity(n);
        ft_blas::gemm(
            Trans::No,
            Trans::Yes,
            1.0,
            &s.z.as_view(),
            &s.z.as_view(),
            -1.0,
            &mut zzt.as_view_mut(),
        );
        assert!(zzt.max_abs() < tol, "ZZᵀ − I = {}", zzt.max_abs());
        // H = Z T Zᵀ.
        let mut zt = Matrix::zeros(n, n);
        ft_blas::gemm(
            Trans::No,
            Trans::No,
            1.0,
            &s.z.as_view(),
            &s.t.as_view(),
            0.0,
            &mut zt.as_view_mut(),
        );
        let mut res = h.clone();
        ft_blas::gemm(
            Trans::No,
            Trans::Yes,
            -1.0,
            &zt.as_view(),
            &s.z.as_view(),
            1.0,
            &mut res.as_view_mut(),
        );
        assert!(
            res.max_abs() < tol * h.max_abs().max(1.0),
            "H − ZTZᵀ = {}",
            res.max_abs()
        );
        s
    }

    #[test]
    fn schur_of_random_hessenberg() {
        // (5, 67) and (80, 80) take an exceptional shift.
        for (n, seed) in [
            (2usize, 3u64),
            (5, 6),
            (12, 13),
            (30, 31),
            (60, 61),
            (5, 67),
            (80, 80),
        ] {
            let h = ft_matrix::random::hessenberg(n, seed);
            let s = check_schur(&h, 1e-11 * n as f64);
            // Both entry points run one iteration: the eigenvalues agree
            // bit for bit, in deflation order.
            let e = eigenvalues_hessenberg(&h).unwrap();
            let bits = |v: &[Eigenvalue]| {
                v.iter()
                    .map(|e| (e.re.to_bits(), e.im.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&s.eigenvalues), bits(&e), "n = {n}, seed = {seed}");
        }
    }

    #[test]
    fn schur_diagonal_matches_real_eigenvalues() {
        let h = ft_matrix::random::hessenberg(24, 3);
        let s = real_schur(&h, None).unwrap();
        // Every real eigenvalue appears on T's diagonal.
        let tol = 1e-8;
        for (k, ev) in s.eigenvalues.iter().enumerate() {
            if ev.is_real() {
                assert!(
                    (s.t[(k, k)] - ev.re).abs() < tol,
                    "T[{k},{k}] = {} vs λ = {}",
                    s.t[(k, k)],
                    ev.re
                );
            }
        }
    }

    #[test]
    fn schur_with_initial_q_gives_full_similarity() {
        // A = Q H Qᵀ, then H = Z' T Z'ᵀ with Z seeded by Q ⇒ A = Z T Zᵀ.
        let n = 20;
        let a0 = ft_matrix::random::uniform(n, n, 9);
        let mut packed = a0.clone();
        let tau = crate::gehrd(&mut packed, &crate::GehrdConfig::default());
        let f = crate::HessFactorization { packed, tau };
        let s = real_schur(&f.h(), Some(f.q())).unwrap();
        let mut zt = Matrix::zeros(n, n);
        ft_blas::gemm(
            Trans::No,
            Trans::No,
            1.0,
            &s.z.as_view(),
            &s.t.as_view(),
            0.0,
            &mut zt.as_view_mut(),
        );
        let mut res = a0.clone();
        ft_blas::gemm(
            Trans::No,
            Trans::Yes,
            -1.0,
            &zt.as_view(),
            &s.z.as_view(),
            1.0,
            &mut res.as_view_mut(),
        );
        assert!(res.max_abs() < 1e-11, "A − ZTZᵀ = {}", res.max_abs());
    }

    #[test]
    fn real_eigenvectors_satisfy_defining_equation() {
        // Symmetric ⇒ all eigenvalues real; check A v = λ v through the
        // whole pipeline.
        let n = 16;
        let a0 = ft_matrix::random::symmetric(n, 11);
        let mut packed = a0.clone();
        let tau = crate::gehrd(&mut packed, &crate::GehrdConfig::default());
        let f = crate::HessFactorization { packed, tau };
        let s = real_schur(&f.h(), Some(f.q())).unwrap();
        let (lambdas, v) = s.real_eigenvectors();
        assert_eq!(lambdas.len(), n, "symmetric matrix: all eigenvalues real");
        for (j, &lambda) in lambdas.iter().enumerate() {
            let vj: Vec<f64> = v.col(j).to_vec();
            let mut av = vec![0.0; n];
            ft_blas::gemv(Trans::No, 1.0, &a0.as_view(), &vj, 0.0, &mut av);
            for i in 0..n {
                assert!(
                    (av[i] - lambda * vj[i]).abs() < 1e-9,
                    "λ = {lambda}: residual {} at {i}",
                    (av[i] - lambda * vj[i]).abs()
                );
            }
        }
    }

    #[test]
    fn complex_pairs_left_as_blocks() {
        // Rotation-like matrix: one complex pair, one real eigenvalue.
        let h = Matrix::from_rows(&[&[0.5, -1.0, 0.3], &[1.0, 0.5, -0.2], &[0.0, 0.0, 2.0]]);
        let s = check_schur(&h, 1e-12);
        let pairs = s.eigenvalues.iter().filter(|e| !e.is_real()).count();
        assert_eq!(pairs, 2, "one conjugate pair expected");
        let (lambdas, _v) = s.real_eigenvectors();
        assert_eq!(lambdas.len(), 1);
        assert!((lambdas[0] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn empty_and_single() {
        let s = real_schur(&Matrix::zeros(0, 0), None).unwrap();
        assert!(s.eigenvalues.is_empty());
        let s = real_schur(&Matrix::from_rows(&[&[7.5]]), None).unwrap();
        assert_eq!(s.eigenvalues[0], Eigenvalue::real(7.5));
        assert_eq!(s.t[(0, 0)], 7.5);
    }
}
