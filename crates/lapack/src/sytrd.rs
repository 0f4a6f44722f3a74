//! Symmetric tridiagonal reduction (LAPACK `DSYTD2`-style) — the second
//! two-sided factorization the paper's conclusion targets ("the
//! methodology … is generic enough to be applicable to the entire
//! spectrum of two-sided factorizations").
//!
//! Given symmetric `A`, computes `T = QᵀAQ` with `T` symmetric
//! tridiagonal and `Q` a product of `n − 2` Householder reflectors.
//!
//! Storage convention (full-matrix variant): this implementation keeps the
//! whole matrix — not just one triangle — exactly symmetric throughout,
//! because the fault-tolerant wrapper maintains row *and* column checksums
//! over the full storage. After column `i` is reduced:
//!
//! * column `i` holds `d_i` on the diagonal, `e_i` on the sub-diagonal and
//!   the Householder tail below it (LAPACK packing, the `Q` storage the FT
//!   wrapper protects);
//! * row `i` holds `e_i` on the super-diagonal and **explicit zeros**
//!   beyond it (the mathematical values), so checksums over rows need no
//!   masking.

use crate::householder::larfg;
use crate::hseqr::{sign, NoConvergence};
use ft_blas::{dot, gemv, ger, Trans};
use ft_matrix::Matrix;

/// Result of a tridiagonal reduction.
#[derive(Clone, Debug)]
pub struct TridiagFactorization {
    /// Full-storage packed output (see module docs).
    pub packed: Matrix,
    /// Diagonal of `T`, length `n`.
    pub d: Vec<f64>,
    /// Sub-diagonal of `T`, length `n − 1`.
    pub e: Vec<f64>,
    /// Reflector scales, length `max(n − 2, 0)`.
    pub tau: Vec<f64>,
}

impl TridiagFactorization {
    /// The dense tridiagonal factor `T`.
    pub fn t(&self) -> Matrix {
        let n = self.d.len();
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                self.d[i]
            } else if i + 1 == j {
                self.e[i]
            } else if j + 1 == i {
                self.e[j]
            } else {
                0.0
            }
        })
    }

    /// The dense orthogonal factor `Q`, with `A = Q·T·Qᵀ`.
    pub fn q(&self) -> Matrix {
        crate::gehrd::form_q(&self.packed, &self.tau)
    }
}

/// Reduces symmetric `a` to tridiagonal form in place (full-storage
/// unblocked algorithm; see module docs for the storage convention).
///
/// Only symmetry of the input is assumed (and debug-asserted); the strict
/// upper triangle is read as the mirror of the lower.
pub fn sytd2(a: &mut Matrix) -> TridiagFactorization {
    assert!(a.is_square(), "sytd2: matrix must be square");
    let n = a.rows();
    let mut tau = vec![0.0; n.saturating_sub(2)];
    let mut v = vec![0.0; n];
    let mut x = vec![0.0; n];
    for i in 0..n.saturating_sub(2) {
        let m = n - i - 1; // reflector length over rows i+1..n

        // Generate the reflector annihilating A(i+2.., i).
        let alpha = a[(i + 1, i)];
        let mut tail: Vec<f64> = (i + 2..n).map(|r| a[(r, i)]).collect();
        let refl = larfg(alpha, &mut tail);
        tau[i] = refl.tau;
        v[0] = 1.0;
        v[1..m].copy_from_slice(&tail);

        if refl.tau != 0.0 {
            // x = τ·A₂·v over the trailing block (full storage ⇒ plain GEMV).
            gemv(
                Trans::No,
                refl.tau,
                &a.view(i + 1, i + 1, m, m),
                &v[..m],
                0.0,
                &mut x[..m],
            );
            // w = x − (τ/2)(xᵀv)·v
            let coef = -0.5 * refl.tau * dot(&x[..m], &v[..m]);
            for r in 0..m {
                x[r] += coef * v[r];
            }
            // A₂ ← A₂ − v·wᵀ − w·vᵀ (kept exactly symmetric).
            let (vv, ww) = (&v[..m], &x[..m]);
            ger(-1.0, vv, ww, &mut a.view_mut(i + 1, i + 1, m, m));
            ger(-1.0, ww, vv, &mut a.view_mut(i + 1, i + 1, m, m));
        }

        // Pack: β on the sub-diagonal, tail below (Q storage); the
        // mirrored row gets its mathematical values (β then zeros).
        a[(i + 1, i)] = refl.beta;
        for (off, &val) in tail.iter().enumerate() {
            a[(i + 2 + off, i)] = val;
        }
        a[(i, i + 1)] = refl.beta;
        for c in i + 2..n {
            a[(i, c)] = 0.0;
        }
    }
    // Mirror the final sub-diagonal for exactness.
    if n >= 2 {
        let b = a[(n - 1, n - 2)];
        a[(n - 2, n - 1)] = b;
    }
    TridiagFactorization {
        packed: a.clone(),
        d: (0..n).map(|i| a[(i, i)]).collect(),
        e: (1..n).map(|i| a[(i, i - 1)]).collect(),
        tau,
    }
}

/// Eigenvalues of a symmetric tridiagonal matrix by the implicit QL
/// method with Wilkinson shifts (EISPACK `TQL1` / LAPACK `DSTERF`
/// organization). Eigenvalues only, returned in ascending order.
pub fn steqr_eigenvalues(d: &[f64], e: &[f64]) -> Result<Vec<f64>, NoConvergence> {
    let n = d.len();
    if n == 0 {
        return Ok(vec![]);
    }
    assert_eq!(e.len(), n.saturating_sub(1), "steqr: e length");
    let mut d = d.to_vec();
    ql_implicit(&mut d, e, None)?;
    d.sort_by(|a, b| a.total_cmp(b));
    Ok(d)
}

/// Eigenvalues **and eigenvectors** of a symmetric tridiagonal matrix by
/// the implicit QL method with accumulated rotations (EISPACK `TQL2` /
/// LAPACK `DSTEQR` job `'V'`).
///
/// `z0` seeds the accumulation: pass the `Q` of a [`sytd2`] reduction to obtain the eigenvectors of the *original* symmetric
/// matrix directly (`A = Z·Λ·Zᵀ`); `None` uses the identity (vectors of
/// the tridiagonal matrix itself). Returns `(λ ascending, Z)` with
/// eigenvector `k` in column `k`.
pub fn steqr_full(
    d: &[f64],
    e: &[f64],
    z0: Option<Matrix>,
) -> Result<(Vec<f64>, Matrix), NoConvergence> {
    let n = d.len();
    let mut z = z0.unwrap_or_else(|| Matrix::identity(n));
    assert_eq!(z.cols(), n, "steqr_full: Z must have n columns");
    if n == 0 {
        return Ok((vec![], z));
    }
    assert_eq!(e.len(), n.saturating_sub(1), "steqr_full: e length");
    let mut d = d.to_vec();
    ql_implicit(&mut d, e, Some(&mut z))?;

    // Sort eigenvalues ascending, permuting the vectors alongside
    // (selection sort, as DSTEQR does).
    for i in 0..n {
        let mut kmin = i;
        for j in i + 1..n {
            if d[j] < d[kmin] {
                kmin = j;
            }
        }
        if kmin != i {
            d.swap(i, kmin);
            z.swap_cols(i, kmin);
        }
    }
    Ok((d, z))
}

/// The implicit QL iteration shared by [`steqr_eigenvalues`] and
/// [`steqr_full`]: diagonalizes the tridiagonal `(d, e)`, leaving the
/// unsorted eigenvalues in `d`, and applies every rotation to the columns
/// of `z` when one is given.
fn ql_implicit(d: &mut [f64], e: &[f64], mut z: Option<&mut Matrix>) -> Result<(), NoConvergence> {
    let n = d.len();
    // Working sub-diagonal with a trailing zero sentinel.
    let mut e: Vec<f64> = e.iter().copied().chain(std::iter::once(0.0)).collect();

    for l in 0..n {
        let mut its = 0;
        loop {
            // Find a negligible sub-diagonal element.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break; // d[l] converged
            }
            if its == 60 {
                return Err(NoConvergence { index: l });
            }
            its += 1;
            // Wilkinson shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + sign(r, g));
            let (mut s, mut c) = (1.0f64, 1.0f64);
            let mut p = 0.0f64;
            // Implicit QL sweep from m−1 down to l; `underflow` records an
            // early exit on a vanishing rotation denominator.
            let mut underflow = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Accumulate the rotation into Z (columns i, i+1).
                if let Some(z) = z.as_deref_mut() {
                    for k in 0..z.rows() {
                        let f = z[(k, i + 1)];
                        z[(k, i + 1)] = s * z[(k, i)] + c * f;
                        z[(k, i)] = c * z[(k, i)] - s * f;
                    }
                }
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verify(a0: &Matrix, f: &TridiagFactorization, tol: f64) {
        let n = a0.rows();
        let t = f.t();
        let q = f.q();
        // Q orthogonal.
        let mut qqt = Matrix::identity(n);
        ft_blas::gemm(
            Trans::No,
            Trans::Yes,
            1.0,
            &q.as_view(),
            &q.as_view(),
            -1.0,
            &mut qqt.as_view_mut(),
        );
        assert!(qqt.max_abs() < tol, "QQᵀ−I = {}", qqt.max_abs());
        // A = Q T Qᵀ.
        let mut qt = Matrix::zeros(n, n);
        ft_blas::gemm(
            Trans::No,
            Trans::No,
            1.0,
            &q.as_view(),
            &t.as_view(),
            0.0,
            &mut qt.as_view_mut(),
        );
        let mut res = a0.clone();
        ft_blas::gemm(
            Trans::No,
            Trans::Yes,
            -1.0,
            &qt.as_view(),
            &q.as_view(),
            1.0,
            &mut res.as_view_mut(),
        );
        assert!(
            res.max_abs() < tol * a0.max_abs().max(1.0),
            "A − QTQᵀ = {}",
            res.max_abs()
        );
    }

    #[test]
    fn reduces_random_symmetric() {
        for &n in &[3usize, 5, 8, 17, 40] {
            let a0 = ft_matrix::random::symmetric(n, n as u64);
            let mut a = a0.clone();
            let f = sytd2(&mut a);
            verify(&a0, &f, 1e-12 * n as f64);
        }
    }

    #[test]
    fn output_rows_are_mathematically_tridiagonal() {
        let a0 = ft_matrix::random::symmetric(12, 3);
        let mut a = a0.clone();
        let f = sytd2(&mut a);
        // Rows above the band hold explicit zeros (full-storage packing).
        for i in 0..12 {
            for j in i + 2..12 {
                assert_eq!(f.packed[(i, j)], 0.0, "({i},{j}) not zeroed");
            }
        }
    }

    #[test]
    fn tridiagonal_input_is_fixed_point() {
        // A matrix that is already tridiagonal reduces to itself.
        let n = 10;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = (i + 1) as f64;
            if i + 1 < n {
                a[(i + 1, i)] = 0.5;
                a[(i, i + 1)] = 0.5;
            }
        }
        let a0 = a.clone();
        let f = sytd2(&mut a);
        for i in 0..n {
            assert!((f.d[i] - a0[(i, i)]).abs() < 1e-14);
        }
        for i in 0..n - 1 {
            assert!((f.e[i].abs() - 0.5).abs() < 1e-13, "e[{i}] = {}", f.e[i]);
        }
    }

    #[test]
    fn steqr_known_spectrum() {
        // T = tridiag(-1, 2, -1) has eigenvalues 2 − 2cos(kπ/(n+1)).
        let n = 12;
        let d = vec![2.0; n];
        let e = vec![-1.0; n - 1];
        let evs = steqr_eigenvalues(&d, &e).unwrap();
        for (k, &ev) in evs.iter().enumerate() {
            let expect =
                2.0 - 2.0 * ((k + 1) as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos();
            assert!((ev - expect).abs() < 1e-12, "λ{k}: {ev} vs {expect}");
        }
    }

    #[test]
    fn full_symmetric_eig_pipeline() {
        // sytd2 + steqr recovers the spectrum of a random symmetric matrix
        // (validated against the trace/Frobenius invariants).
        let n = 24;
        let a0 = ft_matrix::random::symmetric(n, 77);
        let mut a = a0.clone();
        let f = sytd2(&mut a);
        let evs = steqr_eigenvalues(&f.d, &f.e).unwrap();
        let tr: f64 = evs.iter().sum();
        let tr0: f64 = (0..n).map(|i| a0[(i, i)]).sum();
        assert!((tr - tr0).abs() < 1e-11, "{tr} vs {tr0}");
        let fro2: f64 = evs.iter().map(|v| v * v).sum();
        let fro0 = a0.fro_norm().powi(2);
        assert!(
            (fro2 - fro0).abs() < 1e-10 * fro0.max(1.0),
            "{fro2} vs {fro0}"
        );
    }

    #[test]
    fn steqr_full_eigendecomposition() {
        // Full symmetric eigendecomposition: A = Z·Λ·Zᵀ through
        // sytd2 + steqr_full seeded with Q.
        let n = 32;
        let a0 = ft_matrix::random::symmetric(n, 55);
        let mut a = a0.clone();
        let f = sytd2(&mut a);
        let (lambda, z) = steqr_full(&f.d, &f.e, Some(f.q())).unwrap();
        assert!(lambda.windows(2).all(|w| w[0] <= w[1]), "ascending order");
        // A z_k = λ_k z_k for every k.
        for (kcol, &lk) in lambda.iter().enumerate() {
            let v: Vec<f64> = z.col(kcol).to_vec();
            let mut av = vec![0.0; n];
            gemv(Trans::No, 1.0, &a0.as_view(), &v, 0.0, &mut av);
            for i in 0..n {
                assert!(
                    (av[i] - lk * v[i]).abs() < 1e-10,
                    "k={kcol} λ={lk}: residual {}",
                    (av[i] - lk * v[i]).abs()
                );
            }
        }
        // Z orthogonal.
        let mut ztz = Matrix::identity(n);
        ft_blas::gemm(
            Trans::Yes,
            Trans::No,
            1.0,
            &z.as_view(),
            &z.as_view(),
            -1.0,
            &mut ztz.as_view_mut(),
        );
        assert!(ztz.max_abs() < 1e-12, "ZᵀZ − I = {}", ztz.max_abs());
        // Eigenvalues agree with the eigenvalues-only path.
        let evs = steqr_eigenvalues(&f.d, &f.e).unwrap();
        for (x, y) in lambda.iter().zip(&evs) {
            assert!((x - y).abs() < 1e-11);
        }
    }

    #[test]
    fn tiny_matrices() {
        for n in 0..3 {
            let a0 = ft_matrix::random::symmetric(n.max(1), 5).sub_matrix(0, 0, n, n);
            let mut a = a0.clone();
            let f = sytd2(&mut a);
            assert_eq!(f.d.len(), n);
            assert!(f.tau.is_empty());
        }
    }
}
