//! Real Schur decomposition of an upper Hessenberg matrix with
//! accumulated Schur vectors (EISPACK `HQR2` / LAPACK `DHSEQR` job `'S'`
//! organization), plus eigenvector extraction for real eigenvalues.
//!
//! `H = Z·T·Zᵀ` with `Z` orthogonal and `T` quasi-upper-triangular
//! (1×1 blocks for real eigenvalues, 2×2 blocks for complex pairs).
//! Combined with the Hessenberg reduction `A = Q·H·Qᵀ` this yields the
//! full similarity `A = (QZ)·T·(QZ)ᵀ` — the complete dense nonsymmetric
//! eigensolver pipeline the paper's introduction motivates.

use crate::hseqr::{sign, Eigenvalue, NoConvergence};
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
    let mut a = h.clone();
    // Clear below the sub-diagonal (callers may pass packed storage).
    for j in 0..n {
        for i in j + 2..n {
            a[(i, j)] = 0.0;
        }
    }
    let mut z = z0.unwrap_or_else(|| Matrix::identity(n));
    assert_eq!(z.rows(), n, "real_schur: Z shape");
    assert_eq!(z.cols(), n, "real_schur: Z shape");
    let mut wr = vec![0.0f64; n];
    let mut wi = vec![0.0f64; n];
    if n == 0 {
        return Ok(SchurDecomposition {
            t: a,
            z,
            eigenvalues: vec![],
        });
    }

    let mut anorm = 0.0f64;
    for i in 0..n {
        for j in i.saturating_sub(1)..n {
            anorm += a[(i, j)].abs();
        }
    }
    if anorm == 0.0 {
        return Ok(SchurDecomposition {
            t: a,
            z,
            eigenvalues: vec![Eigenvalue::real(0.0); n],
        });
    }

    let mut nn = n as isize - 1;
    while nn >= 0 {
        let mut its = 0;
        loop {
            let nnu = nn as usize;
            // Deflation scan.
            let mut l = 0usize;
            for ll in (1..=nnu).rev() {
                let mut s = a[(ll - 1, ll - 1)].abs() + a[(ll, ll)].abs();
                if s == 0.0 {
                    s = anorm;
                }
                if a[(ll, ll - 1)].abs() <= f64::EPSILON * s {
                    a[(ll, ll - 1)] = 0.0;
                    l = ll;
                    break;
                }
            }
            let x = a[(nnu, nnu)];
            if l == nnu {
                wr[nnu] = x;
                wi[nnu] = 0.0;
                nn -= 1;
                break;
            }
            let y = a[(nnu - 1, nnu - 1)];
            let w = a[(nnu, nnu - 1)] * a[(nnu - 1, nnu)];
            if l + 1 == nnu {
                // 2×2 block: classify and (for a real pair) rotate it to
                // upper triangular form so T exposes the eigenvalues.
                let p = 0.5 * (y - x);
                let q = p * p + w;
                let mut zz = q.abs().sqrt();
                if q >= 0.0 {
                    zz = p + sign(zz, p);
                    wr[nnu - 1] = x + zz;
                    wr[nnu] = wr[nnu - 1];
                    if zz != 0.0 {
                        wr[nnu] = x - w / zz;
                    }
                    wi[nnu - 1] = 0.0;
                    wi[nnu] = 0.0;
                    // Givens rotation triangularizing the block.
                    let xx = a[(nnu, nnu - 1)];
                    let s = xx.abs() + zz.abs();
                    let mut pp = xx / s;
                    let mut qq = zz / s;
                    let r = (pp * pp + qq * qq).sqrt();
                    pp /= r;
                    qq /= r;
                    // Row modification.
                    for j in nnu - 1..n {
                        let t1 = a[(nnu - 1, j)];
                        a[(nnu - 1, j)] = qq * t1 + pp * a[(nnu, j)];
                        a[(nnu, j)] = qq * a[(nnu, j)] - pp * t1;
                    }
                    // Column modification.
                    for i in 0..=nnu {
                        let t1 = a[(i, nnu - 1)];
                        a[(i, nnu - 1)] = qq * t1 + pp * a[(i, nnu)];
                        a[(i, nnu)] = qq * a[(i, nnu)] - pp * t1;
                    }
                    // Accumulate into Z.
                    for i in 0..n {
                        let t1 = z[(i, nnu - 1)];
                        z[(i, nnu - 1)] = qq * t1 + pp * z[(i, nnu)];
                        z[(i, nnu)] = qq * z[(i, nnu)] - pp * t1;
                    }
                    a[(nnu, nnu - 1)] = 0.0;
                } else {
                    wr[nnu - 1] = x + p;
                    wr[nnu] = x + p;
                    wi[nnu - 1] = -zz;
                    wi[nnu] = zz;
                }
                nn -= 2;
                break;
            }
            if its == 60 {
                return Err(NoConvergence { index: nnu });
            }
            // Shift selection (LAPACK-style exceptional shifts: the shift
            // values change, the matrix does not).
            let (mut x, mut y, mut w) = (x, y, w);
            if its == 10 || its == 20 || its == 30 || its == 40 || its == 50 {
                let s = a[(nnu, nnu - 1)].abs() + a[(nnu - 1, nnu - 2)].abs();
                x = 0.75 * s + a[(nnu, nnu)];
                y = x;
                w = -0.4375 * s * s;
            }
            its += 1;

            // Two consecutive small sub-diagonals.
            let mut m = l;
            let (mut p, mut q, mut r) = (0.0f64, 0.0f64, 0.0f64);
            for mm in (l..=nnu - 2).rev() {
                let zz = a[(mm, mm)];
                let rr = x - zz;
                let ss = y - zz;
                p = (rr * ss - w) / a[(mm + 1, mm)] + a[(mm, mm + 1)];
                q = a[(mm + 1, mm + 1)] - zz - rr - ss;
                r = a[(mm + 2, mm + 1)];
                let s = p.abs() + q.abs() + r.abs();
                p /= s;
                q /= s;
                r /= s;
                m = mm;
                if mm == l {
                    break;
                }
                let u = a[(mm, mm - 1)].abs() * (q.abs() + r.abs());
                let v =
                    p.abs() * (a[(mm - 1, mm - 1)].abs() + zz.abs() + a[(mm + 1, mm + 1)].abs());
                if u <= f64::EPSILON * v {
                    break;
                }
            }
            for i in m + 2..=nnu {
                a[(i, i - 2)] = 0.0;
                if i != m + 2 {
                    a[(i, i - 3)] = 0.0;
                }
            }

            // Double QR sweep with full-row/column updates + Z.
            for k in m..nnu {
                if k != m {
                    p = a[(k, k - 1)];
                    q = a[(k + 1, k - 1)];
                    r = if k != nnu - 1 { a[(k + 2, k - 1)] } else { 0.0 };
                    x = p.abs() + q.abs() + r.abs();
                    if x != 0.0 {
                        p /= x;
                        q /= x;
                        r /= x;
                    }
                }
                let s = sign((p * p + q * q + r * r).sqrt(), p);
                if s == 0.0 {
                    continue;
                }
                if k == m {
                    if l != m {
                        a[(k, k - 1)] = -a[(k, k - 1)];
                    }
                } else {
                    a[(k, k - 1)] = -s * x;
                    // The reflector annihilates the bulge entries below;
                    // zero their storage explicitly so T comes out clean
                    // (LAPACK dlahqr does the same).
                    a[(k + 1, k - 1)] = 0.0;
                    if k != nnu - 1 {
                        a[(k + 2, k - 1)] = 0.0;
                    }
                }
                p += s;
                x = p / s;
                y = q / s;
                let zz = r / s;
                q /= p;
                r /= p;
                // Row modification over ALL columns right of k.
                for j in k..n {
                    let mut pp = a[(k, j)] + q * a[(k + 1, j)];
                    if k != nnu - 1 {
                        pp += r * a[(k + 2, j)];
                        a[(k + 2, j)] -= pp * zz;
                    }
                    a[(k + 1, j)] -= pp * y;
                    a[(k, j)] -= pp * x;
                }
                // Column modification from the top row.
                let mmin = nnu.min(k + 3);
                for i in 0..=mmin {
                    let mut pp = x * a[(i, k)] + y * a[(i, k + 1)];
                    if k != nnu - 1 {
                        pp += zz * a[(i, k + 2)];
                        a[(i, k + 2)] -= pp * r;
                    }
                    a[(i, k + 1)] -= pp * q;
                    a[(i, k)] -= pp;
                }
                // Accumulate into Z.
                for i in 0..n {
                    let mut pp = x * z[(i, k)] + y * z[(i, k + 1)];
                    if k != nnu - 1 {
                        pp += zz * z[(i, k + 2)];
                        z[(i, k + 2)] -= pp * r;
                    }
                    z[(i, k + 1)] -= pp * q;
                    z[(i, k)] -= pp;
                }
            }
        }
    }

    let eigenvalues = (0..n)
        .map(|i| Eigenvalue {
            re: wr[i],
            im: wi[i],
        })
        .collect();
    Ok(SchurDecomposition {
        t: a,
        z,
        eigenvalues,
    })
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
    use crate::hseqr::{eigenvalues_hessenberg, sort_eigenvalues};
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
        for &n in &[2usize, 5, 12, 30, 60] {
            let h = ft_matrix::random::hessenberg(n, n as u64 + 1);
            let s = check_schur(&h, 1e-11 * n as f64);
            // Eigenvalues agree with the eigenvalues-only path.
            let mut e1 = s.eigenvalues.clone();
            let mut e2 = eigenvalues_hessenberg(&h).unwrap();
            sort_eigenvalues(&mut e1);
            sort_eigenvalues(&mut e2);
            for (a, b) in e1.iter().zip(&e2) {
                assert!(
                    (a.re - b.re).abs() < 1e-7 && (a.im - b.im).abs() < 1e-7,
                    "{a:?} vs {b:?}"
                );
            }
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
