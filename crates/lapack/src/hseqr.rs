//! Eigenvalues of an upper Hessenberg matrix by the Francis implicit
//! double-shift QR iteration with deflation (the "Hessenberg QR algorithm"
//! the paper's introduction motivates: reduction to Hessenberg form is the
//! expensive first phase of the nonsymmetric eigenvalue problem).
//!
//! Eigenvalues-only variant (LAPACK `DHSEQR` job `'E'`), following the
//! classic EISPACK `hqr` organization: repeatedly deflate trailing 1×1 and
//! 2×2 blocks, with exceptional shifts every 10 stalled iterations.

use ft_matrix::Matrix;

/// One (possibly complex) eigenvalue of a real matrix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Eigenvalue {
    /// Real part.
    pub re: f64,
    /// Imaginary part (zero for a real eigenvalue).
    pub im: f64,
}

impl Eigenvalue {
    /// Real eigenvalue.
    pub fn real(re: f64) -> Self {
        Eigenvalue { re, im: 0.0 }
    }

    /// Modulus `|λ|`.
    pub fn abs(&self) -> f64 {
        self.re.hypot(self.im)
    }

    /// `true` if the imaginary part is exactly zero.
    pub fn is_real(&self) -> bool {
        self.im == 0.0
    }
}

/// Iteration failure: the QR iteration did not converge for some
/// eigenvalue within the iteration budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NoConvergence {
    /// Index of the eigenvalue that failed to deflate.
    pub index: usize,
}

impl std::fmt::Display for NoConvergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "QR iteration failed to converge at eigenvalue {}",
            self.index
        )
    }
}

impl std::error::Error for NoConvergence {}

/// Fortran `SIGN(a, b)`: `|a|` with the sign of `b` (`+` for `b = ±0`).
#[inline]
pub(crate) fn sign(a: f64, b: f64) -> f64 {
    if b >= 0.0 {
        a.abs()
    } else {
        -a.abs()
    }
}

/// Computes all eigenvalues of the upper Hessenberg matrix `h`.
///
/// `h` must be square and upper Hessenberg (entries below the first
/// sub-diagonal are ignored). Eigenvalues are returned in deflation order
/// (trailing blocks first), complex pairs adjacent.
pub fn eigenvalues_hessenberg(h: &Matrix) -> Result<Vec<Eigenvalue>, NoConvergence> {
    assert!(
        h.is_square(),
        "eigenvalues_hessenberg: matrix must be square"
    );
    let n = h.rows();
    let mut wr = vec![0.0f64; n];
    let mut wi = vec![0.0f64; n];
    if n == 0 {
        return Ok(vec![]);
    }

    // Working copy; only the Hessenberg part is referenced.
    let mut a = h.clone();
    // Norm used in the negligibility tests.
    let mut anorm = 0.0f64;
    for i in 0..n {
        for j in i.saturating_sub(1)..n {
            anorm += a[(i, j)].abs();
        }
    }
    if anorm == 0.0 {
        return Ok(vec![Eigenvalue::real(0.0); n]);
    }

    let mut nn = n as isize - 1;
    let mut t = 0.0f64;
    while nn >= 0 {
        let mut its = 0;
        loop {
            let nnu = nn as usize;
            // Find l: the start of the active unreduced block.
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
                // One real root found.
                wr[nnu] = x + t;
                wi[nnu] = 0.0;
                nn -= 1;
                break;
            }
            let y = a[(nnu - 1, nnu - 1)];
            let w = a[(nnu, nnu - 1)] * a[(nnu - 1, nnu)];
            if l + 1 == nnu {
                // A 2×2 block deflates: two roots.
                let p = 0.5 * (y - x);
                let q = p * p + w;
                let mut z = q.abs().sqrt();
                let xx = x + t;
                if q >= 0.0 {
                    z = p + sign(z, p);
                    wr[nnu - 1] = xx + z;
                    wr[nnu] = wr[nnu - 1];
                    if z != 0.0 {
                        wr[nnu] = xx - w / z;
                    }
                    wi[nnu - 1] = 0.0;
                    wi[nnu] = 0.0;
                } else {
                    wr[nnu - 1] = xx + p;
                    wr[nnu] = xx + p;
                    wi[nnu - 1] = -z;
                    wi[nnu] = z;
                }
                nn -= 2;
                break;
            }
            // No deflation yet: do a double QR sweep.
            if its == 60 {
                return Err(NoConvergence { index: nnu });
            }
            let (mut x, mut y, mut w) = (x, y, w);
            if its == 10 || its == 20 || its == 30 || its == 40 || its == 50 {
                // Exceptional shift.
                t += x;
                for i in 0..=nnu {
                    a[(i, i)] -= x;
                }
                let s = a[(nnu, nnu - 1)].abs() + a[(nnu - 1, nnu - 2)].abs();
                x = 0.75 * s;
                y = x;
                w = -0.4375 * s * s;
            }
            its += 1;

            // Look for two consecutive small sub-diagonal elements.
            let mut m = l;
            let (mut p, mut q, mut r) = (0.0f64, 0.0f64, 0.0f64);
            for mm in (l..=nnu - 2).rev() {
                let z = a[(mm, mm)];
                let rr = x - z;
                let ss = y - z;
                p = (rr * ss - w) / a[(mm + 1, mm)] + a[(mm, mm + 1)];
                q = a[(mm + 1, mm + 1)] - z - rr - ss;
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
                let v = p.abs() * (a[(mm - 1, mm - 1)].abs() + z.abs() + a[(mm + 1, mm + 1)].abs());
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

            // Double QR step on rows l..=nn, columns l..=nn.
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
                }
                p += s;
                x = p / s;
                y = q / s;
                let z = r / s;
                q /= p;
                r /= p;
                // Row modification.
                for j in k..=nnu {
                    let mut pp = a[(k, j)] + q * a[(k + 1, j)];
                    if k != nnu - 1 {
                        pp += r * a[(k + 2, j)];
                        a[(k + 2, j)] -= pp * z;
                    }
                    a[(k + 1, j)] -= pp * y;
                    a[(k, j)] -= pp * x;
                }
                // Column modification.
                let mmin = nnu.min(k + 3);
                for i in l..=mmin {
                    let mut pp = x * a[(i, k)] + y * a[(i, k + 1)];
                    if k != nnu - 1 {
                        pp += z * a[(i, k + 2)];
                        a[(i, k + 2)] -= pp * r;
                    }
                    a[(i, k + 1)] -= pp * q;
                    a[(i, k)] -= pp;
                }
            }
        }
    }

    Ok((0..n)
        .map(|i| Eigenvalue {
            re: wr[i],
            im: wi[i],
        })
        .collect())
}

/// Sorts eigenvalues by (re, im) for stable comparisons in tests.
pub fn sort_eigenvalues(evs: &mut [Eigenvalue]) {
    evs.sort_by(|a, b| {
        a.re.partial_cmp(&b.re)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.im.partial_cmp(&b.im).unwrap_or(std::cmp::Ordering::Equal))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_spectrum(mut got: Vec<Eigenvalue>, mut expect: Vec<Eigenvalue>, tol: f64) {
        assert_eq!(got.len(), expect.len());
        sort_eigenvalues(&mut got);
        sort_eigenvalues(&mut expect);
        for (g, e) in got.iter().zip(&expect) {
            assert!(
                (g.re - e.re).abs() < tol && (g.im - e.im).abs() < tol,
                "eigenvalue mismatch: {g:?} vs {e:?}"
            );
        }
    }

    #[test]
    fn triangular_matrix_eigenvalues_are_diagonal() {
        let diag = [3.0, -1.5, 0.25, 7.0, -4.0];
        let t = ft_matrix::random::triangular_with_eigenvalues(&diag, 1);
        let evs = eigenvalues_hessenberg(&t).unwrap();
        assert_spectrum(
            evs,
            diag.iter().map(|&d| Eigenvalue::real(d)).collect(),
            1e-10,
        );
    }

    #[test]
    fn known_complex_pair() {
        // [[0, -1], [1, 0]] has eigenvalues ±i.
        let a = Matrix::from_rows(&[&[0.0, -1.0], &[1.0, 0.0]]);
        let evs = eigenvalues_hessenberg(&a).unwrap();
        assert_spectrum(
            evs,
            vec![
                Eigenvalue { re: 0.0, im: 1.0 },
                Eigenvalue { re: 0.0, im: -1.0 },
            ],
            1e-12,
        );
    }

    #[test]
    fn rotation_block_spectrum() {
        // Block diagonal: rotation by θ scaled by ρ has eigenvalues ρe^{±iθ},
        // plus a real eigenvalue 2.
        let (rho, theta) = (1.5f64, 0.7f64);
        let (c, s) = (theta.cos() * rho, theta.sin() * rho);
        let a = Matrix::from_rows(&[&[c, -s, 0.0], &[s, c, 0.0], &[0.0, 0.0, 2.0]]);
        let evs = eigenvalues_hessenberg(&a).unwrap();
        assert_spectrum(
            evs,
            vec![
                Eigenvalue {
                    re: c,
                    im: rho * theta.sin(),
                },
                Eigenvalue {
                    re: c,
                    im: -rho * theta.sin(),
                },
                Eigenvalue::real(2.0),
            ],
            1e-10,
        );
    }

    #[test]
    fn trace_and_det_invariants_random() {
        // Sum of eigenvalues = trace; product = det (checked via |det| on a
        // small matrix computed by the 3×3 rule).
        let a = Matrix::from_rows(&[
            &[2.0, 1.0, 0.5],
            &[1.0, -1.0, 2.0],
            &[0.0, 3.0, 1.0], // already Hessenberg
        ]);
        let evs = eigenvalues_hessenberg(&a).unwrap();
        let tr: f64 = evs.iter().map(|e| e.re).sum();
        assert!((tr - 2.0).abs() < 1e-10, "trace {tr}");
        let det_expect =
            2.0 * (-1.0 - 2.0 * 3.0) - (1.0 * 1.0 - 2.0 * 0.0) + 0.5 * (1.0 * 3.0 + 1.0 * 0.0);
        // product of complex eigenvalues
        let mut det = 1.0;
        let mut i = 0;
        while i < evs.len() {
            if evs[i].im != 0.0 {
                det *= evs[i].re * evs[i].re + evs[i].im * evs[i].im;
                i += 2;
            } else {
                det *= evs[i].re;
                i += 1;
            }
        }
        assert!((det - det_expect).abs() < 1e-9, "det {det} vs {det_expect}");
    }

    #[test]
    fn larger_random_hessenberg_converges() {
        let h = ft_matrix::random::hessenberg(60, 9);
        let evs = eigenvalues_hessenberg(&h).unwrap();
        assert_eq!(evs.len(), 60);
        let tr_h: f64 = (0..60).map(|i| h[(i, i)]).sum();
        let tr_e: f64 = evs.iter().map(|e| e.re).sum();
        assert!((tr_h - tr_e).abs() < 1e-9, "{tr_h} vs {tr_e}");
        // imaginary parts come in conjugate pairs
        let im_sum: f64 = evs.iter().map(|e| e.im).sum();
        assert!(im_sum.abs() < 1e-9);
    }

    #[test]
    fn empty_and_single() {
        assert!(eigenvalues_hessenberg(&Matrix::zeros(0, 0))
            .unwrap()
            .is_empty());
        let a = Matrix::from_rows(&[&[4.2]]);
        let evs = eigenvalues_hessenberg(&a).unwrap();
        assert_eq!(evs, vec![Eigenvalue::real(4.2)]);
    }
}
