//! The Francis implicit double-shift QR iteration with deflation on an
//! upper Hessenberg matrix (the "Hessenberg QR algorithm" the paper's
//! introduction motivates: reduction to Hessenberg form is the expensive
//! first phase of the nonsymmetric eigenvalue problem).
//!
//! One routine, `lahqr`, organized like LAPACK's `DLAHQR`, runs the
//! iteration for both entry points: [`eigenvalues_hessenberg`]
//! (eigenvalues only, `DHSEQR` job `'E'`) and
//! [`crate::schur::real_schur`] (Schur form and vectors, job `'S'`). It
//! repeatedly deflates trailing 1×1 and 2×2 blocks, with an exceptional
//! shift every 10 stalled iterations.

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
    lahqr(&mut h.clone(), None)
}

/// The Francis double-shift QR iteration on the square upper Hessenberg
/// `a` (LAPACK `DLAHQR`); entries below the first sub-diagonal are
/// cleared first, so packed storage may be passed. Returns the
/// eigenvalues in deflation order, complex pairs adjacent.
///
/// With `z` (`DLAHQR`'s `WANTT = WANTZ = true`) every transformation
/// updates whole rows and columns of `a` and is accumulated into the
/// columns of `z`, and each real 2×2 block is rotated to upper triangular
/// form: `a` ends as the real Schur factor `T` with `H = Z·T·Zᵀ` relative
/// to the `z` passed in. Without `z` only the active block is updated
/// and the rest of `a` is left as scratch. The two modes run the same
/// deflation, shifts and bulge chase on the active block, so they return
/// the same eigenvalues bit for bit.
pub(crate) fn lahqr(
    a: &mut Matrix,
    mut z: Option<&mut Matrix>,
) -> Result<Vec<Eigenvalue>, NoConvergence> {
    let n = a.rows();
    for j in 0..n {
        for i in j + 2..n {
            a[(i, j)] = 0.0;
        }
    }
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
    let wantt = z.is_some();
    let mut wr = vec![0.0f64; n];
    let mut wi = vec![0.0f64; n];

    let mut nn = n as isize - 1;
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
                wr[nnu] = x;
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
                    if let Some(z) = z.as_deref_mut() {
                        triangularize_real_pair(a, z, nnu, zz);
                    }
                } else {
                    wr[nnu - 1] = x + p;
                    wr[nnu] = x + p;
                    wi[nnu - 1] = -zz;
                    wi[nnu] = zz;
                }
                nn -= 2;
                break;
            }
            // No deflation yet: do a double QR sweep.
            if its == 60 {
                return Err(NoConvergence { index: nnu });
            }
            // An exceptional shift changes the shift values, never the
            // matrix: the Schur form needs the matrix intact.
            let (mut x, mut y, mut w) = (x, y, w);
            if its > 0 && its % 10 == 0 {
                let s = a[(nnu, nnu - 1)].abs() + a[(nnu - 1, nnu - 2)].abs();
                x = 0.75 * s + a[(nnu, nnu)];
                y = x;
                w = -0.4375 * s * s;
            }
            its += 1;
            // The rows and columns a transformation covers (DLAHQR's
            // I1/I2): the whole matrix for the Schur form, else the active
            // block.
            let (i1, i2) = if wantt { (0, n - 1) } else { (l, nnu) };

            // Look for two consecutive small sub-diagonal elements.
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

            // Double QR step on rows and columns k..=k + 2.
            for k in m..nnu {
                let last = k == nnu - 1;
                if k != m {
                    p = a[(k, k - 1)];
                    q = a[(k + 1, k - 1)];
                    r = if last { 0.0 } else { a[(k + 2, k - 1)] };
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
                    // zero their storage explicitly so T comes out clean.
                    a[(k + 1, k - 1)] = 0.0;
                    if !last {
                        a[(k + 2, k - 1)] = 0.0;
                    }
                }
                p += s;
                x = p / s;
                y = q / s;
                let zz = r / s;
                q /= p;
                r /= p;
                // Row modification.
                for j in k..=i2 {
                    let mut pp = a[(k, j)] + q * a[(k + 1, j)];
                    if !last {
                        pp += r * a[(k + 2, j)];
                        a[(k + 2, j)] -= pp * zz;
                    }
                    a[(k + 1, j)] -= pp * y;
                    a[(k, j)] -= pp * x;
                }
                // Column modification, then the same into Z.
                let coef = [x, y, zz, q, r];
                reflect_columns(a, i1..=nnu.min(k + 3), k, last, coef);
                if let Some(z) = z.as_deref_mut() {
                    reflect_columns(z, 0..=n - 1, k, last, coef);
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

/// Right-multiplies columns `k..=k + 2` (`k..=k + 1` when `last`) of
/// `rows` of `m` by one bulge-chasing reflector, given as
/// `[x, y, z, q, r]` of `lahqr`'s sweep.
fn reflect_columns(
    m: &mut Matrix,
    rows: std::ops::RangeInclusive<usize>,
    k: usize,
    last: bool,
    [x, y, z, q, r]: [f64; 5],
) {
    for i in rows {
        let mut pp = x * m[(i, k)] + y * m[(i, k + 1)];
        if !last {
            pp += z * m[(i, k + 2)];
            m[(i, k + 2)] -= pp * r;
        }
        m[(i, k + 1)] -= pp * q;
        m[(i, k)] -= pp;
    }
}

/// Rotates the deflated real 2×2 block at rows and columns
/// `nnu − 1..=nnu` of `a` to upper triangular form, over whole rows and
/// columns, and accumulates the rotation into `z`. `zz` is the block's
/// `p + sign(√q, p)` from `lahqr`.
fn triangularize_real_pair(a: &mut Matrix, z: &mut Matrix, nnu: usize, zz: f64) {
    let n = a.rows();
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
    // Column modification, then the same into Z.
    for (m, rows) in [(&mut *a, 0..=nnu), (z, 0..=n - 1)] {
        for i in rows {
            let t1 = m[(i, nnu - 1)];
            m[(i, nnu - 1)] = qq * t1 + pp * m[(i, nnu)];
            m[(i, nnu)] = qq * m[(i, nnu)] - pp * t1;
        }
    }
    a[(nnu, nnu - 1)] = 0.0;
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
