//! Blocked Hessenberg reduction (LAPACK `DGEHRD`, Algorithm 1 of the
//! paper), plus `Q` formation (`DORGHR`) and residual helpers.
//!
//! Per panel of `nb` columns: factorize with [`crate::lahr2::lahr2`]
//! (producing `V`, `T`, `Y = A·V·T`), then
//!
//! 1. right-update the rows above the panel: `A ← A − Y·V₁ᵀ` on the panel
//!    columns (the part `DGEHRD` does with `TRMM`+`AXPY`);
//! 2. right-update the trailing columns: `A ← A − Y·V₂ᵀ` (`DGEMM`,
//!    Algorithm 1 line 3);
//! 3. left-update the trailing matrix: `A ← A − V·Tᵀ·Vᵀ·A` (`DLARFB`,
//!    Algorithm 1 line 4).

use crate::householder::{larf, ReflectSide};
use crate::lahr2::{lahr2, Panel};
use ft_blas::{gemm, Side, Trans};
use ft_matrix::Matrix;

/// Tuning knobs for the blocked reduction.
#[derive(Clone, Copy, Debug)]
pub struct GehrdConfig {
    /// Panel width (the paper uses `nb = 32` for its N = 158 propagation
    /// study and MAGMA's defaults for performance runs).
    pub nb: usize,
    /// Crossover: trailing problems at most this large use the unblocked
    /// algorithm (LAPACK's `NX`).
    pub nx: usize,
}

impl Default for GehrdConfig {
    fn default() -> Self {
        GehrdConfig { nb: 32, nx: 48 }
    }
}

impl GehrdConfig {
    /// Config with a given panel width and no crossover (`nx = 0`;
    /// [`Default`] uses 48).
    pub fn with_nb(nb: usize) -> Self {
        assert!(nb >= 1, "gehrd: nb must be positive");
        GehrdConfig { nb, nx: 0 }
    }
}

/// The result of a Hessenberg reduction in LAPACK packed storage.
#[derive(Clone, Debug)]
pub struct HessFactorization {
    /// Packed output: `H` on and above the sub-diagonal, reflector tails
    /// below it.
    pub packed: Matrix,
    /// Reflector scales, length `max(n − 2, 0)`.
    pub tau: Vec<f64>,
}

impl HessFactorization {
    /// The upper Hessenberg factor `H`.
    pub fn h(&self) -> Matrix {
        extract_h(&self.packed)
    }

    /// The orthogonal factor `Q` (dense), with `A = Q·H·Qᵀ` (blocked
    /// accumulation; level-3 dominated).
    pub fn q(&self) -> Matrix {
        form_q_blocked(&self.packed, &self.tau, 32)
    }
}

/// Blocked Hessenberg reduction in place; returns `tau`.
///
/// `a` is overwritten in LAPACK packed storage (see
/// [`HessFactorization`]).
pub fn gehrd(a: &mut Matrix, cfg: &GehrdConfig) -> Vec<f64> {
    assert!(a.is_square(), "gehrd: matrix must be square");
    let n = a.rows();
    if n < 3 {
        return vec![];
    }
    let total = n - 2; // reflectors for columns 0..n-3
    let mut tau = vec![0.0; total];
    let mut k = 0;

    while k < total {
        let remaining = total - k;
        // Fall back to unblocked for small remainders (latency-bound).
        if remaining <= cfg.nx.max(1) || cfg.nb == 1 {
            let _span = ft_trace::span!("gehrd.tail", k);
            unblocked_tail(a, k, &mut tau[k..]);
            break;
        }
        let ib = cfg.nb.min(remaining);
        let panel = gehrd_step(a, k, ib);
        tau[k..k + ib].copy_from_slice(&panel.tau);
        k += ib;
    }
    tau
}

/// One blocked step of [`gehrd`]: factorizes the `ib`-column panel that
/// starts at column `k` and applies its block reflector to the rest of
/// `a`. Returns the panel; its `tau` are the step's reflector scales.
pub fn gehrd_step(a: &mut Matrix, k: usize, ib: usize) -> Panel {
    let n = a.rows();
    let panel = {
        let _span = ft_trace::span!("gehrd.panel", k);
        lahr2(a, k, ib)
    };
    let m = panel.m(); // n - k - 1

    // (1) Right update to the rows above the panel, panel columns
    // k+1 ..= k+ib−1 (column k needs none):
    // A(0..=k, k+1..k+ib) −= Y(0..=k, :) · V(0..ib−1, :)ᵀ
    if ib > 1 {
        let _span = ft_trace::span!("gehrd.right_update", k);
        gemm(
            Trans::No,
            Trans::Yes,
            -1.0,
            &panel.y.view(0, 0, k + 1, ib),
            &panel.v.view(0, 0, ib - 1, ib),
            1.0,
            &mut a.view_mut(0, k + 1, k + 1, ib - 1),
        );
    }

    // (2)+(3) Right and left updates to the trailing columns:
    // A(:, k+ib..n) −= Y · V₂ᵀ  (V₂ = V rows ib−1..m), then
    // A(k+1..n, k+ib..n) ← (I − V·T·Vᵀ)ᵀ · A(k+1..n, k+ib..n).
    let ntrail = n - k - ib;
    if ntrail > 0 {
        {
            let _span = ft_trace::span!("gehrd.right_update", k);
            gemm(
                Trans::No,
                Trans::Yes,
                -1.0,
                &panel.y.as_view(),
                &panel.v.view(ib - 1, 0, m - ib + 1, ib),
                1.0,
                &mut a.view_mut(0, k + ib, n, ntrail),
            );
        }
        let _span = ft_trace::span!("gehrd.left_update", k);
        crate::wy::larfb(
            Side::Left,
            Trans::Yes,
            &panel.v.as_view(),
            &panel.t.as_view(),
            &mut a.view_mut(k + 1, k + ib, m, ntrail),
        );
    }
    panel
}

/// Unblocked reduction of the remaining columns `k..n−2` (`DGEHD2`
/// restricted to a trailing range; [`crate::gehd2`] runs it from 0).
pub(crate) fn unblocked_tail(a: &mut Matrix, k: usize, tau: &mut [f64]) {
    let n = a.rows();
    let mut v = vec![0.0; n];
    // Single reflector-tail buffer reused across columns (every element is
    // overwritten before use), so the column loop is allocation-free.
    let mut tailbuf = vec![0.0; n];
    for (off, t) in tau.iter_mut().enumerate() {
        let i = k + off;
        let alpha = a[(i + 1, i)];
        let tail = &mut tailbuf[..n - i - 2];
        for (dst, r) in tail.iter_mut().zip(i + 2..n) {
            *dst = a[(r, i)];
        }
        let refl = crate::householder::larfg(alpha, tail);
        *t = refl.tau;

        let m = n - i - 1;
        v[0] = 1.0;
        v[1..m].copy_from_slice(tail);

        larf(
            ReflectSide::Right,
            &v[..m],
            refl.tau,
            &mut a.view_mut(0, i + 1, n, m),
        );
        larf(
            ReflectSide::Left,
            &v[..m],
            refl.tau,
            &mut a.view_mut(i + 1, i + 1, m, m),
        );

        a[(i + 1, i)] = refl.beta;
        for (off2, &val) in tail.iter().enumerate() {
            a[(i + 2 + off2, i)] = val;
        }
    }
}

/// Extracts the upper Hessenberg factor from packed storage.
pub fn extract_h(packed: &Matrix) -> Matrix {
    let n = packed.rows();
    Matrix::from_fn(n, n, |i, j| if i <= j + 1 { packed[(i, j)] } else { 0.0 })
}

/// Forms the dense orthogonal factor `Q = H₀·H₁⋯H_{n−3}` from packed
/// reflectors (LAPACK `DORGHR`).
pub fn form_q(packed: &Matrix, tau: &[f64]) -> Matrix {
    let n = packed.rows();
    let mut q = Matrix::identity(n);
    if n < 3 {
        return q;
    }
    assert_eq!(
        tau.len(),
        n - 2,
        "form_q: tau length {} != {}",
        tau.len(),
        n - 2
    );
    let mut v = vec![0.0; n];
    // Apply reflectors in reverse: Q ← H_j·Q touches only the trailing
    // (n−j−1)² block (the leading rows/cols are still the identity's).
    for j in (0..n - 2).rev() {
        if tau[j] == 0.0 {
            continue;
        }
        let m = n - j - 1;
        v[0] = 1.0;
        for r in 1..m {
            v[r] = packed[(j + 1 + r, j)];
        }
        larf(
            ReflectSide::Left,
            &v[..m],
            tau[j],
            &mut q.view_mut(j + 1, j + 1, m, m),
        );
    }
    q
}

/// Blocked `Q` formation (the level-3 version of [`form_q`]): applies the
/// reflectors panel-by-panel in reverse through `larfb`, so the bulk of
/// the work is GEMM. Produces the same `Q` up to roundoff.
pub fn form_q_blocked(packed: &Matrix, tau: &[f64], nb: usize) -> Matrix {
    let n = packed.rows();
    let mut q = Matrix::identity(n);
    if n < 3 {
        return q;
    }
    assert_eq!(
        tau.len(),
        n - 2,
        "form_q_blocked: tau length {} != {}",
        tau.len(),
        n - 2
    );
    let nb = nb.max(1);
    let total = n - 2;
    // Panel start columns in reverse order.
    let mut starts: Vec<usize> = (0..total).step_by(nb).collect();
    starts.reverse();
    for &k in &starts {
        let ib = nb.min(total - k);
        let m = n - k - 1;
        // Rebuild the panel's explicit V (local rows = global rows k+1..n).
        let mut v = Matrix::zeros(m, ib);
        for j in 0..ib {
            v[(j, j)] = 1.0;
            for r in j + 1..m {
                v[(r, j)] = packed[(k + 1 + r, k + j)];
            }
        }
        let t = crate::wy::larft(&v.as_view(), &tau[k..k + ib]);
        // Q(k+1.., k+1..) ← (I − V·T·Vᵀ)·Q(k+1.., k+1..): the leading
        // rows/cols are still the identity's at this point.
        crate::wy::larfb(
            Side::Left,
            Trans::No,
            &v.as_view(),
            &t.as_view(),
            &mut q.view_mut(k + 1, k + 1, m, m),
        );
    }
    q
}

/// `‖A − Q·H·Qᵀ‖₁ / (N·‖A‖₁)` — the backward-error residual of Table II.
pub fn factorization_residual(a0: &Matrix, q: &Matrix, h: &Matrix) -> f64 {
    let n = a0.rows();
    let mut qh = Matrix::zeros(n, n);
    gemm(
        Trans::No,
        Trans::No,
        1.0,
        &q.as_view(),
        &h.as_view(),
        0.0,
        &mut qh.as_view_mut(),
    );
    let mut qhqt = a0.clone();
    gemm(
        Trans::No,
        Trans::Yes,
        -1.0,
        &qh.as_view(),
        &q.as_view(),
        1.0,
        &mut qhqt.as_view_mut(),
    );
    // qhqt now holds A − QHQᵀ ... with the sign flipped; norm is symmetric.
    qhqt.one_norm() / (n as f64 * a0.one_norm())
}

/// `‖Q·Qᵀ − I‖₁ / N` — the orthogonality residual of Table III.
pub fn orthogonality_residual(q: &Matrix) -> f64 {
    let n = q.rows();
    let mut qqt = Matrix::identity(n);
    gemm(
        Trans::No,
        Trans::Yes,
        1.0,
        &q.as_view(),
        &q.as_view(),
        -1.0,
        &mut qqt.as_view_mut(),
    );
    qqt.one_norm() / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gehd2::gehd2;
    use ft_matrix::assert_matrix_eq;

    fn check(a0: &Matrix, cfg: &GehrdConfig, tol: f64) {
        let mut a = a0.clone();
        let tau = gehrd(&mut a, cfg);
        let f = HessFactorization { packed: a, tau };
        let h = f.h();
        assert!(h.is_upper_hessenberg(), "not Hessenberg");
        let q = f.q();
        let r1 = factorization_residual(a0, &q, &h);
        let r2 = orthogonality_residual(&q);
        assert!(r1 < tol, "factorization residual {r1} >= {tol}");
        assert!(r2 < tol, "orthogonality residual {r2} >= {tol}");
    }

    #[test]
    fn blocked_matches_unblocked_exactly() {
        // Same reflector ordering ⇒ identical output up to roundoff.
        let n = 20;
        let a0 = ft_matrix::random::uniform(n, n, 31);
        let mut au = a0.clone();
        let tau_u = gehd2(&mut au);

        let mut ab = a0.clone();
        let tau_b = gehrd(&mut ab, &GehrdConfig { nb: 4, nx: 1 });

        for j in 0..n - 2 {
            assert!(
                (tau_u[j] - tau_b[j]).abs() < 1e-11,
                "tau[{j}]: {} vs {}",
                tau_u[j],
                tau_b[j]
            );
        }
        assert_matrix_eq(&ab, &au, 1e-10, "blocked vs unblocked packed output");
    }

    #[test]
    fn residuals_small_various_sizes_and_blocks() {
        for &(n, nb) in &[(16usize, 4usize), (33, 8), (64, 32), (100, 32), (57, 7)] {
            let a0 = ft_matrix::random::uniform(n, n, n as u64 * 7 + nb as u64);
            check(&a0, &GehrdConfig { nb, nx: 4 }, 1e-14);
        }
    }

    #[test]
    fn default_config_works() {
        let a0 = ft_matrix::random::uniform(80, 80, 99);
        check(&a0, &GehrdConfig::default(), 1e-14);
    }

    #[test]
    fn nb_larger_than_matrix() {
        let a0 = ft_matrix::random::uniform(10, 10, 41);
        check(&a0, &GehrdConfig { nb: 64, nx: 1 }, 1e-13);
    }

    #[test]
    fn blocked_q_formation_matches_unblocked() {
        for &(n, nb) in &[(30usize, 8usize), (50, 16), (41, 7), (20, 64)] {
            let a0 = ft_matrix::random::uniform(n, n, (n + nb) as u64);
            let mut packed = a0.clone();
            let tau = gehrd(&mut packed, &GehrdConfig { nb: 8, nx: 2 });
            let q1 = form_q(&packed, &tau);
            let q2 = form_q_blocked(&packed, &tau, nb);
            let diff = ft_matrix::max_abs_diff(&q1, &q2);
            assert!(diff < 1e-12, "n={n} nb={nb}: Q diff {diff}");
        }
    }

    #[test]
    fn tiny_matrices() {
        for n in 0..4 {
            let a0 = ft_matrix::random::uniform(n, n, 50 + n as u64);
            let mut a = a0.clone();
            let tau = gehrd(&mut a, &GehrdConfig::default());
            if n < 3 {
                assert!(tau.is_empty());
                assert_eq!(a, a0);
            }
        }
    }

    #[test]
    fn symmetric_input_gives_tridiagonal_h() {
        // Hessenberg form of a symmetric matrix is symmetric tridiagonal.
        let a0 = ft_matrix::random::symmetric(24, 8);
        let mut a = a0.clone();
        let tau = gehrd(&mut a, &GehrdConfig { nb: 8, nx: 2 });
        let f = HessFactorization { packed: a, tau };
        let h = f.h();
        for j in 0..24 {
            for i in 0..24 {
                if i + 1 < j {
                    assert!(h[(i, j)].abs() < 1e-12, "H({i},{j}) = {}", h[(i, j)]);
                }
            }
        }
    }
}
