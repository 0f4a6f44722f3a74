//! Panel factorization for the blocked Hessenberg reduction
//! (LAPACK `DLAHR2`, the paper's `DLAHRD` / `MAGMA_DLAHR2` step).
//!
//! Given the matrix `A` (with all previous panels applied) and a panel of
//! `ib` columns starting at column `k`, this routine:
//!
//! 1. generates the `ib` Householder reflectors that annihilate each panel
//!    column below the first sub-diagonal, *incrementally updating* each
//!    column by the previously generated reflectors from both sides before
//!    its reflector is formed;
//! 2. accumulates the compact WY triangular factor `T`;
//! 3. computes `Y = A·V·T` (full height), the quantity the trailing-matrix
//!    right update `A ← A − Y·Vᵀ` consumes — and, in the fault-tolerant
//!    algorithm, the quantity whose column checksums (`Yce`) extend the
//!    update to the checksum border (paper Algorithm 3, line 6).
//!
//! The panel columns of `A` are left in LAPACK storage: final `H` values on
//! and above the sub-diagonal, reflector tails below it.

use crate::householder::larfg;
use ft_blas::{gemm, gemv, scal, trmm, trmv, Diag, Side, Trans, Uplo};
use ft_matrix::Matrix;

/// Output of one panel factorization.
#[derive(Clone, Debug)]
pub struct Panel {
    /// Reflector matrix, `(n − k − 1) × ib`, explicit storage: column `j`
    /// is `v_j` with zeros above its unit element at local row `j`.
    /// Local row `r` corresponds to global row `k + 1 + r`.
    pub v: Matrix,
    /// Upper triangular compact WY factor, `ib × ib`.
    pub t: Matrix,
    /// `Y = A·V·T`, full height `n × ib` (`A` as of panel entry).
    pub y: Matrix,
    /// Reflector scales.
    pub tau: Vec<f64>,
    /// Panel start column `k`.
    pub k: usize,
}

impl Panel {
    /// Panel width.
    pub fn ib(&self) -> usize {
        self.v.cols()
    }

    /// Reflector space height `n − k − 1`.
    pub fn m(&self) -> usize {
        self.v.rows()
    }
}

/// Factorizes the `ib`-column panel of `a` starting at column `k`.
///
/// Requires `ib ≤ n − k − 2` so every reflector has at least one element to
/// annihilate or sits on the last reducible column (`ib ≤ n − k − 1` is the
/// hard bound; `tau = 0` reflectors are handled).
pub fn lahr2(a: &mut Matrix, k: usize, ib: usize) -> Panel {
    assert!(a.is_square(), "lahr2: matrix must be square");
    let n = a.rows();
    lahr2_within(a, n, k, ib)
}

/// [`lahr2`] restricted to the leading `n × n` block of a larger storage
/// matrix — used by the fault-tolerant driver, whose working matrix
/// carries an extra checksum row and column that the panel factorization
/// must not see.
pub fn lahr2_within(a: &mut Matrix, n: usize, k: usize, ib: usize) -> Panel {
    let _span = ft_trace::span!("lahr2", k);
    assert!(
        a.rows() >= n && a.cols() >= n,
        "lahr2_within: storage smaller than logical n"
    );
    assert!(
        k + 1 < n,
        "lahr2: panel start {k} leaves no sub-diagonal rows"
    );
    let m = n - k - 1;
    assert!(
        ib <= m,
        "lahr2: panel width {ib} exceeds reflector space {m}"
    );

    let mut v = Matrix::zeros(m, ib);
    let mut t = Matrix::zeros(ib, ib);
    let mut y = Matrix::zeros(n, ib);
    let mut tau = vec![0.0; ib];
    let mut b = vec![0.0; m];
    // Reflector-loop scratch, hoisted so the j-loop performs zero heap
    // allocations (sliced to length j per iteration; the gemv calls that
    // fill them use beta = 0, i.e. overwrite semantics, so reuse cannot
    // leak values between iterations).
    let mut vrow = vec![0.0; ib];
    let mut w = vec![0.0; ib];
    let mut w2 = vec![0.0; ib];

    // Column 0 of the panel (j = 0: no right/left updates from previous
    // reflectors exist yet). Global column k, reflector rows k+1..n.
    b.copy_from_slice(&a.col(k)[k + 1..n]);

    // Generate the reflector annihilating b[1..].
    let alpha = b[0];
    let (_, tail) = b.split_at_mut(1);
    let refl = larfg(alpha, tail);
    tau[0] = refl.tau;
    v[(0, 0)] = 1.0;
    for r in 1..m {
        v[(r, 0)] = b[r];
    }

    // Write the finished column back (LAPACK storage): β on the
    // sub-diagonal, reflector tail below it.
    {
        let col = a.col_mut(k);
        col[k + 1] = refl.beta;
        col[k + 2..n].copy_from_slice(&b[1..]);
    }

    // Y(k+1.., 0) = τ₀·A(k+1.., k+1..n)·v₀;  T(0, 0) = τ₀.
    {
        let yj = &mut y.col_mut(0)[k + 1..n];
        gemv(
            Trans::No,
            1.0,
            &a.view(k + 1, k + 1, m, m),
            &v.col(0)[..m],
            0.0,
            yj,
        );
        scal(tau[0], yj);
        t[(0, 0)] = tau[0];
    }

    for j in 1..ib {
        let c = k + j; // global column being reduced

        // Current column over the reflector rows (global rows k+1..n).
        b.copy_from_slice(&a.col(c)[k + 1..n]);

        {
            // (1) Right update from the previous reflectors:
            //     b ← b − Y(k+1.., 0..j) · V(j−1, 0..j)ᵀ
            // (row j−1 of V is the row that multiplies column c = k+j in
            // the right update A·V·T·Vᵀ).
            let vrow = &mut vrow[..j];
            for (cc, dst) in vrow.iter_mut().enumerate() {
                *dst = v[(j - 1, cc)];
            }
            gemv(Trans::No, -1.0, &y.view(k + 1, 0, m, j), vrow, 1.0, &mut b);

            // (2) Left update: b ← (I − V·Tᵀ·Vᵀ)·b  [= (I − V·T·Vᵀ)ᵀ·b]
            let w = &mut w[..j];
            gemv(Trans::Yes, 1.0, &v.view(0, 0, m, j), &b, 0.0, w);
            trmv(Uplo::Upper, Trans::Yes, Diag::NonUnit, &t.as_view(), w);
            gemv(Trans::No, -1.0, &v.view(0, 0, m, j), w, 1.0, &mut b);
        }

        // (3) Generate the reflector annihilating b[j+1..].
        let alpha = b[j];
        let (_, tail) = b.split_at_mut(j + 1);
        let refl = larfg(alpha, tail);
        tau[j] = refl.tau;
        v[(j, j)] = 1.0;
        for r in j + 1..m {
            v[(r, j)] = b[r];
        }

        // (4) Write the finished column back (LAPACK storage): updated H
        // values above the pivot, β on the sub-diagonal, reflector tail
        // below it.
        {
            let col = a.col_mut(c);
            col[k + 1..k + 1 + j].copy_from_slice(&b[..j]);
            col[k + 1 + j] = refl.beta;
            col[k + 2 + j..n].copy_from_slice(&b[j + 1..]);
        }

        // (5) Y(k+1.., j) = τ_j (A·v_j − Y_prev·(V_prevᵀ·v_j)),
        //     using only the still-original columns c+1..n of A.
        {
            let vtail = &v.col(j)[j..m];
            let (ylo, mut yj_rest) = y.as_view_mut().split_at_col(j);
            let yj = &mut yj_rest.col_mut(0)[k + 1..n];
            gemv(
                Trans::No,
                1.0,
                &a.view(k + 1, c + 1, m, n - c - 1),
                vtail,
                0.0,
                yj,
            );
            let w2 = &mut w2[..j];
            gemv(Trans::Yes, 1.0, &v.view(0, 0, m, j), v.col(j), 0.0, w2);
            gemv(
                Trans::No,
                -1.0,
                &ylo.as_view().subview(k + 1, 0, m, j),
                w2,
                1.0,
                yj,
            );
            scal(tau[j], yj);

            // (6) T(0..j, j) = T(0..j, 0..j)·(−τ_j·w2);  T(j, j) = τ_j.
            scal(-tau[j], w2);
            trmv(Uplo::Upper, Trans::No, Diag::NonUnit, &t.as_view(), w2);
            t.view_mut(0, j, j, 1).col_mut(0).copy_from_slice(w2);
            t[(j, j)] = tau[j];
        }
    }

    // Top rows of Y: Y(0..k+1, :) = A(0..k+1, k+1..n) · V · T.
    // Only rows ≤ k of A are read here — the panel writes in step (4) never
    // touched them, so these are still the panel-entry values.
    gemm(
        Trans::No,
        Trans::No,
        1.0,
        &a.view(0, k + 1, k + 1, m),
        &v.as_view(),
        0.0,
        &mut y.view_mut(0, 0, k + 1, ib),
    );
    trmm(
        Side::Right,
        Uplo::Upper,
        Trans::No,
        Diag::NonUnit,
        1.0,
        &t.as_view(),
        &mut y.view_mut(0, 0, k + 1, ib),
    );

    Panel { v, t, y, tau, k }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_matrix::{assert_matrix_eq, Matrix};

    /// Oracle: Y must equal A_entry · V · T.
    #[test]
    fn y_equals_avt() {
        let n = 12;
        let k = 2;
        let ib = 4;
        let a0 = ft_matrix::random::uniform(n, n, 21);
        let mut a = a0.clone();
        let p = lahr2(&mut a, k, ib);

        // Build V as an n × ib matrix (zero outside rows k+1..n).
        let mut vfull = Matrix::zeros(n, ib);
        vfull.set_sub_matrix(k + 1, 0, &p.v);
        let mut vt = Matrix::zeros(n, ib);
        ft_blas::gemm(
            Trans::No,
            Trans::No,
            1.0,
            &vfull.as_view(),
            &p.t.as_view(),
            0.0,
            &mut vt.as_view_mut(),
        );
        let mut expect_y = Matrix::zeros(n, ib);
        ft_blas::gemm(
            Trans::No,
            Trans::No,
            1.0,
            &a0.as_view(),
            &vt.as_view(),
            0.0,
            &mut expect_y.as_view_mut(),
        );

        assert_matrix_eq(&p.y, &expect_y, 1e-12, "Y = A·V·T");
    }

    /// Oracle: the panel columns must match what the unblocked algorithm
    /// produces when run on the same matrix (same reflectors, same H
    /// values), for a panel starting at column 0.
    #[test]
    fn panel_matches_unblocked_prefix() {
        let n = 10;
        let ib = 3;
        let a0 = ft_matrix::random::uniform(n, n, 22);

        let mut ab = a0.clone();
        let p = lahr2(&mut ab, 0, ib);

        let mut au = a0.clone();
        let tau_u = crate::gehd2::gehd2(&mut au);

        // Reflector scales and stored panel sub-diagonal columns agree.
        for j in 0..ib {
            assert!((p.tau[j] - tau_u[j]).abs() < 1e-12, "tau[{j}]");
            for i in j + 1..n {
                assert!(
                    (ab[(i, j)] - au[(i, j)]).abs() < 1e-12,
                    "stored panel col {j}, row {i}: {} vs {}",
                    ab[(i, j)],
                    au[(i, j)]
                );
            }
        }
    }

    /// V is unit lower trapezoidal: zeros above the unit diagonal.
    #[test]
    fn v_structure() {
        let n = 9;
        let mut a = ft_matrix::random::uniform(n, n, 23);
        let p = lahr2(&mut a, 1, 3);
        for j in 0..3 {
            for r in 0..j {
                assert_eq!(p.v[(r, j)], 0.0, "V({r},{j}) above diagonal");
            }
            assert_eq!(p.v[(j, j)], 1.0, "V unit diagonal at {j}");
        }
        assert!(p.t.is_upper_triangular_tol(0.0));
    }

    /// T satisfies the compact WY identity: the block reflector built from
    /// (V, T) equals the product of the elementary reflectors.
    #[test]
    fn t_is_consistent_with_larft() {
        let n = 11;
        let mut a = ft_matrix::random::uniform(n, n, 24);
        let p = lahr2(&mut a, 0, 4);
        let t2 = crate::wy::larft(&p.v.as_view(), &p.tau);
        assert_matrix_eq(&p.t, &t2, 1e-12, "lahr2 T vs larft T");
    }
}
