//! Triangular matrix–matrix multiply:
//! `B ← α·op(T)·B` (left) or `B ← α·B·op(T)` (right).
//!
//! `Side::Left` is one `trmv` recurrence per column of `B`, after
//! scaling the column by `α`. The vector body, written once for both
//! widths, runs that recurrence for two registers' worth of columns at
//! once (8 under AVX2, 16 under AVX-512), one column per lane, so every
//! element keeps the scalar recurrence's operand order, zero-skip rule
//! (a per-lane select) and add order, and the result matches the
//! portable per-column body bit for bit on every value that is not NaN.

use super::{resolve_isa, Isa};
use crate::backend;
use crate::flops::{model, record};
use crate::level1::axpy;
use crate::level2::trmv_body;
#[cfg(target_arch = "x86_64")]
use crate::simd::F64Vec;
use crate::types::{Diag, Side, Trans, Uplo};
use ft_matrix::{MatView, MatViewMut};
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{__m256d, __m512d};

/// Triangular matrix–matrix multiply in place.
///
/// `T` is the `uplo` triangle of the leading square part of `a` (order =
/// `B.rows()` for `Side::Left`, `B.cols()` for `Side::Right`).
pub fn trmm(
    side: Side,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    alpha: f64,
    a: &MatView<'_>,
    b: &mut MatViewMut<'_>,
) {
    let (m, n) = (b.rows(), b.cols());
    let order = match side {
        Side::Left => m,
        Side::Right => n,
    };
    assert!(
        a.rows() >= order && a.cols() >= order,
        "trmm: triangle {}x{} smaller than order {order}",
        a.rows(),
        a.cols()
    );
    record(model::trmm(
        order,
        if matches!(side, Side::Left) { n } else { m },
    ));
    if m == 0 || n == 0 {
        return;
    }
    if alpha == 0.0 {
        b.fill(0.0);
        return;
    }
    let unit = matches!(diag, Diag::Unit);
    // Both backends run the same per-element code (`trmm_left` /
    // `trmm_right`); the threaded path only partitions independent
    // columns (left) or rows (right), so results are bit-identical.
    let workers = backend::fork_threads(order * order * order.max(m.max(n)));
    let isa = resolve_isa();

    match side {
        // Each column of B is an independent trmv: partition columns.
        Side::Left => {
            backend::for_each_tile(b.rb_mut(), 1, workers, |_, _, mut chunk| {
                trmm_left(isa, uplo, trans, diag, alpha, a, &mut chunk);
            });
        }
        // The right-side column sweeps update every column at each step,
        // but each update is elementwise per row: partition rows and run
        // the identical sweep on each row slice.
        Side::Right => {
            backend::for_each_tile(b.rb_mut(), workers, 1, |_, _, mut chunk| {
                trmm_right(uplo, trans, unit, alpha, a, &mut chunk);
            });
        }
    }
}

/// Serial `B ← α·op(T)·B` on (a column slice of) `B`.
fn trmm_left(
    isa: Isa,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    alpha: f64,
    a: &MatView<'_>,
    b: &mut MatViewMut<'_>,
) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Isa::Avx512` is only ever produced by `resolve_isa`
        // after runtime detection of the avx512f feature.
        Isa::Avx512 => unsafe { trmm_left_avx512(uplo, trans, diag, alpha, a, b) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Isa::Avx2` is only ever produced by `resolve_isa`
        // after runtime detection of the avx2 feature.
        Isa::Avx2 => unsafe { trmm_left_avx2(uplo, trans, diag, alpha, a, b) },
        _ => {
            for j in 0..b.cols() {
                trmm_left_scalar(uplo, trans, diag, alpha, a, b.col_mut(j));
            }
        }
    }
}

/// Reference body of the left product for one column of `B`: scale by
/// `α` (skipped when `α = 1`), then the `trmv` recurrence.
fn trmm_left_scalar(
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    alpha: f64,
    a: &MatView<'_>,
    col: &mut [f64],
) {
    if alpha != 1.0 {
        for v in col.iter_mut() {
            *v *= alpha;
        }
    }
    trmv_body(uplo, trans, diag, a, col);
}

/// Vector body of the left product, for both register widths: the
/// `trmv` recurrence of [`trmm_left_scalar`] for `W = 2·LANES` columns
/// of `B` at once (8 under AVX2, 16 under AVX-512), one column per lane.
/// The columns are copied (and scaled) into a row-major `m × W` arena
/// buffer so each row of the group is two vector loads; every lane then
/// performs its column's scalar operations in the scalar order, with the
/// `temp != 0` zero-skip of the `Trans::No` forms applied per lane by a
/// select. A last group of fewer than `W` columns repeats its final
/// column in the spare lanes, whose results are not written back.
///
/// # Safety
///
/// `V`'s ISA is present (the [`F64Vec`] contract).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn trmm_left_vec<V: F64Vec>(
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    alpha: f64,
    a: &MatView<'_>,
    b: &mut MatViewMut<'_>,
) {
    let lanes = V::LANES;
    let w = 2 * lanes;
    let (n, ncols) = (b.rows(), b.cols());
    let unit = matches!(diag, Diag::Unit);
    let mut scratch = crate::workspace::scratch(w * n);
    // All buffer accesses below go through `p`: row `i < n`, lane
    // `l < w` (or half `h ∈ {0, 1}`) stays inside the w·n elements.
    let p = scratch.as_mut_ptr();
    // Half `h` of row `i`. The closure computes an address only: a
    // closure that touched a vector would be compiled outside the
    // `#[target_feature]` entry, where the intrinsics cannot inline.
    let at = |i: usize, h: usize| {
        debug_assert!(i < n && h < 2);
        // SAFETY: in bounds by the comment above.
        unsafe { p.add(w * i + lanes * h) }
    };
    // SAFETY: `V`'s ISA is present (this fn's contract); every buffer
    // access is through `at` or indexed `i < n`, `l < w` (see `p`).
    unsafe {
        let (zero, mut j0) = (V::splat(0.0), 0);
        while j0 < ncols {
            let have = (ncols - j0).min(w);
            for l in 0..w {
                let src = b.col(j0 + l.min(have - 1));
                for (i, &v) in src.iter().enumerate() {
                    *p.add(w * i + l) = if alpha != 1.0 { v * alpha } else { v };
                }
            }
            match (uplo, trans) {
                (Uplo::Upper, Trans::No) => {
                    for j in 0..n {
                        let col = a.col(j);
                        for h in 0..2 {
                            let temp = V::load(at(j, h));
                            let live = V::nonzero(temp);
                            for (i, &c) in col.iter().enumerate().take(j) {
                                let x = V::load(at(i, h));
                                let upd = V::add(x, V::mul(temp, V::splat(c)));
                                V::store(at(i, h), V::select(live, x, upd));
                            }
                            if !unit {
                                let d = V::mul(temp, V::splat(col[j]));
                                V::store(at(j, h), V::select(live, zero, d));
                            }
                        }
                    }
                }
                (Uplo::Upper, Trans::Yes) => {
                    for j in (0..n).rev() {
                        let col = a.col(j);
                        let (mut lo, mut hi) = (V::load(at(j, 0)), V::load(at(j, 1)));
                        if !unit {
                            let d = V::splat(col[j]);
                            lo = V::mul(lo, d);
                            hi = V::mul(hi, d);
                        }
                        for (i, &c) in col.iter().enumerate().take(j) {
                            let c = V::splat(c);
                            lo = V::add(lo, V::mul(c, V::load(at(i, 0))));
                            hi = V::add(hi, V::mul(c, V::load(at(i, 1))));
                        }
                        V::store(at(j, 0), lo);
                        V::store(at(j, 1), hi);
                    }
                }
                (Uplo::Lower, Trans::No) => {
                    for j in (0..n).rev() {
                        let col = a.col(j);
                        for h in 0..2 {
                            let temp = V::load(at(j, h));
                            let live = V::nonzero(temp);
                            for (i, &c) in col.iter().enumerate().take(n).skip(j + 1) {
                                let x = V::load(at(i, h));
                                let upd = V::add(x, V::mul(temp, V::splat(c)));
                                V::store(at(i, h), V::select(live, x, upd));
                            }
                            if !unit {
                                V::store(at(j, h), V::mul(temp, V::splat(col[j])));
                            }
                        }
                    }
                }
                (Uplo::Lower, Trans::Yes) => {
                    for j in 0..n {
                        let col = a.col(j);
                        let (mut lo, mut hi) = (V::load(at(j, 0)), V::load(at(j, 1)));
                        if !unit {
                            let d = V::splat(col[j]);
                            lo = V::mul(lo, d);
                            hi = V::mul(hi, d);
                        }
                        for (i, &c) in col.iter().enumerate().take(n).skip(j + 1) {
                            let c = V::splat(c);
                            lo = V::add(lo, V::mul(c, V::load(at(i, 0))));
                            hi = V::add(hi, V::mul(c, V::load(at(i, 1))));
                        }
                        V::store(at(j, 0), lo);
                        V::store(at(j, 1), hi);
                    }
                }
            }
            for l in 0..have {
                for (i, v) in b.col_mut(j0 + l).iter_mut().enumerate() {
                    *v = *p.add(w * i + l);
                }
            }
            j0 += w;
        }
    }
}

/// AVX2 entry of [`trmm_left_vec`]: eight columns per group.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn trmm_left_avx2(
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    alpha: f64,
    a: &MatView<'_>,
    b: &mut MatViewMut<'_>,
) {
    // SAFETY: this fn is compiled for, and only entered on, AVX2.
    unsafe { trmm_left_vec::<__m256d>(uplo, trans, diag, alpha, a, b) }
}

/// AVX-512 entry of [`trmm_left_vec`]: sixteen columns per group.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn trmm_left_avx512(
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    alpha: f64,
    a: &MatView<'_>,
    b: &mut MatViewMut<'_>,
) {
    // SAFETY: this fn is compiled for, and only entered on, AVX-512F.
    unsafe { trmm_left_vec::<__m512d>(uplo, trans, diag, alpha, a, b) }
}

/// Serial `B ← α·B·op(T)` on (a row slice of) `B`; the sweep structure
/// only depends on the column count, which row slicing preserves.
fn trmm_right(
    uplo: Uplo,
    trans: Trans,
    unit: bool,
    alpha: f64,
    a: &MatView<'_>,
    b: &mut MatViewMut<'_>,
) {
    let n = b.cols();
    match (uplo, trans) {
        // B·U: result col j = Σ_{k≤j} B(:,k)·U(k,j); descending j keeps
        // the needed source columns unmodified.
        (Uplo::Upper, Trans::No) => {
            for j in (0..n).rev() {
                scale_col(b, j, alpha * diag_val(a, j, unit));
                for k in 0..j {
                    let akj = a.at(k, j);
                    if akj != 0.0 {
                        add_col(b, k, j, alpha * akj);
                    }
                }
            }
        }
        // B·L: result col j = Σ_{k≥j} B(:,k)·L(k,j); ascending j.
        (Uplo::Lower, Trans::No) => {
            for j in 0..n {
                scale_col(b, j, alpha * diag_val(a, j, unit));
                for k in (j + 1)..n {
                    let akj = a.at(k, j);
                    if akj != 0.0 {
                        add_col(b, k, j, alpha * akj);
                    }
                }
            }
        }
        // B·Uᵀ: result col j = Σ_{k≥j} B(:,k)·U(j,k); ascending j.
        (Uplo::Upper, Trans::Yes) => {
            for j in 0..n {
                scale_col(b, j, alpha * diag_val(a, j, unit));
                for k in (j + 1)..n {
                    let ajk = a.at(j, k);
                    if ajk != 0.0 {
                        add_col(b, k, j, alpha * ajk);
                    }
                }
            }
        }
        // B·Lᵀ: result col j = Σ_{k≤j} B(:,k)·L(j,k); descending j.
        (Uplo::Lower, Trans::Yes) => {
            for j in (0..n).rev() {
                scale_col(b, j, alpha * diag_val(a, j, unit));
                for k in 0..j {
                    let ajk = a.at(j, k);
                    if ajk != 0.0 {
                        add_col(b, k, j, alpha * ajk);
                    }
                }
            }
        }
    }
}

#[inline]
fn diag_val(a: &MatView<'_>, j: usize, unit: bool) -> f64 {
    if unit {
        1.0
    } else {
        a.at(j, j)
    }
}

#[inline]
fn scale_col(b: &mut MatViewMut<'_>, j: usize, factor: f64) {
    for v in b.col_mut(j) {
        *v *= factor;
    }
}

/// `B(:,dst) += factor · B(:,src)` for distinct columns of the same view.
#[inline]
fn add_col(b: &mut MatViewMut<'_>, src: usize, dst: usize, factor: f64) {
    debug_assert_ne!(src, dst);
    // Split so both columns can be borrowed at once without copying.
    let cut = src.max(dst);
    let (mut left, mut right) = b.rb_mut().split_at_col(cut);
    if src < dst {
        axpy(factor, left.col(src), right.col_mut(dst - cut));
    } else {
        axpy(factor, right.col(src - cut), left.col_mut(dst));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_matrix::{max_abs_diff, Matrix};

    fn dense_triangle(a: &Matrix, uplo: Uplo, diag: Diag, order: usize) -> Matrix {
        Matrix::from_fn(order, order, |i, j| {
            let in_tri = match uplo {
                Uplo::Upper => i <= j,
                Uplo::Lower => i >= j,
            };
            if i == j && matches!(diag, Diag::Unit) {
                1.0
            } else if in_tri {
                a[(i, j)]
            } else {
                0.0
            }
        })
    }

    #[test]
    fn all_sixteen_variants_match_dense_gemm() {
        let m = 5;
        let n = 4;
        let b0 = ft_matrix::random::uniform(m, n, 10);
        for side in [Side::Left, Side::Right] {
            let order = if matches!(side, Side::Left) { m } else { n };
            let a = ft_matrix::random::uniform(order, order, 20);
            for uplo in [Uplo::Upper, Uplo::Lower] {
                for trans in [Trans::No, Trans::Yes] {
                    for diag in [Diag::Unit, Diag::NonUnit] {
                        let t = dense_triangle(&a, uplo, diag, order);
                        let mut expect = Matrix::zeros(m, n);
                        match side {
                            Side::Left => crate::level3::gemm_ref(
                                trans,
                                Trans::No,
                                1.5,
                                &t.as_view(),
                                &b0.as_view(),
                                0.0,
                                &mut expect.as_view_mut(),
                            ),
                            Side::Right => crate::level3::gemm_ref(
                                Trans::No,
                                trans,
                                1.5,
                                &b0.as_view(),
                                &t.as_view(),
                                0.0,
                                &mut expect.as_view_mut(),
                            ),
                        }
                        let mut b = b0.clone();
                        trmm(
                            side,
                            uplo,
                            trans,
                            diag,
                            1.5,
                            &a.as_view(),
                            &mut b.as_view_mut(),
                        );
                        let err = max_abs_diff(&b, &expect);
                        assert!(
                            err < 1e-12,
                            "{side:?} {uplo:?} {trans:?} {diag:?}: err {err}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn alpha_zero_clears() {
        let a = Matrix::identity(3);
        let mut b = ft_matrix::random::uniform(3, 3, 1);
        trmm(
            Side::Left,
            Uplo::Upper,
            Trans::No,
            Diag::NonUnit,
            0.0,
            &a.as_view(),
            &mut b.as_view_mut(),
        );
        assert_eq!(b, Matrix::zeros(3, 3));
    }

    #[test]
    fn identity_triangle_scales_only() {
        let a = Matrix::identity(4);
        let b0 = ft_matrix::random::uniform(4, 2, 2);
        let mut b = b0.clone();
        trmm(
            Side::Left,
            Uplo::Lower,
            Trans::No,
            Diag::NonUnit,
            2.0,
            &a.as_view(),
            &mut b.as_view_mut(),
        );
        let mut expect = b0;
        expect.scale(2.0);
        assert!(max_abs_diff(&b, &expect) < 1e-15);
    }
}
