//! Checksum-extended block updates and their exact reversals.
//!
//! Forward updates implement Algorithm 3 lines 8–11 on the extended
//! matrix; the reverse functions implement line 14 ("reverse the last left
//! update and right update") by *re-adding the retained intermediates* —
//! the diskless-checkpoint form of reverse computation: since `Y`, `Vx`,
//! `T` and the left-update inner product `W` are still live at detection
//! time, the reversal re-applies the identical products with the opposite
//! sign, restoring matrix and checksums to the previous iteration's state
//! up to one rounding of the add/subtract pair.

use crate::encode::ExtMatrix;
use ft_blas::{gemm, trmm, Diag, Side, Trans, Uplo};
use ft_matrix::Matrix;

/// Forward right update (Algorithm 3 lines 8 & 10, extended):
///
/// * trailing columns and the checksum column, all rows (including the
///   checksum row): `Ax(:, k+ib ..= n) −= Yx · Vx(ib−1.., :)ᵀ`;
/// * the rows above the panel, panel columns `k+1 ..= k+ib−1`:
///   `Ax(0..=k, ·) −= Yx(0..=k, :) · Vx(0..ib−1, :)ᵀ`
///   (the panel rows below were finished inside the panel factorization).
pub fn right_update_ext(ax: &mut ExtMatrix, k: usize, ib: usize, yx: &Matrix, vx: &Matrix) {
    apply_right(ax, k, ib, yx, vx, -1.0);
}

/// The trailing-columns half of [`right_update_ext`] alone (Algorithm 3
/// line 10 — the `G` update, including both checksum borders).
pub fn right_update_trailing(ax: &mut ExtMatrix, k: usize, ib: usize, yx: &Matrix, vx: &Matrix) {
    apply_right_trailing(ax, k, ib, yx, vx, -1.0);
}

/// The panel-columns half of [`right_update_ext`] alone (Algorithm 3
/// line 8 — the `M` update restricted to the rows above the panel).
pub fn right_update_panel_top(ax: &mut ExtMatrix, k: usize, ib: usize, yx: &Matrix, vx: &Matrix) {
    if ib > 1 {
        let data = ax.raw_mut();
        gemm(
            Trans::No,
            Trans::Yes,
            -1.0,
            &yx.view(0, 0, k + 1, ib),
            &vx.view(0, 0, ib - 1, ib),
            1.0,
            &mut data.view_mut(0, k + 1, k + 1, ib - 1),
        );
    }
}

/// Exact reversal of [`right_update_ext`] **excluding** the panel-column
/// part (the panel is restored from its checkpoint instead).
pub fn reverse_right_update_ext(ax: &mut ExtMatrix, k: usize, ib: usize, yx: &Matrix, vx: &Matrix) {
    apply_right_trailing(ax, k, ib, yx, vx, 1.0);
}

fn apply_right(ax: &mut ExtMatrix, k: usize, ib: usize, yx: &Matrix, vx: &Matrix, sign: f64) {
    apply_right_trailing(ax, k, ib, yx, vx, sign);
    // Panel columns k+1 ..= k+ib−1, rows above the panel.
    if ib > 1 {
        let data = ax.raw_mut();
        gemm(
            Trans::No,
            Trans::Yes,
            sign,
            &yx.view(0, 0, k + 1, ib),
            &vx.view(0, 0, ib - 1, ib),
            1.0,
            &mut data.view_mut(0, k + 1, k + 1, ib - 1),
        );
    }
}

fn apply_right_trailing(
    ax: &mut ExtMatrix,
    k: usize,
    ib: usize,
    yx: &Matrix,
    vx: &Matrix,
    sign: f64,
) {
    let n = ax.n();
    let m = n - k - 1;
    assert_eq!(yx.rows(), n + 1, "Yx must be (n+1) rows");
    assert_eq!(vx.rows(), m + 1, "Vx must be (m+1) rows");
    assert_eq!(yx.cols(), ib);
    assert_eq!(vx.cols(), ib);
    let jcount = m - ib + 2; // trailing real columns + checksum column
    let data = ax.raw_mut();
    gemm(
        Trans::No,
        Trans::Yes,
        sign,
        &yx.as_view(),
        &vx.view(ib - 1, 0, jcount, ib),
        1.0,
        &mut data.view_mut(0, k + ib, n + 1, jcount),
    );
}

/// Forward left update (Algorithm 3 line 11, extended):
/// `Ax(k+1..=n, k+ib..=n) −= Vx · Tᵀ · (Vᵀ · Ax(k+1..n, k+ib..=n))`,
/// where `V` is the real part of `Vx` (rows `0..m`) and the target rows
/// include the checksum row via `Vx`'s extension row.
///
/// Returns the inner product `W = Vᵀ·Ax(...)` — the retained intermediate
/// that makes the reversal exact. `W` is `ib × (m−ib+2)`.
pub fn left_update_ext(ax: &mut ExtMatrix, k: usize, ib: usize, vx: &Matrix, t: &Matrix) -> Matrix {
    let n = ax.n();
    let m = n - k - 1;
    let jcount = m - ib + 2;
    let mut w = Matrix::zeros(ib, jcount);
    {
        let data = ax.raw();
        gemm(
            Trans::Yes,
            Trans::No,
            1.0,
            &vx.view(0, 0, m, ib),
            &data.view(k + 1, k + ib, m, jcount),
            0.0,
            &mut w.as_view_mut(),
        );
    }
    apply_left(ax, k, ib, vx, t, &w, -1.0);
    w
}

/// Exact reversal of [`left_update_ext`] using the retained `W`.
pub fn reverse_left_update_ext(
    ax: &mut ExtMatrix,
    k: usize,
    ib: usize,
    vx: &Matrix,
    t: &Matrix,
    w: &Matrix,
) {
    apply_left(ax, k, ib, vx, t, w, 1.0);
}

fn apply_left(
    ax: &mut ExtMatrix,
    k: usize,
    ib: usize,
    vx: &Matrix,
    t: &Matrix,
    w: &Matrix,
    sign: f64,
) {
    let n = ax.n();
    let m = n - k - 1;
    let jcount = m - ib + 2;
    assert_eq!(w.rows(), ib);
    assert_eq!(w.cols(), jcount);
    // W2 = Tᵀ·W (recomputed identically in forward and reverse).
    let mut w2 = w.clone();
    trmm(
        Side::Left,
        Uplo::Upper,
        Trans::Yes,
        Diag::NonUnit,
        1.0,
        &t.as_view(),
        &mut w2.as_view_mut(),
    );
    let data = ax.raw_mut();
    gemm(
        Trans::No,
        Trans::No,
        sign,
        &vx.as_view(),
        &w2.as_view(),
        1.0,
        &mut data.view_mut(k + 1, k + ib, m + 1, jcount),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{extend_v, extend_y, ExtMatrix};
    use ft_lapack::lahr2;

    /// Builds a mid-factorization scenario: run `lahr2` on a copy to get
    /// genuine (V, T, Y), extend them, and return everything needed to
    /// exercise the extended updates at panel `k`.
    fn scenario(n: usize, k: usize, ib: usize, seed: u64) -> (ExtMatrix, Matrix, Matrix, Matrix) {
        let a = ft_matrix::random::uniform(n, n, seed);
        let ax = ExtMatrix::encode(&a);
        let mut work = a.clone();
        let panel = lahr2(&mut work, k, ib);
        let chk_seg: Vec<f64> = (k + 1..n).map(|j| a.col(j).iter().sum()).collect();
        let yx = extend_y(&panel.y, &chk_seg, &panel.v, &panel.t);
        let vx = extend_v(&panel.v);
        (ax, yx, vx, panel.t)
    }

    #[test]
    fn right_then_reverse_roundtrips_trailing() {
        let (ax0, yx, vx, _t) = scenario(12, 2, 3, 5);
        let mut ax = ax0.clone();
        right_update_ext(&mut ax, 2, 3, &yx, &vx);
        assert!(
            ft_matrix::max_abs_diff(ax.raw(), ax0.raw()) > 1e-6,
            "update must change the matrix"
        );
        reverse_right_update_ext(&mut ax, 2, 3, &yx, &vx);
        // Trailing + checksum region restored; panel columns k+1..k+ib-1
        // (rows 0..=k) are *not* reversed — they are checkpoint territory.
        let n = 12;
        for j in (2 + 3)..=n {
            for i in 0..=n {
                let d = (ax.raw()[(i, j)] - ax0.raw()[(i, j)]).abs();
                assert!(d < 1e-12, "({i},{j}) differs by {d}");
            }
        }
    }

    #[test]
    fn left_then_reverse_roundtrips() {
        let (ax0, _yx, vx, t) = scenario(12, 2, 3, 6);
        let mut ax = ax0.clone();
        let w = left_update_ext(&mut ax, 2, 3, &vx, &t);
        assert!(ft_matrix::max_abs_diff(ax.raw(), ax0.raw()) > 1e-9);
        reverse_left_update_ext(&mut ax, 2, 3, &vx, &t, &w);
        assert!(
            ft_matrix::max_abs_diff(ax.raw(), ax0.raw()) < 1e-12,
            "left reversal must restore everything it touched"
        );
    }

    #[test]
    fn reversal_restores_injected_error_state() {
        // Reversal must restore the *erroneous* previous state exactly —
        // that is the point: checksums and data become consistent modulo
        // the single wrong element, which locate() then finds.
        let (mut ax0, yx, vx, t) = scenario(10, 1, 3, 7);
        ax0.raw_mut()[(5, 7)] += 0.123; // corrupt before the updates
        let mut ax = ax0.clone();
        right_update_ext(&mut ax, 1, 3, &yx, &vx);
        let w = left_update_ext(&mut ax, 1, 3, &vx, &t);
        reverse_left_update_ext(&mut ax, 1, 3, &vx, &t, &w);
        reverse_right_update_ext(&mut ax, 1, 3, &yx, &vx);
        for j in 4..=10 {
            for i in 0..=10 {
                let d = (ax.raw()[(i, j)] - ax0.raw()[(i, j)]).abs();
                assert!(d < 1e-12, "({i},{j}) differs by {d}");
            }
        }
    }

    #[test]
    fn w_has_expected_shape() {
        let (mut ax, _yx, vx, t) = scenario(14, 3, 4, 8);
        let w = left_update_ext(&mut ax, 3, 4, &vx, &t);
        let m = 14 - 3 - 1;
        assert_eq!(w.rows(), 4);
        assert_eq!(w.cols(), m - 4 + 2);
    }
}
