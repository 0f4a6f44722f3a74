//! Why `FtConfig::online_abft` stays: the fault class it catches that
//! the paper's iteration-level detector cannot repair.
//!
//! A transient strike on a *checksum border* element written by the
//! right trailing update — the checksum column or the checksum row of
//! the extended matrix — trips the `Sre`/`Sce` test like any other
//! fault. But after the reversal the border deficit is one-sided: only
//! a row residue or only a column residue fires, so `locate_errors`
//! cannot pair it with a data element and reports `resolved == false`.
//! The driver then flags the run instead of correcting it. The fused
//! online-ABFT GEMM sees the same strike inside the update, locates it
//! from its own row and column residues, and corrects it before the
//! iteration ends, so the detector stays quiet.
//!
//! The test replays the driver's first two iterations through the same
//! public layers the driver calls (n = 64, nb = 16, seed 7), striking
//! the second iteration's (k = 16) right trailing update through
//! `gemm_ft_with_inject`: Δ = 0.37 into the checksum column at rows 5
//! and 30, or into the checksum row at column 3.

use ft_blas::{gemm_ft_with_inject, AbftInject, AbftOptions, AbftReport, Trans};
use ft_hessenberg::encode::{extend_v, extend_y};
use ft_hessenberg::reverse::{
    left_update_ext, reverse_left_update_ext, reverse_right_update_ext, right_update_panel_top,
    right_update_trailing,
};
use ft_hessenberg::{locate_errors, ExtMatrix, FtConfig, ThresholdPolicy};
use ft_lapack::{lahr2_within, Panel};
use ft_matrix::Matrix;

const N: usize = 64;
const NB: usize = 16;
const K: usize = 16;
/// Columns of the struck update's output: the trailing data columns plus
/// the checksum column.
const JCOUNT: usize = N - K - 1 - NB + 2;
const DELTA: f64 = 0.37;

/// One iteration's retained operands (the diskless checkpoint).
struct Iter {
    panel: Panel,
    yx: Matrix,
    vx: Matrix,
    w_left: Matrix,
}

/// The driver's iteration body with the right trailing update supplied
/// by the caller.
fn iteration(
    ax: &mut ExtMatrix,
    k: usize,
    ib: usize,
    right_trailing: impl FnOnce(&mut ExtMatrix, &Matrix, &Matrix),
) -> Iter {
    let n = ax.n();
    let panel = lahr2_within(ax.raw_mut(), n, k, ib);
    let chk_seg: Vec<f64> = (k + 1..n).map(|j| ax.chk_row(j)).collect();
    let yx = extend_y(&panel.y, &chk_seg, &panel.v, &panel.t);
    let vx = extend_v(&panel.v);
    right_update_panel_top(ax, k, ib, &yx, &vx);
    right_trailing(ax, &yx, &vx);
    let w_left = left_update_ext(ax, k, ib, &vx, &panel.t);
    ax.refresh_chk_row(k, k + ib, k + ib);
    Iter {
        panel,
        yx,
        vx,
        w_left,
    }
}

/// What the struck iteration left behind.
struct Outcome {
    abft: AbftReport,
    /// The iteration-level `Sre`/`Sce` test fired.
    detected: bool,
    /// After the driver's reversal, `locate_errors` resolved the pattern
    /// (only meaningful when `detected`).
    resolved: bool,
}

/// Runs iteration 0 clean, then iteration 1 (k = 16) with one strike at
/// `(row, col)` of the right trailing update's output — the
/// `(N+1) × JCOUNT` block whose last column is the checksum column and
/// whose last row is the checksum row.
fn strike(row: usize, col: usize, correct: bool) -> Outcome {
    let a = ft_matrix::random::uniform(N, N, 7);
    let cfg = FtConfig::with_nb(NB);
    let threshold = cfg.threshold.resolve(&a);
    let loc_tol = threshold / (N as f64).sqrt();
    let mut ax = ExtMatrix::encode_with(&a, cfg.checksum_scheme);

    iteration(&mut ax, 0, NB, |ax, yx, vx| {
        right_update_trailing(ax, 0, NB, yx, vx)
    });
    assert!(!ThresholdPolicy::exceeded(ax.sre() - ax.sce(), threshold));

    let checkpoint = ax.raw().sub_matrix(0, K, N + 1, NB);
    let mut abft = None;
    let it = iteration(&mut ax, K, NB, |ax, yx, vx| {
        let data = ax.raw_mut();
        abft = Some(gemm_ft_with_inject(
            Trans::No,
            Trans::Yes,
            -1.0,
            &yx.as_view(),
            &vx.view(NB - 1, 0, JCOUNT, NB),
            1.0,
            &mut data.view_mut(0, K + NB, N + 1, JCOUNT),
            AbftOptions {
                correct,
                ..AbftOptions::default()
            },
            &[AbftInject {
                row,
                col,
                delta: DELTA,
            }],
        ));
    });
    let abft = abft.expect("the right trailing update ran");
    let detected = ThresholdPolicy::exceeded(ax.sre() - ax.sce(), threshold);
    let mut resolved = true;
    if detected {
        reverse_left_update_ext(&mut ax, K, NB, &it.vx, &it.panel.t, &it.w_left);
        reverse_right_update_ext(&mut ax, K, NB, &it.yx, &it.vx);
        ax.raw_mut().set_sub_matrix(0, K, &checkpoint);
        resolved = locate_errors(&ax, K, loc_tol).resolved;
    }
    Outcome {
        abft,
        detected,
        resolved,
    }
}

/// Border positions in the trailing update's output: two rows of the
/// checksum column, and one column of the checksum row.
fn border_faults() -> [(usize, usize, &'static str); 3] {
    [
        (5, JCOUNT - 1, "checksum column, row 5"),
        (30, JCOUNT - 1, "checksum column, row 30"),
        (N, 3, "checksum row, column 3"),
    ]
}

#[test]
fn without_online_correction_border_faults_are_flagged_not_repaired() {
    for (row, col, what) in border_faults() {
        let out = strike(row, col, false);
        assert!(out.abft.detected >= 1, "{what}: online residues fire");
        assert_eq!(out.abft.corrected, 0, "{what}: nothing corrected");
        assert!(out.detected, "{what}: the Sre/Sce test must fire");
        assert!(
            !out.resolved,
            "{what}: after the reversal the deficit is one-sided and unresolvable"
        );
    }
}

#[test]
fn online_correction_repairs_border_faults_inside_the_gemm() {
    for (row, col, what) in border_faults() {
        let out = strike(row, col, true);
        assert!(out.abft.resolved, "{what}: {:?}", out.abft);
        assert_eq!(out.abft.corrected, 1, "{what}: {:?}", out.abft);
        assert!(!out.detected, "{what}: the Sre/Sce test stays quiet");
    }
}

#[test]
fn control_a_data_fault_is_repaired_by_the_iteration_level_path() {
    // The same strike on a data element of the trailing block: the
    // reversal leaves a matched row/column residue pair, which the
    // paper's locate step resolves without online ABFT.
    let out = strike(20, 10, false);
    assert!(out.detected);
    assert!(out.resolved, "a data fault stays locatable");
}
