//! Error localization and correction (paper §IV-F).
//!
//! After the reversal has restored a checksum-consistent state, fresh row
//! and column sums are recomputed and compared against the stored
//! checksums (`A'r_chk` vs `Ar_chk`, `A'c_chk` vs `Ac_chk`). A corrupted
//! element `(i, j)` with deviation `ε` shows up as `+ε` in exactly row
//! deficit `i` and column deficit `j`; the element is corrected by
//! subtracting the deficit — equivalently, by the paper's
//! `A(i,j) = Ar_chk(i) − Σ_{k≠j} A(i,k)` formula.
//!
//! Multiple simultaneous errors are resolvable as long as their positions
//! do not form a rectangle (paper §I): the matcher peels unique
//! row/column deficit matches; a fully ambiguous configuration (equal
//! deficits forming a rectangle) is reported as unresolved.
//!
//! A corrupted stored checksum entry breaks only its own relation
//! (Huang–Abraham): exactly one row deficit and no column deficit, or the
//! reverse. That pattern locates no data error but counts as resolved —
//! the caller re-encodes the checksums from the intact data. Every other
//! one-sided pattern stays unresolved: several indices on one axis (what
//! data faults cancelling within one column or row leave), a deficit
//! within `CHECKSUM_ENTRY_MARGIN·tol` (possibly a data fault whose
//! partner deficit fell under `tol`), and NaN.
//!
//! The same matcher serves the trailing-matrix recovery, the end-of-run
//! check of the finished `H` region and the `Q` storage check
//! ([`crate::qprotect`]).
//!
//! This module also holds the recovery policy of Algorithm 3 that both
//! drivers share: the per-iteration `repair` step, the per-iteration
//! verdict `record_iteration`, and the end-of-run `final_check`, which
//! locates again after every correction. Each driver keeps only its own
//! reduction, reversal, detector and commit.

use crate::encode::ExtMatrix;
use crate::qprotect::QProtection;
use crate::report::{FailureReason, FtReport, PhaseBreakdown, RecoveryEvent};

/// How far a lone one-sided deficit must clear `tol` to be read as a
/// corrupted checksum entry. A data fault's row and column deficits agree
/// to rounding, so its partner can hide under `tol` only when the visible
/// deficit is itself close to `tol`.
const CHECKSUM_ENTRY_MARGIN: f64 = 2.0;

/// One located error: position and signed deviation (`stored − correct`)
/// of the stored value from the checksum-consistent value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LocatedError {
    /// Row of the corrupted element.
    pub row: usize,
    /// Column of the corrupted element.
    pub col: usize,
    /// `stored − correct`.
    pub delta: f64,
}

/// Outcome of localization.
#[derive(Clone, Debug)]
pub struct LocateOutcome {
    /// The located errors. Empty with `resolved` set when nothing was
    /// wrong or only a stored checksum entry was: callers re-encode the
    /// checksums from the data.
    pub errors: Vec<LocatedError>,
    /// `false` when the deficit pattern was ambiguous (rectangle case) or
    /// inconsistent; callers should fall back to a full re-execution.
    pub resolved: bool,
}

/// Recomputes checksums of the restored state and matches deficits.
///
/// `frontier` is the number of fully reduced columns (the Hessenberg mask
/// boundary); `tol` the deficit significance threshold (same scale as the
/// detection threshold).
pub fn locate_errors(ax: &ExtMatrix, frontier: usize, tol: f64) -> LocateOutcome {
    let row_sums = ax.math_row_sums(frontier);
    let col_sums = ax.math_col_sums(frontier);
    locate_deficits(
        row_sums.iter().zip(ax.chk_col()).map(|(s, c)| s - c),
        col_sums.iter().enumerate().map(|(j, s)| s - ax.chk_row(j)),
        tol,
    )
}

/// Locates errors from the deficits `fresh sum − stored checksum` of every
/// row and every column, in index order: the deficits beyond `tol` (NaN
/// included) go to [`match_deficits`].
#[allow(clippy::neg_cmp_op_on_partial_ord)] // deliberate: NaN must count as exceeded
pub(crate) fn locate_deficits(
    row_deficits: impl Iterator<Item = f64>,
    col_deficits: impl Iterator<Item = f64>,
    tol: f64,
) -> LocateOutcome {
    let significant = |(i, d): (usize, f64)| (!(d.abs() <= tol)).then_some((i, d));
    let row_def = row_deficits.enumerate().filter_map(significant).collect();
    let col_def = col_deficits.enumerate().filter_map(significant).collect();
    let (errors, resolved) = match_deficits(row_def, col_def, tol);
    LocateOutcome { errors, resolved }
}

/// Matches row checksum deficits against column checksum deficits, each
/// a `(index, deficit)` pair whose deficit exceeded `tol`. A corrupted
/// element `(i, j)` off by `ε` shows up as `+ε` in exactly row deficit `i`
/// and column deficit `j`.
///
/// A single deficient row (or column) takes every error on the other axis;
/// scattered deficits are peeled by unique matches within
/// `tol.max(1e-9·max|d|)`; equal-magnitude rectangles are unresolvable by
/// construction. A lone one-sided deficit beyond
/// `CHECKSUM_ENTRY_MARGIN·tol` is a corrupted checksum entry: no
/// errors, resolved. Any other one-sided pattern cannot be attributed to
/// an element. Returns the located errors and whether the whole pattern
/// was resolved.
fn match_deficits(
    row_def: Vec<(usize, f64)>,
    col_def: Vec<(usize, f64)>,
    tol: f64,
) -> (Vec<LocatedError>, bool) {
    match (row_def.as_slice(), col_def.as_slice()) {
        ([], []) => (Vec::new(), true),
        // A corrupted checksum entry: the data is intact.
        ([(_, d)], []) | ([], [(_, d)]) => (Vec::new(), d.abs() > CHECKSUM_ENTRY_MARGIN * tol),
        // All errors share one row: columns identify each error.
        (&[(r, rd)], cols) => {
            let errors: Vec<LocatedError> = cols
                .iter()
                .map(|&(j, d)| LocatedError {
                    row: r,
                    col: j,
                    delta: d,
                })
                .collect();
            let sum: f64 = errors.iter().map(|e| e.delta).sum();
            let resolved = (sum - rd).abs() <= tol.max(1e-8 * rd.abs());
            (errors, resolved)
        }
        // All errors share one column: rows identify each error.
        (rows, &[(cj, cd)]) => {
            let errors: Vec<LocatedError> = rows
                .iter()
                .map(|&(i, d)| LocatedError {
                    row: i,
                    col: cj,
                    delta: d,
                })
                .collect();
            let sum: f64 = errors.iter().map(|e| e.delta).sum();
            let resolved = (sum - cd).abs() <= tol.max(1e-8 * cd.abs());
            (errors, resolved)
        }
        // Several one-sided deficits cannot be attributed to elements.
        ([], _) | (_, []) => (Vec::new(), false),
        _ => peel_matches(row_def, col_def, tol),
    }
}

fn peel_matches(
    mut rows: Vec<(usize, f64)>,
    mut cols: Vec<(usize, f64)>,
    tol: f64,
) -> (Vec<LocatedError>, bool) {
    let mut errors = Vec::new();
    let match_tol = |a: f64, b: f64| (a - b).abs() <= tol.max(1e-9 * a.abs().max(b.abs()));
    loop {
        if rows.is_empty() && cols.is_empty() {
            return (errors, true);
        }
        if rows.is_empty() != cols.is_empty() {
            return (errors, false);
        }
        let mut progress = false;
        'outer: for ri in 0..rows.len() {
            let (r, rd) = rows[ri];
            let candidates: Vec<usize> = (0..cols.len())
                .filter(|&ci| match_tol(rd, cols[ci].1))
                .collect();
            if candidates.len() == 1 {
                let ci = candidates[0];
                let (cj, _cd) = cols[ci];
                errors.push(LocatedError {
                    row: r,
                    col: cj,
                    delta: rd,
                });
                rows.remove(ri);
                cols.remove(ci);
                progress = true;
                break 'outer;
            }
        }
        if !progress {
            // The rectangle ambiguity: every row deficit matches 0 or ≥2
            // column deficits.
            return (errors, false);
        }
    }
}

/// Applies corrections in place: `A(i,j) −= delta` (paper §IV-F's checksum
/// subtraction, expressed through the deficit).
pub fn correct_errors(ax: &mut ExtMatrix, errors: &[LocatedError]) {
    for e in errors {
        let old = ax.raw()[(e.row, e.col)];
        ax.raw_mut()[(e.row, e.col)] = old - e.delta;
    }
}

/// How one iteration of a driver went: its recovery episodes and whether
/// the detector still fired when the attempts ran out.
pub(crate) struct Outcome {
    /// One episode per reverse/locate/correct/re-execute cycle.
    pub(crate) recoveries: Vec<RecoveryEvent>,
    /// The detector still fired after the last attempt.
    pub(crate) gave_up: bool,
}

/// The repair step of one recovery (Algorithm 3 line 14, after the
/// reversal restored the iteration's starting state): locate the errors
/// under `frontier`, correct them, and re-encode the checksums from the
/// data when nothing was located — a corrupted checksum entry, or a
/// pattern no element explains. Returns the episode, with the `mismatch`
/// that tripped the detector.
pub(crate) fn repair(
    ax: &mut ExtMatrix,
    frontier: usize,
    tol: f64,
    iteration: usize,
    mismatch: f64,
    phases: &mut PhaseBreakdown,
) -> RecoveryEvent {
    let out = {
        let _span = ft_trace::span!("ft.locate", iteration => &mut phases.locate);
        locate_errors(ax, frontier, tol)
    };
    {
        let _span = ft_trace::span!("ft.correct", iteration => &mut phases.correct);
        correct_errors(ax, &out.errors);
    }
    if out.errors.is_empty() {
        let _span = ft_trace::span!("ft.encode" => &mut phases.encode);
        ax.reencode(frontier);
    }
    RecoveryEvent {
        iteration,
        mismatch,
        corrected: out.errors.iter().map(|e| (e.row, e.col, e.delta)).collect(),
        resolved: out.resolved,
    }
}

/// The verdict on one iteration: logs its `recovery` episodes and, when
/// it gave up, a `giveup` episode, and names the run's failure after its
/// first flagged iteration — [`FailureReason::RecoveryExhausted`] when the
/// detector still fired after the last attempt (the driver re-encoded the
/// checksums over the data as it stood),
/// [`FailureReason::UnresolvedRecovery`] when an episode located no
/// explanation. Counts the re-executions and the iteration.
pub(crate) fn record_iteration(
    report: &mut FtReport,
    failure: &mut Option<FailureReason>,
    protection: &'static str,
    iteration: usize,
    outcome: Outcome,
) {
    report.redone_iterations += outcome.recoveries.len();
    let unresolved = outcome.recoveries.iter().any(|e| !e.resolved);
    for event in outcome.recoveries {
        log_recovery(report, protection, "recovery", event);
    }
    if outcome.gave_up {
        let event = RecoveryEvent {
            iteration,
            mismatch: f64::NAN,
            corrected: vec![],
            resolved: false,
        };
        log_recovery(report, protection, "giveup", event);
        failure.get_or_insert(FailureReason::RecoveryExhausted { iteration });
    }
    if unresolved {
        failure.get_or_insert(FailureReason::UnresolvedRecovery { iteration });
    }
    report.iterations += 1;
}

/// Locate-and-correct rounds of the end-of-run check. Correcting an
/// overflow-scale strike `x` subtracts `fl(x − c) = x` and leaves 0 where
/// the true value was; the second round's deficits are that value. A third
/// round changed nothing on the grid of `tests/final_check_faults.rs`.
const FINAL_ROUNDS: usize = 2;

/// The end-of-run check of both FT drivers (paper §IV-F): the finished
/// region of `ax` under the frontier `tau.len()`, then — with `qprot` —
/// the `Q` storage and `tau`. Each region goes through [`check_region`].
///
/// Logs one `final` episode per check that corrected or flagged anything.
/// `Q` repairs are reported in [`FtReport::q_corrections`] instead, so the
/// `Q` check's episode only flags. Returns `false` when either region is
/// still deficient or unresolved.
pub(crate) fn final_check(
    ax: &mut ExtMatrix,
    qprot: Option<&QProtection>,
    tau: &mut [f64],
    tol: f64,
    protection: &'static str,
    report: &mut FtReport,
) -> bool {
    let frontier = tau.len();
    let phases = &mut report.phases;
    let (h_fixes, h_clean) = check_region(
        ax,
        |ax| {
            let _span = ft_trace::span!("ft.locate" => &mut phases.locate);
            locate_errors(ax, frontier, tol)
        },
        |ax, errors| {
            let _span = ft_trace::span!("ft.correct" => &mut phases.correct);
            correct_errors(ax, errors);
        },
    );
    let q_clean = qprot.is_none_or(|qprot| {
        let _span = ft_trace::span!("ft.qprotect" => &mut report.phases.qprotect);
        let q_tol = tol.max(1e-12);
        let (q_fixes, clean) = check_region(ax, |ax| qprot.locate(ax.raw(), q_tol), correct_errors);
        report.q_corrections = q_fixes;
        report.tau_corrections.extend(qprot.verify_taus(tau, 1e-10));
        clean
    });
    for (corrected, resolved) in [(h_fixes, h_clean), (vec![], q_clean)] {
        if !corrected.is_empty() || !resolved {
            let event = RecoveryEvent {
                iteration: report.iterations,
                mismatch: f64::NAN,
                corrected,
                resolved,
            };
            log_recovery(report, protection, "final", event);
        }
    }
    h_clean && q_clean
}

/// One region of [`final_check`]: locate, correct a resolved pattern and
/// locate again, at most [`FINAL_ROUNDS`] times; an unresolved pattern is
/// left as it is. Returns the corrections, one entry per element with the
/// rounds' deltas summed, and whether the last locate found nothing.
fn check_region(
    ax: &mut ExtMatrix,
    mut locate: impl FnMut(&ExtMatrix) -> LocateOutcome,
    mut correct: impl FnMut(&mut ExtMatrix, &[LocatedError]),
) -> (Vec<(usize, usize, f64)>, bool) {
    let mut fixes: Vec<(usize, usize, f64)> = vec![];
    let mut out = locate(ax);
    for _ in 0..FINAL_ROUNDS {
        if !out.resolved || out.errors.is_empty() {
            break;
        }
        correct(ax, &out.errors);
        for e in &out.errors {
            match fixes.iter_mut().find(|f| (f.0, f.1) == (e.row, e.col)) {
                Some(f) => f.2 += e.delta,
                None => fixes.push((e.row, e.col, e.delta)),
            }
        }
        out = locate(ax);
    }
    (fixes, out.resolved && out.errors.is_empty())
}

/// Counts one recovery episode (`ft.recoveries`, and its corrections in
/// `ft.corrections`), journals it under the `protection` label and
/// reports it.
fn log_recovery(
    report: &mut FtReport,
    protection: &'static str,
    phase: &'static str,
    event: RecoveryEvent,
) {
    let corrected = event.corrected.len();
    ft_trace::counter("ft.recoveries").incr();
    ft_trace::counter("ft.corrections").add(corrected as u64);
    let (iteration, mismatch, resolved) = (event.iteration, event.mismatch, event.resolved);
    ft_trace::journal::record(iteration, phase, protection, corrected, mismatch, resolved);
    report.recoveries.push(event);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn consistent(n: usize, seed: u64) -> ExtMatrix {
        ExtMatrix::encode(&ft_matrix::random::uniform(n, n, seed))
    }

    #[test]
    fn clean_matrix_locates_nothing() {
        let ax = consistent(8, 1);
        let out = locate_errors(&ax, 0, 1e-10);
        assert!(out.resolved);
        assert!(out.errors.is_empty());
    }

    #[test]
    fn single_error_located_and_corrected() {
        let mut ax = consistent(8, 2);
        let truth = ax.raw()[(3, 5)];
        ax.raw_mut()[(3, 5)] += 0.25;
        let out = locate_errors(&ax, 0, 1e-10);
        assert!(out.resolved);
        assert_eq!(out.errors.len(), 1);
        let e = out.errors[0];
        assert_eq!((e.row, e.col), (3, 5));
        assert!((e.delta - 0.25).abs() < 1e-12);
        correct_errors(&mut ax, &out.errors);
        assert!((ax.raw()[(3, 5)] - truth).abs() < 1e-12);
        assert!(locate_errors(&ax, 0, 1e-10).errors.is_empty());
    }

    #[test]
    fn two_errors_same_row() {
        let mut ax = consistent(8, 3);
        ax.raw_mut()[(2, 1)] += 0.5;
        ax.raw_mut()[(2, 6)] -= 0.75;
        let out = locate_errors(&ax, 0, 1e-10);
        assert!(out.resolved, "{out:?}");
        assert_eq!(out.errors.len(), 2);
        correct_errors(&mut ax, &out.errors);
        assert!(locate_errors(&ax, 0, 1e-10).errors.is_empty());
    }

    #[test]
    fn two_errors_same_column() {
        let mut ax = consistent(8, 4);
        ax.raw_mut()[(1, 4)] += 0.5;
        ax.raw_mut()[(6, 4)] += 0.25;
        let out = locate_errors(&ax, 0, 1e-10);
        assert!(out.resolved);
        assert_eq!(out.errors.len(), 2);
        correct_errors(&mut ax, &out.errors);
        assert!(locate_errors(&ax, 0, 1e-10).errors.is_empty());
    }

    #[test]
    fn three_scattered_errors_non_rectangle() {
        let mut ax = consistent(10, 5);
        // Distinct magnitudes at distinct rows and columns.
        ax.raw_mut()[(1, 2)] += 0.5;
        ax.raw_mut()[(4, 7)] += 0.875;
        ax.raw_mut()[(8, 3)] -= 0.3125;
        let out = locate_errors(&ax, 0, 1e-10);
        assert!(out.resolved, "{out:?}");
        assert_eq!(out.errors.len(), 3);
        correct_errors(&mut ax, &out.errors);
        assert!(locate_errors(&ax, 0, 1e-10).errors.is_empty());
    }

    #[test]
    fn rectangle_with_equal_magnitudes_is_unresolved() {
        let mut ax = consistent(8, 6);
        // (2,3), (2,5), (6,3), (6,5) all +0.5: a rectangle — ambiguous.
        for &(i, j) in &[(2usize, 3usize), (2, 5), (6, 3), (6, 5)] {
            let old = ax.raw()[(i, j)];
            ax.raw_mut()[(i, j)] = old + 0.5;
        }
        let out = locate_errors(&ax, 0, 1e-10);
        // Row deficits: rows 2 and 6 each 1.0; column deficits: 3 and 5
        // each 1.0. Every row matches both columns: unresolvable.
        assert!(!out.resolved);
    }

    #[test]
    fn respects_frontier_mask() {
        // An error in Householder storage (below sub-diagonal, reduced
        // column) is invisible to the mathematical checksums — by design,
        // Q storage is protected separately.
        let a = ft_matrix::random::uniform(8, 8, 7);
        let mut ax = ExtMatrix::encode(&a);
        // Make the checksums those of the *masked* view with frontier 3.
        let rs = ax.math_row_sums(3);
        let cs = ax.math_col_sums(3);
        let n = ax.n();
        for i in 0..n {
            ax.raw_mut()[(i, n)] = rs[i];
        }
        for j in 0..n {
            ax.raw_mut()[(n, j)] = cs[j];
        }
        let clean = locate_errors(&ax, 3, 1e-10);
        assert!(clean.resolved && clean.errors.is_empty());
        // Corrupt masked storage: still clean mathematically.
        ax.raw_mut()[(7, 0)] += 123.0;
        let out = locate_errors(&ax, 3, 1e-10);
        assert!(out.errors.is_empty());
        // Corrupt an unmasked element: located.
        ax.raw_mut()[(1, 0)] += 0.5;
        let out = locate_errors(&ax, 3, 1e-10);
        assert_eq!(out.errors.len(), 1);
        assert_eq!((out.errors[0].row, out.errors[0].col), (1, 0));
    }

    const TOL: f64 = 1e-10;

    /// `check_region` against scripted locate outcomes: how many locates
    /// it runs, what it corrects, and what it calls clean.
    fn scripted(script: Vec<LocateOutcome>) -> (Vec<(usize, usize, f64)>, bool, usize, usize) {
        let mut ax = consistent(4, 10);
        let mut script = script.into_iter();
        let (mut locates, mut corrections) = (0, 0);
        let (fixes, clean) = check_region(
            &mut ax,
            |_| {
                locates += 1;
                script.next().expect("locate called past the script")
            },
            |_, _| corrections += 1,
        );
        (fixes, clean, locates, corrections)
    }

    fn found(errors: &[(usize, usize, f64)]) -> LocateOutcome {
        LocateOutcome {
            errors: errors
                .iter()
                .map(|&(row, col, delta)| LocatedError { row, col, delta })
                .collect(),
            resolved: true,
        }
    }

    #[test]
    fn check_region_locates_again_after_each_correction() {
        let clean = found(&[]);
        // Nothing found: one locate, clean.
        assert_eq!(scripted(vec![clean.clone()]), (vec![], true, 1, 0));
        // A repair is trusted only once a fresh locate finds nothing.
        assert_eq!(
            scripted(vec![found(&[(3, 1, 0.5)]), clean.clone()]),
            (vec![(3, 1, 0.5)], true, 2, 1)
        );
        // The second round's delta at the same element is summed into its
        // entry; a new element gets its own.
        assert_eq!(
            scripted(vec![
                found(&[(3, 1, 0.75)]),
                found(&[(3, 1, -0.25), (2, 0, 0.5)]),
                clean.clone(),
            ]),
            (vec![(3, 1, 0.5), (2, 0, 0.5)], true, 3, 2)
        );
        // Still deficient after two rounds: not clean, no third correction.
        assert_eq!(
            scripted(vec![
                found(&[(3, 1, 0.5)]),
                found(&[(3, 1, 0.5)]),
                found(&[(3, 1, 0.5)]),
            ]),
            (vec![(3, 1, 1.0)], false, 3, 2)
        );
        // An unresolved pattern is neither corrected nor clean.
        let unresolved = LocateOutcome {
            errors: vec![LocatedError {
                row: 3,
                col: 1,
                delta: f64::NAN,
            }],
            resolved: false,
        };
        assert_eq!(scripted(vec![unresolved]), (vec![], false, 1, 0));
    }

    #[test]
    fn matched_deficits_locate_each_error() {
        // One pair, then scattered pairs peeled by unique magnitudes.
        let (errors, resolved) = match_deficits(vec![(3, 0.75)], vec![(7, 0.75)], TOL);
        assert!(resolved);
        assert_eq!(
            errors,
            vec![LocatedError {
                row: 3,
                col: 7,
                delta: 0.75
            }]
        );
        let rows = vec![(3, 0.5), (40, -0.875), (66, 0.25)];
        let cols = vec![(10, 0.5), (200, -0.875), (299, 0.25)];
        let (errors, resolved) = match_deficits(rows, cols, TOL);
        assert!(resolved);
        let at: Vec<(usize, usize)> = errors.iter().map(|e| (e.row, e.col)).collect();
        assert_eq!(at, vec![(3, 10), (40, 200), (66, 299)]);
    }

    #[test]
    fn rectangle_deficits_are_unresolved() {
        let rows = vec![(5, 1.0), (30, 1.0)];
        let cols = vec![(7, 1.0), (20, 1.0)];
        let (errors, resolved) = match_deficits(rows, cols, TOL);
        assert!(!resolved);
        assert!(errors.is_empty());
    }

    #[test]
    fn lone_one_sided_deficit_is_a_checksum_entry() {
        for (rows, cols) in [(vec![(4, 0.37)], vec![]), (vec![], vec![(9, -2.5)])] {
            let (errors, resolved) = match_deficits(rows, cols, TOL);
            assert!(resolved);
            assert!(errors.is_empty(), "{errors:?}");
        }
        // Just beyond the margin still counts.
        let d = CHECKSUM_ENTRY_MARGIN * TOL * 1.01;
        assert!(match_deficits(vec![(4, d)], vec![], TOL).1);
    }

    #[test]
    fn one_sided_deficit_near_tol_is_unresolved() {
        // The partner deficit of a data fault may have fallen under `tol`.
        for d in [1.5 * TOL, -CHECKSUM_ENTRY_MARGIN * TOL] {
            let (errors, resolved) = match_deficits(vec![(4, d)], vec![], TOL);
            assert!(!resolved, "d={d:e}");
            assert!(errors.is_empty());
            assert!(!match_deficits(vec![], vec![(4, d)], TOL).1, "d={d:e}");
        }
    }

    #[test]
    fn cancelling_one_sided_deficits_are_unresolved() {
        // +0.5 at (2, 5) and −0.5 at (4, 5): the column sum cancels, the
        // rows do not.
        let (errors, resolved) = match_deficits(vec![(2, 0.5), (4, -0.5)], vec![], TOL);
        assert!(!resolved);
        assert!(errors.is_empty());
        let mut ax = consistent(8, 8);
        ax.raw_mut()[(2, 5)] += 0.5;
        ax.raw_mut()[(4, 5)] -= 0.5;
        let out = locate_errors(&ax, 0, TOL);
        assert!(!out.resolved, "{out:?}");
    }

    #[test]
    fn nan_deficit_is_unresolved() {
        let (errors, resolved) = match_deficits(vec![(4, f64::NAN)], vec![], TOL);
        assert!(!resolved);
        assert!(errors.is_empty());
        assert!(!match_deficits(vec![], vec![(1, f64::NAN)], TOL).1);
    }

    #[test]
    fn corrupted_checksum_entry_locates_nothing_and_resolves() {
        let n = 8;
        for (row, col) in [(3, n), (n, 6)] {
            let mut ax = consistent(n, 9);
            ax.raw_mut()[(row, col)] += 0.37;
            let out = locate_errors(&ax, 0, TOL);
            assert!(
                out.resolved && out.errors.is_empty(),
                "({row},{col}): {out:?}"
            );
        }
    }
}
