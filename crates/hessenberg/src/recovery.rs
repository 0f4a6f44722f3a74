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

use crate::encode::ExtMatrix;

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
#[allow(clippy::neg_cmp_op_on_partial_ord)] // deliberate: NaN must count as exceeded
pub fn locate_errors(ax: &ExtMatrix, frontier: usize, tol: f64) -> LocateOutcome {
    let n = ax.n();
    let row_sums = ax.math_row_sums(frontier);
    let col_sums = ax.math_col_sums(frontier);
    let mut row_def: Vec<(usize, f64)> = vec![];
    let mut col_def: Vec<(usize, f64)> = vec![];
    for i in 0..n {
        let d = row_sums[i] - ax.chk_col()[i];
        if !(d.abs() <= tol) {
            row_def.push((i, d));
        }
    }
    for j in 0..n {
        let d = col_sums[j] - ax.chk_row(j);
        if !(d.abs() <= tol) {
            col_def.push((j, d));
        }
    }
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
