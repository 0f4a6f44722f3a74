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
//! deficits forming a rectangle) is reported as unresolved. The matcher
//! is [`ft_blas::match_deficits`], the one the fused online-ABFT GEMM
//! verifies its output with.

use crate::encode::ExtMatrix;

/// One located error: position and signed deviation (`stored − correct`)
/// of the stored value from the checksum-consistent value.
pub use ft_blas::AbftError as LocatedError;

/// Outcome of localization.
#[derive(Clone, Debug)]
pub struct LocateOutcome {
    /// The located errors.
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
    let (errors, resolved) = ft_blas::match_deficits(row_def, col_def, tol);
    LocateOutcome { errors, resolved }
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
}
