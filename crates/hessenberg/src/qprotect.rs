//! Host-side protection of the `Q` factor (paper §IV-E).
//!
//! The Householder vectors live below the first sub-diagonal of the
//! reduced columns. They are generated on the host, never modified — and
//! never *read* — after their panel finishes, so one checksum per row and
//! per column suffices to locate and correct an error, and the check only
//! needs to run once, at the end of the factorization. The drivers encode
//! the reflectors their verified run produced (a panel's `V`, a column's
//! `v`), as the paper's host encodes the panel it factorized, rather than
//! reading them back from storage: a strike on the storage between the
//! factorization and the commit stays a deficit for the end-of-run check.
//!
//! The check has no matcher of its own: it hands the row and column
//! deficits to the trailing-matrix matcher ([`crate::recovery`]), so a
//! cancelling pair in one row or column, an equal-magnitude rectangle and
//! a NaN or infinite entry come back unresolved instead of being guessed
//! at. The drivers' end-of-run check corrects a resolved pattern, locates
//! again, and flags whatever is still deficient.
//!
//! Checksum maintenance mirrors Figure 5 of the paper: when a panel
//! finishes, its per-row partial sums are folded into the running
//! row-checksum vector (`Qr_chk`, the dashed line on the left) and its
//! per-column sums are written into the corresponding *segment* of the
//! column-checksum vector (`Qc_chk`, the dashed line at the bottom),
//! which is never touched again. The reflector scales `tau` carry their
//! own scalar checksum.

use crate::recovery::{locate_deficits, LocateOutcome};
use ft_matrix::Matrix;

/// Running checksums over the `Q` (Householder-vector) storage region.
#[derive(Clone, Debug)]
pub struct QProtection {
    n: usize,
    /// Row sums over all absorbed panels (`Qr_chk`), length `n`.
    qr_chk: Vec<f64>,
    /// Per-column sums (`Qc_chk`), length `n`; segment `j` written when
    /// column `j`'s panel finishes.
    qc_chk: Vec<f64>,
    /// Scalar checksum over the reflector scales.
    tau_sum: f64,
    /// Columns absorbed so far (the frontier).
    frontier: usize,
}

impl QProtection {
    /// Empty protection state for an `n × n` factorization.
    pub fn new(n: usize) -> Self {
        QProtection {
            n,
            qr_chk: vec![0.0; n],
            qc_chk: vec![0.0; n],
            tau_sum: 0.0,
            frontier: 0,
        }
    }

    /// Columns protected so far.
    pub fn frontier(&self) -> usize {
        self.frontier
    }

    /// Absorbs a finished panel: columns `k..k+ib` of `packed` (an
    /// `(n+…) × (n+…)` storage whose leading `n × n` block is the LAPACK
    /// packed factorization), with reflector scales `taus`.
    ///
    /// Must be called in order (`k == frontier`), *after* the iteration
    /// has been verified — so a rolled-back iteration is never absorbed
    /// twice.
    pub fn absorb_panel(&mut self, packed: &Matrix, k: usize, ib: usize, taus: &[f64]) {
        self.absorb_reflectors(|j| packed.col(j), 0, k, ib, taus);
    }

    /// [`QProtection::absorb_panel`] from a reflector source instead of
    /// the packed storage: `col(j)` holds column `j`'s reflector, its
    /// first element at global row `row0`. The drivers pass the reflectors
    /// their verified run produced, so a strike on the storage after the
    /// factorization wrote it stays a deficit for the end-of-run check.
    pub(crate) fn absorb_reflectors<'a>(
        &mut self,
        col: impl Fn(usize) -> &'a [f64],
        row0: usize,
        k: usize,
        ib: usize,
        taus: &[f64],
    ) {
        assert_eq!(k, self.frontier, "panels must be absorbed in order");
        assert_eq!(
            taus.len(),
            ib,
            "absorb_panel: {} reflector scales for a panel of {ib} columns",
            taus.len()
        );
        let j1 = (k + ib).min(self.n);
        sweep_reflectors(
            col,
            row0,
            self.n,
            k,
            &mut self.qr_chk,
            &mut self.qc_chk[k.min(j1)..j1],
        );
        for &t in taus {
            self.tau_sum += t;
        }
        self.frontier = k + ib;
    }

    /// Locates errors in the reflector storage of `packed`: fresh row and
    /// column sums against the running checksums, matched by the
    /// trailing-matrix rule of [`crate::recovery`] (Huang–Abraham: a
    /// rectangle, or several deficits on one axis, is unresolved).
    pub(crate) fn locate(&self, packed: &Matrix, tol: f64) -> LocateOutcome {
        let n = self.n;
        let mut row_sums = vec![0.0; n];
        let mut col_sums = vec![0.0; n];
        sweep_reflectors(
            |j| packed.col(j),
            0,
            n,
            0,
            &mut row_sums,
            &mut col_sums[..self.frontier.min(n)],
        );
        locate_deficits(
            row_sums.iter().zip(&self.qr_chk).map(|(s, c)| s - c),
            col_sums.iter().zip(&self.qc_chk).map(|(s, c)| s - c),
            tol,
        )
    }

    /// One locate-and-correct round over the reflector storage (paper
    /// §IV-F): fresh row and column sums against the running checksums,
    /// matched by the trailing-matrix rule of [`crate::recovery`]; a
    /// resolved pattern is corrected in place. The drivers' end-of-run
    /// check locates again after every correction.
    pub fn verify_and_correct(&self, packed: &mut Matrix, tol: f64) -> LocateOutcome {
        let out = self.locate(packed, tol);
        if out.resolved {
            for e in &out.errors {
                packed[(e.row, e.col)] -= e.delta;
            }
        }
        out
    }

    /// Verifies and repairs a single corrupted `tau` via the scalar
    /// checksum. Returns the corrected index, if any.
    pub fn verify_taus(&self, taus: &mut [f64], tol: f64) -> Option<usize> {
        let sum: f64 = taus.iter().sum();
        let d = sum - self.tau_sum;
        if d.abs() <= tol {
            return None;
        }
        // Locate which tau is off: LAPACK taus are either 0 or in [1, 2];
        // with a single corruption the deficit identifies it only if we
        // know the clean value. We repair by distributing the deficit to
        // the unique out-of-range entry if one exists.
        let suspect = taus
            .iter()
            .position(|&t| t.is_nan() || !(t == 0.0 || (1.0..=2.0).contains(&t)))?;
        // Recompute from the checksum minus the healthy entries (robust to
        // a NaN corruption, where subtracting the deficit would be NaN).
        let others: f64 = taus
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != suspect)
            .map(|(_, &t)| t)
            .sum();
        taus[suspect] = self.tau_sum - others;
        Some(suspect)
    }
}

/// Adds the reflector entries of columns `j0..j0 + colsums.len()` —
/// rows `j + 2..n` of column `j`, read from `col(j)`, whose first element
/// is at row `row0 ≤ j0 + 1` — into `rowsums`, and writes each column's
/// sum into `colsums`. Every row sum receives its columns in ascending
/// order and every column sum starts from `+0.0` and adds its rows in
/// ascending order. Four columns share each pass over the rows below the
/// group, so their sum chains run side by side.
fn sweep_reflectors<'a>(
    col: impl Fn(usize) -> &'a [f64],
    row0: usize,
    n: usize,
    j0: usize,
    rowsums: &mut [f64],
    colsums: &mut [f64],
) {
    let mut quads = colsums.chunks_exact_mut(4);
    let mut j = j0;
    for quad in &mut quads {
        // Rows above the fourth column's first reflector row go column
        // by column, which keeps each row's column order ascending.
        let body = (j + 5).min(n);
        let mut s: [f64; 4] =
            std::array::from_fn(|q| add_reflector_rows(col(j + q), row0, j + q, body, rowsums));
        let [c0, c1, c2, c3] = [0, 1, 2, 3].map(|q| &col(j + q)[body - row0..n - row0]);
        for (i, r) in rowsums[body..n].iter_mut().enumerate() {
            let v = [c0[i], c1[i], c2[i], c3[i]];
            *r = *r + v[0] + v[1] + v[2] + v[3];
            s[0] += v[0];
            s[1] += v[1];
            s[2] += v[2];
            s[3] += v[3];
        }
        quad.copy_from_slice(&s);
        j += 4;
    }
    for (q, sq) in quads.into_remainder().iter_mut().enumerate() {
        *sq = add_reflector_rows(col(j + q), row0, j + q, n, rowsums);
    }
}

/// Adds rows `c + 2..end` of column `c` — `column`, whose first element
/// is at row `row0` — to `rowsums`; returns their sum (from `+0.0`,
/// ascending rows).
fn add_reflector_rows(
    column: &[f64],
    row0: usize,
    c: usize,
    end: usize,
    rowsums: &mut [f64],
) -> f64 {
    let start = (c + 2).min(end);
    let mut s = 0.0;
    for (r, &v) in rowsums[start..end]
        .iter_mut()
        .zip(&column[start - row0..end - row0])
    {
        *r += v;
        s += v;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_lapack::{gehrd, GehrdConfig};

    /// A real packed factorization plus fully-absorbed protection.
    fn protected(n: usize, nb: usize, seed: u64) -> (Matrix, Vec<f64>, QProtection) {
        let mut a = ft_matrix::random::uniform(n, n, seed);
        let tau = gehrd(&mut a, &GehrdConfig { nb, nx: 1 });
        let mut q = QProtection::new(n);
        let mut k = 0;
        while k < n - 2 {
            let ib = nb.min(n - 2 - k);
            q.absorb_panel(&a, k, ib, &tau[k..k + ib]);
            k += ib;
        }
        (a, tau, q)
    }

    #[test]
    fn clean_q_verifies_clean() {
        let (mut a, _tau, q) = protected(24, 6, 1);
        let out = q.verify_and_correct(&mut a, 1e-10);
        assert!(out.resolved && out.errors.is_empty(), "{out:?}");
    }

    #[test]
    fn single_q_error_corrected() {
        let (mut a, _tau, q) = protected(24, 6, 2);
        let truth = a[(15, 4)]; // below sub-diagonal of a reduced column
        a[(15, 4)] += 0.125;
        let out = q.verify_and_correct(&mut a, 1e-10);
        assert!(out.resolved);
        assert_eq!(out.errors.len(), 1);
        assert_eq!((out.errors[0].row, out.errors[0].col), (15, 4));
        assert!((a[(15, 4)] - truth).abs() < 1e-12);
        assert!(q.locate(&a, 1e-10).errors.is_empty());
    }

    #[test]
    fn two_q_errors_distinct_rows_cols() {
        let (mut a, _tau, q) = protected(30, 8, 3);
        let t1 = a[(10, 3)];
        let t2 = a[(22, 17)];
        a[(10, 3)] += 0.5;
        a[(22, 17)] -= 0.25;
        let out = q.verify_and_correct(&mut a, 1e-10);
        assert!(out.resolved);
        assert_eq!(out.errors.len(), 2);
        assert!((a[(10, 3)] - t1).abs() < 1e-12);
        assert!((a[(22, 17)] - t2).abs() < 1e-12);
    }

    /// Patterns the matcher cannot attribute to elements: they come back
    /// unresolved, and `verify_and_correct` leaves the storage as it is.
    #[test]
    fn unresolved_q_patterns_are_reported_and_left_alone() {
        let cases: [&[(usize, usize, f64)]; 5] = [
            // A cancelling pair in one column: two row deficits only.
            &[(20, 5, 0.5), (40, 5, -0.5)],
            // A cancelling pair in one row: two column deficits only.
            &[(30, 5, 0.5), (30, 9, -0.5)],
            // An equal-magnitude rectangle.
            &[(20, 5, 0.5), (20, 9, 0.5), (40, 5, 0.5), (40, 9, 0.5)],
            // A NaN and an infinity: their deficits never match.
            &[(30, 5, f64::NAN)],
            &[(30, 5, f64::INFINITY)],
        ];
        for strikes in cases {
            let (mut a, _tau, q) = protected(48, 8, 4);
            for &(i, j, d) in strikes {
                a[(i, j)] += d;
            }
            let struck = a.clone();
            let out = q.verify_and_correct(&mut a, 1e-10);
            assert!(!out.resolved, "{strikes:?}: {out:?}");
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&struck), "{strikes:?}");
        }
    }

    #[test]
    fn out_of_order_absorb_panics() {
        let (a, tau, _) = protected(12, 4, 4);
        let mut q = QProtection::new(12);
        let result = std::panic::catch_unwind(move || {
            q.absorb_panel(&a, 4, 4, &tau[4..8]); // skips panel 0
        });
        assert!(result.is_err());
    }

    #[test]
    #[should_panic(expected = "reflector scales")]
    fn absorb_panel_rejects_short_taus() {
        let (a, tau, _) = protected(12, 4, 6);
        let mut q = QProtection::new(12);
        q.absorb_panel(&a, 0, 4, &tau[0..3]);
    }

    /// The four-column sweep against the column-by-column loop it
    /// replaced, bit for bit, from the storage and from a source that
    /// starts lower: every row sum and every column sum (from +0.0) sees
    /// the same terms in the same order. The storage carries
    /// an all-(−0.0) row and column, whose sums keep the sign of zero
    /// only from a +0.0 start, and a NaN.
    #[test]
    fn sweep_matches_column_by_column_reference() {
        let n = 23;
        let mut packed = ft_matrix::random::uniform(n + 1, n + 1, 8);
        for j in 0..=n {
            packed[(14, j)] = -0.0;
        }
        for i in 0..=n {
            packed[(i, 6)] = -0.0;
        }
        packed[(19, 2)] = f64::NAN;
        for backend in [ft_blas::Backend::Serial, ft_blas::Backend::Threaded(4)] {
            for (j0, j1) in [
                (0, n),
                (0, n - 2),
                (3, 10),
                (4, 8),
                (17, n),
                (n - 1, n),
                (5, 5),
            ] {
                let seed_rows: Vec<f64> = (0..n).map(|i| i as f64 * 0.5 - 3.0).collect();
                let mut want_rows = seed_rows.clone();
                let mut want_cols = vec![0.0; j1 - j0];
                for j in j0..j1 {
                    let mut colsum = 0.0;
                    for i in (j + 2)..n {
                        want_rows[i] += packed[(i, j)];
                        colsum += packed[(i, j)];
                    }
                    want_cols[j - j0] = colsum;
                }
                // The storage itself, and a source that starts at row
                // j0 + 1 as a panel's reflectors do.
                let row0 = j0 + 1;
                let below = packed.sub_matrix(row0, 0, n + 1 - row0, n + 1);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                for (source, origin) in [(&packed, 0), (&below, row0)] {
                    let mut rows = seed_rows.clone();
                    let mut cols = vec![f64::NAN; j1 - j0];
                    ft_blas::with_backend(backend, || {
                        sweep_reflectors(|j| source.col(j), origin, n, j0, &mut rows, &mut cols)
                    });
                    let what = format!("{backend:?} {j0}..{j1} from row {origin}");
                    assert_eq!(bits(&rows), bits(&want_rows), "rows {what}");
                    assert_eq!(bits(&cols), bits(&want_cols), "cols {what}");
                }
            }
        }
    }

    #[test]
    fn tau_checksum_repairs_nan() {
        let (a, mut tau, q) = protected(20, 5, 5);
        let _ = a;
        let truth = tau[3];
        tau[3] = f64::NAN;
        let fixed = q.verify_taus(&mut tau, 1e-10);
        assert_eq!(fixed, Some(3));
        assert!(!tau[3].is_nan(), "repair must clear the NaN");
        assert!((tau[3] - truth).abs() < 1e-9, "{} vs {truth}", tau[3]);
    }
}
