//! Fault-tolerant symmetric tridiagonal reduction — the paper's §VII
//! extension claim ("the methodology … is generic enough to be applicable
//! to the entire spectrum of two-sided factorizations"), demonstrated on
//! a second two-sided factorization.
//!
//! The same three ingredients carry over unchanged:
//!
//! * **ABFT checksums**: the symmetric rank-2 update
//!   `A ← A − v·wᵀ − w·vᵀ` extends to the checksum borders with the
//!   column sums of `v` and `w` (the tridiagonal analogue of `Vce`);
//! * **diskless checkpointing**: per reduced column, the pre-step column
//!   and row (including their checksum entries) are retained until the
//!   next verification point, plus the `(v, w)` update operands and, per
//!   run of a group, the checksum borders it started from — in total a
//!   panel's worth of memory, matching the paper's budget;
//! * **reverse computation**: on detection the retained rank-2 operands
//!   are re-added in LIFO order and the column/row storage restored from
//!   the checkpoints, after which the standard locate/correct/redo cycle
//!   runs.
//!
//! The driver takes the Hessenberg driver's [`FtConfig`]. Detection runs
//! every [`FtConfig::nb`] columns (the cadence analogue of the Hessenberg
//! panel iteration), and each group goes through the same recovery steps
//! ([`crate::recovery`]): repair after the reversal, and one verdict per
//! group. The run ends with the same end-of-run check: the finished
//! region, then `Q` storage ([`crate::qprotect`]) and `tau`. What it
//! cannot clear is logged as an unresolved [`crate::RecoveryEvent`] and
//! named in [`FtTridiagOutcome::failure`], exactly as the Hessenberg driver
//! does.
//!
//! # Detection for symmetric updates: mixed-path checksum routing
//!
//! The Hessenberg detector compares `Sre` (sum of row checksums) against
//! `Sce` (sum of column checksums); a silent corruption makes the two
//! aggregates diverge because the two-sided updates treat rows and
//! columns asymmetrically. The symmetric rank-2 update
//! `A ← A − v·wᵀ − w·vᵀ` does not: if both checksum borders are
//! maintained with the *same* scalars `(Σv, Σw)`, a corruption perturbs
//! them through identical terms and `Sre − Sce` stays zero forever — the
//! plain detector is structurally blind, no matter which path computes
//! the scalars.
//!
//! The remedy implemented here is **mixed-path routing**: the row-sum
//! border is updated with `Σw` computed through the *checksum* path
//! (`eᵀw = τ·(Ac_chk − row_i)·v + coef·Σv` — the tridiagonal analogue of
//! the paper's `Yce`), while the column-sum border uses `Σw` from the
//! *data* path. The two scalars differ by exactly `τ·(drᵀv)`, where `dr`
//! is the column-checksum defect vector — so **any** inconsistency
//! between data and checksums (off-diagonal errors, diagonal errors,
//! even corrupted checksum entries) injects a growing divergence into
//! `Sre − Sce` and trips the detector at the next group boundary. A
//! second, non-uniformly weighted checksum pair (`ω = (1, 2, …, n)`)
//! provides redundant coverage through the same mechanism.

use crate::encode::ExtMatrix;
use crate::ft_alg::FtConfig;
use crate::qprotect::QProtection;
use crate::recovery::{final_check, record_iteration, repair, Outcome};
use crate::report::{FailureReason, FtReport, PhaseBreakdown};
use crate::threshold::ThresholdPolicy;
use ft_blas::{dot, gemv, ger, Trans};
use ft_fault::{FaultPlan, Phase};
use ft_lapack::householder::larfg;
use ft_lapack::sytrd::TridiagFactorization;
use ft_matrix::Matrix;

/// Result of a fault-tolerant tridiagonal reduction.
#[derive(Debug)]
pub struct FtTridiagOutcome {
    /// The (recovered) tridiagonal factorization.
    pub result: TridiagFactorization,
    /// Detection/recovery telemetry.
    pub report: FtReport,
    /// `Some` exactly when the report holds an unresolved episode
    /// ([`FtReport::any_unresolved`]), as in [`crate::FtOutcome::failure`];
    /// the iteration it names is a group index.
    pub failure: Option<FailureReason>,
}

/// The second, non-uniformly-weighted checksum pair (`Aω` and `ωᵀA` with
/// `ω = (1, 2, …, n)`) that makes symmetric-consistent corruptions
/// observable (see module docs).
struct WeightedChecksums {
    omega: Vec<f64>,
    /// `A·ω` (one entry per row).
    col: Vec<f64>,
    /// `ωᵀ·A` (one entry per column).
    row: Vec<f64>,
}

impl WeightedChecksums {
    /// The weighted pair of a freshly encoded `ax`.
    fn encode(ax: &ExtMatrix) -> Self {
        let n = ax.n();
        let mut wchk = WeightedChecksums {
            omega: (1..=n).map(|c| c as f64).collect(),
            col: vec![0.0; n],
            row: vec![0.0; n],
        };
        wchk.reencode(ax, 0);
        wchk
    }

    /// `Σ(Aω) − Σ(ωᵀA)` — zero for a consistent (symmetric) state.
    fn aggregate_mismatch(&self) -> f64 {
        let s1: f64 = self.col.iter().sum();
        let s2: f64 = self.row.iter().sum();
        s1 - s2
    }

    /// Recomputes both vectors from the extended matrix under the
    /// Hessenberg-storage mask.
    fn reencode(&mut self, ax: &ExtMatrix, frontier: usize) {
        let n = ax.n();
        self.col.iter_mut().for_each(|v| *v = 0.0);
        self.row.iter_mut().for_each(|v| *v = 0.0);
        for c in 0..n {
            for r in 0..n {
                let v = ax.math_at(r, c, frontier);
                self.col[r] += v * self.omega[c];
                self.row[c] += v * self.omega[r];
            }
        }
    }
}

/// Retained state for one reduced column (the diskless checkpoint unit).
struct ColumnArtifacts {
    i: usize,
    tau: f64,
    /// Rank-2 operands extended with their sums: `[v; Σv]`, `[w; Σw]`.
    vx: Vec<f64>,
    wx: Vec<f64>,
    /// Pre-step extended column `i` and row `i` (length `n + 1` each).
    col_checkpoint: Vec<f64>,
    row_checkpoint: Vec<f64>,
}

/// Runs the fault-tolerant reduction under `cfg`, whose `nb` is the
/// detection cadence in columns. `plan` injects faults at group
/// boundaries (iteration = group index). The level-2 kernels and the
/// checksum sums run under [`FtConfig::backend`] for the whole call, as in
/// [`crate::ft_gehrd_hybrid`]; [`FtConfig::q_checksums_on_host`] only
/// moves simulated charges, and this CPU-only driver has none.
pub fn ft_sytd2(a: &Matrix, cfg: &FtConfig, plan: &mut FaultPlan) -> FtTridiagOutcome {
    ft_blas::with_backend(cfg.backend, || ft_sytd2_inner(a, cfg, plan))
}

fn ft_sytd2_inner(a: &Matrix, cfg: &FtConfig, plan: &mut FaultPlan) -> FtTridiagOutcome {
    assert!(a.is_square(), "ft_sytd2: matrix must be square");
    let n = a.rows();
    let group = cfg.nb.max(1);
    let threshold = cfg.threshold.resolve(a);
    let loc_tol = threshold / (n as f64).sqrt().max(1.0);
    // The weighted aggregates carry an extra factor of up to n in scale.
    let threshold_w = threshold * n as f64;
    let label = if cfg.protect_q {
        "tridiag+q"
    } else {
        "tridiag"
    };

    let wall_start = ft_trace::clock::Stopwatch::start();
    let mut report = FtReport {
        n,
        nb: group,
        threshold,
        ..Default::default()
    };
    let mut failure = None;
    let (mut ax, mut wchk) = {
        let _span = ft_trace::span!("ft.encode" => &mut report.phases.encode);
        let ax = ExtMatrix::encode_with(a, cfg.checksum_scheme);
        let wchk = WeightedChecksums::encode(&ax);
        (ax, wchk)
    };
    let mut qprot = QProtection::new(n);
    let mut tau = vec![0.0f64; n.saturating_sub(2)];

    // Detection: plain |Sre − Sce| (inherited from the Hessenberg scheme)
    // OR the weighted aggregate (the symmetric-case detector). Returns the
    // larger mismatch when either fires.
    let detect = |ax: &ExtMatrix, wchk: &WeightedChecksums, phases: &mut PhaseBreakdown| {
        let _span = ft_trace::span!("ft.detect" => &mut phases.detect);
        let (gap, gap_w) = (ax.sre() - ax.sce(), wchk.aggregate_mismatch());
        (ThresholdPolicy::exceeded(gap, threshold) || ThresholdPolicy::exceeded(gap_w, threshold_w))
            .then(|| gap.abs().max(gap_w.abs()))
    };

    let total = n.saturating_sub(2);
    for (iter, gk) in (0..total).step_by(group).enumerate() {
        let glen = group.min(total - gk);
        let applied = plan.apply_due(iter, Phase::IterationStart, ax.raw_mut());
        report.injected.extend_from_slice(&applied);

        let (mut borders, mut artifacts) =
            reduce_group(&mut ax, &mut wchk, gk, glen, &mut tau, &mut report.phases);
        let applied = plan.apply_due(iter, Phase::BeforeDetection, ax.raw_mut());
        report.injected.extend_from_slice(&applied);
        let mut detected = detect(&ax, &wchk, &mut report.phases);

        let mut recoveries = vec![];
        while let Some(mismatch) = detected.filter(|_| recoveries.len() < cfg.max_recovery_attempts)
        {
            // Reverse computation: LIFO over the group's columns.
            {
                let _span = ft_trace::span!("ft.reverse", iter => &mut report.phases.reverse);
                for art in artifacts.iter().rev() {
                    reverse_column(&mut ax, art);
                }
                restore_checksums(&mut ax, &borders);
            }
            let event = repair(&mut ax, gk, loc_tol, iter, mismatch, &mut report.phases);
            recoveries.push(event);
            // The weighted pair has no locate step of its own: rebuild it
            // from the repaired data.
            {
                let _span = ft_trace::span!("ft.encode" => &mut report.phases.encode);
                wchk.reencode(&ax, gk);
            }
            (borders, artifacts) =
                reduce_group(&mut ax, &mut wchk, gk, glen, &mut tau, &mut report.phases);
            detected = detect(&ax, &wchk, &mut report.phases);
        }
        if detected.is_some() {
            let _span = ft_trace::span!("ft.encode" => &mut report.phases.encode);
            ax.reencode(gk + glen);
            wchk.reencode(&ax, gk + glen);
        }

        // Commit: absorb the verified columns' reflectors into Q
        // protection — each `v` as the run produced it (its first element
        // at row i + 1), not the storage a strike may have hit since.
        if cfg.protect_q {
            let _span = ft_trace::span!("ft.qprotect", gk => &mut report.phases.qprotect);
            for art in &artifacts {
                qprot.absorb_reflectors(|_| art.vx.as_slice(), art.i + 1, art.i, 1, &[art.tau]);
            }
        }
        let outcome = Outcome {
            recoveries,
            gave_up: detected.is_some(),
        };
        record_iteration(&mut report, &mut failure, label, iter, outcome);
    }

    let qprot = cfg.protect_q.then_some(&qprot);
    if !final_check(&mut ax, qprot, &mut tau, loc_tol, label, &mut report) {
        let iteration = report.iterations;
        failure.get_or_insert(FailureReason::UnresolvedFinalCheck { iteration });
    }
    report.wall_seconds = wall_start.elapsed_seconds();

    // Extract d, e from the band of the packed result.
    let packed = ax.into_packed();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n.saturating_sub(1)];
    for i in 0..n {
        d[i] = packed[(i, i)];
        if i + 1 < n {
            e[i] = packed[(i + 1, i)];
        }
    }

    FtTridiagOutcome {
        result: TridiagFactorization { packed, d, e, tau },
        report,
        failure,
    }
}

/// Reduces columns `gk .. gk+glen` with checksum maintenance, returning
/// what a reversal of this run needs: the checksum borders it started
/// from (2n + 1 values — cheap; after a repair, the repaired ones) and
/// each column's artifacts.
fn reduce_group(
    ax: &mut ExtMatrix,
    wchk: &mut WeightedChecksums,
    gk: usize,
    glen: usize,
    tau_all: &mut [f64],
    phases: &mut PhaseBreakdown,
) -> (Borders, Vec<ColumnArtifacts>) {
    let _span = ft_trace::span!("ft.panel", gk => &mut phases.panel);
    let n = ax.n();
    let borders = snapshot_checksums(ax);
    let mut artifacts = Vec::with_capacity(glen);
    for i in gk..gk + glen {
        let m = n - i - 1;

        // Diskless checkpoint of the extended column i and row i.
        let col_checkpoint: Vec<f64> = ax.raw().col(i)[..n + 1].to_vec();
        let row_checkpoint: Vec<f64> = (0..=n).map(|c| ax.raw()[(i, c)]).collect();

        // Reflector from the current column.
        let alpha = ax.raw()[(i + 1, i)];
        let old_band: Vec<f64> = (i + 1..n).map(|r| ax.raw()[(r, i)]).collect();
        let mut tail: Vec<f64> = old_band[1..].to_vec();
        let refl = larfg(alpha, &mut tail);
        tau_all[i] = refl.tau;

        let mut v = vec![0.0; m];
        v[0] = 1.0;
        v[1..].copy_from_slice(&tail);

        // w = τ·A₂·v − (τ/2)(·)·v over the trailing block.
        let mut w = vec![0.0; m];
        let mut coef = 0.0;
        if refl.tau != 0.0 {
            gemv(
                Trans::No,
                refl.tau,
                &ax.raw().view(i + 1, i + 1, m, m),
                &v,
                0.0,
                &mut w,
            );
            coef = -0.5 * refl.tau * dot(&w, &v);
            for r in 0..m {
                w[r] += coef * v[r];
            }
        }

        // Extended rank-2 update: [v; Σv], [w; Σw_ind] over rows/cols
        // i+1 ..= n of the extended matrix (covers both checksum borders
        // and the grand-sum corner).
        //
        // Σw is computed through the *checksum row* — the independent
        // path (the tridiagonal analogue of the paper's
        // `Ychk_c = trail(A)chk_c · V`): `eᵀw = τ·(eᵀA₂)·v + coef·Σv`
        // with `eᵀA₂ = Ac_chk(i+1..) − row_i(i+1..)` (rows above the
        // trailing block are explicit zeros except row i, not yet
        // rewritten). A silent corruption in `A₂` then perturbs the data
        // path but not this one, making `Sre − Sce` diverge — which is
        // exactly what the detector keys on.
        let sv: f64 = v.iter().sum();
        let sw: f64 = if refl.tau != 0.0 {
            let ea2v: f64 = (0..m)
                .map(|r| {
                    let c = i + 1 + r;
                    (ax.chk_row(c) - ax.raw()[(i, c)]) * v[r]
                })
                .sum();
            refl.tau * ea2v + coef * sv
        } else {
            0.0
        };
        let mut vx = v.clone();
        vx.push(sv);
        let mut wx = w.clone();
        wx.push(sw);
        if refl.tau != 0.0 {
            // Weighted scalars: ωᵀw through the independent path for the
            // column border, and through the data path for the row border.
            // Mixing the two paths is what makes the detector sensitive:
            // feeding the same scalar to both borders would keep them
            // mutually consistent no matter how corrupted the data is
            // (the symmetric-update blindness analysed in the module docs).
            let svw: f64 = (0..m).map(|r| wchk.omega[i + 1 + r] * v[r]).sum();
            let sww_ind: f64 = {
                let oa2v: f64 = (0..m)
                    .map(|r| {
                        let c = i + 1 + r;
                        (wchk.row[c] - wchk.omega[i] * ax.raw()[(i, c)]) * v[r]
                    })
                    .sum();
                refl.tau * oa2v + coef * svw
            };
            let sww_data: f64 = (0..m).map(|r| wchk.omega[i + 1 + r] * w[r]).sum();
            let sw_data: f64 = w.iter().sum();

            {
                let mut block = ax.raw_mut().view_mut(i + 1, i + 1, m + 1, m + 1);
                ger(-1.0, &vx, &wx, &mut block);
                ger(-1.0, &wx, &vx, &mut block);
            }
            // The gers fed sw_ind to *both* borders; switch the row border
            // (column-sum checksums) to the data-path scalar.
            let ds = sw - sw_data;
            if ds != 0.0 {
                let n_idx = n;
                for (r, &vr) in v.iter().enumerate() {
                    let c = i + 1 + r;
                    let cur = ax.raw()[(n_idx, c)];
                    ax.raw_mut()[(n_idx, c)] = cur + ds * vr;
                }
            }

            for r in 0..m {
                let g = i + 1 + r;
                wchk.col[g] -= v[r] * sww_ind + w[r] * svw;
                wchk.row[g] -= svw * w[r] + sww_data * v[r];
            }
        }

        // Band transformation of column i / row i: mathematically the
        // entries (i+1.., i) and (i, i+1..) become [β, 0, …]; adjust the
        // checksum borders by the difference and write the storage.
        {
            let n_idx = n;
            // delta over rows i+1..n: new − old.
            for (off, &old) in old_band.iter().enumerate() {
                let new = if off == 0 { refl.beta } else { 0.0 };
                let r = i + 1 + off;
                let dlt = new - old;
                if dlt != 0.0 {
                    // column i changed at row r → row-sum checksum of row r;
                    // row i changed at column r → column-sum checksum of r.
                    let cur = ax.raw()[(r, n_idx)];
                    ax.raw_mut()[(r, n_idx)] = cur + dlt;
                    let cur = ax.raw()[(n_idx, r)];
                    ax.raw_mut()[(n_idx, r)] = cur + dlt;
                    // Weighted counterparts (both weighted by ω_i: the
                    // changed entry sits in column i resp. row i).
                    wchk.col[r] += dlt * wchk.omega[i];
                    wchk.row[r] += dlt * wchk.omega[i];
                }
            }
            // Write the packed storage: β + reflector tail in the column
            // (Q storage), β + explicit zeros in the row (math values).
            ax.raw_mut()[(i + 1, i)] = refl.beta;
            for (off, &val) in tail.iter().enumerate() {
                ax.raw_mut()[(i + 2 + off, i)] = val;
            }
            ax.raw_mut()[(i, i + 1)] = refl.beta;
            for c in i + 2..n {
                ax.raw_mut()[(i, c)] = 0.0;
            }
            // Refresh the checksums of column i and row i themselves from
            // the (≤3-entry) mathematical band.
            let mut band_sum = ax.raw()[(i, i)];
            let mut band_sum_w = ax.raw()[(i, i)] * wchk.omega[i];
            if i > 0 {
                band_sum += ax.raw()[(i - 1, i)];
                band_sum_w += ax.raw()[(i - 1, i)] * wchk.omega[i - 1];
            }
            band_sum += refl.beta;
            band_sum_w += refl.beta * wchk.omega[i + 1];
            ax.raw_mut()[(n_idx, i)] = band_sum;
            ax.raw_mut()[(i, n_idx)] = band_sum;
            wchk.col[i] = band_sum_w;
            wchk.row[i] = band_sum_w;
        }

        artifacts.push(ColumnArtifacts {
            i,
            tau: refl.tau,
            vx,
            wx,
            col_checkpoint,
            row_checkpoint,
        });
    }
    (borders, artifacts)
}

/// Reverses one column step: re-adds the rank-2 operands and restores the
/// column/row storage from the checkpoints.
fn reverse_column(ax: &mut ExtMatrix, art: &ColumnArtifacts) {
    let n = ax.n();
    let i = art.i;
    let m = n - i - 1;
    if art.tau != 0.0 {
        let mut block = ax.raw_mut().view_mut(i + 1, i + 1, m + 1, m + 1);
        ger(1.0, &art.vx, &art.wx, &mut block);
        ger(1.0, &art.wx, &art.vx, &mut block);
    }
    for r in 0..=n {
        ax.raw_mut()[(r, i)] = art.col_checkpoint[r];
        ax.raw_mut()[(i, r)] = art.row_checkpoint[r];
    }
}

/// Both checksum borders and the corner.
type Borders = (Vec<f64>, Vec<f64>, f64);

fn snapshot_checksums(ax: &ExtMatrix) -> Borders {
    let n = ax.n();
    (ax.chk_col().to_vec(), ax.chk_row_to_vec(), ax.raw()[(n, n)])
}

fn restore_checksums(ax: &mut ExtMatrix, snap: &Borders) {
    let n = ax.n();
    for i in 0..n {
        ax.raw_mut()[(i, n)] = snap.0[i];
        ax.raw_mut()[(n, i)] = snap.1[i];
    }
    ax.raw_mut()[(n, n)] = snap.2;
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_fault::{Fault, FaultKind, ScheduledFault};
    use ft_lapack::sytrd::{steqr_eigenvalues, sytd2};

    /// Whether the run flagged itself. The structured failure and the
    /// report must agree on it.
    fn flagged(out: &FtTridiagOutcome) -> bool {
        let unresolved = out.report.any_unresolved();
        assert_eq!(
            out.failure.is_some(),
            unresolved,
            "failure {:?} vs recoveries {:?}",
            out.failure,
            out.report.recoveries
        );
        unresolved
    }

    fn residuals(a0: &Matrix, f: &TridiagFactorization) -> (f64, f64) {
        let n = a0.rows();
        let t = f.t();
        let q = f.q();
        let mut qt = Matrix::zeros(n, n);
        ft_blas::gemm(
            Trans::No,
            Trans::No,
            1.0,
            &q.as_view(),
            &t.as_view(),
            0.0,
            &mut qt.as_view_mut(),
        );
        let mut res = a0.clone();
        ft_blas::gemm(
            Trans::No,
            Trans::Yes,
            -1.0,
            &qt.as_view(),
            &q.as_view(),
            1.0,
            &mut res.as_view_mut(),
        );
        let fact = res.one_norm() / (n as f64 * a0.one_norm());
        let mut qqt = Matrix::identity(n);
        ft_blas::gemm(
            Trans::No,
            Trans::Yes,
            1.0,
            &q.as_view(),
            &q.as_view(),
            -1.0,
            &mut qqt.as_view_mut(),
        );
        (fact, qqt.one_norm() / n as f64)
    }

    #[test]
    fn clean_run_matches_plain_sytd2() {
        let n = 48;
        let a = ft_matrix::random::symmetric(n, 5);
        let out = ft_sytd2(&a, &FtConfig::default(), &mut FaultPlan::none());
        assert!(out.report.recoveries.is_empty(), "no false positives");

        let mut plain = a.clone();
        let base = sytd2(&mut plain);
        for i in 0..n {
            assert!((out.result.d[i] - base.d[i]).abs() < 1e-11, "d[{i}]");
        }
        for i in 0..n - 1 {
            assert!((out.result.e[i] - base.e[i]).abs() < 1e-11, "e[{i}]");
        }
        let (fact, orth) = residuals(&a, &out.result);
        assert!(fact < 1e-14 && orth < 1e-13, "{fact} {orth}");
    }

    #[test]
    fn trailing_fault_detected_and_corrected() {
        let n = 64;
        let a = ft_matrix::random::symmetric(n, 7);
        let mut plan = FaultPlan::one(1, Fault::add(45, 55, 0.5)); // group 1 → cols ≥ 32 active
        let out = ft_sytd2(&a, &FtConfig::default(), &mut plan);
        assert!(!out.report.recoveries.is_empty(), "must detect");
        let (fact, orth) = residuals(&a, &out.result);
        assert!(fact < 1e-12 && orth < 1e-12, "{fact} {orth}");
    }

    #[test]
    fn q_storage_fault_fixed_at_end() {
        let n = 64;
        let a = ft_matrix::random::symmetric(n, 9);
        // Corrupt a reflector tail of an already-reduced column (col 5,
        // well below the band) at group 1.
        let mut plan = FaultPlan::one(1, Fault::add(30, 5, 0.25));
        let out = ft_sytd2(&a, &FtConfig::default(), &mut plan);
        assert!(
            !out.report.q_corrections.is_empty(),
            "{:?}",
            out.report.q_corrections
        );
        let (fact, orth) = residuals(&a, &out.result);
        assert!(fact < 1e-11 && orth < 1e-11, "{fact} {orth}");
    }

    #[test]
    fn eigenvalues_survive_fault() {
        let n = 48;
        let a = ft_matrix::random::symmetric(n, 11);
        // Ground truth from a clean reduction.
        let mut plain = a.clone();
        let base = sytd2(&mut plain);
        let clean = steqr_eigenvalues(&base.d, &base.e).unwrap();

        let mut plan = FaultPlan::one(0, Fault::add(30, 40, 0.8));
        let out = ft_sytd2(&a, &FtConfig::default(), &mut plan);
        let dirty = steqr_eigenvalues(&out.result.d, &out.result.e).unwrap();
        for (x, y) in clean.iter().zip(&dirty) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn diagonal_fault_detected_and_corrected() {
        // A diagonal error is symmetric-consistent — the hardest case for
        // row-vs-column comparisons. The mixed-path scalar routing still
        // catches it (the divergence driver is the checksum defect dr,
        // not row/column asymmetry).
        let n = 64;
        let a = ft_matrix::random::symmetric(n, 21);
        let mut plan = FaultPlan::one(1, Fault::add(50, 50, 0.5));
        let out = ft_sytd2(&a, &FtConfig::default(), &mut plan);
        assert!(
            !out.report.recoveries.is_empty(),
            "diagonal error must be detected"
        );
        let rec = &out.report.recoveries[0];
        assert!(
            rec.corrected.iter().any(|&(r, c, _)| r == 50 && c == 50),
            "{rec:?}"
        );
        let (fact, orth) = residuals(&a, &out.result);
        assert!(fact < 1e-12 && orth < 1e-12, "{fact} {orth}");
    }

    #[test]
    fn checksum_border_corruption_handled() {
        // Inject into the checksum column itself (index n of the extended
        // matrix): the recovery path re-encodes rather than "correcting"
        // a phantom data error.
        let n = 48;
        let a = ft_matrix::random::symmetric(n, 23);
        let mut plan = FaultPlan::one(1, Fault::add(10, n, 3.0));
        let out = ft_sytd2(&a, &FtConfig::default(), &mut plan);
        let (fact, orth) = residuals(&a, &out.result);
        assert!(
            fact < 1e-12 && orth < 1e-12,
            "{fact} {orth} ({:?})",
            out.report.recoveries
        );
        assert!(!flagged(&out), "{:?}", out.report.recoveries);
    }

    #[test]
    fn finished_column_cancelling_pair_is_flagged() {
        // +0.5 on d[5] and −0.5 on e[5] after column 5 was reduced: the
        // column checksum cancels, so the final pass sees two row
        // deficits and no column deficit. It locates nothing and must
        // still flag the run.
        let n = 48;
        let a = ft_matrix::random::symmetric(n, 25);
        let mut plan = FaultPlan::new(vec![
            ScheduledFault {
                iteration: 1,
                phase: Phase::IterationStart,
                fault: Fault::add(5, 5, 0.5),
            },
            ScheduledFault {
                iteration: 1,
                phase: Phase::IterationStart,
                fault: Fault::add(6, 5, -0.5),
            },
        ]);
        let out = ft_sytd2(&a, &FtConfig::default(), &mut plan);
        assert_eq!(plan.applied().len(), 2);
        assert!(flagged(&out), "{:?}", out.report.recoveries);
        let iteration = out.report.iterations;
        assert_eq!(
            out.failure,
            Some(FailureReason::UnresolvedFinalCheck { iteration })
        );
    }

    #[test]
    fn various_cadences() {
        let n = 50;
        let a = ft_matrix::random::symmetric(n, 13);
        for check_every in [1usize, 8, 16, 64] {
            let cfg = FtConfig::with_nb(check_every);
            let mut plan = FaultPlan::one(0, Fault::add(30, 35, 0.3));
            let out = ft_sytd2(&a, &cfg, &mut plan);
            let (fact, orth) = residuals(&a, &out.result);
            assert!(
                fact < 1e-12 && orth < 1e-12,
                "cadence {check_every}: {fact} {orth}"
            );
        }
    }

    #[test]
    fn band_checksum_maintenance_is_exact() {
        // After a clean run, the checksums must still match the data —
        // i.e. the incremental band adjustments did their job (no drift).
        let n = 40;
        let a = ft_matrix::random::symmetric(n, 15);
        let cfg = FtConfig::with_nb(4);
        let out = ft_sytd2(&a, &cfg, &mut FaultPlan::none());
        assert!(out.report.recoveries.is_empty());
        assert_eq!(out.report.iterations, (n - 2usize).div_ceil(4));
    }

    #[test]
    fn fault_grid_verdicts_agree_and_none_is_silent() {
        // Two data entries, a finished column's reflector storage and one
        // checksum-column entry, struck in every group at two cadences, in
        // both phases. A run either comes back acceptable or flags itself,
        // and its failure and report agree.
        let n = 48;
        let a = ft_matrix::random::symmetric(n, 31);
        let kinds = [
            FaultKind::Add(0.5),
            FaultKind::Add(-2.5),
            FaultKind::BitFlip(62),
            FaultKind::Set(f64::NAN),
        ];
        for cadence in [8, 32] {
            let cfg = FtConfig::with_nb(cadence);
            for iteration in 0..(n - 2).div_ceil(cadence) {
                for phase in [Phase::IterationStart, Phase::BeforeDetection] {
                    for (row, col) in [(35, 36), (45, 45), (30, 5), (40, n)] {
                        for kind in kinds {
                            let fault = Fault { row, col, kind };
                            let mut plan = FaultPlan::new(vec![ScheduledFault {
                                iteration,
                                phase,
                                fault,
                            }]);
                            let out = ft_sytd2(&a, &cfg, &mut plan);
                            let (fact, orth) = residuals(&a, &out.result);
                            assert!(
                                flagged(&out) || (fact < 1e-11 && orth < 1e-11),
                                "silent: {kind:?} at ({row},{col}), group {iteration}, \
                                 {phase:?}, cadence {cadence}: {fact:e} {orth:e}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn phases_cover_the_run() {
        let a = ft_matrix::random::symmetric(256, 3);
        let mut shares = vec![];
        for _ in 0..5 {
            let out = ft_sytd2(&a, &FtConfig::default(), &mut FaultPlan::none());
            let p = &out.report.phases;
            assert!(p.panel > 0.0 && p.detect > 0.0 && p.encode > 0.0, "{p:?}");
            shares.push(p.total() / out.report.wall_seconds);
        }
        shares.sort_by(f64::total_cmp);
        assert!(shares[2] >= 0.8, "phases cover {shares:?} of the wall time");

        let a = ft_matrix::random::symmetric(64, 7);
        let mut plan = FaultPlan::one(1, Fault::add(45, 55, 0.5));
        let out = ft_sytd2(&a, &FtConfig::default(), &mut plan);
        let p = &out.report.phases;
        assert!(p.reverse > 0.0 && p.locate > 0.0, "{p:?}");
    }
}
