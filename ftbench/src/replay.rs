//! A replay of `ft_gehrd_hybrid`'s iteration loop from outside the
//! driver, in the driver's order, through the same public layer
//! functions, with a benchmark-owned span around every layer call.
//!
//! The replay must produce the driver's factorization bit for bit (the
//! traced run checks this on every repetition it can pair with a driver
//! run); only then do its per-layer times describe the real driver. It
//! follows the driver's default schedule: online ABFT off, so the two
//! trailing updates use the plain kernels. The simulated-platform
//! bookkeeping (`HybridCtx` charges, trace counters, the fault journal) is
//! skipped: it changes no data.

use crate::gen::iterations;
use crate::spans::Tracer;
use ft_fault::{FaultPlan, Phase};
use ft_hessenberg::encode::{extend_v, extend_y};
use ft_hessenberg::reverse::{
    left_update_ext, reverse_left_update_ext, reverse_right_update_ext, right_update_panel_top,
    right_update_trailing,
};
use ft_hessenberg::{
    correct_errors, locate_errors, ExtMatrix, FtConfig, HessFactorization, QProtection,
    ThresholdPolicy,
};
use ft_lapack::{lahr2_within, Panel};
use ft_matrix::Matrix;

/// Root span of one replayed factorization; its self time is loop glue.
pub const ROOT: &str = "hessenberg.ft_gehrd";
pub const LAHR2: &str = "lapack.lahr2";
pub const RIGHT_TOP: &str = "blas.right_top";
pub const RIGHT_UPDATE: &str = "blas.right_update";
pub const LEFT_UPDATE: &str = "blas.left_update";
/// `encode_with`, `extend_y`/`extend_v` and `refresh_chk_row`.
pub const CHECKSUM: &str = "hessenberg.checksum";
pub const CHECKPOINT: &str = "hessenberg.checkpoint";
pub const DETECT: &str = "hessenberg.detect";
pub const QPROTECT: &str = "hessenberg.qprotect";
pub const LOCATE: &str = "hessenberg.locate";
/// `correct_errors` and checksum re-encodes.
pub const CORRECT: &str = "hessenberg.correct";
pub const REVERSE: &str = "hessenberg.reverse";
/// A re-executed iteration; the layer spans it encloses nest inside it.
pub const REDO: &str = "hessenberg.redo";
pub const FAULT: &str = "fault.inject";

/// Layers of the unprotected reduction; every other span below [`ROOT`]
/// except [`FAULT`] is protection cost.
pub const BASE_LAYERS: [&str; 4] = [LAHR2, RIGHT_TOP, RIGHT_UPDATE, LEFT_UPDATE];
pub const FT_LAYERS: [&str; 8] = [
    CHECKSUM, CHECKPOINT, DETECT, QPROTECT, LOCATE, CORRECT, REVERSE, REDO,
];

/// What one replay produced.
pub struct Replayed {
    pub result: HessFactorization,
    /// Detection-and-recovery episodes, counted as the driver counts them.
    pub recoveries: usize,
    pub redone: usize,
    /// Some error pattern could not be resolved, or an iteration exhausted
    /// its attempts (the driver's `failure` or `any_unresolved`).
    pub flagged: bool,
}

/// One iteration's retained operands (the diskless checkpoint).
struct Iter {
    panel: Panel,
    yx: Matrix,
    vx: Matrix,
    w_left: Matrix,
}

/// Replays `ft_gehrd_hybrid(a, cfg, _, plan)` under `cfg.backend`.
pub fn replay(a: &Matrix, cfg: &FtConfig, plan: &mut FaultPlan, tr: &mut Tracer) -> Replayed {
    ft_blas::with_backend(cfg.backend, || replay_inner(a, cfg, plan, tr))
}

fn replay_inner(a: &Matrix, cfg: &FtConfig, plan: &mut FaultPlan, tr: &mut Tracer) -> Replayed {
    assert!(a.is_square(), "replay: matrix must be square");
    let n = a.rows();
    let threshold = cfg.threshold.resolve(a);
    let loc_tol = threshold / (n as f64).sqrt().max(1.0);
    let detect = |ax: &ExtMatrix| ThresholdPolicy::exceeded(ax.sre() - ax.sce(), threshold);

    tr.begin(ROOT);
    let mut ax = tr.scope(CHECKSUM, || ExtMatrix::encode_with(a, cfg.checksum_scheme));
    let mut qprot = QProtection::new(n);
    let mut tau = vec![0.0f64; n.saturating_sub(2)];
    let (mut recoveries, mut redone, mut flagged) = (0, 0, false);

    for (iter, (k, ib)) in iterations(n, cfg.nb.max(1)).into_iter().enumerate() {
        tr.scope(FAULT, || {
            plan.apply_due(iter, Phase::IterationStart, ax.raw_mut())
        });
        let checkpoint = tr.scope(CHECKPOINT, || ax.raw().sub_matrix(0, k, n + 1, ib));
        let mut it = iteration(&mut ax, k, ib, tr);
        tr.scope(FAULT, || {
            plan.apply_due(iter, Phase::BeforeDetection, ax.raw_mut())
        });
        let mut detected = tr.scope(DETECT, || detect(&ax));

        let mut attempts = 0;
        while detected && attempts < cfg.max_recovery_attempts {
            attempts += 1;
            redone += 1;
            tr.scope(REVERSE, || {
                reverse_left_update_ext(&mut ax, k, ib, &it.vx, &it.panel.t, &it.w_left);
                reverse_right_update_ext(&mut ax, k, ib, &it.yx, &it.vx);
                ax.raw_mut().set_sub_matrix(0, k, &checkpoint);
            });
            let located = tr.scope(LOCATE, || locate_errors(&ax, k, loc_tol));
            tr.scope(CORRECT, || {
                correct_errors(&mut ax, &located.errors);
                if located.errors.is_empty() {
                    reencode_checksums(&mut ax, k);
                }
            });
            recoveries += 1;
            flagged |= !located.resolved;
            tr.begin(REDO);
            it = iteration(&mut ax, k, ib, tr);
            detected = tr.scope(DETECT, || detect(&ax));
            tr.end();
        }
        if detected {
            tr.scope(CORRECT, || reencode_checksums(&mut ax, k + ib));
            recoveries += 1;
            flagged = true;
        }

        tau[k..k + ib].copy_from_slice(&it.panel.tau);
        if cfg.protect_q {
            tr.scope(QPROTECT, || {
                qprot.absorb_panel(ax.raw(), k, ib, &tau[k..k + ib])
            });
        }
    }

    let located = tr.scope(LOCATE, || locate_errors(&ax, n.saturating_sub(2), loc_tol));
    if !located.errors.is_empty() {
        tr.scope(CORRECT, || correct_errors(&mut ax, &located.errors));
        recoveries += 1;
        flagged |= !located.resolved;
    }
    if cfg.protect_q {
        tr.scope(QPROTECT, || {
            qprot.verify_and_correct(ax.raw_mut(), loc_tol.max(1e-12));
            qprot.verify_taus(&mut tau, 1e-10);
        });
    }
    tr.end();

    Replayed {
        result: HessFactorization {
            packed: ax.into_packed(),
            tau,
        },
        recoveries,
        redone,
        flagged,
    }
}

/// One iteration body (also the re-execution after a recovery).
fn iteration(ax: &mut ExtMatrix, k: usize, ib: usize, tr: &mut Tracer) -> Iter {
    let n = ax.n();
    let m = n - k - 1;
    let jcount = m - ib + 2;
    let panel = tr.scope(LAHR2, || lahr2_within(ax.raw_mut(), n, k, ib));
    let (yx, vx) = tr.scope(CHECKSUM, || {
        let chk_seg: Vec<f64> = (k + 1..n).map(|j| ax.chk_row(j)).collect();
        let yx = extend_y(&panel.y, &chk_seg, &panel.v, &panel.t);
        (yx, extend_v(&panel.v))
    });
    if ib > 1 {
        let flops = 2.0 * ((k + 1) * (ib - 1) * ib) as f64;
        tr.scope_work(RIGHT_TOP, flops, || {
            right_update_panel_top(ax, k, ib, &yx, &vx)
        });
    }
    let flops = 2.0 * ((n + 1) * jcount * ib) as f64;
    tr.scope_work(RIGHT_UPDATE, flops, || {
        right_update_trailing(ax, k, ib, &yx, &vx)
    });
    let flops = ((4 * m + ib) * jcount * ib) as f64;
    let w_left = tr.scope_work(LEFT_UPDATE, flops, || {
        left_update_ext(ax, k, ib, &vx, &panel.t)
    });
    tr.scope(CHECKSUM, || ax.refresh_chk_row(k, k + ib, k + ib));
    Iter {
        panel,
        yx,
        vx,
        w_left,
    }
}

/// Rebuilds both checksum borders from the data under the frontier mask
/// (the driver's last-resort repair, through `ExtMatrix`'s public API).
fn reencode_checksums(ax: &mut ExtMatrix, frontier: usize) {
    let n = ax.n();
    let rs = ax.math_row_sums(frontier);
    let cs = ax.math_col_sums(frontier);
    let raw = ax.raw_mut();
    let mut grand = 0.0;
    for (i, r) in rs.iter().enumerate() {
        raw[(i, n)] = *r;
        grand += r;
    }
    for (j, c) in cs.iter().enumerate() {
        raw[(n, j)] = *c;
    }
    raw[(n, n)] = grand;
}

/// Bitwise equality of two factorizations.
pub fn bit_identical(a: &HessFactorization, b: &HessFactorization) -> bool {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    bits(a.packed.as_slice()) == bits(b.packed.as_slice()) && bits(&a.tau) == bits(&b.tau)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_fault::{Fault, ScheduledFault};
    use ft_hessenberg::ft_gehrd_hybrid;
    use ft_hybrid::{CostModel, ExecMode, HybridCtx};
    use std::time::Instant;

    fn cfg(nb: usize) -> FtConfig {
        let mut c = FtConfig::with_nb(nb);
        c.backend = ft_blas::Backend::Serial;
        c
    }

    fn at(iteration: usize, phase: Phase, row: usize, col: usize, delta: f64) -> ScheduledFault {
        ScheduledFault {
            iteration,
            phase,
            fault: Fault::add(row, col, delta),
        }
    }

    /// Driver and replay on the same input and plan: bit-identical output
    /// and the same recovery counts.
    fn check(n: usize, c: &FtConfig, faults: Vec<ScheduledFault>) {
        let a = crate::gen::hess_input(n, 11);
        let mut ctx = HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::Full, 2);
        let driver = ft_gehrd_hybrid(&a, c, &mut ctx, &mut FaultPlan::new(faults.clone()));
        let mut tr = Tracer::new(Instant::now());
        let mut plan = FaultPlan::new(faults.clone());
        let rep = replay(&a, c, &mut plan, &mut tr);
        assert_eq!(plan.applied().len(), faults.len(), "every fault must land");
        let expected = driver.result.expect("full mode returns a factorization");
        assert!(
            bit_identical(&rep.result, &expected),
            "n={n} nb={} {faults:?}",
            c.nb
        );
        assert_eq!(rep.recoveries, driver.report.recoveries.len());
        assert_eq!(rep.redone, driver.report.redone_iterations);
        assert_eq!(
            rep.flagged,
            driver.failure.is_some() || driver.report.any_unresolved()
        );
        assert_eq!(tr.spans[0].name, ROOT);
        assert!(tr.spans[1..].iter().all(|s| s.parent.is_some()));
    }

    #[test]
    fn replay_is_bit_identical_clean() {
        check(64, &cfg(8), vec![]);
        check(70, &cfg(16), vec![]); // ragged last panel: 68 = 4·16 + 4
    }

    #[test]
    fn replay_is_bit_identical_with_two_faults() {
        for (n, nb) in [(64, 8), (70, 16)] {
            // A trailing-matrix strike (detected, reversed, corrected,
            // re-executed) and one in finished reflector storage (repaired
            // by the final Q check).
            let faults = vec![
                at(1, Phase::IterationStart, n - 5, n - 3, 0.6),
                at(3, Phase::IterationStart, 2 * nb, 1, -0.4),
            ];
            check(n, &cfg(nb), faults);
        }
    }

    #[test]
    fn replay_is_bit_identical_when_recovery_gives_up() {
        let mut weak = cfg(16);
        weak.max_recovery_attempts = 0;
        check(70, &weak, vec![at(1, Phase::IterationStart, 50, 60, 0.5)]);
        check(
            64,
            &cfg(8),
            vec![at(2, Phase::BeforeDetection, 40, 50, 0.3)],
        );
    }
}
