//! Algorithm 3 of the paper: the soft-error resilient hybrid Hessenberg
//! reduction (`FT_DGEHRD`).
//!
//! Per panel iteration, on top of the Algorithm 2 structure:
//!
//! * the working matrix is checksum-extended ([`crate::encode`]); the
//!   block updates run on the extended matrix with `V` extended by its
//!   column checksums (`Vce`) and `Y` by the checksum-row image (`Yce`,
//!   computed from the *pre-update* checksum row — the independent path
//!   that makes silent corruption observable);
//! * the panel about to be factorized is checkpointed in host memory
//!   (diskless checkpointing), and the update operands `V`, `T`, `Y`, `W`
//!   are retained until the iteration verifies;
//! * at the iteration's end the detector compares `Sre` (sum of the
//!   row-checksum column) against `Sce` (sum of the column-checksum row);
//!   two dot products (Algorithm 3 lines 12–13);
//! * on mismatch: the left and right block updates are reversed from the
//!   retained intermediates, the panel is restored from its checkpoint,
//!   fresh row/column sums locate the error(s), the checksum-subtraction
//!   formula corrects them, and the iteration re-executes (lines 14–16);
//! * the `Q` reflectors are protected by host-side checksums generated on
//!   the otherwise-idle CPU, overlapped with the device update (paper
//!   §IV-E), and verified once at the end (§IV-F), together with a final
//!   whole-matrix consistency pass that also covers finished `H` columns.

use crate::encode::{extend_v, extend_y, ExtMatrix};
use crate::hybrid_alg::panel_costs;
use crate::qprotect::QProtection;
use crate::recovery::{correct_errors, locate_errors};
use crate::report::{FailureReason, FtReport, PhaseBreakdown, RecoveryEvent};
use crate::reverse::{
    left_update_ext, left_update_ext_ft, reverse_left_update_ext, reverse_right_update_ext,
    right_update_panel_top, right_update_trailing, right_update_trailing_ft,
};
use crate::threshold::ThresholdPolicy;
use ft_fault::{classify, FaultPlan, Phase, Region};
use ft_hybrid::{HybridCtx, OpClass, StreamId, Work};
use ft_lapack::{lahr2_within, HessFactorization, Panel};
use ft_matrix::Matrix;

/// Configuration of the fault-tolerant driver.
#[derive(Clone, Copy, Debug)]
pub struct FtConfig {
    /// Panel width.
    pub nb: usize,
    /// Detection threshold policy.
    pub threshold: ThresholdPolicy,
    /// Maintain and verify the host-side `Q` checksums.
    pub protect_q: bool,
    /// Run the `Q`-checksum GEMVs on the (idle, overlapped) host — the
    /// paper's choice. `false` serializes them on the device stream
    /// (ablation: shows why the overlap matters).
    pub q_checksums_on_host: bool,
    /// Recovery attempts per iteration before falling back to a checksum
    /// re-encode.
    pub max_recovery_attempts: usize,
    /// Accumulation scheme for the checksum aggregates (paper
    /// reference 27): more accurate schemes reduce `Sre`/`Sce` drift and
    /// allow tighter detection thresholds.
    pub checksum_scheme: ft_blas::SumScheme,
    /// Execution backend for the level-3 host kernels the simulation
    /// actually runs (trailing updates, reversal, checksum sums). The
    /// default follows the `FT_BLAS_BACKEND` environment variable; the
    /// threaded backend is bit-identical to the serial one (see
    /// [`ft_blas::backend`]), so it changes wall-clock time only — never
    /// results, checksums or detection behavior.
    pub backend: ft_blas::Backend,
    /// Run the two trailing block updates through the fused online-ABFT
    /// kernel ([`ft_blas::gemm_ft`]): checksums are encoded during operand
    /// packing and verified in the kernel epilogue, catching a transient
    /// strike inside the gemm itself before the iteration-level
    /// `Sre`/`Sce` detector runs. Clean runs are bit-identical to the
    /// plain kernels, so this changes detection latency and
    /// [`FtReport::online_detections`] only — never results. Default
    /// `false` (the paper's iteration-granularity scheme).
    pub online_abft: bool,
}

impl Default for FtConfig {
    fn default() -> Self {
        FtConfig {
            nb: 32,
            threshold: ThresholdPolicy::default(),
            protect_q: true,
            q_checksums_on_host: true,
            max_recovery_attempts: 3,
            checksum_scheme: ft_blas::SumScheme::Naive,
            backend: ft_blas::Backend::from_env(),
            online_abft: false,
        }
    }
}

impl FtConfig {
    /// Default configuration with an explicit panel width.
    pub fn with_nb(nb: usize) -> Self {
        FtConfig {
            nb,
            ..Default::default()
        }
    }

    /// Short tag naming the active protection level, recorded with every
    /// fault-journal entry so post-mortems can correlate recovery
    /// behavior with the protection that was in force.
    pub fn protection_label(&self) -> &'static str {
        match (self.protect_q, self.online_abft) {
            (true, true) => "checksums+q+online",
            (true, false) => "checksums+q",
            (false, true) => "checksums+online",
            (false, false) => "checksums",
        }
    }
}

/// Result of a fault-tolerant factorization.
#[derive(Debug)]
pub struct FtOutcome {
    /// The factorization; `None` in [`ft_hybrid::ExecMode::TimingOnly`].
    pub result: Option<HessFactorization>,
    /// Detection/recovery/timing report.
    pub report: FtReport,
    /// `Some` when the run hit a terminal recovery failure (attempt
    /// exhaustion or an unresolvable final check) and the result cannot be
    /// trusted without independent verification. Retry-with-escalation
    /// layers key off this field.
    pub failure: Option<FailureReason>,
}

impl FtOutcome {
    /// `true` when the run reported unrecoverable corruption.
    pub fn is_unrecoverable(&self) -> bool {
        self.failure.is_some()
    }
}

/// Registry counter `ft.recoveries`: detection-and-recovery episodes
/// (one per [`RecoveryEvent`] pushed, including end-of-run repairs).
fn ft_recovery_counter() -> &'static ft_trace::Counter {
    static C: std::sync::OnceLock<&'static ft_trace::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| ft_trace::counter("ft.recoveries"))
}

/// Registry counter `ft.corrections`: individual element corrections
/// applied from checksum residues.
fn ft_correction_counter() -> &'static ft_trace::Counter {
    static C: std::sync::OnceLock<&'static ft_trace::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| ft_trace::counter("ft.corrections"))
}

/// Everything one iteration retains for possible reversal — the diskless
/// checkpoint of Algorithm 3.
struct IterArtifacts {
    panel: Option<Panel>,
    yx: Option<Matrix>,
    vx: Option<Matrix>,
    w_left: Option<Matrix>,
    /// Residual deficits flagged by the fused online-ABFT kernels (0 when
    /// `FtConfig::online_abft` is off or the iteration was clean).
    online_detected: usize,
    /// Elements corrected in place by the fused kernels.
    online_corrected: usize,
}

/// Runs Algorithm 3 on the simulated hybrid platform.
///
/// The level-3 kernels execute under [`FtConfig::backend`] for the whole
/// call (restored afterwards, also on panic).
pub fn ft_gehrd_hybrid(
    a: &Matrix,
    cfg: &FtConfig,
    ctx: &mut HybridCtx,
    plan: &mut FaultPlan,
) -> FtOutcome {
    ft_blas::with_backend(cfg.backend, || ft_gehrd_hybrid_inner(a, cfg, ctx, plan))
}

fn ft_gehrd_hybrid_inner(
    a: &Matrix,
    cfg: &FtConfig,
    ctx: &mut HybridCtx,
    plan: &mut FaultPlan,
) -> FtOutcome {
    assert!(a.is_square(), "ft_gehrd_hybrid: matrix must be square");
    let n = a.rows();
    let nb = cfg.nb.max(1);
    let s0 = StreamId(0);
    let s1 = StreamId(1);
    let threshold = cfg.threshold.resolve(a);
    let loc_tol = threshold / (n as f64).sqrt().max(1.0);

    let wall_start = ft_trace::clock::Stopwatch::start();

    let mut report = FtReport {
        n,
        nb,
        threshold,
        ..Default::default()
    };
    let mut failure: Option<FailureReason> = None;

    // Transfer the input and encode it on the device (lines 1–2).
    ctx.h2d(s0, n * n * 8, || ());
    let mut ax = {
        let _span = ft_trace::span!("ft.encode" => &mut report.phases.encode);
        ctx.device(
            s0,
            OpClass::DeviceGemv,
            Work::Flops(4.0 * (n * n) as f64),
            || ExtMatrix::encode_with(a, cfg.checksum_scheme),
        )
    };

    let mut qprot = QProtection::new(n);
    let mut tau = vec![0.0f64; n.saturating_sub(2)];

    let total = n.saturating_sub(2);
    let mut k = 0;
    let mut iter = 0usize;
    // Timing-only: faults that struck after an iteration's updates ran
    // (Phase::BeforeDetection) cannot perturb that iteration's aggregates;
    // they become visible — if at all — once the *next* iteration's
    // updates run over them, so they are carried forward one boundary.
    let mut carried_faults: Vec<ft_fault::ScheduledFault> = vec![];
    while k < total {
        let ib = nb.min(total - k);

        // ---- fault hook: iteration boundary ----------------------------
        let timing_faults = match &mut ax {
            Some(axm) => {
                let applied = plan.apply_due(iter, Phase::IterationStart, axm.raw_mut());
                report.injected.extend_from_slice(&applied);
                vec![]
            }
            None => {
                let mut due = std::mem::take(&mut carried_faults);
                due.extend(plan.peek_due(iter, Phase::IterationStart));
                due
            }
        };
        if ax.is_none() {
            plan.consume_due(iter, Phase::IterationStart);
        }

        // ---- diskless checkpoint of the panel --------------------------
        let checkpoint: Option<Matrix> =
            ax.as_ref().map(|axm| axm.raw().sub_matrix(0, k, n + 1, ib));

        // ---- run the iteration ------------------------------------------
        let mut artifacts = run_iteration(ctx, &mut ax, n, k, ib, cfg, s0, s1, &mut report.phases);
        report.online_detections += artifacts.online_detected;
        report.online_corrections += artifacts.online_corrected;

        // ---- fault hook: right before detection -------------------------
        if let Some(axm) = &mut ax {
            let applied = plan.apply_due(iter, Phase::BeforeDetection, axm.raw_mut());
            report.injected.extend_from_slice(&applied);
        } else {
            carried_faults.extend(plan.peek_due(iter, Phase::BeforeDetection));
            plan.consume_due(iter, Phase::BeforeDetection);
        }

        // ---- detection (lines 12–13): two device reductions -------------
        let mut detected = detect(
            ctx,
            &ax,
            n,
            threshold,
            s0,
            &timing_faults,
            k,
            ib,
            &mut report.phases,
        );

        // ---- recovery loop (lines 14–16) ---------------------------------
        let mut attempts = 0;
        while detected && attempts < cfg.max_recovery_attempts {
            attempts += 1;
            report.redone_iterations += 1;

            let mismatch = ax
                .as_ref()
                .map(|x| (x.sre() - x.sce()).abs())
                .unwrap_or(f64::NAN);

            // Reverse the left then the right update from retained
            // intermediates (line 14).
            let m = n - k - 1;
            let ntrail1 = m - ib + 2;
            let left_flops = (4.0 * m as f64 + ib as f64) * ntrail1 as f64 * ib as f64;
            {
                let _span = ft_trace::span!("ft.reverse", iter => &mut report.phases.reverse);
                ctx.device(s0, OpClass::DeviceGemm, Work::Flops(left_flops), || {
                    let axm = ax.as_mut().unwrap();
                    reverse_left_update_ext(
                        axm,
                        k,
                        ib,
                        artifacts.vx.as_ref().unwrap(),
                        &artifacts.panel.as_ref().unwrap().t,
                        artifacts.w_left.as_ref().unwrap(),
                    );
                });
                ctx.device(
                    s0,
                    OpClass::DeviceGemm,
                    Work::gemm(n + 1, ntrail1, ib),
                    || {
                        let axm = ax.as_mut().unwrap();
                        reverse_right_update_ext(
                            axm,
                            k,
                            ib,
                            artifacts.yx.as_ref().unwrap(),
                            artifacts.vx.as_ref().unwrap(),
                        );
                    },
                );
                // Restore the panel from its checkpoint.
                ctx.h2d(s0, (n + 1) * ib * 8, || {
                    let axm = ax.as_mut().unwrap();
                    axm.raw_mut()
                        .set_sub_matrix(0, k, checkpoint.as_ref().unwrap());
                });
            }

            // Locate: fresh row/column sums vs the stored checksums.
            let corrected = ctx.device(
                s0,
                OpClass::DeviceVector,
                Work::Flops(4.0 * (n * n) as f64),
                || {
                    let axm = ax.as_mut().unwrap();
                    let out = {
                        let _span = ft_trace::span!("ft.locate", iter => &mut report.phases.locate);
                        locate_errors(axm, k, loc_tol)
                    };
                    let fixes: Vec<(usize, usize, f64)> =
                        out.errors.iter().map(|e| (e.row, e.col, e.delta)).collect();
                    {
                        let _span =
                            ft_trace::span!("ft.correct", iter => &mut report.phases.correct);
                        correct_errors(axm, &out.errors);
                    }
                    if out.errors.is_empty() {
                        // Checksum-side corruption (or an undetectable
                        // pattern): re-encode the checksums from the data.
                        let _span = ft_trace::span!("ft.encode" => &mut report.phases.encode);
                        reencode_checksums(axm, k);
                    }
                    (fixes, out.resolved)
                },
            );
            ctx.d2h(s0, 2 * n * 8, || ());

            let (fixes, resolved) = corrected.unwrap_or((vec![], true));
            ft_recovery_counter().incr();
            ft_correction_counter().add(fixes.len() as u64);
            ft_trace::journal::record(
                iter,
                "recovery",
                cfg.protection_label(),
                fixes.len(),
                mismatch,
                resolved,
            );
            report.recoveries.push(RecoveryEvent {
                iteration: iter,
                mismatch,
                corrected: fixes,
                resolved,
            });

            // Re-execute the iteration (line: "the entire iteration is
            // repeated after the error correction").
            artifacts = run_iteration(ctx, &mut ax, n, k, ib, cfg, s0, s1, &mut report.phases);
            report.online_detections += artifacts.online_detected;
            report.online_corrections += artifacts.online_corrected;
            detected = detect(ctx, &ax, n, threshold, s0, &[], k, ib, &mut report.phases);
        }
        if detected {
            // Give up on surgical repair: refresh all checksums from the
            // current data so the factorization can continue; flag it.
            ctx.device(
                s0,
                OpClass::DeviceVector,
                Work::Flops(4.0 * (n * n) as f64),
                || {
                    let _span = ft_trace::span!("ft.encode" => &mut report.phases.encode);
                    reencode_checksums(ax.as_mut().unwrap(), k + ib);
                },
            );
            ft_recovery_counter().incr();
            ft_trace::journal::record(iter, "giveup", cfg.protection_label(), 0, f64::NAN, false);
            report.recoveries.push(RecoveryEvent {
                iteration: iter,
                mismatch: f64::NAN,
                corrected: vec![],
                resolved: false,
            });
            failure.get_or_insert(FailureReason::RecoveryExhausted { iteration: iter });
        }

        // ---- commit: absorb the verified panel into Q protection --------
        if let Some(p) = &artifacts.panel {
            tau[k..k + ib].copy_from_slice(&p.tau);
        }
        if cfg.protect_q {
            let _span = ft_trace::span!("ft.qprotect", k => &mut report.phases.qprotect);
            if let Some(axm) = &ax {
                let taus = &tau[k..k + ib];
                qprot.absorb_panel(axm.raw(), k, ib, taus);
            }
        }

        k += ib;
        iter += 1;
        report.iterations += 1;
    }

    // ---- final verification ---------------------------------------------
    // (a) whole-matrix consistency: covers finished-H corruption that the
    //     per-iteration aggregate test cannot see (never-touched columns).
    ctx.device(
        s0,
        OpClass::DeviceVector,
        Work::Flops(4.0 * (n * n) as f64),
        || (),
    );
    if let Some(axm) = &mut ax {
        let out = {
            let _span = ft_trace::span!("ft.locate" => &mut report.phases.locate);
            locate_errors(axm, total, loc_tol)
        };
        if !out.errors.is_empty() {
            let fixes: Vec<(usize, usize, f64)> =
                out.errors.iter().map(|e| (e.row, e.col, e.delta)).collect();
            {
                let _span = ft_trace::span!("ft.correct" => &mut report.phases.correct);
                correct_errors(axm, &out.errors);
            }
            ft_recovery_counter().incr();
            ft_correction_counter().add(fixes.len() as u64);
            ft_trace::journal::record(
                iter,
                "final",
                cfg.protection_label(),
                fixes.len(),
                f64::NAN,
                out.resolved,
            );
            report.recoveries.push(RecoveryEvent {
                iteration: iter,
                mismatch: f64::NAN,
                corrected: fixes,
                resolved: out.resolved,
            });
            if !out.resolved {
                failure.get_or_insert(FailureReason::UnresolvedFinalCheck { iteration: iter });
            }
        }
    }
    // (b) Q storage check (paper §IV-F, once at the end).
    if cfg.protect_q {
        let _span = ft_trace::span!("ft.qprotect" => &mut report.phases.qprotect);
        ctx.host(
            OpClass::HostVector,
            Work::Flops(2.0 * (n * n) as f64 / 2.0),
            || (),
        );
        if let Some(axm) = &mut ax {
            let fixes = qprot.verify_and_correct(axm.raw_mut(), loc_tol.max(1e-12));
            report.q_corrections = fixes.iter().map(|f| (f.row, f.col, f.delta)).collect();
            if let Some(idx) = qprot.verify_taus(&mut tau, 1e-10) {
                report.tau_corrections.push(idx);
            }
        }
    }

    // Result back to the host.
    ctx.d2h(s0, n * n * 8, || ());
    ctx.sync_all();

    report.sim_seconds = ctx.elapsed();
    report.stats = ctx.stats().clone();
    report.wall_seconds = wall_start.elapsed_seconds();

    let result = ax.map(|axm| HessFactorization {
        packed: axm.into_packed(),
        tau,
    });
    FtOutcome {
        result,
        report,
        failure,
    }
}

/// One full FT iteration body (also used verbatim for re-execution).
#[allow(clippy::too_many_arguments)]
fn run_iteration(
    ctx: &mut HybridCtx,
    ax: &mut Option<ExtMatrix>,
    n: usize,
    k: usize,
    ib: usize,
    cfg: &FtConfig,
    s0: StreamId,
    s1: StreamId,
    phases: &mut PhaseBreakdown,
) -> IterArtifacts {
    let m = n - k - 1;
    let ntrail1 = m - ib + 2; // real trailing columns + checksum column

    // Panel to host (line 4).
    ctx.d2h(s0, (n - k) * ib * 8, || ());
    ctx.sync_stream(s0);

    // Panel factorization (line 5): host + device-GEMV split as in MAGMA.
    let (host_flops, dev_gemv_flops) = panel_costs(n, k, ib);
    let panel = {
        let _span = ft_trace::span!("ft.panel", k => &mut phases.panel);
        ctx.host(OpClass::HostPanel, Work::Flops(host_flops), || {
            lahr2_within(ax.as_mut().unwrap().raw_mut(), n, k, ib)
        })
    };
    ctx.device(s0, OpClass::DeviceGemv, Work::Flops(dev_gemv_flops), || ());
    ctx.h2d(s0, m * ib * 8, || ());
    ctx.d2h(s0, m * ib * 8, || ());

    // Checksum extensions (lines 6–7): Yce from the pre-update checksum
    // row, Vce as the column sums of V — two device GEMV-class kernels.
    let ext = {
        let _span = ft_trace::span!("ft.encode", k => &mut phases.encode);
        ctx.device(
            s0,
            OpClass::DeviceGemv,
            Work::Flops((3 * m * ib) as f64),
            || {
                let axm = ax.as_ref().unwrap();
                let p = panel.as_ref().unwrap();
                // Arena scratch instead of a fresh Vec: this runs once per
                // panel iteration and reuses the same buffer after warm-up.
                let mut chk_seg = ft_blas::workspace::scratch(n - k - 1);
                for (dst, j) in chk_seg.iter_mut().zip(k + 1..n) {
                    *dst = axm.chk_row(j);
                }
                let yx = extend_y(&p.y, &chk_seg, &p.v, &p.t);
                let vx = extend_v(&p.v);
                (yx, vx)
            },
        )
    };
    let (yx, vx) = match ext {
        Some((y, v)) => (Some(y), Some(v)),
        None => (None, None),
    };

    // V, T (and extensions) to the device.
    ctx.h2d(s0, ((m + 1) * ib + ib * ib) * 8, || ());

    // Right update to M's panel columns (line 8).
    if ib > 1 {
        let _span = ft_trace::span!("ft.trailing", k => &mut phases.trailing);
        ctx.device(
            s0,
            OpClass::DeviceGemm,
            Work::gemm(k + 1, ib - 1, ib),
            || {
                right_update_panel_top(
                    ax.as_mut().unwrap(),
                    k,
                    ib,
                    yx.as_ref().unwrap(),
                    vx.as_ref().unwrap(),
                );
            },
        );
    }

    // Async copy-back of the finished block (line 9), overlapped.
    ctx.stream_wait_stream(s1, s0);
    ctx.d2h(s1, (k + 1 + ib) * ib * 8, || ());

    // Right update to G + checksum borders (line 10) and the left update
    // (line 11, retaining W for reversal): the trailing-matrix phase.
    // Under `online_abft` both run through the fused-checksum kernel,
    // whose checks count as trailing time.
    let mut online_detected = 0usize;
    let mut online_corrected = 0usize;
    let left_flops = (4.0 * m as f64 + ib as f64) * ntrail1 as f64 * ib as f64;
    // Q-checksum generation for the finished panel — two GEMVs, run on
    // the idle host overlapped with the device updates (paper §IV-E), or
    // on the device for the ablation.
    let q_flops = 4.0 * (m * ib) as f64;

    let trailing_span = ft_trace::span!("ft.trailing", k => &mut phases.trailing);
    ctx.device(
        s0,
        OpClass::DeviceGemm,
        Work::gemm(n + 1, ntrail1, ib),
        || {
            let axm = ax.as_mut().unwrap();
            if cfg.online_abft {
                let r = right_update_trailing_ft(
                    axm,
                    k,
                    ib,
                    yx.as_ref().unwrap(),
                    vx.as_ref().unwrap(),
                    ft_blas::AbftOptions::default(),
                );
                online_detected += r.detected;
                online_corrected += r.corrected;
            } else {
                right_update_trailing(axm, k, ib, yx.as_ref().unwrap(), vx.as_ref().unwrap());
            }
        },
    );

    let w_left = ctx.device(s0, OpClass::DeviceGemm, Work::Flops(left_flops), || {
        let axm = ax.as_mut().unwrap();
        let t = &panel.as_ref().unwrap().t;
        if cfg.online_abft {
            let (w, r) = left_update_ext_ft(
                axm,
                k,
                ib,
                vx.as_ref().unwrap(),
                t,
                ft_blas::AbftOptions::default(),
            );
            online_detected += r.detected;
            online_corrected += r.corrected;
            w
        } else {
            left_update_ext(axm, k, ib, vx.as_ref().unwrap(), t)
        }
    });
    drop(trailing_span);

    if cfg.q_checksums_on_host {
        ctx.host(OpClass::HostVector, Work::Flops(q_flops), || ());
    } else {
        ctx.device(s0, OpClass::DeviceGemv, Work::Flops(q_flops), || ());
    }

    // Refresh the column checksums of the just-finished panel columns
    // from their final H values (their storage switched
    // representation).
    {
        let _span = ft_trace::span!("ft.encode", k => &mut phases.encode);
        ctx.device(
            s0,
            OpClass::DeviceVector,
            Work::Flops((ib * (k + 2 + ib)) as f64),
            || {
                ax.as_mut().unwrap().refresh_chk_row(k, k + ib, k + ib);
            },
        );
    }

    IterArtifacts {
        panel,
        yx,
        vx,
        w_left,
        online_detected,
        online_corrected,
    }
}

/// The end-of-iteration detector: `|Sre − Sce| > threshold`, NaN-safe.
#[allow(clippy::too_many_arguments)]
fn detect(
    ctx: &mut HybridCtx,
    ax: &Option<ExtMatrix>,
    n: usize,
    threshold: f64,
    s0: StreamId,
    timing_faults: &[ft_fault::ScheduledFault],
    k: usize,
    ib: usize,
    phases: &mut PhaseBreakdown,
) -> bool {
    let _span = ft_trace::span!("ft.detect", k => &mut phases.detect);
    // Two device reductions + a tiny transfer + host compare.
    ctx.device(
        s0,
        OpClass::DeviceVector,
        Work::Flops(2.0 * n as f64),
        || (),
    );
    ctx.d2h(s0, 16, || ());
    ctx.sync_stream(s0);
    match ax {
        Some(axm) => {
            let diff = axm.sre() - axm.sce();
            ThresholdPolicy::exceeded(diff, threshold)
        }
        None => {
            // Timing-only mirror of the aggregate test above.
            timing_faults.iter().any(|f| {
                let row = f.fault.row.min(n - 1);
                let col = f.fault.col.min(n - 1);
                aggregate_visible(n, k, ib, row, col)
            })
        }
    }
}

/// Whether a strike at `(row, col)`, present when the iteration reducing
/// columns `k..k + ib` started, perturbs the `Sre − Sce` aggregate test
/// run at that iteration's end.
///
/// Detection runs after the iteration completes, so in the
/// [`classify`] frontier convention (`k` = columns already reduced) the
/// frontier is `k + ib`. The in-flight panel needs its own carve-out,
/// though: a strike inside columns `k..k + ib` happened *before* they
/// were reduced, fed `lahr2` and both extended block updates, and thus
/// drives `Sre` and `Sce` apart — even where `classify` at the advanced
/// frontier would already call the location `Q` storage (Area 3) or
/// finished `H`. Strikes left of the panel touch data this iteration
/// never reads: the aggregates cannot see them, and they are repaired by
/// the end-of-run whole-matrix and `Q`/`tau` checks without any rollback.
fn aggregate_visible(n: usize, k: usize, ib: usize, row: usize, col: usize) -> bool {
    let in_flight_panel = (k..k + ib).contains(&col);
    in_flight_panel
        || matches!(
            classify(n, (k + ib).min(n), row, col),
            Region::Area1 | Region::Area2
        )
}

/// Rebuilds both checksum borders from the stored data under the frontier
/// mask (last-resort recovery and checksum-corruption repair).
fn reencode_checksums(ax: &mut ExtMatrix, frontier: usize) {
    let n = ax.n();
    let rs = ax.math_row_sums(frontier);
    let cs = ax.math_col_sums(frontier);
    let mut grand = 0.0;
    for i in 0..n {
        ax.raw_mut()[(i, n)] = rs[i];
        grand += rs[i];
    }
    for j in 0..n {
        ax.raw_mut()[(n, j)] = cs[j];
    }
    ax.raw_mut()[(n, n)] = grand;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::ResidualReport;
    use ft_fault::Fault;
    use ft_hybrid::{CostModel, ExecMode};

    fn full_ctx() -> HybridCtx {
        HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::Full, 2)
    }

    fn run(n: usize, nb: usize, seed: u64, plan: &mut FaultPlan) -> (Matrix, FtOutcome) {
        let a = ft_matrix::random::uniform(n, n, seed);
        let mut ctx = full_ctx();
        let out = ft_gehrd_hybrid(&a, &FtConfig::with_nb(nb), &mut ctx, plan);
        (a, out)
    }

    #[test]
    fn clean_run_no_false_positives() {
        for &(n, nb) in &[(32usize, 8usize), (64, 16), (96, 32), (50, 7)] {
            let (a, out) = run(n, nb, n as u64, &mut FaultPlan::none());
            assert!(
                out.report.recoveries.is_empty(),
                "false positive at n={n}, nb={nb}: {:?}",
                out.report.recoveries
            );
            let f = out.result.unwrap();
            let r = ResidualReport::compute(&a, &f.q(), &f.h());
            assert!(r.acceptable(1e-13), "n={n}: {r:?}");
        }
    }

    #[test]
    fn clean_run_no_false_positives_threaded_backend() {
        // The threaded backend must not perturb the checksum aggregates:
        // zero detections on clean runs, and the factorization must be
        // *bitwise* the run produced by the serial backend.
        for &(n, nb) in &[(64usize, 16usize), (50, 7)] {
            let a = ft_matrix::random::uniform(n, n, n as u64);
            let serial_cfg = FtConfig {
                backend: ft_blas::Backend::Serial,
                ..FtConfig::with_nb(nb)
            };
            let threaded_cfg = FtConfig {
                backend: ft_blas::Backend::Threaded(4),
                ..FtConfig::with_nb(nb)
            };
            let s = ft_gehrd_hybrid(&a, &serial_cfg, &mut full_ctx(), &mut FaultPlan::none());
            let t = ft_gehrd_hybrid(&a, &threaded_cfg, &mut full_ctx(), &mut FaultPlan::none());
            assert!(
                t.report.recoveries.is_empty(),
                "false positive under threaded backend at n={n}: {:?}",
                t.report.recoveries
            );
            let fs = s.result.unwrap();
            let ft = t.result.unwrap();
            assert_eq!(fs.tau, ft.tau, "taus must be bit-identical");
            for j in 0..n {
                for i in 0..n {
                    assert_eq!(
                        fs.packed[(i, j)].to_bits(),
                        ft.packed[(i, j)].to_bits(),
                        "packed output differs at ({i},{j}) for n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn gehrd_output_bit_identical_above_fork_gate() {
        // n = 320, nb = 64: the first trailing updates exceed
        // ft_blas::backend::PARALLEL_MIN_VOLUME, so the threaded backend
        // genuinely forks — the output must still match serial bitwise.
        let n = 320;
        let a = ft_matrix::random::uniform(n, n, 17);
        let mk = |backend| FtConfig {
            backend,
            ..FtConfig::with_nb(64)
        };
        let s = ft_gehrd_hybrid(
            &a,
            &mk(ft_blas::Backend::Serial),
            &mut full_ctx(),
            &mut FaultPlan::none(),
        );
        let t = ft_gehrd_hybrid(
            &a,
            &mk(ft_blas::Backend::Threaded(4)),
            &mut full_ctx(),
            &mut FaultPlan::none(),
        );
        assert!(t.report.recoveries.is_empty(), "{:?}", t.report.recoveries);
        let fs = s.result.unwrap();
        let ft = t.result.unwrap();
        assert_eq!(fs.tau, ft.tau);
        for j in 0..n {
            for i in 0..n {
                assert_eq!(
                    fs.packed[(i, j)].to_bits(),
                    ft.packed[(i, j)].to_bits(),
                    "packed output differs at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn online_abft_clean_run_bit_identical() {
        // Enabling the fused online-ABFT kernels must not change the
        // factorization by a single bit, flag nothing on clean runs, and
        // never trip the iteration-level detector.
        for &(n, nb) in &[(64usize, 16usize), (50, 7)] {
            let a = ft_matrix::random::uniform(n, n, n as u64 + 1);
            let base = ft_gehrd_hybrid(
                &a,
                &FtConfig::with_nb(nb),
                &mut full_ctx(),
                &mut FaultPlan::none(),
            );
            let cfg = FtConfig {
                online_abft: true,
                ..FtConfig::with_nb(nb)
            };
            let on = ft_gehrd_hybrid(&a, &cfg, &mut full_ctx(), &mut FaultPlan::none());
            assert_eq!(on.report.online_detections, 0, "n={n}");
            assert_eq!(on.report.online_corrections, 0, "n={n}");
            assert!(
                on.report.recoveries.is_empty(),
                "{:?}",
                on.report.recoveries
            );
            let fb = base.result.unwrap();
            let fo = on.result.unwrap();
            assert_eq!(fb.tau, fo.tau, "taus must be bit-identical at n={n}");
            for j in 0..n {
                for i in 0..n {
                    assert_eq!(
                        fb.packed[(i, j)].to_bits(),
                        fo.packed[(i, j)].to_bits(),
                        "packed output differs at ({i},{j}) for n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn online_abft_memory_fault_still_recovered_at_iteration_level() {
        // A strike landing in memory *between* kernels is input-consistent
        // for the fused gemms (their base sums absorb it), so it must not
        // fire the online detector spuriously — it flows through to the
        // iteration-level Sre/Sce detector and is corrected there.
        let n = 64;
        let cfg = FtConfig {
            online_abft: true,
            ..FtConfig::with_nb(16)
        };
        let a = ft_matrix::random::uniform(n, n, 7);
        let mut plan = FaultPlan::one(1, Fault::add(40, 50, 0.37));
        let out = ft_gehrd_hybrid(&a, &cfg, &mut full_ctx(), &mut plan);
        assert!(
            !out.report.recoveries.is_empty(),
            "iteration-level detector must still fire: {:?}",
            out.report
        );
        let rec = &out.report.recoveries[0];
        assert!(
            rec.corrected.iter().any(|&(r, c, _)| r == 40 && c == 50),
            "{rec:?}"
        );
        let f = out.result.unwrap();
        let r = ResidualReport::compute(&a, &f.q(), &f.h());
        assert!(r.acceptable(1e-12), "{r:?}");
    }

    #[test]
    fn area2_fault_detected_and_corrected() {
        let n = 64;
        // Fault in the trailing matrix at the start of iteration 1.
        let mut plan = FaultPlan::one(1, Fault::add(40, 50, 0.37));
        let (a, out) = run(n, 16, 7, &mut plan);
        assert_eq!(plan.applied().len(), 1);
        assert!(
            !out.report.recoveries.is_empty(),
            "fault must be detected: {:?}",
            out.report
        );
        let rec = &out.report.recoveries[0];
        assert!(
            rec.corrected.iter().any(|&(r, c, _)| r == 40 && c == 50),
            "{rec:?}"
        );
        let f = out.result.unwrap();
        let r = ResidualReport::compute(&a, &f.q(), &f.h());
        assert!(r.acceptable(1e-12), "{r:?}");
    }

    #[test]
    fn area1_fault_detected_and_corrected() {
        let n = 64;
        let nb = 16;
        // Row above the frontier at iteration 2 (k = 32): row < 32.
        let mut plan = FaultPlan::one(2, Fault::add(10, 55, 0.21));
        let (a, out) = run(n, nb, 8, &mut plan);
        assert!(!out.report.recoveries.is_empty(), "{:?}", out.report);
        let f = out.result.unwrap();
        let r = ResidualReport::compute(&a, &f.q(), &f.h());
        assert!(r.acceptable(1e-12), "{r:?}");
    }

    #[test]
    fn area3_fault_corrected_at_end() {
        let n = 64;
        let nb = 16;
        // Q storage: a reduced column's sub-sub-diagonal at iteration 2
        // (columns 0..32 reduced; pick col 5, row 30).
        let mut plan = FaultPlan::one(2, Fault::add(30, 5, 0.11));
        let (a, out) = run(n, nb, 9, &mut plan);
        assert!(
            !out.report.q_corrections.is_empty(),
            "Q check must fire: {:?}",
            out.report
        );
        // The strike hit Q *storage*, not a reflector scale: the tau
        // scalar checksum must verify clean (and its outcome is recorded,
        // not discarded).
        assert!(
            out.report.tau_corrections.is_empty(),
            "no tau should need repair: {:?}",
            out.report.tau_corrections
        );
        let f = out.result.unwrap();
        let r = ResidualReport::compute(&a, &f.q(), &f.h());
        // Area 3 recovery goes through encode/decode dot products: the
        // paper's Tables II/III show residuals ~100× larger here.
        assert!(r.factorization < 1e-11 && r.orthogonality < 1e-11, "{r:?}");
    }

    #[test]
    fn two_simultaneous_errors_non_rectangle() {
        let n = 64;
        let mut plan = FaultPlan::new(vec![
            ft_fault::ScheduledFault {
                iteration: 1,
                phase: Phase::IterationStart,
                fault: Fault::add(30, 40, 0.5),
            },
            ft_fault::ScheduledFault {
                iteration: 1,
                phase: Phase::IterationStart,
                fault: Fault::add(45, 22, 0.8),
            },
        ]);
        let (a, out) = run(n, 16, 10, &mut plan);
        assert!(!out.report.recoveries.is_empty());
        let f = out.result.unwrap();
        let r = ResidualReport::compute(&a, &f.q(), &f.h());
        assert!(r.acceptable(1e-12), "{r:?}");
    }

    #[test]
    fn finished_h_fault_fixed_by_final_check() {
        let n = 64;
        let nb = 16;
        // Finished H region at iteration 2: column 3 (reduced), row 2.
        let mut plan = FaultPlan::one(2, Fault::add(2, 3, 0.42));
        let (a, out) = run(n, nb, 11, &mut plan);
        let f = out.result.unwrap();
        let r = ResidualReport::compute(&a, &f.q(), &f.h());
        assert!(r.acceptable(1e-12), "{r:?} report={:?}", out.report);
    }

    #[test]
    fn recovery_exhaustion_sets_structured_failure() {
        // Zero recovery attempts: the first detection goes straight to the
        // give-up re-encode, which must surface as a structured failure.
        let n = 64;
        let a = ft_matrix::random::uniform(n, n, 21);
        let cfg = FtConfig {
            max_recovery_attempts: 0,
            ..FtConfig::with_nb(16)
        };
        let mut plan = FaultPlan::one(1, Fault::add(40, 50, 0.37));
        let out = ft_gehrd_hybrid(&a, &cfg, &mut full_ctx(), &mut plan);
        assert!(out.is_unrecoverable());
        assert_eq!(
            out.failure,
            Some(crate::report::FailureReason::RecoveryExhausted { iteration: 1 })
        );
        // The clean counterpart (default attempts) recovers and reports no
        // failure.
        let mut plan = FaultPlan::one(1, Fault::add(40, 50, 0.37));
        let ok = ft_gehrd_hybrid(&a, &FtConfig::with_nb(16), &mut full_ctx(), &mut plan);
        assert!(!ok.is_unrecoverable(), "{:?}", ok.failure);
    }

    #[test]
    fn timing_only_exhaustion_matches_full() {
        // The timing-only simulation must charge (and report) the same
        // give-up path as the full run.
        let n = 96;
        let a = ft_matrix::random::uniform(n, n, 22);
        let cfg = FtConfig {
            max_recovery_attempts: 0,
            ..FtConfig::with_nb(16)
        };
        let mk_plan = || FaultPlan::one(1, Fault::add(40, 50, 0.29));
        let full = ft_gehrd_hybrid(&a, &cfg, &mut full_ctx(), &mut mk_plan());
        let mut ct = HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::TimingOnly, 2);
        let timing = ft_gehrd_hybrid(&a, &cfg, &mut ct, &mut mk_plan());
        assert!(full.is_unrecoverable());
        assert!(timing.is_unrecoverable());
        assert!(
            (full.report.sim_seconds - timing.report.sim_seconds).abs() < 1e-9,
            "{} vs {}",
            full.report.sim_seconds,
            timing.report.sim_seconds
        );
    }

    #[test]
    fn timing_only_matches_full_clean_time() {
        let n = 96;
        let a = ft_matrix::random::uniform(n, n, 12);
        let cfg = FtConfig::with_nb(16);
        let mut cf = full_ctx();
        let full = ft_gehrd_hybrid(&a, &cfg, &mut cf, &mut FaultPlan::none());
        let mut ct = HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::TimingOnly, 2);
        let timing = ft_gehrd_hybrid(&a, &cfg, &mut ct, &mut FaultPlan::none());
        assert!(timing.result.is_none());
        assert!(
            (full.report.sim_seconds - timing.report.sim_seconds).abs() < 1e-9,
            "{} vs {}",
            full.report.sim_seconds,
            timing.report.sim_seconds
        );
    }

    #[test]
    fn timing_only_matches_full_under_faults() {
        // The timing-only detector must charge a rollback exactly when the
        // real Sre/Sce aggregate test would. Scenarios, at nb = 16:
        //  * a strike inside the *active* panel (iteration 1 reduces
        //    columns 16..32; (40, 20) is below that panel's sub-diagonal)
        //    feeds the factorization and is detected that iteration;
        //  * a finished-H strike ((2, 3) at iteration 2) touches data no
        //    later iteration reads: no rollback, fixed by the final check;
        //  * a Q-storage strike ((30, 5) at iteration 2) likewise costs
        //    nothing per-iteration;
        //  * a BeforeDetection strike in the trailing matrix lands after
        //    the updates ran and is only detected one iteration later.
        let n = 96;
        let nb = 16;
        let cfg = FtConfig::with_nb(nb);
        let a = ft_matrix::random::uniform(n, n, 13);
        let scenarios: [(usize, Phase, usize, usize); 4] = [
            (1, Phase::IterationStart, 40, 20),
            (2, Phase::IterationStart, 2, 3),
            (2, Phase::IterationStart, 30, 5),
            (1, Phase::BeforeDetection, 40, 50),
        ];
        for &(iteration, phase, row, col) in &scenarios {
            let make_plan = || {
                FaultPlan::new(vec![ft_fault::ScheduledFault {
                    iteration,
                    phase,
                    fault: Fault::add(row, col, 0.29),
                }])
            };
            let mut cf = full_ctx();
            let full = ft_gehrd_hybrid(&a, &cfg, &mut cf, &mut make_plan());
            let mut ct = HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::TimingOnly, 2);
            let timing = ft_gehrd_hybrid(&a, &cfg, &mut ct, &mut make_plan());
            assert!(timing.result.is_none());
            assert!(
                (full.report.sim_seconds - timing.report.sim_seconds).abs() < 1e-9,
                "({iteration}, {phase:?}, {row}, {col}): full {} vs timing {} \
                 (full redone={}, timing redone={})",
                full.report.sim_seconds,
                timing.report.sim_seconds,
                full.report.redone_iterations,
                timing.report.redone_iterations,
            );
        }
    }

    #[test]
    fn ft_overhead_is_small_and_shrinks() {
        // The headline claim: < 2% overhead vs the fault-prone hybrid,
        // decreasing with N.
        let mut overheads = vec![];
        for &n in &[512usize, 1024, 2048] {
            let a = Matrix::zeros(n, n);
            let mut c1 = HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::TimingOnly, 2);
            let base = crate::hybrid_alg::gehrd_hybrid(
                &a,
                &crate::hybrid_alg::HybridConfig { nb: 32 },
                &mut c1,
                &mut FaultPlan::none(),
            );
            let mut c2 = HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::TimingOnly, 2);
            let ft = ft_gehrd_hybrid(&a, &FtConfig::with_nb(32), &mut c2, &mut FaultPlan::none());
            let overhead = (ft.report.sim_seconds - base.sim_seconds) / base.sim_seconds;
            overheads.push(overhead);
        }
        assert!(
            overheads[2] < overheads[0],
            "overhead should shrink: {overheads:?}"
        );
        assert!(
            overheads[2] < 0.10,
            "overhead at n=2048 too large: {overheads:?}"
        );
    }
}
