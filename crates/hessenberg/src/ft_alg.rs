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
//! * each run of the iteration checkpoints the panel it is about to
//!   factorize in host memory (diskless checkpointing), and the update
//!   operands `V`, `T`, `Y`, `W` are retained until the iteration
//!   verifies;
//! * at the iteration's end the detector compares `Sre` (sum of the
//!   row-checksum column) against `Sce` (sum of the column-checksum row);
//!   two dot products (Algorithm 3 lines 12–13);
//! * on mismatch: the left and right block updates are reversed from the
//!   retained intermediates, the panel is restored from the checkpoint
//!   of the run that fired, fresh row/column sums locate the error(s),
//!   the checksum-subtraction formula corrects them, and the iteration
//!   re-executes (lines 14–16);
//! * the `Q` reflectors are protected by host-side checksums generated on
//!   the otherwise-idle CPU, overlapped with the device update (paper
//!   §IV-E), and verified once at the end (§IV-F), after a final
//!   whole-matrix consistency pass that also covers finished `H` columns
//!   (`recovery::final_check`, shared with the tridiagonal driver).

use crate::encode::{extend_v, extend_y, ExtMatrix};
use crate::hybrid_alg::{panel_costs, S0, S1};
use crate::qprotect::QProtection;
use crate::recovery::{final_check, record_iteration, repair, Outcome};
use crate::report::{FailureReason, FtReport, PhaseBreakdown, RecoveryEvent};
use crate::reverse::{
    left_update_ext, reverse_left_update_ext, reverse_right_update_ext, right_update_panel_top,
    right_update_trailing,
};
use crate::threshold::ThresholdPolicy;
use ft_fault::{classify, FaultPlan, Phase, Region, ScheduledFault};
use ft_hybrid::{ExecMode, HybridCtx, OpClass, Work};
use ft_lapack::{lahr2_within, HessFactorization, Panel};
use ft_matrix::Matrix;

/// Configuration of both fault-tolerant drivers, [`ft_gehrd_hybrid`] and
/// [`crate::ft_sytd2`].
#[derive(Clone, Copy, Debug)]
pub struct FtConfig {
    /// Panel width; for [`crate::ft_sytd2`], the detection cadence in
    /// columns.
    pub nb: usize,
    /// Detection threshold policy.
    pub threshold: ThresholdPolicy,
    /// Maintain and verify the host-side `Q` checksums.
    pub protect_q: bool,
    /// Run the `Q`-checksum GEMVs on the (idle, overlapped) host — the
    /// paper's choice. `false` serializes them on the device stream
    /// (ablation: shows why the overlap matters). It moves simulated
    /// charges only; [`crate::ft_sytd2`] has none.
    pub q_checksums_on_host: bool,
    /// Recovery attempts per iteration (per group, for
    /// [`crate::ft_sytd2`]) before falling back to a checksum re-encode.
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
        if self.protect_q {
            "checksums+q"
        } else {
            "checksums"
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
    /// `Some` exactly when the report holds an unresolved episode
    /// ([`FtReport::any_unresolved`]: attempt exhaustion, an unresolved
    /// recovery or an unresolvable final check), so the result cannot be
    /// trusted without independent verification. Retry-with-escalation
    /// layers key off this field.
    pub failure: Option<FailureReason>,
}

/// The driver's numerical state. It exists only in [`ExecMode::Full`];
/// under [`ExecMode::TimingOnly`] the driver charges the simulated
/// platform for the same operations and runs none of them.
struct Live {
    ax: ExtMatrix,
    qprot: QProtection,
    tau: Vec<f64>,
    /// Detection threshold on `|Sre − Sce|`.
    threshold: f64,
    /// Deficit significance threshold of the locate step.
    loc_tol: f64,
}

/// What one run of a panel iteration retains for a possible reversal —
/// the diskless checkpoint of Algorithm 3.
struct Retained {
    /// The panel columns, checksum row included, as this run found them:
    /// after a repair, the repaired state, so that a second reversal does
    /// not bring back what the repair removed.
    checkpoint: Matrix,
    panel: Panel,
    yx: Matrix,
    vx: Matrix,
    /// The left update's inner product `W = Vᵀ·A`.
    w: Matrix,
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
    let threshold = cfg.threshold.resolve(a);
    let label = cfg.protection_label();

    let wall_start = ft_trace::clock::Stopwatch::start();

    let mut report = FtReport {
        n,
        nb,
        threshold,
        ..Default::default()
    };
    let mut failure: Option<FailureReason> = None;

    // Transfer the input and encode it on the device (lines 1–2).
    ctx.h2d(S0, n * n * 8);
    ctx.device(S0, OpClass::DeviceGemv, Work::Flops(4.0 * (n * n) as f64));
    let mut live = match ctx.mode() {
        ExecMode::Full => {
            let _span = ft_trace::span!("ft.encode" => &mut report.phases.encode);
            Some(Live {
                ax: ExtMatrix::encode_with(a, cfg.checksum_scheme),
                qprot: QProtection::new(n),
                tau: vec![0.0; n.saturating_sub(2)],
                threshold,
                loc_tol: threshold / (n as f64).sqrt().max(1.0),
            })
        }
        ExecMode::TimingOnly => None,
    };

    let total = n.saturating_sub(2);
    let mut carried_faults = vec![];
    for (iter, k) in (0..total).step_by(nb).enumerate() {
        let ib = nb.min(total - k);
        let outcome = match &mut live {
            Some(l) => l.reduce_panel(plan, iter, k, ib, cfg, &mut report),
            None => timing_outcome(plan, &mut carried_faults, iter, n, k, ib, cfg),
        };
        charge_panel(ctx, n, k, ib, cfg, &outcome);
        record_iteration(&mut report, &mut failure, label, iter, outcome);
    }

    // ---- final verification ---------------------------------------------
    // (a) whole-matrix consistency, which covers finished-H corruption the
    // per-iteration aggregate test cannot see, (b) the Q storage and tau
    // checks (paper §IV-F, once at the end), then the result back to the
    // host.
    if let Some(l) = &mut live {
        let qprot = cfg.protect_q.then_some(&l.qprot);
        if !final_check(&mut l.ax, qprot, &mut l.tau, l.loc_tol, label, &mut report) {
            let iteration = report.iterations;
            failure.get_or_insert(FailureReason::UnresolvedFinalCheck { iteration });
        }
    }
    ctx.device(S0, OpClass::DeviceVector, Work::Flops(4.0 * (n * n) as f64));
    if cfg.protect_q {
        ctx.host(OpClass::HostVector, Work::Flops(2.0 * (n * n) as f64 / 2.0));
    }
    ctx.d2h(S0, n * n * 8);
    ctx.sync_all();

    report.sim_seconds = ctx.elapsed();
    report.stats = ctx.stats().clone();
    report.wall_seconds = wall_start.elapsed_seconds();

    FtOutcome {
        result: live.map(|l| HessFactorization {
            packed: l.ax.into_packed(),
            tau: l.tau,
        }),
        report,
        failure,
    }
}

impl Live {
    /// Panel iteration `k` (Algorithm 3 lines 3–16): the fault hooks, the
    /// iteration, detection, and up to `max_recovery_attempts`
    /// reverse/repair/re-execute cycles; then the verified panel is
    /// committed to `tau` and the `Q` protection.
    fn reduce_panel(
        &mut self,
        plan: &mut FaultPlan,
        iter: usize,
        k: usize,
        ib: usize,
        cfg: &FtConfig,
        report: &mut FtReport,
    ) -> Outcome {
        let ax = &mut self.ax;
        let applied = plan.apply_due(iter, Phase::IterationStart, ax.raw_mut());
        report.injected.extend_from_slice(&applied);

        let mut it = run_iteration(ax, k, ib, &mut report.phases);
        let applied = plan.apply_due(iter, Phase::BeforeDetection, ax.raw_mut());
        report.injected.extend_from_slice(&applied);
        let mut detected = detect(ax, self.threshold, k, &mut report.phases);

        let mut recoveries = vec![];
        while let Some(mismatch) = detected.filter(|_| recoveries.len() < cfg.max_recovery_attempts)
        {
            // Reverse the left then the right update from the retained
            // intermediates, and restore the panel (line 14).
            {
                let _span = ft_trace::span!("ft.reverse", iter => &mut report.phases.reverse);
                reverse_left_update_ext(ax, k, ib, &it.vx, &it.panel.t, &it.w);
                reverse_right_update_ext(ax, k, ib, &it.yx, &it.vx);
                ax.raw_mut().set_sub_matrix(0, k, &it.checkpoint);
            }
            let event = repair(ax, k, self.loc_tol, iter, mismatch, &mut report.phases);
            recoveries.push(event);
            // Re-execute the iteration (line: "the entire iteration is
            // repeated after the error correction").
            it = run_iteration(ax, k, ib, &mut report.phases);
            detected = detect(ax, self.threshold, k, &mut report.phases);
        }
        if detected.is_some() {
            // Give up on surgical repair: refresh all checksums from the
            // current data so the factorization can continue.
            let _span = ft_trace::span!("ft.encode" => &mut report.phases.encode);
            ax.reencode(k + ib);
        }

        // Commit: absorb the verified panel's reflectors into Q
        // protection — V as the run produced it (local row r is global
        // row k + 1 + r), not the storage a strike may have hit since.
        self.tau[k..k + ib].copy_from_slice(&it.panel.tau);
        if cfg.protect_q {
            let _span = ft_trace::span!("ft.qprotect", k => &mut report.phases.qprotect);
            let v = &it.panel.v;
            self.qprot
                .absorb_reflectors(|j| v.col(j - k), k + 1, k, ib, &self.tau[k..k + ib]);
        }
        Outcome {
            recoveries,
            gave_up: detected.is_some(),
        }
    }
}

/// One run of a panel iteration's arithmetic (lines 5–11 and the checksum
/// refresh), also used verbatim for re-execution.
fn run_iteration(ax: &mut ExtMatrix, k: usize, ib: usize, phases: &mut PhaseBreakdown) -> Retained {
    let n = ax.n();
    let checkpoint = ax.raw().sub_matrix(0, k, n + 1, ib);

    // Panel factorization (line 5).
    let panel = {
        let _span = ft_trace::span!("ft.panel", k => &mut phases.panel);
        lahr2_within(ax.raw_mut(), n, k, ib)
    };

    // Checksum extensions (lines 6–7): Yce from the pre-update checksum
    // row, Vce as the column sums of V.
    let (yx, vx) = {
        let _span = ft_trace::span!("ft.encode", k => &mut phases.encode);
        // Arena scratch instead of a fresh Vec: this runs once per panel
        // iteration and reuses the same buffer after warm-up.
        let mut chk_seg = ft_blas::workspace::scratch(n - k - 1);
        for (dst, j) in chk_seg.iter_mut().zip(k + 1..n) {
            *dst = ax.chk_row(j);
        }
        (
            extend_y(&panel.y, &chk_seg, &panel.v, &panel.t),
            extend_v(&panel.v),
        )
    };

    // Right update to M's panel columns (line 8).
    if ib > 1 {
        let _span = ft_trace::span!("ft.trailing", k => &mut phases.trailing);
        right_update_panel_top(ax, k, ib, &yx, &vx);
    }

    // Right update to G + checksum borders (line 10) and the left update
    // (line 11, retaining W for reversal): the trailing-matrix phase.
    let w = {
        let _span = ft_trace::span!("ft.trailing", k => &mut phases.trailing);
        right_update_trailing(ax, k, ib, &yx, &vx);
        left_update_ext(ax, k, ib, &vx, &panel.t)
    };

    // Refresh the column checksums of the just-finished panel columns
    // from their final H values (their storage switched representation).
    {
        let _span = ft_trace::span!("ft.encode", k => &mut phases.encode);
        ax.refresh_chk_row(k, k + ib, k + ib);
    }
    Retained {
        checkpoint,
        panel,
        yx,
        vx,
        w,
    }
}

/// The end-of-iteration detector (lines 12–13): `|Sre − Sce| > threshold`,
/// NaN-safe. Returns the mismatch `|Sre − Sce|` when it fires.
fn detect(ax: &ExtMatrix, threshold: f64, k: usize, phases: &mut PhaseBreakdown) -> Option<f64> {
    let _span = ft_trace::span!("ft.detect", k => &mut phases.detect);
    let gap = ax.sre() - ax.sce();
    ThresholdPolicy::exceeded(gap, threshold).then(|| gap.abs())
}

/// The timing-only mirror of [`Live::reduce_panel`]: consumes the
/// iteration's faults and decides from their positions whether the
/// aggregate test would fire.
///
/// A data strike that landed after the iteration's updates ran
/// (`Phase::BeforeDetection`) cannot perturb that iteration's aggregates;
/// it becomes visible — if at all — once the *next* iteration's updates
/// run over it, so it is carried forward one boundary in `carried`. A
/// strike on a checksum border is never carried: it moves `Sre` or `Sce`
/// directly (see [`visible`]).
fn timing_outcome(
    plan: &mut FaultPlan,
    carried: &mut Vec<ScheduledFault>,
    iter: usize,
    n: usize,
    k: usize,
    ib: usize,
    cfg: &FtConfig,
) -> Outcome {
    let mut due = std::mem::take(carried);
    due.extend(plan.peek_due(iter, Phase::IterationStart));
    plan.consume_due(iter, Phase::IterationStart);
    let (border, data): (Vec<_>, Vec<_>) = plan
        .peek_due(iter, Phase::BeforeDetection)
        .into_iter()
        .partition(|f| f.fault.row == n || f.fault.col == n);
    plan.consume_due(iter, Phase::BeforeDetection);
    due.extend(border);
    *carried = data;

    let detected = due.iter().any(|f| visible(n, k, ib, f));
    // One recovery clears the strike, so the re-executed iteration passes.
    let attempts = usize::from(detected && cfg.max_recovery_attempts > 0);
    let event = RecoveryEvent {
        iteration: iter,
        mismatch: f64::NAN,
        corrected: vec![],
        resolved: true,
    };
    Outcome {
        recoveries: vec![event; attempts],
        gave_up: detected && attempts == 0,
    }
}

/// Charges one panel iteration and its recovery cycles to the simulated
/// platform, in issue order.
fn charge_panel(
    ctx: &mut HybridCtx,
    n: usize,
    k: usize,
    ib: usize,
    cfg: &FtConfig,
    outcome: &Outcome,
) {
    charge_iteration(ctx, n, k, ib, cfg);
    charge_detect(ctx, n);
    for _ in &outcome.recoveries {
        charge_recovery(ctx, n, k, ib);
        charge_iteration(ctx, n, k, ib, cfg);
        charge_detect(ctx, n);
    }
    if outcome.gave_up {
        // The last-resort checksum re-encode.
        ctx.device(S0, OpClass::DeviceVector, Work::Flops(4.0 * (n * n) as f64));
    }
}

/// Charges one run of a panel iteration (lines 4–11 and the checksum
/// refresh).
fn charge_iteration(ctx: &mut HybridCtx, n: usize, k: usize, ib: usize, cfg: &FtConfig) {
    let m = n - k - 1;
    let ntrail1 = m - ib + 2; // real trailing columns + checksum column

    // Panel to host (line 4).
    ctx.d2h(S0, (n - k) * ib * 8);
    ctx.sync_stream(S0);

    // Panel factorization (line 5): host + device-GEMV split as in MAGMA.
    let (host_flops, dev_gemv_flops) = panel_costs(n, k, ib);
    ctx.host(OpClass::HostPanel, Work::Flops(host_flops));
    ctx.device(S0, OpClass::DeviceGemv, Work::Flops(dev_gemv_flops));
    ctx.h2d(S0, m * ib * 8);
    ctx.d2h(S0, m * ib * 8);

    // Checksum extensions (lines 6–7): two device GEMV-class kernels.
    ctx.device(S0, OpClass::DeviceGemv, Work::Flops((3 * m * ib) as f64));

    // V, T (and extensions) to the device.
    ctx.h2d(S0, ((m + 1) * ib + ib * ib) * 8);

    // Right update to M's panel columns (line 8).
    if ib > 1 {
        ctx.device(S0, OpClass::DeviceGemm, Work::gemm(k + 1, ib - 1, ib));
    }

    // Async copy-back of the finished block (line 9), overlapped.
    ctx.stream_wait_stream(S1, S0);
    ctx.d2h(S1, (k + 1 + ib) * ib * 8);

    // Right update to G + checksum borders (line 10), then the left
    // update (line 11).
    ctx.device(S0, OpClass::DeviceGemm, Work::gemm(n + 1, ntrail1, ib));
    let left_flops = (4.0 * m as f64 + ib as f64) * ntrail1 as f64 * ib as f64;
    ctx.device(S0, OpClass::DeviceGemm, Work::Flops(left_flops));

    // Q-checksum generation for the finished panel — two GEMVs, run on
    // the idle host overlapped with the device updates (paper §IV-E), or
    // on the device for the ablation.
    let q_flops = Work::Flops(4.0 * (m * ib) as f64);
    if cfg.q_checksums_on_host {
        ctx.host(OpClass::HostVector, q_flops);
    } else {
        ctx.device(S0, OpClass::DeviceGemv, q_flops);
    }

    // Checksum refresh of the just-finished panel columns.
    ctx.device(
        S0,
        OpClass::DeviceVector,
        Work::Flops((ib * (k + 2 + ib)) as f64),
    );
}

/// Charges the detector (lines 12–13): two device reductions, a tiny
/// transfer and the host compare.
fn charge_detect(ctx: &mut HybridCtx, n: usize) {
    ctx.device(S0, OpClass::DeviceVector, Work::Flops(2.0 * n as f64));
    ctx.d2h(S0, 16);
    ctx.sync_stream(S0);
}

/// Charges one recovery (line 14): both reversals, the checkpoint
/// restore, the locate-and-correct sweep and its result back to the host.
fn charge_recovery(ctx: &mut HybridCtx, n: usize, k: usize, ib: usize) {
    let m = n - k - 1;
    let ntrail1 = m - ib + 2;
    let left_flops = (4.0 * m as f64 + ib as f64) * ntrail1 as f64 * ib as f64;
    ctx.device(S0, OpClass::DeviceGemm, Work::Flops(left_flops));
    ctx.device(S0, OpClass::DeviceGemm, Work::gemm(n + 1, ntrail1, ib));
    ctx.h2d(S0, (n + 1) * ib * 8);
    ctx.device(S0, OpClass::DeviceVector, Work::Flops(4.0 * (n * n) as f64));
    ctx.d2h(S0, 2 * n * 8);
}

/// Whether strike `f` — in extended-matrix coordinates, where row or
/// column `n` is a checksum border — perturbs the `Sre − Sce` test run at
/// the end of the iteration reducing columns `k..k + ib`.
///
/// Data strikes: detection runs after the iteration completes, so in the
/// [`classify`] frontier convention (`k` = columns already reduced) the
/// frontier is `k + ib`. The in-flight panel needs its own carve-out,
/// though: a strike inside columns `k..k + ib` happened *before* they
/// were reduced, fed `lahr2` and both extended block updates, and thus
/// drives `Sre` and `Sce` apart — even where `classify` at the advanced
/// frontier would already call the location `Q` storage (Area 3) or
/// finished `H`. Strikes left of the panel touch data this iteration
/// never reads: the aggregates cannot see them, and they are repaired by
/// the end-of-run whole-matrix and `Q`/`tau` checks without any rollback.
///
/// Border strikes: the corner `(n, n)` is in neither aggregate, and
/// `refresh_chk_row` overwrites an `IterationStart` strike on the
/// checksum-row entry of an in-flight panel column. Every other border
/// strike changes `Sre` or `Sce` itself.
fn visible(n: usize, k: usize, ib: usize, f: &ScheduledFault) -> bool {
    let (row, col) = (f.fault.row, f.fault.col);
    let in_flight_panel = (k..k + ib).contains(&col);
    match (row == n, col == n) {
        (true, true) => false,
        (true, false) => !(f.phase == Phase::IterationStart && in_flight_panel),
        (false, true) => true,
        (false, false) => {
            in_flight_panel
                || matches!(
                    classify(n, (k + ib).min(n), row, col),
                    Region::Area1 | Region::Area2
                )
        }
    }
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
    fn second_rollback_restores_the_repaired_panel() {
        // A bit-62 flip at (63, 16), in the panel iteration 1 factorizes,
        // makes a sub-unit entry overflow-scale. Correcting it leaves 0
        // where the true value was, so the re-execution fires again. The
        // second reversal must restore the repaired panel, not the strike,
        // for the second repair to find the true value.
        let mut plan = FaultPlan::one(1, Fault::bitflip(63, 16, 62));
        let (a, out) = run(64, 16, 11, &mut plan);
        assert_eq!(out.failure, None, "{:?}", out.report.recoveries);
        assert!(out.report.recoveries.len() >= 2, "{:?}", out.report);
        let f = out.result.unwrap();
        let r = ResidualReport::compute(&a, &f.q(), &f.h());
        assert!(r.acceptable(1e-11), "{r:?}");
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
    fn finished_h_cancelling_pair_is_flagged() {
        // +0.5 at (2, 5) and −0.5 at (4, 5), one finished-H column: the
        // final check sees row deficits at rows 2 and 4 and none on the
        // columns. It locates nothing, and the run must not come back
        // unflagged.
        let strike = |row, delta| ft_fault::ScheduledFault {
            iteration: 3,
            phase: Phase::IterationStart,
            fault: Fault::add(row, 5, delta),
        };
        let mut plan = FaultPlan::new(vec![strike(2, 0.5), strike(4, -0.5)]);
        let (a, out) = run(64, 16, 11, &mut plan);
        assert_eq!(plan.applied().len(), 2);
        assert_eq!(
            out.failure,
            Some(crate::report::FailureReason::UnresolvedFinalCheck { iteration: 4 }),
            "{:?}",
            out.report.recoveries
        );
        let f = out.result.unwrap();
        let r = ResidualReport::compute(&a, &f.q(), &f.h());
        assert!(!r.acceptable(1e-11), "the pair does corrupt H: {r:?}");
    }

    #[test]
    fn unresolved_recovery_sets_structured_failure() {
        // +0.5 at (40, 50) and −0.5 at (50, 50), one trailing column: the
        // recovery sees two row deficits and no column deficit. It locates
        // nothing, re-encodes over the corrupt data and the re-executed
        // iteration passes detection; the run must still fail.
        let strike = |row, delta| ft_fault::ScheduledFault {
            iteration: 1,
            phase: Phase::IterationStart,
            fault: Fault::add(row, 50, delta),
        };
        let mut plan = FaultPlan::new(vec![strike(40, 0.5), strike(50, -0.5)]);
        let (a, out) = run(64, 16, 11, &mut plan);
        assert_eq!(
            out.failure,
            Some(crate::report::FailureReason::UnresolvedRecovery { iteration: 1 }),
            "{:?}",
            out.report.recoveries
        );
        assert!(out.report.any_unresolved());
        let f = out.result.unwrap();
        let r = ResidualReport::compute(&a, &f.q(), &f.h());
        assert!(!r.acceptable(1e-11), "the pair does corrupt H: {r:?}");
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
        assert!(out.failure.is_some());
        assert_eq!(
            out.failure,
            Some(crate::report::FailureReason::RecoveryExhausted { iteration: 1 })
        );
        // The clean counterpart (default attempts) recovers and reports no
        // failure.
        let mut plan = FaultPlan::one(1, Fault::add(40, 50, 0.37));
        let ok = ft_gehrd_hybrid(&a, &FtConfig::with_nb(16), &mut full_ctx(), &mut plan);
        assert_eq!(ok.failure, None);
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
        assert!(full.failure.is_some());
        assert!(timing.failure.is_some());
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
        //    the updates ran and is only detected one iteration later;
        //  * checksum-border strikes (row or column n) move Sre or Sce
        //    themselves and are detected in the iteration they land, in
        //    either phase — except the corner, which is in neither
        //    aggregate, and an IterationStart strike on the checksum-row
        //    entry of an in-flight panel column, which refresh_chk_row
        //    overwrites.
        let n = 96;
        let nb = 16;
        let cfg = FtConfig::with_nb(nb);
        let a = ft_matrix::random::uniform(n, n, 13);
        let scenarios: [(usize, Phase, usize, usize); 11] = [
            (1, Phase::IterationStart, 40, 20),
            (2, Phase::IterationStart, 2, 3),
            (2, Phase::IterationStart, 30, 5),
            (1, Phase::BeforeDetection, 40, 50),
            (0, Phase::IterationStart, n, 0),
            (2, Phase::BeforeDetection, n, 40),
            (1, Phase::IterationStart, n, 5),
            (1, Phase::BeforeDetection, n, 90),
            (2, Phase::IterationStart, 10, n),
            (2, Phase::BeforeDetection, n - 1, n),
            (3, Phase::IterationStart, n, n),
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
