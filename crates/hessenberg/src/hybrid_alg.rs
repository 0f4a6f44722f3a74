//! Algorithm 2 of the paper: the (fault-prone) MAGMA-style hybrid
//! Hessenberg reduction on the simulated platform.
//!
//! Division of labour per panel iteration, as in MAGMA's `dgehrd`:
//!
//! 1. the lower part of the next panel is copied device→host;
//! 2. the host factorizes the panel (`MAGMA_DLAHR2`); the large
//!    per-column `Y = A·v` GEMVs are charged to the device, matching
//!    MAGMA's split of `dlahr2`;
//! 3. `V`/`T` go host→device and the device applies the right update to
//!    `M` (the rows above the panel);
//! 4. the finished `nb × nb` block of `H` is copied device→host
//!    **asynchronously** on a second stream (Algorithm 2 line 6, shown in
//!    red in the paper), overlapping with
//! 5. the right update to `G` and the block left update to the trailing
//!    matrix on the device.
//!
//! Fault hooks fire at each iteration's start and after its updates (where
//! Algorithm 3 runs detection), so the propagation study of Figure 2 can
//! corrupt the working matrix mid-factorization.

use ft_fault::{FaultPlan, Phase};
use ft_hybrid::{ExecMode, HybridCtx, OpClass, StreamId, Work};
use ft_lapack::{gehrd_step, HessFactorization};
use ft_matrix::Matrix;

/// The stream the panel transfers and block updates run on.
pub(crate) const S0: StreamId = StreamId(0);
/// The stream the finished block's copy-back overlaps on.
pub(crate) const S1: StreamId = StreamId(1);

/// Configuration for the hybrid driver.
#[derive(Clone, Copy, Debug)]
pub struct HybridConfig {
    /// Panel width.
    pub nb: usize,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig { nb: 32 }
    }
}

/// Result of a hybrid factorization run.
#[derive(Debug)]
pub struct HybridOutcome {
    /// The factorization (packed storage + `tau`); `None` in
    /// [`ExecMode::TimingOnly`].
    pub result: Option<HessFactorization>,
    /// Simulated makespan in seconds.
    pub sim_seconds: f64,
    /// Simulated per-resource statistics.
    pub stats: ft_hybrid::ExecStats,
    /// Matrix dimension (for GFLOP/s reporting).
    pub n: usize,
}

impl HybridOutcome {
    /// Simulated GFLOP/s against the nominal `10/3·n³` flops, via the
    /// shared [`ft_blas::gehrd_gflops`] helper.
    pub fn gflops(&self) -> f64 {
        ft_blas::gehrd_gflops(self.n, self.sim_seconds)
    }
}

/// Host/device flop split of one panel factorization, mirroring MAGMA's
/// `dlahr2`: column updates + reflector generation on the host, the big
/// `Y(:, j) = A·v_j` GEMV on the device.
pub(crate) fn panel_costs(n: usize, k: usize, ib: usize) -> (f64, f64) {
    let m = (n - k - 1) as f64;
    let mut host = 0.0;
    let mut dev_gemv = 0.0;
    for j in 0..ib {
        let jf = j as f64;
        // right update (2mj) + left update (≈4mj + j²) + larfg (3m) +
        // T/Y recurrences (≈4mj).
        host += 10.0 * m * jf + jf * jf + 3.0 * m;
        let trailing_cols = (n - k - j - 1) as f64;
        dev_gemv += 2.0 * m * trailing_cols;
    }
    // Y top rows: (k+1) × m × ib GEMM-ish — charge to the device GEMV
    // class (computed on the device in MAGMA).
    dev_gemv += 2.0 * (k + 1) as f64 * m * ib as f64;
    (host, dev_gemv)
}

/// Runs Algorithm 2. `plan` supplies fault injections (use
/// [`FaultPlan::none`] for clean runs): [`Phase::IterationStart`] faults
/// land before the panel, [`Phase::BeforeDetection`] faults after the
/// block updates. In [`ExecMode::TimingOnly`] no arithmetic is performed
/// and faults are consumed without effect.
pub fn gehrd_hybrid(
    a: &Matrix,
    cfg: &HybridConfig,
    ctx: &mut HybridCtx,
    plan: &mut FaultPlan,
) -> HybridOutcome {
    assert!(a.is_square(), "gehrd_hybrid: matrix must be square");
    let n = a.rows();
    let nb = cfg.nb.max(1);
    let total = n.saturating_sub(2);

    // The working matrix and `tau`, present only when the arithmetic runs.
    let mut work = match ctx.mode() {
        ExecMode::Full => Some(HessFactorization {
            packed: a.clone(),
            tau: vec![0.0; total],
        }),
        ExecMode::TimingOnly => None,
    };

    // Transfer the input matrix to the device (Algorithm 2 line 1).
    ctx.h2d(S0, n * n * 8);

    for (iter, k) in (0..total).step_by(nb).enumerate() {
        let ib = nb.min(total - k);
        // Fault hook at the iteration boundary, then the panel and its
        // block updates (the same step as the CPU `gehrd`), then the hook
        // where Algorithm 3 would detect.
        match &mut work {
            Some(f) => {
                plan.apply_due(iter, Phase::IterationStart, &mut f.packed);
                let panel = gehrd_step(&mut f.packed, k, ib);
                f.tau[k..k + ib].copy_from_slice(&panel.tau);
                plan.apply_due(iter, Phase::BeforeDetection, &mut f.packed);
            }
            None => {
                plan.consume_due(iter, Phase::IterationStart);
                plan.consume_due(iter, Phase::BeforeDetection);
            }
        }
        charge_iteration(ctx, n, k, ib);
    }

    ctx.sync_all();
    HybridOutcome {
        result: work,
        sim_seconds: ctx.elapsed(),
        stats: ctx.stats().clone(),
        n,
    }
}

/// Charges one panel iteration of Algorithm 2 to the simulated platform.
fn charge_iteration(ctx: &mut HybridCtx, n: usize, k: usize, ib: usize) {
    let m = n - k - 1;
    let ntrail = n - k - ib;

    // (1) panel to host (Algorithm 2 line 3).
    ctx.d2h(S0, (n - k) * ib * 8);
    ctx.sync_stream(S0);

    // (2) panel factorization (line 4): host + device GEMV split.
    let (host_flops, dev_gemv_flops) = panel_costs(n, k, ib);
    ctx.host(OpClass::HostPanel, Work::Flops(host_flops));
    ctx.device(S0, OpClass::DeviceGemv, Work::Flops(dev_gemv_flops));
    // per-column v/y round trips inside the hybrid dlahr2
    ctx.h2d(S0, m * ib * 8);
    ctx.d2h(S0, m * ib * 8);

    // (3) V and T to the device for the block updates.
    ctx.h2d(S0, (m * ib + ib * ib) * 8);

    // Right update to M's panel columns (line 5): rows above the panel.
    if ib > 1 {
        ctx.device(S0, OpClass::DeviceGemm, Work::gemm(k + 1, ib - 1, ib));
    }

    // (4) async copy-back of the finished block (line 6) on stream 1,
    // overlapped with the trailing updates on stream 0.
    ctx.stream_wait_stream(S1, S0);
    ctx.d2h(S1, (k + 1 + ib) * ib * 8);

    if ntrail > 0 {
        // (5) right update to G (line 7): all rows × trailing columns.
        ctx.device(S0, OpClass::DeviceGemm, Work::gemm(n, ntrail, ib));
        // Left update (line 8): W = VᵀA, W = TᵀW, A −= V·W.
        let left_flops = (4.0 * m as f64 + ib as f64) * ntrail as f64 * ib as f64;
        ctx.device(S0, OpClass::DeviceGemm, Work::Flops(left_flops));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_hybrid::CostModel;
    use ft_lapack::{gehrd, GehrdConfig};

    fn full_ctx() -> HybridCtx {
        HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::Full, 2)
    }

    #[test]
    fn matches_cpu_blocked_gehrd() {
        let n = 40;
        let a = ft_matrix::random::uniform(n, n, 61);
        let mut ctx = full_ctx();
        let out = gehrd_hybrid(
            &a,
            &HybridConfig { nb: 8 },
            &mut ctx,
            &mut FaultPlan::none(),
        );
        let f = out.result.unwrap();

        let mut cpu = a.clone();
        let cpu_tau = gehrd(&mut cpu, &GehrdConfig { nb: 8, nx: 1 });
        ft_matrix::assert_matrix_eq(&f.packed, &cpu, 1e-11, "hybrid vs CPU packed");
        for (x, y) in f.tau.iter().zip(&cpu_tau) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn residuals_are_backward_stable() {
        let n = 64;
        let a = ft_matrix::random::uniform(n, n, 62);
        let mut ctx = full_ctx();
        let out = gehrd_hybrid(
            &a,
            &HybridConfig { nb: 16 },
            &mut ctx,
            &mut FaultPlan::none(),
        );
        let f = out.result.unwrap();
        let r = ft_lapack::gehrd::factorization_residual(&a, &f.q(), &f.h());
        assert!(r < 1e-15, "residual {r}");
    }

    #[test]
    fn timing_only_costs_match_full_mode() {
        let n = 48;
        let a = ft_matrix::random::uniform(n, n, 63);
        let cfg = HybridConfig { nb: 8 };
        let mut cf = full_ctx();
        let full = gehrd_hybrid(&a, &cfg, &mut cf, &mut FaultPlan::none());
        let mut ct = HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::TimingOnly, 2);
        let timing = gehrd_hybrid(&a, &cfg, &mut ct, &mut FaultPlan::none());
        assert!(timing.result.is_none());
        assert!(
            (full.sim_seconds - timing.sim_seconds).abs() < 1e-12,
            "simulated time must be mode-independent: {} vs {}",
            full.sim_seconds,
            timing.sim_seconds
        );
    }

    #[test]
    fn injected_fault_corrupts_result() {
        let n = 48;
        let a = ft_matrix::random::uniform(n, n, 64);
        let cfg = HybridConfig { nb: 8 };

        let mut ctx = full_ctx();
        let clean = gehrd_hybrid(&a, &cfg, &mut ctx, &mut FaultPlan::none())
            .result
            .unwrap();

        let mut plan = FaultPlan::one(1, ft_fault::Fault::add(20, 30, 1.0));
        let mut ctx2 = full_ctx();
        let dirty = gehrd_hybrid(&a, &cfg, &mut ctx2, &mut plan).result.unwrap();
        assert_eq!(plan.applied().len(), 1);
        assert!(
            ft_matrix::max_abs_diff(&clean.packed, &dirty.packed) > 1e-3,
            "fault must visibly corrupt the factorization"
        );
    }

    #[test]
    fn before_detection_fault_lands_after_the_updates() {
        let n = 48;
        let a = ft_matrix::random::uniform(n, n, 65);
        let cfg = HybridConfig { nb: 8 };
        let late = || {
            FaultPlan::new(vec![ft_fault::ScheduledFault {
                iteration: 1,
                phase: Phase::BeforeDetection,
                fault: ft_fault::Fault::add(20, 30, 1.0),
            }])
        };

        let clean = gehrd_hybrid(&a, &cfg, &mut full_ctx(), &mut FaultPlan::none())
            .result
            .unwrap();
        let mut plan = late();
        let dirty = gehrd_hybrid(&a, &cfg, &mut full_ctx(), &mut plan)
            .result
            .unwrap();
        let applied = plan.applied();
        assert_eq!(applied.len(), 1, "the fault is applied");
        assert_eq!(
            (applied[0].iteration, applied[0].phase),
            (1, Phase::BeforeDetection)
        );
        assert_ne!(
            clean.packed, dirty.packed,
            "the fault must reach the factorization"
        );

        let mut plan = late();
        let mut ctx = HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::TimingOnly, 2);
        gehrd_hybrid(&a, &cfg, &mut ctx, &mut plan);
        assert!(plan.is_exhausted(), "TimingOnly consumes the fault");
    }

    #[test]
    fn gflops_increase_with_size() {
        // The hybrid pipeline should show the paper's scaling shape:
        // larger problems amortize panel/transfer latency.
        let mut rates = vec![];
        for &n in &[128usize, 256, 512] {
            let a = Matrix::zeros(n, n);
            let mut ctx = HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::TimingOnly, 2);
            let out = gehrd_hybrid(
                &a,
                &HybridConfig { nb: 32 },
                &mut ctx,
                &mut FaultPlan::none(),
            );
            rates.push(out.gflops());
        }
        assert!(rates[1] > rates[0] && rates[2] > rates[1], "{rates:?}");
    }
}
