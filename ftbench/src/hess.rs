//! The three reduction workloads: `ft_gehrd_hybrid` on one seeded matrix,
//! repeated, clean or with a seeded fault plan per repetition.

use crate::gen;
use crate::metrics::{Outcome, E2E, LAYERS};
use crate::profile;
use crate::spans::Tracer;
use crate::stats::{median, peak_rss_mb, percentile, Pct};
use ft_fault::FaultPlan;
use ft_hessenberg::verify::ResidualReport;
use ft_hessenberg::{ft_gehrd_hybrid, FtConfig, FtOutcome, HessFactorization};
use ft_hybrid::{CostModel, ExecMode, HybridCtx};
use ft_matrix::Matrix;
use std::time::{Duration, Instant};

/// Set-up is repeated this many times per run and its median reported.
pub const SETUPS: usize = 5;
/// A run never extends past this to reach its minimum repetition count.
pub const HARD_CAP: Duration = Duration::from_secs(120);
/// Repetitions a timed run makes however short its budget.
const MIN_REPS: usize = 3;

/// Median and the highest percentile with at least ten samples beyond
/// it, with the sample count (the tail is not an end-to-end metric: its
/// run-to-run spread on a shared machine exceeds any usable bound).
pub fn timing_summary(ms: &[f64]) -> String {
    let top = Pct::highest_with_ten_beyond(ms.len());
    format!(
        "{} samples, p50 {:.3} ms, {} {:.3} ms ({} beyond)",
        ms.len(),
        median(ms),
        top.label(),
        percentile(ms, top),
        top.beyond(ms.len())
    )
}

pub struct HessWorkload {
    pub n: usize,
    pub nb: usize,
    /// Each repetition gets its own seeded four-fault plan.
    pub faulted: bool,
    pub warmups: usize,
}

/// The driver configuration every workload uses: defaults, serial backend.
pub fn ft_config(nb: usize) -> FtConfig {
    let mut cfg = FtConfig::with_nb(nb);
    cfg.backend = ft_blas::Backend::Serial;
    cfg
}

/// One timed driver call on a fresh simulator context: `(outcome, ms)`.
pub fn run_driver(a: &Matrix, cfg: &FtConfig, plan: &mut FaultPlan) -> (FtOutcome, f64) {
    let mut ctx = HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::Full, 2);
    let t = Instant::now();
    let out = ft_gehrd_hybrid(a, cfg, &mut ctx, plan);
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// How one repetition's output fared against its oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The driver reported that it could not verify its result.
    Flagged,
    /// Wrong output reported as good.
    Silent,
}

pub fn flagged(out: &FtOutcome) -> bool {
    out.failure.is_some() || out.report.any_unresolved()
}

/// A clean repetition must reproduce the reference bit for bit.
pub fn judge_clean(out: &FtOutcome, reference: &HessFactorization) -> Verdict {
    if flagged(out) {
        Verdict::Flagged
    } else {
        match &out.result {
            Some(f) if crate::replay::bit_identical(f, reference) => Verdict::Ok,
            _ => Verdict::Silent,
        }
    }
}

/// A faulted repetition must pass the residual test at 1e-11 (the
/// tolerance of the repository's pipeline tests) or be flagged.
pub fn judge_faulted(a: &Matrix, out: &FtOutcome) -> Verdict {
    if flagged(out) {
        return Verdict::Flagged;
    }
    match &out.result {
        Some(f) if ResidualReport::compute(a, &f.q(), &f.h()).acceptable(1e-11) => Verdict::Ok,
        _ => Verdict::Silent,
    }
}

/// Counts a verdict into the outcome.
pub fn tally(out: &mut Outcome, v: Verdict, what: &str) {
    out.attempted += 1;
    match v {
        Verdict::Ok => {}
        Verdict::Flagged => out.failed += 1,
        Verdict::Silent => {
            out.failed += 1;
            out.problems.push(format!("{what}: silently wrong result"));
        }
    }
}

pub struct Setup {
    pub a: Matrix,
    pub reference: HessFactorization,
}

/// Input generation, the clean reference (which must pass the residual
/// test at 1e-12) and the warm-up repetitions.
pub fn setup(w: &HessWorkload, seed: u64, cfg: &FtConfig) -> Result<Setup, String> {
    let a = gen::hess_input(w.n, seed);
    let (out, _) = run_driver(&a, cfg, &mut FaultPlan::none());
    if flagged(&out) || !out.report.recoveries.is_empty() {
        return Err(format!(
            "reference run detected a fault: {:?}",
            out.report.recoveries
        ));
    }
    let reference = out
        .result
        .ok_or("reference run returned no factorization")?;
    let r = ResidualReport::compute(&a, &reference.q(), &reference.h());
    if !r.acceptable(1e-12) {
        return Err(format!(
            "reference factorization fails its residual test: {r:?}"
        ));
    }
    for i in 0..w.warmups {
        run_driver(&a, cfg, &mut plan_for(w, seed, u64::MAX - i as u64));
    }
    Ok(Setup { a, reference })
}

pub fn plan_for(w: &HessWorkload, seed: u64, rep: u64) -> FaultPlan {
    if w.faulted {
        gen::fault_plan(w.n, w.nb, seed, rep)
    } else {
        FaultPlan::none()
    }
}

/// Judges one driver repetition against the workload's oracle.
pub fn judge(w: &HessWorkload, s: &Setup, out: &FtOutcome) -> Verdict {
    if w.faulted {
        judge_faulted(&s.a, out)
    } else {
        judge_clean(out, &s.reference)
    }
}

/// Sets up [`SETUPS`] times; returns the last set-up and the times.
fn setups(
    w: &HessWorkload,
    seed: u64,
    cfg: &FtConfig,
    out: &mut Outcome,
) -> Option<(Setup, Vec<f64>)> {
    let mut times = vec![];
    let mut last = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        match setup(w, seed, cfg) {
            Ok(s) => last = Some(s),
            Err(e) => {
                out.attempted += 1;
                out.failed += 1;
                out.problems.push(e);
                return None;
            }
        }
        times.push(t.elapsed().as_secs_f64());
    }
    last.map(|s| (s, times))
}

/// The untraced run: the end-to-end metrics.
pub fn timed(name: &str, w: &HessWorkload, seed: u64, budget: Duration) -> Outcome {
    let cfg = ft_config(w.nb);
    let mut out = Outcome::new(E2E);
    let Some((s, setup_times)) = setups(w, seed, &cfg, &mut out) else {
        return out;
    };
    let start = Instant::now();
    let mut walls = vec![];
    let mut injected = 0;
    while start.elapsed() < budget || (walls.len() < MIN_REPS && start.elapsed() < HARD_CAP) {
        let rep = walls.len() as u64;
        let mut plan = plan_for(w, seed, rep);
        let (o, ms) = run_driver(&s.a, &cfg, &mut plan);
        walls.push(ms);
        injected += plan.applied().len();
        tally(&mut out, judge(w, &s, &o), &format!("{name} rep {rep}"));
    }
    if w.faulted && injected != 4 * walls.len() {
        out.problems
            .push(format!("{injected} faults landed of {}", 4 * walls.len()));
    }
    let p50 = median(&walls);
    eprintln!(
        "{name}: {}; failed {}/{}",
        timing_summary(&walls),
        out.failed,
        out.attempted
    );
    out.sheet
        .set("gflops", ft_blas::gehrd_gflops(w.n, p50 / 1e3));
    out.sheet.set("latency_ms_p50", p50);
    out.sheet.set("setup_s", median(&setup_times));
    out.sheet.set("peak_rss_mb", peak_rss_mb());
    out
}

/// The traced run: the per-layer metrics.
pub fn traced(name: &str, w: &HessWorkload, seed: u64, budget: Duration) -> Outcome {
    let cfg = ft_config(w.nb);
    let mut out = Outcome::new(LAYERS);
    let s = match setup(w, seed, &cfg) {
        Ok(s) => s,
        Err(e) => {
            out.problems.push(e);
            return out;
        }
    };
    let mut tr = Tracer::new(Instant::now());
    profile::profile(name, w, seed, &s, budget, &mut tr, &mut out);
    out.spans = Some(tr);
    out
}
