//! The `serve_mixed` workload: one closed-loop client keeping four jobs
//! outstanding against `ft-serve`.

use crate::gen::{self, JobDraw, JOB_NB};
use crate::hess::{self, HessWorkload, HARD_CAP, SETUPS};
use crate::metrics::{Outcome, E2E, LAYERS};
use crate::profile;
use crate::spans::{Tag, Tracer};
use crate::stats::{frac_or_one, median, peak_rss_mb, percentile, Pct};
use ft_fault::FaultPlan;
use ft_hessenberg::verify::ResidualReport;
use ft_hessenberg::FtConfig;
use ft_matrix::Matrix;
use ft_serve::{
    FaultSpec, JobHandle, JobResult, JobSpec, JobStatus, Priority, Service, ServiceConfig, Shutdown,
};
use std::collections::HashSet;
use std::time::{Duration, Instant};

const OUTSTANDING: usize = 4;
const QUEUE_CAPACITY: usize = 16;
/// Set-up runs this many jobs through the service before timing.
const WARMUP_JOBS: usize = 256;
/// Job indices of warm-up jobs start here, apart from measured ones.
const WARMUP_FIRST: u64 = 1 << 40;
/// Every this-many-th completed job's factorization is residual-checked.
const CHECK_EVERY: usize = 64;
/// The reduction shape the traced run profiles for this workload: the
/// middle of the job-size mix.
const PROFILE_N: usize = 128;

fn start_service() -> Service {
    Service::start(ServiceConfig {
        workers: ft_blas::backend::available_parallelism().min(2),
        queue_capacity: QUEUE_CAPACITY,
        worker_backend: Some(ft_blas::Backend::Serial),
        ..ServiceConfig::default()
    })
}

fn job_spec(d: &JobDraw, pool: &[Vec<Matrix>]) -> JobSpec {
    let mut spec = JobSpec::new(pool[d.size_idx][d.pool_idx].clone());
    let mut cfg = FtConfig::with_nb(JOB_NB);
    if d.weak {
        cfg.max_recovery_attempts = 0;
    }
    spec.cfg = cfg;
    spec.priority = d.priority;
    if let Some(f) = d.fault {
        spec.faults = FaultSpec::Plan(FaultPlan::new(vec![f]));
    }
    spec
}

/// A finished job as the client saw it.
struct Done {
    draw: JobDraw,
    submitted_at: Instant,
    submit_us: f64,
    result: JobResult,
}

/// Runs the closed loop from job index `first` until `budget` has passed
/// and at least `min_jobs` were submitted, then drains; calls `done` for
/// every result. Returns the number of jobs submitted.
fn drive(
    svc: &Service,
    pool: &[Vec<Matrix>],
    seed: u64,
    first: u64,
    budget: Duration,
    min_jobs: usize,
    mut done: impl FnMut(Done),
) -> Result<usize, String> {
    let start = Instant::now();
    let mut outstanding: Vec<(JobHandle, JobDraw, Instant, f64)> = vec![];
    let mut submitted = 0;
    loop {
        while outstanding.len() < OUTSTANDING
            && (start.elapsed() < budget || (submitted < min_jobs && start.elapsed() < HARD_CAP))
        {
            let draw = gen::job(seed, first + submitted as u64);
            let spec = job_spec(&draw, pool);
            let at = Instant::now();
            let h = svc
                .submit(spec, Duration::from_secs(60))
                .map_err(|e| format!("submit failed: {e:?}"))?;
            outstanding.push((h, draw, at, at.elapsed().as_secs_f64() * 1e6));
            submitted += 1;
        }
        if outstanding.is_empty() {
            return Ok(submitted);
        }
        // Take a finished job if there is one, else block briefly on one.
        let i = outstanding.iter().position(|o| o.0.is_done()).unwrap_or(0);
        let (h, draw, submitted_at, submit_us) = outstanding.swap_remove(i);
        match h.wait_timeout(Duration::from_millis(1)) {
            Ok(result) => done(Done {
                draw,
                submitted_at,
                submit_us,
                result,
            }),
            Err(h) => outstanding.push((h, draw, submitted_at, submit_us)),
        }
    }
}

/// Client-side accounting over one measured loop.
#[derive(Default)]
struct Tally {
    ids: HashSet<u64>,
    completed: usize,
    total_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    submit_us: Vec<f64>,
    by_priority: [Vec<f64>; 3],
    flops: f64,
    weak: usize,
    weak_retried_ok: usize,
    injected: usize,
    corrected: usize,
    silent: usize,
}

impl Tally {
    fn add(&mut self, d: &Done, pool: &[Vec<Matrix>], out: &mut Outcome) {
        let r = &d.result;
        out.attempted += 1;
        if !self.ids.insert(r.id.0) {
            out.problems.push(format!("job {} reported twice", r.id.0));
        }
        self.weak += usize::from(d.draw.weak);
        if r.status != JobStatus::Completed {
            out.failed += 1;
            return;
        }
        self.completed += 1;
        let total = r.total_us as f64 / 1e3;
        self.total_ms.push(total);
        self.queue_ms.push(r.queue_us as f64 / 1e3);
        self.submit_us.push(d.submit_us);
        self.by_priority[r.priority.index()].push(total);
        self.flops += ft_blas::gehrd_nominal_flops(d.draw.n());
        if d.draw.weak && r.attempts >= 2 {
            self.weak_retried_ok += 1;
        }
        if let Some(rep) = &r.report {
            self.injected += rep.injected.len();
            self.corrected +=
                rep.corrections() + rep.q_corrections.len() + rep.tau_corrections.len();
        }
        if self.completed.is_multiple_of(CHECK_EVERY) {
            let a = &pool[d.draw.size_idx][d.draw.pool_idx];
            let ok = r
                .result
                .as_ref()
                .is_some_and(|f| ResidualReport::compute(a, &f.q(), &f.h()).acceptable(1e-11));
            if !ok {
                self.silent += 1;
                out.failed += 1;
                out.problems.push(format!(
                    "job {} completed with a wrong factorization",
                    r.id.0
                ));
            }
        }
    }

    fn check_none_lost(&self, submitted: usize, out: &mut Outcome) {
        if self.ids.len() != submitted {
            out.problems.push(format!(
                "{} jobs submitted, {} came back",
                submitted,
                self.ids.len()
            ));
        }
    }
}

/// The untraced run: the end-to-end metrics.
pub fn timed(seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::new(E2E);
    let mut setup_times = vec![];
    let mut ready: Option<(Service, Vec<Vec<Matrix>>)> = None;
    for _ in 0..SETUPS {
        if let Some((svc, _)) = ready.take() {
            svc.shutdown(Shutdown::Drain);
        }
        let t = Instant::now();
        let pool = gen::job_pool(seed);
        let svc = start_service();
        let mut bad = 0;
        let warm = drive(
            &svc,
            &pool,
            seed,
            WARMUP_FIRST,
            Duration::ZERO,
            WARMUP_JOBS,
            |d| {
                bad += usize::from(d.result.status != JobStatus::Completed);
            },
        );
        setup_times.push(t.elapsed().as_secs_f64());
        if let Err(e) = warm {
            out.problems.push(format!("warm-up: {e}"));
        }
        if bad > 0 {
            out.problems
                .push(format!("{bad} warm-up jobs did not complete"));
        }
        ready = Some((svc, pool));
    }
    let Some((svc, pool)) = ready else { return out };

    let mut tally = Tally::default();
    let start = Instant::now();
    let mut last_done = start;
    let sent = drive(&svc, &pool, seed, 0, budget, 1, |d| {
        tally.add(&d, &pool, &mut out);
        last_done = Instant::now();
    });
    let window = last_done.duration_since(start).as_secs_f64();
    svc.shutdown(Shutdown::Drain);
    match sent {
        Ok(n) => tally.check_none_lost(n, &mut out),
        Err(e) => out.problems.push(e),
    }

    eprintln!(
        "serve_mixed: {:.1} jobs/s over {window:.2} s, latency {}; failed {}/{}",
        tally.completed as f64 / window,
        hess::timing_summary(&tally.total_ms),
        out.failed,
        out.attempted
    );
    out.sheet.set("gflops", tally.flops / window / 1e9);
    out.sheet.set("latency_ms_p50", median(&tally.total_ms));
    out.sheet.set("setup_s", median(&setup_times));
    out.sheet.set("peak_rss_mb", peak_rss_mb());
    out
}

/// The traced run: client-side job spans and service statistics for half
/// the budget, then the layer profile at the mix's middle size.
pub fn traced(seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::new(LAYERS);
    let pool = gen::job_pool(seed);
    let svc = start_service();
    let workers = svc.worker_count();
    let mut tr = Tracer::new(Instant::now());
    let mut tally = Tally::default();
    let start = Instant::now();
    let mut last_done = start;
    let sent = drive(&svc, &pool, seed, 0, budget / 2, 1, |d| {
        tally.add(&d, &pool, &mut out);
        last_done = Instant::now();
        let r = &d.result;
        tr.tag = Tag::Job(r.id.0);
        let t0 = tr.at_us(d.submitted_at);
        let (queued, total) = (r.queue_us as f64, r.total_us as f64);
        let job = tr.record("serve.job", t0, t0 + total, None);
        tr.record("serve.submit", t0, t0 + d.submit_us, Some(job));
        tr.record("serve.queued", t0, t0 + queued, Some(job));
        tr.record("serve.executed", t0 + queued, t0 + total, Some(job));
    });
    let window_s = last_done.duration_since(start).as_secs_f64();
    let stats = svc.shutdown(Shutdown::Drain);
    match sent {
        Ok(n) => tally.check_none_lost(n, &mut out),
        Err(e) => out.problems.push(e),
    }

    let w = HessWorkload {
        n: PROFILE_N,
        nb: JOB_NB,
        faulted: false,
        warmups: 3,
    };
    let cfg = hess::ft_config(w.nb);
    match hess::setup(&w, seed, &cfg) {
        Ok(s) => profile::profile(
            "serve_mixed n=128",
            &w,
            seed,
            &s,
            budget / 2,
            &mut tr,
            &mut out,
        ),
        Err(e) => out.problems.push(e),
    }
    out.spans = Some(tr);

    let lanes = &stats.lanes;
    let exec_p50: Vec<f64> = lanes
        .iter()
        .filter(|l| l.exec.count > 0)
        .map(|l| l.exec.p50_us as f64)
        .collect();
    let exec_p99 = lanes.iter().map(|l| l.exec.p99_us).max().unwrap_or(0);
    let exec_us: f64 = lanes
        .iter()
        .map(|l| l.exec.mean_us as f64 * l.exec.count as f64)
        .sum();
    let backoff_us: f64 = lanes
        .iter()
        .map(|l| l.backoff.mean_us as f64 * l.backoff.count as f64)
        .sum();
    let busy = exec_us / (workers as f64 * window_s * 1e6);
    let sh = &mut out.sheet;
    sh.set("fault.injected", tally.injected as f64);
    sh.set(
        "fault.corrected_frac",
        frac_or_one(tally.corrected, tally.injected),
    );
    sh.set("fault.flagged", (tally.ids.len() - tally.completed) as f64);
    sh.set("fault.silent", tally.silent as f64);
    sh.set("serve.jobs_per_s", tally.completed as f64 / window_s);
    sh.set("serve.queue_wait.p50_ms", median(&tally.queue_ms));
    sh.set(
        "serve.queue_wait.p99_ms",
        percentile(&tally.queue_ms, Pct::P99),
    );
    // Lanes share one job-size mix, so exec time does not depend on the
    // lane: the median of the lane medians, and the worst lane's p99.
    sh.set("serve.exec.p50_ms", median(&exec_p50) / 1e3);
    sh.set("serve.exec.p99_ms", exec_p99 as f64 / 1e3);
    sh.set("serve.backoff.total_ms", backoff_us / 1e3);
    sh.set("serve.retries", stats.retries as f64);
    sh.set(
        "serve.retry_success_frac",
        frac_or_one(tally.weak_retried_ok, tally.weak),
    );
    sh.set("serve.submit.p50_us", median(&tally.submit_us));
    sh.set("serve.worker_busy_frac", busy);
    let p99 = |p: Priority| percentile(&tally.by_priority[p.index()], Pct::P99);
    sh.set("serve.high.latency_p99_ms", p99(Priority::High));
    sh.set("serve.low.latency_p99_ms", p99(Priority::Low));
    eprintln!(
        "serve_mixed traced: {} jobs, {} retries, worker busy {busy:.2}",
        tally.completed, stats.retries
    );
    out
}
