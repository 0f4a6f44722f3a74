//! The service proper: admission, executor workers, deadlines, retries,
//! shutdown.
//!
//! # Execution model
//!
//! [`Service::start`] spawns a fixed set of executor worker threads. Each
//! worker loops on the shared [`BoundedQueue`]: pop the next job (strict
//! priority, FIFO within a class), run one attempt of the FT reduction on
//! a fresh simulator context, then fulfill the caller's handle or hand the
//! job back for a retry. Capacity is enforced at
//! the queue, so admission control *is* the backpressure mechanism —
//! [`Service::try_submit`] fails fast with [`SubmitError::QueueFull`] and
//! [`Service::submit`] blocks (bounded) for a slot.
//!
//! # Worker backends
//!
//! Each worker owns a fixed [`ft_blas::Backend`] installed thread-locally
//! for every run. By default the machine's parallelism is *partitioned*
//! across workers: `W` workers on a `P`-way machine each get a
//! `Threaded(P/W)` backend (or `Serial` once `P/W ≤ 1`), so the service
//! oversubscribes nothing no matter how many jobs run concurrently. The
//! shared `ft-blas` pool is safe for concurrent dispatch from multiple
//! workers (its queue is mutex-protected and each dispatch waits on its
//! own latch), and per-job numerics stay bit-identical regardless of the
//! partition thanks to the backend determinism contract.
//!
//! # Deadlines and FT-aware retries
//!
//! A worker runs one attempt per pop. A run that reports unrecoverable
//! corruption ([`FtOutcome::failure`](ft_hessenberg::FtOutcome) set) is
//! retried under [`RetryPolicy`], with protection escalated each attempt
//! (TimingOnly→Full, `protect_q` on, more recovery attempts, compensated
//! checksums): the job goes back to the queue
//! ([`BoundedQueue::readmit`]) due after the capped exponential backoff,
//! and the worker pops the next job at once. A due retry joins the back
//! of its priority lane, behind the jobs already waiting there, so one
//! job's recovery is not paid by the jobs queued behind it.
//!
//! A job whose absolute deadline passes before an attempt starts — while
//! queued or while its retry waits — completes with
//! [`JobStatus::DeadlineMissed`] without running (a retry keeps its
//! attempt count and last report). A retry whose backoff alone would end
//! past the deadline is not re-admitted: the job fails with its reason.
//! A failed job always carries the last
//! [`FtReport`](ft_hessenberg::FtReport) so the caller can see what the
//! detector saw.

use crate::job::{JobHandle, JobId, JobResult, JobSpec, JobStatus, QueuedJob};
use crate::metrics::MetricsServer;
use crate::oneshot::OneShot;
use crate::queue::{BoundedQueue, SubmitError};
use crate::retry::RetryPolicy;
use crate::stats::{trace_hooks, ServiceCounters, ServiceStats};
use ft_blas::Backend;
use ft_hessenberg::{ft_gehrd_hybrid, HessFactorization};
use ft_hybrid::{CostModel, HybridCtx};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service construction knobs.
///
/// [`ServiceConfig::default`] is fixed (no environment reads);
/// [`ServiceConfig::from_env`] layers the `FT_SERVE_*` variables on top:
///
/// | variable | meaning | default |
/// |---|---|---|
/// | `FT_SERVE_WORKERS` | executor worker count (`0` = auto) | auto |
/// | `FT_SERVE_QUEUE_CAP` | admission queue capacity | 64 |
/// | `FT_SERVE_DEADLINE_MS` | default job deadline, ms (`0`/unset = none) | none |
/// | `FT_SERVE_BACKEND` | per-worker kernel backend (`serial`, `threaded:N`, `threaded:auto`) | `threaded:auto` share |
/// | `FT_SERVE_METRICS_ADDR` | Prometheus exposition bind address (e.g. `127.0.0.1:9823`; port 0 = ephemeral) | off |
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Executor worker threads; `0` means auto (min(available
    /// parallelism, 4)).
    pub workers: usize,
    /// Admission queue capacity (≥ 1).
    pub queue_capacity: usize,
    /// Deadline applied to jobs whose spec carries none; `None` = no
    /// default deadline.
    pub default_deadline: Option<Duration>,
    /// Retry policy for unrecoverable runs.
    pub retry: RetryPolicy,
    /// Fixed per-worker kernel backend; `None` partitions the
    /// `threaded:auto` resolution (core-clamped) evenly across workers.
    pub worker_backend: Option<Backend>,
    /// Simulator cost model each job context is built from.
    pub cost: CostModel,
    /// Bind address for the read-only Prometheus exposition endpoint
    /// (`None` = no endpoint).
    pub metrics_addr: Option<String>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            queue_capacity: 64,
            default_deadline: None,
            retry: RetryPolicy::default(),
            worker_backend: None,
            cost: CostModel::k40c_sandy_bridge(),
            metrics_addr: None,
        }
    }
}

impl ServiceConfig {
    /// Defaults overridden by the `FT_SERVE_*` environment knobs (see the
    /// type docs for the table).
    pub fn from_env() -> Self {
        let base = ServiceConfig::default();
        ServiceConfig {
            workers: ft_trace::env_knob::usize_or("FT_SERVE_WORKERS", base.workers),
            queue_capacity: ft_trace::env_knob::usize_or("FT_SERVE_QUEUE_CAP", base.queue_capacity)
                .max(1),
            default_deadline: ft_trace::env_knob::ms_or_none("FT_SERVE_DEADLINE_MS"),
            worker_backend: ft_trace::env_knob::parse_with("FT_SERVE_BACKEND", Backend::parse),
            metrics_addr: ft_trace::env_knob::raw("FT_SERVE_METRICS_ADDR"),
            ..base
        }
    }

    /// The worker count [`Service::start`] will spawn.
    pub fn resolved_workers(&self) -> usize {
        if self.workers == 0 {
            ft_blas::backend::available_parallelism().clamp(1, 4)
        } else {
            self.workers
        }
    }

    /// The per-worker backend [`Service::start`] will install: the
    /// explicit one if set (via `worker_backend` or `FT_SERVE_BACKEND`),
    /// otherwise the `threaded:auto` resolution divided evenly across the
    /// workers — [`Backend::auto`] clamps to the detected core count, the
    /// division prevents oversubscription, and the result degrades to
    /// [`Backend::Serial`] once the per-worker share drops to one thread
    /// (threaded dispatch on one core only pays queue/wake overhead).
    pub fn resolved_worker_backend(&self) -> Backend {
        if let Some(b) = self.worker_backend {
            return b;
        }
        let share = Backend::auto().threads() / self.resolved_workers();
        if share <= 1 {
            Backend::Serial
        } else {
            Backend::Threaded(share)
        }
    }
}

/// How [`Service::shutdown`] treats queued jobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shutdown {
    /// Stop admitting, run everything already queued (retries waiting
    /// out their backoff included), then stop.
    Drain,
    /// Stop admitting, complete queued jobs as
    /// [`JobStatus::Canceled`] without running them, finish only the
    /// attempts already executing. A waiting retry, or one handed back
    /// by an attempt that fails after the abort, is canceled too.
    Abort,
}

struct ServiceInner {
    queue: BoundedQueue<QueuedJob>,
    counters: ServiceCounters,
    retry: RetryPolicy,
    default_deadline: Option<Duration>,
    cost: CostModel,
    next_id: AtomicU64,
}

/// A running reduction service. Dropping it performs a drain shutdown.
pub struct Service {
    inner: Arc<ServiceInner>,
    workers: Vec<JoinHandle<()>>,
    worker_backend: Backend,
    metrics: Option<MetricsServer>,
}

impl Service {
    /// Spawns the executor workers and opens the queue for submissions.
    ///
    /// Also arms the telemetry side: a panic anywhere in the process now
    /// dumps the flight recorder (if a dump path is configured), and the
    /// Prometheus endpoint starts when `metrics_addr` is set — a bind
    /// failure is reported on stderr and the service runs without it
    /// (observability must never take the service down).
    pub fn start(config: ServiceConfig) -> Service {
        ft_trace::recorder::install_panic_dump_hook();
        let metrics = config.metrics_addr.as_deref().and_then(|addr| {
            MetricsServer::start(addr)
                .map_err(|e| eprintln!("ft-serve: metrics endpoint bind {addr} failed: {e}"))
                .ok()
        });
        let nworkers = config.resolved_workers();
        let backend = config.resolved_worker_backend();
        let inner = Arc::new(ServiceInner {
            queue: BoundedQueue::new(config.queue_capacity),
            counters: ServiceCounters::new(),
            retry: config.retry,
            default_deadline: config.default_deadline,
            cost: config.cost,
            next_id: AtomicU64::new(0),
        });
        let workers = (0..nworkers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("ft-serve-{w}"))
                    .spawn(move || {
                        while let Some(job) = inner.queue.pop() {
                            run_job(&inner, backend, job);
                        }
                    })
                    .expect("ft-serve: failed to spawn executor worker")
            })
            .collect();
        Service {
            inner,
            workers,
            worker_backend: backend,
            metrics,
        }
    }

    /// The backend each executor worker runs kernels under.
    pub fn worker_backend(&self) -> Backend {
        self.worker_backend
    }

    /// Number of executor workers.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// The admission queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.inner.queue.capacity()
    }

    /// The bound exposition endpoint address, when one is serving.
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.metrics.as_ref().map(|m| m.local_addr())
    }

    fn enqueue(
        &self,
        spec: JobSpec,
        push: impl FnOnce(&BoundedQueue<QueuedJob>, QueuedJob) -> Result<(), SubmitError>,
    ) -> Result<JobHandle, SubmitError> {
        let hooks = trace_hooks();
        if let Err(reason) = spec.validate() {
            self.inner.counters.rejected.fetch_add(1, Ordering::Relaxed);
            hooks.rejected.incr();
            return Err(SubmitError::InvalidSpec(reason));
        }
        let now = Instant::now();
        let job = QueuedJob {
            id: JobId(self.inner.next_id.fetch_add(1, Ordering::Relaxed)),
            deadline: spec
                .deadline
                .or(self.inner.default_deadline)
                .map(|d| now + d),
            slot: Arc::new(OneShot::new()),
            submitted: now,
            spec,
            attempts: 0,
            queue_us: 0,
            failed_at: None,
            report: None,
        };
        let handle = JobHandle {
            id: job.id,
            priority: job.spec.priority,
            slot: Arc::clone(&job.slot),
        };
        match push(&self.inner.queue, job) {
            Ok(()) => {
                self.inner
                    .counters
                    .submitted
                    .fetch_add(1, Ordering::Relaxed);
                hooks.submitted.incr();
                sync_depths(&self.inner.queue);
                Ok(handle)
            }
            Err(e) => {
                self.inner.counters.rejected.fetch_add(1, Ordering::Relaxed);
                hooks.rejected.incr();
                Err(e)
            }
        }
    }

    /// Non-blocking submission: fails fast with
    /// [`SubmitError::QueueFull`] when the queue is at capacity.
    pub fn try_submit(&self, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        self.enqueue(spec, |q, job| {
            let p = job.spec.priority;
            q.try_push(p, job).map_err(|(e, _job)| e)
        })
    }

    /// Blocking submission: waits up to `timeout` for a queue slot.
    pub fn submit(&self, spec: JobSpec, timeout: Duration) -> Result<JobHandle, SubmitError> {
        self.enqueue(spec, |q, job| {
            let p = job.spec.priority;
            q.push_timeout(p, job, timeout).map_err(|(e, _job)| e)
        })
    }

    /// A point-in-time statistics snapshot (internal atomics; the same
    /// totals are mirrored to the `serve.*` registry entries in
    /// `ft-trace`).
    pub fn stats(&self) -> ServiceStats {
        let c = &self.inner.counters;
        ServiceStats {
            queue_depth: self.inner.queue.len(),
            lane_depths: self.inner.queue.lane_lens(),
            in_flight: c.in_flight.load(Ordering::Relaxed),
            submitted: c.submitted.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            deadline_missed: c.deadline_missed.load(Ordering::Relaxed),
            canceled: c.canceled.load(Ordering::Relaxed),
            latency: std::array::from_fn(|i| c.latency[i].snapshot().total),
            lanes: std::array::from_fn(|i| c.latency[i].snapshot()),
        }
    }

    /// Stops the service and joins every worker. `Drain` runs all queued
    /// jobs first, waiting retries included; `Abort` cancels them (their
    /// handles resolve to [`JobStatus::Canceled`]). Attempts already
    /// executing finish either way. Returns the final statistics
    /// snapshot.
    pub fn shutdown(mut self, mode: Shutdown) -> ServiceStats {
        self.stop(mode);
        let stats = self.stats();
        self.workers.clear(); // already joined by stop()
        stats
    }

    fn stop(&mut self, mode: Shutdown) {
        match mode {
            Shutdown::Drain => self.inner.queue.close(),
            Shutdown::Abort => {
                for job in self.inner.queue.close_and_drain() {
                    finish(&self.inner, job, JobStatus::Canceled, None);
                }
            }
        }
        sync_depths(&self.inner.queue);
        for h in self.workers.drain(..) {
            h.join().expect("ft-serve: executor worker panicked");
        }
        // Workers refresh the gauges concurrently, so the last write may
        // be stale; the drained queue is empty now.
        sync_depths(&self.inner.queue);
        // Final telemetry flush: persist the flight recorder (no-op
        // unless a dump path is configured) and stop the endpoint.
        let _ = ft_trace::recorder::dump("shutdown");
        if let Some(m) = self.metrics.take() {
            m.stop();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.stop(Shutdown::Drain);
        }
    }
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

fn elapsed_us(since: Instant) -> u64 {
    micros(since.elapsed())
}

/// Mirrors the queue's total and per-lane depths (waiting retries
/// included) into the `serve.queue_depth*` gauges; called whenever the
/// queue's composition changes.
fn sync_depths(queue: &BoundedQueue<QueuedJob>) {
    let hooks = trace_hooks();
    let lens = queue.lane_lens();
    hooks.queue_depth.set(lens.iter().sum::<usize>() as u64);
    for (gauge, len) in hooks.lane_depth.iter().zip(lens) {
        gauge.set(len as u64);
    }
}

// ft-check: worker-loop
/// Runs one attempt of `job` on the calling worker: the deadline gate,
/// the FT reduction, then either the job's terminal result or — when the
/// run failed and retries are left — its re-admission to the queue, due
/// after the backoff. The worker never sleeps a backoff.
fn run_job(inner: &ServiceInner, backend: Backend, mut job: QueuedJob) {
    let hooks = trace_hooks();
    let c = &inner.counters;
    sync_depths(&inner.queue);
    let lane = job.spec.priority.index();
    let picked_up = Instant::now();
    match job.failed_at {
        None => {
            job.queue_us = micros(picked_up.duration_since(job.submitted));
            c.latency[lane].queue_wait.record(job.queue_us);
            hooks.queue_wait[lane].record(job.queue_us);
        }
        Some(failed_at) => {
            let waited_us = micros(picked_up.duration_since(failed_at));
            c.latency[lane].backoff.record(waited_us);
            hooks.backoff[lane].record(waited_us);
        }
    }
    if job.deadline.is_some_and(|d| picked_up >= d) {
        return finish(inner, job, JobStatus::DeadlineMissed, None);
    }

    let in_flight = c.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
    hooks.in_flight.set(in_flight);
    let (out, exec_us) = {
        // Every span, counter delta, and journal record of the attempt —
        // on this thread and on any pool worker it dispatches to — is
        // tagged with this job's id and the 0-based attempt number.
        let _trace_ctx = ft_trace::ctx::push(ft_trace::TraceCtx {
            job_id: job.id.0,
            attempt: job.attempts,
        });
        let _span = ft_trace::span!("serve.run", job.attempts as usize);
        let mut plan = job.spec.faults.materialize();
        let mut ctx = HybridCtx::new(inner.cost.clone(), job.spec.exec, 2);
        ctx.set_host_parallelism(backend.threads() as f64);
        let mut cfg = job.spec.cfg;
        cfg.backend = backend;
        let exec_started = Instant::now();
        let out = ft_blas::with_backend(backend, || {
            ft_gehrd_hybrid(&job.spec.matrix, &cfg, &mut ctx, &mut plan)
        });
        (out, elapsed_us(exec_started))
    };
    c.latency[lane].exec.record(exec_us);
    hooks.exec[lane].record(exec_us);
    for (hist, (_, secs)) in hooks.phase[lane].iter().zip(out.report.phases.rows()) {
        hist.record((secs * 1e6).round() as u64);
    }
    let in_flight = c.in_flight.fetch_sub(1, Ordering::Relaxed) - 1;
    hooks.in_flight.set(in_flight);
    job.attempts += 1;
    job.report = Some(out.report);

    let Some(reason) = out.failure else {
        return finish(inner, job, JobStatus::Completed, out.result);
    };
    // attempts counts executed runs; the budget is 1 + max_retries.
    if job.attempts > inner.retry.max_retries {
        return finish(inner, job, JobStatus::Failed(reason), None);
    }
    let backoff = inner.retry.backoff(job.attempts);
    let failed_at = Instant::now();
    if job.deadline.is_some_and(|d| failed_at + backoff >= d) {
        return finish(inner, job, JobStatus::Failed(reason), None);
    }
    (job.spec.cfg, job.spec.exec) = RetryPolicy::escalate(&job.spec.cfg, job.spec.exec);
    job.failed_at = Some(failed_at);
    c.retries.fetch_add(1, Ordering::Relaxed);
    hooks.retries.incr();
    match inner.queue.readmit(job.spec.priority, job, backoff) {
        Ok(()) => sync_depths(&inner.queue),
        // The service aborted while the attempt ran.
        Err(job) => finish(inner, job, JobStatus::Canceled, None),
    }
}

/// Resolves `job` with its terminal `status`: counts it (recording the
/// end-to-end latency of a completed job) and fulfills the caller's
/// handle with its attempt count and last report.
fn finish(
    inner: &ServiceInner,
    job: QueuedJob,
    status: JobStatus,
    result: Option<HessFactorization>,
) {
    let hooks = trace_hooks();
    let c = &inner.counters;
    let total_us = elapsed_us(job.submitted);
    match status {
        JobStatus::Completed => {
            c.completed.fetch_add(1, Ordering::Relaxed);
            hooks.completed.incr();
            let lane = job.spec.priority.index();
            c.latency[lane].total.record(total_us);
            hooks.latency[lane].record(total_us);
        }
        JobStatus::Failed(_) => {
            c.failed.fetch_add(1, Ordering::Relaxed);
            hooks.failed.incr();
            // Unrecoverable job: persist the flight recorder while the
            // evidence is still in the rings (no-op without a dump path).
            let _ = ft_trace::recorder::dump("job_failed");
        }
        JobStatus::DeadlineMissed => {
            c.deadline_missed.fetch_add(1, Ordering::Relaxed);
            hooks.deadline_missed.incr();
            let _ = ft_trace::recorder::dump("deadline_missed");
        }
        JobStatus::Canceled => {
            c.canceled.fetch_add(1, Ordering::Relaxed);
            hooks.canceled.incr();
        }
    }
    job.slot.set(JobResult {
        id: job.id,
        priority: job.spec.priority,
        status,
        attempts: job.attempts,
        report: job.report,
        result,
        queue_us: if job.attempts == 0 {
            total_us
        } else {
            job.queue_us
        },
        total_us,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Priority;
    use ft_matrix::Matrix;

    fn small_spec(n: usize) -> JobSpec {
        let mut spec = JobSpec::new(ft_matrix::random::uniform(n, n, n as u64));
        spec.cfg = ft_hessenberg::FtConfig::with_nb(8);
        spec
    }

    #[test]
    fn completes_a_simple_job() {
        let svc = Service::start(ServiceConfig {
            workers: 2,
            queue_capacity: 4,
            ..ServiceConfig::default()
        });
        let h = svc.try_submit(small_spec(24)).unwrap();
        let r = h.wait();
        assert_eq!(r.status, JobStatus::Completed);
        assert_eq!(r.attempts, 1);
        assert!(r.result.is_some());
        assert!(r.report.is_some());
        let stats = svc.shutdown(Shutdown::Drain);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.terminal(), 1);
    }

    #[test]
    fn rejects_invalid_spec() {
        let svc = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let err = svc
            .try_submit(JobSpec::new(Matrix::zeros(3, 5)))
            .unwrap_err();
        assert!(matches!(err, SubmitError::InvalidSpec(_)));
        assert_eq!(svc.stats().rejected, 1);
    }

    #[test]
    fn immediate_deadline_is_missed() {
        let svc = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let mut spec = small_spec(16);
        spec.deadline = Some(Duration::ZERO);
        let r = svc.try_submit(spec).unwrap().wait();
        assert_eq!(r.status, JobStatus::DeadlineMissed);
        assert_eq!(r.attempts, 0);
    }

    #[test]
    fn abort_cancels_queued_jobs() {
        // One worker wedged on a big job; everything behind it is queued.
        let svc = Service::start(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            ..ServiceConfig::default()
        });
        let first = svc.try_submit(small_spec(96)).unwrap();
        let queued: Vec<_> = (0..3)
            .map(|_| {
                let mut s = small_spec(16);
                s.priority = Priority::Low;
                svc.try_submit(s).unwrap()
            })
            .collect();
        let stats = svc.shutdown(Shutdown::Abort);
        // The in-flight job finished; the queued ones were canceled
        // (unless the worker got to some before shutdown — accept both,
        // but the totals must add up with nothing lost).
        assert_eq!(stats.terminal(), 4);
        let _ = first.wait();
        for h in queued {
            let r = h.wait();
            assert!(
                matches!(r.status, JobStatus::Canceled | JobStatus::Completed),
                "{r:?}"
            );
        }
    }

    #[test]
    fn config_resolution() {
        let cfg = ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        };
        assert!(cfg.resolved_workers() >= 1);
        let pinned = ServiceConfig {
            workers: 2,
            worker_backend: Some(Backend::Threaded(3)),
            ..ServiceConfig::default()
        };
        assert_eq!(pinned.resolved_workers(), 2);
        assert_eq!(pinned.resolved_worker_backend(), Backend::Threaded(3));
        // Auto partition never oversubscribes: workers × share ≤ machine.
        let auto = ServiceConfig::default();
        let share = auto.resolved_worker_backend().threads();
        assert!(
            share * auto.resolved_workers() <= ft_blas::backend::available_parallelism().max(1)
        );
        // The default partitions the `threaded:auto` resolution, so on a
        // single-core box every worker degrades to the serial backend.
        if ft_blas::backend::available_parallelism() == 1 {
            assert_eq!(auto.resolved_worker_backend(), Backend::Serial);
        }
    }

    #[test]
    fn backend_env_knob_parses_like_ft_blas() {
        // `FT_SERVE_BACKEND` accepts the same grammar as
        // `FT_BLAS_BACKEND`, including `threaded:auto`.
        for (s, want) in [
            ("serial", Backend::Serial),
            ("threaded:3", Backend::Threaded(3)),
            ("threaded:auto", Backend::auto()),
        ] {
            let cfg = ServiceConfig {
                worker_backend: Backend::parse(s),
                ..ServiceConfig::default()
            };
            assert_eq!(cfg.resolved_worker_backend(), want, "{s}");
        }
    }
}
