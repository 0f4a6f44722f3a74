#![forbid(unsafe_code)]
//! `ft-serve`: a batched, backpressured reduction service over the FT
//! Hessenberg stack.
//!
//! The crates below this one answer "how do we reduce *one* matrix with
//! transient-error resilience". This crate answers the operational
//! question that follows: how does a *stream* of such reductions — of
//! mixed sizes, priorities, protection levels, and fault exposure — share
//! one machine without losing jobs, blowing past deadlines silently, or
//! giving up on a recoverable run?
//!
//! * **Admission & backpressure** — a bounded, priority-laned queue
//!   ([`BoundedQueue`]) at the front door. [`Service::try_submit`] fails
//!   fast with [`SubmitError::QueueFull`]; [`Service::submit`] blocks
//!   (bounded by a timeout) for a slot. Nothing is ever dropped after
//!   admission: every accepted [`JobHandle`] resolves to exactly one
//!   [`JobResult`].
//! * **Execution** — a fixed set of executor workers, each with a
//!   partitioned slice of the machine as its `ft-blas` backend, running
//!   the full FT driver ([`ft_hessenberg::ft_gehrd_hybrid`]) on a fresh
//!   simulator context per job.
//! * **Deadlines** — absolute, resolved at submission; a job whose
//!   deadline passes while queued (or while a retry waits out its
//!   backoff) resolves to [`JobStatus::DeadlineMissed`] without burning
//!   executor time.
//! * **FT-aware retries** — a run that reports unrecoverable corruption
//!   is re-run under escalated protection ([`RetryPolicy`]: TimingOnly →
//!   Full, `protect_q` on, larger recovery budget, compensated checksums)
//!   after a capped exponential backoff before the job is failed — and a
//!   failed job always carries its last [`ft_hessenberg::FtReport`]. The
//!   backoff is waited out in the queue ([`BoundedQueue::readmit`]), not
//!   on an executor: the worker moves on to the next job, and the retry
//!   joins the back of its priority lane once due.
//! * **Shutdown** — [`Service::shutdown`] with [`Shutdown::Drain`] (run
//!   everything queued, waiting retries included) or [`Shutdown::Abort`]
//!   (cancel the queue, waiting retries included; finish only the
//!   attempts in flight).
//! * **Observability** — [`Service::stats`] snapshots
//!   ([`ServiceStats`]), mirrored into the `ft-trace` registry as the
//!   `serve.*` counters/gauges.
//! * **Load generation** — [`loadgen`]: a closed-loop, deterministic-mix
//!   driver used by the `serve_load` example and the `BENCH_serve.json`
//!   benchmark.
//!
//! ```
//! use ft_serve::{JobSpec, Service, ServiceConfig, Shutdown};
//!
//! let service = Service::start(ServiceConfig::default());
//! let job = JobSpec::new(ft_matrix::random::uniform(32, 32, 7));
//! let result = service.try_submit(job).unwrap().wait();
//! assert!(result.status.is_completed());
//! service.shutdown(Shutdown::Drain);
//! ```

pub mod job;
pub mod loadgen;
pub mod lock_order;
pub mod metrics;
/// The oneshot rendezvous is an implementation detail, but the loom
/// suites model-check it directly, so it is public under `cfg(loom)`.
#[cfg(loom)]
pub mod oneshot;
#[cfg(not(loom))]
mod oneshot;
pub mod queue;
pub mod retry;
pub mod scheduler;
pub mod stats;
mod sync;

pub use job::{FaultSpec, JobHandle, JobId, JobResult, JobSpec, JobStatus, Priority};
pub use loadgen::{JobOutcome, LoadgenConfig, LoadgenSummary};
pub use metrics::MetricsServer;
pub use queue::{BoundedQueue, SubmitError};
pub use retry::RetryPolicy;
pub use scheduler::{Service, ServiceConfig, Shutdown};
pub use stats::{LaneLatencies, PriorityLatency, ServiceStats};
