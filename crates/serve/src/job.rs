//! Job vocabulary: what callers submit and what they get back.

use crate::oneshot::OneShot;
use ft_fault::FaultPlan;
use ft_hessenberg::{FailureReason, FtConfig, FtReport, HessFactorization};
use ft_hybrid::ExecMode;
use ft_matrix::Matrix;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Priority class of a job. Scheduling is strict: a higher class is always
/// served before a lower one; FIFO order holds *within* a class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Latency-sensitive jobs, served first.
    High,
    /// The default class.
    Normal,
    /// Batch/background work, served when nothing else is queued.
    Low,
}

impl Priority {
    /// All classes, highest first (the queue's lane order).
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    /// Lane index: 0 = high, 2 = low.
    pub fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

/// Where a job's injected faults come from.
#[derive(Clone, Debug, Default)]
pub enum FaultSpec {
    /// Fault-free execution.
    #[default]
    None,
    /// An explicit plan (tests, targeted experiments).
    Plan(FaultPlan),
}

impl FaultSpec {
    /// Builds the per-run plan.
    pub fn materialize(&self) -> FaultPlan {
        match self {
            FaultSpec::None => FaultPlan::none(),
            FaultSpec::Plan(p) => p.clone(),
        }
    }
}

/// Everything needed to run one reduction job.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// The input matrix (square).
    pub matrix: Matrix,
    /// FT driver configuration. The `backend` field is overridden by the
    /// executor's per-worker backend; everything else is honored.
    pub cfg: FtConfig,
    /// Simulator execution mode. `TimingOnly` jobs cost almost nothing
    /// and return no factorization; retries escalate them to `Full`.
    pub exec: ExecMode,
    /// Fault injection for this job.
    pub faults: FaultSpec,
    /// Priority class.
    pub priority: Priority,
    /// Deadline relative to submission; `None` uses the service default.
    /// A job that is still queued (or waiting out a retry backoff) past
    /// its deadline completes with [`JobStatus::DeadlineMissed`].
    pub deadline: Option<Duration>,
}

impl JobSpec {
    /// A fault-free, normal-priority job with default FT configuration.
    pub fn new(matrix: Matrix) -> JobSpec {
        JobSpec {
            matrix,
            cfg: FtConfig::default(),
            exec: ExecMode::Full,
            faults: FaultSpec::None,
            priority: Priority::Normal,
            deadline: None,
        }
    }

    /// Admission-time validation: catches specs the FT driver would
    /// reject (panic) at run time, so a malformed submission costs the
    /// caller an error instead of a wedged executor worker.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.matrix.rows() != self.matrix.cols() {
            return Err("matrix must be square");
        }
        if self.matrix.rows() < 2 {
            return Err("matrix must be at least 2x2");
        }
        if self.cfg.nb == 0 {
            return Err("panel width nb must be >= 1");
        }
        Ok(())
    }
}

/// Unique job identifier (per service instance, submission order).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// Terminal state of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// The run verified clean (possibly after recoveries and/or retries).
    Completed,
    /// Every attempt reported unrecoverable corruption, or the next
    /// retry's backoff would end past the deadline; the last reason.
    Failed(FailureReason),
    /// The deadline passed before the job's first attempt or its next
    /// retry started. A retry that misses it keeps its attempt count and
    /// last report.
    DeadlineMissed,
    /// The service was shut down with [`crate::Shutdown::Abort`] while the
    /// job was queued or waiting out a retry backoff, or while a failed
    /// attempt was running (no attempt starts after an abort). A job
    /// canceled between retries keeps its attempt count and last report.
    Canceled,
}

impl JobStatus {
    /// `true` for [`JobStatus::Completed`].
    pub fn is_completed(self) -> bool {
        matches!(self, JobStatus::Completed)
    }
}

/// What the caller receives when a job reaches a terminal state.
#[derive(Debug)]
pub struct JobResult {
    /// The job's identifier.
    pub id: JobId,
    /// Priority class it ran under.
    pub priority: Priority,
    /// Terminal status.
    pub status: JobStatus,
    /// Number of executed runs (0 if the job never ran).
    pub attempts: u32,
    /// The last run's report (`None` if the job never ran). Failed jobs
    /// always carry their report — that is the service contract.
    pub report: Option<FtReport>,
    /// The factorization from the last successful run (`None` for
    /// timing-only jobs and non-completed statuses).
    pub result: Option<HessFactorization>,
    /// Time spent queued before the first run started (the whole wait of
    /// a job that never ran), microseconds. Retry backoffs are not in it.
    pub queue_us: u64,
    /// Submit-to-completion latency, microseconds.
    pub total_us: u64,
}

/// Caller-side handle to an in-flight job.
#[derive(Clone)]
pub struct JobHandle {
    pub(crate) id: JobId,
    pub(crate) priority: Priority,
    pub(crate) slot: Arc<OneShot<JobResult>>,
}

impl JobHandle {
    /// The job's identifier.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The job's priority class.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// `true` once the result is available (without consuming it).
    pub fn is_done(&self) -> bool {
        self.slot.is_set()
    }

    /// Blocks until the job reaches a terminal state and returns its
    /// result. Panics if the result was already taken through a clone of
    /// this handle (one result per job).
    pub fn wait(self) -> JobResult {
        self.slot.take_blocking()
    }

    /// [`JobHandle::wait`] with a timeout; returns the handle back on
    /// timeout so the caller can keep waiting.
    pub fn wait_timeout(self, timeout: Duration) -> Result<JobResult, JobHandle> {
        if self.slot.wait_until_set(timeout) {
            Ok(self.slot.take_blocking())
        } else {
            Err(self)
        }
    }
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .field("priority", &self.priority)
            .field("done", &self.is_done())
            .finish()
    }
}

/// A job as it sits in the queue: the spec plus service-side bookkeeping,
/// retry state included.
///
/// A worker runs one attempt per pop. A job whose attempt failed with
/// retries left goes back to the queue with its backoff as the delay
/// ([`crate::BoundedQueue::readmit`]), carrying what the next attempt and
/// the final [`JobResult`] need: `spec.cfg` and `spec.exec` hold the
/// escalated protection ([`crate::RetryPolicy::escalate`]), plus the
/// fields below.
#[derive(Debug)]
pub(crate) struct QueuedJob {
    pub(crate) id: JobId,
    pub(crate) spec: JobSpec,
    pub(crate) slot: Arc<OneShot<JobResult>>,
    pub(crate) submitted: Instant,
    /// Absolute deadline resolved at submission time.
    pub(crate) deadline: Option<Instant>,
    /// Executed attempts.
    pub(crate) attempts: u32,
    /// Wait before the first attempt, µs (set when a worker first picks
    /// the job up).
    pub(crate) queue_us: u64,
    /// When the last failed attempt ended: the start of the retry's
    /// measured backoff wait (`None` before the first attempt).
    pub(crate) failed_at: Option<Instant>,
    /// The last attempt's report.
    pub(crate) report: Option<FtReport>,
}
