//! Service observability: internal atomics and HDR latency histograms
//! for the per-instance snapshot, mirrored into the process-wide
//! `ft-trace` registry (`serve.*` counters, gauges, and histograms) so
//! the service shows up next to `pool.*`/`ft.*` in traces, counter
//! dumps, and the Prometheus exposition endpoint.
//!
//! Latency is accounted as four HDR histograms per priority lane
//! (`ft_trace::Histogram`, ≤ 2⁻⁵ relative quantile error): end-to-end
//! latency plus its three components — queue wait, execution, and retry
//! backoff wait — so that per job `total ≈ queue_wait + Σ exec +
//! Σ backoff`. Every observation lands twice: in the instance-owned
//! histogram (the [`ServiceStats`] snapshot source, isolated per
//! service) and in the registry histogram of the same name (the
//! process-wide exposition source). Each attempt's FT phase times
//! (`FtReport::phases`) go to the registry only, as the per-lane
//! `serve.phase.<phase>_<lane>` histograms.

use crate::job::Priority;
use ft_trace::{HistSnapshot, Histogram};
use std::sync::atomic::AtomicU64;
use std::sync::OnceLock;

/// Cached `serve.*` registry handles (one mutex-guarded lookup each,
/// then plain pointers — the registry idiom from `ft-trace`). Histogram
/// and lane-gauge arrays are indexed by [`Priority::index`].
pub(crate) struct TraceHooks {
    pub submitted: &'static ft_trace::Counter,
    pub rejected: &'static ft_trace::Counter,
    pub completed: &'static ft_trace::Counter,
    pub failed: &'static ft_trace::Counter,
    pub retries: &'static ft_trace::Counter,
    pub deadline_missed: &'static ft_trace::Counter,
    pub canceled: &'static ft_trace::Counter,
    pub queue_depth: &'static ft_trace::Gauge,
    pub lane_depth: [&'static ft_trace::Gauge; 3],
    pub in_flight: &'static ft_trace::Gauge,
    pub latency: [&'static Histogram; 3],
    pub queue_wait: [&'static Histogram; 3],
    pub exec: [&'static Histogram; 3],
    pub backoff: [&'static Histogram; 3],
    /// Per lane, one histogram per `PhaseBreakdown::rows` entry, in that
    /// order (µs per attempt).
    pub phase: [[&'static Histogram; 8]; 3],
}

pub(crate) fn trace_hooks() -> &'static TraceHooks {
    static HOOKS: OnceLock<TraceHooks> = OnceLock::new();
    HOOKS.get_or_init(|| TraceHooks {
        submitted: ft_trace::counter("serve.submitted"),
        rejected: ft_trace::counter("serve.rejected"),
        completed: ft_trace::counter("serve.completed"),
        failed: ft_trace::counter("serve.failed"),
        retries: ft_trace::counter("serve.retries"),
        deadline_missed: ft_trace::counter("serve.deadline_missed"),
        canceled: ft_trace::counter("serve.canceled"),
        queue_depth: ft_trace::gauge("serve.queue_depth"),
        lane_depth: [
            ft_trace::gauge("serve.queue_depth_high"),
            ft_trace::gauge("serve.queue_depth_normal"),
            ft_trace::gauge("serve.queue_depth_low"),
        ],
        in_flight: ft_trace::gauge("serve.in_flight"),
        latency: [
            ft_trace::histogram("serve.latency_high"),
            ft_trace::histogram("serve.latency_normal"),
            ft_trace::histogram("serve.latency_low"),
        ],
        queue_wait: [
            ft_trace::histogram("serve.queue_wait_high"),
            ft_trace::histogram("serve.queue_wait_normal"),
            ft_trace::histogram("serve.queue_wait_low"),
        ],
        exec: [
            ft_trace::histogram("serve.exec_high"),
            ft_trace::histogram("serve.exec_normal"),
            ft_trace::histogram("serve.exec_low"),
        ],
        backoff: [
            ft_trace::histogram("serve.backoff_high"),
            ft_trace::histogram("serve.backoff_normal"),
            ft_trace::histogram("serve.backoff_low"),
        ],
        phase: [
            [
                ft_trace::histogram("serve.phase.encode_high"),
                ft_trace::histogram("serve.phase.panel_high"),
                ft_trace::histogram("serve.phase.trailing_high"),
                ft_trace::histogram("serve.phase.detect_high"),
                ft_trace::histogram("serve.phase.reverse_high"),
                ft_trace::histogram("serve.phase.locate_high"),
                ft_trace::histogram("serve.phase.correct_high"),
                ft_trace::histogram("serve.phase.qprotect_high"),
            ],
            [
                ft_trace::histogram("serve.phase.encode_normal"),
                ft_trace::histogram("serve.phase.panel_normal"),
                ft_trace::histogram("serve.phase.trailing_normal"),
                ft_trace::histogram("serve.phase.detect_normal"),
                ft_trace::histogram("serve.phase.reverse_normal"),
                ft_trace::histogram("serve.phase.locate_normal"),
                ft_trace::histogram("serve.phase.correct_normal"),
                ft_trace::histogram("serve.phase.qprotect_normal"),
            ],
            [
                ft_trace::histogram("serve.phase.encode_low"),
                ft_trace::histogram("serve.phase.panel_low"),
                ft_trace::histogram("serve.phase.trailing_low"),
                ft_trace::histogram("serve.phase.detect_low"),
                ft_trace::histogram("serve.phase.reverse_low"),
                ft_trace::histogram("serve.phase.locate_low"),
                ft_trace::histogram("serve.phase.correct_low"),
                ft_trace::histogram("serve.phase.qprotect_low"),
            ],
        ],
    })
}

/// The four instance-owned latency histograms of one priority lane.
#[derive(Debug)]
pub(crate) struct LaneHistograms {
    pub total: Histogram,
    pub queue_wait: Histogram,
    pub exec: Histogram,
    pub backoff: Histogram,
}

impl LaneHistograms {
    const fn new(
        total: &'static str,
        queue_wait: &'static str,
        exec: &'static str,
        backoff: &'static str,
    ) -> LaneHistograms {
        LaneHistograms {
            total: Histogram::new(total),
            queue_wait: Histogram::new(queue_wait),
            exec: Histogram::new(exec),
            backoff: Histogram::new(backoff),
        }
    }

    pub(crate) fn snapshot(&self) -> LaneLatencies {
        LaneLatencies {
            total: PriorityLatency::from_snapshot(&self.total.snapshot()),
            queue_wait: PriorityLatency::from_snapshot(&self.queue_wait.snapshot()),
            exec: PriorityLatency::from_snapshot(&self.exec.snapshot()),
            backoff: PriorityLatency::from_snapshot(&self.backoff.snapshot()),
        }
    }
}

/// Latency snapshot for one priority class. Percentile fields are HDR
/// estimates: never below the exact sorted-sample quantile and at most
/// ≈ 3.1 % (2⁻⁵ relative) above it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PriorityLatency {
    /// Completed observations.
    pub count: u64,
    /// Arithmetic mean, µs.
    pub mean_us: u64,
    /// Median estimate, µs.
    pub p50_us: u64,
    /// 95th-percentile estimate, µs.
    pub p95_us: u64,
    /// 99th-percentile estimate, µs.
    pub p99_us: u64,
    /// 99.9th-percentile estimate, µs.
    pub p999_us: u64,
    /// Exact maximum, µs.
    pub max_us: u64,
}

impl PriorityLatency {
    /// Summarizes one histogram snapshot.
    pub fn from_snapshot(s: &HistSnapshot) -> PriorityLatency {
        PriorityLatency {
            count: s.count,
            mean_us: s.mean() as u64,
            p50_us: s.quantile(0.50),
            p95_us: s.quantile(0.95),
            p99_us: s.quantile(0.99),
            p999_us: s.quantile(0.999),
            max_us: s.max,
        }
    }
}

/// The per-lane latency breakdown: end-to-end plus its three components.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneLatencies {
    /// Submit-to-terminal latency of completed jobs.
    pub total: PriorityLatency,
    /// Admission-to-pickup wait (one observation per job a worker picked
    /// up).
    pub queue_wait: PriorityLatency,
    /// Kernel execution time (one observation per executed run — retries
    /// observe once per attempt).
    pub exec: PriorityLatency,
    /// Retry waits, measured from a failed attempt's end to the retry's
    /// pickup: the backoff plus any queueing after the retry came due
    /// (one observation per picked-up retry).
    pub backoff: PriorityLatency,
}

/// Internal counter block (the snapshot source).
#[derive(Debug)]
pub(crate) struct ServiceCounters {
    pub submitted: AtomicU64,
    pub rejected: AtomicU64,
    pub completed: AtomicU64,
    pub failed: AtomicU64,
    pub retries: AtomicU64,
    pub deadline_missed: AtomicU64,
    pub canceled: AtomicU64,
    pub in_flight: AtomicU64,
    pub latency: [LaneHistograms; 3],
}

impl ServiceCounters {
    pub fn new() -> ServiceCounters {
        ServiceCounters {
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            deadline_missed: AtomicU64::new(0),
            canceled: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            latency: [
                LaneHistograms::new(
                    "serve.latency_high",
                    "serve.queue_wait_high",
                    "serve.exec_high",
                    "serve.backoff_high",
                ),
                LaneHistograms::new(
                    "serve.latency_normal",
                    "serve.queue_wait_normal",
                    "serve.exec_normal",
                    "serve.backoff_normal",
                ),
                LaneHistograms::new(
                    "serve.latency_low",
                    "serve.queue_wait_low",
                    "serve.exec_low",
                    "serve.backoff_low",
                ),
            ],
        }
    }
}

/// Point-in-time statistics of a running service.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// Jobs currently queued (admitted, not yet picked up), retries
    /// waiting out their backoff included.
    pub queue_depth: usize,
    /// Per-lane queued jobs (waiting retries included), indexed by
    /// [`Priority::index`].
    pub lane_depths: [usize; 3],
    /// Attempts currently executing. A retry waiting out its backoff is
    /// queued, not in flight.
    pub in_flight: u64,
    /// Jobs admitted since start.
    pub submitted: u64,
    /// Submissions refused (`QueueFull`/`Timeout`/`Closed`).
    pub rejected: u64,
    /// Jobs that reached [`crate::JobStatus::Completed`].
    pub completed: u64,
    /// Jobs that reached [`crate::JobStatus::Failed`].
    pub failed: u64,
    /// Escalated retries re-admitted to the queue (counts attempts, not
    /// jobs; a retry later canceled or expired still counts).
    pub retries: u64,
    /// Jobs that expired before their first attempt or a retry started.
    pub deadline_missed: u64,
    /// Jobs canceled by an abort shutdown.
    pub canceled: u64,
    /// Per-priority completion latency, indexed by [`Priority::index`]
    /// (the `total` component of [`ServiceStats::lanes`], kept flat for
    /// the common consumer).
    pub latency: [PriorityLatency; 3],
    /// Per-priority latency breakdown (total / queue wait / execution /
    /// backoff), indexed by [`Priority::index`].
    pub lanes: [LaneLatencies; 3],
}

impl ServiceStats {
    /// Jobs accounted as terminal (completed + failed + deadline-missed +
    /// canceled).
    pub fn terminal(&self) -> u64 {
        self.completed + self.failed + self.deadline_missed + self.canceled
    }

    /// Latency snapshot of one priority class.
    pub fn latency_of(&self, p: Priority) -> &PriorityLatency {
        &self.latency[p.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_snapshot_brackets_samples() {
        let lanes = LaneHistograms::new("t.total", "t.queue", "t.exec", "t.backoff");
        for us in 1..=1000u64 {
            lanes.total.record(us);
        }
        lanes.queue_wait.record(7);
        let s = lanes.snapshot();
        assert_eq!(s.total.count, 1000);
        assert_eq!(s.total.max_us, 1000);
        // HDR estimates: never below the exact percentile, ≤ 2⁻⁵ above.
        assert!(s.total.p50_us >= 500 && s.total.p50_us <= 516, "{s:?}");
        assert!(s.total.p95_us >= 950 && s.total.p95_us <= 980, "{s:?}");
        assert!(s.total.p99_us >= 990 && s.total.p99_us <= 1000, "{s:?}");
        assert!(s.total.p999_us >= 999 && s.total.p999_us <= 1000, "{s:?}");
        assert!(s.total.mean_us >= 400 && s.total.mean_us <= 600, "{s:?}");
        assert_eq!(s.queue_wait.count, 1);
        assert_eq!(s.queue_wait.max_us, 7);
        assert_eq!(s.exec, PriorityLatency::default());
        assert_eq!(s.backoff, PriorityLatency::default());
    }

    #[test]
    fn empty_lane_is_default() {
        let lanes = LaneHistograms::new("e.total", "e.queue", "e.exec", "e.backoff");
        assert_eq!(lanes.snapshot(), LaneLatencies::default());
    }

    #[test]
    fn hooks_register_every_lane_histogram() {
        let hooks = trace_hooks();
        for i in 0..3 {
            assert!(hooks.latency[i].name().starts_with("serve.latency_"));
            assert!(hooks.queue_wait[i].name().starts_with("serve.queue_wait_"));
            assert!(hooks.exec[i].name().starts_with("serve.exec_"));
            assert!(hooks.backoff[i].name().starts_with("serve.backoff_"));
            assert!(hooks.lane_depth[i].name().starts_with("serve.queue_depth_"));
        }
    }

    #[test]
    fn phase_hooks_follow_the_breakdown_rows_per_lane() {
        let rows = ft_hessenberg::PhaseBreakdown::default().rows();
        for p in Priority::ALL {
            for (hist, (phase, _)) in trace_hooks().phase[p.index()].iter().zip(rows) {
                assert_eq!(hist.name(), format!("serve.phase.{phase}_{}", p.name()));
            }
        }
    }
}
