//! End-to-end service behavior: deadlines, FT-aware escalated retries,
//! priority scheduling, and both shutdown modes, all through the public
//! API with real FT reductions underneath.

use ft_fault::{Fault, FaultPlan, Phase, ScheduledFault};
use ft_hessenberg::{FailureReason, FtConfig};
use ft_hybrid::ExecMode;
use ft_serve::{
    FaultSpec, JobSpec, JobStatus, Priority, RetryPolicy, Service, ServiceConfig, Shutdown,
};
use std::time::{Duration, Instant};

fn spec(n: usize, seed: u64) -> JobSpec {
    let mut s = JobSpec::new(ft_matrix::random::uniform(n, n, seed));
    s.cfg = FtConfig::with_nb(8);
    s
}

/// A job that deterministically comes back unrecoverable on its first
/// run: zero in-run recovery budget plus an injected fault means the
/// first detection exhausts recovery immediately.
fn weak_faulted_spec(n: usize, seed: u64) -> JobSpec {
    let mut s = spec(n, seed);
    s.cfg.max_recovery_attempts = 0;
    s.faults = FaultSpec::Plan(FaultPlan::one(1, Fault::add(n / 2, n / 2 + 1, 0.41)));
    s
}

fn small_service(workers: usize) -> Service {
    Service::start(ServiceConfig {
        workers,
        queue_capacity: 16,
        ..ServiceConfig::default()
    })
}

#[test]
fn escalated_retry_rescues_weak_faulted_job() {
    let svc = small_service(1);
    let r = svc.try_submit(weak_faulted_spec(48, 3)).unwrap().wait();
    assert_eq!(r.status, JobStatus::Completed, "{:?}", r.report);
    assert!(
        r.attempts >= 2,
        "first run must fail, escalation must rescue (attempts = {})",
        r.attempts
    );
    assert!(r.result.is_some());
    let stats = svc.shutdown(Shutdown::Drain);
    assert!(stats.retries >= 1, "retry counter must record the re-run");
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 0);
}

#[test]
fn retry_escalates_timing_only_to_full() {
    let svc = small_service(1);
    let mut s = weak_faulted_spec(48, 5);
    s.exec = ExecMode::TimingOnly;
    let r = svc.try_submit(s).unwrap().wait();
    // A timing-only run returns no factorization; the escalated retry
    // switches to Full, so a rescued job carries a real one.
    assert_eq!(r.status, JobStatus::Completed, "{:?}", r.report);
    assert!(r.attempts >= 2);
    assert!(
        r.result.is_some(),
        "escalation must upgrade TimingOnly to Full numerics"
    );
    svc.shutdown(Shutdown::Drain);
}

#[test]
fn exhausted_retries_fail_with_report() {
    let svc = Service::start(ServiceConfig {
        workers: 1,
        retry: RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        },
        ..ServiceConfig::default()
    });
    let r = svc.try_submit(weak_faulted_spec(48, 7)).unwrap().wait();
    match r.status {
        JobStatus::Failed(FailureReason::RecoveryExhausted { iteration }) => {
            assert!(iteration >= 1);
        }
        other => panic!("expected RecoveryExhausted, got {other:?}"),
    }
    assert_eq!(r.attempts, 1, "max_retries = 0 means exactly one run");
    assert!(
        r.report.is_some(),
        "failed jobs must carry their last report"
    );
    let stats = svc.shutdown(Shutdown::Drain);
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.retries, 0);
}

#[test]
fn unresolved_recovery_fails_after_every_attempt() {
    // A cancelling pair in one trailing column: no attempt can locate it,
    // and escalation does not change that, so the job fails with its
    // report once the retry budget is spent.
    let svc = small_service(1);
    let mut s = JobSpec::new(ft_matrix::random::uniform(64, 64, 11));
    s.cfg = FtConfig::with_nb(16);
    let strike = |row, delta| ScheduledFault {
        iteration: 1,
        phase: Phase::IterationStart,
        fault: Fault::add(row, 50, delta),
    };
    s.faults = FaultSpec::Plan(FaultPlan::new(vec![strike(40, 0.5), strike(50, -0.5)]));
    let r = svc.try_submit(s).unwrap().wait();
    assert!(matches!(r.status, JobStatus::Failed(_)), "{:?}", r.status);
    assert_eq!(r.attempts, 1 + RetryPolicy::default().max_retries);
    assert!(r.report.is_some_and(|rep| rep.any_unresolved()));
    assert!(r.result.is_none());
    let stats = svc.shutdown(Shutdown::Drain);
    assert_eq!(stats.failed, 1);
}

#[test]
fn deadline_missed_while_queued() {
    // One worker pinned on a long job; a short-deadline job queued behind
    // it must resolve DeadlineMissed without ever running.
    let svc = small_service(1);
    let blocker = svc.try_submit(spec(96, 11)).unwrap();
    let mut hurried = spec(16, 13);
    hurried.deadline = Some(Duration::from_micros(1));
    let r = svc.try_submit(hurried).unwrap().wait();
    assert_eq!(r.status, JobStatus::DeadlineMissed);
    assert_eq!(r.attempts, 0, "expired jobs must not burn executor time");
    assert!(r.report.is_none());
    assert_eq!(blocker.wait().status, JobStatus::Completed);
    let stats = svc.shutdown(Shutdown::Drain);
    assert_eq!(stats.deadline_missed, 1);
}

#[test]
fn default_deadline_applies_to_specs_without_one() {
    let svc = Service::start(ServiceConfig {
        workers: 1,
        default_deadline: Some(Duration::from_micros(1)),
        ..ServiceConfig::default()
    });
    // Pin the worker so the defaulted job expires in the queue.
    let blocker = svc.try_submit(spec(64, 17)).unwrap();
    let r = svc.try_submit(spec(16, 19)).unwrap().wait();
    assert_eq!(r.status, JobStatus::DeadlineMissed);
    let _ = blocker.wait();
    svc.shutdown(Shutdown::Drain);
}

#[test]
fn high_priority_overtakes_queued_low_priority() {
    let svc = small_service(1);
    let blocker = svc.try_submit(spec(96, 23)).unwrap();
    let mut low = spec(16, 29);
    low.priority = Priority::Low;
    let low_h = svc.try_submit(low).unwrap();
    let mut high = spec(16, 31);
    high.priority = Priority::High;
    let high_h = svc.try_submit(high).unwrap();

    let _ = blocker.wait();
    let high_r = high_h.wait();
    let low_r = low_h.wait();
    assert_eq!(high_r.status, JobStatus::Completed);
    assert_eq!(low_r.status, JobStatus::Completed);
    assert!(
        high_r.total_us <= low_r.total_us,
        "high ({} us) was submitted before low finished queueing yet \
         completed after it ({} us)",
        high_r.total_us,
        low_r.total_us
    );
    svc.shutdown(Shutdown::Drain);
}

#[test]
fn drain_shutdown_runs_everything_queued() {
    let svc = small_service(2);
    let handles: Vec<_> = (0..6)
        .map(|i| svc.try_submit(spec(24, 100 + i)).unwrap())
        .collect();
    let stats = svc.shutdown(Shutdown::Drain);
    assert_eq!(stats.completed, 6, "drain must run every queued job");
    assert_eq!(stats.canceled, 0);
    for h in handles {
        assert_eq!(h.wait().status, JobStatus::Completed);
    }
}

#[test]
fn submitting_after_shutdown_is_rejected() {
    let svc = small_service(1);
    let inner_handle = svc.try_submit(spec(16, 41)).unwrap();
    let _ = inner_handle.wait();
    // Shutdown consumes the service; use a second one to observe Closed
    // through the blocking submit path racing a drain.
    let svc2 = small_service(1);
    let q_probe = {
        let q: &ft_serve::BoundedQueue<u32> = &ft_serve::BoundedQueue::new(1);
        q.close();
        q.try_push(ft_serve::Priority::Normal, 1).unwrap_err().0
    };
    assert_eq!(q_probe, ft_serve::SubmitError::Closed);
    svc.shutdown(Shutdown::Drain);
    svc2.shutdown(Shutdown::Abort);
}

#[test]
fn stats_conserve_jobs_under_mixed_outcomes() {
    let svc = small_service(2);
    let mut handles = Vec::new();
    handles.push(svc.try_submit(weak_faulted_spec(48, 43)).unwrap());
    for i in 0..4 {
        handles.push(svc.try_submit(spec(24, 200 + i)).unwrap());
    }
    let mut expired = spec(16, 47);
    expired.deadline = Some(Duration::ZERO);
    handles.push(svc.try_submit(expired).unwrap());

    for h in handles {
        let _ = h.wait();
    }
    let stats = svc.shutdown(Shutdown::Drain);
    assert_eq!(stats.submitted, 6);
    assert_eq!(
        stats.terminal(),
        6,
        "every admitted job must reach exactly one terminal state: {stats:?}"
    );
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.in_flight, 0);
}

fn one_worker_with_backoff(backoff: Duration) -> Service {
    Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 16,
        retry: RetryPolicy {
            backoff_base: backoff,
            backoff_cap: backoff,
            ..RetryPolicy::default()
        },
        ..ServiceConfig::default()
    })
}

/// Blocks until the service has re-admitted `n` retries.
fn wait_for_retries(svc: &Service, n: u64) {
    let start = Instant::now();
    while svc.stats().retries < n {
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "no retry was scheduled"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Unoptimized builds — the sanitizer run included — reduce matrices
/// tens of times slower, so timing-based cases stretch their windows.
const DEBUG_BUILD: bool = cfg!(debug_assertions);

#[test]
fn retry_backoff_does_not_hold_a_worker() {
    // The weak job's retry waits 200 ms in the queue; the one worker runs
    // the clean job queued behind it in the meantime.
    let backoff = Duration::from_millis(if DEBUG_BUILD { 2000 } else { 200 });
    let svc = one_worker_with_backoff(backoff);
    let weak = svc.try_submit(weak_faulted_spec(48, 3)).unwrap();
    let clean = svc.try_submit(spec(48, 4)).unwrap().wait();
    assert_eq!(clean.status, JobStatus::Completed);
    assert!(
        clean.total_us < backoff.as_micros() as u64,
        "the clean job waited out the retry backoff: {} us",
        clean.total_us
    );
    let weak = weak.wait();
    assert_eq!(weak.status, JobStatus::Completed, "{:?}", weak.report);
    assert_eq!(weak.attempts, 2);
    svc.shutdown(Shutdown::Drain);
}

#[test]
fn abort_cancels_a_waiting_retry() {
    let svc = one_worker_with_backoff(Duration::from_secs(5));
    let h = svc.try_submit(weak_faulted_spec(48, 3)).unwrap();
    wait_for_retries(&svc, 1);
    let aborted = Instant::now();
    let stats = svc.shutdown(Shutdown::Abort);
    assert!(
        aborted.elapsed() < Duration::from_secs(1),
        "abort waited out the backoff: {:?}",
        aborted.elapsed()
    );
    let r = h.wait();
    assert_eq!(r.status, JobStatus::Canceled);
    assert_eq!(r.attempts, 1);
    assert!(r.report.is_some_and(|rep| rep.any_unresolved()));
    assert!(r.result.is_none());
    assert_eq!(stats.canceled, 1);
    assert_eq!(stats.terminal(), stats.submitted);
}

#[test]
fn deadline_expires_while_a_retry_waits() {
    // The weak job's first attempt fails in about a millisecond and its
    // retry is due 50 ms later, well inside the 100 ms deadline. But the
    // one worker meanwhile runs the clean job queued behind it, for
    // several times the deadline (n = 1024 at nb = 8: a few hundred ms in
    // a release build, on any backend), so the retry starts past the
    // deadline. The clean job's matrix is built before the weak job is
    // submitted, so it is queued long before the retry comes due. The
    // margins leave the first attempt 50 ms to finish, so a loaded box
    // still re-admits the retry before its deadline. A debug build uses a
    // 200 ms deadline, a 100 ms backoff and n = 256 (~0.5 s unoptimized).
    let (deadline_ms, backoff_ms, n) = if DEBUG_BUILD {
        (200, 100, 256)
    } else {
        (100, 50, 1024)
    };
    let svc = one_worker_with_backoff(Duration::from_millis(backoff_ms));
    let blocker = spec(n, 5);
    let mut weak = weak_faulted_spec(24, 3);
    weak.deadline = Some(Duration::from_millis(deadline_ms));
    let weak = svc.try_submit(weak).unwrap();
    let blocker = svc.try_submit(blocker).unwrap();
    let r = weak.wait();
    assert_eq!(r.status, JobStatus::DeadlineMissed, "{:?}", r.report);
    assert_eq!(r.attempts, 1);
    assert!(r.report.is_some_and(|rep| rep.any_unresolved()));
    let b = blocker.wait();
    assert_eq!(b.status, JobStatus::Completed);
    let stats = svc.shutdown(Shutdown::Drain);
    assert_eq!((stats.deadline_missed, stats.retries), (1, 1));
    assert_eq!(stats.terminal(), stats.submitted);
}

#[test]
fn drain_runs_a_waiting_retry() {
    let svc = one_worker_with_backoff(Duration::from_millis(50));
    let h = svc.try_submit(weak_faulted_spec(48, 3)).unwrap();
    wait_for_retries(&svc, 1);
    let stats = svc.shutdown(Shutdown::Drain);
    let r = h.wait();
    assert_eq!(r.status, JobStatus::Completed, "{:?}", r.report);
    assert_eq!(r.attempts, 2);
    assert_eq!((stats.completed, stats.canceled), (1, 0));
}

#[test]
fn backoff_histogram_measures_the_retry_wait() {
    let backoff = Duration::from_millis(30);
    let svc = one_worker_with_backoff(backoff);
    let r = svc.try_submit(weak_faulted_spec(48, 3)).unwrap().wait();
    assert_eq!(r.status, JobStatus::Completed, "{:?}", r.report);
    assert_eq!(r.attempts, 2);
    let backoff_us = backoff.as_micros() as u64;
    assert!(
        r.total_us >= r.queue_us + backoff_us,
        "total {} us < queue {} us + backoff",
        r.total_us,
        r.queue_us
    );
    let stats = svc.shutdown(Shutdown::Drain);
    let lane = &stats.lanes[Priority::Normal.index()];
    assert_eq!(lane.backoff.count, 1);
    assert!(lane.backoff.max_us >= backoff_us, "{:?}", lane.backoff);
}
