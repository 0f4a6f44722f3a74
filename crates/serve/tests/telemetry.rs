//! End-to-end telemetry contract: one doubly-faulted job that needs an
//! escalated retry must leave a fully attributed trail across every
//! observability surface, all read back from the flight-recorder rings —
//!
//! * **spans**: `serve.run` (and the algorithm spans inside it) carry
//!   the ambient [`ft_trace::TraceCtx`], with the service-assigned job
//!   id and distinct 0-based attempt numbers for the two executions;
//! * **counters/histograms**: the retry is counted and every serve
//!   registry family resolves against the declared `names.rs` registry
//!   through a live Prometheus scrape;
//! * **fault journal**: detection/recovery records exist for both
//!   attempts, tagged with the same job id and distinct attempts;
//! * **flight recorder**: a forced dump parses back into events that
//!   replay into the chrome-trace sink.
//!
//! Trace state is process-global, so the whole contract is pinned by one
//! test function.

use ft_fault::{Fault, FaultPlan, Phase, ScheduledFault};
use ft_hessenberg::FtConfig;
use ft_serve::{FaultSpec, JobSpec, JobStatus, Service, ServiceConfig, Shutdown};
use ft_trace::TraceMode;
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;

/// A job that fails its first run (zero in-run recovery budget, two
/// injected faults) and is rescued by the escalated retry.
fn doubly_faulted_spec(n: usize, seed: u64) -> JobSpec {
    let mut s = JobSpec::new(ft_matrix::random::uniform(n, n, seed));
    s.cfg = FtConfig::with_nb(8);
    s.cfg.max_recovery_attempts = 0;
    s.faults = FaultSpec::Plan(FaultPlan::new(vec![
        ScheduledFault {
            iteration: 1,
            phase: Phase::IterationStart,
            fault: Fault::add(n / 2, n / 2 + 1, 0.41),
        },
        ScheduledFault {
            iteration: 2,
            phase: Phase::IterationStart,
            fault: Fault::add(n / 3, n / 3 + 2, 0.23),
        },
    ]));
    s
}

/// Every name family declared in `names.rs`, mangled the way the
/// Prometheus renderer does (`.` → `_`).
fn declared_prometheus_names() -> BTreeSet<String> {
    ft_trace::names::COUNTERS
        .iter()
        .chain(ft_trace::names::GAUGES)
        .chain(ft_trace::names::HISTOGRAMS)
        .map(|n| n.replace('.', "_"))
        .collect()
}

fn scrape(addr: std::net::SocketAddr) -> String {
    let mut s = TcpStream::connect(addr).expect("connect to metrics endpoint");
    s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").expect("send");
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read");
    out
}

#[test]
fn retried_job_is_attributed_across_spans_journal_recorder_and_scrape() {
    ft_trace::set_mode(TraceMode::Summary);
    ft_trace::recorder::configure(true, 4096, None);

    let svc = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 16,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServiceConfig::default()
    });
    let metrics_addr = svc.metrics_addr().expect("metrics endpoint must bind");

    let handle = svc.try_submit(doubly_faulted_spec(48, 17)).unwrap();
    let job_id = handle.id().0;
    let r = handle.wait();
    assert_eq!(r.status, JobStatus::Completed, "{:?}", r.report);
    assert!(r.attempts >= 2, "the weak first run must force a retry");

    // --- spans: both attempts appear, same job, distinct attempt ------
    let events = ft_trace::recorder::snapshot();
    let runs: Vec<_> = events.iter().filter(|e| e.name == "serve.run").collect();
    assert!(runs.len() >= 2, "one serve.run span per executed attempt");
    let attempts: BTreeSet<u32> = runs
        .iter()
        .map(|e| {
            let ctx = e.ctx.expect("serve.run must carry a trace context");
            assert_eq!(ctx.job_id, job_id, "span attributed to the wrong job");
            ctx.attempt
        })
        .collect();
    assert!(
        attempts.contains(&0) && attempts.contains(&1),
        "attempts must be distinct and 0-based: {attempts:?}"
    );
    // Algorithm spans inside the run inherit the context — including on
    // pool workers the executor dispatched to.
    assert!(
        events.iter().any(|e| e.cat == "wall"
            && e.name != "serve.run"
            && e.ctx.is_some_and(|c| c.job_id == job_id)),
        "inner algorithm spans must inherit the job context"
    );

    // --- fault journal: both attempts, same job ----------------------
    let journal = ft_trace::journal::snapshot();
    let mine: Vec<_> = journal
        .iter()
        .filter(|rec| rec.job_id == Some(job_id))
        .collect();
    assert!(!mine.is_empty(), "the faulted job must journal its faults");
    let journal_attempts: BTreeSet<u32> = mine.iter().map(|rec| rec.attempt).collect();
    assert!(
        journal_attempts.contains(&0) && journal_attempts.contains(&1),
        "journal must cover both attempts: {journal_attempts:?}"
    );
    for rec in &mine {
        assert!(!rec.phase.is_empty());
        assert!(!rec.protection.is_empty());
        assert!(rec.ts_us.is_finite());
    }
    // The failed first attempt gave up; the escalated retry resolved.
    assert!(mine.iter().any(|rec| rec.attempt == 0 && !rec.resolved));
    assert!(mine.iter().any(|rec| rec.attempt == 1 && rec.resolved));
    let jsonl = ft_trace::journal::to_jsonl(&journal);
    assert!(jsonl.contains("\"journal\""));
    assert!(jsonl.contains(&format!("\"job\":{job_id}")));

    // --- flight recorder: dump parses and replays into chrome JSON ---
    let dump = ft_trace::recorder::dump_string("telemetry-test");
    assert!(dump.contains("telemetry-test"));
    let replayed = ft_trace::recorder::parse_dump(&dump);
    assert!(
        replayed.iter().any(|e| e.name == "serve.run"),
        "the recorder must have retained the run spans"
    );
    assert!(replayed
        .iter()
        .any(|e| e.ctx.is_some_and(|c| c.job_id == job_id && c.attempt == 1)));
    let chrome = ft_trace::to_chrome_json(&replayed);
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("serve.run"));

    // --- live scrape: every family resolves against names.rs ---------
    let body = scrape(metrics_addr);
    let declared = declared_prometheus_names();
    let mut families = 0;
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split_whitespace().next().unwrap_or("");
            assert!(
                declared.contains(name),
                "scraped family {name} is not declared in names.rs"
            );
            families += 1;
        }
    }
    assert!(families > 0, "the scrape must expose at least one family");
    assert!(body.contains("serve_retries"));
    assert!(body.contains("serve_completed"));
    // Lane histograms render as summaries with quantile labels.
    assert!(body.contains("serve_latency_normal{quantile=\"0.999\"}"));

    // --- service counters --------------------------------------------
    let stats = svc.shutdown(Shutdown::Drain);
    assert!(stats.retries >= 1);
    assert_eq!(stats.completed, 1);
    // The lane breakdown saw the queue wait, both executions, and the
    // backoff sleep.
    let lane = &stats.lanes[ft_serve::Priority::Normal.index()];
    assert_eq!(lane.queue_wait.count, 1);
    assert!(lane.exec.count >= 2);
    assert!(lane.backoff.count >= 1);

    ft_trace::set_mode(TraceMode::Off);
    ft_trace::recorder::configure(false, 4096, None);
}
