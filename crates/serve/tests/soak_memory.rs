//! A long service run with tracing on keeps flat memory.
//!
//! The flight-recorder rings, the fault journal and the metric registry
//! bound their memory by construction; this test measures it. Ten
//! thousand small jobs (n 16–48, a quarter of them faulted, half of those
//! weak, so about one job in eight passes through a waiting retry) run
//! through a two-worker service with span collection on and the recorder
//! at its default. Resident memory (`VmRSS`) may grow by at most 4 MiB
//! from the end of the first 2,000 jobs to the end of the run. A leak of
//! 1 KiB per job would add about 8 MiB.
//!
//! Every thread that records holds a flight-recorder ring while it lives,
//! and hands it to the next recording thread when it exits. A second test
//! calls `loadgen::run`, which spawns its client threads anew, again and
//! again: the ring count stays at the peak number of live recording
//! threads, and resident memory within the same bound.
//!
//! The tests of this binary measure one process's memory, so they take
//! turns.

#![cfg(target_os = "linux")]

use ft_serve::loadgen::{self, job_for_index, LoadgenConfig};
use ft_serve::{JobHandle, JobStatus, Service, ServiceConfig, Shutdown};
use ft_trace::{recorder, TraceMode};
use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

const JOBS: usize = 10_000;
const WARM_JOBS: usize = 2_000;
const OUTSTANDING: usize = 8;
const LOADGEN_RUNS: usize = 24;
const MAX_GROWTH_KIB: u64 = 4 * 1024;

static TAKE_TURNS: Mutex<()> = Mutex::new(());

/// Resident set size of this process, KiB.
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line in /proc/self/status")
}

#[test]
fn long_traced_run_keeps_flat_memory() {
    let _turn = TAKE_TURNS.lock().unwrap_or_else(PoisonError::into_inner);
    ft_trace::set_mode(TraceMode::Summary);
    let mix = LoadgenConfig {
        sizes: (16..=48).collect(),
        ..LoadgenConfig::default()
    };
    let svc = Service::start(ServiceConfig {
        workers: 2,
        queue_capacity: 16,
        ..ServiceConfig::default()
    });

    let mut outstanding: VecDeque<JobHandle> = VecDeque::with_capacity(OUTSTANDING);
    let mut done = 0usize;
    let mut completed = 0usize;
    let mut warm_rss = None;
    let mut take_oldest = |outstanding: &mut VecDeque<JobHandle>| {
        let r = outstanding
            .pop_front()
            .expect("a job is outstanding")
            .wait();
        completed += usize::from(r.status == JobStatus::Completed);
        done += 1;
        if done == WARM_JOBS {
            warm_rss = Some(vm_rss_kib());
        }
    };
    for i in 0..JOBS {
        if outstanding.len() == OUTSTANDING {
            take_oldest(&mut outstanding);
        }
        let (spec, _, _) = job_for_index(&mix, i);
        outstanding.push_back(svc.submit(spec, Duration::from_secs(60)).unwrap());
    }
    while !outstanding.is_empty() {
        take_oldest(&mut outstanding);
    }
    let end_rss = vm_rss_kib();
    let stats = svc.shutdown(Shutdown::Drain);
    ft_trace::set_mode(TraceMode::Off);

    let warm_rss = warm_rss.expect("the warm-up mark was passed");
    let growth = end_rss.saturating_sub(warm_rss);
    eprintln!(
        "soak: {JOBS} jobs, {completed} completed, {} retries; \
         VmRSS {warm_rss} KiB after {WARM_JOBS} jobs, {end_rss} KiB at the end (+{growth} KiB)",
        stats.retries
    );
    assert_eq!(stats.submitted, JOBS as u64);
    assert_eq!(stats.terminal(), stats.submitted);
    assert!(
        stats.retries as usize >= JOBS / 20,
        "the mix must exercise the waiting-retry path: {} retries",
        stats.retries
    );
    assert!(
        growth <= MAX_GROWTH_KIB,
        "resident memory grew {growth} KiB over {} jobs (limit {MAX_GROWTH_KIB} KiB)",
        JOBS - WARM_JOBS
    );
}

#[test]
fn repeated_loadgen_runs_reuse_the_clients_rings() {
    let _turn = TAKE_TURNS.lock().unwrap_or_else(PoisonError::into_inner);
    let cfg = LoadgenConfig {
        sizes: (16..=48).collect(),
        ..LoadgenConfig::default()
    };
    let svc = Service::start(ServiceConfig {
        workers: 2,
        queue_capacity: 16,
        ..ServiceConfig::default()
    });
    loadgen::run(&svc, &cfg);
    let (warm_rings, warm_rss) = (recorder::stats().rings, vm_rss_kib());
    for _ in 0..LOADGEN_RUNS {
        let summary = loadgen::run(&svc, &cfg);
        assert_eq!(summary.accepted, cfg.jobs);
    }
    let (rings, end_rss) = (recorder::stats().rings, vm_rss_kib());
    svc.shutdown(Shutdown::Drain);

    let growth = end_rss.saturating_sub(warm_rss);
    eprintln!(
        "soak: {LOADGEN_RUNS} loadgen runs of {} clients; {warm_rings} rings after the first, \
         {rings} at the end; VmRSS +{growth} KiB",
        cfg.clients
    );
    // A scoped client's thread-local teardown, which hands its ring back,
    // may still be running when the next run spawns its clients.
    assert!(
        rings <= warm_rings + cfg.clients,
        "{rings} rings after {LOADGEN_RUNS} runs, {warm_rings} after the first"
    );
    assert!(
        growth <= MAX_GROWTH_KIB,
        "resident memory grew {growth} KiB over {LOADGEN_RUNS} runs (limit {MAX_GROWTH_KIB} KiB)"
    );
}
