//! Integration contract between the threaded backend and `ft-trace`:
//! spans opened on pool workers close, the pool/workspace counters are
//! single-sourced from the registry, and with tracing and the recorder
//! off the level-3 hot path writes nothing to the rings.
//!
//! These tests share process-global trace state (`ft_trace::set_mode`,
//! `ft_trace::recorder::configure`), so each one takes `TRACE_LOCK` to
//! serialize against its siblings.

use ft_blas::{gemm, pool, with_backend, workspace, Backend, Trans};
use ft_trace::{recorder, TraceMode};
use std::sync::Mutex;

static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// A gemm big enough to clear `PARALLEL_MIN_VOLUME` (128³), so the
/// threaded backend genuinely forks onto the pool.
fn forking_gemm() {
    let n = 160;
    let a = ft_matrix::random::uniform(n, n, 11);
    let b = ft_matrix::random::uniform(n, n, 12);
    let mut c = ft_matrix::Matrix::zeros(n, n);
    with_backend(Backend::Threaded(4), || {
        gemm(
            Trans::No,
            Trans::No,
            1.0,
            &a.as_view(),
            &b.as_view(),
            0.0,
            &mut c.as_view_mut(),
        );
    });
    std::hint::black_box(c.as_slice()[0]);
}

#[test]
fn spans_open_and_close_across_pool_workers() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    ft_trace::set_mode(TraceMode::Summary);
    let t0 = ft_trace::clock::now_us();

    forking_gemm();

    let mut events = recorder::snapshot();
    events.retain(|e| e.cat == "wall" && e.start_us >= t0);
    ft_trace::set_mode(TraceMode::Off);

    // Events only reach the rings when a guard *drops*, so every event
    // here is by construction a closed span with a well-formed interval.
    let dispatches: Vec<_> = events
        .iter()
        .filter(|e| e.name == "pool.dispatch")
        .collect();
    let tasks: Vec<_> = events.iter().filter(|e| e.name == "pool.task").collect();
    assert!(
        !dispatches.is_empty(),
        "threaded gemm above the volume gate must dispatch onto the pool"
    );
    assert!(
        !tasks.is_empty(),
        "worker-side pool.task spans must close and land in the rings"
    );
    for ev in &events {
        assert!(ev.dur_us >= 0.0, "negative duration on {}", ev.name);
        assert!(ev.start_us.is_finite());
    }
    // Worker spans run on pool threads, never on the caller's.
    let caller = ft_trace::current_tid();
    assert!(tasks.iter().all(|e| e.tid != caller));
    assert!(dispatches.iter().all(|e| e.tid == caller));
    // Each dispatch records how many tasks it fanned out (≥ 2 by
    // definition of the threaded path), and those workers all reported in.
    let fanned: i64 = dispatches.iter().map(|e| e.arg.unwrap_or(0)).sum();
    assert!(fanned >= 2);
}

#[test]
fn pool_and_workspace_counters_are_single_sourced() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    ft_trace::set_mode(TraceMode::Off);

    let dispatch_before = ft_trace::counter("pool.dispatch").get();
    forking_gemm();
    let dispatch_after = ft_trace::counter("pool.dispatch").get();

    // The pool's public accessors and the registry are the same storage —
    // the ad-hoc bench probes are gone.
    assert_eq!(pool::dispatch_count(), dispatch_after);
    assert_eq!(
        pool::spawned_worker_count() as u64,
        ft_trace::counter("pool.spawn").get()
    );
    assert!(
        dispatch_after > dispatch_before,
        "a forking gemm must bump the dispatch counter even with tracing off"
    );
    assert_eq!(
        workspace::growth_allocations(),
        ft_trace::counter("workspace.growth").get()
    );
    // And the registry snapshot exposes them under the documented names.
    let names: Vec<&str> = ft_trace::counters().iter().map(|(n, _)| *n).collect();
    for expected in ["pool.spawn", "pool.dispatch", "workspace.growth"] {
        assert!(names.contains(&expected), "missing counter {expected}");
    }
}

/// Events ever written to the rings (retained plus overwritten).
fn ring_writes() -> u64 {
    let st = recorder::stats();
    st.occupancy as u64 + st.dropped
}

#[test]
fn trace_and_recorder_off_means_zero_ring_writes_on_hot_path() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    ft_trace::set_mode(TraceMode::Off);
    recorder::configure(false, recorder::DEFAULT_CAPACITY, None);

    let writes_before = ring_writes();
    for _ in 0..3 {
        forking_gemm();
    }
    let writes_after = ring_writes();
    recorder::configure(true, recorder::DEFAULT_CAPACITY, None);
    assert_eq!(
        writes_after, writes_before,
        "FT_TRACE and the recorder off must not write a single event from the level-3 hot path"
    );
}
