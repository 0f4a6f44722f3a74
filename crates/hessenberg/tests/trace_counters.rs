//! End-to-end trace contract for the FT driver: a known 2-fault campaign
//! produces exact registry-counter deltas, every FT phase emits a span
//! when collection is on and the driver's own phase totals agree with
//! those spans, and a run with tracing and the recorder off still
//! recovers and reports its phase breakdown while writing nothing to
//! the rings.
//!
//! These tests share process-global trace state (`ft_trace::set_mode`,
//! `ft_trace::recorder::configure`), so each one takes `TRACE_LOCK` to
//! serialize against its siblings.

use ft_fault::{Fault, FaultPlan, Phase, ScheduledFault};
use ft_hessenberg::{ft_gehrd_hybrid, FtConfig, FtOutcome};
use ft_hybrid::{CostModel, ExecMode, HybridCtx};
use ft_trace::{recorder, Event, TraceMode};
use std::sync::Mutex;

static TRACE_LOCK: Mutex<()> = Mutex::new(());

const N: usize = 160;
const NB: usize = 32;

/// Two single-element transient faults in different panel iterations —
/// both inside the trailing matrix, so the driver detects, locates and
/// corrects each one on-line.
fn two_fault_plan() -> FaultPlan {
    FaultPlan::new(vec![
        ScheduledFault {
            iteration: 1,
            phase: Phase::IterationStart,
            fault: Fault::add(60, 80, 1.0),
        },
        ScheduledFault {
            iteration: 3,
            phase: Phase::IterationStart,
            fault: Fault::add(120, 130, 0.7),
        },
    ])
}

fn run(plan: &mut FaultPlan) -> FtOutcome {
    let a = ft_matrix::random::uniform(N, N, 99);
    let mut ctx = HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::Full, 2);
    ft_gehrd_hybrid(&a, &FtConfig::with_nb(NB), &mut ctx, plan)
}

fn run_campaign() -> FtOutcome {
    run(&mut two_fault_plan())
}

/// The calling thread's wall-clock `ft.*` spans recorded at or after
/// `t0`, read from the rings.
fn ft_spans_since(t0: f64) -> Vec<Event> {
    let tid = ft_trace::current_tid();
    let mut events = recorder::snapshot();
    events.retain(|e| {
        e.cat == "wall" && e.tid == tid && e.start_us >= t0 && e.name.starts_with("ft.")
    });
    events
}

/// Events ever written to the rings (retained plus overwritten).
fn ring_writes() -> u64 {
    let st = recorder::stats();
    st.occupancy as u64 + st.dropped
}

#[test]
fn two_fault_campaign_counters_are_exact() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    ft_trace::set_mode(TraceMode::Off);

    let recoveries_before = ft_trace::counter("ft.recoveries").get();
    let corrections_before = ft_trace::counter("ft.corrections").get();

    let out = run_campaign();

    // The counters move in lock-step with the report: one increment per
    // RecoveryEvent, `fixes.len()` per correction pass.
    assert_eq!(
        out.report.recoveries.len(),
        2,
        "{:?}",
        out.report.recoveries
    );
    assert_eq!(out.report.corrections(), 2);
    assert_eq!(
        ft_trace::counter("ft.recoveries").get() - recoveries_before,
        out.report.recoveries.len() as u64
    );
    assert_eq!(
        ft_trace::counter("ft.corrections").get() - corrections_before,
        out.report.corrections() as u64
    );
    // And the run actually survived.
    assert!(out.result.unwrap().h().is_upper_hessenberg());
}

#[test]
fn faulty_run_emits_a_span_for_every_ft_phase() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    ft_trace::set_mode(TraceMode::Summary);
    let t0 = ft_trace::clock::now_us();

    let out = run_campaign();

    let events = ft_spans_since(t0);
    ft_trace::set_mode(TraceMode::Off);

    let ft_names: Vec<&str> = events.iter().map(|e| e.name).collect();
    for phase in [
        "ft.encode",
        "ft.panel",
        "ft.trailing",
        "ft.detect",
        "ft.reverse",
        "ft.locate",
        "ft.correct",
        "ft.qprotect",
    ] {
        assert!(
            ft_names.contains(&phase),
            "missing span {phase} in a faulty run; saw {ft_names:?}"
        );
    }

    // The driver times each phase with the same clock pair its span
    // records, so every breakdown row equals its spans' summed duration.
    let ph = &out.report.phases;
    for (row, secs) in ph.rows() {
        let name = format!("ft.{row}");
        let spans: f64 = events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.dur_us / 1e6)
            .sum();
        assert!(
            (spans - secs).abs() <= 1e-12 * secs.max(1e-3),
            "{name}: spans sum to {spans} s, the report says {secs} s"
        );
    }

    // The breakdown accounts for most of the run without ever exceeding
    // it.
    assert!(!ph.is_empty());
    assert!(ph.total() > 0.0);
    assert!(
        ph.total() <= out.report.wall_seconds,
        "disjoint leaf phases cannot sum past wall-clock: {} vs {}",
        ph.total(),
        out.report.wall_seconds
    );
    assert!(
        ph.total() >= 0.5 * out.report.wall_seconds,
        "phase breakdown should cover the bulk of the run: {} of {}",
        ph.total(),
        out.report.wall_seconds
    );
    assert!(ph.ft_overhead() >= 0.0);
}

#[test]
fn clean_run_records_one_qprotect_span_per_iteration_plus_the_final_check() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    ft_trace::set_mode(TraceMode::Off);
    recorder::configure(true, recorder::DEFAULT_CAPACITY, None);
    let t0 = ft_trace::clock::now_us();

    let out = run(&mut FaultPlan::none());

    let qprotect = ft_spans_since(t0)
        .iter()
        .filter(|e| e.name == "ft.qprotect")
        .count();
    assert!(out.report.recoveries.is_empty(), "{:?}", out.report);
    assert_eq!(out.report.iterations, (N - 2).div_ceil(NB));
    assert_eq!(qprotect, out.report.iterations + 1);
    assert!(out.report.phases.qprotect > 0.0);
}

#[test]
fn trace_and_recorder_off_run_reports_phases_with_zero_ring_writes() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    ft_trace::set_mode(TraceMode::Off);
    recorder::configure(false, recorder::DEFAULT_CAPACITY, None);

    let writes_before = ring_writes();
    let out = run_campaign();
    let writes_after = ring_writes();
    recorder::configure(true, recorder::DEFAULT_CAPACITY, None);

    assert_eq!(
        writes_after, writes_before,
        "FT_TRACE and the recorder off must not write events from the FT driver"
    );
    // The driver still times its own phases, and the algorithm is
    // unaffected.
    let ph = &out.report.phases;
    assert!(!ph.is_empty());
    assert!(ph.panel > 0.0 && ph.trailing > 0.0 && ph.reverse > 0.0);
    assert!(ph.total() <= out.report.wall_seconds);
    assert_eq!(out.report.recoveries.len(), 2);
    assert!(out.result.unwrap().h().is_upper_hessenberg());
}
