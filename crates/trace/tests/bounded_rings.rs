//! The rings are the only event store, so they bound what tracing
//! retains: a thread that records ten times its ring capacity under
//! `FT_TRACE=summary` keeps exactly its newest `capacity` events, and
//! collection turns the rings on even with the recorder knob off.
//!
//! One test function: trace mode and recorder configuration are
//! process-global.

use ft_trace::{recorder, TraceMode};

#[test]
fn summary_collection_retains_one_ring_of_the_newest_events_per_thread() {
    const CAP: usize = 64;
    const SPANS: usize = 10 * CAP + 7;
    ft_trace::set_mode(TraceMode::Summary);
    recorder::configure(false, CAP, None);
    assert!(ft_trace::recording(), "collection turns the rings on");

    let dropped_before = recorder::stats().dropped;
    let tid = std::thread::spawn(|| {
        for i in 0..SPANS {
            let _span = ft_trace::span!("ft.panel", i);
        }
        ft_trace::current_tid()
    })
    .join()
    .unwrap();

    let mine: Vec<_> = recorder::snapshot()
        .into_iter()
        .filter(|e| e.tid == tid)
        .collect();
    assert_eq!(mine.len(), CAP, "retained events are bounded by the ring");
    let args: Vec<i64> = mine.iter().map(|e| e.arg.unwrap_or(-1)).collect();
    let newest: Vec<i64> = ((SPANS - CAP) as i64..SPANS as i64).collect();
    assert_eq!(
        args, newest,
        "the ring keeps the newest spans, oldest first"
    );
    assert_eq!(
        recorder::stats().dropped - dropped_before,
        (SPANS - CAP) as u64,
        "every overwritten span is counted"
    );

    let summary = ft_trace::summary_string(&mine);
    assert!(summary.contains("ft.panel"), "{summary}");

    ft_trace::set_mode(TraceMode::Off);
    assert!(!ft_trace::recording(), "both gates off: the rings stop");
}
