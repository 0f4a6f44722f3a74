//! The span API and the one resolved event type.
//!
//! A span guard reads the clock when it opens and, when it drops, writes
//! one event into the calling thread's flight-recorder ring
//! ([`crate::recorder`]) — the only event store. Every consumer (the
//! `FT_TRACE` sinks, dumps, tests) reads events back out of the rings as
//! [`Event`]s.

use crate::clock::now_us;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// One event read back from the rings.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Dot-separated event name (`ft.panel`, `pool.dispatch`, …).
    pub name: &'static str,
    /// Category: `"wall"` for real monotonic-clock spans, `"sim"` for
    /// simulated-clock intervals mirrored by `ft-hybrid`, `"counter"` for
    /// a registry counter delta.
    pub cat: &'static str,
    /// Span payload (panel start column, task count, …), or a counter
    /// event's delta.
    pub arg: Option<i64>,
    /// Recording lane: a process-unique small thread id for wall spans
    /// and counter deltas, the simulator's resource lane for sim events.
    pub tid: u64,
    /// Start, microseconds since the trace epoch (wall, counter) or the
    /// simulation start (sim).
    pub start_us: f64,
    /// Duration in microseconds (0 for counter deltas).
    pub dur_us: f64,
    /// Ambient trace context (job + attempt) at record time, when the
    /// recording thread was working for a service job.
    pub ctx: Option<crate::ctx::TraceCtx>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

/// A process-unique small id for the calling thread (assigned on first
/// use; stable for the thread's lifetime). Used to attribute wall spans
/// to threads.
pub fn current_tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// RAII span guard: construct via [`crate::span!`]. Records start on
/// creation and writes one event to the calling thread's ring on drop —
/// or does nothing at all when the rings are off at creation time. The
/// timed form ([`SpanGuard::timed`]) always reads the clock and also adds
/// its duration to a caller-owned total.
pub struct SpanGuard<'a> {
    name: &'static str,
    arg: Option<i64>,
    start_us: f64,
    record: bool,
    total: Option<&'a mut f64>,
}

impl SpanGuard<'static> {
    /// Opens a span named `name` with an optional integer payload. The
    /// guard is live when the rings are recording ([`crate::recording`],
    /// one relaxed atomic load).
    #[inline]
    pub fn new(name: &'static str, arg: Option<i64>) -> SpanGuard<'static> {
        let record = crate::recording();
        SpanGuard {
            name,
            arg,
            start_us: if record { now_us() } else { 0.0 },
            record,
            total: None,
        }
    }
}

impl<'a> SpanGuard<'a> {
    /// Opens a span that reads the clock whether or not the rings are
    /// recording, and on drop adds its duration in seconds to `total`.
    /// One clock pair feeds both the recorded event and the caller's
    /// total, so the two always agree.
    #[inline]
    pub fn timed(name: &'static str, arg: Option<i64>, total: &'a mut f64) -> SpanGuard<'a> {
        SpanGuard {
            name,
            arg,
            start_us: now_us(),
            record: crate::recording(),
            total: Some(total),
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if !self.record && self.total.is_none() {
            return;
        }
        let dur_us = (now_us() - self.start_us).max(0.0);
        if let Some(total) = self.total.take() {
            *total += dur_us / 1e6;
        }
        if self.record {
            crate::recorder::note_span(self.name, self.arg, self.start_us, dur_us);
        }
    }
}

/// Records one simulated-clock interval (category `"sim"`) on resource
/// lane `lane`. No-op unless `FT_TRACE` collects — callers on hot loops
/// should still guard with [`crate::enabled`] to skip argument
/// marshalling.
pub fn record_sim(name: &'static str, lane: u64, start_us: f64, dur_us: f64) {
    if crate::enabled() {
        crate::recorder::note_sim(name, lane, start_us, dur_us);
    }
}

/// Aggregate of all events sharing one span name.
#[derive(Clone, Debug)]
pub struct SpanTotal {
    /// Span name.
    pub name: &'static str,
    /// Number of completed spans.
    pub count: u64,
    /// Summed duration, microseconds.
    pub total_us: f64,
}

/// Aggregates `events` by name (order of first appearance preserved).
/// Callers filter by category / tid / prefix first if they need a subset.
pub fn totals(events: &[Event]) -> Vec<SpanTotal> {
    let mut out: Vec<SpanTotal> = Vec::new();
    for ev in events {
        match out.iter_mut().find(|t| t.name == ev.name) {
            Some(t) => {
                t.count += 1;
                t.total_us += ev.dur_us;
            }
            None => out.push(SpanTotal {
                name: ev.name,
                count: 1,
                total_us: ev.dur_us,
            }),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tid_is_stable_and_nonzero() {
        let a = current_tid();
        let b = current_tid();
        assert_eq!(a, b);
        assert!(a > 0);
        let other = std::thread::spawn(current_tid).join().unwrap();
        assert_ne!(a, other, "distinct threads get distinct tids");
    }

    #[test]
    fn timed_span_adds_to_its_total() {
        let mut total = 0.0;
        {
            let _t = crate::span!("ft.panel", 3 => &mut total);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(total >= 1e-3 - 1e-4, "measured {total}");
        let before = total;
        drop(crate::span!("ft.detect" => &mut total));
        assert!(total >= before);
    }

    #[test]
    fn totals_aggregate_by_name() {
        let ev = |name, tid, start_us, dur_us| Event {
            name,
            cat: "wall",
            arg: None,
            tid,
            start_us,
            dur_us,
            ctx: None,
        };
        let evs = vec![
            ev("a", 1, 0.0, 2.0),
            ev("b", 1, 2.0, 1.0),
            ev("a", 2, 3.0, 4.0),
        ];
        let t = totals(&evs);
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].name, "a");
        assert_eq!(t[0].count, 2);
        assert!((t[0].total_us - 6.0).abs() < 1e-12);
        assert_eq!(t[1].count, 1);
    }
}
