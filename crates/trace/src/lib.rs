#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! `ft-trace` — the observability spine of the FT-Hess pipeline.
//!
//! The paper's entire value proposition is a *quantified* overhead claim
//! (< 2 % for ABFT detection + recovery), so every layer of this workspace
//! needs per-phase attribution: how long did the panel factorizations take
//! versus the trailing updates, what did a detection episode cost, how much
//! wall-clock went into a reverse-computation rollback. This crate provides
//! that attribution through one event pipeline:
//!
//! * **one store** — the [`recorder`] rings: a bounded, lock-free seqlock
//!   ring per recording thread holding its last N events (drop-oldest).
//!   Four event kinds land there: wall-clock spans ([`SpanGuard`], usually
//!   through the [`span!`] macro), simulated-clock intervals
//!   ([`record_sim`], the `ft-hybrid` simulator's host/stream/link
//!   timelines), registry counter deltas, and fault-[`journal`] records.
//!   Every event carries the ambient job/attempt [`ctx`].
//! * **readers** — [`recorder::snapshot`] resolves spans, sim intervals
//!   and counter deltas into [`Event`]s; [`journal::snapshot`] decodes
//!   the journal records. The `FT_TRACE` sinks ([`finish`]), flight
//!   recorder dumps and tests all read through these two.
//! * **counters / gauges / histograms** — a process-wide registry of
//!   named atomics ([`counter`], [`gauge`], [`histogram`]). These are
//!   *always on* (a relaxed `fetch_add`) so regression tests can pin
//!   exact counts without enabling tracing; [`metrics::MetricsSnapshot`]
//!   exposes the whole registry for live exposition.
//! * **caller-owned totals** — `span!(name, arg => &mut total)` always
//!   reads the clock and adds the span's duration to `total` as well as
//!   recording it, so a driver can keep its own per-phase breakdown on
//!   every run (the FT driver's `FtReport::phases`) from the same clock
//!   pair the trace shows.
//!
//! # Runtime gate: `FT_TRACE` and `FT_TRACE_RECORDER`
//!
//! The rings record while [`recording`] holds: the recorder knob is on
//! (`FT_TRACE_RECORDER=<events>[,dump:<path>]`, default on, 4096 events
//! per thread) or `FT_TRACE` collects. When neither holds, a span
//! constructor is one relaxed atomic load: no clock read, no store.
//!
//! | `FT_TRACE`       | behavior                                           |
//! |------------------|----------------------------------------------------|
//! | unset / `off`/`0`| no collection; rings follow `FT_TRACE_RECORDER`    |
//! | `summary` / `1`  | collect; [`finish`] prints an aggregate table to stderr |
//! | `jsonl:<path>`   | collect; [`finish`] writes one JSON object per event |
//! | `chrome:<path>`  | collect; [`finish`] writes a `chrome://tracing` / Perfetto file |
//! | `prom:<path>`    | no collection; [`finish`] writes a Prometheus metrics snapshot |
//!
//! Collecting turns the rings on even under `FT_TRACE_RECORDER=off` and
//! adds the simulated-clock intervals; [`finish`] drains the rings'
//! wall and sim events into the chosen sink. The retained window is the
//! per-thread ring capacity, so tracing never grows memory without
//! bound. Both variables are read together, once, on first use; tests
//! and benches can then override the mode with [`set_mode`] and the
//! recorder knob with [`recorder::configure`].
//!
//! # Span taxonomy
//!
//! Names are dot-separated, coarsest domain first, and declared in
//! [`names`] (see DESIGN.md §9 for the full table):
//!
//! * `ft.*` — FT-driver phases (`ft.encode`, `ft.panel`, `ft.trailing`,
//!   `ft.detect`, `ft.reverse`, `ft.locate`, `ft.correct`,
//!   `ft.qprotect`). These are **disjoint leaf spans** the driver times
//!   into its own `FtReport::phases`: their durations sum to (just
//!   under) the run's wall-clock — the paper's Figure 6 decomposition.
//! * `gehrd.*` / `lahr2` — the plain LAPACK-layer blocked reduction.
//! * `pool.*` — threaded-backend internals (`pool.dispatch` on the
//!   caller, `pool.task` on workers).
//! * `serve.*` — the reduction service: a `serve.run` span per executed
//!   attempt, plus the `serve.submitted` / `serve.completed` /
//!   `serve.failed` / `serve.retries` … counter family and the
//!   `serve.queue_depth` / `serve.in_flight` gauges (registered through
//!   [`counter`] / [`gauge`] by `ft-serve`).

pub mod clock;
pub mod ctx;
pub mod env_knob;
pub mod hist;
pub mod journal;
pub mod metrics;
pub mod names;
pub mod recorder;
mod registry;
mod span;
mod writer;

pub use ctx::TraceCtx;
pub use hist::{HistSnapshot, Histogram, SUB_BITS};
pub use metrics::MetricsSnapshot;
pub use registry::{counter, counters, gauge, gauges, histogram, histograms, Counter, Gauge};
pub use span::{current_tid, record_sim, totals, Event, SpanGuard, SpanTotal};
pub use writer::{summary_string, to_chrome_json, to_jsonl};

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// What the process does with collected trace data (parsed from
/// `FT_TRACE`; see the crate docs for the accepted spellings).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// No collection; the rings follow the recorder knob alone.
    #[default]
    Off,
    /// Collect events; [`finish`] prints an aggregated summary to stderr.
    Summary,
    /// Collect events; [`finish`] writes one JSON object per line.
    Jsonl(PathBuf),
    /// Collect events; [`finish`] writes a `chrome://tracing` JSON file.
    Chrome(PathBuf),
    /// No span collection; [`finish`] writes a Prometheus text-format
    /// snapshot of every counter/gauge/histogram (the file-dump twin of
    /// `ft-serve`'s live `FT_SERVE_METRICS_ADDR` endpoint).
    Prom(PathBuf),
}

impl TraceMode {
    /// Parses an `FT_TRACE` value. Unknown strings fall back to
    /// [`TraceMode::Off`] (a typo must never crash a production run).
    pub fn parse(s: &str) -> TraceMode {
        let t = s.trim();
        if t.is_empty() || t.eq_ignore_ascii_case("off") || t == "0" {
            TraceMode::Off
        } else if t.eq_ignore_ascii_case("summary") || t == "1" {
            TraceMode::Summary
        } else if let Some(p) = t.strip_prefix("jsonl:") {
            TraceMode::Jsonl(PathBuf::from(p))
        } else if let Some(p) = t.strip_prefix("chrome:") {
            TraceMode::Chrome(PathBuf::from(p))
        } else if let Some(p) = t.strip_prefix("prom:") {
            TraceMode::Prom(PathBuf::from(p))
        } else {
            TraceMode::Off
        }
    }

    /// `true` if this mode collects events ([`TraceMode::Prom`] does
    /// not: metrics snapshots read the always-on registry).
    pub fn collects(&self) -> bool {
        !matches!(self, TraceMode::Off | TraceMode::Prom(_))
    }
}

/// The runtime gate: the `FT_TRACE` mode and the recorder knob, read
/// from both variables together on first use. [`set_mode`] and
/// [`recorder::configure`] each override their half afterwards.
pub(crate) struct Settings {
    mode: TraceMode,
    /// Recorder knob: the rings record even without collection.
    pub(crate) recorder_on: bool,
    /// Slots of each ring created from now on (floor 8).
    pub(crate) capacity: usize,
    /// Where [`recorder::dump`] writes, if anywhere.
    pub(crate) dump: Option<PathBuf>,
}

impl Settings {
    /// Sets the recorder knob (`FT_TRACE_RECORDER` or
    /// [`recorder::configure`]).
    pub(crate) fn set_recorder(&mut self, on: bool, capacity: usize, dump: Option<PathBuf>) {
        self.recorder_on = on;
        self.capacity = capacity.max(8);
        self.dump = dump;
    }

    /// Derives the two hot-path flags from the settings.
    fn publish(&self) {
        COLLECT.store(self.mode.collects(), Ordering::Relaxed);
        RECORDING.store(self.mode.collects() || self.recorder_on, Ordering::Relaxed);
        INITTED.store(true, Ordering::Release);
    }
}

static SETTINGS: Mutex<Settings> = Mutex::new(Settings {
    mode: TraceMode::Off,
    recorder_on: true,
    capacity: recorder::DEFAULT_CAPACITY,
    dump: None,
});
/// Set once both variables have been read into [`SETTINGS`]: stored with
/// `Release` after the flags below, loaded with `Acquire` before them, so
/// a thread that sees it set sees the flags derived with it.
static INITTED: AtomicBool = AtomicBool::new(false);
/// `FT_TRACE` collects.
static COLLECT: AtomicBool = AtomicBool::new(false);
/// `FT_TRACE` collects or the recorder knob is on: the rings record.
static RECORDING: AtomicBool = AtomicBool::new(false);

/// Locks the settings, reading `FT_TRACE` and `FT_TRACE_RECORDER` into
/// them on first use. Writers go through [`update`]. Service workers
/// reach this through [`recorder::dump`] and must not panic here; a
/// poisoned lock still yields usable settings, since every field is
/// valid after every assignment.
pub(crate) fn settings() -> MutexGuard<'static, Settings> {
    let mut s = SETTINGS.lock().unwrap_or_else(|e| e.into_inner());
    if !INITTED.load(Ordering::Relaxed) {
        s.mode =
            env_knob::parse_with("FT_TRACE", |v| Some(TraceMode::parse(v))).unwrap_or_default();
        let knob = env_knob::raw("FT_TRACE_RECORDER").unwrap_or_default();
        let (on, capacity, dump) = recorder::parse_knob(&knob);
        s.set_recorder(on, capacity, dump);
        s.publish();
    }
    s
}

/// Changes the settings under the lock, then re-derives the flags.
pub(crate) fn update(f: impl FnOnce(&mut Settings)) {
    let mut s = settings();
    f(&mut s);
    s.publish();
}

#[cold]
fn init() {
    drop(settings());
}

/// `true` when `FT_TRACE` collects (for a sink to drain at [`finish`]):
/// the gate on simulated-clock intervals.
#[inline]
pub fn enabled() -> bool {
    if !INITTED.load(Ordering::Acquire) {
        init();
    }
    COLLECT.load(Ordering::Relaxed)
}

/// `true` when the rings record — `FT_TRACE` collects or the recorder
/// knob is on. This is the guard constructors' hot-path check: one
/// relaxed atomic load once initialized.
#[inline]
pub fn recording() -> bool {
    if !INITTED.load(Ordering::Acquire) {
        init();
    }
    RECORDING.load(Ordering::Relaxed)
}

/// The active trace mode (initialized from `FT_TRACE` on first use).
pub fn mode() -> TraceMode {
    settings().mode.clone()
}

/// Overrides the trace mode programmatically (benches force collection
/// around a measured run; tests pin `Off` to prove the zero-write
/// contract). The recorder knob keeps its value.
pub fn set_mode(mode: TraceMode) {
    update(|s| s.mode = mode);
}

/// Reads the rings' wall and sim events and emits them according to
/// the active mode: summary table to stderr, or a `jsonl`/`chrome` file
/// at the configured path (returned on success). [`TraceMode::Off`]
/// emits nothing and returns `None`.
///
/// Call this once at the end of a binary / example / bench; the library
/// never writes files behind the caller's back.
pub fn finish() -> std::io::Result<Option<PathBuf>> {
    let spans = || {
        let mut events = recorder::snapshot();
        events.retain(|e| e.cat != "counter");
        events
    };
    match mode() {
        TraceMode::Off => Ok(None),
        TraceMode::Summary => {
            eprint!("{}", summary_string(&spans()));
            Ok(None)
        }
        TraceMode::Jsonl(path) => {
            std::fs::write(&path, to_jsonl(&spans()))?;
            Ok(Some(path))
        }
        TraceMode::Chrome(path) => {
            std::fs::write(&path, to_chrome_json(&spans()))?;
            Ok(Some(path))
        }
        TraceMode::Prom(path) => {
            std::fs::write(&path, MetricsSnapshot::collect().to_prometheus())?;
            Ok(Some(path))
        }
    }
}

/// Opens an RAII span: records a monotonic start now, writes one event
/// to the calling thread's ring when the returned guard drops. Inert (one
/// atomic load, nothing else) when the rings are off.
///
/// The `=> total` form always reads the clock and also adds the span's
/// duration, in seconds, to the `&mut f64` it is given:
///
/// ```
/// let mut panel_secs = 0.0;
/// {
///     let _span = ft_trace::span!("ft.panel", 3 => &mut panel_secs);
///     // ... the panel factorization ...
/// }
/// assert!(panel_secs >= 0.0);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr => $total:expr) => {
        $crate::SpanGuard::timed($name, None, $total)
    };
    ($name:expr, $arg:expr => $total:expr) => {
        $crate::SpanGuard::timed($name, Some($arg as i64), $total)
    };
    ($name:expr) => {
        $crate::SpanGuard::new($name, None)
    };
    ($name:expr, $arg:expr) => {
        $crate::SpanGuard::new($name, Some($arg as i64))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing() {
        assert_eq!(TraceMode::parse(""), TraceMode::Off);
        assert_eq!(TraceMode::parse("off"), TraceMode::Off);
        assert_eq!(TraceMode::parse("0"), TraceMode::Off);
        assert_eq!(TraceMode::parse("summary"), TraceMode::Summary);
        assert_eq!(TraceMode::parse("SUMMARY"), TraceMode::Summary);
        assert_eq!(TraceMode::parse("1"), TraceMode::Summary);
        assert_eq!(
            TraceMode::parse("jsonl:/tmp/t.jsonl"),
            TraceMode::Jsonl(PathBuf::from("/tmp/t.jsonl"))
        );
        assert_eq!(
            TraceMode::parse("chrome:trace.json"),
            TraceMode::Chrome(PathBuf::from("trace.json"))
        );
        assert_eq!(
            TraceMode::parse("prom:metrics.prom"),
            TraceMode::Prom(PathBuf::from("metrics.prom"))
        );
        assert_eq!(TraceMode::parse("bogus"), TraceMode::Off);
    }

    #[test]
    fn collects_matches_variant() {
        assert!(!TraceMode::Off.collects());
        assert!(TraceMode::Summary.collects());
        assert!(TraceMode::Jsonl(PathBuf::from("x")).collects());
        assert!(TraceMode::Chrome(PathBuf::from("x")).collects());
        assert!(
            !TraceMode::Prom(PathBuf::from("x")).collects(),
            "prom snapshots read the always-on registry, not the rings"
        );
    }
}
