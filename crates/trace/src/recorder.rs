//! The flight-recorder rings: the one bounded, lock-free store every
//! trace event lands in.
//!
//! # Shape
//!
//! Each recording thread owns one [`ring::Ring`] — a fixed bank of
//! seqlock slots claimed by a monotonically increasing head index, so
//! the ring holds the *last `capacity` events* and overwrites the oldest
//! (each overwrite counts toward the `trace.recorder.dropped` counter).
//! The owning thread is the ring's only writer; snapshot readers (the
//! `FT_TRACE` sinks, dumps, the journal, metrics exposition) validate
//! each slot's sequence word before and after reading and simply skip
//! slots that a concurrent write tears — recording never blocks, never
//! allocates after ring setup, and never perturbs the computation it
//! observes (the bit-identity contract).
//!
//! Four event kinds share the rings: wall-clock spans, simulated-clock
//! intervals ([`crate::record_sim`]), counter deltas, and fault-journal
//! records ([`crate::journal`]). [`snapshot`] resolves the first three
//! into [`Event`]s; [`crate::journal::snapshot`] decodes the fourth.
//!
//! The rings record while [`crate::recording`] holds: the recorder knob
//! is on (`FT_TRACE_RECORDER=<events>[,dump:<path>]`, default on, 4096
//! events per thread) or `FT_TRACE` collects (which turns them on even
//! under `FT_TRACE_RECORDER=off`). Memory is bounded at
//! `capacity × 56 B` per ring (≈ 224 KiB at the default), and the number
//! of rings by the peak number of live recording threads: a ring lives
//! for the process, in a global directory the readers walk, and returns
//! to a free list when its thread exits. The next thread to record takes
//! a free ring of the current capacity before it allocates one, so a
//! process that spawns short-lived recording threads (a load generator's
//! clients) reuses their rings. A dead thread's events stay readable
//! until its ring is reused, and then age out like any overwritten
//! event.
//!
//! # Dumps
//!
//! [`dump`] renders a self-contained JSONL snapshot — a header line, one
//! line per retained event (the `jsonl` sink's line format, with
//! job/attempt context), then the fault journal — but only when a
//! `dump:<path>` destination was configured; with no destination `dump`
//! reports `None`. `ft-serve` triggers dumps on unrecoverable job
//! failure, deadline miss, shutdown, and (via
//! [`install_panic_dump_hook`]) panic. [`parse_dump`] turns a dump back
//! into [`Event`]s so a snapshot can be replayed into the chrome-trace
//! sink.
//!
//! Names are interned to small ids at record time by binary-searching
//! the static [`crate::names`] registry (lock-free); names outside the
//! registry (journal phase and protection tags, tests) fall back to a
//! mutex-guarded side table.

use crate::ctx::TraceCtx;
use crate::names;
use crate::span::Event;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The seqlock ring protocol, kept dependency-free so the loom model in
/// `tests/loom_recorder.rs` can drive it directly. Under `--cfg loom`
/// the atomics come from the vendored model checker; the global recorder
/// wiring in this module is compiled out there (model executions must
/// not share leaked rings).
pub mod ring {
    #[cfg(loom)]
    use loom::sync::atomic::{fence, AtomicU64, Ordering};
    #[cfg(not(loom))]
    use std::sync::atomic::{fence, AtomicU64, Ordering};

    /// Event kind discriminant carried in a slot's meta word: a
    /// wall-clock span.
    pub const KIND_SPAN: u8 = 0;
    /// Counter-delta event.
    pub const KIND_COUNTER: u8 = 1;
    /// Fault-journal record.
    pub const KIND_JOURNAL: u8 = 2;
    /// Simulated-clock interval.
    pub const KIND_SIM: u8 = 3;

    /// One event in wire form: every field fits a relaxed `AtomicU64`
    /// store, which is what lets the ring stay free of `unsafe`. Spans,
    /// sim intervals and counter deltas use the fields as named (`tid`
    /// is the simulator lane for sim intervals, `arg` the delta for
    /// counters). A journal record packs its fields as documented in
    /// [`crate::journal`].
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct RawEvent {
        /// One of the `KIND_*` discriminants.
        pub kind: u8,
        /// Interned name id (see the parent module's intern table).
        pub name_id: u32,
        /// Whether `arg` carries a span payload.
        pub has_arg: bool,
        /// Trace-context attempt number (meaningful when `job != 0`).
        pub attempt: u16,
        /// Recording thread id.
        pub tid: u64,
        /// Trace-context job id + 1; 0 means "no context".
        pub job: u64,
        /// Span payload bits (`i64` as `u64`) or counter delta.
        pub arg: u64,
        /// `f64` bits: span start / record timestamp, µs.
        pub t0: u64,
        /// `f64` bits: span duration, µs (0 for counters).
        pub t1: u64,
    }

    impl RawEvent {
        fn meta(&self) -> u64 {
            u64::from(self.name_id)
                | (u64::from(self.kind) << 32)
                | (u64::from(self.has_arg) << 40)
                | (u64::from(self.attempt) << 48)
        }

        fn from_words(meta: u64, tid: u64, job: u64, arg: u64, t0: u64, t1: u64) -> RawEvent {
            RawEvent {
                kind: (meta >> 32) as u8,
                name_id: meta as u32,
                has_arg: (meta >> 40) & 1 == 1,
                attempt: (meta >> 48) as u16,
                tid,
                job,
                arg,
                t0,
                t1,
            }
        }
    }

    struct Slot {
        /// 0 = never written; `2i+1` = generation-`i` write in progress;
        /// `2i+2` = generation-`i` committed.
        seq: AtomicU64,
        meta: AtomicU64,
        tid: AtomicU64,
        job: AtomicU64,
        arg: AtomicU64,
        t0: AtomicU64,
        t1: AtomicU64,
    }

    impl Slot {
        fn new() -> Slot {
            Slot {
                seq: AtomicU64::new(0),
                meta: AtomicU64::new(0),
                tid: AtomicU64::new(0),
                job: AtomicU64::new(0),
                arg: AtomicU64::new(0),
                t0: AtomicU64::new(0),
                t1: AtomicU64::new(0),
            }
        }
    }

    /// A bounded drop-oldest event ring: single writer (the owning
    /// thread), any number of concurrent snapshot readers.
    pub struct Ring {
        slots: Box<[Slot]>,
        /// Next generation to claim; also the total number of events
        /// ever recorded.
        head: AtomicU64,
        /// Events overwritten by wraparound (drop-oldest policy).
        dropped: AtomicU64,
    }

    impl Ring {
        /// A ring retaining the last `capacity` events (floor 8).
        pub fn new(capacity: usize) -> Ring {
            let cap = Ring::slots_for(capacity);
            Ring {
                slots: (0..cap).map(|_| Slot::new()).collect(),
                head: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
            }
        }

        // ft-check: hot
        /// Records one event. Claim/commit protocol: claim generation
        /// `i` from `head`, mark the slot in-progress (odd sequence),
        /// publish the payload, commit (even sequence, release). Must
        /// only be called by the ring's owning thread; ownership passes
        /// to another thread only through a lock, which orders the old
        /// owner's writes before the new owner's.
        pub fn record(&self, ev: &RawEvent) {
            let cap = self.slots.len() as u64;
            let i = self.head.fetch_add(1, Ordering::Relaxed);
            if i >= cap {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            let slot = &self.slots[(i % cap) as usize];
            slot.seq.store(2 * i + 1, Ordering::Relaxed);
            // Order the in-progress mark before the payload stores so a
            // reader that observes new payload words also observes the
            // odd sequence and discards the slot.
            fence(Ordering::Release);
            slot.meta.store(ev.meta(), Ordering::Relaxed);
            slot.tid.store(ev.tid, Ordering::Relaxed);
            slot.job.store(ev.job, Ordering::Relaxed);
            slot.arg.store(ev.arg, Ordering::Relaxed);
            slot.t0.store(ev.t0, Ordering::Relaxed);
            slot.t1.store(ev.t1, Ordering::Relaxed);
            slot.seq.store(2 * i + 2, Ordering::Release);
        }

        /// Copies every committed event into `out` as
        /// `(generation, event)`, oldest first. Slots torn by a
        /// concurrent write fail sequence validation and are skipped —
        /// a snapshot is always a consistent subset.
        pub fn snapshot_into(&self, out: &mut Vec<(u64, RawEvent)>) {
            let head = self.head.load(Ordering::Acquire);
            let cap = self.slots.len() as u64;
            let lo = head.saturating_sub(cap);
            for i in lo..head {
                let slot = &self.slots[(i % cap) as usize];
                let s1 = slot.seq.load(Ordering::Acquire);
                if s1 != 2 * i + 2 {
                    continue; // in progress, or already overwritten
                }
                let ev = RawEvent::from_words(
                    slot.meta.load(Ordering::Relaxed),
                    slot.tid.load(Ordering::Relaxed),
                    slot.job.load(Ordering::Relaxed),
                    slot.arg.load(Ordering::Relaxed),
                    slot.t0.load(Ordering::Relaxed),
                    slot.t1.load(Ordering::Relaxed),
                );
                // Order the payload loads before the validation load.
                fence(Ordering::Acquire);
                if slot.seq.load(Ordering::Relaxed) == s1 {
                    out.push((i, ev));
                }
            }
        }

        /// Events currently retained.
        pub fn len(&self) -> usize {
            (self.head.load(Ordering::Relaxed)).min(self.slots.len() as u64) as usize
        }

        /// `true` when nothing has been recorded.
        pub fn is_empty(&self) -> bool {
            self.head.load(Ordering::Relaxed) == 0
        }

        /// Events overwritten by wraparound.
        pub fn dropped(&self) -> u64 {
            self.dropped.load(Ordering::Relaxed)
        }

        /// Slot count.
        pub fn capacity(&self) -> usize {
            self.slots.len()
        }

        /// The slot count of a ring made for `capacity` events.
        pub(crate) fn slots_for(capacity: usize) -> usize {
            capacity.max(8)
        }
    }
}

// ---------------------------------------------------------------------
// Name interning: static names resolve by binary search over the
// `names` registry slices (lock-free); anything else (journal tags,
// tests) goes to a mutex-guarded side table.
// ---------------------------------------------------------------------

const DYN_BASE: u32 = 1 << 24;
static DYN_NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

fn static_tables() -> [&'static [&'static str]; 4] {
    [
        names::SPANS,
        names::COUNTERS,
        names::GAUGES,
        names::HISTOGRAMS,
    ]
}

pub(crate) fn intern(name: &'static str) -> u32 {
    let mut base = 0u32;
    for table in static_tables() {
        if let Ok(i) = table.binary_search(&name) {
            return base + i as u32;
        }
        base += table.len() as u32;
    }
    let mut dy = DYN_NAMES.lock().unwrap();
    let idx = match dy.iter().position(|&n| n == name) {
        Some(i) => i,
        None => {
            dy.push(name);
            dy.len() - 1
        }
    };
    DYN_BASE + idx as u32
}

pub(crate) fn resolve(id: u32) -> &'static str {
    if id >= DYN_BASE {
        return DYN_NAMES
            .lock()
            .unwrap()
            .get((id - DYN_BASE) as usize)
            .copied()
            .unwrap_or("unknown");
    }
    let mut base = 0u32;
    for table in static_tables() {
        if id - base < table.len() as u32 {
            return table[(id - base) as usize];
        }
        base += table.len() as u32;
    }
    "unknown"
}

/// Resolves a dump-file name back to a `'static` str: registry names map
/// to their static slice entry; unknown names are leaked (dump parsing
/// is a tooling path, bounded by the dump's size).
fn leak_or_static(name: &str) -> &'static str {
    for table in static_tables() {
        if let Ok(i) = table.binary_search(&name) {
            return table[i];
        }
    }
    let mut dy = DYN_NAMES.lock().unwrap();
    if let Some(&n) = dy.iter().find(|&&n| n == name) {
        return n;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    dy.push(leaked);
    leaked
}

// ---------------------------------------------------------------------
// Global recorder wiring (per-thread rings). Compiled out under
// `--cfg loom` (model executions own their rings directly).
// ---------------------------------------------------------------------

/// Default per-thread ring capacity (events).
pub const DEFAULT_CAPACITY: usize = 4096;

#[cfg(not(loom))]
mod global {
    use super::ring::{RawEvent, Ring};
    use super::RecorderStats;
    use crate::ctx;
    use std::cell::Cell;
    use std::sync::{Mutex, MutexGuard};

    /// Every ring ever made (what the readers walk), and those whose
    /// thread has exited.
    struct Directory {
        all: Vec<&'static Ring>,
        free: Vec<&'static Ring>,
    }

    static DIRECTORY: Mutex<Directory> = Mutex::new(Directory {
        all: Vec::new(),
        free: Vec::new(),
    });

    fn directory() -> MutexGuard<'static, Directory> {
        DIRECTORY
            .lock()
            .expect("flight-recorder ring directory poisoned")
    }

    /// The calling thread's ring, handed back to the free list when the
    /// thread exits.
    struct Owned(Cell<Option<&'static Ring>>);

    impl Drop for Owned {
        fn drop(&mut self) {
            // No panic in a destructor: a poisoned directory keeps the
            // ring out of reuse instead.
            if let (Some(ring), Ok(mut dir)) = (self.0.get(), DIRECTORY.lock()) {
                dir.free.push(ring);
            }
        }
    }

    thread_local! {
        static RING: Owned = const { Owned(Cell::new(None)) };
    }

    /// A free ring of `capacity`'s size, or a new one.
    fn claim(capacity: usize) -> &'static Ring {
        let slots = Ring::slots_for(capacity);
        let mut dir = directory();
        if let Some(i) = dir.free.iter().position(|r| r.capacity() == slots) {
            return dir.free.swap_remove(i);
        }
        let ring: &'static Ring = Box::leak(Box::new(Ring::new(capacity)));
        dir.all.push(ring);
        ring
    }

    pub(super) fn write(mut ev: RawEvent) {
        if let Some(c) = ctx::current() {
            ev.job = c.job_id + 1;
            ev.attempt = c.attempt.min(u32::from(u16::MAX)) as u16;
        }
        // During thread teardown the ring may already be handed back:
        // the event is dropped.
        let _ = RING.try_with(|owned| {
            let ring = owned.0.get().unwrap_or_else(|| {
                let capacity = crate::settings().capacity;
                let ring = claim(capacity);
                owned.0.set(Some(ring));
                ring
            });
            ring.record(&ev);
        });
    }

    pub(super) fn snapshot() -> Vec<(u64, RawEvent)> {
        let mut out = Vec::new();
        for ring in &directory().all {
            ring.snapshot_into(&mut out);
        }
        out
    }

    pub(super) fn stats() -> RecorderStats {
        let capacity = crate::settings().capacity;
        let dir = directory();
        RecorderStats {
            occupancy: dir.all.iter().map(|r| r.len()).sum(),
            rings: dir.all.len(),
            capacity,
            dropped: dir.all.iter().map(|r| r.dropped()).sum(),
        }
    }
}

/// Parsed `FT_TRACE_RECORDER` knob: `(on, capacity, dump path)`.
/// Grammar: comma-separated tokens — `0`/`off` disables, a bare integer
/// sets the per-thread event capacity, `dump:<path>` sets the dump
/// destination. Unset or unknown tokens keep the defaults (on,
/// [`DEFAULT_CAPACITY`], no dump file).
pub(crate) fn parse_knob(s: &str) -> (bool, usize, Option<PathBuf>) {
    let mut on = true;
    let mut capacity = DEFAULT_CAPACITY;
    let mut dump = None;
    for tok in s.split(',') {
        let t = tok.trim();
        if t.is_empty() {
            continue;
        }
        if t == "0" || t.eq_ignore_ascii_case("off") {
            on = false;
        } else if let Some(p) = t.strip_prefix("dump:") {
            if !p.is_empty() {
                dump = Some(PathBuf::from(p));
            }
        } else if let Ok(n) = t.parse::<usize>() {
            capacity = n;
        }
        // Unknown tokens fall through: a typo must never crash.
    }
    (on, capacity, dump)
}

/// `true` when the recorder knob is on. The rings also record while
/// `FT_TRACE` collects; see [`crate::recording`].
pub fn is_on() -> bool {
    crate::settings().recorder_on
}

/// Reconfigures the recorder programmatically (tests/benches): enable
/// flag, per-thread capacity for rings created *after* this call, and
/// dump destination. Takes precedence over `FT_TRACE_RECORDER`; the
/// `FT_TRACE` mode keeps its value.
pub fn configure(on: bool, capacity: usize, dump: Option<PathBuf>) {
    crate::update(|s| s.set_recorder(on, capacity, dump));
}

/// Writes one event into the calling thread's ring, stamped with the
/// ambient trace context. Callers check [`crate::recording`] first.
#[inline]
pub(crate) fn write(ev: ring::RawEvent) {
    #[cfg(not(loom))]
    global::write(ev);
    #[cfg(loom)]
    let _ = ev;
}

/// Builds a span, sim or counter event for [`write`]; the job/attempt
/// words are filled in from the ambient context at write time.
fn event(kind: u8, name: &'static str, arg: Option<i64>, tid: u64, t0: f64, t1: f64) {
    write(ring::RawEvent {
        kind,
        name_id: intern(name),
        has_arg: arg.is_some(),
        attempt: 0,
        tid,
        job: 0,
        arg: arg.unwrap_or(0) as u64,
        t0: t0.to_bits(),
        t1: t1.to_bits(),
    });
}

/// Records a completed wall-clock span (the span guard's drop path).
pub(crate) fn note_span(name: &'static str, arg: Option<i64>, start_us: f64, dur_us: f64) {
    let tid = crate::span::current_tid();
    event(ring::KIND_SPAN, name, arg, tid, start_us, dur_us);
}

/// Records a simulated-clock interval on resource lane `lane`.
pub(crate) fn note_sim(name: &'static str, lane: u64, start_us: f64, dur_us: f64) {
    event(ring::KIND_SIM, name, None, lane, start_us, dur_us);
}

/// Records a counter delta (called by `Counter::add` while recording).
pub(crate) fn note_counter(name: &'static str, delta: u64) {
    let tid = crate::span::current_tid();
    let now = crate::clock::now_us();
    event(ring::KIND_COUNTER, name, Some(delta as i64), tid, now, 0.0);
}

/// Every committed event of every ring in wire form, oldest first.
pub(crate) fn raw_snapshot() -> Vec<ring::RawEvent> {
    #[cfg(not(loom))]
    let raw = global::snapshot();
    #[cfg(loom)]
    let raw: Vec<(u64, ring::RawEvent)> = Vec::new();
    let mut out: Vec<ring::RawEvent> = raw.into_iter().map(|(_, ev)| ev).collect();
    out.sort_by(|a, b| f64::from_bits(a.t0).total_cmp(&f64::from_bits(b.t0)));
    out
}

/// The trace context a wire event was stamped with.
pub(crate) fn raw_ctx(ev: &ring::RawEvent) -> Option<TraceCtx> {
    (ev.job != 0).then(|| TraceCtx {
        job_id: ev.job - 1,
        attempt: u32::from(ev.attempt),
    })
}

/// Resolves the span, sim and counter events of a raw snapshot.
fn resolve_events(raw: &[ring::RawEvent]) -> Vec<Event> {
    raw.iter()
        .filter_map(|ev| {
            let cat = match ev.kind {
                ring::KIND_SPAN => "wall",
                ring::KIND_SIM => "sim",
                ring::KIND_COUNTER => "counter",
                _ => return None,
            };
            Some(Event {
                name: resolve(ev.name_id),
                cat,
                arg: ev.has_arg.then_some(ev.arg as i64),
                tid: ev.tid,
                start_us: f64::from_bits(ev.t0),
                dur_us: f64::from_bits(ev.t1),
                ctx: raw_ctx(ev),
            })
        })
        .collect()
}

/// Every retained span, sim and counter event of every ring, oldest
/// first. The `FT_TRACE` sinks, dumps and tests all read through here.
pub fn snapshot() -> Vec<Event> {
    resolve_events(&raw_snapshot())
}

/// Ring occupancy at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecorderStats {
    /// Events currently retained across all rings.
    pub occupancy: usize,
    /// Number of rings: at most the peak number of live recording
    /// threads, since an exited thread's ring is reused.
    pub rings: usize,
    /// Slots per ring created from now on.
    pub capacity: usize,
    /// Total events overwritten (drop-oldest). `occupancy + dropped` is
    /// the number of events ever written.
    pub dropped: u64,
}

/// Current ring occupancy.
pub fn stats() -> RecorderStats {
    #[cfg(not(loom))]
    {
        global::stats()
    }
    #[cfg(loom)]
    {
        RecorderStats::default()
    }
}

/// Renders the rings as self-contained JSONL: a header object, one
/// object per retained event, then the fault journal's records.
pub fn dump_string(reason: &str) -> String {
    use std::fmt::Write as _;
    let raw = raw_snapshot();
    let events = resolve_events(&raw);
    let st = stats();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"flight_recorder\":{{\"reason\":\"{}\",\"events\":{},\"rings\":{},\"capacity\":{},\"dropped\":{}}}}}",
        crate::writer::json_escape(reason),
        events.len(),
        st.rings,
        st.capacity,
        st.dropped,
    );
    for ev in &events {
        crate::writer::event_line(&mut out, ev);
    }
    out.push_str(&crate::journal::to_jsonl(&crate::journal::decode(&raw)));
    out
}

/// Writes a dump to the configured `dump:<path>` destination, returning
/// the path. `Ok(None)` when the recorder is off or no destination is
/// configured (the recorder never writes files it was not pointed at).
pub fn dump(reason: &str) -> std::io::Result<Option<PathBuf>> {
    let dest = {
        let s = crate::settings();
        s.dump.clone().filter(|_| s.recorder_on)
    };
    match dest {
        Some(path) => {
            dump_to(&path, reason)?;
            Ok(Some(path))
        }
        None => Ok(None),
    }
}

/// Writes a dump to an explicit path regardless of configuration.
pub fn dump_to(path: &Path, reason: &str) -> std::io::Result<()> {
    std::fs::write(path, dump_string(reason))
}

/// Installs a panic hook (once, chaining any existing hook) that writes
/// a flight-recorder dump with reason `"panic"` before the default
/// handler runs. `ft-serve` calls this when a service starts.
pub fn install_panic_dump_hook() {
    #[cfg(not(loom))]
    {
        use std::sync::Once;
        static HOOK: Once = Once::new();
        HOOK.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let _ = dump("panic");
                prev(info);
            }));
        });
    }
}

/// Parses a dump produced by [`dump_string`] back into its wall and sim
/// [`Event`]s (counter, header and journal lines are skipped) so a
/// flight-recorder snapshot can be replayed into the chrome-trace sink
/// via [`crate::to_chrome_json`].
pub fn parse_dump(dump: &str) -> Vec<Event> {
    let mut out = Vec::new();
    for line in dump.lines() {
        let cat = match json_str_field(line, "cat").as_deref() {
            Some("wall") => "wall",
            Some("sim") => "sim",
            _ => continue,
        };
        let Some(name) = json_str_field(line, "name") else {
            continue;
        };
        out.push(Event {
            name: leak_or_static(&name),
            cat,
            arg: json_num_field(line, "arg").map(|v| v as i64),
            tid: json_num_field(line, "tid").map(|v| v as u64).unwrap_or(0),
            start_us: json_num_field(line, "start_us").unwrap_or(0.0),
            dur_us: json_num_field(line, "dur_us").unwrap_or(0.0),
            ctx: json_num_field(line, "job").map(|j| TraceCtx {
                job_id: j as u64,
                attempt: json_num_field(line, "attempt")
                    .map(|v| v as u32)
                    .unwrap_or(0),
            }),
        });
    }
    out
}

/// Extracts a string field from one of our own flat JSONL lines (the
/// emitter never nests objects on event lines, so a scan suffices).
fn json_str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

/// Extracts a numeric field from one of our own flat JSONL lines.
fn json_num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse::<f64>().ok()
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::ring::{RawEvent, Ring, KIND_SPAN};
    use super::*;

    fn raw(i: u64) -> RawEvent {
        RawEvent {
            kind: KIND_SPAN,
            name_id: i as u32,
            has_arg: true,
            attempt: (i % 7) as u16,
            tid: i,
            job: i + 1,
            arg: i * 3,
            t0: (i as f64).to_bits(),
            t1: 1f64.to_bits(),
        }
    }

    #[test]
    fn ring_retains_last_capacity_events() {
        let ring = Ring::new(8);
        for i in 0..20u64 {
            ring.record(&raw(i));
        }
        assert_eq!(ring.len(), 8);
        assert_eq!(ring.dropped(), 12);
        let mut out = Vec::new();
        ring.snapshot_into(&mut out);
        let gens: Vec<u64> = out.iter().map(|(g, _)| *g).collect();
        assert_eq!(gens, (12..20).collect::<Vec<_>>(), "drop-oldest order");
        for (g, ev) in &out {
            assert_eq!(*ev, raw(*g), "payload matches generation");
        }
    }

    #[test]
    fn knob_grammar() {
        assert_eq!(parse_knob("0"), (false, DEFAULT_CAPACITY, None));
        assert_eq!(parse_knob("off"), (false, DEFAULT_CAPACITY, None));
        assert_eq!(parse_knob("512"), (true, 512, None));
        assert_eq!(
            parse_knob("512,dump:/tmp/fr.jsonl"),
            (true, 512, Some(PathBuf::from("/tmp/fr.jsonl")))
        );
        assert_eq!(
            parse_knob("dump:fr.jsonl"),
            (true, DEFAULT_CAPACITY, Some(PathBuf::from("fr.jsonl")))
        );
        assert_eq!(parse_knob("bogus"), (true, DEFAULT_CAPACITY, None));
    }

    #[test]
    fn intern_roundtrips_static_and_dynamic_names() {
        let id = intern("ft.panel");
        assert_eq!(resolve(id), "ft.panel");
        assert!(id < DYN_BASE);
        let dyn_id = intern("test.recorder.dynamic_name");
        assert_eq!(resolve(dyn_id), "test.recorder.dynamic_name");
        assert!(dyn_id >= DYN_BASE);
        assert_eq!(intern("test.recorder.dynamic_name"), dyn_id);
    }

    #[test]
    fn dump_lines_parse_back_into_wall_and_sim_events() {
        let ev = |name, cat, arg, tid, ctx| Event {
            name,
            cat,
            arg,
            tid,
            start_us: 10.0,
            dur_us: 4.5,
            ctx,
        };
        let ctx = Some(TraceCtx {
            job_id: 9,
            attempt: 1,
        });
        let kept = vec![
            ev("ft.panel", "wall", Some(32), 3, ctx),
            ev("serve.run", "wall", None, 4, None),
            ev("device_gemm", "sim", None, 1, None),
        ];
        let mut dump = String::from("{\"flight_recorder\":{\"reason\":\"test\",\"events\":4}}\n");
        for e in &kept {
            crate::writer::event_line(&mut dump, e);
        }
        crate::writer::event_line(&mut dump, &ev("pool.dispatch", "counter", Some(2), 3, None));
        dump.push_str("{\"journal\":{\"ts_us\":1.000,\"phase\":\"final\"}}\n");
        assert_eq!(
            parse_dump(&dump),
            kept,
            "header, counter and journal lines are skipped"
        );
        // The parsed events feed the chrome sink.
        let chrome = crate::to_chrome_json(&kept);
        assert!(chrome.contains("\"name\":\"ft.panel\""));
    }
}
