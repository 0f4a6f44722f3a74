//! The process-wide counter / gauge registry.
//!
//! Counters are named `AtomicU64`s registered once and leaked (they live
//! for the process; the registry is append-only and tiny). Increments are
//! relaxed `fetch_add`s — exactly the cost the ad-hoc probes in
//! `ft-blas::pool` / `ft-blas::workspace` paid before they were promoted
//! here — so they stay on regardless of `FT_TRACE`: regression tests pin
//! exact counts without enabling span collection.
//!
//! Lookup by name takes a mutex and scans a vector, so hot call sites must
//! cache the returned `&'static` reference (a `OnceLock` at the call site
//! is the workspace idiom; the reference itself is then a plain pointer).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A monotonically increasing named counter.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// The counter's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` (relaxed). While the rings record, the delta is also
    /// retained as a counter event attributable to the ambient trace
    /// context.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
        if crate::recording() {
            crate::recorder::note_counter(self.name, n);
        }
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A named gauge: a value that can be set or max-merged (used for
/// high-water marks like arena capacity).
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    value: AtomicU64,
}

impl Gauge {
    const fn new(name: &'static str) -> Gauge {
        Gauge {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// The gauge's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Sets the gauge (relaxed).
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` to the gauge (relaxed). Pairs with [`Gauge::sub`] for
    /// in-flight style gauges.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` from the gauge, saturating at zero (relaxed).
    #[inline]
    pub fn sub(&self, n: u64) {
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Raises the gauge to at least `v` (high-water-mark semantics).
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

static COUNTERS: Mutex<Vec<&'static Counter>> = Mutex::new(Vec::new());
static GAUGES: Mutex<Vec<&'static Gauge>> = Mutex::new(Vec::new());
static HISTOGRAMS: Mutex<Vec<&'static crate::hist::Histogram>> = Mutex::new(Vec::new());

/// Returns the process-wide counter named `name`, registering it on first
/// use. The reference is `'static` — cache it at hot call sites.
pub fn counter(name: &'static str) -> &'static Counter {
    let mut reg = COUNTERS.lock().unwrap();
    if let Some(c) = reg.iter().find(|c| c.name == name) {
        return c;
    }
    let c: &'static Counter = Box::leak(Box::new(Counter::new(name)));
    reg.push(c);
    c
}

/// Returns the process-wide gauge named `name`, registering it on first
/// use.
pub fn gauge(name: &'static str) -> &'static Gauge {
    let mut reg = GAUGES.lock().unwrap();
    if let Some(g) = reg.iter().find(|g| g.name == name) {
        return g;
    }
    let g: &'static Gauge = Box::leak(Box::new(Gauge::new(name)));
    reg.push(g);
    g
}

/// Returns the process-wide histogram named `name`, registering it on
/// first use. The reference is `'static` — cache it at hot call sites.
pub fn histogram(name: &'static str) -> &'static crate::hist::Histogram {
    let mut reg = HISTOGRAMS.lock().unwrap();
    if let Some(h) = reg.iter().find(|h| h.name() == name) {
        return h;
    }
    let h: &'static crate::hist::Histogram = Box::leak(Box::new(crate::hist::Histogram::new(name)));
    reg.push(h);
    h
}

/// Snapshot of every registered counter as `(name, value)`, registration
/// order.
pub fn counters() -> Vec<(&'static str, u64)> {
    COUNTERS
        .lock()
        .unwrap()
        .iter()
        .map(|c| (c.name, c.get()))
        .collect()
}

/// Snapshot of every registered gauge as `(name, value)`.
pub fn gauges() -> Vec<(&'static str, u64)> {
    GAUGES
        .lock()
        .unwrap()
        .iter()
        .map(|g| (g.name, g.get()))
        .collect()
}

/// Snapshot of every registered histogram as `(name, snapshot)`.
pub fn histograms() -> Vec<(&'static str, crate::hist::HistSnapshot)> {
    HISTOGRAMS
        .lock()
        .unwrap()
        .iter()
        .map(|h| (h.name(), h.snapshot()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_identity_and_accumulation() {
        let a = counter("test.registry.a");
        let a2 = counter("test.registry.a");
        assert!(std::ptr::eq(a, a2), "same name resolves to same counter");
        let before = a.get();
        a.incr();
        a.add(4);
        assert_eq!(a.get(), before + 5);
        assert!(counters().iter().any(|&(n, _)| n == "test.registry.a"));
    }

    #[test]
    fn gauge_set_and_max() {
        let g = gauge("test.registry.g");
        g.set(10);
        g.record_max(7);
        assert_eq!(g.get(), 10, "record_max must not lower");
        g.record_max(25);
        assert_eq!(g.get(), 25);
        assert!(gauges()
            .iter()
            .any(|&(n, v)| n == "test.registry.g" && v == 25));
    }
}
