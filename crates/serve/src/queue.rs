//! The bounded, priority-laned MPMC queue at the service's front door.
//!
//! Admission control is the backpressure mechanism: [`BoundedQueue::try_push`]
//! fails fast with [`SubmitError::QueueFull`] when the queue is at
//! capacity, and [`BoundedQueue::push_timeout`] blocks the caller until a
//! slot frees (bounded by the timeout). Capacity counts *queued* items —
//! re-admitted ones still waiting out their delay included; jobs being
//! executed have left the queue.
//!
//! [`BoundedQueue::readmit`] hands an admitted item back with a delay
//! (the service's retry backoff). It keeps its admission: it is never
//! refused for capacity, nor after [`BoundedQueue::close`]. Until it
//! comes due it waits outside the lanes, counted in [`BoundedQueue::len`],
//! [`BoundedQueue::lane_lens`] and against capacity.
//!
//! Ordering contract (pinned by `tests/queue_properties.rs`):
//!
//! * strict priority across lanes: a pop always returns the oldest item of
//!   the highest non-empty lane;
//! * FIFO within a lane;
//! * a re-admitted item joins the *back* of its lane when a pop first
//!   finds it due, so it never runs ahead of an item already waiting
//!   there; items that come due together join in due order;
//! * close/drain: after [`BoundedQueue::close`], pushes fail with
//!   [`SubmitError::Closed`]; pops drain the remaining items, sleeping
//!   until waiting ones come due, and then return `None` — no item is
//!   lost or duplicated;
//! * abort: [`BoundedQueue::close_and_drain`] removes every item, waiting
//!   ones included, and a later re-admission hands its item back.

use crate::job::Priority;
use crate::sync::{Condvar, Instant, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::time::Duration;

/// Why a submission was not accepted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity (fast-fail backpressure; retry later or
    /// use the blocking submit).
    QueueFull,
    /// The blocking submit timed out waiting for a slot.
    Timeout,
    /// The service is shutting down and accepts no new work.
    Closed,
    /// The job spec failed validation (e.g. a non-square matrix); the
    /// reason says what.
    InvalidSpec(&'static str),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "queue at capacity"),
            SubmitError::Timeout => write!(f, "timed out waiting for a queue slot"),
            SubmitError::Closed => write!(f, "service is shutting down"),
            SubmitError::InvalidSpec(why) => write!(f, "invalid job spec: {why}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Queue state under a poisoned mutex cannot honor the no-loss close
/// contract, so every lock and wait aborts on poisoning.
const POISONED: &str = "ft-serve queue mutex poisoned";

/// What the queue still accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Gate {
    /// Pushes and re-admissions.
    Open,
    /// Re-admissions only ([`BoundedQueue::close`]).
    Closed,
    /// Nothing ([`BoundedQueue::close_and_drain`]).
    Aborted,
}

/// A re-admitted item waiting for its due time.
struct Waiting<T> {
    due: Instant,
    lane: usize,
    item: T,
}

struct Inner<T> {
    lanes: [VecDeque<T>; 3],
    /// Re-admitted items not yet moved to their lane, sorted by due time
    /// (FIFO among equal due times).
    waiting: Vec<Waiting<T>>,
    /// Lane items plus waiting items.
    len: usize,
    gate: Gate,
}

impl<T> Inner<T> {
    /// Moves every waiting item due by `now` to the back of its lane, in
    /// due order.
    fn promote_due(&mut self, now: Instant) {
        let due = self.waiting.partition_point(|w| w.due <= now);
        for w in self.waiting.drain(..due) {
            self.lanes[w.lane].push_back(w.item);
        }
    }

    fn pop_front(&mut self) -> Option<T> {
        let item = self.lanes.iter_mut().find_map(VecDeque::pop_front)?;
        self.len -= 1;
        Some(item)
    }
}

/// Bounded MPMC priority queue (three strict-priority lanes, FIFO within
/// each, plus delayed re-admission).
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity ≥ 1` items.
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            inner: Mutex::new(Inner {
                lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                waiting: Vec::new(),
                len: 0,
                gate: Gate::Open,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().expect(POISONED)
    }

    /// The admission capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently queued items, waiting re-admissions included.
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Currently queued items per priority lane, waiting re-admissions
    /// included, indexed by [`Priority::index`] (the per-lane depth
    /// gauges' source). Workers call this to refresh gauges and must not
    /// panic here; a poisoned lock still yields the lengths, since they
    /// are counted from the lanes and the waiting list themselves.
    pub fn lane_lens(&self) -> [usize; 3] {
        let g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut lens = [g.lanes[0].len(), g.lanes[1].len(), g.lanes[2].len()];
        for w in &g.waiting {
            lens[w.lane] += 1;
        }
        lens
    }

    /// Non-blocking push: fails with [`SubmitError::QueueFull`] at
    /// capacity or [`SubmitError::Closed`] after close, handing the item
    /// back either way.
    pub fn try_push(&self, priority: Priority, item: T) -> Result<(), (SubmitError, T)> {
        let mut g = self.lock();
        if g.gate != Gate::Open {
            return Err((SubmitError::Closed, item));
        }
        if g.len >= self.capacity {
            return Err((SubmitError::QueueFull, item));
        }
        g.lanes[priority.index()].push_back(item);
        g.len += 1;
        drop(g);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking push: waits up to `timeout` for a slot, then fails with
    /// [`SubmitError::Timeout`]. Fails immediately with
    /// [`SubmitError::Closed`] if the queue closes while waiting.
    pub fn push_timeout(
        &self,
        priority: Priority,
        item: T,
        timeout: Duration,
    ) -> Result<(), (SubmitError, T)> {
        let deadline = Instant::now() + timeout;
        let mut g = self.lock();
        loop {
            if g.gate != Gate::Open {
                return Err((SubmitError::Closed, item));
            }
            if g.len < self.capacity {
                g.lanes[priority.index()].push_back(item);
                g.len += 1;
                drop(g);
                self.not_empty.notify_one();
                return Ok(());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err((SubmitError::Timeout, item));
            }
            let (guard, _res) = self
                .not_full
                .wait_timeout(g, deadline - now)
                .expect(POISONED);
            g = guard;
        }
    }

    /// Hands an admitted item back, to pop again no sooner than `delay`
    /// from now, from the back of its lane. Never refused for capacity
    /// or after [`BoundedQueue::close`]; after
    /// [`BoundedQueue::close_and_drain`] the item is handed back, since
    /// nothing may start after an abort.
    pub fn readmit(&self, priority: Priority, item: T, delay: Duration) -> Result<(), T> {
        let mut g = self.lock();
        if g.gate == Gate::Aborted {
            return Err(item);
        }
        let due = Instant::now() + delay;
        let at = g.waiting.partition_point(|w| w.due <= due);
        g.waiting.insert(
            at,
            Waiting {
                due,
                lane: priority.index(),
                item,
            },
        );
        g.len += 1;
        drop(g);
        if at == 0 {
            // A new earliest due time: every sleeping popper re-times its
            // sleep, so whichever stays idle wakes when the item is due.
            self.not_empty.notify_all();
        }
        Ok(())
    }

    /// Blocking pop: returns the oldest item of the highest non-empty
    /// lane (after moving due re-admissions to the back of their lanes),
    /// or `None` once the queue is closed *and* drained, waiting items
    /// included (the worker exit signal).
    pub fn pop(&self) -> Option<T> {
        let mut g = self.lock();
        loop {
            let now = Instant::now();
            g.promote_due(now);
            if let Some(item) = g.pop_front() {
                drop(g);
                self.not_full.notify_one();
                return Some(item);
            }
            // Every item still waiting is due after `now`: sleep until the
            // earliest one is, or until a push, re-admission or close.
            g = match g.waiting.first().map(|w| w.due - now) {
                Some(until_due) => self.not_empty.wait_timeout(g, until_due).expect(POISONED).0,
                None if g.gate != Gate::Open => return None,
                None => self.not_empty.wait(g).expect(POISONED),
            };
        }
    }

    /// Closes the queue: subsequent pushes fail with
    /// [`SubmitError::Closed`]; queued and waiting items remain poppable
    /// and re-admissions are still accepted (drain semantics). Idempotent.
    pub fn close(&self) {
        let mut g = self.lock();
        if g.gate == Gate::Open {
            g.gate = Gate::Closed;
        }
        drop(g);
        // Wake every waiter: blocked pushers must fail, blocked poppers
        // must re-check the drain condition.
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// Closes the queue and removes everything still queued (abort
    /// semantics), returning the removed items: the lanes in pop order,
    /// then the waiting items in due order. Later re-admissions are
    /// handed back.
    pub fn close_and_drain(&self) -> Vec<T> {
        let mut g = self.lock();
        let inner = &mut *g;
        inner.gate = Gate::Aborted;
        let mut out = Vec::with_capacity(inner.len);
        for lane in &mut inner.lanes {
            out.extend(lane.drain(..));
        }
        out.extend(inner.waiting.drain(..).map(|w| w.item));
        inner.len = 0;
        drop(g);
        self.not_full.notify_all();
        self.not_empty.notify_all();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_priority_then_fifo() {
        let q = BoundedQueue::new(8);
        q.try_push(Priority::Low, "l1").unwrap();
        q.try_push(Priority::Normal, "n1").unwrap();
        q.try_push(Priority::High, "h1").unwrap();
        q.try_push(Priority::Normal, "n2").unwrap();
        q.try_push(Priority::High, "h2").unwrap();
        let order: Vec<_> = (0..5).map(|_| q.pop().unwrap()).collect();
        assert_eq!(order, ["h1", "h2", "n1", "n2", "l1"]);
    }

    #[test]
    fn full_then_closed() {
        let q = BoundedQueue::new(2);
        q.try_push(Priority::Normal, 1).unwrap();
        q.try_push(Priority::Normal, 2).unwrap();
        let (e, item) = q.try_push(Priority::Normal, 3).unwrap_err();
        assert_eq!((e, item), (SubmitError::QueueFull, 3));
        let (e, _) = q
            .push_timeout(Priority::Normal, 4, Duration::from_millis(5))
            .unwrap_err();
        assert_eq!(e, SubmitError::Timeout);
        q.close();
        let (e, _) = q.try_push(Priority::Normal, 5).unwrap_err();
        assert_eq!(e, SubmitError::Closed);
        // Drain semantics: both queued items still come out, then None.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocking_push_proceeds_when_slot_frees() {
        let q = std::sync::Arc::new(BoundedQueue::new(1));
        q.try_push(Priority::Normal, 1).unwrap();
        let q2 = std::sync::Arc::clone(&q);
        let t = std::thread::spawn(move || {
            q2.push_timeout(Priority::Normal, 2, Duration::from_secs(5))
                .map_err(|(e, _)| e)
        });
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(q.pop(), Some(1));
        t.join().unwrap().unwrap();
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn lane_lens_survive_a_poisoned_lock() {
        let q = std::sync::Arc::new(BoundedQueue::new(4));
        q.try_push(Priority::High, 1).unwrap();
        q.try_push(Priority::Low, 2).unwrap();
        let q2 = std::sync::Arc::clone(&q);
        let poisoner = std::thread::spawn(move || {
            let _g = q2.inner.lock().unwrap();
            panic!("poison the queue lock");
        });
        assert!(poisoner.join().is_err());
        assert_eq!(q.lane_lens(), [1, 0, 1]);
    }

    #[test]
    fn close_and_drain_returns_remainder() {
        let q = BoundedQueue::new(4);
        q.try_push(Priority::Low, 1).unwrap();
        q.try_push(Priority::High, 2).unwrap();
        q.readmit(Priority::High, 3, Duration::from_secs(3600))
            .unwrap();
        assert_eq!(q.close_and_drain(), vec![2, 1, 3]);
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
        assert_eq!(q.readmit(Priority::High, 4, Duration::ZERO), Err(4));
    }

    #[test]
    fn readmission_skips_capacity_and_counts_against_it() {
        let q = BoundedQueue::new(1);
        q.try_push(Priority::Normal, 1).unwrap();
        q.readmit(Priority::Normal, 2, Duration::from_secs(3600))
            .unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.lane_lens(), [0, 2, 0]);
        let (e, _) = q.try_push(Priority::Normal, 3).unwrap_err();
        assert_eq!(e, SubmitError::QueueFull);
        assert_eq!(q.pop(), Some(1));
        // The waiting item still holds the one slot.
        let (e, _) = q.try_push(Priority::High, 4).unwrap_err();
        assert_eq!(e, SubmitError::QueueFull);
    }
}
