//! The bounded, priority-laned MPMC queue at the service's front door.
//!
//! Admission control is the backpressure mechanism: [`BoundedQueue::try_push`]
//! fails fast with [`SubmitError::QueueFull`] when the queue is at
//! capacity, and [`BoundedQueue::push_timeout`] blocks the caller until a
//! slot frees (bounded by the timeout). Capacity counts *queued* jobs
//! only — jobs being executed have left the queue.
//!
//! Ordering contract (pinned by `tests/queue_properties.rs`):
//!
//! * strict priority across lanes: a pop always returns the oldest item of
//!   the highest non-empty lane;
//! * FIFO within a lane;
//! * close/drain: after [`BoundedQueue::close`], pushes fail with
//!   [`SubmitError::Closed`]; pops drain the remaining items and then
//!   return `None` — no item is lost or duplicated.

use crate::job::Priority;
use crate::sync::{Condvar, Instant, Mutex};
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

struct Inner<T> {
    lanes: [VecDeque<T>; 3],
    len: usize,
    closed: bool,
}

/// Bounded MPMC priority queue (three strict-priority lanes, FIFO within
/// each).
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
                len: 0,
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The admission capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently queued items.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Currently queued items per priority lane, indexed by
    /// [`Priority::index`] (the per-lane depth gauges' source). Workers
    /// call this to refresh gauges and must not panic here; a poisoned
    /// lock still yields the lengths, since every lane's length is valid
    /// at every step of every update.
    pub fn lane_lens(&self) -> [usize; 3] {
        let g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        [g.lanes[0].len(), g.lanes[1].len(), g.lanes[2].len()]
    }

    /// Non-blocking push: fails with [`SubmitError::QueueFull`] at
    /// capacity or [`SubmitError::Closed`] after close, handing the item
    /// back either way.
    pub fn try_push(&self, priority: Priority, item: T) -> Result<(), (SubmitError, T)> {
        let mut g = self.inner.lock().unwrap();
        if g.closed {
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
        let mut g = self.inner.lock().unwrap();
        loop {
            if g.closed {
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
            let (guard, _res) = self.not_full.wait_timeout(g, deadline - now).unwrap();
            g = guard;
        }
    }

    fn pop_locked(g: &mut Inner<T>) -> Option<T> {
        for lane in g.lanes.iter_mut() {
            if let Some(item) = lane.pop_front() {
                g.len -= 1;
                return Some(item);
            }
        }
        None
    }

    /// Blocking pop: returns the oldest item of the highest non-empty
    /// lane, or `None` once the queue is closed *and* drained (the worker
    /// exit signal).
    pub fn pop(&self) -> Option<T> {
        let mut g = self.inner.lock().unwrap();
        loop {
            if let Some(item) = Self::pop_locked(&mut g) {
                drop(g);
                self.not_full.notify_one();
                return Some(item);
            }
            if g.closed {
                return None;
            }
            g = self.not_empty.wait(g).unwrap();
        }
    }

    /// Closes the queue: subsequent pushes fail with
    /// [`SubmitError::Closed`]; queued items remain poppable (drain
    /// semantics). Idempotent.
    pub fn close(&self) {
        let mut g = self.inner.lock().unwrap();
        g.closed = true;
        drop(g);
        // Wake every waiter: blocked pushers must fail, blocked poppers
        // must re-check the drain condition.
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// Closes the queue and removes everything still queued (abort
    /// semantics), returning the removed items in pop order.
    pub fn close_and_drain(&self) -> Vec<T> {
        let mut g = self.inner.lock().unwrap();
        g.closed = true;
        let mut out = Vec::with_capacity(g.len);
        while let Some(item) = Self::pop_locked(&mut g) {
            out.push(item);
        }
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
        assert_eq!(q.close_and_drain(), vec![2, 1]);
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }
}
