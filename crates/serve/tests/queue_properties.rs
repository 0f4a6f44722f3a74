//! Property and concurrency tests for the bounded priority queue — the
//! invariants the whole service contract rests on:
//!
//! 1. **conservation**: no item is ever lost or duplicated, including
//!    under concurrent producers/consumers and a concurrent close;
//! 2. **ordering**: strict priority across lanes, FIFO within a lane;
//! 3. **backpressure**: `try_push` fails with `QueueFull` exactly when
//!    the queue holds `capacity` items, never before;
//! 4. **re-admission**: a re-admitted item counts as queued while it
//!    waits, and joins the back of its lane when a pop finds it due.

use ft_serve::{BoundedQueue, Priority, SubmitError};
use proptest::prelude::*;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn priority_strategy() -> impl Strategy<Value = Priority> {
    prop_oneof![
        Just(Priority::High),
        Just(Priority::Normal),
        Just(Priority::Low),
    ]
}

/// Far enough out that no re-admission with this delay comes due during
/// a test.
const LATER: Duration = Duration::from_secs(3600);

#[derive(Clone, Copy, Debug)]
enum Op {
    Push(Priority),
    ReadmitNow(Priority),
    ReadmitLater(Priority),
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        priority_strategy().prop_map(Op::Push),
        priority_strategy().prop_map(Op::ReadmitNow),
        priority_strategy().prop_map(Op::ReadmitLater),
        Just(Op::Pop),
    ]
}

/// The reference model of the queue: the lanes, the re-admissions due
/// now that no pop has moved to their lane yet, and those due later.
#[derive(Default)]
struct Model {
    lanes: [VecDeque<usize>; 3],
    due_now: Vec<(usize, usize)>,
    later: Vec<(usize, usize)>,
}

impl Model {
    /// What the next pop returns, or `None` when it would block.
    fn pop(&mut self) -> Option<usize> {
        for (lane, id) in self.due_now.drain(..) {
            self.lanes[lane].push_back(id);
        }
        self.lanes.iter_mut().find_map(VecDeque::pop_front)
    }

    fn lane_lens(&self) -> [usize; 3] {
        let mut lens = [0; 3];
        for (lane, items) in self.lanes.iter().enumerate() {
            lens[lane] += items.len();
        }
        for &(lane, _) in self.due_now.iter().chain(&self.later) {
            lens[lane] += 1;
        }
        lens
    }
}

proptest! {
    /// Any push sequence that fits in capacity pops back out in strict
    /// priority order, FIFO within each class, with nothing lost.
    #[test]
    fn pops_are_priority_ordered_and_complete(
        prios in proptest::collection::vec(priority_strategy(), 1..64),
    ) {
        let q = BoundedQueue::new(prios.len());
        for (i, &p) in prios.iter().enumerate() {
            q.try_push(p, (p, i)).unwrap();
        }
        q.close();
        let mut popped = Vec::new();
        while let Some(item) = q.pop() {
            popped.push(item);
        }
        prop_assert_eq!(popped.len(), prios.len());
        // Expected order: all High in push order, then Normal, then Low.
        let mut expected = Vec::new();
        for class in Priority::ALL {
            expected.extend(
                prios.iter().enumerate()
                    .filter(|&(_, &p)| p == class)
                    .map(|(i, &p)| (p, i)),
            );
        }
        prop_assert_eq!(popped, expected);
    }

    /// `QueueFull` fires exactly at capacity: the first `cap` pushes are
    /// admitted, the next is rejected, and freeing one slot admits
    /// exactly one more.
    #[test]
    fn queue_full_only_at_capacity(
        cap in 1usize..32,
        p in priority_strategy(),
    ) {
        let q = BoundedQueue::new(cap);
        for i in 0..cap {
            prop_assert!(q.try_push(p, i).is_ok(), "push {i} under capacity {cap}");
        }
        let (e, item) = q.try_push(p, cap).unwrap_err();
        prop_assert_eq!(e, SubmitError::QueueFull);
        prop_assert_eq!(item, cap);
        prop_assert_eq!(q.len(), cap);
        q.pop().unwrap();
        prop_assert!(q.try_push(p, cap).is_ok(), "freed slot admits one");
        let (e, _) = q.try_push(p, cap + 1).unwrap_err();
        prop_assert_eq!(e, SubmitError::QueueFull);
    }
}

proptest! {
    /// Pushes, re-admissions due now or an hour out, and pops in any
    /// order: every pop returns what the model says (a due re-admission
    /// behind everything already in its lane), the counts include waiting
    /// items, and nothing is lost or duplicated — the far-future items
    /// come back from `close_and_drain`.
    #[test]
    fn readmissions_keep_lane_order_and_conserve_items(
        ops in proptest::collection::vec(op_strategy(), 1..64),
    ) {
        // Capacity never binds: every op adds at most one item.
        let q = BoundedQueue::new(ops.len());
        let mut model = Model::default();
        let mut popped = 0;
        for (id, &op) in ops.iter().enumerate() {
            match op {
                Op::Push(p) => {
                    q.try_push(p, id).unwrap();
                    model.lanes[p.index()].push_back(id);
                }
                Op::ReadmitNow(p) => {
                    q.readmit(p, id, Duration::ZERO).unwrap();
                    model.due_now.push((p.index(), id));
                }
                Op::ReadmitLater(p) => {
                    q.readmit(p, id, LATER).unwrap();
                    model.later.push((p.index(), id));
                }
                Op::Pop => {
                    // A pop with nothing due would block; skip it.
                    if let Some(want) = model.pop() {
                        prop_assert_eq!(q.pop(), Some(want));
                        popped += 1;
                    }
                }
            }
            prop_assert_eq!(q.lane_lens(), model.lane_lens());
            prop_assert_eq!(q.len(), model.lane_lens().iter().sum::<usize>());
        }
        while let Some(want) = model.pop() {
            prop_assert_eq!(q.pop(), Some(want));
            popped += 1;
        }
        let later: Vec<usize> = model.later.iter().map(|&(_, id)| id).collect();
        prop_assert_eq!(q.close_and_drain(), later.clone());
        prop_assert_eq!(popped + later.len(), ops.iter().filter(|op| !matches!(op, Op::Pop)).count());
        prop_assert_eq!(q.pop(), None);
        prop_assert!(q.is_empty());
    }
}

/// Concurrent producers and consumers with a capacity smaller than the
/// item count: every produced item is consumed exactly once.
#[test]
fn concurrent_producers_consumers_conserve_items() {
    const PRODUCERS: usize = 4;
    const CONSUMERS: usize = 3;
    const PER_PRODUCER: usize = 200;

    let q = Arc::new(BoundedQueue::new(8));
    let consumed: Arc<std::sync::Mutex<Vec<usize>>> = Arc::default();

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    let id = p * PER_PRODUCER + i;
                    let prio = Priority::ALL[id % 3];
                    q.push_timeout(prio, id, Duration::from_secs(30))
                        .map_err(|(e, _)| e)
                        .expect("bounded push with generous timeout");
                }
            })
        })
        .collect();
    let consumers: Vec<_> = (0..CONSUMERS)
        .map(|_| {
            let q = Arc::clone(&q);
            let consumed = Arc::clone(&consumed);
            std::thread::spawn(move || {
                while let Some(id) = q.pop() {
                    consumed.lock().unwrap().push(id);
                }
            })
        })
        .collect();

    for t in producers {
        t.join().unwrap();
    }
    q.close(); // drain semantics: consumers exit once empty
    for t in consumers {
        t.join().unwrap();
    }

    let consumed = consumed.lock().unwrap();
    assert_eq!(consumed.len(), PRODUCERS * PER_PRODUCER, "no item lost");
    let unique: HashSet<_> = consumed.iter().collect();
    assert_eq!(unique.len(), consumed.len(), "no item duplicated");
    assert!(q.is_empty());
}

/// Producers racing an abort (`close_and_drain`): every item is accounted
/// exactly once — either rejected at the push (handed back to the
/// producer), drained by the closer, or popped by a consumer.
#[test]
fn concurrent_close_loses_nothing() {
    for round in 0..20 {
        let q = Arc::new(BoundedQueue::new(4));
        let rejected = Arc::new(AtomicUsize::new(0));
        let popped: Arc<std::sync::Mutex<Vec<usize>>> = Arc::default();

        let producers: Vec<_> = (0..3)
            .map(|p| {
                let q = Arc::clone(&q);
                let rejected = Arc::clone(&rejected);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        let id = p * 50 + i;
                        match q.push_timeout(Priority::Normal, id, Duration::from_millis(2)) {
                            Ok(()) => {}
                            Err((_, _item)) => {
                                rejected.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                })
            })
            .collect();
        let consumer = {
            let q = Arc::clone(&q);
            let popped = Arc::clone(&popped);
            std::thread::spawn(move || {
                while let Some(id) = q.pop() {
                    popped.lock().unwrap().push(id);
                }
            })
        };
        // Let the race develop, then abort mid-stream.
        std::thread::sleep(Duration::from_millis(1 + round % 3));
        let drained = q.close_and_drain();
        for t in producers {
            t.join().unwrap();
        }
        consumer.join().unwrap();

        let popped = popped.lock().unwrap();
        let total = popped.len() + drained.len() + rejected.load(Ordering::Relaxed);
        assert_eq!(
            total, 150,
            "round {round}: accepted+drained+rejected must cover all"
        );
        let mut seen = HashSet::new();
        for id in popped.iter().chain(drained.iter()) {
            assert!(seen.insert(*id), "round {round}: item {id} surfaced twice");
        }
    }
}

/// Consumers that hand every item back once (the service's retry path)
/// while producers push and the queue closes: every item is re-admitted
/// exactly once and finished exactly once, and consumers exit only after
/// the last re-admission drained.
#[test]
fn concurrent_readmissions_conserve_items() {
    const PRODUCERS: usize = 3;
    const CONSUMERS: usize = 3;
    const PER_PRODUCER: usize = 100;

    let q = Arc::new(BoundedQueue::new(8));
    let finished: Arc<std::sync::Mutex<Vec<usize>>> = Arc::default();
    let readmitted = Arc::new(AtomicUsize::new(0));

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    let id = p * PER_PRODUCER + i;
                    q.push_timeout(Priority::ALL[id % 3], (id, false), Duration::from_secs(30))
                        .map_err(|(e, _)| e)
                        .expect("bounded push with generous timeout");
                }
            })
        })
        .collect();
    let consumers: Vec<_> = (0..CONSUMERS)
        .map(|_| {
            let q = Arc::clone(&q);
            let finished = Arc::clone(&finished);
            let readmitted = Arc::clone(&readmitted);
            std::thread::spawn(move || {
                while let Some((id, retried)) = q.pop() {
                    if retried {
                        finished.lock().unwrap().push(id);
                    } else {
                        let delay = Duration::from_micros((id % 4) as u64 * 100);
                        q.readmit(Priority::ALL[id % 3], (id, true), delay)
                            .map_err(|_| "refused")
                            .expect("re-admission before an abort is accepted");
                        readmitted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();

    for t in producers {
        t.join().unwrap();
    }
    q.close();
    for t in consumers {
        t.join().unwrap();
    }

    let total = PRODUCERS * PER_PRODUCER;
    assert_eq!(readmitted.load(Ordering::Relaxed), total);
    let finished = finished.lock().unwrap();
    assert_eq!(finished.len(), total, "no item lost");
    let unique: HashSet<_> = finished.iter().collect();
    assert_eq!(unique.len(), total, "no item duplicated");
    assert!(q.is_empty());
}
