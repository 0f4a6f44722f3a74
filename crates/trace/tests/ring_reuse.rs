//! A recording thread's ring outlives the thread: when the thread exits,
//! the ring goes back to a free list and the next thread to record takes
//! it, so the number of rings stays at the peak number of live recording
//! threads. A dead thread's events stay readable until its ring is
//! reused, and recording from a thread-local destructor after the ring
//! was handed back drops the event instead of panicking.
//!
//! The hand-over runs on real threads while another thread snapshots:
//! the loom model (`loom_recorder.rs`) drives one ring directly and
//! compiles this wiring out, so CI also runs this file under
//! ThreadSanitizer.
//!
//! One test function: the recorder configuration is process-global.

use ft_trace::recorder;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

const CAP: usize = 64;

fn record(spans: usize) -> u64 {
    for i in 0..spans {
        let _span = ft_trace::span!("ft.panel", i);
    }
    ft_trace::current_tid()
}

struct RecordsOnDrop;

impl Drop for RecordsOnDrop {
    fn drop(&mut self) {
        record(1);
    }
}

thread_local! {
    static LATE: RecordsOnDrop = const { RecordsOnDrop };
}

#[test]
fn exited_threads_hand_their_rings_to_new_threads() {
    const WRITERS: usize = 4;
    const ROUNDS: usize = 20;
    recorder::configure(true, CAP, None);

    let tid = std::thread::spawn(|| record(10)).join().unwrap();
    let mine = recorder::snapshot()
        .into_iter()
        .filter(|e| e.tid == tid)
        .count();
    assert_eq!(mine, 10, "a dead thread's events stay readable");
    let bound = recorder::stats().rings.max(WRITERS);

    // Rounds of writers wrap their rings and exit while a reader walks
    // the ring directory.
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut snapshots = 0usize;
            while !stop.load(Ordering::Acquire) {
                assert!(recorder::snapshot().len() <= bound * CAP);
                assert!(recorder::stats().rings <= bound);
                snapshots += 1;
            }
            snapshots
        });
        for _ in 0..ROUNDS {
            // All writers of a round hold a ring at once.
            let all_recorded = Arc::new(Barrier::new(WRITERS));
            let writers: Vec<_> = (0..WRITERS)
                .map(|_| {
                    let all_recorded = Arc::clone(&all_recorded);
                    std::thread::spawn(move || {
                        record(3 * CAP);
                        all_recorded.wait();
                    })
                })
                .collect();
            for w in writers {
                w.join().unwrap();
            }
        }
        stop.store(true, Ordering::Release);
        assert!(reader.join().unwrap() > 0, "the reader ran");
    });
    let after = recorder::stats().rings;
    assert_eq!(
        after, bound,
        "{ROUNDS} rounds of {WRITERS} threads reuse the exited threads' rings"
    );

    // A thread-local destructor that records after the thread's ring was
    // handed back must not panic (a panic there aborts the process).
    std::thread::spawn(|| {
        LATE.with(|_| {});
        record(1);
    })
    .join()
    .unwrap();
    assert_eq!(recorder::stats().rings, after);

    // A free ring is reused only at the current capacity.
    recorder::configure(true, 2 * CAP, None);
    std::thread::spawn(|| record(1)).join().unwrap();
    assert_eq!(
        recorder::stats().rings,
        after + 1,
        "a new capacity gets its own ring"
    );
    recorder::configure(true, CAP, None);
    std::thread::spawn(|| record(1)).join().unwrap();
    assert_eq!(recorder::stats().rings, after + 1);
}
