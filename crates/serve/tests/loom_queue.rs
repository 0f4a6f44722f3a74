//! Loom models of [`ft_serve::BoundedQueue`]: racing producers/consumers
//! with close, FIFO-within-priority, the timed-push windows, and delayed
//! re-admission against pop, close and abort. Run with
//! `RUSTFLAGS="--cfg loom" cargo test -p ft-serve --test loom_queue`.

#![cfg(loom)]

use ft_serve::queue::SubmitError;
use ft_serve::{BoundedQueue, Priority};
use loom::sync::Arc;
use loom::time::Instant;
use std::time::Duration;

#[test]
fn racing_producers_lose_and_duplicate_nothing() {
    loom::model(|| {
        let q = Arc::new(BoundedQueue::new(4));
        let q1 = Arc::clone(&q);
        let q2 = Arc::clone(&q);
        let p1 = loom::thread::spawn(move || q1.try_push(Priority::High, 1).unwrap());
        let p2 = loom::thread::spawn(move || q2.try_push(Priority::Low, 2).unwrap());
        let qc = Arc::clone(&q);
        let c = loom::thread::spawn(move || (qc.pop().unwrap(), qc.pop().unwrap()));
        p1.join().unwrap();
        p2.join().unwrap();
        let (a, b) = c.join().unwrap();
        assert!(
            matches!((a, b), (1, 2) | (2, 1)),
            "lost or duplicated an item: popped ({a}, {b})"
        );
        q.close();
        assert_eq!(q.pop(), None, "closed+drained queue must report None");
    });
}

#[test]
fn fifo_within_a_priority_lane() {
    loom::model(|| {
        let q = Arc::new(BoundedQueue::new(4));
        let qp = Arc::clone(&q);
        let p = loom::thread::spawn(move || {
            qp.try_push(Priority::Normal, 1).unwrap();
            qp.try_push(Priority::Normal, 2).unwrap();
        });
        let qc = Arc::clone(&q);
        let c = loom::thread::spawn(move || (qc.pop().unwrap(), qc.pop().unwrap()));
        p.join().unwrap();
        assert_eq!(c.join().unwrap(), (1, 2), "FIFO within a lane violated");
    });
}

#[test]
fn close_racing_a_push_loses_nothing() {
    loom::model(|| {
        let q = Arc::new(BoundedQueue::new(2));
        let qp = Arc::clone(&q);
        let p = loom::thread::spawn(move || qp.try_push(Priority::Normal, 7).is_ok());
        q.close();
        let pushed = p.join().unwrap();
        let mut drained = 0;
        while let Some(v) = q.pop() {
            assert_eq!(v, 7);
            drained += 1;
        }
        assert_eq!(
            drained,
            usize::from(pushed),
            "push acceptance and drain count disagree"
        );
    });
}

#[test]
fn timed_push_against_a_consumer_succeeds_or_times_out() {
    loom::model(|| {
        let q = Arc::new(BoundedQueue::new(1));
        q.try_push(Priority::Normal, 1).unwrap();
        let qp = Arc::clone(&q);
        let p = loom::thread::spawn(move || {
            qp.push_timeout(Priority::Normal, 2, Duration::from_millis(5))
                .map_err(|(e, _)| e)
        });
        let qc = Arc::clone(&q);
        let c = loom::thread::spawn(move || qc.pop().unwrap());
        assert_eq!(c.join().unwrap(), 1, "FIFO: the pre-queued item pops first");
        let res = p.join().unwrap();
        q.close();
        match res {
            Ok(()) => assert_eq!(q.pop(), Some(2), "accepted push must be poppable"),
            Err(SubmitError::Timeout) => {}
            Err(e) => panic!("unexpected submit error: {e:?}"),
        }
        assert_eq!(q.pop(), None);
    });
}

#[test]
fn close_releases_a_blocked_pusher() {
    loom::model(|| {
        let q = Arc::new(BoundedQueue::new(1));
        q.try_push(Priority::Normal, 1).unwrap();
        let qp = Arc::clone(&q);
        let p = loom::thread::spawn(move || {
            qp.push_timeout(Priority::Normal, 2, Duration::from_secs(1))
                .map_err(|(e, _)| e)
        });
        q.close();
        // The queue stays full, so the push can only fail: Closed once the
        // close lands, Timeout if the timed wait expires first. Blocking
        // forever (a missed close wakeup) would be a deadlock here.
        let res = p.join().unwrap();
        assert!(
            matches!(res, Err(SubmitError::Closed) | Err(SubmitError::Timeout)),
            "blocked push must fail after close: {res:?}"
        );
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    });
}

#[test]
fn readmitted_item_pops_once_and_never_before_due() {
    loom::model(|| {
        let q = Arc::new(BoundedQueue::new(1));
        let delay = Duration::from_millis(5);
        let start = Instant::now();
        let qr = Arc::clone(&q);
        let r = loom::thread::spawn(move || qr.readmit(Priority::Normal, 7, delay));
        let qc = Arc::clone(&q);
        let c = loom::thread::spawn(move || {
            let v = qc.pop();
            (v, Instant::now())
        });
        assert_eq!(r.join().unwrap(), Ok(()));
        let (v, popped_at) = c.join().unwrap();
        assert_eq!(v, Some(7));
        // The virtual clock starts at zero and only timeouts advance it, so
        // the re-admission happened at `start` and was due at `start + delay`.
        assert!(popped_at >= start + delay, "popped before its due time");
        q.close();
        assert_eq!(q.pop(), None, "the item popped twice");
    });
}

#[test]
fn close_racing_a_readmission_still_pops_it_before_none() {
    loom::model(|| {
        let q = Arc::new(BoundedQueue::new(1));
        let qw = Arc::clone(&q);
        // A worker hands its job back, then keeps popping until the queue
        // reports closed and drained.
        let w = loom::thread::spawn(move || {
            qw.readmit(Priority::Low, 7, Duration::from_millis(5))
                .expect("close must not refuse a re-admission");
            let mut popped = Vec::new();
            while let Some(v) = qw.pop() {
                popped.push(v);
            }
            popped
        });
        q.close();
        assert_eq!(w.join().unwrap(), vec![7]);
        assert_eq!(q.pop(), None);
    });
}

#[test]
fn close_and_drain_racing_a_readmission_surfaces_it_once() {
    loom::model(|| {
        let q = Arc::new(BoundedQueue::new(1));
        let qr = Arc::clone(&q);
        let r =
            loom::thread::spawn(move || qr.readmit(Priority::High, 7, Duration::from_millis(5)));
        let drained = q.close_and_drain();
        match r.join().unwrap() {
            Ok(()) => assert_eq!(drained, vec![7], "an accepted re-admission must drain"),
            Err(v) => {
                assert_eq!(v, 7);
                assert!(drained.is_empty(), "handed back and drained: {drained:?}");
            }
        }
        assert_eq!(q.pop(), None, "nothing may pop after an abort");
    });
}
