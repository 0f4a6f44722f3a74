//! Loom model of the flight recorder's seqlock ring
//! ([`ft_trace::recorder::ring`]): a writer overwriting the oldest slot
//! races any number of snapshot readers, and no schedule may surface a
//! torn payload — every event a snapshot accepts is byte-for-byte one
//! generation's record. Run with
//! `RUSTFLAGS="--cfg loom" cargo test -p ft-trace --test loom_recorder`.
//!
//! Torn-payload detection works by construction: every payload word of
//! generation `i` is a distinct function of `i`, so a slot mixing words
//! from an overwritten generation and its overwriter cannot equal
//! `event(g)` for any `g`.

#![cfg(loom)]

use ft_trace::recorder::ring::{RawEvent, Ring, KIND_COUNTER, KIND_JOURNAL, KIND_SIM, KIND_SPAN};
use loom::sync::Arc;

/// Generation-`i` event with every field a distinct function of `i`.
fn event(i: u64) -> RawEvent {
    RawEvent {
        kind: [KIND_SPAN, KIND_COUNTER, KIND_JOURNAL, KIND_SIM][(i % 4) as usize],
        name_id: (i * 7 + 1) as u32,
        has_arg: i % 2 == 0,
        attempt: (i * 3 + 2) as u16,
        tid: i * 11 + 3,
        job: i * 13 + 5,
        arg: i * 0x1111 + 9,
        t0: i * 17 + 4,
        t1: i * 19 + 6,
    }
}

/// Writer overwrites the oldest slot of a full ring while a reader
/// snapshots: the reader sees either the old generation's payload intact
/// or nothing from that slot — never a mix — and generations come out
/// oldest-first.
#[test]
fn overwrite_racing_snapshot_is_never_torn() {
    loom::model(|| {
        let ring = Arc::new(Ring::new(8));
        // Fill to the wrap boundary before the race: generations 0..8
        // land one per slot (single-threaded, so no schedule branching).
        for i in 0..8 {
            ring.record(&event(i));
        }
        let w = Arc::clone(&ring);
        let writer = loom::thread::spawn(move || {
            // Generation 8 claims slot 0, overwriting generation 0.
            w.record(&event(8));
        });
        let r = Arc::clone(&ring);
        let reader = loom::thread::spawn(move || {
            let mut out = Vec::new();
            r.snapshot_into(&mut out);
            out
        });
        writer.join().unwrap();
        let seen = reader.join().unwrap();
        for (gen, ev) in &seen {
            assert_eq!(ev, &event(*gen), "torn payload at generation {gen}");
        }
        for pair in seen.windows(2) {
            assert!(
                pair[0].0 < pair[1].0,
                "snapshot not oldest-first: {} then {}",
                pair[0].0,
                pair[1].0
            );
        }

        // Quiescent snapshot after the race: exactly the last 8
        // generations, intact, with the overwrite accounted as dropped.
        let mut fin = Vec::new();
        ring.snapshot_into(&mut fin);
        let gens: Vec<u64> = fin.iter().map(|(g, _)| *g).collect();
        assert_eq!(gens, (1..=8).collect::<Vec<_>>());
        for (gen, ev) in &fin {
            assert_eq!(ev, &event(*gen));
        }
        assert_eq!(ring.dropped(), 1);
        assert_eq!(ring.len(), 8);
    });
}

/// Append (no wraparound) racing a snapshot: the reader either skips the
/// in-progress slot (odd sequence or head not yet advanced past it) or
/// sees the committed event whole — never a partial payload. Readers
/// perform no stores, so this single-reader model also covers any number
/// of concurrent readers: their validation loads cannot affect each
/// other or the writer.
#[test]
fn append_racing_snapshot_skips_or_sees_whole_events() {
    loom::model(|| {
        let ring = Arc::new(Ring::new(8));
        ring.record(&event(0));
        let w = Arc::clone(&ring);
        let writer = loom::thread::spawn(move || w.record(&event(1)));
        let r = Arc::clone(&ring);
        let reader = loom::thread::spawn(move || {
            let mut out = Vec::new();
            r.snapshot_into(&mut out);
            out
        });
        writer.join().unwrap();
        let seen = reader.join().unwrap();
        assert!(!seen.is_empty(), "the committed generation 0 must appear");
        assert_eq!(seen[0], (0, event(0)));
        assert!(seen.len() <= 2);
        if let Some((gen, ev)) = seen.get(1) {
            assert_eq!((*gen, ev), (1, &event(1)), "torn in-progress slot");
        }
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.len(), 2);
    });
}
