//! The workspace lock-acquisition order.
//!
//! Every `Mutex` in the concurrency crates (`ft-serve`, `ft-blas`) is
//! listed here with a rank; a thread may only acquire a lock while
//! holding locks of strictly *lower* rank. `ft-check` (rule FTC009)
//! enforces both halves statically: an unlisted `Mutex` declaration
//! fails the build, and so does any function body that acquires against
//! the declared order. The loom models (`DESIGN.md` §11.2 —
//! `loom_queue`, `loom_oneshot`, `loom_latch`, `loom_recorder`) check the dynamic side of the same invariant; this
//! table is the piece they cannot see: the *cross-component* order when
//! one thread holds locks from two components at once.
//!
//! Rank bands group components so new locks slot in without renumbering:
//! 10s = admission queue, 20s = oneshot rendezvous, 30s = loadgen
//! aggregation, 40s = blas pool, 50s = blas latch. Today no code path
//! nests across bands (each component releases before calling into the
//! next); the order still has to be total so that FTC009 can reject the
//! first change that breaks that.

/// `(file-path suffix, field name, rank)` for every `Mutex` in scope.
///
/// The path is matched as a suffix of the repo-relative file path, so
/// entries stay valid if crates move under a new directory root.
pub const LOCK_ORDER: &[(&str, &str, u32)] = &[
    ("crates/serve/src/queue.rs", "inner", 10),
    ("crates/serve/src/oneshot.rs", "slot", 20),
    ("crates/serve/src/loadgen.rs", "outcomes", 30),
    ("crates/serve/src/loadgen.rs", "latency", 31),
    ("crates/blas/src/pool.rs", "state", 40),
    ("crates/blas/src/latch.rs", "panic", 50),
    ("crates/blas/src/latch.rs", "remaining", 51),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_strictly_increasing() {
        // A total order: later rows have strictly higher ranks, so the
        // table doubles as documentation of the global acquisition
        // sequence.
        for pair in LOCK_ORDER.windows(2) {
            assert!(
                pair[0].2 < pair[1].2,
                "LOCK_ORDER ranks must be strictly increasing: {:?} then {:?}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn entries_are_unique_per_lock() {
        for (i, a) in LOCK_ORDER.iter().enumerate() {
            for b in &LOCK_ORDER[i + 1..] {
                assert!(!(a.0 == b.0 && a.1 == b.1), "duplicate lock entry: {a:?}");
            }
        }
    }
}
