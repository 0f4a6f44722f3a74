//! The completion latch used by [`crate::pool`]'s scoped dispatch.
//!
//! A [`Latch`] is shared between a dispatching caller and the `n` tasks
//! it hands to pool workers: each task calls [`Latch::complete`] exactly
//! once (carrying its panic payload, if it had one), and the caller
//! blocks in [`Latch::wait`] until all `n` completions have arrived. The
//! soundness of the pool's lifetime erasure rests entirely on this
//! wait-before-return discipline, so the latch is the one pool component
//! that is model-checked: `tests/loom_latch.rs` explores every
//! interleaving of racing completions and the waiting caller under
//! `RUSTFLAGS="--cfg loom"` (see DESIGN.md §11).

use crate::sync::{Condvar, Mutex};
use std::any::Any;

/// Completion latch: counts down from `n`, carrying the first panic
/// observed across the completing tasks.
pub struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Latch {
    /// A latch awaiting `count` completions.
    pub fn new(count: usize) -> Latch {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    /// Records one task completion, with its panic payload if it
    /// unwound. The first recorded panic wins; the waiter is woken when
    /// the last completion arrives.
    pub fn complete(&self, panic: Option<Box<dyn Any + Send>>) {
        if let Some(p) = panic {
            let mut slot = self.panic.lock().unwrap();
            if slot.is_none() {
                *slot = Some(p);
            }
        }
        let mut remaining = self.remaining.lock().unwrap();
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every expected completion has arrived.
    pub fn wait(&self) {
        let mut remaining = self.remaining.lock().unwrap();
        while *remaining > 0 {
            remaining = self.done.wait(remaining).unwrap();
        }
    }

    /// Takes the first panic payload recorded by [`Latch::complete`], if
    /// any. Call after [`Latch::wait`] to re-raise task panics.
    pub fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.panic.lock().unwrap().take()
    }
}
