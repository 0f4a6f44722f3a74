//! Thread-local workspace arena for kernel scratch buffers.
//!
//! The packed GEMM needs A/B pack buffers on **every** call, ~n/nb times
//! per Hessenberg panel sweep. This arena keeps a small per-thread cache of
//! `f64` buffers that are checked out for the duration of one kernel and
//! returned on drop, so after warm-up the hot path performs **zero heap
//! allocations**: the same pages (already faulted in, already in cache) are
//! reused across the whole factorization. Pool workers (see
//! [`crate::pool`]) each own their own cache, so no locking is involved
//! anywhere.
//!
//! **Contents are unspecified at checkout.** A checkout hands back a
//! cached buffer viewed at the requested length; whatever an earlier
//! kernel left there is still there, and only storage the buffer has to
//! grow by is zero-filled (safe Rust has no uninitialized `f64`s). Every
//! caller initializes what it reads: GEMM's `pack_a`/`pack_b` write every
//! element the microkernel reads, padding included. Results therefore never
//! depend on what a previous kernel left behind, which keeps the backend
//! bit-identity contract intact.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::OnceLock;

/// Per-thread cache depth: enough for the deepest checkout chain in the
/// codebase (GEMM's two pack buffers plus a couple of driver vectors),
/// small enough that idle threads hold at most a few MiB.
const MAX_CACHED: usize = 8;

thread_local! {
    static CACHE: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
}

/// Registry counter `workspace.growth`: checkouts whose capacity had to be
/// (re)allocated — i.e. arena misses. After warm-up this must stop moving;
/// the regression tests in `crates/blas/tests/pool_properties.rs` assert
/// exactly that.
fn growth_counter() -> &'static ft_trace::Counter {
    static C: OnceLock<&'static ft_trace::Counter> = OnceLock::new();
    C.get_or_init(|| ft_trace::counter("workspace.growth"))
}

/// Number of scratch checkouts that had to allocate (or grow) backing
/// storage since process start. Monotonic; steady state is flat. Reads the
/// `workspace.growth` registry counter.
pub fn growth_allocations() -> u64 {
    growth_counter().get()
}

/// A checked-out scratch buffer; dereferences to `[f64]` of the requested
/// length with unspecified contents (the caller initializes what it
/// reads). Returns its storage to the thread's cache on drop.
pub struct Scratch {
    /// The cached storage at its full initialized length, which never
    /// shrinks, so a later larger checkout does not re-zero it.
    buf: Vec<f64>,
    len: usize,
}

impl Deref for Scratch {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        &self.buf[..self.len]
    }
}

impl DerefMut for Scratch {
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.buf[..self.len]
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        CACHE.with(|c| {
            let mut cache = c.borrow_mut();
            if cache.len() < MAX_CACHED {
                cache.push(buf);
            }
        });
    }
}

/// Checks out a scratch buffer of exactly `len` elements from the calling
/// thread's arena. Its contents are unspecified: it is the cached buffer
/// viewed at `len`, zero-filled only where it had to grow. Allocates only
/// if no cached buffer has the capacity (counted by
/// [`growth_allocations`]).
pub fn scratch(len: usize) -> Scratch {
    // Best fit: the shortest cached buffer that already holds `len`, else
    // the longest one (which then grows). Small checkouts leave the long
    // buffers to the long checkouts, so one pass over a mix of sizes
    // settles the cache and a repeat of the mix allocates nothing.
    let mut buf = CACHE
        .with(|c| {
            let mut cache = c.borrow_mut();
            let lens = |i: &usize| cache[*i].len();
            let best = (0..cache.len())
                .filter(|i| lens(i) >= len)
                .min_by_key(lens)
                .or_else(|| (0..cache.len()).max_by_key(lens))?;
            Some(cache.swap_remove(best))
        })
        .unwrap_or_default();
    if buf.len() < len {
        if buf.capacity() < len {
            growth_counter().incr();
        }
        buf.resize(len, 0.0);
    }
    Scratch { buf, len }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_sized_and_reuse_does_not_grow() {
        let warm = {
            let mut s = scratch(64);
            assert_eq!(s.len(), 64);
            s.fill(1.0);
            s.as_ptr()
        };
        // A smaller checkout reuses the warm buffer at the right length,
        // and the storage keeps its full length, so the next larger
        // checkout gets the same allocation back. (Pointer identity
        // rather than the process-global growth counter, which tests on
        // other threads also move.)
        {
            let s = scratch(16);
            assert_eq!(s.len(), 16);
            assert_eq!(s.as_ptr(), warm, "a smaller checkout reuses the buffer");
        }
        let s = scratch(64);
        assert_eq!(s.len(), 64);
        assert_eq!(s.as_ptr(), warm, "a reused buffer must not regrow");
    }

    #[test]
    fn steady_state_stops_allocating() {
        // Warm up with the same checkout pattern as the measured loop.
        {
            let a = scratch(512);
            let b = scratch(128);
            drop(a);
            drop(b);
        }
        let before = growth_allocations();
        for _ in 0..100 {
            let a = scratch(512);
            let b = scratch(128);
            drop(a);
            drop(b);
        }
        assert_eq!(
            growth_allocations(),
            before,
            "steady-state checkouts must not allocate"
        );
    }

    #[test]
    fn nested_checkouts_are_distinct() {
        let mut a = scratch(8);
        let mut b = scratch(8);
        a[0] = 1.0;
        b[0] = 2.0;
        assert_eq!(a[0], 1.0);
        assert_eq!(b[0], 2.0);
    }
}
