//! Lazily-initialized persistent worker pool behind the threaded backend.
//!
//! PR 1's threaded backend spawned fresh OS threads inside
//! `std::thread::scope` on **every** kernel call. That is correct but pays
//! thread-creation latency (tens of microseconds) per call — measurable
//! once the gates in [`crate::backend`] let medium-sized kernels fork, and
//! fatal to the paper's "< 2 % overhead" pitch if the baseline kernels are
//! not running at hardware speed. This module replaces per-call spawning
//! with a process-lifetime pool:
//!
//! * workers are spawned **once**, on first threaded dispatch, and grown on
//!   demand up to the largest worker count any kernel requests;
//! * between kernels the workers **park** on a condvar — zero CPU burn, no
//!   spinning;
//! * dispatch is a mutex-protected queue push plus a condvar notify: the
//!   per-kernel cost is a few hundred nanoseconds instead of a spawn/join
//!   cycle (measured by `BENCH_gemm.json`'s dispatch-overhead records);
//! * the caller always executes the first chunk inline, exactly as the
//!   `std::thread::scope` code did, so worker counts and chunk shapes are
//!   unchanged — and with them the bit-identity contract.
//!
//! # Scoped dispatch without `'static`
//!
//! Kernel chunks borrow matrix views with stack lifetimes. [`run_scoped`]
//! erases those lifetimes to hand the closures to pool threads, which is
//! sound because the function **always waits** for every submitted task
//! before returning — including when the inline chunk panics (a drop guard
//! performs the wait during unwinding). Worker panics are caught, carried
//! back across the latch, and re-raised on the calling thread, mirroring
//! `std::thread::scope` semantics.
//!
//! # Re-entrancy
//!
//! A task running *on* a pool worker never dispatches back into the pool:
//! [`in_worker`] is true there, [`crate::backend::fork_threads`] returns 1,
//! and [`run_scoped`] falls back to inline execution. This makes nested
//! kernels (`with_backend(threaded, || …)` inside a chunk, or a kernel
//! calling another kernel) deadlock-free by construction: blocked waiters
//! can never exhaust the worker supply.

use crate::latch::Latch;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, OnceLock};

/// A type-erased unit of work owned by the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A borrowed task as produced by the chunk helpers in
/// [`crate::backend`]: may capture non-`'static` matrix views.
pub(crate) type ScopedTask<'scope> = Box<dyn FnOnce() + Send + 'scope>;

struct PoolState {
    queue: VecDeque<Job>,
    workers: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    job_ready: Condvar,
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// Registry counter `pool.spawn`: total OS threads ever spawned by the
/// pool (monotonic). After warm-up this must stay constant no matter how
/// many kernels run — the regression tests in
/// `crates/blas/tests/pool_properties.rs` pin that.
fn spawn_counter() -> &'static ft_trace::Counter {
    static C: OnceLock<&'static ft_trace::Counter> = OnceLock::new();
    C.get_or_init(|| ft_trace::counter("pool.spawn"))
}

/// Registry counter `pool.dispatch`: total tasks handed to pool workers
/// (monotonic; excludes the chunks the callers run inline). Used by tests
/// to prove a kernel did (or did not) consult the parallel gate.
fn dispatch_counter() -> &'static ft_trace::Counter {
    static C: OnceLock<&'static ft_trace::Counter> = OnceLock::new();
    C.get_or_init(|| ft_trace::counter("pool.dispatch"))
}

/// Registry counter `pool.inline_fallback`: multi-task dispatches that ran
/// inline because the caller was already a pool worker (the re-entrancy
/// guard documented in the module docs).
fn inline_fallback_counter() -> &'static ft_trace::Counter {
    static C: OnceLock<&'static ft_trace::Counter> = OnceLock::new();
    C.get_or_init(|| ft_trace::counter("pool.inline_fallback"))
}

thread_local! {
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// `true` on threads owned by the pool; used to suppress nested forking.
pub fn in_worker() -> bool {
    IS_WORKER.with(|w| w.get())
}

/// Number of OS threads the pool has ever spawned (monotonic; the pool
/// never shrinks, so this is also its current size). Reads the
/// `pool.spawn` registry counter.
pub fn spawned_worker_count() -> usize {
    spawn_counter().get() as usize
}

/// Number of tasks dispatched to pool workers since process start. Reads
/// the `pool.dispatch` registry counter.
pub fn dispatch_count() -> u64 {
    dispatch_counter().get()
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            queue: VecDeque::new(),
            workers: 0,
        }),
        job_ready: Condvar::new(),
    })
}

fn worker_loop(pool: &'static Pool) {
    IS_WORKER.with(|w| w.set(true));
    loop {
        let job = {
            let mut st = pool.state.lock().unwrap();
            loop {
                if let Some(j) = st.queue.pop_front() {
                    break j;
                }
                st = pool.job_ready.wait(st).unwrap();
            }
        };
        let _span = ft_trace::span!("pool.task");
        job();
    }
}

/// Grows the pool to at least `target` workers (holding the state lock).
fn ensure_workers(pool: &'static Pool, target: usize) {
    let mut st = pool.state.lock().unwrap();
    while st.workers < target {
        std::thread::Builder::new()
            .name(format!("ft-blas-pool-{}", st.workers))
            .spawn(move || worker_loop(pool))
            .expect("ft-blas: failed to spawn pool worker");
        st.workers += 1;
        spawn_counter().incr();
    }
}

/// Raw latch pointer made `Send` so it can travel inside a `Job`. The
/// pointee is a stack-pinned [`Latch`] that [`run_scoped`] keeps alive
/// until every task has completed (see the safety comments there).
#[derive(Clone, Copy)]
struct LatchPtr(*const Latch);

// SAFETY: the pointee is a stack-pinned Latch that outlives every Job
// carrying this pointer (run_scoped waits before returning), so sending
// the raw pointer across threads cannot produce a dangling access.
unsafe impl Send for LatchPtr {}

impl LatchPtr {
    /// # Safety
    /// The caller must guarantee the pointee latch is still alive
    /// (upheld by [`run_scoped`]'s wait-before-return discipline).
    unsafe fn latch(self) -> &'static Latch {
        // SAFETY: the caller contract above keeps the pointee alive; the
        // 'static lifetime never escapes the pool's job plumbing.
        unsafe { &*self.0 }
    }
}

/// Waits for the latch even if the enclosing scope unwinds: dropping this
/// guard (normally or during a panic) blocks until every dispatched task
/// has finished, which is what makes the lifetime erasure in
/// [`run_scoped`] sound.
struct WaitGuard<'a>(&'a Latch);

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        self.0.wait();
    }
}

/// Runs every task to completion, the first inline on the calling thread
/// and the rest on pool workers, then returns. Panics from any task are
/// propagated to the caller (the first observed wins).
///
/// On a pool worker thread all tasks run inline (see the module docs on
/// re-entrancy).
pub(crate) fn run_scoped(tasks: Vec<ScopedTask<'_>>) {
    let mut tasks = tasks;
    if tasks.len() <= 1 || in_worker() {
        if tasks.len() > 1 {
            inline_fallback_counter().incr();
        }
        for task in tasks {
            task();
        }
        return;
    }
    let _span = ft_trace::span!("pool.dispatch", tasks.len());
    let local = tasks.remove(0);
    let extra = tasks.len();
    let pool = pool();
    ensure_workers(pool, extra);

    // Workers inherit the dispatcher's trace context (job/attempt) so
    // their spans and counter deltas stay attributable to the job.
    let trace_ctx = ft_trace::ctx::current();
    let latch = Latch::new(extra);
    {
        let mut st = pool.state.lock().unwrap();
        for task in tasks {
            // Carry a raw latch pointer instead of an `Arc`: the wait
            // guard below keeps this stack frame — and with it the latch —
            // alive until every task has called `complete`.
            let latch_ptr = LatchPtr(&latch);
            let job: ScopedTask<'_> = Box::new(move || {
                let _ctx = ft_trace::ctx::push_opt(trace_ctx);
                let result = catch_unwind(AssertUnwindSafe(task));
                // SAFETY: the dispatching frame cannot return or unwind
                // past `latch` before `complete` runs (WaitGuard blocks on
                // the latch in both paths), so the pointee is alive.
                unsafe { latch_ptr.latch().complete(result.err()) };
            });
            // SAFETY: lifetime erasure of the borrowed task. The calling
            // frame waits on the latch before returning (normally via the
            // explicit wait, during unwinding via WaitGuard::drop), so
            // every borrow inside the task strictly outlives its
            // execution on the worker.
            let job: Job = unsafe { std::mem::transmute::<ScopedTask<'_>, Job>(job) };
            st.queue.push_back(job);
        }
        dispatch_counter().add(extra as u64);
        pool.job_ready.notify_all();
    }

    {
        let guard = WaitGuard(&latch);
        local();
        drop(guard); // blocks until all workers finish
    }
    if let Some(p) = latch.take_panic() {
        resume_unwind(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scoped_tasks_see_borrowed_data() {
        let mut data = vec![0usize; 64];
        {
            let chunks: Vec<&mut [usize]> = data.chunks_mut(16).collect();
            let tasks: Vec<ScopedTask<'_>> = chunks
                .into_iter()
                .enumerate()
                .map(|(ci, chunk)| {
                    Box::new(move || {
                        for (off, v) in chunk.iter_mut().enumerate() {
                            *v = ci * 16 + off;
                        }
                    }) as ScopedTask<'_>
                })
                .collect();
            run_scoped(tasks);
        }
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i);
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let result = catch_unwind(|| {
            let tasks: Vec<ScopedTask<'_>> = vec![
                Box::new(|| {}),
                Box::new(|| panic!("worker boom")),
                Box::new(|| {}),
            ];
            run_scoped(tasks);
        });
        assert!(result.is_err(), "worker panic must reach the caller");
        // The pool must still be usable afterwards.
        let counter = AtomicUsize::new(0);
        let tasks: Vec<ScopedTask<'_>> = (0..3)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as ScopedTask<'_>
            })
            .collect();
        run_scoped(tasks);
        assert_eq!(counter.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn empty_and_single_task_run_inline() {
        run_scoped(vec![]);
        let ran = AtomicUsize::new(0);
        let spawned_before = spawned_worker_count();
        let dispatched_before = dispatch_count();
        run_scoped(vec![Box::new(|| {
            ran.fetch_add(1, Ordering::Relaxed);
        }) as ScopedTask<'_>]);
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        assert_eq!(spawned_worker_count(), spawned_before);
        assert_eq!(dispatch_count(), dispatched_before);
    }

    #[test]
    fn nested_dispatch_counts_inline_fallback() {
        let before = inline_fallback_counter().get();
        let outer: Vec<ScopedTask<'_>> = (0..2)
            .map(|_| {
                Box::new(|| {
                    if in_worker() {
                        // A nested multi-task dispatch from a worker must
                        // fall back to inline execution and count it.
                        let inner: Vec<ScopedTask<'_>> =
                            (0..2).map(|_| Box::new(|| {}) as ScopedTask<'_>).collect();
                        run_scoped(inner);
                    }
                }) as ScopedTask<'_>
            })
            .collect();
        run_scoped(outer);
        assert!(
            inline_fallback_counter().get() > before,
            "worker-side nested dispatch must increment pool.inline_fallback"
        );
    }
}
