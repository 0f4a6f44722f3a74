//! Trace-context propagation: which job (and which retry attempt) the
//! current thread is working for.
//!
//! `ft-serve` installs a [`TraceCtx`] around each executed attempt;
//! `ft-blas::pool` captures the caller's context at dispatch time and
//! re-installs it on the worker that runs each task. Every span event,
//! counter delta retained by the flight recorder, and fault-journal
//! record read the ambient context at record time, so the whole event
//! stream is attributable per job+attempt without threading a parameter
//! through every layer.
//!
//! The context is a thread-local `Cell` — reading it is two loads with
//! no synchronization, cheap enough to leave unconditional (a context
//! with nothing recording is simply never observed).

use std::cell::Cell;

/// The ambient trace context: one job, one attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    /// Service-assigned job id (`JobId.0` in `ft-serve`).
    pub job_id: u64,
    /// Zero-based attempt number (0 = first execution, 1 = first retry).
    pub attempt: u32,
}

thread_local! {
    // (job_id + 1, attempt); 0 in the first slot means "no context".
    static CTX: Cell<(u64, u32)> = const { Cell::new((0, 0)) };
}

/// The calling thread's current context, if one is installed.
#[inline]
pub fn current() -> Option<TraceCtx> {
    let (j, a) = CTX.with(Cell::get);
    if j == 0 {
        None
    } else {
        Some(TraceCtx {
            job_id: j - 1,
            attempt: a,
        })
    }
}

/// Installs `ctx` for the calling thread until the returned guard drops
/// (the previous context, if any, is restored — contexts nest).
#[must_use = "the context is uninstalled when the guard drops"]
pub fn push(ctx: TraceCtx) -> CtxGuard {
    let prev = CTX.with(|c| c.replace((ctx.job_id + 1, ctx.attempt)));
    CtxGuard { prev }
}

/// Re-installs `ctx` if it is `Some` (the captured-context shape used at
/// pool dispatch boundaries); a `None` leaves the ambient context alone.
#[must_use = "the context is uninstalled when the guard drops"]
pub fn push_opt(ctx: Option<TraceCtx>) -> Option<CtxGuard> {
    ctx.map(push)
}

/// RAII guard restoring the previously installed context on drop.
#[derive(Debug)]
pub struct CtxGuard {
    prev: (u64, u32),
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        CTX.with(|c| c.set(prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_by_default_and_restored_on_drop() {
        assert_eq!(current(), None);
        {
            let _g = push(TraceCtx {
                job_id: 7,
                attempt: 2,
            });
            assert_eq!(
                current(),
                Some(TraceCtx {
                    job_id: 7,
                    attempt: 2
                })
            );
            {
                let _inner = push(TraceCtx {
                    job_id: 8,
                    attempt: 0,
                });
                assert_eq!(current().map(|c| c.job_id), Some(8));
            }
            assert_eq!(current().map(|c| c.job_id), Some(7), "contexts nest");
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn not_inherited_across_threads_without_push() {
        let _g = push(TraceCtx {
            job_id: 1,
            attempt: 0,
        });
        let other = std::thread::spawn(current).join().unwrap();
        assert_eq!(other, None, "context is thread-local; pools re-install it");
    }
}
