//! Execution backend for the level-2 and level-3 kernels.
//!
//! Two implementations sit behind one knob: [`Backend::Serial`] (the
//! historical single-threaded behavior) and [`Backend::Threaded`], which
//! fans kernel work out over the persistent worker pool in
//! [`crate::pool`]. Workers are spawned once, parked on a condvar between
//! kernels, and fed chunks through a queue — no OS thread is created per
//! kernel call (the PR 1 `std::thread::scope` design paid a spawn/join
//! cycle on every call).
//!
//! **Determinism contract:** every parallel path partitions *output*
//! elements (row blocks, column blocks, slice ranges) and leaves each
//! element's floating-point reduction order exactly as in the serial
//! kernel. The two backends therefore produce **bit-identical** results
//! for any thread count — checksum aggregates (`Sre`/`Sce` in
//! `ft-hessenberg`) drift by the same rounding error regardless of
//! parallelism, so detection thresholds need no re-tuning. The property
//! tests in `crates/blas/tests/backend_properties.rs` and
//! `crates/blas/tests/pool_properties.rs` pin this down.
//!
//! The backend is tracked per thread (a thread-local), initialized from
//! the `FT_BLAS_BACKEND` environment variable on first use:
//!
//! * `serial` — single-threaded (the default);
//! * `threaded` — threaded, worker count = available parallelism;
//! * `threaded:4` — threaded with exactly 4 workers;
//! * `threaded:auto` — threaded clamped to the detected core count, and
//!   plain `serial` when only one core is available (so a 1-core box
//!   never pays threaded dispatch overhead for zero parallelism).

use crate::pool::{self, ScopedTask};
use ft_matrix::MatViewMut;
use std::cell::Cell;

/// **The** compute-bound parallel gate: minimum per-kernel work volume
/// (`m·n·k`-style element-operation count) before the threaded backend
/// actually forks a level-3 kernel; below it, dispatch overhead dominates
/// and the serial path runs instead. This is the single gate every
/// level-3 kernel consults (via [`fork_threads`]) — `gemm`'s former
/// private `PARALLEL_THRESHOLD` is unified here. Selection depends only
/// on the problem size — never on the thread count — so the chosen
/// algorithm (and hence the bit pattern of the result) is the same for
/// every backend.
///
/// **Calibration** (from the `dispatch_overhead` record in
/// `BENCH_gemm.json`): one pool dispatch costs ≈ 5.9 µs. At the packed
/// kernel's measured serial rate (tens of GFLOP/s) a chunk must carry a
/// few MFLOPs before that tax drops under a couple of percent; the old
/// `128³` gate admitted `n = 256` (16 M volume split across 4 workers →
/// ≈ 4 M each) yet the smoke bench showed threaded at 0.44× serial once
/// per-call pack duplication was added on top. `160³` keeps per-worker
/// chunks ≥ ~4 M volume (≥ ~8 MFLOPs) *before* splitting, pushing the
/// crossover to sizes where the pool measurably wins.
pub const PARALLEL_MIN_VOLUME: usize = 160 * 160 * 160;

/// The memory-bound parallel gate: minimum element count (`m·n` for
/// `gemv`/`ger`, output length² for checksum sweeps) before a level-2 or
/// vector kernel forks. Memory-bound kernels amortize dispatch much
/// faster than their flop count suggests — each element is touched once —
/// so this gate is far lower than [`PARALLEL_MIN_VOLUME`]. Consulted via
/// [`fork_threads_mem`]; same backend-independence rule as above.
/// Recalibrated alongside [`PARALLEL_MIN_VOLUME`]: at ≈ 5.9 µs per
/// dispatch a memory-bound sweep needs ≥ ~10⁵ touched elements before
/// forking amortizes.
pub const PARALLEL_MIN_ELEMS: usize = 128 * 1024;

/// Which execution backend the level-3 kernels use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Single-threaded kernels (the historical behavior).
    Serial,
    /// Persistent-pool workers (see [`crate::pool`]); `Threaded(0)` means
    /// "use the machine's available parallelism", `Threaded(n)` pins `n`
    /// workers.
    Threaded(usize),
}

impl Backend {
    /// Parses the `FT_BLAS_BACKEND` environment variable (see the module
    /// docs for the accepted forms); unset or unrecognized values fall
    /// back to [`Backend::Serial`].
    pub fn from_env() -> Backend {
        ft_trace::env_knob::parse_with("FT_BLAS_BACKEND", Backend::parse).unwrap_or(Backend::Serial)
    }

    /// Parses `"serial"`, `"threaded"`, `"threaded:N"` or
    /// `"threaded:auto"`.
    pub fn parse(s: &str) -> Option<Backend> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("serial") {
            return Some(Backend::Serial);
        }
        if s.eq_ignore_ascii_case("threaded") {
            return Some(Backend::Threaded(0));
        }
        if let Some(rest) = s
            .strip_prefix("threaded:")
            .or_else(|| s.strip_prefix("THREADED:"))
        {
            if rest.trim().eq_ignore_ascii_case("auto") {
                return Some(Backend::auto());
            }
            return rest.parse::<usize>().ok().map(|n| {
                if n <= 1 {
                    Backend::Serial
                } else {
                    Backend::Threaded(n)
                }
            });
        }
        None
    }

    /// The `threaded:auto` resolution: threaded with worker count clamped
    /// to the machine's detected parallelism, degrading to
    /// [`Backend::Serial`] on a single-core box — there, threaded
    /// dispatch buys no parallelism but still pays queue/wake overhead
    /// (the `threaded:4 < serial` regression visible in
    /// `BENCH_gemm.json` at `cores: 1`).
    pub fn auto() -> Backend {
        let cores = available_parallelism();
        if cores <= 1 {
            Backend::Serial
        } else {
            Backend::Threaded(cores)
        }
    }

    /// The worker count this backend runs with (`Serial` → 1,
    /// `Threaded(0)` → available parallelism).
    pub fn threads(self) -> usize {
        match self {
            Backend::Serial => 1,
            Backend::Threaded(0) => available_parallelism(),
            Backend::Threaded(n) => n,
        }
    }

    /// `true` for the threaded backend.
    pub fn is_threaded(self) -> bool {
        matches!(self, Backend::Threaded(_))
    }
}

/// The machine's available parallelism (1 if unknown).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

thread_local! {
    static CURRENT: Cell<Option<Backend>> = const { Cell::new(None) };
}

/// The calling thread's active backend (initialized from `FT_BLAS_BACKEND`
/// on first use).
pub fn current_backend() -> Backend {
    CURRENT.with(|c| match c.get() {
        Some(b) => b,
        None => {
            let b = Backend::from_env();
            c.set(Some(b));
            b
        }
    })
}

/// Sets the calling thread's backend for all subsequent kernel calls.
pub fn set_backend(backend: Backend) {
    CURRENT.with(|c| c.set(Some(backend)));
}

/// Runs `f` with `backend` active, restoring the previous backend
/// afterwards (also on panic).
pub fn with_backend<R>(backend: Backend, f: impl FnOnce() -> R) -> R {
    struct Restore(Backend);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_backend(self.0);
        }
    }
    let _restore = Restore(current_backend());
    set_backend(backend);
    f()
}

/// Worker count the current backend grants a compute-bound kernel of the
/// given work volume: 1 (don't fork) unless the backend is threaded
/// **and** the volume clears [`PARALLEL_MIN_VOLUME`]. Always 1 on a pool
/// worker thread (no nested forking; see [`crate::pool`]).
pub(crate) fn fork_threads(volume: usize) -> usize {
    fork_gated(volume, PARALLEL_MIN_VOLUME)
}

/// [`fork_threads`] for memory-bound kernels: gates on
/// [`PARALLEL_MIN_ELEMS`] instead.
pub(crate) fn fork_threads_mem(elems: usize) -> usize {
    fork_gated(elems, PARALLEL_MIN_ELEMS)
}

fn fork_gated(work: usize, gate: usize) -> usize {
    if pool::in_worker() {
        return 1;
    }
    let b = current_backend();
    if b.is_threaded() && work >= gate {
        b.threads().max(1)
    } else {
        1
    }
}

/// Splits `c` into a `tr × tc` grid of near-equal contiguous tiles and
/// runs `f(first_global_row, first_global_col, tile)` on each, extra
/// tiles on pool workers. `f` must treat the tiles independently;
/// determinism then follows because each element is processed by exactly
/// the serial code. The gemm threaded path partitions its output this
/// way (`jc`/`ic` macro-tiles) so each worker runs the full packed serial
/// kernel on a private block of `C`; a `1 × t` grid splits columns
/// (`ger`, left `trmm`) and a `t × 1` grid rows (right `trmm`).
pub(crate) fn for_each_tile<F>(c: MatViewMut<'_>, tr: usize, tc: usize, f: F)
where
    F: Fn(usize, usize, MatViewMut<'_>) + Sync,
{
    let (m, n) = (c.rows(), c.cols());
    let tr = tr.min(m.max(1)).max(1);
    let tc = tc.min(n.max(1)).max(1);
    if tr * tc <= 1 {
        f(0, 0, c);
        return;
    }
    let (rbase, rextra) = (m / tr, m % tr);
    let (cbase, cextra) = (n / tc, n % tc);
    let mut tasks: Vec<ScopedTask<'_>> = Vec::with_capacity(tr * tc);
    let fr = &f;
    let mut rest = c;
    let mut j0 = 0usize;
    for wc in 0..tc {
        let width = cbase + usize::from(wc < cextra);
        let (band, tail) = rest.split_at_col(width);
        rest = tail;
        let mut brest = band;
        let mut i0 = 0usize;
        for wr in 0..tr {
            let height = rbase + usize::from(wr < rextra);
            let (tile, btail) = brest.split_at_row(height);
            brest = btail;
            let (r0, c0) = (i0, j0);
            tasks.push(Box::new(move || fr(r0, c0, tile)));
            i0 += height;
        }
        j0 += width;
    }
    pool::run_scoped(tasks);
}

/// Slice analogue of [`for_each_tile`]: splits `out` into up to
/// `workers` near-equal contiguous ranges and runs `f(first_global_index,
/// chunk)` on each. Used by the parallel level-2 path, where the output is
/// a vector rather than a matrix block.
pub(crate) fn for_each_slice_chunk<F>(out: &mut [f64], workers: usize, f: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    let len = out.len();
    let t = workers.min(len.max(1)).max(1);
    if t <= 1 {
        f(0, out);
        return;
    }
    let (base, extra) = (len / t, len % t);
    let mut tasks: Vec<ScopedTask<'_>> = Vec::with_capacity(t);
    let mut rest = out;
    let mut i0 = 0usize;
    let fr = &f;
    for w in 0..t {
        let width = base + usize::from(w < extra);
        let (chunk, tail) = rest.split_at_mut(width);
        let r0 = i0;
        tasks.push(Box::new(move || fr(r0, chunk)));
        rest = tail;
        i0 += width;
    }
    pool::run_scoped(tasks);
}

/// Splits `out` into contiguous ranges over the current backend's workers
/// and runs `f(first_global_index, range)` on each (memory-bound gate:
/// the work is assumed to be ~`len` reads per element, as in the FT
/// driver's checksum sweeps). `f` must compute every element the same
/// way wherever its range starts — the range splits independent output
/// elements, never one element's accumulation chain — so the result is
/// bit-identical to one serial call. This is what keeps the FT driver's
/// error localization deterministic under the threaded backend.
pub fn parallel_chunks_into<F>(out: &mut [f64], f: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    let len = out.len();
    for_each_slice_chunk(out, fork_threads_mem(len.saturating_mul(len)), f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_matrix::Matrix;

    #[test]
    fn parse_forms() {
        assert_eq!(Backend::parse("serial"), Some(Backend::Serial));
        assert_eq!(Backend::parse("threaded"), Some(Backend::Threaded(0)));
        assert_eq!(Backend::parse("threaded:4"), Some(Backend::Threaded(4)));
        assert_eq!(Backend::parse("threaded:1"), Some(Backend::Serial));
        assert_eq!(Backend::parse(" Threaded "), Some(Backend::Threaded(0)));
        assert_eq!(Backend::parse("gpu"), None);
    }

    #[test]
    fn parse_threaded_auto_clamps_to_cores() {
        let auto = Backend::parse("threaded:auto").expect("threaded:auto must parse");
        assert_eq!(auto, Backend::auto());
        assert_eq!(Backend::parse("THREADED:AUTO"), Some(auto));
        match auto {
            Backend::Serial => assert_eq!(available_parallelism(), 1),
            Backend::Threaded(n) => {
                assert!(n >= 2, "auto must pin a real worker count, got {n}");
                assert_eq!(n, available_parallelism());
            }
        }
    }

    #[test]
    fn with_backend_restores_on_exit_and_panic() {
        set_backend(Backend::Serial);
        with_backend(Backend::Threaded(2), || {
            assert_eq!(current_backend(), Backend::Threaded(2));
        });
        assert_eq!(current_backend(), Backend::Serial);
        let result = std::panic::catch_unwind(|| {
            with_backend(Backend::Threaded(3), || panic!("boom"));
        });
        assert!(result.is_err());
        assert_eq!(current_backend(), Backend::Serial);
    }

    #[test]
    fn threads_resolution() {
        assert_eq!(Backend::Serial.threads(), 1);
        assert_eq!(Backend::Threaded(4).threads(), 4);
        assert!(Backend::Threaded(0).threads() >= 1);
    }

    #[test]
    fn col_chunks_cover_exactly_once() {
        for workers in [1usize, 2, 3, 5, 16] {
            let mut a = Matrix::zeros(7, 11);
            for_each_tile(a.as_view_mut(), 1, workers, |_, j0, mut chunk| {
                for j in 0..chunk.cols() {
                    for i in 0..chunk.rows() {
                        let old = chunk.at(i, j);
                        chunk.set(i, j, old + (j0 + j + 1) as f64);
                    }
                }
            });
            for j in 0..11 {
                for i in 0..7 {
                    assert_eq!(a[(i, j)], (j + 1) as f64, "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn row_chunks_cover_exactly_once() {
        for workers in [1usize, 2, 4, 9] {
            let mut a = Matrix::zeros(10, 3);
            for_each_tile(a.as_view_mut(), workers, 1, |i0, _, mut chunk| {
                for j in 0..chunk.cols() {
                    for i in 0..chunk.rows() {
                        let old = chunk.at(i, j);
                        chunk.set(i, j, old + (i0 + i) as f64);
                    }
                }
            });
            for j in 0..3 {
                for i in 0..10 {
                    assert_eq!(a[(i, j)], i as f64, "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn tiles_cover_exactly_once() {
        for (tr, tc) in [(1usize, 1usize), (2, 2), (3, 1), (1, 4), (2, 3), (5, 5)] {
            let mut a = Matrix::zeros(11, 13);
            for_each_tile(a.as_view_mut(), tr, tc, |i0, j0, mut tile| {
                for j in 0..tile.cols() {
                    for i in 0..tile.rows() {
                        let old = tile.at(i, j);
                        tile.set(i, j, old + ((i0 + i) * 100 + j0 + j) as f64);
                    }
                }
            });
            for j in 0..13 {
                for i in 0..11 {
                    assert_eq!(a[(i, j)], (i * 100 + j) as f64, "grid {tr}x{tc}");
                }
            }
        }
    }

    #[test]
    fn parallel_chunks_match_serial() {
        let mut serial = vec![0.0f64; 401];
        for (i, s) in serial.iter_mut().enumerate() {
            *s = (i as f64).sin();
        }
        let mut par = vec![0.0f64; 401];
        with_backend(Backend::Threaded(4), || {
            parallel_chunks_into(&mut par, |i0, chunk| {
                for (off, s) in chunk.iter_mut().enumerate() {
                    *s = ((i0 + off) as f64).sin();
                }
            });
        });
        assert_eq!(serial, par);
    }
}
