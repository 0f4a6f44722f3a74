//! Regression tests for the persistent worker pool and workspace arena:
//! global-counter based, so every test in this file serializes on one
//! mutex (and the file is its own test binary — counters are
//! process-global and must not race with unrelated tests).
//!
//! What is pinned here:
//!
//! * **pool reuse** — after warm-up, no OS thread is ever spawned again,
//!   no matter how many kernels dispatch (the whole point of replacing
//!   per-call `std::thread::scope`);
//! * **gate consistency** — every parallel kernel consults the documented
//!   gates in `ft_blas::backend` (`PARALLEL_MIN_VOLUME` for level-3,
//!   `PARALLEL_MIN_ELEMS` for level-2): below-gate shapes never dispatch
//!   to the pool, above-gate shapes always do;
//! * **workspace steady state** — repeated kernels stop allocating scratch
//!   once the arena is warm.

use ft_blas::backend::{PARALLEL_MIN_ELEMS, PARALLEL_MIN_VOLUME};
use ft_blas::{gemm, gemv, ger, pool, trmm, with_backend, workspace, Backend};
use ft_blas::{Diag, Side, Trans, Uplo};
use std::sync::Mutex;

/// Serializes the tests in this binary: they all read/compare the
/// process-global pool and workspace counters.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    // A previous test panicking while holding the lock must not cascade.
    COUNTER_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Smallest cube side whose volume clears the level-3 gate. Sizes are
/// derived from the constant so gate recalibration cannot silently
/// invalidate this suite.
fn side_above_volume() -> usize {
    let mut s = (PARALLEL_MIN_VOLUME as f64).cbrt().ceil() as usize;
    while s * s * s < PARALLEL_MIN_VOLUME {
        s += 1;
    }
    s
}

/// Largest cube side whose volume stays below the level-3 gate.
fn side_below_volume() -> usize {
    let mut s = side_above_volume();
    while s * s * s >= PARALLEL_MIN_VOLUME {
        s -= 1;
    }
    s
}

/// Smallest square side whose element count clears the level-2 gate.
fn side_above_elems() -> usize {
    let mut s = (PARALLEL_MIN_ELEMS as f64).sqrt().ceil() as usize;
    while s * s < PARALLEL_MIN_ELEMS {
        s += 1;
    }
    s
}

/// A square side comfortably below the level-2 gate.
fn side_below_elems() -> usize {
    let mut s = side_above_elems() - 1;
    while s * s >= PARALLEL_MIN_ELEMS {
        s -= 1;
    }
    s
}

fn gemm_above_gate() {
    let n = side_above_volume();
    let a = ft_matrix::random::uniform(n, n, 1);
    let b = ft_matrix::random::uniform(n, n, 2);
    let mut c = ft_matrix::Matrix::zeros(n, n);
    gemm(
        Trans::No,
        Trans::No,
        1.0,
        &a.as_view(),
        &b.as_view(),
        0.0,
        &mut c.as_view_mut(),
    );
}

fn gemv_above_gate() {
    let n = side_above_elems();
    let a = ft_matrix::random::uniform(n, n, 3);
    let x = vec![1.0; n];
    let mut y = vec![0.0; n];
    gemv(Trans::No, 1.0, &a.as_view(), &x, 0.0, &mut y);
}

#[test]
fn no_thread_spawned_per_kernel_after_warmup() {
    let _g = lock();
    with_backend(Backend::Threaded(4), || {
        // Warm-up: force the pool to its full size for this worker count.
        gemm_above_gate();
        let spawned = pool::spawned_worker_count();
        assert!(
            spawned >= 3,
            "warm-up under Threaded(4) should have populated the pool, got {spawned}"
        );
        let dispatched = pool::dispatch_count();

        // 100+ consecutive above-gate kernels: plenty of dispatches, zero
        // new OS threads. Under the old per-call `thread::scope` design
        // this would have been ≥ 300 spawns.
        for _ in 0..60 {
            gemm_above_gate();
        }
        for _ in 0..60 {
            gemv_above_gate();
        }
        assert!(
            pool::dispatch_count() > dispatched,
            "above-gate kernels must dispatch to the pool"
        );
        assert_eq!(
            pool::spawned_worker_count(),
            spawned,
            "steady-state kernels must never spawn OS threads"
        );
    });
}

/// Runs `op` and reports whether it dispatched any task to the pool.
fn dispatches(op: impl FnOnce()) -> bool {
    let before = pool::dispatch_count();
    op();
    pool::dispatch_count() > before
}

#[test]
fn all_kernels_consult_the_unified_gates() {
    let _g = lock();
    let above = side_above_volume();
    let below = side_below_volume();
    with_backend(Backend::Threaded(4), || {
        // gemm: volume gate (m·n·k vs PARALLEL_MIN_VOLUME).
        let a = ft_matrix::random::uniform(above, above, 11);
        let mut c = ft_matrix::Matrix::zeros(above, above);
        assert!(
            dispatches(|| gemm(
                Trans::No,
                Trans::No,
                1.0,
                &a.as_view(),
                &a.as_view(),
                0.0,
                &mut c.as_view_mut(),
            )),
            "gemm {above}^3 is above PARALLEL_MIN_VOLUME and must fork"
        );
        let s = ft_matrix::random::uniform(below, below, 12);
        let mut cs = ft_matrix::Matrix::zeros(below, below);
        assert!(
            !dispatches(|| gemm(
                Trans::No,
                Trans::No,
                1.0,
                &s.as_view(),
                &s.as_view(),
                0.0,
                &mut cs.as_view_mut(),
            )),
            "gemm {below}^3 is below PARALLEL_MIN_VOLUME and must stay serial"
        );

        // trmm: volume gate on order²·cols.
        let (to, tc) = (above, above + 7);
        let tri = {
            let mut t = ft_matrix::random::uniform(to, to, 13);
            for i in 0..to {
                t[(i, i)] += to as f64;
            }
            t
        };
        let mut b = ft_matrix::random::uniform(to, tc, 14);
        assert!(
            dispatches(|| trmm(
                Side::Left,
                Uplo::Upper,
                Trans::No,
                Diag::NonUnit,
                1.0,
                &tri.as_view(),
                &mut b.as_view_mut(),
            )),
            "trmm {to}^2·{tc} must fork"
        );
        let tri_s = {
            let mut t = ft_matrix::random::uniform(20, 20, 15);
            for i in 0..20 {
                t[(i, i)] += 20.0;
            }
            t
        };
        let mut bs = ft_matrix::random::uniform(20, 10, 16);
        assert!(
            !dispatches(|| trmm(
                Side::Left,
                Uplo::Upper,
                Trans::No,
                Diag::NonUnit,
                1.0,
                &tri_s.as_view(),
                &mut bs.as_view_mut(),
            )),
            "small trmm must stay serial"
        );

        // gemv / ger: element gate (m·n vs PARALLEL_MIN_ELEMS).
        let ea = side_above_elems();
        let eb = side_below_elems();
        let ga = ft_matrix::random::uniform(ea, ea, 19);
        let gx = vec![1.0; ea];
        let mut gy = vec![0.0; ea];
        assert!(
            dispatches(|| gemv(Trans::No, 1.0, &ga.as_view(), &gx, 0.0, &mut gy)),
            "gemv {ea}x{ea} is above PARALLEL_MIN_ELEMS and must fork"
        );
        assert!(
            dispatches(|| gemv(Trans::Yes, 1.0, &ga.as_view(), &gx, 0.0, &mut gy)),
            "gemv^T {ea}x{ea} must fork"
        );
        let sm = ft_matrix::random::uniform(eb, eb, 20);
        let sx = vec![1.0; eb];
        let mut sy = vec![0.0; eb];
        assert!(
            !dispatches(|| gemv(Trans::No, 1.0, &sm.as_view(), &sx, 0.0, &mut sy)),
            "gemv {eb}x{eb} is below the gate and must stay serial"
        );
        let mut gm = ft_matrix::random::uniform(ea, ea, 21);
        let gu = vec![1.0; ea];
        let gv = vec![1.0; ea];
        assert!(
            dispatches(|| ger(0.5, &gu, &gv, &mut gm.as_view_mut())),
            "ger {ea}x{ea} must fork"
        );
        let mut gms = ft_matrix::random::uniform(64, 64, 22);
        let gus = vec![1.0; 64];
        let gvs = vec![1.0; 64];
        assert!(
            !dispatches(|| ger(0.5, &gus, &gvs, &mut gms.as_view_mut())),
            "small ger must stay serial"
        );
    });

    // Under the serial backend nothing may ever reach the pool.
    with_backend(Backend::Serial, || {
        assert!(
            !dispatches(gemm_above_gate),
            "serial backend must never dispatch, even above the gate"
        );
        assert!(
            !dispatches(gemv_above_gate),
            "serial backend must never dispatch a level-2 kernel"
        );
    });
}

#[test]
fn workspace_reaches_steady_state_across_kernels() {
    let _g = lock();
    // Serial keeps all checkouts on this thread, so the arena counter is
    // exercised deterministically.
    with_backend(Backend::Serial, || {
        // Warm-up: same shape as the measured loop.
        gemm_above_gate();
        gemm_above_gate();
        let before = workspace::growth_allocations();
        for _ in 0..100 {
            gemm_above_gate();
        }
        assert_eq!(
            workspace::growth_allocations(),
            before,
            "steady-state gemm calls must not grow the workspace arena"
        );

        // Pack buffers are sized per call, so a mix of shapes must still
        // converge: after one sweep of the FT driver's GEMM shapes, a
        // second sweep allocates nothing.
        gehrd_gemm_sweep(256, 32);
        let before = workspace::growth_allocations();
        gehrd_gemm_sweep(256, 32);
        assert_eq!(
            workspace::growth_allocations(),
            before,
            "a repeated sweep of FT gehrd's GEMM shapes must not regrow pack buffers"
        );
    });
}

/// The GEMMs one FT `gehrd` run at order `n`, block `nb` issues, in
/// driver order (sizes decrease as the panel moves right): per panel `k`
/// of width `ib`, with `m = n−k−1` and `jcount = m−ib+2`,
/// * panel top: `(k+1) × (ib−1) × ib`, `Y·Vᵀ`;
/// * trailing: `(n+1) × jcount × ib`, `Yx·Vxᵀ`;
/// * `W = Vᵀ·A`: `ib × jcount × m`;
/// * left apply: `(m+1) × jcount × ib`, `Vx·W₂`.
fn gehrd_gemm_sweep(n: usize, nb: usize) {
    let run = |ta: Trans, tb: Trans, m: usize, cols: usize, k: usize| {
        let (ar, ac) = match ta {
            Trans::No => (m, k),
            Trans::Yes => (k, m),
        };
        let (br, bc) = match tb {
            Trans::No => (k, cols),
            Trans::Yes => (cols, k),
        };
        let a = ft_matrix::random::uniform(ar, ac, 31);
        let b = ft_matrix::random::uniform(br, bc, 32);
        let mut c = ft_matrix::random::uniform(m, cols, 33);
        gemm(
            ta,
            tb,
            -1.0,
            &a.as_view(),
            &b.as_view(),
            1.0,
            &mut c.as_view_mut(),
        );
    };
    let total = n - 2;
    let mut k = 0;
    while k < total {
        let ib = nb.min(total - k);
        let m = n - k - 1;
        let jcount = m - ib + 2;
        run(Trans::No, Trans::Yes, k + 1, ib - 1, ib);
        run(Trans::No, Trans::Yes, n + 1, jcount, ib);
        run(Trans::Yes, Trans::No, ib, jcount, m);
        run(Trans::No, Trans::No, m + 1, jcount, ib);
        k += ib;
    }
}
