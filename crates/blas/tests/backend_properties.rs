//! The backend determinism contract (see `ft_blas::backend`): for every
//! level-3 kernel, the threaded backend must be **bit-identical** — not
//! merely close — to the serial backend, for every thread count. This is
//! what lets the FT driver's checksum aggregates (`Sre`/`Sce`) keep their
//! serial drift under threading, so detection thresholds never depend on
//! the parallelism knob.
//!
//! Two regimes are covered:
//!
//! * **small/odd shapes** (including ones echoing the checked-in panel
//!   regression `(n, k, ib) = (8, 0, 3)`), which sit below
//!   [`ft_blas::backend::PARALLEL_MIN_VOLUME`] for the auto-gated kernels
//!   but are driven through the explicit chunked paths where possible;
//! * **above-gate shapes**, sized past the fork threshold so the threaded
//!   backend demonstrably splits the work across OS threads.

use ft_blas::backend::{PARALLEL_MIN_ELEMS, PARALLEL_MIN_VOLUME};
use ft_blas::{gemm, gemm_threaded, trmm, with_backend, Backend};
use ft_blas::{Diag, Side, Trans, Uplo};
use ft_matrix::Matrix;
use proptest::prelude::*;

const THREADS: [usize; 3] = [1, 2, 4];

/// Smallest cube side clearing the level-3 fork gate — derived from the
/// constant so gate recalibration keeps the "above gate" tests honest.
fn side_above_volume() -> usize {
    let mut s = (PARALLEL_MIN_VOLUME as f64).cbrt().ceil() as usize;
    while s * s * s < PARALLEL_MIN_VOLUME {
        s += 1;
    }
    s
}

/// Smallest square side clearing the level-2 element gate.
fn side_above_elems() -> usize {
    let mut s = (PARALLEL_MIN_ELEMS as f64).sqrt().ceil() as usize;
    while s * s < PARALLEL_MIN_ELEMS {
        s += 1;
    }
    s
}

fn bits(m: &Matrix) -> Vec<u64> {
    let mut out = Vec::with_capacity(m.rows() * m.cols());
    for j in 0..m.cols() {
        for i in 0..m.rows() {
            out.push(m[(i, j)].to_bits());
        }
    }
    out
}

fn assert_bit_identical(label: &str, serial: &Matrix, threaded: &Matrix, t: usize) {
    assert_eq!(
        bits(serial),
        bits(threaded),
        "{label}: threaded({t}) differs from serial"
    );
}

/// Runs `op` once under `Backend::Serial` and once under each threaded
/// worker count, asserting the output matrix is bitwise identical.
fn check_backends(label: &str, init: &Matrix, op: impl Fn(&mut Matrix)) {
    let mut reference = init.clone();
    with_backend(Backend::Serial, || op(&mut reference));
    for &t in &THREADS {
        let mut out = init.clone();
        with_backend(Backend::Threaded(t), || op(&mut out));
        assert_bit_identical(label, &reference, &out, t);
    }
}

#[test]
fn gemm_threaded_is_bit_identical_for_any_worker_count() {
    // Odd shapes, including the regression panel's ib = 3 inner dimension
    // and shapes larger than one chunk per worker.
    for &(m, n, k) in &[
        (8usize, 8usize, 3usize),
        (5, 7, 3),
        (1, 9, 4),
        (13, 1, 13),
        (33, 17, 29),
        (64, 48, 31),
    ] {
        let a = ft_matrix::random::uniform(m, k, 1);
        let b = ft_matrix::random::uniform(k, n, 2);
        let c0 = ft_matrix::random::uniform(m, n, 3);
        let mut reference = c0.clone();
        gemm_threaded(
            1,
            Trans::No,
            Trans::No,
            1.25,
            &a.as_view(),
            &b.as_view(),
            -0.5,
            &mut reference.as_view_mut(),
        );
        for workers in [2usize, 3, 4, 7] {
            let mut c = c0.clone();
            gemm_threaded(
                workers,
                Trans::No,
                Trans::No,
                1.25,
                &a.as_view(),
                &b.as_view(),
                -0.5,
                &mut c.as_view_mut(),
            );
            assert_bit_identical(&format!("gemm {m}x{n}x{k}"), &reference, &c, workers);
        }
    }
}

#[test]
fn gemm_above_fork_gate_is_bit_identical() {
    // Above PARALLEL_MIN_VOLUME: the Auto path genuinely forks under a
    // threaded backend and must still match the serial result exactly.
    let s = side_above_volume();
    let (m, n, k) = (s, s + 2, s);
    let a = ft_matrix::random::uniform(m, k, 11);
    let b = ft_matrix::random::uniform(k, n, 12);
    let init = ft_matrix::random::uniform(m, n, 13);
    check_backends("gemm auto above gate", &init, |c| {
        gemm(
            Trans::Yes,
            Trans::No,
            0.75,
            &a.transpose().as_view(),
            &b.as_view(),
            1.0,
            &mut c.as_view_mut(),
        )
    });
}

#[test]
fn trmm_is_bit_identical_across_backends() {
    // Left and Right at a shape clearing the fork gate; plus an odd
    // small shape that stays serial under every backend.
    let s = side_above_volume();
    for &(rows, cols) in &[(s, s + 7), (9usize, 5usize)] {
        let tri = ft_matrix::random::uniform(rows, rows, 21);
        let init = ft_matrix::random::uniform(rows, cols, 22);
        for uplo in [Uplo::Upper, Uplo::Lower] {
            for trans in [Trans::No, Trans::Yes] {
                check_backends(&format!("trmm left {rows}x{cols}"), &init, |b| {
                    trmm(
                        Side::Left,
                        uplo,
                        trans,
                        Diag::NonUnit,
                        1.5,
                        &tri.as_view(),
                        &mut b.as_view_mut(),
                    )
                });
            }
        }
        let tri_r = ft_matrix::random::uniform(cols, cols, 23);
        check_backends(&format!("trmm right {rows}x{cols}"), &init, |b| {
            trmm(
                Side::Right,
                Uplo::Upper,
                Trans::No,
                Diag::Unit,
                0.5,
                &tri_r.as_view(),
                &mut b.as_view_mut(),
            )
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random odd shapes and scalars: `gemm_threaded` never depends on the
    /// worker count, chunk boundaries included.
    #[test]
    fn gemm_worker_count_invariance(
        m in 1usize..24,
        n in 1usize..24,
        k in 1usize..24,
        workers in 2usize..6,
        seed in any::<u64>(),
        alpha in -2.0f64..2.0,
        beta in -1.0f64..1.0,
    ) {
        let a = ft_matrix::random::uniform(m, k, seed);
        let b = ft_matrix::random::uniform(k, n, seed ^ 0x9e37);
        let c0 = ft_matrix::random::uniform(m, n, seed ^ 0x79b9);
        let mut serial = c0.clone();
        gemm_threaded(1, Trans::No, Trans::No, alpha, &a.as_view(), &b.as_view(), beta, &mut serial.as_view_mut());
        let mut par = c0.clone();
        gemm_threaded(workers, Trans::No, Trans::No, alpha, &a.as_view(), &b.as_view(), beta, &mut par.as_view_mut());
        prop_assert!(
            bits(&serial) == bits(&par),
            "{m}x{n}x{k} workers={workers}: threaded differs from serial"
        );
    }
}

#[test]
fn gemv_is_bit_identical_across_backends() {
    // The derived square clears PARALLEL_MIN_ELEMS (the level-2 gate), so
    // the threaded backend genuinely splits `y`; the smaller shapes stay
    // serial under every backend. All must match serial bitwise.
    let e = side_above_elems();
    for &(m, n) in &[(e, e), (300, 220), (48, 48), (7, 300)] {
        let a = ft_matrix::random::uniform(m, n, 51);
        let x: Vec<f64> = ft_matrix::random::uniform(n, 1, 52).col(0).to_vec();
        let xt: Vec<f64> = ft_matrix::random::uniform(m, 1, 53).col(0).to_vec();
        let y0 = ft_matrix::random::uniform(m, 1, 54);
        let yt0 = ft_matrix::random::uniform(n, 1, 55);

        check_backends(&format!("gemv {m}x{n}"), &y0, |y| {
            ft_blas::gemv(Trans::No, 1.25, &a.as_view(), &x, -0.5, y.col_mut(0))
        });
        check_backends(&format!("gemv^T {m}x{n}"), &yt0, |y| {
            ft_blas::gemv(Trans::Yes, -0.75, &a.as_view(), &xt, 1.0, y.col_mut(0))
        });
    }
}

#[test]
fn ger_is_bit_identical_across_backends() {
    let e = side_above_elems();
    for &(m, n) in &[(e, e), (190, 345), (31, 17)] {
        let x: Vec<f64> = ft_matrix::random::uniform(m, 1, 61).col(0).to_vec();
        let y: Vec<f64> = ft_matrix::random::uniform(n, 1, 62).col(0).to_vec();
        let a0 = ft_matrix::random::uniform(m, n, 63);
        check_backends(&format!("ger {m}x{n}"), &a0, |a| {
            ft_blas::ger(0.35, &x, &y, &mut a.as_view_mut())
        });
    }
}

#[test]
fn nested_with_backend_restores_each_level() {
    // threaded → serial → threaded nesting: every kernel call sees the
    // innermost backend, and unwinding restores the outer one each time.
    let s = side_above_volume();
    let (m, n, k) = (s, s + 2, s);
    let a = ft_matrix::random::uniform(m, k, 71);
    let b = ft_matrix::random::uniform(k, n, 72);
    let c0 = ft_matrix::random::uniform(m, n, 73);
    let run = || {
        let mut c = c0.clone();
        gemm(
            Trans::No,
            Trans::No,
            1.0,
            &a.as_view(),
            &b.as_view(),
            0.5,
            &mut c.as_view_mut(),
        );
        c
    };
    let reference = with_backend(Backend::Serial, run);

    let (outer, mid, inner) = with_backend(Backend::Threaded(4), || {
        let outer = run();
        let (mid, inner) = with_backend(Backend::Serial, || {
            let mid = run();
            let inner = with_backend(Backend::Threaded(2), run);
            assert_eq!(
                ft_blas::current_backend(),
                Backend::Serial,
                "inner with_backend must restore the serial level"
            );
            (mid, inner)
        });
        assert_eq!(
            ft_blas::current_backend(),
            Backend::Threaded(4),
            "middle with_backend must restore the threaded level"
        );
        (outer, mid, inner)
    });

    assert_bit_identical("nested outer threaded(4)", &reference, &outer, 4);
    assert_bit_identical("nested middle serial", &reference, &mid, 1);
    assert_bit_identical("nested inner threaded(2)", &reference, &inner, 2);
}
