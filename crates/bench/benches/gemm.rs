//! Criterion bench: GEMM kernel variants (the device workhorse of the
//! trailing-matrix updates), plus the serial-vs-threaded backend
//! comparison behind the `FT_BLAS_BACKEND` knob.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ft_bench::{cores, write_bench_json, Record};
use ft_blas::{
    active_simd_path, gemm, gemm_ft, gemm_with_algo, gemv, pool, trmm, with_backend, AbftOptions,
    Backend, Diag, GemmAlgo, Side, Trans, Uplo,
};
use ft_matrix::{MatViewMut, Matrix};
use std::time::Instant;

use ft_bench::smoke;

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    group.sample_size(10);
    for &n in &[64usize, 128, 256] {
        let a = ft_matrix::random::uniform(n, n, 1);
        let b = ft_matrix::random::uniform(n, n, 2);
        group.throughput(Throughput::Elements((2 * n * n * n) as u64));
        for algo in [GemmAlgo::Reference, GemmAlgo::Blocked, GemmAlgo::Parallel] {
            group.bench_with_input(BenchmarkId::new(format!("{algo:?}"), n), &n, |bench, _| {
                let mut cmat = Matrix::zeros(n, n);
                bench.iter(|| {
                    gemm_with_algo(
                        algo,
                        Trans::No,
                        Trans::No,
                        1.0,
                        &a.as_view(),
                        &b.as_view(),
                        0.0,
                        &mut cmat.as_view_mut(),
                    );
                    std::hint::black_box(cmat.as_slice()[0]);
                });
            });
        }
    }
    group.finish();
}

/// Serial vs threaded backend on the default `gemm` entry point. The
/// threaded backend only engages above
/// `ft_blas::backend::PARALLEL_MIN_VOLUME`, so the sizes here are chosen
/// past the gate (the smoke run stays small and fast).
fn bench_gemm_backends(c: &mut Criterion) {
    let mut records: Vec<Record> = Vec::new();
    let mut group = c.benchmark_group("gemm_backend");
    group.sample_size(10);
    let sizes: &[usize] = if smoke() { &[256] } else { &[512, 1024] };
    for &n in sizes {
        let a = ft_matrix::random::uniform(n, n, 1);
        let b = ft_matrix::random::uniform(n, n, 2);
        group.throughput(Throughput::Elements((2 * n * n * n) as u64));
        for backend in [Backend::Serial, Backend::Threaded(2), Backend::Threaded(4)] {
            let label = match backend {
                Backend::Serial => "serial".to_string(),
                Backend::Threaded(t) => format!("threaded{t}"),
            };
            group.bench_with_input(BenchmarkId::new(label, n), &n, |bench, _| {
                let mut cmat = Matrix::zeros(n, n);
                bench.iter(|| {
                    with_backend(backend, || {
                        gemm(
                            Trans::No,
                            Trans::No,
                            1.0,
                            &a.as_view(),
                            &b.as_view(),
                            0.0,
                            &mut cmat.as_view_mut(),
                        );
                    });
                    std::hint::black_box(cmat.as_slice()[0]);
                });
            });
        }
        // Headline number: direct wall-clock speedup of Threaded(4) over
        // Serial at this size.
        let iters = if smoke() { 1 } else { 3 };
        let time = |backend: Backend| {
            let mut cmat = Matrix::zeros(n, n);
            let t0 = Instant::now();
            for _ in 0..iters {
                with_backend(backend, || {
                    gemm(
                        Trans::No,
                        Trans::No,
                        1.0,
                        &a.as_view(),
                        &b.as_view(),
                        0.0,
                        &mut cmat.as_view_mut(),
                    );
                });
                std::hint::black_box(cmat.as_slice()[0]);
            }
            t0.elapsed().as_secs_f64() / iters as f64
        };
        let ts = time(Backend::Serial);
        let tt = time(Backend::Threaded(4));
        println!(
            "gemm backend speedup @ n={n}: serial {:.1} ms, threaded(4) {:.1} ms -> {:.2}x \
             (isa {}, {} cores)",
            ts * 1e3,
            tt * 1e3,
            ts / tt,
            active_simd_path(),
            cores(),
        );
        let gflops = |secs: f64| 2.0 * (n as f64).powi(3) / secs / 1e9;
        records.push(
            Record::new()
                .str("kind", "gemm_backend")
                .int("n", n as u64)
                .num("serial_ms", ts * 1e3)
                .num("threaded4_ms", tt * 1e3)
                .num("speedup", ts / tt)
                .num("serial_gflops", gflops(ts))
                .num("threaded4_gflops", gflops(tt))
                .str("isa", active_simd_path())
                .int("cores", cores())
                .bool("smoke", smoke()),
        );
        // Gate-consistency guard: every size benchmarked here is above
        // PARALLEL_MIN_VOLUME, so the threaded backend genuinely forks.
        // If forking at an admitted size costs more than 25% over serial,
        // the fork gate is miscalibrated for this machine — fail the
        // smoke run loudly instead of uploading a regression as data.
        // On a single hardware thread the comparison is structural, not
        // a calibration signal (four workers time-slice one core and the
        // per-worker pack duplication is pure overhead — DESIGN.md §8's
        // measurement envelope), so the guard only arms on ≥ 2 cores.
        if smoke() && n == *sizes.last().unwrap() {
            if cores() >= 2 {
                assert!(
                    tt <= ts * 1.25,
                    "fork gate admits n={n} but threaded(4) is slower than serial \
                     ({:.2} ms vs {:.2} ms): PARALLEL_MIN_VOLUME needs recalibration",
                    tt * 1e3,
                    ts * 1e3,
                );
            } else {
                println!(
                    "gate guard skipped: 1 hardware thread (threaded timing is \
                     structural on this box)"
                );
            }
        }
    }
    group.finish();

    let abft_sizes: &[(usize, usize)] = if smoke() {
        &[(256, 5)]
    } else {
        // More minima samples at 512 (cheap pairs); fewer at 1024,
        // where each pair costs ~130 ms.
        &[(512, 33), (1024, 17)]
    };
    for &(n, iters) in abft_sizes {
        records.push(abft_overhead_record(n, iters));
    }
    records.push(dispatch_overhead_record());
    records.extend(gemm_shape_records());
    records.extend(level2_shape_records());
    write_bench_json("gemm", &records);
}

/// Serial GEMM throughput at the shapes FT `gehrd` issues, where per-call
/// costs (packing, pack-buffer checkout) weigh far more than in a square
/// benchmark: `(m, n, k, transa, transb)`.
const GEHRD_SHAPES: &[(usize, usize, usize, Trans, Trans)] = &[
    // Panel top at n = 256, nb = 32, k = 128: `Y·Vᵀ`, almost no flops.
    (129, 31, 32, Trans::No, Trans::Yes),
    // Trailing update at n = 256, nb = 32: `Yx·Vxᵀ`.
    (257, 224, 32, Trans::No, Trans::Yes),
    // `W = Vᵀ·A` of the left update at n = 256, nb = 32.
    (32, 225, 255, Trans::Yes, Trans::No),
    // Trailing update at n = 1024, nb = 64.
    (1025, 961, 64, Trans::No, Trans::Yes),
];

/// One `gemm_shape` record per [`GEHRD_SHAPES`] entry: serial GFLOP/s
/// from the per-call minimum, the shapes timed in strict rotation (the
/// `abft_overhead_record` method, so drift lands on every shape alike).
fn gemm_shape_records() -> Vec<Record> {
    let iters = if smoke() { 3 } else { 50 };
    let mut cases: Vec<(Matrix, Matrix, Matrix, f64)> = GEHRD_SHAPES
        .iter()
        .map(|&(m, n, k, ta, tb)| {
            let (ar, ac) = if ta == Trans::No { (m, k) } else { (k, m) };
            let (br, bc) = if tb == Trans::No { (k, n) } else { (n, k) };
            let a = ft_matrix::random::uniform(ar, ac, 7);
            let b = ft_matrix::random::uniform(br, bc, 8);
            (a, b, Matrix::zeros(m, n), f64::INFINITY)
        })
        .collect();
    with_backend(Backend::Serial, || {
        // One untimed round warms the workspace arena.
        for round in 0..=iters {
            for (&(_, _, _, ta, tb), (a, b, c, best)) in GEHRD_SHAPES.iter().zip(&mut cases) {
                let t0 = Instant::now();
                gemm(
                    ta,
                    tb,
                    -1.0,
                    &a.as_view(),
                    &b.as_view(),
                    1.0,
                    &mut c.as_view_mut(),
                );
                let dt = t0.elapsed().as_secs_f64();
                std::hint::black_box(c.as_slice()[0]);
                if round > 0 {
                    *best = best.min(dt);
                }
            }
        }
    });
    GEHRD_SHAPES
        .iter()
        .zip(&cases)
        .map(|(&(m, n, k, ta, tb), (_, _, _, best))| {
            let gflops = 2.0 * (m * n * k) as f64 / best / 1e9;
            println!(
                "gemm shape {m}x{n}x{k} {ta:?}/{tb:?}: {:.1} us, {gflops:.1} GFLOP/s (serial)",
                best * 1e6
            );
            Record::new()
                .str("kind", "gemm_shape")
                .int("m", m as u64)
                .int("n", n as u64)
                .int("k", k as u64)
                .str("transa", &format!("{ta:?}"))
                .str("transb", &format!("{tb:?}"))
                .num("serial_us", best * 1e6)
                .num("serial_gflops", gflops)
                .str("isa", active_simd_path())
                .int("cores", cores())
                .bool("smoke", smoke())
        })
        .collect()
}

/// A level-2 or `trmm` call of FT `gehrd`.
#[derive(Clone, Copy)]
enum Level2Op {
    /// `y ← α·op(A)·x + β·y` with `A` `m × n`: `(trans, alpha, beta)`.
    Gemv(Trans, f64, f64),
    /// The left update's `W ← Tᵀ·W`, `T` `m × m` upper triangular and
    /// `W` `m × n`.
    TrmmLeftUpperTrans,
}

/// The level-2 and `trmm` calls of FT `gehrd` at their n = 256, nb = 32
/// shapes (and the n = 1024 panel's `Vᵀ·b`): `(op, m, n)`.
const LEVEL2_SHAPES: &[(Level2Op, usize, usize)] = &[
    // `lahr2`'s `A·v` over the trailing columns.
    (Level2Op::Gemv(Trans::No, 1.0, 0.0), 255, 224),
    // `lahr2`'s right update of the current column, `b −= Y·vrow`.
    (Level2Op::Gemv(Trans::No, -1.0, 1.0), 223, 16),
    // `lahr2`'s `Vᵀ·b` at n = 256 and n = 1024.
    (Level2Op::Gemv(Trans::Yes, 1.0, 0.0), 223, 16),
    (Level2Op::Gemv(Trans::Yes, 1.0, 0.0), 991, 32),
    // The left update's `W₂ = Tᵀ·W`.
    (Level2Op::TrmmLeftUpperTrans, 32, 225),
];

/// The operands of one [`LEVEL2_SHAPES`] entry and its best time.
struct Level2Case {
    a: Matrix,
    x: Vec<f64>,
    /// The output, reset to `out0` before every call.
    out: Vec<f64>,
    out0: Vec<f64>,
    best: f64,
}

/// One `level2_shape` record per [`LEVEL2_SHAPES`] entry: the serial
/// per-call minimum with the shapes timed in strict rotation, as GB/s
/// for the memory-bound GEMVs (bytes from the shape: `A` and `x` read,
/// `y` read and written) and GFLOP/s for `trmm`.
fn level2_shape_records() -> Vec<Record> {
    let iters = if smoke() { 3 } else { 200 };
    let mut cases: Vec<Level2Case> = LEVEL2_SHAPES
        .iter()
        .map(|&(op, m, n)| {
            let (acols, xlen, outlen) = match op {
                Level2Op::Gemv(Trans::No, ..) => (n, n, m),
                Level2Op::Gemv(Trans::Yes, ..) => (n, m, n),
                Level2Op::TrmmLeftUpperTrans => (m, 0, m * n),
            };
            let out0 = ft_matrix::random::uniform(outlen, 1, 11).into_vec();
            Level2Case {
                a: ft_matrix::random::uniform(m, acols, 9),
                x: ft_matrix::random::uniform(xlen, 1, 10).into_vec(),
                out: out0.clone(),
                out0,
                best: f64::INFINITY,
            }
        })
        .collect();
    with_backend(Backend::Serial, || {
        // One untimed round warms the workspace arena.
        for round in 0..=iters {
            for (&(op, m, n), c) in LEVEL2_SHAPES.iter().zip(&mut cases) {
                let Level2Case {
                    a,
                    x,
                    out,
                    out0,
                    best,
                } = c;
                // Every call starts from the same output, which keeps
                // `trmm`'s in-place product bounded.
                out.copy_from_slice(out0);
                let t0 = Instant::now();
                match op {
                    Level2Op::Gemv(trans, alpha, beta) => {
                        gemv(trans, alpha, &a.as_view(), x, beta, out)
                    }
                    Level2Op::TrmmLeftUpperTrans => trmm(
                        Side::Left,
                        Uplo::Upper,
                        Trans::Yes,
                        Diag::NonUnit,
                        1.0,
                        &a.as_view(),
                        &mut MatViewMut::new(out, m, n, m),
                    ),
                }
                let dt = t0.elapsed().as_secs_f64();
                std::hint::black_box(out[0]);
                if round > 0 {
                    *best = best.min(dt);
                }
            }
        }
    });
    LEVEL2_SHAPES
        .iter()
        .zip(&cases)
        .map(
            |(
                &(op, m, n),
                Level2Case {
                    a, x, out, best, ..
                },
            )| {
                let (label, value, key, unit) = match op {
                    Level2Op::Gemv(trans, ..) => {
                        let bytes = 8 * (a.rows() * a.cols() + x.len() + 2 * out.len());
                        let label = if trans == Trans::No { "gemv" } else { "gemv_t" };
                        (label, bytes as f64 / best / 1e9, "serial_gbs", "GB/s")
                    }
                    Level2Op::TrmmLeftUpperTrans => {
                        let flops = ft_blas::flops::model::trmm(m, n) as f64;
                        let label = "trmm_left_upper_trans";
                        (label, flops / best / 1e9, "serial_gflops", "GFLOP/s")
                    }
                };
                println!(
                    "{label} {m}x{n}: {:.2} us, {value:.2} {unit} (serial)",
                    best * 1e6
                );
                Record::new()
                    .str("kind", "level2_shape")
                    .str("op", label)
                    .int("m", m as u64)
                    .int("n", n as u64)
                    .num("serial_us", best * 1e6)
                    .num(key, value)
                    .str("isa", active_simd_path())
                    .int("cores", cores())
                    .bool("smoke", smoke())
            },
        )
        .collect()
}

/// Measures the fused online-ABFT kernel against the plain path at the
/// trailing-update sizes the run covers: the checksum encode rides the
/// kernel's own passes and the verify re-reads each macro-tile once, so
/// the paper-style claim is overhead of a few percent, shrinking with
/// size (`O(n²)` fused work against `O(n³)` kernel work).
///
/// Methodology: the two paths are timed per call, strictly alternating
/// (plain, fused, plain, fused, …), and each keeps its minimum. Timing
/// noise on a shared box is one-sided — interruptions only ever add
/// time — so the per-call minimum estimates the undisturbed cost, and
/// alternation keeps slow drift (thermal, co-tenants) from landing on
/// one path only. Back-to-back block averages were seen to mis-state
/// this overhead by 3×.
fn abft_overhead_record(n: usize, iters: usize) -> Record {
    let a = ft_matrix::random::uniform(n, n, 5);
    let b = ft_matrix::random::uniform(n, n, 6);
    let mut cmat = Matrix::zeros(n, n);
    let plain = |cmat: &mut Matrix| {
        let t0 = Instant::now();
        gemm(
            Trans::No,
            Trans::No,
            1.0,
            &a.as_view(),
            &b.as_view(),
            0.0,
            &mut cmat.as_view_mut(),
        );
        std::hint::black_box(cmat.as_slice()[0]);
        t0.elapsed().as_secs_f64()
    };
    let fused = |cmat: &mut Matrix| {
        let t0 = Instant::now();
        let r = gemm_ft(
            Trans::No,
            Trans::No,
            1.0,
            &a.as_view(),
            &b.as_view(),
            0.0,
            &mut cmat.as_view_mut(),
            AbftOptions::default(),
        );
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(r.detected, 0, "clean bench run must not flag errors");
        std::hint::black_box(cmat.as_slice()[0]);
        dt
    };
    // Warm the workspace arena (both paths), then measure.
    plain(&mut cmat);
    fused(&mut cmat);
    let (mut tp, mut tf) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..iters {
        tp = tp.min(plain(&mut cmat));
        tf = tf.min(fused(&mut cmat));
    }
    let overhead_pct = 100.0 * (tf - tp) / tp;
    println!(
        "gemm_ft overhead @ n={n}: plain {:.2} ms, fused-abft {:.2} ms -> {overhead_pct:.2}%",
        tp * 1e3,
        tf * 1e3,
    );
    Record::new()
        .str("kind", "abft_overhead")
        .int("n", n as u64)
        .num("plain_ms", tp * 1e3)
        .num("fused_abft_ms", tf * 1e3)
        .num("ft_overhead_pct", overhead_pct)
        .str("isa", active_simd_path())
        .int("cores", cores())
        .bool("smoke", smoke())
}

/// Measures the pool's per-kernel dispatch overhead against the per-call
/// `std::thread::scope` spawn/join cycle it replaced, driving the public
/// `ft_blas::parallel_chunks_into` fan-out (the same path the FT
/// driver's checksum sweeps take) rather than ad-hoc probes. Also proves pool
/// reuse: the spawned-thread count must not move across thousands of
/// dispatches — both counters now live in the `ft_trace` registry.
fn dispatch_overhead_record() -> Record {
    const TASKS: usize = 4;
    // `parallel_chunks_into` gates on the *square* of the output length
    // (checksum-sweep semantics); 384² = 147456 clears the recalibrated
    // memory-bound fork gate (`PARALLEL_MIN_ELEMS` = 128 Ki), so every
    // call genuinely dispatches onto the pool while the 384-element fill
    // itself stays too small to drown the dispatch cost being measured.
    // The `dispatched_tasks` assert below keeps this honest: a future
    // gate recalibration that silently demotes the probe to the inline
    // fallback fails the bench instead of recording fallback timings as
    // pool dispatch.
    const LEN: usize = 384;
    let reps: u32 = if smoke() { 2_000 } else { 20_000 };
    let mut buf = vec![0.0f64; LEN];
    let fill = |i0: usize, chunk: &mut [f64]| {
        for (off, slot) in chunk.iter_mut().enumerate() {
            *slot = (i0 + off) as f64;
        }
    };
    // Warm the pool so the measurement excludes one-time thread creation.
    with_backend(Backend::Threaded(TASKS), || {
        ft_blas::parallel_chunks_into(&mut buf, fill);
    });
    let spawned_before = pool::spawned_worker_count();
    let dispatches_before = pool::dispatch_count();

    let t0 = Instant::now();
    with_backend(Backend::Threaded(TASKS), || {
        for _ in 0..reps {
            ft_blas::parallel_chunks_into(&mut buf, fill);
        }
    });
    let pool_ns = t0.elapsed().as_secs_f64() * 1e9 / reps as f64;
    std::hint::black_box(buf[LEN - 1]);

    // Baseline: the pre-pool implementation — a fresh spawn/join cycle
    // per call doing the identical chunked fill.
    let t0 = Instant::now();
    for _ in 0..reps {
        let chunk = LEN.div_ceil(TASKS);
        std::thread::scope(|s| {
            for (ci, block) in buf.chunks_mut(chunk).enumerate() {
                let base = ci * chunk;
                s.spawn(move || {
                    for (off, slot) in block.iter_mut().enumerate() {
                        *slot = (base + off) as f64;
                    }
                });
            }
        });
    }
    let spawn_ns = t0.elapsed().as_secs_f64() * 1e9 / reps as f64;
    std::hint::black_box(buf[LEN - 1]);

    let spawned_after = pool::spawned_worker_count();
    let dispatched = pool::dispatch_count() - dispatches_before;
    assert!(
        dispatched >= reps as u64,
        "dispatch probe fell below the fork gate (dispatched {dispatched} tasks over {reps} \
         calls): LEN² no longer clears PARALLEL_MIN_ELEMS"
    );
    println!(
        "pool dispatch ({TASKS} tasks): {pool_ns:.0} ns/call vs thread::scope spawn {spawn_ns:.0} \
         ns/call -> {:.1}x cheaper; {} worker threads total (unchanged across {reps} calls: {})",
        spawn_ns / pool_ns,
        spawned_after,
        spawned_after == spawned_before,
    );
    Record::new()
        .str("kind", "dispatch_overhead")
        .int("tasks_per_call", TASKS as u64)
        .int("reps", reps as u64)
        .num("pool_dispatch_ns_per_call", pool_ns)
        .num("thread_scope_spawn_ns_per_call", spawn_ns)
        .num("spawn_over_dispatch", spawn_ns / pool_ns)
        .int("pool_threads", spawned_after as u64)
        .bool(
            "no_spawn_during_measurement",
            spawned_after == spawned_before,
        )
        .int("dispatched_tasks", dispatched)
        .bool("smoke", smoke())
}

criterion_group!(benches, bench_gemm, bench_gemm_backends);
criterion_main!(benches);
