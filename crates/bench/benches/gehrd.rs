//! Criterion bench: Hessenberg reduction variants — unblocked (`gehd2`)
//! vs blocked (`gehrd`) vs the simulated hybrid driver (Algorithm 2) —
//! plus the FT driver under the serial vs threaded level-3 backend.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ft_bench::{cores, write_bench_json, Record};
use ft_blas::{active_simd_path, Backend};
use ft_fault::FaultPlan;
use ft_hessenberg::{ft_gehrd_hybrid, gehrd_hybrid, FtConfig, HybridConfig};
use ft_hybrid::{CostModel, ExecMode, HybridCtx};
use ft_lapack::{gehd2, gehrd, GehrdConfig};
use std::time::Instant;

fn bench_gehrd(c: &mut Criterion) {
    let mut group = c.benchmark_group("gehrd");
    group.sample_size(10);
    for &n in &[96usize, 192] {
        let a = ft_matrix::random::uniform(n, n, 7);
        group.throughput(Throughput::Elements((10 * n * n * n / 3) as u64));

        group.bench_with_input(BenchmarkId::new("unblocked", n), &n, |bench, _| {
            bench.iter(|| {
                let mut w = a.clone();
                std::hint::black_box(gehd2(&mut w));
            });
        });
        group.bench_with_input(BenchmarkId::new("blocked_nb32", n), &n, |bench, _| {
            bench.iter(|| {
                let mut w = a.clone();
                std::hint::black_box(gehrd(&mut w, &GehrdConfig { nb: 32, nx: 4 }));
            });
        });
        group.bench_with_input(BenchmarkId::new("hybrid_sim", n), &n, |bench, _| {
            bench.iter(|| {
                let mut ctx = HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::Full, 2);
                let out = gehrd_hybrid(
                    &a,
                    &HybridConfig { nb: 32 },
                    &mut ctx,
                    &mut FaultPlan::none(),
                );
                std::hint::black_box(out.sim_seconds);
            });
        });
    }
    group.finish();
}

/// The FT driver's wall-clock time under the serial vs threaded level-3
/// backend. `n` and `nb` are sized so the trailing updates clear
/// `ft_blas::backend::PARALLEL_MIN_VOLUME` and the threaded backend
/// genuinely forks (the smoke run uses a smaller, sub-gate size).
fn bench_ft_backend(c: &mut Criterion) {
    let smoke = ft_bench::smoke();
    let (n, nb) = if smoke {
        (96usize, 16usize)
    } else {
        (384usize, 64usize)
    };
    let a = ft_matrix::random::uniform(n, n, 7);
    let mut group = c.benchmark_group("ft_gehrd_backend");
    group.sample_size(10);
    group.throughput(Throughput::Elements((10 * n * n * n / 3) as u64));
    for backend in [Backend::Serial, Backend::Threaded(4)] {
        let label = match backend {
            Backend::Serial => "serial".to_string(),
            Backend::Threaded(t) => format!("threaded{t}"),
        };
        let cfg = FtConfig {
            backend,
            ..FtConfig::with_nb(nb)
        };
        group.bench_with_input(BenchmarkId::new(label, n), &n, |bench, _| {
            bench.iter(|| {
                let mut ctx = HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::Full, 2);
                let out = ft_gehrd_hybrid(&a, &cfg, &mut ctx, &mut FaultPlan::none());
                std::hint::black_box(out.report.sim_seconds);
            });
        });
    }
    group.finish();
    // Direct wall-clock speedup report.
    let iters = if smoke { 1 } else { 2 };
    let time = |backend: Backend| {
        let cfg = FtConfig {
            backend,
            ..FtConfig::with_nb(nb)
        };
        let t0 = Instant::now();
        for _ in 0..iters {
            let mut ctx = HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::Full, 2);
            let out = ft_gehrd_hybrid(&a, &cfg, &mut ctx, &mut FaultPlan::none());
            std::hint::black_box(out.report.sim_seconds);
        }
        t0.elapsed().as_secs_f64() / iters as f64
    };
    let ts = time(Backend::Serial);
    let tt = time(Backend::Threaded(4));
    println!(
        "ft_gehrd backend speedup @ n={n}, nb={nb}: serial {:.1} ms, threaded(4) {:.1} ms -> {:.2}x",
        ts * 1e3,
        tt * 1e3,
        ts / tt
    );
    // 10n³/3 flops for the reduction (Q formation excluded) — the shared
    // nominal-flop helper, not a re-derivation.
    let gflops = |secs: f64| ft_blas::gehrd_gflops(n, secs);
    // All records go through one write: `write_bench_json` replaces the
    // previous records of the same smoke-ness wholesale per call.
    let records = vec![
        Record::new()
            .str("kind", "ft_gehrd_backend")
            .int("n", n as u64)
            .int("nb", nb as u64)
            .num("serial_ms", ts * 1e3)
            .num("threaded4_ms", tt * 1e3)
            .num("speedup", ts / tt)
            .num("serial_gflops", gflops(ts))
            .num("threaded4_gflops", gflops(tt))
            .str("isa", active_simd_path())
            .int("cores", cores())
            .bool("smoke", smoke),
        phase_breakdown_record(&a, n, nb, smoke),
    ];
    write_bench_json("gehrd", &records);
}

/// One more run of the FT driver under the threaded backend, producing
/// the per-phase wall-clock breakdown record embedded in BENCH_gehrd.json
/// — the paper's Figure 6 decomposition. The driver times its own
/// phases, so the run needs no trace mode of its own.
fn phase_breakdown_record(a: &ft_matrix::Matrix, n: usize, nb: usize, smoke: bool) -> Record {
    let cfg = FtConfig {
        backend: Backend::Threaded(4),
        ..FtConfig::with_nb(nb)
    };
    let mut ctx = HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::Full, 2);
    let out = ft_gehrd_hybrid(a, &cfg, &mut ctx, &mut FaultPlan::none());

    let ph = &out.report.phases;
    let wall = out.report.wall_seconds;
    let mut rec = Record::new()
        .str("kind", "ft_gehrd_phase_breakdown")
        .int("n", n as u64)
        .int("nb", nb as u64)
        .num("wall_ms", wall * 1e3)
        .num("phase_total_ms", ph.total() * 1e3)
        .num("phase_cover_ratio", ph.total() / wall.max(1e-12))
        .num("ft_overhead_ms", ph.ft_overhead() * 1e3)
        .num(
            "ft_overhead_pct",
            100.0 * ph.ft_overhead() / wall.max(1e-12),
        );
    for (name, secs) in ph.rows() {
        rec = rec.num(&format!("phase_{name}_ms"), secs * 1e3);
    }
    rec.str("isa", active_simd_path())
        .int("cores", cores())
        .bool("smoke", smoke)
}

criterion_group!(benches, bench_gehrd, bench_ft_backend);
criterion_main!(benches);
