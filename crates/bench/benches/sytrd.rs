//! Criterion bench: symmetric tridiagonal reduction — `sytd2` (the §VII
//! extension's substrate) against the fault-tolerant wrapper.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ft_fault::FaultPlan;
use ft_hessenberg::{ft_sytd2, FtConfig};
use ft_lapack::sytrd::sytd2;

fn bench_sytrd(c: &mut Criterion) {
    let mut group = c.benchmark_group("sytrd");
    group.sample_size(10);
    for &n in &[96usize, 192] {
        let a = ft_matrix::random::symmetric(n, 7);
        group.throughput(Throughput::Elements((4 * n * n * n / 3) as u64));

        group.bench_with_input(BenchmarkId::new("unblocked", n), &n, |bench, _| {
            bench.iter(|| {
                let mut w = a.clone();
                std::hint::black_box(sytd2(&mut w).d[0]);
            });
        });
        group.bench_with_input(BenchmarkId::new("ft_unblocked", n), &n, |bench, _| {
            bench.iter(|| {
                let out = ft_sytd2(&a, &FtConfig::default(), &mut FaultPlan::none());
                std::hint::black_box(out.result.d[0]);
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sytrd);
criterion_main!(benches);
