//! Service throughput/latency bench: drives the closed-loop load
//! generator against a running `ft-serve` instance and drops the
//! headline numbers (throughput, exact p50/p95/p99 latency per priority,
//! fault-recovery accounting) into `BENCH_serve.json`.
//!
//! Not a criterion target: one load-generator run *is* the measurement —
//! statistical resampling of a 64-job closed loop would measure the OS
//! scheduler, not the service. `FT_BENCH_SMOKE=1` shrinks the mix for CI.

use ft_bench::{cores, loadgen_records, service_records, smoke, write_bench_json, Record};
use ft_blas::active_simd_path;
use ft_serve::{loadgen, LoadgenConfig, Service, ServiceConfig, Shutdown};
use std::time::Duration;

fn run_mix(label: &str, workers: usize, cfg: &LoadgenConfig) -> Vec<Record> {
    let service = Service::start(ServiceConfig {
        workers,
        queue_capacity: 16,
        ..ServiceConfig::default()
    });
    let backend = service.worker_backend();
    println!(
        "serve bench [{label}]: {} workers x {:?}, {} clients, {} jobs",
        service.worker_count(),
        backend,
        cfg.clients,
        cfg.jobs
    );
    let summary = loadgen::run(&service, cfg);
    let stats = service.shutdown(Shutdown::Drain);

    let violations = summary.violations();
    assert!(
        violations.is_empty(),
        "service contract violated under load: {violations:?}"
    );

    let mut records = Vec::new();
    for mut rec in loadgen_records(&summary) {
        rec = rec
            .str("mix", label)
            .int("workers", workers as u64)
            .str("isa", active_simd_path())
            .int("cores", cores())
            .bool("smoke", smoke());
        records.push(rec);
    }
    for rec in service_records(&stats) {
        records.push(
            rec.str("mix", label)
                .str("isa", active_simd_path())
                .int("cores", cores()),
        );
    }
    records
}

fn main() {
    let (jobs, sizes) = if smoke() {
        (64, vec![16usize, 24, 32])
    } else {
        (128, vec![24usize, 32, 48, 64, 96])
    };

    let mut records = Vec::new();
    // Mixed faulty/clean load, the acceptance-criteria mix.
    records.extend(run_mix(
        "mixed_faults",
        2,
        &LoadgenConfig {
            clients: 4,
            jobs,
            sizes: sizes.clone(),
            fault_fraction: 0.25,
            weak_fraction: 0.5,
            submit_timeout: Duration::from_secs(300),
            ..LoadgenConfig::default()
        },
    ));
    // Fault-free baseline on the same mix: the service-layer overhead
    // comparison (queueing + scheduling vs pure reduction time).
    records.extend(run_mix(
        "clean_baseline",
        2,
        &LoadgenConfig {
            clients: 4,
            jobs,
            sizes,
            fault_fraction: 0.0,
            weak_fraction: 0.0,
            submit_timeout: Duration::from_secs(300),
            ..LoadgenConfig::default()
        },
    ));

    write_bench_json("serve", &records);
}
