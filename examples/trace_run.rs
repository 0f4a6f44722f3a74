//! Emits a chrome://tracing timeline of one faulty FT-Hessenberg run —
//! the zero→aha demo of the `ft-trace` observability layer.
//!
//! Run with:
//!
//! ```text
//! FT_TRACE=chrome:trace.json FT_BLAS_BACKEND=threaded:4 \
//!     cargo run --release --example trace_run
//! ```
//!
//! then open `trace.json` in `chrome://tracing` (or Perfetto). Process 1
//! holds the wall-clock spans (`ft.*` phases, `gehrd.*`/`lahr2` panel
//! internals, `pool.*` dispatch); process 2 holds the simulated-platform
//! timeline (host lane 0, device streams on lanes 1+). When `FT_TRACE`
//! is unset the example defaults to `chrome:trace.json` so it always
//! produces an artifact.
//!
//! The per-phase breakdown is printed with or without tracing (the FT
//! driver times its own phases); the example exits non-zero if the
//! report carries none, e.g. under `FT_TRACE=off FT_TRACE_RECORDER=off`.

use ft_hess_repro::prelude::*;
use ft_hess_repro::trace;

fn main() {
    // Default to a chrome trace when the caller didn't pick a sink.
    if trace::env_knob::raw("FT_TRACE").is_none() {
        trace::set_mode(trace::TraceMode::Chrome("trace.json".into()));
    }

    let n = 256;
    let nb = 32;
    let a = ft_hess_repro::matrix::random::uniform(n, n, 7);

    // Two transient faults in different panel iterations: one in the
    // trailing matrix, one near the diagonal.
    let mut plan = FaultPlan::new(vec![
        ScheduledFault {
            iteration: 2,
            phase: Phase::IterationStart,
            fault: Fault::add(100, 180, 1.0),
        },
        ScheduledFault {
            iteration: 5,
            phase: Phase::IterationStart,
            fault: Fault::add(170, 171, 0.5),
        },
    ]);

    let cfg = FtConfig::with_nb(nb);
    let mut ctx = HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::Full, 2);
    let out = ft_gehrd_hybrid(&a, &cfg, &mut ctx, &mut plan);
    let report = &out.report;

    println!(
        "ft_gehrd_hybrid: n={n} nb={nb} backend={:?} -> {} recoveries, {} corrected elements",
        cfg.backend,
        report.recoveries.len(),
        report.corrections()
    );
    println!(
        "wall {:.1} ms, simulated {:.3} s ({:.1} GFLOP/s simulated)",
        report.wall_seconds * 1e3,
        report.sim_seconds,
        report.gflops()
    );

    if report.phases.is_empty() {
        eprintln!("the FT driver reported no per-phase breakdown");
        std::process::exit(1);
    }
    println!("\nper-phase wall-clock breakdown (paper Fig. 6 decomposition):");
    for (name, secs) in report.phases.rows() {
        println!("  {name:<10} {:>9.3} ms", secs * 1e3);
    }
    println!(
        "  {:<10} {:>9.3} ms ({:.1}% of wall is FT overhead)",
        "total",
        report.phases.total() * 1e3,
        100.0 * report.phases.ft_overhead() / report.wall_seconds.max(1e-12)
    );

    println!("\nregistry counters:");
    for (name, value) in trace::counters() {
        println!("  {name:<22} {value}");
    }

    match trace::finish() {
        Ok(Some(path)) => println!("\ntrace written to {}", path.display()),
        Ok(None) => println!("\nFT_TRACE sink disabled; no trace file written"),
        Err(e) => {
            eprintln!("failed to write trace: {e}");
            std::process::exit(1);
        }
    }

    let f = out.result.expect("full mode returns the factorization");
    assert!(f.h().is_upper_hessenberg());
}
