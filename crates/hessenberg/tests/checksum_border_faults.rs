//! Strikes on the checksum borders of the extended matrix, through the
//! real driver.
//!
//! A corrupted stored checksum entry breaks only its own relation: after
//! the reversal, `locate_errors` sees one deficient row (a checksum-column
//! entry) or one deficient column (a checksum-row entry) and nothing on
//! the other axis. The matcher reads that as a checksum fault, so the
//! driver re-encodes the checksums from the intact data, re-executes the
//! iteration, and does not flag the run.
//!
//! The sweep strikes every panel iteration of an n = 96, nb = 16 run, in
//! both injection phases, at three rows of the checksum column (0, k+1,
//! n−1) and three columns of the checksum row (k, k+nb, n−1).

use ft_fault::{Fault, FaultPlan, Phase, ScheduledFault};
use ft_hessenberg::verify::ResidualReport;
use ft_hessenberg::{ft_gehrd_hybrid, FtConfig, FtOutcome};
use ft_hybrid::{CostModel, ExecMode, HybridCtx};
use ft_matrix::Matrix;

const N: usize = 96;
const NB: usize = 16;
/// Residual bound of an acceptable factorization.
const TOL: f64 = 1e-11;

fn run(a: &Matrix, faults: Vec<ScheduledFault>) -> FtOutcome {
    let mut ctx = HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::Full, 2);
    let mut plan = FaultPlan::new(faults);
    let out = ft_gehrd_hybrid(a, &FtConfig::with_nb(NB), &mut ctx, &mut plan);
    assert!(plan.is_exhausted(), "every strike must land");
    out
}

/// Whether the run flagged itself. The structured failure and the report
/// must agree on it.
fn flagged(out: &FtOutcome) -> bool {
    let unresolved = out.report.any_unresolved();
    assert_eq!(
        out.failure.is_some(),
        unresolved,
        "failure {:?} vs recoveries {:?}",
        out.failure,
        out.report.recoveries
    );
    unresolved
}

/// Residual-acceptable and finite: the residual norms skip NaN entries,
/// so they alone would pass a NaN-filled factorization.
fn acceptable(a: &Matrix, out: &FtOutcome) -> bool {
    let f = out
        .result
        .as_ref()
        .expect("full mode returns a factorization");
    f.packed.as_slice().iter().all(|v| v.is_finite())
        && ResidualReport::compute(a, &f.q(), &f.h()).acceptable(TOL)
}

/// Every `(iteration, phase, row, col)` of the sweep, in extended-matrix
/// coordinates (row or column `N` is the checksum border).
fn border_strikes() -> Vec<(usize, Phase, usize, usize)> {
    let mut out = vec![];
    for (iteration, k) in (0..N - 2).step_by(NB).enumerate() {
        let positions = [
            (0, N),
            (k + 1, N),
            (N - 1, N),
            (N, k),
            (N, (k + NB).min(N - 1)),
            (N, N - 1),
        ];
        for phase in [Phase::IterationStart, Phase::BeforeDetection] {
            for &(row, col) in &positions {
                out.push((iteration, phase, row, col));
            }
        }
    }
    out
}

fn strike(iteration: usize, phase: Phase, row: usize, col: usize, delta: f64) -> ScheduledFault {
    ScheduledFault {
        iteration,
        phase,
        fault: Fault::add(row, col, delta),
    }
}

#[test]
fn border_strikes_are_repaired_without_a_flag() {
    let a = ft_matrix::random::uniform(N, N, N as u64);
    for delta in [1e-4, 0.37, -2.5, 1e3] {
        for (iteration, phase, row, col) in border_strikes() {
            let out = run(&a, vec![strike(iteration, phase, row, col, delta)]);
            let what = format!("Δ={delta:e} it={iteration} {phase:?} ({row},{col})");
            assert!(
                !flagged(&out),
                "{what}: failure={:?} recoveries={:?}",
                out.failure,
                out.report.recoveries
            );
            assert!(acceptable(&a, &out), "{what}");
        }
    }
}

#[test]
fn tiny_border_strikes_are_never_silent() {
    // Δ = 1e−9 sits near the locate tolerance, where a lone one-sided
    // deficit may be a data fault whose partner fell under it: flagging
    // is allowed there, a wrong unflagged result is not.
    let a = ft_matrix::random::uniform(N, N, N as u64);
    for (iteration, phase, row, col) in border_strikes() {
        let out = run(&a, vec![strike(iteration, phase, row, col, 1e-9)]);
        assert!(
            flagged(&out) || acceptable(&a, &out),
            "silent: it={iteration} {phase:?} ({row},{col})"
        );
    }
}

#[test]
fn control_a_data_fault_is_located_and_corrected() {
    // The same strike on a data element of the trailing block: the
    // reversal leaves a matched row/column deficit pair, which the locate
    // step turns into a correction at that element.
    let a = ft_matrix::random::uniform(N, N, N as u64);
    let out = run(&a, vec![strike(1, Phase::IterationStart, 40, 50, 0.37)]);
    assert!(!flagged(&out), "{:?}", out.report.recoveries);
    let rec = out.report.recoveries.first().expect("the detector fires");
    assert!(
        rec.corrected.iter().any(|&(r, c, _)| (r, c) == (40, 50)),
        "{rec:?}"
    );
    assert!(acceptable(&a, &out));
}
