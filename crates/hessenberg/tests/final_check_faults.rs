//! Strikes the end-of-run check has to catch: finished reflector (`Q`)
//! storage and finished `H` entries, which no later iteration reads, so
//! the per-iteration aggregate test never sees them.
//!
//! The end-of-run check locates with the trailing-matrix matcher, corrects
//! a resolved pattern and locates again. A run either comes back with an
//! acceptable, finite factorization or flags itself; none may be silent.
//! Most strikes here land at the start of iteration 3 (`nb = 16`, so
//! columns `0..48` are finished), or of group 1 for the tridiagonal
//! driver. The rest land in the reflector storage of the panel (or group)
//! in flight, after its factorization wrote it and before detection: the
//! `Q` checksums encode the reflectors the run produced, so the end-of-run
//! check repairs those too.

use ft_fault::{Fault, FaultKind, FaultPlan, Phase, ScheduledFault};
use ft_hessenberg::tridiag::{ft_sytd2, FtTridiagOutcome};
use ft_hessenberg::verify::ResidualReport;
use ft_hessenberg::{ft_gehrd_hybrid, FailureReason, FtConfig, FtOutcome, FtReport};
use ft_hybrid::{CostModel, ExecMode, HybridCtx};
use ft_matrix::Matrix;

const N: usize = 64;
const NB: usize = 16;
/// Residual bound of an acceptable factorization.
const TOL: f64 = 1e-11;

fn strike(row: usize, col: usize, kind: FaultKind) -> ScheduledFault {
    ScheduledFault {
        iteration: 3,
        phase: Phase::IterationStart,
        fault: Fault { row, col, kind },
    }
}

fn run(a: &Matrix, faults: Vec<ScheduledFault>) -> FtOutcome {
    let mut ctx = HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::Full, 2);
    let mut plan = FaultPlan::new(faults);
    let out = ft_gehrd_hybrid(a, &FtConfig::with_nb(NB), &mut ctx, &mut plan);
    assert!(plan.is_exhausted(), "every strike must land");
    out
}

/// Whether the run flagged itself. The structured failure and the report
/// must agree on it.
fn verdict(failure: Option<FailureReason>, report: &FtReport) -> bool {
    let unresolved = report.any_unresolved();
    assert_eq!(
        failure.is_some(),
        unresolved,
        "failure {failure:?} vs recoveries {:?}",
        report.recoveries
    );
    unresolved
}

fn flagged(out: &FtOutcome) -> bool {
    verdict(out.failure, &out.report)
}

fn tridiag_flagged(out: &FtTridiagOutcome) -> bool {
    verdict(out.failure, &out.report)
}

fn acceptable(a: &Matrix, out: &FtOutcome) -> bool {
    let f = out
        .result
        .as_ref()
        .expect("full mode returns a factorization");
    ResidualReport::compute(a, &f.q(), &f.h()).acceptable(TOL)
}

#[test]
fn bit_flips_in_finished_storage_are_repaired() {
    // Q storage (row > col + 1) and finished H, both sub-diagonal entries
    // among them. None may be silent, and on this matrix none needs a
    // flag: at the bit-62 flips (and bits 57–61 on the sub-diagonal) a
    // first correction at overflow scale leaves the element's true value
    // behind, and the second round restores it.
    let a = ft_matrix::random::uniform(N, N, 64);
    let q = [(30, 5), (63, 0), (10, 7), (47, 45), (50, 20)];
    let h = [(2, 5), (0, 0), (6, 5), (20, 30), (45, 44)];
    for (row, col) in q.into_iter().chain(h) {
        for bit in 0..64 {
            let out = run(&a, vec![strike(row, col, FaultKind::BitFlip(bit))]);
            let what = format!(
                "bit {bit} at ({row},{col}); recoveries {:?}, q_corrections {:?}",
                out.report.recoveries, out.report.q_corrections
            );
            assert!(flagged(&out) || acceptable(&a, &out), "silent: {what}");
            assert!(!flagged(&out), "flagged: {what}");
        }
    }
}

#[test]
fn unresolvable_q_patterns_are_flagged() {
    let a = ft_matrix::random::uniform(N, N, 11);
    let add = |row, col, delta| strike(row, col, FaultKind::Add(delta));
    let cases = [
        (
            "cancelling pair in one column",
            vec![add(20, 5, 0.5), add(40, 5, -0.5)],
        ),
        (
            "cancelling pair in one row",
            vec![add(30, 5, 0.5), add(30, 9, -0.5)],
        ),
        (
            "equal-magnitude rectangle",
            vec![
                add(20, 5, 0.5),
                add(20, 9, 0.5),
                add(40, 5, 0.5),
                add(40, 9, 0.5),
            ],
        ),
        ("NaN", vec![strike(30, 5, FaultKind::Set(f64::NAN))]),
        ("+Inf", vec![strike(30, 5, FaultKind::Set(f64::INFINITY))]),
    ];
    for (what, faults) in cases {
        let out = run(&a, faults);
        assert_eq!(
            out.failure,
            Some(FailureReason::UnresolvedFinalCheck { iteration: 4 }),
            "{what}: q_corrections {:?}",
            out.report.q_corrections
        );
        assert!(out.report.any_unresolved(), "{what}");
        assert!(!acceptable(&a, &out), "{what} does corrupt Q");
    }
}

#[test]
fn single_q_strike_is_corrected_without_a_flag() {
    let a = ft_matrix::random::uniform(N, N, 11);
    let out = run(&a, vec![strike(30, 5, FaultKind::Add(0.5))]);
    assert!(!flagged(&out), "{:?}", out.report.recoveries);
    assert!(
        out.report.recoveries.is_empty(),
        "a clean Q repair logs no episode"
    );
    match out.report.q_corrections.as_slice() {
        &[(30, 5, delta)] => assert!((delta - 0.5).abs() < 1e-12, "{delta}"),
        other => panic!("one correction at (30,5) expected, got {other:?}"),
    }
    assert!(acceptable(&a, &out));
}

#[test]
fn tridiagonal_final_check_flags_cancelling_pair_and_nan() {
    let n = 48;
    let a = ft_matrix::random::symmetric(n, 25);
    let at_group_1 = |row, col, kind| ScheduledFault {
        iteration: 1,
        phase: Phase::IterationStart,
        fault: Fault { row, col, kind },
    };
    let cases = [
        (
            "cancelling pair in one column",
            vec![
                at_group_1(20, 5, FaultKind::Add(0.5)),
                at_group_1(40, 5, FaultKind::Add(-0.5)),
            ],
        ),
        ("NaN", vec![at_group_1(30, 5, FaultKind::Set(f64::NAN))]),
    ];
    for (what, faults) in cases {
        let mut plan = FaultPlan::new(faults);
        let out = ft_sytd2(&a, &FtConfig::default(), &mut plan);
        assert!(plan.is_exhausted(), "{what}: every strike must land");
        assert!(tridiag_flagged(&out), "{what}");
        let iteration = out.report.iterations;
        assert_eq!(
            out.failure,
            Some(FailureReason::UnresolvedFinalCheck { iteration }),
            "{what}"
        );
        let last = out.report.recoveries.last();
        assert!(
            last.is_some_and(|e| !e.resolved && e.iteration == out.report.iterations),
            "{what}: the final check must flag; recoveries {:?}",
            out.report.recoveries
        );
    }
}

/// A `+0.5` strike on reflector storage of the panel in flight, after
/// `lahr2` wrote it: `(iteration, row, col)` with the column inside the
/// iteration's panel.
#[test]
fn in_flight_panel_q_strikes_are_corrected_at_the_end() {
    let a = ft_matrix::random::uniform(N, N, 11);
    for (iteration, row, col) in [(1, 40, 20), (1, 63, 16), (2, 50, 33), (0, 30, 5)] {
        let out = run(
            &a,
            vec![ScheduledFault {
                iteration,
                phase: Phase::BeforeDetection,
                fault: Fault::add(row, col, 0.5),
            }],
        );
        let what = format!("({row},{col}) in iteration {iteration}");
        assert!(!flagged(&out), "{what}: {:?}", out.report.recoveries);
        match out.report.q_corrections.as_slice() {
            &[(r, c, delta)] => {
                assert_eq!((r, c), (row, col), "{what}");
                assert!((delta - 0.5).abs() < 1e-12, "{what}: {delta}");
            }
            other => panic!("{what}: one correction expected, got {other:?}"),
        }
        assert!(acceptable(&a, &out), "{what}");
    }
}

#[test]
fn tridiagonal_in_flight_group_q_strikes_are_corrected_at_the_end() {
    let n = 48;
    let a = ft_matrix::random::symmetric(n, 31);
    let cfg = FtConfig::with_nb(32);
    for (row, col) in [(40, 30), (30, 5)] {
        let mut plan = FaultPlan::new(vec![ScheduledFault {
            iteration: 0,
            phase: Phase::BeforeDetection,
            fault: Fault::add(row, col, 0.5),
        }]);
        let out = ft_sytd2(&a, &cfg, &mut plan);
        assert!(plan.is_exhausted(), "({row},{col}): the strike must land");
        assert!(
            !tridiag_flagged(&out),
            "({row},{col}): {:?}",
            out.report.recoveries
        );
        assert!(
            matches!(out.report.q_corrections.as_slice(), &[(r, c, _)] if (r, c) == (row, col)),
            "({row},{col}): {:?}",
            out.report.q_corrections
        );
        // Reflector storage feeds neither T nor a later group, so only Q
        // carries the correction's rounding.
        let clean = ft_sytd2(&a, &cfg, &mut FaultPlan::none()).result;
        assert_eq!(out.result.d, clean.d, "({row},{col})");
        assert_eq!(out.result.e, clean.e, "({row},{col})");
        let q_gap = ft_matrix::max_abs_diff(&out.result.q(), &clean.q());
        assert!(q_gap < 1e-12, "({row},{col}): Q differs by {q_gap}");
    }
}
