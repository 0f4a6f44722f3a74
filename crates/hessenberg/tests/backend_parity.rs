//! Parity of the fault-tolerant driver under the serial and the threaded
//! backend: clean runs must be bitwise identical, and fault campaigns must
//! produce the same detection, location, correction and final output on
//! both — the determinism contract of DESIGN.md §8.

use ft_fault::{Fault, FaultPlan, Phase, ScheduledFault};
use ft_hessenberg::ft_alg::{ft_gehrd_hybrid, FtConfig, FtOutcome};
use ft_hessenberg::verify::ResidualReport;
use ft_hybrid::{CostModel, ExecMode, HybridCtx};
use ft_matrix::Matrix;

fn full_ctx() -> HybridCtx {
    HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::Full, 2)
}

fn cfg(nb: usize, backend: ft_blas::Backend) -> FtConfig {
    FtConfig {
        backend,
        ..FtConfig::with_nb(nb)
    }
}

fn assert_bitwise_equal(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.rows(), b.rows());
    assert_eq!(a.cols(), b.cols());
    for j in 0..a.cols() {
        for i in 0..a.rows() {
            assert_eq!(
                a[(i, j)].to_bits(),
                b[(i, j)].to_bits(),
                "{what}: ({i},{j}) differs: {} vs {}",
                a[(i, j)],
                b[(i, j)]
            );
        }
    }
}

/// Detection/recovery behavior must match event for event, not just "both
/// recovered": same iterations redone, same elements corrected, same
/// resolution status, same injected-fault records.
fn assert_report_parity(ser: &FtOutcome, thr: &FtOutcome, what: &str) {
    assert_eq!(
        ser.report.redone_iterations, thr.report.redone_iterations,
        "{what}: redone iteration counts differ"
    );
    assert_eq!(
        ser.report.recoveries.len(),
        thr.report.recoveries.len(),
        "{what}: recovery event counts differ:\n  serial:   {:?}\n  threaded: {:?}",
        ser.report.recoveries,
        thr.report.recoveries
    );
    for (s, t) in ser.report.recoveries.iter().zip(&thr.report.recoveries) {
        assert_eq!(s.iteration, t.iteration, "{what}: recovery iteration");
        assert_eq!(s.resolved, t.resolved, "{what}: recovery resolution");
        assert_eq!(
            s.mismatch.to_bits(),
            t.mismatch.to_bits(),
            "{what}: Sre−Sce mismatch magnitude differs: {} vs {}",
            s.mismatch,
            t.mismatch
        );
        assert_eq!(s.corrected, t.corrected, "{what}: corrected elements");
    }
    assert_eq!(
        ser.report.injected, thr.report.injected,
        "{what}: applied-fault records differ"
    );
    assert_eq!(
        ser.failure.is_some(),
        thr.failure.is_some(),
        "{what}: terminal failure status differs"
    );
}

fn run_pair(a: &Matrix, nb: usize, mk_plan: impl Fn() -> FaultPlan) -> (FtOutcome, FtOutcome) {
    let run = |backend| ft_gehrd_hybrid(a, &cfg(nb, backend), &mut full_ctx(), &mut mk_plan());
    (
        run(ft_blas::Backend::Serial),
        run(ft_blas::Backend::Threaded(4)),
    )
}

#[test]
fn clean_runs_bit_identical_across_backends() {
    for &(n, nb) in &[(48usize, 8usize), (64, 16), (50, 7)] {
        let a = ft_matrix::random::uniform(n, n, n as u64 * 3 + 1);
        let (ser, thr) = run_pair(&a, nb, FaultPlan::none);
        for out in [&ser, &thr] {
            assert!(
                out.report.recoveries.is_empty(),
                "false positive (n={n}, nb={nb}): {:?}",
                out.report.recoveries
            );
        }
        let fs = ser.result.unwrap();
        let ft = thr.result.unwrap();
        assert_eq!(fs.tau, ft.tau, "taus differ (n={n}, nb={nb})");
        assert_bitwise_equal(&fs.packed, &ft.packed, "clean packed output");
    }
}

/// Faults injected right after the trailing updates ran
/// (`Phase::BeforeDetection`): detection and recovery must behave
/// identically whichever backend ran those updates.
#[test]
fn fault_before_detection_handled_identically() {
    let n = 64;
    let nb = 16;
    let a = ft_matrix::random::uniform(n, n, 23);
    // Iteration 1 reduces columns 16..32. Strike deep in its trailing
    // columns, in the next panel's columns, and in a later iteration.
    let strikes: &[(usize, usize, usize)] = &[(1, 40, 55), (1, 20, 33), (2, 60, 62)];
    for &(iter, row, col) in strikes {
        let mk = || {
            FaultPlan::new(vec![ScheduledFault {
                iteration: iter,
                phase: Phase::BeforeDetection,
                fault: Fault::add(row, col, 0.31),
            }])
        };
        let (ser, thr) = run_pair(&a, nb, mk);
        let what = format!("strike iter {iter} at ({row},{col})");
        assert_report_parity(&ser, &thr, &what);
        let fs = ser.result.unwrap();
        let ft = thr.result.unwrap();
        assert_eq!(fs.tau, ft.tau, "{what}: taus differ");
        assert_bitwise_equal(&fs.packed, &ft.packed, &what);
        let r = ResidualReport::compute(&a, &ft.q(), &ft.h());
        assert!(r.acceptable(1e-12), "{what}: {r:?}");
    }
}

/// Memory strikes present when an iteration starts (the paper's Figure 2
/// scenario) flow through that iteration's trailing updates as inputs.
/// Rollback, location and correction must match across backends.
#[test]
fn fault_at_iteration_start_recovers_identically() {
    let n = 64;
    let nb = 16;
    let a = ft_matrix::random::uniform(n, n, 29);
    for &(iter, row, col) in &[(1usize, 40usize, 50usize), (2, 55, 60)] {
        let mk = || FaultPlan::one(iter, Fault::add(row, col, 0.37));
        let (ser, thr) = run_pair(&a, nb, mk);
        let what = format!("iteration-start strike at ({row},{col})");
        for out in [&ser, &thr] {
            assert!(
                !out.report.recoveries.is_empty(),
                "{what}: fault must be detected"
            );
            assert!(
                out.report.recoveries[0]
                    .corrected
                    .iter()
                    .any(|&(r, c, _)| r == row && c == col),
                "{what}: fault must be located and corrected: {:?}",
                out.report.recoveries[0]
            );
        }
        assert_report_parity(&ser, &thr, &what);
        let fs = ser.result.unwrap();
        let ft = thr.result.unwrap();
        assert_eq!(fs.tau, ft.tau, "{what}: taus differ");
        assert_bitwise_equal(&fs.packed, &ft.packed, &what);
    }
}
