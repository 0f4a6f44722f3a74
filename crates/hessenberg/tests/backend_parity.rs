//! Parity of the fault-tolerant driver under the serial and the threaded
//! backend: clean runs must be bitwise identical, and fault campaigns must
//! produce the same detection, location, correction and final output on
//! both — the determinism contract of DESIGN.md §8. Across SIMD paths
//! the contract is stated for NaN: the same bits on every value that is
//! not NaN, and NaN at the same places (DESIGN.md §8.1).

use ft_blas::{with_simd_path, SimdPath};
use ft_fault::{Fault, FaultKind, FaultPlan, Phase, ScheduledFault};
use ft_hessenberg::ft_alg::{ft_gehrd_hybrid, FtConfig, FtOutcome};
use ft_hessenberg::tridiag::ft_sytd2;
use ft_hessenberg::verify::ResidualReport;
use ft_hessenberg::{FailureReason, FtReport};
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

/// The bits of every value, with all NaNs mapped to one pattern: when
/// two NaNs meet, x86 keeps the first operand's sign and payload, and the
/// compiler may order the operands of an add, multiply or fma
/// differently in each SIMD body.
fn value_bits(v: &[f64]) -> Vec<u64> {
    v.iter()
        .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
        .collect()
}

/// One episode: its iteration, whether it resolved, the value bits of its
/// mismatch and correction deltas, and the corrected positions.
type Episode = (usize, bool, Vec<u64>, Vec<(usize, usize)>);

/// What one run returns, NaN compared as NaN: the verdict, every episode
/// and correction, the simulated time, and the outputs.
#[derive(Debug, PartialEq)]
struct NanBlindRun {
    failure: Option<FailureReason>,
    unresolved: bool,
    episodes: Vec<Episode>,
    q_corrections: Vec<(usize, usize, Vec<u64>)>,
    tau_corrections: Vec<usize>,
    redone: usize,
    sim_seconds: u64,
    outputs: Vec<Vec<u64>>,
}

impl NanBlindRun {
    fn new(failure: Option<FailureReason>, report: &FtReport, outputs: &[&[f64]]) -> Self {
        NanBlindRun {
            failure,
            unresolved: report.any_unresolved(),
            episodes: report
                .recoveries
                .iter()
                .map(|e| {
                    let deltas: Vec<f64> = e.corrected.iter().map(|c| c.2).collect();
                    let mut bits = value_bits(&[e.mismatch]);
                    bits.extend(value_bits(&deltas));
                    let at = e.corrected.iter().map(|c| (c.0, c.1)).collect();
                    (e.iteration, e.resolved, bits, at)
                })
                .collect(),
            q_corrections: report
                .q_corrections
                .iter()
                .map(|&(r, c, d)| (r, c, value_bits(&[d])))
                .collect(),
            tau_corrections: report.tau_corrections.clone(),
            redone: report.redone_iterations,
            sim_seconds: report.sim_seconds.to_bits(),
            outputs: outputs.iter().map(|v| value_bits(v)).collect(),
        }
    }
}

/// Runs `run` under the portable path, then under `Avx2` and `Auto`
/// (AVX-512 where the CPU has it), and asserts every run matches the
/// portable one NaN-blind. Returns whether any output held a NaN.
fn assert_simd_paths_agree(what: &str, run: impl Fn() -> (NanBlindRun, bool)) -> bool {
    let (base, any_nan) = with_simd_path(SimdPath::Portable, &run);
    for path in [SimdPath::Avx2, SimdPath::Auto] {
        let (got, _) = with_simd_path(path, &run);
        assert_eq!(got, base, "{what}: {path:?} differs from the portable path");
    }
    any_nan
}

/// `Set(NaN)` strikes poison outputs, and the SIMD paths may then return
/// NaNs of different sign or payload — but nothing else may differ: the
/// verdict, every episode, the simulated time, every non-NaN output bit
/// and the NaN positions. The tridiagonal case is the one that first
/// showed a NaN sign differ between the AVX2 and portable paths.
#[test]
fn nan_strikes_agree_across_simd_paths_nan_blind() {
    let nan_at = |iteration, phase, row, col| {
        FaultPlan::new(vec![ScheduledFault {
            iteration,
            phase,
            fault: Fault {
                row,
                col,
                kind: FaultKind::Set(f64::NAN),
            },
        }])
    };
    let mut saw_nan = false;
    let a = ft_matrix::random::symmetric(48, 31);
    for cadence in [8, 32] {
        for phase in [Phase::IterationStart, Phase::BeforeDetection] {
            let what =
                format!("ft_sytd2 Set(NaN) at (35,36), group 0, {phase:?}, cadence {cadence}");
            saw_nan |= assert_simd_paths_agree(&what, || {
                let out = ft_sytd2(
                    &a,
                    &FtConfig::with_nb(cadence),
                    &mut nan_at(0, phase, 35, 36),
                );
                let r = &out.result;
                let outputs = [r.packed.as_slice(), &r.d, &r.e, &r.tau];
                let nan = outputs.iter().any(|v| v.iter().any(|x| x.is_nan()));
                (NanBlindRun::new(out.failure, &out.report, &outputs), nan)
            });
        }
    }
    let a = ft_matrix::random::uniform(64, 64, 11);
    for phase in [Phase::IterationStart, Phase::BeforeDetection] {
        let what = format!("ft_gehrd_hybrid Set(NaN) at (40,50), iteration 1, {phase:?}");
        saw_nan |= assert_simd_paths_agree(&what, || {
            let mut plan = nan_at(1, phase, 40, 50);
            let out = ft_gehrd_hybrid(
                &a,
                &cfg(16, ft_blas::Backend::Serial),
                &mut full_ctx(),
                &mut plan,
            );
            let r = out
                .result
                .as_ref()
                .expect("Full mode returns the factorization");
            let outputs = [r.packed.as_slice(), &r.tau];
            let nan = outputs.iter().any(|v| v.iter().any(|x| x.is_nan()));
            (NanBlindRun::new(out.failure, &out.report, &outputs), nan)
        });
    }
    assert!(
        saw_nan,
        "no run produced a NaN output, so the NaN rule went unexercised"
    );
}
