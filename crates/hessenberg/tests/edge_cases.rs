//! Edge cases of the fault-tolerant drivers: degenerate sizes, extreme
//! configurations, and unusual threshold policies — the inputs a
//! downstream user will eventually throw at the library.

use ft_fault::{Fault, FaultPlan};
use ft_hessenberg::tridiag::ft_sytd2;
use ft_hessenberg::{ft_gehrd_hybrid, gehrd_hybrid, FtConfig, HybridConfig, ThresholdPolicy};
use ft_hybrid::{CostModel, ExecMode, HybridCtx};
use ft_matrix::Matrix;

fn ctx() -> HybridCtx {
    HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::Full, 2)
}

fn residual(a0: &Matrix, f: &ft_lapack::HessFactorization) -> f64 {
    ft_lapack::gehrd::factorization_residual(a0, &f.q(), &f.h())
}

#[test]
fn tiny_matrices_all_sizes() {
    for n in 0..8usize {
        let a = ft_matrix::random::uniform(n, n, 100 + n as u64);
        let out = ft_gehrd_hybrid(
            &a,
            &FtConfig::with_nb(4),
            &mut ctx(),
            &mut FaultPlan::none(),
        );
        let f = out.result.unwrap();
        assert_eq!(f.packed.rows(), n);
        if n >= 1 {
            assert!(f.h().is_upper_hessenberg());
        }
        if n >= 3 {
            assert!(residual(&a, &f) < 1e-13, "n={n}");
        } else {
            // No reduction work: output equals input.
            assert_eq!(f.packed, a);
        }
    }
}

#[test]
fn nb_larger_than_matrix() {
    let n = 20;
    let a = ft_matrix::random::uniform(n, n, 5);
    let out = ft_gehrd_hybrid(
        &a,
        &FtConfig::with_nb(256),
        &mut ctx(),
        &mut FaultPlan::none(),
    );
    let f = out.result.unwrap();
    assert!(residual(&a, &f) < 1e-13);
}

#[test]
fn nb_one() {
    let n = 24;
    let a = ft_matrix::random::uniform(n, n, 6);
    let mut plan = FaultPlan::one(5, Fault::add(15, 18, 0.4));
    let out = ft_gehrd_hybrid(&a, &FtConfig::with_nb(1), &mut ctx(), &mut plan);
    assert!(!out.report.recoveries.is_empty());
    let f = out.result.unwrap();
    assert!(residual(&a, &f) < 1e-12);
}

#[test]
fn absolute_threshold_policy() {
    let n = 48;
    let a = ft_matrix::random::uniform(n, n, 7);
    let cfg = FtConfig {
        threshold: ThresholdPolicy::Absolute(1e-8),
        ..FtConfig::with_nb(16)
    };
    // Clean run: no false positives at a sane absolute threshold.
    let out = ft_gehrd_hybrid(&a, &cfg, &mut ctx(), &mut FaultPlan::none());
    assert!(out.report.recoveries.is_empty());
    // Fault above the threshold: detected.
    let mut plan = FaultPlan::one(1, Fault::add(30, 40, 1e-4));
    let out = ft_gehrd_hybrid(&a, &cfg, &mut ctx(), &mut plan);
    assert!(!out.report.recoveries.is_empty());
}

#[test]
fn zero_recovery_attempts_reencodes_and_flags() {
    // max_recovery_attempts = 0 means detection can only fall back to a
    // checksum re-encode; the run must still terminate and flag itself.
    let n = 64;
    let a = ft_matrix::random::uniform(n, n, 8);
    let cfg = FtConfig {
        max_recovery_attempts: 0,
        ..FtConfig::with_nb(16)
    };
    let mut plan = FaultPlan::one(1, Fault::add(40, 50, 0.5));
    let out = ft_gehrd_hybrid(&a, &cfg, &mut ctx(), &mut plan);
    assert!(
        out.report.recoveries.iter().any(|r| !r.resolved),
        "must record the unhandled detection"
    );
}

#[test]
fn zero_matrix_input() {
    let n = 32;
    let a = Matrix::zeros(n, n);
    let out = ft_gehrd_hybrid(
        &a,
        &FtConfig::with_nb(8),
        &mut ctx(),
        &mut FaultPlan::none(),
    );
    let f = out.result.unwrap();
    assert_eq!(f.h().max_abs(), 0.0);
    assert!(
        out.report.recoveries.is_empty(),
        "zero matrix must not false-positive"
    );
}

#[test]
fn identity_matrix_input() {
    let n = 32;
    let a = Matrix::identity(n);
    let out = ft_gehrd_hybrid(
        &a,
        &FtConfig::with_nb(8),
        &mut ctx(),
        &mut FaultPlan::none(),
    );
    let f = out.result.unwrap();
    assert!(residual(&a, &f) < 1e-14);
    assert!(out.report.recoveries.is_empty());
}

#[test]
fn large_magnitude_data() {
    // Data at 1e9 scale: the scaled threshold must track the magnitude
    // (no false positives), and a proportionally large fault is caught.
    let n = 48;
    let mut a = ft_matrix::random::uniform(n, n, 9);
    a.scale(1e9);
    let out = ft_gehrd_hybrid(
        &a,
        &FtConfig::with_nb(16),
        &mut ctx(),
        &mut FaultPlan::none(),
    );
    assert!(
        out.report.recoveries.is_empty(),
        "{:?}",
        out.report.recoveries.len()
    );
    let mut plan = FaultPlan::one(1, Fault::add(30, 40, 1e6));
    let out = ft_gehrd_hybrid(&a, &FtConfig::with_nb(16), &mut ctx(), &mut plan);
    assert!(!out.report.recoveries.is_empty());
    let f = out.result.unwrap();
    assert!(residual(&a, &f) < 1e-12);
}

#[test]
fn tiny_magnitude_data() {
    let n = 48;
    let mut a = ft_matrix::random::uniform(n, n, 10);
    a.scale(1e-9);
    let mut plan = FaultPlan::one(1, Fault::add(30, 40, 1e-11));
    let out = ft_gehrd_hybrid(&a, &FtConfig::with_nb(16), &mut ctx(), &mut plan);
    assert!(
        !out.report.recoveries.is_empty(),
        "relative fault must be caught"
    );
    let f = out.result.unwrap();
    assert!(residual(&a, &f) < 1e-12);
}

#[test]
fn baseline_hybrid_tiny_sizes() {
    for n in 0..6usize {
        let a = ft_matrix::random::uniform(n, n, 200 + n as u64);
        let out = gehrd_hybrid(
            &a,
            &HybridConfig { nb: 4 },
            &mut ctx(),
            &mut FaultPlan::none(),
        );
        assert_eq!(out.result.unwrap().packed.rows(), n);
    }
}

#[test]
fn ft_tridiag_tiny_sizes() {
    for n in 0..6usize {
        let base = ft_matrix::random::symmetric(n.max(1), 300 + n as u64);
        let a = base.sub_matrix(0, 0, n, n);
        let out = ft_sytd2(&a, &FtConfig::default(), &mut FaultPlan::none());
        assert_eq!(out.result.d.len(), n);
        assert!(out.report.recoveries.is_empty());
    }
}

#[test]
fn multiple_streams_full_mode() {
    // More streams must not change the numerics.
    let n = 48;
    let a = ft_matrix::random::uniform(n, n, 11);
    let mut c1 = HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::Full, 2);
    let mut c4 = HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::Full, 4);
    let f1 = ft_gehrd_hybrid(&a, &FtConfig::with_nb(16), &mut c1, &mut FaultPlan::none())
        .result
        .unwrap();
    let f4 = ft_gehrd_hybrid(&a, &FtConfig::with_nb(16), &mut c4, &mut FaultPlan::none())
        .result
        .unwrap();
    assert_eq!(
        f1.packed, f4.packed,
        "numerics must be stream-count independent"
    );
}
