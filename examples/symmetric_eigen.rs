//! The paper's §VII generalization claim, demonstrated end-to-end: the
//! same ABFT + diskless-checkpoint + reverse-computation methodology
//! applied to a *second* two-sided factorization — symmetric tridiagonal
//! reduction — feeding a tridiagonal QL eigensolver, with soft errors
//! striking along the way.
//!
//! Run with: `cargo run --release --example symmetric_eigen`

use ft_hess_repro::blas::Trans;
use ft_hess_repro::hessenberg::tridiag::ft_sytd2;
use ft_hess_repro::lapack::random_orthogonal;
use ft_hess_repro::lapack::sytrd::steqr_eigenvalues;
use ft_hess_repro::prelude::*;

fn main() {
    let n = 96;
    // Known spectrum, symmetric matrix A = P·diag(λ)·Pᵀ.
    let spectrum: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
    let d = Matrix::from_fn(n, n, |i, j| if i == j { spectrum[i] } else { 0.0 });
    let p = random_orthogonal(n, 4);
    let mut pd = Matrix::zeros(n, n);
    ft_hess_repro::blas::gemm(
        Trans::No,
        Trans::No,
        1.0,
        &p.as_view(),
        &d.as_view(),
        0.0,
        &mut pd.as_view_mut(),
    );
    let mut a = Matrix::zeros(n, n);
    ft_hess_repro::blas::gemm(
        Trans::No,
        Trans::Yes,
        1.0,
        &pd.as_view(),
        &p.as_view(),
        0.0,
        &mut a.as_view_mut(),
    );

    println!("FT symmetric eigensolver: N = {n}");

    // Three soft errors across the factorization — including the hardest
    // case, a symmetric-consistent *diagonal* corruption.
    let mut plan = FaultPlan::new(vec![
        ScheduledFault {
            iteration: 0,
            phase: Phase::IterationStart,
            fault: Fault::add(40, 60, 0.8),
        },
        ScheduledFault {
            iteration: 1,
            phase: Phase::IterationStart,
            fault: Fault::add(50, 50, -0.6),
        },
        ScheduledFault {
            iteration: 2,
            phase: Phase::IterationStart,
            fault: Fault::bitflip(80, 70, 48),
        },
    ]);

    let out = ft_sytd2(&a, &FtConfig::default(), &mut plan);
    println!(
        "injected {} faults; {} recovery episodes; {} group re-executions; {} Q fixes",
        out.report.injected.len(),
        out.report.recoveries.len(),
        out.report.redone_iterations,
        out.report.q_corrections.len()
    );

    let mut eigs = steqr_eigenvalues(&out.result.d, &out.result.e).expect("QL converges");
    let mut expected = spectrum.clone();
    expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
    eigs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let worst = eigs
        .iter()
        .zip(&expected)
        .map(|(e, x)| (e - x).abs())
        .fold(0.0f64, f64::max);
    println!("worst eigenvalue error: {worst:.3e}");
    assert!(worst < 1e-10, "spectrum must survive all three faults");
    println!("OK: the symmetric eigenvalue pipeline survived three soft errors.");
}
