//! Property-based tests of the factorization-level invariants: every
//! reduction must be a backward-stable orthogonal similarity across
//! random sizes, block widths and inputs.

use ft_blas::Trans;
use ft_lapack::gehrd::{factorization_residual, orthogonality_residual};
use ft_lapack::sytrd::sytd2;
use ft_lapack::{eigenvalues_hessenberg, gehd2, gehrd, GehrdConfig, HessFactorization};
use ft_matrix::Matrix;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Blocked and unblocked Hessenberg reductions produce the same
    /// packed output (same reflector sequence) for any (n, nb).
    #[test]
    fn blocked_equals_unblocked(n in 4usize..40, nb in 1usize..12, seed in any::<u64>()) {
        let a0 = ft_matrix::random::uniform(n, n, seed);
        let mut au = a0.clone();
        let tau_u = gehd2(&mut au);
        let mut ab = a0.clone();
        let tau_b = gehrd(&mut ab, &GehrdConfig { nb, nx: 1 });
        prop_assert!(ft_matrix::max_abs_diff(&au, &ab) < 1e-9, "packed outputs differ");
        for (x, y) in tau_u.iter().zip(&tau_b) {
            prop_assert!((x - y).abs() < 1e-10);
        }
    }

    /// The blocked reduction is bit-identical under the serial and the
    /// threaded backend for any shape, panel width and crossover.
    #[test]
    fn gehrd_bit_identical_across_backends(
        n in 4usize..64,
        nb in 1usize..12,
        nx in 0usize..10,
        seed in any::<u64>(),
    ) {
        let a0 = ft_matrix::random::uniform(n, n, seed);
        let cfg = GehrdConfig { nb, nx };
        let run = |backend| {
            ft_blas::with_backend(backend, || {
                let mut a = a0.clone();
                let tau = gehrd(&mut a, &cfg);
                (a, tau)
            })
        };
        let (a_ser, tau_ser) = run(ft_blas::Backend::Serial);
        let (a_thr, tau_thr) = run(ft_blas::Backend::Threaded(4));
        prop_assert_eq!(tau_ser, tau_thr);
        for j in 0..n {
            for i in 0..n {
                prop_assert!(
                    a_ser[(i, j)].to_bits() == a_thr[(i, j)].to_bits(),
                    "packed ({i},{j}) differs between Serial and Threaded(4)"
                );
            }
        }
    }

    /// The Hessenberg reduction is a backward-stable orthogonal
    /// similarity for arbitrary matrices.
    #[test]
    fn gehrd_residuals(n in 3usize..48, seed in any::<u64>(), scale in 1e-3f64..1e3) {
        let mut a0 = ft_matrix::random::uniform(n, n, seed);
        a0.scale(scale);
        let mut packed = a0.clone();
        let tau = gehrd(&mut packed, &GehrdConfig::default());
        let f = HessFactorization { packed, tau };
        let h = f.h();
        prop_assert!(h.is_upper_hessenberg());
        let q = f.q();
        prop_assert!(factorization_residual(&a0, &q, &h) < 1e-13);
        prop_assert!(orthogonality_residual(&q) < 1e-13);
    }

    /// Eigenvalues of H sum to the trace and come in conjugate pairs.
    #[test]
    fn hseqr_invariants(n in 1usize..32, seed in any::<u64>()) {
        let h = ft_matrix::random::hessenberg(n, seed);
        let evs = eigenvalues_hessenberg(&h).unwrap();
        prop_assert_eq!(evs.len(), n);
        let tr_h: f64 = (0..n).map(|i| h[(i, i)]).sum();
        let tr_e: f64 = evs.iter().map(|e| e.re).sum();
        prop_assert!((tr_h - tr_e).abs() < 1e-8 * (1.0 + tr_h.abs()), "{tr_h} vs {tr_e}");
        let im_sum: f64 = evs.iter().map(|e| e.im).sum();
        prop_assert!(im_sum.abs() < 1e-9);
    }

    /// Similarity invariance: gehrd(QᵀAQ) has the same spectrum as
    /// gehrd(A) for random orthogonal Q.
    #[test]
    fn spectrum_is_similarity_invariant(n in 3usize..20, seed in any::<u64>()) {
        let a = ft_matrix::random::uniform(n, n, seed);
        let q = ft_lapack::random_orthogonal(n, seed ^ 77);
        let mut qa = Matrix::zeros(n, n);
        ft_blas::gemm(Trans::Yes, Trans::No, 1.0, &q.as_view(), &a.as_view(), 0.0, &mut qa.as_view_mut());
        let mut qaq = Matrix::zeros(n, n);
        ft_blas::gemm(Trans::No, Trans::No, 1.0, &qa.as_view(), &q.as_view(), 0.0, &mut qaq.as_view_mut());

        let eig = |m: &Matrix| {
            let mut p = m.clone();
            let tau = gehrd(&mut p, &GehrdConfig::default());
            let f = HessFactorization { packed: p, tau };
            let mut evs = eigenvalues_hessenberg(&f.h()).unwrap();
            ft_lapack::hseqr::sort_eigenvalues(&mut evs);
            evs
        };
        let e1 = eig(&a);
        let e2 = eig(&qaq);
        for (x, y) in e1.iter().zip(&e2) {
            prop_assert!((x.re - y.re).abs() < 2e-6 && (x.im - y.im).abs() < 2e-6,
                "{x:?} vs {y:?}");
        }
    }

    /// Tridiagonal reduction of a symmetric matrix: orthogonal
    /// similarity with a symmetric tridiagonal result.
    #[test]
    fn sytd2_residuals(n in 1usize..40, seed in any::<u64>()) {
        let a0 = ft_matrix::random::symmetric(n, seed);
        let mut a = a0.clone();
        let f = sytd2(&mut a);
        let t = f.t();
        // T tridiagonal and symmetric by construction.
        for j in 0..n {
            for i in 0..n {
                if i.abs_diff(j) > 1 {
                    prop_assert_eq!(t[(i, j)], 0.0);
                }
            }
        }
        let q = f.q();
        prop_assert!(orthogonality_residual(&q) < 1e-13);
        prop_assert!(factorization_residual(&a0, &q, &t) < 1e-13);
    }
}
