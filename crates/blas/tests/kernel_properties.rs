//! Property-based tests of the BLAS kernels' algebraic laws. The unit
//! tests check known answers; these check the *relationships* that the
//! factorization algorithms silently rely on, across random shapes.

use ft_blas::{axpy, dot, gemm, gemm_ref, gemm_with_algo, nrm2, scal, GemmAlgo, Trans};
use ft_matrix::{max_abs_diff, Matrix};
use proptest::prelude::*;

fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    ft_matrix::random::uniform(rows, cols, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// All GEMM implementations agree on arbitrary shapes.
    #[test]
    fn gemm_implementations_agree(
        m in 1usize..48,
        n in 1usize..48,
        k in 1usize..48,
        seed in any::<u64>(),
        ta in prop::bool::ANY,
        tb in prop::bool::ANY,
    ) {
        let ta = if ta { Trans::Yes } else { Trans::No };
        let tb = if tb { Trans::Yes } else { Trans::No };
        let a = match ta { Trans::No => mat(m, k, seed), Trans::Yes => mat(k, m, seed) };
        let b = match tb { Trans::No => mat(k, n, seed ^ 1), Trans::Yes => mat(n, k, seed ^ 1) };
        let mut c1 = mat(m, n, seed ^ 2);
        let mut c2 = c1.clone();
        gemm_ref(ta, tb, 1.3, &a.as_view(), &b.as_view(), 0.7, &mut c1.as_view_mut());
        gemm_with_algo(GemmAlgo::Blocked, ta, tb, 1.3, &a.as_view(), &b.as_view(), 0.7, &mut c2.as_view_mut());
        prop_assert!(max_abs_diff(&c1, &c2) < 1e-11);
    }

    /// (A·B)·C = A·(B·C) up to roundoff.
    #[test]
    fn gemm_associativity(
        m in 1usize..16,
        n in 1usize..16,
        k in 1usize..16,
        l in 1usize..16,
        seed in any::<u64>(),
    ) {
        let a = mat(m, k, seed);
        let b = mat(k, l, seed ^ 1);
        let c = mat(l, n, seed ^ 2);
        let mut ab = Matrix::zeros(m, l);
        gemm(Trans::No, Trans::No, 1.0, &a.as_view(), &b.as_view(), 0.0, &mut ab.as_view_mut());
        let mut abc1 = Matrix::zeros(m, n);
        gemm(Trans::No, Trans::No, 1.0, &ab.as_view(), &c.as_view(), 0.0, &mut abc1.as_view_mut());
        let mut bc = Matrix::zeros(k, n);
        gemm(Trans::No, Trans::No, 1.0, &b.as_view(), &c.as_view(), 0.0, &mut bc.as_view_mut());
        let mut abc2 = Matrix::zeros(m, n);
        gemm(Trans::No, Trans::No, 1.0, &a.as_view(), &bc.as_view(), 0.0, &mut abc2.as_view_mut());
        prop_assert!(max_abs_diff(&abc1, &abc2) < 1e-10 * (k * l) as f64);
    }

    /// Transpose identity: (A·B)ᵀ = Bᵀ·Aᵀ, expressed through the trans flags.
    #[test]
    fn gemm_transpose_identity(m in 1usize..20, n in 1usize..20, k in 1usize..20, seed in any::<u64>()) {
        let a = mat(m, k, seed);
        let b = mat(k, n, seed ^ 5);
        let mut ab = Matrix::zeros(m, n);
        gemm(Trans::No, Trans::No, 1.0, &a.as_view(), &b.as_view(), 0.0, &mut ab.as_view_mut());
        // (AB)ᵀ computed as Bᵀ·Aᵀ via flags on the original operands.
        let mut btat = Matrix::zeros(n, m);
        gemm(Trans::Yes, Trans::Yes, 1.0, &b.as_view(), &a.as_view(), 0.0, &mut btat.as_view_mut());
        prop_assert!(max_abs_diff(&ab.transpose(), &btat) < 1e-12);
    }

    /// dot is bilinear; nrm2 is absolutely homogeneous.
    #[test]
    fn level1_laws(len in 0usize..64, alpha in -10.0f64..10.0, seed in any::<u64>()) {
        let xsrc = mat(len.max(1), 1, seed);
        let ysrc = mat(len.max(1), 1, seed ^ 3);
        let x = &xsrc.as_slice()[..len];
        let y = &ysrc.as_slice()[..len];
        // dot(αx, y) = α·dot(x, y)
        let mut ax = x.to_vec();
        scal(alpha, &mut ax);
        prop_assert!((dot(&ax, y) - alpha * dot(x, y)).abs() < 1e-10 * (1.0 + alpha.abs()) * len.max(1) as f64);
        // ‖αx‖ = |α|·‖x‖
        prop_assert!((nrm2(&ax) - alpha.abs() * nrm2(x)).abs() < 1e-11 * (1.0 + alpha.abs()) * len.max(1) as f64);
        // axpy then axpy with −α is identity
        let mut z = y.to_vec();
        axpy(alpha, x, &mut z);
        axpy(-alpha, x, &mut z);
        for (a, b) in z.iter().zip(y) {
            prop_assert!((a - b).abs() < 1e-11 * (1.0 + alpha.abs()));
        }
    }

    /// Matrix 1-norm and ∞-norm are transpose twins.
    #[test]
    fn norm_duality(m in 1usize..24, n in 1usize..24, seed in any::<u64>()) {
        let a = mat(m, n, seed);
        prop_assert!((a.one_norm() - a.transpose().inf_norm()).abs() < 1e-12);
        prop_assert!((a.inf_norm() - a.transpose().one_norm()).abs() < 1e-12);
    }
}
