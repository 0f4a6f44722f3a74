//! The workspace arena hands out buffers with unspecified contents
//! (`ft_blas::workspace::scratch` does not zero-fill), so every GEMM
//! path must initialize everything it reads. This suite first poisons
//! the caller's and the pool workers' arenas with NaN — a GEMM on all-NaN
//! operands leaves NaN in every pack buffer it touched — and then checks
//! that ragged shapes still come out bit-identical to the oracle computed
//! before the poisoning.
//!
//! Its own test binary, so no other test shares (or refreshes) the pool
//! workers' arenas while it runs.

use ft_blas::{
    gemm_blocked, gemm_ft, gemm_ref, gemm_threaded, with_backend, with_simd_path, workspace,
    AbftOptions, Backend, SimdPath, Trans,
};
use ft_matrix::Matrix;

/// Ragged against the blocking: `m % MR ≠ 0`, `n % NR ≠ 0`, `k > KC` with
/// `k % KC ≠ 0`, one shape with several `MC` row blocks, and one above the
/// parallel gate with two ABFT bands (so `gemm_ft` splits into regions).
const SHAPES: &[(usize, usize, usize)] = &[
    (141, 139, 300),
    (13, 7, 259),
    (203, 53, 517),
    (37, 265, 517),
];

const TRANS: [(Trans, Trans); 4] = [
    (Trans::No, Trans::No),
    (Trans::No, Trans::Yes),
    (Trans::Yes, Trans::No),
    (Trans::Yes, Trans::Yes),
];

fn operands(ta: Trans, tb: Trans, m: usize, n: usize, k: usize, seed: u64) -> (Matrix, Matrix) {
    let a = match ta {
        Trans::No => ft_matrix::random::uniform(m, k, seed),
        Trans::Yes => ft_matrix::random::uniform(k, m, seed),
    };
    let b = match tb {
        Trans::No => ft_matrix::random::uniform(k, n, seed ^ 1),
        Trans::Yes => ft_matrix::random::uniform(n, k, seed ^ 1),
    };
    (a, b)
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Fills the caller's and the pool workers' pack buffers with NaN. Each
/// of the three worker tiles of the poison GEMM is at least as large as
/// every test shape's tiles and regions (`m ≥ MC`, `k ≥ KC`, 270 columns),
/// so its NaN covers every element a later checkout on that thread can
/// hand out. The caller's arena is also filled directly, so each of its
/// nested checkouts (pack buffers, ABFT aggregates) starts from NaN.
fn poison() {
    let (m, n, k) = (128, 810, 256);
    let a = Matrix::filled(m, k, f64::NAN);
    let b = Matrix::filled(k, n, f64::NAN);
    let mut c = Matrix::zeros(m, n);
    gemm_threaded(
        3,
        Trans::No,
        Trans::No,
        1.0,
        &a.as_view(),
        &b.as_view(),
        0.0,
        &mut c.as_view_mut(),
    );
    assert!(
        c.as_slice().iter().all(|v| v.is_nan()),
        "poison must reach C"
    );
    let held: Vec<_> = (0..6)
        .map(|_| {
            let mut s = workspace::scratch(m * n);
            s.fill(f64::NAN);
            s
        })
        .collect();
    drop(held);
}

#[test]
fn gemm_ignores_stale_nan_scratch() {
    for path in [SimdPath::Avx2, SimdPath::Portable] {
        with_simd_path(path, || {
            for (si, &(m, n, k)) in SHAPES.iter().enumerate() {
                for (ta, tb) in TRANS {
                    for beta in [0.0, -0.7] {
                        let (a, b) = operands(ta, tb, m, n, k, si as u64);
                        let c0 = ft_matrix::random::uniform(m, n, 7 + si as u64);
                        let (av, bv) = (a.as_view(), b.as_view());
                        let what = format!("{path:?} {m}x{n}x{k} {ta:?}/{tb:?} beta={beta}");

                        let mut expect = c0.clone();
                        gemm_ref(ta, tb, 1.3, &av, &bv, beta, &mut expect.as_view_mut());
                        let expect = bits(&expect);

                        poison();
                        let mut c = c0.clone();
                        gemm_ref(ta, tb, 1.3, &av, &bv, beta, &mut c.as_view_mut());
                        assert_eq!(bits(&c), expect, "reference, {what}");

                        poison();
                        let mut c = c0.clone();
                        gemm_blocked(ta, tb, 1.3, &av, &bv, beta, &mut c.as_view_mut());
                        assert_eq!(bits(&c), expect, "blocked, {what}");

                        poison();
                        let mut c = c0.clone();
                        gemm_threaded(3, ta, tb, 1.3, &av, &bv, beta, &mut c.as_view_mut());
                        assert_eq!(bits(&c), expect, "parallel(3), {what}");

                        poison();
                        let mut c = c0.clone();
                        let report = with_backend(Backend::Threaded(3), || {
                            let opts = AbftOptions::default();
                            gemm_ft(ta, tb, 1.3, &av, &bv, beta, &mut c.as_view_mut(), opts)
                        });
                        assert_eq!(report.detected, 0, "gemm_ft flagged a clean run, {what}");
                        assert_eq!(bits(&c), expect, "gemm_ft, {what}");
                    }
                }
            }
        });
    }
}
