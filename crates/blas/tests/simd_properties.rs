//! Property suite for the register-tiled SIMD microkernel.
//!
//! The contract pinned here is **bit-identity**: the AVX2 path, the
//! scalar fallback, and every thread count produce the *same bits* for
//! every transpose combination, odd/prime shape, strided sub-view, and
//! alpha/beta edge case. This is what lets the FT driver treat ISA and
//! thread count as pure performance knobs: checksums, detection
//! thresholds, and reversal exactness never depend on them.

use ft_blas::{
    gemm_blocked, gemm_ref, gemm_threaded, gemv, ger, trmm, trmv, with_backend, with_simd_path,
    Backend, Diag, Side, SimdPath, Trans, Uplo,
};
use ft_matrix::Matrix;
use proptest::prelude::*;

/// Odd and prime-heavy sides: every microkernel edge case (ragged tile
/// bottoms, partial panels, single rows/columns) appears in this list.
const SIDES: &[usize] = &[1, 2, 3, 5, 7, 8, 11, 13, 17, 23, 31, 37, 41, 53, 61, 67];

fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    ft_matrix::random::uniform(rows, cols, seed)
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Every (ISA path, backend) pair the level-2 and `trmm` suites compare
/// against the portable serial baseline. `Avx2` silently falls back to
/// the portable path on CPUs without the features.
const PATHS: [SimdPath; 2] = [SimdPath::Portable, SimdPath::Avx2];
const BACKENDS: [Backend; 3] = [Backend::Serial, Backend::Threaded(2), Backend::Threaded(4)];

/// The bits of every value, with all NaNs mapped to one pattern. When
/// two NaN operands meet, IEEE 754 leaves open which payload and sign
/// the result carries: x86 returns the first operand's, and the compiler
/// may commute a commutative add or multiply. Every other value, the
/// sign of zero included, is compared bit for bit.
fn value_bits(v: &[f64]) -> Vec<u64> {
    v.iter()
        .map(|x| {
            if x.is_nan() {
                f64::NAN.to_bits()
            } else {
                x.to_bits()
            }
        })
        .collect()
}

/// Runs `f` under the portable serial baseline, then under every
/// (path, backend) pair, and asserts each result has the baseline's
/// [`value_bits`], which it returns.
fn assert_same_bits_everywhere(label: &str, f: impl Fn() -> Vec<f64>) -> Vec<u64> {
    let base = value_bits(&with_simd_path(SimdPath::Portable, || {
        with_backend(Backend::Serial, &f)
    }));
    for path in PATHS {
        for backend in BACKENDS {
            let got = value_bits(&with_simd_path(path, || with_backend(backend, &f)));
            if let Some(k) = (0..got.len()).find(|&k| got[k] != base[k]) {
                panic!(
                    "{label}: bits diverge under {path:?} {backend:?} at {k}: {:#x} vs {:#x}",
                    got[k], base[k]
                );
            }
        }
    }
    base
}

/// Overwrites a seeded ~1/8 of `v` with values that exercise the
/// zero-skip and special-value paths: ±0.0, NaN and ±Inf.
fn sprinkle_specials(v: &mut [f64], seed: u64) {
    const SPECIALS: [f64; 5] = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let mut state = seed;
    for x in v.iter_mut() {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        if z.is_multiple_of(8) {
            *x = SPECIALS[(z >> 8) as usize % SPECIALS.len()];
        }
    }
}

/// Column counts of the `lahr2` panel GEMVs: every ragged group width of
/// the 8-column `gemv` fold and `gemv^T` block, plus a few just past a
/// multiple of eight.
const PANEL_COLS: &[usize] = &[1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 33, 65];

/// `gemv` written as the one-column-at-a-time loops its contract is
/// stated in: `β` applied first, then per column either the update by
/// `α·x[j]` (skipped when exactly zero) or a dot product from `+0.0`.
fn gemv_reference(trans: Trans, alpha: f64, a: &Matrix, x: &[f64], beta: f64, y: &mut [f64]) {
    let (m, n) = (a.rows(), a.cols());
    if beta == 0.0 {
        y.fill(0.0);
    } else if beta != 1.0 {
        for v in y.iter_mut() {
            *v *= beta;
        }
    }
    if alpha == 0.0 || m == 0 || n == 0 {
        return;
    }
    for j in 0..n {
        match trans {
            Trans::No => {
                let axj = alpha * x[j];
                if axj != 0.0 {
                    for i in 0..m {
                        y[i] += axj * a[(i, j)];
                    }
                }
            }
            Trans::Yes => {
                let mut s = 0.0;
                for i in 0..m {
                    s += a[(i, j)] * x[i];
                }
                y[j] += alpha * s;
            }
        }
    }
}

/// `gemv` in both orientations, with exact zeros in `x` (so some columns
/// are skipped) and ±0.0/NaN/±Inf sprinkled through `A` and `x` when
/// `specials` is set. The portable serial result must also match
/// [`gemv_reference`].
#[allow(clippy::too_many_arguments)]
fn check_gemv(
    m: usize,
    n: usize,
    pad: usize,
    seed: u64,
    trans: Trans,
    alpha: f64,
    beta: f64,
    specials: bool,
) {
    let (xl, yl) = match trans {
        Trans::No => (n, m),
        Trans::Yes => (m, n),
    };
    let mut ap = mat(m + 2 * pad, n + pad, seed);
    let mut x = mat(xl, 1, seed ^ 1).as_slice().to_vec();
    for v in x.iter_mut().step_by(3) {
        *v = 0.0;
    }
    if specials {
        sprinkle_specials(ap.as_mut_slice(), seed ^ 5);
        sprinkle_specials(&mut x, seed ^ 6);
    }
    let y0 = mat(yl, 1, seed ^ 2).as_slice().to_vec();
    let label =
        format!("gemv {trans:?} m={m} n={n} pad={pad} α={alpha} β={beta} specials={specials}");
    let base = assert_same_bits_everywhere(&label, || {
        let mut y = y0.clone();
        gemv(trans, alpha, &ap.view(pad, pad, m, n), &x, beta, &mut y);
        y
    });
    let mut want = y0.clone();
    let a = ap.view(pad, pad, m, n).to_owned_matrix();
    gemv_reference(trans, alpha, &a, &x, beta, &mut want);
    assert_eq!(
        base,
        value_bits(&want),
        "{label}: differs from the reference loops"
    );
}

/// `trmm` for every side/uplo/trans/diag and α ∈ {1, −0.5} on a strided
/// `order`-sided triangle and `B`, plus `trmv` for every uplo/trans/diag
/// on the first column of `B`.
fn check_trmm_trmv(order: usize, other: usize, pad: usize, seed: u64, specials: bool) {
    let mut tp = mat(order + pad, order + pad, seed);
    let mut bp = mat(order + pad, other + pad, seed ^ 1);
    let mut bp_right = mat(other + pad, order + pad, seed ^ 2);
    if specials {
        sprinkle_specials(tp.as_mut_slice(), seed ^ 3);
        sprinkle_specials(bp.as_mut_slice(), seed ^ 4);
        sprinkle_specials(bp_right.as_mut_slice(), seed ^ 5);
    }
    let t = tp.view(pad, pad, order, order);
    for uplo in [Uplo::Upper, Uplo::Lower] {
        for trans in [Trans::No, Trans::Yes] {
            for diag in [Diag::Unit, Diag::NonUnit] {
                for alpha in [1.0, -0.5] {
                    for side in [Side::Left, Side::Right] {
                        let b0 = if side == Side::Left { &bp } else { &bp_right };
                        let (r, c) = if side == Side::Left {
                            (order, other)
                        } else {
                            (other, order)
                        };
                        assert_same_bits_everywhere(
                            &format!(
                                "trmm {side:?} {uplo:?} {trans:?} {diag:?} α={alpha} \
                                 order={order} other={other} pad={pad} specials={specials}"
                            ),
                            || {
                                let mut b = b0.clone();
                                trmm(
                                    side,
                                    uplo,
                                    trans,
                                    diag,
                                    alpha,
                                    &t,
                                    &mut b.view_mut(pad, pad, r, c),
                                );
                                b.as_slice().to_vec()
                            },
                        );
                    }
                }
                assert_same_bits_everywhere(
                    &format!("trmv {uplo:?} {trans:?} {diag:?} order={order} specials={specials}"),
                    || {
                        let mut x = bp.view(pad, pad, order, 1).col(0).to_vec();
                        trmv(uplo, trans, diag, &t, &mut x);
                        x
                    },
                );
            }
        }
    }
}

/// alpha/beta generator covering the special-cased values and a generic
/// one.
fn scalar() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(1.0),
        Just(-1.0),
        0.25f64..2.0,
        -2.0f64..-0.25,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Every (ISA, algorithm, thread count) combination produces the same
    /// bits — including untouched parent-matrix elements around the
    /// strided sub-views, which also proves no out-of-view writes.
    #[test]
    fn gemm_bit_identical_across_isa_and_threads(
        mi in 0usize..SIDES.len(),
        ni in 0usize..SIDES.len(),
        ki in 0usize..SIDES.len(),
        pad in 0usize..3,
        seed in any::<u64>(),
        ta in prop::bool::ANY,
        tb in prop::bool::ANY,
        alpha in scalar(),
        beta in scalar(),
    ) {
        let (m, n, k) = (SIDES[mi], SIDES[ni], SIDES[ki]);
        let ta = if ta { Trans::Yes } else { Trans::No };
        let tb = if tb { Trans::Yes } else { Trans::No };
        let (ar, ac) = match ta { Trans::No => (m, k), Trans::Yes => (k, m) };
        let (br, bc) = match tb { Trans::No => (k, n), Trans::Yes => (n, k) };
        // Operands and C live inside larger parents: the views are
        // genuinely strided whenever pad > 0.
        let ap = mat(ar + 2 * pad, ac + pad, seed);
        let bp = mat(br + 2 * pad, bc + pad, seed ^ 1);
        let cp0 = mat(m + 2 * pad, n + pad, seed ^ 2);

        // Baseline: portable scalar path through the reference kernel.
        let mut cb = cp0.clone();
        with_simd_path(SimdPath::Portable, || {
            gemm_ref(
                ta, tb, alpha,
                &ap.view(pad, pad, ar, ac),
                &bp.view(pad, pad, br, bc),
                beta,
                &mut cb.view_mut(pad, pad, m, n),
            );
        });
        let baseline = bits(&cb);

        // `Avx2` silently falls back to the scalar path on CPUs without
        // the features, which is itself part of the contract under test.
        for path in [SimdPath::Portable, SimdPath::Auto, SimdPath::Avx2] {
            for runner in 0..5usize {
                let mut c = cp0.clone();
                with_simd_path(path, || {
                    let av = ap.view(pad, pad, ar, ac);
                    let bv = bp.view(pad, pad, br, bc);
                    let mut cv = c.view_mut(pad, pad, m, n);
                    match runner {
                        0 => gemm_ref(ta, tb, alpha, &av, &bv, beta, &mut cv),
                        1 => gemm_blocked(ta, tb, alpha, &av, &bv, beta, &mut cv),
                        t => gemm_threaded(
                            [1, 2, 4][t - 2], ta, tb, alpha, &av, &bv, beta, &mut cv,
                        ),
                    }
                });
                prop_assert!(
                    bits(&c) == baseline,
                    "bits diverge: path {:?}, runner {}, m={} n={} k={} pad={} ta={:?} tb={:?} α={} β={}",
                    path, runner, m, n, k, pad, ta, tb, alpha, beta
                );
            }
        }
    }

    /// The level-2 kernels (`gemv`, `gemv^T`, `ger`) dispatch through the
    /// same ISA resolution as the microkernel; every (path, backend)
    /// combination must produce the portable serial bits — including the
    /// ragged vector tails the 4-wide AVX2 bodies fall back to scalar for.
    #[test]
    fn level2_bit_identical_across_isa_and_threads(
        mi in 0usize..SIDES.len(),
        ni in 0usize..SIDES.len(),
        pad in 0usize..3,
        seed in any::<u64>(),
        trans in prop::bool::ANY,
        alpha in scalar(),
        beta in scalar(),
    ) {
        let (m, n) = (SIDES[mi], SIDES[ni]);
        let trans = if trans { Trans::Yes } else { Trans::No };
        let (xl, yl) = match trans { Trans::No => (n, m), Trans::Yes => (m, n) };
        let ap = mat(m + 2 * pad, n + pad, seed);
        let x = mat(xl, 1, seed ^ 1).as_slice().to_vec();
        let y0 = mat(yl, 1, seed ^ 2).as_slice().to_vec();
        let gx = mat(m, 1, seed ^ 3).as_slice().to_vec();
        let gy = mat(n, 1, seed ^ 4).as_slice().to_vec();

        // Baseline: portable scalar bodies on the serial backend.
        let (ybase, abase) = with_simd_path(SimdPath::Portable, || {
            with_backend(Backend::Serial, || {
                let mut y = y0.clone();
                gemv(trans, alpha, &ap.view(pad, pad, m, n), &x, beta, &mut y);
                let mut g = ap.clone();
                ger(alpha, &gx, &gy, &mut g.view_mut(pad, pad, m, n));
                (y, g)
            })
        });

        for path in [SimdPath::Portable, SimdPath::Auto, SimdPath::Avx2] {
            for backend in [Backend::Serial, Backend::Threaded(2), Backend::Threaded(4)] {
                let (yv, av) = with_simd_path(path, || {
                    with_backend(backend, || {
                        let mut y = y0.clone();
                        gemv(trans, alpha, &ap.view(pad, pad, m, n), &x, beta, &mut y);
                        let mut g = ap.clone();
                        ger(alpha, &gx, &gy, &mut g.view_mut(pad, pad, m, n));
                        (y, g)
                    })
                });
                prop_assert!(
                    yv.iter().map(|v| v.to_bits()).eq(ybase.iter().map(|v| v.to_bits())),
                    "gemv bits diverge: {:?} {:?} m={} n={} pad={} trans={:?} α={} β={}",
                    path, backend, m, n, pad, trans, alpha, beta
                );
                prop_assert!(
                    bits(&av) == bits(&abase),
                    "ger bits diverge: {:?} {:?} m={} n={} pad={} α={}",
                    path, backend, m, n, pad, alpha
                );
            }
        }
    }

    /// `gemv` at the `lahr2` panel shapes: ragged `m` up to 300 against
    /// every column count of [`PANEL_COLS`], on every (path, backend).
    #[test]
    fn gemv_panel_shapes_bit_identical_across_isa_and_threads(
        m in 1usize..=300,
        ni in 0usize..PANEL_COLS.len(),
        pad in 0usize..3,
        seed in any::<u64>(),
        trans in prop::bool::ANY,
        alpha in scalar(),
        beta in scalar(),
        specials in prop::bool::ANY,
    ) {
        let trans = if trans { Trans::Yes } else { Trans::No };
        check_gemv(m, PANEL_COLS[ni], pad, seed, trans, alpha, beta, specials);
    }

    /// `trmm` (every side/uplo/trans/diag, α ∈ {1, −0.5}) and `trmv`
    /// produce the portable serial bits on every (path, backend).
    #[test]
    fn trmm_trmv_bit_identical_across_isa_and_threads(
        oi in 0usize..SIDES.len(),
        ci in 0usize..SIDES.len(),
        pad in 0usize..3,
        seed in any::<u64>(),
        specials in prop::bool::ANY,
    ) {
        check_trmm_trmv(SIDES[oi], SIDES[ci], pad, seed, specials);
    }
}

/// Shapes past the fork gates, so `Threaded(2)`/`Threaded(4)` really
/// split the work: `gemv` rows (no-trans) and output columns (trans)
/// over workers, and `trmm` columns over workers in chunks that are not
/// multiples of the 8-column AVX2 group.
#[test]
fn level2_and_trmm_above_fork_gate_bit_identical() {
    for trans in [Trans::No, Trans::Yes] {
        check_gemv(2053, 65, 1, 17, trans, -1.0, 1.0, true);
        check_gemv(2053, 65, 0, 18, trans, 0.75, 0.0, false);
    }
    for side in [Side::Left, Side::Right] {
        let (r, c) = if side == Side::Left {
            (33, 4099)
        } else {
            (4099, 33)
        };
        let t = mat(33, 33, 19);
        for specials in [false, true] {
            let mut b0 = mat(r, c, 20);
            if specials {
                sprinkle_specials(b0.as_mut_slice(), 21);
            }
            for (uplo, trans) in [(Uplo::Upper, Trans::Yes), (Uplo::Lower, Trans::No)] {
                assert_same_bits_everywhere(
                    &format!("trmm {side:?} {uplo:?} {trans:?} above gate specials={specials}"),
                    || {
                        let mut b = b0.clone();
                        trmm(
                            side,
                            uplo,
                            trans,
                            Diag::NonUnit,
                            -0.5,
                            &t.as_view(),
                            &mut b.as_view_mut(),
                        );
                        b.as_slice().to_vec()
                    },
                );
            }
        }
    }
}
