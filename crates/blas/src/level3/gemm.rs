//! General matrix–matrix multiply: `C ← α·op(A)·op(B) + β·C`.
//!
//! All implementations share **one accumulation contract** per element of
//! `C` (see [`super::microkernel`]): scale by `β` once, then for each
//! `KC`-deep block of the inner dimension (ascending) accumulate a fused
//! multiply-add chain over `p` ascending and fold it in with
//! `c = fma(α, acc, c)`. The reference oracle, the packed blocked kernel,
//! the AVX-512, AVX2 and scalar microkernel paths, and every thread-count
//! of the tiled parallel path therefore produce the same results (bit
//! for bit on every value that is not NaN) — the invariant the FT
//! driver's checksum thresholds rely on.

use super::microkernel::{self, Isa, MR, NR};
use crate::backend;
use crate::flops::{model, record};
use crate::types::Trans;
use crate::workspace;
use ft_matrix::{MatView, MatViewMut};

/// Cache-blocking parameters (tuned for a ~32 KiB L1 / 256 KiB L2 class
/// core). The register tile is `MR × NR` (see [`super::microkernel`]): the
/// packed `A` block (at most `MC × KC` ≈ 256 KiB) targets L2, the `B` panel
/// slice in flight stays L1-resident. These are upper bounds: each call's
/// pack buffers are sized to the largest block it actually packs
/// (`min(MC, m)` rounded up to `MR`, by `min(KC, k)`; likewise for `B`).
const MC: usize = 128;
const KC: usize = 256;
const NC: usize = 1024;

/// Minimum problem volume (`m·n·k`) before the packed kernel pays off.
/// The parallel gate lives in [`backend`] (`PARALLEL_MIN_VOLUME`), shared
/// by every level-3 kernel.
const BLOCKED_THRESHOLD: usize = 32 * 32 * 32;

/// Which GEMM implementation to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GemmAlgo {
    /// Pick based on problem size and available threads.
    Auto,
    /// Loop-based oracle following the shared accumulation contract
    /// (bit-identical to the packed kernels; fastest for tiny problems).
    Reference,
    /// Cache-blocked with packed panels and the register-tiled
    /// microkernel.
    Blocked,
    /// [`GemmAlgo::Blocked`] with `C` split into `jc`/`ic` macro-tiles
    /// across the persistent pool. Bit-identical to [`GemmAlgo::Blocked`]
    /// for every thread count.
    Parallel,
}

#[inline]
fn op_dims(trans: Trans, a: &MatView<'_>) -> (usize, usize) {
    match trans {
        Trans::No => (a.rows(), a.cols()),
        Trans::Yes => (a.cols(), a.rows()),
    }
}

#[inline(always)]
fn op_at(trans: Trans, a: &MatView<'_>, i: usize, k: usize) -> f64 {
    // SAFETY: callers index within op(A)'s bounds, checked at entry.
    unsafe {
        match trans {
            Trans::No => a.at_unchecked(i, k),
            Trans::Yes => a.at_unchecked(k, i),
        }
    }
}

fn check_dims(
    transa: Trans,
    transb: Trans,
    a: &MatView<'_>,
    b: &MatView<'_>,
    c: &MatViewMut<'_>,
) -> (usize, usize, usize) {
    let (m, ka) = op_dims(transa, a);
    let (kb, n) = op_dims(transb, b);
    assert_eq!(ka, kb, "gemm: inner dimensions differ: {ka} vs {kb}");
    assert_eq!(c.rows(), m, "gemm: C rows {} != {m}", c.rows());
    assert_eq!(c.cols(), n, "gemm: C cols {} != {n}", c.cols());
    (m, n, ka)
}

/// Reference GEMM: plain loops following the shared accumulation contract
/// — the oracle the packed kernels are bit-compared against, and the
/// fastest path for tiny problems where packing overhead dominates.
///
/// Unlike the pre-microkernel version, there is **no** `b(p,j) == 0.0`
/// early-out: skipping a multiply that the packed kernel performs made
/// oracle and kernel disagree on non-finite inputs (`0·NaN`, `0·Inf`,
/// signed-zero accumulation). Every update runs unconditionally; the
/// regression test `non_finite_inputs_bit_identical_across_algos` pins
/// the equivalence down.
pub fn gemm_ref(
    transa: Trans,
    transb: Trans,
    alpha: f64,
    a: &MatView<'_>,
    b: &MatView<'_>,
    beta: f64,
    c: &mut MatViewMut<'_>,
) {
    let (m, n, k) = check_dims(transa, transb, a, b, c);
    record(model::gemm(m, n, k));
    scale_c(beta, c);
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    let mut acc = workspace::scratch(m);
    match microkernel::resolve_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx512`, `Avx2` and `ScalarFma` are only resolved after
        // runtime detection confirmed the `fma` CPU feature.
        Isa::Avx512 | Isa::Avx2 | Isa::ScalarFma => unsafe {
            ref_body_fma(transa, transb, alpha, a, b, c, m, n, k, &mut acc)
        },
        _ => ref_body(transa, transb, alpha, a, b, c, m, n, k, &mut acc),
    }
}

/// The reference loop nest. `#[inline(always)]` so [`ref_body_fma`]
/// compiles it with the `fma` target feature (`mul_add` becomes one
/// instruction); without hardware FMA the compiler emits the correctly
/// rounded soft `fma` — same bits either way.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn ref_body(
    transa: Trans,
    transb: Trans,
    alpha: f64,
    a: &MatView<'_>,
    b: &MatView<'_>,
    c: &mut MatViewMut<'_>,
    m: usize,
    n: usize,
    k: usize,
    acc: &mut [f64],
) {
    for j in 0..n {
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            match transa {
                Trans::No => {
                    // Column-friendly: accumulate the block's contribution
                    // to the whole column of C in a scratch vector.
                    let accs = &mut acc[..m];
                    accs.fill(0.0);
                    for p in 0..kc {
                        let bpj = op_at(transb, b, pc + p, j);
                        let acol = a.col(pc + p);
                        for i in 0..m {
                            accs[i] = acol[i].mul_add(bpj, accs[i]);
                        }
                    }
                    let ccol = c.col_mut(j);
                    for i in 0..m {
                        ccol[i] = alpha.mul_add(accs[i], ccol[i]);
                    }
                }
                Trans::Yes => {
                    // Row `i` of op(A) is column `i` of A — contiguous.
                    let ccol = c.col_mut(j);
                    for (i, cij) in ccol.iter_mut().enumerate() {
                        let arow = &a.col(i)[pc..pc + kc];
                        let mut s = 0.0f64;
                        for (p, &av) in arow.iter().enumerate() {
                            s = av.mul_add(op_at(transb, b, pc + p, j), s);
                        }
                        *cij = alpha.mul_add(s, *cij);
                    }
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "fma")]
fn ref_body_fma(
    transa: Trans,
    transb: Trans,
    alpha: f64,
    a: &MatView<'_>,
    b: &MatView<'_>,
    c: &mut MatViewMut<'_>,
    m: usize,
    n: usize,
    k: usize,
    acc: &mut [f64],
) {
    ref_body(transa, transb, alpha, a, b, c, m, n, k, acc);
}

#[inline]
fn scale_c(beta: f64, c: &mut MatViewMut<'_>) {
    if beta == 1.0 {
        return;
    }
    if beta == 0.0 {
        c.fill(0.0);
    } else {
        c.scale(beta);
    }
}

// ft-check: hot
/// Packs a `mc × kc` block of `op(A)` into row-panels of height `MR`,
/// zero-padding the ragged edge.
fn pack_a(
    transa: Trans,
    a: &MatView<'_>,
    i0: usize,
    p0: usize,
    mc: usize,
    kc: usize,
    buf: &mut [f64],
) {
    let panels = mc.div_ceil(MR);
    debug_assert!(buf.len() >= panels * MR * kc);
    for pi in 0..panels {
        let ib = pi * MR;
        let h = MR.min(mc - ib);
        let panel = &mut buf[pi * MR * kc..(pi + 1) * MR * kc];
        for p in 0..kc {
            let dst = &mut panel[p * MR..p * MR + MR];
            for r in 0..h {
                dst[r] = op_at(transa, a, i0 + ib + r, p0 + p);
            }
            dst[h..].fill(0.0);
        }
    }
}

// ft-check: hot
/// Packs a `kc × nc` block of `op(B)` into column-panels of width `NR`,
/// zero-padding the ragged edge.
fn pack_b(
    transb: Trans,
    b: &MatView<'_>,
    p0: usize,
    j0: usize,
    kc: usize,
    nc: usize,
    buf: &mut [f64],
) {
    let panels = nc.div_ceil(NR);
    debug_assert!(buf.len() >= panels * NR * kc);
    for pj in 0..panels {
        let jb = pj * NR;
        let w = NR.min(nc - jb);
        let panel = &mut buf[pj * NR * kc..(pj + 1) * NR * kc];
        for p in 0..kc {
            let dst = &mut panel[p * NR..p * NR + NR];
            for cidx in 0..w {
                dst[cidx] = op_at(transb, b, p0 + p, j0 + jb + cidx);
            }
            dst[w..].fill(0.0);
        }
    }
}

/// The serial blocked kernel body: BLIS loop nest `jc → pc → ic → jr → ir`
/// over one region of `C`, with `β` applied up front. Both the serial
/// entry points and every macro-tile of the threaded path run exactly this
/// code, which is what makes the partition irrelevant to the result bits.
#[allow(clippy::too_many_arguments)]
fn gemm_block_serial(
    isa: Isa,
    transa: Trans,
    transb: Trans,
    alpha: f64,
    a: &MatView<'_>,
    b: &MatView<'_>,
    beta: f64,
    c: &mut MatViewMut<'_>,
) {
    let (m, k) = op_dims(transa, a);
    let n = c.cols();
    debug_assert_eq!(c.rows(), m);
    debug_assert_eq!(op_dims(transb, b), (k, n));

    scale_c(beta, c);
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }

    // Pack buffers come from the thread-local workspace arena: allocated
    // once per thread, reused by every subsequent call (each pool worker
    // owns its own arena, so the threaded path packs per macro-tile with
    // zero steady-state allocation). They are sized to the largest block
    // this call packs, and their stale contents are never read: packing
    // writes every element the microkernel touches.
    let (mb, nb, kb) = (MC.min(m), NC.min(n), KC.min(k));
    // The packed A block starts on a 64-byte boundary, so no A load of a
    // vector tile splits a cache line (every sliver is a multiple of 64
    // bytes long). Alignment changes speed only: `min` keeps the slice in
    // bounds even where `align_offset` cannot answer.
    let alen = mb.div_ceil(MR) * MR * kb;
    let mut ascratch = workspace::scratch(alen + 7);
    let off = ascratch.as_ptr().align_offset(64).min(7);
    let abuf = &mut ascratch[off..off + alen];
    let mut bbuf = workspace::scratch(nb.div_ceil(NR) * NR * kb);

    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b(transb, b, pc, jc, kc, nc, &mut bbuf);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                pack_a(transa, a, ic, pc, mc, kc, abuf);
                for jr in (0..nc).step_by(NR) {
                    let w = NR.min(nc - jr);
                    let bpanel = &bbuf[(jr / NR) * NR * kc..(jr / NR + 1) * NR * kc];
                    let mut ir = 0;
                    while ir < mc {
                        let h = microkernel::tile_height(isa, mc - ir);
                        let apanel = &abuf[(ir / MR) * MR * kc..(ir + h).div_ceil(MR) * MR * kc];
                        microkernel::tile(
                            isa,
                            kc,
                            alpha,
                            apanel,
                            bpanel,
                            c,
                            ic + ir,
                            jc + jr,
                            h,
                            w,
                        );
                        ir += h;
                    }
                }
            }
        }
    }
}

/// Cache-blocked packed GEMM (single-threaded): the BLIS loop nest with
/// the runtime-selected microkernel.
pub fn gemm_blocked(
    transa: Trans,
    transb: Trans,
    alpha: f64,
    a: &MatView<'_>,
    b: &MatView<'_>,
    beta: f64,
    c: &mut MatViewMut<'_>,
) {
    let (m, n, k) = check_dims(transa, transb, a, b, c);
    record(model::gemm(m, n, k));
    let isa = microkernel::resolve_isa();
    gemm_block_serial(isa, transa, transb, alpha, a, b, beta, c);
}

/// The sub-view of `a` corresponding to rows `[i0, i0+h)` of `op(A)`.
fn op_row_slice<'a>(transa: Trans, a: &MatView<'a>, i0: usize, h: usize, k: usize) -> MatView<'a> {
    match transa {
        Trans::No => a.subview(i0, 0, h, k),
        Trans::Yes => a.subview(0, i0, k, h),
    }
}

/// The sub-view of `b` corresponding to columns `[j0, j0+w)` of `op(B)`.
fn op_col_slice<'b>(transb: Trans, b: &MatView<'b>, j0: usize, w: usize, k: usize) -> MatView<'b> {
    match transb {
        Trans::No => b.subview(0, j0, k, w),
        Trans::Yes => b.subview(j0, 0, w, k),
    }
}

/// Picks a `tr × tc` macro-tile grid for `t` workers over an `m × n`
/// result. The larger dimension is split first (splitting columns
/// duplicates only `A`-packing across bands and vice versa); the grid goes
/// 2-D only when one dimension cannot host `t` bands of at least two
/// register tiles. `tr·tc ≤ t`, so the pool never grows beyond the
/// requested worker count.
fn tile_grid(m: usize, n: usize, t: usize) -> (usize, usize) {
    if t <= 1 {
        return (1, 1);
    }
    let max_r = m.div_ceil(2 * MR).max(1);
    let max_c = n.div_ceil(2 * NR).max(1);
    if n >= m {
        let tc = t.min(max_c);
        let tr = (t / tc).min(max_r).max(1);
        (tr, tc)
    } else {
        let tr = t.min(max_r);
        let tc = (t / tr).min(max_c).max(1);
        (tr, tc)
    }
}

/// Threaded GEMM: partitions `C` into `jc`/`ic` macro-tiles (at most
/// `threads` of them, `0` = available parallelism) and runs the serial
/// blocked kernel on each tile with the matching `op(A)` row and `op(B)`
/// column slices, one persistent pool worker per extra tile. Each worker
/// owns a disjoint `MatViewMut`, so the parallelism is data-race free by
/// construction.
///
/// Every element of `C` is produced by exactly the serial accumulation
/// chain regardless of which tile it lands in, so the result is
/// **bit-identical** to [`gemm_blocked`] (and [`gemm_ref`]) for any thread
/// count and any grid shape.
#[allow(clippy::too_many_arguments)] // standard BLAS gemm signature + thread count
pub fn gemm_threaded(
    threads: usize,
    transa: Trans,
    transb: Trans,
    alpha: f64,
    a: &MatView<'_>,
    b: &MatView<'_>,
    beta: f64,
    c: &mut MatViewMut<'_>,
) {
    let (m, n, k) = check_dims(transa, transb, a, b, c);
    record(model::gemm(m, n, k));
    let t = if threads == 0 {
        backend::available_parallelism()
    } else {
        threads
    };
    let isa = microkernel::resolve_isa();
    let (tr, tc) = tile_grid(m, n, t);
    backend::for_each_tile(c.rb_mut(), tr, tc, |i0, j0, mut tile| {
        let av = op_row_slice(transa, a, i0, tile.rows(), k);
        let bv = op_col_slice(transb, b, j0, tile.cols(), k);
        gemm_block_serial(isa, transa, transb, alpha, &av, &bv, beta, &mut tile);
    });
}

/// GEMM with an explicit algorithm choice.
#[allow(clippy::too_many_arguments)] // standard BLAS gemm signature
pub fn gemm_with_algo(
    algo: GemmAlgo,
    transa: Trans,
    transb: Trans,
    alpha: f64,
    a: &MatView<'_>,
    b: &MatView<'_>,
    beta: f64,
    c: &mut MatViewMut<'_>,
) {
    match algo {
        GemmAlgo::Reference => gemm_ref(transa, transb, alpha, a, b, beta, c),
        GemmAlgo::Blocked => gemm_blocked(transa, transb, alpha, a, b, beta, c),
        GemmAlgo::Parallel => {
            // Explicit request for the threaded kernel: use the current
            // backend's worker count, or the whole machine when the
            // ambient backend is Serial.
            let workers = match backend::current_backend() {
                b @ backend::Backend::Threaded(_) => b.threads(),
                backend::Backend::Serial => backend::available_parallelism(),
            };
            gemm_threaded(workers, transa, transb, alpha, a, b, beta, c);
        }
        GemmAlgo::Auto => {
            let (m, ka) = op_dims(transa, a);
            let n = c.cols();
            let volume = m * n * ka;
            // The unified compute-bound gate in `backend` decides whether
            // the threaded path engages at all.
            let workers = backend::fork_threads(volume);
            if workers > 1 {
                gemm_threaded(workers, transa, transb, alpha, a, b, beta, c);
            } else if volume >= BLOCKED_THRESHOLD {
                gemm_blocked(transa, transb, alpha, a, b, beta, c);
            } else {
                gemm_ref(transa, transb, alpha, a, b, beta, c);
            }
        }
    }
}

/// `C ← α·op(A)·op(B) + β·C` with automatic algorithm selection.
pub fn gemm(
    transa: Trans,
    transb: Trans,
    alpha: f64,
    a: &MatView<'_>,
    b: &MatView<'_>,
    beta: f64,
    c: &mut MatViewMut<'_>,
) {
    gemm_with_algo(GemmAlgo::Auto, transa, transb, alpha, a, b, beta, c);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_matrix::{max_abs_diff, Matrix};

    fn mul_naive(transa: Trans, transb: Trans, a: &Matrix, b: &Matrix) -> Matrix {
        let av = a.as_view();
        let bv = b.as_view();
        let (m, k) = op_dims(transa, &av);
        let (_, n) = op_dims(transb, &bv);
        Matrix::from_fn(m, n, |i, j| {
            (0..k)
                .map(|p| op_at(transa, &av, i, p) * op_at(transb, &bv, p, j))
                .sum()
        })
    }

    fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.cols(), b.cols());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: {x:?} vs {y:?}");
        }
    }

    #[test]
    fn gemm_ref_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let mut c = Matrix::zeros(2, 2);
        gemm_ref(
            Trans::No,
            Trans::No,
            1.0,
            &a.as_view(),
            &b.as_view(),
            0.0,
            &mut c.as_view_mut(),
        );
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = Matrix::identity(2);
        let b = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut c = Matrix::filled(2, 2, 10.0);
        gemm_ref(
            Trans::No,
            Trans::No,
            2.0,
            &a.as_view(),
            &b.as_view(),
            0.5,
            &mut c.as_view_mut(),
        );
        assert_eq!(c, Matrix::from_rows(&[&[7.0, 9.0], &[11.0, 13.0]]));
    }

    #[test]
    fn all_transpose_combos_and_algos_match_naive() {
        for &(m, n, k) in &[
            (5usize, 7usize, 3usize),
            (13, 9, 17),
            (40, 33, 21),
            (64, 64, 64),
        ] {
            for (ta, tb) in [
                (Trans::No, Trans::No),
                (Trans::No, Trans::Yes),
                (Trans::Yes, Trans::No),
                (Trans::Yes, Trans::Yes),
            ] {
                let a = match ta {
                    Trans::No => ft_matrix::random::uniform(m, k, 1),
                    Trans::Yes => ft_matrix::random::uniform(k, m, 1),
                };
                let b = match tb {
                    Trans::No => ft_matrix::random::uniform(k, n, 2),
                    Trans::Yes => ft_matrix::random::uniform(n, k, 2),
                };
                let expect = mul_naive(ta, tb, &a, &b);
                for algo in [GemmAlgo::Reference, GemmAlgo::Blocked, GemmAlgo::Parallel] {
                    let mut c = Matrix::zeros(m, n);
                    gemm_with_algo(
                        algo,
                        ta,
                        tb,
                        1.0,
                        &a.as_view(),
                        &b.as_view(),
                        0.0,
                        &mut c.as_view_mut(),
                    );
                    let err = max_abs_diff(&c, &expect);
                    assert!(err < 1e-12, "{algo:?} {ta:?}/{tb:?} {m}x{n}x{k}: err {err}");
                }
            }
        }
    }

    #[test]
    fn algos_are_bit_identical() {
        // The contract is stronger than closeness: ref, blocked, and every
        // tiled parallel variant agree to the bit.
        for &(m, n, k) in &[(17usize, 13usize, 70usize), (64, 48, 300), (33, 129, 5)] {
            let a = ft_matrix::random::uniform(m, k, 11);
            let b = ft_matrix::random::uniform(k, n, 12);
            let c0 = ft_matrix::random::uniform(m, n, 13);
            let mut c_ref = c0.clone();
            gemm_ref(
                Trans::No,
                Trans::No,
                1.7,
                &a.as_view(),
                &b.as_view(),
                -0.3,
                &mut c_ref.as_view_mut(),
            );
            let mut c_blk = c0.clone();
            gemm_blocked(
                Trans::No,
                Trans::No,
                1.7,
                &a.as_view(),
                &b.as_view(),
                -0.3,
                &mut c_blk.as_view_mut(),
            );
            assert_bits_eq(&c_ref, &c_blk, "ref vs blocked");
            for t in [2usize, 3, 5] {
                let mut c_par = c0.clone();
                gemm_threaded(
                    t,
                    Trans::No,
                    Trans::No,
                    1.7,
                    &a.as_view(),
                    &b.as_view(),
                    -0.3,
                    &mut c_par.as_view_mut(),
                );
                assert_bits_eq(&c_ref, &c_par, "ref vs threaded");
            }
        }
    }

    #[test]
    fn non_finite_inputs_bit_identical_across_algos() {
        // Regression for the old `bpj == 0.0` early-out in the oracle: a
        // zero in op(B) against Inf/NaN in A must flow through the same
        // fma chain everywhere (0·Inf = NaN, not "skip").
        let mut a = ft_matrix::random::uniform(11, 9, 21);
        a[(3, 2)] = f64::INFINITY;
        a[(7, 5)] = f64::NAN;
        a[(0, 0)] = -0.0;
        let mut b = ft_matrix::random::uniform(9, 8, 22);
        b[(2, 1)] = 0.0;
        b[(5, 4)] = 0.0;
        b[(8, 7)] = f64::NEG_INFINITY;
        let c0 = ft_matrix::random::uniform(11, 8, 23);
        let mut c_ref = c0.clone();
        gemm_ref(
            Trans::No,
            Trans::No,
            1.0,
            &a.as_view(),
            &b.as_view(),
            1.0,
            &mut c_ref.as_view_mut(),
        );
        assert!(c_ref.has_non_finite(), "test must exercise NaN/Inf paths");
        let mut c_blk = c0.clone();
        gemm_blocked(
            Trans::No,
            Trans::No,
            1.0,
            &a.as_view(),
            &b.as_view(),
            1.0,
            &mut c_blk.as_view_mut(),
        );
        assert_bits_eq(&c_ref, &c_blk, "non-finite ref vs blocked");
        let mut c_par = c0.clone();
        gemm_threaded(
            3,
            Trans::No,
            Trans::No,
            1.0,
            &a.as_view(),
            &b.as_view(),
            1.0,
            &mut c_par.as_view_mut(),
        );
        assert_bits_eq(&c_ref, &c_par, "non-finite ref vs threaded");
    }

    #[test]
    fn blocked_ragged_edges() {
        // Sizes chosen to leave remainders against MR=8 / NR=6 / KC=256.
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (9, 5, 2),
            (17, 3, 300),
            (8, 6, 256),
            (15, 13, 259),
        ] {
            let a = ft_matrix::random::uniform(m, k, 3);
            let b = ft_matrix::random::uniform(k, n, 4);
            let expect = mul_naive(Trans::No, Trans::No, &a, &b);
            let mut c = Matrix::zeros(m, n);
            gemm_blocked(
                Trans::No,
                Trans::No,
                1.0,
                &a.as_view(),
                &b.as_view(),
                0.0,
                &mut c.as_view_mut(),
            );
            assert!(max_abs_diff(&c, &expect) < 1e-11, "{m}x{n}x{k}");
        }
    }

    #[test]
    fn gemm_on_subviews() {
        let big = ft_matrix::random::uniform(10, 10, 5);
        let a = big.view(1, 1, 4, 3);
        let b = big.view(5, 2, 3, 4);
        let mut c = Matrix::zeros(4, 4);
        gemm(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c.as_view_mut());
        let expect = mul_naive(
            Trans::No,
            Trans::No,
            &a.to_owned_matrix(),
            &b.to_owned_matrix(),
        );
        assert!(max_abs_diff(&c, &expect) < 1e-13);
    }

    #[test]
    fn beta_zero_overwrites_nan() {
        let a = Matrix::identity(2);
        let b = Matrix::identity(2);
        let mut c = Matrix::filled(2, 2, f64::NAN);
        gemm_blocked(
            Trans::No,
            Trans::No,
            1.0,
            &a.as_view(),
            &b.as_view(),
            0.0,
            &mut c.as_view_mut(),
        );
        assert_eq!(c, Matrix::identity(2));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dim_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 2);
        let mut c = Matrix::zeros(2, 2);
        gemm(
            Trans::No,
            Trans::No,
            1.0,
            &a.as_view(),
            &b.as_view(),
            0.0,
            &mut c.as_view_mut(),
        );
    }

    #[test]
    fn empty_dims_are_noops() {
        let a = Matrix::zeros(0, 0);
        let b = Matrix::zeros(0, 0);
        let mut c = Matrix::zeros(0, 0);
        gemm(
            Trans::No,
            Trans::No,
            1.0,
            &a.as_view(),
            &b.as_view(),
            0.0,
            &mut c.as_view_mut(),
        );
        // k = 0 with m, n > 0: C scaled by beta only.
        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 2);
        let mut c = Matrix::filled(2, 2, 3.0);
        gemm(
            Trans::No,
            Trans::No,
            1.0,
            &a.as_view(),
            &b.as_view(),
            2.0,
            &mut c.as_view_mut(),
        );
        assert_eq!(c, Matrix::filled(2, 2, 6.0));
    }

    #[test]
    fn tile_grid_respects_bounds() {
        for &(m, n, t) in &[
            (1usize, 1usize, 4usize),
            (1000, 8, 4),
            (8, 1000, 4),
            (256, 256, 7),
            (0, 16, 4),
        ] {
            let (tr, tc) = tile_grid(m, n, t);
            assert!(tr * tc <= t.max(1), "{m}x{n} t={t} -> {tr}x{tc}");
            assert!(tr >= 1 && tc >= 1);
        }
    }
}
