//! Level-2 BLAS: matrix–vector operations on column-major views.
//!
//! `gemv` and `ger` — the kernels the `lahr2` panel factorization is
//! built from — run behind the same [`crate::backend`] gate as the
//! level-3 kernels, chunked over the persistent worker pool when the
//! element count clears [`crate::backend::PARALLEL_MIN_ELEMS`]. The
//! chunking partitions *output* elements (rows of `y` for `gemv`,
//! columns of `A` for `gemv^T`/`ger`), never an element's accumulation
//! chain, so the threaded results are bit-identical to the serial ones
//! for any worker count.
//!
//! **Contract.** Every output element keeps its initial value, the
//! operand order of each product, the zero-skip rule and the order of its
//! adds:
//!
//! * `gemv`: `y[i]` receives `(α·x[j])·A(i,j)` for every `j` whose
//!   coefficient `α·x[j]` is nonzero, in ascending `j`;
//! * `gemv^T`: `y[j]` receives `α·s`, where `s` starts from `+0.0` and
//!   adds `A(i,j)·x[i]` in ascending `i`;
//! * `ger`: `A(i,j)` receives `(α·y[j])·x[i]` unless that coefficient is
//!   zero.
//!
//! Within that contract the bodies are free to run independent chains
//! side by side: `gemv` folds eight columns into each pass over `y`, and
//! `gemv^T` runs eight dot products at once under AVX2 and sixteen under
//! AVX-512, one per lane. Every body uses a separate multiply and add
//! (two roundings per term), never a fused multiply-add. The column
//! updates are written once for both vector widths (4 lanes under AVX2,
//! 8 under AVX-512, a masked tail for the last `len mod LANES` elements);
//! the `gemv^T` bodies differ in their transposes, so each width has its
//! own. So the portable, AVX2 and AVX-512 paths produce the same bits on
//! every value that is not NaN, and NaN at the same places. The ISA is
//! resolved once per entry point through the same dispatch as the
//! level-3 microkernel (`FT_BLAS_SIMD`, [`crate::with_simd_path`]) and
//! carried into the pool workers.

use crate::backend;
use crate::flops::{model, record};
use crate::level3::{resolve_isa, Isa};
#[cfg(target_arch = "x86_64")]
use crate::simd::F64Vec;
use crate::types::{Diag, Trans, Uplo};
use ft_matrix::{MatView, MatViewMut};
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{__m256d, __m512d};

/// General matrix–vector product:
/// `y ← α·op(A)·x + β·y` with `op(A) = A` or `Aᵀ`.
///
/// For `Trans::No`, `x` has length `A.cols()` and `y` length `A.rows()`;
/// for `Trans::Yes` the roles swap.
pub fn gemv(trans: Trans, alpha: f64, a: &MatView<'_>, x: &[f64], beta: f64, y: &mut [f64]) {
    let (m, n) = (a.rows(), a.cols());
    match trans {
        Trans::No => {
            assert_eq!(x.len(), n, "gemv: x length {} != cols {n}", x.len());
            assert_eq!(y.len(), m, "gemv: y length {} != rows {m}", y.len());
        }
        Trans::Yes => {
            assert_eq!(x.len(), m, "gemv^T: x length {} != rows {m}", x.len());
            assert_eq!(y.len(), n, "gemv^T: y length {} != cols {n}", y.len());
        }
    }
    record(model::gemv(m, n));

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

    let workers = backend::fork_threads_mem(m * n);
    let isa = resolve_isa();
    match trans {
        // Column-oriented accumulation: y += (alpha * x[j]) * A(:,j).
        // Parallel split: contiguous row blocks of y, each sweeping all
        // columns of its row slice of A in ascending j.
        Trans::No => {
            backend::for_each_slice_chunk(y, workers, |i0, ychunk| {
                axpy_cols(isa, alpha, &a.subview(i0, 0, ychunk.len(), n), x, ychunk);
            });
        }
        // Dot-product per column: y[j] += alpha * A(:,j)ᵀ x. Parallel
        // split: contiguous ranges of output columns.
        Trans::Yes => {
            backend::for_each_slice_chunk(y, workers, |j0, ychunk| {
                dot_cols(isa, a, j0, x, alpha, ychunk);
            });
        }
    }
}

/// Rank-1 update: `A ← A + α·x·yᵀ`.
pub fn ger(alpha: f64, x: &[f64], y: &[f64], a: &mut MatViewMut<'_>) {
    let (m, n) = (a.rows(), a.cols());
    assert_eq!(x.len(), m, "ger: x length {} != rows {m}", x.len());
    assert_eq!(y.len(), n, "ger: y length {} != cols {n}", y.len());
    record(model::ger(m, n));
    if alpha == 0.0 {
        return;
    }
    // Columns of A are fully independent rank-1 column updates: partition
    // them over the pool; each column's update is elementwise serial.
    let workers = backend::fork_threads_mem(m * n);
    let isa = resolve_isa();
    backend::for_each_tile(a.rb_mut(), 1, workers, |_, j0, mut chunk| {
        for jj in 0..chunk.cols() {
            let ayj = alpha * y[j0 + jj];
            if ayj != 0.0 {
                axpy_col(isa, ayj, x, chunk.col_mut(jj));
            }
        }
    });
}

/// Shared scalar body of the column update `dst[i] += s * src[i]` — a
/// separate multiply and add (two roundings per element), which is the
/// contract every ISA below reproduces.
#[inline(always)]
fn axpy_col_scalar(s: f64, src: &[f64], dst: &mut [f64]) {
    for (di, &si) in dst.iter_mut().zip(src) {
        *di += s * si;
    }
}

/// Vector body of the column update, for both register widths. Uses
/// `mul` then `add` (not an fma) so each lane performs the same two
/// roundings as the scalar body; lanes map to distinct `dst` elements,
/// so no accumulation order changes — the result is bit-identical to
/// [`axpy_col_scalar`]. The masked tail loads and stores only the
/// `len mod LANES` real elements.
///
/// # Safety
///
/// `V`'s ISA is present (the [`F64Vec`] contract).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn axpy_col_vec<V: F64Vec>(s: f64, src: &[f64], dst: &mut [f64]) {
    let len = dst.len().min(src.len());
    let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
    // SAFETY: `V`'s ISA is present (this fn's contract); `i + LANES <=
    // len` bounds both slices in the loop, and the tail touches only
    // elements `i..len`. `dst` is uniquely borrowed.
    unsafe {
        let sv = V::splat(s);
        // `s·src + dst` with the product as the first operand, the order
        // of the compiled scalar loop (it folds the `dst` load into the
        // second operand), so where two NaNs meet the sum keeps the
        // product's. The compiler may still commute an add, so paths
        // agree on NaN only as NaN.
        let mut i = 0;
        while i + V::LANES <= len {
            let d = V::add(V::mul(sv, V::load(sp.add(i))), V::load(dp.add(i)));
            V::store(dp.add(i), d);
            i += V::LANES;
        }
        if i < len {
            let n = len - i;
            let d = V::add(
                V::mul(sv, V::load_first(sp.add(i), n)),
                V::load_first(dp.add(i), n),
            );
            V::store_first(dp.add(i), d, n);
        }
    }
}

// ft-check: hot
/// AVX2 entry of [`axpy_col_vec`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn axpy_col_avx2(s: f64, src: &[f64], dst: &mut [f64]) {
    // SAFETY: this fn is compiled for, and only entered on, AVX2.
    unsafe { axpy_col_vec::<__m256d>(s, src, dst) }
}

// ft-check: hot
/// AVX-512 entry of [`axpy_col_vec`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn axpy_col_avx512(s: f64, src: &[f64], dst: &mut [f64]) {
    // SAFETY: this fn is compiled for, and only entered on, AVX-512F.
    unsafe { axpy_col_vec::<__m512d>(s, src, dst) }
}

// ft-check: hot
/// ISA dispatch for the column update; `isa` is resolved once per entry
/// point so pool workers inherit the caller's SIMD override.
#[inline]
fn axpy_col(isa: Isa, s: f64, src: &[f64], dst: &mut [f64]) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Isa::Avx512` is only ever produced by `resolve_isa`
        // after runtime detection of the avx512f feature.
        Isa::Avx512 => unsafe { axpy_col_avx512(s, src, dst) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Isa::Avx2` is only ever produced by `resolve_isa`
        // after runtime detection of the avx2 feature.
        Isa::Avx2 => unsafe { axpy_col_avx2(s, src, dst) },
        _ => axpy_col_scalar(s, src, dst),
    }
}

/// Columns the `gemv` sweep folds into each pass over `y`.
const FOLD: usize = 8;

/// The coefficients or the columns of one folded pass.
type Fold<T> = [T; FOLD];

/// The `gemv` column sweep `y += Σ_j (α·x[j])·A(:,j)` over the columns
/// whose coefficient is nonzero, in ascending `j`. Those columns are
/// folded [`FOLD`] per pass over `y`, so `y` is loaded and stored once
/// per [`FOLD`] columns; the last few run as single-column updates. Each
/// `y[i]` receives the same adds in the same order as a
/// one-column-at-a-time loop.
#[inline]
fn axpy_cols(isa: Isa, alpha: f64, a: &MatView<'_>, x: &[f64], y: &mut [f64]) {
    let mut coef: Fold<f64> = [0.0; FOLD];
    let mut cols: Fold<&[f64]> = [&[]; FOLD];
    let mut held = 0;
    for (j, &xj) in x.iter().enumerate() {
        let axj = alpha * xj;
        if axj != 0.0 {
            coef[held] = axj;
            cols[held] = a.col(j);
            held += 1;
            if held == FOLD {
                axpy_fold(isa, &coef, &cols, y);
                held = 0;
            }
        }
    }
    for (&s, col) in coef.iter().zip(cols).take(held) {
        axpy_col(isa, s, col, y);
    }
}

/// Shared scalar body of the folded update: `dst[i] += s[q]·cols[q][i]`
/// for `q = 0, 1, …` in that order, each a separate multiply and add.
#[inline(always)]
fn axpy_fold_scalar(s: &Fold<f64>, cols: &Fold<&[f64]>, dst: &mut [f64]) {
    let len = dst.len();
    let cols = cols.map(|c| &c[..len]);
    for (i, di) in dst.iter_mut().enumerate() {
        let mut d = *di;
        for (&sq, col) in s.iter().zip(&cols) {
            d += sq * col[i];
        }
        *di = d;
    }
}

/// Vector body of the folded update, for both register widths: per lane
/// the same multiply-then-add steps as [`axpy_fold_scalar`], in the same
/// order, with a masked tail over the last `len mod LANES` elements.
///
/// # Safety
///
/// `V`'s ISA is present (the [`F64Vec`] contract).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn axpy_fold_vec<V: F64Vec>(s: &Fold<f64>, cols: &Fold<&[f64]>, dst: &mut [f64]) {
    let len = dst.len();
    let cols = cols.map(|c| c[..len].as_ptr());
    let dp = dst.as_mut_ptr();
    // No closure or array `map` touches a vector here: either would be
    // compiled outside the `#[target_feature]` entry, where the
    // intrinsics cannot inline.
    // SAFETY: `V`'s ISA is present (this fn's contract). `dst` and every
    // column (each sliced to `len` above) hold `len` elements: `i + LANES
    // <= len` bounds the loop, and the tail touches only `i..len`. `dst`
    // is uniquely borrowed.
    unsafe {
        let mut sv = [V::splat(0.0); FOLD];
        for (v, &sq) in sv.iter_mut().zip(s) {
            *v = V::splat(sq);
        }
        let mut x = sv;
        let mut i = 0;
        while i + V::LANES <= len {
            for (xq, c) in x.iter_mut().zip(&cols) {
                *xq = V::load(c.add(i));
            }
            V::store(dp.add(i), fold_lanes(&sv, &x, V::load(dp.add(i))));
            i += V::LANES;
        }
        if i < len {
            let n = len - i;
            for (xq, c) in x.iter_mut().zip(&cols) {
                *xq = V::load_first(c.add(i), n);
            }
            let d = fold_lanes(&sv, &x, V::load_first(dp.add(i), n));
            V::store_first(dp.add(i), d, n);
        }
    }
}

/// `d + Σ_q s_q·x_q` in fold order, a separate multiply and add per term.
/// The first add takes the product as its first operand, the later ones
/// the running sum: the order of the compiled scalar loop (it folds the
/// `dst` load into the second operand of the first add), which decides
/// whose NaN survives where two meet, unless the compiler commutes an
/// add.
///
/// # Safety
///
/// `V`'s ISA is present (the [`F64Vec`] contract).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn fold_lanes<V: F64Vec>(s: &Fold<V>, x: &Fold<V>, d: V) -> V {
    // SAFETY: `V`'s ISA is present (this fn's contract).
    unsafe {
        let mut d = V::add(V::mul(s[0], x[0]), d);
        for (&sq, &xq) in s[1..].iter().zip(&x[1..]) {
            d = V::add(d, V::mul(sq, xq));
        }
        d
    }
}

// ft-check: hot
/// AVX2 entry of [`axpy_fold_vec`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn axpy_fold_avx2(s: &Fold<f64>, cols: &Fold<&[f64]>, dst: &mut [f64]) {
    // SAFETY: this fn is compiled for, and only entered on, AVX2.
    unsafe { axpy_fold_vec::<__m256d>(s, cols, dst) }
}

// ft-check: hot
/// AVX-512 entry of [`axpy_fold_vec`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn axpy_fold_avx512(s: &Fold<f64>, cols: &Fold<&[f64]>, dst: &mut [f64]) {
    // SAFETY: this fn is compiled for, and only entered on, AVX-512F.
    unsafe { axpy_fold_vec::<__m512d>(s, cols, dst) }
}

// ft-check: hot
/// ISA dispatch for the folded update.
#[inline]
fn axpy_fold(isa: Isa, s: &Fold<f64>, cols: &Fold<&[f64]>, dst: &mut [f64]) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Isa::Avx512` is only ever produced by `resolve_isa`
        // after runtime detection of the avx512f feature.
        Isa::Avx512 => unsafe { axpy_fold_avx512(s, cols, dst) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Isa::Avx2` is only ever produced by `resolve_isa`
        // after runtime detection of the avx2 feature.
        Isa::Avx2 => unsafe { axpy_fold_avx2(s, cols, dst) },
        _ => axpy_fold_scalar(s, cols, dst),
    }
}

/// Shared scalar body of the `gemv^T` dot: `y[j] += alpha * A(:,j)ᵀ x`
/// with the plain `s += a * x` accumulation (two roundings per term) in
/// ascending row order.
#[inline(always)]
fn dot_cols_scalar(a: &MatView<'_>, j0: usize, x: &[f64], alpha: f64, ychunk: &mut [f64]) {
    for (jj, yj) in ychunk.iter_mut().enumerate() {
        let col = a.col(j0 + jj);
        let mut s = 0.0;
        for (&aij, &xi) in col.iter().zip(x.iter()) {
            s += aij * xi;
        }
        *yj += alpha * s;
    }
}

// ft-check: hot
/// AVX2 body of the `gemv^T` dot block: eight *adjacent output columns*
/// per pass, one dot product per lane in two accumulators. Each step
/// loads four rows of four columns and transposes them in registers, so
/// every lane still adds its column's terms one row at a time in
/// ascending order; `mul`+`add` keeps the two-roundings-per-term
/// contract, so every lane computes exactly the scalar body's bits. A
/// last group of one to seven columns repeats its final column in the
/// spare lanes, whose results are discarded.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn dot_cols_avx2(a: &MatView<'_>, j0: usize, x: &[f64], alpha: f64, ychunk: &mut [f64]) {
    use std::arch::x86_64::*;
    let m = x.len();
    // Adds rows i..i + 4 of the four columns `$c` to `$acc`, row by row.
    macro_rules! fold_rows4 {
        ($acc:ident, $c:ident, $i:ident) => {{
            // SAFETY: $i + 4 <= m and every column holds m rows; loadu
            // has no alignment requirement.
            let [r0, r1, r2, r3] = unsafe { $c.map(|c| _mm256_loadu_pd(c.as_ptr().add($i))) };
            // 4×4 transpose: row q of the block into lane order c0..c3.
            let (t0, t1) = (_mm256_unpacklo_pd(r0, r1), _mm256_unpackhi_pd(r0, r1));
            let (t2, t3) = (_mm256_unpacklo_pd(r2, r3), _mm256_unpackhi_pd(r2, r3));
            let rows = [
                _mm256_permute2f128_pd::<0x20>(t0, t2),
                _mm256_permute2f128_pd::<0x20>(t1, t3),
                _mm256_permute2f128_pd::<0x31>(t0, t2),
                _mm256_permute2f128_pd::<0x31>(t1, t3),
            ];
            for (q, row) in rows.into_iter().enumerate() {
                $acc = _mm256_add_pd($acc, _mm256_mul_pd(row, _mm256_set1_pd(x[$i + q])));
            }
        }};
    }
    let ncols = ychunk.len();
    let mut jj = 0;
    while jj < ncols {
        let last = ncols - 1;
        let col = |l: usize| &a.col(j0 + (jj + l).min(last))[..m];
        let lo = [col(0), col(1), col(2), col(3)];
        let hi = [col(4), col(5), col(6), col(7)];
        let mut acc_lo = _mm256_setzero_pd();
        let mut acc_hi = _mm256_setzero_pd();
        let mut i = 0;
        while i + 4 <= m {
            fold_rows4!(acc_lo, lo, i);
            fold_rows4!(acc_hi, hi, i);
            i += 4;
        }
        for (i, &xi) in x.iter().enumerate().skip(i) {
            let xv = _mm256_set1_pd(xi);
            let row_lo = _mm256_set_pd(lo[3][i], lo[2][i], lo[1][i], lo[0][i]);
            let row_hi = _mm256_set_pd(hi[3][i], hi[2][i], hi[1][i], hi[0][i]);
            acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(row_lo, xv));
            acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(row_hi, xv));
        }
        let mut s = [0.0f64; 8];
        // SAFETY: `s` is 8 f64s; storeu has no alignment requirement.
        unsafe {
            _mm256_storeu_pd(s.as_mut_ptr(), acc_lo);
            _mm256_storeu_pd(s.as_mut_ptr().add(4), acc_hi);
        }
        for (yj, &sl) in ychunk[jj..].iter_mut().zip(&s) {
            *yj += alpha * sl;
        }
        jj += 8;
    }
}

// ft-check: hot
/// AVX-512 body of the `gemv^T` dot block: the AVX2 body's contract at
/// twice the width. Up to sixteen *adjacent output columns* per pass,
/// eight per accumulator, so twice as many dot products are in flight as
/// under AVX2 (each lane's adds form one dependent chain). Each step
/// loads four rows of eight columns as 256-bit halves and transposes
/// them in registers, so every lane adds its column's terms one row at a
/// time in ascending order, with `mul`+`add`. The last `m mod 4` rows are
/// added one real row at a time: padding them with zeros would add
/// `0·x` terms, which turn a `−0.0` sum into `+0.0` and `0·∞` into NaN.
/// A last group repeats its final column in the spare lanes, whose
/// results are discarded; a group of at most eight columns runs one
/// accumulator.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn dot_cols_avx512(a: &MatView<'_>, j0: usize, x: &[f64], alpha: f64, ychunk: &mut [f64]) {
    let mut jj = 0;
    while jj < ychunk.len() {
        let group = &mut ychunk[jj..];
        // SAFETY: this fn is compiled for, and only entered on, AVX-512F.
        unsafe {
            if group.len() > 8 {
                dot_group_avx512::<2>(a, j0 + jj, x, alpha, group);
            } else {
                dot_group_avx512::<1>(a, j0 + jj, x, alpha, group);
            }
        }
        jj += 16;
    }
}

/// One pass of [`dot_cols_avx512`] over `8·G` columns from `j0`, of which
/// the first `min(8·G, y.len())` are real.
///
/// # Safety
///
/// AVX-512F is present.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn dot_group_avx512<const G: usize>(
    a: &MatView<'_>,
    j0: usize,
    x: &[f64],
    alpha: f64,
    y: &mut [f64],
) {
    use std::arch::x86_64::*;
    let m = x.len();
    let last = y.len() - 1;
    let cols: [[&[f64]; 8]; G] =
        std::array::from_fn(|g| std::array::from_fn(|l| &a.col(j0 + (8 * g + l).min(last))[..m]));
    // SAFETY: AVX-512F is present (this fn's contract). Every column
    // holds `m` rows, and the loads read rows `i..i + 4` with `i + 4 <= m`;
    // `loadu` has no alignment requirement.
    unsafe {
        let mut acc = [_mm512_setzero_pd(); G];
        let mut i = 0;
        while i + 4 <= m {
            for (accg, c) in acc.iter_mut().zip(&cols) {
                // Rows i..i + 4 of columns `k` and `k + 2` (k = 0, 1, 4, 5)
                // in the low and high halves of `t`.
                let mut t = [_mm512_setzero_pd(); 4];
                for (tk, k) in t.iter_mut().zip([0, 1, 4, 5]) {
                    let lo = _mm512_castpd256_pd512(_mm256_loadu_pd(c[k].as_ptr().add(i)));
                    *tk = _mm512_insertf64x4::<1>(lo, _mm256_loadu_pd(c[k + 2].as_ptr().add(i)));
                }
                // 128-bit chunks of (columns k, k + 1) at rows (0, 2) and
                // (1, 3), then row q of the block in lane order c0..c7.
                let (u0, u1) = (
                    _mm512_unpacklo_pd(t[0], t[1]),
                    _mm512_unpackhi_pd(t[0], t[1]),
                );
                let (u2, u3) = (
                    _mm512_unpacklo_pd(t[2], t[3]),
                    _mm512_unpackhi_pd(t[2], t[3]),
                );
                let rows = [
                    _mm512_shuffle_f64x2::<0x88>(u0, u2),
                    _mm512_shuffle_f64x2::<0x88>(u1, u3),
                    _mm512_shuffle_f64x2::<0xDD>(u0, u2),
                    _mm512_shuffle_f64x2::<0xDD>(u1, u3),
                ];
                for (q, row) in rows.into_iter().enumerate() {
                    *accg = _mm512_add_pd(*accg, _mm512_mul_pd(row, _mm512_set1_pd(x[i + q])));
                }
            }
            i += 4;
        }
        for (i, &xi) in x.iter().enumerate().skip(i) {
            let xv = _mm512_set1_pd(xi);
            for (accg, c) in acc.iter_mut().zip(&cols) {
                let row = _mm512_setr_pd(
                    c[0][i], c[1][i], c[2][i], c[3][i], c[4][i], c[5][i], c[6][i], c[7][i],
                );
                *accg = _mm512_add_pd(*accg, _mm512_mul_pd(row, xv));
            }
        }
        let mut s = [0.0f64; 16];
        for (g, &accg) in acc.iter().enumerate() {
            _mm512_storeu_pd(s.as_mut_ptr().add(8 * g), accg);
        }
        for (yj, &sl) in y.iter_mut().zip(&s[..8 * G]) {
            *yj += alpha * sl;
        }
    }
}

// ft-check: hot
/// ISA dispatch for the `gemv^T` dot block.
#[inline]
fn dot_cols(isa: Isa, a: &MatView<'_>, j0: usize, x: &[f64], alpha: f64, ychunk: &mut [f64]) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Isa::Avx512` is only ever produced by `resolve_isa`
        // after runtime detection of the avx512f feature.
        Isa::Avx512 => unsafe { dot_cols_avx512(a, j0, x, alpha, ychunk) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Isa::Avx2` is only ever produced by `resolve_isa`
        // after runtime detection of the avx2 feature.
        Isa::Avx2 => unsafe { dot_cols_avx2(a, j0, x, alpha, ychunk) },
        _ => dot_cols_scalar(a, j0, x, alpha, ychunk),
    }
}

/// Triangular matrix–vector product in place:
/// `x ← op(T)·x` where `T` is the `uplo` triangle of the leading `n × n`
/// part of `a` (`n = x.len()`), optionally with an implicit unit diagonal.
pub fn trmv(uplo: Uplo, trans: Trans, diag: Diag, a: &MatView<'_>, x: &mut [f64]) {
    let n = x.len();
    assert!(
        a.rows() >= n && a.cols() >= n,
        "trmv: matrix {}x{} smaller than order {n}",
        a.rows(),
        a.cols()
    );
    record(model::trmv(n));
    trmv_body(uplo, trans, diag, a, x);
}

/// [`trmv`] without its flop record, for `trmm`, which records its own
/// total.
pub(crate) fn trmv_body(uplo: Uplo, trans: Trans, diag: Diag, a: &MatView<'_>, x: &mut [f64]) {
    let n = x.len();
    let unit = matches!(diag, Diag::Unit);
    match (uplo, trans) {
        (Uplo::Upper, Trans::No) => {
            // Ascending j: x[i<j] accumulates, x[j] finalized using original value.
            for j in 0..n {
                let temp = x[j];
                if temp != 0.0 {
                    let col = a.col(j);
                    for i in 0..j {
                        x[i] += temp * col[i];
                    }
                    if !unit {
                        x[j] = temp * col[j];
                    }
                } else if !unit {
                    x[j] = 0.0;
                }
            }
        }
        (Uplo::Upper, Trans::Yes) => {
            // Descending j: x[i<j] still original when used.
            for j in (0..n).rev() {
                let col = a.col(j);
                let mut temp = x[j];
                if !unit {
                    temp *= col[j];
                }
                for i in 0..j {
                    temp += col[i] * x[i];
                }
                x[j] = temp;
            }
        }
        (Uplo::Lower, Trans::No) => {
            for j in (0..n).rev() {
                let temp = x[j];
                let col = a.col(j);
                if temp != 0.0 {
                    for i in (j + 1)..n {
                        x[i] += temp * col[i];
                    }
                }
                if !unit {
                    x[j] = temp * col[j];
                }
            }
        }
        (Uplo::Lower, Trans::Yes) => {
            for j in 0..n {
                let col = a.col(j);
                let mut temp = x[j];
                if !unit {
                    temp *= col[j];
                }
                for i in (j + 1)..n {
                    temp += col[i] * x[i];
                }
                x[j] = temp;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_matrix::Matrix;

    fn a23() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]])
    }

    #[test]
    fn gemv_notrans() {
        let a = a23();
        let mut y = vec![1.0, 1.0];
        gemv(Trans::No, 2.0, &a.as_view(), &[1.0, 0.0, -1.0], 3.0, &mut y);
        // 2*A*[1,0,-1] + 3*[1,1] = 2*[-2,-2] + [3,3] = [-1,-1]
        assert_eq!(y, vec![-1.0, -1.0]);
    }

    #[test]
    fn gemv_trans() {
        let a = a23();
        let mut y = vec![0.0; 3];
        gemv(Trans::Yes, 1.0, &a.as_view(), &[1.0, 1.0], 0.0, &mut y);
        assert_eq!(y, vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn gemv_beta_zero_clears_nan() {
        let a = a23();
        let mut y = vec![f64::NAN, f64::NAN];
        gemv(Trans::No, 1.0, &a.as_view(), &[1.0, 0.0, 0.0], 0.0, &mut y);
        assert_eq!(y, vec![1.0, 4.0]);
    }

    #[test]
    fn ger_rank1() {
        let mut a = Matrix::zeros(2, 3);
        ger(2.0, &[1.0, 2.0], &[3.0, 4.0, 5.0], &mut a.as_view_mut());
        assert_eq!(
            a,
            Matrix::from_rows(&[&[6.0, 8.0, 10.0], &[12.0, 16.0, 20.0]])
        );
    }

    fn tri() -> Matrix {
        Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[3.0, 4.0, 2.0], &[-2.0, 5.0, 3.0]])
    }

    fn dense_from_triangle(a: &Matrix, uplo: Uplo, diag: Diag) -> Matrix {
        let n = a.rows();
        Matrix::from_fn(n, n, |i, j| {
            let in_tri = match uplo {
                Uplo::Upper => i <= j,
                Uplo::Lower => i >= j,
            };
            if i == j && matches!(diag, Diag::Unit) {
                1.0
            } else if in_tri {
                a[(i, j)]
            } else {
                0.0
            }
        })
    }

    #[test]
    fn trmv_all_variants_match_dense_gemv() {
        let a = tri();
        let x0 = [1.0, -2.0, 3.0];
        for uplo in [Uplo::Upper, Uplo::Lower] {
            for trans in [Trans::No, Trans::Yes] {
                for diag in [Diag::Unit, Diag::NonUnit] {
                    let t = dense_from_triangle(&a, uplo, diag);
                    let mut expect = vec![0.0; 3];
                    gemv(trans, 1.0, &t.as_view(), &x0, 0.0, &mut expect);
                    let mut x = x0;
                    trmv(uplo, trans, diag, &a.as_view(), &mut x);
                    for i in 0..3 {
                        assert!(
                            (x[i] - expect[i]).abs() < 1e-13,
                            "{uplo:?} {trans:?} {diag:?}: {x:?} vs {expect:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gemv_on_subview() {
        let big = Matrix::from_fn(5, 5, |i, j| (i + 2 * j) as f64);
        let v = big.view(1, 1, 2, 3);
        let mut y = vec![0.0; 2];
        gemv(Trans::No, 1.0, &v, &[1.0, 1.0, 1.0], 0.0, &mut y);
        let dense = v.to_owned_matrix();
        let mut expect = vec![0.0; 2];
        gemv(
            Trans::No,
            1.0,
            &dense.as_view(),
            &[1.0, 1.0, 1.0],
            0.0,
            &mut expect,
        );
        assert_eq!(y, expect);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn gemv_shape_mismatch_panics() {
        let a = a23();
        let mut y = vec![0.0; 2];
        gemv(Trans::No, 1.0, &a.as_view(), &[1.0, 2.0], 0.0, &mut y);
    }
}
