//! The x86 vector registers behind one trait, for kernel bodies whose
//! AVX2 and AVX-512 versions differ only in width: the GEMM tile,
//! `axpy_col`, `axpy_fold` and `trmm_left`. Each such body is written
//! once, as an `#[inline(always)]` function generic over [`F64Vec`], and
//! each `#[target_feature]` entry instantiates it with one register type,
//! so the intrinsics inline into code compiled for that entry's ISA.
//! Every function between the entry and an intrinsic must be
//! `#[inline(always)]`: a closure or an array `map` that touches a vector
//! is compiled as a function of its own, without the entry's features,
//! and then calls each intrinsic out of line. When this holds, `nm -C`
//! of a release binary lists no `core_arch::x86::{avx, avx2, fma,
//! avx512f}` function.

use std::arch::x86_64::*;

/// One vector register of [`F64Vec::LANES`] `f64` lanes.
///
/// # Safety
///
/// Every method runs instructions of its register's ISA: AVX2 (and FMA
/// for [`F64Vec::fmadd`]) for `__m256d`, AVX-512F for `__m512d`. A caller
/// must run on a CPU with those features, that is, inside a
/// `#[target_feature]` entry that a dispatcher entered on a runtime
/// detected `Isa`. Pointers must be valid for the lanes a method
/// touches: all `LANES` for `load`/`store`, lanes `0..n` for the
/// `_first` forms, which touch no memory beyond them.
pub(crate) trait F64Vec: Copy {
    /// Lanes per register.
    const LANES: usize;
    /// A per-lane predicate.
    type Mask: Copy;
    /// SAFETY: as stated for the trait.
    unsafe fn splat(v: f64) -> Self;
    /// SAFETY: as stated for the trait.
    unsafe fn load(p: *const f64) -> Self;
    /// SAFETY: as stated for the trait.
    unsafe fn store(p: *mut f64, v: Self);
    /// Lanes `0..n` (`n < LANES`) from `p`, the rest zero. SAFETY: as
    /// stated for the trait.
    unsafe fn load_first(p: *const f64, n: usize) -> Self;
    /// Stores lanes `0..n` (`n < LANES`) of `v` to `p`. SAFETY: as stated
    /// for the trait.
    unsafe fn store_first(p: *mut f64, v: Self, n: usize);
    /// SAFETY: as stated for the trait.
    unsafe fn add(a: Self, b: Self) -> Self;
    /// SAFETY: as stated for the trait.
    unsafe fn mul(a: Self, b: Self) -> Self;
    /// `a·b + c` per lane, rounded once. SAFETY: as stated for the trait.
    unsafe fn fmadd(a: Self, b: Self, c: Self) -> Self;
    /// The lanes of `v` for which the scalar test `v != 0.0` holds (NaN
    /// lanes included). SAFETY: as stated for the trait.
    unsafe fn nonzero(v: Self) -> Self::Mask;
    /// `b` in the lanes `m` selects, `a` in the others. SAFETY: as stated
    /// for the trait.
    unsafe fn select(m: Self::Mask, a: Self, b: Self) -> Self;
}

/// The `vmaskmovpd` mask selecting lanes `0..n`.
///
/// # Safety
///
/// AVX2 is present.
#[inline(always)]
unsafe fn mask256(n: usize) -> __m256i {
    // SAFETY: AVX2 is present (this fn's contract).
    unsafe { _mm256_cmpgt_epi64(_mm256_set1_epi64x(n as i64), _mm256_setr_epi64x(0, 1, 2, 3)) }
}

/// One [`F64Vec`] method whose body is one intrinsic expression.
macro_rules! op {
    ($name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)? = $body:expr) => {
        // SAFETY: the trait's contract.
        #[inline(always)]
        unsafe fn $name($($arg: $ty),*) $(-> $ret)? {
            // SAFETY: the trait's contract: the register's ISA is present
            // and each pointer is valid for the lanes the intrinsic
            // touches (`loadu`/`storeu` need no alignment, and the masked
            // forms touch only the lanes their mask selects).
            unsafe { $body }
        }
    };
}

impl F64Vec for __m256d {
    const LANES: usize = 4;
    type Mask = __m256d;
    op!(splat(v: f64) -> Self = _mm256_set1_pd(v));
    op!(load(p: *const f64) -> Self = _mm256_loadu_pd(p));
    op!(store(p: *mut f64, v: Self) = _mm256_storeu_pd(p, v));
    op!(load_first(p: *const f64, n: usize) -> Self = _mm256_maskload_pd(p, mask256(n)));
    op!(store_first(p: *mut f64, v: Self, n: usize) = _mm256_maskstore_pd(p, mask256(n), v));
    op!(add(a: Self, b: Self) -> Self = _mm256_add_pd(a, b));
    op!(mul(a: Self, b: Self) -> Self = _mm256_mul_pd(a, b));
    op!(fmadd(a: Self, b: Self, c: Self) -> Self = _mm256_fmadd_pd(a, b, c));
    op!(nonzero(v: Self) -> __m256d = _mm256_cmp_pd::<_CMP_NEQ_UQ>(v, _mm256_setzero_pd()));
    op!(select(m: __m256d, a: Self, b: Self) -> Self = _mm256_blendv_pd(a, b, m));
}

impl F64Vec for __m512d {
    const LANES: usize = 8;
    type Mask = __mmask8;
    op!(splat(v: f64) -> Self = _mm512_set1_pd(v));
    op!(load(p: *const f64) -> Self = _mm512_loadu_pd(p));
    op!(store(p: *mut f64, v: Self) = _mm512_storeu_pd(p, v));
    op!(load_first(p: *const f64, n: usize) -> Self = _mm512_maskz_loadu_pd((1u8 << n) - 1, p));
    op!(store_first(p: *mut f64, v: Self, n: usize) = _mm512_mask_storeu_pd(p, (1u8 << n) - 1, v));
    op!(add(a: Self, b: Self) -> Self = _mm512_add_pd(a, b));
    op!(mul(a: Self, b: Self) -> Self = _mm512_mul_pd(a, b));
    op!(fmadd(a: Self, b: Self, c: Self) -> Self = _mm512_fmadd_pd(a, b, c));
    op!(nonzero(v: Self) -> __mmask8 = _mm512_cmp_pd_mask::<_CMP_NEQ_UQ>(v, _mm512_setzero_pd()));
    op!(select(m: __mmask8, a: Self, b: Self) -> Self = _mm512_mask_blend_pd(m, a, b));
}
