//! Runtime-dispatched register-tiled GEMM microkernel.
//!
//! The kernel computes one tile of `C += α · Apanel · Bpanel` from packed
//! operand panels (see `pack_a`/`pack_b` in [`super::gemm`]). Four
//! bodies share **one accumulation contract**:
//!
//! * for every element, each `KC` block contributes
//!   `acc = fma(a, b, acc)` over `p` ascending, starting from `acc = 0`;
//! * the block is folded in with `c = fma(α, acc, c)`.
//!
//! The bodies are the AVX-512 `16 × NR` tile, which takes two adjacent
//! `MR`-row slivers of the packed `A` block at once; the AVX2 `MR × NR`
//! tile, written once with the AVX-512 one over the register width
//! ([`crate::simd`]); and the hardware-FMA and plain scalar tiles. A
//! vector FMA performs, per lane, the same single-rounding fused
//! multiply-add as `f64::mul_add` (which in turn matches the
//! correctly-rounded soft `fma` used on targets without the
//! instruction), and every lane holds one element of `C`, so the paths
//! agree bit for bit on every value that is not NaN, and produce NaN
//! exactly where another path does. Only a NaN's sign and payload may
//! differ: when two NaNs meet, x86 returns the first operand's, and the
//! compiler may order the operands of an fma differently per body. The
//! property suite in `crates/blas/tests/simd_properties.rs` pins this
//! down. The selected ISA therefore changes throughput only, and the
//! backend determinism contract (see [`crate::backend`]) extends to SIMD
//! choice.
//!
//! Selection: the `FT_BLAS_SIMD` environment knob (`auto` | `avx2` |
//! `portable`, read once through [`ft_trace::env_knob`]) combined with
//! runtime CPU feature detection; [`with_simd_path`] overrides it per
//! thread for tests and benches. `auto` takes AVX-512 when the CPU has
//! `avx512f`, `avx2` and `fma`, and `avx2` keeps the 256-bit bodies. Under
//! Miri the portable path is forced; results are identical by the
//! contract above.

#[cfg(target_arch = "x86_64")]
use crate::simd::F64Vec;
use ft_matrix::MatViewMut;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{__m256d, __m512d};
use std::cell::Cell;
use std::sync::OnceLock;

/// Height of one packed `A` sliver and of the AVX2 and scalar tiles
/// (rows of `C` per tile): two 4-lane AVX2 registers. The AVX-512 tile
/// covers two slivers.
pub(crate) const MR: usize = 8;
/// Microkernel tile width (columns of `C` per tile): with two vectors per
/// column this fills 12 of the 16 `ymm` (or 32 `zmm`) registers with
/// accumulators, leaving room for two `A` vectors and a `B` broadcast.
pub(crate) const NR: usize = 6;

/// User-facing SIMD path selection (the `FT_BLAS_SIMD` knob and the
/// [`with_simd_path`] override).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdPath {
    /// Use the best instruction set the CPU supports (the default).
    Auto,
    /// Force the AVX2+FMA vector kernels, even on a CPU with AVX-512;
    /// falls back to the portable path if the CPU lacks the features.
    Avx2,
    /// Force the portable scalar kernel (still uses the hardware `fma`
    /// *instruction* where available — the result bits never change, only
    /// the speed).
    Portable,
}

/// The concrete instruction mix a kernel invocation runs with. All four
/// produce the same results; see the module docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Isa {
    /// AVX-512F bodies, 8 lanes per vector. A GEMM sliver left over from
    /// the 16-row pairing runs the AVX2 tile.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    Avx512,
    /// AVX2 vector loads/stores with `vfmadd` accumulation.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    Avx2,
    /// Scalar loop compiled with the `fma` target feature enabled, so
    /// `f64::mul_add` lowers to the hardware instruction.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    ScalarFma,
    /// Scalar loop with `f64::mul_add` as the compiler lowers it for the
    /// baseline target (a correctly-rounded library call when the CPU has
    /// no FMA — same bits, much slower; exists so exotic targets still
    /// work).
    Scalar,
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
fn cpu_avx2_fma() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
fn cpu_avx512() -> bool {
    cpu_avx2_fma() && std::arch::is_x86_feature_detected!("avx512f")
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
fn cpu_fma() -> bool {
    std::arch::is_x86_feature_detected!("fma")
}

#[cfg(not(all(target_arch = "x86_64", not(miri))))]
fn cpu_avx2_fma() -> bool {
    false
}

#[cfg(not(all(target_arch = "x86_64", not(miri))))]
fn cpu_avx512() -> bool {
    false
}

#[cfg(not(all(target_arch = "x86_64", not(miri))))]
fn cpu_fma() -> bool {
    false
}

/// `true` when the vector (AVX2+FMA) kernel is available on this CPU.
pub fn simd_available() -> bool {
    cpu_avx2_fma()
}

fn parse_simd_path(s: &str) -> Option<SimdPath> {
    let s = s.trim();
    if s.eq_ignore_ascii_case("auto") || s.is_empty() {
        Some(SimdPath::Auto)
    } else if s.eq_ignore_ascii_case("avx2") {
        Some(SimdPath::Avx2)
    } else if s.eq_ignore_ascii_case("portable") || s.eq_ignore_ascii_case("scalar") {
        Some(SimdPath::Portable)
    } else {
        None
    }
}

/// The process-wide default path from the `FT_BLAS_SIMD` knob
/// (unset/unrecognized → `Auto`), read once.
fn env_path() -> SimdPath {
    static PATH: OnceLock<SimdPath> = OnceLock::new();
    *PATH.get_or_init(|| {
        ft_trace::env_knob::parse_with("FT_BLAS_SIMD", parse_simd_path).unwrap_or(SimdPath::Auto)
    })
}

thread_local! {
    static OVERRIDE: Cell<Option<SimdPath>> = const { Cell::new(None) };
}

/// Runs `f` with the calling thread's SIMD path forced to `path`,
/// restoring the previous override afterwards (also on panic). The forced
/// path is captured at each GEMM entry point and carried into pool
/// workers, so it covers the threaded backend too. Intended for tests and
/// benches that must exercise both codepaths in one process; production
/// code should rely on the `FT_BLAS_SIMD` knob.
pub fn with_simd_path<R>(path: SimdPath, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<SimdPath>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|c| c.get()));
    OVERRIDE.with(|c| c.set(Some(path)));
    f()
}

fn resolve(path: SimdPath) -> Isa {
    match path {
        SimdPath::Auto if cpu_avx512() => Isa::Avx512,
        SimdPath::Auto | SimdPath::Avx2 if cpu_avx2_fma() => Isa::Avx2,
        _ if cpu_fma() => Isa::ScalarFma,
        _ => Isa::Scalar,
    }
}

/// The ISA the next kernel invocation on this thread will use. Captured
/// once per GEMM call and passed down, so one call never mixes ISAs (not
/// that mixing would change results — see the module docs).
pub(crate) fn resolve_isa() -> Isa {
    resolve(OVERRIDE.with(|c| c.get()).unwrap_or_else(env_path))
}

/// Human-readable name of the path [`resolve_isa`] currently selects
/// (`"avx512+fma"`, `"avx2+fma"`, `"scalar+fma"` or `"scalar"`); benches
/// record it.
pub fn active_simd_path() -> &'static str {
    match resolve_isa() {
        Isa::Avx512 => "avx512+fma",
        Isa::Avx2 => "avx2+fma",
        Isa::ScalarFma => "scalar+fma",
        Isa::Scalar => "scalar",
    }
}

/// Shared scalar tile body: the accumulation-contract reference that the
/// vector kernel reproduces lane-for-lane. `#[inline(always)]` so the
/// `ScalarFma` wrapper compiles it with the `fma` target feature and
/// `mul_add` becomes a single instruction.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn scalar_tile(
    kc: usize,
    alpha: f64,
    apanel: &[f64],
    bpanel: &[f64],
    c: &mut MatViewMut<'_>,
    i0: usize,
    j0: usize,
    h: usize,
    w: usize,
) {
    let mut acc = [[0.0f64; MR]; NR];
    for p in 0..kc {
        let av = &apanel[p * MR..p * MR + MR];
        let bv = &bpanel[p * NR..p * NR + NR];
        for (jj, accj) in acc.iter_mut().enumerate() {
            let bj = bv[jj];
            for (ii, s) in accj.iter_mut().enumerate() {
                *s = av[ii].mul_add(bj, *s);
            }
        }
    }
    for (jj, accj) in acc.iter().enumerate().take(w) {
        let col = &mut c.col_mut(j0 + jj)[i0..i0 + h];
        for (ii, cij) in col.iter_mut().enumerate() {
            *cij = alpha.mul_add(accj[ii], *cij);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "fma")]
fn scalar_tile_fma(
    kc: usize,
    alpha: f64,
    apanel: &[f64],
    bpanel: &[f64],
    c: &mut MatViewMut<'_>,
    i0: usize,
    j0: usize,
    h: usize,
    w: usize,
) {
    scalar_tile(kc, alpha, apanel, bpanel, c, i0, j0, h, w);
}

/// The vector tile shared by the AVX2 and AVX-512 entries: a
/// `2·LANES × NR` block of `C` in `2·NR` accumulators, one broadcast `B`
/// register and two `A` vectors, whose rows come from `a[0]` and `a[1]`
/// (both advance by `MR` per `p`). The per-lane operation stream is
/// exactly [`scalar_tile`]'s per-element stream.
///
/// # Safety
///
/// `V`'s ISA is present (the [`F64Vec`] contract).
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn vec_tile<V: F64Vec>(
    kc: usize,
    alpha: f64,
    a: [&[f64]; 2],
    bpanel: &[f64],
    c: &mut MatViewMut<'_>,
    i0: usize,
    j0: usize,
    h: usize,
    w: usize,
) {
    let lanes = V::LANES;
    debug_assert!(h <= 2 * lanes && lanes <= MR && w <= NR);
    assert!(kc == 0 || a.iter().all(|s| s.len() >= (kc - 1) * MR + lanes));
    assert!(bpanel.len() >= kc * NR);
    let [a0p, a1p] = a.map(<[f64]>::as_ptr);
    let bp = bpanel.as_ptr();
    // SAFETY: `V`'s ISA is present (this fn's contract). The asserts
    // above keep lanes `p·MR .. p·MR + LANES` of both `A` slices and
    // entries `p·NR + jj` (`jj < NR`) of `bpanel` in bounds for `p < kc`.
    unsafe {
        let mut acc = [[V::splat(0.0); 2]; NR];
        for p in 0..kc {
            let (a0, a1) = (V::load(a0p.add(p * MR)), V::load(a1p.add(p * MR)));
            for (jj, accj) in acc.iter_mut().enumerate() {
                let b = V::splat(*bp.add(p * NR + jj));
                accj[0] = V::fmadd(a0, b, accj[0]);
                accj[1] = V::fmadd(a1, b, accj[1]);
            }
        }
        let alpha_v = V::splat(alpha);
        for (jj, accj) in acc.iter().enumerate().take(w) {
            let col = &mut c.col_mut(j0 + jj)[i0..i0 + h];
            if h == 2 * lanes {
                // `col` is a unique slice of exactly `2·LANES` elements.
                let ptr = col.as_mut_ptr();
                let c0 = V::load(ptr);
                let c1 = V::load(ptr.add(lanes));
                V::store(ptr, V::fmadd(alpha_v, accj[0], c0));
                V::store(ptr.add(lanes), V::fmadd(alpha_v, accj[1], c1));
            } else {
                // Ragged tile bottom: spill the accumulator and fold in
                // with scalar fma (identical bits, partial store) from
                // `tmp`, which holds `2·MR ≥ 2·LANES` slots.
                let mut tmp = [0.0f64; 2 * MR];
                V::store(tmp.as_mut_ptr(), accj[0]);
                V::store(tmp.as_mut_ptr().add(lanes), accj[1]);
                for (ii, cij) in col.iter_mut().enumerate() {
                    *cij = alpha.mul_add(tmp[ii], *cij);
                }
            }
        }
    }
}

// ft-check: hot
/// AVX2+FMA tile: `MR × NR`, both `A` vectors from one sliver.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
fn avx2_tile(
    kc: usize,
    alpha: f64,
    apanel: &[f64],
    bpanel: &[f64],
    c: &mut MatViewMut<'_>,
    i0: usize,
    j0: usize,
    h: usize,
    w: usize,
) {
    let a = [apanel, &apanel[4.min(apanel.len())..]];
    // SAFETY: this fn is compiled for, and only entered on, AVX2+FMA.
    unsafe { vec_tile::<__m256d>(kc, alpha, a, bpanel, c, i0, j0, h, w) }
}

// ft-check: hot
/// AVX-512 tile: `2·MR × NR` from two adjacent packed slivers, which
/// `pack_a` lays out `MR·kc` elements apart. Each row keeps the fma
/// chain of its own sliver's `MR`-row tile.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f")]
fn avx512_tile(
    kc: usize,
    alpha: f64,
    apanel: &[f64],
    bpanel: &[f64],
    c: &mut MatViewMut<'_>,
    i0: usize,
    j0: usize,
    w: usize,
) {
    let (lo, hi) = apanel.split_at((MR * kc).min(apanel.len()));
    // SAFETY: this fn is compiled for, and only entered on, AVX-512F.
    unsafe { vec_tile::<__m512d>(kc, alpha, [lo, hi], bpanel, c, i0, j0, 2 * MR, w) }
}

/// Rows of `C` the next tile covers when `left` rows of the block
/// remain: a pair of full slivers under [`Isa::Avx512`], else one
/// sliver.
#[inline]
pub(crate) fn tile_height(isa: Isa, left: usize) -> usize {
    if isa == Isa::Avx512 && left >= 2 * MR {
        2 * MR
    } else {
        MR.min(left)
    }
}

// ft-check: hot
/// Dispatches one `h × w` tile update (`h` from [`tile_height`], `w ≤
/// NR`) at `C(i0.., j0..)` from packed panels for one `kc` block;
/// `apanel` holds the tile's `⌈h/MR⌉` slivers.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn tile(
    isa: Isa,
    kc: usize,
    alpha: f64,
    apanel: &[f64],
    bpanel: &[f64],
    c: &mut MatViewMut<'_>,
    i0: usize,
    j0: usize,
    h: usize,
    w: usize,
) {
    debug_assert!((h <= MR || (isa == Isa::Avx512 && h == 2 * MR)) && w <= NR);
    debug_assert!(apanel.len() >= kc * h.div_ceil(MR) * MR && bpanel.len() >= kc * NR);
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Isa::Avx512` is only ever produced by `resolve` after
        // runtime detection confirmed the `avx512f`, `avx2` and `fma`
        // CPU features.
        Isa::Avx512 if h == 2 * MR => unsafe {
            avx512_tile(kc, alpha, apanel, bpanel, c, i0, j0, w)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Isa::Avx2` and `Isa::Avx512` are only ever produced by
        // `resolve` after runtime detection confirmed the `avx2` and
        // `fma` CPU features.
        Isa::Avx2 | Isa::Avx512 => unsafe { avx2_tile(kc, alpha, apanel, bpanel, c, i0, j0, h, w) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Isa::ScalarFma` is only produced when runtime detection
        // confirmed the `fma` CPU feature.
        Isa::ScalarFma => unsafe { scalar_tile_fma(kc, alpha, apanel, bpanel, c, i0, j0, h, w) },
        _ => scalar_tile(kc, alpha, apanel, bpanel, c, i0, j0, h, w),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_parse_forms() {
        assert_eq!(parse_simd_path("auto"), Some(SimdPath::Auto));
        assert_eq!(parse_simd_path(" AVX2 "), Some(SimdPath::Avx2));
        assert_eq!(parse_simd_path("portable"), Some(SimdPath::Portable));
        assert_eq!(parse_simd_path("scalar"), Some(SimdPath::Portable));
        assert_eq!(parse_simd_path("neon"), None);
    }

    #[test]
    fn override_restores_on_exit_and_panic() {
        let base = resolve_isa();
        with_simd_path(SimdPath::Portable, || {
            assert!(!matches!(resolve_isa(), Isa::Avx2 | Isa::Avx512));
        });
        assert_eq!(resolve_isa(), base);
        let r = std::panic::catch_unwind(|| {
            with_simd_path(SimdPath::Portable, || panic!("boom"));
        });
        assert!(r.is_err());
        assert_eq!(resolve_isa(), base);
    }

    #[test]
    fn forced_portable_never_vectorizes() {
        with_simd_path(SimdPath::Portable, || {
            assert!(!matches!(resolve_isa(), Isa::Avx2 | Isa::Avx512));
            assert!(matches!(active_simd_path(), "scalar+fma" | "scalar"));
        });
    }

    #[test]
    fn tile_paths_bit_identical() {
        // Direct microkernel-level check; the integration suite covers the
        // full GEMM paths. Three slivers, so under AVX-512 the rows run as
        // one 16-row tile plus a leftover 8-row one.
        let kc = 37;
        let slivers = 3;
        let apanel: Vec<f64> = (0..slivers * kc * MR)
            .map(|i| ((i * 7919) % 1000) as f64 * 1e-3)
            .collect();
        let bpanel: Vec<f64> = (0..kc * NR)
            .map(|i| ((i * 104729) % 997) as f64 * 1e-3)
            .collect();
        let mut isas = vec![Isa::Scalar];
        if cpu_fma() {
            isas.push(Isa::ScalarFma);
        }
        if cpu_avx2_fma() {
            isas.push(Isa::Avx2);
        }
        if cpu_avx512() {
            isas.push(Isa::Avx512);
        }
        // Rows × columns of C, walked as `gemm_block_serial` walks them.
        let shapes = [
            (24, NR),
            (16, NR),
            (16, 2),
            (21, 5),
            (8, NR),
            (5, 3),
            (1, 1),
        ];
        let run = |isa: Isa, rows: usize, w: usize| {
            let mut c =
                ft_matrix::Matrix::from_fn(slivers * MR, NR, |i, j| (i + 10 * j) as f64 * 0.5);
            let mut ir = 0;
            while ir < rows {
                let h = tile_height(isa, rows - ir);
                let apanel = &apanel[ir * kc..];
                tile(
                    isa,
                    kc,
                    1.25,
                    apanel,
                    &bpanel,
                    &mut c.as_view_mut(),
                    ir,
                    0,
                    h,
                    w,
                );
                ir += h;
            }
            c
        };
        for &isa in &isas[1..] {
            for (rows, w) in shapes {
                assert_eq!(
                    run(Isa::Scalar, rows, w).as_slice(),
                    run(isa, rows, w).as_slice(),
                    "Scalar vs {isa:?}, {rows} x {w}"
                );
            }
        }
        if cpu_avx512() {
            assert_eq!(tile_height(Isa::Avx512, 24), 2 * MR);
            assert_eq!(tile_height(Isa::Avx512, 15), MR);
        }
    }
}
