//! Online ABFT: checksum encode and verify fused into the blocked GEMM.
//!
//! The classic ABFT pipeline (encode row/column checksums, run the
//! kernel, re-sum `C`, compare) makes three extra passes over memory.
//! Following FT-GEMM on x86 CPUs (arXiv 2305.02444) and "Anatomy of
//! High-Performance GEMM with Online Fault Tolerance" (arXiv 2305.01024),
//! this module rides those sums on memory traffic the kernel already
//! pays for:
//!
//! * the **base** sums of `β·C` are taken during the `β`-scaling pass;
//! * the **predicted** update sums come for free from the packed panels:
//!   `pack_a` accumulates `asum[p] = Σ_i op(A)(i,p)` during packing and
//!   `bsum[band][p] = Σ_{j ∈ band} op(B)(p,j)` is taken from the packed
//!   (cache-hot) `B` panels, so
//!   `colpred[j] = Σ_p asum[p]·op(B)(p,j)` and
//!   `rowpred[band][i] = Σ_p op(A)(i,p)·bsum[band][p]` fall out of one
//!   extra multiply-add per packed element;
//! * the **fresh** sums of the finished `C` are taken in a block epilogue
//!   on the final `pc` pass, while the block is still cache-warm.
//!
//! In exact arithmetic `colnew = colbase + α·colpred` (and the row
//! analogue); a transient flip in stored `C` breaks exactly one row and
//! one column residual, which [`match_deficits`] resolves to a position
//! and a signed delta — the matcher `ft-hessenberg`'s locate step
//! (`recovery::locate_errors`) also uses.
//!
//! **Determinism.** Verification is per *band* of [`ABFT_BAND`] columns —
//! a fixed partition independent of the worker count. Each band is
//! computed serially by one worker in a fixed loop order, and the
//! cross-band row-sum reduction runs serially in ascending band order, so
//! the residuals (and therefore detection decisions) are bit-identical
//! for every thread count, matching the kernel's own determinism
//! contract. Every fused sum pass dispatches through an `avx2`-enabled
//! wrapper (same safe loop body, so identical bits, just wider code) —
//! measured overhead on one AVX2 core is ≈ 5–7 % at `n = 512` and
//! ≈ 4 % at `n = 1024`, shrinking with size.

use super::gemm::{self, check_dims, op_col_slice, KC};
use super::microkernel::{self, Isa, MR, NR};
use crate::backend;
use crate::flops::{model, record};
use crate::pool::{self, ScopedTask};
use crate::types::Trans;
use crate::workspace::{self, Scratch};
use ft_matrix::{MatView, MatViewMut};

/// Verification band width in columns. Fixed (never derived from the
/// thread count) so detection is deterministic; 256 columns keeps the
/// dominant fused term (`rowpred`, `m·k·n/ABFT_BAND` multiply-adds) near
/// `1/256` of the kernel's work while still bounding how much state a
/// single flip can contaminate and leaving one region per worker at the
/// paper's target sizes.
pub const ABFT_BAND: usize = 256;

/// Options for the fused-ABFT GEMM entry points.
#[derive(Clone, Copy, Debug)]
pub struct AbftOptions {
    /// Residual significance threshold. `None` derives a scale-aware
    /// bound `32·ε·max(m,n,k)·scale` from the checksum magnitudes.
    pub tol: Option<f64>,
    /// Correct located errors in place (`C[i,j] −= delta`). When `false`
    /// the report still carries the located errors.
    pub correct: bool,
}

impl Default for AbftOptions {
    fn default() -> Self {
        AbftOptions {
            tol: None,
            correct: true,
        }
    }
}

/// One located error: position and signed deviation of the stored value
/// from the checksum-consistent value. [`match_deficits`] produces it for
/// the fused GEMM's output `C` here and for the checksum-extended matrix
/// in `ft-hessenberg` (which names it `LocatedError`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AbftError {
    /// Row of the corrupted element.
    pub row: usize,
    /// Column of the corrupted element.
    pub col: usize,
    /// `stored − correct`.
    pub delta: f64,
}

/// Outcome of a fused-ABFT GEMM.
#[derive(Clone, Debug)]
pub struct AbftReport {
    /// Number of residual deficits that fired (0 on a clean run). When
    /// the pattern was resolvable this equals `errors.len()`.
    pub detected: usize,
    /// Number of elements corrected in place.
    pub corrected: usize,
    /// `false` when deficits fired but the pattern was ambiguous (the
    /// rectangle case) or one-sided; the caller must fall back to a
    /// heavier recovery path (re-execution or the driver's iteration
    ///-level reversal).
    pub resolved: bool,
    /// The located errors (empty when unresolved or clean).
    pub errors: Vec<AbftError>,
    /// The residual threshold actually used.
    pub tol: f64,
}

impl AbftReport {
    fn clean(tol: f64) -> AbftReport {
        AbftReport {
            detected: 0,
            corrected: 0,
            resolved: true,
            errors: Vec::new(),
            tol,
        }
    }
}

/// A fault to inject into stored `C` *between* the final microkernel
/// store and the fused fresh-sum epilogue — the exact window a transient
/// memory flip occupies. Test-only in spirit, but kept in the public API
/// so integration suites and benches can drive the detector end to end.
#[derive(Clone, Copy, Debug)]
pub struct AbftInject {
    /// Row in `C`.
    pub row: usize,
    /// Column in `C`.
    pub col: usize,
    /// Added to the stored value.
    pub delta: f64,
}

/// The fused checksum accumulator threaded through
/// [`gemm::gemm_block_serial`]. One sink covers one *region* — a
/// band-aligned run of columns handled by one worker — so the kernel
/// packs `A` once per `pc` block no matter how many verification bands
/// the region spans. Row aggregates stay partitioned per fixed
/// [`ABFT_BAND`] band *inside* the region (the determinism granularity);
/// `asum`/`bsum` are small per-`pc`-block buffers owned by the sink.
pub(super) struct AbftSink<'s> {
    /// Runtime-detected ISA: the fused sum passes dispatch through
    /// `avx2`-enabled wrappers exactly like the microkernel, so the same
    /// safe loop bodies compile to 256-bit code (identical per-lane
    /// operations, hence identical bits — only wider).
    isa: Isa,
    /// Global column offset of this region within the full `C` (always a
    /// multiple of [`ABFT_BAND`]; injection coordinates are global,
    /// everything else is region-local).
    col0: usize,
    /// Rows of `C` — the length of each row-aggregate segment.
    m: usize,
    colbase: &'s mut [f64],
    colnew: &'s mut [f64],
    colpred: &'s mut [f64],
    /// Row aggregates: one `3·m` segment per band covered by the region,
    /// laid out `[base | new | pred]` in ascending band order (the same
    /// global layout the verify tail reduces over).
    rows: &'s mut [f64],
    /// Per-`pc`-block packed-operand sums: `asum` spans the block's inner
    /// dimension, `bsum` holds one `KC` segment per band of the region.
    asum: Scratch,
    bsum: Scratch,
    inject: &'s [AbftInject],
}

impl<'s> AbftSink<'s> {
    /// Offset of band-local `bl`'s row segment (`+0` base, `+m` new,
    /// `+2m` pred).
    #[inline(always)]
    fn band_rows(&self, bl: usize) -> usize {
        bl * 3 * self.m
    }

    /// Scales `C ← β·C` exactly as `gemm::scale_c` would (same elementwise
    /// operations, hence the same bits) while accumulating the base row
    /// and column sums of the scaled matrix, row sums per band.
    pub(super) fn scale_and_base(&mut self, beta: f64, c: &mut MatViewMut<'_>) {
        #[cfg(target_arch = "x86_64")]
        if matches!(self.isa, Isa::Avx2) {
            // SAFETY: `Isa::Avx2` is only produced by `resolve` after
            // runtime detection confirmed the `avx2` CPU feature.
            return unsafe { self.scale_and_base_avx2(beta, c) };
        }
        self.scale_and_base_body(beta, c);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    // SAFETY: caller must ensure the CPU supports `avx2`; only the
    // `Isa::Avx2` dispatch arm (runtime-detected) calls this.
    unsafe fn scale_and_base_avx2(&mut self, beta: f64, c: &mut MatViewMut<'_>) {
        self.scale_and_base_body(beta, c);
    }

    #[inline(always)]
    fn scale_and_base_body(&mut self, beta: f64, c: &mut MatViewMut<'_>) {
        if beta == 0.0 {
            // Base sums are identically zero (`gemm_ft_with_inject`
            // zero-fills the aggregate scratch), so only `C` needs
            // clearing.
            c.fill(0.0);
            return;
        }
        for j in 0..c.cols() {
            let seg = self.band_rows(j / ABFT_BAND);
            let col = c.col_mut(j);
            if beta == 1.0 {
                let mut s = 0.0;
                for (i, &v) in col.iter().enumerate() {
                    s += v;
                    self.rows[seg + i] += v;
                }
                self.colbase[j] = s;
            } else {
                let mut s = 0.0;
                for (i, v) in col.iter_mut().enumerate() {
                    *v *= beta;
                    let x = *v;
                    s += x;
                    self.rows[seg + i] += x;
                }
                self.colbase[j] = s;
            }
        }
    }

    /// Resets the per-`pc`-block packed-panel sums.
    pub(super) fn begin_block(&mut self, kc: usize) {
        self.asum[..kc].fill(0.0);
        self.bsum.fill(0.0);
    }

    /// Accumulates the packed-`A` column sums for this `pc` block:
    /// `asum[p] += Σ_r op(A)(i,p)` over the rows of the just-packed
    /// block, read back cache-hot (accumulates across `ic` blocks).
    /// Per-panel `MR` chains in ascending panel order — the same
    /// association as summing during the pack itself.
    pub(super) fn accum_asum(&mut self, mc: usize, kc: usize, abuf: &[f64]) {
        #[cfg(target_arch = "x86_64")]
        if matches!(self.isa, Isa::Avx2) {
            // SAFETY: see `scale_and_base` — runtime-detected feature.
            return unsafe { self.accum_asum_avx2(mc, kc, abuf) };
        }
        self.accum_asum_body(mc, kc, abuf);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    // SAFETY: caller must ensure the CPU supports `avx2`; only the
    // `Isa::Avx2` dispatch arm (runtime-detected) calls this.
    unsafe fn accum_asum_avx2(&mut self, mc: usize, kc: usize, abuf: &[f64]) {
        self.accum_asum_body(mc, kc, abuf);
    }

    #[inline(always)]
    fn accum_asum_body(&mut self, mc: usize, kc: usize, abuf: &[f64]) {
        for pi in 0..mc.div_ceil(MR) {
            let panel = &abuf[pi * MR * kc..(pi + 1) * MR * kc];
            let seg = &mut self.asum[..kc];
            for (sp, row) in seg.iter_mut().zip(panel.chunks_exact(MR)) {
                let mut s = 0.0;
                for &v in row {
                    s += v;
                }
                *sp += s;
            }
        }
    }

    /// Accumulates the packed-`B` row sums per verification band:
    /// `bsum[band][p] += Σ_{j ∈ band} op(B)(p,j)`, read from the packed
    /// panels while they are cache-hot.
    ///
    /// **Canonical grouping.** The floating-point association is fixed as
    /// groups of `NR` columns anchored at each *band's* start — never at
    /// the packed panels, whose alignment shifts with the region
    /// partition (i.e. with the worker count). A canonical group
    /// straddling a packed-panel boundary is reassembled from both
    /// panels, element order strictly `j`-ascending, so `bsum` is
    /// bit-identical for every region partition.
    pub(super) fn accum_bsum(&mut self, jc: usize, nc: usize, kc: usize, bbuf: &[f64]) {
        #[cfg(target_arch = "x86_64")]
        if matches!(self.isa, Isa::Avx2) {
            // SAFETY: see `scale_and_base` — runtime-detected feature.
            return unsafe { self.accum_bsum_avx2(jc, nc, kc, bbuf) };
        }
        self.accum_bsum_body(jc, nc, kc, bbuf);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    // SAFETY: caller must ensure the CPU supports `avx2`; only the
    // `Isa::Avx2` dispatch arm (runtime-detected) calls this.
    unsafe fn accum_bsum_avx2(&mut self, jc: usize, nc: usize, kc: usize, bbuf: &[f64]) {
        self.accum_bsum_body(jc, nc, kc, bbuf);
    }

    #[inline(always)]
    fn accum_bsum_body(&mut self, jc: usize, nc: usize, kc: usize, bbuf: &[f64]) {
        let b0 = jc / ABFT_BAND;
        let b1 = (jc + nc - 1) / ABFT_BAND;
        for bl in b0..=b1 {
            let band_lo = (bl * ABFT_BAND).max(jc);
            let band_hi = ((bl + 1) * ABFT_BAND).min(jc + nc);
            let seg = &mut self.bsum[bl * KC..bl * KC + kc];
            let mut g0 = band_lo;
            while g0 < band_hi {
                let g1 = (g0 + NR).min(band_hi);
                // Region-local panel coordinates of the group's columns
                // (`jc`-relative panel grid). A canonical group spans at
                // most two packed panels because both grids have pitch NR;
                // `chunks_exact(NR)` walks the `p` rows with a
                // compile-time row length, so the short fold chains
                // unroll without per-`p` bounds checks.
                let lj0 = g0 - jc;
                let lj1 = g1 - 1 - jc;
                let pj_a = lj0 / NR;
                let pj_b = lj1 / NR;
                let ca = lj0 % NR;
                if pj_a == pj_b {
                    let width = g1 - g0;
                    let panel = &bbuf[pj_a * NR * kc..(pj_a + 1) * NR * kc];
                    if width == NR {
                        for (sp, row) in seg.iter_mut().zip(panel.chunks_exact(NR)) {
                            let mut s = 0.0;
                            for &v in row {
                                s += v;
                            }
                            *sp += s;
                        }
                    } else {
                        for (sp, row) in seg.iter_mut().zip(panel.chunks_exact(NR)) {
                            let mut s = 0.0;
                            for &v in &row[ca..ca + width] {
                                s += v;
                            }
                            *sp += s;
                        }
                    }
                } else {
                    let tail = (g1 - g0) - (NR - ca);
                    let pa = &bbuf[pj_a * NR * kc..(pj_a + 1) * NR * kc];
                    let pb = &bbuf[pj_b * NR * kc..(pj_b + 1) * NR * kc];
                    for ((sp, ra), rb) in seg
                        .iter_mut()
                        .zip(pa.chunks_exact(NR))
                        .zip(pb.chunks_exact(NR))
                    {
                        let mut s = 0.0;
                        for &v in &ra[ca..] {
                            s += v;
                        }
                        for &v in &rb[..tail] {
                            s += v;
                        }
                        *sp += s;
                    }
                }
                g0 = g1;
            }
        }
    }

    /// Folds one packed-`A` block into the predicted row sums of every
    /// band in the current `jc` window:
    /// `rowpred[band][i] += Σ_p op(A)(i,p)·bsum[band][p]`. The loop runs
    /// `p` outermost with an `MR`-lane accumulator — the lanes are
    /// independent FMA chains, so this vectorizes while performing the
    /// exact additions (in the exact order) of the naive `r`-outer nest.
    pub(super) fn accum_rowpred(
        &mut self,
        ic: usize,
        mc: usize,
        kc: usize,
        abuf: &[f64],
        jc: usize,
        nc: usize,
    ) {
        #[cfg(target_arch = "x86_64")]
        if matches!(self.isa, Isa::Avx2) {
            // SAFETY: see `scale_and_base` — runtime-detected feature.
            return unsafe { self.accum_rowpred_avx2(ic, mc, kc, abuf, jc, nc) };
        }
        self.accum_rowpred_body(ic, mc, kc, abuf, jc, nc);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    // SAFETY: caller must ensure the CPU supports `avx2`; only the
    // `Isa::Avx2` dispatch arm (runtime-detected) calls this.
    unsafe fn accum_rowpred_avx2(
        &mut self,
        ic: usize,
        mc: usize,
        kc: usize,
        abuf: &[f64],
        jc: usize,
        nc: usize,
    ) {
        self.accum_rowpred_body(ic, mc, kc, abuf, jc, nc);
    }

    #[inline(always)]
    fn accum_rowpred_body(
        &mut self,
        ic: usize,
        mc: usize,
        kc: usize,
        abuf: &[f64],
        jc: usize,
        nc: usize,
    ) {
        let b0 = jc / ABFT_BAND;
        let b1 = (jc + nc - 1) / ABFT_BAND;
        // Bands are folded in pairs so each pass over the packed block
        // feeds two accumulator sets — half the cache traffic of one
        // band-at-a-time sweeps. Per (band, row) the additions still run
        // in ascending `p`, so the result is bit-identical either way.
        let mut bl = b0;
        while bl <= b1 {
            let paired = bl < b1;
            let pred0 = self.band_rows(bl) + 2 * self.m;
            let pred1 = if paired {
                self.band_rows(bl + 1) + 2 * self.m
            } else {
                pred0
            };
            for pi in 0..mc.div_ceil(MR) {
                let ib = pi * MR;
                let h = MR.min(mc - ib);
                let panel = &abuf[pi * MR * kc..(pi + 1) * MR * kc];
                let mut acc0 = [0.0f64; MR];
                let mut acc1 = [0.0f64; MR];
                if paired {
                    let bs0 = &self.bsum[bl * KC..bl * KC + kc];
                    let bs1 = &self.bsum[(bl + 1) * KC..(bl + 1) * KC + kc];
                    for (p, (&bv0, &bv1)) in bs0.iter().zip(bs1).enumerate() {
                        let row = &panel[p * MR..p * MR + MR];
                        for (r, &av) in row.iter().enumerate() {
                            acc0[r] += av * bv0;
                            acc1[r] += av * bv1;
                        }
                    }
                } else {
                    let bs0 = &self.bsum[bl * KC..bl * KC + kc];
                    for (p, &bv0) in bs0.iter().enumerate() {
                        let row = &panel[p * MR..p * MR + MR];
                        for (a, &av) in acc0.iter_mut().zip(row) {
                            *a += av * bv0;
                        }
                    }
                }
                for (r, &a) in acc0.iter().take(h).enumerate() {
                    self.rows[pred0 + ic + ib + r] += a;
                }
                if paired {
                    for (r, &a) in acc1.iter().take(h).enumerate() {
                        self.rows[pred1 + ic + ib + r] += a;
                    }
                }
            }
            bl += if paired { 2 } else { 1 };
        }
    }

    /// Folds one packed-`B` block into the predicted column sums:
    /// `colpred[j] += Σ_p asum[p]·op(B)(p,j)`. Called after the `ic` loop,
    /// when `asum` covers every row block of this `pc` block. Same
    /// `p`-outer / `NR`-lane interchange as [`Self::accum_rowpred`]
    /// (zero-padded lanes accumulate zeros and are discarded).
    pub(super) fn accum_colpred(&mut self, jc: usize, nc: usize, kc: usize, bbuf: &[f64]) {
        #[cfg(target_arch = "x86_64")]
        if matches!(self.isa, Isa::Avx2) {
            // SAFETY: see `scale_and_base` — runtime-detected feature.
            return unsafe { self.accum_colpred_avx2(jc, nc, kc, bbuf) };
        }
        self.accum_colpred_body(jc, nc, kc, bbuf);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    // SAFETY: caller must ensure the CPU supports `avx2`; only the
    // `Isa::Avx2` dispatch arm (runtime-detected) calls this.
    unsafe fn accum_colpred_avx2(&mut self, jc: usize, nc: usize, kc: usize, bbuf: &[f64]) {
        self.accum_colpred_body(jc, nc, kc, bbuf);
    }

    #[inline(always)]
    fn accum_colpred_body(&mut self, jc: usize, nc: usize, kc: usize, bbuf: &[f64]) {
        for pj in 0..nc.div_ceil(NR) {
            let jb = pj * NR;
            let w = NR.min(nc - jb);
            let panel = &bbuf[pj * NR * kc..(pj + 1) * NR * kc];
            let mut acc = [0.0f64; NR];
            for (p, &av) in self.asum[..kc].iter().enumerate() {
                let row = &panel[p * NR..p * NR + NR];
                for (a, &bv) in acc.iter_mut().zip(row) {
                    *a += av * bv;
                }
            }
            for (cx, &a) in acc.iter().take(w).enumerate() {
                self.colpred[jc + jb + cx] += a;
            }
        }
    }

    /// Fresh-sum epilogue for one finished `mc × nc` block of `C` (final
    /// `pc` block only): re-reads the block while it is still cache-warm
    /// and folds it into the fresh row/column sums. Row sums ride
    /// contiguous `mc`-long vector adds; the column fold uses a striped
    /// 4-lane accumulator with a fixed combine tree, so the association
    /// is identical in the scalar and AVX2 builds and independent of the
    /// region partition. Injected faults landing in this block are
    /// written to memory *first*, so the fused detector sees exactly what
    /// a post-store flip would produce.
    pub(super) fn block_fresh_sums(
        &mut self,
        c: &mut MatViewMut<'_>,
        ic: usize,
        mc: usize,
        jc: usize,
        nc: usize,
    ) {
        #[cfg(target_arch = "x86_64")]
        if matches!(self.isa, Isa::Avx2) {
            // SAFETY: see `scale_and_base` — runtime-detected feature.
            return unsafe { self.block_fresh_sums_avx2(c, ic, mc, jc, nc) };
        }
        self.block_fresh_sums_body(c, ic, mc, jc, nc);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    // SAFETY: caller must ensure the CPU supports `avx2`; only the
    // `Isa::Avx2` dispatch arm (runtime-detected) calls this.
    unsafe fn block_fresh_sums_avx2(
        &mut self,
        c: &mut MatViewMut<'_>,
        ic: usize,
        mc: usize,
        jc: usize,
        nc: usize,
    ) {
        self.block_fresh_sums_body(c, ic, mc, jc, nc);
    }

    #[inline(always)]
    fn block_fresh_sums_body(
        &mut self,
        c: &mut MatViewMut<'_>,
        ic: usize,
        mc: usize,
        jc: usize,
        nc: usize,
    ) {
        for inj in self.inject {
            if inj.col < self.col0 {
                continue;
            }
            let lj = inj.col - self.col0;
            if lj >= jc && lj < jc + nc && inj.row >= ic && inj.row < ic + mc {
                let old = c.at(inj.row, lj);
                c.set(inj.row, lj, old + inj.delta);
            }
        }
        for lj in jc..jc + nc {
            let seg = self.band_rows(lj / ABFT_BAND) + self.m;
            let col = &c.col(lj)[ic..ic + mc];
            let rseg = &mut self.rows[seg + ic..seg + ic + mc];
            for (r, &v) in rseg.iter_mut().zip(col) {
                *r += v;
            }
            let mut acc = [0.0f64; 4];
            let mut chunks = col.chunks_exact(4);
            for ch in chunks.by_ref() {
                for (a, &v) in acc.iter_mut().zip(ch) {
                    *a += v;
                }
            }
            let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
            for &v in chunks.remainder() {
                s += v;
            }
            self.colnew[lj] += s;
        }
    }

    /// Degenerate update (`α = 0` or an empty inner dimension): `C` is
    /// unchanged past the `β` scaling, so the fresh sums equal the base
    /// sums by definition.
    pub(super) fn finish_no_update(&mut self) {
        self.colnew.copy_from_slice(self.colbase);
        let m = self.m;
        for bl in 0..self.rows.len() / (3 * m) {
            let seg = &mut self.rows[bl * 3 * m..bl * 3 * m + 2 * m];
            let (base, new) = seg.split_at_mut(m);
            new.copy_from_slice(base);
        }
    }
}

/// Everything one worker region needs: a band-aligned run of columns of
/// `C` plus its disjoint slices of the shared aggregate scratch (`rows`
/// holds the region's per-band `[base|new|pred]` segments).
struct RegionUnit<'s> {
    col0: usize,
    view: MatViewMut<'s>,
    colbase: &'s mut [f64],
    colnew: &'s mut [f64],
    colpred: &'s mut [f64],
    rows: &'s mut [f64],
}

#[allow(clippy::too_many_arguments)]
fn run_region(
    unit: RegionUnit<'_>,
    isa: Isa,
    transa: Trans,
    transb: Trans,
    alpha: f64,
    a: &MatView<'_>,
    b: &MatView<'_>,
    beta: f64,
    m: usize,
    k: usize,
    inject: &[AbftInject],
) {
    let RegionUnit {
        col0,
        mut view,
        colbase,
        colnew,
        colpred,
        rows,
    } = unit;
    let bw = view.cols();
    let nbands = bw.div_ceil(ABFT_BAND);
    let mut sink = AbftSink {
        isa,
        col0,
        m,
        colbase,
        colnew,
        colpred,
        rows,
        asum: workspace::scratch(KC),
        bsum: workspace::scratch(nbands * KC),
        inject,
    };
    let bv = op_col_slice(transb, b, col0, bw, k);
    gemm::gemm_block_serial(
        isa,
        transa,
        transb,
        alpha,
        a,
        &bv,
        beta,
        &mut view,
        Some(&mut sink),
    );
}

/// `C ← α·op(A)·op(B) + β·C` with the online-ABFT detector fused into the
/// blocked kernel. The numerical result is **bit-identical** to
/// [`gemm::gemm_blocked`] / `gemm_threaded` on a clean run — the fused
/// sums only read values the plain kernel also produces.
#[allow(clippy::too_many_arguments)] // standard BLAS gemm signature + options
pub fn gemm_ft(
    transa: Trans,
    transb: Trans,
    alpha: f64,
    a: &MatView<'_>,
    b: &MatView<'_>,
    beta: f64,
    c: &mut MatViewMut<'_>,
    opts: AbftOptions,
) -> AbftReport {
    gemm_ft_with_inject(transa, transb, alpha, a, b, beta, c, opts, &[])
}

/// [`gemm_ft`] with fault injection into stored `C` between the final
/// store and the fused fresh-sum epilogue (see [`AbftInject`]).
#[allow(clippy::too_many_arguments)] // standard BLAS gemm signature + options
pub fn gemm_ft_with_inject(
    transa: Trans,
    transb: Trans,
    alpha: f64,
    a: &MatView<'_>,
    b: &MatView<'_>,
    beta: f64,
    c: &mut MatViewMut<'_>,
    opts: AbftOptions,
    inject: &[AbftInject],
) -> AbftReport {
    let (m, n, k) = check_dims(transa, transb, a, b, c);
    record(model::gemm(m, n, k));
    if m == 0 || n == 0 {
        return AbftReport::clean(opts.tol.unwrap_or(0.0));
    }
    let isa = microkernel::resolve_isa();
    let bands = n.div_ceil(ABFT_BAND);
    let workers = backend::fork_threads(m.saturating_mul(n).saturating_mul(k.max(1)));

    // One scratch checkout holds every aggregate: three `n`-length column
    // arrays (base / new / predicted) followed by three `m`-length row
    // arrays *per band* (row sums are partial per band and reduced
    // serially afterwards). Arena contents are unspecified and every
    // aggregate accumulates with `+=`, so zero it here.
    let mut ws = workspace::scratch(3 * n + 3 * bands * m);
    ws.fill(0.0);
    {
        let (colws, rowws) = ws.split_at_mut(3 * n);
        let (colbase_all, colrest) = colws.split_at_mut(n);
        let (colnew_all, colpred_all) = colrest.split_at_mut(n);

        // Carve one band-aligned region per worker: a run of whole
        // verification bands of `C`, the matching column-aggregate
        // slices, and the run's private per-band row segments. Each
        // region runs the blocked kernel once, so `A` is packed once per
        // `pc` block regardless of how many bands the region spans —
        // the region → worker split affects scheduling only, never
        // results: every band's aggregates are computed by exactly one
        // worker in a fixed loop order.
        let ntasks = workers.min(bands).max(1);
        let nb_base = bands / ntasks;
        let nb_rem = bands % ntasks;
        let mut units: Vec<RegionUnit<'_>> = Vec::with_capacity(ntasks);
        let mut crest = c.rb_mut();
        let mut cb_rest: &mut [f64] = colbase_all;
        let mut cn_rest: &mut [f64] = colnew_all;
        let mut cp_rest: &mut [f64] = colpred_all;
        let mut row_rest: &mut [f64] = rowws;
        let mut j0 = 0usize;
        for r in 0..ntasks {
            let nb = nb_base + usize::from(r < nb_rem);
            let bw = (nb * ABFT_BAND).min(n - j0);
            let (view, ctail) = crest.split_at_col(bw);
            crest = ctail;
            let (colbase, t1) = cb_rest.split_at_mut(bw);
            cb_rest = t1;
            let (colnew, t2) = cn_rest.split_at_mut(bw);
            cn_rest = t2;
            let (colpred, t3) = cp_rest.split_at_mut(bw);
            cp_rest = t3;
            let (rows, r1) = row_rest.split_at_mut(3 * nb * m);
            row_rest = r1;
            units.push(RegionUnit {
                col0: j0,
                view,
                colbase,
                colnew,
                colpred,
                rows,
            });
            j0 += bw;
        }

        let tasks: Vec<ScopedTask<'_>> = units
            .into_iter()
            .map(|unit| -> ScopedTask<'_> {
                Box::new(move || {
                    run_region(unit, isa, transa, transb, alpha, a, b, beta, m, k, inject);
                })
            })
            .collect();
        pool::run_scoped(tasks);
    }

    // ---- Verify / locate / correct (serial tail) --------------------
    let _span = ft_trace::span!("blas.abft");
    let (colws, rowws) = ws.split_at_mut(3 * n);
    let (colbase, colrest) = colws.split_at(n);
    let (colnew, colpred) = colrest.split_at(n);

    // Reduce the per-band row aggregates in ascending band order; the
    // residual is additive across bands, so partial residuals sum to the
    // full-row residual deterministically.
    let row_resid = |i: usize| -> f64 {
        let mut d = 0.0;
        for bi in 0..bands {
            let seg = &rowws[bi * 3 * m..(bi + 1) * 3 * m];
            d += seg[m + i] - alpha.mul_add(seg[2 * m + i], seg[i]);
        }
        d
    };
    let col_resid = |j: usize| -> f64 { colnew[j] - alpha.mul_add(colpred[j], colbase[j]) };

    let tol = opts.tol.unwrap_or_else(|| {
        let mut scale = 1.0f64;
        for j in 0..n {
            scale = scale
                .max(colnew[j].abs())
                .max(alpha.mul_add(colpred[j], colbase[j]).abs());
        }
        32.0 * f64::EPSILON * (m.max(n).max(k)) as f64 * scale
    });

    let mut row_def: Vec<(usize, f64)> = Vec::new();
    let mut col_def: Vec<(usize, f64)> = Vec::new();
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // deliberate: NaN counts as exceeded
    for i in 0..m {
        let d = row_resid(i);
        if !(d.abs() <= tol) {
            row_def.push((i, d));
        }
    }
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // deliberate: NaN counts as exceeded
    for j in 0..n {
        let d = col_resid(j);
        if !(d.abs() <= tol) {
            col_def.push((j, d));
        }
    }

    if row_def.is_empty() && col_def.is_empty() {
        return AbftReport::clean(tol);
    }
    let detected = row_def.len().max(col_def.len());
    let (errors, resolved) = match_deficits(row_def, col_def, tol);
    ft_trace::counter("abft.detected").add(detected as u64);

    let mut corrected = 0usize;
    if opts.correct && resolved {
        for e in &errors {
            let old = c.at(e.row, e.col);
            c.set(e.row, e.col, old - e.delta);
        }
        corrected = errors.len();
        ft_trace::counter("abft.corrected").add(corrected as u64);
    }
    AbftReport {
        detected,
        corrected,
        resolved,
        errors,
        tol,
    }
}

/// Matches row checksum deficits against column checksum deficits, each
/// a `(index, deficit)` pair whose deficit exceeded `tol`. A corrupted
/// element `(i, j)` off by `ε` shows up as `+ε` in exactly row deficit `i`
/// and column deficit `j`.
///
/// A single deficient row (or column) takes every error on the other axis;
/// scattered deficits are peeled by unique matches within
/// `tol.max(1e-9·max|d|)`; equal-magnitude rectangles are unresolvable by
/// construction, and so are one-sided deficits (a corrupted checksum, or
/// an undetectable pattern). Returns the located errors and whether the
/// whole pattern was resolved.
pub fn match_deficits(
    row_def: Vec<(usize, f64)>,
    col_def: Vec<(usize, f64)>,
    tol: f64,
) -> (Vec<AbftError>, bool) {
    match (row_def.len(), col_def.len()) {
        (0, 0) => (Vec::new(), true),
        // All errors share one row: columns identify each error.
        (1, _) => {
            let (r, rd) = row_def[0];
            let errors: Vec<AbftError> = col_def
                .iter()
                .map(|&(j, d)| AbftError {
                    row: r,
                    col: j,
                    delta: d,
                })
                .collect();
            let sum: f64 = errors.iter().map(|e| e.delta).sum();
            let resolved = !col_def.is_empty() && (sum - rd).abs() <= tol.max(1e-8 * rd.abs());
            (errors, resolved)
        }
        // All errors share one column: rows identify each error.
        (_, 1) => {
            let (cj, cd) = col_def[0];
            let errors: Vec<AbftError> = row_def
                .iter()
                .map(|&(i, d)| AbftError {
                    row: i,
                    col: cj,
                    delta: d,
                })
                .collect();
            let sum: f64 = errors.iter().map(|e| e.delta).sum();
            let resolved = !row_def.is_empty() && (sum - cd).abs() <= tol.max(1e-8 * cd.abs());
            (errors, resolved)
        }
        // One-sided deficits cannot be attributed to an element.
        (0, _) | (_, 0) => (Vec::new(), false),
        _ => peel_matches(row_def, col_def, tol),
    }
}

fn peel_matches(
    mut rows: Vec<(usize, f64)>,
    mut cols: Vec<(usize, f64)>,
    tol: f64,
) -> (Vec<AbftError>, bool) {
    let mut errors = Vec::new();
    let match_tol = |a: f64, b: f64| (a - b).abs() <= tol.max(1e-9 * a.abs().max(b.abs()));
    loop {
        if rows.is_empty() && cols.is_empty() {
            return (errors, true);
        }
        if rows.is_empty() != cols.is_empty() {
            return (errors, false);
        }
        let mut progress = false;
        'outer: for ri in 0..rows.len() {
            let (r, rd) = rows[ri];
            let candidates: Vec<usize> = (0..cols.len())
                .filter(|&ci| match_tol(rd, cols[ci].1))
                .collect();
            if candidates.len() == 1 {
                let ci = candidates[0];
                let (cj, _cd) = cols[ci];
                errors.push(AbftError {
                    row: r,
                    col: cj,
                    delta: rd,
                });
                rows.remove(ri);
                cols.remove(ci);
                progress = true;
                break 'outer;
            }
        }
        if !progress {
            // The rectangle ambiguity: every row deficit matches 0 or ≥2
            // column deficits.
            return (errors, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level3::{gemm_blocked, gemm_threaded};
    use ft_matrix::Matrix;

    fn bits_eq(a: &Matrix, b: &Matrix) -> bool {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn clean_run_is_bit_identical_to_plain_kernel() {
        for &(m, n, k) in &[(30usize, 40usize, 50usize), (257, 300, 70), (64, 129, 5)] {
            let a = ft_matrix::random::uniform(m, k, 31);
            let b = ft_matrix::random::uniform(k, n, 32);
            let c0 = ft_matrix::random::uniform(m, n, 33);
            let mut c_plain = c0.clone();
            gemm_blocked(
                Trans::No,
                Trans::No,
                1.25,
                &a.as_view(),
                &b.as_view(),
                -0.5,
                &mut c_plain.as_view_mut(),
            );
            let mut c_ft = c0.clone();
            let report = gemm_ft(
                Trans::No,
                Trans::No,
                1.25,
                &a.as_view(),
                &b.as_view(),
                -0.5,
                &mut c_ft.as_view_mut(),
                AbftOptions::default(),
            );
            assert!(report.resolved && report.detected == 0, "{report:?}");
            assert!(bits_eq(&c_plain, &c_ft), "{m}x{n}x{k}");
        }
    }

    #[test]
    fn single_injected_flip_is_located_and_corrected() {
        let (m, n, k) = (90usize, 150usize, 60usize);
        let a = ft_matrix::random::uniform(m, k, 41);
        let b = ft_matrix::random::uniform(k, n, 42);
        let c0 = ft_matrix::random::uniform(m, n, 43);
        let mut truth = c0.clone();
        gemm_blocked(
            Trans::No,
            Trans::No,
            1.0,
            &a.as_view(),
            &b.as_view(),
            1.0,
            &mut truth.as_view_mut(),
        );
        let mut c = c0.clone();
        let report = gemm_ft_with_inject(
            Trans::No,
            Trans::No,
            1.0,
            &a.as_view(),
            &b.as_view(),
            1.0,
            &mut c.as_view_mut(),
            AbftOptions::default(),
            &[AbftInject {
                row: 37,
                col: 141,
                delta: 0.75,
            }],
        );
        assert!(report.resolved, "{report:?}");
        assert_eq!(report.detected, 1);
        assert_eq!(report.corrected, 1);
        assert_eq!(report.errors.len(), 1);
        assert_eq!((report.errors[0].row, report.errors[0].col), (37, 141));
        assert!((report.errors[0].delta - 0.75).abs() < 1e-9, "{report:?}");
        // The located delta absorbs the clean-run rounding residue of the
        // checksums, so correction restores the element to within that
        // residue — not bitwise.
        assert!(
            ft_matrix::max_abs_diff(&truth, &c) < 1e-9,
            "correction must restore the flipped element"
        );
    }

    #[test]
    fn scattered_flips_across_bands_are_corrected() {
        let (m, n, k) = (70usize, 300usize, 40usize);
        let a = ft_matrix::random::uniform(m, k, 51);
        let b = ft_matrix::random::uniform(k, n, 52);
        let mut truth = Matrix::zeros(m, n);
        gemm_blocked(
            Trans::No,
            Trans::No,
            1.0,
            &a.as_view(),
            &b.as_view(),
            0.0,
            &mut truth.as_view_mut(),
        );
        let mut c = Matrix::zeros(m, n);
        let inject = [
            AbftInject {
                row: 3,
                col: 10,
                delta: 0.5,
            },
            AbftInject {
                row: 40,
                col: 200,
                delta: -0.875,
            },
            AbftInject {
                row: 66,
                col: 299,
                delta: 0.3125,
            },
        ];
        let report = gemm_ft_with_inject(
            Trans::No,
            Trans::No,
            1.0,
            &a.as_view(),
            &b.as_view(),
            0.0,
            &mut c.as_view_mut(),
            AbftOptions::default(),
            &inject,
        );
        assert!(report.resolved, "{report:?}");
        assert_eq!(report.corrected, 3);
        assert!(ft_matrix::max_abs_diff(&truth, &c) < 1e-9);
    }

    #[test]
    fn rectangle_pattern_reports_unresolved() {
        let (m, n, k) = (40usize, 60usize, 30usize);
        let a = ft_matrix::random::uniform(m, k, 61);
        let b = ft_matrix::random::uniform(k, n, 62);
        let mut c = Matrix::zeros(m, n);
        let inject = [
            AbftInject {
                row: 5,
                col: 7,
                delta: 0.5,
            },
            AbftInject {
                row: 5,
                col: 20,
                delta: 0.5,
            },
            AbftInject {
                row: 30,
                col: 7,
                delta: 0.5,
            },
            AbftInject {
                row: 30,
                col: 20,
                delta: 0.5,
            },
        ];
        let report = gemm_ft_with_inject(
            Trans::No,
            Trans::No,
            1.0,
            &a.as_view(),
            &b.as_view(),
            0.0,
            &mut c.as_view_mut(),
            AbftOptions::default(),
            &inject,
        );
        assert!(!report.resolved, "{report:?}");
        assert_eq!(report.corrected, 0);
    }

    #[test]
    fn detection_is_deterministic_across_thread_counts() {
        let (m, n, k) = (50usize, 280usize, 35usize);
        let a = ft_matrix::random::uniform(m, k, 71);
        let b = ft_matrix::random::uniform(k, n, 72);
        let c0 = ft_matrix::random::uniform(m, n, 73);
        let inject = [AbftInject {
            row: 11,
            col: 250,
            delta: 1e-3,
        }];
        let mut reports = Vec::new();
        let mut outputs = Vec::new();
        for t in [1usize, 2, 4] {
            let mut c = c0.clone();
            let r = crate::backend::with_backend(crate::backend::Backend::Threaded(t), || {
                gemm_ft_with_inject(
                    Trans::No,
                    Trans::No,
                    0.9,
                    &a.as_view(),
                    &b.as_view(),
                    0.4,
                    &mut c.as_view_mut(),
                    AbftOptions::default(),
                    &inject,
                )
            });
            reports.push(r);
            outputs.push(c);
        }
        for r in &reports[1..] {
            assert_eq!(r.detected, reports[0].detected);
            assert_eq!(r.corrected, reports[0].corrected);
            assert_eq!(r.errors, reports[0].errors);
            assert_eq!(r.tol.to_bits(), reports[0].tol.to_bits());
        }
        for c in &outputs[1..] {
            assert!(bits_eq(c, &outputs[0]));
        }
    }

    #[test]
    fn clean_run_matches_threaded_kernel_bits() {
        let (m, n, k) = (80usize, 260usize, 45usize);
        let b = ft_matrix::random::uniform(k, n, 82);
        let c0 = ft_matrix::random::uniform(m, n, 83);
        let mut c_thr = c0.clone();
        gemm_threaded(
            3,
            Trans::Yes,
            Trans::No,
            -1.0,
            &ft_matrix::random::uniform(k, m, 84).as_view(),
            &b.as_view(),
            1.0,
            &mut c_thr.as_view_mut(),
        );
        // Same operands through gemm_ft.
        let at = ft_matrix::random::uniform(k, m, 84);
        let mut c_ft = c0.clone();
        let report = gemm_ft(
            Trans::Yes,
            Trans::No,
            -1.0,
            &at.as_view(),
            &b.as_view(),
            1.0,
            &mut c_ft.as_view_mut(),
            AbftOptions::default(),
        );
        assert!(report.resolved && report.detected == 0, "{report:?}");
        assert!(bits_eq(&c_thr, &c_ft));
    }
}
