//! Structure-of-arrays score tiles: the data layout and lane kernels behind
//! the fast scorers (DESIGN.md §4.10).
//!
//! The scalar layout is gene-major (`row[g][col]`): scoring one arrangement
//! walks a gather list per gene, so every add depends on the previous one and
//! the loop never vectorizes. This module transposes the cached sufficient
//! statistics into **column-major lanes** (`col[c][g]`): scoring walks the
//! selected columns in the *outer* loop and accumulates a contiguous lane of
//! genes in the *inner* loop. Each gene still sees its values in ascending
//! column order — the exact order the scalar accumulators push — so the f64
//! sums are bitwise identical to the scalar path, while the lane loop is a
//! pure independent-accumulator form the compiler autovectorizes.
//!
//! Missing cells are stored as `+0.0` in the lanes. That is bitwise-neutral:
//! an IEEE accumulator that starts at `+0.0` can never become `-0.0` by
//! adding finite values (`x + (-x) = +0.0`, `+0.0 + ±0.0 = +0.0`), so adding
//! a zeroed cell leaves the running sum's bits untouched. Counts are fixed up
//! separately via [`MissMask`]: a per-gene missing-column bitset ANDed with a
//! per-arrangement selected-column bitset, one `popcount` per dirty gene.
//!
//! Everything is generic over [`Real`] (`f64`/`f32`): the same kernels serve
//! the bitwise-exact default and the opt-in `SPRINT_PRECISION=f32` mode.
//!
//! Every kernel body is compiled three times, for the target's baseline ISA
//! and, on x86-64, with AVX2 + FMA and with AVX-512F enabled; `Isa::run`
//! picks the body. The wider ISAs widen the vectors, and each lane still
//! performs the same IEEE operations in the same order (Rust never contracts
//! `a * b + c`). The one fused operation is the explicit [`Real::mul_add`] of
//! the two-sample combine's reciprocal division, which the wider bodies take
//! only in blocks where DESIGN.md §4.10 proves it returns the quotient `/`
//! returns; the baseline body keeps `/`. So all three bodies produce the same
//! bits.

use crate::stats::scorer::{ScorerScratch, ScratchParts};

/// Lane width (elements) of the `chunks_exact` kernels. Eight elements is a
/// full AVX-512 vector of `f64` / half a vector of `f32`, and small enough
/// that the remainder loop is negligible for any tile shape.
pub const LANE: usize = 8;

/// Genes per register block: a kernel that keeps one accumulator per gene
/// for a whole arrangement (or bootstrap draw) holds a block's accumulators
/// in vector registers instead of loading and storing them per column.
/// `SoaColumns` pads every column to whole blocks, so a block never reads
/// past its column.
pub const BLOCK: usize = 2 * LANE;

/// Gene-lane sub-tile width of the SoA scorers: each `score_tile` call is cut
/// into chunks of this many genes so the lane accumulators (a few KB) stay in
/// L1 across the whole arrangement batch. Per-gene arithmetic is independent
/// of the chunk geometry, so results are bitwise identical for any value.
pub const SOA_TILE: usize = 128;

/// The instruction set a lane kernel body is compiled for, narrowest first:
/// a host that runs one ISA runs every ISA before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    /// The compilation target's baseline (SSE2 on x86-64).
    Baseline,
    /// x86-64 with AVX2 and FMA. Rust never contracts `a * b + c`, so the
    /// only fused operations are the explicit [`Real::mul_add`] calls of the
    /// two-sample reciprocal division (DESIGN.md §4.10).
    Avx2,
    /// x86-64 with AVX2, FMA and AVX-512F; fused operations as for
    /// [`Isa::Avx2`].
    Avx512,
}

impl Isa {
    /// The widest ISA this host runs. The probes are the standard library's
    /// `is_x86_feature_detected!`, which caches its answers. A host without
    /// FMA runs the baseline body, whatever its vector width.
    pub fn host() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Isa::Avx512;
            }
            return Isa::Avx2;
        }
        Isa::Baseline
    }

    /// Whether this host can run kernels compiled for `self`.
    pub(crate) fn supported(self) -> bool {
        self <= Isa::host()
    }

    /// Whether `Real::mul_add` is one instruction in this ISA's body. In the
    /// baseline body it is a libm call, so the kernels there keep `/`.
    pub(crate) fn has_fma(self) -> bool {
        self > Isa::Baseline
    }

    /// Lower-case name, as the scorer note prints it.
    pub fn as_str(self) -> &'static str {
        match self {
            Isa::Baseline => "baseline",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }

    /// Run `kernel` in the body compiled for this ISA (the baseline body when
    /// the host cannot run it).
    #[inline]
    pub(crate) fn run<K: Kernel>(self, kernel: K) -> K::Out {
        #[cfg(target_arch = "x86_64")]
        if self.supported() {
            match self {
                // SAFETY: the host supports AVX-512F, AVX2 and FMA, checked
                // above.
                Isa::Avx512 => return unsafe { run_avx512(kernel) },
                // SAFETY: the host supports AVX2 and FMA, checked above.
                Isa::Avx2 => return unsafe { run_avx2(kernel) },
                Isa::Baseline => {}
            }
        }
        kernel.run()
    }
}

/// One call of a lane kernel. Implementations mark `run`
/// `#[inline(always)]`, so [`Isa::run`] inlines the body into each ISA's
/// entry point and the compiler generates it once per ISA.
pub(crate) trait Kernel {
    type Out;
    fn run(self) -> Self::Out;
}

/// `kernel`'s body compiled with AVX2 and FMA enabled.
///
/// # Safety
///
/// The host must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn run_avx2<K: Kernel>(kernel: K) -> K::Out {
    kernel.run()
}

/// `kernel`'s body compiled with AVX2, FMA and AVX-512F enabled.
///
/// # Safety
///
/// The host must support AVX2, FMA and AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,avx512f")]
unsafe fn run_avx512<K: Kernel>(kernel: K) -> K::Out {
    kernel.run()
}

/// An accumulation element type of the SoA kernels: `f64` (reference,
/// bitwise-reproducible) or `f32` (opt-in, bounded error). The trait carries
/// exactly the operations the statistic combines use, so the generic scorer
/// code reads like the scalar formulas.
pub trait Real:
    Copy
    + Send
    + Sync
    + PartialOrd
    + std::fmt::Debug
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::Neg<Output = Self>
    + std::ops::AddAssign
    + 'static
{
    /// Positive zero.
    const ZERO: Self;
    /// True for the reduced-precision mode (selects the `-f32` path names).
    const IS_F32: bool;

    /// Round an `f64` into this precision.
    fn from_f64(v: f64) -> Self;
    /// Widen back to `f64` (exact).
    fn to_f64(self) -> f64;
    /// Convert a count.
    fn from_usize(n: usize) -> Self;
    /// Quiet NaN.
    fn nan() -> Self;
    /// NaN test.
    fn is_nan(self) -> bool;
    /// Square root.
    fn sqrt(self) -> Self;
    /// IEEE max (NaN-discarding, like `f64::max`).
    fn max(self, other: Self) -> Self;
    /// `self · a + b` with one rounding.
    fn mul_add(self, a: Self, b: Self) -> Self;

    /// Split the shared scratch into the per-arrangement views plus this
    /// precision's lane buffer. A single borrow-splitting accessor, so the
    /// index lists stay readable while the lanes are written.
    fn parts(scratch: &mut ScorerScratch) -> ScratchParts<'_, Self>
    where
        Self: Sized;
}

impl Real for f64 {
    const ZERO: Self = 0.0;
    const IS_F32: bool = false;

    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn from_usize(n: usize) -> Self {
        n as f64
    }
    #[inline]
    fn nan() -> Self {
        f64::NAN
    }
    #[inline]
    fn is_nan(self) -> bool {
        f64::is_nan(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }

    fn parts(scratch: &mut ScorerScratch) -> ScratchParts<'_, Self> {
        scratch.parts_f64()
    }
}

impl Real for f32 {
    const ZERO: Self = 0.0;
    const IS_F32: bool = true;

    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn from_usize(n: usize) -> Self {
        n as f32
    }
    #[inline]
    fn nan() -> Self {
        f32::NAN
    }
    #[inline]
    fn is_nan(self) -> bool {
        f32::is_nan(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline]
    fn max(self, other: Self) -> Self {
        f32::max(self, other)
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }

    fn parts(scratch: &mut ScorerScratch) -> ScratchParts<'_, Self> {
        scratch.parts_f32()
    }
}

/// A zero-initialized buffer whose payload starts on a 64-byte (cache-line)
/// boundary, without any `unsafe`: the allocation is over-sized by one cache
/// line and the slice starts at the first aligned element.
#[derive(Default)]
pub(crate) struct AlignedBuf<R> {
    v: Vec<R>,
    off: usize,
    len: usize,
}

impl<R: Real> AlignedBuf<R> {
    /// Allocate `len` zeroed elements, 64-byte aligned.
    pub fn zeroed(len: usize) -> Self {
        let pad = 64 / std::mem::size_of::<R>();
        let v = vec![R::ZERO; len + pad];
        let off = v.as_ptr().align_offset(64);
        // `align_offset` is allowed to bail with usize::MAX; fall back to the
        // (correct, merely unaligned) start of the allocation.
        let off = if off > pad { 0 } else { off };
        AlignedBuf { v, off, len }
    }

    pub fn as_slice(&self) -> &[R] {
        &self.v[self.off..self.off + self.len]
    }

    pub fn as_mut_slice(&mut self) -> &mut [R] {
        &mut self.v[self.off..self.off + self.len]
    }

    /// The first `len` elements, reallocated zeroed when the buffer is
    /// shorter: the scratch accumulators of the in-memory lane scorers,
    /// which zero what they read. Starting them on a cache line made `f`
    /// and `corr` measurably faster in the AVX2 and AVX-512 bodies
    /// (EXPERIMENTS.md, "AVX-512 kernel bodies").
    pub fn prefix_mut(&mut self, len: usize) -> &mut [R] {
        if len > self.len {
            *self = AlignedBuf::zeroed(len);
        }
        &mut self.v[self.off..self.off + len]
    }
}

impl<R: Real> Clone for AlignedBuf<R> {
    /// A fresh aligned allocation: a cloned `Vec` may land at another
    /// offset from a cache line than the original.
    fn clone(&self) -> Self {
        let mut buf = AlignedBuf::zeroed(self.len);
        buf.as_mut_slice().copy_from_slice(self.as_slice());
        buf
    }
}

impl<R: Real> std::fmt::Debug for AlignedBuf<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AlignedBuf(len={})", self.len)
    }
}

/// Column-major gene lanes: `cols` columns of `genes` values each, every
/// column padded to whole [`BLOCK`]s (whole cache lines at either precision)
/// so `col(c, ..)` slices start aligned and a block starting at any multiple
/// of `BLOCK` below `genes` stays inside its column. Cells default to `+0.0`
/// — the bitwise-neutral encoding of "missing" (see the module docs).
#[derive(Debug)]
pub(crate) struct SoaColumns<R: Real> {
    lanes: usize,
    buf: AlignedBuf<R>,
}

impl<R: Real> SoaColumns<R> {
    /// Allocate zeroed lanes for `genes × cols` cells.
    pub fn new(genes: usize, cols: usize) -> Self {
        let lanes = genes.div_ceil(BLOCK).max(1) * BLOCK;
        SoaColumns {
            lanes,
            buf: AlignedBuf::zeroed(lanes * cols),
        }
    }

    /// Padded length of every column (a multiple of [`BLOCK`]).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Store one cell.
    pub fn set(&mut self, col: usize, gene: usize, v: R) {
        self.buf.as_mut_slice()[col * self.lanes + gene] = v;
    }

    /// The [`BLOCK`] cells of one column starting at gene `start`, a
    /// multiple of `BLOCK`, to fill.
    pub fn block_mut(&mut self, col: usize, start: usize) -> &mut [R; BLOCK] {
        let base = col * self.lanes + start;
        (&mut self.buf.as_mut_slice()[base..base + BLOCK])
            .try_into()
            .expect("block inside its column")
    }

    /// The gene lane of one column, restricted to a gene range.
    #[inline]
    pub fn col(&self, col: usize, genes: &std::ops::Range<usize>) -> &[R] {
        let base = col * self.lanes;
        &self.buf.as_slice()[base + genes.start..base + genes.end]
    }

    /// The [`BLOCK`] genes of one column starting at `start`, a multiple of
    /// `BLOCK` (padding cells read as `+0.0`).
    #[inline(always)]
    pub fn block(&self, col: usize, start: usize) -> &[R; BLOCK] {
        let base = col * self.lanes + start;
        self.buf.as_slice()[base..base + BLOCK]
            .try_into()
            .expect("block inside its column")
    }
}

/// Per-gene missing-column bitsets plus the popcount machinery that corrects
/// group counts for dirty genes without touching the lane sums.
#[derive(Debug, Default)]
pub(crate) struct MissMask {
    /// `u64` words per gene.
    words: usize,
    /// `genes × words` bitset, gene-major; bit `c` of word `c/64` set when
    /// the gene's column `c` is missing.
    bits: Vec<u64>,
}

impl MissMask {
    /// Allocate an empty mask set.
    pub fn new(genes: usize, cols: usize) -> Self {
        let words = cols.div_ceil(64).max(1);
        MissMask {
            words,
            bits: vec![0; genes * words],
        }
    }

    /// Words per gene (= words per selection mask).
    pub fn words(&self) -> usize {
        self.words
    }

    /// Mark column `col` of gene `gene` missing.
    pub fn set(&mut self, gene: usize, col: usize) {
        self.bits[gene * self.words + col / 64] |= 1u64 << (col % 64);
    }

    /// The bitset of one gene.
    #[inline]
    pub fn gene(&self, gene: usize) -> &[u64] {
        &self.bits[gene * self.words..(gene + 1) * self.words]
    }

    /// How many selected columns (`sel`) are missing for a gene (`miss`).
    #[inline]
    pub fn overlap(sel: &[u64], miss: &[u64]) -> usize {
        sel.iter()
            .zip(miss)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }
}

/// Append one selected-column bitset (`labels[col] == class`) of `words`
/// words to `out`. The scorers build one mask per arrangement (per class for
/// F) in `begin_batch`, only when the data has any dirty gene.
pub(crate) fn push_sel_mask(out: &mut Vec<u64>, words: usize, labels: &[u8], class: u8) {
    let base = out.len();
    out.resize(base + words, 0);
    for (col, &l) in labels.iter().enumerate() {
        if l == class {
            out[base + col / 64] |= 1u64 << (col % 64);
        }
    }
}

/// `acc[i] += src[i]` over one register block of genes.
///
/// The block kernels are written as [`LANE`]-wide chunks: on a fixed-size
/// block they unroll into whole-vector adds whose accumulators stay in
/// registers across the columns of an arrangement.
#[inline]
pub(crate) fn block_add<R: Real>(acc: &mut [R; BLOCK], src: &[R; BLOCK]) {
    for (a, s) in acc.chunks_exact_mut(LANE).zip(src.chunks_exact(LANE)) {
        for i in 0..LANE {
            a[i] += s[i];
        }
    }
}

/// `sums[i] += src[i]; sqs[i] += src[i]²` over one register block — the
/// fused moment gather of the two-sample scorers.
#[inline]
pub(crate) fn block_add_sq<R: Real>(sums: &mut [R; BLOCK], sqs: &mut [R; BLOCK], src: &[R; BLOCK]) {
    let chunks = sums.chunks_exact_mut(LANE).zip(sqs.chunks_exact_mut(LANE));
    for ((su, sq), s) in chunks.zip(src.chunks_exact(LANE)) {
        for i in 0..LANE {
            let v = s[i];
            su[i] += v;
            sq[i] += v * v;
        }
    }
}

/// `acc[i] += src[i]` over a gene lane held in memory.
///
/// The lane kernels are plain element loops, so the loop vectorizer sees
/// unit-stride accesses at every vector width. Written as `LANE`-wide
/// chunks over a long lane, the AVX-512 body vectorized across chunks with
/// gathers and scatters and ran `f` and `pairt` 1.4–2.1× slower than the
/// AVX2 body (EXPERIMENTS.md, "AVX-512 kernel bodies").
#[inline]
pub(crate) fn lane_add<R: Real>(acc: &mut [R], src: &[R]) {
    debug_assert_eq!(acc.len(), src.len());
    for (a, &s) in acc.iter_mut().zip(src) {
        *a += s;
    }
}

/// `sums[i] += src[i]; sqs[i] += src[i]²` over a gene lane — the fused
/// moment gather of the F scorer.
#[inline]
pub(crate) fn lane_add_sq<R: Real>(sums: &mut [R], sqs: &mut [R], src: &[R]) {
    debug_assert_eq!(sums.len(), src.len());
    debug_assert_eq!(sqs.len(), src.len());
    for ((su, sq), &v) in sums.iter_mut().zip(sqs.iter_mut()).zip(src) {
        *su += v;
        *sq += v * v;
    }
}

/// `acc[i] += w·src[i]` over a gene lane — the sign-broadcast kernel of the
/// gather-free paired-t path (`w = ±1`).
#[inline]
pub(crate) fn lane_add_scaled<R: Real>(acc: &mut [R], src: &[R], w: R) {
    debug_assert_eq!(acc.len(), src.len());
    for (a, &s) in acc.iter_mut().zip(src) {
        *a += w * s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_buf_is_cache_line_aligned_and_zeroed() {
        for len in [0usize, 1, 7, 64, 129] {
            let buf = AlignedBuf::<f64>::zeroed(len);
            let s = buf.as_slice();
            assert_eq!(s.len(), len);
            assert!(s.iter().all(|v| v.to_bits() == 0));
            if len > 0 {
                assert_eq!(s.as_ptr() as usize % 64, 0, "len={len}");
            }
        }
        let buf = AlignedBuf::<f32>::zeroed(33);
        assert_eq!(buf.as_slice().as_ptr() as usize % 64, 0);
        // Scratch lanes: a growing prefix stays aligned, and so does a clone.
        let mut lanes = AlignedBuf::<f64>::default();
        for len in [3usize, 512, 100] {
            let prefix = lanes.prefix_mut(len);
            assert_eq!(prefix.len(), len);
            assert_eq!(prefix.as_ptr() as usize % 64, 0, "prefix {len}");
            prefix.fill(1.5);
        }
        let copy = lanes.clone();
        assert_eq!(copy.as_slice().as_ptr() as usize % 64, 0);
        assert_eq!(copy.as_slice(), lanes.as_slice());
    }

    #[test]
    fn soa_columns_round_trip_and_align() {
        let mut soa = SoaColumns::<f64>::new(13, 3);
        for c in 0..3 {
            for g in 0..13 {
                soa.set(c, g, (c * 100 + g) as f64);
            }
        }
        for c in 0..3 {
            let lane = soa.col(c, &(0..13));
            assert_eq!(lane.len(), 13);
            assert_eq!(lane.as_ptr() as usize % 64, 0, "col {c}");
            for (g, &v) in lane.iter().enumerate() {
                assert_eq!(v, (c * 100 + g) as f64);
            }
        }
        // Sub-ranges slice the same lane.
        assert_eq!(soa.col(1, &(5..8)), &[105.0, 106.0, 107.0]);
    }

    #[test]
    fn miss_mask_popcounts_selected_missing_columns() {
        let mut miss = MissMask::new(2, 70);
        miss.set(0, 3);
        miss.set(0, 65);
        miss.set(1, 0);
        let mut labels = vec![0u8; 70];
        labels[3] = 1;
        labels[64] = 1;
        labels[65] = 1;
        let mut sel = Vec::new();
        push_sel_mask(&mut sel, miss.words(), &labels, 1);
        assert_eq!(sel.len(), 2);
        assert_eq!(MissMask::overlap(&sel, miss.gene(0)), 2);
        assert_eq!(MissMask::overlap(&sel, miss.gene(1)), 0);
    }

    #[test]
    fn lane_kernels_match_scalar_loops_including_remainders() {
        // Lengths straddling the vector widths exercise the remainders.
        for len in [1usize, 7, 8, 9, 16, 19] {
            let src: Vec<f64> = (0..len).map(|i| i as f64 * 0.5 - 3.0).collect();
            let mut acc = vec![1.0; len];
            lane_add(&mut acc, &src);
            let mut sums = vec![0.25; len];
            let mut sqs = vec![0.5; len];
            lane_add_sq(&mut sums, &mut sqs, &src);
            let mut scaled = vec![2.0; len];
            lane_add_scaled(&mut scaled, &src, -1.0);
            for i in 0..len {
                assert_eq!(acc[i].to_bits(), (1.0 + src[i]).to_bits());
                assert_eq!(sums[i].to_bits(), (0.25 + src[i]).to_bits());
                assert_eq!(sqs[i].to_bits(), (0.5 + src[i] * src[i]).to_bits());
                #[allow(clippy::neg_multiply)]
                let want = 2.0 + -1.0 * src[i];
                assert_eq!(scaled[i].to_bits(), want.to_bits());
            }
        }
        // The register-block kernels do the same per gene.
        let src: [f64; BLOCK] = std::array::from_fn(|i| i as f64 * 0.5 - 3.0);
        let (mut acc, mut sums, mut sqs) = ([1.0; BLOCK], [0.25; BLOCK], [0.5; BLOCK]);
        block_add(&mut acc, &src);
        block_add_sq(&mut sums, &mut sqs, &src);
        for i in 0..BLOCK {
            assert_eq!(acc[i].to_bits(), (1.0 + src[i]).to_bits());
            assert_eq!(sums[i].to_bits(), (0.25 + src[i]).to_bits());
            assert_eq!(sqs[i].to_bits(), (0.5 + src[i] * src[i]).to_bits());
        }
    }

    #[test]
    fn zero_cells_are_bitwise_neutral_in_running_sums() {
        // The lemma the SoA layout rests on: adding ±0.0 to an accumulator
        // that started at +0.0 never flips it to -0.0, so zeroed missing
        // cells cannot perturb any sum bit.
        let mut acc = [0.0f64, 3.5, -3.5];
        let zeros = [0.0f64, 0.0, -0.0];
        lane_add(&mut acc, &zeros);
        assert_eq!(acc[0].to_bits(), 0.0f64.to_bits());
        assert_eq!(acc[1].to_bits(), 3.5f64.to_bits());
        assert_eq!(acc[2].to_bits(), (-3.5f64).to_bits());
        // x + (-x) lands on +0.0, not -0.0.
        let mut acc = [2.5f64];
        lane_add(&mut acc, &[-2.5]);
        assert_eq!(acc[0].to_bits(), 0.0f64.to_bits());
    }
}
