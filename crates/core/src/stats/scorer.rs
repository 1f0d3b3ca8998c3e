//! The unified scoring plane: one `Scorer` trait behind which every
//! execution layer (serial reference, batched engine, minP, pmaxt ranks,
//! jobd spans, bench backends) evaluates test statistics.
//!
//! A scorer has a two-phase contract:
//!
//! 1. **prepare** (the constructor): cache per-gene sufficient statistics
//!    once — S = Σ(x−pivot), Q = Σ(x−pivot)², per-pair differences, per-block
//!    partials, per-row non-missing counts — everything that does not change
//!    across permutations. The cached values live in column-major
//!    structure-of-arrays tiles ([`SoaColumns`]): one contiguous, cache-line
//!    aligned gene lane per column.
//! 2. **score** ([`Scorer::begin_batch`] + [`Scorer::score_tile`]): for a
//!    K-permutation batch, derive the per-arrangement structures (group-1
//!    column lists, class-major column lists, pair signs, selection bitsets)
//!    once in `begin_batch`, then score gene tiles with the **selected
//!    columns in the outer loop and a contiguous lane of genes in the inner
//!    loop** — an independent-accumulator form the compiler autovectorizes
//!    (see `stats::soa` for the kernels and DESIGN.md §4.10 for the layout).
//!    The two-sample family and Wilcoxon keep a [`BLOCK`] of genes'
//!    accumulators in registers per arrangement and finish each block in a
//!    branch-free lane loop. Every fast scorer's tile body is compiled for
//!    the baseline ISA, for AVX2 and for AVX-512F, and the scorer runs the
//!    one [`Isa`] named when it was built.
//!
//! All six `mt.maxT` statistics have fast implementations here:
//!
//! - `t` / `t.equalvar`: per-arrangement lane sums s₁, q₁ over the group-1
//!   columns; group 0 recovered as S−s₁, Q−q₁; statistic in O(1) from the
//!   four moments.
//! - `wilcoxon`: lanes hold midranks, so the group-1 lane sum *is* the rank
//!   sum.
//! - `f`: per-class lane sums (s_c, q_c) give SS_between via
//!   Σ n_c·(s_c/n_c − x̄)² and SS_within via Σ (q_c − s_c²/n_c) — the exact
//!   scalar decomposition, never the cancellation-prone SS_total − SS_between.
//! - `pairt`: per-pair base differences d⁰_p = x_{2p+1} − x_{2p} and
//!   Σ(d⁰)² are permutation-invariant; an arrangement only flips signs, so
//!   scoring is **gather-free**: one ±1-broadcast scaled lane add per pair
//!   ([`lane_add_scaled`]).
//! - `blockf`: block sums, the grand totals, the correction term and
//!   SS_block are permutation-invariant (complete-block exclusion depends
//!   only on the data); a permutation only reshuffles which treatment each
//!   cell feeds, so scoring is one lane add per column into k treatment
//!   lanes.
//!
//! The bootstrap's group-mean difference ([`BootScorer`]) is one more: its
//! draws are column indices with repeats, summed per class in draw order.
//!
//! ## Missing values
//!
//! NA rows stay on the fast path — without a scalar gather fallback. Missing
//! cells are stored as `+0.0` in the lanes, which is **bitwise-neutral** in
//! every running sum (an IEEE accumulator starting at `+0.0` can never
//! become `-0.0` by adding finite values, and `x + ±0.0` then preserves
//! `x`'s bits — see `stats::soa`). Only the *counts* need fixing: each dirty
//! gene keeps a missing-column bitset ([`MissMask`]) that is ANDed with a
//! per-arrangement selected-column bitset — one popcount per dirty gene, no
//! per-cell branches. The paired designs need no correction at all: their
//! exclusions (incomplete pairs/blocks) are permutation-invariant and
//! cached. Degenerate arrangements (empty class, too few complete
//! pairs/blocks, zero variance) hit the same guards as the scalar functions
//! and yield `NaN`.
//!
//! ## Numerical-equivalence policy
//!
//! The fast path is constructed so that exceedance *counts* (the integers
//! the p-values are made of) match the reference scalar scorer:
//!
//! - every lane accumulation walks columns in ascending order — the exact
//!   order the scalar statistic pushes values into its accumulators — and
//!   zeroed missing cells are bitwise-neutral, so the per-gene `f64` sums
//!   are **bitwise identical** to the scalar ones, and Wilcoxon, paired t
//!   and block F are bitwise identical end to end;
//! - only the two-sample subtraction S−s₁ / Q−q₁ re-associates a sum, an
//!   error of a few ulps; the combining formulas mirror the scalar
//!   operation sequence (same literals, clamps and guards) so the final
//!   statistic differs by ulps at most;
//! - per (gene, arrangement) the operation sequence is independent of the
//!   tile/chunk geometry, so results are bitwise stable across any batch
//!   shape;
//! - the maxT count comparisons carry an absolute slack of
//!   [`crate::maxt::EPSILON`] = 1e-10, orders of magnitude above ulp noise,
//!   so the counts agree;
//! - observed statistics are computed through the *same* scorer as the
//!   permuted ones, so the identity permutation compares a value against
//!   itself and always counts, whichever scorer is active.
//!
//! ## Precision
//!
//! The fast scorers are generic over the accumulation element
//! ([`Real`]): `f64` is the default and the only mode with the bitwise
//! guarantees above; `f32` (opt-in via [`Precision::F32`] /
//! `SPRINT_PRECISION=f32`) halves the cached-tile footprint and doubles
//! SIMD lane width at a documented relative-error cost (DESIGN.md §4.10).
//! The scalar reference scorer is always `f64`.

use std::ops::Range;

use crate::labels::ClassLabels;
use crate::matrix::Matrix;
use crate::options::{KernelChoice, Precision, TestMethod};
use crate::stats::block_f::blockf_from_sums;
use crate::stats::f_stat::f_from_sums;
use crate::stats::moments::pivot_of;
use crate::stats::pair_t::pairt_from_moments;
use crate::stats::soa::{
    block_add, block_add_sq, lane_add, lane_add_scaled, lane_add_sq, push_sel_mask, AlignedBuf,
    Isa, Kernel, MissMask, Real, SoaColumns, BLOCK, SOA_TILE,
};
use crate::stats::two_sample::{
    equalvar_from_moments, recip_safe, welch_from_moments, Count, Split,
};
use crate::stats::wilcoxon::wilcoxon_from_counts;
use crate::stats::StatComputer;

/// Reusable per-thread scratch owned by the caller and shaped by the scorer:
/// permutation-derived index lists, pair signs, selection bitsets and lane
/// accumulators live here so the batch loop performs no allocation.
#[derive(Debug, Default, Clone)]
pub struct ScorerScratch {
    /// Flattened per-arrangement column-index lists (group-1 lists for the
    /// two-sample family, class-major lists for F).
    idx: Vec<usize>,
    /// Boundaries into `idx`: `arrangements + 1` entries for the two-sample
    /// family, `arrangements·k + 1` class-major entries for F.
    offsets: Vec<usize>,
    /// Per-arrangement pair signs (±1.0) for paired t, `vals[j·pairs + p]`.
    vals: Vec<f64>,
    /// Per-arrangement selected-column bitsets (one per arrangement for the
    /// two-sample family, class-major for F), only built when the data has
    /// dirty genes.
    sel: Vec<u64>,
    /// `f64` lane accumulators (statistic sections × tile width).
    lanes64: AlignedBuf<f64>,
    /// `f32` lane accumulators for the reduced-precision mode.
    lanes32: AlignedBuf<f32>,
}

/// Borrow-split view of [`ScorerScratch`]: the per-arrangement structures
/// stay readable while one precision's lane buffer is written. Public only
/// because [`crate::stats::soa::Real`] (a public bound of the fast scorers)
/// returns it; the fields stay crate-private.
#[doc(hidden)]
pub struct ScratchParts<'s, R> {
    pub(crate) idx: &'s [usize],
    pub(crate) offsets: &'s [usize],
    pub(crate) signs: &'s [f64],
    pub(crate) sel: &'s [u64],
    pub(crate) lanes: &'s mut AlignedBuf<R>,
}

impl ScorerScratch {
    pub(crate) fn parts_f64(&mut self) -> ScratchParts<'_, f64> {
        ScratchParts {
            idx: &self.idx,
            offsets: &self.offsets,
            signs: &self.vals,
            sel: &self.sel,
            lanes: &mut self.lanes64,
        }
    }

    pub(crate) fn parts_f32(&mut self) -> ScratchParts<'_, f32> {
        ScratchParts {
            idx: &self.idx,
            offsets: &self.offsets,
            signs: &self.vals,
            sel: &self.sel,
            lanes: &mut self.lanes32,
        }
    }
}

/// A prepared statistic evaluator: sufficient statistics cached at
/// construction, per-batch scoring through [`Scorer::begin_batch`] +
/// [`Scorer::score_tile`], one-shot scoring through [`Scorer::stats_into`].
pub trait Scorer: std::fmt::Debug + Send + Sync {
    /// Which implementation is active: `"scalar"` for the reference
    /// per-column path, otherwise the statistic's fast path name (with a
    /// `-f32` suffix in the reduced-precision mode).
    fn path(&self) -> &'static str;

    /// Allocate scratch for this scorer (callers keep one per thread).
    fn make_scratch(&self) -> ScorerScratch {
        ScorerScratch::default()
    }

    /// Pre-size the lane accumulators for tiles up to `max_tile` genes, so
    /// the first `score_tile` call performs no allocation. Optional — the
    /// tiles size themselves on demand.
    fn warm_scratch(&self, _scratch: &mut ScorerScratch, _max_tile: usize) {}

    /// Derive the per-arrangement structures for a batch of label buffers.
    /// Must be called before [`Scorer::score_tile`] whenever the batch
    /// changes; the derivations live in `scratch`.
    fn begin_batch(&self, labels_bufs: &[Vec<u8>], scratch: &mut ScorerScratch);

    /// Score the genes in `genes` for **every** arrangement of the current
    /// batch, writing raw statistics gene-major into `out[g·stride + j]`
    /// for arrangement `j`. Per (gene, arrangement) the operation sequence
    /// is batch-size-invariant, so results are bitwise identical across any
    /// batch/tile geometry.
    fn score_tile(
        &self,
        labels_bufs: &[Vec<u8>],
        genes: Range<usize>,
        scratch: &mut ScorerScratch,
        out: &mut [f64],
        stride: usize,
    );

    /// Score every gene under a single label arrangement into `out`
    /// (indexed by gene). Convenience for the non-batched paths (observed
    /// statistics, the serial reference loop, sequential estimation).
    fn stats_into(&self, labels: &[u8], scratch: &mut ScorerScratch, out: &mut [f64]) {
        let bufs = [labels.to_vec()];
        self.begin_batch(&bufs, scratch);
        let genes = out.len();
        self.score_tile(&bufs, 0..genes, scratch, out, 1);
    }
}

/// What a scorer computes: a test's statistic under label arrangements, or
/// the bootstrap's group-mean difference under index draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Statistic {
    /// The test's statistic; each draw is a label arrangement.
    Test(TestMethod),
    /// The group-1 mean less the group-0 mean; each draw names the column
    /// resampled into each slot ([`BootScorer`]).
    BootMeanDiff,
}

impl From<TestMethod> for Statistic {
    fn from(method: TestMethod) -> Self {
        Statistic::Test(method)
    }
}

/// Build the scorer for a run: the method's fast sufficient-statistic
/// implementation under `Auto`/`Fast`, the reference scalar scorer under
/// `Scalar` (the `SPRINT_KERNEL` and `SPRINT_PRECISION` debug overrides are
/// applied first). `precision` selects the accumulation element of the fast
/// path; the scalar scorer is always `f64`. The bootstrap's scorer is built
/// under every choice and precision. The fast path's lane kernels run under
/// [`Isa::host`]. Emits a once-per-process stderr note naming the chosen
/// path (and ISA) per method, so a forced scalar or `f32` run is never
/// silent.
pub fn build_scorer<'a>(
    data: &'a Matrix,
    labels: &ClassLabels,
    stat: impl Into<Statistic>,
    choice: KernelChoice,
    precision: Precision,
) -> Box<dyn Scorer + 'a> {
    let stat = stat.into();
    let (scorer, isa): (Box<dyn Scorer + 'a>, _) = match (stat, choice.env_override()) {
        (Statistic::Test(method), KernelChoice::Scalar) => (
            Box::new(ScalarScorer::new(data, StatComputer::new(method, labels))),
            None,
        ),
        _ => {
            let isa = Isa::host();
            let fast = fast_scorer_on(isa, data, labels, stat, precision.env_override());
            (fast.expect("the host runs its own ISA"), Some(isa))
        }
    };
    // The bootstrap is admitted for test `t` only.
    let method = match stat {
        Statistic::Test(method) => method,
        Statistic::BootMeanDiff => TestMethod::T,
    };
    note_scorer_path(method, scorer.path(), isa);
    scorer
}

/// Build the statistic's fast scorer with its lane kernels compiled for
/// `isa`, or `None` when this host cannot run `isa`. No environment override
/// applies. [`build_scorer`] passes [`Isa::host`]; the other ISAs exist so
/// tests can hold every kernel body the host runs to the same bits.
pub fn fast_scorer_on(
    isa: Isa,
    data: &Matrix,
    labels: &ClassLabels,
    stat: impl Into<Statistic>,
    precision: Precision,
) -> Option<Box<dyn Scorer>> {
    if !isa.supported() {
        return None;
    }
    let Statistic::Test(method) = stat.into() else {
        let lanes = BootScorer::new(data, labels);
        return Some(Box::new(OnIsa { isa, lanes }));
    };
    let k = StatComputer::new(method, labels).classes();
    Some(match precision {
        Precision::F64 => fast_scorer::<f64>(isa, data, method, k),
        Precision::F32 => fast_scorer::<f32>(isa, data, method, k),
    })
}

/// Construct the method's fast scorer at one accumulation precision.
fn fast_scorer<R: Real>(isa: Isa, data: &Matrix, method: TestMethod, k: usize) -> Box<dyn Scorer> {
    fn on<S: LaneScorer + 'static>(isa: Isa, lanes: S) -> Box<dyn Scorer> {
        Box::new(OnIsa { isa, lanes })
    }
    match method {
        TestMethod::T => on(isa, TwoSampleScorer::<R>::new(data, true, isa)),
        TestMethod::TEqualVar => on(isa, TwoSampleScorer::<R>::new(data, false, isa)),
        TestMethod::Wilcoxon => on(isa, WilcoxonScorer::<R>::new(data)),
        TestMethod::F => on(isa, FScorer::<R>::new(data, k)),
        TestMethod::PairT => on(isa, PairTScorer::<R>::new(data)),
        TestMethod::BlockF => on(isa, BlockFScorer::<R>::new(data, k)),
        TestMethod::Corr => on(isa, CorrScorer::<R>::new(data, k)),
        // tmax scores per-gene Welch t; only the maxT counting layer differs
        // (single-step global max), which is not the scorer's concern.
        TestMethod::TMax => on(isa, TwoSampleScorer::<R>::new(data, true, isa)),
    }
}

/// Note (once per method/path pair per process) which scorer a run uses,
/// and for a fast path which ISA its kernels run under (the host's, the
/// same for every fast scorer of the process). Mirrors the once-per-var
/// `SPRINT_*` env warnings: a debug override or an unexpected path is
/// visible on stderr instead of silently changing the performance profile.
fn note_scorer_path(method: TestMethod, path: &'static str, isa: Option<Isa>) {
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock};
    static NOTED: OnceLock<Mutex<HashSet<(&'static str, &'static str)>>> = OnceLock::new();
    let noted = NOTED.get_or_init(|| Mutex::new(HashSet::new()));
    if noted.lock().unwrap().insert((method.as_str(), path)) {
        let kernels = isa.map_or(String::new(), |isa| format!(" ({} kernels)", isa.as_str()));
        eprintln!(
            "note: scoring test \"{}\" via the {} scorer{kernels}",
            method.as_str(),
            path
        );
    }
}

/// The ISA-independent half of a fast scorer. [`OnIsa`] turns it into a
/// [`Scorer`] whose `score_tile` runs `tile` compiled for one [`Isa`].
trait LaneScorer: std::fmt::Debug + Send + Sync {
    fn path(&self) -> &'static str;
    fn warm_scratch(&self, _scratch: &mut ScorerScratch, _max_tile: usize) {}
    fn begin_batch(&self, labels_bufs: &[Vec<u8>], scratch: &mut ScorerScratch);
    /// [`Scorer::score_tile`]'s body. Implementations are
    /// `#[inline(always)]`, so each ISA's entry point compiles its own copy.
    fn tile(
        &self,
        labels_bufs: &[Vec<u8>],
        genes: Range<usize>,
        scratch: &mut ScorerScratch,
        out: &mut [f64],
        stride: usize,
    );
}

/// A fast scorer bound to the ISA its tile body runs under, chosen once when
/// the scorer is built.
#[derive(Debug)]
struct OnIsa<S> {
    isa: Isa,
    lanes: S,
}

/// One `score_tile` call, as a [`Kernel`] for [`Isa::run`].
struct TileCall<'a, S> {
    lanes: &'a S,
    labels_bufs: &'a [Vec<u8>],
    genes: Range<usize>,
    scratch: &'a mut ScorerScratch,
    out: &'a mut [f64],
    stride: usize,
}

impl<S: LaneScorer> Kernel for TileCall<'_, S> {
    type Out = ();
    #[inline(always)]
    fn run(self) {
        let TileCall {
            lanes,
            labels_bufs,
            genes,
            scratch,
            out,
            stride,
        } = self;
        lanes.tile(labels_bufs, genes, scratch, out, stride);
    }
}

impl<S: LaneScorer> Scorer for OnIsa<S> {
    fn path(&self) -> &'static str {
        self.lanes.path()
    }

    fn warm_scratch(&self, scratch: &mut ScorerScratch, max_tile: usize) {
        self.lanes.warm_scratch(scratch, max_tile);
    }

    fn begin_batch(&self, labels_bufs: &[Vec<u8>], scratch: &mut ScorerScratch) {
        self.lanes.begin_batch(labels_bufs, scratch);
    }

    fn score_tile(
        &self,
        labels_bufs: &[Vec<u8>],
        genes: Range<usize>,
        scratch: &mut ScorerScratch,
        out: &mut [f64],
        stride: usize,
    ) {
        debug_assert!(labels_bufs.len() <= stride);
        self.isa.run(TileCall {
            lanes: &self.lanes,
            labels_bufs,
            genes,
            scratch,
            out,
            stride,
        });
    }
}

/// Missing-cell bookkeeping of the scorers whose group counts depend on the
/// arrangement (two-sample family, Wilcoxon, F, corr).
#[derive(Debug)]
struct Presence {
    cols: usize,
    /// Per gene: non-missing cell count.
    row_n: Vec<usize>,
    /// Per gene: no missing cells (skips the popcount correction).
    clean: Vec<bool>,
    /// Per [`BLOCK`] of genes: every gene clean.
    clean_blocks: Vec<bool>,
    /// Any gene dirty (enables the per-arrangement selection bitsets).
    any_dirty: bool,
    /// Per-gene missing-column bitsets.
    miss: MissMask,
}

impl Presence {
    fn of(data: &Matrix) -> Self {
        let (rows, cols) = (data.rows(), data.cols());
        let mut miss = MissMask::new(rows, cols);
        let mut row_n = Vec::with_capacity(rows);
        for g in 0..rows {
            let mut n = cols;
            for (c, v) in data.row(g).iter().enumerate() {
                if v.is_nan() {
                    miss.set(g, c);
                    n -= 1;
                }
            }
            row_n.push(n);
        }
        let clean: Vec<bool> = row_n.iter().map(|&n| n == cols).collect();
        Presence {
            cols,
            clean_blocks: clean.chunks(BLOCK).map(|b| b.iter().all(|&c| c)).collect(),
            any_dirty: clean.iter().any(|&c| !c),
            row_n,
            clean,
            miss,
        }
    }

    /// Selection bitset `i` of the batch (empty when every gene is clean).
    fn sel<'s>(&self, sel: &'s [u64], i: usize) -> &'s [u64] {
        let words = self.miss.words();
        if self.any_dirty {
            &sel[i * words..(i + 1) * words]
        } else {
            &[]
        }
    }

    /// How many of the `picked` columns selected by `sel` gene `g` has.
    #[inline]
    fn present(&self, g: usize, picked: usize, sel: &[u64]) -> usize {
        if self.clean[g] {
            picked
        } else {
            picked - MissMask::overlap(sel, self.miss.gene(g))
        }
    }

    /// Group sizes `(n0, n1)` of the block at `base` when the arrangement
    /// puts the `picked` columns of `sel` in group 1; only the genes of
    /// `live` are corrected for missing cells.
    #[inline(always)]
    fn block_counts<R: Real>(
        &self,
        base: usize,
        live: Range<usize>,
        picked: usize,
        sel: &[u64],
    ) -> ([R; BLOCK], [R; BLOCK]) {
        let mut n0 = [R::from_usize(self.cols - picked); BLOCK];
        let mut n1 = [R::from_usize(picked); BLOCK];
        if !self.clean_blocks[base / BLOCK] {
            for g in live {
                let m1 = self.present(g, picked, sel);
                n0[g - base] = R::from_usize(self.row_n[g] - m1);
                n1[g - base] = R::from_usize(m1);
            }
        }
        (n0, n1)
    }
}

/// Starts of the [`BLOCK`]-aligned gene blocks that cover `genes`.
fn blocks(genes: &Range<usize>) -> impl Iterator<Item = usize> {
    (genes.start / BLOCK * BLOCK..genes.end).step_by(BLOCK)
}

/// Collect the group-1 column lists of each arrangement into
/// `scratch.idx`/`scratch.offsets`, ascending, plus their selection bitsets
/// when any gene is dirty — the once-per-batch O(n) step shared by the
/// two-sample family and Wilcoxon.
fn group1_lists(labels_bufs: &[Vec<u8>], present: &Presence, scratch: &mut ScorerScratch) {
    scratch.idx.clear();
    scratch.offsets.clear();
    scratch.offsets.push(0);
    scratch.sel.clear();
    for labels in labels_bufs {
        for (j, &l) in labels.iter().enumerate() {
            if l == 1 {
                scratch.idx.push(j);
            }
        }
        scratch.offsets.push(scratch.idx.len());
        if present.any_dirty {
            push_sel_mask(&mut scratch.sel, present.miss.words(), labels, 1);
        }
    }
}

/// Class-major column lists for k classes: for arrangement j and class c the
/// list is `idx[offsets[j·k + c]..offsets[j·k + c + 1]]`, ascending — the
/// order the scalar path pushes class-c values — plus one selection bitset
/// per list when any gene is dirty. Shared by F and corr.
fn class_lists(labels_bufs: &[Vec<u8>], k: usize, present: &Presence, scratch: &mut ScorerScratch) {
    scratch.idx.clear();
    scratch.offsets.clear();
    scratch.offsets.push(0);
    scratch.sel.clear();
    for labels in labels_bufs {
        for c in 0..k {
            for (j, &l) in labels.iter().enumerate() {
                if l as usize == c {
                    scratch.idx.push(j);
                }
            }
            scratch.offsets.push(scratch.idx.len());
            if present.any_dirty {
                push_sel_mask(&mut scratch.sel, present.miss.words(), labels, c as u8);
            }
        }
    }
}

/// The reference scalar scorer: one full O(n) per-column sweep per (gene,
/// arrangement) through [`StatComputer::compute`]. Always correct, never
/// fast — kept as the equivalence oracle behind `SPRINT_KERNEL=scalar`.
#[derive(Debug)]
pub struct ScalarScorer<'a> {
    data: &'a Matrix,
    computer: StatComputer,
}

impl<'a> ScalarScorer<'a> {
    /// Wrap a prepared matrix and its per-run dispatcher.
    pub fn new(data: &'a Matrix, computer: StatComputer) -> Self {
        ScalarScorer { data, computer }
    }
}

impl Scorer for ScalarScorer<'_> {
    fn path(&self) -> &'static str {
        "scalar"
    }

    fn begin_batch(&self, _labels_bufs: &[Vec<u8>], _scratch: &mut ScorerScratch) {}

    fn score_tile(
        &self,
        labels_bufs: &[Vec<u8>],
        genes: Range<usize>,
        _scratch: &mut ScorerScratch,
        out: &mut [f64],
        stride: usize,
    ) {
        debug_assert!(labels_bufs.len() <= stride);
        for g in genes {
            let row = self.data.row(g);
            let slots = &mut out[g * stride..g * stride + labels_bufs.len()];
            for (slot, labels) in slots.iter_mut().zip(labels_bufs) {
                *slot = self.computer.compute(row, labels);
            }
        }
    }

    fn stats_into(&self, labels: &[u8], _scratch: &mut ScorerScratch, out: &mut [f64]) {
        for (g, slot) in out.iter_mut().enumerate() {
            *slot = self.computer.compute(self.data.row(g), labels);
        }
    }
}

/// Fast scorer for `t` (Welch) and `t.equalvar`: pivot-shifted values in
/// column-major lanes with per-gene totals S, Q. Per arrangement, each
/// [`BLOCK`] of genes sums its group-1 columns into register accumulators
/// s₁, q₁, and a branch-free lane loop turns the four moments into the
/// statistic. Blocks whose inputs the reciprocal-division proof covers
/// divide by the group counts without a divide instruction (DESIGN.md
/// §4.10).
#[derive(Debug)]
pub struct TwoSampleScorer<R: Real> {
    welch: bool,
    /// Pivot-shifted values, column-major; missing cells hold `+0.0`.
    vals: SoaColumns<R>,
    /// Per gene, padded like a column: S = Σ shifted non-missing values
    /// (ascending column order).
    total_sum: Vec<R>,
    /// Per gene, padded like a column: Q = Σ shifted² non-missing values.
    total_sumsq: Vec<R>,
    present: Presence,
    /// Per [`BLOCK`] of genes: divide by the counts through their
    /// reciprocals. Set when the block is clean, every shifted value and
    /// total in it passes [`recip_safe`], `R` is `f64` and the tile body has
    /// FMA.
    recip_blocks: Vec<bool>,
}

impl<R: Real> TwoSampleScorer<R> {
    /// Cache sufficient statistics for a prepared matrix, for the tile body
    /// compiled for `isa`.
    pub fn new(data: &Matrix, welch: bool, isa: Isa) -> Self {
        let rows = data.rows();
        let present = Presence::of(data);
        let mut vals = SoaColumns::new(rows, data.cols());
        let mut total_sum = vec![R::ZERO; vals.lanes()];
        let mut total_sumsq = vec![R::ZERO; vals.lanes()];
        // f32's range would need its own argument, so it keeps dividing.
        let fused = isa.has_fma() && !R::IS_F32;
        let mut recip_blocks: Vec<bool> =
            present.clean_blocks.iter().map(|&c| c && fused).collect();
        // One block of genes at a time: each gene sums its values in
        // ascending column order into a column-major tile of the block, and
        // each column's BLOCK cells then go to its lane together.
        let cols = data.cols();
        let mut tile = vec![R::ZERO; cols * BLOCK];
        for base in (0..rows).step_by(BLOCK) {
            // Only a block that can still take the reciprocal path pays for
            // the range check.
            let check = recip_blocks[base / BLOCK];
            let mut safe = true;
            tile.fill(R::ZERO);
            for g in base..(base + BLOCK).min(rows) {
                let row = data.row(g);
                let pivot = pivot_of(row);
                let (mut s, mut q) = (R::ZERO, R::ZERO);
                for (c, &v) in row.iter().enumerate() {
                    // Missing cells stay +0.0 in the lane.
                    if !v.is_nan() {
                        let x = R::from_f64(v - pivot);
                        tile[c * BLOCK + g - base] = x;
                        if check {
                            safe &= recip_safe(x.to_f64());
                        }
                        s += x;
                        q += x * x;
                    }
                }
                total_sum[g] = s;
                total_sumsq[g] = q;
                if check {
                    safe &= recip_safe(s.to_f64()) && recip_safe(q.to_f64());
                }
            }
            if check {
                recip_blocks[base / BLOCK] = safe;
            }
            for (c, cells) in tile.chunks_exact(BLOCK).enumerate() {
                vals.block_mut(c, base).copy_from_slice(cells);
            }
        }
        TwoSampleScorer {
            welch,
            vals,
            total_sum,
            total_sumsq,
            present,
            recip_blocks,
        }
    }

    /// The statistic of every lane of the block at `base` from its group-1
    /// sums, dividing by lane `i`'s counts as `split(i)` does; NaN where
    /// `too_few(i)`.
    #[inline(always)]
    fn finish<C: Count<R>>(
        &self,
        base: usize,
        s1: &[R; BLOCK],
        q1: &[R; BLOCK],
        split: impl Fn(usize) -> Split<C>,
        too_few: impl Fn(usize) -> bool,
    ) -> [R; BLOCK] {
        let tot_s = &self.total_sum[base..base + BLOCK];
        let tot_q = &self.total_sumsq[base..base + BLOCK];
        let mut t = [R::ZERO; BLOCK];
        if self.welch {
            for i in 0..BLOCK {
                let (s0, q0) = (tot_s[i] - s1[i], tot_q[i] - q1[i]);
                let v = welch_from_moments(split(i), s0, q0, s1[i], q1[i]);
                t[i] = if too_few(i) { R::nan() } else { v };
            }
        } else {
            for i in 0..BLOCK {
                let (s0, q0) = (tot_s[i] - s1[i], tot_q[i] - q1[i]);
                let v = equalvar_from_moments(split(i), s0, q0, s1[i], q1[i]);
                t[i] = if too_few(i) { R::nan() } else { v };
            }
        }
        t
    }
}

impl<R: Real> LaneScorer for TwoSampleScorer<R> {
    fn path(&self) -> &'static str {
        if R::IS_F32 {
            "two-sample-f32"
        } else {
            "two-sample"
        }
    }

    fn begin_batch(&self, labels_bufs: &[Vec<u8>], scratch: &mut ScorerScratch) {
        group1_lists(labels_bufs, &self.present, scratch);
    }

    #[inline(always)]
    fn tile(
        &self,
        labels_bufs: &[Vec<u8>],
        genes: Range<usize>,
        scratch: &mut ScorerScratch,
        out: &mut [f64],
        stride: usize,
    ) {
        let parts = R::parts(scratch);
        let two = R::from_f64(2.0);
        // The reciprocal divisors of the last arrangement size seen.
        let mut recips = (usize::MAX, None);
        for base in blocks(&genes) {
            let live = base.max(genes.start)..(base + BLOCK).min(genes.end);
            let recip_block = self.recip_blocks[base / BLOCK];
            for j in 0..labels_bufs.len() {
                let idx = &parts.idx[parts.offsets[j]..parts.offsets[j + 1]];
                // Group-1 columns ascending (the scalar push order), one
                // register block of genes inner.
                let (mut s1, mut q1) = ([R::ZERO; BLOCK], [R::ZERO; BLOCK]);
                for &c in idx {
                    block_add_sq(&mut s1, &mut q1, self.vals.block(c, base));
                }
                let split = if recip_block {
                    if recips.0 != idx.len() {
                        let n1 = idx.len();
                        recips = (n1, Split::recip(self.present.cols - n1, n1));
                    }
                    recips.1
                } else {
                    None
                };
                let t = match split {
                    Some(split) => self.finish(base, &s1, &q1, |_| split, |_| false),
                    None => {
                        let sel = self.present.sel(parts.sel, j);
                        let (n0, n1) =
                            self.present
                                .block_counts::<R>(base, live.clone(), idx.len(), sel);
                        // The scalar guard `g0.n < 2 || g1.n < 2` on the
                        // post-NA counts, as a select: every lane computes
                        // its statistic.
                        self.finish(
                            base,
                            &s1,
                            &q1,
                            |i| Split::exact(n0[i], n1[i]),
                            |i| n0[i] < two || n1[i] < two,
                        )
                    }
                };
                for g in live.clone() {
                    out[g * stride + j] = t[g - base].to_f64();
                }
            }
        }
    }
}

/// Fast scorer for `wilcoxon`: lanes hold cached midranks, the group-1 sum
/// over a register block is the rank sum W, and the statistic is a pure
/// function of W and the group sizes — bitwise identical to the scalar path
/// end to end.
#[derive(Debug)]
pub struct WilcoxonScorer<R: Real> {
    /// Midranks, column-major; missing cells hold `+0.0`.
    vals: SoaColumns<R>,
    present: Presence,
}

/// The matrix's cells as column lanes, missing cells `+0.0`: one block of
/// genes at a time, through a column-major tile of the block, so each
/// column's BLOCK cells go to its lane together.
fn lanes_of<R: Real>(data: &Matrix) -> SoaColumns<R> {
    let (rows, cols) = (data.rows(), data.cols());
    let mut vals = SoaColumns::new(rows, cols);
    let mut tile = vec![R::ZERO; cols * BLOCK];
    for base in (0..rows).step_by(BLOCK) {
        tile.fill(R::ZERO);
        for g in base..(base + BLOCK).min(rows) {
            for (c, &v) in data.row(g).iter().enumerate() {
                if !v.is_nan() {
                    tile[c * BLOCK + g - base] = R::from_f64(v);
                }
            }
        }
        for (c, cells) in tile.chunks_exact(BLOCK).enumerate() {
            vals.block_mut(c, base).copy_from_slice(cells);
        }
    }
    vals
}

impl<R: Real> WilcoxonScorer<R> {
    /// Cache the (already rank-transformed) rows.
    pub fn new(data: &Matrix) -> Self {
        WilcoxonScorer {
            vals: lanes_of(data),
            present: Presence::of(data),
        }
    }
}

impl<R: Real> LaneScorer for WilcoxonScorer<R> {
    fn path(&self) -> &'static str {
        if R::IS_F32 {
            "wilcoxon-f32"
        } else {
            "wilcoxon"
        }
    }

    fn begin_batch(&self, labels_bufs: &[Vec<u8>], scratch: &mut ScorerScratch) {
        group1_lists(labels_bufs, &self.present, scratch);
    }

    #[inline(always)]
    fn tile(
        &self,
        labels_bufs: &[Vec<u8>],
        genes: Range<usize>,
        scratch: &mut ScorerScratch,
        out: &mut [f64],
        stride: usize,
    ) {
        let parts = R::parts(scratch);
        for base in blocks(&genes) {
            let live = base.max(genes.start)..(base + BLOCK).min(genes.end);
            for j in 0..labels_bufs.len() {
                let idx = &parts.idx[parts.offsets[j]..parts.offsets[j + 1]];
                let mut w = [R::ZERO; BLOCK];
                for &c in idx {
                    block_add(&mut w, self.vals.block(c, base));
                }
                let sel = self.present.sel(parts.sel, j);
                let (n0, n1) = self
                    .present
                    .block_counts::<R>(base, live.clone(), idx.len(), sel);
                let mut z = [R::ZERO; BLOCK];
                for i in 0..BLOCK {
                    let v = wilcoxon_from_counts(n0[i], n1[i], w[i]);
                    z[i] = if n0[i] == R::ZERO || n1[i] == R::ZERO {
                        R::nan()
                    } else {
                        v
                    };
                }
                for g in live.clone() {
                    out[g * stride + j] = z[g - base].to_f64();
                }
            }
        }
    }
}

/// Fast scorer for the bootstrap's group-mean difference (`workload =
/// "bootstrap"`). A draw names the column resampled into each slot, and the
/// columns keep their class labels. Per draw, `begin_batch` lists its
/// class-1 slots and then its class-0 slots, each in draw order, and each
/// [`BLOCK`] of genes [`block_add`]s those columns into two register blocks:
/// per gene, the adds of a scalar loop over the draw that skips NaN cells,
/// with a `+0.0` where it skips, which leaves the sums' bits unchanged
/// (DESIGN.md §4.10). Each mean divides by its class's slots, less the
/// draw's multiplicity of every column the gene is missing; an empty class
/// gives NaN. The identity draw gives θ̂. Always `f64`.
#[derive(Debug)]
pub struct BootScorer {
    /// Values, column-major; missing cells hold `+0.0`.
    vals: SoaColumns<f64>,
    /// The class label of each column.
    labels: Vec<u8>,
    present: Presence,
}

impl BootScorer {
    /// Lay out the matrix's values and missing cells.
    pub fn new(data: &Matrix, labels: &ClassLabels) -> Self {
        BootScorer {
            vals: lanes_of(data),
            labels: labels.as_slice().to_vec(),
            present: Presence::of(data),
        }
    }

    /// Gene `g`'s group counts `(n0, n1)` under a draw with `slots` class-0
    /// and class-1 slots, where column `c` appears `mult[c]` times.
    #[inline]
    fn counts(&self, g: usize, slots: (usize, usize), mult: &[u64]) -> (u64, u64) {
        let (mut n0, mut n1) = (slots.0 as u64, slots.1 as u64);
        for (w, &word) in self.present.miss.gene(g).iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let c = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.labels[c] == 1 {
                    n1 -= mult[c];
                } else {
                    n0 -= mult[c];
                }
            }
        }
        (n0, n1)
    }
}

impl LaneScorer for BootScorer {
    fn path(&self) -> &'static str {
        "bootstrap"
    }

    /// Per draw: its class-1 slots, then its class-0 slots, in
    /// `idx[offsets[2j]..offsets[2j + 2]]`; and, when any gene is missing a
    /// cell, each column's multiplicity in `sel[j·n..(j + 1)·n]`.
    fn begin_batch(&self, draws: &[Vec<u8>], scratch: &mut ScorerScratch) {
        scratch.idx.clear();
        scratch.offsets.clear();
        scratch.offsets.push(0);
        scratch.sel.clear();
        for draw in draws {
            for class in [1, 0] {
                let slots = draw.iter().filter(|&&c| self.labels[c as usize] == class);
                scratch.idx.extend(slots.map(|&c| c as usize));
                scratch.offsets.push(scratch.idx.len());
            }
            if self.present.any_dirty {
                let base = scratch.sel.len();
                scratch.sel.resize(base + draw.len(), 0);
                for &c in draw {
                    scratch.sel[base + c as usize] += 1;
                }
            }
        }
    }

    #[inline(always)]
    fn tile(
        &self,
        draws: &[Vec<u8>],
        genes: Range<usize>,
        scratch: &mut ScorerScratch,
        out: &mut [f64],
        stride: usize,
    ) {
        let n = self.labels.len();
        let parts = scratch.parts_f64();
        for base in blocks(&genes) {
            let live = base.max(genes.start)..(base + BLOCK).min(genes.end);
            for j in 0..draws.len() {
                let cols1 = &parts.idx[parts.offsets[2 * j]..parts.offsets[2 * j + 1]];
                let cols0 = &parts.idx[parts.offsets[2 * j + 1]..parts.offsets[2 * j + 2]];
                let (mut s0, mut s1) = ([0.0f64; BLOCK], [0.0f64; BLOCK]);
                for &c in cols1 {
                    block_add(&mut s1, self.vals.block(c, base));
                }
                for &c in cols0 {
                    block_add(&mut s0, self.vals.block(c, base));
                }
                let slots = (cols0.len(), cols1.len());
                let mut d = [f64::NAN; BLOCK];
                if self.present.clean_blocks[base / BLOCK] {
                    // One pair of counts for the block: a branch-free loop.
                    if slots.0 > 0 && slots.1 > 0 {
                        let (n0, n1) = (slots.0 as f64, slots.1 as f64);
                        for i in 0..BLOCK {
                            d[i] = s1[i] / n1 - s0[i] / n0;
                        }
                    }
                } else {
                    let mult = &parts.sel[j * n..(j + 1) * n];
                    for g in live.clone() {
                        let (n0, n1) = self.counts(g, slots, mult);
                        if n0 > 0 && n1 > 0 {
                            d[g - base] = s1[g - base] / n1 as f64 - s0[g - base] / n0 as f64;
                        }
                    }
                }
                for g in live.clone() {
                    out[g * stride + j] = d[g - base];
                }
            }
        }
    }
}

/// Fast scorer for the one-way `f` statistic over k classes: per-class lane
/// sums (s_c, q_c) from pivot-shifted lanes reproduce the scalar
/// between/within decomposition bitwise; the grand mean is
/// permutation-invariant and cached.
#[derive(Debug)]
pub struct FScorer<R: Real> {
    k: usize,
    /// Pivot-shifted values, column-major; missing cells hold `+0.0`.
    vals: SoaColumns<R>,
    /// Per gene: grand mean S/n of the non-missing values
    /// (permutation-invariant; garbage when `row_n == 0`, guarded by
    /// `n <= k`).
    grand_mean: Vec<R>,
    present: Presence,
}

impl<R: Real> FScorer<R> {
    /// Cache sufficient statistics; `k` is the class count of the design.
    pub fn new(data: &Matrix, k: usize) -> Self {
        let rows = data.rows();
        let present = Presence::of(data);
        let mut vals = SoaColumns::new(rows, data.cols());
        let mut grand_mean = Vec::with_capacity(rows);
        for g in 0..rows {
            let row = data.row(g);
            let pivot = pivot_of(row);
            let mut s = R::ZERO;
            for (c, &v) in row.iter().enumerate() {
                if !v.is_nan() {
                    let x = R::from_f64(v - pivot);
                    vals.set(c, g, x);
                    s += x;
                }
            }
            grand_mean.push(s / R::from_usize(present.row_n[g]));
        }
        FScorer {
            k,
            vals,
            grand_mean,
            present,
        }
    }
}

impl<R: Real> LaneScorer for FScorer<R> {
    fn path(&self) -> &'static str {
        if R::IS_F32 {
            "f-f32"
        } else {
            "f"
        }
    }

    fn warm_scratch(&self, scratch: &mut ScorerScratch, max_tile: usize) {
        R::parts(scratch)
            .lanes
            .prefix_mut(4 * max_tile.min(SOA_TILE));
    }

    fn begin_batch(&self, labels_bufs: &[Vec<u8>], scratch: &mut ScorerScratch) {
        class_lists(labels_bufs, self.k, &self.present, scratch);
    }

    #[inline(always)]
    fn tile(
        &self,
        labels_bufs: &[Vec<u8>],
        genes: Range<usize>,
        scratch: &mut ScorerScratch,
        out: &mut [f64],
        stride: usize,
    ) {
        let k = self.k;
        let parts = R::parts(scratch);
        // Class sizes are permutation-invariant, so arrangement 0 tells all:
        // an empty class plants NaN markers in every lane of every tile and
        // the branch-free output sweep must stand down.
        let has_empty_class = (0..k).any(|c| parts.offsets[c + 1] == parts.offsets[c]);
        let mut start = genes.start;
        while start < genes.end {
            let chunk = start..(start + SOA_TILE).min(genes.end);
            let width = chunk.len();
            // A fully clean sub-tile runs the branch-free lane loops below:
            // per-class counts are then tile-uniform (permutations preserve
            // class sizes), so the finalization sweeps autovectorize. The
            // arithmetic sequence per lane is the same either way — the
            // split is a control-flow specialization, not a formula change.
            let all_clean =
                !self.present.any_dirty || self.present.clean[chunk.clone()].iter().all(|&c| c);
            let gm = &self.grand_mean[chunk.clone()];
            let (scl, rest) = parts.lanes.prefix_mut(4 * width).split_at_mut(width);
            let (qcl, rest) = rest.split_at_mut(width);
            let (ssb, ssw) = rest.split_at_mut(width);
            for j in 0..labels_bufs.len() {
                ssb.fill(R::ZERO);
                ssw.fill(R::ZERO);
                // Classes in ascending order (the scalar combine order);
                // within a class, columns ascending (the scalar push order).
                for c in 0..k {
                    let cls = &parts.idx[parts.offsets[j * k + c]..parts.offsets[j * k + c + 1]];
                    scl.fill(R::ZERO);
                    qcl.fill(R::ZERO);
                    for &jc in cls {
                        lane_add_sq(scl, qcl, self.vals.col(jc, &chunk));
                    }
                    if all_clean && !cls.is_empty() {
                        let ncf = R::from_usize(cls.len());
                        // Scalar sequence: d = mean − grand_mean,
                        // SSB += n·d², SSW += (q − s²/n).max(0).
                        for lane in 0..width {
                            let d = scl[lane] / ncf - gm[lane];
                            ssb[lane] += ncf * d * d;
                            ssw[lane] += (qcl[lane] - scl[lane] * scl[lane] / ncf).max(R::ZERO);
                        }
                        continue;
                    }
                    let sel = self.present.sel(parts.sel, j * k + c);
                    for (lane, g) in chunk.clone().enumerate() {
                        let nc = self.present.present(g, cls.len(), sel);
                        if nc == 0 {
                            // Empty class ⇒ NaN; the marker survives later
                            // classes because NaN + x = NaN.
                            ssw[lane] = R::nan();
                            continue;
                        }
                        let ncf = R::from_usize(nc);
                        // Scalar sequence: d = mean − grand_mean, SSB += n·d²,
                        // SSW += (q − s²/n).max(0).
                        let d = scl[lane] / ncf - self.grand_mean[g];
                        ssb[lane] += ncf * d * d;
                        ssw[lane] += (qcl[lane] - scl[lane] * scl[lane] / ncf).max(R::ZERO);
                    }
                }
                if all_clean && !has_empty_class && self.present.row_n[chunk.start] > k {
                    // Clean tile: n is tile-uniform, no NaN markers can have
                    // been set (class sizes are permutation-invariant and
                    // non-zero), so the output sweep is branch-free too.
                    let n = self.present.row_n[chunk.start];
                    for (lane, g) in chunk.clone().enumerate() {
                        out[g * stride + j] = f_from_sums(k, n, ssb[lane], ssw[lane]).to_f64();
                    }
                    continue;
                }
                for (lane, g) in chunk.clone().enumerate() {
                    let n = self.present.row_n[g];
                    // Mirrors the scalar `n <= k` degrees-of-freedom guard;
                    // the non-missing count is permutation-invariant.
                    out[g * stride + j] = if n <= k || ssw[lane].is_nan() {
                        f64::NAN
                    } else {
                        f_from_sums(k, n, ssb[lane], ssw[lane]).to_f64()
                    };
                }
            }
            start = chunk.end;
        }
    }
}

/// Fast scorer for `corr` (Pearson correlation of each gene row against the
/// numeric class codes): the x-side moments Σx, Σx² and the non-missing
/// count are permutation-invariant and cached; an arrangement only re-pairs
/// the y codes, so scoring needs one lane sum per class (Σ_c c·s_c gives
/// Σxy) plus, for clean tiles, two *scalar* class-size accumulators for the
/// y-side moments (class sizes are permutation-invariant). Dirty genes fix
/// the y moments with the same MissMask popcounts as the other scorers.
#[derive(Debug)]
pub struct CorrScorer<R: Real> {
    k: usize,
    /// Raw values, column-major; missing cells hold `+0.0` (bitwise-neutral
    /// in the lane sums feeding Σxy).
    vals: SoaColumns<R>,
    /// Per gene: Σx over non-missing values (ascending column order).
    total_sum: Vec<R>,
    /// Per gene: Σx² over non-missing values.
    total_sumsq: Vec<R>,
    present: Presence,
}

impl<R: Real> CorrScorer<R> {
    /// Cache the x-side sufficient statistics; `k` is the class count.
    pub fn new(data: &Matrix, k: usize) -> Self {
        let rows = data.rows();
        let mut vals = SoaColumns::new(rows, data.cols());
        let mut total_sum = Vec::with_capacity(rows);
        let mut total_sumsq = Vec::with_capacity(rows);
        for g in 0..rows {
            let (mut s, mut q) = (R::ZERO, R::ZERO);
            for (c, &v) in data.row(g).iter().enumerate() {
                if !v.is_nan() {
                    let x = R::from_f64(v);
                    vals.set(c, g, x);
                    s += x;
                    q += x * x;
                }
            }
            total_sum.push(s);
            total_sumsq.push(q);
        }
        CorrScorer {
            k,
            vals,
            total_sum,
            total_sumsq,
            present: Presence::of(data),
        }
    }
}

impl<R: Real> LaneScorer for CorrScorer<R> {
    fn path(&self) -> &'static str {
        if R::IS_F32 {
            "corr-f32"
        } else {
            "corr"
        }
    }

    fn warm_scratch(&self, scratch: &mut ScorerScratch, max_tile: usize) {
        R::parts(scratch)
            .lanes
            .prefix_mut(4 * max_tile.min(SOA_TILE));
    }

    fn begin_batch(&self, labels_bufs: &[Vec<u8>], scratch: &mut ScorerScratch) {
        // Class-major column lists exactly as FScorer builds them.
        class_lists(labels_bufs, self.k, &self.present, scratch);
    }

    #[inline(always)]
    fn tile(
        &self,
        labels_bufs: &[Vec<u8>],
        genes: Range<usize>,
        scratch: &mut ScorerScratch,
        out: &mut [f64],
        stride: usize,
    ) {
        let k = self.k;
        let parts = R::parts(scratch);
        let mut start = genes.start;
        while start < genes.end {
            let chunk = start..(start + SOA_TILE).min(genes.end);
            let width = chunk.len();
            let all_clean =
                !self.present.any_dirty || self.present.clean[chunk.clone()].iter().all(|&c| c);
            let (scl, rest) = parts.lanes.prefix_mut(4 * width).split_at_mut(width);
            let (sxyl, rest) = rest.split_at_mut(width);
            let (syl, syyl) = rest.split_at_mut(width);
            for j in 0..labels_bufs.len() {
                sxyl.fill(R::ZERO);
                syl.fill(R::ZERO);
                syyl.fill(R::ZERO);
                // Class sizes are permutation-invariant, so for clean genes
                // Σy and Σy² collapse to two scalars shared by every lane.
                let mut sy_const = R::ZERO;
                let mut syy_const = R::ZERO;
                // Classes ascending; within a class, columns ascending.
                for c in 0..k {
                    let cls = &parts.idx[parts.offsets[j * k + c]..parts.offsets[j * k + c + 1]];
                    scl.fill(R::ZERO);
                    for &jc in cls {
                        lane_add(scl, self.vals.col(jc, &chunk));
                    }
                    let cf = R::from_usize(c);
                    for lane in 0..width {
                        sxyl[lane] += cf * scl[lane];
                    }
                    if all_clean {
                        let ncf = R::from_usize(cls.len());
                        sy_const += cf * ncf;
                        syy_const += cf * cf * ncf;
                        continue;
                    }
                    let sel = self.present.sel(parts.sel, j * k + c);
                    for (lane, g) in chunk.clone().enumerate() {
                        let ncf = R::from_usize(self.present.present(g, cls.len(), sel));
                        syl[lane] += cf * ncf;
                        syyl[lane] += cf * cf * ncf;
                    }
                }
                for (lane, g) in chunk.clone().enumerate() {
                    let slot = &mut out[g * stride + j];
                    let n = self.present.row_n[g];
                    // Mirrors the scalar guard: < 3 complete samples ⇒ NaN.
                    if n < 3 {
                        *slot = f64::NAN;
                        continue;
                    }
                    let (sy, syy) = if all_clean {
                        (sy_const, syy_const)
                    } else {
                        (syl[lane], syyl[lane])
                    };
                    let nf = R::from_usize(n);
                    let sx = self.total_sum[g];
                    let sxx = self.total_sumsq[g];
                    // The scalar formula verbatim: cov/√(vx·vy) with the
                    // same non-positive-variance guards.
                    let cov = nf * sxyl[lane] - sx * sy;
                    let vx = nf * sxx - sx * sx;
                    let vy = nf * syy - sy * sy;
                    *slot = if vx <= R::ZERO || vy <= R::ZERO {
                        f64::NAN
                    } else {
                        (cov / (vx * vy).sqrt()).to_f64()
                    };
                }
            }
            start = chunk.end;
        }
    }
}

/// Fast scorer for `pairt`: per-pair base differences d⁰ = x₂ₚ₊₁ − x₂ₚ and
/// their square sum are cached; an arrangement only flips signs, so scoring
/// is **gather-free** — one ±1-broadcast scaled lane add per pair.
#[derive(Debug)]
pub struct PairTScorer<R: Real> {
    pairs: usize,
    /// Base differences, column-major (one column per pair); incomplete
    /// pairs hold `+0.0` (±1·0.0 is bitwise-neutral in the signed sum).
    diffs: SoaColumns<R>,
    /// Per gene: Σ d⁰² over complete pairs (sign-invariant, so equal to the
    /// scalar accumulator's square sum bitwise).
    sumsq: Vec<R>,
    /// Per gene: complete-pair count (permutation-invariant).
    n: Vec<usize>,
}

impl<R: Real> PairTScorer<R> {
    /// Cache pair differences for a prepared matrix.
    pub fn new(data: &Matrix) -> Self {
        let pairs = data.cols() / 2;
        let rows = data.rows();
        let mut diffs = SoaColumns::new(rows, pairs);
        let mut sumsq = Vec::with_capacity(rows);
        let mut n_vec = Vec::with_capacity(rows);
        for g in 0..rows {
            let row = data.row(g);
            let mut q = R::ZERO;
            let mut n = 0usize;
            for p in 0..pairs {
                let a = row[2 * p];
                let b = row[2 * p + 1];
                if !(a.is_nan() || b.is_nan()) {
                    let d = R::from_f64(b - a);
                    diffs.set(p, g, d);
                    q += d * d;
                    n += 1;
                }
            }
            sumsq.push(q);
            n_vec.push(n);
        }
        PairTScorer {
            pairs,
            diffs,
            sumsq,
            n: n_vec,
        }
    }
}

impl<R: Real> LaneScorer for PairTScorer<R> {
    fn path(&self) -> &'static str {
        if R::IS_F32 {
            "pairt-f32"
        } else {
            "pairt"
        }
    }

    fn warm_scratch(&self, scratch: &mut ScorerScratch, max_tile: usize) {
        R::parts(scratch).lanes.prefix_mut(max_tile.min(SOA_TILE));
    }

    fn begin_batch(&self, labels_bufs: &[Vec<u8>], scratch: &mut ScorerScratch) {
        // Pair signs: labels[2p] == 0 means the second member carries label 1
        // and the scalar difference is d⁰ = b − a (sign +1); otherwise −1.
        scratch.vals.clear();
        scratch.vals.reserve(labels_bufs.len() * self.pairs);
        for labels in labels_bufs {
            for p in 0..self.pairs {
                scratch
                    .vals
                    .push(if labels[2 * p] == 0 { 1.0 } else { -1.0 });
            }
        }
    }

    #[inline(always)]
    fn tile(
        &self,
        labels_bufs: &[Vec<u8>],
        genes: Range<usize>,
        scratch: &mut ScorerScratch,
        out: &mut [f64],
        stride: usize,
    ) {
        let pairs = self.pairs;
        let parts = R::parts(scratch);
        let mut start = genes.start;
        while start < genes.end {
            let chunk = start..(start + SOA_TILE).min(genes.end);
            let width = chunk.len();
            let sl = parts.lanes.prefix_mut(width);
            for j in 0..labels_bufs.len() {
                let signs = &parts.signs[j * pairs..(j + 1) * pairs];
                sl.fill(R::ZERO);
                // ±1·d⁰ is bitwise the scalar's per-pair difference, and the
                // pair-order sum matches the scalar accumulator exactly.
                for (p, &w) in signs.iter().enumerate() {
                    lane_add_scaled(sl, self.diffs.col(p, &chunk), R::from_f64(w));
                }
                for (lane, g) in chunk.clone().enumerate() {
                    let n = self.n[g];
                    out[g * stride + j] = if n < 2 {
                        f64::NAN
                    } else {
                        pairt_from_moments(n, sl[lane], self.sumsq[g]).to_f64()
                    };
                }
            }
            start = chunk.end;
        }
    }
}

/// Fast scorer for `blockf`: block sums, the grand totals, the correction
/// term, SS_total and SS_block depend only on the data (complete-block
/// exclusion is label-free), so they are cached; scoring an arrangement is
/// one lane add per column into k treatment lanes plus an O(k) combine.
#[derive(Debug)]
pub struct BlockFScorer<R: Real> {
    k: usize,
    cols: usize,
    /// Pivot-shifted values, column-major; cells of incomplete blocks hold
    /// `+0.0` so every column can be added unconditionally.
    vals: SoaColumns<R>,
    /// Per gene: complete-block count m.
    m_used: Vec<usize>,
    /// Per gene: C = (grand sum)²/(m·k). Garbage when `m_used == 0` — the
    /// `m_used < 2` guard keeps it unread.
    correction: Vec<R>,
    /// Per gene: SS_total = (grand Σx² − C).max(0).
    ss_total: Vec<R>,
    /// Per gene: SS_block = (Σ_b (block sum)²/k − C).max(0).
    ss_block: Vec<R>,
}

impl<R: Real> BlockFScorer<R> {
    /// Cache block partials; `k` is the treatment count of the design.
    pub fn new(data: &Matrix, k: usize) -> Self {
        let cols = data.cols();
        let rows = data.rows();
        let blocks = cols / k;
        let mut vals = SoaColumns::new(rows, cols);
        let mut m_used = Vec::with_capacity(rows);
        let mut correction = Vec::with_capacity(rows);
        let mut ss_total = Vec::with_capacity(rows);
        let mut ss_block = Vec::with_capacity(rows);
        for g in 0..rows {
            let row = data.row(g);
            let pivot = pivot_of(row);
            let mut m = 0usize;
            let mut grand_sum = R::ZERO;
            let mut grand_sumsq = R::ZERO;
            let mut block_sum_sq = R::ZERO;
            for b in 0..blocks {
                let cells = &row[b * k..(b + 1) * k];
                if cells.iter().any(|v| v.is_nan()) {
                    continue;
                }
                let mut bsum = R::ZERO;
                // The scalar path accumulates per cell in block order; the
                // shifted values here are the same fl(v − pivot) bits.
                for (i, &v) in cells.iter().enumerate() {
                    let x = R::from_f64(v - pivot);
                    vals.set(b * k + i, g, x);
                    bsum += x;
                    grand_sum += x;
                    grand_sumsq += x * x;
                }
                block_sum_sq += bsum * bsum;
                m += 1;
            }
            m_used.push(m);
            let n = R::from_usize(m * k);
            let c = grand_sum * grand_sum / n;
            correction.push(c);
            ss_total.push((grand_sumsq - c).max(R::ZERO));
            ss_block.push((block_sum_sq / R::from_usize(k) - c).max(R::ZERO));
        }
        BlockFScorer {
            k,
            cols,
            vals,
            m_used,
            correction,
            ss_total,
            ss_block,
        }
    }
}

impl<R: Real> LaneScorer for BlockFScorer<R> {
    fn path(&self) -> &'static str {
        if R::IS_F32 {
            "blockf-f32"
        } else {
            "blockf"
        }
    }

    fn warm_scratch(&self, scratch: &mut ScorerScratch, max_tile: usize) {
        R::parts(scratch)
            .lanes
            .prefix_mut(self.k * max_tile.min(SOA_TILE));
    }

    fn begin_batch(&self, _labels_bufs: &[Vec<u8>], _scratch: &mut ScorerScratch) {}

    #[inline(always)]
    fn tile(
        &self,
        labels_bufs: &[Vec<u8>],
        genes: Range<usize>,
        scratch: &mut ScorerScratch,
        out: &mut [f64],
        stride: usize,
    ) {
        let k = self.k;
        let parts = R::parts(scratch);
        let mut start = genes.start;
        while start < genes.end {
            let chunk = start..(start + SOA_TILE).min(genes.end);
            let width = chunk.len();
            let lanes = parts.lanes.prefix_mut(k * width);
            for (j, labels) in labels_bufs.iter().enumerate() {
                lanes.fill(R::ZERO);
                // One lane add per column, in the scalar's exact ascending
                // cell order; excluded cells contribute a bitwise-neutral
                // +0.0 to whatever treatment their label names.
                for (col, &l) in labels.iter().enumerate().take(self.cols) {
                    let t = l as usize;
                    lane_add(
                        &mut lanes[t * width..(t + 1) * width],
                        self.vals.col(col, &chunk),
                    );
                }
                for (lane, g) in chunk.clone().enumerate() {
                    let m = self.m_used[g];
                    if m < 2 {
                        out[g * stride + j] = f64::NAN;
                        continue;
                    }
                    // Σ_t (treat sum)² in ascending treatment order — the
                    // scalar iterator-sum sequence.
                    let mut sq = R::ZERO;
                    for t in 0..k {
                        let s = lanes[t * width + lane];
                        sq += s * s;
                    }
                    let ss_treat = (sq / R::from_usize(m) - self.correction[g]).max(R::ZERO);
                    out[g * stride + j] =
                        blockf_from_sums(k, m, ss_treat, self.ss_block[g], self.ss_total[g])
                            .to_f64();
                }
            }
            start = chunk.end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ranks::midranks;
    use crate::stats::two_sample::{equalvar_t, welch_t};
    use crate::stats::wilcoxon::wilcoxon_from_ranks;

    /// A fast scorer on this host's ISA, as `build_scorer` makes it.
    fn fast<S: LaneScorer>(lanes: S) -> OnIsa<S> {
        OnIsa {
            isa: Isa::host(),
            lanes,
        }
    }

    fn labels_of(method: TestMethod, raw: Vec<u8>) -> ClassLabels {
        ClassLabels::new(raw, method).unwrap()
    }

    fn stats_for(scorer: &dyn Scorer, labels: &[u8], genes: usize) -> Vec<f64> {
        let mut scratch = scorer.make_scratch();
        let mut out = vec![f64::NAN; genes];
        scorer.stats_into(labels, &mut scratch, &mut out);
        out
    }

    fn assert_same_stat(fast: f64, scalar: f64, what: &str) {
        if scalar.is_nan() {
            assert!(fast.is_nan(), "{what}: fast {fast} vs scalar NaN");
        } else {
            assert!(
                (fast - scalar).abs() <= 1e-12 * scalar.abs().max(1.0),
                "{what}: fast {fast} vs scalar {scalar}"
            );
        }
    }

    #[test]
    fn builder_selects_fast_path_per_method_and_scalar_override() {
        let m = Matrix::from_vec(1, 6, vec![1.0, 2.0, 3.0, 4.0, 5.0, 7.0]).unwrap();
        let cases = [
            (TestMethod::T, vec![0u8, 0, 0, 1, 1, 1], "two-sample"),
            (TestMethod::TEqualVar, vec![0, 0, 0, 1, 1, 1], "two-sample"),
            (TestMethod::Wilcoxon, vec![0, 0, 0, 1, 1, 1], "wilcoxon"),
            (TestMethod::F, vec![0, 0, 1, 1, 2, 2], "f"),
            (TestMethod::PairT, vec![0, 1, 0, 1, 0, 1], "pairt"),
            (TestMethod::BlockF, vec![0, 1, 0, 1, 0, 1], "blockf"),
        ];
        for (method, raw, path) in cases {
            let labels = labels_of(method, raw);
            let fast = build_scorer(&m, &labels, method, KernelChoice::Auto, Precision::F64);
            assert_eq!(fast.path(), path, "{method:?}");
            let scalar = build_scorer(&m, &labels, method, KernelChoice::Scalar, Precision::F64);
            assert_eq!(scalar.path(), "scalar", "{method:?}");
        }
    }

    #[test]
    fn f32_precision_selects_the_f32_fast_paths() {
        let m = Matrix::from_vec(1, 6, vec![1.0, 2.0, 3.0, 4.0, 5.0, 7.0]).unwrap();
        let cases = [
            (TestMethod::T, vec![0u8, 0, 0, 1, 1, 1], "two-sample-f32"),
            (
                TestMethod::TEqualVar,
                vec![0, 0, 0, 1, 1, 1],
                "two-sample-f32",
            ),
            (TestMethod::Wilcoxon, vec![0, 0, 0, 1, 1, 1], "wilcoxon-f32"),
            (TestMethod::F, vec![0, 0, 1, 1, 2, 2], "f-f32"),
            (TestMethod::PairT, vec![0, 1, 0, 1, 0, 1], "pairt-f32"),
            (TestMethod::BlockF, vec![0, 1, 0, 1, 0, 1], "blockf-f32"),
        ];
        for (method, raw, path) in cases {
            let labels = labels_of(method, raw.clone());
            let fast = build_scorer(&m, &labels, method, KernelChoice::Auto, Precision::F32);
            assert_eq!(fast.path(), path, "{method:?}");
            // A statistic still comes out, close to the f64 one on benign data.
            let f32_stat = stats_for(fast.as_ref(), &raw, 1)[0];
            let f64_scorer = build_scorer(&m, &labels, method, KernelChoice::Auto, Precision::F64);
            let f64_stat = stats_for(f64_scorer.as_ref(), &raw, 1)[0];
            assert!(
                (f32_stat - f64_stat).abs() <= 1e-3 * f64_stat.abs().max(1.0),
                "{method:?}: f32 {f32_stat} vs f64 {f64_stat}"
            );
            // The scalar override wins over the precision request.
            let scalar = build_scorer(&m, &labels, method, KernelChoice::Scalar, Precision::F32);
            assert_eq!(scalar.path(), "scalar", "{method:?}");
        }
    }

    #[test]
    fn welch_and_equalvar_match_scalar() {
        let row = vec![3.5, -1.25, 7.0, 0.5, 2.25, -4.0, 9.5, 1.0];
        let m = Matrix::from_vec(1, 8, row.clone()).unwrap();
        for welch in [true, false] {
            let scorer = fast(TwoSampleScorer::<f64>::new(&m, welch, Isa::host()));
            for labels in [
                [0u8, 0, 0, 0, 1, 1, 1, 1],
                [1, 0, 1, 0, 1, 0, 1, 0],
                [1, 1, 0, 0, 0, 0, 1, 1],
            ] {
                let fast = stats_for(&scorer, &labels, 1)[0];
                let scalar = if welch {
                    welch_t(&row, &labels)
                } else {
                    equalvar_t(&row, &labels)
                };
                assert_same_stat(fast, scalar, "two-sample");
            }
        }
    }

    #[test]
    fn na_rows_stay_on_the_fast_path_with_adjusted_counts() {
        let row = vec![3.5, f64::NAN, 7.0, 0.5, f64::NAN, -4.0, 9.5, 1.0];
        let m = Matrix::from_vec(1, 8, row.clone()).unwrap();
        for welch in [true, false] {
            let scorer = fast(TwoSampleScorer::<f64>::new(&m, welch, Isa::host()));
            for labels in [
                [0u8, 0, 0, 0, 1, 1, 1, 1],
                [1, 0, 1, 0, 1, 0, 1, 0],
                [1, 1, 1, 0, 0, 0, 0, 1],
            ] {
                let fast = stats_for(&scorer, &labels, 1)[0];
                let scalar = if welch {
                    welch_t(&row, &labels)
                } else {
                    equalvar_t(&row, &labels)
                };
                assert_same_stat(fast, scalar, "two-sample NA");
            }
        }
    }

    #[test]
    fn wilcoxon_is_bitwise_identical_to_scalar() {
        let data = [0.3, 2.0, -1.0, 7.0, 0.5, 4.0, 2.0, -3.5];
        let mut ranks = midranks(&data);
        ranks[3] = f64::NAN; // a missing cell after ranking exercises the dirty path
        let m = Matrix::from_vec(1, 8, ranks.clone()).unwrap();
        let scorer = fast(WilcoxonScorer::<f64>::new(&m));
        for labels in [
            [0u8, 0, 0, 0, 1, 1, 1, 1],
            [1, 0, 1, 0, 1, 0, 1, 0],
            [0, 1, 1, 1, 1, 1, 1, 1],
        ] {
            let fast = stats_for(&scorer, &labels, 1)[0];
            let scalar = wilcoxon_from_ranks(&ranks, &labels);
            assert_eq!(fast.to_bits(), scalar.to_bits(), "{fast} vs {scalar}");
        }
    }

    #[test]
    fn f_matches_scalar_bitwise_with_and_without_na() {
        use crate::stats::f_stat::oneway_f;
        let rows = [
            vec![1.0, 2.0, 4.0, 6.0, 5.0, 9.0],
            vec![1.0, f64::NAN, 4.0, 6.0, 5.0, 9.0],
            vec![7.0; 6],
        ];
        for row in &rows {
            let m = Matrix::from_vec(1, 6, row.clone()).unwrap();
            let scorer = fast(FScorer::<f64>::new(&m, 3));
            for labels in [[0u8, 0, 1, 1, 2, 2], [2, 1, 0, 2, 1, 0], [0, 1, 2, 0, 1, 2]] {
                let fast = stats_for(&scorer, &labels, 1)[0];
                let scalar = oneway_f(row, &labels, 3);
                if scalar.is_nan() {
                    assert!(fast.is_nan());
                } else {
                    assert_eq!(fast.to_bits(), scalar.to_bits(), "{fast} vs {scalar}");
                }
            }
        }
    }

    #[test]
    fn pairt_matches_scalar_bitwise_with_and_without_na() {
        use crate::stats::pair_t::paired_t;
        let rows = [
            vec![1.0, 2.0, 3.0, 5.0, 2.0, 4.0, 5.0, 9.0],
            vec![1.0, 2.0, f64::NAN, 5.0, 2.0, 4.0, 5.0, 9.0],
            vec![0.0, 1.0, 5.0, 6.0, -3.0, -2.0, 1.0, 2.0],
        ];
        for row in &rows {
            let m = Matrix::from_vec(1, 8, row.clone()).unwrap();
            let scorer = fast(PairTScorer::<f64>::new(&m));
            for labels in [
                [0u8, 1, 0, 1, 0, 1, 0, 1],
                [1, 0, 1, 0, 1, 0, 1, 0],
                [1, 0, 0, 1, 0, 1, 1, 0],
            ] {
                let fast = stats_for(&scorer, &labels, 1)[0];
                let scalar = paired_t(row, &labels);
                if scalar.is_nan() {
                    assert!(fast.is_nan());
                } else {
                    assert_eq!(fast.to_bits(), scalar.to_bits(), "{fast} vs {scalar}");
                }
            }
        }
    }

    #[test]
    fn blockf_matches_scalar_bitwise_with_and_without_na() {
        use crate::stats::block_f::block_f;
        let rows = [
            vec![1.0, 2.3, 2.0, 4.1, 3.0, 6.2],
            vec![1.0, f64::NAN, 2.0, 4.1, 3.0, 6.2],
            vec![1.0, 2.0, 11.0, 12.0, 21.0, 22.0],
        ];
        for row in &rows {
            let m = Matrix::from_vec(1, 6, row.clone()).unwrap();
            let scorer = fast(BlockFScorer::<f64>::new(&m, 2));
            for labels in [[0u8, 1, 0, 1, 0, 1], [1, 0, 1, 0, 1, 0], [0, 1, 1, 0, 0, 1]] {
                let fast = stats_for(&scorer, &labels, 1)[0];
                let scalar = block_f(row, &labels, 2);
                if scalar.is_nan() {
                    assert!(fast.is_nan());
                } else {
                    assert_eq!(fast.to_bits(), scalar.to_bits(), "{fast} vs {scalar}");
                }
            }
        }
    }

    #[test]
    fn batch_tile_is_bitwise_identical_to_one_at_a_time() {
        let data = vec![
            3.5,
            -1.25,
            7.0,
            0.5,
            2.25,
            -4.0,
            9.5,
            1.0, // gene 0: clean
            10.5,
            f64::NAN,
            9.0,
            10.0,
            14.25,
            13.0,
            15.5,
            14.0, // gene 1: NA
            0.3,
            2.0,
            -1.0,
            7.0,
            0.5,
            4.0,
            2.0,
            -3.5, // gene 2: clean
        ];
        let m = Matrix::from_vec(3, 8, data).unwrap();
        let arrangements: [[u8; 8]; 4] = [
            [0, 0, 0, 0, 1, 1, 1, 1],
            [1, 0, 1, 0, 1, 0, 1, 0],
            [1, 1, 0, 0, 0, 0, 1, 1],
            [0, 1, 1, 0, 1, 0, 0, 1],
        ];
        let scorers: Vec<Box<dyn Scorer>> = vec![
            Box::new(fast(TwoSampleScorer::<f64>::new(&m, true, Isa::host()))),
            Box::new(fast(TwoSampleScorer::<f64>::new(&m, false, Isa::host()))),
            Box::new(fast(WilcoxonScorer::<f64>::new(&m))),
            Box::new(fast(FScorer::<f64>::new(&m, 2))),
            Box::new(fast(PairTScorer::<f64>::new(&m))),
            Box::new(fast(BlockFScorer::<f64>::new(&m, 2))),
        ];
        let bufs: Vec<Vec<u8>> = arrangements.iter().map(|a| a.to_vec()).collect();
        for scorer in &scorers {
            let stride = bufs.len();
            let mut scratch = scorer.make_scratch();
            scorer.warm_scratch(&mut scratch, 3);
            scorer.begin_batch(&bufs, &mut scratch);
            let mut batched = vec![f64::NAN; 3 * stride];
            // Two tiles to exercise tile boundaries.
            scorer.score_tile(&bufs, 0..2, &mut scratch, &mut batched, stride);
            scorer.score_tile(&bufs, 2..3, &mut scratch, &mut batched, stride);
            for (j, labels) in arrangements.iter().enumerate() {
                let single = stats_for(scorer.as_ref(), labels, 3);
                for g in 0..3 {
                    assert_eq!(
                        batched[g * stride + j].to_bits(),
                        single[g].to_bits(),
                        "{} gene {g} perm {j}",
                        scorer.path()
                    );
                }
            }
        }
    }

    #[test]
    fn reciprocal_blocks_need_clean_in_range_f64_data_and_an_fma_body() {
        let p = |e: i32| 2f64.powi(e);
        // The flags of a 32-gene matrix whose gene 20 (block 1) holds `row`;
        // the other genes are ordinary data.
        fn flags<R: Real>(row: [f64; 6], isa: Isa) -> Vec<bool> {
            let mut data = Vec::new();
            for g in 0..32 {
                if g == 20 {
                    data.extend(row);
                } else {
                    data.extend((0..6).map(|c| ((g * 7 + c * 3) % 11) as f64 - 4.5));
                }
            }
            let m = Matrix::from_vec(32, 6, data).unwrap();
            TwoSampleScorer::<R>::new(&m, true, isa).recip_blocks
        }
        let keeps = |row| flags::<f64>(row, Isa::Avx2) == [true, true];
        let drops = |row| flags::<f64>(row, Isa::Avx2) == [true, false];
        // The pivot is the first cell, so the shifted values are the cells.
        for x in [p(-200), -p(-200), 0.0, -0.0] {
            assert!(keeps([0.0, 1.0, x, 2.0, 3.0, 4.0]), "{x:e}");
        }
        for x in [
            p(-201),
            -p(-201),
            1e-310,
            p(201),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            assert!(drops([0.0, 1.0, x, 2.0, 3.0, 4.0]), "{x:e}");
        }
        // A cell above 2^100 fails through Q: Q = 2^200 keeps the block,
        // the next float up drops it.
        assert!(keeps([0.0, p(100), 0.0, 0.0, 0.0, 0.0]));
        let above = f64::from_bits(p(100).to_bits() + 1);
        assert!(drops([0.0, above, 0.0, 0.0, 0.0, 0.0]));
        // An infinite pivot makes the shifted first cell NaN.
        assert!(drops([f64::INFINITY, 1.0, 2.0, 3.0, 4.0, 5.0]));
        // f32 and the baseline body keep `/` everywhere.
        let row = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(flags::<f32>(row, Isa::Avx512), [false, false]);
        assert_eq!(flags::<f64>(row, Isa::Baseline), [false, false]);
        assert_eq!(flags::<f64>(row, Isa::Avx512), [true, true]);
    }

    #[test]
    fn constant_row_gives_nan_like_scalar() {
        let row = vec![5.0; 6];
        let m = Matrix::from_vec(1, 6, row.clone()).unwrap();
        let scorer = fast(TwoSampleScorer::<f64>::new(&m, true, Isa::host()));
        let labels = [0u8, 0, 0, 1, 1, 1];
        assert!(stats_for(&scorer, &labels, 1)[0].is_nan());
        assert!(welch_t(&row, &labels).is_nan());
    }

    #[test]
    fn degenerate_group_sizes_give_nan() {
        let m = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let t = fast(TwoSampleScorer::<f64>::new(&m, true, Isa::host()));
        // One group-1 column: t undefined.
        assert!(stats_for(&t, &[0, 0, 0, 1], 1)[0].is_nan());
        // Wilcoxon allows 1 but not 0.
        let w = fast(WilcoxonScorer::<f64>::new(&m));
        assert!(stats_for(&w, &[0, 0, 0, 0], 1)[0].is_nan());
        assert!(stats_for(&w, &[0, 0, 0, 1], 1)[0].is_finite());
    }

    #[test]
    fn all_na_row_scores_nan_on_the_fast_path() {
        let m = Matrix::from_vec(1, 4, vec![f64::NAN; 4]).unwrap();
        let labels = [0u8, 0, 1, 1];
        for scorer in [
            Box::new(fast(TwoSampleScorer::<f64>::new(&m, true, Isa::host()))) as Box<dyn Scorer>,
            Box::new(fast(WilcoxonScorer::<f64>::new(&m))),
            Box::new(fast(FScorer::<f64>::new(&m, 2))),
            Box::new(fast(PairTScorer::<f64>::new(&m))),
            Box::new(fast(BlockFScorer::<f64>::new(&m, 2))),
        ] {
            assert!(
                stats_for(scorer.as_ref(), &labels, 1)[0].is_nan(),
                "{}",
                scorer.path()
            );
        }
    }

    #[test]
    fn pivot_shift_keeps_large_offsets_stable() {
        let base = 1.0e8;
        let row: Vec<f64> = [1.0, 2.0, 3.0, 7.0, 8.0, 9.5]
            .iter()
            .map(|v| v + base)
            .collect();
        let centered: Vec<f64> = row.iter().map(|v| v - base).collect();
        let m = Matrix::from_vec(1, 6, row).unwrap();
        let scorer = fast(TwoSampleScorer::<f64>::new(&m, true, Isa::host()));
        let labels = [0u8, 0, 0, 1, 1, 1];
        let fast = stats_for(&scorer, &labels, 1)[0];
        let reference = welch_t(&centered, &labels);
        assert!((fast - reference).abs() < 1e-9, "{fast} vs {reference}");
    }

    #[test]
    fn tile_chunking_crosses_soa_tile_boundaries_bitwise() {
        // More genes than SOA_TILE forces multiple lane chunks inside one
        // score_tile call; results must match the per-gene path bitwise.
        let genes = SOA_TILE + 17;
        let cols = 6;
        let mut data = Vec::with_capacity(genes * cols);
        for g in 0..genes {
            for c in 0..cols {
                let v = ((g * 31 + c * 7) % 23) as f64 * 0.5 - 3.0;
                data.push(if (g + c) % 29 == 0 { f64::NAN } else { v });
            }
        }
        let m = Matrix::from_vec(genes, cols, data).unwrap();
        let labels = vec![0u8, 1, 0, 1, 0, 1];
        let scorer = fast(TwoSampleScorer::<f64>::new(&m, true, Isa::host()));
        let bufs = [labels.clone()];
        let mut scratch = scorer.make_scratch();
        scorer.begin_batch(&bufs, &mut scratch);
        let mut all = vec![f64::NAN; genes];
        scorer.score_tile(&bufs, 0..genes, &mut scratch, &mut all, 1);
        let single = stats_for(&scorer, &labels, genes);
        for g in 0..genes {
            assert_eq!(all[g].to_bits(), single[g].to_bits(), "gene {g}");
        }
    }
}
