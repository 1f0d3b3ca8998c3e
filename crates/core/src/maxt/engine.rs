//! The production execution engine: batched, gene-tiled, multi-threaded
//! evaluation of a rank's permutation chunk.
//!
//! The paper parallelizes `mt.maxT` across MPI processes only; this module
//! extends the same Figure-2 chunking one level down the hardware hierarchy.
//! A chunk is split contiguously over scoped worker threads ([`split_chunk`],
//! `run_jobs`); each worker forwards its own generator with `skip` (exactly
//! like a rank does), and evaluates its sub-chunk in **batches of K
//! permutations** with **gene-tiled** inner loops
//! ([`MaxTContext::accumulate_batched_with`]) so each matrix row streams through
//! L1 once per batch instead of once per permutation.
//!
//! ## Determinism
//!
//! Results are bitwise identical for any thread count and any batch size:
//!
//! - the statistic of (gene g, permutation j) is computed by the same float
//!   operation sequence whether permutations are evaluated one at a time or
//!   in a batch — batching reorders *which* (g, j) pair is computed when,
//!   never the operations inside one pair;
//! - exceedance counts are integers, derived pointwise from those scores, so
//!   per-worker partial counts are exact;
//! - partial counts are combined by [`tree_merge`], a fixed pairwise
//!   reduction over the worker order (worker = chunk position, not OS-thread
//!   completion order). `u64` addition is associative and commutative, so
//!   any merge order would give the same sums — fixing the tree shape makes
//!   the pipeline auditable end to end and keeps the guarantee independent
//!   of that argument.
//!
//! Thread/batch geometry is configured by [`EngineConfig`], with
//! `SPRINT_THREADS` / `SPRINT_BATCH` environment overrides mirroring the
//! `SPRINT_KERNEL` escape hatch.

use std::time::{Duration, Instant};

use crate::admit::{admit, Entry, Run};
use crate::error::{Error, Result};
use crate::labels::ClassLabels;
use crate::matrix::Matrix;
use crate::maxt::{CountAccumulator, MaxTContext, MaxTResult, EPSILON};
use crate::options::{env_override, PmaxtOptions};
use crate::perm::{build_generator, ResamplingStream};
use crate::stats::scorer::ScorerScratch;
use crate::stats::soa::Kernel;

/// Default permutations per batch when `batch = 0` (auto). Large enough to
/// amortize the per-batch label/index setup and give the tiled loop a hot
/// row, small enough that the gene-major score buffer stays modest.
pub const DEFAULT_BATCH: usize = 32;

/// Genes per tile of the batched inner loop. 256 rows × 8 bytes × a typical
/// sample count keeps a tile's working set within L2 while the row being
/// scored stays in L1 across the batch.
pub const GENE_TILE: usize = 256;

/// Resolved thread/batch geometry for one engine invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads per rank (≥ 1).
    pub threads: usize,
    /// Permutations per batch (≥ 1).
    pub batch: usize,
}

impl EngineConfig {
    /// Geometry from explicit values; `0` means "auto" for either field
    /// (threads → available parallelism, batch → [`DEFAULT_BATCH`]).
    /// Environment variables are **not** consulted — benches use this to pin
    /// a configuration.
    pub fn explicit(threads: usize, batch: usize) -> Self {
        EngineConfig {
            threads: if threads == 0 {
                available_threads()
            } else {
                threads
            },
            batch: if batch == 0 { DEFAULT_BATCH } else { batch },
        }
    }

    /// Single-threaded geometry with the default batch size.
    pub fn serial() -> Self {
        EngineConfig {
            threads: 1,
            batch: DEFAULT_BATCH,
        }
    }

    /// Geometry for a run: start from the options' `threads`/`batch`, apply
    /// their environment overrides when set to valid numbers, then resolve
    /// `0` (auto) as in [`EngineConfig::explicit`]. Admission
    /// ([`crate::admit`]) resolves every run's geometry, so the environment
    /// reaches every driver without options plumbing.
    pub fn resolve(opts: &PmaxtOptions) -> Self {
        let threads = env_override("threads", |o| o.threads).unwrap_or(opts.threads);
        let batch = env_override("batch", |o| o.batch).unwrap_or(opts.batch);
        Self::explicit(threads, batch)
    }
}

pub(crate) fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Split `total` items into `parts` contiguous runs differing by at most one
/// item: the run at `index` is `(offset, count)`. The single even-split rule
/// shared by rank chunking ([`crate::pmaxt::chunk_for_rank`]) and thread
/// sub-chunking ([`split_chunk`]).
pub fn split_evenly(total: u64, parts: u64, index: u64) -> (u64, u64) {
    debug_assert!(parts > 0 && index < parts);
    let base = total / parts;
    let extra = total % parts;
    let count = base + u64::from(index < extra);
    let offset = index * base + index.min(extra);
    (offset, count)
}

/// Split a rank's chunk `[start, start + take)` over up to `threads` workers:
/// contiguous sub-chunks in worker order, never more workers than
/// permutations, empty when `take == 0`.
pub fn split_chunk(start: u64, take: u64, threads: usize) -> Vec<(u64, u64)> {
    if take == 0 {
        return Vec::new();
    }
    let workers = (threads.max(1) as u64).min(take);
    (0..workers)
        .map(|w| {
            let (off, count) = split_evenly(take, workers, w);
            (start + off, count)
        })
        .collect()
}

/// Run `work(worker, job)` for every job (typically a [`split_chunk`] span
/// with what the worker owns for it), one scoped thread per job (inline when
/// there is only one), and return the results in worker order. A worker's
/// panic resumes on the caller once every worker has finished.
pub(crate) fn run_jobs<J: Send, T: Send>(
    jobs: Vec<J>,
    work: impl Fn(usize, J) -> T + Sync,
) -> Vec<T> {
    if jobs.len() <= 1 {
        return jobs.into_iter().map(|job| work(0, job)).collect();
    }
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .into_iter()
            .enumerate()
            .map(|(w, job)| scope.spawn(move || work(w, job)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

/// Deterministic pairwise reduction of per-worker partial counts, in worker
/// order: round after round, neighbour pairs merge until one accumulator
/// remains. Returns `None` for an empty input.
pub fn tree_merge(mut parts: Vec<CountAccumulator>) -> Option<CountAccumulator> {
    while parts.len() > 1 {
        let mut next = Vec::with_capacity(parts.len().div_ceil(2));
        let mut it = parts.into_iter();
        while let Some(mut left) = it.next() {
            if let Some(right) = it.next() {
                left.merge(&right);
            }
            next.push(left);
        }
        parts = next;
    }
    parts.pop()
}

/// What one worker did: its sub-chunk and the wall-clock time it spent in
/// the batched kernel. Feeds the `make_tables threads` scaling table.
#[derive(Debug, Clone, Copy)]
pub struct WorkerStat {
    /// Worker position within the chunk (also the merge-tree leaf order).
    pub worker: usize,
    /// First permutation index of the sub-chunk.
    pub start: u64,
    /// Number of permutations processed.
    pub take: u64,
    /// Time spent generating and scoring the sub-chunk.
    pub busy: Duration,
}

/// Result of [`accumulate_chunk`]: the merged counts plus per-worker timing.
#[derive(Debug, Clone)]
pub struct ChunkRun {
    /// Exceedance counts for the whole chunk (tree-merged).
    pub counts: CountAccumulator,
    /// One entry per worker, in worker order.
    pub workers: Vec<WorkerStat>,
}

/// Cooperative hooks observed by every engine worker between batches.
///
/// `cancel` is polled before each batch: once set, [`accumulate_chunk_hooked`]
/// abandons the chunk and returns [`Error::Cancelled`] — partial counts are
/// discarded, because a chunk interrupted mid-way is not a permutation-index
/// prefix and could never be resumed from a cursor. Callers that need
/// resumability (the `jobd` job service) process runs as a sequence of modest
/// chunks and checkpoint between them; the hook bounds cancellation latency
/// to one batch rather than one chunk.
///
/// `progress` is called after each batch with the number of permutations just
/// completed (concurrently from every worker — keep it cheap and atomic).
#[derive(Clone, Copy, Default)]
pub struct ChunkHooks<'a> {
    /// Cooperative cancellation flag, polled between batches.
    pub cancel: Option<&'a std::sync::atomic::AtomicBool>,
    /// Per-batch progress callback: receives permutations-just-finished.
    pub progress: Option<&'a (dyn Fn(u64) + Sync)>,
}

impl std::fmt::Debug for ChunkHooks<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkHooks")
            .field("cancel", &self.cancel.map(|_| "AtomicBool"))
            .field("progress", &self.progress.map(|_| "Fn"))
            .finish()
    }
}

/// Process the permutation chunk `[start, start + take)` of a `b`-permutation
/// run: fan the chunk over `cfg.threads` workers, each evaluating its
/// sub-chunk in `cfg.batch`-sized batches, and tree-merge the partial counts.
///
/// Every worker builds its own generator from `(labels, opts, b)` and
/// forwards it with `skip`, exactly as a rank does, so the union of worker
/// sub-sequences is the chunk's slice of the serial permutation sequence.
pub fn accumulate_chunk(
    ctx: &MaxTContext<'_>,
    labels: &ClassLabels,
    opts: &PmaxtOptions,
    b: u64,
    start: u64,
    take: u64,
    cfg: EngineConfig,
) -> Result<ChunkRun> {
    accumulate_chunk_hooked(
        ctx,
        labels,
        opts,
        b,
        start,
        take,
        cfg,
        ChunkHooks::default(),
    )
}

/// [`accumulate_chunk`] with cooperative cancellation and progress reporting
/// (see [`ChunkHooks`]). Counts are bitwise-identical to the hook-free path:
/// workers evaluate the same batches in the same order, the hooks only
/// observe the boundaries between them.
#[allow(clippy::too_many_arguments)]
pub fn accumulate_chunk_hooked(
    ctx: &MaxTContext<'_>,
    labels: &ClassLabels,
    opts: &PmaxtOptions,
    b: u64,
    start: u64,
    take: u64,
    cfg: EngineConfig,
    hooks: ChunkHooks<'_>,
) -> Result<ChunkRun> {
    let genes = ctx.genes();
    let jobs = split_chunk(start, take, cfg.threads);
    if jobs.is_empty() {
        return Ok(ChunkRun {
            counts: CountAccumulator::new(genes),
            workers: Vec::new(),
        });
    }
    let cancelled = || -> bool {
        matches!(hooks.cancel, Some(f) if f.load(std::sync::atomic::Ordering::Relaxed))
    };
    let run_worker = |worker: usize, (sub_start, sub_take): (u64, u64)| -> Result<_> {
        let begin = Instant::now();
        let mut gen = build_generator(labels, opts, b).expect("validated generator");
        gen.skip(sub_start);
        let mut acc = CountAccumulator::new(genes);
        // Batch buffers (labels, gene-major scores, scorer scratch) are
        // allocated once per worker, for at most its own sub-chunk, and
        // reused across every batch of the sub-chunk.
        let mut bufs = ctx.batch_buffers(cfg.batch.min(sub_take.try_into().unwrap_or(usize::MAX)));
        // Batch-at-a-time outer loop so the hooks run between batches; each
        // call scores exactly one batch with the same reused buffers, so the
        // inner arithmetic is the same sequence as one whole-sub-chunk call.
        let mut done = 0u64;
        while done < sub_take {
            if cancelled() {
                return Err(Error::Cancelled);
            }
            let step = (sub_take - done).min(cfg.batch.max(1) as u64);
            let did = ctx.accumulate_batched_with(&mut *gen, step, &mut acc, &mut bufs);
            assert_eq!(did, step, "sub-chunk shorter than assigned");
            done += did;
            if let Some(progress) = hooks.progress {
                // The hook is caller code running inside every engine worker.
                // A panic there must not unwind out of the worker (which would
                // re-raise it on the caller once the siblings finish); contain
                // it at the boundary and surface a typed error — the chunk's
                // counts are discarded either way.
                let guarded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    progress(did);
                }));
                if guarded.is_err() {
                    return Err(Error::Comm("progress hook panicked".to_string()));
                }
            }
        }
        Ok((
            acc,
            WorkerStat {
                worker,
                start: sub_start,
                take: sub_take,
                busy: begin.elapsed(),
            },
        ))
    };
    let parts = run_jobs(jobs, run_worker);
    let mut workers = Vec::with_capacity(parts.len());
    let mut counts = Vec::with_capacity(parts.len());
    for part in parts {
        let (acc, stat) = part?;
        counts.push(acc);
        workers.push(stat);
    }
    let counts = tree_merge(counts).expect("at least one worker ran");
    Ok(ChunkRun { counts, workers })
}

impl Run {
    /// The extremeness scores of `ctx`'s genes under permutations
    /// `[start, start + take)` of the run, gene-major (`scores[g * take + j]`),
    /// on the admitted geometry. Where [`accumulate_chunk`] counts the
    /// scores, this keeps them: the chunk is split over the same workers,
    /// each forwarding its own stream with `skip` and scoring its sub-chunk
    /// in batches, so a gene's row is its workers' parts in worker order and
    /// every score has the bits the count pass compares.
    pub fn scores(&self, ctx: &MaxTContext<'_>, start: u64, take: u64) -> Vec<f64> {
        let t = usize::try_from(take).expect("a chunk that fits in memory");
        let mut scores = vec![0.0f64; ctx.genes() * t];
        let jobs = split_chunk(start, take, self.engine.threads);
        // Each worker's part of every gene's row.
        let mut parts: Vec<Vec<&mut [f64]>> = jobs.iter().map(|_| Vec::new()).collect();
        for mut row in scores.chunks_mut(t.max(1)) {
            for (part, &(_, count)) in parts.iter_mut().zip(&jobs) {
                let (head, rest) = row.split_at_mut(count as usize);
                part.push(head);
                row = rest;
            }
        }
        let jobs = jobs.into_iter().zip(parts).collect();
        run_jobs(jobs, |_, ((sub_start, sub_take), mut rows)| {
            let mut gen = build_generator(&self.labels, &self.opts, self.b).expect("validated");
            gen.skip(sub_start);
            let mut bufs = ctx.batch_buffers(self.engine.batch.min(sub_take as usize));
            let batch = bufs.labels_bufs.len();
            let mut done = 0usize;
            while done < sub_take as usize {
                let k = ctx.score_next(&mut *gen, sub_take - done as u64, &mut bufs);
                assert!(k > 0, "sub-chunk shorter than assigned");
                for (g, row) in rows.iter_mut().enumerate() {
                    row[done..done + k].copy_from_slice(&bufs.scores[g * batch..g * batch + k]);
                }
                done += k;
            }
        });
        scores
    }
}

/// Full maxT run on the calling process with an explicit engine geometry —
/// the thread-pool analogue of `pmaxt`. Environment overrides are not consulted;
/// [`crate::maxt::serial::mt_maxt`] resolves the geometry from the options
/// and environment. Admission keeps the threads and clamps the batch to the
/// memory budget.
pub fn maxt_with_config(
    data: &Matrix,
    classlabel: &[u8],
    opts: &PmaxtOptions,
    cfg: EngineConfig,
) -> Result<MaxTResult> {
    let adm = admit(data, classlabel, opts, Entry::MaxT { engine: Some(cfg) })?;
    maxt_on(&adm.run, &adm.data)
}

/// The in-process maxT body of an admitted run over its NA-canonical
/// matrix: rank-transform, run every permutation through the engine on the
/// admitted geometry, finalize.
pub(crate) fn maxt_on(run: &Run, data: &Matrix) -> Result<MaxTResult> {
    let prepared = run.prepare(data);
    let ctx = run.context(&prepared);
    let counts = run.chunk(&ctx, 0, run.b, ChunkHooks::default())?.counts;
    debug_assert_eq!(counts.n_perm, run.b);
    Ok(ctx.finalize(&counts))
}

/// Reusable per-worker buffers for the batched accumulation loop: the label
/// arrangements, the gene-major score buffer, the running-maximum row of
/// the count pass and the scorer's scratch. Allocated once per worker (via
/// [`MaxTContext::batch_buffers`]) and reused across every batch, so the hot
/// loop performs no allocation.
#[derive(Debug)]
pub struct BatchBuffers {
    labels_bufs: Vec<Vec<u8>>,
    scores: Vec<f64>,
    run_max: Vec<f64>,
    scratch: ScorerScratch,
}

impl MaxTContext<'_> {
    /// Allocate batch buffers for this context sized for `batch`
    /// arrangements per batch (`0` selects [`DEFAULT_BATCH`]).
    pub fn batch_buffers(&self, batch: usize) -> BatchBuffers {
        let batch = if batch == 0 { DEFAULT_BATCH } else { batch };
        let mut scratch = self.scorer.make_scratch();
        // Pre-size the lane accumulators so the first tile allocates nothing.
        self.scorer.warm_scratch(&mut scratch, GENE_TILE);
        BatchBuffers {
            labels_bufs: vec![vec![0u8; self.cols]; batch],
            scores: vec![0.0f64; self.genes * batch],
            run_max: vec![0.0f64; batch],
            scratch,
        }
    }

    /// Batched, gene-tiled variant of [`MaxTContext::accumulate`]: consume up
    /// to `take` permutations from `gen` in batches, accumulating exceedance
    /// counts into `acc`, and return the number of permutations processed.
    /// The caller-owned [`BatchBuffers`] are reused; their capacity is the
    /// batch size.
    ///
    /// Per batch, the scorer derives its per-arrangement structures once
    /// ([`crate::stats::scorer::Scorer::begin_batch`]); the matrix is then
    /// walked **gene-outer, permutation-inner** in tiles of [`GENE_TILE`]
    /// rows, so each cached row is loaded once per batch and scored against
    /// every arrangement while hot. Scores land gene-major in a
    /// `genes × batch` buffer; the statistic → extremeness transform fuses
    /// into the tile pass, and the step-down (successive-maxima) pass runs
    /// per permutation afterwards. Counts are identical to `accumulate` for
    /// every batch size — see the module docs.
    pub fn accumulate_batched_with(
        &self,
        gen: &mut dyn ResamplingStream,
        take: u64,
        acc: &mut CountAccumulator,
        bufs: &mut BatchBuffers,
    ) -> u64 {
        assert_eq!(acc.genes(), self.genes(), "accumulator size mismatch");
        let batch = bufs.labels_bufs.len();
        let mut done = 0u64;
        while done < take {
            let k = self.score_next(gen, take - done, bufs);
            if k == 0 {
                break;
            }
            self.count_isa.run(CountBatch {
                ctx: self,
                scores: &bufs.scores,
                stride: batch,
                run_max: &mut bufs.run_max[..k],
                acc,
            });
            done += k as u64;
        }
        done
    }

    /// Draw up to `want` arrangements (at most a batch) from `gen` into
    /// `bufs` and score them gene-major into `bufs.scores` with the batch
    /// as stride. Returns how many were drawn.
    fn score_next(
        &self,
        gen: &mut dyn ResamplingStream,
        want: u64,
        bufs: &mut BatchBuffers,
    ) -> usize {
        let batch = bufs.labels_bufs.len();
        debug_assert_eq!(bufs.scores.len(), self.genes * batch, "buffer mismatch");
        let want = want.min(batch as u64) as usize;
        let mut k = 0usize;
        while k < want && gen.next_into(&mut bufs.labels_bufs[k]) {
            k += 1;
        }
        if k > 0 {
            let labels_bufs = &bufs.labels_bufs[..k];
            self.score_batch(labels_bufs, &mut bufs.scratch, &mut bufs.scores, batch);
        }
        k
    }

    /// Fill `scores[g * stride + j]` with the extremeness score of gene `g`
    /// under arrangement `j`, walking genes tile by tile through the run's
    /// scorer.
    fn score_batch(
        &self,
        labels_bufs: &[Vec<u8>],
        scratch: &mut ScorerScratch,
        scores: &mut [f64],
        stride: usize,
    ) {
        let genes = self.genes;
        let k = labels_bufs.len();
        self.scorer.begin_batch(labels_bufs, scratch);
        let mut tile_start = 0usize;
        while tile_start < genes {
            let tile_end = (tile_start + GENE_TILE).min(genes);
            self.scorer
                .score_tile(labels_bufs, tile_start..tile_end, scratch, scores, stride);
            // Statistic → extremeness score while the tile is hot.
            for g in tile_start..tile_end {
                let slots = &mut scores[g * stride..g * stride + k];
                for slot in slots.iter_mut() {
                    *slot = self.side.score(*slot);
                }
            }
            tile_start = tile_end;
        }
    }

    /// Raw and step-down (successive-maxima) exceedance counts over a scored
    /// batch of `run_max.len()` arrangements. Both passes walk genes in the
    /// outer loop and a gene's contiguous row of arrangement scores in the
    /// inner one, counting into a local, so the compare loops vectorize.
    /// `run_max` holds one running maximum per arrangement; each
    /// arrangement's maxima and comparisons are the ones the
    /// one-permutation-at-a-time loop makes, in the same gene order.
    /// `#[inline(always)]`, so each ISA's entry point compiles its own copy
    /// (see [`CountBatch`]).
    #[inline(always)]
    fn count_batch(
        &self,
        scores: &[f64],
        stride: usize,
        run_max: &mut [f64],
        acc: &mut CountAccumulator,
    ) {
        let k = run_max.len();
        let row = |g: usize| &scores[g * stride..g * stride + k];
        let exceeding = |vals: &[f64], observed: f64| {
            let observed = observed - EPSILON;
            vals.iter().filter(|&&s| s >= observed).count() as u64
        };
        let fold_max = |run_max: &mut [f64], row: &[f64]| {
            for (m, &s) in run_max.iter_mut().zip(row) {
                if s > *m {
                    *m = s;
                }
            }
        };
        for g in 0..self.genes {
            acc.count_raw[g] += exceeding(row(g), self.obs_scores[g]);
        }
        run_max.fill(f64::NEG_INFINITY);
        if self.single_step() {
            // Single-step (`tmax`): one global max per arrangement, compared
            // against every ordered observed score — the batched twin of the
            // branch in `MaxTContext::accumulate`.
            for g in 0..self.genes {
                fold_max(run_max, row(g));
            }
            for (i, &observed) in self.obs_scores_ordered.iter().enumerate() {
                acc.count_adj[i] += exceeding(run_max, observed);
            }
        } else {
            // Successive maxima from the least extreme ordered gene upwards.
            for i in (0..self.genes).rev() {
                fold_max(run_max, row(self.order[i]));
                acc.count_adj[i] += exceeding(run_max, self.obs_scores_ordered[i]);
            }
        }
        acc.n_perm += k as u64;
    }
}

/// One batch's count pass ([`MaxTContext::count_batch`]), as a [`Kernel`]
/// for [`crate::stats::soa::Isa::run`].
struct CountBatch<'c, 'a> {
    ctx: &'c MaxTContext<'a>,
    scores: &'c [f64],
    stride: usize,
    run_max: &'c mut [f64],
    acc: &'c mut CountAccumulator,
}

impl Kernel for CountBatch<'_, '_> {
    type Out = ();
    #[inline(always)]
    fn run(self) {
        self.ctx
            .count_batch(self.scores, self.stride, self.run_max, self.acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxt::serial::{mt_maxt, prepare_run};
    use crate::options::{KernelChoice, Precision, SamplingMode, TestMethod};
    use crate::side::Side;
    use crate::stats::prepare_matrix;

    /// Bitwise result equality: `MaxTResult`'s derived `PartialEq` treats
    /// NaN ≠ NaN, but the engine's guarantee is bit-for-bit — including the
    /// NaN p-values of non-computable genes.
    fn assert_bitwise_eq(a: &MaxTResult, b: &MaxTResult, what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(a.order, b.order, "{what}: order");
        assert_eq!(a.b_used, b.b_used, "{what}: b_used");
        assert_eq!(bits(&a.teststat), bits(&b.teststat), "{what}: teststat");
        assert_eq!(bits(&a.rawp), bits(&b.rawp), "{what}: rawp");
        assert_eq!(bits(&a.adjp), bits(&b.adjp), "{what}: adjp");
    }

    fn test_data() -> (Matrix, Vec<u8>) {
        let data = Matrix::from_vec(
            5,
            8,
            vec![
                1.0,
                2.0,
                1.5,
                2.5,
                9.0,
                10.0,
                9.5,
                10.5, // strong signal
                5.0,
                4.0,
                6.0,
                5.5,
                4.5,
                5.2,
                5.8,
                4.9, // flat
                2.0,
                8.0,
                3.0,
                7.0,
                2.5,
                7.5,
                3.5,
                6.5, // noisy
                1.0,
                f64::NAN,
                2.0,
                1.5,
                3.0,
                4.0,
                f64::NAN,
                3.5, // missing cells → NA-adjusted fast path
                7.7,
                7.7,
                7.7,
                7.7,
                7.7,
                7.7,
                7.7,
                7.7, // constant → NaN statistic
            ],
        )
        .unwrap();
        (data, vec![0, 0, 0, 0, 1, 1, 1, 1])
    }

    #[test]
    fn split_evenly_covers_and_balances() {
        for total in [0u64, 1, 5, 23, 150] {
            for parts in [1u64, 2, 3, 7] {
                let runs: Vec<(u64, u64)> =
                    (0..parts).map(|i| split_evenly(total, parts, i)).collect();
                let mut expect = 0u64;
                for &(off, count) in &runs {
                    assert_eq!(off, expect);
                    expect += count;
                }
                assert_eq!(expect, total);
                let counts: Vec<u64> = runs.iter().map(|r| r.1).collect();
                let min = counts.iter().min().unwrap();
                let max = counts.iter().max().unwrap();
                assert!(max - min <= 1, "total={total} parts={parts}: {counts:?}");
            }
        }
    }

    #[test]
    fn split_chunk_clamps_workers_to_take() {
        assert!(split_chunk(5, 0, 4).is_empty());
        let subs = split_chunk(10, 3, 8);
        assert_eq!(subs, vec![(10, 1), (11, 1), (12, 1)]);
        let subs = split_chunk(0, 10, 3);
        assert_eq!(subs, vec![(0, 4), (4, 3), (7, 3)]);
    }

    #[test]
    fn tree_merge_equals_sequential_merge() {
        let mk = |r: u64| CountAccumulator {
            count_raw: vec![r, 2 * r],
            count_adj: vec![3 * r, r],
            n_perm: r,
        };
        for n in 1..=9usize {
            let parts: Vec<CountAccumulator> = (1..=n as u64).map(mk).collect();
            let mut sequential = CountAccumulator::new(2);
            for p in &parts {
                sequential.merge(p);
            }
            assert_eq!(tree_merge(parts).unwrap(), sequential, "n={n}");
        }
        assert!(tree_merge(Vec::new()).is_none());
    }

    #[test]
    fn explicit_config_resolves_auto_values() {
        let cfg = EngineConfig::explicit(0, 0);
        assert!(cfg.threads >= 1);
        assert_eq!(cfg.batch, DEFAULT_BATCH);
        let cfg = EngineConfig::explicit(3, 7);
        assert_eq!(
            cfg,
            EngineConfig {
                threads: 3,
                batch: 7
            }
        );
        assert_eq!(EngineConfig::serial().threads, 1);
    }

    #[test]
    fn batched_accumulate_matches_reference_for_every_batch_size() {
        let (data, classlabel) = test_data();
        for method in [TestMethod::T, TestMethod::Wilcoxon] {
            for choice in [KernelChoice::Fast, KernelChoice::Scalar] {
                let labels = ClassLabels::new(classlabel.clone(), method).unwrap();
                let opts = PmaxtOptions::default().test(method).permutations(40);
                let prepared = prepare_matrix(&data, method, false);
                let ctx = MaxTContext::with_scorer(
                    &prepared,
                    &labels,
                    method,
                    Side::Abs,
                    choice,
                    Precision::F64,
                );
                let mut reference = CountAccumulator::new(5);
                let mut gen = build_generator(&labels, &opts, 40).unwrap();
                ctx.accumulate(&mut *gen, u64::MAX, &mut reference);
                for batch in [1usize, 2, 3, 7, 32, 64] {
                    let mut acc = CountAccumulator::new(5);
                    let mut gen = build_generator(&labels, &opts, 40).unwrap();
                    let mut bufs = ctx.batch_buffers(batch);
                    let done =
                        ctx.accumulate_batched_with(&mut *gen, u64::MAX, &mut acc, &mut bufs);
                    assert_eq!(done, 40);
                    assert_eq!(acc, reference, "{method:?} {choice:?} batch={batch}");
                }
            }
        }
    }

    #[test]
    fn accumulate_batched_respects_take_limit() {
        let (data, classlabel) = test_data();
        let labels = ClassLabels::new(classlabel, TestMethod::T).unwrap();
        let opts = PmaxtOptions::default().permutations(10);
        let prepared = prepare_matrix(&data, TestMethod::T, false);
        let ctx = MaxTContext::new(&prepared, &labels, TestMethod::T, Side::Abs);
        let mut gen = build_generator(&labels, &opts, 10).unwrap();
        let mut acc = CountAccumulator::new(5);
        let mut bufs = ctx.batch_buffers(3);
        assert_eq!(
            ctx.accumulate_batched_with(&mut *gen, 4, &mut acc, &mut bufs),
            4
        );
        assert_eq!(acc.n_perm, 4);
        assert_eq!(
            ctx.accumulate_batched_with(&mut *gen, 100, &mut acc, &mut bufs),
            6
        );
        assert_eq!(acc.n_perm, 10);
    }

    #[test]
    fn chunked_threaded_run_matches_serial_reference() {
        // Ground truth from the one-permutation-at-a-time loop, not from
        // `mt_maxt` (which itself dispatches through this engine).
        let (data, classlabel) = test_data();
        let opts = PmaxtOptions::default().permutations(50);
        let (labels, b, prepared) = prepare_run(&data, &classlabel, &opts).unwrap();
        let ctx = MaxTContext::new(&prepared, &labels, opts.test, opts.side);
        let mut gen = build_generator(&labels, &opts, b).unwrap();
        let mut acc = CountAccumulator::new(5);
        ctx.accumulate(&mut *gen, u64::MAX, &mut acc);
        let serial = ctx.finalize(&acc);
        for threads in [1usize, 2, 3, 8] {
            for batch in [1usize, 4, 16] {
                let cfg = EngineConfig { threads, batch };
                let run = maxt_with_config(&data, &classlabel, &opts, cfg).unwrap();
                assert_bitwise_eq(&run, &serial, &format!("threads={threads} batch={batch}"));
            }
        }
    }

    #[test]
    fn worker_stats_cover_the_chunk_in_order() {
        let (data, classlabel) = test_data();
        let opts = PmaxtOptions::default().permutations(30);
        let (labels, b, prepared) = prepare_run(&data, &classlabel, &opts).unwrap();
        let ctx = MaxTContext::new(&prepared, &labels, opts.test, opts.side);
        let cfg = EngineConfig {
            threads: 4,
            batch: 8,
        };
        let run = accumulate_chunk(&ctx, &labels, &opts, b, 5, 20, cfg).unwrap();
        assert_eq!(run.counts.n_perm, 20);
        assert_eq!(run.workers.len(), 4);
        let mut expect = 5u64;
        for (w, stat) in run.workers.iter().enumerate() {
            assert_eq!(stat.worker, w);
            assert_eq!(stat.start, expect);
            expect += stat.take;
        }
        assert_eq!(expect, 25);
    }

    #[test]
    fn empty_chunk_yields_empty_run() {
        let (data, classlabel) = test_data();
        let opts = PmaxtOptions::default().permutations(10);
        let (labels, b, prepared) = prepare_run(&data, &classlabel, &opts).unwrap();
        let ctx = MaxTContext::new(&prepared, &labels, opts.test, opts.side);
        let run = accumulate_chunk(&ctx, &labels, &opts, b, 3, 0, EngineConfig::serial()).unwrap();
        assert_eq!(run.counts.n_perm, 0);
        assert!(run.workers.is_empty());
    }

    #[test]
    fn hooked_chunk_matches_hookless_and_reports_progress() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        let (data, classlabel) = test_data();
        let opts = PmaxtOptions::default().permutations(40);
        let (labels, b, prepared) = prepare_run(&data, &classlabel, &opts).unwrap();
        let ctx = MaxTContext::new(&prepared, &labels, opts.test, opts.side);
        let cfg = EngineConfig {
            threads: 3,
            batch: 7,
        };
        let plain = accumulate_chunk(&ctx, &labels, &opts, b, 2, 30, cfg).unwrap();
        let progressed = AtomicU64::new(0);
        let cancel = AtomicBool::new(false);
        let hooks = ChunkHooks {
            cancel: Some(&cancel),
            progress: Some(&|n| {
                progressed.fetch_add(n, Ordering::Relaxed);
            }),
        };
        let hooked = accumulate_chunk_hooked(&ctx, &labels, &opts, b, 2, 30, cfg, hooks).unwrap();
        assert_eq!(hooked.counts, plain.counts, "hooks must not change counts");
        assert_eq!(progressed.load(Ordering::Relaxed), 30);
    }

    #[test]
    fn panicking_progress_hook_surfaces_typed_error_not_panic() {
        let (data, classlabel) = test_data();
        let opts = PmaxtOptions::default().permutations(40);
        let (labels, b, prepared) = prepare_run(&data, &classlabel, &opts).unwrap();
        let ctx = MaxTContext::new(&prepared, &labels, opts.test, opts.side);
        let cfg = EngineConfig {
            threads: 2,
            batch: 7,
        };
        let hooks = ChunkHooks {
            cancel: None,
            progress: Some(&|_| panic!("hook bug")),
        };
        // Silence the default panic hook's backtrace spam for the expected
        // per-worker panics; restore it before asserting.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcome = accumulate_chunk_hooked(&ctx, &labels, &opts, b, 0, 30, cfg, hooks);
        std::panic::set_hook(prev);
        let err = outcome.unwrap_err();
        assert!(
            matches!(&err, Error::Comm(m) if m.contains("progress hook panicked")),
            "got {err:?}"
        );
    }

    #[test]
    fn pre_set_cancel_flag_aborts_with_typed_error() {
        use std::sync::atomic::AtomicBool;
        let (data, classlabel) = test_data();
        let opts = PmaxtOptions::default().permutations(40);
        let (labels, b, prepared) = prepare_run(&data, &classlabel, &opts).unwrap();
        let ctx = MaxTContext::new(&prepared, &labels, opts.test, opts.side);
        let cancel = AtomicBool::new(true);
        let hooks = ChunkHooks {
            cancel: Some(&cancel),
            progress: None,
        };
        let err =
            accumulate_chunk_hooked(&ctx, &labels, &opts, b, 0, b, EngineConfig::serial(), hooks)
                .unwrap_err();
        assert!(matches!(err, Error::Cancelled));
    }

    #[test]
    fn stored_sampling_mode_agrees_across_geometries() {
        let (data, classlabel) = test_data();
        let opts = PmaxtOptions {
            sampling: SamplingMode::Stored,
            b: 33,
            ..PmaxtOptions::default()
        };
        let serial = mt_maxt(&data, &classlabel, &opts).unwrap();
        let threaded = maxt_with_config(
            &data,
            &classlabel,
            &opts,
            EngineConfig {
                threads: 3,
                batch: 5,
            },
        )
        .unwrap();
        assert_bitwise_eq(&threaded, &serial, "stored sampling");
    }
}
