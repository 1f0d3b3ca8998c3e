//! The production execution engine: batched, gene-tiled, multi-threaded
//! evaluation of a rank's permutation chunk.
//!
//! The paper parallelizes `mt.maxT` across MPI processes only; this module
//! takes the work one level down the hardware hierarchy. Skip-ahead is the
//! paper's device for *processes*, which share nothing; threads share
//! memory, so an engine pass has **one stream**, positioned once at the
//! chunk's first index, and its scoped workers **pull batches** from it: a
//! worker locks the stream, draws up to K arrangements into its own label
//! buffers, unlocks, and scores them with **gene-tiled** inner loops, so
//! each matrix row streams through L1 once per batch instead of once per
//! permutation. No worker builds, skips or replays a stream, each
//! arrangement is drawn once per pass, and a worker that runs slow simply
//! pulls fewer batches.
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
//!   per-worker partial counts are exact, and they add up to the same sums
//!   in any order, whichever worker scored which batch;
//! - the scoring pass ([`Run::scores`]) writes each statistic at its
//!   draw's index in the chunk; the count pass maps statistics to
//!   extremeness scores itself.
//!
//! Thread/batch geometry is configured by [`EngineConfig`], with
//! `SPRINT_THREADS` / `SPRINT_BATCH` environment overrides mirroring the
//! `SPRINT_KERNEL` escape hatch.

use std::sync::{Mutex, PoisonError};
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
/// shared by rank chunking ([`crate::pmaxt::chunk_for_rank`]) and
/// [`split_chunk`].
pub fn split_evenly(total: u64, parts: u64, index: u64) -> (u64, u64) {
    debug_assert!(parts > 0 && index < parts);
    let base = total / parts;
    let extra = total % parts;
    let count = base + u64::from(index < extra);
    let offset = index * base + index.min(extra);
    (offset, count)
}

/// Split `[start, start + take)` over up to `threads` workers: contiguous
/// sub-ranges in worker order, never more workers than items, empty when
/// `take == 0`. minP's sorted rows are dealt out this way; an engine pass is
/// not, since its workers pull batches, nor are the bootstrap's rows, which
/// its finalizing workers pull one at a time.
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

/// What one worker did: how many arrangements it scored and the wall-clock
/// time it spent pulling, scoring and counting them. Feeds the
/// `make_tables threads` scaling table.
#[derive(Debug, Clone, Copy)]
pub struct WorkerStat {
    /// Worker position within the chunk's pool.
    pub worker: usize,
    /// Number of arrangements the worker scored.
    pub take: u64,
    /// Time spent drawing, scoring and counting them.
    pub busy: Duration,
}

/// Result of [`Run::chunk`] and [`accumulate_chunk`]: the summed counts
/// plus per-worker timing.
#[derive(Debug, Clone)]
pub struct ChunkRun {
    /// Exceedance counts for the whole chunk.
    pub counts: CountAccumulator,
    /// One entry per worker, in worker order.
    pub workers: Vec<WorkerStat>,
}

/// Cooperative hooks observed by every engine worker between batches.
///
/// `cancel` is polled before each pull: once set, [`Run::chunk`] abandons
/// the chunk and returns [`Error::Cancelled`] — partial counts are
/// discarded, and so is the stream, because a chunk interrupted mid-way is
/// not a permutation-index prefix and could never be resumed from a
/// cursor. Callers that need resumability (the `jobd` job service) process
/// runs as a sequence of modest chunks and checkpoint between them; the
/// hook bounds cancellation latency to one batch rather than one chunk.
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
/// run on `cfg`: [`Run::chunk`] over the run's stream at `start`, for
/// callers that pin the geometry instead of admitting the run.
pub fn accumulate_chunk(
    ctx: &MaxTContext<'_>,
    labels: &ClassLabels,
    opts: &PmaxtOptions,
    b: u64,
    start: u64,
    take: u64,
    cfg: EngineConfig,
) -> Result<ChunkRun> {
    let (labels, opts) = (labels.clone(), opts.clone());
    let run = Run {
        labels,
        b,
        mode: opts.mode,
        engine: cfg,
        opts,
    };
    run.chunk(ctx, &mut *run.stream(start), take, ChunkHooks::default())
}

impl Run {
    /// The run's stream positioned at draw `start`: built and skipped once,
    /// where a rank, a peer's unit or a resumed run begins. Callers that walk
    /// the run in order keep it between chunks.
    pub fn stream(&self, start: u64) -> Box<dyn ResamplingStream> {
        let stream = build_generator(&self.labels, &self.opts, self.b);
        let mut stream = stream.expect("an admitted run builds its stream");
        stream.skip(start);
        stream
    }

    /// The next `take` arrangements of `stream` through the engine, on the
    /// admitted geometry, counted: every worker counts the batches it pulls,
    /// and the counts, integers, add up in any order. `stream` is left `take`
    /// draws on.
    pub fn chunk(
        &self,
        ctx: &MaxTContext<'_>,
        stream: &mut dyn ResamplingStream,
        take: u64,
        hooks: ChunkHooks<'_>,
    ) -> Result<ChunkRun> {
        let genes = ctx.genes();
        let count = |acc: &mut CountAccumulator, bufs: &mut BatchBuffers, _, k: usize| {
            let (scores, stride) = (&mut bufs.scores, bufs.labels_bufs.len());
            let run_max = &mut bufs.run_max[..k];
            ctx.count_isa.run(CountBatch {
                ctx,
                scores,
                stride,
                run_max,
                acc,
            });
        };
        let new = || CountAccumulator::new(genes);
        let parts = pull(ctx, stream, take, self.engine, hooks, new, count)?;
        let mut counts = new();
        parts.iter().for_each(|(acc, _)| counts.merge(acc));
        let workers = parts.into_iter().map(|(_, stat)| stat).collect();
        Ok(ChunkRun { counts, workers })
    }

    /// [`Run::chunk`]'s statistics kept instead of counted, gene-major
    /// (`scores[g * take + j]` for the chunk's `j`-th draw): each batch's
    /// columns are written at its draws' offsets, so every statistic has the
    /// bits the count pass maps through the side. A reader that compares
    /// extremeness applies the side itself; the bootstrap reads them raw.
    pub fn scores(
        &self,
        ctx: &MaxTContext<'_>,
        stream: &mut dyn ResamplingStream,
        take: u64,
    ) -> Vec<f64> {
        let t = usize::try_from(take).expect("a chunk that fits in memory");
        let out = Mutex::new(vec![0.0f64; ctx.genes() * t]);
        let write = |_: &mut (), bufs: &mut BatchBuffers, offset: usize, k: usize| {
            let batch = bufs.labels_bufs.len();
            let mut out = out.lock().unwrap_or_else(PoisonError::into_inner);
            for (row, scored) in out.chunks_mut(t).zip(bufs.scores.chunks(batch)) {
                row[offset..offset + k].copy_from_slice(&scored[..k]);
            }
        };
        let hooks = ChunkHooks::default();
        pull(ctx, stream, take, self.engine, hooks, || (), write).expect("a pass without hooks");
        out.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The engine's one loop, behind both passes: the next `take` arrangements
/// of `stream`, pulled by up to `cfg.threads` workers. A worker locks the
/// stream, draws up to one batch into its own label buffers, unlocks,
/// scores the batch and hands it to `done` with its own state (made by
/// `state`) and the batch's offset in the chunk. A short chunk still
/// spreads over every worker: a batch is at most `⌈take / threads⌉`.
fn pull<T: Send>(
    ctx: &MaxTContext<'_>,
    stream: &mut dyn ResamplingStream,
    take: u64,
    cfg: EngineConfig,
    hooks: ChunkHooks<'_>,
    state: impl Fn() -> T + Sync,
    done: impl Fn(&mut T, &mut BatchBuffers, usize, usize) + Sync,
) -> Result<Vec<(T, WorkerStat)>> {
    let threads = cfg.threads.max(1) as u64;
    let batch = (cfg.batch.max(1) as u64).min(take.div_ceil(threads)).max(1);
    let workers = threads.min(take.div_ceil(batch)) as usize;
    let first = stream.position();
    let end = first + take;
    let shared = Mutex::new(stream);
    let cancelled = || -> bool {
        matches!(hooks.cancel, Some(f) if f.load(std::sync::atomic::Ordering::Relaxed))
    };
    let work = |worker: usize, ()| -> Result<(T, WorkerStat)> {
        let begin = Instant::now();
        let mut own = state();
        let mut bufs = ctx.batch_buffers(batch as usize);
        let mut scored = 0u64;
        loop {
            if cancelled() {
                return Err(Error::Cancelled);
            }
            // A sibling that panicked while drawing poisons the stream; its
            // panic resumes on the caller once the pool has joined.
            let Ok(mut stream) = shared.lock() else { break };
            let at = stream.position();
            let want = (end - at).min(batch) as usize;
            if want == 0 {
                break;
            }
            let labels = &mut bufs.labels_bufs;
            let k = (0..want)
                .take_while(|&j| stream.next_into(&mut labels[j]))
                .count();
            assert_eq!(k, want, "stream shorter than its chunk");
            drop(stream);
            ctx.score_batch(
                &bufs.labels_bufs[..k],
                &mut bufs.scratch,
                &mut bufs.scores,
                batch as usize,
            );
            done(&mut own, &mut bufs, (at - first) as usize, k);
            scored += k as u64;
            if let Some(progress) = hooks.progress {
                // The hook is caller code running inside every engine worker.
                // A panic there must not unwind out of the worker (which would
                // re-raise it on the caller once the siblings finish); contain
                // it at the boundary and surface a typed error — the chunk's
                // counts are discarded either way.
                let guarded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    progress(k as u64);
                }));
                if guarded.is_err() {
                    return Err(Error::Comm("progress hook panicked".to_string()));
                }
            }
        }
        let stat = WorkerStat {
            worker,
            take: scored,
            busy: begin.elapsed(),
        };
        Ok((own, stat))
    };
    run_jobs(vec![(); workers], work).into_iter().collect()
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
    let counts = run.chunk(&ctx, &mut *run.stream(0), run.b, ChunkHooks::default())?;
    let counts = counts.counts;
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

    /// Fill `scores[g * stride + j]` with the statistic of gene `g` under
    /// draw `j`, walking genes tile by tile through the run's scorer.
    fn score_batch(
        &self,
        labels_bufs: &[Vec<u8>],
        scratch: &mut ScorerScratch,
        scores: &mut [f64],
        stride: usize,
    ) {
        let genes = self.genes;
        self.scorer.begin_batch(labels_bufs, scratch);
        let mut tile_start = 0usize;
        while tile_start < genes {
            let tile_end = (tile_start + GENE_TILE).min(genes);
            self.scorer
                .score_tile(labels_bufs, tile_start..tile_end, scratch, scores, stride);
            tile_start = tile_end;
        }
    }

    /// Raw and step-down (successive-maxima) exceedance counts over a scored
    /// batch of `run_max.len()` arrangements. The raw-count pass maps each
    /// gene's row of statistics to extremeness scores in place and counts
    /// the row while it is hot. Both passes walk genes in the outer loop
    /// and a gene's contiguous row of arrangement scores in the inner one,
    /// counting into a local, so the compare loops vectorize. `run_max`
    /// holds one running maximum per arrangement; each arrangement's maxima
    /// and comparisons are the ones the one-permutation-at-a-time loop
    /// makes, in the same gene order. `#[inline(always)]`, so each ISA's
    /// entry point compiles its own copy (see [`CountBatch`]).
    #[inline(always)]
    fn count_batch(
        &self,
        scores: &mut [f64],
        stride: usize,
        run_max: &mut [f64],
        acc: &mut CountAccumulator,
    ) {
        let k = run_max.len();
        let exceeding = |vals: &[f64], observed: f64| {
            let observed = observed - EPSILON;
            vals.iter().filter(|&&s| s >= observed).count() as u64
        };
        for g in 0..self.genes {
            let row = &mut scores[g * stride..g * stride + k];
            row.iter_mut().for_each(|s| *s = self.side.score(*s));
            acc.count_raw[g] += exceeding(row, self.obs_scores[g]);
        }
        let row = |g: usize| &scores[g * stride..g * stride + k];
        let fold_max = |run_max: &mut [f64], row: &[f64]| {
            for (m, &s) in run_max.iter_mut().zip(row) {
                if s > *m {
                    *m = s;
                }
            }
        };
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
    scores: &'c mut [f64],
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
    use crate::perm::build_generator;
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
                    let cfg = EngineConfig { threads: 1, batch };
                    let run = accumulate_chunk(&ctx, &labels, &opts, 40, 0, 40, cfg).unwrap();
                    assert_eq!(run.counts, reference, "{method:?} {choice:?} batch={batch}");
                }
            }
        }
    }

    #[test]
    fn chunks_on_a_kept_stream_add_up_to_one_chunk() {
        for sampling in ["y", "n"] {
            let opts = PmaxtOptions::default()
                .permutations(30)
                .fixed_seed_sampling(sampling)
                .unwrap();
            let (run, prepared) = pinned(&opts, 2, 3);
            let ctx = run.context(&prepared);
            let hooks = ChunkHooks::default();
            let whole = run.chunk(&ctx, &mut *run.stream(2), 25, hooks).unwrap();
            let mut stream = run.stream(2);
            let mut parts = CountAccumulator::new(ctx.genes());
            for take in [4, 1, 13, 7] {
                parts.merge(&run.chunk(&ctx, &mut *stream, take, hooks).unwrap().counts);
            }
            assert_eq!(stream.position(), 27, "sampling {sampling}");
            assert_eq!(parts, whole.counts, "sampling {sampling}");
        }
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
    fn worker_stats_cover_the_chunk() {
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
        // Batches of ⌈20 / 4⌉ = 5 arrangements: four of them, one pool of
        // four workers, which between them score the chunk.
        assert_eq!(run.workers.len(), 4);
        for (w, stat) in run.workers.iter().enumerate() {
            assert_eq!(stat.worker, w);
        }
        assert_eq!(run.workers.iter().map(|w| w.take).sum::<u64>(), 20);
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

    /// `test_data` admitted on a pinned geometry, and its prepared matrix.
    fn pinned(opts: &PmaxtOptions, threads: usize, batch: usize) -> (Run, Matrix) {
        let (data, classlabel) = test_data();
        let engine = Some(EngineConfig { threads, batch });
        let adm = admit(&data, &classlabel, opts, Entry::MaxT { engine }).unwrap();
        assert_eq!(adm.engine, EngineConfig { threads, batch });
        let prepared = adm.prepare(&adm.data).into_owned();
        (adm.run, prepared)
    }

    /// A stream that counts what the engine asks of it.
    struct Counting {
        inner: Box<dyn ResamplingStream>,
        draws: u64,
        skips: u64,
    }

    impl ResamplingStream for Counting {
        fn len(&self) -> u64 {
            self.inner.len()
        }

        fn position(&self) -> u64 {
            self.inner.position()
        }

        fn next_into(&mut self, out: &mut [u8]) -> bool {
            self.draws += 1;
            self.inner.next_into(out)
        }

        fn skip(&mut self, n: u64) {
            self.skips += 1;
            self.inner.skip(n);
        }
    }

    #[test]
    fn each_pass_draws_each_arrangement_once_from_its_one_stream() {
        let (start, take) = (7u64, 23u64);
        for sampling in ["y", "n"] {
            let opts = PmaxtOptions::default()
                .permutations(40)
                .fixed_seed_sampling(sampling)
                .unwrap();
            let (pulled, prepared) = pinned(&opts, 3, 5);
            let (serial, _) = pinned(&opts, 1, 32);
            let ctx = pulled.context(&prepared);
            let counted = || Counting {
                inner: pulled.stream(start),
                draws: 0,
                skips: 0,
            };
            let drew_once = |stream: &Counting| {
                let seen = (stream.draws, stream.skips, stream.position());
                assert_eq!(seen, (take, 0, start + take), "sampling {sampling}");
            };
            let mut stream = counted();
            let counts = pulled.chunk(&ctx, &mut stream, take, ChunkHooks::default());
            drew_once(&stream);
            let mut stream = counted();
            let scores = pulled.scores(&ctx, &mut stream, take);
            drew_once(&stream);

            let hooks = ChunkHooks::default();
            let reference = serial.chunk(&ctx, &mut *serial.stream(start), take, hooks);
            assert_eq!(counts.unwrap().counts, reference.unwrap().counts);
            let reference = serial.scores(&ctx, &mut *serial.stream(start), take);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&scores), bits(&reference), "sampling {sampling}");
        }
    }

    #[test]
    fn hooked_chunk_matches_hookless_and_reports_progress() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        let opts = PmaxtOptions::default().permutations(40);
        let (run, prepared) = pinned(&opts, 3, 7);
        let ctx = run.context(&prepared);
        let plain = run.chunk(&ctx, &mut *run.stream(2), 30, ChunkHooks::default());
        let progressed = AtomicU64::new(0);
        let cancel = AtomicBool::new(false);
        let hooks = ChunkHooks {
            cancel: Some(&cancel),
            progress: Some(&|n| {
                progressed.fetch_add(n, Ordering::Relaxed);
            }),
        };
        let hooked = run.chunk(&ctx, &mut *run.stream(2), 30, hooks).unwrap();
        assert_eq!(
            hooked.counts,
            plain.unwrap().counts,
            "hooks must not change counts"
        );
        assert_eq!(progressed.load(Ordering::Relaxed), 30);
    }

    #[test]
    fn panicking_progress_hook_surfaces_typed_error_not_panic() {
        let opts = PmaxtOptions::default().permutations(40);
        let (run, prepared) = pinned(&opts, 2, 7);
        let ctx = run.context(&prepared);
        let hooks = ChunkHooks {
            cancel: None,
            progress: Some(&|_| panic!("hook bug")),
        };
        // Silence the default panic hook's backtrace spam for the expected
        // per-worker panics; restore it before asserting.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcome = run.chunk(&ctx, &mut *run.stream(0), 30, hooks);
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
        let opts = PmaxtOptions::default().permutations(40);
        let (run, prepared) = pinned(&opts, 1, 32);
        let ctx = run.context(&prepared);
        let cancel = AtomicBool::new(true);
        let hooks = ChunkHooks {
            cancel: Some(&cancel),
            progress: None,
        };
        let err = run
            .chunk(&ctx, &mut *run.stream(0), run.b, hooks)
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
