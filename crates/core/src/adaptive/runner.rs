//! The adaptive execution loop: batch-synchronous gene deactivation layered
//! over the exact engine.
//!
//! The runner alternates engine chunks with deactivation sweeps:
//!
//! 1. **Exact-prefix phase** — while no gene has been deactivated, chunks run
//!    through the *full* [`MaxTContext`], so the accumulated counts are a
//!    bitwise-valid prefix of an exact run (raw and step-down adjusted counts
//!    for every gene). The last such accumulator is the **watermark**: it is
//!    exactly what a checkpoint of an exact run at that cursor would hold,
//!    which is what lets jobd cache it and later *upgrade* the adaptive job
//!    to exact by extending `B` through the incremental machinery.
//! 2. **Masked phase** — once any gene stops, subsequent chunks score only
//!    the *live* genes through a sub-matrix context. The permutation stream
//!    is a pure function of `(labels, options, b)` — gene-independent — so
//!    the per-live-gene raw counts are bit-for-bit the contributions an
//!    exact run would have added over the same spans, and the deterministic
//!    envelope `[k/B, (k + B − c)/B]` on each gene's exact p-value holds
//!    with certainty (see [`super::confseq`]).
//!
//! Deactivation decisions use the anytime-valid confidence sequence: a gene
//! stops once the CS lower bound on its raw p-value clears
//! [`AdaptiveConfig::threshold`] — it is then *certifiably* non-significant
//! at any practical level (raw p > threshold implies adjusted p > threshold;
//! step-down adjustment only increases p-values).

use crate::admit::Run;
use crate::error::Result;
use crate::matrix::Matrix;
use crate::maxt::engine::ChunkHooks;
use crate::maxt::{CountAccumulator, MaxTContext};
use crate::perm::ResamplingStream;

use super::confseq::{cs_lower_bound, envelope};
use super::tail::tail_pass;
use super::{AdaptiveConfig, AdaptiveOutcome, AdaptiveReport};

/// Extract the rows `genes` of `prepared` into an owned sub-matrix, in the
/// given order. Statistics are per-row functions of the data and labels, so
/// scoring a sub-matrix row is bitwise-identical to scoring the same row in
/// the full matrix.
pub(crate) fn sub_matrix(prepared: &Matrix, genes: &[usize]) -> Matrix {
    let cols = prepared.cols();
    let mut v = Vec::with_capacity(genes.len() * cols);
    for &g in genes {
        v.extend_from_slice(prepared.row(g));
    }
    Matrix::from_vec(genes.len(), cols, v).expect("non-empty gene subset")
}

/// Drives one adaptive run over borrowed, already-prepared inputs.
///
/// Construction mirrors the exact drivers: callers admit the run
/// ([`crate::admit`]), prepare its matrix and build the full [`MaxTContext`]
/// through the [`Run`], then hand all three here. [`AdaptiveRunner::resume_from`]
/// seeds the runner with a cached exact prefix (the jobd cache's
/// `Partial` state) so an adaptive job re-uses whatever exact work any
/// earlier job — adaptive or exact — already paid for.
pub struct AdaptiveRunner<'a> {
    run: &'a Run,
    ctx: &'a MaxTContext<'a>,
    prepared: &'a Matrix,
    config: AdaptiveConfig,
    cursor: u64,
    /// The run's stream, at `cursor`: full and masked chunks draw from it in
    /// turn, since the draws do not depend on the genes.
    stream: Box<dyn ResamplingStream>,
    /// Per-gene: still being scored? Non-computable genes start inactive.
    active: Vec<bool>,
    /// Per-gene permutations scored (prefix length covered by `counts`).
    scored: Vec<u64>,
    /// Per-gene raw exceedance count over the scored prefix.
    counts: Vec<u64>,
    /// Per-gene deactivation cursor (None = ran to completion).
    stopped_at: Vec<Option<u64>>,
    /// Full-gene accumulator — grows only during the exact-prefix phase.
    full_acc: CountAccumulator,
    /// Frozen exact-prefix accumulator once the first gene deactivates.
    watermark: Option<CountAccumulator>,
    /// Genes eligible for deactivation (computable observed statistic).
    candidates: usize,
    stopped: usize,
    gene_perms: u64,
    mass_deactivation: bool,
}

impl<'a> AdaptiveRunner<'a> {
    /// Borrow the run inputs: `ctx` must be the run's context over
    /// `prepared`, the run's prepared matrix.
    pub fn new(
        run: &'a Run,
        ctx: &'a MaxTContext<'a>,
        prepared: &'a Matrix,
        config: AdaptiveConfig,
    ) -> Self {
        let genes = ctx.genes();
        let active: Vec<bool> = ctx
            .observed_scores()
            .iter()
            .map(|&s| s > f64::NEG_INFINITY)
            .collect();
        let candidates = active.iter().filter(|&&a| a).count();
        AdaptiveRunner {
            run,
            ctx,
            prepared,
            config,
            cursor: 0,
            stream: run.stream(0),
            active,
            scored: vec![0; genes],
            counts: vec![0; genes],
            stopped_at: vec![None; genes],
            full_acc: CountAccumulator::new(genes),
            watermark: None,
            candidates,
            stopped: 0,
            gene_perms: 0,
            mass_deactivation: false,
        }
    }

    /// Seed the runner with a cached full-gene exact prefix (counts over
    /// permutations `[0, counts.n_perm)` of the same stream). The prefix was
    /// already paid for, so it does not count against this run's scored
    /// gene-permutation budget.
    pub fn resume_from(&mut self, counts: &CountAccumulator) {
        assert_eq!(counts.genes(), self.ctx.genes(), "prefix gene count");
        assert!(counts.n_perm <= self.run.b, "prefix longer than the run");
        assert_eq!(self.cursor, 0, "resume before running");
        self.cursor = counts.n_perm;
        self.stream.skip(counts.n_perm);
        self.full_acc = counts.clone();
        for g in 0..self.ctx.genes() {
            self.scored[g] = counts.n_perm;
            self.counts[g] = counts.count_raw[g];
        }
    }

    /// Chunk length between deactivation sweeps.
    fn chunk_len(&self) -> u64 {
        if self.config.check_every > 0 {
            self.config.check_every
        } else {
            (self.run.b / 64).max(128)
        }
    }

    /// One deactivation sweep at the current cursor.
    fn sweep(&mut self) {
        if self.cursor < self.config.min_perms {
            return;
        }
        for g in 0..self.ctx.genes() {
            if !self.active[g] {
                continue;
            }
            let lo = cs_lower_bound(self.counts[g], self.scored[g], self.config.alpha);
            if lo > self.config.threshold {
                self.active[g] = false;
                self.stopped_at[g] = Some(self.cursor);
                self.stopped += 1;
            }
        }
        // Mass-deactivation note (once per run): >90% of the eligible genes
        // gone before 10% of the budget usually means the dataset is mostly
        // null and the interesting signal lives in the per-gene diagnostics.
        if !self.mass_deactivation
            && self.candidates > 0
            && 10 * self.stopped > 9 * self.candidates
            && 10 * self.cursor < self.run.b
        {
            self.mass_deactivation = true;
            eprintln!(
                "note: adaptive mode deactivated {}/{} genes within the first {} of {} \
                 permutations; per-gene diagnostics are in the adaptive report \
                 (stopped_at, p_lower/p_upper bounds, tail_fitted)",
                self.stopped, self.candidates, self.cursor, self.run.b
            );
        }
    }

    /// Run to completion and assemble the outcome. `hooks` carries the same
    /// cooperative cancel/progress contract as the exact engine
    /// ([`ChunkHooks`]); progress reports permutation-stream advance.
    pub fn run(mut self, hooks: ChunkHooks<'_>) -> Result<AdaptiveOutcome> {
        // A resumed prefix may already justify deactivations.
        if self.cursor > 0 {
            self.sweep();
            if self.stopped > 0 {
                self.watermark = Some(self.full_acc.clone());
            }
        }
        loop {
            if self.cursor >= self.run.b {
                break;
            }
            let live: Vec<usize> = (0..self.ctx.genes()).filter(|&g| self.active[g]).collect();
            if live.is_empty() && self.full_acc.n_perm > 0 {
                // Every gene resolved; the rest of the stream stays unscored.
                break;
            }
            let take = self.chunk_len().min(self.run.b - self.cursor);
            if self.watermark.is_none() {
                // Exact-prefix phase: full-gene counts, including the
                // step-down adjusted counts — a valid exact checkpoint.
                let run = self.run.chunk(self.ctx, &mut *self.stream, take, hooks)?;
                self.full_acc.merge(&run.counts);
                self.gene_perms += self.ctx.genes() as u64 * take;
                for g in 0..self.ctx.genes() {
                    self.counts[g] = self.full_acc.count_raw[g];
                    self.scored[g] += take;
                }
                self.cursor += take;
                self.sweep();
                if self.stopped > 0 {
                    self.watermark = Some(self.full_acc.clone());
                }
            } else {
                // Masked phase: only live rows are scored. The sub-context
                // recomputes the same per-gene observed scores (statistics
                // are per-row), and the generator stream is gene-independent,
                // so each live gene's raw count advances exactly as it would
                // in an exact run. The sub-context's adjusted counts are
                // step-down maxima over a subset and are discarded.
                let sub = sub_matrix(self.prepared, &live);
                let sub_ctx = self.run.context(&sub);
                let run = self.run.chunk(&sub_ctx, &mut *self.stream, take, hooks)?;
                self.gene_perms += live.len() as u64 * take;
                for (j, &g) in live.iter().enumerate() {
                    self.counts[g] += run.counts.count_raw[j];
                    self.scored[g] += take;
                }
                self.cursor += take;
                self.sweep();
            }
        }
        self.finish()
    }

    fn finish(mut self) -> Result<AdaptiveOutcome> {
        let genes = self.ctx.genes();
        // No deactivation ever happened: the full accumulator covers the
        // whole run and the result is bitwise-exact.
        let watermark = self
            .watermark
            .take()
            .unwrap_or_else(|| self.full_acc.clone());
        let result = self.ctx.finalize(&watermark);
        let (tail_fits, tail_perms) = tail_pass(self.run, self.prepared, self.ctx, &self.config);
        self.gene_perms += tail_perms;
        let mut tail: Vec<Option<super::TailFit>> = vec![None; genes];
        for (g, fit) in tail_fits {
            tail[g] = Some(fit);
        }
        let mut p_lower = vec![f64::NAN; genes];
        let mut p_upper = vec![f64::NAN; genes];
        let mut p_point = vec![f64::NAN; genes];
        for g in 0..genes {
            if self.ctx.observed_scores()[g] > f64::NEG_INFINITY && self.scored[g] > 0 {
                let (lo, hi) = envelope(self.counts[g], self.scored[g], self.run.b);
                p_lower[g] = lo;
                p_upper[g] = hi;
                p_point[g] = self.counts[g] as f64 / self.scored[g] as f64;
            }
        }
        let report = AdaptiveReport {
            b: self.run.b,
            scored: self.scored,
            counts: self.counts,
            stopped_at: self.stopped_at,
            p_lower,
            p_upper,
            p_point,
            tail,
            gene_perms_scored: self.gene_perms,
            gene_perms_exact: genes as u64 * self.run.b,
            watermark: watermark.n_perm,
            mass_deactivation: self.mass_deactivation,
        };
        Ok(AdaptiveOutcome {
            result,
            report,
            watermark,
        })
    }
}
