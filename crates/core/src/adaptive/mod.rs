//! Adaptive permutation budgets: sequential early stopping with
//! anytime-valid bounds, plus a generalized-Pareto tail approximation for
//! the smallest p-values.
//!
//! Exact mode spends `G × B` gene-permutations regardless of what the data
//! says. But most genes in a typical experiment are null — a few hundred
//! permutations certify them non-significant — while only the extreme tail
//! benefits from (or needs more than) the full budget. This subsystem makes
//! that trade explicit and *safe*:
//!
//! - [`confseq`] — the decision layer. A Robbins confidence sequence gives
//!   anytime-valid per-gene bounds (peeking after every chunk never inflates
//!   the error rate), and a deterministic envelope `[k/B, (k + B − c)/B]`
//!   bounds each early-stopped gene's exact p-value *with certainty*.
//! - [`runner`] — [`AdaptiveRunner`] drives the exact engine's chunks over
//!   one stream it keeps: full-gene chunks until the first deactivation
//!   (the **exact-prefix watermark**, a bitwise-valid exact checkpoint that
//!   jobd caches so adaptive runs can later be upgraded to exact), then
//!   masked chunks over the shrinking live gene set.
//! - [`tail`] — a moment-matched GPD fit over the score tail of the most
//!   significant genes, with fit diagnostics (threshold, shape/scale,
//!   Anderson–Darling-style goodness flag), pushing p-value resolution
//!   below the `1/B` floor of the empirical estimate.
//!
//! Adaptive results are *not* exact results: `options_digest` carries a
//! `mode=adaptive` marker (exactly as `precision=f32` marks reduced
//! precision) and every surface that contracts bitwise reproducibility —
//! checkpoint resume, jobd span execution — refuses the mode. The
//! permutation *stream*, however, is identical, so `stream_digest` does not
//! move: an adaptive job and an exact job share one cache address, and
//! upgrading adaptive → exact is a plain extension of the cached prefix.

pub mod confseq;
pub mod runner;
pub mod tail;

pub use confseq::{cs_lower_bound, cs_upper_bound, envelope};
pub use runner::AdaptiveRunner;
pub use tail::TailFit;

use crate::admit::{admit, Entry, Run};
use crate::error::Result;
use crate::matrix::Matrix;
use crate::maxt::engine::ChunkHooks;
use crate::maxt::{CountAccumulator, MaxTResult};
use crate::options::PmaxtOptions;

/// Tuning knobs of the adaptive runner. The defaults are conservative: stop
/// a gene only when it is certifiably non-significant at any practical
/// level, and never before a minimum evidence floor.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Error rate of the anytime-valid confidence sequence driving the stop
    /// decisions (the chance that *any* stopped gene's CS failed to cover
    /// its true p-value at the moment it stopped).
    pub alpha: f64,
    /// Deactivate a gene once the CS lower bound on its raw p-value exceeds
    /// this. Raw p above it implies adjusted p above it (step-down only
    /// increases p-values), so 0.1 certifies non-significance at every
    /// conventional level.
    pub threshold: f64,
    /// Permutations between deactivation sweeps; `0` selects
    /// `max(128, B/64)`.
    pub check_every: u64,
    /// Evidence floor: no gene stops before this many scored permutations.
    pub min_perms: u64,
    /// How many of the most significant genes get a GPD tail fit.
    pub tail_top: usize,
    /// Permutations scored by the tail pass (capped at `B`).
    pub tail_m: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            alpha: 0.05,
            threshold: 0.1,
            check_every: 0,
            min_perms: 64,
            tail_top: 16,
            tail_m: 2_000,
        }
    }
}

/// Per-gene and whole-run diagnostics of an adaptive run — the fields the
/// service surfaces in `status`/`result` and the bench table aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveReport {
    /// Resolved total permutation count of the run.
    pub b: u64,
    /// Per-gene scored-prefix length (`b` for genes that ran to completion).
    pub scored: Vec<u64>,
    /// Per-gene raw exceedance count over the scored prefix.
    pub counts: Vec<u64>,
    /// Per-gene deactivation cursor; `None` = never deactivated.
    pub stopped_at: Vec<Option<u64>>,
    /// Deterministic lower bound on the exact-mode raw p-value (`NaN` for
    /// non-computable genes).
    pub p_lower: Vec<f64>,
    /// Deterministic upper bound (collapses onto `p_lower` for genes that
    /// ran to completion).
    pub p_upper: Vec<f64>,
    /// Point estimate `count / scored` — the minimum-variance estimate from
    /// the permutations actually paid for.
    pub p_point: Vec<f64>,
    /// GPD tail fit per gene (`Some` only for tail-fitted genes).
    pub tail: Vec<Option<TailFit>>,
    /// Gene-permutations actually scored (main run + tail pass).
    pub gene_perms_scored: u64,
    /// Gene-permutations an exact run would score (`genes × B`).
    pub gene_perms_exact: u64,
    /// Cursor of the exact-prefix watermark: full-gene counts up to here
    /// form a bitwise-valid exact checkpoint.
    pub watermark: u64,
    /// Whether the mass-deactivation note fired (>90% of eligible genes
    /// stopped before 10% of `B`).
    pub mass_deactivation: bool,
}

impl AdaptiveReport {
    /// Fraction of exact mode's gene-permutations this run scored.
    pub fn budget_fraction(&self) -> f64 {
        self.gene_perms_scored as f64 / self.gene_perms_exact as f64
    }

    /// Number of genes deactivated before the run's end.
    pub fn genes_stopped(&self) -> usize {
        self.stopped_at.iter().filter(|s| s.is_some()).count()
    }
}

/// Everything an adaptive run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveOutcome {
    /// Full-gene maxT result finalized from the exact-prefix watermark — a
    /// valid (smaller-`B`) Monte-Carlo estimate of raw *and* step-down
    /// adjusted p-values; `b_used` is the watermark cursor. Sharper per-gene
    /// raw estimates and bounds live in [`AdaptiveOutcome::report`].
    pub result: MaxTResult,
    /// Per-gene diagnostics.
    pub report: AdaptiveReport,
    /// The exact-prefix accumulator (`n_perm` = `report.watermark`) — what a
    /// checkpoint of an exact run at that cursor would contain. jobd stores
    /// it under the shared cache address to seed upgrades to exact.
    pub watermark: CountAccumulator,
}

/// Run a full adaptive permutation test — the adaptive sibling of
/// [`mt_maxt`](crate::maxt::serial::mt_maxt).
///
/// ```
/// use sprint_core::adaptive::{adaptive_maxt, AdaptiveConfig};
/// use sprint_core::matrix::Matrix;
/// use sprint_core::options::PmaxtOptions;
///
/// // 30 null genes: almost all deactivate long before B.
/// let cols = 10;
/// let data: Vec<f64> = (0..30 * cols)
///     .map(|i| ((i * 37 % 101) as f64).sin())
///     .collect();
/// let data = Matrix::from_vec(30, cols, data).unwrap();
/// let labels = vec![0, 0, 0, 0, 0, 1, 1, 1, 1, 1];
/// let opts = PmaxtOptions::default().permutations(4000);
/// let out = adaptive_maxt(&data, &labels, &opts, &AdaptiveConfig::default()).unwrap();
/// assert!(out.report.budget_fraction() < 1.0);
/// ```
pub fn adaptive_maxt(
    data: &Matrix,
    classlabel: &[u8],
    opts: &PmaxtOptions,
    config: &AdaptiveConfig,
) -> Result<AdaptiveOutcome> {
    let adm = admit(data, classlabel, opts, Entry::Adaptive)?;
    adaptive_maxt_on(&adm.run, &adm.data, config)
}

/// [`adaptive_maxt`] for a run admitted at its entry, over its NA-canonical
/// matrix.
pub fn adaptive_maxt_on(
    run: &Run,
    data: &Matrix,
    config: &AdaptiveConfig,
) -> Result<AdaptiveOutcome> {
    let prepared = run.prepare(data);
    let ctx = run.context(&prepared);
    AdaptiveRunner::new(run, &ctx, &prepared, config.clone()).run(ChunkHooks::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxt::engine::{self, EngineConfig};
    use crate::maxt::serial::{mt_maxt, prepare_run};
    use crate::maxt::MaxTContext;
    use crate::options::TestMethod;

    fn null_data(genes: usize, cols: usize, shift: f64) -> (Matrix, Vec<u8>) {
        let mut v = Vec::with_capacity(genes * cols);
        for g in 0..genes {
            for c in 0..cols {
                v.push(((g * 31 + c * 17) as f64 + shift).sin() * 3.0);
            }
        }
        let labels = (0..cols).map(|c| (c >= cols / 2) as u8).collect();
        (Matrix::from_vec(genes, cols, v).unwrap(), labels)
    }

    fn mixed_data() -> (Matrix, Vec<u8>) {
        // 12 genes, 10 samples; genes 0 and 1 carry strong signal.
        let (m, labels) = null_data(12, 10, 0.5);
        let mut v = m.into_vec();
        for c in 5..10 {
            v[c] += 30.0; // gene 0
            v[10 + c] += 18.0; // gene 1
        }
        (Matrix::from_vec(12, 10, v).unwrap(), labels)
    }

    #[test]
    fn envelope_contains_the_exact_p_value() {
        let (data, labels) = mixed_data();
        let opts = PmaxtOptions::default().permutations(2000);
        let exact = mt_maxt(&data, &labels, &opts).unwrap();
        let cfg = AdaptiveConfig {
            check_every: 100,
            min_perms: 50,
            ..AdaptiveConfig::default()
        };
        let out = adaptive_maxt(&data, &labels, &opts, &cfg).unwrap();
        assert!(out.report.genes_stopped() > 0, "null genes should stop");
        for g in 0..12 {
            if exact.rawp[g].is_nan() {
                assert!(out.report.p_lower[g].is_nan());
                continue;
            }
            assert!(
                out.report.p_lower[g] <= exact.rawp[g] + 1e-12
                    && exact.rawp[g] <= out.report.p_upper[g] + 1e-12,
                "gene {g}: exact {} outside [{}, {}]",
                exact.rawp[g],
                out.report.p_lower[g],
                out.report.p_upper[g]
            );
        }
        // Genes that ran to completion have collapsed bounds equal to exact.
        for g in 0..12 {
            if out.report.stopped_at[g].is_none() && !exact.rawp[g].is_nan() {
                assert_eq!(out.report.scored[g], 2000);
                assert!((out.report.p_lower[g] - exact.rawp[g]).abs() < 1e-12);
                assert!((out.report.p_upper[g] - exact.rawp[g]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn unreachable_threshold_degenerates_to_exact() {
        let (data, labels) = mixed_data();
        let opts = PmaxtOptions::default().permutations(400);
        let cfg = AdaptiveConfig {
            threshold: 2.0, // CS lower bound never exceeds 1
            ..AdaptiveConfig::default()
        };
        let out = adaptive_maxt(&data, &labels, &opts, &cfg).unwrap();
        let exact = mt_maxt(&data, &labels, &opts).unwrap();
        assert_eq!(out.result, exact, "no deactivation ⇒ bitwise-exact result");
        assert_eq!(out.report.watermark, 400);
        assert!(out.report.stopped_at.iter().all(|s| s.is_none()));
    }

    #[test]
    fn null_data_saves_most_of_the_budget() {
        let (data, labels) = null_data(24, 10, 2.0);
        let opts = PmaxtOptions::default().permutations(8000);
        let out = adaptive_maxt(&data, &labels, &opts, &AdaptiveConfig::default()).unwrap();
        assert!(
            out.report.budget_fraction() < 0.25,
            "null data scored {:.1}% of the exact budget",
            100.0 * out.report.budget_fraction()
        );
        assert!(out.report.genes_stopped() >= 20);
        // The satellite diagnostic: nearly everything stopped early.
        assert!(out.report.mass_deactivation);
    }

    #[test]
    fn watermark_is_a_bitwise_exact_prefix() {
        let (data, labels) = mixed_data();
        let opts = PmaxtOptions::default().permutations(1500);
        let cfg = AdaptiveConfig {
            check_every: 128,
            ..AdaptiveConfig::default()
        };
        let out = adaptive_maxt(&data, &labels, &opts, &cfg).unwrap();
        let wm = out.report.watermark;
        assert!(wm > 0 && wm <= 1500);
        // Recompute the same prefix through the exact engine: byte-identical.
        let (lab, b, prepared) = prepare_run(&data, &labels, &opts).unwrap();
        let ctx = MaxTContext::with_scorer(
            &prepared,
            &lab,
            opts.test,
            opts.side,
            opts.kernel,
            opts.precision,
        );
        let run =
            engine::accumulate_chunk(&ctx, &lab, &opts, b, 0, wm, EngineConfig::serial()).unwrap();
        assert_eq!(run.counts, out.watermark);
    }

    #[test]
    fn resume_from_prefix_reuses_paid_work() {
        let (data, labels) = mixed_data();
        let opts = PmaxtOptions::default().permutations(1000);
        let serial = Entry::MaxT {
            engine: Some(EngineConfig::serial()),
        };
        let adm = admit(&data, &labels, &opts, serial).unwrap();
        let prepared = adm.run.prepare(&adm.data);
        let ctx = adm.run.context(&prepared);
        let mut stream = adm.run.stream(0);
        let prefix = adm
            .run
            .chunk(&ctx, &mut *stream, 300, ChunkHooks::default());
        let prefix = prefix.unwrap();
        let cfg = AdaptiveConfig {
            tail_top: 0,
            ..AdaptiveConfig::default()
        };
        let mut runner = AdaptiveRunner::new(&adm.run, &ctx, &prepared, cfg);
        runner.resume_from(&prefix.counts);
        let out = runner.run(ChunkHooks::default()).unwrap();
        // The prefix was free; only the remainder counts against the budget.
        assert!(out.report.gene_perms_scored <= 12 * 700);
        assert!(out.report.watermark >= 300);
        // Bounds still contain the exact p-values.
        let exact = mt_maxt(&data, &labels, &opts).unwrap();
        for g in 0..12 {
            if !exact.rawp[g].is_nan() {
                assert!(out.report.p_lower[g] <= exact.rawp[g] + 1e-12);
                assert!(exact.rawp[g] <= out.report.p_upper[g] + 1e-12);
            }
        }
    }

    #[test]
    fn non_computable_genes_report_nan_and_do_not_block() {
        let (data, labels) = null_data(6, 10, 3.0);
        let mut v = data.into_vec();
        for c in 0..10 {
            v[2 * 10 + c] = 7.0; // constant row → NaN statistic
        }
        let data = Matrix::from_vec(6, 10, v).unwrap();
        let opts = PmaxtOptions::default().permutations(3000);
        let out = adaptive_maxt(&data, &labels, &opts, &AdaptiveConfig::default()).unwrap();
        assert!(out.report.p_lower[2].is_nan());
        assert!(out.report.p_point[2].is_nan());
        assert!(out.result.rawp[2].is_nan());
        assert!(out.report.genes_stopped() >= 4, "null genes still stop");
    }

    #[test]
    fn strong_signal_gets_a_tail_fit_with_sub_resolution_p() {
        let (data, labels) = mixed_data();
        let opts = PmaxtOptions::default().permutations(3000);
        let cfg = AdaptiveConfig {
            tail_m: 1500,
            ..AdaptiveConfig::default()
        };
        let out = adaptive_maxt(&data, &labels, &opts, &cfg).unwrap();
        // Gene 0's observed statistic is extreme: a tail fit should exist
        // for at least one of the planted genes.
        let fitted: Vec<usize> = (0..12).filter(|&g| out.report.tail[g].is_some()).collect();
        assert!(!fitted.is_empty(), "no gene got a tail fit");
        for &g in &fitted {
            let fit = out.report.tail[g].as_ref().unwrap();
            assert!(fit.scale > 0.0);
            assert!(fit.exceedances >= 8);
            assert!(fit.p_tail > 0.0 && fit.p_tail <= 1.0);
        }
    }

    #[test]
    fn works_across_methods_and_stored_sampling() {
        let (data, labels) = mixed_data();
        for opts in [
            PmaxtOptions::default()
                .permutations(600)
                .test(TestMethod::Wilcoxon),
            PmaxtOptions::default()
                .permutations(600)
                .fixed_seed_sampling("n")
                .unwrap(),
        ] {
            let exact = mt_maxt(&data, &labels, &opts).unwrap();
            let out = adaptive_maxt(&data, &labels, &opts, &AdaptiveConfig::default()).unwrap();
            for g in 0..12 {
                if !exact.rawp[g].is_nan() {
                    assert!(out.report.p_lower[g] <= exact.rawp[g] + 1e-12);
                    assert!(exact.rawp[g] <= out.report.p_upper[g] + 1e-12);
                }
            }
        }
    }
}
