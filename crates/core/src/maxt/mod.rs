//! Westfall–Young step-down maxT adjusted p-values (Ge, Dudoit & Speed 2003;
//! Westfall & Young 1993) — the computational core shared by the serial
//! reference (`mt_maxt`) and the parallel driver (`pmaxt`).
//!
//! For each permutation *b* the kernel computes every gene's statistic,
//! transforms it into an extremeness score (see [`crate::side::Side`]), forms
//! the successive maxima over the significance-ordered genes from the least
//! extreme upwards, and counts exceedances of the observed scores. The
//! identity labelling is permutation index 0 and counts exactly once, so
//! p-values are never zero (they live in `[1/B, 1]`).

pub mod counts;
pub mod engine;
pub mod minp;
pub mod result;
pub mod sample;
pub mod serial;

pub use counts::CountAccumulator;
pub use engine::{maxt_with_config, EngineConfig};
pub use result::{MaxTResult, MaxTRow};

use crate::labels::ClassLabels;
use crate::matrix::Matrix;
use crate::options::{KernelChoice, Precision, TestMethod};
use crate::perm::ResamplingStream;
use crate::side::Side;
use crate::stats::scorer::{build_scorer, Scorer, Statistic};
use crate::stats::soa::Isa;

/// Comparison slack absorbing floating-point noise between the observed and
/// permuted statistics, as in the `multtest` C implementation.
pub const EPSILON: f64 = 1e-10;

/// Stable significance ordering: gene indices by decreasing score, ties by
/// index, non-computable (−∞) scores last.
pub fn significance_order(scores: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .expect("scores contain no NaN (mapped to -inf)")
    });
    order
}

/// Per-run state binding the prepared data, statistic, side and observed
/// scores. Both the serial loop and each parallel rank construct one; because
/// construction is deterministic, every rank derives the identical gene
/// ordering, which the count reduction relies on.
#[derive(Debug)]
pub struct MaxTContext<'a> {
    /// The run's statistic evaluator: the method's fast sufficient-statistic
    /// scorer, or the reference scalar scorer under a debug override.
    scorer: Box<dyn Scorer + 'a>,
    side: Side,
    genes: usize,
    cols: usize,
    /// Observed statistic per gene (original order).
    obs_stats: Vec<f64>,
    /// Observed extremeness score per gene (original order).
    obs_scores: Vec<f64>,
    /// Significance ordering.
    order: Vec<usize>,
    /// Observed scores in `order` order.
    obs_scores_ordered: Vec<f64>,
    /// Single-step max-statistic counting (`test = "tmax"`, per PERMUTOOLS):
    /// every gene's adjusted count compares against the *global* per-
    /// permutation maximum instead of the step-down successive maxima.
    single_step: bool,
    /// The ISA the batched count pass runs under: the host's.
    count_isa: Isa,
}

impl<'a> MaxTContext<'a> {
    /// Build from a **prepared** matrix (see [`crate::stats::prepare_matrix`])
    /// and validated labels, with automatic scorer selection.
    pub fn new(data: &'a Matrix, labels: &ClassLabels, method: TestMethod, side: Side) -> Self {
        Self::with_scorer(
            data,
            labels,
            method,
            side,
            KernelChoice::Auto,
            Precision::F64,
        )
    }

    /// Build with an explicit scorer choice. `Auto` and `Fast` select the
    /// method's fast sufficient-statistic scorer; `Scalar` forces the
    /// reference per-column scorer (the equivalence-testing override).
    /// `precision` selects the fast path's accumulation element (`f64` is
    /// the bitwise-reproducible default). The `SPRINT_KERNEL` and
    /// `SPRINT_PRECISION` environment variables, when set to valid choices,
    /// take precedence over the arguments. For the bootstrap's statistic
    /// the observed draw is the identity, so the observed statistics are θ̂.
    pub fn with_scorer(
        data: &'a Matrix,
        labels: &ClassLabels,
        stat: impl Into<Statistic>,
        side: Side,
        choice: KernelChoice,
        precision: Precision,
    ) -> Self {
        let stat = stat.into();
        let scorer = build_scorer(data, labels, stat, choice, precision);
        let genes = data.rows();
        // Observed statistics go through the same scorer as the permuted
        // ones so the identity permutation always counts exactly once,
        // whichever scorer is active.
        let observed: Vec<u8> = match stat {
            Statistic::Test(_) => labels.as_slice().to_vec(),
            Statistic::BootMeanDiff => (0..data.cols()).map(|c| c as u8).collect(),
        };
        let mut obs_stats = vec![f64::NAN; genes];
        let mut scratch = scorer.make_scratch();
        scorer.stats_into(&observed, &mut scratch, &mut obs_stats);
        let obs_scores: Vec<f64> = obs_stats.iter().map(|&s| side.score(s)).collect();
        let order = significance_order(&obs_scores);
        let obs_scores_ordered = order.iter().map(|&g| obs_scores[g]).collect();
        MaxTContext {
            scorer,
            side,
            genes,
            cols: data.cols(),
            obs_stats,
            obs_scores,
            order,
            obs_scores_ordered,
            single_step: matches!(stat, Statistic::Test(m) if m.single_step_max()),
            count_isa: Isa::host(),
        }
    }

    /// Whether adjusted counts use the single-step global max (`tmax`)
    /// instead of the Westfall–Young step-down successive maxima.
    pub fn single_step(&self) -> bool {
        self.single_step
    }

    /// Whether a fast sufficient-statistic scorer is active for this run.
    pub fn uses_fast_scorer(&self) -> bool {
        self.scorer.path() != "scalar"
    }

    /// The active scorer's path name (`"scalar"`, `"two-sample"`, …).
    pub fn scorer_path(&self) -> &'static str {
        self.scorer.path()
    }

    /// The significance ordering (most extreme first).
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Observed statistics in original gene order.
    pub fn observed_stats(&self) -> &[f64] {
        &self.obs_stats
    }

    /// Observed extremeness scores in original gene order.
    pub fn observed_scores(&self) -> &[f64] {
        &self.obs_scores
    }

    /// Number of genes.
    pub fn genes(&self) -> usize {
        self.genes
    }

    /// Consume up to `take` permutations from `gen`, accumulating exceedance
    /// counts into `acc`. Returns the number of permutations processed.
    ///
    /// This is the paper's "main kernel" section.
    pub fn accumulate(
        &self,
        gen: &mut dyn ResamplingStream,
        take: u64,
        acc: &mut CountAccumulator,
    ) -> u64 {
        assert_eq!(acc.genes(), self.genes(), "accumulator size mismatch");
        let genes = self.genes();
        let mut labels_buf = vec![0u8; self.cols];
        let mut scratch = self.scorer.make_scratch();
        let mut scores = vec![0.0f64; genes];
        let mut done = 0u64;
        while done < take {
            if !gen.next_into(&mut labels_buf) {
                break;
            }
            // Statistics for every gene under this labelling through the
            // run's scorer, then scores in place.
            self.scorer
                .stats_into(&labels_buf, &mut scratch, &mut scores);
            for slot in scores.iter_mut() {
                *slot = self.side.score(*slot);
            }
            // Raw counts (original gene order).
            for (g, &score) in scores.iter().enumerate() {
                if score >= self.obs_scores[g] - EPSILON {
                    acc.count_raw[g] += 1;
                }
            }
            if self.single_step {
                // Single-step: one global max per permutation, compared
                // against every ordered observed score.
                let mut gmax = f64::NEG_INFINITY;
                for &s in scores.iter() {
                    if s > gmax {
                        gmax = s;
                    }
                }
                for i in 0..genes {
                    if gmax >= self.obs_scores_ordered[i] - EPSILON {
                        acc.count_adj[i] += 1;
                    }
                }
            } else {
                // Successive maxima from the least extreme ordered gene
                // upwards (Westfall–Young step-down).
                let mut running_max = f64::NEG_INFINITY;
                for i in (0..genes).rev() {
                    let s = scores[self.order[i]];
                    if s > running_max {
                        running_max = s;
                    }
                    if running_max >= self.obs_scores_ordered[i] - EPSILON {
                        acc.count_adj[i] += 1;
                    }
                }
            }
            acc.n_perm += 1;
            done += 1;
        }
        done
    }

    /// Turn reduced counts into p-values: divide by the permutation count and
    /// enforce step-down monotonicity; genes whose observed statistic was not
    /// computable get `NaN` p-values (the `mt.maxT` NA behaviour).
    pub fn finalize(&self, acc: &CountAccumulator) -> MaxTResult {
        self.finalize_in(acc, self.order.clone())
    }

    /// [`MaxTContext::finalize`] with the adjusted counts in `order`, a
    /// step-down order of this context's genes (minP's, by raw p-value).
    pub(crate) fn finalize_in(&self, acc: &CountAccumulator, order: Vec<usize>) -> MaxTResult {
        assert!(acc.n_perm > 0, "no permutations accumulated");
        let b = acc.n_perm as f64;
        let genes = self.genes();
        let mut rawp = vec![f64::NAN; genes];
        for (g, p) in rawp.iter_mut().enumerate() {
            if self.obs_scores[g] > f64::NEG_INFINITY {
                *p = acc.count_raw[g] as f64 / b;
            }
        }
        // Adjusted p-values in order, with monotonic step-down enforcement.
        let mut adj_ordered: Vec<f64> = acc.count_adj.iter().map(|&c| c as f64 / b).collect();
        for i in 1..genes {
            if adj_ordered[i] < adj_ordered[i - 1] {
                adj_ordered[i] = adj_ordered[i - 1];
            }
        }
        let mut adjp = vec![f64::NAN; genes];
        for (i, &g) in order.iter().enumerate() {
            if self.obs_scores[g] > f64::NEG_INFINITY {
                adjp[g] = adj_ordered[i];
            }
        }
        MaxTResult {
            teststat: self.obs_stats.clone(),
            rawp,
            adjp,
            order,
            b_used: acc.n_perm,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::PmaxtOptions;
    use crate::perm::{build_generator, resolve_permutation_count};
    use crate::stats::prepare_matrix;

    fn run_complete_two_sample(data: Vec<f64>, genes: usize) -> MaxTResult {
        let m = Matrix::from_vec(genes, 4, data).unwrap();
        let labels = ClassLabels::new(vec![0, 0, 1, 1], TestMethod::T).unwrap();
        let opts = PmaxtOptions::default().permutations(0);
        let b = resolve_permutation_count(&labels, &opts).unwrap();
        let prepared = prepare_matrix(&m, TestMethod::T, false);
        let ctx = MaxTContext::new(&prepared, &labels, TestMethod::T, Side::Abs);
        let mut gen = build_generator(&labels, &opts, b).unwrap();
        let mut acc = CountAccumulator::new(genes);
        let done = ctx.accumulate(&mut *gen, u64::MAX, &mut acc);
        assert_eq!(done, b);
        ctx.finalize(&acc)
    }

    #[test]
    fn exact_p_value_single_gene() {
        // Gene [1,2,3,4] with labels [0,0,1,1]: of the 6 complete splits,
        // exactly 2 achieve |t| = max (the observed split and its mirror), so
        // rawp = adjp = 2/6.
        let r = run_complete_two_sample(vec![1.0, 2.0, 3.0, 4.0], 1);
        assert_eq!(r.b_used, 6);
        assert!((r.rawp[0] - 2.0 / 6.0).abs() < 1e-12);
        assert!((r.adjp[0] - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn significance_order_sorts_descending_with_ties_stable() {
        let scores = [1.0, 3.0, f64::NEG_INFINITY, 3.0, 2.0];
        let order = significance_order(&scores);
        assert_eq!(order, vec![1, 3, 4, 0, 2]);
    }

    #[test]
    fn adjp_at_least_rawp_and_monotone() {
        // Two genes, one strongly differential, one noise.
        let r = run_complete_two_sample(vec![1.0, 2.0, 30.0, 40.0, 5.0, 1.0, 4.0, 2.0], 2);
        for g in 0..2 {
            assert!(
                r.adjp[g] >= r.rawp[g] - 1e-12,
                "adjp {} < rawp {}",
                r.adjp[g],
                r.rawp[g]
            );
        }
        // Monotone along the significance order.
        let rows: Vec<_> = r.by_significance().collect();
        for w in rows.windows(2) {
            assert!(w[1].adjp >= w[0].adjp - 1e-12);
        }
    }

    #[test]
    fn identity_permutation_guarantees_min_p() {
        // Every p-value is at least 1/B because the identity counts once.
        let r = run_complete_two_sample(vec![1.0, 2.0, 100.0, 101.0], 1);
        assert!(r.rawp[0] >= 1.0 / r.b_used as f64 - 1e-12);
        assert!(r.adjp[0] >= 1.0 / r.b_used as f64 - 1e-12);
    }

    #[test]
    fn non_computable_gene_gets_nan() {
        // Second gene is constant: t undefined -> NaN p-values, but the other
        // gene is unaffected.
        let r = run_complete_two_sample(vec![1.0, 2.0, 30.0, 40.0, 7.0, 7.0, 7.0, 7.0], 2);
        assert!(r.rawp[1].is_nan());
        assert!(r.adjp[1].is_nan());
        assert!(r.rawp[0].is_finite());
        // NaN gene sorts last.
        assert_eq!(r.order[1], 1);
    }

    #[test]
    fn accumulate_respects_take_limit() {
        let m = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let labels = ClassLabels::new(vec![0, 0, 1, 1], TestMethod::T).unwrap();
        let opts = PmaxtOptions::default().permutations(10);
        let prepared = prepare_matrix(&m, TestMethod::T, false);
        let ctx = MaxTContext::new(&prepared, &labels, TestMethod::T, Side::Abs);
        let mut gen = build_generator(&labels, &opts, 10).unwrap();
        let mut acc = CountAccumulator::new(1);
        assert_eq!(ctx.accumulate(&mut *gen, 4, &mut acc), 4);
        assert_eq!(acc.n_perm, 4);
        assert_eq!(ctx.accumulate(&mut *gen, 100, &mut acc), 6);
        assert_eq!(acc.n_perm, 10);
    }

    #[test]
    fn split_accumulation_equals_single_pass() {
        // Accumulating 0..B in one go must equal accumulating in chunks with
        // skip-ahead — the foundation of the parallel distribution.
        let m = Matrix::from_vec(
            2,
            6,
            vec![1.0, 5.0, 2.0, 6.0, 3.0, 7.0, 9.0, 1.0, 8.0, 2.0, 7.0, 3.0],
        )
        .unwrap();
        let labels = ClassLabels::new(vec![0, 1, 0, 1, 0, 1], TestMethod::T).unwrap();
        let opts = PmaxtOptions::default().permutations(25);
        let prepared = prepare_matrix(&m, TestMethod::T, false);
        let ctx = MaxTContext::new(&prepared, &labels, TestMethod::T, Side::Abs);

        let mut gen = build_generator(&labels, &opts, 25).unwrap();
        let mut whole = CountAccumulator::new(2);
        ctx.accumulate(&mut *gen, u64::MAX, &mut whole);

        let mut merged = CountAccumulator::new(2);
        let chunks = [(0u64, 7u64), (7, 10), (17, 8)];
        for (start, take) in chunks {
            let mut g = build_generator(&labels, &opts, 25).unwrap();
            g.skip(start);
            let mut part = CountAccumulator::new(2);
            ctx.accumulate(&mut *g, take, &mut part);
            merged.merge(&part);
        }
        assert_eq!(merged, whole);
        assert_eq!(ctx.finalize(&merged), ctx.finalize(&whole));
    }

    #[test]
    fn scorer_dispatch_follows_choice_and_method() {
        let m = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let labels = ClassLabels::new(vec![0, 0, 1, 1], TestMethod::T).unwrap();
        let auto = MaxTContext::with_scorer(
            &m,
            &labels,
            TestMethod::T,
            Side::Abs,
            KernelChoice::Auto,
            Precision::F64,
        );
        assert!(auto.uses_fast_scorer());
        assert_eq!(auto.scorer_path(), "two-sample");
        let scalar = MaxTContext::with_scorer(
            &m,
            &labels,
            TestMethod::T,
            Side::Abs,
            KernelChoice::Scalar,
            Precision::F64,
        );
        assert!(!scalar.uses_fast_scorer());
        assert_eq!(scalar.scorer_path(), "scalar");
        // Every method has a fast form now, paired t included.
        let p_labels = ClassLabels::new(vec![0, 1, 0, 1], TestMethod::PairT).unwrap();
        let pt = MaxTContext::with_scorer(
            &m,
            &p_labels,
            TestMethod::PairT,
            Side::Abs,
            KernelChoice::Fast,
            Precision::F64,
        );
        assert!(pt.uses_fast_scorer());
        assert_eq!(pt.scorer_path(), "pairt");
    }

    #[test]
    fn fast_and_scalar_scorers_produce_identical_counts() {
        // Mixed NA / NA-free rows: raw and adjusted exceedance counts must be
        // byte-identical between scorers for every method.
        let data = vec![
            1.0,
            5.0,
            2.0,
            6.0,
            3.0,
            7.0, // clean
            9.0,
            f64::NAN,
            8.0,
            2.0,
            7.0,
            3.0, // NA → scalar fallback row
            0.5,
            0.4,
            0.6,
            0.55,
            0.45,
            0.62, // clean, weak signal
        ];
        let m = Matrix::from_vec(3, 6, data).unwrap();
        for method in [
            TestMethod::T,
            TestMethod::TEqualVar,
            TestMethod::Wilcoxon,
            TestMethod::F,
            TestMethod::PairT,
            TestMethod::BlockF,
            TestMethod::Corr,
            TestMethod::TMax,
        ] {
            let raw = if method == TestMethod::F || method == TestMethod::Corr {
                vec![0, 0, 1, 1, 2, 2]
            } else {
                vec![0, 1, 0, 1, 0, 1]
            };
            let labels = ClassLabels::new(raw, method).unwrap();
            let opts = PmaxtOptions::default().permutations(64);
            let prepared = prepare_matrix(&m, method, false);
            for side in [Side::Abs, Side::Upper, Side::Lower] {
                let fast = MaxTContext::with_scorer(
                    &prepared,
                    &labels,
                    method,
                    side,
                    KernelChoice::Fast,
                    Precision::F64,
                );
                let scalar = MaxTContext::with_scorer(
                    &prepared,
                    &labels,
                    method,
                    side,
                    KernelChoice::Scalar,
                    Precision::F64,
                );
                assert!(fast.uses_fast_scorer());
                assert!(!scalar.uses_fast_scorer());
                let mut acc_f = CountAccumulator::new(3);
                let mut acc_s = CountAccumulator::new(3);
                let mut gen = build_generator(&labels, &opts, 64).unwrap();
                fast.accumulate(&mut *gen, u64::MAX, &mut acc_f);
                let mut gen = build_generator(&labels, &opts, 64).unwrap();
                scalar.accumulate(&mut *gen, u64::MAX, &mut acc_s);
                assert_eq!(acc_f, acc_s, "{method:?} {side:?}");
                // Non-computable genes carry NaN statistics and p-values, so
                // compare field-wise with NaN-aware equality. p-values derive
                // from the (identical) counts and must match exactly; the
                // statistics may ulp-drift on NA rows.
                let rf = fast.finalize(&acc_f);
                let rs = scalar.finalize(&acc_s);
                let same = |a: f64, b: f64, tol: f64| {
                    (a.is_nan() && b.is_nan()) || (a - b).abs() <= tol * b.abs().max(1.0)
                };
                assert_eq!(rf.order, rs.order, "{method:?} {side:?}");
                assert_eq!(rf.b_used, rs.b_used);
                for g in 0..3 {
                    assert!(
                        same(rf.rawp[g], rs.rawp[g], 0.0),
                        "{method:?} {side:?} rawp {g}"
                    );
                    assert!(
                        same(rf.adjp[g], rs.adjp[g], 0.0),
                        "{method:?} {side:?} adjp {g}"
                    );
                    assert!(
                        same(rf.teststat[g], rs.teststat[g], 1e-12),
                        "{method:?} {side:?} teststat {g}: {} vs {}",
                        rf.teststat[g],
                        rs.teststat[g]
                    );
                }
            }
        }
    }

    #[test]
    fn observed_stats_match_scalar_path() {
        let m = Matrix::from_vec(
            2,
            6,
            vec![1.0, 5.0, 2.0, 6.0, 3.0, 7.0, 9.0, 1.0, 8.0, 2.0, 7.0, 3.0],
        )
        .unwrap();
        let labels = ClassLabels::new(vec![0, 1, 0, 1, 0, 1], TestMethod::T).unwrap();
        let fast = MaxTContext::with_scorer(
            &m,
            &labels,
            TestMethod::T,
            Side::Abs,
            KernelChoice::Fast,
            Precision::F64,
        );
        let scalar = MaxTContext::with_scorer(
            &m,
            &labels,
            TestMethod::T,
            Side::Abs,
            KernelChoice::Scalar,
            Precision::F64,
        );
        for (a, b) in fast.observed_stats().iter().zip(scalar.observed_stats()) {
            assert!((a - b).abs() <= 1e-12 * b.abs().max(1.0));
        }
        assert_eq!(fast.order(), scalar.order());
    }

    #[test]
    fn tmax_single_step_dominates_step_down() {
        // Single-step adjusted p-values are >= the step-down ones gene by
        // gene (the global max dominates every successive max), and both use
        // the same per-gene Welch statistics.
        let m = Matrix::from_vec(
            3,
            6,
            vec![
                1.0, 5.0, 2.0, 6.0, 3.0, 7.0, 9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 0.5, 0.4, 0.6, 0.55,
                0.45, 0.62,
            ],
        )
        .unwrap();
        let run = |method: TestMethod| {
            let labels = ClassLabels::new(vec![0, 1, 0, 1, 0, 1], method).unwrap();
            let opts = PmaxtOptions::default().permutations(200);
            let prepared = prepare_matrix(&m, method, false);
            let ctx = MaxTContext::new(&prepared, &labels, method, Side::Abs);
            assert_eq!(ctx.single_step(), method == TestMethod::TMax);
            let mut gen = build_generator(&labels, &opts, 200).unwrap();
            let mut acc = CountAccumulator::new(3);
            ctx.accumulate(&mut *gen, u64::MAX, &mut acc);
            ctx.finalize(&acc)
        };
        let step_down = run(TestMethod::T);
        let single = run(TestMethod::TMax);
        assert_eq!(step_down.order, single.order);
        for g in 0..3 {
            assert_eq!(
                step_down.teststat[g].to_bits(),
                single.teststat[g].to_bits()
            );
            assert_eq!(step_down.rawp[g].to_bits(), single.rawp[g].to_bits());
            assert!(
                single.adjp[g] >= step_down.adjp[g] - 1e-12,
                "gene {g}: single-step {} < step-down {}",
                single.adjp[g],
                step_down.adjp[g]
            );
        }
        // The most significant gene agrees exactly: its successive max IS the
        // global max.
        let top = step_down.order[0];
        assert_eq!(step_down.adjp[top].to_bits(), single.adjp[top].to_bits());
    }

    #[test]
    #[should_panic(expected = "no permutations accumulated")]
    fn finalize_rejects_empty_accumulator() {
        let m = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let labels = ClassLabels::new(vec![0, 0, 1, 1], TestMethod::T).unwrap();
        let prepared = prepare_matrix(&m, TestMethod::T, false);
        let ctx = MaxTContext::new(&prepared, &labels, TestMethod::T, Side::Abs);
        let acc = CountAccumulator::new(1);
        let _ = ctx.finalize(&acc);
    }
}
