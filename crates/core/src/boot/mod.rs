//! The bootstrap workload (`workload = "bootstrap"`): case-resampling
//! confidence intervals for the per-gene two-group mean difference, built on
//! the same [`ResamplingStream`](crate::perm::ResamplingStream) seam as the
//! permutation workload.
//!
//! Each draw from the bootstrap stream is an index vector: slot `i` names
//! the source column resampled into position `i`, and columns keep their
//! class labels (case resampling). Replicate `j ∈ [1, B)` of gene `g` is the
//! group-mean difference over the drawn columns; the identity draw at index
//! 0 is the observed statistic θ̂. Per-replicate values depend only on
//! `(seed, j, data)` — never on how the genes were tiled, threaded or
//! sliced — so serial, multi-threaded and gene-sharded runs are bitwise
//! identical by construction, the same contract the permutation engine
//! offers.
//!
//! The driver is minP's second pass with another scorer and finalizer: the
//! engine scores a block of [`GENE_TILE`] genes under every draw
//! ([`Run::scores`] with the [`BootScorer`](crate::stats::scorer::BootScorer)),
//! the block's genes are finalized from their replicates over the engine's
//! threads, and the next block is scored. Each block draws its own stream
//! from draw 1, so no draw is kept. Per replicate the run holds
//! `GENE_TILE × 8 + workers × 16` bytes: the block's replicate, and per
//! finalizing worker the sorted row and the sort's scratch, never a
//! genes × B matrix. Admission ([`crate::admit`]) charges that, refuses
//! runs whose `B − 1` replicates would exceed the 512 MiB budget, and checks
//! the bootstrap contract: two-group `t` design, explicit `B ≥ 2`, exact
//! mode, `f64` accumulation and at most 256 sample columns.
//!
//! Two interval families per gene:
//!
//! - **percentile**: empirical 2.5 / 97.5 % quantiles of the replicate
//!   distribution (type-7 interpolation);
//! - **BCa** (bias-corrected and accelerated, Efron 1987): the percentile
//!   levels shifted by the bias correction z₀ = Φ⁻¹(#{θ* < θ̂}/R) and the
//!   jackknife acceleration a = Σd³ / (6·(Σd²)^{3/2}), d the leave-one-
//!   column-out deviations.

pub mod normal;

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::adaptive::runner::sub_matrix;
use crate::admit::{admit, Entry, Run};
use crate::error::{Error, Result};
use crate::matrix::Matrix;
use crate::maxt::engine::{run_jobs, GENE_TILE};
use crate::options::PmaxtOptions;
use normal::{inv_phi, phi};

/// Two-sided confidence level of the reported intervals.
pub const CI_LEVEL: f64 = 0.95;

/// Per-gene bootstrap estimates for a gene slice (`offset` genes are skipped
/// before the first reported row; a full run has `offset = 0`).
#[derive(Debug, Clone, PartialEq)]
pub struct BootstrapResult {
    /// First gene row this result covers.
    pub offset: usize,
    /// Observed statistic θ̂ per covered gene (group-1 mean − group-0 mean).
    pub theta: Vec<f64>,
    /// Bootstrap standard error (sample SD of the replicates).
    pub se: Vec<f64>,
    /// Percentile interval bounds.
    pub pct_lo: Vec<f64>,
    /// Percentile upper bounds.
    pub pct_hi: Vec<f64>,
    /// BCa lower bounds (NaN when the bias correction is undefined).
    pub bca_lo: Vec<f64>,
    /// BCa upper bounds.
    pub bca_hi: Vec<f64>,
    /// Replicates drawn (`B − 1`; index 0 is the observed arrangement).
    pub replicates: u64,
    /// Two-sided confidence level.
    pub level: f64,
}

impl BootstrapResult {
    /// An empty result starting at gene row `offset`.
    fn empty(offset: usize, replicates: u64) -> Self {
        BootstrapResult {
            offset,
            theta: Vec::new(),
            se: Vec::new(),
            pct_lo: Vec::new(),
            pct_hi: Vec::new(),
            bca_lo: Vec::new(),
            bca_hi: Vec::new(),
            replicates,
            level: CI_LEVEL,
        }
    }

    /// Append one gene's θ̂ and its [`gene_estimates`].
    fn push_gene(&mut self, theta: f64, [se, pct_lo, pct_hi, bca_lo, bca_hi]: [f64; 5]) {
        self.theta.push(theta);
        self.se.push(se);
        self.pct_lo.push(pct_lo);
        self.pct_hi.push(pct_hi);
        self.bca_lo.push(bca_lo);
        self.bca_hi.push(bca_hi);
    }

    /// Number of genes covered.
    pub fn genes(&self) -> usize {
        self.theta.len()
    }

    /// Append another slice's rows (must continue exactly where this one
    /// ends — the shard-merge invariant).
    pub fn extend(&mut self, other: &BootstrapResult) -> Result<()> {
        if other.offset != self.offset + self.genes()
            || other.replicates != self.replicates
            || other.level != self.level
        {
            return Err(Error::Comm(format!(
                "bootstrap slices do not abut: have rows {}..{} (R={}), \
                 next slice starts at {} (R={})",
                self.offset,
                self.offset + self.genes(),
                self.replicates,
                other.offset,
                other.replicates
            )));
        }
        self.theta.extend_from_slice(&other.theta);
        self.se.extend_from_slice(&other.se);
        self.pct_lo.extend_from_slice(&other.pct_lo);
        self.pct_hi.extend_from_slice(&other.pct_hi);
        self.bca_lo.extend_from_slice(&other.bca_lo);
        self.bca_hi.extend_from_slice(&other.bca_hi);
        Ok(())
    }
}

/// Type-7 (linear-interpolation) quantile of an ascending-sorted slice.
fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 0 || p.is_nan() {
        return f64::NAN;
    }
    let h = (n - 1) as f64 * p.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    if lo + 1 >= n {
        return sorted[n - 1];
    }
    sorted[lo] + (h - lo as f64) * (sorted[lo + 1] - sorted[lo])
}

/// Run the bootstrap workload over every gene. Threading follows the
/// admitted geometry (`opts.threads` / `SPRINT_THREADS`); any thread count
/// produces bitwise-identical results.
pub fn boot_run(data: &Matrix, classlabel: &[u8], opts: &PmaxtOptions) -> Result<BootstrapResult> {
    boot_run_slice(data, classlabel, opts, 0..data.rows())
}

/// Run the bootstrap workload over a contiguous gene slice — the shard unit
/// of the job service. Every peer computes the full replicate span for its
/// rows, and per-gene finalization is independent, so a slice result is
/// bitwise-equal to the same rows of a full run.
pub fn boot_run_slice(
    data: &Matrix,
    classlabel: &[u8],
    opts: &PmaxtOptions,
    genes: Range<usize>,
) -> Result<BootstrapResult> {
    let adm = admit(data, classlabel, opts, Entry::Bootstrap)?;
    boot_run_on(&adm.run, &adm.data, genes)
}

/// [`boot_run_slice`] for an admitted run over its NA-canonical matrix, on
/// the admitted engine geometry.
///
/// The genes go in blocks of [`GENE_TILE`]. The engine scores a block under
/// draws 1 to B − 1 ([`Run::scores`] with the run's bootstrap scorer, from a
/// stream at draw 1), and the context's observed pass, the identity draw,
/// gives θ̂. The block's rows are then finalized over the engine's threads,
/// each worker taking the next row with its one sort scratch, and join the
/// result in gene order before the next block is scored.
pub fn boot_run_on(run: &Run, data: &Matrix, genes: Range<usize>) -> Result<BootstrapResult> {
    assert!(genes.end <= data.rows(), "gene slice out of range");
    let (labels, reps) = (run.labels.as_slice(), run.b - 1);
    let t = reps as usize;
    let mut out = BootstrapResult::empty(genes.start, reps);
    let genes: Vec<usize> = genes.collect();
    for rows in genes.chunks(GENE_TILE) {
        let block = sub_matrix(data, rows);
        let ctx = run.context(&block);
        let stats = run.scores(&ctx, &mut *run.stream(1), reps);
        let theta = ctx.observed_stats();
        // Each worker takes the next row as it frees up: equal shares of
        // rows left one worker idle for a quarter of the block's finalize.
        let next = AtomicUsize::new(0);
        let workers = vec![(); run.engine.threads.clamp(1, block.rows())];
        let mut finished = run_jobs(workers, |_, ()| {
            let mut sorted = Vec::with_capacity(t);
            let rows = std::iter::repeat_with(|| next.fetch_add(1, Ordering::Relaxed));
            let reps = |r: usize| &stats[r * t..(r + 1) * t];
            let mut est = |r| gene_estimates(theta[r], block.row(r), labels, reps(r), &mut sorted);
            let rows = rows.take_while(|&r| r < block.rows());
            rows.map(|r| (r, est(r))).collect::<Vec<_>>()
        })
        .concat();
        finished.sort_unstable_by_key(|&(r, _)| r);
        for (r, est) in finished {
            out.push_gene(theta[r], est);
        }
    }
    Ok(out)
}

/// Per-gene finalization from the gene's replicates: bootstrap SE, the
/// percentile bounds and the BCa bounds, as `[se, pct_lo, pct_hi, bca_lo,
/// bca_hi]` (NaN where undefined). `sorted` is scratch space.
fn gene_estimates(
    theta: f64,
    row: &[f64],
    labels: &[u8],
    reps: &[f64],
    sorted: &mut Vec<f64>,
) -> [f64; 5] {
    if theta.is_nan() {
        return [f64::NAN; 5];
    }
    // Valid replicates, ascending (degenerate draws — an empty group after
    // resampling — drop out, as `boot` drops failed statistics).
    sorted.clear();
    sorted.extend(reps.iter().copied().filter(|x| !x.is_nan()));
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after filter"));
    let v = &sorted[..];
    if v.len() < 2 {
        return [f64::NAN; 5];
    }
    let m = v.len() as f64;
    let mean = v.iter().sum::<f64>() / m;
    let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (m - 1.0);
    let se = var.sqrt();
    let pct_lo = quantile_sorted(v, (1.0 - CI_LEVEL) / 2.0);
    let pct_hi = quantile_sorted(v, 1.0 - (1.0 - CI_LEVEL) / 2.0);

    // BCa: bias correction from the replicate distribution, acceleration
    // from the leave-one-column-out jackknife.
    let below = v.iter().filter(|&&x| x < theta).count() as f64;
    let prop = below / m;
    if prop <= 0.0 || prop >= 1.0 {
        return [se, pct_lo, pct_hi, f64::NAN, f64::NAN];
    }
    let z0 = inv_phi(prop);
    let a = jackknife_acceleration(row, labels);
    let level = |z: f64| -> f64 {
        let num = z0 + z;
        phi(z0 + num / (1.0 - a * num))
    };
    let z_lo = inv_phi((1.0 - CI_LEVEL) / 2.0);
    let z_hi = inv_phi(1.0 - (1.0 - CI_LEVEL) / 2.0);
    [
        se,
        pct_lo,
        pct_hi,
        quantile_sorted(v, level(z_lo)),
        quantile_sorted(v, level(z_hi)),
    ]
}

/// Jackknife acceleration constant for one gene: leave each non-missing
/// column out in turn, recompute the mean difference from the cached group
/// totals, and combine the deviations. Returns 0.0 when the deviations
/// vanish (flat jackknife) and skips columns whose removal would empty a
/// group.
fn jackknife_acceleration(row: &[f64], labels: &[u8]) -> f64 {
    let (mut s0, mut s1) = (0.0f64, 0.0f64);
    let (mut n0, mut n1) = (0u32, 0u32);
    for (&v, &l) in row.iter().zip(labels) {
        if v.is_nan() {
            continue;
        }
        if l == 1 {
            s1 += v;
            n1 += 1;
        } else {
            s0 += v;
            n0 += 1;
        }
    }
    let mut thetas = Vec::with_capacity(row.len());
    for (&v, &l) in row.iter().zip(labels) {
        if v.is_nan() {
            continue;
        }
        let t = if l == 1 {
            if n1 < 2 {
                continue;
            }
            (s1 - v) / (n1 - 1) as f64 - s0 / n0 as f64
        } else {
            if n0 < 2 {
                continue;
            }
            s1 / n1 as f64 - (s0 - v) / (n0 - 1) as f64
        };
        thetas.push(t);
    }
    if thetas.len() < 2 {
        return 0.0;
    }
    let mean = thetas.iter().sum::<f64>() / thetas.len() as f64;
    let (mut d2, mut d3) = (0.0f64, 0.0f64);
    for t in &thetas {
        let d = mean - t;
        d2 += d * d;
        d3 += d * d * d;
    }
    if d2 <= 0.0 {
        return 0.0;
    }
    d3 / (6.0 * d2.powf(1.5))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admit::BUDGET_BYTES;
    use crate::labels::ClassLabels;
    use crate::maxt::engine::EngineConfig;
    use crate::options::{Mode, Precision, TestMethod, Workload};
    use crate::perm::build_generator;
    use crate::stats::scorer::{fast_scorer_on, Scorer, Statistic};
    use crate::stats::soa::Isa;
    use proptest::prelude::*;
    use std::borrow::Cow;

    /// Bootstrap admission as parts: labels, draw count, NA-canonical matrix.
    fn admit_boot<'a>(
        data: &'a Matrix,
        classlabel: &[u8],
        opts: &PmaxtOptions,
    ) -> Result<(ClassLabels, u64, Cow<'a, Matrix>)> {
        let adm = admit(data, classlabel, opts, Entry::Bootstrap)?;
        Ok((adm.run.labels, adm.run.b, adm.data))
    }

    fn opts(b: u64) -> PmaxtOptions {
        PmaxtOptions::default()
            .workload(Workload::Bootstrap)
            .permutations(b)
    }

    fn dataset() -> (Matrix, Vec<u8>) {
        // 3 genes × 8 samples: strong shift, flat, noisy.
        let data = Matrix::from_vec(
            3,
            8,
            vec![
                1.0, 2.0, 1.5, 2.5, 9.0, 10.0, 9.5, 10.5, // shift ≈ 8
                5.0, 5.1, 4.9, 5.0, 5.05, 4.95, 5.1, 4.9, // flat
                2.0, 8.0, 3.0, 7.0, 2.5, 7.5, 4.0, 6.0, // noisy
            ],
        )
        .unwrap();
        (data, vec![0, 0, 0, 0, 1, 1, 1, 1])
    }

    #[test]
    fn observed_theta_and_interval_shapes() {
        let (data, labels) = dataset();
        let r = boot_run(&data, &labels, &opts(400)).unwrap();
        assert_eq!(r.genes(), 3);
        assert_eq!(r.replicates, 399);
        assert!((r.theta[0] - 8.0).abs() < 1e-12);
        for g in 0..3 {
            assert!(r.pct_lo[g] <= r.pct_hi[g], "gene {g}");
            assert!(r.se[g] > 0.0);
            // θ̂ sits inside its own interval for these well-behaved genes.
            assert!(r.pct_lo[g] <= r.theta[g] && r.theta[g] <= r.pct_hi[g]);
            assert!(r.bca_lo[g] <= r.bca_hi[g]);
        }
        // The shifted gene's interval excludes zero; the flat gene's contains it.
        assert!(r.pct_lo[0] > 0.0);
        assert!(r.pct_lo[1] < 0.0 && r.pct_hi[1] > 0.0);
    }

    #[test]
    fn thread_count_is_bitwise_invisible() {
        let (data, labels) = dataset();
        let serial = boot_run(&data, &labels, &opts(300).threads(1)).unwrap();
        let threaded = boot_run(&data, &labels, &opts(300).threads(4)).unwrap();
        assert_eq!(serial, threaded);
    }

    #[test]
    fn gene_slices_equal_full_run_rows() {
        let (data, labels) = dataset();
        let o = opts(250);
        let full = boot_run(&data, &labels, &o).unwrap();
        let mut merged = boot_run_slice(&data, &labels, &o, 0..1).unwrap();
        let tail = boot_run_slice(&data, &labels, &o, 1..3).unwrap();
        merged.extend(&tail).unwrap();
        assert_eq!(merged, full);
        // Non-abutting slices are refused.
        let gap = boot_run_slice(&data, &labels, &o, 2..3).unwrap();
        let mut head = boot_run_slice(&data, &labels, &o, 0..1).unwrap();
        assert!(head.extend(&gap).is_err());
    }

    #[test]
    fn stored_sampling_draws_a_different_but_valid_stream() {
        let (data, labels) = dataset();
        let fixed = boot_run(&data, &labels, &opts(200)).unwrap();
        let stored =
            boot_run(&data, &labels, &opts(200).fixed_seed_sampling("n").unwrap()).unwrap();
        // Same observed statistic, different replicate stream.
        assert_eq!(fixed.theta, stored.theta);
        assert_ne!(fixed.pct_lo, stored.pct_lo);
    }

    #[test]
    fn na_cells_drop_out() {
        let data =
            Matrix::from_vec(1, 8, vec![1.0, 2.0, -99.0, 2.5, 9.0, 10.0, 9.5, 10.5]).unwrap();
        let labels = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let r = boot_run(&data, &labels, &opts(100).na_code(-99.0)).unwrap();
        // Observed mean difference over the 7 remaining cells.
        let expect = (9.0 + 10.0 + 9.5 + 10.5) / 4.0 - (1.0 + 2.0 + 2.5) / 3.0;
        assert!((r.theta[0] - expect).abs() < 1e-12);
    }

    #[test]
    fn refusals_are_typed() {
        let (data, labels) = dataset();
        // Wrong workload.
        let e = boot_run(&data, &labels, &PmaxtOptions::default()).unwrap_err();
        assert!(matches!(
            e,
            Error::BadOption {
                param: "workload",
                ..
            }
        ));
        // Wrong test method.
        let e = boot_run(&data, &labels, &opts(100).test(TestMethod::Wilcoxon)).unwrap_err();
        assert!(matches!(e, Error::BadOption { param: "test", .. }));
        // Adaptive mode.
        let e = boot_run(&data, &labels, &opts(100).mode(Mode::Adaptive)).unwrap_err();
        assert!(matches!(e, Error::BadOption { param: "mode", .. }));
        // f32 precision.
        let e = boot_run(&data, &labels, &opts(100).precision(Precision::F32)).unwrap_err();
        assert!(matches!(
            e,
            Error::BadOption {
                param: "precision",
                ..
            }
        ));
        // B too small.
        let e = boot_run(&data, &labels, &opts(1)).unwrap_err();
        assert!(matches!(e, Error::BadOption { param: "b", .. }));
        // Multi-class labels are not a two-group design.
        let e = boot_run(&data, &[0, 0, 0, 1, 1, 1, 2, 2], &opts(100)).unwrap_err();
        assert!(matches!(e, Error::BadLabels(_)));
    }

    /// Group-mean difference of one gene row under an index draw: drawn
    /// columns keep their labels; NaN cells drop out; an empty group yields
    /// NaN. The scalar reference the bootstrap scorer is tested against.
    fn mean_diff_drawn(row: &[f64], labels: &[u8], draw: &[u8]) -> f64 {
        let (mut s0, mut s1) = (0.0f64, 0.0f64);
        let (mut n0, mut n1) = (0u32, 0u32);
        for &ix in draw {
            let v = row[ix as usize];
            if v.is_nan() {
                continue;
            }
            if labels[ix as usize] == 1 {
                s1 += v;
                n1 += 1;
            } else {
                s0 += v;
                n0 += 1;
            }
        }
        if n0 == 0 || n1 == 0 {
            return f64::NAN;
        }
        s1 / n1 as f64 - s0 / n0 as f64
    }

    /// All B draws of the run's stream, the identity draw first.
    fn draws_of(labels: &ClassLabels, opts: &PmaxtOptions, b: u64) -> Vec<Vec<u8>> {
        let mut stream = build_generator(labels, opts, b).unwrap();
        let mut draws = vec![vec![0u8; labels.len()]; b as usize];
        for draw in &mut draws {
            assert!(stream.next_into(draw));
        }
        draws
    }

    /// The scalar replicate oracle: every replicate of every gene by
    /// [`mean_diff_drawn`] over the stream's draws in their original slot
    /// order, then the same per-gene finalization.
    fn oracle(
        data: &Matrix,
        classlabel: &[u8],
        opts: &PmaxtOptions,
        genes: Range<usize>,
    ) -> BootstrapResult {
        let (class_labels, b, data) = admit_boot(data, classlabel, opts).unwrap();
        let labels = class_labels.as_slice();
        let draws = draws_of(&class_labels, opts, b);
        let mut out = BootstrapResult::empty(genes.start, b - 1);
        let mut sorted = Vec::new();
        for g in genes {
            let row = data.row(g);
            let theta = mean_diff_drawn(row, labels, &draws[0]);
            let reps: Vec<f64> = draws[1..]
                .iter()
                .map(|d| mean_diff_drawn(row, labels, d))
                .collect();
            out.push_gene(
                theta,
                gene_estimates(theta, row, labels, &reps, &mut sorted),
            );
        }
        out
    }

    /// Every gene through one scorer: all `draws` in one batch, the first,
    /// the identity, giving θ̂, then the same per-gene finalization.
    fn scored_by(
        scorer: &dyn Scorer,
        data: &Matrix,
        labels: &[u8],
        draws: &[Vec<u8>],
    ) -> BootstrapResult {
        let (genes, b) = (data.rows(), draws.len());
        let mut scratch = scorer.make_scratch();
        scorer.begin_batch(draws, &mut scratch);
        let mut stats = vec![0.0f64; genes * b];
        scorer.score_tile(draws, 0..genes, &mut scratch, &mut stats, b);
        let mut out = BootstrapResult::empty(0, b as u64 - 1);
        let mut sorted = Vec::new();
        for (g, row) in stats.chunks(b).enumerate() {
            let est = gene_estimates(row[0], data.row(g), labels, &row[1..], &mut sorted);
            out.push_gene(row[0], est);
        }
        out
    }

    /// Every bit of a result, NaN payloads included (`PartialEq` on the
    /// struct cannot compare NaN cells).
    fn bits(r: &BootstrapResult) -> Vec<u64> {
        let mut v = vec![r.offset as u64, r.replicates, r.level.to_bits()];
        for col in [&r.theta, &r.se, &r.pct_lo, &r.pct_hi, &r.bca_lo, &r.bca_hi] {
            v.push(col.len() as u64);
            v.extend(col.iter().map(|x| x.to_bits()));
        }
        v
    }

    #[allow(clippy::type_complexity)]
    fn oracle_case() -> impl Strategy<
        Value = (
            usize,
            Vec<u8>,
            Vec<f64>,
            Vec<bool>,
            u64,
            (usize, usize),
            usize,
            bool,
        ),
    > {
        // Gene counts straddle LANE, BLOCK and GENE_TILE; split points are
        // almost never on a block boundary.
        (1usize..300, 4usize..15).prop_flat_map(|(genes, cols)| {
            (
                Just(genes),
                proptest::collection::vec(0u8..2, cols),
                proptest::collection::vec(-40.0f64..120.0, genes * cols),
                proptest::collection::vec(proptest::bool::weighted(0.15), genes * cols),
                2u64..40,
                (1usize..5, 1usize..9),
                0usize..genes,
                any::<bool>(),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The driver reproduces the scalar oracle bit for bit at any thread
        /// count and engine batch, every body of its scorer does, and gene
        /// slices cut anywhere merge back into the full run through
        /// `extend`.
        #[test]
        fn tiled_driver_matches_scalar_oracle_bitwise(
            (genes, mut labels, mut values, na, b, (threads, batch), split, stored) in oracle_case()
        ) {
            // At least two samples per group; gene 0 loses its whole
            // class-1 group when the split point is even.
            labels[..4].copy_from_slice(&[0, 1, 0, 1]);
            let cols = labels.len();
            for (v, &missing) in values.iter_mut().zip(&na) {
                if missing {
                    *v = f64::NAN;
                }
            }
            if split.is_multiple_of(2) {
                for (c, &l) in labels.iter().enumerate() {
                    if l == 1 {
                        values[c] = f64::NAN;
                    }
                }
            }
            let data = Matrix::from_vec(genes, cols, values).unwrap();
            let mut o = opts(b).threads(threads).batch(batch).seed(split as u64);
            if stored {
                o = o.fixed_seed_sampling("n").unwrap();
            }
            let want = bits(&oracle(&data, &labels, &o, 0..genes));
            prop_assert_eq!(bits(&boot_run(&data, &labels, &o).unwrap()), want.clone());
            // Every compilation of the scorer's tile body the host runs,
            // whichever it would pick.
            let (class_labels, b, data) = admit_boot(&data, &labels, &o).unwrap();
            let draws = draws_of(&class_labels, &o, b);
            for isa in [Isa::Baseline, Isa::Avx2, Isa::Avx512] {
                let stat = Statistic::BootMeanDiff;
                let body = fast_scorer_on(isa, &data, &class_labels, stat, Precision::F64);
                if let Some(scorer) = body {
                    let scored = scored_by(scorer.as_ref(), &data, &labels, &draws);
                    prop_assert_eq!(bits(&scored), want.clone(), "{:?}", isa);
                }
            }
            let mut merged = boot_run_slice(&data, &labels, &o, 0..split).unwrap();
            merged
                .extend(&boot_run_slice(&data, &labels, &o, split..genes).unwrap())
                .unwrap();
            prop_assert_eq!(bits(&merged), want);
        }
    }

    #[test]
    fn working_set_beyond_budget_is_refused_with_the_largest_b() {
        let (data, labels) = dataset();
        // Each replicate costs a block of GENE_TILE replicates, and a sorted
        // value and a value of the sort's scratch for each finalizing
        // worker, 8 bytes each. 3 genes make at most three workers (the
        // resolved count honours SPRINT_THREADS).
        let workers = |o: &PmaxtOptions, rows: usize| {
            EngineConfig::resolve(o).threads.min(rows).min(GENE_TILE) as u64
        };
        let o = opts(2).threads(4);
        let per_replicate = GENE_TILE as u64 * 8 + workers(&o, 3) * 16;
        let largest = BUDGET_BYTES as u64 / per_replicate + 1;
        let e = boot_run(&data, &labels, &o.permutations(largest + 1)).unwrap_err();
        match e {
            Error::BadOption { param: "b", value } => {
                assert!(
                    value.contains(&format!("the largest B accepted is {largest}")),
                    "{value}"
                );
            }
            other => panic!("expected a typed refusal, got {other:?}"),
        }
        // A huge request is refused before anything is allocated.
        assert!(matches!(
            admit_boot(&data, &labels, &opts(1_000_000_000)),
            Err(Error::BadOption { param: "b", .. })
        ));
        // A block of 300 genes has rows for five workers where 3 genes have
        // rows for three, so each replicate costs more (unless
        // SPRINT_THREADS leaves three workers or fewer).
        let wide = Matrix::from_vec(300, 8, vec![1.0; 2400]).unwrap();
        let o = opts(2).threads(5);
        let per_replicate = GENE_TILE as u64 * 8 + workers(&o, 300) * 16;
        let largest_wide = BUDGET_BYTES as u64 / per_replicate + 1;
        assert!(workers(&o, 300) <= 3 || largest_wide < largest);
        assert!(admit_boot(&wide, &labels, &o.clone().permutations(largest_wide)).is_ok());
        assert!(matches!(
            admit_boot(&wide, &labels, &o.permutations(largest_wide + 1)),
            Err(Error::BadOption { param: "b", .. })
        ));
    }

    #[test]
    fn largest_accepted_b_runs() {
        // One gene, one worker: the largest B the budget admits still runs,
        // and matches the scalar oracle.
        let data = Matrix::from_vec(1, 4, vec![1.0, 2.5, 4.0, 7.5]).unwrap();
        let labels = [0u8, 0, 1, 1];
        let per_replicate = ((GENE_TILE + 2) * 8) as u64;
        let largest = BUDGET_BYTES as u64 / per_replicate + 1;
        let o = opts(largest).threads(1);
        let r = boot_run(&data, &labels, &o).unwrap();
        assert_eq!(r.replicates, largest - 1);
        assert!(r.se[0] > 0.0);
        assert_eq!(bits(&r), bits(&oracle(&data, &labels, &o, 0..1)));
        assert!(boot_run(&data, &labels, &opts(largest + 1).threads(1)).is_err());
    }

    #[test]
    fn wide_interval_shrinks_with_more_replicates() {
        let (data, labels) = dataset();
        // CI endpoints stabilize (width estimate noise falls) as B grows;
        // check the basic sanity that both runs bracket θ̂ and the large-B
        // width is within 2× of the small-B width (loose, deterministic).
        let small = boot_run(&data, &labels, &opts(50)).unwrap();
        let large = boot_run(&data, &labels, &opts(2000)).unwrap();
        let w_small = small.pct_hi[2] - small.pct_lo[2];
        let w_large = large.pct_hi[2] - large.pct_lo[2];
        assert!(w_small > 0.0 && w_large > 0.0);
        assert!(w_large < 2.0 * w_small && w_small < 2.0 * w_large);
    }
}
