//! Step-down **minP** adjusted p-values — extension beyond the paper.
//!
//! `mt.maxT`'s sibling in `multtest` is `mt.minP` (Ge, Dudoit & Speed 2003,
//! procedure based on successive *minima of raw p-values* instead of maxima
//! of statistics). The paper's future work opens with "the addition of more
//! parallelized functions"; minP is the most natural next one, and the
//! permutation-distribution machinery (generators with skip-ahead, identity
//! handled once) is reused unchanged.
//!
//! minP is *balanced* across genes with different null distributions —
//! p-value scale instead of statistic scale — at the cost of materializing
//! the full genes × B score matrix (the same trade-off `mt.minP` makes).
//! Admission ([`crate::admit`]) refuses a matrix over the 512 MiB budget
//! rather than thrashing.
//!
//! Algorithm (complete or sampled permutation set, identity at index 0):
//!
//! 1. compute the score matrix `z[g][b]`;
//! 2. per gene, the permutation raw p-value `p[g][b] = #{b': z[g][b'] ≥
//!    z[g][b]} / B` via a sorted copy of the gene's scores;
//! 3. order genes by increasing observed raw p (ties: larger observed score
//!    first);
//! 4. per permutation, form successive minima of `p[·][b]` from the least
//!    significant ordered gene upwards and count `q_i,b ≤ p_obs(i)`;
//! 5. divide by B and enforce step-down monotonicity.

use crate::admit::{admit, Entry, Run};
use crate::error::{Error, Result};
use crate::matrix::Matrix;
use crate::maxt::engine::{split_evenly, DEFAULT_BATCH};
use crate::maxt::result::MaxTResult;
use crate::maxt::EPSILON;
use crate::options::PmaxtOptions;
use crate::perm::build_generator;

/// Run the step-down minP procedure. The result reuses [`MaxTResult`]
/// (`teststat`, `rawp`, `adjp`, significance `order`); `rawp` is the
/// permutation raw p-value of each gene, identical in definition to maxT's.
pub fn mt_minp(data: &Matrix, classlabel: &[u8], opts: &PmaxtOptions) -> Result<MaxTResult> {
    let adm = admit(data, classlabel, opts, Entry::MinP { ranks: 1 })?;
    let (run, data) = (&adm.run, &*adm.data);
    let (labels, opts, b) = (&run.labels, &run.opts, run.b);
    let genes = data.rows();
    let prepared = run.prepare(data);
    let scorer = run.scorer(&prepared);
    let side = opts.side;

    // 1. Score matrix, gene-major: scores[g * b + j], filled batch by batch
    // through the run's scorer. Statistics are written at a column offset via
    // an `&mut scores[j..]` window with stride `b`, so `score_tile`'s
    // `g·stride + j_local` lands on the global `g·b + j + j_local` cell.
    let mut gen = build_generator(labels, opts, b)?;
    let bu = b as usize;
    let mut scores = vec![f64::NEG_INFINITY; genes * bu];
    let batch = DEFAULT_BATCH.min(bu).max(1);
    let mut labels_bufs: Vec<Vec<u8>> = vec![vec![0u8; data.cols()]; batch];
    let mut scratch = scorer.make_scratch();
    let mut obs_stats = vec![f64::NAN; genes];
    let mut j = 0usize;
    while j < bu {
        let want = (bu - j).min(batch);
        let mut k = 0usize;
        while k < want && gen.next_into(&mut labels_bufs[k]) {
            k += 1;
        }
        if k == 0 {
            break;
        }
        scorer.begin_batch(&labels_bufs[..k], &mut scratch);
        scorer.score_tile(
            &labels_bufs[..k],
            0..genes,
            &mut scratch,
            &mut scores[j..],
            bu,
        );
        if j == 0 {
            // Raw observed statistics: the identity permutation's column,
            // before the in-place extremeness transform below.
            for g in 0..genes {
                obs_stats[g] = scores[g * bu];
            }
        }
        for g in 0..genes {
            for slot in &mut scores[g * bu + j..g * bu + j + k] {
                *slot = side.score(*slot);
            }
        }
        j += k;
    }
    debug_assert_eq!(j, bu);

    Ok(minp_from_scores(scores, obs_stats, side, b))
}

/// Steps 2–5 of the minP procedure, given the full gene-major score matrix
/// (`scores[g * B + j]`) and the observed statistics. Shared by the serial
/// [`mt_minp`] and the parallel [`pminp`].
pub(crate) fn minp_from_scores(
    scores: Vec<f64>,
    obs_stats: Vec<f64>,
    side: crate::side::Side,
    b: u64,
) -> MaxTResult {
    let bu = b as usize;
    let genes = obs_stats.len();
    debug_assert_eq!(scores.len(), genes * bu);

    // 2. Permutation raw p-values per gene, via a sorted copy.
    let bf = b as f64;
    let mut pmat = vec![1.0f64; genes * bu];
    let mut sorted = vec![0.0f64; bu];
    for g in 0..genes {
        let row = &scores[g * bu..(g + 1) * bu];
        sorted.copy_from_slice(row);
        // In place: a stable sort would borrow another B-long buffer, and
        // the counts below read only comparisons, which equal values pass
        // alike in any order.
        sorted.sort_unstable_by(|a, c| a.partial_cmp(c).expect("scores are never NaN"));
        for (j, &z) in row.iter().enumerate() {
            // count of scores >= z - EPSILON == bu - lower_bound(z - EPSILON)
            let t = z - EPSILON;
            let idx = sorted.partition_point(|&s| s < t);
            pmat[g * bu + j] = (bu - idx) as f64 / bf;
        }
    }

    // 3. Order genes by increasing observed raw p, ties by decreasing
    // observed score, then by index (stable).
    let obs_scores: Vec<f64> = (0..genes).map(|g| side.score(obs_stats[g])).collect();
    let obs_rawp: Vec<f64> = (0..genes).map(|g| pmat[g * bu]).collect();
    let mut order: Vec<usize> = (0..genes).collect();
    order.sort_by(|&a, &c| {
        obs_rawp[a]
            .partial_cmp(&obs_rawp[c])
            .expect("raw p-values are finite")
            .then(
                obs_scores[c]
                    .partial_cmp(&obs_scores[a])
                    .expect("scores are never NaN"),
            )
    });

    // 4. Successive minima per permutation; count exceedances.
    let mut count_adj = vec![0u64; genes];
    for j in 0..bu {
        let mut running_min = f64::INFINITY;
        for i in (0..genes).rev() {
            let g = order[i];
            let p = pmat[g * bu + j];
            if p < running_min {
                running_min = p;
            }
            if running_min <= obs_rawp[g] + EPSILON {
                count_adj[i] += 1;
            }
        }
    }

    // 5. Adjusted p-values with monotonic enforcement, mapped to gene order.
    let mut adj_ordered: Vec<f64> = count_adj.iter().map(|&c| c as f64 / bf).collect();
    for i in 1..genes {
        if adj_ordered[i] < adj_ordered[i - 1] {
            adj_ordered[i] = adj_ordered[i - 1];
        }
    }
    let mut rawp = vec![f64::NAN; genes];
    let mut adjp = vec![f64::NAN; genes];
    for (i, &g) in order.iter().enumerate() {
        if obs_scores[g] > f64::NEG_INFINITY {
            rawp[g] = obs_rawp[g];
            adjp[g] = adj_ordered[i];
        }
    }
    MaxTResult {
        teststat: obs_stats,
        rawp,
        adjp,
        order,
        b_used: b,
    }
}

/// Parallel minP: the score-matrix computation (the compute-bound stage) is
/// distributed over SPMD ranks exactly like `pmaxT` distributes its kernel —
/// contiguous permutation chunks reached by generator skip-ahead — and the
/// chunks are gathered on the master, which finishes steps 2–5 serially.
/// Results are bit-identical to [`mt_minp`].
pub fn pminp(
    data: &Matrix,
    classlabel: &[u8],
    opts: &PmaxtOptions,
    n_ranks: usize,
) -> Result<MaxTResult> {
    let adm = admit(data, classlabel, opts, Entry::MinP { ranks: n_ranks })?;
    pminp_on(adm.run, adm.data.into_owned(), n_ranks)
}

/// [`pminp`] for a run admitted at its entry, over its NA-canonical matrix,
/// which every rank reads in place.
pub fn pminp_on(run: Run, data: Matrix, n_ranks: usize) -> Result<MaxTResult> {
    use mpi_sim::{Universe, MASTER};

    if n_ranks == 0 {
        return Err(Error::Comm("at least one rank required".into()));
    }
    let outputs = Universe::run(n_ranks, move |comm| {
        let (labels, opts, b) = (&run.labels, &run.opts, run.b);
        let prepared = run.prepare(&data);
        let scorer = run.scorer(&prepared);
        let genes = data.rows();
        // Contiguous permutation chunk for this rank (no identity special
        // case here: minP needs every column of the score matrix anyway).
        let (start, take) = split_evenly(b, comm.size() as u64, comm.rank() as u64);
        let mut gen = build_generator(labels, opts, b).expect("validated generator");
        gen.skip(start);
        // Permutation-major chunk: chunk[j_local * genes + g].
        let mut chunk = vec![0.0f64; take as usize * genes];
        let mut labels_buf = vec![0u8; data.cols()];
        let mut stats = vec![f64::NAN; genes];
        let mut scratch = scorer.make_scratch();
        let mut obs_stats = vec![f64::NAN; genes];
        for j_local in 0..take as usize {
            assert!(gen.next_into(&mut labels_buf), "chunk within bounds");
            scorer.stats_into(&labels_buf, &mut scratch, &mut stats);
            for g in 0..genes {
                let stat = stats[g];
                if start == 0 && j_local == 0 {
                    obs_stats[g] = stat;
                }
                chunk[j_local * genes + g] = opts.side.score(stat);
            }
        }
        let gathered = comm
            .gather(MASTER, (start, chunk, obs_stats))
            .expect("score gather");
        gathered.map(|parts| {
            let bu = b as usize;
            let mut scores = vec![f64::NEG_INFINITY; genes * bu];
            let mut obs = vec![f64::NAN; genes];
            for (part_start, part_chunk, part_obs) in parts {
                let part_take = part_chunk.len() / genes;
                for j_local in 0..part_take {
                    let j = part_start as usize + j_local;
                    for g in 0..genes {
                        scores[g * bu + j] = part_chunk[j_local * genes + g];
                    }
                }
                if part_start == 0 {
                    obs = part_obs;
                }
            }
            minp_from_scores(scores, obs, opts.side, b)
        })
    })
    .map_err(|e| Error::Comm(e.to_string()))?;
    Ok(outputs
        .into_iter()
        .next()
        .flatten()
        .expect("master produces the result"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxt::serial::mt_maxt;
    use crate::side::Side;

    fn two_class_data() -> (Matrix, Vec<u8>) {
        let data = Matrix::from_vec(
            3,
            6,
            vec![
                1.0, 2.0, 1.5, 9.0, 10.0, 9.5, 5.0, 4.0, 6.0, 5.5, 4.5, 5.2, 2.0, 8.0, 3.0, 7.0,
                2.5, 7.5,
            ],
        )
        .unwrap();
        (data, vec![0, 0, 0, 1, 1, 1])
    }

    #[test]
    fn minp_raw_p_matches_maxt_raw_p() {
        // The raw (unadjusted) p-values are defined identically.
        let (data, labels) = two_class_data();
        let opts = PmaxtOptions::default().permutations(0);
        let minp = mt_minp(&data, &labels, &opts).unwrap();
        let maxt = mt_maxt(&data, &labels, &opts).unwrap();
        for g in 0..3 {
            assert!(
                (minp.rawp[g] - maxt.rawp[g]).abs() < 1e-12,
                "gene {g}: {} vs {}",
                minp.rawp[g],
                maxt.rawp[g]
            );
        }
        assert_eq!(minp.teststat, maxt.teststat);
    }

    #[test]
    fn minp_adjusted_at_least_raw_and_monotone() {
        let (data, labels) = two_class_data();
        let opts = PmaxtOptions::default().permutations(60);
        let r = mt_minp(&data, &labels, &opts).unwrap();
        for g in 0..3 {
            assert!(r.adjp[g] >= r.rawp[g] - 1e-12);
            assert!(r.adjp[g] <= 1.0 + 1e-12);
        }
        let rows: Vec<_> = r.by_significance().collect();
        for w in rows.windows(2) {
            assert!(w[1].adjp >= w[0].adjp - 1e-12);
        }
    }

    #[test]
    fn single_gene_minp_equals_rawp() {
        let data = Matrix::from_vec(1, 6, vec![1.0, 2.0, 3.0, 10.0, 11.0, 12.0]).unwrap();
        let labels = vec![0, 0, 0, 1, 1, 1];
        let opts = PmaxtOptions::default().permutations(0);
        let r = mt_minp(&data, &labels, &opts).unwrap();
        assert!((r.adjp[0] - r.rawp[0]).abs() < 1e-12);
        assert!((r.rawp[0] - 0.1).abs() < 1e-12); // 2/20 two-sided
    }

    #[test]
    fn minp_orders_by_raw_p() {
        let (data, labels) = two_class_data();
        let opts = PmaxtOptions::default().permutations(0);
        let r = mt_minp(&data, &labels, &opts).unwrap();
        let ps: Vec<f64> = r.order.iter().map(|&g| r.rawp[g]).collect();
        for w in ps.windows(2) {
            assert!(w[0] <= w[1] + 1e-12, "order not by raw p: {ps:?}");
        }
        // Gene 0 (strongly differential) first.
        assert_eq!(r.order[0], 0);
    }

    #[test]
    fn memory_budget_is_enforced() {
        // 3 genes x 30 million permutations need 720 MB of scores, over the
        // 512 MiB budget: admission refuses the run before any score exists.
        let (data, labels) = two_class_data();
        let opts = PmaxtOptions::default().permutations(30_000_000);
        let err = mt_minp(&data, &labels, &opts).unwrap_err();
        assert!(
            matches!(&err, Error::BadOption { param: "b", value } if value.contains("largest B accepted")),
            "{err:?}"
        );
    }

    #[test]
    fn nan_gene_gets_nan_p_values() {
        let data = Matrix::from_vec(
            2,
            6,
            vec![1.0, 2.0, 1.5, 9.0, 10.0, 9.5, 7.0, 7.0, 7.0, 7.0, 7.0, 7.0],
        )
        .unwrap();
        let labels = vec![0, 0, 0, 1, 1, 1];
        let opts = PmaxtOptions::default().permutations(0);
        let r = mt_minp(&data, &labels, &opts).unwrap();
        assert!(r.rawp[1].is_nan());
        assert!(r.adjp[1].is_nan());
        assert!(r.rawp[0].is_finite());
    }

    #[test]
    fn minp_and_maxt_agree_for_exchangeable_genes() {
        // When all genes share the same marginal null (same design, similar
        // scale), minP and maxT adjusted p-values should be close — for a
        // single gene they are identical (both equal the raw p).
        let (data, labels) = two_class_data();
        let opts = PmaxtOptions::default().permutations(200);
        let minp = mt_minp(&data, &labels, &opts).unwrap();
        let maxt = mt_maxt(&data, &labels, &opts).unwrap();
        for g in 0..3 {
            assert!(
                (minp.adjp[g] - maxt.adjp[g]).abs() < 0.25,
                "gene {g}: minP {} vs maxT {}",
                minp.adjp[g],
                maxt.adjp[g]
            );
        }
    }

    #[test]
    fn all_sides_and_methods_run() {
        use crate::options::TestMethod;
        let (data, two) = two_class_data();
        for (method, labels) in [
            (TestMethod::T, two.clone()),
            (TestMethod::Wilcoxon, two.clone()),
            (TestMethod::F, vec![0, 0, 1, 1, 2, 2]),
            (TestMethod::PairT, vec![0, 1, 0, 1, 0, 1]),
            (TestMethod::BlockF, vec![0, 1, 0, 1, 0, 1]),
        ] {
            for side in [Side::Abs, Side::Upper, Side::Lower] {
                let opts = PmaxtOptions {
                    test: method,
                    side,
                    b: 40,
                    ..PmaxtOptions::default()
                };
                let r = mt_minp(&data, &labels, &opts)
                    .unwrap_or_else(|e| panic!("{method:?}/{side:?}: {e}"));
                assert_eq!(r.b_used, 40);
            }
        }
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;

    fn two_class_data() -> (Matrix, Vec<u8>) {
        let data = Matrix::from_vec(
            4,
            6,
            vec![
                1.0, 2.0, 1.5, 9.0, 10.0, 9.5, 5.0, 4.0, 6.0, 5.5, 4.5, 5.2, 2.0, 8.0, 3.0, 7.0,
                2.5, 7.5, 1.0, 1.2, 0.8, 1.1, 0.9, 1.3,
            ],
        )
        .unwrap();
        (data, vec![0, 0, 0, 1, 1, 1])
    }

    #[test]
    fn pminp_equals_serial_for_many_rank_counts() {
        let (data, labels) = two_class_data();
        for opts in [
            PmaxtOptions::default().permutations(37),
            PmaxtOptions::default().permutations(0), // complete: 20
            PmaxtOptions::default()
                .permutations(37)
                .fixed_seed_sampling("n")
                .unwrap(),
        ] {
            let serial = mt_minp(&data, &labels, &opts).unwrap();
            for ranks in [1usize, 2, 3, 5, 8] {
                let par = pminp(&data, &labels, &opts, ranks).unwrap();
                assert_eq!(par, serial, "b={} ranks={ranks}", opts.b);
            }
        }
    }

    #[test]
    fn pminp_respects_budget_and_rank_validation() {
        // 4 genes x 30 million permutations: 960 MB of scores, refused at
        // admission on the caller, before any rank starts.
        let (data, labels) = two_class_data();
        let opts = PmaxtOptions::default().permutations(30_000_000);
        assert!(matches!(
            pminp(&data, &labels, &opts, 2),
            Err(Error::BadOption { param: "b", .. })
        ));
        assert!(pminp(&data, &labels, &opts, 0).is_err());
    }

    #[test]
    fn pminp_more_ranks_than_permutations() {
        let (data, labels) = two_class_data();
        let opts = PmaxtOptions::default().permutations(3);
        let serial = mt_minp(&data, &labels, &opts).unwrap();
        let par = pminp(&data, &labels, &opts, 7).unwrap();
        assert_eq!(par, serial);
    }
}
