//! Step-down **minP** adjusted p-values — extension beyond the paper.
//!
//! `mt.maxT`'s sibling in `multtest` is `mt.minP` (Ge, Dudoit & Speed 2003):
//! successive *minima of raw p-values* instead of maxima of statistics, so
//! genes with different null distributions are balanced. The paper's future
//! work opens with "the addition of more parallelized functions"; minP is
//! the most natural next one. Like the fast minP of Ge, Dudoit and Speed it
//! makes two passes and holds one block of genes × B at a time, both on
//! maxT's engine:
//!
//! 1. **Pass 1** is the maxT engine run. Its raw counts,
//!    `#{b: z[g][b] ≥ z[g][0] − ε}` with the identity at index 0, are
//!    minP's raw p-values times B, and they fix the step-down order: raw p
//!    ascending, then observed score descending, then index.
//! 2. **Pass 2** walks the ordered genes in blocks of [`GENE_TILE`], the
//!    last block first. The engine scores a block under all B
//!    arrangements; each row becomes p-values
//!    `p[g][b] = #{b': z[g][b'] ≥ z[g][b] − ε} / B` through a sorted copy,
//!    rows in parallel; the rows fold, from the block's last gene up, into
//!    one B-long vector of successive minima that counts
//!    `q[i][b] ≤ p_obs(i) + ε`.
//! 3. maxT's finalize divides by B and enforces monotonicity.

use mpi_sim::{Universe, MASTER};

use crate::adaptive::runner::sub_matrix;
use crate::admit::{admit, Entry, Run};
use crate::error::{Error, Result};
use crate::matrix::Matrix;
use crate::maxt::engine::{run_jobs, split_chunk, ChunkHooks, GENE_TILE};
use crate::maxt::result::MaxTResult;
use crate::maxt::{CountAccumulator, MaxTContext, EPSILON};
use crate::options::PmaxtOptions;
use crate::pmaxt::span_plan;

/// Point-to-point tag of a block's scores returning to the rank that
/// scored them.
const PART_BACK: u64 = 1;

/// Run the step-down minP procedure in the calling process, on the admitted
/// engine geometry. The result reuses [`MaxTResult`] (`teststat`, `rawp`,
/// `adjp`, significance `order`); `rawp` is the permutation raw p-value of
/// each gene, identical in definition to maxT's.
pub fn mt_minp(data: &Matrix, classlabel: &[u8], opts: &PmaxtOptions) -> Result<MaxTResult> {
    let adm = admit(data, classlabel, opts, Entry::MinP { ranks: 1 })?;
    let run = &adm.run;
    let prepared = run.prepare(&adm.data);
    let ctx = run.context(&prepared);
    let counts = run
        .chunk(&ctx, &mut *run.stream(0), run.b, ChunkHooks::default())?
        .counts;
    let order = step_down_order(&ctx, &counts);
    let mut fold = Fold::new(run, counts);
    for (block, rows) in order.chunks(GENE_TILE).enumerate().rev() {
        let mut parts = [block_scores(run, &prepared, rows, 0, run.b)];
        fold.block(block * GENE_TILE, rows, &mut parts);
    }
    Ok(ctx.finalize_in(&fold.counts, order))
}

/// Parallel minP: both passes split the arrangements over SPMD ranks in
/// contiguous chunks, as `pmaxT` splits its kernel, and each rank scores its
/// chunk through the engine. Pass 1's counts are sum-reduced onto the
/// master, which broadcasts the step-down order; in pass 2 the master
/// gathers each block and folds it. Results are bit-identical to
/// [`mt_minp`].
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
    if n_ranks == 0 {
        return Err(Error::Comm("at least one rank required".into()));
    }
    let outputs = Universe::run(n_ranks, move |comm| {
        let run = &run;
        let prepared = run.prepare(&data);
        let ctx = run.context(&prepared);
        // Contiguous chunks as `pmaxt`'s ranks take them; surplus ranks idle.
        let (start, take) = span_plan(run.b, comm.size()).expect("ranks checked")[comm.rank()];
        let chunk = run.chunk(&ctx, &mut *run.stream(start), take, ChunkHooks::default());
        let counts = chunk.expect("engine chunk").counts;
        let reduced = comm
            .reduce_sum_u64(MASTER, counts.to_flat())
            .expect("count reduction");
        let counts = reduced.map(|flat| CountAccumulator::from_flat(&flat, ctx.genes()));
        let order = counts.as_ref().map(|c| step_down_order(&ctx, c));
        let order = comm.bcast(MASTER, order).expect("order broadcast");
        let mut fold = counts.map(|c| Fold::new(run, c));
        for (block, rows) in order.chunks(GENE_TILE).enumerate().rev() {
            let part = block_scores(run, &prepared, rows, start, take);
            let gathered = comm.gather(MASTER, part).expect("score gather");
            // Each part returns to its rank once folded: no rank scores a
            // block ahead of the fold, and each frees what it allocated.
            match (&mut fold, gathered) {
                (Some(fold), Some(mut parts)) => {
                    fold.block(block * GENE_TILE, rows, &mut parts);
                    for (rank, part) in parts.into_iter().enumerate().skip(1) {
                        comm.send(rank, PART_BACK, part).expect("part return");
                    }
                }
                _ => drop(
                    comm.recv::<Vec<f64>>(MASTER, PART_BACK)
                        .expect("part return"),
                ),
            }
        }
        fold.map(|fold| ctx.finalize_in(&fold.counts, order))
    })
    .map_err(|e| Error::Comm(e.to_string()))?;
    Ok(outputs
        .into_iter()
        .next()
        .flatten()
        .expect("master produces the result"))
}

/// minP's step-down order: raw p-value ascending (raw count ascending, the
/// same order), then observed score descending, then index.
fn step_down_order(ctx: &MaxTContext<'_>, counts: &CountAccumulator) -> Vec<usize> {
    let (raw, obs) = (&counts.count_raw, ctx.observed_scores());
    let mut order: Vec<usize> = (0..ctx.genes()).collect();
    order.sort_by(|&a, &c| {
        let by_score = obs[c].partial_cmp(&obs[a]);
        raw[a]
            .cmp(&raw[c])
            .then(by_score.expect("scores are never NaN"))
    });
    order
}

/// The extremeness scores of the prepared matrix's `rows` under
/// arrangements `[start, start + take)`, gene-major: the engine's statistics
/// from a stream positioned at `start`, through the run's side.
fn block_scores(run: &Run, prepared: &Matrix, rows: &[usize], start: u64, take: u64) -> Vec<f64> {
    let block = sub_matrix(prepared, rows);
    let ctx = run.context(&block);
    let mut scores = run.scores(&ctx, &mut *run.stream(start), take);
    scores.iter_mut().for_each(|s| *s = run.opts.side.score(*s));
    scores
}

/// Pass 2 on the master: minP's counts (pass 1's raw counts, the adjusted
/// counts filled block by block), the successive minima of every
/// arrangement, and one sorted row per sorting worker.
struct Fold {
    counts: CountAccumulator,
    running_min: Vec<f64>,
    sorted: Vec<Vec<f64>>,
}

impl Fold {
    fn new(run: &Run, mut counts: CountAccumulator) -> Fold {
        debug_assert_eq!(counts.n_perm, run.b);
        counts.count_adj.fill(0);
        let b = run.b as usize;
        let sorters = run.engine.threads.min(counts.genes().min(GENE_TILE)).max(1);
        Fold {
            counts,
            running_min: vec![f64::INFINITY; b],
            sorted: (0..sorters).map(|_| Vec::with_capacity(b)).collect(),
        }
    }

    /// Fold the block of ordered genes `rows`, which starts at ordered
    /// position `first`. `parts` hold its scores in arrangement order, each
    /// gene-major over its own span of arrangements; they come back holding
    /// the rows' p-values.
    fn block(&mut self, first: usize, rows: &[usize], parts: &mut [Vec<f64>]) {
        self.p_values(rows.len(), parts);
        let b = self.counts.n_perm as f64;
        for (r, &g) in rows.iter().enumerate().rev() {
            let limit = self.counts.count_raw[g] as f64 / b + EPSILON;
            let mut mins = self.running_min.iter_mut();
            let mut count = 0u64;
            for part in parts.iter() {
                let t = part.len() / rows.len();
                for (&p, min) in part[r * t..(r + 1) * t].iter().zip(&mut mins) {
                    if p < *min {
                        *min = p;
                    }
                    count += u64::from(*min <= limit);
                }
            }
            self.counts.count_adj[first + r] = count;
        }
    }

    /// Replace every score of the block's `rows` rows with its gene's
    /// permutation p-value, the rows split over the sorting workers.
    fn p_values(&mut self, rows: usize, parts: &mut [Vec<f64>]) {
        let b = self.counts.n_perm;
        let jobs = split_chunk(0, rows as u64, self.sorted.len());
        // Each job's rows, in every part.
        let mut segments: Vec<Vec<&mut [f64]>> = jobs.iter().map(|_| Vec::new()).collect();
        for part in parts.iter_mut() {
            let t = part.len() / rows;
            let mut rest = part.as_mut_slice();
            for (job, &(_, n)) in segments.iter_mut().zip(&jobs) {
                let (head, tail) = rest.split_at_mut(n as usize * t);
                job.push(head);
                rest = tail;
            }
        }
        let work = jobs.iter().zip(segments).zip(self.sorted.iter_mut());
        let work = work.map(|((&(_, n), job), sorted)| (n as usize, job, sorted));
        run_jobs(work.collect(), |_, (n, mut job, sorted)| {
            for r in 0..n {
                sorted.clear();
                for part in &job {
                    let t = part.len() / n;
                    sorted.extend_from_slice(&part[r * t..(r + 1) * t]);
                }
                // In place: a stable sort would borrow another B-long
                // buffer, and the counts below read only `<` comparisons,
                // which equal values (-0 and +0 among them; scores are never
                // NaN) pass alike in any order.
                sorted.sort_unstable_by(f64::total_cmp);
                for part in job.iter_mut() {
                    let t = part.len() / n;
                    for z in &mut part[r * t..(r + 1) * t] {
                        // #{scores >= z - EPSILON} = B - lower_bound(z - EPSILON)
                        let bound = *z - EPSILON;
                        let below = sorted.partition_point(|&s| s < bound);
                        *z = (b - below as u64) as f64 / b as f64;
                    }
                }
            }
        });
    }
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
