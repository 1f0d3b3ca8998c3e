//! `pmaxt` — the parallel permutation testing driver (paper §3.2).
//!
//! The interface is identical to the serial [`crate::maxt::serial::mt_maxt`];
//! parallelism distributes the *permutation count* (not the data) over the
//! ranks of an SPMD universe. The run follows the paper's six steps:
//!
//! 1. the master pre-processes and validates the inputs once, before any
//!    rank starts ([`crate::admit`], which also fixes the engine geometry
//!    every rank runs on);
//! 2. parameters are broadcast (lengths first in the C code; here a single
//!    typed broadcast of the admitted [`Run`]), then the dataset (one typed
//!    broadcast of the NA-canonicalized `Matrix`, which the master moves
//!    in);
//! 3. a global synchronization after allocation (a barrier here, where the
//!    C code uses a trivial allreduce);
//! 4. each rank computes its share of the permutations through the batched
//!    multi-threaded engine ([`crate::maxt::engine`]), whose workers forward
//!    their generators with `skip` (Figure 2 — the first/identity permutation
//!    is handled once, by the master, whose chunk starts at index 0);
//! 5. the master gathers the partial counts by an exact integer sum-reduction
//!    and computes raw and adjusted p-values;
//! 6. buffers are dropped (automatic in Rust).
//!
//! Each of the paper's five profiled sections is timed and reported in
//! [`PmaxtRun::profile`] with the paper's section names.

use std::sync::Mutex;

use mpi_sim::{Communicator, SectionProfile, SectionTimer, Universe, MASTER};

use crate::admit::{admit, Admitted, Entry, Run};
use crate::error::{Error, Result};
use crate::matrix::Matrix;
use crate::maxt::engine::ChunkHooks;
use crate::maxt::{CountAccumulator, MaxTResult};
use crate::options::PmaxtOptions;

/// Section names as they appear in the paper's Tables I–V.
pub mod sections {
    /// Master-side input validation and option transformation.
    pub const PRE_PROCESSING: &str = "pre-processing";
    /// Broadcast of scalar/string parameters and labels.
    pub const BROADCAST_PARAMETERS: &str = "broadcast parameters";
    /// Broadcast of the dataset and construction of the local working copy.
    pub const CREATE_DATA: &str = "create data";
    /// The permutation loop.
    pub const MAIN_KERNEL: &str = "main kernel";
    /// Count reduction and p-value computation.
    pub const COMPUTE_P_VALUES: &str = "compute p-values";
}

/// Result of a parallel run: the master's result plus its section profile.
#[derive(Debug, Clone)]
pub struct PmaxtRun {
    /// The p-values (bit-identical to the serial `mt_maxt` output).
    pub result: MaxTResult,
    /// Wall-clock time of the five paper sections, measured on the master
    /// (the view the paper's Tables I–V report).
    pub profile: SectionProfile,
    /// Every rank's section profile, in rank order (`rank_profiles[0]` is the
    /// master's). Exposes kernel load balance — the chunks differ by at most
    /// one permutation, so big spreads indicate interference, not imbalance.
    pub rank_profiles: Vec<SectionProfile>,
    /// Number of ranks used.
    pub ranks: usize,
}

impl PmaxtRun {
    /// Ratio of slowest to fastest per-rank main-kernel time (1.0 = perfectly
    /// balanced).
    pub fn kernel_imbalance(&self) -> f64 {
        let times: Vec<f64> = self
            .rank_profiles
            .iter()
            .map(|p| p.seconds(sections::MAIN_KERNEL))
            .collect();
        let min = times.iter().copied().fold(f64::INFINITY, f64::min);
        let max = times.iter().copied().fold(0.0, f64::max);
        if min > 0.0 {
            max / min
        } else {
            f64::NAN
        }
    }
}

/// The contiguous chunk of permutation indices assigned to `rank`:
/// `(start, take)`. The `b` indices are split as evenly as possible (chunks
/// differ by at most one); the master's chunk starts at index 0, so the
/// identity permutation is handled exactly once, by the master (Figure 2).
///
/// Returns an error when `size > b` — that distribution would hand at least
/// one rank an empty chunk, which is a resource-allocation mistake, not a
/// degenerate success. Drivers that tolerate surplus ranks (e.g. `pmaxt`)
/// must clamp the active rank count to `min(size, b)` *before* chunking.
pub fn chunk_for_rank(b: u64, size: u64, rank: u64) -> Result<(u64, u64)> {
    if size == 0 {
        return Err(Error::Comm("at least one rank required".into()));
    }
    if rank >= size {
        return Err(Error::Comm(format!(
            "rank {rank} out of range for {size} ranks"
        )));
    }
    if size > b {
        return Err(Error::RanksExceedPermutations { b, ranks: size });
    }
    Ok(crate::maxt::engine::split_evenly(b, size, rank))
}

/// The per-participant split of `b` permutations over `participants` workers,
/// in participant order: `plan[i] = (start, take)`. Tolerant of surplus
/// workers — the active count is clamped to `min(participants, b)` and the
/// surplus get explicit empty spans `(b, 0)` — so a cluster coordinator can
/// hand a roster of any size to any job. Participant 0's span starts at 0
/// (it owns the identity permutation, Figure 2), and spans tile `0..b`
/// contiguously in order, which is what lets a dead participant's span be
/// re-run from a prefix checkpoint.
pub fn span_plan(b: u64, participants: usize) -> Result<Vec<(u64, u64)>> {
    if participants == 0 {
        return Err(Error::Comm("at least one participant required".into()));
    }
    let active = (participants as u64).min(b);
    (0..participants as u64)
        .map(|idx| {
            if idx < active {
                chunk_for_rank(b, active, idx)
            } else {
                Ok((b, 0))
            }
        })
        .collect()
}

/// What the master rank starts the SPMD body with: the run it admitted,
/// the run's NA-canonical matrix, and the section timer whose
/// pre-processing section timed that admission (Step 1).
#[derive(Debug)]
pub struct MasterInput {
    pub timer: SectionTimer,
    pub run: Run,
    pub data: Matrix,
}

impl MasterInput {
    /// The master's input from an admission and the timer that timed it.
    /// The matrix is moved out when the entry handed its own over.
    pub fn new(timer: SectionTimer, admitted: Admitted<'_>) -> MasterInput {
        MasterInput {
            timer,
            run: admitted.run,
            data: admitted.data.into_owned(),
        }
    }
}

/// Run the parallel permutation test on `n_ranks` SPMD ranks.
///
/// Produces results bit-identical to [`crate::maxt::serial::mt_maxt`] for
/// every option combination — the generators are forwarded with `skip` so the
/// union of the per-rank permutation sequences is exactly the serial
/// sequence.
///
/// ```
/// use sprint_core::matrix::Matrix;
/// use sprint_core::options::PmaxtOptions;
/// use sprint_core::pmaxt::pmaxt;
///
/// let data = Matrix::from_vec(1, 6, vec![1.0, 2.0, 1.5, 9.0, 10.0, 9.5]).unwrap();
/// let run = pmaxt(&data, &[0, 0, 0, 1, 1, 1], &PmaxtOptions::default().permutations(0), 2)
///     .unwrap();
/// assert_eq!(run.result.b_used, 20); // complete enumeration of C(6,3)
/// assert!(run.result.adjp[0] < 0.15);
/// ```
pub fn pmaxt(
    data: &Matrix,
    classlabel: &[u8],
    opts: &PmaxtOptions,
    n_ranks: usize,
) -> Result<PmaxtRun> {
    // Step 1 — pre-processing, before any rank starts, so a refusal is a
    // typed error: admission validates the labels, canonicalizes NA and
    // resolves the permutation count and the engine geometry.
    let mut timer = SectionTimer::new();
    let entry = Entry::Spmd { ranks: n_ranks };
    let admitted = timer.time(sections::PRE_PROCESSING, || {
        admit(data, classlabel, opts, entry)
    })?;
    pmaxt_on(MasterInput::new(timer, admitted), n_ranks)
}

/// [`pmaxt`] for a run admitted at its entry: `input` starts the master
/// rank, and the workers receive the run and its matrix through the
/// broadcasts.
pub fn pmaxt_on(input: MasterInput, n_ranks: usize) -> Result<PmaxtRun> {
    if n_ranks == 0 {
        return Err(Error::Comm("at least one rank required".into()));
    }
    let slot = Mutex::new(Some(input));
    let outputs = Universe::run(n_ranks, move |comm| {
        let input = match comm.is_master() {
            true => slot.lock().ok().and_then(|mut input| input.take()),
            false => None,
        };
        pmaxt_rank(comm, input)
    })
    .map_err(|e| Error::Comm(e.to_string()))?;
    let (result, profile, rank_profiles) = outputs
        .into_iter()
        .next()
        .flatten()
        .expect("master rank produces the result");
    Ok(PmaxtRun {
        result,
        profile,
        rank_profiles,
        ranks: n_ranks,
    })
}

/// The SPMD body executed by every rank (paper §3.2, Steps 2–6).
///
/// `master` must be `Some` on the master rank, holding the run admitted
/// before the ranks started (Step 1), so no rank waits on a body that
/// cannot run; workers pass `None` — they receive everything through the
/// broadcasts. Exposed so alternative harnesses (the `sprint` framework
/// layer) can dispatch the same body over their own communicator.
///
/// The body uses five typed collectives of [`Communicator`]: it broadcasts
/// the admitted [`Run`] and the NA-canonical [`Matrix`] as values (every
/// rank receives the master's exact bits, with no byte codec in between;
/// the master moves its matrix into the broadcast), passes a barrier,
/// sum-reduces the `u64` counts and gathers the section profiles. On `p`
/// ranks that is `4(p − 1) + p⌈log₂ p⌉` messages.
///
/// Returns `Some((result, master profile, all rank profiles))` on the
/// master, `None` on workers.
pub fn pmaxt_rank(
    comm: &Communicator,
    master: Option<MasterInput>,
) -> Option<(MaxTResult, SectionProfile, Vec<SectionProfile>)> {
    let (mut timer, run, data) = match master {
        Some(MasterInput { timer, run, data }) => (timer, Some(run), Some(data)),
        None => (SectionTimer::new(), None, None),
    };

    // Step 2 — broadcast parameters: the admitted run.
    let run = timer.time(sections::BROADCAST_PARAMETERS, || {
        comm.bcast(MASTER, run).expect("param broadcast")
    });

    // Step 2/3 — create data: broadcast the NA-canonical matrix and prepare
    // the local copy, borrowing it unless the test ranks it.
    timer.start(sections::CREATE_DATA);
    let local = comm.bcast(MASTER, data).expect("data broadcast");
    let prepared = run.prepare(&local);
    timer.stop();

    // Step 3 — global synchronization after allocation. The C code uses a
    // trivial allreduce; a dissemination barrier gives the same guarantee
    // (no rank leaves before every rank has its data) without a payload.
    comm.barrier().expect("sync barrier");

    // Step 4 — main kernel: each rank processes its chunk of permutations
    // through the batched multi-threaded engine. Ranks beyond the number of
    // permutations get an empty span and contribute an empty accumulator.
    let ctx = run.context(&prepared);
    let local_counts = timer.time(sections::MAIN_KERNEL, || {
        let (start, take) = span_plan(run.b, comm.size()).expect("ranks checked")[comm.rank()];
        let chunk = run.chunk(&ctx, &mut *run.stream(start), take, ChunkHooks::default());
        chunk.expect("engine chunk").counts
    });

    // Step 5 — gather the partial observations and compute the p-values.
    let result = timer.time(sections::COMPUTE_P_VALUES, || {
        let reduced = comm
            .reduce_sum_u64(MASTER, local_counts.to_flat())
            .expect("count reduction");
        reduced.map(|flat| {
            let total = CountAccumulator::from_flat(&flat, ctx.genes());
            debug_assert_eq!(total.n_perm, run.b);
            ctx.finalize(&total)
        })
    });

    // Step 6 — free memory: automatic. Additionally gather every rank's
    // profile so the master can report load balance.
    let profile = timer.finish();
    let all_profiles = comm
        .gather(MASTER, profile.clone())
        .expect("profile gather");
    result.map(|r| {
        (
            r,
            profile,
            all_profiles.expect("master holds the gathered profiles"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxt::serial::mt_maxt;
    use crate::options::{SamplingMode, TestMethod};
    use crate::side::Side;

    fn test_data() -> (Matrix, Vec<u8>) {
        let data = Matrix::from_vec(
            4,
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
                3.5, // missing cells
            ],
        )
        .unwrap();
        (data, vec![0, 0, 0, 0, 1, 1, 1, 1])
    }

    #[test]
    fn chunks_cover_everything_exactly_once() {
        for b in [1u64, 2, 5, 23, 150] {
            for size in [1u64, 2, 3, 4, 7, 8] {
                if size > b {
                    continue; // strict: no silent empty chunks, see below
                }
                let mut covered = vec![0u32; b as usize];
                for rank in 0..size {
                    let (start, take) = chunk_for_rank(b, size, rank).unwrap();
                    assert!(take >= 1, "b={b} size={size} rank={rank}: empty chunk");
                    for i in start..start + take {
                        covered[i as usize] += 1;
                    }
                }
                assert!(
                    covered.iter().all(|&c| c == 1),
                    "b={b} size={size}: {covered:?}"
                );
            }
        }
    }

    #[test]
    fn chunks_are_balanced() {
        // Paper: "divides the permutation count into equal chunks".
        let b = 150_001u64;
        let size = 7u64;
        let takes: Vec<u64> = (0..size)
            .map(|r| chunk_for_rank(b, size, r).unwrap().1)
            .collect();
        let min = *takes.iter().min().unwrap();
        let max = *takes.iter().max().unwrap();
        assert!(max - min <= 1, "chunks differ by at most one: {takes:?}");
    }

    #[test]
    fn master_handles_identity() {
        let (start, take) = chunk_for_rank(23, 3, 0).unwrap();
        assert_eq!(start, 0);
        assert!(take >= 1);
        for rank in 1..3 {
            let (s, _) = chunk_for_rank(23, 3, rank).unwrap();
            assert!(s >= 1, "workers skip the identity");
        }
    }

    #[test]
    fn oversubscribed_distribution_is_an_explicit_error() {
        // size > b used to return silent empty chunks; now every degenerate
        // request is a typed error.
        for (b, size) in [(1u64, 2u64), (3, 8), (0, 1), (5, 100)] {
            for rank in 0..size {
                assert!(
                    chunk_for_rank(b, size, rank).is_err(),
                    "b={b} size={size} rank={rank} should be rejected"
                );
            }
        }
        assert!(
            matches!(
                chunk_for_rank(3, 8, 0),
                Err(Error::RanksExceedPermutations { b: 3, ranks: 8 })
            ),
            "oversubscription is the typed variant, not a generic Comm error"
        );
        assert!(chunk_for_rank(10, 0, 0).is_err(), "zero ranks rejected");
        assert!(chunk_for_rank(10, 3, 3).is_err(), "rank out of range");
        assert!(chunk_for_rank(10, 3, 7).is_err(), "rank out of range");
    }

    #[test]
    fn parallel_equals_serial_default_options() {
        let (data, labels) = test_data();
        let opts = PmaxtOptions::default().permutations(60);
        let serial = mt_maxt(&data, &labels, &opts).unwrap();
        for ranks in [1, 2, 3, 4, 7] {
            let par = pmaxt(&data, &labels, &opts, ranks).unwrap();
            assert_eq!(par.result, serial, "ranks={ranks}");
            assert_eq!(par.ranks, ranks);
        }
    }

    #[test]
    fn parallel_equals_serial_every_option_combination() {
        let (data, two_labels) = test_data();
        let f_labels = vec![0u8, 0, 1, 1, 2, 2, 2, 2];
        let pair_labels = vec![0u8, 1, 0, 1, 1, 0, 0, 1];
        let block_labels = vec![0u8, 1, 1, 0, 0, 1, 1, 0];
        for method in TestMethod::ALL {
            let labels: &[u8] = match method {
                TestMethod::F => &f_labels,
                TestMethod::PairT => &pair_labels,
                TestMethod::BlockF => &block_labels,
                _ => &two_labels,
            };
            for side in [Side::Abs, Side::Upper, Side::Lower] {
                for sampling in [SamplingMode::FixedSeedOnTheFly, SamplingMode::Stored] {
                    for b in [0u64, 37] {
                        let opts = PmaxtOptions {
                            test: method,
                            side,
                            sampling,
                            b,
                            ..PmaxtOptions::default()
                        };
                        let serial = mt_maxt(&data, labels, &opts).unwrap();
                        for ranks in [2, 3] {
                            let par = pmaxt(&data, labels, &opts, ranks).unwrap();
                            assert_eq!(
                                par.result, serial,
                                "method={method:?} side={side:?} sampling={sampling:?} b={b} ranks={ranks}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn spmd_body_traffic_matches_the_collective_trees() {
        // Paper §4.4: the parameter and data broadcasts, the count reduction
        // and the profile gather each cost p − 1 messages over their trees;
        // the dissemination barrier costs p⌈log₂ p⌉.
        let (data, labels) = test_data();
        let opts = PmaxtOptions::default().permutations(40);
        for p in 1..=8usize {
            let admitted = admit(&data, &labels, &opts, Entry::Spmd { ranks: p }).unwrap();
            let input = Mutex::new(Some(MasterInput::new(SectionTimer::new(), admitted)));
            let stats = Universe::run(p, move |comm| {
                let input = comm.is_master().then(|| input.lock().unwrap().take());
                pmaxt_rank(comm, input.flatten());
                comm.message_stats()
            })
            .unwrap();
            let sent: u64 = stats.iter().map(|s| s.sent).sum();
            let received: u64 = stats.iter().map(|s| s.received).sum();
            let ceil_log2 = u64::from(usize::BITS - (p - 1).leading_zeros());
            let p = p as u64;
            assert_eq!(sent, received, "p={p}: every message consumed");
            assert_eq!(sent, 4 * (p - 1) + p * ceil_log2, "p={p}");
            assert!(stats.iter().all(|s| s.collectives == 5), "p={p}: {stats:?}");
        }
    }

    #[test]
    fn profile_contains_all_five_sections() {
        let (data, labels) = test_data();
        let opts = PmaxtOptions::default().permutations(40);
        let run = pmaxt(&data, &labels, &opts, 2).unwrap();
        let names: Vec<String> = run.profile.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(
            names,
            vec![
                sections::PRE_PROCESSING,
                sections::BROADCAST_PARAMETERS,
                sections::CREATE_DATA,
                sections::MAIN_KERNEL,
                sections::COMPUTE_P_VALUES,
            ]
        );
        assert!(run.profile.get(sections::MAIN_KERNEL) > std::time::Duration::ZERO);
    }

    #[test]
    fn more_ranks_than_permutations_still_correct() {
        // b < size: surplus ranks contribute empty accumulators rather than
        // consulting the (now strict) chunk_for_rank; the run must still be
        // bit-identical to serial for every degenerate combination.
        let (data, labels) = test_data();
        for (b, ranks) in [(3u64, 8usize), (1, 2), (1, 5), (2, 3), (5, 6), (7, 12)] {
            let opts = PmaxtOptions::default().permutations(b);
            let serial = mt_maxt(&data, &labels, &opts).unwrap();
            let par = pmaxt(&data, &labels, &opts, ranks).unwrap();
            assert_eq!(par.result, serial, "b={b} ranks={ranks}");
            assert_eq!(par.result.b_used, b);
        }
    }

    #[test]
    fn b_equal_one_only_identity() {
        let (data, labels) = test_data();
        let opts = PmaxtOptions::default().permutations(1);
        let par = pmaxt(&data, &labels, &opts, 3).unwrap();
        // Only the identity: all computable p-values are exactly 1.
        for g in 0..3 {
            assert_eq!(par.result.rawp[g], 1.0);
            assert_eq!(par.result.adjp[g], 1.0);
        }
        assert_eq!(par.result.b_used, 1);
    }

    #[test]
    fn invalid_inputs_are_typed_errors() {
        let (data, _) = test_data();
        let opts = PmaxtOptions::default();
        assert!(matches!(
            pmaxt(&data, &[0, 1], &opts, 2),
            Err(Error::BadLabels(_))
        ));
        assert!(matches!(
            pmaxt(&data, &[0; 8], &opts, 2),
            Err(Error::BadLabels(_))
        ));
        assert!(pmaxt(&data, &[0, 0, 0, 0, 1, 1, 1, 1], &opts, 0).is_err());
    }

    #[test]
    fn nan_gene_propagates_in_parallel() {
        let (data, labels) = test_data();
        // Make gene 1 constant → NaN statistic.
        let mut v = data.as_slice().to_vec();
        for c in 0..8 {
            v[8 + c] = 3.3;
        }
        let data = Matrix::from_vec(4, 8, v).unwrap();
        let opts = PmaxtOptions::default().permutations(30);
        let par = pmaxt(&data, &labels, &opts, 3).unwrap();
        assert!(par.result.rawp[1].is_nan());
        assert!(par.result.adjp[1].is_nan());
        assert!(par.result.rawp[0].is_finite());
    }
}

#[cfg(test)]
mod rank_profile_tests {
    use super::*;

    #[test]
    fn every_rank_reports_a_profile() {
        let data = Matrix::from_vec(
            2,
            6,
            vec![1.0, 2.0, 1.5, 9.0, 10.0, 9.5, 5.0, 4.0, 6.0, 5.5, 4.5, 5.2],
        )
        .unwrap();
        let opts = PmaxtOptions::default().permutations(50);
        let run = pmaxt(&data, &[0, 0, 0, 1, 1, 1], &opts, 4).unwrap();
        assert_eq!(run.rank_profiles.len(), 4);
        // Master's entry matches the top-level profile.
        assert_eq!(
            run.rank_profiles[0].seconds(sections::MAIN_KERNEL),
            run.profile.seconds(sections::MAIN_KERNEL)
        );
        // Every rank ran the kernel.
        for (r, p) in run.rank_profiles.iter().enumerate() {
            assert!(
                p.get(sections::MAIN_KERNEL) > std::time::Duration::ZERO,
                "rank {r} kernel not timed"
            );
        }
        let imb = run.kernel_imbalance();
        assert!(imb.is_nan() || imb >= 1.0);
    }

    #[test]
    fn single_rank_profile_list_has_one_entry() {
        let data = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let opts = PmaxtOptions::default().permutations(10);
        let run = pmaxt(&data, &[0, 0, 1, 1], &opts, 1).unwrap();
        assert_eq!(run.rank_profiles.len(), 1);
        assert_eq!(run.ranks, 1);
    }
}
