//! Permutation generators: the random (Monte-Carlo) and complete generators
//! of `mt.maxT`, each with skip-ahead for parallel distribution.
//!
//! The paper (§3.1) describes 24 option combinations
//! (generator × method × store) collapsing to **eight distinct
//! implementations**; this module contains exactly those eight:
//!
//! | family (methods)                | random, fixed seed | random, stored | complete |
//! |---------------------------------|--------------------|----------------|----------|
//! | shuffle (t, t.equalvar, wilcoxon, f) | [`shuffle::ShuffleFixedSeed`] | [`shuffle::ShuffleSequential`] → [`stored::StoredMatrix`] | [`shuffle::CompleteShuffle`] |
//! | paired (pairt)                  | [`paired::PairFlipFixedSeed`] | [`paired::PairFlipSequential`] → [`stored::StoredMatrix`] | [`paired::CompletePaired`] |
//! | block (blockf)                  | [`block::BlockShuffleFixedSeed`] | [`block::BlockShuffleSequential`] (never stored) | [`block::CompleteBlock`] |
//!
//! Complete generators are never stored either (paper: the option exists but
//! is served on-the-fly), and every sequence emits the **observed labelling
//! at index 0** — the "first permutation" that only the master process counts
//! (paper Figure 2).

pub mod arrangement;
pub mod block;
pub mod bootstrap;
pub mod count;
pub mod iter;
pub mod multiset;
pub mod paired;
pub mod shuffle;
pub mod stored;

use crate::error::{Error, Result};
use crate::labels::{ClassLabels, Design};
use crate::options::{PmaxtOptions, SamplingMode};

pub use arrangement::{build_stream, Arrangement, StreamPlan};

/// A deterministic, skip-ahead-capable stream of resampling draws.
///
/// This is the seam the engine, checkpoint digests and cross-daemon span
/// splitting depend on: the `j`-th draw is a pure function of the stream's
/// construction inputs, never of how the positions before `j` were consumed.
/// The sequence has a definite length (the observed arrangement at index 0,
/// then `len()−1` draws); `skip` forwards the stream, cheaply where the
/// representation allows (O(1) for fixed-seed and complete streams). This is
/// the "additional variable to the initialization function" interface of
/// paper §3.2.
///
/// What a draw *means* — a label permutation, a pair-sign flip, a block
/// shuffle, or a with-replacement bootstrap index draw — is the
/// [`Arrangement`] semantics layer on top (see [`arrangement`]); the stream
/// itself only promises deterministic bytes with skip-ahead.
pub trait ResamplingStream: Send {
    /// Total sequence length, including the observed arrangement at index 0.
    fn len(&self) -> u64;

    /// Current position (number of draws already produced/skipped).
    fn position(&self) -> u64;

    /// Write the next draw into `out`; `false` once exhausted.
    fn next_into(&mut self, out: &mut [u8]) -> bool;

    /// Advance the position by `n` without producing output.
    fn skip(&mut self, n: u64);

    /// True when the sequence is empty (never the case for validated runs).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Resolve the effective permutation count for a run: `B` itself for random
/// sampling, or the complete-arrangement count when `B = 0` (checked against
/// `max_complete`).
pub fn resolve_permutation_count(labels: &ClassLabels, opts: &PmaxtOptions) -> Result<u64> {
    if opts.b > 0 {
        return Ok(opts.b);
    }
    let total = match labels.design() {
        Design::TwoSample { n0, n1 } => count::multiset_count(&[*n0, *n1]),
        Design::MultiClass { counts } => count::multiset_count(counts),
        Design::Paired { pairs } => count::paired_count(*pairs),
        Design::Block { blocks, treatments } => count::block_count(*blocks, *treatments),
    };
    match total {
        Some(t) if t <= opts.max_complete as u128 => Ok(t as u64),
        other => Err(Error::TooManyPermutations {
            total: other,
            max: opts.max_complete,
        }),
    }
}

/// Build the permutation generator for a validated run. `b_resolved` must
/// come from [`resolve_permutation_count`].
pub fn build_generator(
    labels: &ClassLabels,
    opts: &PmaxtOptions,
    b_resolved: u64,
) -> Result<Box<dyn ResamplingStream>> {
    let base = labels.as_slice().to_vec();
    let complete = opts.b == 0;
    let gen: Box<dyn ResamplingStream> = match labels.design() {
        Design::TwoSample { .. } | Design::MultiClass { .. } => {
            if complete {
                Box::new(shuffle::CompleteShuffle::new(base, b_resolved))
            } else {
                match opts.sampling {
                    SamplingMode::FixedSeedOnTheFly => {
                        Box::new(shuffle::ShuffleFixedSeed::new(base, b_resolved, opts.seed))
                    }
                    SamplingMode::Stored => {
                        let mut seq = shuffle::ShuffleSequential::new(base, b_resolved, opts.seed);
                        Box::new(stored::StoredMatrix::materialize(&mut seq, labels.len()))
                    }
                }
            }
        }
        Design::Paired { .. } => {
            if complete {
                Box::new(paired::CompletePaired::new(base, b_resolved))
            } else {
                match opts.sampling {
                    SamplingMode::FixedSeedOnTheFly => {
                        Box::new(paired::PairFlipFixedSeed::new(base, b_resolved, opts.seed))
                    }
                    SamplingMode::Stored => {
                        let mut seq = paired::PairFlipSequential::new(base, b_resolved, opts.seed);
                        Box::new(stored::StoredMatrix::materialize(&mut seq, labels.len()))
                    }
                }
            }
        }
        Design::Block { treatments, .. } => {
            let k = *treatments;
            if complete {
                Box::new(block::CompleteBlock::new(base, k, b_resolved))
            } else {
                match opts.sampling {
                    SamplingMode::FixedSeedOnTheFly => Box::new(block::BlockShuffleFixedSeed::new(
                        base, k, b_resolved, opts.seed,
                    )),
                    // blockf is never stored: serve the request on-the-fly
                    // from the sequential stream (paper §3.1).
                    SamplingMode::Stored => Box::new(block::BlockShuffleSequential::new(
                        base, k, b_resolved, opts.seed,
                    )),
                }
            }
        }
    };
    Ok(gen)
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::ResamplingStream;

    /// Drain a generator into a vector of label arrangements.
    pub fn collect_all(gen: &mut dyn ResamplingStream, cols: usize) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let mut buf = vec![0u8; cols];
        while gen.next_into(&mut buf) {
            out.push(buf.clone());
        }
        out
    }

    /// Take up to `count` arrangements.
    pub fn collect_range(
        gen: &mut dyn ResamplingStream,
        cols: usize,
        count: usize,
    ) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let mut buf = vec![0u8; cols];
        for _ in 0..count {
            if !gen.next_into(&mut buf) {
                break;
            }
            out.push(buf.clone());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::TestMethod;
    use test_support::collect_all;

    fn opts() -> PmaxtOptions {
        PmaxtOptions::default()
    }

    #[test]
    fn resolve_random_passes_b_through() {
        let labels = ClassLabels::new(vec![0, 0, 1, 1], TestMethod::T).unwrap();
        let o = opts().permutations(777);
        assert_eq!(resolve_permutation_count(&labels, &o).unwrap(), 777);
    }

    #[test]
    fn resolve_complete_two_sample() {
        let labels = ClassLabels::new(vec![0, 0, 1, 1], TestMethod::T).unwrap();
        let o = opts().permutations(0);
        assert_eq!(resolve_permutation_count(&labels, &o).unwrap(), 6); // C(4,2)
    }

    #[test]
    fn resolve_complete_paired_and_block() {
        let pl = ClassLabels::new(vec![0, 1, 0, 1, 0, 1], TestMethod::PairT).unwrap();
        let o = opts().permutations(0);
        assert_eq!(resolve_permutation_count(&pl, &o).unwrap(), 8); // 2^3
        let bl = ClassLabels::new(vec![0, 1, 2, 0, 1, 2], TestMethod::BlockF).unwrap();
        assert_eq!(resolve_permutation_count(&bl, &o).unwrap(), 36); // (3!)^2
    }

    #[test]
    fn resolve_complete_respects_cap() {
        // 38+38 columns: C(76,38) ≈ 7e21 >> any u64 cap.
        let mut v = vec![0u8; 38];
        v.extend(vec![1u8; 38]);
        let labels = ClassLabels::new(v, TestMethod::T).unwrap();
        let o = opts().permutations(0).max_complete(1_000_000);
        match resolve_permutation_count(&labels, &o) {
            Err(Error::TooManyPermutations { total, max }) => {
                assert!(total.is_some());
                assert_eq!(max, 1_000_000);
            }
            other => panic!("expected TooManyPermutations, got {other:?}"),
        }
    }

    #[test]
    fn every_family_and_mode_builds_and_starts_with_identity() {
        let cases: Vec<(ClassLabels, PmaxtOptions)> = vec![
            // shuffle random fixed-seed / stored / complete
            (
                ClassLabels::new(vec![0, 0, 1, 1], TestMethod::T).unwrap(),
                opts().permutations(12),
            ),
            (
                ClassLabels::new(vec![0, 0, 1, 1], TestMethod::T).unwrap(),
                opts().permutations(12).fixed_seed_sampling("n").unwrap(),
            ),
            (
                ClassLabels::new(vec![0, 0, 1, 1], TestMethod::T).unwrap(),
                opts().permutations(0),
            ),
            // paired
            (
                ClassLabels::new(vec![0, 1, 1, 0], TestMethod::PairT).unwrap(),
                opts().test(TestMethod::PairT).permutations(7),
            ),
            (
                ClassLabels::new(vec![0, 1, 1, 0], TestMethod::PairT).unwrap(),
                opts()
                    .test(TestMethod::PairT)
                    .permutations(7)
                    .fixed_seed_sampling("n")
                    .unwrap(),
            ),
            (
                ClassLabels::new(vec![0, 1, 1, 0], TestMethod::PairT).unwrap(),
                opts().test(TestMethod::PairT).permutations(0),
            ),
            // block
            (
                ClassLabels::new(vec![0, 1, 1, 0], TestMethod::BlockF).unwrap(),
                opts().test(TestMethod::BlockF).permutations(9),
            ),
            (
                ClassLabels::new(vec![0, 1, 1, 0], TestMethod::BlockF).unwrap(),
                opts().test(TestMethod::BlockF).permutations(0),
            ),
        ];
        for (labels, o) in cases {
            let b = resolve_permutation_count(&labels, &o).unwrap();
            let mut g = build_generator(&labels, &o, b).unwrap();
            assert_eq!(g.len(), b);
            assert!(!g.is_empty());
            let mut out = vec![0u8; labels.len()];
            assert!(g.next_into(&mut out));
            assert_eq!(out, labels.as_slice(), "identity first for {o:?}");
        }
    }

    #[test]
    fn stored_and_sequential_agree() {
        // The stored matrix must hold exactly the sequential stream.
        let labels = ClassLabels::new(vec![0, 0, 1, 1, 1], TestMethod::T).unwrap();
        let o_stored = opts().permutations(10).fixed_seed_sampling("n").unwrap();
        let mut g_stored = build_generator(&labels, &o_stored, 10).unwrap();
        let mut g_seq =
            shuffle::ShuffleSequential::new(labels.as_slice().to_vec(), 10, o_stored.seed);
        assert_eq!(collect_all(&mut *g_stored, 5), collect_all(&mut g_seq, 5));
    }

    #[test]
    fn blockf_stored_request_is_served_on_the_fly() {
        // No StoredMatrix for blockf: equality with the sequential stream and
        // O(len) skip behaviour is all we can observe from outside; check
        // stream equality.
        let labels = ClassLabels::new(vec![0, 1, 1, 0, 0, 1], TestMethod::BlockF).unwrap();
        let o = opts()
            .test(TestMethod::BlockF)
            .permutations(8)
            .fixed_seed_sampling("n")
            .unwrap();
        let mut g = build_generator(&labels, &o, 8).unwrap();
        let mut seq = block::BlockShuffleSequential::new(labels.as_slice().to_vec(), 2, 8, o.seed);
        assert_eq!(collect_all(&mut *g, 6), collect_all(&mut seq, 6));
    }
}
