//! Resampling streams: the random (Monte-Carlo) and complete generators of
//! `mt.maxT`, and the bootstrap's with-replacement draws, each with
//! skip-ahead for parallel distribution.
//!
//! The paper (§3.1) describes 24 option combinations
//! (generator × method × store) collapsing to **eight distinct
//! implementations**. Here the random ones are one type,
//! [`random::RandomStream`]: a draw [`Rule`] applied under one of two
//! seedings. The complete enumerators stay one per design:
//!
//! | family (methods)                | random rule | complete |
//! |---------------------------------|-------------|----------|
//! | shuffle (t, t.equalvar, wilcoxon, f, corr, tmax) | [`Rule::Shuffle`] | [`shuffle::CompleteShuffle`] |
//! | paired (pairt)                  | [`Rule::PairFlip`] | [`paired::CompletePaired`] |
//! | block (blockf)                  | [`Rule::BlockShuffle`] | [`block::CompleteBlock`] |
//! | bootstrap workload              | [`Rule::Bootstrap`] | — |
//!
//! | `fixed.seed.sampling` | seeding of the random stream | `skip` |
//! |-----------------------|------------------------------|--------|
//! | `"y"` (default)       | draw j from `mix_seed(seed, j)` | O(1) |
//! | `"n"` (stored in R)   | one sequential generator, drawn on the fly | replays |
//!
//! Nothing is stored: the paper already serves the stored request of
//! `blockf` and of complete enumeration from the on-the-fly generator, and
//! every design's is served that way here. [`stored::StoredMatrix`] holds
//! only the arrangements `pmaxt run --perm-file` replays. Every sequence
//! emits the **observed labelling at index 0** (the identity draw for
//! bootstrap) — the "first permutation" that only the master process counts
//! (paper Figure 2).

pub mod arrangement;
pub mod block;
pub mod bootstrap;
pub mod count;
pub mod multiset;
pub mod paired;
pub mod random;
pub mod shuffle;
pub mod stored;

use crate::error::{Error, Result};
use crate::labels::{ClassLabels, Design};
use crate::options::{PmaxtOptions, Workload};
use bootstrap::MAX_BOOTSTRAP_COLS;
use random::{RandomStream, Rule};

pub use arrangement::{build_stream, StreamPlan};

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
/// shuffle, or a with-replacement bootstrap index draw — follows from the
/// run's design and workload ([`Rule`]); the stream itself only promises
/// deterministic bytes with skip-ahead.
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

/// Build the stream of a validated run: its design's complete enumerator
/// for `B = 0`, else the random stream of its design's rule, or of
/// [`Rule::Bootstrap`] for a bootstrap run, seeded as `opts.sampling` says.
/// `b_resolved` must come from [`arrangement::resolve_draw_count`].
pub fn build_generator(
    labels: &ClassLabels,
    opts: &PmaxtOptions,
    b_resolved: u64,
) -> Result<Box<dyn ResamplingStream>> {
    let (n, boot) = (labels.len(), opts.workload == Workload::Bootstrap);
    if boot && n > MAX_BOOTSTRAP_COLS {
        return Err(Error::BadLabels(format!(
            "bootstrap draws index columns as bytes, which caps the \
             sample count at {MAX_BOOTSTRAP_COLS}; dataset has {n} columns"
        )));
    }
    let rule = match labels.design() {
        _ if boot => Rule::Bootstrap,
        Design::TwoSample { .. } | Design::MultiClass { .. } => Rule::Shuffle,
        Design::Paired { .. } => Rule::PairFlip,
        Design::Block { treatments, .. } => Rule::BlockShuffle(*treatments),
    };
    let base = match rule {
        Rule::Bootstrap => (0..n).map(|c| c as u8).collect(),
        _ => labels.as_slice().to_vec(),
    };
    Ok(match (opts.b, rule) {
        (0, Rule::Shuffle) => Box::new(shuffle::CompleteShuffle::new(base, b_resolved)),
        (0, Rule::PairFlip) => Box::new(paired::CompletePaired::new(base, b_resolved)),
        (0, Rule::BlockShuffle(k)) => Box::new(block::CompleteBlock::new(base, k, b_resolved)),
        _ => Box::new(RandomStream::new(
            rule,
            base,
            b_resolved,
            opts.seed,
            opts.sampling,
        )),
    })
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
    use crate::options::{SamplingMode, TestMethod};
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
        let two = || ClassLabels::new(vec![0, 0, 1, 1], TestMethod::T).unwrap();
        let paired = || ClassLabels::new(vec![0, 1, 1, 0], TestMethod::PairT).unwrap();
        let block = || ClassLabels::new(vec![0, 1, 1, 0], TestMethod::BlockF).unwrap();
        let pairt = || opts().test(TestMethod::PairT);
        let blockf = || opts().test(TestMethod::BlockF);
        let boot = || opts().workload(Workload::Bootstrap);
        let stored = |o: PmaxtOptions| o.fixed_seed_sampling("n").unwrap();
        // Random fixed-seed, random sequential and complete, per family.
        let cases: Vec<(ClassLabels, PmaxtOptions, Vec<u8>)> = vec![
            (two(), opts().permutations(12), vec![0, 0, 1, 1]),
            (two(), stored(opts().permutations(12)), vec![0, 0, 1, 1]),
            (two(), opts().permutations(0), vec![0, 0, 1, 1]),
            (paired(), pairt().permutations(7), vec![0, 1, 1, 0]),
            (paired(), stored(pairt().permutations(7)), vec![0, 1, 1, 0]),
            (paired(), pairt().permutations(0), vec![0, 1, 1, 0]),
            (block(), blockf().permutations(9), vec![0, 1, 1, 0]),
            (block(), stored(blockf().permutations(9)), vec![0, 1, 1, 0]),
            (block(), blockf().permutations(0), vec![0, 1, 1, 0]),
            // Bootstrap draws column indices: the identity draw first.
            (two(), boot().permutations(8), vec![0, 1, 2, 3]),
            (two(), stored(boot().permutations(8)), vec![0, 1, 2, 3]),
        ];
        for (labels, o, first) in cases {
            let b = arrangement::resolve_draw_count(&labels, &o).unwrap();
            let mut g = build_generator(&labels, &o, b).unwrap();
            assert_eq!(g.len(), b);
            assert!(!g.is_empty());
            let mut out = vec![0u8; labels.len()];
            assert!(g.next_into(&mut out));
            assert_eq!(out, first, "identity first for {o:?}");
        }
    }

    #[test]
    fn stored_sampling_is_the_sequential_seeding_for_every_design() {
        let cases = [
            (
                vec![0, 0, 1, 1, 1],
                TestMethod::T,
                Workload::Pmaxt,
                Rule::Shuffle,
            ),
            (
                vec![0, 1, 1, 0, 0, 1],
                TestMethod::PairT,
                Workload::Pmaxt,
                Rule::PairFlip,
            ),
            (
                vec![0, 1, 1, 0, 0, 1],
                TestMethod::BlockF,
                Workload::Pmaxt,
                Rule::BlockShuffle(2),
            ),
            (
                vec![0, 0, 1, 1, 1],
                TestMethod::T,
                Workload::Bootstrap,
                Rule::Bootstrap,
            ),
        ];
        for (raw, test, workload, rule) in cases {
            let labels = ClassLabels::new(raw.clone(), test).unwrap();
            let o = opts()
                .test(test)
                .workload(workload)
                .permutations(10)
                .fixed_seed_sampling("n")
                .unwrap();
            let base = match rule {
                Rule::Bootstrap => (0..raw.len() as u8).collect(),
                _ => raw.clone(),
            };
            let mut seq = RandomStream::new(rule, base, 10, o.seed, SamplingMode::Stored);
            let mut built = build_generator(&labels, &o, 10).unwrap();
            assert_eq!(
                collect_all(&mut *built, raw.len()),
                collect_all(&mut seq, raw.len()),
                "{rule:?}"
            );
        }
    }

    #[test]
    fn bootstrap_refuses_wide_datasets() {
        let mut v = vec![0u8; 150];
        v.extend(vec![1u8; 150]);
        let labels = ClassLabels::new(v, TestMethod::T).unwrap();
        let o = opts().workload(Workload::Bootstrap).permutations(10);
        match build_generator(&labels, &o, 10) {
            Err(Error::BadLabels(msg)) => assert!(msg.contains("256")),
            other => panic!("expected BadLabels, got {:?}", other.map(|_| ())),
        }
    }
}
