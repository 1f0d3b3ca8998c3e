//! The Monte-Carlo stream: every random draw of every design and workload,
//! built from a draw [`Rule`] and a seeding.
//!
//! A draw applies its rule to a buffer with a xoshiro256** generator. The
//! seeding says which generator:
//!
//! - **fixed-seed** (`fixed.seed.sampling = "y"`): draw `j > 0` applies the
//!   rule to the observed labels with its own
//!   `Xoshiro256::seed_from(mix_seed(seed, j))`, so `skip` is O(1) — the
//!   property that lets a rank jump straight to its chunk (paper §3.2);
//! - **sequential** (`"n"`): one `Xoshiro256::seed_from(seed)` serves every
//!   draw in order, and `skip` replays the draws it passes. Shuffles continue
//!   from the previous draw, pair flips restart from the observed labels,
//!   and a bootstrap draw overwrites every slot.
//!
//! Under both, index 0 is the observed labelling, or the identity draw for
//! bootstrap. The sequential seeding is the stream R stores; it is drawn on
//! the fly here, as the paper already serves `blockf`'s stored request, and
//! holds one n-byte vector, never the B × n matrix. Skip-ahead is for
//! ranks, peers' units and resumed runs, which position their stream once;
//! engine threads share one stream, and in-order callers keep it.

use super::ResamplingStream;
use crate::options::SamplingMode;
use crate::rng::{mix_seed, Xoshiro256};

/// What one draw does to its buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// A Fisher–Yates shuffle of the whole label vector (`t`, `t.equalvar`,
    /// `wilcoxon`, `f`, `corr`, `tmax`).
    Shuffle,
    /// A Fisher–Yates shuffle of each consecutive block of `k` treatments, in
    /// block order (`blockf`).
    BlockShuffle(usize),
    /// One coin per pair `(2j, 2j + 1)`, swapping the pair on true (`pairt`).
    PairFlip,
    /// `next_below(n)` in every slot: the source column resampled into it.
    /// The draw is an index vector, where the other rules make label vectors.
    Bootstrap,
}

impl Rule {
    fn apply(self, rng: &mut Xoshiro256, buf: &mut [u8]) {
        match self {
            Rule::Shuffle => rng.shuffle(buf),
            Rule::BlockShuffle(k) => buf.chunks_exact_mut(k).for_each(|block| rng.shuffle(block)),
            Rule::PairFlip => {
                for pair in buf.chunks_exact_mut(2) {
                    if rng.next_bool() {
                        pair.swap(0, 1);
                    }
                }
            }
            Rule::Bootstrap => {
                let n = buf.len() as u64;
                for slot in buf {
                    *slot = rng.next_below(n) as u8;
                }
            }
        }
    }
}

/// A random stream of `len` draws (the observed draw included). See the
/// module docs for the two seedings.
#[derive(Debug, Clone)]
pub struct RandomStream {
    rule: Rule,
    /// Draw 0: the observed labels, or the identity draw for bootstrap.
    base: Vec<u8>,
    seed: u64,
    /// The sequential seeding's one generator and the draw it made last;
    /// `None` under fixed-seed sampling.
    sequential: Option<(Xoshiro256, Vec<u8>)>,
    cursor: u64,
    len: u64,
}

impl RandomStream {
    /// `sampling` picks the seeding: fixed-seed for `"y"`, sequential for
    /// `"n"`.
    pub fn new(rule: Rule, base: Vec<u8>, len: u64, seed: u64, sampling: SamplingMode) -> Self {
        let sequential = match sampling {
            SamplingMode::FixedSeedOnTheFly => None,
            SamplingMode::Stored => Some((Xoshiro256::seed_from(seed), base.clone())),
        };
        RandomStream {
            rule,
            base,
            seed,
            sequential,
            cursor: 0,
            len,
        }
    }
}

/// The sequential seeding's next draw, made in `last`, which holds the draw
/// before it.
fn step(rule: Rule, base: &[u8], rng: &mut Xoshiro256, last: &mut [u8]) {
    if rule == Rule::PairFlip {
        last.copy_from_slice(base);
    }
    rule.apply(rng, last);
}

impl ResamplingStream for RandomStream {
    fn len(&self) -> u64 {
        self.len
    }

    fn position(&self) -> u64 {
        self.cursor
    }

    fn next_into(&mut self, out: &mut [u8]) -> bool {
        if self.cursor >= self.len {
            return false;
        }
        if self.cursor == 0 {
            out.copy_from_slice(&self.base);
        } else if let Some((rng, last)) = &mut self.sequential {
            step(self.rule, &self.base, rng, last);
            out.copy_from_slice(last);
        } else {
            out.copy_from_slice(&self.base);
            let mut rng = Xoshiro256::seed_from(mix_seed(self.seed, self.cursor));
            self.rule.apply(&mut rng, out);
        }
        self.cursor += 1;
        true
    }

    fn skip(&mut self, n: u64) {
        let target = self.cursor.saturating_add(n).min(self.len);
        if let Some((rng, last)) = &mut self.sequential {
            for _ in self.cursor.max(1)..target {
                step(self.rule, &self.base, rng, last);
            }
        }
        self.cursor = target;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::ClassLabels;
    use crate::options::{PmaxtOptions, TestMethod, Workload};
    use crate::perm::build_generator;
    use crate::perm::test_support::collect_all;

    /// Every rule on a small base it applies to.
    fn cases() -> [(Rule, Vec<u8>); 4] {
        [
            (Rule::Shuffle, vec![0, 0, 1, 1, 1, 2]),
            (Rule::BlockShuffle(3), vec![0, 1, 2, 2, 0, 1]),
            (Rule::PairFlip, vec![0, 1, 1, 0, 0, 1]),
            (Rule::Bootstrap, (0..6).collect()),
        ]
    }

    #[test]
    fn every_rule_and_seeding_starts_with_its_base_and_skips_as_it_replays() {
        for (rule, base) in cases() {
            for sampling in SamplingMode::ALL {
                let fresh = || RandomStream::new(rule, base.clone(), 20, 7, sampling);
                let all = collect_all(&mut fresh(), base.len());
                assert_eq!(all.len(), 20);
                assert_eq!(all[0], base, "{rule:?} {sampling:?}: observed first");
                for start in [0u64, 1, 2, 9, 19, 20] {
                    let mut g = fresh();
                    g.skip(start);
                    assert_eq!(g.position(), start);
                    let rest = collect_all(&mut g, base.len());
                    assert_eq!(rest, all[start as usize..], "{rule:?} {sampling:?} {start}");
                }
                // Reading, then skipping in hops, lands where one skip does.
                let mut g = fresh();
                let mut out = vec![0u8; base.len()];
                assert!(g.next_into(&mut out));
                g.skip(4);
                g.skip(3);
                assert!(g.next_into(&mut out));
                assert_eq!(out, all[8], "{rule:?} {sampling:?}");
            }
        }
    }

    #[test]
    fn streams_report_len_and_position_and_end_cleanly() {
        for sampling in SamplingMode::ALL {
            let mut g = RandomStream::new(Rule::Shuffle, vec![0, 1], 5, 0, sampling);
            assert_eq!((g.len(), g.position()), (5, 0));
            let mut out = [0u8; 2];
            assert!(g.next_into(&mut out));
            assert_eq!(g.position(), 1);
            g.skip(100);
            assert_eq!(g.position(), 5);
            assert!(!g.next_into(&mut out));
        }
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        for (rule, base) in cases() {
            for sampling in SamplingMode::ALL {
                let draws = |seed| {
                    collect_all(
                        &mut RandomStream::new(rule, base.clone(), 30, seed, sampling),
                        base.len(),
                    )
                };
                assert_eq!(draws(1), draws(1), "{rule:?} {sampling:?}");
                assert_ne!(draws(1), draws(2), "{rule:?} {sampling:?}");
            }
        }
    }

    /// FNV-1a over every byte of every draw.
    fn fnv(stream: &mut dyn ResamplingStream, cols: usize) -> u64 {
        collect_all(stream, cols)
            .iter()
            .flatten()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    #[test]
    fn draws_keep_the_bits_of_the_per_family_generators() {
        // Digests of 300 draws at seed 2024, recorded from the eight
        // per-family generators (fixed-seed and sequential shuffle, pair
        // flip, block shuffle and bootstrap) this stream replaced.
        let paper: Vec<u8> = (0..76).map(|c| u8::from(c >= 27)).collect();
        let pins = [
            (
                "shuffle",
                vec![0, 0, 0, 1, 1, 1, 1],
                TestMethod::T,
                Workload::Pmaxt,
                [0xd7887567d4909acd, 0xaee5179d1dcf92fd],
            ),
            (
                "shuffle, 27 + 49",
                paper.clone(),
                TestMethod::T,
                Workload::Pmaxt,
                [0xb7301379ae63cb51, 0xf4d406c106843bb9],
            ),
            (
                "three classes",
                vec![0, 1, 2, 0, 1, 2, 2, 1],
                TestMethod::F,
                Workload::Pmaxt,
                [0xb0c19646921664bd, 0xd6be3d935f279a5d],
            ),
            (
                "pairs",
                vec![0, 1, 1, 0, 0, 1, 1, 0],
                TestMethod::PairT,
                Workload::Pmaxt,
                [0xd0741d21b2356999, 0x27cadcb7f46d5901],
            ),
            (
                "blocks",
                vec![0, 1, 2, 2, 0, 1, 1, 2, 0],
                TestMethod::BlockF,
                Workload::Pmaxt,
                [0x43d53a306fb304c9, 0xcf25c37a451cc309],
            ),
            (
                "bootstrap",
                vec![0, 0, 0, 1, 1, 1, 1],
                TestMethod::T,
                Workload::Bootstrap,
                [0x0930794402f4afbd, 0x3419931cac8dfd0d],
            ),
            (
                "bootstrap, 27 + 49",
                paper,
                TestMethod::T,
                Workload::Bootstrap,
                [0x1606bcbc7a031cdf, 0x2054767e9e39c76f],
            ),
        ];
        for (name, labels, test, workload, pinned) in pins {
            for (sampling, pin) in ["y", "n"].into_iter().zip(pinned) {
                let opts = PmaxtOptions::default()
                    .test(test)
                    .workload(workload)
                    .seed(2024)
                    .permutations(300)
                    .fixed_seed_sampling(sampling)
                    .unwrap();
                let cols = labels.len();
                let labels = ClassLabels::new(labels.clone(), test).unwrap();
                let mut stream = build_generator(&labels, &opts, 300).unwrap();
                assert_eq!(fnv(&mut *stream, cols), pin, "{name}, sampling {sampling}");
            }
        }
    }
}
