//! The seeded serve-mix request generator. Each client replays its own
//! deterministic stream of 40-request blocks: 24 hits, 12 misses and 4
//! extends (60/30/10%) in seeded order. Two thirds of the hits and misses go
//! to the paper matrix and one third to the small one, each split evenly
//! between `t` and `wilcoxon`, so the class and working-set shares are exact
//! in every block; only the order, and which hot key a hit picks, depend on
//! the seed.

use std::collections::VecDeque;

use sprint_rng::{mix_seed, Xoshiro256};

/// What a request asks of the daemon's cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// Resubmit a key that set-up prefilled.
    Hit,
    /// A fresh seed, computed from scratch.
    Miss,
    /// A finished miss with B raised by half: only the new permutations
    /// are computed.
    Extend,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Hit, Class::Miss, Class::Extend];

    pub fn as_str(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::Miss => "miss",
            Class::Extend => "extend",
        }
    }
}

/// A request's identity: dataset (0 = paper, 1 = small), statistic,
/// permutation seed and permutation count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key {
    pub dataset: usize,
    pub wilcoxon: bool,
    pub seed: u64,
    pub b: u64,
}

/// One request of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub class: Class,
    pub key: Key,
}

/// Permutations of a miss and of a prefilled hot key.
pub const BASE_B: u64 = 1_000;
/// Hot keys per (dataset, test) combination.
pub const HOT_PER_COMBO: usize = 2;
/// Requests per block.
pub const BLOCK: usize = 40;
/// (dataset, test) combinations; see [`combo`].
const COMBOS: usize = 4;
/// Extends per block; they pick their own key.
const EXTENDS: usize = 4;

/// Combination `c` is dataset `c % 2`, with `wilcoxon` from `c = 2` on.
fn combo(c: usize) -> (usize, bool) {
    (c % 2, c >= 2)
}

/// Hits and misses per block for a combination on `dataset`. With two
/// thirds of them on the paper matrix, the mix's median latency falls
/// inside the paper-hit cluster instead of on the boundary between the two
/// working sets.
fn slots(dataset: usize) -> (usize, usize) {
    if dataset == 0 {
        (8, 4)
    } else {
        (4, 2)
    }
}

/// The keys set-up prefills, `HOT_PER_COMBO` per combination, in
/// combination order.
pub fn hot_keys(seed: u64) -> Vec<Key> {
    (0..COMBOS * HOT_PER_COMBO)
        .map(|i| {
            let (dataset, wilcoxon) = combo(i / HOT_PER_COMBO);
            // Distinct per key, and below every fresh seed.
            let seed = mix_seed(seed, i as u64) % 1_000 * 100 + i as u64 + 1;
            Key {
                dataset,
                wilcoxon,
                seed,
                b: BASE_B,
            }
        })
        .collect()
}

/// One client's endless request stream.
pub struct MixStream {
    rng: Xoshiro256,
    hot: Vec<Key>,
    last_fresh: u64,
    unextended: VecDeque<Key>,
    block: Vec<(Class, usize)>,
    pos: usize,
}

impl MixStream {
    pub fn new(seed: u64, client: u64) -> MixStream {
        MixStream {
            rng: Xoshiro256::seed_from(mix_seed(seed, 1_000 + client)),
            hot: hot_keys(seed),
            last_fresh: (client + 1) * 10_000_000,
            unextended: VecDeque::new(),
            block: Vec::with_capacity(BLOCK),
            pos: 0,
        }
    }

    fn refill(&mut self) {
        self.block.clear();
        for c in 0..COMBOS {
            let (hits, misses) = slots(combo(c).0);
            self.block
                .extend(std::iter::repeat_n((Class::Hit, c), hits));
            self.block
                .extend(std::iter::repeat_n((Class::Miss, c), misses));
        }
        self.block
            .extend(std::iter::repeat_n((Class::Extend, 0), EXTENDS));
        debug_assert_eq!(self.block.len(), BLOCK);
        self.rng.shuffle(&mut self.block);
        self.pos = 0;
    }
}

impl Iterator for MixStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.pos == self.block.len() {
            self.refill();
        }
        // An extend needs a finished miss of this client; until one
        // exists, the block's next miss goes first.
        if self.block[self.pos].0 == Class::Extend && self.unextended.is_empty() {
            let miss = (self.pos..self.block.len())
                .find(|&j| self.block[j].0 == Class::Miss)
                .expect("a block holds more misses than extends");
            self.block.swap(self.pos, miss);
        }
        let (class, c) = self.block[self.pos];
        self.pos += 1;
        let key = match class {
            Class::Hit => {
                let pick = self.rng.next_below(HOT_PER_COMBO as u64) as usize;
                self.hot[c * HOT_PER_COMBO + pick]
            }
            Class::Miss => {
                let (dataset, wilcoxon) = combo(c);
                self.last_fresh += 1;
                let key = Key {
                    dataset,
                    wilcoxon,
                    seed: self.last_fresh,
                    b: BASE_B,
                };
                self.unextended.push_back(key);
                key
            }
            Class::Extend => {
                let base = self
                    .unextended
                    .pop_front()
                    .expect("a finished miss was ensured above");
                Key {
                    b: base.b + base.b / 2,
                    ..base
                }
            }
        };
        Some(Request { class, key })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn take(seed: u64, client: u64, n: usize) -> Vec<Request> {
        MixStream::new(seed, client).take(n).collect()
    }

    #[test]
    fn same_seed_gives_the_same_sequence() {
        let a = take(7, 0, 10 * BLOCK);
        assert_eq!(a, take(7, 0, 10 * BLOCK));
        assert_ne!(a, take(8, 0, 10 * BLOCK));
        assert_ne!(a, take(7, 1, 10 * BLOCK));
    }

    #[test]
    fn every_block_holds_exact_class_and_dataset_shares() {
        for block in take(3, 0, 10 * BLOCK).chunks(BLOCK) {
            let count = |class: Class, dataset: usize| {
                block
                    .iter()
                    .filter(|r| r.class == class && r.key.dataset == dataset)
                    .count()
            };
            assert_eq!((count(Class::Hit, 0), count(Class::Hit, 1)), (16, 8));
            assert_eq!((count(Class::Miss, 0), count(Class::Miss, 1)), (8, 4));
            let extends = block.iter().filter(|r| r.class == Class::Extend).count();
            assert_eq!(extends, EXTENDS);
        }
    }

    #[test]
    fn hits_use_hot_keys_and_extends_raise_an_earlier_miss_once() {
        let hot: HashSet<Key> = hot_keys(5).into_iter().collect();
        assert_eq!(hot.len(), COMBOS * HOT_PER_COMBO);
        let (mut misses, mut extended) = (HashSet::new(), HashSet::new());
        for r in take(5, 1, 10 * BLOCK) {
            match r.class {
                Class::Hit => assert!(hot.contains(&r.key)),
                Class::Miss => {
                    assert!(!hot.contains(&r.key));
                    assert!(misses.insert(r.key), "a miss key repeated");
                }
                Class::Extend => {
                    assert_eq!(r.key.b, 1_500);
                    let base = Key { b: BASE_B, ..r.key };
                    assert!(misses.contains(&base), "extend of a key not yet missed");
                    assert!(extended.insert(base), "a key extended twice");
                }
            }
        }
    }
}
