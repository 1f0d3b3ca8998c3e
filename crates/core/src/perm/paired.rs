//! Complete enumeration for the paired design (`pairt`): a permutation is a
//! pattern of within-pair label swaps (sign flips of the pair differences).
//! Random flips are [`Rule::PairFlip`](super::random::Rule).

use super::ResamplingStream;

#[inline]
fn flip_pair(labels: &mut [u8], j: usize) {
    labels.swap(2 * j, 2 * j + 1);
}

/// Complete enumeration of all `2^pairs` flip patterns. Pattern `b` flips
/// pair `j` iff bit `j` of `b` is set; pattern 0 is the observed labelling,
/// so the identity-first convention holds with no reordering. `skip` is O(1).
#[derive(Debug, Clone)]
pub struct CompletePaired {
    base: Vec<u8>,
    pairs: usize,
    cursor: u64,
    len: u64,
}

impl CompletePaired {
    /// `base` is the observed labelling; `len` must equal `2^pairs` (already
    /// validated against the cap).
    pub fn new(base: Vec<u8>, len: u64) -> Self {
        let pairs = base.len() / 2;
        CompletePaired {
            base,
            pairs,
            cursor: 0,
            len,
        }
    }
}

impl ResamplingStream for CompletePaired {
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
        out.copy_from_slice(&self.base);
        for j in 0..self.pairs {
            if self.cursor >> j & 1 == 1 {
                flip_pair(out, j);
            }
        }
        self.cursor += 1;
        true
    }

    fn skip(&mut self, n: u64) {
        self.cursor = self.cursor.saturating_add(n).min(self.len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::SamplingMode;
    use crate::perm::random::{RandomStream, Rule};
    use crate::perm::test_support::{collect_all, collect_range};

    const BASE: [u8; 6] = [0, 1, 1, 0, 0, 1];

    #[test]
    fn random_flips_stay_within_pairs() {
        for sampling in SamplingMode::ALL {
            let stream = &mut RandomStream::new(Rule::PairFlip, BASE.to_vec(), 30, 5, sampling);
            for labels in &collect_all(stream, 6) {
                for j in 0..3 {
                    let (a, b) = (labels[2 * j], labels[2 * j + 1]);
                    assert!(a != b && a <= 1 && b <= 1, "pair {j} of {labels:?}");
                }
            }
        }
    }

    #[test]
    fn complete_enumerates_all_patterns_once() {
        let mut g = CompletePaired::new(BASE.to_vec(), 8);
        let all = collect_all(&mut g, 6);
        assert_eq!(all.len(), 8);
        assert_eq!(all[0], BASE.to_vec());
        let mut uniq = all.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 8);
    }

    #[test]
    fn complete_skip_equals_iterate() {
        let all = collect_all(&mut CompletePaired::new(BASE.to_vec(), 8), 6);
        for start in 0..8u64 {
            let mut g = CompletePaired::new(BASE.to_vec(), 8);
            g.skip(start);
            assert_eq!(
                collect_range(&mut g, 6, 2),
                all[start as usize..(start as usize + 2).min(8)]
            );
        }
    }

    #[test]
    fn complete_pattern_matches_bits() {
        // Pattern 5 = 0b101 flips pairs 0 and 2.
        let mut g = CompletePaired::new(BASE.to_vec(), 8);
        g.skip(5);
        let mut out = [0u8; 6];
        assert!(g.next_into(&mut out));
        let mut expect = BASE;
        expect.swap(0, 1);
        expect.swap(4, 5);
        assert_eq!(out, expect);
    }

    #[test]
    fn random_flips_are_balanced() {
        // Over many draws each pair should flip about half the time.
        let n = 4000u64;
        for sampling in SamplingMode::ALL {
            let mut g = RandomStream::new(Rule::PairFlip, BASE.to_vec(), n + 1, 99, sampling);
            let mut out = [0u8; 6];
            let mut flips = [0usize; 3];
            g.next_into(&mut out); // identity
            for _ in 0..n {
                assert!(g.next_into(&mut out));
                for j in 0..3 {
                    if out[2 * j] != BASE[2 * j] {
                        flips[j] += 1;
                    }
                }
            }
            for &f in &flips {
                assert!((f as f64 - n as f64 / 2.0).abs() < 5.0 * (n as f64 / 4.0).sqrt());
            }
        }
    }
}
