//! Complete enumeration for the shuffle family (`t`, `t.equalvar`,
//! `wilcoxon`, `f`, `corr`, `tmax`): label arrangements are permutations of
//! the label multiset. Random shuffles are [`Rule::Shuffle`](super::random::Rule).

use super::multiset;
use super::ResamplingStream;

/// Beyond this forward gap the complete generator jumps by unranking instead
/// of stepping `next_permutation`.
const UNRANK_THRESHOLD: u128 = 64;

/// Complete enumeration of all distinct label arrangements, with the observed
/// labelling first.
///
/// Sequence: index 0 is the observed arrangement; indices `1..total` are the
/// remaining arrangements in lexicographic order (the observed one's lex slot
/// is skipped so it appears exactly once). Iteration is amortized O(n) per
/// step via `next_permutation`; `skip` jumps by multiset unranking.
#[derive(Debug, Clone)]
pub struct CompleteShuffle {
    observed: Vec<u8>,
    observed_rank: u128,
    counts: Vec<usize>,
    lex_state: Vec<u8>,
    lex_idx: u128,
    cursor: u64,
    len: u64,
}

impl CompleteShuffle {
    /// `observed` is the observed labelling; `len` must equal the validated
    /// complete count (see [`super::count::multiset_count`]).
    pub fn new(observed: Vec<u8>, len: u64) -> Self {
        let k = observed.iter().copied().max().map_or(1, |m| m as usize + 1);
        let mut counts = vec![0usize; k];
        for &v in &observed {
            counts[v as usize] += 1;
        }
        let observed_rank =
            multiset::rank(&observed, k).expect("validated complete count cannot overflow");
        let mut lex_state = observed.clone();
        lex_state.sort_unstable();
        CompleteShuffle {
            observed,
            observed_rank,
            counts,
            lex_state,
            lex_idx: 0,
            cursor: 0,
            len,
        }
    }

    /// Map a sequence index (≥1) to a lexicographic index, skipping the
    /// observed arrangement's slot.
    #[inline]
    fn lex_target(&self, seq_idx: u64) -> u128 {
        let j = (seq_idx - 1) as u128;
        if j < self.observed_rank {
            j
        } else {
            j + 1
        }
    }

    fn advance_lex_to(&mut self, target: u128) {
        if target < self.lex_idx || target - self.lex_idx > UNRANK_THRESHOLD {
            multiset::unrank(&self.counts, target, &mut self.lex_state);
            self.lex_idx = target;
            return;
        }
        while self.lex_idx < target {
            multiset::next_permutation(&mut self.lex_state);
            self.lex_idx += 1;
        }
    }
}

impl ResamplingStream for CompleteShuffle {
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
            out.copy_from_slice(&self.observed);
        } else {
            let target = self.lex_target(self.cursor);
            self.advance_lex_to(target);
            out.copy_from_slice(&self.lex_state);
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
    use crate::perm::count::multiset_count;
    use crate::perm::random::{RandomStream, Rule};
    use crate::perm::test_support::{collect_all, collect_range};

    #[test]
    fn random_shuffles_keep_the_multiset_and_differ_by_index() {
        for sampling in SamplingMode::ALL {
            let base = vec![0u8, 0, 1, 1, 1];
            let stream = &mut RandomStream::new(Rule::Shuffle, base, 50, 3, sampling);
            for labels in collect_all(stream, 5) {
                let mut s = labels.clone();
                s.sort_unstable();
                assert_eq!(s, vec![0, 0, 1, 1, 1]);
            }
            // With 76 columns the chance of two equal shuffles is
            // negligible; equality would indicate seeding reuse.
            let base: Vec<u8> = (0..76).map(|i| (i % 2) as u8).collect();
            let perms = collect_all(
                &mut RandomStream::new(Rule::Shuffle, base, 5, 1, sampling),
                76,
            );
            for i in 1..perms.len() {
                for j in (i + 1)..perms.len() {
                    assert_ne!(perms[i], perms[j], "{sampling:?} i={i} j={j}");
                }
            }
        }
    }

    #[test]
    fn complete_visits_every_arrangement_once() {
        let observed = vec![1u8, 0, 1, 0]; // deliberately not lex-first
        let total = multiset_count(&[2, 2]).unwrap() as u64;
        let mut g = CompleteShuffle::new(observed.clone(), total);
        let all = collect_all(&mut g, 4);
        assert_eq!(all.len(), total as usize);
        assert_eq!(all[0], observed);
        let mut uniq = all.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), total as usize, "no duplicates");
    }

    #[test]
    fn complete_skip_equals_iterate() {
        let observed = vec![2u8, 0, 1, 1, 0];
        let counts = [2usize, 2, 1];
        let total = multiset_count(&counts).unwrap() as u64;
        let all = collect_all(&mut CompleteShuffle::new(observed.clone(), total), 5);
        for start in 0..total {
            let mut g = CompleteShuffle::new(observed.clone(), total);
            g.skip(start);
            assert_eq!(
                collect_range(&mut g, 5, 3),
                all[start as usize..(start + 3).min(total) as usize],
                "start={start}"
            );
        }
    }

    #[test]
    fn complete_skip_large_uses_unrank() {
        // 12 columns, C(12,6) = 924 > UNRANK_THRESHOLD so jumping must
        // unrank; verify against stepping.
        let observed: Vec<u8> = (0..12).map(|i| (i % 2) as u8).collect();
        let total = multiset_count(&[6, 6]).unwrap() as u64;
        let all = collect_all(&mut CompleteShuffle::new(observed.clone(), total), 12);
        let mut g = CompleteShuffle::new(observed.clone(), total);
        g.skip(800);
        assert_eq!(collect_range(&mut g, 12, 2), all[800..802]);
    }
}
