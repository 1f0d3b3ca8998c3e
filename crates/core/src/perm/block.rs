//! Complete enumeration for the block design (`blockf`): a permutation
//! independently rearranges the treatment labels *within* each block. There
//! are `(k!)^m` arrangements — "a huge amount of permutations" (paper §3.1) —
//! which is why the paper never stores them. Random within-block shuffles
//! are [`Rule::BlockShuffle`](super::random::Rule).

use super::ResamplingStream;

/// Write the permutation of `0..k` with Lehmer (factoradic) index `idx` into
/// `perm`. Index 0 is the identity.
pub(crate) fn lehmer_unrank(mut idx: u64, perm: &mut [u8]) {
    let k = perm.len();
    // Factoradic digits: idx = Σ d_i · (k−1−i)!, 0 ≤ d_i ≤ k−1−i.
    let mut avail: Vec<u8> = (0..k as u8).collect();
    // fact starts at (k−1)! and is divided down to 0! as positions fill.
    let mut fact: u64 = (1..k as u64).product::<u64>().max(1);
    for (i, slot) in perm.iter_mut().enumerate() {
        let d = (idx / fact) as usize;
        idx %= fact;
        *slot = avail.remove(d);
        fact = fact.checked_div((k - 1 - i) as u64).unwrap_or(1);
    }
}

/// Complete enumeration of all `(k!)^m` within-block arrangements via a
/// mixed-radix counter: arrangement index `b` applies the permutation with
/// Lehmer index `(b / (k!)^j) mod k!` to block `j`'s observed labels. Index 0
/// applies the identity everywhere, so the identity-first convention holds
/// naturally. `skip` is O(1).
#[derive(Debug, Clone)]
pub struct CompleteBlock {
    base: Vec<u8>,
    blocks: usize,
    k: usize,
    kfact: u64,
    cursor: u64,
    len: u64,
    perm_buf: Vec<u8>,
}

impl CompleteBlock {
    /// `base` is the observed labelling; `len` must equal `(k!)^m` (already
    /// validated against the cap, hence it fits in u64).
    pub fn new(base: Vec<u8>, k: usize, len: u64) -> Self {
        let blocks = base.len() / k;
        let kfact: u64 = (1..=k as u64).product();
        CompleteBlock {
            base,
            blocks,
            k,
            kfact,
            cursor: 0,
            len,
            perm_buf: vec![0; k],
        }
    }
}

impl ResamplingStream for CompleteBlock {
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
        let mut idx = self.cursor;
        for b in 0..self.blocks {
            let digit = idx % self.kfact;
            idx /= self.kfact;
            lehmer_unrank(digit, &mut self.perm_buf);
            let src = &self.base[b * self.k..(b + 1) * self.k];
            let dst = &mut out[b * self.k..(b + 1) * self.k];
            for (pos, &p) in self.perm_buf.iter().enumerate() {
                dst[pos] = src[p as usize];
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

    // Two blocks of three treatments; block 2's observed order is not sorted.
    const BASE: [u8; 6] = [0, 1, 2, 2, 0, 1];

    fn blocks_valid(labels: &[u8], k: usize) {
        for b in 0..labels.len() / k {
            let mut seen = vec![false; k];
            for &l in &labels[b * k..(b + 1) * k] {
                assert!(!seen[l as usize], "repeat in block {b} of {labels:?}");
                seen[l as usize] = true;
            }
        }
    }

    #[test]
    fn lehmer_unrank_enumerates_sym3() {
        let mut seen = Vec::new();
        let mut p = [0u8; 3];
        for idx in 0..6 {
            lehmer_unrank(idx, &mut p);
            seen.push(p.to_vec());
        }
        assert_eq!(seen[0], vec![0, 1, 2], "index 0 is identity");
        let mut uniq = seen.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 6);
    }

    #[test]
    fn lehmer_unrank_identity_for_k1() {
        let mut p = [0u8; 1];
        lehmer_unrank(0, &mut p);
        assert_eq!(p, [0]);
    }

    #[test]
    fn random_shuffles_stay_within_blocks() {
        for sampling in SamplingMode::ALL {
            let mut g = RandomStream::new(Rule::BlockShuffle(3), BASE.to_vec(), 25, 11, sampling);
            for labels in &collect_all(&mut g, 6) {
                blocks_valid(labels, 3);
            }
        }
    }

    #[test]
    fn complete_enumerates_all_once() {
        // (3!)^2 = 36 arrangements.
        let mut g = CompleteBlock::new(BASE.to_vec(), 3, 36);
        let all = collect_all(&mut g, 6);
        assert_eq!(all.len(), 36);
        assert_eq!(all[0], BASE.to_vec(), "identity first");
        let mut uniq = all.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 36);
        for labels in &all {
            blocks_valid(labels, 3);
        }
    }

    #[test]
    fn complete_skip_equals_iterate() {
        let all = collect_all(&mut CompleteBlock::new(BASE.to_vec(), 3, 36), 6);
        for start in [0u64, 1, 17, 35] {
            let mut g = CompleteBlock::new(BASE.to_vec(), 3, 36);
            g.skip(start);
            assert_eq!(
                collect_range(&mut g, 6, 4),
                all[start as usize..(start as usize + 4).min(36)]
            );
        }
    }

    #[test]
    fn complete_two_treatments() {
        // k = 2, m = 3: (2!)^3 = 8 arrangements.
        let base = vec![0u8, 1, 1, 0, 0, 1];
        let all = collect_all(&mut CompleteBlock::new(base.clone(), 2, 8), 6);
        assert_eq!(all.len(), 8);
        assert_eq!(all[0], base);
        let mut uniq = all;
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 8);
    }
}
