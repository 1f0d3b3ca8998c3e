//! Iterator adapter over permutation generators, for ergonomic downstream
//! use (the generator trait itself is buffer-oriented for the hot kernel).

use super::ResamplingStream;

/// Owned iterator yielding each label arrangement as a fresh `Vec<u8>`.
pub struct Permutations {
    gen: Box<dyn ResamplingStream>,
    cols: usize,
}

impl Permutations {
    /// Wrap a generator producing arrangements of `cols` labels.
    pub fn new(gen: Box<dyn ResamplingStream>, cols: usize) -> Self {
        Permutations { gen, cols }
    }

    /// Remaining arrangements.
    pub fn remaining(&self) -> u64 {
        self.gen.len() - self.gen.position()
    }

    /// Skip `n` arrangements (delegates to the generator's cheap skip).
    pub fn skip_ahead(&mut self, n: u64) {
        self.gen.skip(n);
    }
}

impl Iterator for Permutations {
    type Item = Vec<u8>;

    fn next(&mut self) -> Option<Vec<u8>> {
        let mut buf = vec![0u8; self.cols];
        if self.gen.next_into(&mut buf) {
            Some(buf)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.remaining() as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Permutations {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::ClassLabels;
    use crate::options::{PmaxtOptions, TestMethod};
    use crate::perm::build_generator;

    fn make(b: u64) -> Permutations {
        let labels = ClassLabels::new(vec![0, 0, 1, 1], TestMethod::T).unwrap();
        let opts = PmaxtOptions::default().permutations(b);
        Permutations::new(build_generator(&labels, &opts, b).unwrap(), 4)
    }

    #[test]
    fn yields_exactly_len_items() {
        let perms: Vec<_> = make(7).collect();
        assert_eq!(perms.len(), 7);
        assert_eq!(perms[0], vec![0, 0, 1, 1], "identity first");
    }

    #[test]
    fn size_hint_is_exact() {
        let mut it = make(5);
        assert_eq!(it.size_hint(), (5, Some(5)));
        assert_eq!(it.len(), 5);
        it.next();
        assert_eq!(it.len(), 4);
    }

    #[test]
    fn skip_ahead_matches_manual_drop() {
        let all: Vec<_> = make(10).collect();
        let mut it = make(10);
        it.skip_ahead(4);
        let tail: Vec<_> = it.collect();
        assert_eq!(tail, all[4..]);
    }

    #[test]
    fn composes_with_iterator_adapters() {
        let distinct: std::collections::HashSet<Vec<u8>> = make(30).collect();
        // 30 random shuffles of a 4-column two-class design hit all 6
        // arrangements with near-certainty; at minimum the identity is there.
        assert!(distinct.contains(&vec![0, 0, 1, 1]));
        assert!(distinct.len() <= 6);
    }
}
