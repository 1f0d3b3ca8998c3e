//! Bootstrap draws: sample-with-replacement index vectors with the same
//! deterministic, skip-ahead contract as the permutation streams.
//!
//! A draw of width `n` is a vector of *column indices*: slot `i` holds the
//! index of the source sample column resampled into position `i`. Index 0 of
//! every stream is the identity draw `0, 1, …, n−1` — the observed dataset —
//! mirroring the "first permutation is the observed labelling" convention of
//! the permutation families, so the engine's span arithmetic (master counts
//! index 0, workers skip into the tail) carries over unchanged.
//!
//! The draws are [`RandomStream`](super::random::RandomStream)s under
//! [`Rule::Bootstrap`](super::random::Rule): one `next_below(n)` per slot,
//! under either seeding. Fixed-seed sampling seeds draw `j` from
//! `mix_seed(seed, j)`; `fixed.seed.sampling = "n"` draws every replicate
//! from one sequential generator, on the fly like every other design.
//!
//! Draw slots are `u8`, which caps the sample count at 256 columns;
//! [`build_generator`](super::build_generator) and admission enforce this.

/// Hard ceiling on the sample count for bootstrap draws: indices are
/// transported in the same `u8` arrangement buffers as class labels.
pub const MAX_BOOTSTRAP_COLS: usize = 256;

#[cfg(test)]
mod tests {
    use crate::options::SamplingMode;
    use crate::perm::random::{RandomStream, Rule};
    use crate::perm::test_support::collect_all;

    #[test]
    fn draws_stay_below_width_and_repeat_indices() {
        for sampling in SamplingMode::ALL {
            let identity = (0..6).collect();
            let mut g = RandomStream::new(Rule::Bootstrap, identity, 200, 7, sampling);
            let rows = collect_all(&mut g, 6);
            assert_eq!(rows.len(), 200);
            let mut saw_repeat = false;
            for row in &rows[1..] {
                assert!(row.iter().all(|&i| (i as usize) < 6));
                let mut sorted = row.clone();
                sorted.sort_unstable();
                sorted.dedup();
                if sorted.len() < row.len() {
                    saw_repeat = true;
                }
            }
            assert!(saw_repeat, "with-replacement draws must repeat indices");
        }
    }
}
