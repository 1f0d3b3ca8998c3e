//! Deterministic, seedable random number generation with O(1) stream
//! derivation — the single splitmix64/xoshiro256** implementation shared by
//! the whole workspace.
//!
//! The paper's `fixed.seed.sampling = "y"` mode derives the *b*-th permutation
//! from a seed that is a pure function of the permutation index *b*. That is
//! the property that lets a parallel rank jump straight to its chunk of the
//! permutation sequence without replaying its predecessors (paper §3.2,
//! Figure 2). We implement the same idea with SplitMix64 seeding a
//! xoshiro256** stream per index.
//!
//! We deliberately implement the generators in-crate rather than depending on
//! an external `rand`: the skip-ahead semantics of the permutation sequence
//! are part of this workspace's *specification* (parallel results must be
//! bit-identical to serial), so the stream derivation must be pinned down,
//! not delegated. Both `sprint_core::rng` and the vendored `rand` shim
//! re-use this crate, so there is exactly one splitmix64 in the tree and the
//! pinned-sequence tests below guard every seed-derived stream at once.

/// SplitMix64 — used to expand a user seed into xoshiro state and to mix a
/// permutation index into a fresh seed.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create from a raw seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Derive the seed for permutation index `index` from the user seed.
///
/// This is the fixed-seed-sampling function: deterministic, stateless, O(1).
#[inline]
pub fn mix_seed(seed: u64, index: u64) -> u64 {
    // Feed both through SplitMix so adjacent indices give uncorrelated seeds.
    let mut sm = SplitMix64::new(seed ^ index.wrapping_mul(0xA076_1D64_78BD_642F));
    sm.next_u64()
}

/// xoshiro256** — the work-horse PRNG for shuffles and sampling.
#[derive(Debug, Clone)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seed via SplitMix64 expansion (the reference seeding procedure).
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // All-zero state is invalid for xoshiro; SplitMix64 cannot produce
        // four consecutive zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256 { s }
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `0..bound` (bound > 0) by Lemire's nearly-
    /// divisionless method, bias-free: the threshold `2^64 mod bound` is
    /// below `bound`, so it is computed only for a product whose low half is.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Fast path for powers of two.
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        let mut m = (self.next_u64() as u128) * (bound as u128);
        if (m as u64) < bound {
            let threshold = bound.wrapping_neg() % bound;
            while (m as u64) < threshold {
                m = (self.next_u64() as u128) * (bound as u128);
            }
        }
        (m >> 64) as u64
    }

    /// One uniformly random bit.
    #[inline]
    pub fn next_bool(&mut self) -> bool {
        // Use the high bit: xoshiro's low bits are the weakest.
        self.next_u64() >> 63 == 1
    }

    /// Fisher–Yates shuffle of `slice`.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_known_answer() {
        // Vigna's reference: splitmix64(0) first outputs.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(sm.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn pinned_sequences_do_not_move() {
        // Every permutation stream, dataset generator and digest in the
        // workspace is derived from these primitives; the exact outputs are
        // part of the on-disk compatibility surface (checkpoints, caches).
        // Values recorded from the implementation this crate was extracted
        // from — if this test fails, seeds and digests have moved.
        let mut x = Xoshiro256::seed_from(42);
        assert_eq!(x.next_u64(), 0x15780b2e0c2ec716);
        assert_eq!(x.next_u64(), 0x6104d9866d113a7e);
        assert_eq!(x.next_u64(), 0xae17533239e499a1);
        assert_eq!(x.next_u64(), 0xecb8ad4703b360a1);
        let mut x = Xoshiro256::seed_from(0);
        assert_eq!(x.next_u64(), 0x99ec5f36cb75f2b4);
        assert_eq!(x.next_u64(), 0xbf6e1f784956452a);
        assert_eq!(x.next_u64(), 0x1a5f849d4933e6e0);
        assert_eq!(x.next_u64(), 0x6aa594f1262d2d2c);
        assert_eq!(mix_seed(44_561, 1), 0xc2c26ad2bb0f3d62);
        assert_eq!(mix_seed(44_561, 2), 0x5cdcbcf8998348b4);
        assert_eq!(mix_seed(0, 0), 0xe220a8397b1dcdaf);
    }

    #[test]
    fn mix_seed_is_deterministic_and_spread() {
        let s1 = mix_seed(42, 0);
        let s2 = mix_seed(42, 1);
        let s3 = mix_seed(43, 0);
        assert_ne!(s1, s2);
        assert_ne!(s1, s3);
        assert_eq!(mix_seed(42, 0), s1);
    }

    #[test]
    fn xoshiro_determinism() {
        let mut a = Xoshiro256::seed_from(7);
        let mut b = Xoshiro256::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = Xoshiro256::seed_from(99);
        for bound in [1u64, 2, 3, 7, 16, 76, 1000] {
            for _ in 0..500 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_takes_the_values_and_draws_of_the_eager_threshold() {
        // The form that computes the threshold on every call.
        fn eager(rng: &mut Xoshiro256, bound: u64) -> u64 {
            if bound.is_power_of_two() {
                return rng.next_u64() & (bound - 1);
            }
            let threshold = bound.wrapping_neg() % bound;
            loop {
                let m = (rng.next_u64() as u128) * (bound as u128);
                if (m as u64) >= threshold {
                    return (m >> 64) as u64;
                }
            }
        }
        // Small bounds, one just past 2^32, one just past 2^63 (which
        // rejects almost half the products) and the largest.
        for bound in [3u64, 76, (1 << 32) + 1, (1 << 63) + 1, u64::MAX] {
            for seed in 0..200u64 {
                let mut lazy = Xoshiro256::seed_from(seed);
                let mut reference = lazy.clone();
                for _ in 0..50 {
                    let got = lazy.next_below(bound);
                    assert_eq!(
                        got,
                        eager(&mut reference, bound),
                        "bound {bound}, seed {seed}"
                    );
                }
                assert_eq!(
                    lazy.s, reference.s,
                    "bound {bound}, seed {seed}: generator state"
                );
            }
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256::seed_from(3);
        let mut v: Vec<u32> = (0..76).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..76).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..76).collect::<Vec<_>>(),
            "shuffle of 76 left input unchanged"
        );
    }
}
