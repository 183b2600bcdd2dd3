//! The harness's own deterministic random stream.
//!
//! Chaos runs must replay byte-identically from a seed, so the harness
//! owns its randomness outright instead of borrowing a library RNG whose
//! stream could shift under it: a SplitMix64 generator — the same
//! primitive the storage layer's bad-sector map builds on — seeded once
//! per schedule. Every draw in a run flows from that single seed.

/// A SplitMix64 stream (Steele, Lea & Flood; public-domain constants).
#[derive(Debug, Clone)]
pub struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    /// The single seeding site of the harness: every chaos run derives
    /// all of its randomness from the schedule seed passed here.
    pub fn seed(seed: u64) -> Self {
        ChaosRng {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// The next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "below(0) has no value to draw");
        self.next_u64() % n
    }

    /// Picks one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, options: &'a [T]) -> &'a T {
        &options[self.below(options.len() as u64) as usize]
    }

    /// A Bernoulli draw with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = ChaosRng::seed(7);
        let mut b = ChaosRng::seed(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaosRng::seed(1);
        let mut b = ChaosRng::seed(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn below_and_pick_stay_in_range() {
        let mut r = ChaosRng::seed(3);
        for _ in 0..256 {
            assert!(r.below(7) < 7);
        }
        let opts = [10u64, 20, 30];
        for _ in 0..32 {
            assert!(opts.contains(r.pick(&opts)));
        }
    }
}
