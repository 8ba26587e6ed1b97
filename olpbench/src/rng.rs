//! The benchmark's own seeded generator (SplitMix64): every input is a
//! function of `--seed`, independent of any library's RNG.

/// SplitMix64 state.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of `seed`, independent of the
    /// other streams of the same seed.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5851_f42d_4c95_7f2d))))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// The SplitMix64 finaliser: a bijective 64-bit hash.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::stream(42, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::stream(42, 1).next_u64(), Rng::stream(42, 2).next_u64());
        assert_ne!(Rng::stream(42, 1).next_u64(), Rng::stream(43, 1).next_u64());
        let mut r = Rng::stream(7, 0);
        assert!((0..1000).all(|_| r.below(10) < 10));
        let hits = (0..10_000).filter(|_| r.below(4) == 0).count();
        assert!((2200..2800).contains(&hits), "{hits}");
    }
}
