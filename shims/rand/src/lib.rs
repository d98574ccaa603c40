//! Hermetic stand-in for the `rand` crate.
//!
//! The build environment has no access to a crates.io registry, so the
//! workspace vendors the *exact subset* of `rand` 0.8 it consumes:
//! [`rngs::SmallRng`] (the xoshiro256++ generator seeded via SplitMix64,
//! bit-for-bit compatible with upstream `rand` 0.8 on 64-bit targets) and
//! the `Rng`/`RngCore`/`SeedableRng` trait surface needed by
//! `atom_sim::SimRng`. Seeded streams therefore match the ones the real
//! dependency would produce, keeping every experiment reproducible.

/// The core of an RNG: raw 64-bit output.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Seeding support (the `seed_from_u64` entry point).
pub trait SeedableRng: Sized {
    /// Creates an RNG from a 64-bit seed (SplitMix64 key expansion, as in
    /// upstream `rand`).
    fn seed_from_u64(state: u64) -> Self;
}

/// Sampling of standard-distribution values (only `f64` is needed here).
pub trait Rng: RngCore {
    /// Samples a value of type `T` from its standard distribution.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }
}

impl<R: RngCore> Rng for R {}

/// Types samplable from the standard distribution.
pub trait Standard: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // Upstream rand 0.8 `Standard` for f64: 53 high bits / 2^53 in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Named generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ — the algorithm behind `rand` 0.8's `SmallRng` on
    /// 64-bit platforms.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(mut state: u64) -> Self {
            // Upstream fills the 32-byte seed with SplitMix64 output.
            let s = [
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
            ];
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_given_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_decorrelate() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_half() {
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 100_000;
        let mean = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
