//! In-tree stand-in for the subset of the `rand` crate used by this
//! workspace, so offline builds never touch a registry.
//!
//! The generator behind [`rngs::StdRng`] is splitmix64: tiny, fast, and
//! statistically fine for synthetic benchmark suites and fuzzing. It is
//! deterministic per seed, which the loop-suite tests rely on. The API
//! mirrors `rand 0.8` closely enough that callers written against the
//! real crate (`seed_from_u64`, `gen`, `gen_range`, `gen_bool`) compile
//! unchanged.
//!
//! It is the workspace's one splitmix64, so it also carries what the
//! fault harness and the daemon's chaos plan draw with:
//! [`StdRng::below`](rngs::StdRng::below) (multiply-shift, unlike
//! `gen_range`'s modulo), [`index`](rngs::StdRng::index),
//! [`flip`](rngs::StdRng::flip) and [`mix_seed`]. Each caller keeps its
//! own range mapping, because recorded seeds replay only under it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::ops::{Range, RangeInclusive};

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// Produce the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Constructing a generator from a seed.
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// High-level sampling helpers, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Sample a value from the "standard" distribution of `T`.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// Sample uniformly from a range (`lo..hi` or `lo..=hi`). The output
    /// type parameter lets inference flow from the use site into integer
    /// literals, as with the real crate.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Return `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        unit_f64(self.next_u64()) < p
    }
}

impl<R: RngCore> Rng for R {}

/// Map 64 random bits to a uniform `f64` in `[0, 1)`.
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Types samplable without extra parameters (`rng.gen::<T>()`).
pub trait Standard: Sized {
    /// Draw one value from `rng`.
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64())
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for u64 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

/// Ranges that [`Rng::gen_range`] can sample values of type `T` from.
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range. Panics on empty ranges,
    /// matching the real crate's contract.
    fn sample_from<R: RngCore>(self, rng: &mut R) -> T;
}

/// Integers uniformly samplable via an `i128` widening round-trip.
/// A single generic `SampleRange` impl keyed on this trait keeps type
/// inference flowing from the use site into integer literals (one
/// candidate impl per range shape, as in the real crate).
pub trait UniformInt: Copy {
    /// Widen to `i128` (lossless for every integer type up to 64 bits).
    fn to_i128(self) -> i128;
    /// Narrow from `i128`; callers guarantee the value is in range.
    fn from_i128(v: i128) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            fn to_i128(self) -> i128 {
                self as i128
            }
            fn from_i128(v: i128) -> Self {
                v as $t
            }
        }
    )*};
}

uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: UniformInt> SampleRange<T> for Range<T> {
    fn sample_from<R: RngCore>(self, rng: &mut R) -> T {
        let (lo, hi) = (self.start.to_i128(), self.end.to_i128());
        assert!(lo < hi, "cannot sample empty range");
        let span = (hi - lo) as u128;
        let off = (rng.next_u64() as u128 % span) as i128;
        T::from_i128(lo + off)
    }
}

impl<T: UniformInt> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<R: RngCore>(self, rng: &mut R) -> T {
        let (lo, hi) = (self.start().to_i128(), self.end().to_i128());
        assert!(lo <= hi, "cannot sample empty range");
        let span = (hi - lo) as u128 + 1;
        let off = (rng.next_u64() as u128 % span) as i128;
        T::from_i128(lo + off)
    }
}

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: RngCore>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + unit_f64(rng.next_u64()) * (self.end - self.start)
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: splitmix64.
    ///
    /// Not the real crate's ChaCha-based `StdRng`, but deterministic per
    /// seed and plenty for synthetic workload generation.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }

    impl StdRng {
        /// A uniform value in `0..n`. Returns 0 for `n == 0`.
        pub fn below(&mut self, n: u64) -> u64 {
            if n == 0 {
                0
            } else {
                // Multiply-shift range reduction; bias is < 2^-32 for
                // the small ranges the harness draws from.
                ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
            }
        }

        /// A uniform index into a slice of `len` elements (`len > 0`).
        pub fn index(&mut self, len: usize) -> usize {
            self.below(len as u64) as usize
        }

        /// A fair coin flip.
        pub fn flip(&mut self) -> bool {
            self.next_u64() & 1 == 1
        }
    }
}

/// Mixes an operator tag and a per-mutant counter into a base seed so
/// each (operator, index) pair gets an independent stream.
pub fn mix_seed(base: u64, tag: u64, index: u64) -> u64 {
    use rngs::StdRng;
    let mut r = StdRng::seed_from_u64(base ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    r.next_u64() ^ StdRng::seed_from_u64(index.wrapping_add(0xA076_1D64_78BD_642F)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            let v = rng.gen_range(3..9);
            assert!((3..9).contains(&v));
            let w: i32 = rng.gen_range(-5..=5);
            assert!((-5..=5).contains(&w));
            let f = rng.gen_range(0.25..0.75);
            assert!((0.25..0.75).contains(&f));
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn below_stays_in_range_and_covers() {
        let mut r = StdRng::seed_from_u64(7);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let v = r.below(5);
            assert!(v < 5);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn mix_seed_separates_operators_and_indices() {
        use super::mix_seed;
        assert_ne!(mix_seed(0, 1, 0), mix_seed(0, 2, 0));
        assert_ne!(mix_seed(0, 1, 0), mix_seed(0, 1, 1));
        assert_eq!(mix_seed(3, 1, 2), mix_seed(3, 1, 2));
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(1);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits = {hits}");
    }
}
