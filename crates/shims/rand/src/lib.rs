//! Offline stand-in for the parts of [`rand` 0.8](https://docs.rs/rand/0.8)
//! this workspace uses: [`rngs::StdRng`], [`SeedableRng::seed_from_u64`] and
//! the [`Rng`] extension methods `gen`, `gen_range` and `gen_bool` over
//! integer and float ranges.
//!
//! The generator core is SplitMix64 — deterministic, fast, and good enough
//! for the seeded synthetic-data and mask-sampling call sites in this
//! workspace. It is **not** a statistically rigorous RNG and integer ranges
//! use plain modulo reduction; see `crates/shims/README.md` for the policy.

#![forbid(unsafe_code)]

/// Concrete RNG implementations (only [`rngs::StdRng`] here).
pub mod rngs {
    /// Deterministic SplitMix64 generator, stand-in for `rand::rngs::StdRng`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        pub(crate) state: u64,
    }

    impl StdRng {
        pub(crate) fn next_u64_impl(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

/// Seedable construction, stand-in for `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for rngs::StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        // Pre-whiten the seed so nearby seeds give unrelated streams.
        let mut rng = rngs::StdRng { state: seed ^ 0x517C_C1B7_2722_0A95 };
        rng.next_u64_impl();
        rng
    }
}

/// Types that can be drawn uniformly from the generator's full output range,
/// stand-in for sampling from `rand::distributions::Standard`.
pub trait Standard: Sized {
    /// Draw one value.
    fn sample<R: Rng>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for usize {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        // 53 random bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        // 24 random bits in [0, 1).
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges a value can be drawn from, stand-in for `rand::distributions::uniform::SampleRange`.
pub trait SampleRange<T> {
    /// Draw one value from the range.
    fn sample_from<R: Rng>(self, rng: &mut R) -> T;
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi - lo) as u64 + 1;
                lo + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

int_range!(usize, u64, u32, u16, u8);

macro_rules! signed_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i64 - self.start as i64) as u64;
                (self.start as i64 + (rng.next_u64() % span) as i64) as $t
            }
        }
    )*};
}

signed_int_range!(i64, i32, i16, i8);

macro_rules! float_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let u: f64 = <f64 as Standard>::sample(rng);
                let v = self.start as f64 + (self.end as f64 - self.start as f64) * u;
                // Float rounding can land exactly on the (exclusive) upper
                // bound after narrowing; nudge back inside.
                (v as $t).clamp(self.start, <$t>::next_down(self.end))
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                let u: f64 = <f64 as Standard>::sample(rng);
                ((lo as f64 + (hi as f64 - lo as f64) * u) as $t).clamp(lo, hi)
            }
        }
    )*};
}

float_range!(f64, f32);

/// Extension methods on generators, stand-in for `rand::Rng`.
pub trait Rng {
    /// The raw 64-bit output stream.
    fn next_u64(&mut self) -> u64;

    /// Draw a uniform value of type `T` (full range for integers, `[0, 1)`
    /// for floats).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Draw a value uniformly from `range` (`a..b` or `a..=b`).
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Bernoulli draw: `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        <f64 as Standard>::sample(self) < p
    }
}

impl Rng for rngs::StdRng {
    fn next_u64(&mut self) -> u64 {
        self.next_u64_impl()
    }
}

impl<R: Rng> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;

    #[test]
    fn deterministic_across_instances() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_decorrelate() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: usize = r.gen_range(3..17);
            assert!((3..17).contains(&x));
            let y: usize = r.gen_range(5..=5);
            assert_eq!(y, 5);
            let f: f32 = r.gen_range(-0.25..0.25f32);
            assert!((-0.25..0.25).contains(&f));
            let g: f32 = r.gen_range(1e-7f32..1.0);
            assert!((1e-7..1.0).contains(&g));
        }
    }

    #[test]
    fn floats_unit_interval() {
        let mut r = StdRng::seed_from_u64(9);
        let mut sum = 0.0f64;
        for _ in 0..10_000 {
            let u: f64 = r.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = StdRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.4)).count();
        assert!((3_600..=4_400).contains(&hits), "hits {hits}");
    }
}
