//! The workload generators' random source: xoshiro256++ seeded through
//! SplitMix64. Deterministic for a given seed — the property every
//! seeded scenario, sweep and pinned example count relies on.

use std::collections::HashSet;
use std::ops::{Range, RangeInclusive};

/// The xoshiro256++ generator every workload stream draws from.
#[derive(Debug, Clone)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Creates a generator from a 64-bit seed, expanded to the 256-bit
    /// state with SplitMix64.
    pub fn seed_from_u64(state: u64) -> Self {
        let mut sm = state;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        StdRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next 64 random bits.
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

    /// Uniform sample from a range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is not a probability");
        unit_f64(self.next_u64()) < p
    }
}

#[inline]
fn unit_f64(bits: u64) -> f64 {
    // 53 high bits -> [0, 1).
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Ranges [`StdRng::random_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one uniform sample.
    fn sample_from(self, rng: &mut StdRng) -> T;
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_from(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "empty range in random_range");
                let span = (self.end as i128 - self.start as i128) as u128;
                // Widening-multiply range reduction (Lemire); the bias is
                // < span / 2^64, far below what the workloads can observe.
                let hi = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (self.start as i128 + hi) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_from(self, rng: &mut StdRng) -> $t {
                let (start, end) = self.into_inner();
                assert!(start <= end, "empty range in random_range");
                let span = (end as i128 - start as i128 + 1) as u128;
                let hi = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (start as i128 + hi) as $t
            }
        }
    )*};
}

int_range!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample_from(self, rng: &mut StdRng) -> f64 {
        assert!(self.start < self.end, "empty range in random_range");
        self.start + unit_f64(rng.next_u64()) * (self.end - self.start)
    }
}

/// Samples `amount` distinct indices uniformly from `0..length`, in
/// random order.
///
/// # Panics
///
/// Panics if `amount > length`.
pub fn sample(rng: &mut StdRng, length: usize, amount: usize) -> Vec<usize> {
    assert!(
        amount <= length,
        "cannot sample {amount} distinct indices from 0..{length}"
    );
    // Dense fraction: partial Fisher-Yates over the full range.
    if amount * 3 >= length {
        let mut pool: Vec<usize> = (0..length).collect();
        for i in 0..amount {
            let j = rng.random_range(i..length);
            pool.swap(i, j);
        }
        pool.truncate(amount);
        return pool;
    }
    // Sparse fraction: rejection sampling.
    let mut seen = HashSet::with_capacity(amount * 2);
    let mut out = Vec::with_capacity(amount);
    while out.len() < amount {
        let x = rng.random_range(0..length);
        if seen.insert(x) {
            out.push(x);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::StdRng;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<i64> = (0..32).map(|_| a.random_range(0..1_000_000)).collect();
        let ys: Vec<i64> = (0..32).map(|_| b.random_range(0..1_000_000)).collect();
        let zs: Vec<i64> = (0..32).map(|_| c.random_range(0..1_000_000)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v: usize = rng.random_range(3..17);
            assert!((3..17).contains(&v));
            let f: f64 = rng.random_range(0.5..0.95);
            assert!((0.5..0.95).contains(&f));
        }
    }

    #[test]
    fn all_values_of_small_range_appear() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 4];
        for _ in 0..1_000 {
            seen[rng.random_range(0..4usize)] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    fn random_bool_tracks_p() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| rng.random_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits={hits}");
        assert!(!rng.random_bool(0.0));
        assert!(rng.random_bool(1.0));
    }

    #[test]
    fn index_sample_is_distinct_and_in_range() {
        let mut rng = StdRng::seed_from_u64(4);
        for (length, amount) in [(100, 100), (100, 10), (1_000_000, 50)] {
            let mut ids = super::sample(&mut rng, length, amount);
            assert_eq!(ids.len(), amount);
            assert!(ids.iter().all(|&i| i < length));
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), amount, "duplicates for {length}/{amount}");
        }
    }
}
