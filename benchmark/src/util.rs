//! Small self-contained helpers: the seeded PRNG, order statistics,
//! the lock-free latency histogram the consumer callbacks write to,
//! and a text hash for the "same seed, same inputs" check.
//!
//! They live here (not in `crates/workload` or the `rand` shim) so a
//! later change to the product cannot move the benchmark's inputs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// splitmix64 (Steele, Lea, Flood 2014): one 64-bit state word, passes
/// BigCrush, and is trivially reproducible from a seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for a named purpose, so adding draws to
    /// one generator never shifts another's output.
    pub fn fork(seed: u64, stream: &str) -> Self {
        Rng(seed ^ fnv1a(stream.as_bytes()))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for
    /// every `n` the generators use.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn float(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }
}

/// FNV-1a, 64 bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xCBF2_9CE4_8422_2325, bytes)
}

pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The value at quantile `q` (0..=1) of `values`, by sorting a copy;
/// nearest-rank on the sorted sample. Returns 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn median_u64(values: &[u64]) -> f64 {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

pub fn quantile_u64(values: &[u64], q: f64) -> f64 {
    quantile(&values.iter().map(|&v| v as f64).collect::<Vec<_>>(), q)
}

/// Nanoseconds since a process-wide base instant.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Sub-buckets per power of two: 1/128 ≈ 0.8 % relative resolution.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Values up to 2⁴² ns (≈ 73 min) have a bucket; larger ones clamp.
const MAX_EXP: u32 = 42;
const BUCKETS: usize = (MAX_EXP as usize + 1) * SUB;

/// A pre-sized log-linear histogram on atomics: recording is one
/// relaxed `fetch_add`, with no lock and no allocation, so consumer
/// callbacks can write to it from the delivery worker.
pub struct Hist {
    buckets: Box<[AtomicU64]>,
}

impl Hist {
    pub fn new() -> Self {
        Hist {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn index(value: u64) -> usize {
        if value < SUB as u64 {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros(); // >= SUB_BITS
        let exp = exp.min(MAX_EXP + SUB_BITS - 1);
        let sub = ((value >> (exp - SUB_BITS)) as usize) & (SUB - 1);
        ((exp - SUB_BITS + 1) as usize * SUB + sub).min(BUCKETS - 1)
    }

    /// Lower edge of bucket `index` (the inverse of [`Hist::index`]).
    fn lower(index: usize) -> u64 {
        let row = index / SUB;
        let sub = (index % SUB) as u64;
        if row == 0 {
            sub
        } else {
            (SUB as u64 + sub) << (row - 1)
        }
    }

    pub fn record(&self, value: u64) {
        // ordering: a statistic; readers synchronise through the
        // received counter's release/acquire pair.
        self.buckets[Self::index(value)].fetch_add(1, Ordering::Relaxed);
    }

    pub fn reset(&self) {
        for b in self.buckets.iter() {
            // ordering: called between phases, when no callback runs.
            b.store(0, Ordering::Relaxed);
        }
    }

    /// A snapshot, taken after the phase's last notification was
    /// acquired through the received counter.
    fn counts(&self) -> Vec<u64> {
        // ordering: behind that acquire; see `record`.
        let load = |b: &AtomicU64| b.load(Ordering::Relaxed);
        self.buckets.iter().map(load).collect()
    }

    pub fn count(&self) -> u64 {
        self.counts().iter().sum()
    }

    /// The value at quantile `q`, interpolated linearly inside the
    /// bucket that holds it. 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let counts = self.counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let target = (total - 1) as f64 * q;
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 > target {
                let lo = Self::lower(i) as f64;
                let hi = Self::lower(i + 1) as f64;
                let inside = (target - seen as f64 + 0.5) / c as f64;
                return lo + (hi - lo) * inside.clamp(0.0, 1.0);
            }
            seen += c;
        }
        Self::lower(BUCKETS - 1) as f64
    }

    /// Upper edge of the highest non-empty bucket.
    pub fn max(&self) -> f64 {
        self.counts()
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0.0, |i| Self::lower(i + 1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_buckets_are_monotone_and_invertible() {
        let mut last = 0;
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1000,
            123_456,
            1 << 30,
            1 << 41,
        ] {
            let i = Hist::index(v);
            assert!(i >= last, "index not monotone at {v}");
            last = i;
            assert!(Hist::lower(i) <= v, "lower({i}) > {v}");
            assert!(Hist::lower(i + 1) > v, "lower({}) <= {v}", i + 1);
        }
        assert_eq!(Hist::index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn hist_quantiles_track_a_uniform_sample() {
        let h = Hist::new();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        assert_eq!(h.count(), 10_000);
        let p50 = h.quantile(0.5);
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.01, "{p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.01, "{p99}");
    }

    #[test]
    fn rng_is_reproducible_and_forks_differ() {
        let mut a = Rng(7);
        let mut b = Rng(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = Rng::fork(7, "texts");
        let mut d = Rng::fork(7, "events");
        assert_ne!(c.next_u64(), d.next_u64());
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
    }
}
