//! Mergeable HDR-style histograms with a bounded relative quantile error.
//!
//! The bucket layout is the classic exponential-with-linear-sub-buckets
//! scheme: values below `2^SUB_BITS` get one exact bucket each; every
//! larger value lands in one of `2^SUB_BITS` equal-width sub-buckets of
//! its binary order of magnitude. A reported quantile is the upper edge
//! of the bucket holding the rank-`⌈q·n⌉` sample, so it never
//! under-reports and over-reports by at most a factor `2^-SUB_BITS`
//! (≈ 3.1 % with the fixed `SUB_BITS = 5`) — the property the proptest
//! suite pins against exact sorted-sample quantiles.
//!
//! Two shapes share the layout:
//!
//! * [`Histogram`] — a named bank of relaxed `AtomicU64` buckets for
//!   concurrent recording (registered process-wide through
//!   [`crate::histogram`], or owned by a subsystem such as
//!   `ft-serve`'s per-lane latency accounting);
//! * [`HistSnapshot`] — a plain, cloneable point-in-time copy with the
//!   quantile and merge API. Merging is per-bucket addition, so it is
//!   associative and commutative: shard-local snapshots can be combined
//!   in any order (loadgen merges one per client thread).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Number of linear sub-bucket bits per binary order of magnitude.
/// Quantiles over-report by at most `2^-SUB_BITS` relative.
pub const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS; // 32 sub-buckets per magnitude
/// Total bucket count: `SUB` exact low buckets plus `SUB` sub-buckets
/// for each exponent in `SUB_BITS..=63` (64 − `SUB_BITS` groups).
const BUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * SUB) as usize;

/// Bucket index holding value `v`.
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let e = 63 - u64::from(v.leading_zeros()); // v in [2^e, 2^(e+1))
        let sub = (v >> (e - u64::from(SUB_BITS))) - SUB; // 0..SUB
        (SUB + (e - u64::from(SUB_BITS)) * SUB + sub) as usize
    }
}

/// Largest value stored in bucket `idx` (the reported quantile value).
fn bucket_high(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB {
        idx
    } else {
        let group = (idx - SUB) / SUB; // exponent - SUB_BITS
        let sub = (idx - SUB) % SUB;
        let step = 1u64 << group;
        // `(step - 1)` first: the top bucket's edge is exactly
        // `u64::MAX`, so adding `step` before subtracting would overflow.
        ((SUB + sub) << group) + (step - 1)
    }
}

/// A named concurrent histogram: relaxed atomic buckets, snapshot on
/// read. Construction is `const` (the bucket bank is lazily allocated on
/// first record) so the registry can hand out `'static` references and
/// a never-recorded histogram costs no allocation.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    counts: OnceLock<Box<[AtomicU64]>>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// A new empty histogram. `const`, so subsystems can own `static`
    /// banks of them ([`crate::histogram`] is the registry route).
    pub const fn new(name: &'static str) -> Histogram {
        Histogram {
            name,
            counts: OnceLock::new(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// The histogram's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    // ft-check: hot
    /// Records one observation (relaxed atomics).
    #[inline]
    pub fn record(&self, v: u64) {
        let counts = self
            .counts
            .get_or_init(|| (0..BUCKETS).map(|_| AtomicU64::new(0)).collect());
        counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy (buckets are read relaxed; a snapshot taken
    /// concurrently with records is a valid histogram of *some* prefix
    /// of them).
    pub fn snapshot(&self) -> HistSnapshot {
        use std::sync::atomic::Ordering::Relaxed;
        let counts = match self.counts.get() {
            Some(c) => c.iter().map(|b| b.load(Relaxed)).collect(),
            None => Vec::new(),
        };
        HistSnapshot {
            counts,
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
            max: self.max.load(Relaxed),
        }
    }
}

/// A plain, mergeable histogram snapshot (same bucket layout as
/// [`Histogram`]). Also usable directly as a single-threaded recorder —
/// `ft-serve`'s load generator builds one per client and merges.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket counts; empty until the first record (an empty vector
    /// and an all-zero vector are equivalent, and `merge` normalizes).
    counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl HistSnapshot {
    /// An empty snapshot.
    pub fn new() -> HistSnapshot {
        HistSnapshot::default()
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        // Saturating: the mean degrades gracefully instead of wrapping
        // (and saturating add keeps merge associative/commutative).
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Adds `other`'s observations into `self` (per-bucket addition:
    /// associative and commutative, the shard-merge contract).
    pub fn merge(&mut self, other: &HistSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `q` in `[0, 1]`: the upper edge of the
    /// bucket holding the rank-`⌈q·n⌉` observation, clamped to the
    /// observed maximum. Never below the exact sorted-sample quantile
    /// and at most `2^-SUB_BITS` relative above it. Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_high(idx).min(self.max);
            }
        }
        self.max
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_contiguous_and_monotonic() {
        // Every bucket's high edge maps back to its own index, and
        // consecutive values never skip backwards across buckets.
        for idx in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_high(idx)), idx, "idx {idx}");
        }
        let mut last = 0;
        for v in [0u64, 1, 31, 32, 33, 63, 64, 100, 1 << 20, u64::MAX] {
            let idx = bucket_index(v);
            assert!(idx >= last, "bucket index regressed at {v}");
            assert!(bucket_high(idx) >= v);
            last = idx;
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [0u64, 5, 31, 32, 100, 999, 12_345, 1 << 30, u64::MAX / 3] {
            let hi = bucket_high(bucket_index(v));
            assert!(hi >= v);
            assert!(
                hi - v <= v / (1 << SUB_BITS) + 1,
                "bucket edge {hi} too far above {v}"
            );
        }
    }

    #[test]
    fn quantiles_bracket_known_distribution() {
        let mut h = HistSnapshot::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count, 1000);
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        assert!((500..=516).contains(&p50), "p50 {p50}");
        assert!((990..=1000).contains(&p99), "p99 {p99}");
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.max, 1000);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = HistSnapshot::new();
        let mut b = HistSnapshot::new();
        let mut all = HistSnapshot::new();
        for v in [3u64, 77, 1029, 55_555] {
            a.record(v);
            all.record(v);
        }
        for v in [4u64, 77, 90_001] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
        // Merging an empty snapshot is the identity.
        let before = a.clone();
        a.merge(&HistSnapshot::new());
        assert_eq!(a, before);
    }

    #[test]
    fn atomic_histogram_snapshot_matches_plain() {
        static H: Histogram = Histogram::new("test.hist");
        let mut plain = HistSnapshot::new();
        for v in [1u64, 2, 3, 1000, 1_000_000] {
            H.record(v);
            plain.record(v);
        }
        assert_eq!(H.snapshot(), plain);
        assert_eq!(H.name(), "test.hist");
    }
}
