//! Fixed-bucket latency histograms.
//!
//! A [`Histogram`] is a lock-free, fixed-size bucket array over `u64`
//! samples (the serving layer records microseconds). Recording is a handful
//! of relaxed atomic ops — safe to call from many worker threads — and
//! quantile queries read a consistent-enough snapshot for operational
//! reporting (`METRICS`). Memory is constant: no
//! allocation ever happens after construction, matching the crate's
//! zero-dependency, bounded-overhead discipline.
//!
//! # Bucket layout (HDR-style)
//!
//! Plain power-of-two buckets report a quantile as the bucket's upper
//! bound, which can overstate by almost 2× (a p99 of 17 ms reads as
//! `32767 µs`). This histogram keeps the geometric range but subdivides it:
//!
//! * values `< 32` get one **exact** bucket each (error 0),
//! * each power-of-two major `[2^p, 2^(p+1))` for `p in 5..40` is split
//!   into 16 **linear sub-buckets**, bounding the relative quantile error
//!   by `1/16 ≈ 6%`,
//! * values `>= 2^40` (~12.7 days in µs) land in one **overflow** bucket
//!   whose largest sample is tracked exactly.
//!
//! A reported quantile is the *inclusive upper bound* of the sub-bucket
//! holding the requested rank, further capped by the largest sample seen —
//! conservative (never understates) but tight. When any sample has hit the
//! overflow bucket, [`Histogram::saturated`] returns `true` so exporters
//! can flag the tail as clipped; quantiles landing there report the tracked maximum, a real number rather
//! than a cap.

use std::sync::atomic::{AtomicU64, Ordering};

/// Values below this have an exact bucket each.
const EXACT_LIMIT: u64 = 32;
/// log2 of [`EXACT_LIMIT`]: the first subdivided major.
const FIRST_MAJOR: u32 = 5;
/// Majors `FIRST_MAJOR..LAST_MAJOR` are subdivided; `2^LAST_MAJOR` is the
/// start of the overflow bucket.
const LAST_MAJOR: u32 = 40;
/// Linear sub-buckets per major — the quantile resolution (`1/16`).
const SUB_BUCKETS: usize = 16;

/// Total bucket count: exact buckets, subdivided majors, one overflow.
pub const BUCKET_COUNT: usize =
    EXACT_LIMIT as usize + (LAST_MAJOR - FIRST_MAJOR) as usize * SUB_BUCKETS + 1;

/// Index of the overflow bucket (samples `>= 2^LAST_MAJOR`).
const OVERFLOW: usize = BUCKET_COUNT - 1;

/// A fixed-bucket concurrent histogram of `u64` samples.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKET_COUNT],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Bucket index for a sample: exact below [`EXACT_LIMIT`], then the
    /// top 4 bits after the leading one select a linear sub-bucket within
    /// the sample's power-of-two major; `>= 2^LAST_MAJOR` overflows.
    fn bucket_of(v: u64) -> usize {
        if v < EXACT_LIMIT {
            return v as usize;
        }
        let p = 63 - v.leading_zeros();
        if p >= LAST_MAJOR {
            return OVERFLOW;
        }
        let sub = ((v >> (p - 4)) & (SUB_BUCKETS as u64 - 1)) as usize;
        EXACT_LIMIT as usize + (p - FIRST_MAJOR) as usize * SUB_BUCKETS + sub
    }

    /// Inclusive upper bound of bucket `i` (the value a quantile reports).
    /// The overflow bucket has no finite bound of its own; the tracked
    /// maximum stands in for it at query time.
    fn bucket_upper(i: usize) -> u64 {
        if i < EXACT_LIMIT as usize {
            return i as u64;
        }
        if i >= OVERFLOW {
            return u64::MAX;
        }
        let rel = i - EXACT_LIMIT as usize;
        let p = FIRST_MAJOR + (rel / SUB_BUCKETS) as u32;
        let sub = (rel % SUB_BUCKETS) as u64;
        // Sub-bucket width within major p is 2^(p-4).
        (1u64 << p) + (sub + 1) * (1u64 << (p - 4)) - 1
    }

    /// Records one sample. A few relaxed atomic ops — callable concurrently
    /// from any number of threads.
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample recorded so far (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean sample, or 0 with no samples.
    pub fn mean(&self) -> u64 {
        self.sum().checked_div(self.count()).unwrap_or(0)
    }

    /// True when at least one sample exceeded the bucketed range
    /// (`>= 2^40`): quantiles in that tail report the tracked maximum
    /// rather than a bucket bound, and exporters should flag the
    /// distribution as clipped.
    pub fn saturated(&self) -> bool {
        self.buckets[OVERFLOW].load(Ordering::Relaxed) > 0
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// containing that rank, capped by the largest recorded sample; 0 when
    /// empty. `quantile(0.5)` is the median upper bound, `quantile(0.99)`
    /// the p99. Error is at most `1/16` of the true value (exact below 32);
    /// ranks falling in the overflow bucket report the tracked maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        let snapshot: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = snapshot.iter().sum();
        if total == 0 {
            return 0;
        }
        // Rank of the requested quantile among `total` ordered samples,
        // 1-based and clamped: q = 0 → first sample, q = 1 → last.
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in snapshot.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // max() also bounds every sample from above, so the min of
                // the two stays a conservative (never understating) report
                // and turns the unbounded overflow bucket into a number.
                return Self::bucket_upper(i).min(self.max());
            }
        }
        self.max()
    }

    /// Number of samples across `parts` (the count a merged view reports).
    pub fn merged_count(parts: &[&Histogram]) -> u64 {
        parts.iter().map(|h| h.count()).sum()
    }

    /// Largest sample across `parts` (0 when all are empty).
    pub fn merged_max(parts: &[&Histogram]) -> u64 {
        parts.iter().map(|h| h.max()).max().unwrap_or(0)
    }

    /// The `q`-quantile over the *union* of several histograms, computed by
    /// summing bucket counts across `parts` — no merged copy is built. This
    /// is what sliding-window views use: the window is a ring of per-slice
    /// histograms and a quantile query merges the ring on the fly. Same
    /// semantics as [`Histogram::quantile`] (conservative upper bound,
    /// capped by the largest sample seen in any part).
    pub fn merged_quantile(parts: &[&Histogram], q: f64) -> u64 {
        let mut total = 0u64;
        for h in parts {
            total += h.count.load(Ordering::Relaxed);
        }
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for i in 0..BUCKET_COUNT {
            for h in parts {
                seen += h.buckets[i].load(Ordering::Relaxed);
            }
            if seen >= rank {
                return Self::bucket_upper(i).min(Self::merged_max(parts));
            }
        }
        Self::merged_max(parts)
    }

    /// Resets every bucket and the count/sum/max to zero.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.max(), 0);
        assert!(!h.saturated());
    }

    #[test]
    fn bucket_boundaries() {
        // Exact region: identity.
        for v in 0..EXACT_LIMIT {
            assert_eq!(Histogram::bucket_of(v), v as usize);
            assert_eq!(Histogram::bucket_upper(v as usize), v);
        }
        // First subdivided major: [32, 64) in 16 sub-buckets of width 2.
        assert_eq!(Histogram::bucket_of(32), 32);
        assert_eq!(Histogram::bucket_of(33), 32);
        assert_eq!(Histogram::bucket_of(34), 33);
        assert_eq!(Histogram::bucket_of(63), 47);
        assert_eq!(Histogram::bucket_upper(32), 33);
        assert_eq!(Histogram::bucket_upper(47), 63);
        // Next major starts a fresh run of 16.
        assert_eq!(Histogram::bucket_of(64), 48);
        assert_eq!(Histogram::bucket_upper(48), 67);
        // Overflow.
        assert_eq!(Histogram::bucket_of(1 << 40), BUCKET_COUNT - 1);
        assert_eq!(Histogram::bucket_of(u64::MAX), BUCKET_COUNT - 1);
        assert_eq!(Histogram::bucket_of((1 << 40) - 1), BUCKET_COUNT - 2);
    }

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        // Every value maps into a bucket whose upper bound covers it, and
        // bucket indices never decrease as values grow.
        let mut prev_bucket = 0usize;
        for shift in 0..63 {
            let lo = 1u64 << shift;
            let hi = (2u64 << shift) - 1;
            for &v in &[lo, lo + (hi - lo) / 2, hi] {
                let b = Histogram::bucket_of(v);
                assert!(b >= prev_bucket, "v={v}: bucket {b} < {prev_bucket}");
                assert!(Histogram::bucket_upper(b) >= v, "v={v} above its bound");
                prev_bucket = b;
            }
        }
    }

    #[test]
    fn quantiles_tight_and_conservative() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.mean(), 50);
        assert_eq!(h.max(), 100);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        // True p50 is 50: sub-bucket [50, 52) → upper 51. True p99 is 99:
        // sub-bucket [96, 100) → upper 99. Both within 1/16, never below.
        assert_eq!(p50, 51);
        assert_eq!(p99, 99);
        assert!(p50 <= p99);
        assert!(p50 >= 50);
        assert!(p99 >= 99);
        assert!(!h.saturated());
    }

    #[test]
    fn quantile_error_bounded_by_sub_bucket_width() {
        let h = Histogram::new();
        for i in 0..1000u64 {
            h.record(10_000 + i * 40); // spread over [10000, 50000)
        }
        for q in [0.5f64, 0.9, 0.99] {
            let true_v = 10_000 + ((q * 1000.0).ceil() as u64 - 1) * 40;
            let got = h.quantile(q);
            assert!(got >= true_v, "q={q}: {got} understates {true_v}");
            assert!(
                got as f64 <= true_v as f64 * (1.0 + 1.0 / SUB_BUCKETS as f64),
                "q={q}: {got} overstates {true_v} by more than 1/16"
            );
        }
    }

    #[test]
    fn single_sample_everywhere() {
        let h = Histogram::new();
        h.record(1000);
        for q in [0.0, 0.5, 0.99, 1.0] {
            // One sample: every quantile is capped by max = the sample.
            assert_eq!(h.quantile(q), 1000, "q={q}");
        }
    }

    #[test]
    fn huge_samples_saturate_and_report_max() {
        let h = Histogram::new();
        h.record(u64::MAX - 5);
        h.record(1 << 41);
        assert_eq!(h.count(), 2);
        assert!(h.saturated());
        // The overflow tail reports the tracked maximum, a real number.
        assert_eq!(h.quantile(1.0), u64::MAX - 5);
        assert_eq!(h.quantile(0.99), u64::MAX - 5);
    }

    #[test]
    fn largest_bucketed_values_stay_unsaturated() {
        let h = Histogram::new();
        h.record((1 << 40) - 1);
        assert!(!h.saturated());
        assert_eq!(h.quantile(1.0), (1 << 40) - 1);
    }

    #[test]
    fn reset_clears_everything() {
        let h = Histogram::new();
        h.record(7);
        h.record(1 << 50);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.max(), 0);
        assert!(!h.saturated());
        assert_eq!(h.quantile(0.9), 0);
    }

    #[test]
    fn merged_quantile_matches_single_histogram_union() {
        // Split 1..=100 across three histograms; the merged view must agree
        // with one histogram holding the union.
        let parts = [Histogram::new(), Histogram::new(), Histogram::new()];
        let whole = Histogram::new();
        for v in 1..=100u64 {
            parts[(v % 3) as usize].record(v);
            whole.record(v);
        }
        let refs: Vec<&Histogram> = parts.iter().collect();
        assert_eq!(Histogram::merged_count(&refs), 100);
        assert_eq!(Histogram::merged_max(&refs), 100);
        for q in [0.0f64, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(Histogram::merged_quantile(&refs, q), whole.quantile(q));
        }
        // Empty union reports zero.
        assert_eq!(Histogram::merged_quantile(&[], 0.5), 0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
        assert_eq!(h.max(), 3999);
    }
}
