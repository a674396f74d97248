//! Exact latency samples and the spread arithmetic of the acceptance check.
//!
//! Timings are kept as raw per-op nanoseconds and sorted once after the
//! run, so every percentile is an order statistic of what was measured —
//! `telemetry::Histogram` buckets (6 % wide) are never involved. Results
//! are reported in microseconds with the nanosecond digits kept.
//!
//! The end-to-end timings are medians over *slices*: each generator thread
//! cuts its op sequence into slices of equal op count, and throughput, p50
//! and p90 are computed per slice. On a shared 2-core box interference
//! comes in bursts, and it only ever slows a slice down.

use std::time::{Duration, Instant};

/// Per-thread recorder of op latencies in nanoseconds, in op order, with a
/// clock reading after every `slice_ops`-th op.
///
/// The slices are the run's defence against the shared box: a neighbour's
/// burst slows a few slices, not the median over all of them.
#[derive(Debug, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    slice_ops: usize,
    marks: Vec<Instant>,
}

impl Samples {
    /// Pre-allocates room for `capacity` samples so the timed loop never
    /// grows the vector. The first slice starts now. Choose `slice_ops` as
    /// a multiple of the input pool's cycle, so every slice does the same
    /// work; `usize::MAX` records no slices.
    pub fn with_capacity(capacity: usize, slice_ops: usize) -> Samples {
        Samples {
            ns: Vec::with_capacity(capacity),
            slice_ops: slice_ops.max(1),
            marks: vec![Instant::now()],
        }
    }

    pub fn push(&mut self, elapsed: Duration) {
        self.ns
            .push(elapsed.as_nanos().min(u64::MAX as u128) as u64);
        if self.ns.len().is_multiple_of(self.slice_ops) {
            self.marks.push(Instant::now());
        }
    }

    /// Merges the recorders of a phase's generator threads: every sample
    /// sorted, and one [`Slice`] per complete slice of every thread.
    pub fn merge(parts: impl IntoIterator<Item = Samples>) -> Latency {
        let parts: Vec<Samples> = parts.into_iter().collect();
        let threads = parts.len() as f64;
        let mut slices = Vec::new();
        for part in &parts {
            for (chunk, mark) in part
                .ns
                .chunks_exact(part.slice_ops)
                .zip(part.marks.windows(2))
            {
                let mut chunk = chunk.to_vec();
                chunk.sort_unstable();
                let chunk = Latency {
                    sorted: chunk,
                    slices: Vec::new(),
                };
                let wall = (mark[1] - mark[0]).as_secs_f64().max(1e-9);
                slices.push(Slice {
                    throughput: threads * part.slice_ops as f64 / wall,
                    p50_us: chunk.median(),
                    p90_us: chunk.percentile(0.9),
                });
            }
        }
        let mut sorted: Vec<u64> = parts.into_iter().flat_map(|s| s.ns).collect();
        sorted.sort_unstable();
        Latency { sorted, slices }
    }
}

/// What one slice of one generator thread measured. `throughput` is the
/// thread's own rate times the number of threads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    pub throughput: f64,
    pub p50_us: f64,
    pub p90_us: f64,
}

/// A phase's latency samples, sorted — percentiles are exact order
/// statistics, in microseconds — and its slices.
#[derive(Debug, Clone, Default)]
pub struct Latency {
    sorted: Vec<u64>,
    slices: Vec<Slice>,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

impl Latency {
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Nearest-rank percentile: the smallest sample with at least
    /// `p` of the samples at or below it. 0 for an empty set.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let rank = (p * self.sorted.len() as f64).ceil() as usize;
        us(self.sorted[rank.clamp(1, self.sorted.len()) - 1])
    }

    /// Median as the mean of the two middle order statistics for an even
    /// count, so two runs of nearly equal length do not flip between
    /// neighbouring samples.
    pub fn median(&self) -> f64 {
        let n = self.sorted.len();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => us(self.sorted[n / 2]),
            _ => (us(self.sorted[n / 2 - 1]) + us(self.sorted[n / 2])) / 2.0,
        }
    }

    pub fn max(&self) -> f64 {
        us(self.sorted.last().copied().unwrap_or(0))
    }

    /// The highest of p99.99, p99.9, p99, p90 that still has at least ten
    /// samples beyond it (falls back to the median).
    pub fn tail(&self) -> (f64, f64) {
        for p in [0.9999, 0.999, 0.99, 0.9] {
            let n = self.sorted.len() as f64;
            if n - (p * n).ceil() >= 10.0 {
                return (p, self.percentile(p));
            }
        }
        (0.5, self.median())
    }

    pub fn slices(&self) -> &[Slice] {
        &self.slices
    }

    /// The median over the slices of `pick`, or `None` for a phase too
    /// short to complete one slice.
    pub fn over_slices(&self, pick: impl Fn(&Slice) -> f64) -> Option<f64> {
        if self.slices.is_empty() {
            return None;
        }
        Some(median(&self.slices.iter().map(pick).collect::<Vec<f64>>()))
    }

    /// One line for the human-readable report.
    pub fn describe(&self) -> String {
        let (tp, tv) = self.tail();
        format!(
            "n={} slices={} p50={:.1}us p90={:.0}us p{}={:.0}us max={:.0}us",
            self.len(),
            self.slices.len(),
            self.median(),
            self.percentile(0.9),
            tp * 100.0,
            tv,
            self.max()
        )
    }
}

/// Median of a slice of floats (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// computes them — the acceptance check is stated in those terms.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len() as i64;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in (1..4i64).enumerate() {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        out[slot] = (data[(j - 1) as usize] * (4.0 - delta) + data[j as usize] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median (0 when the median is 0).
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latency(v: &[u32], slice_ops: usize) -> Latency {
        let mut s = Samples::with_capacity(v.len(), slice_ops);
        for &x in v {
            s.push(Duration::from_micros(x as u64));
        }
        Samples::merge([s])
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let s = latency(&(1..=100).rev().collect::<Vec<u32>>(), usize::MAX);
        assert_eq!(s.median(), 50.5);
        assert_eq!(s.percentile(0.5), 50.0);
        assert_eq!(s.percentile(0.9), 90.0);
        assert_eq!(s.percentile(0.99), 99.0);
        assert_eq!(s.percentile(1.0), 100.0);
        assert_eq!(s.max(), 100.0);
        // 100 samples: p90 is the highest percentile with ten beyond it.
        assert_eq!(s.tail(), (0.9, 90.0));
        assert_eq!(latency(&[7], usize::MAX).median(), 7.0);
        assert_eq!(latency(&[], usize::MAX).percentile(0.9), 0.0);
    }

    #[test]
    fn tail_picks_the_highest_supported_percentile() {
        let s = latency(&(1..=1000).collect::<Vec<u32>>(), usize::MAX);
        assert_eq!(s.tail(), (0.99, 990.0));
        let s = latency(&(1..=19).collect::<Vec<u32>>(), usize::MAX);
        assert_eq!(s.tail().0, 0.5);
    }

    #[test]
    fn merge_combines_threads_and_keeps_complete_slices() {
        let mut a = Samples::with_capacity(5, 2);
        let mut b = Samples::with_capacity(5, 2);
        for us in [30, 10, 50, 70, 90] {
            a.push(Duration::from_micros(us));
        }
        b.push(Duration::from_micros(20));
        let s = Samples::merge([a, b]);
        assert_eq!(s.len(), 6);
        assert_eq!(s.median(), 40.0);
        // Thread a completed two slices of two ops; its fifth op and all of
        // thread b are in no slice.
        assert_eq!(s.slices().len(), 2);
        assert_eq!(s.slices()[0].p50_us, 20.0);
        assert_eq!(s.slices()[1].p90_us, 70.0);
        assert_eq!(s.over_slices(|x| x.p50_us), Some(40.0));
        assert!(s.slices().iter().all(|x| x.throughput > 0.0));
        assert_eq!(latency(&[1, 2, 3], 4).over_slices(|x| x.p50_us), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), [7.5, 15.0, 22.5]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), [1.5, 4.0, 12.0]);
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(relative_spread(&[3.0, 3.0, 3.0]), 0.0);
    }
}
