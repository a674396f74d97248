//! Rate traces: the piecewise-constant bandwidth allocation over time.

/// One allocation interval: starting at `time`, the listed flows ran at the
/// listed rates (bytes/s) until the next sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Interval start, seconds.
    pub time: f64,
    /// `(flow index, rate in bytes/s)` for every then-active flow.
    pub rates: Vec<(usize, f64)>,
}

/// A full run's allocation history.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Samples in time order.
    pub samples: Vec<Sample>,
}

impl Trace {
    /// Appends a sample for the active flows `idx` with dense `rates`.
    pub fn record(&mut self, time: f64, idx: &[usize], rates: &[f64]) {
        self.samples.push(Sample {
            time,
            rates: idx.iter().map(|&i| (i, rates[i])).collect(),
        });
    }

    /// The aggregate rate (bytes/s) at sample `s`.
    pub fn aggregate_rate(&self, s: usize) -> f64 {
        self.samples[s].rates.iter().map(|&(_, r)| r).sum()
    }

    /// Mean utilisation of a resource of capacity `capacity_bytes_per_s`
    /// over `[0, end_time]`: the time-integral of the aggregate rate divided
    /// by `capacity · end_time`. The brute-force TCP arm shows up here as a
    /// backbone running visibly below 1.0 while the scheduled arm saturates.
    pub fn mean_utilization(&self, capacity_bytes_per_s: f64, end_time: f64) -> f64 {
        if end_time <= 0.0 || capacity_bytes_per_s <= 0.0 {
            return 0.0;
        }
        let mut transferred = 0.0;
        for (i, s) in self.samples.iter().enumerate() {
            let end = self.samples.get(i + 1).map(|n| n.time).unwrap_or(end_time);
            let dt = (end - s.time).max(0.0);
            transferred += self.aggregate_rate(i) * dt;
        }
        transferred / (capacity_bytes_per_s * end_time)
    }

    /// Integrates each flow's transferred bytes over the trace, using the
    /// next sample (or `end_time`) as each interval's end.
    pub fn transferred_bytes(&self, flow_count: usize, end_time: f64) -> Vec<f64> {
        let mut out = vec![0.0; flow_count];
        for (i, s) in self.samples.iter().enumerate() {
            let end = self.samples.get(i + 1).map(|n| n.time).unwrap_or(end_time);
            let dt = (end - s.time).max(0.0);
            for &(f, r) in &s.rates {
                out[f] += r * dt;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_aggregate() {
        let mut t = Trace::default();
        t.record(0.0, &[0, 2], &[10.0, 0.0, 5.0]);
        assert_eq!(t.samples.len(), 1);
        assert_eq!(t.aggregate_rate(0), 15.0);
        assert_eq!(t.samples[0].rates, vec![(0, 10.0), (2, 5.0)]);
    }

    #[test]
    fn integration() {
        let mut t = Trace::default();
        t.record(0.0, &[0], &[10.0]);
        t.record(2.0, &[0], &[20.0]);
        let bytes = t.transferred_bytes(1, 3.0);
        assert!((bytes[0] - (10.0 * 2.0 + 20.0 * 1.0)).abs() < 1e-9);
    }

    #[test]
    fn utilization() {
        let mut t = Trace::default();
        // Half the time at full rate 100, half idle-ish at 50.
        t.record(0.0, &[0], &[100.0]);
        t.record(1.0, &[0], &[50.0]);
        let u = t.mean_utilization(100.0, 2.0);
        assert!((u - 0.75).abs() < 1e-9, "{u}");
        assert_eq!(t.mean_utilization(0.0, 2.0), 0.0);
        assert_eq!(t.mean_utilization(100.0, 0.0), 0.0);
    }
}
