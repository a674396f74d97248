//! Traffic matrices and their conversion into K-PBS instances.
//!
//! The application hands the scheduler a traffic matrix `M = (m_ij)` of
//! *bytes* to move from sender `i` to receiver `j` (Section 2.1). Dividing
//! by the per-transfer speed `t` gives the communication matrix
//! `C = (c_ij = m_ij / t)` of *durations*, which is the weighted bipartite
//! graph the algorithms schedule. Durations are discretised to integer ticks
//! by a [`TickScale`].

use crate::platform::Platform;
use crate::problem::Instance;
use bipartite::{Graph, Weight};
use rand::Rng;

/// Conversion between wall-clock seconds and scheduler ticks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickScale {
    /// Number of ticks per second. Higher values discretise more finely;
    /// rounding (always up) costs at most one tick per message.
    pub ticks_per_second: f64,
}

impl TickScale {
    /// A millisecond-resolution scale, ample for the paper's workloads.
    pub const MILLIS: TickScale = TickScale {
        ticks_per_second: 1_000.0,
    };

    /// Converts a duration in seconds to ticks, rounding up (a non-zero
    /// duration never becomes zero ticks).
    pub fn to_ticks(&self, seconds: f64) -> Weight {
        assert!(seconds >= 0.0 && seconds.is_finite());
        if seconds == 0.0 {
            return 0;
        }
        (seconds * self.ticks_per_second).ceil().max(1.0) as Weight
    }

    /// [`TickScale::to_ticks`] for durations that come from outside the
    /// program: `None` where `to_ticks` would panic (negative or non-finite
    /// seconds) or silently saturate (a tick count that does not fit
    /// `u64`); otherwise exactly `to_ticks`.
    pub fn try_to_ticks(&self, seconds: f64) -> Option<Weight> {
        if !(seconds >= 0.0 && seconds.is_finite()) {
            return None;
        }
        // `u64::MAX as f64` rounds up to 2^64, the first value the cast
        // below would saturate.
        let ticks = seconds * self.ticks_per_second;
        (ticks < u64::MAX as f64).then(|| self.to_ticks(seconds))
    }

    /// Converts ticks back to seconds.
    pub fn to_seconds(&self, ticks: Weight) -> f64 {
        ticks as f64 / self.ticks_per_second
    }
}

/// The duration, in ticks, of a single message of `bytes` bytes on
/// `platform` under `scale` — the exact per-cell conversion
/// [`TrafficMatrix::to_instance`] applies, exposed on its own so a live
/// delta-planning server can patch instance weights consistently with the
/// cold construction (zero bytes → zero ticks, i.e. "no edge").
pub fn message_ticks(platform: &Platform, scale: TickScale, bytes: u64) -> Weight {
    ticks_at(platform.transfer_speed(), scale, bytes)
}

/// [`message_ticks`] for sizes and speeds that come from outside the
/// program: `None` where `message_ticks` would panic or saturate (see
/// [`TickScale::try_to_ticks`]), otherwise exactly `message_ticks`.
pub fn try_message_ticks(platform: &Platform, scale: TickScale, bytes: u64) -> Option<Weight> {
    scale.try_to_ticks(seconds_at(platform.transfer_speed(), bytes))
}

/// The duration, in ticks, of `bytes` bytes moving at `speed` Mbit/s: the
/// one byte-to-tick conversion of the crate (`c_ij = m_ij / t`).
/// [`message_ticks`] applies it at the platform's per-transfer speed,
/// [`crate::topo`] at each pair's speed.
#[inline]
pub(crate) fn ticks_at(speed: f64, scale: TickScale, bytes: u64) -> Weight {
    scale.to_ticks(seconds_at(speed, bytes))
}

#[inline]
fn seconds_at(speed: f64, bytes: u64) -> f64 {
    if bytes == 0 {
        return 0.0;
    }
    let speed_bytes_per_s = speed * 1e6 / 8.0;
    bytes as f64 / speed_bytes_per_s
}

/// Headroom the planners need under `u64::MAX` ticks (see
/// [`plan_ticks_fit`]).
pub const MAX_PLAN_TICKS: Weight = u64::MAX / 4;

/// Whether an instance of `n1 × n2` nodes, `m` edges of `total_ticks`
/// summed weight, parallelism `k` and setup delay `beta` can be planned
/// without any tick arithmetic overflowing `u64`.
///
/// The planners form `k·W(G)` and `k·⌈P/k⌉` on β-normalised weights
/// (each `≤ w/β + 1`, so their sum is at most `P + m`), and schedule costs
/// `Σ(β + step)` that the 2-approximation keeps within twice the sequential
/// cost `P + m·β` plus one β of rounding per regularised node. All of these
/// stay below `(k + 1)·(P + (m + n1 + n2 + 1)·(β + 1))`, which this
/// function requires to fit [`MAX_PLAN_TICKS`]. Library callers building
/// instances by hand are not held to it; servers check it on every matrix
/// that arrives from a socket.
pub fn plan_ticks_fit(
    n1: usize,
    n2: usize,
    k: usize,
    m: usize,
    total_ticks: Weight,
    beta: Weight,
) -> bool {
    let terms = (m as u64)
        .saturating_add(n1 as u64)
        .saturating_add(n2 as u64)
        .saturating_add(1);
    beta.checked_add(1)
        .and_then(|b| b.checked_mul(terms))
        .and_then(|setup| setup.checked_add(total_ticks))
        .and_then(|span| span.checked_mul((k as u64).saturating_add(1)))
        .is_some_and(|v| v <= MAX_PLAN_TICKS)
}

/// Why a matrix and β from outside the program cannot be planned in
/// ticks ([`check_tick_budget`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickBudgetError {
    /// β does not fit `u64` ticks.
    Beta,
    /// The largest cell's duration is non-finite or does not fit `u64`
    /// ticks.
    Cell,
    /// The totals exceed [`plan_ticks_fit`].
    Total,
}

impl TickBudgetError {
    /// The one-line refusal every entry point answers with.
    pub fn message(self) -> &'static str {
        match self {
            TickBudgetError::Beta => "beta overflows the tick range",
            TickBudgetError::Cell => "cell duration overflows the tick range",
            TickBudgetError::Total => "matrix exceeds the planner's tick budget",
        }
    }
}

/// The planner's tick budget, the one check applied to a matrix and a
/// finite, non-negative β that come from outside the program: the
/// `redistd` frame walk and both CLIs (through
/// [`TrafficMatrix::check_tick_budget`]). The matrix enters as its `nnz`
/// non-zero cells, its `largest` cell and its byte `sum`. After `Ok`, every
/// cell and β convert to ticks on `platform` without panicking or
/// saturating, and planning the instance cannot overflow. Speeds like
/// `1e-300` are valid yet make durations non-finite, and merely slow ones
/// overflow `k·W(G)` inside the planner.
///
/// O(1): ticks are monotone in bytes, so the `largest` cell speaks for
/// every cell, and `Σ ticks(bᵢ) ≤ ticks(Σ bᵢ) + nnz` (each cell rounds up
/// by less than one tick) bounds the total from the byte `sum`. That is at
/// most `nnz` ticks stricter than summing the cells. The float rounding in
/// the bound is parts in 10¹⁵ against the budget's factor-4 headroom.
pub fn check_tick_budget(
    platform: &Platform,
    scale: TickScale,
    beta_seconds: f64,
    nnz: usize,
    largest: u64,
    sum: u128,
) -> Result<(), TickBudgetError> {
    let beta = scale
        .try_to_ticks(beta_seconds)
        .ok_or(TickBudgetError::Beta)?;
    try_message_ticks(platform, scale, largest).ok_or(TickBudgetError::Cell)?;
    let total = u64::try_from(sum)
        .ok()
        .and_then(|sum| try_message_ticks(platform, scale, sum))
        .and_then(|ticks| ticks.checked_add(nnz as u64))
        .ok_or(TickBudgetError::Total)?;
    if !plan_ticks_fit(platform.n1, platform.n2, platform.k(), nnz, total, beta) {
        return Err(TickBudgetError::Total);
    }
    Ok(())
}

/// A dense traffic matrix in bytes, row-major (`n1` senders × `n2`
/// receivers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficMatrix {
    n1: usize,
    n2: usize,
    bytes: Vec<u64>,
}

impl TrafficMatrix {
    /// An all-zero matrix.
    pub fn zeros(n1: usize, n2: usize) -> Self {
        TrafficMatrix {
            n1,
            n2,
            bytes: vec![0; n1 * n2],
        }
    }

    /// Builds a matrix from a row-major byte vector.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() != n1 * n2`.
    pub fn from_rows(n1: usize, n2: usize, bytes: Vec<u64>) -> Self {
        assert_eq!(bytes.len(), n1 * n2, "dimension mismatch");
        TrafficMatrix { n1, n2, bytes }
    }

    /// Number of senders.
    pub fn senders(&self) -> usize {
        self.n1
    }

    /// Number of receivers.
    pub fn receivers(&self) -> usize {
        self.n2
    }

    /// Bytes from sender `i` to receiver `j`.
    pub fn get(&self, i: usize, j: usize) -> u64 {
        self.bytes[i * self.n2 + j]
    }

    /// Sets the bytes from sender `i` to receiver `j`.
    pub fn set(&mut self, i: usize, j: usize, bytes: u64) {
        self.bytes[i * self.n2 + j] = bytes;
    }

    /// Total bytes to move.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Number of non-zero messages.
    pub fn message_count(&self) -> usize {
        self.bytes.iter().filter(|&&b| b > 0).count()
    }

    /// The workload of the paper's real-world experiments (Section 5.2):
    /// every pair communicates, sizes uniform in `[lo_mb, hi_mb]` MB.
    pub fn uniform_mb<R: Rng + ?Sized>(
        rng: &mut R,
        n1: usize,
        n2: usize,
        lo_mb: u64,
        hi_mb: u64,
    ) -> Self {
        assert!(lo_mb >= 1 && lo_mb <= hi_mb);
        let mut m = TrafficMatrix::zeros(n1, n2);
        for i in 0..n1 {
            for j in 0..n2 {
                m.set(i, j, rng.gen_range(lo_mb..=hi_mb) * 1_000_000);
            }
        }
        m
    }

    /// Converts the matrix into a K-PBS instance on `platform` with setup
    /// delay `beta_seconds`, discretised by `scale`.
    ///
    /// Each non-zero message becomes an edge whose weight is its transfer
    /// duration at the platform's per-transfer speed `t = min(t1, t2)`.
    /// Returns the instance together with the `(sender, receiver)` behind
    /// each edge id (edge ids are dense, in row-major message order).
    pub fn to_instance(
        &self,
        platform: &Platform,
        beta_seconds: f64,
        scale: TickScale,
    ) -> (Instance, Vec<(usize, usize)>) {
        assert_eq!(self.n1, platform.n1, "sender count mismatch");
        assert_eq!(self.n2, platform.n2, "receiver count mismatch");
        let mut g = Graph::new(self.n1, self.n2);
        let mut endpoints = Vec::with_capacity(self.message_count());
        for i in 0..self.n1 {
            for j in 0..self.n2 {
                let b = self.get(i, j);
                if b > 0 {
                    g.add_edge(i, j, message_ticks(platform, scale, b));
                    endpoints.push((i, j));
                }
            }
        }
        let beta = scale.to_ticks(beta_seconds);
        (Instance::new(g, platform.k(), beta), endpoints)
    }

    /// [`check_tick_budget`] of this matrix, its figures gathered in one
    /// pass, with the refusal as its message; first, as `redistd`'s walk
    /// does, a negative or non-finite β is refused as `"invalid beta"`.
    pub fn check_tick_budget(
        &self,
        platform: &Platform,
        beta_seconds: f64,
        scale: TickScale,
    ) -> Result<(), &'static str> {
        if !(beta_seconds >= 0.0 && beta_seconds.is_finite()) {
            return Err("invalid beta");
        }
        let (mut nnz, mut largest, mut sum) = (0, 0, 0u128);
        for &b in self.bytes.iter().filter(|&&b| b > 0) {
            nnz += 1;
            largest = largest.max(b);
            sum += u128::from(b);
        }
        check_tick_budget(platform, scale, beta_seconds, nnz, largest, sum)
            .map_err(TickBudgetError::message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn tick_scale_round_trip() {
        let s = TickScale::MILLIS;
        assert_eq!(s.to_ticks(1.5), 1500);
        assert_eq!(s.to_ticks(0.0), 0);
        // Tiny but non-zero durations round up to one tick.
        assert_eq!(s.to_ticks(1e-9), 1);
        assert!((s.to_seconds(2500) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn checked_conversions_agree_or_refuse() {
        let s = TickScale::MILLIS;
        for seconds in [0.0, 1e-9, 1.5, 1e15] {
            assert_eq!(s.try_to_ticks(seconds), Some(s.to_ticks(seconds)));
        }
        for seconds in [-1.0, f64::NAN, f64::INFINITY, 1e17, 1e300] {
            assert_eq!(s.try_to_ticks(seconds), None, "{seconds}");
        }
        let p = Platform::new(2, 2, 100.0, 100.0, 200.0);
        for bytes in [0, 1, 25_000_000, u64::MAX] {
            assert_eq!(
                try_message_ticks(&p, s, bytes),
                Some(message_ticks(&p, s, bytes))
            );
        }
        // Speeds that pass `Topology::validate` but make durations
        // non-finite (1e-300) or saturate u64 ticks (1e-3 with a huge cell).
        let glacial = Platform::new(2, 2, 1e-300, 1e-300, 1.0);
        assert_eq!(try_message_ticks(&glacial, s, u64::MAX), None);
        let slow = Platform::new(2, 2, 1e-3, 1e-3, 1.0);
        assert_eq!(try_message_ticks(&slow, s, u64::MAX), None);
        assert_eq!(try_message_ticks(&slow, s, 0), Some(0));
    }

    #[test]
    fn check_tick_budget_rejects_what_the_decoder_rejects() {
        let p = Platform::new(2, 2, 1e-3, 100.0, 200.0);
        let mut m = TrafficMatrix::zeros(2, 2);
        // 8e17 ticks per cell at 125 B/s: one cell fits, and k = 2 triples
        // the sum of two past the budget.
        m.set(0, 1, 100_000_000_000_000_000);
        assert_eq!(m.check_tick_budget(&p, 0.05, TickScale::MILLIS), Ok(()));
        for beta in [-1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                m.check_tick_budget(&p, beta, TickScale::MILLIS),
                Err("invalid beta")
            );
        }
        let refusal = |m: &TrafficMatrix, p: &Platform, beta| {
            m.check_tick_budget(p, beta, TickScale::MILLIS).unwrap_err()
        };
        assert_eq!(refusal(&m, &p, 1e300), TickBudgetError::Beta.message());
        m.set(1, 0, 100_000_000_000_000_000);
        assert_eq!(refusal(&m, &p, 0.0), TickBudgetError::Total.message());
        let crawl = Platform::new(2, 2, 1e-300, 100.0, 200.0);
        assert_eq!(refusal(&m, &crawl, 0.0), TickBudgetError::Cell.message());
    }

    #[test]
    fn the_byte_sum_bound_is_within_nnz_ticks_of_the_cell_sum() {
        // What `check_tick_budget` charges, `ticks(Σ b) + nnz`, never
        // undercuts the cells' own tick sum and exceeds it by at most nnz.
        let p = Platform::new(4, 4, 8.0, 8.0, 8.0); // 1 MB/s: 1 000 B a tick
        let s = TickScale::MILLIS;
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..1_000 {
            let n = rng.gen_range(1..16);
            let cells: Vec<u64> = (0..n).map(|_| rng.gen_range(1..10_000_000)).collect();
            let exact: u64 = cells.iter().map(|&b| message_ticks(&p, s, b)).sum();
            let bound = message_ticks(&p, s, cells.iter().sum()) + n as u64;
            assert!(exact <= bound && bound - exact <= n as u64, "{cells:?}");
        }
    }

    #[test]
    fn tick_budget_bounds_totals_and_beta() {
        assert!(plan_ticks_fit(32, 32, 8, 1024, 1 << 40, 50));
        assert!(plan_ticks_fit(1, 1, 1, 0, 0, 0));
        // k · Σticks overflows.
        assert!(!plan_ticks_fit(4, 4, 4, 2, u64::MAX / 4, 0));
        // β alone overflows the per-step setup charge.
        assert!(!plan_ticks_fit(4, 4, 1, 2, 10, u64::MAX));
        assert!(!plan_ticks_fit(4, 4, 1, 2, 10, u64::MAX / 8));
    }

    #[test]
    fn matrix_accessors() {
        let mut m = TrafficMatrix::zeros(2, 3);
        m.set(1, 2, 42);
        m.set(0, 0, 8);
        assert_eq!(m.get(1, 2), 42);
        assert_eq!(m.total_bytes(), 50);
        assert_eq!(m.message_count(), 2);
        assert_eq!(m.senders(), 2);
        assert_eq!(m.receivers(), 3);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn bad_dimensions_rejected() {
        TrafficMatrix::from_rows(2, 2, vec![1, 2, 3]);
    }

    #[test]
    fn uniform_workload_in_range() {
        let mut rng = SmallRng::seed_from_u64(4);
        let m = TrafficMatrix::uniform_mb(&mut rng, 10, 10, 10, 50);
        assert_eq!(m.message_count(), 100);
        for i in 0..10 {
            for j in 0..10 {
                let mb = m.get(i, j) / 1_000_000;
                assert!((10..=50).contains(&mb));
            }
        }
    }

    #[test]
    fn to_instance_durations() {
        // 100 Mbit/s NICs both sides, backbone 100 → k = 1, t = 100 Mbit/s =
        // 12.5 MB/s. A 25 MB message lasts 2 s = 2000 ms ticks.
        let p = Platform::new(1, 1, 100.0, 100.0, 100.0);
        let mut m = TrafficMatrix::zeros(1, 1);
        m.set(0, 0, 25_000_000);
        let (inst, endpoints) = m.to_instance(&p, 0.05, TickScale::MILLIS);
        assert_eq!(inst.graph.edge_count(), 1);
        let w = inst.graph.edges().next().unwrap().3;
        assert_eq!(w, 2000);
        assert_eq!(inst.beta, 50);
        assert_eq!(inst.k, 1);
        assert_eq!(endpoints, vec![(0, 0)]);
    }

    #[test]
    fn message_ticks_agrees_with_to_instance() {
        let p = Platform::new(2, 2, 100.0, 100.0, 200.0);
        let mut m = TrafficMatrix::zeros(2, 2);
        m.set(0, 1, 1_000_000);
        m.set(1, 0, 25_000_000);
        let (inst, endpoints) = m.to_instance(&p, 0.0, TickScale::MILLIS);
        for (e, &(i, j)) in endpoints.iter().enumerate() {
            assert_eq!(
                inst.graph.weight(bipartite::EdgeId(e as u32)),
                message_ticks(&p, TickScale::MILLIS, m.get(i, j)),
                "cell ({i}, {j})"
            );
        }
        assert_eq!(message_ticks(&p, TickScale::MILLIS, 0), 0);
    }

    #[test]
    fn zero_messages_skipped() {
        let p = Platform::new(2, 2, 100.0, 100.0, 200.0);
        let mut m = TrafficMatrix::zeros(2, 2);
        m.set(0, 1, 1_000_000);
        let (inst, endpoints) = m.to_instance(&p, 0.0, TickScale::MILLIS);
        assert_eq!(inst.graph.edge_count(), 1);
        assert_eq!(endpoints, vec![(0, 1)]);
    }
}
