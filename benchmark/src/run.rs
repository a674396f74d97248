//! What every workload run shares: options, the stop condition, the
//! result, and the process's peak memory.

use crate::stats::{Latency, Samples};
use crate::trace::Recorder;
use std::time::{Duration, Instant};

/// When the measured window of a run ends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stop {
    /// After this many seconds (the driver's `--seconds`).
    Seconds(f64),
    /// After exactly this many measured ops, so the inputs — and every
    /// quality metric and work counter — repeat exactly.
    Ops(u64),
}

#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    pub stop: Stop,
    /// `--trace 1`: record spans, replay the layers, print per-layer metrics.
    pub trace: bool,
    /// How many times set-up runs at least in an untraced run (see
    /// [`repeated_setup`]); `setup_s` is the median.
    pub setup_reps: usize,
}

/// Set-ups per untraced run unless `--setup-reps` says otherwise (the smoke
/// run sets up once).
pub const SETUP_REPS: usize = 7;

/// The stop condition of one generator thread: a deadline or its share of
/// the op count.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    deadline: Option<Instant>,
    ops: u64,
}

impl Window {
    /// The window of one of `threads` generator threads, starting now.
    pub fn start(stop: Stop, threads: u64) -> Window {
        match stop {
            Stop::Seconds(s) => Window {
                deadline: Some(Instant::now() + Duration::from_secs_f64(s)),
                ops: u64::MAX,
            },
            Stop::Ops(n) => Window {
                deadline: None,
                ops: n.div_ceil(threads).max(1),
            },
        }
    }

    /// True while the thread, having completed `done` ops, should start
    /// another.
    pub fn open(&self, done: u64) -> bool {
        done < self.ops && self.deadline.is_none_or(|d| Instant::now() < d)
    }
}

impl Stop {
    /// The same stop condition at `fraction` of the length.
    pub fn scaled(self, fraction: f64) -> Stop {
        match self {
            Stop::Seconds(s) => Stop::Seconds(s * fraction),
            Stop::Ops(n) => Stop::Ops(((n as f64 * fraction) as u64).max(1)),
        }
    }

    /// A sample capacity that the window will not outgrow at `ops_per_s`.
    pub fn capacity(self, ops_per_s: f64) -> usize {
        match self {
            Stop::Seconds(s) => (s * ops_per_s * 2.0) as usize + 1024,
            Stop::Ops(n) => n as usize + 16,
        }
    }
}

/// Σ cost and Σ lower bound over the first cycle of a generator thread's op
/// list: every instance, matrix or op-list entry exactly once however many
/// ops the window fits, so `cost_over_lb` is a function of the seed alone
/// under `--seconds` too. (Later cycles repeat the first; the inline and
/// retained checks cover them.) A window too short for the cycle counts the
/// ops it has.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quality {
    /// Ops in one cycle of the thread's op list.
    cycle: u64,
    ops: u64,
    cost: u128,
    lower_bound: u128,
}

impl Quality {
    pub fn over_first(cycle: u64) -> Quality {
        Quality {
            cycle,
            ..Quality::default()
        }
    }

    pub fn add(&mut self, cost: u64, lower_bound: u64) {
        if self.ops < self.cycle {
            self.ops += 1;
            self.cost += cost as u128;
            self.lower_bound += lower_bound as u128;
        }
    }
}

/// What a closed- or open-loop phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub latency: Latency,
    /// How late the generator itself sent (open loop only).
    pub lag: Latency,
    pub elapsed: Duration,
    pub sent: u64,
    pub ok: u64,
    pub rejected: u64,
    pub errors: u64,
    /// Inline and after-the-window verification failures.
    pub wrong: u64,
    /// Σ cost and Σ lower bound over the threads' first cycles.
    pub cost: u128,
    pub lower_bound: u128,
}

impl Phase {
    /// Completed ops over the phase's wall time.
    pub fn throughput(&self) -> f64 {
        self.ok as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Throughput, p50 and p90 of the whole window: ops over wall time and
    /// exact order statistics of every sample. A stall counts in full here.
    pub fn whole_window(&self) -> (f64, f64, f64) {
        let l = &self.latency;
        (self.throughput(), l.median(), l.percentile(0.9))
    }

    /// Median over the slices of their throughput, p50 and p90; the whole
    /// window's figures when it was too short to complete a slice. These
    /// are burst-rejecting statistics: a stall that hits fewer than half
    /// the slices does not move them, so every run also prints
    /// [`Phase::whole_window`] — a product stall shows as the two diverging.
    pub fn steady(&self) -> (f64, f64, f64) {
        let l = &self.latency;
        let whole = self.whole_window();
        (
            l.over_slices(|s| s.throughput).unwrap_or(whole.0),
            l.over_slices(|s| s.p50_us).unwrap_or(whole.1),
            l.over_slices(|s| s.p90_us).unwrap_or(whole.2),
        )
    }

    /// Two lines for the human-readable report: the samples, then the
    /// whole-window figures beside the slice medians.
    pub fn describe(&self) -> String {
        let (wt, w50, w90) = self.whole_window();
        let (st, s50, s90) = self.steady();
        format!(
            "  samples: {}\n  whole window: {wt:.2} op/s p50={w50:.1}us p90={w90:.1}us; \
             median over slices: {st:.2} op/s p50={s50:.1}us p90={s90:.1}us",
            self.latency.describe()
        )
    }

    pub fn failed(&self) -> u64 {
        self.rejected + self.errors + self.wrong
    }

    pub fn cost_over_lb(&self) -> f64 {
        if self.lower_bound == 0 {
            0.0
        } else {
            self.cost as f64 / self.lower_bound as f64
        }
    }
}

/// What one generator thread brings back from a phase: its counts (in a
/// [`Phase`] whose samples are still empty), raw samples and spans.
pub struct Tally {
    pub counts: Phase,
    pub quality: Quality,
    pub latency: Samples,
    /// Open loop only; empty otherwise.
    pub lag: Samples,
    pub recorder: Recorder,
}

impl Tally {
    pub fn new(capacity: usize, slice_ops: usize, quality: Quality, recorder: Recorder) -> Tally {
        Tally {
            counts: Phase::default(),
            quality,
            latency: Samples::with_capacity(capacity, slice_ops),
            lag: Samples::with_capacity(0, usize::MAX),
            recorder,
        }
    }
}

impl Phase {
    /// Adds up the threads' counts, merges their samples and their spans.
    pub fn merge(tallies: impl IntoIterator<Item = Tally>, elapsed: Duration) -> (Phase, Recorder) {
        let mut phase = Phase {
            elapsed,
            ..Phase::default()
        };
        let (mut latency, mut lag) = (Vec::new(), Vec::new());
        let mut recorder: Option<Recorder> = None;
        for t in tallies {
            phase.sent += t.counts.sent;
            phase.ok += t.counts.ok;
            phase.rejected += t.counts.rejected;
            phase.errors += t.counts.errors;
            phase.wrong += t.counts.wrong;
            phase.cost += t.quality.cost;
            phase.lower_bound += t.quality.lower_bound;
            latency.push(t.latency);
            lag.push(t.lag);
            match &mut recorder {
                Some(r) => r.absorb(t.recorder),
                None => recorder = Some(t.recorder),
            }
        }
        phase.latency = Samples::merge(latency);
        phase.lag = Samples::merge(lag);
        (phase, recorder.expect("at least one generator thread"))
    }
}

/// Runs `body` for every item on a thread of its own and joins them all.
pub fn on_threads<T: Send, R: Send>(
    items: &mut [T],
    body: impl Fn(usize, &mut T) -> R + Sync,
) -> Vec<R> {
    std::thread::scope(|scope| {
        let body = &body;
        let handles: Vec<_> = items
            .iter_mut()
            .enumerate()
            .map(|(i, item)| scope.spawn(move || body(i, item)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    })
}

/// The cost of observing: throughput of the untraced slices that bracket
/// the traced one, over the traced slice's (bracketing cancels drift).
pub fn trace_overhead_ratio(before: &Phase, traced: &Phase, after: &Phase) -> f64 {
    (before.throughput() + after.throughput()) / 2.0 / traced.throughput().max(1e-9)
}

/// The result of one run: the JSON line's content.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// The end-to-end metrics every workload reports from its measured
    /// closed- or open-loop phase.
    pub fn set_end_to_end(&mut self, setup_s: f64, phase: &Phase) {
        self.attempted = phase.sent;
        self.failed = phase.failed();
        println!("{}", phase.describe());
        self.set("setup_s", setup_s);
        let (throughput, p50, p90) = phase.steady();
        self.set("throughput_ops_s", throughput);
        self.set("latency_p50_us", p50);
        self.set("latency_p90_us", p90);
        self.set("cost_over_lb", phase.cost_over_lb());
        self.set("peak_rss_mb", peak_rss_mb());
    }

    /// The generator's own per-layer metrics, from the traced phase.
    pub fn set_load(&mut self, phase: &Phase) {
        self.attempted = phase.sent;
        self.failed = phase.failed();
        println!("{}", phase.describe());
        let (throughput, p50, p90) = phase.whole_window();
        self.set("load.window_throughput_ops_s", throughput);
        self.set("load.window_latency_p50_us", p50);
        self.set("load.window_latency_p90_us", p90);
        self.set("load.latency_p99_us", phase.latency.percentile(0.99));
        self.set("load.latency_max_us", phase.latency.max());
        self.set("load.sent", phase.sent as f64);
        self.set("load.ok", phase.ok as f64);
        self.set("load.rejected", phase.rejected as f64);
        self.set("load.errors", (phase.errors + phase.wrong) as f64);
    }
}

/// `VmHWM` of this process, the workload's own child process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds of set-up per requested repetition below which
/// [`repeated_setup`] keeps repeating.
const SETUP_SECONDS_PER_REP: f64 = 0.2;

/// Runs `setup` at least `reps` times — and, when set-up is cheap, on until
/// the repetitions have taken `reps x 0.2` seconds or number `4 x reps`: the
/// median of a 60 ms set-up is noisier than that of a 200 ms one. Tears
/// down all but the last; returns the last environment and the median
/// set-up time in seconds.
pub fn repeated_setup<E>(
    reps: usize,
    mut setup: impl FnMut() -> E,
    mut teardown: impl FnMut(E),
) -> (E, f64) {
    let reps = reps.max(1);
    let budget = reps as f64 * SETUP_SECONDS_PER_REP;
    let mut times = Vec::with_capacity(4 * reps);
    let mut kept = None;
    while times.len() < reps || (times.len() < 4 * reps && times.iter().sum::<f64>() < budget) {
        if let Some(env) = kept.take() {
            teardown(env);
        }
        let start = Instant::now();
        kept = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    println!("  set-up: {} repetitions", times.len());
    (
        kept.expect("at least one set-up"),
        crate::stats::median(&times),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_window_splits_across_threads() {
        let w = Window::start(Stop::Ops(9), 2);
        assert!(w.open(4));
        assert!(!w.open(5));
        assert_eq!(Stop::Ops(100).scaled(0.25), Stop::Ops(25));
        assert_eq!(Stop::Ops(1).scaled(0.25), Stop::Ops(1));
    }

    #[test]
    fn seconds_window_closes() {
        let w = Window::start(Stop::Seconds(0.0), 1);
        assert!(!w.open(0));
        assert!(Window::start(Stop::Seconds(60.0), 1).open(1 << 40));
    }

    #[test]
    fn quality_counts_the_first_cycle_only() {
        let (mut short, mut long) = (Quality::over_first(3), Quality::over_first(3));
        for (i, cost) in [10, 20, 30, 40, 50].into_iter().enumerate() {
            if i < 2 {
                short.add(cost, 5);
            }
            long.add(cost, 5);
        }
        assert_eq!((short.cost, short.lower_bound), (30, 10));
        assert_eq!((long.cost, long.lower_bound), (60, 15));
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn setup_repeats_and_keeps_the_last() {
        let mut made = 0;
        let mut torn = Vec::new();
        // An instant set-up repeats four times as often as asked.
        let (env, secs) = repeated_setup(
            3,
            || {
                made += 1;
                made
            },
            |e| torn.push(e),
        );
        assert_eq!((env, torn.len()), (12, 11));
        assert!(secs >= 0.0);
        // One that uses up its share of the budget repeats as asked.
        let mut made = 0;
        let (env, secs) = repeated_setup(
            2,
            || {
                std::thread::sleep(Duration::from_millis(210));
                made += 1;
                made
            },
            drop,
        );
        assert_eq!(env, 2);
        assert!(secs >= 0.2);
    }
}
