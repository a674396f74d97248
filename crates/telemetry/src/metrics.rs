//! Windowed metrics registry with Prometheus text exposition.
//!
//! A [`Registry`] holds three kinds of instruments, all registered by name
//! plus a (possibly empty) label set:
//!
//! * [`CounterHandle`] — a monotonic `u64` with a sliding-window
//!   [`rate`](CounterHandle::rate) derived from totals captured at window
//!   boundaries,
//! * [`GaugeHandle`] — a settable `f64` (also how derived values like
//!   rates are exported: the owner computes and sets them before a render),
//! * [`SummaryHandle`] — an HDR [`Histogram`] pair: a cumulative one for
//!   `_sum`/`_count` and a ring of per-window histograms merged on the fly
//!   for sliding-window quantiles.
//!
//! Windows advance only when [`Registry::advance`] is called — directly in
//! tests (deterministic under the logical clock, golden-testable) or via
//! [`Registry::tick`] from serving code when `auto_advance` is on. Nothing
//! in this module reads the wall clock on its own.
//!
//! [`Registry::render`] emits Prometheus text exposition format: families
//! sorted by name, series sorted by label string, `# HELP`/`# TYPE` before
//! samples — byte-stable for a fixed sequence of updates.
//! [`validate_exposition`] checks well-formedness (`redistload` and the
//! `scripts/check.sh` scrape step run it against a live server) and
//! [`find_sample`] pulls individual values back out of scraped text.
//!
//! Instrument updates are a few relaxed atomic ops; registration and
//! rendering take the registry lock. The disabled/idle path — instruments
//! registered but a request path that never renders — stays near zero cost.

use crate::histogram::Histogram;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Quantiles every summary exports: the serving layer's p50/p99 plus a p90
/// midpoint.
pub const SUMMARY_QUANTILES: [f64; 3] = [0.5, 0.9, 0.99];

/// Registry construction parameters.
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Completed windows retained for rate/quantile views.
    pub windows: usize,
    /// Nominal seconds per window — the denominator of
    /// [`CounterHandle::rate`]. Purely declarative: the registry never
    /// reads a clock; window boundaries are wherever `advance()` is called.
    pub window_seconds: u64,
    /// When true, [`Registry::tick`] advances once `window_seconds` of wall
    /// time have passed since the last advance. Leave false in tests and
    /// drive [`Registry::advance`] manually for deterministic output.
    pub auto_advance: bool,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            windows: 6,
            window_seconds: 10,
            auto_advance: true,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Summary,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Summary => "summary",
        }
    }
}

#[derive(Debug)]
struct CounterCore {
    total: AtomicU64,
    /// Totals captured at each `advance()` boundary, oldest first; at most
    /// `windows + 1` entries, so front-to-back spans `windows` windows.
    marks: Mutex<VecDeque<u64>>,
    window_seconds: u64,
}

#[derive(Debug)]
struct GaugeCore {
    /// f64 bits; gauges are set/added from one logical owner at a time so
    /// relaxed atomics suffice.
    bits: AtomicU64,
}

#[derive(Debug)]
struct SummaryCore {
    /// All samples ever — `_sum`, `_count`, and lifetime quantiles.
    cumulative: Histogram,
    /// `windows + 1` slots: the active one collects the current partial
    /// window, the rest hold completed windows. `advance()` resets the
    /// next slot and moves the active index onto it.
    ring: Vec<Histogram>,
    active: AtomicUsize,
}

#[derive(Debug)]
enum Instrument {
    Counter(Arc<CounterCore>),
    Gauge(Arc<GaugeCore>),
    Summary(Arc<SummaryCore>),
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: Kind,
    /// Keyed by the rendered label string (`{a="x",b="y"}` or empty) —
    /// which is also the render sort order.
    series: BTreeMap<String, Instrument>,
}

/// A registered monotonic counter. Cloning shares the underlying series.
#[derive(Debug, Clone)]
pub struct CounterHandle(Arc<CounterCore>);

impl CounterHandle {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (counters only go up; there is no subtract).
    pub fn add(&self, n: u64) {
        self.0.total.fetch_add(n, Ordering::Relaxed);
    }

    /// Lifetime total.
    pub fn value(&self) -> u64 {
        self.0.total.load(Ordering::Relaxed)
    }

    /// Events per second over the retained completed windows: the delta
    /// between the newest and oldest boundary marks divided by the nominal
    /// seconds they span. 0.0 until two boundaries exist.
    pub fn rate(&self) -> f64 {
        let marks = self.0.marks.lock().unwrap_or_else(|e| e.into_inner());
        if marks.len() < 2 {
            return 0.0;
        }
        let delta = marks.back().unwrap() - marks.front().unwrap();
        let span = (marks.len() - 1) as u64 * self.0.window_seconds;
        delta as f64 / span as f64
    }
}

/// A registered gauge. Cloning shares the underlying series.
#[derive(Debug, Clone)]
pub struct GaugeHandle(Arc<GaugeCore>);

impl GaugeHandle {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (compare-and-swap loop; fine for low-rate updates).
    pub fn add(&self, delta: f64) {
        let mut cur = self.0.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .0
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.0.bits.load(Ordering::Relaxed))
    }
}

/// A registered summary. Cloning shares the underlying series.
#[derive(Debug, Clone)]
pub struct SummaryHandle(Arc<SummaryCore>);

impl SummaryHandle {
    /// Records one sample into both the cumulative histogram and the
    /// current window slot. Lock-free.
    pub fn observe(&self, v: u64) {
        self.0.cumulative.record(v);
        let active = self.0.active.load(Ordering::Relaxed);
        self.0.ring[active].record(v);
    }

    /// Lifetime sample count.
    pub fn count(&self) -> u64 {
        self.0.cumulative.count()
    }

    /// Lifetime sample sum.
    pub fn sum(&self) -> u64 {
        self.0.cumulative.sum()
    }

    /// Lifetime quantile (see [`Histogram::quantile`]).
    pub fn quantile(&self, q: f64) -> u64 {
        self.0.cumulative.quantile(q)
    }

    /// Quantile over the sliding window: the retained completed windows
    /// plus the current partial one, merged on the fly.
    pub fn windowed_quantile(&self, q: f64) -> u64 {
        let parts: Vec<&Histogram> = self.0.ring.iter().collect();
        Histogram::merged_quantile(&parts, q)
    }

    /// Sample count inside the sliding window.
    pub fn windowed_count(&self) -> u64 {
        let parts: Vec<&Histogram> = self.0.ring.iter().collect();
        Histogram::merged_count(&parts)
    }
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
fn escape_label_value(v: &str, out: &mut String) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Escapes HELP text: backslash and newline (quotes are legal there).
fn escape_help(v: &str, out: &mut String) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Renders a label set as `{k="v",...}` with escaped values, or `""` when
/// empty. Labels render in the order given (callers pass a fixed order, so
/// series keys — and therefore render order — are stable).
fn label_string(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        escape_label_value(v, &mut out);
        out.push('"');
    }
    out.push('}');
    out
}

/// Merges a series' base label string with extra labels (used for summary
/// `quantile` labels).
fn label_string_with(base: &str, extra: &[(&str, &str)]) -> String {
    if extra.is_empty() {
        return base.to_string();
    }
    let extra_str = label_string(extra);
    if base.is_empty() {
        return extra_str;
    }
    // `{a="x"}` + `{q="y"}` → `{a="x",q="y"}`
    format!("{},{}", &base[..base.len() - 1], &extra_str[1..])
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// The metrics registry. Cheap to share via `Arc`; instrument handles stay
/// valid for the registry's lifetime.
#[derive(Debug)]
pub struct Registry {
    config: RegistryConfig,
    families: Mutex<BTreeMap<String, Family>>,
    last_advance: Mutex<Instant>,
    advances: AtomicU64,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new(RegistryConfig::default())
    }
}

impl Registry {
    /// An empty registry.
    pub fn new(config: RegistryConfig) -> Self {
        let config = RegistryConfig {
            windows: config.windows.max(1),
            window_seconds: config.window_seconds.max(1),
            ..config
        };
        Registry {
            config,
            families: Mutex::new(BTreeMap::new()),
            last_advance: Mutex::new(Instant::now()),
            advances: AtomicU64::new(0),
        }
    }

    /// Number of `advance()` calls so far (each one is a window boundary).
    pub fn advances(&self) -> u64 {
        self.advances.load(Ordering::Relaxed)
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: Kind,
        make: impl FnOnce(&RegistryConfig) -> Instrument,
    ) -> Instrument {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        for (k, _) in labels {
            assert!(valid_label_name(k), "invalid label name {k:?} on {name}");
            assert!(
                *k != "quantile",
                "label name 'quantile' is reserved (summary {name})"
            );
        }
        let key = label_string(labels);
        let mut families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric {name} already registered as {}",
            family.kind.as_str()
        );
        match family
            .series
            .entry(key)
            .or_insert_with(|| make(&self.config))
        {
            Instrument::Counter(c) => Instrument::Counter(c.clone()),
            Instrument::Gauge(g) => Instrument::Gauge(g.clone()),
            Instrument::Summary(s) => Instrument::Summary(s.clone()),
        }
    }

    /// Registers (or fetches, if already registered with the same labels) a
    /// monotonic counter.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> CounterHandle {
        match self.register(name, help, labels, Kind::Counter, |cfg| {
            Instrument::Counter(Arc::new(CounterCore {
                total: AtomicU64::new(0),
                marks: Mutex::new(VecDeque::with_capacity(cfg.windows + 1)),
                window_seconds: cfg.window_seconds,
            }))
        }) {
            Instrument::Counter(c) => CounterHandle(c),
            _ => unreachable!(),
        }
    }

    /// Registers (or fetches) a gauge.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> GaugeHandle {
        match self.register(name, help, labels, Kind::Gauge, |_| {
            Instrument::Gauge(Arc::new(GaugeCore {
                bits: AtomicU64::new(0f64.to_bits()),
            }))
        }) {
            Instrument::Gauge(g) => GaugeHandle(g),
            _ => unreachable!(),
        }
    }

    /// Registers (or fetches) a summary.
    pub fn summary(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> SummaryHandle {
        match self.register(name, help, labels, Kind::Summary, |cfg| {
            Instrument::Summary(Arc::new(SummaryCore {
                cumulative: Histogram::new(),
                ring: (0..cfg.windows + 1).map(|_| Histogram::new()).collect(),
                active: AtomicUsize::new(0),
            }))
        }) {
            Instrument::Summary(s) => SummaryHandle(s),
            _ => unreachable!(),
        }
    }

    /// Closes the current window on every instrument: counters capture
    /// their total as a boundary mark, summaries rotate their ring onto a
    /// freshly reset slot. Call this manually in tests; serving code can
    /// let [`Registry::tick`] drive it from wall time.
    pub fn advance(&self) {
        let families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        for family in families.values() {
            for inst in family.series.values() {
                match inst {
                    Instrument::Counter(c) => {
                        let mut marks = c.marks.lock().unwrap_or_else(|e| e.into_inner());
                        marks.push_back(c.total.load(Ordering::Relaxed));
                        while marks.len() > self.config.windows + 1 {
                            marks.pop_front();
                        }
                    }
                    Instrument::Summary(s) => {
                        let next = (s.active.load(Ordering::Relaxed) + 1) % s.ring.len();
                        s.ring[next].reset();
                        s.active.store(next, Ordering::Relaxed);
                    }
                    Instrument::Gauge(_) => {}
                }
            }
        }
        self.advances.fetch_add(1, Ordering::Relaxed);
    }

    /// Advances if `auto_advance` is on and a window's worth of wall time
    /// has passed since the last boundary. Cheap when it does nothing; call
    /// it opportunistically from serving loops.
    pub fn tick(&self) {
        if !self.config.auto_advance {
            return;
        }
        {
            let mut last = self.last_advance.lock().unwrap_or_else(|e| e.into_inner());
            if last.elapsed().as_secs() < self.config.window_seconds {
                return;
            }
            *last = Instant::now();
        }
        self.advance();
    }

    /// Renders every registered instrument in Prometheus text exposition
    /// format: families sorted by name, series sorted by label string,
    /// `# HELP` and `# TYPE` preceding each family's samples. Byte-stable
    /// for a fixed sequence of updates and advances.
    pub fn render(&self) -> String {
        let families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::with_capacity(1024);
        for (name, family) in families.iter() {
            out.push_str("# HELP ");
            out.push_str(name);
            out.push(' ');
            escape_help(&family.help, &mut out);
            out.push('\n');
            let _ = writeln!(out, "# TYPE {} {}", name, family.kind.as_str());
            for (labels, inst) in family.series.iter() {
                match inst {
                    Instrument::Counter(c) => {
                        let _ = writeln!(out, "{name}{labels} {}", c.total.load(Ordering::Relaxed));
                    }
                    Instrument::Gauge(g) => {
                        let _ = writeln!(
                            out,
                            "{name}{labels} {}",
                            f64::from_bits(g.bits.load(Ordering::Relaxed))
                        );
                    }
                    Instrument::Summary(s) => {
                        let parts: Vec<&Histogram> = s.ring.iter().collect();
                        for q in SUMMARY_QUANTILES {
                            let ls = label_string_with(labels, &[("quantile", &format!("{q}"))]);
                            let _ = writeln!(
                                out,
                                "{name}{ls} {}",
                                Histogram::merged_quantile(&parts, q)
                            );
                        }
                        let _ = writeln!(out, "{name}_sum{labels} {}", s.cumulative.sum());
                        let _ = writeln!(out, "{name}_count{labels} {}", s.cumulative.count());
                    }
                }
            }
        }
        out
    }
}

/// One parsed sample line: metric name, labels, value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name as it appeared on the line (including `_sum`/`_count`).
    pub name: String,
    /// Label pairs in line order, values unescaped.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

fn parse_labels(s: &str) -> Result<Vec<(String, String)>, String> {
    // `s` is the text between `{` and `}`.
    let mut labels = Vec::new();
    let mut rest = s;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=': {rest:?}"))?;
        let name = &rest[..eq];
        if !valid_label_name(name) {
            return Err(format!("invalid label name {name:?}"));
        }
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err(format!("label value not quoted near {rest:?}"));
        }
        rest = &rest[1..];
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, '\\')) => value.push('\\'),
                    other => return Err(format!("bad escape {other:?}")),
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end.ok_or_else(|| format!("unterminated label value: {rest:?}"))?;
        labels.push((name.to_string(), value));
        rest = &rest[end + 1..];
        if let Some(r) = rest.strip_prefix(',') {
            rest = r;
            if rest.is_empty() {
                return Err("trailing comma in label set".to_string());
            }
        } else if !rest.is_empty() {
            return Err(format!("junk after label value: {rest:?}"));
        }
    }
    Ok(labels)
}

fn parse_sample_line(line: &str) -> Result<Sample, String> {
    // name[{labels}] value
    let (name_labels, value) = line
        .rsplit_once(' ')
        .ok_or_else(|| format!("no value on line {line:?}"))?;
    let value: f64 = value
        .parse()
        .map_err(|_| format!("unparseable value {value:?} on {line:?}"))?;
    let (name, labels) = match name_labels.find('{') {
        Some(open) => {
            let close = name_labels
                .rfind('}')
                .filter(|&c| c == name_labels.len() - 1)
                .ok_or_else(|| format!("unterminated label set on {line:?}"))?;
            (
                &name_labels[..open],
                parse_labels(&name_labels[open + 1..close])?,
            )
        }
        None => (name_labels, Vec::new()),
    };
    if !valid_metric_name(name) {
        return Err(format!("invalid metric name {name:?} on {line:?}"));
    }
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Parses every sample line of an exposition body (comments and blank
/// lines skipped). Errors on the first malformed line.
pub fn parse_samples(text: &str) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_sample_line(line)?);
    }
    Ok(out)
}

/// Checks exposition well-formedness: every non-comment line parses as a
/// sample, `# TYPE` lines carry a known type and precede their family's
/// samples, no family is declared twice, and the body ends with a newline.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    if text.is_empty() {
        return Ok(());
    }
    if !text.ends_with('\n') {
        return Err("exposition must end with a newline".to_string());
    }
    let mut typed: BTreeMap<String, String> = BTreeMap::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            if parts.next().is_some() {
                return Err(format!("malformed TYPE line: {line:?}"));
            }
            if !valid_metric_name(name) {
                return Err(format!("invalid metric name in TYPE line: {line:?}"));
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "summary" | "histogram" | "untyped"
            ) {
                return Err(format!("unknown type {kind:?} on {line:?}"));
            }
            if typed.insert(name.to_string(), kind.to_string()).is_some() {
                return Err(format!("family {name:?} declared twice"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or free comment
        }
        let sample = parse_sample_line(line)?;
        // Summary _sum/_count legs belong to the base family declaration.
        let base = sample
            .name
            .strip_suffix("_sum")
            .or_else(|| sample.name.strip_suffix("_count"))
            .filter(|b| typed.get(*b).map(String::as_str) == Some("summary"));
        let family = base.unwrap_or(&sample.name);
        if !typed.contains_key(family) {
            return Err(format!(
                "sample {:?} precedes (or lacks) its TYPE declaration",
                sample.name
            ));
        }
    }
    Ok(())
}

/// Finds the first sample matching `name` whose labels include every pair
/// in `labels` (extra labels on the sample are fine). Returns `None` on
/// parse failure or no match.
pub fn find_sample(text: &str, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
    let samples = parse_samples(text).ok()?;
    samples
        .iter()
        .find(|s| {
            s.name == name
                && labels
                    .iter()
                    .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
        })
        .map(|s| s.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_registry() -> Registry {
        Registry::new(RegistryConfig {
            windows: 3,
            window_seconds: 10,
            auto_advance: false,
        })
    }

    #[test]
    fn counter_totals_and_reregistration_share_state() {
        let r = test_registry();
        let a = r.counter(
            "redistd_requests_total",
            "Requests.",
            &[("outcome", "planned")],
        );
        let b = r.counter(
            "redistd_requests_total",
            "Requests.",
            &[("outcome", "planned")],
        );
        a.inc();
        b.add(4);
        assert_eq!(a.value(), 5);
        assert_eq!(b.value(), 5);
        // A different label set is a different series.
        let c = r.counter(
            "redistd_requests_total",
            "Requests.",
            &[("outcome", "shed")],
        );
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn counter_rate_spans_completed_windows() {
        let r = test_registry();
        let c = r.counter("reqs_total", "Requests.", &[]);
        assert_eq!(c.rate(), 0.0, "no boundaries yet");
        c.add(100);
        r.advance(); // mark: 100
        assert_eq!(c.rate(), 0.0, "one boundary is not a window");
        c.add(50);
        r.advance(); // mark: 150
        assert_eq!(c.rate(), 5.0, "50 events over one 10s window");
        c.add(30);
        r.advance(); // marks: 100, 150, 180
        assert_eq!(c.rate(), 4.0, "80 events over two windows");
        // Marks are capped at windows+1: push beyond and the oldest drops.
        r.advance();
        r.advance(); // marks now: 150, 180, 180, 180
        assert_eq!(c.rate(), 1.0, "30 events over three windows");
    }

    #[test]
    fn gauge_set_add_roundtrip() {
        let r = test_registry();
        let g = r.gauge("queue_depth", "Depth.", &[]);
        assert_eq!(g.value(), 0.0);
        g.set(3.5);
        g.add(1.5);
        assert_eq!(g.value(), 5.0);
        g.add(-5.0);
        assert_eq!(g.value(), 0.0);
    }

    #[test]
    fn summary_windowed_quantiles_age_out() {
        let r = test_registry();
        let s = r.summary("lat_us", "Latency.", &[]);
        for v in 1..=100u64 {
            s.observe(v);
        }
        assert_eq!(s.count(), 100);
        assert_eq!(s.sum(), 5050);
        assert_eq!(s.windowed_quantile(0.99), s.quantile(0.99));
        // Rotate past every retained window: windowed view drains,
        // cumulative view keeps everything.
        for _ in 0..4 {
            r.advance();
        }
        assert_eq!(s.windowed_count(), 0);
        assert_eq!(s.windowed_quantile(0.99), 0);
        assert_eq!(s.count(), 100);
        s.observe(7);
        assert_eq!(s.windowed_count(), 1);
        assert_eq!(s.windowed_quantile(0.5), 7);
    }

    #[test]
    fn render_is_golden() {
        let r = test_registry();
        let c = r.counter(
            "app_requests_total",
            "Total requests.",
            &[("outcome", "ok")],
        );
        let c2 = r.counter(
            "app_requests_total",
            "Total requests.",
            &[("outcome", "shed")],
        );
        let g = r.gauge("app_queue_depth", "Current queue depth.", &[]);
        let s = r.summary("app_latency_us", "Request latency.", &[]);
        c.add(12);
        c2.inc();
        g.set(4.0);
        for v in 1..=100u64 {
            s.observe(v);
        }
        let expected = "\
# HELP app_latency_us Request latency.
# TYPE app_latency_us summary
app_latency_us{quantile=\"0.5\"} 51
app_latency_us{quantile=\"0.9\"} 91
app_latency_us{quantile=\"0.99\"} 99
app_latency_us_sum 5050
app_latency_us_count 100
# HELP app_queue_depth Current queue depth.
# TYPE app_queue_depth gauge
app_queue_depth 4
# HELP app_requests_total Total requests.
# TYPE app_requests_total counter
app_requests_total{outcome=\"ok\"} 12
app_requests_total{outcome=\"shed\"} 1
";
        assert_eq!(r.render(), expected);
        // Rendering is repeatable byte-for-byte.
        assert_eq!(r.render(), expected);
        validate_exposition(&r.render()).expect("golden render validates");
    }

    #[test]
    fn label_values_escape_and_roundtrip() {
        let r = test_registry();
        let tricky = "a\\b\"c\nd";
        let c = r.counter("esc_total", "Escapes.", &[("path", tricky)]);
        c.add(3);
        let text = r.render();
        assert!(
            text.contains("esc_total{path=\"a\\\\b\\\"c\\nd\"} 3"),
            "escaped render: {text}"
        );
        validate_exposition(&text).expect("escaped exposition validates");
        let samples = parse_samples(&text).unwrap();
        let s = samples.iter().find(|s| s.name == "esc_total").unwrap();
        assert_eq!(s.labels, vec![("path".to_string(), tricky.to_string())]);
        assert_eq!(
            find_sample(&text, "esc_total", &[("path", tricky)]),
            Some(3.0)
        );
    }

    #[test]
    fn find_sample_matches_subset_of_labels() {
        let text = "\
# TYPE x summary
x{shard=\"0\",quantile=\"0.5\"} 10
x{shard=\"1\",quantile=\"0.5\"} 20
x_sum 30
x_count 2
";
        validate_exposition(text).unwrap();
        assert_eq!(find_sample(text, "x", &[("shard", "1")]), Some(20.0));
        assert_eq!(
            find_sample(text, "x", &[("shard", "0"), ("quantile", "0.5")]),
            Some(10.0)
        );
        assert_eq!(find_sample(text, "x_count", &[]), Some(2.0));
        assert_eq!(find_sample(text, "x", &[("shard", "9")]), None);
        assert_eq!(find_sample(text, "nope", &[]), None);
    }

    #[test]
    fn validation_rejects_malformed_bodies() {
        for (body, why) in [
            ("no_type_line 1\n", "sample without TYPE"),
            ("# TYPE a counter\na 1", "missing trailing newline"),
            ("# TYPE a counter\na{x=\"1} 1\n", "unterminated label value"),
            ("# TYPE a counter\na 1 2 3\n", "junk after value"),
            ("# TYPE a counter\na{9bad=\"v\"} 1\n", "bad label name"),
            ("# TYPE a frobnicator\na 1\n", "unknown type"),
            (
                "# TYPE a counter\n# TYPE a counter\na 1\n",
                "family declared twice",
            ),
            ("# TYPE a counter\na nan-ish\n", "unparseable value"),
        ] {
            assert!(validate_exposition(body).is_err(), "should reject: {why}");
        }
        validate_exposition("").expect("empty body is fine");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = test_registry();
        r.counter("dual", "One.", &[]);
        r.gauge("dual", "Two.", &[]);
    }

    #[test]
    fn tick_is_inert_without_auto_advance() {
        let r = test_registry();
        r.tick();
        r.tick();
        assert_eq!(r.advances(), 0);
    }
}
