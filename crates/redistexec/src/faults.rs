//! Deterministic fault plans.
//!
//! Fault injection here is *plan-driven*, not probabilistic-at-runtime: a
//! [`FaultPlan`] is a finite, explicit list of events generated once from a
//! seed, and execution merely looks events up by position. Two runs with the
//! same seed therefore inject byte-identical fault sequences — the property
//! the 200-case campaign proptest and `BENCH_exec.json` regression lean on —
//! and a plan's finiteness is what guarantees the runtime terminates (every
//! replan is triggered by the consumption of at least one event).
//!
//! Events are keyed by the *execution slot*: a monotone counter of steps the
//! runtime has started, which keeps counting across residual re-planning
//! splices. A fault scheduled at slot 7 therefore hits whatever step is
//! seventh to execute, whether it came from the original schedule or was
//! spliced in by a replan.

use std::collections::BTreeMap;

/// A node of one of the two clusters, as fault-injection target.
///
/// `Ord` gives events a canonical storage order (senders before receivers,
/// then by index) so a plan's behaviour never depends on the order its
/// events were pushed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NodeRef {
    /// Sender `i` of cluster `C1`.
    Sender(usize),
    /// Receiver `j` of cluster `C2`.
    Receiver(usize),
}

/// Knobs for [`FaultPlan::generate`]: how many events of each kind to place
/// within the first `horizon` execution slots.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// Number of transient transfer-failure events.
    pub transients: usize,
    /// Consecutive failures per transient event are drawn from
    /// `1..=max_consecutive` (reaching the runtime's four attempts turns the
    /// event into a permanent failure).
    pub max_consecutive: u32,
    /// Number of permanent node-drop events.
    pub node_drops: usize,
    /// Number of per-step slowdown events.
    pub slowdowns: usize,
    /// Execution-slot horizon events are placed in (`0..horizon`).
    pub horizon: u64,
    /// Number of per-node NIC slowdown events (persistent: a hit NIC stays
    /// degraded from its slot onward).
    pub nic_slowdowns: usize,
    /// Number of per-backbone degradation events (persistent, like NIC
    /// slowdowns).
    pub link_degradations: usize,
    /// Backbone link count degradation events target (`0..links`); 1 for
    /// the paper's single-backbone platform.
    pub links: usize,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            transients: 6,
            max_consecutive: 3,
            node_drops: 1,
            slowdowns: 2,
            horizon: 32,
            nic_slowdowns: 0,
            link_degradations: 0,
            links: 1,
        }
    }
}

/// A finite, fully deterministic fault schedule.
///
/// Every event collection is kept in a *canonical* order (maps, or vectors
/// sorted by their full event key) and same-key events compose
/// commutatively, so two plans holding the same event multiset behave
/// identically regardless of the order the events were pushed in — the
/// slot, never the event-list position, decides what happens.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// `(slot, op_index) → consecutive transient failures` for the op at
    /// that position of the step executed at that slot.
    transients: BTreeMap<(u64, usize), u32>,
    /// Permanent node drops, sorted by `(slot, node)`; a drop at slot `s`
    /// takes effect just before the step at slot `s` executes. Applied once
    /// (the runtime walks this list with a cursor).
    drops: Vec<(u64, NodeRef)>,
    /// `slot → slowdown factor` (> 1.0) applied to the whole step.
    slowdowns: BTreeMap<u64, f64>,
    /// Persistent per-node NIC slowdowns, sorted by the full event key:
    /// from slot `s` onward the node's NIC runs `factor×` slower. Multiple
    /// events for one node compose multiplicatively.
    nic_slowdowns: Vec<(u64, NodeRef, f64)>,
    /// Persistent per-backbone degradations, sorted by the full event key:
    /// from slot `s` onward link `l` runs `factor×` slower.
    link_degradations: Vec<(u64, usize, f64)>,
}

/// Minimal xorshift64* generator — keeps the crate std-only while matching
/// the deterministic-workload idiom of the `redistload` driver.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

impl FaultPlan {
    /// The empty plan: no faults, execution degenerates to plain schedule
    /// execution.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Generates a plan from `seed` for a `n1 × n2` platform. The same
    /// `(seed, n1, n2, spec)` always yields the same plan.
    pub fn generate(seed: u64, n1: usize, n2: usize, spec: &FaultSpec) -> FaultPlan {
        let mut rng = Rng::new(seed);
        let mut plan = FaultPlan::default();
        for _ in 0..spec.transients {
            let slot = rng.below(spec.horizon);
            // Early op positions so small steps are hit too.
            let op = rng.below(4) as usize;
            let fails = 1 + rng.below(spec.max_consecutive.max(1) as u64) as u32;
            plan.transients.insert((slot, op), fails);
        }
        let mut dropped: Vec<NodeRef> = Vec::new();
        for _ in 0..spec.node_drops {
            let slot = rng.below(spec.horizon);
            let idx = rng.below((n1 + n2) as u64) as usize;
            let node = if idx < n1 {
                NodeRef::Sender(idx)
            } else {
                NodeRef::Receiver(idx - n1)
            };
            if !dropped.contains(&node) {
                dropped.push(node);
                plan.drops.push((slot, node));
            }
        }
        plan.drops.sort_by_key(|&(slot, node)| (slot, node));
        for _ in 0..spec.slowdowns {
            let slot = rng.below(spec.horizon);
            let factor = [2.0, 4.0, 8.0][rng.below(3) as usize];
            plan.slowdowns.insert(slot, factor);
        }
        // New event kinds draw after the legacy ones so plans generated
        // with zero counts (the default) keep their exact historical
        // event sequence for a given seed.
        for _ in 0..spec.nic_slowdowns {
            let slot = rng.below(spec.horizon);
            let idx = rng.below((n1 + n2) as u64) as usize;
            let node = if idx < n1 {
                NodeRef::Sender(idx)
            } else {
                NodeRef::Receiver(idx - n1)
            };
            let factor = [1.5, 2.0, 4.0][rng.below(3) as usize];
            plan.push_nic_slowdown(slot, node, factor);
        }
        for _ in 0..spec.link_degradations {
            let slot = rng.below(spec.horizon);
            let link = rng.below(spec.links.max(1) as u64) as usize;
            let factor = [2.0, 4.0, 8.0][rng.below(3) as usize];
            plan.push_link_degradation(slot, link, factor);
        }
        plan
    }

    /// Places a transient event by hand: `fails` consecutive failures for
    /// op `op` of the step at `slot` (builder for tests and bespoke plans).
    pub fn insert_transient(&mut self, slot: u64, op: usize, fails: u32) {
        assert!(fails >= 1, "a transient event fails at least once");
        self.transients.insert((slot, op), fails);
    }

    /// Places a node-drop event by hand, keeping drops in the canonical
    /// `(slot, node)` order.
    pub fn push_drop(&mut self, slot: u64, node: NodeRef) {
        self.drops.push((slot, node));
        self.drops.sort_by_key(|&(s, n)| (s, n));
    }

    /// Places a slowdown event by hand. A second slowdown on the same slot
    /// composes multiplicatively (commutative, so push order is
    /// irrelevant).
    pub fn push_slowdown(&mut self, slot: u64, factor: f64) {
        assert!(factor > 1.0, "a slowdown stretches the step");
        *self.slowdowns.entry(slot).or_insert(1.0) *= factor;
    }

    /// Places a persistent per-node NIC slowdown: from `slot` onward the
    /// node's transfers run `factor×` slower. Events compose
    /// multiplicatively and are stored in canonical key order.
    pub fn push_nic_slowdown(&mut self, slot: u64, node: NodeRef, factor: f64) {
        assert!(factor > 1.0, "a NIC slowdown stretches transfers");
        self.nic_slowdowns.push((slot, node, factor));
        self.nic_slowdowns
            .sort_by_key(|a| (a.0, a.1, a.2.to_bits()));
    }

    /// Places a persistent per-backbone degradation: from `slot` onward
    /// link `link` runs `factor×` slower. Events compose multiplicatively
    /// and are stored in canonical key order.
    pub fn push_link_degradation(&mut self, slot: u64, link: usize, factor: f64) {
        assert!(factor > 1.0, "a degradation stretches transfers");
        self.link_degradations.push((slot, link, factor));
        self.link_degradations
            .sort_by_key(|a| (a.0, a.1, a.2.to_bits()));
    }

    /// Consecutive transient failures for op `op` of the step at `slot`
    /// (zero almost everywhere).
    pub fn transient_failures(&self, slot: u64, op: usize) -> u32 {
        self.transients.get(&(slot, op)).copied().unwrap_or(0)
    }

    /// The node drops taking effect at `slot`, in generation order.
    /// `drop_cursor` / [`Self::drops`] give the runtime ordered access.
    pub fn drops(&self) -> &[(u64, NodeRef)] {
        &self.drops
    }

    /// The slowdown factor for the step at `slot` (1.0 when none).
    pub fn slowdown_at(&self, slot: u64) -> f64 {
        self.slowdowns.get(&slot).copied().unwrap_or(1.0)
    }

    /// The persistent NIC slowdown events, in canonical order.
    pub fn nic_slowdowns(&self) -> &[(u64, NodeRef, f64)] {
        &self.nic_slowdowns
    }

    /// The persistent backbone degradation events, in canonical order.
    pub fn link_degradations(&self) -> &[(u64, usize, f64)] {
        &self.link_degradations
    }

    /// The accumulated NIC slowdown of `node` in force at `slot`: the
    /// product of every event with an effect slot ≤ `slot` (1.0 when
    /// untouched). Multiplication is commutative, so the result depends
    /// only on the event multiset.
    pub fn nic_factor_at(&self, slot: u64, node: NodeRef) -> f64 {
        self.nic_slowdowns
            .iter()
            .filter(|&&(s, n, _)| s <= slot && n == node)
            .map(|&(_, _, f)| f)
            .product()
    }

    /// The accumulated degradation of backbone `link` in force at `slot`.
    pub fn link_factor_at(&self, slot: u64, link: usize) -> f64 {
        self.link_degradations
            .iter()
            .filter(|&&(s, l, _)| s <= slot && l == link)
            .map(|&(_, _, f)| f)
            .product()
    }

    /// The full shaping of the step at `slot` for an `n1 × n2` platform:
    /// the global slowdown plus per-node and per-link factors in force.
    /// Vectors stay empty when no per-node/per-link event has taken effect
    /// yet, which keeps the fault-free path byte-identical to the legacy
    /// scalar-slowdown one.
    pub fn step_faults(&self, slot: u64, n1: usize, n2: usize) -> crate::transport::StepFaults {
        let mut faults = crate::transport::StepFaults::uniform(self.slowdown_at(slot));
        if self.nic_slowdowns.iter().any(|&(s, _, _)| s <= slot) {
            faults.sender_factors = (0..n1)
                .map(|i| self.nic_factor_at(slot, NodeRef::Sender(i)))
                .collect();
            faults.receiver_factors = (0..n2)
                .map(|j| self.nic_factor_at(slot, NodeRef::Receiver(j)))
                .collect();
        }
        if let Some(max_link) = self
            .link_degradations
            .iter()
            .filter(|&&(s, _, _)| s <= slot)
            .map(|&(_, l, _)| l)
            .max()
        {
            faults.link_factors = (0..=max_link)
                .map(|l| self.link_factor_at(slot, l))
                .collect();
        }
        faults
    }

    /// Total number of events in the plan — an upper bound on how many
    /// replans an execution can possibly need.
    pub fn event_count(&self) -> usize {
        self.transients.len()
            + self.drops.len()
            + self.slowdowns.len()
            + self.nic_slowdowns.len()
            + self.link_degradations.len()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.event_count() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert_eq!(p.event_count(), 0);
        assert_eq!(p.transient_failures(0, 0), 0);
        assert_eq!(p.slowdown_at(3), 1.0);
        assert!(p.drops().is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = FaultSpec::default();
        let a = FaultPlan::generate(42, 4, 4, &spec);
        let b = FaultPlan::generate(42, 4, 4, &spec);
        assert_eq!(a.transients, b.transients);
        assert_eq!(a.drops, b.drops);
        assert_eq!(a.slowdowns, b.slowdowns);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let spec = FaultSpec {
            transients: 12,
            ..FaultSpec::default()
        };
        let a = FaultPlan::generate(1, 4, 4, &spec);
        let b = FaultPlan::generate(2, 4, 4, &spec);
        assert!(a.transients != b.transients || a.drops != b.drops || a.slowdowns != b.slowdowns);
    }

    #[test]
    fn events_respect_spec_bounds() {
        let spec = FaultSpec {
            transients: 20,
            max_consecutive: 2,
            node_drops: 3,
            slowdowns: 5,
            horizon: 10,
            ..FaultSpec::default()
        };
        let p = FaultPlan::generate(7, 3, 5, &spec);
        for (&(slot, _), &fails) in &p.transients {
            assert!(slot < 10);
            assert!((1..=2).contains(&fails));
        }
        for &(slot, node) in p.drops() {
            assert!(slot < 10);
            match node {
                NodeRef::Sender(i) => assert!(i < 3),
                NodeRef::Receiver(j) => assert!(j < 5),
            }
        }
        for (&slot, &f) in &p.slowdowns {
            assert!(slot < 10);
            assert!(f > 1.0);
        }
        // Collisions may merge map entries but never exceed the spec counts.
        assert!(p.transients.len() <= 20);
        assert!(p.drops.len() <= 3);
        assert!(p.slowdowns.len() <= 5);
    }

    #[test]
    fn push_order_never_changes_the_plan() {
        // The same event multiset — a drop, a step slowdown, a NIC
        // slowdown and a link degradation all on slot 3, plus a second
        // same-slot slowdown — pushed in two different orders must yield
        // identical plans (satellite of the slot-determinism fix).
        let build = |order: &[usize]| {
            let mut p = FaultPlan::none();
            for &e in order {
                match e {
                    0 => p.push_drop(3, NodeRef::Sender(1)),
                    1 => p.push_slowdown(3, 2.0),
                    2 => p.push_slowdown(3, 4.0),
                    3 => p.push_nic_slowdown(3, NodeRef::Receiver(0), 2.0),
                    4 => p.push_nic_slowdown(3, NodeRef::Receiver(0), 1.5),
                    5 => p.push_link_degradation(3, 0, 2.0),
                    _ => p.push_drop(3, NodeRef::Receiver(2)),
                }
            }
            p
        };
        let a = build(&[0, 1, 2, 3, 4, 5, 6]);
        let b = build(&[6, 5, 4, 3, 2, 1, 0]);
        assert_eq!(a, b, "event push order leaked into the plan");
        assert_eq!(a.slowdown_at(3), 8.0, "same-slot slowdowns compose");
        assert!((a.nic_factor_at(3, NodeRef::Receiver(0)) - 3.0).abs() < 1e-12);
        assert_eq!(a.nic_factor_at(2, NodeRef::Receiver(0)), 1.0, "not yet");
        assert_eq!(a.link_factor_at(5, 0), 2.0, "persists past its slot");
        // 2 drops + 1 composed slowdown entry + 2 NIC events + 1 link event.
        assert_eq!(a.event_count(), 6);
    }

    #[test]
    fn step_faults_stay_uniform_without_node_events() {
        let mut p = FaultPlan::none();
        p.push_slowdown(2, 4.0);
        let f = p.step_faults(2, 3, 3);
        assert_eq!(f.slowdown, 4.0);
        assert!(f.sender_factors.is_empty() && f.link_factors.is_empty());
        assert!(f.is_uniform() || f.slowdown != 1.0);

        p.push_nic_slowdown(1, NodeRef::Sender(0), 2.0);
        p.push_link_degradation(4, 1, 8.0);
        let f = p.step_faults(2, 3, 3);
        assert_eq!(f.sender_factors, vec![2.0, 1.0, 1.0]);
        assert_eq!(f.receiver_factors, vec![1.0, 1.0, 1.0]);
        assert!(f.link_factors.is_empty(), "link event not due yet");
        let f = p.step_faults(9, 3, 3);
        assert_eq!(f.link_factors, vec![1.0, 8.0]);
    }

    #[test]
    fn generate_with_new_kinds_targets_valid_nodes_and_links() {
        let spec = FaultSpec {
            nic_slowdowns: 8,
            link_degradations: 5,
            links: 3,
            ..FaultSpec::default()
        };
        let p = FaultPlan::generate(11, 3, 4, &spec);
        assert_eq!(p.nic_slowdowns().len(), 8);
        assert_eq!(p.link_degradations().len(), 5);
        for &(slot, node, f) in p.nic_slowdowns() {
            assert!(slot < spec.horizon);
            assert!(f > 1.0);
            match node {
                NodeRef::Sender(i) => assert!(i < 3),
                NodeRef::Receiver(j) => assert!(j < 4),
            }
        }
        for &(slot, link, f) in p.link_degradations() {
            assert!(slot < spec.horizon && link < 3 && f > 1.0);
        }
        // Zero counts reproduce the legacy event stream exactly.
        let legacy = FaultPlan::generate(42, 4, 4, &FaultSpec::default());
        let extended = FaultPlan::generate(
            42,
            4,
            4,
            &FaultSpec {
                nic_slowdowns: 0,
                link_degradations: 0,
                ..FaultSpec::default()
            },
        );
        assert_eq!(legacy, extended);
    }

    #[test]
    fn drops_sorted_and_distinct() {
        let spec = FaultSpec {
            node_drops: 6,
            ..FaultSpec::default()
        };
        let p = FaultPlan::generate(99, 4, 4, &spec);
        for w in p.drops().windows(2) {
            assert!(w[0].0 <= w[1].0, "drops sorted by slot");
        }
        for (i, &(_, a)) in p.drops().iter().enumerate() {
            for &(_, b) in &p.drops()[i + 1..] {
                assert_ne!(a, b, "each node dropped at most once");
            }
        }
    }
}
