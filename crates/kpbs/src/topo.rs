//! Heterogeneous multi-backbone topologies and per-bottleneck planning.
//!
//! The paper's platform is two *homogeneous* clusters joined by one
//! backbone; [`Platform`] captures exactly that. Real fleets are neither
//! uniform nor flat: per-node NIC speeds differ (the star model of
//! Marchal–Rehn–Robert–Vivien) and clusters of clusters hang off several
//! backbones. This module generalises the model declaratively:
//!
//! * a [`Topology`] is a list of [`NodeSpec`]s (per-node NIC speeds, cluster
//!   membership) plus a list of [`BackboneSpec`]s (capacity, which ordered
//!   cluster pair the link carries);
//! * every backbone derives its **own** preemption bound
//!   [`Topology::link_k`] — `k_b = ⌊T_b / t_max_b⌋` where `t_max_b` is the
//!   fastest pair speed the link can see — instead of the global
//!   [`Platform::k`];
//! * [`plan_topology`] routes each traffic-matrix cell to its governing
//!   backbone, plans every backbone's sub-instance independently (with any
//!   [`Algo`]) under that backbone's `k_b`, and composes
//!   the per-backbone schedules — zipping backbones that touch disjoint
//!   clusters, concatenating the rest — into one [`Schedule`] validated
//!   against the global instance;
//! * [`topo_lower_bound`] replaces the uniform-speed Cohen–Jeannot–Padoy
//!   bound: node busy times use per-pair speeds and the volume/step terms
//!   are taken per backbone under its `k_b`.
//!
//! The homogeneous two-cluster topology is the *oracle*: it reduces exactly
//! to [`Platform`] ([`Topology::as_platform`]) and produces byte-identical
//! instances and schedules — the differential proptests in `tests/topo.rs`
//! pin that reduction.

use crate::algo::Algo;
use crate::lower_bound;
use crate::platform::Platform;
use crate::problem::Instance;
use crate::schedule::{Schedule, Step, Transfer};
use crate::traffic::{TickScale, TrafficMatrix};
use crate::validate::ValidationError;
use bipartite::{properties, EdgeId, Graph, Weight};
use telemetry::counters::{self, Counter};

/// One endpoint node: its NIC speeds (Mbit/s) and the cluster it lives in.
///
/// Whether `nic_out` or `nic_in` matters depends on the node's role, which
/// follows from its cluster: nodes of clusters that appear as the *source*
/// of a [`BackboneSpec`] are senders, nodes of destination clusters are
/// receivers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    /// Egress NIC throughput, Mbit/s.
    pub nic_out: f64,
    /// Ingress NIC throughput, Mbit/s.
    pub nic_in: f64,
    /// Cluster this node belongs to.
    pub cluster: usize,
}

/// A backbone link: its capacity (Mbit/s) and the ordered cluster pair
/// whose traffic it carries (`connects.0` → `connects.1`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackboneSpec {
    /// Link throughput `T_b`, Mbit/s.
    pub capacity: f64,
    /// `(source cluster, destination cluster)`.
    pub connects: (usize, usize),
}

/// A declarative platform description: star platforms, per-node NIC speeds
/// and multi-level cluster-of-clusters with several backbones.
///
/// Senders are the nodes of source clusters in `nodes` order; receivers the
/// nodes of destination clusters likewise. The traffic matrix a topology
/// plans is indexed by those *ranks*, exactly as [`Platform`] indexes its
/// `n1 × n2` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Every node of the platform.
    pub nodes: Vec<NodeSpec>,
    /// Every backbone link.
    pub links: Vec<BackboneSpec>,
}

/// Failures of topology-aware planning.
#[derive(Debug)]
pub enum TopoError {
    /// The topology failed [`Topology::validate`].
    Invalid(String),
    /// Traffic matrix and topology dimensions disagree.
    DimensionMismatch(String),
    /// A non-zero traffic cell has no backbone connecting its clusters.
    Unroutable {
        /// Sender rank of the unroutable cell.
        sender: usize,
        /// Receiver rank of the unroutable cell.
        receiver: usize,
    },
    /// The composed schedule failed validation (a planner bug, surfaced
    /// rather than silently returned).
    InvalidSchedule(ValidationError),
}

impl std::fmt::Display for TopoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopoError::Invalid(m) => write!(f, "invalid topology: {m}"),
            TopoError::DimensionMismatch(m) => write!(f, "dimension mismatch: {m}"),
            TopoError::Unroutable { sender, receiver } => write!(
                f,
                "no backbone connects sender {sender} to receiver {receiver}"
            ),
            TopoError::InvalidSchedule(e) => write!(f, "composed schedule invalid: {e}"),
        }
    }
}

impl std::error::Error for TopoError {}

impl Topology {
    /// The paper's two-cluster platform as a topology: `n1` senders at `t1`
    /// Mbit/s, `n2` receivers at `t2`, one backbone of `backbone` Mbit/s.
    /// This is the homogeneous oracle — see [`Topology::as_platform`].
    pub fn two_cluster(n1: usize, n2: usize, t1: f64, t2: f64, backbone: f64) -> Topology {
        let mut nodes = Vec::with_capacity(n1 + n2);
        nodes.extend(std::iter::repeat_n(
            NodeSpec {
                nic_out: t1,
                nic_in: t1,
                cluster: 0,
            },
            n1,
        ));
        nodes.extend(std::iter::repeat_n(
            NodeSpec {
                nic_out: t2,
                nic_in: t2,
                cluster: 1,
            },
            n2,
        ));
        Topology {
            nodes,
            links: vec![BackboneSpec {
                capacity: backbone,
                connects: (0, 1),
            }],
        }
    }

    /// The topology corresponding to a [`Platform`].
    pub fn from_platform(p: &Platform) -> Topology {
        Topology::two_cluster(p.n1, p.n2, p.t1, p.t2, p.backbone)
    }

    /// A star platform (Marchal et al.): every node has its own NIC speed,
    /// all transfers cross one shared backbone.
    ///
    /// # Panics
    ///
    /// Panics if either side is empty.
    pub fn star(nic_out: &[f64], nic_in: &[f64], backbone: f64) -> Topology {
        assert!(
            !nic_out.is_empty() && !nic_in.is_empty(),
            "star needs nodes on both sides"
        );
        let mut nodes = Vec::with_capacity(nic_out.len() + nic_in.len());
        for &t in nic_out {
            nodes.push(NodeSpec {
                nic_out: t,
                nic_in: t,
                cluster: 0,
            });
        }
        for &t in nic_in {
            nodes.push(NodeSpec {
                nic_out: t,
                nic_in: t,
                cluster: 1,
            });
        }
        Topology {
            nodes,
            links: vec![BackboneSpec {
                capacity: backbone,
                connects: (0, 1),
            }],
        }
    }

    /// Checks the topology: non-empty, finite positive NIC speeds and
    /// capacities, links joining distinct clusters with consistent roles
    /// (no cluster is both a source and a destination), no duplicate
    /// cluster pair, every linked cluster populated and every node's
    /// cluster linked.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("topology has no nodes".into());
        }
        if self.links.is_empty() {
            return Err("topology has no backbone links".into());
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if !(n.nic_out.is_finite() && n.nic_out > 0.0) {
                return Err(format!("node {i}: nic_out must be positive and finite"));
            }
            if !(n.nic_in.is_finite() && n.nic_in > 0.0) {
                return Err(format!("node {i}: nic_in must be positive and finite"));
            }
        }
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for (b, l) in self.links.iter().enumerate() {
            if !(l.capacity.is_finite() && l.capacity > 0.0) {
                return Err(format!("link {b}: capacity must be positive and finite"));
            }
            let (src, dst) = l.connects;
            if src == dst {
                return Err(format!("link {b}: connects cluster {src} to itself"));
            }
            if pairs.contains(&(src, dst)) {
                return Err(format!("link {b}: duplicate link for clusters {src}→{dst}"));
            }
            pairs.push((src, dst));
        }
        for &(src, _) in &pairs {
            if pairs.iter().any(|&(_, d)| d == src) {
                return Err(format!(
                    "cluster {src} is both a source and a destination of backbone links"
                ));
            }
        }
        for &(src, dst) in &pairs {
            for c in [src, dst] {
                if !self.nodes.iter().any(|n| n.cluster == c) {
                    return Err(format!("cluster {c} is linked but has no nodes"));
                }
            }
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if !pairs.iter().any(|&(s, d)| s == n.cluster || d == n.cluster) {
                return Err(format!(
                    "node {i}: cluster {} is not connected by any backbone",
                    n.cluster
                ));
            }
        }
        Ok(())
    }

    /// True when `cluster` appears as the source of some link.
    fn is_sender_cluster(&self, cluster: usize) -> bool {
        self.links.iter().any(|l| l.connects.0 == cluster)
    }

    /// Node indices of all senders, in `nodes` order (rank = position).
    pub fn sender_nodes(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.is_sender_cluster(self.nodes[i].cluster))
            .collect()
    }

    /// Node indices of all receivers, in `nodes` order (rank = position).
    pub fn receiver_nodes(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| {
                self.links
                    .iter()
                    .any(|l| l.connects.1 == self.nodes[i].cluster)
            })
            .collect()
    }

    /// Number of sender nodes (the traffic matrix's row count).
    pub fn senders(&self) -> usize {
        self.sender_nodes().len()
    }

    /// Number of receiver nodes (the traffic matrix's column count).
    pub fn receivers(&self) -> usize {
        self.receiver_nodes().len()
    }

    /// Egress NIC speeds of the senders, in rank order (Mbit/s).
    pub fn sender_speeds(&self) -> Vec<f64> {
        self.sender_nodes()
            .iter()
            .map(|&i| self.nodes[i].nic_out)
            .collect()
    }

    /// Ingress NIC speeds of the receivers, in rank order (Mbit/s).
    pub fn receiver_speeds(&self) -> Vec<f64> {
        self.receiver_nodes()
            .iter()
            .map(|&i| self.nodes[i].nic_in)
            .collect()
    }

    /// The link carrying traffic from sender rank `i` to receiver rank `j`,
    /// if any (`None` means the pair is unroutable).
    pub fn route(&self, i: usize, j: usize) -> Option<usize> {
        let cs = self.nodes[*self.sender_nodes().get(i)?].cluster;
        let cd = self.nodes[*self.receiver_nodes().get(j)?].cluster;
        self.links.iter().position(|l| l.connects == (cs, cd))
    }

    /// The per-bottleneck preemption bound `k_b` of link `b`.
    ///
    /// Generalises [`Platform::k`]: a transfer on link `b` moves at its pair
    /// speed `min(nic_out_i, nic_in_j) ≤ t_max_b`, where `t_max_b =
    /// min(max_i nic_out_i, max_j nic_in_j)` over the link's endpoints, so
    /// `⌊T_b / t_max_b⌋` concurrent transfers never congest the link;
    /// clamped to `[1, min(n_senders, n_receivers)]` like the uniform bound
    /// (the same `1e-9` epsilon absorbs exact-multiple float noise). On the
    /// homogeneous two-cluster topology this is exactly [`Platform::k`].
    pub fn link_k(&self, b: usize) -> usize {
        let link = &self.links[b];
        let out_max = self
            .nodes
            .iter()
            .filter(|n| n.cluster == link.connects.0)
            .map(|n| n.nic_out)
            .fold(f64::NEG_INFINITY, f64::max);
        let in_max = self
            .nodes
            .iter()
            .filter(|n| n.cluster == link.connects.1)
            .map(|n| n.nic_in)
            .fold(f64::NEG_INFINITY, f64::max);
        let ns = self
            .nodes
            .iter()
            .filter(|n| n.cluster == link.connects.0)
            .count();
        let nr = self
            .nodes
            .iter()
            .filter(|n| n.cluster == link.connects.1)
            .count();
        let t_max = out_max.min(in_max);
        let by_backbone = (link.capacity / t_max + 1e-9).floor() as usize;
        by_backbone.clamp(1, ns.min(nr).max(1))
    }

    /// All per-bottleneck bounds, one per link (counted as
    /// [`Counter::TopoDeriveK`] work).
    pub fn link_ks(&self) -> Vec<usize> {
        counters::add(Counter::TopoDeriveK, self.links.len() as u64);
        (0..self.links.len()).map(|b| self.link_k(b)).collect()
    }

    /// The [`Platform`] this topology reduces to, when it is exactly the
    /// paper's shape: two clusters, one backbone, uniform sender egress and
    /// uniform receiver ingress speeds. The oracle check: planning through
    /// the topology path and through the platform path must then produce
    /// byte-identical schedules.
    pub fn as_platform(&self) -> Option<Platform> {
        if self.links.len() != 1 || self.validate().is_err() {
            return None;
        }
        let out = self.sender_speeds();
        let inn = self.receiver_speeds();
        let (&t1, &t2) = (out.first()?, inn.first()?);
        if out.iter().any(|&t| t != t1) || inn.iter().any(|&t| t != t2) {
            return None;
        }
        Some(Platform::new(
            out.len(),
            inn.len(),
            t1,
            t2,
            self.links[0].capacity,
        ))
    }

    /// A two-cluster platform no faster than any sender–receiver pair of
    /// this (valid) topology, under an unconstrained backbone: its tick
    /// conversions bound every pair's, and its `k = min(n1, n2)` bounds
    /// every link's `k_b` and the composed width. Checking a matrix on it
    /// ([`TrafficMatrix::check_tick_budget`]) therefore covers
    /// [`plan_topology`].
    pub fn slowest_platform(&self) -> Platform {
        let slowest = |speeds: Vec<f64>| speeds.into_iter().fold(f64::INFINITY, f64::min);
        Platform::new(
            self.senders(),
            self.receivers(),
            slowest(self.sender_speeds()),
            slowest(self.receiver_speeds()),
            f64::INFINITY,
        )
    }

    /// Parses the simple text format the `--topo FILE` CLI flag accepts:
    ///
    /// ```text
    /// # comment
    /// node OUT_MBPS IN_MBPS CLUSTER [COUNT]
    /// link CAPACITY_MBPS SRC_CLUSTER DST_CLUSTER
    /// ```
    ///
    /// `node` lines append `COUNT` (default 1) identical nodes; `link`
    /// lines append one backbone. The parsed topology is validated — this
    /// is the wire-decoding choke point.
    pub fn parse(text: &str) -> Result<Topology, String> {
        let mut topo = Topology {
            nodes: Vec::new(),
            links: Vec::new(),
        };
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let ctx = |m: &str| format!("line {}: {m}", lineno + 1);
            match fields[0] {
                "node" => {
                    if !(4..=5).contains(&fields.len()) {
                        return Err(ctx("want: node OUT IN CLUSTER [COUNT]"));
                    }
                    let nic_out: f64 = fields[1].parse().map_err(|_| ctx("bad OUT"))?;
                    let nic_in: f64 = fields[2].parse().map_err(|_| ctx("bad IN"))?;
                    let cluster: usize = fields[3].parse().map_err(|_| ctx("bad CLUSTER"))?;
                    let count: usize = match fields.get(4) {
                        Some(c) => c.parse().map_err(|_| ctx("bad COUNT"))?,
                        None => 1,
                    };
                    topo.nodes.extend(std::iter::repeat_n(
                        NodeSpec {
                            nic_out,
                            nic_in,
                            cluster,
                        },
                        count,
                    ));
                }
                "link" => {
                    if fields.len() != 4 {
                        return Err(ctx("want: link CAPACITY SRC DST"));
                    }
                    let capacity: f64 = fields[1].parse().map_err(|_| ctx("bad CAPACITY"))?;
                    let src: usize = fields[2].parse().map_err(|_| ctx("bad SRC"))?;
                    let dst: usize = fields[3].parse().map_err(|_| ctx("bad DST"))?;
                    topo.links.push(BackboneSpec {
                        capacity,
                        connects: (src, dst),
                    });
                }
                other => return Err(ctx(&format!("unknown directive '{other}'"))),
            }
        }
        topo.validate()?;
        Ok(topo)
    }

    /// Renders the topology in the [`Topology::parse`] text format
    /// (consecutive identical nodes collapsed into one `COUNT` line).
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let mut i = 0;
        while i < self.nodes.len() {
            let n = self.nodes[i];
            let mut count = 1;
            while i + count < self.nodes.len() && self.nodes[i + count] == n {
                count += 1;
            }
            let _ = writeln!(
                out,
                "node {} {} {} {}",
                n.nic_out, n.nic_in, n.cluster, count
            );
            i += count;
        }
        for l in &self.links {
            let _ = writeln!(out, "link {} {} {}", l.capacity, l.connects.0, l.connects.1);
        }
        out
    }
}

/// What one backbone's sub-plan looked like.
#[derive(Debug, Clone)]
pub struct LinkPlan {
    /// Link index into [`Topology::links`].
    pub link: usize,
    /// Per-bottleneck preemption bound the sub-plan ran under.
    pub k: usize,
    /// Messages routed over this link.
    pub messages: usize,
    /// Ticks of transfer volume routed over this link.
    pub volume_ticks: Weight,
    /// Cost of the link's sub-schedule, in ticks (0 when idle).
    pub cost: Weight,
    /// Cohen–Jeannot–Padoy bound of the link's sub-instance, in ticks.
    pub lower_bound: Weight,
}

/// A topology-aware plan: the global heterogeneous instance, the composed
/// validated schedule, and the per-backbone breakdown.
#[derive(Debug, Clone)]
pub struct TopoPlan {
    /// Global instance: every message as an edge weighted by its duration
    /// at the *pair* speed `min(nic_out_i, nic_in_j)`; `k` is the widest
    /// concurrent budget the composition uses.
    pub instance: Instance,
    /// `(sender rank, receiver rank)` behind each dense edge id.
    pub endpoints: Vec<(usize, usize)>,
    /// Byte volume behind each dense edge id.
    pub bytes: Vec<u64>,
    /// The composed schedule, validated against `instance`.
    pub schedule: Schedule,
    /// Per-backbone sub-plan summaries, one per topology link.
    pub link_plans: Vec<LinkPlan>,
    /// The heterogeneity-aware lower bound ([`topo_lower_bound`]), ticks.
    pub lower_bound: Weight,
}

impl TopoPlan {
    /// `cost / lower_bound` — the paper's evaluation ratio under the
    /// heterogeneity-aware bound (1.0 for an empty plan).
    pub fn evaluation_ratio(&self) -> f64 {
        let lb = self.lower_bound;
        if lb == 0 {
            return 1.0;
        }
        self.schedule.cost() as f64 / lb as f64
    }
}

/// Per-link routing of a traffic matrix: the global graph, endpoints,
/// bytes, and each link's edges in global edge-id order.
struct Routing {
    graph: Graph,
    endpoints: Vec<(usize, usize)>,
    bytes: Vec<u64>,
    /// Global edge ids routed to each link (link-local edge id `i` of link
    /// `b` is `link_edges[b][i]` — the composition back-map).
    link_edges: Vec<Vec<EdgeId>>,
}

/// Routes every non-zero cell to its governing backbone, converting bytes
/// to ticks at the pair speed. The single choke point both the planner and
/// the standalone lower bound share.
fn route(traffic: &TrafficMatrix, topo: &Topology, scale: TickScale) -> Result<Routing, TopoError> {
    topo.validate().map_err(TopoError::Invalid)?;
    let senders = topo.sender_nodes();
    let receivers = topo.receiver_nodes();
    if traffic.senders() != senders.len() || traffic.receivers() != receivers.len() {
        return Err(TopoError::DimensionMismatch(format!(
            "traffic {}×{} vs topology {}×{}",
            traffic.senders(),
            traffic.receivers(),
            senders.len(),
            receivers.len()
        )));
    }
    // Cluster pair → link index.
    let link_of = |cs: usize, cd: usize| topo.links.iter().position(|l| l.connects == (cs, cd));
    let mut graph = Graph::new(senders.len(), receivers.len());
    let mut endpoints = Vec::with_capacity(traffic.message_count());
    let mut bytes = Vec::with_capacity(traffic.message_count());
    let mut link_edges: Vec<Vec<EdgeId>> = vec![Vec::new(); topo.links.len()];
    for (i, &si) in senders.iter().enumerate() {
        for (j, &rj) in receivers.iter().enumerate() {
            let b = traffic.get(i, j);
            if b == 0 {
                continue;
            }
            let Some(link) = link_of(topo.nodes[si].cluster, topo.nodes[rj].cluster) else {
                return Err(TopoError::Unroutable {
                    sender: i,
                    receiver: j,
                });
            };
            // The exact per-cell conversion of `TrafficMatrix::to_instance`,
            // at the pair speed instead of the platform-wide minimum.
            let speed = topo.nodes[si].nic_out.min(topo.nodes[rj].nic_in);
            let speed_bytes_per_s = speed * 1e6 / 8.0;
            let w = scale.to_ticks(b as f64 / speed_bytes_per_s);
            let e = graph.add_edge(i, j, w);
            endpoints.push((i, j));
            bytes.push(b);
            link_edges[link].push(e);
        }
    }
    counters::add(Counter::TopoRouteMessages, endpoints.len() as u64);
    Ok(Routing {
        graph,
        endpoints,
        bytes,
        link_edges,
    })
}

/// Groups link indices so that links within a group touch pairwise-disjoint
/// clusters (their schedules may run in parallel); greedy first-fit in link
/// order, deterministic for a given topology.
fn disjoint_groups(topo: &Topology, active: &[usize]) -> Vec<Vec<usize>> {
    let mut groups: Vec<(Vec<usize>, Vec<usize>)> = Vec::new(); // (links, clusters)
    for &b in active {
        let (s, d) = topo.links[b].connects;
        match groups
            .iter_mut()
            .find(|(_, cl)| !cl.contains(&s) && !cl.contains(&d))
        {
            Some((links, clusters)) => {
                links.push(b);
                clusters.extend([s, d]);
            }
            None => groups.push((vec![b], vec![s, d])),
        }
    }
    groups.into_iter().map(|(links, _)| links).collect()
}

/// Plans `traffic` over `topo`: routes every message to its backbone,
/// plans each backbone's sub-instance under its own `k_b` with `algo`, and
/// composes the sub-schedules into one validated [`Schedule`].
///
/// On the homogeneous two-cluster topology the result is byte-identical to
/// planning `traffic.to_instance(&platform, …)` with the same algorithm —
/// the oracle reduction.
pub fn plan_topology(
    traffic: &TrafficMatrix,
    topo: &Topology,
    beta_seconds: f64,
    scale: TickScale,
    algo: Algo,
) -> Result<TopoPlan, TopoError> {
    let _s = telemetry::span("kpbs.topo_plan");
    let routing = route(traffic, topo, scale)?;
    let beta = scale.to_ticks(beta_seconds);
    let ks = topo.link_ks();
    let senders = topo.sender_nodes();
    let receivers = topo.receiver_nodes();

    // Per-link sub-instances: the link's clusters renumbered locally (all
    // their nodes, mirroring `to_instance` which keeps idle nodes), edges
    // in global edge-id order so local edge id i maps back through
    // `link_edges[b][i]`.
    let mut link_plans: Vec<LinkPlan> = Vec::with_capacity(topo.links.len());
    let mut sub_schedules: Vec<Option<Schedule>> = Vec::with_capacity(topo.links.len());
    for (b, edges) in routing.link_edges.iter().enumerate() {
        if edges.is_empty() {
            link_plans.push(LinkPlan {
                link: b,
                k: ks[b],
                messages: 0,
                volume_ticks: 0,
                cost: 0,
                lower_bound: 0,
            });
            sub_schedules.push(None);
            continue;
        }
        let (cs, cd) = topo.links[b].connects;
        let mut left_local = vec![usize::MAX; senders.len()];
        let mut right_local = vec![usize::MAX; receivers.len()];
        let mut nl = 0;
        for (rank, &node) in senders.iter().enumerate() {
            if topo.nodes[node].cluster == cs {
                left_local[rank] = nl;
                nl += 1;
            }
        }
        let mut nr = 0;
        for (rank, &node) in receivers.iter().enumerate() {
            if topo.nodes[node].cluster == cd {
                right_local[rank] = nr;
                nr += 1;
            }
        }
        let mut g = Graph::new(nl, nr);
        for &e in edges {
            g.add_edge(
                left_local[routing.graph.left_of(e)],
                right_local[routing.graph.right_of(e)],
                routing.graph.weight(e),
            );
        }
        let sub = Instance::new(g, ks[b], beta);
        let schedule = algo.plan(&sub);
        debug_assert!(schedule.validate(&sub).is_ok());
        link_plans.push(LinkPlan {
            link: b,
            k: ks[b],
            messages: edges.len(),
            volume_ticks: sub.total_weight(),
            cost: schedule.cost(),
            lower_bound: lower_bound(&sub),
        });
        sub_schedules.push(Some(schedule));
    }

    // Compose: links over disjoint clusters zip step-by-step (the union of
    // matchings over disjoint node sets is a matching); conflicting links
    // run in consecutive groups.
    let active: Vec<usize> = (0..topo.links.len())
        .filter(|&b| sub_schedules[b].is_some())
        .collect();
    let groups = disjoint_groups(topo, &active);
    let mut out = Schedule::new(beta);
    let mut k_global = 1usize;
    for group in &groups {
        k_global = k_global.max(group.iter().map(|&b| ks[b]).sum());
        let longest = group
            .iter()
            .map(|&b| sub_schedules[b].as_ref().map_or(0, |s| s.steps.len()))
            .max()
            .unwrap_or(0);
        for j in 0..longest {
            let mut step = Step::default();
            for &b in group {
                let Some(sub_step) = sub_schedules[b].as_ref().and_then(|s| s.steps.get(j)) else {
                    continue;
                };
                let back = &routing.link_edges[b];
                step.transfers
                    .extend(sub_step.transfers.iter().map(|t| Transfer {
                        edge: back[t.edge.index()],
                        amount: t.amount,
                    }));
            }
            if !step.transfers.is_empty() {
                out.steps.push(step);
            }
        }
    }
    counters::add(Counter::TopoComposeSteps, out.steps.len() as u64);

    let lb = bound_from(&routing.graph, &routing.link_edges, &ks, beta);
    let instance = Instance::new(routing.graph, k_global, beta);
    out.validate(&instance)
        .map_err(TopoError::InvalidSchedule)?;
    Ok(TopoPlan {
        instance,
        endpoints: routing.endpoints,
        bytes: routing.bytes,
        schedule: out,
        link_plans,
        lower_bound: lb,
    })
}

/// The heterogeneity-aware lower bound over an already-routed instance.
fn bound_from(graph: &Graph, link_edges: &[Vec<EdgeId>], ks: &[usize], beta: Weight) -> Weight {
    if graph.is_empty() {
        return 0;
    }
    let w = properties::max_node_weight(graph);
    let delta = properties::max_degree(graph) as u64;
    let mut volume_term: Weight = 0;
    let mut steps_term: u64 = 0;
    for (b, edges) in link_edges.iter().enumerate() {
        if edges.is_empty() {
            continue;
        }
        let k = ks[b] as Weight;
        let p: Weight = edges.iter().map(|&e| graph.weight(e)).sum();
        volume_term = volume_term.max(p.div_ceil(k));
        steps_term = steps_term.max((edges.len() as u64).div_ceil(ks[b] as u64));
    }
    w.max(volume_term) + beta * steps_term.max(delta)
}

/// The heterogeneity-aware lower bound on any feasible schedule of
/// `traffic` over `topo`, in ticks:
///
/// * **transmission** — `max(W, max_b ⌈P_b / k_b⌉)`: the busiest node keeps
///   its single port busy for its total pair-speed duration `W`, and link
///   `b` carries at most `k_b` of its own slices per step;
/// * **setup** — `β · max(Δ, max_b ⌈m_b / k_b⌉)`: 1-port forces a node's
///   `Δ` transfers into distinct steps and each step covers at most `k_b`
///   of link `b`'s edges.
///
/// On the homogeneous two-cluster topology this is exactly
/// [`lower_bound()`](crate::lower_bound::lower_bound) of the platform
/// instance.
pub fn topo_lower_bound(
    traffic: &TrafficMatrix,
    topo: &Topology,
    beta_seconds: f64,
    scale: TickScale,
) -> Result<Weight, TopoError> {
    let routing = route(traffic, topo, scale)?;
    let ks = topo.link_ks();
    Ok(bound_from(
        &routing.graph,
        &routing.link_edges,
        &ks,
        scale.to_ticks(beta_seconds),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oggp;

    fn demo_traffic(n1: usize, n2: usize) -> TrafficMatrix {
        let mut m = TrafficMatrix::zeros(n1, n2);
        for i in 0..n1 {
            for j in 0..n2 {
                m.set(i, j, 1_000_000 * (1 + ((i * n2 + j) % 7)) as u64);
            }
        }
        m
    }

    #[test]
    fn two_cluster_reduces_to_platform() {
        let p = Platform::new(5, 3, 10.0, 100.0, 50.0);
        let t = Topology::from_platform(&p);
        assert!(t.validate().is_ok());
        assert_eq!(t.senders(), 5);
        assert_eq!(t.receivers(), 3);
        assert_eq!(t.as_platform(), Some(p));
        assert_eq!(t.link_k(0), p.k());
    }

    #[test]
    fn link_k_matches_platform_k_across_shapes() {
        for (n1, n2, t1, t2, bb) in [
            (200, 100, 10.0, 100.0, 1000.0),
            (10, 10, 100.0, 100.0, 300.0),
            (4, 4, 100.0, 100.0, 10.0),
            (2, 8, 10.0, 10.0, 1000.0),
            (10, 10, 100.0 / 7.0, 100.0 / 7.0, 100.0),
        ] {
            let p = Platform::new(n1, n2, t1, t2, bb);
            assert_eq!(
                Topology::from_platform(&p).link_k(0),
                p.k(),
                "{n1}x{n2} {t1}/{t2}/{bb}"
            );
        }
    }

    #[test]
    fn invalid_topologies_rejected() {
        let ok = Topology::two_cluster(2, 2, 100.0, 100.0, 100.0);
        assert!(ok.validate().is_ok());

        let mut t = ok.clone();
        t.nodes[0].nic_out = 0.0;
        assert!(t.validate().is_err(), "zero NIC");
        let mut t = ok.clone();
        t.nodes[1].nic_in = f64::NAN;
        assert!(t.validate().is_err(), "NaN NIC");
        let mut t = ok.clone();
        t.links[0].capacity = f64::INFINITY;
        assert!(t.validate().is_err(), "infinite capacity");
        let mut t = ok.clone();
        t.links[0].capacity = -5.0;
        assert!(t.validate().is_err(), "negative capacity");
        let mut t = ok.clone();
        t.links[0].connects = (0, 0);
        assert!(t.validate().is_err(), "self link");
        let mut t = ok.clone();
        t.links.push(t.links[0]);
        assert!(t.validate().is_err(), "duplicate link");
        let mut t = ok.clone();
        t.links.push(BackboneSpec {
            capacity: 10.0,
            connects: (1, 0),
        });
        assert!(t.validate().is_err(), "cluster both source and destination");
        let mut t = ok.clone();
        t.nodes.push(NodeSpec {
            nic_out: 1.0,
            nic_in: 1.0,
            cluster: 9,
        });
        assert!(t.validate().is_err(), "unlinked cluster");
        let mut t = ok.clone();
        t.links[0].connects = (0, 7);
        assert!(t.validate().is_err(), "linked cluster without nodes");
        assert!(Topology {
            nodes: vec![],
            links: vec![]
        }
        .validate()
        .is_err());
    }

    #[test]
    fn homogeneous_plan_is_byte_identical_to_platform_plan() {
        let p = Platform::new(6, 4, 40.0, 100.0, 120.0);
        let topo = Topology::from_platform(&p);
        let m = demo_traffic(6, 4);
        let (inst, endpoints) = m.to_instance(&p, 0.05, TickScale::MILLIS);
        let plan = plan_topology(&m, &topo, 0.05, TickScale::MILLIS, Algo::Oggp).unwrap();
        assert_eq!(plan.instance.k, inst.k);
        assert_eq!(plan.instance.beta, inst.beta);
        assert_eq!(plan.endpoints, endpoints);
        assert_eq!(plan.schedule, oggp(&inst), "oracle schedule diverged");
        assert_eq!(plan.lower_bound, lower_bound(&inst));
    }

    #[test]
    fn star_plan_validates_and_beats_nothing() {
        let topo = Topology::star(&[10.0, 40.0, 100.0], &[100.0, 20.0], 80.0);
        let m = demo_traffic(3, 2);
        let plan = plan_topology(&m, &topo, 0.05, TickScale::MILLIS, Algo::Oggp).unwrap();
        plan.schedule.validate(&plan.instance).unwrap();
        assert!(plan.schedule.cost() >= plan.lower_bound);
        assert!(plan.evaluation_ratio() >= 1.0);
        // Pair speeds differ, so edge weights are no longer uniform per MB.
        let ws: Vec<Weight> = plan
            .instance
            .graph
            .edge_ids()
            .map(|e| plan.instance.graph.weight(e))
            .collect();
        assert!(ws.iter().any(|&w| w != ws[0]));
    }

    #[test]
    fn two_backbone_plan_routes_and_composes() {
        // Clusters 0,1 send; 2,3 receive; disjoint backbones A: 0→2, B: 1→3.
        let mut nodes = Vec::new();
        for c in [0usize, 1, 2, 3] {
            for _ in 0..2 {
                nodes.push(NodeSpec {
                    nic_out: 100.0,
                    nic_in: 100.0,
                    cluster: c,
                });
            }
        }
        let topo = Topology {
            nodes,
            links: vec![
                BackboneSpec {
                    capacity: 200.0,
                    connects: (0, 2),
                },
                BackboneSpec {
                    capacity: 100.0,
                    connects: (1, 3),
                },
            ],
        };
        assert!(topo.validate().is_ok());
        assert_eq!(topo.senders(), 4);
        assert_eq!(topo.receivers(), 4);
        assert_eq!(topo.link_k(0), 2);
        assert_eq!(topo.link_k(1), 1);

        // Traffic only on routable pairs: senders 0,1 (cluster 0) → receivers
        // 0,1 (cluster 2); senders 2,3 (cluster 1) → receivers 2,3 (cluster 3).
        let mut m = TrafficMatrix::zeros(4, 4);
        for i in 0..2 {
            for j in 0..2 {
                m.set(i, j, 4_000_000);
                m.set(2 + i, 2 + j, 6_000_000);
            }
        }
        let plan = plan_topology(&m, &topo, 0.05, TickScale::MILLIS, Algo::Oggp).unwrap();
        plan.schedule.validate(&plan.instance).unwrap();
        assert!(plan.schedule.cost() >= plan.lower_bound);
        assert_eq!(plan.link_plans[0].messages, 4);
        assert_eq!(plan.link_plans[1].messages, 4);
        // Disjoint backbones zip: the composed schedule is as long as the
        // slower of the two sub-schedules, not their concatenation.
        let s0 = plan.link_plans[0].cost;
        let s1 = plan.link_plans[1].cost;
        assert!(plan.schedule.cost() <= s0 + s1);
        assert!(plan.schedule.cost() >= s0.max(s1));

        // An unroutable cell errors.
        let mut bad = m.clone();
        bad.set(0, 3, 1);
        match plan_topology(&bad, &topo, 0.05, TickScale::MILLIS, Algo::Oggp) {
            Err(TopoError::Unroutable {
                sender: 0,
                receiver: 3,
            }) => {}
            other => panic!("expected Unroutable, got {other:?}"),
        }
    }

    #[test]
    fn parse_round_trip() {
        let text = "# demo\nnode 100 100 0 3\nnode 10 20 1 2\nlink 250 0 1\n";
        let topo = Topology::parse(text).unwrap();
        assert_eq!(topo.senders(), 3);
        assert_eq!(topo.receivers(), 2);
        assert_eq!(topo.links[0].capacity, 250.0);
        let again = Topology::parse(&topo.to_text()).unwrap();
        assert_eq!(topo, again);
    }

    #[test]
    fn parse_rejects_garbage_and_invalid() {
        assert!(Topology::parse("nope 1 2 3").is_err());
        assert!(Topology::parse("node 1 2").is_err());
        assert!(Topology::parse("node x 2 0\nlink 1 0 1").is_err());
        // Well-formed but invalid (zero capacity) fails the validate choke.
        assert!(Topology::parse("node 1 1 0\nnode 1 1 1\nlink 0 0 1").is_err());
        // No links at all.
        assert!(Topology::parse("node 1 1 0").is_err());
    }

    #[test]
    fn dimension_mismatch_and_empty_matrix() {
        let topo = Topology::two_cluster(2, 2, 100.0, 100.0, 100.0);
        let m = TrafficMatrix::zeros(3, 2);
        assert!(matches!(
            plan_topology(&m, &topo, 0.0, TickScale::MILLIS, Algo::Oggp),
            Err(TopoError::DimensionMismatch(_))
        ));
        let empty = TrafficMatrix::zeros(2, 2);
        let plan = plan_topology(&empty, &topo, 0.0, TickScale::MILLIS, Algo::Oggp).unwrap();
        assert_eq!(plan.schedule.num_steps(), 0);
        assert_eq!(plan.lower_bound, 0);
        assert_eq!(plan.evaluation_ratio(), 1.0);
        assert_eq!(
            topo_lower_bound(&empty, &topo, 0.0, TickScale::MILLIS).unwrap(),
            0
        );
    }

    #[test]
    fn hier_and_ggp_algos_compose_validly() {
        let topo = Topology::star(&[50.0, 100.0, 25.0, 80.0], &[100.0, 60.0, 40.0], 150.0);
        let m = demo_traffic(4, 3);
        for algo in [Algo::Ggp, Algo::Hier(crate::hier::HierConfig::new(2))] {
            let plan = plan_topology(&m, &topo, 0.05, TickScale::MILLIS, algo).unwrap();
            plan.schedule.validate(&plan.instance).unwrap();
            assert!(plan.schedule.cost() >= plan.lower_bound);
        }
    }
}
