//! Network capacity specification.
//!
//! All bandwidths are in Mbit/s (like the paper's platform descriptions);
//! data volumes are bytes and times are seconds. Conversion helpers live on
//! [`NetworkSpec`].

use kpbs::{Platform, Topology};

/// Bits per byte × Mbit scaling: bytes/s per Mbit/s.
pub const BYTES_PER_S_PER_MBPS: f64 = 1e6 / 8.0;

/// A (possibly time-varying) backbone capacity in Mbit/s.
#[derive(Debug, Clone, PartialEq)]
pub enum CapacityProfile {
    /// Constant capacity.
    Constant(f64),
    /// Piecewise-constant: `(start_time_seconds, capacity)` segments, sorted
    /// by start time, first segment starting at 0.
    Piecewise(Vec<(f64, f64)>),
}

impl CapacityProfile {
    /// Capacity in force at time `t`.
    pub fn at(&self, t: f64) -> f64 {
        match self {
            CapacityProfile::Constant(c) => *c,
            CapacityProfile::Piecewise(segs) => {
                let mut cap = segs.first().map(|s| s.1).unwrap_or(0.0);
                for &(start, c) in segs {
                    if start <= t {
                        cap = c;
                    } else {
                        break;
                    }
                }
                cap
            }
        }
    }

    /// The next time strictly after `t` at which the capacity changes, if
    /// any.
    pub fn next_change_after(&self, t: f64) -> Option<f64> {
        match self {
            CapacityProfile::Constant(_) => None,
            CapacityProfile::Piecewise(segs) => segs.iter().map(|&(s, _)| s).find(|&s| s > t),
        }
    }

    /// The profile with every capacity multiplied by `factor` — the fault
    /// hook used to model backbone degradation (a slowdown of `s` scales
    /// capacities by `1/s`).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite (a zero-capacity
    /// network cannot drain any flow).
    pub fn scaled(&self, factor: f64) -> CapacityProfile {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "capacity scale must be positive and finite"
        );
        match self {
            CapacityProfile::Constant(c) => CapacityProfile::Constant(c * factor),
            CapacityProfile::Piecewise(segs) => {
                CapacityProfile::Piecewise(segs.iter().map(|&(t, c)| (t, c * factor)).collect())
            }
        }
    }

    /// Validates monotone segment starts and positive capacities.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            CapacityProfile::Constant(c) => {
                if c.is_finite() && *c > 0.0 {
                    Ok(())
                } else {
                    Err("backbone capacity must be positive and finite".into())
                }
            }
            CapacityProfile::Piecewise(segs) => {
                if segs.is_empty() {
                    return Err("piecewise profile needs at least one segment".into());
                }
                if segs[0].0 != 0.0 {
                    return Err("first segment must start at time 0".into());
                }
                for w in segs.windows(2) {
                    if w[1].0 <= w[0].0 {
                        return Err("segment starts must strictly increase".into());
                    }
                }
                if segs.iter().any(|&(_, c)| !(c.is_finite() && c > 0.0)) {
                    return Err("capacities must be positive and finite".into());
                }
                Ok(())
            }
        }
    }
}

/// A redistribution network: per-sender egress caps, per-receiver ingress
/// caps, and one or more backbone links with a per-pair routing table.
///
/// The default shape (empty `extra_links`/`route`) is the paper's
/// two-cluster network where every flow crosses the single `backbone`;
/// heterogeneous multi-backbone platforms come in through
/// [`NetworkSpec::from_topology`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSpec {
    /// Egress capacity of each sender NIC, Mbit/s.
    pub nic_out: Vec<f64>,
    /// Ingress capacity of each receiver NIC, Mbit/s.
    pub nic_in: Vec<f64>,
    /// Backbone capacity (link 0).
    pub backbone: CapacityProfile,
    /// Further backbone links: link `l ≥ 1` is `extra_links[l - 1]`. Empty
    /// for single-backbone networks.
    pub extra_links: Vec<CapacityProfile>,
    /// Row-major `senders() × receivers()` table mapping each pair to the
    /// link index its flows cross. Empty means every pair uses link 0.
    pub route: Vec<usize>,
}

impl NetworkSpec {
    /// Uniform NICs on both sides with a constant backbone.
    ///
    /// A derived constructor: this is exactly
    /// [`Topology::two_cluster`] lowered to a network — prefer
    /// [`NetworkSpec::from_topology`] for anything beyond the homogeneous
    /// two-cluster shape. Unlike `from_topology` it does not validate, so
    /// tests can construct intentionally broken specs.
    pub fn uniform(
        senders: usize,
        receivers: usize,
        out_mbps: f64,
        in_mbps: f64,
        backbone_mbps: f64,
    ) -> Self {
        NetworkSpec {
            nic_out: vec![out_mbps; senders],
            nic_in: vec![in_mbps; receivers],
            backbone: CapacityProfile::Constant(backbone_mbps),
            extra_links: Vec::new(),
            route: Vec::new(),
        }
    }

    /// The network corresponding to a [`Platform`] description, routed
    /// through the same validation as every other construction choke point.
    ///
    /// # Panics
    ///
    /// Panics if the platform lowers to an invalid network ([`Platform`]'s
    /// own constructor asserts make this unreachable).
    pub fn from_platform(p: &Platform) -> Self {
        NetworkSpec::from_topology(&Topology::from_platform(p))
            .expect("platform networks are valid by construction")
    }

    /// The network corresponding to a heterogeneous [`Topology`]: per-node
    /// NIC speeds, one [`CapacityProfile`] per backbone link, and the
    /// pair→link routing table. Pairs no backbone serves are routed to
    /// link 0 — the planner never emits flows for them, so they only matter
    /// if a caller simulates an unroutable flow directly.
    ///
    /// The topology is validated first ([`Topology::validate`]), and the
    /// lowered spec re-checked — this is a construction choke point.
    pub fn from_topology(topo: &Topology) -> Result<Self, String> {
        topo.validate()?;
        let nic_out = topo.sender_speeds();
        let nic_in = topo.receiver_speeds();
        let route: Vec<usize> = (0..nic_out.len())
            .flat_map(|i| (0..nic_in.len()).map(move |j| (i, j)))
            .map(|(i, j)| topo.route(i, j).unwrap_or(0))
            .collect();
        let spec = NetworkSpec {
            nic_out,
            nic_in,
            backbone: CapacityProfile::Constant(topo.links[0].capacity),
            extra_links: topo.links[1..]
                .iter()
                .map(|l| CapacityProfile::Constant(l.capacity))
                .collect(),
            route: if topo.links.len() == 1 {
                Vec::new()
            } else {
                route
            },
        };
        spec.validate()?;
        Ok(spec)
    }

    /// The paper's Section 5.2 testbed for a given `k`: 10+10 nodes,
    /// `rshaper`-limited NICs at `100/k` Mbit/s, 100 Mbit/s interconnect.
    pub fn testbed(k: usize) -> Self {
        NetworkSpec::from_platform(&Platform::testbed(k))
    }

    /// Number of sender nodes.
    pub fn senders(&self) -> usize {
        self.nic_out.len()
    }

    /// Number of receiver nodes.
    pub fn receivers(&self) -> usize {
        self.nic_in.len()
    }

    /// Number of backbone links (≥ 1; link 0 is `backbone`).
    pub fn num_links(&self) -> usize {
        1 + self.extra_links.len()
    }

    /// The capacity profile of link `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l >= num_links()`.
    pub fn link_profile(&self, l: usize) -> &CapacityProfile {
        if l == 0 {
            &self.backbone
        } else {
            &self.extra_links[l - 1]
        }
    }

    /// The link a `src → dst` flow crosses (link 0 when no routing table is
    /// set).
    pub fn link_of(&self, src: usize, dst: usize) -> usize {
        if self.route.is_empty() {
            0
        } else {
            self.route[src * self.receivers() + dst]
        }
    }

    /// The network with every capacity (NICs and backbone) multiplied by
    /// `factor`. Max–min fair allocations scale linearly with a uniform
    /// capacity scale, so running a step on `scaled(1.0 / s)` models a
    /// platform-wide slowdown of factor `s` exactly — this is the fault
    /// hook the execution runtime's simulated transport injects through.
    pub fn scaled(&self, factor: f64) -> NetworkSpec {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "capacity scale must be positive and finite"
        );
        NetworkSpec {
            nic_out: self.nic_out.iter().map(|c| c * factor).collect(),
            nic_in: self.nic_in.iter().map(|c| c * factor).collect(),
            backbone: self.backbone.scaled(factor),
            extra_links: self.extra_links.iter().map(|p| p.scaled(factor)).collect(),
            route: self.route.clone(),
        }
    }

    /// Validates node counts, capacities (all links) and the routing table.
    pub fn validate(&self) -> Result<(), String> {
        if self.nic_out.is_empty() || self.nic_in.is_empty() {
            return Err("both clusters need at least one node".into());
        }
        if self
            .nic_out
            .iter()
            .chain(&self.nic_in)
            .any(|&c| !(c.is_finite() && c > 0.0))
        {
            return Err("NIC capacities must be positive and finite".into());
        }
        self.backbone.validate()?;
        for (i, l) in self.extra_links.iter().enumerate() {
            l.validate().map_err(|e| format!("extra link {i}: {e}"))?;
        }
        if !self.route.is_empty() {
            if self.route.len() != self.senders() * self.receivers() {
                return Err("routing table must be senders × receivers".into());
            }
            if self.route.iter().any(|&l| l >= self.num_links()) {
                return Err("routing table references an unknown link".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_profile() {
        let p = CapacityProfile::Constant(100.0);
        assert_eq!(p.at(0.0), 100.0);
        assert_eq!(p.at(1e9), 100.0);
        assert_eq!(p.next_change_after(5.0), None);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn piecewise_profile() {
        let p = CapacityProfile::Piecewise(vec![(0.0, 100.0), (10.0, 50.0), (20.0, 80.0)]);
        assert!(p.validate().is_ok());
        assert_eq!(p.at(0.0), 100.0);
        assert_eq!(p.at(9.999), 100.0);
        assert_eq!(p.at(10.0), 50.0);
        assert_eq!(p.at(25.0), 80.0);
        assert_eq!(p.next_change_after(0.0), Some(10.0));
        assert_eq!(p.next_change_after(10.0), Some(20.0));
        assert_eq!(p.next_change_after(20.0), None);
    }

    #[test]
    fn invalid_profiles() {
        assert!(CapacityProfile::Constant(0.0).validate().is_err());
        assert!(CapacityProfile::Piecewise(vec![]).validate().is_err());
        assert!(CapacityProfile::Piecewise(vec![(1.0, 5.0)])
            .validate()
            .is_err());
        assert!(CapacityProfile::Piecewise(vec![(0.0, 5.0), (0.0, 6.0)])
            .validate()
            .is_err());
        assert!(CapacityProfile::Piecewise(vec![(0.0, 5.0), (1.0, -2.0)])
            .validate()
            .is_err());
    }

    #[test]
    fn testbed_spec() {
        let s = NetworkSpec::testbed(5);
        assert_eq!(s.senders(), 10);
        assert_eq!(s.receivers(), 10);
        assert!((s.nic_out[0] - 20.0).abs() < 1e-9);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn scaled_capacities() {
        let p = CapacityProfile::Piecewise(vec![(0.0, 100.0), (5.0, 40.0)]);
        let half = p.scaled(0.5);
        assert_eq!(half.at(0.0), 50.0);
        assert_eq!(half.at(6.0), 20.0);
        assert_eq!(half.next_change_after(0.0), Some(5.0), "breakpoints keep");

        let s = NetworkSpec::uniform(2, 3, 100.0, 80.0, 300.0).scaled(0.25);
        assert_eq!(s.nic_out, vec![25.0, 25.0]);
        assert_eq!(s.nic_in, vec![20.0, 20.0, 20.0]);
        assert_eq!(s.backbone.at(0.0), 75.0);
        assert!(s.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_scale_rejected() {
        NetworkSpec::uniform(1, 1, 1.0, 1.0, 1.0).scaled(0.0);
    }

    #[test]
    fn invalid_spec() {
        let s = NetworkSpec::uniform(0, 2, 1.0, 1.0, 1.0);
        assert!(s.validate().is_err());
        let s = NetworkSpec::uniform(2, 2, -1.0, 1.0, 1.0);
        assert!(s.validate().is_err());
        let s = NetworkSpec::uniform(2, 2, f64::INFINITY, 1.0, 1.0);
        assert!(s.validate().is_err(), "non-finite NIC");
        assert!(CapacityProfile::Constant(f64::NAN).validate().is_err());
        assert!(CapacityProfile::Constant(f64::INFINITY).validate().is_err());
        let mut s = NetworkSpec::uniform(2, 2, 1.0, 1.0, 1.0);
        s.route = vec![0; 3];
        assert!(s.validate().is_err(), "misshapen routing table");
        s.route = vec![0, 0, 0, 9];
        assert!(s.validate().is_err(), "route to unknown link");
        s.route = vec![0; 4];
        assert!(s.validate().is_ok());
        s.extra_links = vec![CapacityProfile::Constant(0.0)];
        assert!(s.validate().is_err(), "bad extra link");
    }

    #[test]
    fn from_topology_lowers_links_and_routes() {
        use kpbs::Topology;
        // Homogeneous: identical to the uniform construction, still a
        // single-link spec (empty route table keeps wire format unchanged).
        let p = Platform::new(3, 2, 10.0, 20.0, 50.0);
        let lowered = NetworkSpec::from_platform(&p);
        assert_eq!(lowered, NetworkSpec::uniform(3, 2, 10.0, 20.0, 50.0));
        assert_eq!(lowered.num_links(), 1);
        assert_eq!(lowered.link_of(2, 1), 0);

        // Two-backbone: routes land on the right links.
        let topo = kpbs::instances::two_backbone_topology(2, 100.0, 10.0, 300.0, 40.0);
        let s = NetworkSpec::from_topology(&topo).unwrap();
        assert_eq!(s.num_links(), 2);
        assert_eq!(s.senders(), 4);
        assert_eq!(s.link_of(0, 0), 0, "fast pair on link 0");
        assert_eq!(s.link_of(2, 2), 1, "slow pair on link 1");
        assert_eq!(s.link_profile(1), &CapacityProfile::Constant(40.0));
        assert!(s.validate().is_ok());
        let quarter = s.scaled(0.25);
        assert_eq!(quarter.link_profile(1).at(0.0), 10.0);
        assert_eq!(quarter.route, s.route, "scaling keeps routes");

        // Invalid topologies are rejected at this choke point too.
        let mut bad = Topology::two_cluster(2, 2, 100.0, 100.0, 100.0);
        bad.links[0].capacity = f64::NAN;
        assert!(NetworkSpec::from_topology(&bad).is_err());
    }
}
