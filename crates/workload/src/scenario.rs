//! The one-stop experiment scenario: Internet + network model +
//! population, with the host- and cluster-level latency queries every
//! relay-selection method needs.

use std::sync::Arc;

use asap_cluster::{Asn, ClusterId};
use asap_netsim::{AsCondition, NetConfig, NetModel, RELAY_DELAY_RTT_MS};
use asap_topology::{InternetConfig, InternetGenerator, SyntheticInternet};

use crate::population::{HostId, Population, PopulationConfig};

/// Configuration bundle for [`Scenario::build`].
#[derive(Debug, Clone, Default)]
pub struct ScenarioConfig {
    /// Topology generation parameters.
    pub internet: InternetConfig,
    /// Latency/loss model parameters.
    pub net: NetConfig,
    /// Population synthesis parameters.
    pub population: PopulationConfig,
}

impl ScenarioConfig {
    /// A small scenario for fast tests (a few hundred peers over ~150
    /// ASes).
    pub fn tiny() -> Self {
        ScenarioConfig {
            internet: InternetConfig::tiny(),
            net: NetConfig::default(),
            population: PopulationConfig::tiny(),
        }
    }

    /// The evaluation scale used throughout the paper's §7.2 figures:
    /// 23,366 online peers. Topology defaults (~4,000 ASes) keep a single
    /// run in the seconds range.
    pub fn eval_scale() -> Self {
        ScenarioConfig {
            internet: InternetConfig::default(),
            net: NetConfig::default(),
            population: PopulationConfig {
                target_hosts: 23_366,
                ..Default::default()
            },
        }
    }

    /// The §7.3 scalability scale: 103,625 online peers (4.434 × the
    /// evaluation scale).
    pub fn scalability_scale() -> Self {
        ScenarioConfig {
            internet: InternetConfig::default(),
            net: NetConfig::default(),
            population: PopulationConfig {
                target_hosts: 103_625,
                ..Default::default()
            },
        }
    }
}

/// A fully built experiment world.
///
/// ```
/// use asap_workload::{Scenario, ScenarioConfig};
///
/// let s = Scenario::build(ScenarioConfig::tiny(), 7);
/// let a = s.population.hosts()[0].id;
/// let b = s.population.hosts()[99].id;
/// let direct = s.host_rtt_ms(a, b).expect("routable");
/// // Relaying through some host r always costs at least the 40 ms
/// // round-trip forwarding delay on top of the two legs.
/// let r = s.population.hosts()[50].id;
/// let relayed = s.one_hop_rtt_ms(a, r, b).unwrap();
/// assert!(relayed >= s.host_rtt_ms(a, r).unwrap() + s.host_rtt_ms(r, b).unwrap());
/// let _ = direct;
/// ```
#[derive(Debug)]
pub struct Scenario {
    /// The synthetic Internet.
    pub internet: Arc<SyntheticInternet>,
    /// The latency/loss model over it.
    pub net: NetModel,
    /// The peer population.
    pub population: Population,
}

impl Scenario {
    /// Generates topology, network model, and population from one master
    /// seed (sub-seeds are derived so the three stages stay independent).
    pub fn build(config: ScenarioConfig, seed: u64) -> Self {
        let internet = Arc::new(InternetGenerator::new(config.internet, seed ^ 0x7090).generate());
        let net = NetModel::new(internet.clone(), config.net, seed ^ 0x1e7);
        let mut pop_cfg = config.population;
        pop_cfg.seed = seed ^ 0x90b;
        let population = Population::generate(&internet, &pop_cfg);
        Scenario {
            internet,
            net,
            population,
        }
    }

    /// Direct IP-routing RTT between two hosts (AS-level route plus both
    /// access links), or `None` if their ASes cannot reach each other.
    pub fn host_rtt_ms(&self, a: HostId, b: HostId) -> Option<f64> {
        self.host_metrics(a, b).map(|(rtt, _)| rtt)
    }

    /// End-to-end loss probability of the direct route between two hosts.
    pub fn host_loss(&self, a: HostId, b: HostId) -> Option<f64> {
        self.host_metrics(a, b).map(|(_, loss)| loss)
    }

    /// `(host_rtt_ms, host_loss)` of the direct route between two hosts,
    /// from one route lookup: the AS-level RTT plus both hosts' access
    /// RTTs, and the AS-level loss. The lookup is by the hosts' AS graph
    /// node indices ([`Host::as_node`]), so it hashes no AS number; it is
    /// bit-equal to `NetModel::as_metrics` of their ASes plus
    /// `2·access_a` then `2·access_b`.
    ///
    /// [`Host::as_node`]: crate::Host::as_node
    pub fn host_metrics(&self, a: HostId, b: HostId) -> Option<(f64, f64)> {
        let (ha, hb) = (self.population.host(a), self.population.host(b));
        // A model swapped in over a graph that numbers its ASes
        // differently would answer for the wrong ASes.
        let graph = &self.net.internet().graph;
        debug_assert!(graph.asn_at(ha.as_node) == ha.asn && graph.asn_at(hb.as_node) == hb.asn);
        let (core, loss) = self.net.as_metrics_idx(ha.as_node, hb.as_node)?;
        Some((core + 2.0 * ha.access_ms + 2.0 * hb.access_ms, loss))
    }

    /// RTT of the one-hop relay path `a → r → b`: both legs' RTTs plus the
    /// relay's 40 ms round-trip forwarding delay (paper §3.2).
    pub fn one_hop_rtt_ms(&self, a: HostId, r: HostId, b: HostId) -> Option<f64> {
        self.one_hop_metrics(a, r, b).map(|(rtt, _)| rtt)
    }

    /// Loss of the one-hop relay path (legs are independent: the packet
    /// survives iff it survives both).
    pub fn one_hop_loss(&self, a: HostId, r: HostId, b: HostId) -> Option<f64> {
        self.one_hop_metrics(a, r, b).map(|(_, loss)| loss)
    }

    /// `(one_hop_rtt_ms, one_hop_loss)` of the relay path `a → r → b`,
    /// from one route lookup per leg.
    pub fn one_hop_metrics(&self, a: HostId, r: HostId, b: HostId) -> Option<(f64, f64)> {
        let (rtt1, l1) = self.host_metrics(a, r)?;
        let (rtt2, l2) = self.host_metrics(r, b)?;
        Some((
            rtt1 + rtt2 + RELAY_DELAY_RTT_MS,
            1.0 - (1.0 - l1) * (1.0 - l2),
        ))
    }

    /// RTT and loss of the two-hop relay path `a → r1 → r2 → b` (two
    /// forwarding delays; independent legs), from one route lookup per
    /// leg.
    pub fn two_hop_metrics(
        &self,
        a: HostId,
        r1: HostId,
        r2: HostId,
        b: HostId,
    ) -> Option<(f64, f64)> {
        let (rtt1, l1) = self.host_metrics(a, r1)?;
        let (rtt2, l2) = self.host_metrics(r1, r2)?;
        let (rtt3, l3) = self.host_metrics(r2, b)?;
        Some((
            rtt1 + rtt2 + rtt3 + 2.0 * RELAY_DELAY_RTT_MS,
            1.0 - (1.0 - l1) * (1.0 - l2) * (1.0 - l3),
        ))
    }

    /// The delegate host of a cluster.
    ///
    /// # Panics
    ///
    /// Panics if the cluster id is out of range.
    pub fn delegate_of(&self, cluster: ClusterId) -> HostId {
        let ip = self.population.clustering().cluster(cluster).delegate();
        self.population
            .host_by_ip(ip)
            .expect("delegate is a population host")
            .id
    }

    /// Number of clusters in the population.
    pub fn cluster_count(&self) -> usize {
        self.population.clustering().cluster_count()
    }

    /// Starts a transient congestion burst inside `asn`: every route
    /// crossing it pays the extra RTT and loss until
    /// [`Scenario::clear_as_condition`] heals it. No-op (returning
    /// `false`) when the AS is not in the topology.
    pub fn apply_as_congestion(&mut self, asn: Asn, added_rtt_ms: f64, added_loss: f64) -> bool {
        if self.net.internet().graph.index_of(asn).is_none() {
            return false;
        }
        self.net.set_condition(
            asn,
            AsCondition::Congested {
                added_rtt_ms,
                added_loss,
            },
        );
        true
    }

    /// Heals `asn` back to [`AsCondition::Healthy`]. No-op (returning
    /// `false`) when the AS is not in the topology.
    pub fn clear_as_condition(&mut self, asn: Asn) -> bool {
        if self.net.internet().graph.index_of(asn).is_none() {
            return false;
        }
        self.net.set_condition(asn, AsCondition::Healthy);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> Scenario {
        Scenario::build(ScenarioConfig::tiny(), 11)
    }

    /// The parallel session engine shares one `Scenario` across shard
    /// worker threads by reference; this pins the thread-safety
    /// contract so an interior-mutability change cannot silently break
    /// it.
    #[test]
    fn scenario_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Scenario>();
        assert_send_sync::<ScenarioConfig>();
    }

    #[test]
    fn build_is_deterministic() {
        let a = scenario();
        let b = scenario();
        assert_eq!(a.population.hosts(), b.population.hosts());
        let (h1, h2) = (a.population.hosts()[0].id, a.population.hosts()[50].id);
        assert_eq!(a.host_rtt_ms(h1, h2), b.host_rtt_ms(h1, h2));
    }

    #[test]
    fn relay_path_costs_forwarding_delay() {
        let s = scenario();
        let hosts = s.population.hosts();
        let (a, r, b) = (hosts[0].id, hosts[20].id, hosts[40].id);
        let one_hop = s.one_hop_rtt_ms(a, r, b).unwrap();
        let legs = s.host_rtt_ms(a, r).unwrap() + s.host_rtt_ms(r, b).unwrap();
        assert!((one_hop - legs - RELAY_DELAY_RTT_MS).abs() < 1e-9);
    }

    #[test]
    fn two_hop_costs_two_forwarding_delays() {
        let s = scenario();
        let h = s.population.hosts();
        let (a, r1, r2, b) = (h[0].id, h[10].id, h[30].id, h[60].id);
        let (two, _) = s.two_hop_metrics(a, r1, r2, b).unwrap();
        let legs = s.host_rtt_ms(a, r1).unwrap()
            + s.host_rtt_ms(r1, r2).unwrap()
            + s.host_rtt_ms(r2, b).unwrap();
        assert!((two - legs - 2.0 * RELAY_DELAY_RTT_MS).abs() < 1e-9);
    }

    #[test]
    fn relay_loss_composes_independently() {
        let s = scenario();
        let h = s.population.hosts();
        let (a, r, b) = (h[3].id, h[33].id, h[63].id);
        let composed = s.one_hop_loss(a, r, b).unwrap();
        let (l1, l2) = (s.host_loss(a, r).unwrap(), s.host_loss(r, b).unwrap());
        assert!(composed >= l1.max(l2));
        assert!(composed <= l1 + l2 + 1e-12);
    }

    #[test]
    fn congestion_fault_inflates_and_heals() {
        let mut s = scenario();
        let hosts = s.population.hosts();
        // Two hosts in different ASes, routable.
        let a = hosts[0].id;
        let b = hosts
            .iter()
            .find(|h| h.asn != s.population.host(a).asn && s.host_rtt_ms(a, h.id).is_some())
            .expect("a routable cross-AS pair")
            .id;
        let asn = s.population.host(a).asn;
        let before = s.host_rtt_ms(a, b).unwrap();
        // Make sure we start from a healthy AS so before/after compare.
        assert!(s.clear_as_condition(asn));
        let baseline = s.host_rtt_ms(a, b).unwrap();
        assert!(s.apply_as_congestion(asn, 250.0, 0.2));
        let congested = s.host_rtt_ms(a, b).unwrap();
        assert!(
            congested >= baseline + 250.0 - 1e-9,
            "congestion did not inflate: {baseline} → {congested}"
        );
        assert!(s.clear_as_condition(asn));
        assert_eq!(s.host_rtt_ms(a, b).unwrap(), baseline);
        let _ = before;
    }
}
