//! `construct-close-cluster-set()` — paper Fig. 9.
//!
//! Each cluster surrogate `s` runs a breadth-first search outward from its
//! own AS on the annotated AS graph, under three constraints:
//!
//! * extensions must keep the AS path **valley-free** (a relay in a
//!   cluster only helps if the legs toward it are policy-routable);
//! * at most `k` AS hops (the paper shows ≤ 4 AS hops covers >90% of
//!   sub-300 ms routes);
//! * expansion is **pruned** through ASes whose measured RTT exceeds
//!   `latT` or whose loss exceeds `lossT` (if getting *to* an AS is
//!   already slow, everything behind it is too).
//!
//! Every cluster originated by a reached AS is measured (surrogate → peer
//! cluster delegate, by `ping`); clusters within both thresholds enter the
//! close cluster set.

use std::cell::RefCell;
use std::sync::OnceLock;

use asap_cluster::ClusterId;
use asap_topology::valley::{bounded_search_unconstrained_idx, Expand, ReachTable};
use asap_topology::AsGraph;
use asap_workload::{HostId, Scenario};

use crate::config::AsapConfig;

/// One member of a close cluster set: a cluster reachable within the
/// thresholds, with its measured leg properties.
///
/// 24 bytes. The entry names no surrogate: the surrogate measured at
/// build time may since have been replaced, so readers ask their
/// `surrogate_of` for the cluster's live one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CloseClusterEntry {
    /// The close cluster.
    pub cluster: ClusterId,
    /// Valley-free AS hops at which the cluster's AS was reached.
    pub as_hops: u32,
    /// Measured RTT from the owning surrogate to this cluster, ms.
    pub rtt_ms: f64,
    /// Measured loss rate of that leg.
    pub loss: f64,
}

/// Marks a cluster without an entry in [`CloseClusterSet`]'s position
/// index.
const ABSENT: u32 = u32::MAX;

/// The close cluster set of one cluster.
#[derive(Debug, Clone, Default)]
pub struct CloseClusterSet {
    entries: Vec<CloseClusterEntry>,
    /// Position of each cluster's entry in `entries`, indexed by cluster
    /// id: [`ABSENT`] for a cluster outside the set, and clusters past
    /// the end are outside it too.
    position: Vec<u32>,
    /// Ping messages the surrogate spent constructing the set: exactly
    /// one request + reply per *completed* measurement of a cluster
    /// reached by the BFS. Clusters co-located in the origin AS are
    /// close by construction (Fig. 9) and cost nothing, and a cluster
    /// whose measurement could not complete is never charged. This is
    /// *background* traffic amortized over all sessions of the cluster,
    /// reported separately from per-session overhead (§7.3).
    pub construction_messages: u64,
}

impl CloseClusterSet {
    /// Builds a set from explicit entries (simulation and test harnesses;
    /// the protocol itself always constructs sets via
    /// [`construct_close_cluster_set`]). Only the first entry of a
    /// duplicated cluster is kept.
    pub fn from_entries(entries: impl IntoIterator<Item = CloseClusterEntry>) -> Self {
        let mut set = CloseClusterSet::default();
        for e in entries {
            if set.contains(e.cluster) {
                continue;
            }
            set.push(e);
        }
        set
    }

    /// The entries, in BFS (increasing-hop) order.
    pub fn entries(&self) -> &[CloseClusterEntry] {
        &self.entries
    }

    /// Number of close clusters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry for `cluster`, if it is in the set.
    pub fn get(&self, cluster: ClusterId) -> Option<&CloseClusterEntry> {
        self.position(cluster).map(|i| &self.entries[i as usize])
    }

    /// The position in [`CloseClusterSet::entries`] of the entry
    /// [`CloseClusterSet::get`] answers with for `cluster`.
    pub(crate) fn position(&self, cluster: ClusterId) -> Option<u32> {
        match self.position.get(cluster.0 as usize) {
            Some(&i) if i != ABSENT => Some(i),
            _ => None,
        }
    }

    /// Whether `cluster` is in the set.
    pub fn contains(&self, cluster: ClusterId) -> bool {
        self.get(cluster).is_some()
    }

    /// The set of `entries`, in their order, each `Vec` allocated once
    /// at its final size. A cluster listed twice keeps both entries, and
    /// [`CloseClusterSet::get`] answers with the later one.
    fn built(entries: &[CloseClusterEntry], construction_messages: u64) -> Self {
        let clusters = entries.iter().map(|e| e.cluster.0 as usize + 1).max();
        let mut position = vec![ABSENT; clusters.unwrap_or(0)];
        for (i, e) in (0u32..).zip(entries) {
            position[e.cluster.0 as usize] = i;
        }
        CloseClusterSet {
            entries: entries.to_vec(),
            position,
            construction_messages,
        }
    }

    /// Appends `entry`. A cluster pushed twice keeps both entries, and
    /// [`CloseClusterSet::get`] answers with the later one.
    fn push(&mut self, entry: CloseClusterEntry) {
        let c = entry.cluster.0 as usize;
        if c >= self.position.len() {
            self.position.resize(c + 1, ABSENT);
        }
        self.position[c] = self.entries.len() as u32;
        self.entries.push(entry);
    }

    /// Test-only constructor hook for hand-built sets.
    #[cfg(test)]
    pub(crate) fn push_for_tests(&mut self, entry: CloseClusterEntry) {
        self.push(entry);
    }
}

/// An index from AS to the clusters it originates, shared by all
/// surrogates (the bootstrap's prefix → ASN table, inverted). ASes are
/// keyed by their node index in the scenario's AS graph.
///
/// The index also owns the builds' scratch list: a build collects its
/// entries there, then copies them into the set at their final size,
/// so a set keeps no growth slack and a warm build allocates only the
/// set itself and its search. The scratch sits in a `RefCell`, so an index
/// (like the [`AsapSystem`] owning it) is `Send` but not `Sync`.
///
/// [`AsapSystem`]: crate::AsapSystem
#[derive(Debug, Clone, Default)]
pub struct ClusterIndex {
    by_node: Vec<Vec<ClusterId>>,
    /// Valley-free distances to the ASes that originate a cluster (the
    /// only ASes where a build measures, adds an entry or prunes),
    /// derived on the first valley-free build.
    reach: OnceLock<ReachTable>,
    /// The entries of the build in progress; empty between builds.
    scratch: RefCell<Vec<CloseClusterEntry>>,
}

impl ClusterIndex {
    /// Builds the index from a scenario's clustering.
    ///
    /// # Panics
    ///
    /// Panics if a cluster's AS is not in the scenario's AS graph.
    pub fn build(scenario: &Scenario) -> Self {
        let graph = &scenario.internet.graph;
        let mut by_node = vec![Vec::new(); graph.node_count()];
        for c in scenario.population.clustering().clusters() {
            let node = graph
                .index_of(c.asn())
                .unwrap_or_else(|| panic!("cluster AS {} not in the AS graph", c.asn()));
            by_node[node as usize].push(c.id());
        }
        ClusterIndex {
            by_node,
            reach: OnceLock::new(),
            scratch: RefCell::default(),
        }
    }

    /// The clusters originated by the AS at graph node index `node`, in
    /// clustering order (empty if none).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node index of the scenario's AS graph.
    pub fn clusters_at(&self, node: u32) -> &[ClusterId] {
        &self.by_node[node as usize]
    }

    /// The reach table toward the cluster-holding ASes of `graph`, the
    /// AS graph of the scenario the index was built from.
    fn reach(&self, graph: &AsGraph) -> &ReachTable {
        self.reach
            .get_or_init(|| ReachTable::new(graph, |node| !self.clusters_at(node).is_empty()))
    }
}

/// How the close-cluster-set BFS explores the AS graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchMode {
    /// Valley-free constrained, as the paper's Fig. 9 specifies.
    #[default]
    ValleyFree,
    /// Plain BFS ignoring routing policy — an ablation that shows what
    /// AS-relationship awareness buys (more probes for candidates whose
    /// legs BGP cannot actually realize).
    Unconstrained,
}

/// Runs `construct-close-cluster-set()` for the surrogate of
/// `origin_cluster`.
///
/// `surrogate_of` maps clusters to their current surrogate host (the
/// caller owns surrogate election). Measurements go surrogate-delegate to
/// surrogate-delegate through the scenario's network model.
pub fn construct_close_cluster_set(
    scenario: &Scenario,
    index: &ClusterIndex,
    surrogate_of: &dyn Fn(ClusterId) -> HostId,
    origin_cluster: ClusterId,
    config: &AsapConfig,
) -> CloseClusterSet {
    construct_close_cluster_set_with_mode(
        scenario,
        index,
        surrogate_of,
        origin_cluster,
        config,
        SearchMode::ValleyFree,
    )
}

/// [`construct_close_cluster_set`] with an explicit [`SearchMode`]
/// (ablation hook).
pub fn construct_close_cluster_set_with_mode(
    scenario: &Scenario,
    index: &ClusterIndex,
    surrogate_of: &dyn Fn(ClusterId) -> HostId,
    origin_cluster: ClusterId,
    config: &AsapConfig,
    mode: SearchMode,
) -> CloseClusterSet {
    let graph = &scenario.internet.graph;
    let origin_asn = scenario
        .population
        .clustering()
        .cluster(origin_cluster)
        .asn();
    let origin_surrogate = surrogate_of(origin_cluster);
    let origin_host = scenario.population.host(origin_surrogate);

    let origin_node = graph
        .index_of(origin_asn)
        .expect("origin cluster's AS is in the AS graph");

    // Taken, not borrowed: a build that re-entered would start on an
    // empty list rather than panic.
    let mut entries = index.scratch.take();
    entries.clear();
    let mut construction_messages = 0;

    // Clusters co-located in the origin AS are close by construction
    // (intra-AS latency), at 0 AS hops — no ping is sent, so no
    // construction messages are charged.
    for &c in index.clusters_at(origin_node) {
        if c == origin_cluster {
            continue;
        }
        let peer = surrogate_of(c);
        if let Some((rtt, loss)) = measure(scenario, origin_surrogate, peer) {
            if rtt < config.lat_t_ms && loss < config.loss_t {
                entries.push(CloseClusterEntry {
                    cluster: c,
                    as_hops: 0,
                    rtt_ms: rtt,
                    loss,
                });
            }
        }
    }

    let visit = |node, hops: usize| {
        let clusters = index.clusters_at(node);
        if clusters.is_empty() {
            // No peers there (only the unconstrained search stops at
            // such an AS): nothing to measure, keep expanding (transit
            // ASes carry no clusters but lead to ones that do).
            return Expand::Continue;
        }
        // The AS-level leg into this AS, walked at most once per visit:
        // every surrogate inside the AS shares it and adds only its own
        // access delay, summed as `Scenario::host_metrics` sums it. A
        // surrogate elsewhere, or the origin surrogate itself (whose
        // `lat()` is 0 ms), is measured on its own.
        let mut core_leg = None;
        // Measure each cluster in the reached AS; prune expansion when
        // even the best leg into this AS violates a threshold.
        let mut best_rtt = f64::INFINITY;
        for &c in clusters {
            let peer = surrogate_of(c);
            let peer_host = scenario.population.host(peer);
            let measured = if peer_host.as_node == node && peer != origin_surrogate {
                let leg = *core_leg
                    .get_or_insert_with(|| scenario.net.as_metrics_idx(origin_host.as_node, node));
                leg.map(|(core, loss)| {
                    let rtt = core + 2.0 * origin_host.access_ms + 2.0 * peer_host.access_ms;
                    (rtt, loss)
                })
            } else {
                measure(scenario, origin_surrogate, peer)
            };
            let Some((rtt, loss)) = measured else {
                // No measurement completed: no ping pair to account.
                continue;
            };
            construction_messages += 2;
            best_rtt = best_rtt.min(rtt);
            if rtt < config.lat_t_ms && loss < config.loss_t {
                entries.push(CloseClusterEntry {
                    cluster: c,
                    as_hops: hops as u32,
                    rtt_ms: rtt,
                    loss,
                });
            }
        }
        if best_rtt >= config.lat_t_ms {
            Expand::Prune
        } else {
            Expand::Continue
        }
    };
    match mode {
        // The visitor acts at cluster-holding ASes only, so the search
        // directed at them reaches the same ASes in the same order.
        SearchMode::ValleyFree => index.reach(graph).search(origin_node, config.k, visit),
        SearchMode::Unconstrained => {
            bounded_search_unconstrained_idx(graph, origin_node, config.k, visit)
        }
    }

    let set = CloseClusterSet::built(&entries, construction_messages);
    index.scratch.replace(entries);
    set
}

/// The surrogate's `lat()` primitive ("can be done by using simple system
/// utilities, such as ping"): a direct host-to-host RTT measurement,
/// with the route's loss from the same route lookup.
fn measure(scenario: &Scenario, from: HostId, to: HostId) -> Option<(f64, f64)> {
    let (rtt, loss) = scenario.host_metrics(from, to)?;
    Some((if from == to { 0.0 } else { rtt }, loss))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_workload::ScenarioConfig;

    fn setup() -> (Scenario, ClusterIndex, AsapConfig) {
        let scenario = Scenario::build(ScenarioConfig::tiny(), 13);
        let index = ClusterIndex::build(&scenario);
        (scenario, index, AsapConfig::default())
    }

    fn delegate_surrogates(scenario: &Scenario) -> impl Fn(ClusterId) -> HostId + '_ {
        move |c| scenario.delegate_of(c)
    }

    #[test]
    fn close_set_respects_thresholds() {
        let (scenario, index, config) = setup();
        let surrogate = delegate_surrogates(&scenario);
        let origin = scenario.population.clustering().clusters()[0].id();
        let set = construct_close_cluster_set(&scenario, &index, &surrogate, origin, &config);
        for e in set.entries() {
            assert!(e.rtt_ms < config.lat_t_ms, "{} ≥ latT", e.rtt_ms);
            assert!(e.loss < config.loss_t);
            assert!(e.as_hops as usize <= config.k);
            assert_ne!(e.cluster, origin, "origin never lists itself");
        }
    }

    #[test]
    fn close_set_is_indexable() {
        let (scenario, index, config) = setup();
        let surrogate = delegate_surrogates(&scenario);
        let origin = scenario.population.clustering().clusters()[1].id();
        let set = construct_close_cluster_set(&scenario, &index, &surrogate, origin, &config);
        for e in set.entries() {
            assert!(set.contains(e.cluster));
            assert_eq!(set.get(e.cluster).unwrap(), e);
        }
        assert!(!set.contains(origin));
    }

    #[test]
    fn smaller_k_never_enlarges_the_set() {
        let (scenario, index, config) = setup();
        let surrogate = delegate_surrogates(&scenario);
        let origin = scenario.population.clustering().clusters()[2].id();
        let small = construct_close_cluster_set(
            &scenario,
            &index,
            &surrogate,
            origin,
            &AsapConfig { k: 2, ..config },
        );
        let large = construct_close_cluster_set(
            &scenario,
            &index,
            &surrogate,
            origin,
            &AsapConfig { k: 5, ..config },
        );
        assert!(small.len() <= large.len());
        for e in small.entries() {
            assert!(
                large.contains(e.cluster),
                "k=2 found {:?} but k=5 did not",
                e.cluster
            );
        }
    }

    #[test]
    fn tight_latency_threshold_shrinks_the_set() {
        let (scenario, index, config) = setup();
        let surrogate = delegate_surrogates(&scenario);
        let origin = scenario.population.clustering().clusters()[0].id();
        let loose = construct_close_cluster_set(&scenario, &index, &surrogate, origin, &config);
        let tight = construct_close_cluster_set(
            &scenario,
            &index,
            &surrogate,
            origin,
            &AsapConfig {
                lat_t_ms: 40.0,
                ..config
            },
        );
        assert!(tight.len() <= loose.len());
        for e in tight.entries() {
            assert!(e.rtt_ms < 40.0);
        }
    }

    #[test]
    fn construction_messages_cover_measured_clusters() {
        let (scenario, index, config) = setup();
        let surrogate = delegate_surrogates(&scenario);
        let origin = scenario.population.clustering().clusters()[0].id();
        let set = construct_close_cluster_set(&scenario, &index, &surrogate, origin, &config);
        // Two messages per completed measurement; accepted entries
        // beyond 0 hops were all measured (co-located ones are free).
        let remote = set.entries().iter().filter(|e| e.as_hops > 0).count() as u64;
        assert!(set.construction_messages >= 2 * remote);
        assert_eq!(
            set.construction_messages % 2,
            0,
            "pings come in request/reply pairs"
        );
    }

    #[test]
    fn colocated_clusters_cost_no_construction_messages() {
        // k = 0 pins the BFS at home: only AS-co-located clusters can
        // enter the set, and Fig. 9 makes them close by construction —
        // no ping, no charge.
        let (scenario, index, config) = setup();
        let surrogate = delegate_surrogates(&scenario);
        let zero_hop = AsapConfig { k: 0, ..config };
        let mut saw_colocated = false;
        for c in scenario.population.clustering().clusters() {
            let set = construct_close_cluster_set(&scenario, &index, &surrogate, c.id(), &zero_hop);
            assert_eq!(
                set.construction_messages,
                0,
                "co-located measurement charged messages for {:?}",
                c.id()
            );
            saw_colocated |= !set.is_empty();
            for e in set.entries() {
                assert_eq!(e.as_hops, 0);
            }
        }
        // The tiny scenario packs several clusters per AS, so the zero
        // charge above is not vacuous.
        assert!(saw_colocated, "no AS with co-located clusters in fixture");
    }

    #[test]
    fn unconstrained_mode_probes_at_least_as_much() {
        let (scenario, index, config) = setup();
        let surrogate = delegate_surrogates(&scenario);
        let origin = scenario.population.clustering().clusters()[0].id();
        let vf = construct_close_cluster_set_with_mode(
            &scenario,
            &index,
            &surrogate,
            origin,
            &config,
            SearchMode::ValleyFree,
        );
        let un = construct_close_cluster_set_with_mode(
            &scenario,
            &index,
            &surrogate,
            origin,
            &config,
            SearchMode::Unconstrained,
        );
        assert!(un.construction_messages >= vf.construction_messages);
        // Every valley-free close cluster also qualifies when reached by
        // the plain ball (measurement is identical).
        for e in vf.entries() {
            assert!(
                un.contains(e.cluster),
                "{:?} missing from unconstrained set",
                e.cluster
            );
        }
    }

    /// Every set is written once at its final size, also when the
    /// index's scratch list is warm from a larger build: no growth
    /// slack in its entries, and a position index that ends at its
    /// largest cluster.
    #[test]
    fn built_sets_keep_no_spare_capacity() {
        let (scenario, index, config) = setup();
        let surrogate = delegate_surrogates(&scenario);
        let mut sizes = std::collections::BTreeSet::new();
        let clusters = scenario.population.clustering().clusters();
        for (c, lat_t_ms) in clusters
            .iter()
            .zip([300.0, 25.0, 60.0, 12.0].iter().cycle())
        {
            let config = AsapConfig {
                lat_t_ms: *lat_t_ms,
                ..config
            };
            for mode in [SearchMode::ValleyFree, SearchMode::Unconstrained] {
                let set = construct_close_cluster_set_with_mode(
                    &scenario,
                    &index,
                    &surrogate,
                    c.id(),
                    &config,
                    mode,
                );
                assert_eq!(set.entries.capacity(), set.entries.len());
                assert_eq!(set.position.capacity(), set.position.len());
                let last = set.entries.iter().map(|e| e.cluster.0 as usize + 1).max();
                assert_eq!(set.position.len(), last.unwrap_or(0));
                sizes.insert(set.len());
            }
        }
        assert!(sizes.len() > 2, "set sizes {sizes:?}");
    }

    #[test]
    fn cluster_index_covers_every_cluster() {
        let (scenario, index, _) = setup();
        let clustering = scenario.population.clustering();
        let graph = &scenario.internet.graph;
        for c in clustering.clusters() {
            let node = graph.index_of(c.asn()).unwrap();
            assert!(index.clusters_at(node).contains(&c.id()));
        }
    }

    fn entry(cluster: u32, rtt_ms: f64) -> CloseClusterEntry {
        CloseClusterEntry {
            cluster: ClusterId(cluster),
            rtt_ms,
            loss: 0.001,
            as_hops: 1,
        }
    }

    #[test]
    fn ids_past_the_position_index_are_absent() {
        let set = CloseClusterSet::from_entries([entry(3, 10.0), entry(1, 20.0)]);
        assert_eq!(set.get(ClusterId(1)), Some(&entry(1, 20.0)));
        for absent in [0, 2, 4, 1_000, u32::MAX] {
            assert_eq!(set.get(ClusterId(absent)), None, "cluster {absent}");
            assert!(!set.contains(ClusterId(absent)));
        }
        assert_eq!(CloseClusterSet::default().get(ClusterId(0)), None);
    }

    #[test]
    fn a_duplicate_push_keeps_both_entries_and_indexes_the_later() {
        let mut set = CloseClusterSet::default();
        set.push(entry(5, 10.0));
        set.push(entry(2, 30.0));
        set.push(entry(5, 40.0));
        assert_eq!(set.len(), 3);
        assert_eq!(set.get(ClusterId(5)), Some(&entry(5, 40.0)));
        assert_eq!(set.get(ClusterId(2)), Some(&entry(2, 30.0)));
    }

    #[test]
    fn from_entries_keeps_the_first_duplicate() {
        let set = CloseClusterSet::from_entries([entry(5, 10.0), entry(2, 30.0), entry(5, 40.0)]);
        assert_eq!(set.entries(), &[entry(5, 10.0), entry(2, 30.0)]);
        assert_eq!(set.get(ClusterId(5)), Some(&entry(5, 10.0)));
    }
}
