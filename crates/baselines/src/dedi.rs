//! DEDI: dedicated relay nodes (RON-like).

use asap_telemetry::{LedgerScope, MessageKind};
use asap_voip::QualityRequirement;
use asap_workload::sessions::Session;
use asap_workload::{HostId, Scenario};

use crate::selector::{eval_one_hop, RelaySelector, SelectionOutcome};

/// The RON-like baseline: a fixed set of dedicated relay nodes, one per
/// cluster, placed in the clusters whose ASes have the largest connection
/// degrees (§7.1: "DEDI probes 80 nodes in 80 clusters with the largest
/// connection degrees"). Every session probes all of them.
///
/// Like RON, this needs dedicated infrastructure and probes pairwise
/// regardless of the session — which is why it finds few quality paths
/// per probe and does not scale with the population.
#[derive(Debug, Clone)]
pub struct Dedi {
    nodes: Vec<HostId>,
    scope: LedgerScope,
}

impl Dedi {
    /// Chooses the dedicated nodes for `scenario`: delegates of the
    /// `count` clusters with the largest AS connection degrees (ties by
    /// cluster id for determinism).
    pub fn new(scenario: &Scenario, count: usize) -> Self {
        let clustering = scenario.population.clustering();
        let graph = &scenario.internet.graph;
        let mut ranked: Vec<(usize, asap_cluster::ClusterId)> = clustering
            .clusters()
            .iter()
            .map(|c| (graph.degree(c.asn()), c.id()))
            .collect();
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let nodes = ranked
            .iter()
            .take(count)
            .map(|&(_, id)| scenario.delegate_of(id))
            .collect();
        Dedi {
            nodes,
            scope: LedgerScope::detached(),
        }
    }

    /// Records this method's probes into `scope` (e.g. a shared ledger's
    /// `"DEDI"` scope) instead of the default detached one.
    pub fn with_scope(mut self, scope: LedgerScope) -> Self {
        self.scope = scope;
        self
    }

    /// The dedicated relay nodes.
    pub fn nodes(&self) -> &[HostId] {
        &self.nodes
    }
}

impl RelaySelector for Dedi {
    fn name(&self) -> &'static str {
        "DEDI"
    }

    fn select(
        &self,
        scenario: &Scenario,
        session: Session,
        requirement: &QualityRequirement,
    ) -> SelectionOutcome {
        // One message per probed node, as in the seed accounting.
        self.scope
            .record(MessageKind::ProbeRequest, self.nodes.len() as u64);
        let mut out = SelectionOutcome::default();
        for &r in &self.nodes {
            if let Some(metrics) = eval_one_hop(scenario, session, r) {
                out.consider(&[r], metrics, requirement);
            }
        }
        out
    }

    fn scope(&self) -> &LedgerScope {
        &self.scope
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_workload::ScenarioConfig;

    #[test]
    fn picks_high_degree_clusters() {
        let s = Scenario::build(ScenarioConfig::tiny(), 5);
        let dedi = Dedi::new(&s, 5);
        assert_eq!(dedi.nodes().len(), 5);
        let g = &s.internet.graph;
        let deg_of = |h: HostId| g.degree(s.population.host(h).asn);
        let min_picked = dedi.nodes().iter().map(|&h| deg_of(h)).min().unwrap();
        // No unpicked cluster may have a strictly larger degree than every
        // picked one's minimum… check against the global maximum instead:
        let max_any = s
            .population
            .clustering()
            .clusters()
            .iter()
            .map(|c| g.degree(c.asn()))
            .max()
            .unwrap();
        let max_picked = dedi.nodes().iter().map(|&h| deg_of(h)).max().unwrap();
        assert_eq!(max_picked, max_any);
        let _ = min_picked;
    }

    #[test]
    fn probes_cost_one_message_each() {
        let s = Scenario::build(ScenarioConfig::tiny(), 5);
        let dedi = Dedi::new(&s, 8);
        let sess = Session {
            caller: HostId(0),
            callee: HostId(42),
        };
        let (out, spent) =
            crate::selector::select_metered(&dedi, &s, sess, &QualityRequirement::default());
        assert_eq!(spent, 8);
        assert_eq!(dedi.scope().count(MessageKind::ProbeRequest), 8);
        assert!(out.probed_nodes <= 8);
    }

    #[test]
    fn count_larger_than_clusters_is_capped() {
        let s = Scenario::build(ScenarioConfig::tiny(), 5);
        let dedi = Dedi::new(&s, 10_000);
        assert_eq!(dedi.nodes().len(), s.cluster_count());
    }

    #[test]
    fn deterministic() {
        let s = Scenario::build(ScenarioConfig::tiny(), 5);
        assert_eq!(Dedi::new(&s, 10).nodes(), Dedi::new(&s, 10).nodes());
    }
}
