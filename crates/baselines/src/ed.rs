//! ED: the earliest-divergence relay heuristic.
//!
//! §4 of the paper discusses Fei, Tao, Gao & Guerin's earliest-divergence
//! heuristic (INFOCOM'06) for finding *independent* routing paths: prefer
//! the relay whose path from the source diverges from the direct path as
//! early as possible, maximizing disjointness. The paper's point — which
//! this implementation lets the evaluation demonstrate — is that "when
//! used in VoIP applications, ED cannot guarantee to find good relay
//! nodes to satisfy the VoIP quality requirements": disjointness is about
//! *reliability*, not latency.

use asap_telemetry::{LedgerScope, MessageKind};
use asap_voip::QualityRequirement;
use asap_workload::sessions::Session;
use asap_workload::{HostId, Scenario};

use crate::rand_sel::RandSel;
use crate::selector::{eval_one_hop, RelayPath, RelaySelector, SelectionOutcome};

/// The earliest-divergence baseline: probes the same random candidates as
/// [`RandSel`], but *ranks* them by how early the caller→relay AS path
/// diverges from the caller→callee direct path (ties by RTT). The best
/// path reported is the most-disjoint one, not the fastest.
///
/// A candidate's divergence is found without materialising either AS
/// path: the caller→relay route and the direct route (looked up once
/// per select) are walked node by node by AS graph node index
/// (`NetModel::route_idx`), stopping at the first node where they
/// differ. [`EarliestDivergence::shared_prefix_len`], over two
/// `as_path` vectors, is the plain reference it equals.
#[derive(Debug, Clone)]
pub struct EarliestDivergence {
    sampler: RandSel,
    scope: LedgerScope,
}

impl EarliestDivergence {
    /// Probes `count` random candidates per session (deterministic per
    /// seed/session, identical candidate sets to `RandSel::new(count,
    /// seed)` for apples-to-apples comparisons).
    pub fn new(count: usize, seed: u64) -> Self {
        EarliestDivergence {
            sampler: RandSel::new(count, seed),
            scope: LedgerScope::detached(),
        }
    }

    /// Records this method's probes into `scope` (e.g. a shared ledger's
    /// `"ED"` scope) instead of the default detached one.
    pub fn with_scope(mut self, scope: LedgerScope) -> Self {
        self.scope = scope;
        self
    }

    /// The number of leading ASes the relay path shares with the direct
    /// path (0 = diverges immediately at the source AS; smaller = more
    /// disjoint).
    pub fn shared_prefix_len(scenario: &Scenario, session: Session, relay: HostId) -> usize {
        let (caller, callee, r) = (
            scenario.population.host(session.caller).asn,
            scenario.population.host(session.callee).asn,
            scenario.population.host(relay).asn,
        );
        let Some(direct) = scenario.net.as_path(caller, callee) else {
            return 0;
        };
        let Some(via) = scenario.net.as_path(caller, r) else {
            return 0;
        };
        direct
            .iter()
            .zip(via.iter())
            .take_while(|(a, b)| a == b)
            .count()
    }
}

impl RelaySelector for EarliestDivergence {
    fn name(&self) -> &'static str {
        "ED"
    }

    fn select(
        &self,
        scenario: &Scenario,
        session: Session,
        requirement: &QualityRequirement,
    ) -> SelectionOutcome {
        let mut out = SelectionOutcome::default();
        // The first candidate with the earliest divergence, RTT breaking
        // ties: `(shared, rtt, loss, relay)`, made a path at the end.
        let mut best: Option<(usize, f64, f64, HostId)> = None;
        let candidates = self.sampler.candidates(scenario, session);
        // One message per probed candidate, as in the seed accounting.
        self.scope
            .record(MessageKind::ProbeRequest, candidates.len() as u64);
        let pop = &scenario.population;
        let caller = pop.host(session.caller).as_node;
        // The direct route, looked up at the first routable candidate
        // and shared by all of them.
        let mut direct = None;
        for r in candidates {
            let Some((rtt_ms, loss)) = eval_one_hop(scenario, session, r) else {
                continue;
            };
            out.probed_nodes += 1;
            if requirement.rtt_ok(rtt_ms) {
                out.quality_paths += 1;
            }
            let direct = direct.get_or_insert_with(|| {
                scenario
                    .net
                    .route_idx(caller, pop.host(session.callee).as_node)
            });
            let relay = pop.host(r).as_node;
            let shared = (direct.as_ref()).map_or(0, |direct| {
                shared_route_len(scenario, direct.clone(), caller, relay)
            });
            let better = best
                .as_ref()
                .is_none_or(|(s, b, ..)| shared.cmp(s).then(rtt_ms.total_cmp(b)).is_lt());
            if better {
                best = Some((shared, rtt_ms, loss, r));
            }
        }
        out.best = best.map(|(_, rtt_ms, loss, r)| RelayPath {
            relays: vec![r],
            rtt_ms,
            loss,
        });
        out
    }

    fn scope(&self) -> &LedgerScope {
        &self.scope
    }
}

/// [`EarliestDivergence::shared_prefix_len`] by AS graph node index,
/// given `direct`, the route's nodes after the caller's AS `caller`:
/// the leading ASes it shares with the route from `caller` to `relay`.
/// Both routes start at `caller`, which counts; the walk then stops at
/// the first node where they differ. 0 when `relay` is unroutable.
fn shared_route_len(
    scenario: &Scenario,
    direct: impl Iterator<Item = u32>,
    caller: u32,
    relay: u32,
) -> usize {
    match scenario.net.route_idx(caller, relay) {
        Some(via) => 1 + direct.zip(via).take_while(|(a, b)| a == b).count(),
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, bits};
    use asap_cluster::Asn;
    use asap_netsim::{NetConfig, NetModel};
    use asap_topology::EdgeKind;
    use asap_workload::{Scenario, ScenarioConfig};
    use std::sync::Arc;

    fn scenario() -> Scenario {
        Scenario::build(ScenarioConfig::tiny(), 64)
    }

    /// Tiny world 65 with the AS of host 0 re-annotated to peer with
    /// its providers: it then routes only into their customer cones, so
    /// from host 0 many relays, and some callees, are unroutable.
    fn peering_only_caller_world() -> Scenario {
        let mut s = Scenario::build(ScenarioConfig::tiny(), 65);
        let asn = s.population.host(HostId(0)).asn;
        let mut internet = (*s.internet).clone();
        let providers: Vec<Asn> = internet.graph.providers(asn).collect();
        for provider in providers {
            internet.graph.add_edge(asn, provider, EdgeKind::PeerToPeer);
        }
        let internet = Arc::new(internet);
        s.net = NetModel::new(Arc::clone(&internet), NetConfig::default(), 5);
        s.internet = internet;
        s
    }

    /// The divergence walk, with every host as the relay, against the
    /// plain [`EarliestDivergence::shared_prefix_len`] over two
    /// `as_path` vectors: on sessions of tiny world 64, and from host 0
    /// of a world where its AS routes to few relays.
    #[test]
    fn divergence_walk_matches_shared_prefix_len() {
        let (mut walked, mut unroutable) = (0, 0);
        for (name, s) in [("64", scenario()), ("65", peering_only_caller_world())] {
            let pop = &s.population;
            let hosts = pop.hosts().len() as u32;
            let sessions = (0..12u32).map(|i| Session {
                caller: HostId(if i % 2 == 0 { 0 } else { (i * 37) % hosts }),
                callee: HostId((i * 101 + 7) % hosts),
            });
            for (i, session) in sessions.enumerate() {
                let caller = pop.host(session.caller).as_node;
                let direct = s.net.route_idx(caller, pop.host(session.callee).as_node);
                for relay in pop.hosts() {
                    let reference = EarliestDivergence::shared_prefix_len(&s, session, relay.id);
                    let shared = (direct.clone())
                        .map_or(0, |d| shared_route_len(&s, d, caller, relay.as_node));
                    assert_eq!(shared, reference, "world {name}, session {i}, {}", relay.id);
                    if direct.is_some() {
                        walked += 1;
                        unroutable += usize::from(shared == 0);
                    }
                }
            }
        }
        assert!(walked > unroutable, "no routable relay walked");
        assert!(unroutable > 0, "no unroutable relay walked");
    }

    #[test]
    fn ed_probes_the_same_candidates_as_rand() {
        let s = scenario();
        let sess = Session {
            caller: HostId(0),
            callee: HostId(101),
        };
        let ed = EarliestDivergence::new(40, 5);
        let rand = RandSel::new(40, 5);
        let req = QualityRequirement::default();
        let (a, a_spent) = crate::selector::select_metered(&ed, &s, sess, &req);
        let (b, b_spent) = crate::selector::select_metered(&rand, &s, sess, &req);
        assert_eq!(a.quality_paths, b.quality_paths);
        assert_eq!(a_spent, b_spent);
    }

    #[test]
    fn shared_direct_path_matches_the_per_candidate_reference() {
        let req = QualityRequirement::default();
        for scenario_seed in [64, 65] {
            let s = Scenario::build(ScenarioConfig::tiny(), scenario_seed);
            let hosts = s.population.hosts().len() as u32;
            let ed = EarliestDivergence::new(60, 9);
            for i in 0..30u32 {
                let sess = Session {
                    caller: HostId((i * 37) % hosts),
                    callee: HostId((i * 101 + 7) % hosts),
                };
                let reference = reference::ed_select(60, 9, &s, sess, &req);
                let queries = |select: &dyn Fn() -> SelectionOutcome| {
                    let before = s.net.route_cache_stats();
                    let out = select();
                    let after = s.net.route_cache_stats();
                    (out, after.0 + after.1 - before.0 - before.1)
                };
                let (fast, asked) = queries(&|| ed.select(&s, sess, &req));
                let (_, probes) = queries(&|| RandSel::new(60, 9).select(&s, sess, &req));
                let what = format!("seed {scenario_seed}, session {i}");
                assert_eq!(bits(&fast), bits(&reference), "{what}");
                // RAND's probe legs, then one tree lookup for the direct
                // route and, when it is routable, one per probed relay.
                let pop = &s.population;
                let direct = (s.net).as_path(pop.host(sess.caller).asn, pop.host(sess.callee).asn);
                let walks = match fast.probed_nodes {
                    0 => 0,
                    n if direct.is_some() => 1 + n,
                    _ => 1,
                };
                assert_eq!(asked, probes + walks, "route queries of {what}");
            }
        }
    }

    #[test]
    fn ed_picks_most_disjoint_not_fastest() {
        let req = QualityRequirement::default();
        let ed = EarliestDivergence::new(60, 9);
        let rand = RandSel::new(60, 9);
        let mut ed_slower_somewhere = false;
        // Whether disjointness costs latency depends on the topology draw,
        // so scan a few scenario seeds; the invariants hold on every draw.
        for scenario_seed in 64..70u64 {
            let s = Scenario::build(ScenarioConfig::tiny(), scenario_seed);
            for i in 0..20u32 {
                let sess = Session {
                    caller: HostId(i),
                    callee: HostId(200 + i),
                };
                let (Some(e), Some(r)) = (
                    ed.select(&s, sess, &req).best,
                    rand.select(&s, sess, &req).best,
                ) else {
                    continue;
                };
                // RAND keeps the fastest probe, so ED can only be ≥.
                assert!(e.rtt_ms >= r.rtt_ms - 1e-9);
                if e.rtt_ms > r.rtt_ms + 1.0 {
                    ed_slower_somewhere = true;
                }
                // And the chosen relay really is (one of) the most disjoint.
                let chosen_shared = EarliestDivergence::shared_prefix_len(&s, sess, e.relays[0]);
                for cand in ed.sampler.candidates(&s, sess) {
                    if eval_one_hop(&s, sess, cand).is_some() {
                        assert!(
                            chosen_shared <= EarliestDivergence::shared_prefix_len(&s, sess, cand),
                            "a more disjoint candidate existed"
                        );
                    }
                }
            }
            if ed_slower_somewhere {
                break;
            }
        }
        assert!(
            ed_slower_somewhere,
            "ED should pay a latency price for disjointness somewhere (the paper's point)"
        );
    }
}
