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

use asap_cluster::Asn;
use asap_telemetry::{LedgerScope, MessageKind};
use asap_voip::QualityRequirement;
use asap_workload::sessions::Session;
use asap_workload::{HostId, Scenario};

use crate::rand_sel::RandSel;
use crate::selector::{eval_one_hop, RelaySelector, SelectionOutcome};

/// The earliest-divergence baseline: probes the same random candidates as
/// [`RandSel`], but *ranks* them by how early the caller→relay AS path
/// diverges from the caller→callee direct path (ties by RTT). The best
/// path reported is the most-disjoint one, not the fastest.
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
        let mut ranked: Vec<(usize, f64, crate::selector::RelayPath)> = Vec::new();
        let candidates = self.sampler.candidates(scenario, session);
        // One message per probed candidate, as in the seed accounting.
        self.scope
            .record(MessageKind::ProbeRequest, candidates.len() as u64);
        let pop = &scenario.population;
        let caller = pop.host(session.caller).asn;
        // The direct path, walked at the first routable candidate and
        // shared by all of them.
        let mut direct: Option<Option<Vec<Asn>>> = None;
        for r in candidates {
            let Some(path) = eval_one_hop(scenario, session, r) else {
                continue;
            };
            out.probed_nodes += 1;
            if requirement.rtt_ok(path.rtt_ms) {
                out.quality_paths += 1;
            }
            let direct = direct
                .get_or_insert_with(|| scenario.net.as_path(caller, pop.host(session.callee).asn));
            let shared = match direct {
                Some(direct) => shared_prefix(scenario, direct, caller, pop.host(r).asn),
                None => 0,
            };
            ranked.push((shared, path.rtt_ms, path));
        }
        // Earliest divergence first; RTT only breaks ties.
        ranked.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        out.best = ranked.into_iter().next().map(|(_, _, p)| p);
        out
    }

    fn scope(&self) -> &LedgerScope {
        &self.scope
    }
}

/// [`EarliestDivergence::shared_prefix_len`] given the direct path
/// from `caller`: the leading ASes it shares with the route from
/// `caller` to `relay`.
fn shared_prefix(scenario: &Scenario, direct: &[Asn], caller: Asn, relay: Asn) -> usize {
    let Some(via) = scenario.net.as_path(caller, relay) else {
        return 0;
    };
    direct
        .iter()
        .zip(via.iter())
        .take_while(|(a, b)| a == b)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, bits};
    use asap_workload::{Scenario, ScenarioConfig};

    fn scenario() -> Scenario {
        Scenario::build(ScenarioConfig::tiny(), 64)
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
                let fast = ed.select(&s, sess, &req);
                let what = format!("seed {scenario_seed}, session {i}");
                assert_eq!(bits(&fast), bits(&reference), "{what}");
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
