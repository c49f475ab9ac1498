//! The common interface all relay-selection methods implement.

use asap_telemetry::LedgerScope;
use asap_voip::QualityRequirement;
use asap_workload::sessions::Session;
use asap_workload::{HostId, Scenario};

/// One candidate relay path: one or two intermediary hosts with the
/// resulting end-to-end RTT and loss. A path with no relays is the
/// direct path; the ASAP runtime reports it that way when a call goes
/// direct.
#[derive(Debug, Clone, PartialEq)]
pub struct RelayPath {
    /// The intermediary relay host(s): none for the direct path, one for
    /// one-hop, two for two-hop.
    pub relays: Vec<HostId>,
    /// End-to-end RTT including per-relay forwarding delay, milliseconds.
    pub rtt_ms: f64,
    /// End-to-end loss probability.
    pub loss: f64,
}

/// The result of running one relay-selection method on one session.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectionOutcome {
    /// Number of *quality paths* found — relay paths satisfying the RTT
    /// requirement. ASAP counts member-host granularity (every host of a
    /// qualifying close cluster is a usable relay), probing methods count
    /// their probed nodes that qualified.
    pub quality_paths: u64,
    /// The best (shortest-RTT) relay path found, if any candidate was
    /// evaluated successfully.
    pub best: Option<RelayPath>,
    /// Number of relay nodes whose paths were actually probed/evaluated.
    pub probed_nodes: u64,
}

impl SelectionOutcome {
    /// Records a candidate path: counts it if it meets the requirement and
    /// keeps it if it is the best so far.
    pub fn consider(&mut self, path: RelayPath, requirement: &QualityRequirement) {
        self.consider_weighted(path, 1, requirement);
    }

    /// Like [`consider`](Self::consider) but with an explicit quality-path
    /// weight (ASAP counts every member host of a qualifying cluster).
    pub fn consider_weighted(
        &mut self,
        path: RelayPath,
        weight: u64,
        requirement: &QualityRequirement,
    ) {
        self.probed_nodes += 1;
        if requirement.rtt_ok(path.rtt_ms) {
            self.quality_paths += weight;
        }
        let better = match &self.best {
            Some(b) => path.rtt_ms < b.rtt_ms,
            None => true,
        };
        if better {
            self.best = Some(path);
        }
    }
}

/// Evaluates host `r` as a one-hop relay for `session`, returning the
/// resulting path, or `None` when `r` is an endpoint or a leg is
/// unroutable.
pub fn eval_one_hop(scenario: &Scenario, session: Session, r: HostId) -> Option<RelayPath> {
    if r == session.caller || r == session.callee {
        return None;
    }
    let (rtt_ms, loss) = scenario.one_hop_metrics(session.caller, r, session.callee)?;
    Some(RelayPath {
        relays: vec![r],
        rtt_ms,
        loss,
    })
}

/// A relay node selection method, as compared in §7 of the paper.
pub trait RelaySelector {
    /// Short display name (`"DEDI"`, `"ASAP"`, …).
    fn name(&self) -> &'static str;

    /// Selects relay paths for `session` under `requirement`.
    fn select(
        &self,
        scenario: &Scenario,
        session: Session,
        requirement: &QualityRequirement,
    ) -> SelectionOutcome;

    /// The ledger scope this method records its protocol messages into —
    /// the single source of truth for the Fig. 18 overhead metric
    /// (replacing the per-outcome `messages` counter this trait used to
    /// carry).
    fn scope(&self) -> &LedgerScope;
}

/// Runs `sel.select(..)` and meters its message cost: returns the
/// outcome together with how many ledger messages the selection spent,
/// read as a before/after delta on the method's scope.
pub fn select_metered<S: RelaySelector + ?Sized>(
    sel: &S,
    scenario: &Scenario,
    session: Session,
    requirement: &QualityRequirement,
) -> (SelectionOutcome, u64) {
    let before = sel.scope().total();
    let out = sel.select(scenario, session, requirement);
    let spent = sel.scope().total() - before;
    (out, spent)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(rtt: f64) -> RelayPath {
        RelayPath {
            relays: vec![HostId(1)],
            rtt_ms: rtt,
            loss: 0.005,
        }
    }

    #[test]
    fn consider_counts_and_keeps_best() {
        let req = QualityRequirement::default();
        let mut out = SelectionOutcome::default();
        out.consider(path(400.0), &req);
        out.consider(path(120.0), &req);
        out.consider(path(250.0), &req);
        assert_eq!(out.probed_nodes, 3);
        assert_eq!(out.quality_paths, 2); // 120 and 250 qualify
        assert_eq!(out.best.as_ref().unwrap().rtt_ms, 120.0);
    }

    #[test]
    fn weighted_counting() {
        let req = QualityRequirement::default();
        let mut out = SelectionOutcome::default();
        out.consider_weighted(path(100.0), 57, &req);
        out.consider_weighted(path(500.0), 99, &req);
        assert_eq!(out.quality_paths, 57);
    }

    #[test]
    fn best_is_kept_even_if_not_quality() {
        let req = QualityRequirement::default();
        let mut out = SelectionOutcome::default();
        out.consider(path(500.0), &req);
        assert_eq!(out.quality_paths, 0);
        assert!(out.best.is_some());
    }

    #[test]
    fn dedi_concentrates_load_on_its_fixed_nodes() {
        use crate::dedi::Dedi;
        use asap_workload::ScenarioConfig;
        let s = Scenario::build(ScenarioConfig::tiny(), 5);
        let dedi = Dedi::new(&s, 5);
        let req = QualityRequirement::default();
        let mut found = 0;
        for i in 0..40u32 {
            let sess = Session {
                caller: HostId(i),
                callee: HostId(200 + i),
            };
            // Every path DEDI finds relays through its fixed node set.
            if let Some(best) = dedi.select(&s, sess, &req).best {
                assert!(best.relays.iter().all(|r| dedi.nodes().contains(r)));
                found += 1;
            }
        }
        assert!(found > 0, "DEDI found no relay path in 40 sessions");
    }
}
