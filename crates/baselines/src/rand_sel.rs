//! RAND: random relay probing (SOSR-like).

use asap_rng::StdRng;
use asap_telemetry::{LedgerScope, MessageKind};
use asap_voip::QualityRequirement;
use asap_workload::sessions::Session;
use asap_workload::{HostId, Scenario};

use crate::selector::{eval_one_hop, RelaySelector, SelectionOutcome};

/// The SOSR-like baseline: each session probes `count` uniformly random
/// peers as one-hop relays (§7.1: "RAND randomly selects 200 nodes").
///
/// SOSR showed random one-hop intermediaries recover well from path
/// *failures*, but random probing "cannot guarantee to find a short
/// one-hop routing path with a moderate number of probings" (§4) — which
/// is exactly what the Fig. 13/14 comparison shows.
#[derive(Debug, Clone)]
pub struct RandSel {
    count: usize,
    seed: u64,
    scope: LedgerScope,
}

impl RandSel {
    /// Probes `count` random peers per session; candidate choice is
    /// deterministic per (seed, session).
    pub fn new(count: usize, seed: u64) -> Self {
        RandSel {
            count,
            seed,
            scope: LedgerScope::detached(),
        }
    }

    /// Records this method's probes into `scope` (e.g. a shared ledger's
    /// `"RAND"` scope) instead of the default detached one.
    pub fn with_scope(mut self, scope: LedgerScope) -> Self {
        self.scope = scope;
        self
    }

    /// The deterministic candidate list for one session.
    pub fn candidates(&self, scenario: &Scenario, session: Session) -> Vec<HostId> {
        let n = scenario.population.hosts().len();
        let mut rng = StdRng::seed_from_u64(
            self.seed
                ^ (u64::from(session.caller.0) << 32)
                ^ u64::from(session.callee.0).rotate_left(13),
        );
        (0..self.count)
            .map(|_| HostId(rng.gen_range(0..n) as u32))
            .collect()
    }
}

impl RelaySelector for RandSel {
    fn name(&self) -> &'static str {
        "RAND"
    }

    fn select(
        &self,
        scenario: &Scenario,
        session: Session,
        requirement: &QualityRequirement,
    ) -> SelectionOutcome {
        // One message per probed candidate, as in the seed accounting.
        self.scope
            .record(MessageKind::ProbeRequest, self.count as u64);
        let mut out = SelectionOutcome::default();
        for r in self.candidates(scenario, session) {
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
    fn candidates_are_deterministic_per_session() {
        let s = Scenario::build(ScenarioConfig::tiny(), 5);
        let r = RandSel::new(20, 7);
        let sess = Session {
            caller: HostId(1),
            callee: HostId(2),
        };
        assert_eq!(r.candidates(&s, sess), r.candidates(&s, sess));
        let other = Session {
            caller: HostId(3),
            callee: HostId(4),
        };
        assert_ne!(r.candidates(&s, sess), r.candidates(&s, other));
    }

    #[test]
    fn messages_equal_probe_budget() {
        let s = Scenario::build(ScenarioConfig::tiny(), 5);
        let r = RandSel::new(50, 7);
        let sess = Session {
            caller: HostId(0),
            callee: HostId(9),
        };
        let (_, spent) =
            crate::selector::select_metered(&r, &s, sess, &QualityRequirement::default());
        assert_eq!(spent, 50);
    }

    #[test]
    fn endpoints_are_never_counted_as_relays() {
        let s = Scenario::build(ScenarioConfig::tiny(), 5);
        let r = RandSel::new(300, 1);
        let sess = Session {
            caller: HostId(5),
            callee: HostId(6),
        };
        let out = r.select(&s, sess, &QualityRequirement::default());
        if let Some(best) = out.best {
            assert!(!best.relays.contains(&sess.caller));
            assert!(!best.relays.contains(&sess.callee));
        }
    }
}
