//! Adapter plugging ASAP into the shared evaluation harness.

use asap_baselines::{RelaySelector, SelectionOutcome};
use asap_telemetry::LedgerScope;
use asap_voip::QualityRequirement;
use asap_workload::sessions::Session;
use asap_workload::Scenario;

use crate::system::AsapSystem;

/// Wraps a running [`AsapSystem`] as a [`RelaySelector`] so the §7
/// comparison harness treats ASAP exactly like DEDI/RAND/MIX/OPT.
///
/// The system is bound to its own scenario at bootstrap; the `scenario`
/// argument of [`RelaySelector::select`] must be that same world (checked
/// by population size in debug builds).
#[derive(Debug)]
pub struct AsapSelector<'a> {
    system: AsapSystem<'a>,
}

impl<'a> AsapSelector<'a> {
    /// Wraps a bootstrapped system.
    pub fn new(system: AsapSystem<'a>) -> Self {
        AsapSelector { system }
    }

    /// The wrapped system (for stats inspection).
    pub fn system(&self) -> &AsapSystem<'a> {
        &self.system
    }
}

impl RelaySelector for AsapSelector<'_> {
    fn name(&self) -> &'static str {
        "ASAP"
    }

    fn select(
        &self,
        scenario: &Scenario,
        session: Session,
        requirement: &QualityRequirement,
    ) -> SelectionOutcome {
        debug_assert_eq!(
            scenario.population.hosts().len(),
            self.system.scenario().population.hosts().len(),
            "AsapSelector invoked with a different scenario than it was bootstrapped on"
        );
        let _ = requirement; // ASAP's own latT plays the requirement role.
        let outcome = self.system.call(session.caller, session.callee);
        let mut result = SelectionOutcome::default();
        if let Some(sel) = &outcome.selection {
            result.quality_paths = sel.quality_paths();
            result.probed_nodes = (sel.one_hop.len() + sel.two_hop.len()) as u64;
        }
        // A direct path (no relays) is not a relay path.
        result.best = outcome.chosen.filter(|p| !p.relays.is_empty());
        result
    }

    fn scope(&self) -> &LedgerScope {
        self.system.ledger_scope()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AsapConfig;
    use asap_workload::{sessions, ScenarioConfig};

    #[test]
    fn selector_reports_call_outcomes() {
        let scenario = Scenario::build(ScenarioConfig::tiny(), 31);
        let system = AsapSystem::bootstrap(&scenario, AsapConfig::default());
        let selector = AsapSelector::new(system);
        assert_eq!(selector.name(), "ASAP");
        let req = QualityRequirement::default();
        for s in sessions::generate(&scenario.population, 20, 4) {
            let (_, spent) = asap_baselines::select_metered(&selector, &scenario, s, &req);
            assert!(spent >= 2, "every call spends at least its setup pings");
        }
        assert_eq!(selector.system().stats().calls, 20);
    }
}
