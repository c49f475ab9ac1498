//! Fault recovery across the whole stack: the fault-driven event
//! simulation's survival guarantee under a 1%/tick crash rate.

use asap_core::events::{run, SimConfig};
use asap_core::AsapConfig;
use asap_netsim::faults::FaultPlanConfig;
use asap_workload::{Scenario, ScenarioConfig};

fn scenario() -> Scenario {
    Scenario::build(ScenarioConfig::tiny(), 404)
}

#[test]
fn calls_survive_one_percent_crash_rate() {
    let s = scenario();
    let mut completed = 0u64;
    let mut dropped = 0u64;
    for seed in 0..5u64 {
        let sim = SimConfig {
            calls: 100,
            surrogate_failures: 0,
            faults: Some(FaultPlanConfig {
                seed,
                surrogate_crash_per_tick: 0.01,
                host_crash_per_tick: 0.01,
                ..Default::default()
            }),
            seed,
            ..Default::default()
        };
        let report = run(&s, AsapConfig::default(), &sim);
        completed += report.calls_completed;
        dropped += report.calls_dropped;
    }
    assert!(completed > 0, "no call completed at all");
    let survival = (completed - dropped) as f64 / completed as f64;
    assert!(
        survival >= 0.99,
        "only {survival:.4} of calls survived 1%/tick crashes ({dropped}/{completed} dropped)"
    );
}
