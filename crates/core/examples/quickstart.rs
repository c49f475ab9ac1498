//! Quickstart: build a small synthetic Internet, boot ASAP, and place a
//! few calls.
//!
//! ```sh
//! cargo run --release -p asap-core --example quickstart
//! ```

use asap_core::{AsapConfig, AsapSystem};
use asap_voip::{emodel::EModel, Codec};
use asap_workload::{sessions, Scenario, ScenarioConfig};

fn main() {
    // 1. A deterministic world: annotated AS topology + latency model +
    //    peer population, all derived from one seed.
    let scenario = Scenario::build(ScenarioConfig::tiny(), 42);
    println!(
        "world: {} ASes, {} links, {} peers in {} clusters",
        scenario.internet.graph.node_count(),
        scenario.internet.graph.edge_count(),
        scenario.population.hosts().len(),
        scenario.cluster_count(),
    );

    // 2. Boot the ASAP system: bootstrap tables + surrogate election.
    let system = AsapSystem::bootstrap(&scenario, AsapConfig::default());

    // 3. Place calls. Fast direct routes are kept; slow ones trigger
    //    select-close-relay().
    let mos_model = EModel::new(Codec::G729aVad);
    for session in sessions::generate(&scenario.population, 8, 7) {
        let outcome = system.call(session.caller, session.callee);
        let direct = outcome.direct_rtt_ms.unwrap_or(f64::NAN);
        match &outcome.chosen {
            Some(path) if path.relays.is_empty() => {
                println!(
                    "{} → {}: direct {direct:.0} ms (MOS {:.2}), {} messages",
                    session.caller,
                    session.callee,
                    mos_model.mos_from_rtt(path.rtt_ms, path.loss),
                    outcome.messages
                );
            }
            Some(path) => {
                println!(
                    "{} → {}: direct {direct:.0} ms → relayed via {:?} at {:.0} ms (MOS {:.2}), {} messages",
                    session.caller,
                    session.callee,
                    path.relays,
                    path.rtt_ms,
                    mos_model.mos_from_rtt(path.rtt_ms, path.loss),
                    outcome.messages
                );
            }
            None => {
                println!(
                    "{} → {}: direct {direct:.0} ms and no quality relay exists",
                    session.caller, session.callee
                );
            }
        }
    }

    let stats = system.stats();
    println!(
        "\nsystem: {} calls ({} direct, {} relayed), {} close sets built, {} session messages",
        stats.calls,
        stats.direct_calls,
        stats.relayed_calls,
        stats.close_sets_built,
        system.ledger_scope().total()
    );
}
