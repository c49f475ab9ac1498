//! A single latent VoIP call, dissected end to end.
//!
//! Finds a session whose direct IP route violates the 300 ms quality
//! threshold, then shows everything ASAP does about it: the caller's and
//! callee's close cluster sets, the one-/two-hop intersection, the chosen
//! relay, and the resulting speech quality under the ITU E-model —
//! compared against what DEDI/RAND probing and the offline optimum find.
//!
//! ```sh
//! cargo run --release -p asap-core --example voip_call
//! ```

use asap_baselines::{Dedi, Opt, RandSel, RelaySelector};
use asap_core::{AsapConfig, AsapSystem};
use asap_voip::{emodel::EModel, Codec, QualityRequirement};
use asap_workload::sessions::{latent_sessions, with_direct_routes};
use asap_workload::{sessions, PopulationConfig, Scenario, ScenarioConfig};

fn main() {
    let mut cfg = ScenarioConfig::eval_scale();
    cfg.population = PopulationConfig {
        target_hosts: 4_000,
        ..Default::default()
    };
    let scenario = Scenario::build(cfg, 2026);
    let system = AsapSystem::bootstrap(&scenario, AsapConfig::default());
    let req = QualityRequirement::default();
    let mos = EModel::new(Codec::G729aVad);

    // Find a latent session that ASAP can fix.
    let all = sessions::generate(&scenario.population, 20_000, 5);
    let latent = latent_sessions(&with_direct_routes(&scenario, &all), 300.0);
    println!(
        "{} of {} sessions are latent (direct RTT > 300 ms)",
        latent.len(),
        all.len()
    );

    let Some((s, outcome)) = latent.iter().find_map(|s| {
        let o = system.call(s.session.caller, s.session.callee);
        o.chosen
            .as_ref()
            .filter(|c| !c.relays.is_empty() && c.rtt_ms < 300.0)?;
        Some((s, o))
    }) else {
        println!("no fixable latent session in this run — try another seed");
        return;
    };

    let (caller, callee) = (s.session.caller, s.session.callee);
    let (ha, hb) = (
        scenario.population.host(caller),
        scenario.population.host(callee),
    );
    println!(
        "\ncall {caller} ({}, {}) → {callee} ({}, {})",
        ha.ip, ha.asn, hb.ip, hb.asn
    );
    println!(
        "direct route: {:.0} ms RTT (MOS {:.2}) — unacceptable",
        s.direct_rtt_ms,
        mos.mos_from_rtt(s.direct_rtt_ms, s.direct_loss)
    );
    if let Some(path) = scenario.net.as_path(ha.asn, hb.asn) {
        println!("direct AS path: {path:?}");
    }

    let caller_set = system.close_set_of(scenario.population.cluster_of(caller));
    let callee_set = system.close_set_of(scenario.population.cluster_of(callee));
    println!(
        "\nclose cluster sets: caller knows {} clusters, callee knows {}",
        caller_set.len(),
        callee_set.len()
    );

    let sel = outcome
        .selection
        .as_ref()
        .expect("latent call ran selection");
    println!(
        "select-close-relay(): {} one-hop clusters, {} two-hop pairs, {} quality paths, {} messages",
        sel.one_hop.len(),
        sel.two_hop.len(),
        sel.quality_paths(),
        outcome.messages
    );

    let chosen = outcome.chosen.as_ref().unwrap();
    println!(
        "\nASAP relays via {:?}: {:.0} ms RTT, {:.2}% loss → MOS {:.2}",
        chosen.relays,
        chosen.rtt_ms,
        100.0 * chosen.loss,
        mos.mos_from_rtt(chosen.rtt_ms, chosen.loss)
    );

    // How do the baselines fare on the same call? Message spend comes
    // from each selector's ledger scope via `select_metered`.
    let dedi = Dedi::new(&scenario, 80);
    let rand = RandSel::new(200, 1);
    let opt = Opt::new();
    let selectors: [(&str, &dyn RelaySelector); 3] =
        [("DEDI(80)", &dedi), ("RAND(200)", &rand), ("OPT", &opt)];
    for (name, selector) in selectors {
        let (out, spent) = asap_baselines::select_metered(selector, &scenario, s.session, &req);
        match out.best {
            Some(b) => println!(
                "{name:>9}: best {:.0} ms (MOS {:.2}), {} quality paths, {} messages",
                b.rtt_ms,
                mos.mos_from_rtt(b.rtt_ms, 0.005),
                out.quality_paths,
                spent
            ),
            None => println!("{name:>9}: found nothing"),
        }
    }
}
