//! Failure injection across the whole stack: AS failures, AS congestion,
//! and surrogate crashes, observed through ASAP's behavior.

use asap_core::{AsapConfig, AsapSystem};
use asap_netsim::model::FAILURE_RTT_MS;
use asap_netsim::AsCondition;
use asap_workload::{sessions, Scenario, ScenarioConfig};

fn scenario() -> Scenario {
    Scenario::build(ScenarioConfig::tiny(), 404)
}

/// Tiny world 1, whose multi-homed hosts spread over four ASes (world
/// 404 puts all of them in one). Checks the property the relay test
/// needs: two hosts in different multi-homed ASes whose direct route
/// crosses 4+ ASes, so congesting a middle AS leaves both ends a bypass.
fn multihomed_world() -> Scenario {
    let s = Scenario::build(ScenarioConfig::tiny(), 1);
    let graph = &s.internet.graph;
    let mut asns: Vec<_> = s
        .population
        .hosts()
        .iter()
        .map(|h| h.asn)
        .filter(|&a| graph.is_multi_homed(a))
        .collect();
    asns.sort_unstable();
    asns.dedup();
    assert!(
        asns.iter().any(|&a| asns
            .iter()
            .any(|&b| s.net.as_path(a, b).is_some_and(|p| p.len() >= 4))),
        "no two multi-homed host ASes are 4+ ASes apart"
    );
    s
}

#[test]
fn failing_a_transit_as_degrades_direct_routes_crossing_it() {
    let mut s = scenario();
    let hosts = s.population.hosts();
    let (a, b) = (hosts[0].id, hosts[170].id);
    let (asn_a, asn_b) = (s.population.host(a).asn, s.population.host(b).asn);
    let path = s.net.as_path(asn_a, asn_b).expect("routable pair");
    assert!(path.len() >= 3, "need a transit AS on the path");
    let before = s.host_rtt_ms(a, b).unwrap();

    s.net.set_condition(path[1], AsCondition::Failed);
    let after = s.host_rtt_ms(a, b).unwrap();
    assert!(after > before, "failure must not speed the path up");
    assert!(after >= FAILURE_RTT_MS, "failed AS must plateau the RTT");
    assert_eq!(s.host_loss(a, b), Some(1.0));
}

#[test]
fn asap_relays_around_injected_congestion_when_endpoints_are_multihomed() {
    let mut s = multihomed_world();
    // Find a session whose endpoints are multi-homed (bypassable) and
    // inject heavy congestion into a middle AS of its direct route.
    let sessions = sessions::generate(&s.population, 400, 7);
    let mut injected = None;
    for sess in &sessions {
        let (ha, hb) = (
            s.population.host(sess.caller).asn,
            s.population.host(sess.callee).asn,
        );
        if !s.internet.graph.is_multi_homed(ha) || !s.internet.graph.is_multi_homed(hb) {
            continue;
        }
        let Some(path) = s.net.as_path(ha, hb) else {
            continue;
        };
        if path.len() < 4 {
            continue;
        }
        let victim = path[path.len() / 2];
        s.net.set_condition(
            victim,
            AsCondition::Congested {
                added_rtt_ms: 400.0,
                added_loss: 0.02,
            },
        );
        if s.host_rtt_ms(sess.caller, sess.callee)
            .is_some_and(|r| r > 300.0)
        {
            injected = Some((*sess, victim));
            break;
        }
        s.net.set_condition(victim, AsCondition::Healthy);
    }
    let (sess, victim) = injected.expect("no sampled session crosses a congestible middle AS");

    let system = AsapSystem::bootstrap(&s, AsapConfig::default());
    let outcome = system.call(sess.caller, sess.callee);
    assert!(
        !outcome.used_direct,
        "direct route crosses the congested {victim}"
    );
    let chosen = outcome
        .chosen
        .unwrap_or_else(|| panic!("ASAP found no path around {victim}"));
    assert!(!chosen.relays.is_empty(), "the chosen path is direct");
    assert!(
        chosen.rtt_ms < outcome.direct_rtt_ms.unwrap(),
        "relay path must beat the congested direct route"
    );
}

#[test]
fn cascading_surrogate_failures_never_wedge_the_system() {
    let s = scenario();
    let system = AsapSystem::bootstrap(&s, AsapConfig::default());
    // Kill the surrogate of the biggest cluster several times in a row;
    // every failover must elect a member and calls must keep completing.
    let big = s
        .population
        .clustering()
        .clusters()
        .iter()
        .max_by_key(|c| c.len())
        .unwrap()
        .id();
    let members = s.population.cluster_members(big);
    let kills = (members.len() - 1).min(4);
    let mut seen = vec![system.surrogate_of(big)];
    for _ in 0..kills {
        let next = system.fail_surrogate(big);
        assert!(members.contains(&next));
        assert!(
            !seen.contains(&next),
            "failover re-elected a dead surrogate"
        );
        seen.push(next);
    }
    let sess = sessions::generate(&s.population, 5, 8);
    for x in sess {
        let out = system.call(x.caller, x.callee);
        assert!(out.messages >= 2);
    }
}

#[test]
fn close_sets_reflect_injected_congestion() {
    let mut s = scenario();
    let system = AsapSystem::bootstrap(&s, AsapConfig::default());
    let cluster = s.population.clustering().clusters()[0].id();
    let before = system.close_set_of(cluster).len();
    drop(system);

    // Congest the origin cluster's AS itself: every leg from this cluster
    // now pays 400 ms, so its close set must collapse.
    let asn = s.population.clustering().cluster(cluster).asn();
    s.net.set_condition(
        asn,
        AsCondition::Congested {
            added_rtt_ms: 400.0,
            added_loss: 0.0,
        },
    );
    let system = AsapSystem::bootstrap(&s, AsapConfig::default());
    let after = system.close_set_of(cluster).len();
    // Only intra-AS clusters (0 AS hops, no congested traversal applies
    // to same-AS legs in the model) can remain.
    assert!(
        after < before || before == 0,
        "close set did not shrink: {before} -> {after}"
    );
}
