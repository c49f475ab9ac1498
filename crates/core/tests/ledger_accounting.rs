//! Message accounting checked against the telemetry ledger.
//!
//! The runtime records every control message once, by kind, in the
//! system's ledger scope. The counts callers read elsewhere must agree
//! with that ledger:
//!
//! 1. a call's `CallOutcome.messages` (the per-session Fig. 18 count
//!    that `select_metered` relies on) equals the growth of the scope's
//!    `total()` across the call;
//! 2. `recovery_messages` equals the handoff and election messages plus
//!    one request/reply pair per timeout and per failover re-ping;
//! 3. `retries` equals `timeouts`, and `joins` equals the join requests
//!    recorded.
//!
//! The first test drives `AsapSystem` directly through drop windows,
//! silent and announced crashes, partitions, membership ticks and
//! mid-call failovers, with the capacity model on and off. The second
//! checks (2) and (3) on whole `run_with` simulations under fault plans.

use asap_cluster::ClusterId;
use asap_core::events::{run_with, SimConfig};
use asap_core::{AsapConfig, AsapSystem};
use asap_netsim::capacity::CapacityConfig;
use asap_netsim::faults::{FaultPlanConfig, MessageDrops};
use asap_netsim::membership::HEARTBEAT_INTERVAL_MS;
use asap_rng::StdRng;
use asap_telemetry::{LedgerScope, MessageKind, Telemetry};
use asap_workload::{HostId, Scenario, ScenarioConfig};

/// The tiny world of `seed` with its best-connected AS congested, so
/// routes across it turn latent and calls run relay selection.
fn congested_scenario(seed: u64) -> Scenario {
    let mut s = Scenario::build(ScenarioConfig::tiny(), seed);
    let graph = &s.internet.graph;
    let hub = *graph
        .asns()
        .iter()
        .max_by_key(|&&a| (graph.degree(a), a))
        .unwrap();
    s.apply_as_congestion(hub, 400.0, 0.0);
    s
}

/// latT 150 ms so most calls need a relay, and a capacity model tight
/// enough that fetches queue, shed and hedge and relays run out of slots.
fn config(capacity: bool) -> AsapConfig {
    AsapConfig {
        lat_t_ms: 150.0,
        capacity: CapacityConfig {
            enabled: capacity,
            surrogate_budget: 2,
            budget_window_ms: 1000,
            queue_limit: 4,
            queue_deadline_ms: 1500,
            hedge_delay_ms: 200,
            relay_slots_base: 1,
            relay_slots_per_capability: 1.0,
        },
        ..Default::default()
    }
}

/// The recovery and join counters `stats()` reports agree with the
/// ledger scope they were recorded into.
fn assert_stats_match_ledger(system: &AsapSystem<'_>) {
    let stats = system.stats();
    let rec = stats.recovery;
    let scope = system.ledger_scope();
    assert_eq!(
        rec.recovery_messages,
        scope.count(MessageKind::Handoff)
            + scope.count(MessageKind::Election)
            + 2 * (rec.timeouts + rec.failovers),
        "{rec:?}"
    );
    assert_eq!(rec.retries, rec.timeouts);
    assert_eq!(stats.joins, scope.count(MessageKind::JoinRequest));
}

/// Messages `f` recorded into `scope`, with its result.
fn metered<T>(scope: &LedgerScope, f: impl FnOnce() -> T) -> (T, u64) {
    let before = scope.total();
    let out = f();
    (out, scope.total() - before)
}

#[test]
fn call_messages_equal_the_ledger_delta() {
    let mut calls = 0u64;
    let mut relayed = 0u64;
    let mut totals = asap_core::RecoveryStats::default();
    let mut hedged = 0u64;
    for world in [17, 18, 21, 23, 29] {
        let s = congested_scenario(world);
        let hosts = s.population.hosts().len() as u32;
        let clusters = s.population.clustering().cluster_count() as u32;
        let mut asns: Vec<u32> = s.population.hosts().iter().map(|h| h.asn.0).collect();
        asns.sort_unstable();
        asns.dedup();
        for capacity in [true, false] {
            let system = AsapSystem::bootstrap(&s, config(capacity));
            let scope = system.ledger_scope();
            let interval = HEARTBEAT_INTERVAL_MS;
            let mut rng = StdRng::seed_from_u64(world ^ (u64::from(capacity) << 8));
            for _ in 0..600 {
                let x = rng.next_u32();
                let host = HostId(x % hosts);
                let asn = asns[x as usize % asns.len()];
                match rng.next_u32() % 24 {
                    0..=13 => {
                        let callee = HostId((x / 7 + 1 + host.0) % hosts);
                        let (out, spent) = metered(scope, || system.call(host, callee));
                        assert_eq!(out.messages, spent, "world {world}: {host} -> {callee}");
                        calls += 1;
                        let (Some(selection), Some(chosen)) = (out.selection, out.chosen) else {
                            continue;
                        };
                        if chosen.relays.is_empty() {
                            continue;
                        }
                        relayed += 1;
                        let _ = system.acquire_relays(&chosen.relays);
                        let (path, spent) = metered(scope, || {
                            system.failover_path(host, callee, &selection, &chosen.relays)
                        });
                        assert_eq!(spent, 2, "a failover costs exactly its re-ping");
                        system.release_relays(&chosen.relays);
                        if x.is_multiple_of(3) {
                            if let Some(path) = path {
                                let _ = system.acquire_relays(&path.relays);
                            }
                        }
                    }
                    14 => {
                        let _ = system.join(host);
                    }
                    15 => {
                        system.silent_crash(host);
                    }
                    16 => {
                        system.crash_host(host);
                    }
                    17 => {
                        system.fail_surrogate(ClusterId(x % clusters));
                    }
                    18 => system.partition_as(asn),
                    19 => system.heal_as(asn),
                    20 => {
                        let drops =
                            (!x.is_multiple_of(3)).then(|| MessageDrops::new(0.6, u64::from(x)));
                        system.set_message_faults(drops);
                    }
                    21 => system.expire_close_set(ClusterId(x % clusters)),
                    _ => {
                        let _ = system.membership_tick(system.now_ms() + interval);
                    }
                }
            }
            assert_stats_match_ledger(&system);
            let stats = system.stats();
            totals.merge_from(&stats.recovery);
            hedged += stats.overload.hedged_fetches;
        }
    }
    // The walk reached every kind of recovery the identities cover.
    assert!(
        calls > 3000 && relayed > 100,
        "{calls} calls, {relayed} relayed"
    );
    assert!(totals.timeouts > 0 && totals.failovers > 0, "{totals:?}");
    assert!(
        totals.warm_handoffs > 0 && totals.re_elections > 0,
        "{totals:?}"
    );
    assert!(
        totals.suspected_dead > 0 && totals.probe_fallbacks > 0,
        "{totals:?}"
    );
    assert!(hedged > 0, "no fetch was hedged");
}

#[test]
fn simulated_recovery_messages_equal_the_ledger_counts() {
    let worlds = [17, 18, 21, 23].map(congested_scenario);
    let mut totals = asap_core::RecoveryStats::default();
    for seed in 0..12u64 {
        let sim = SimConfig {
            calls: 150,
            surrogate_failures: (seed % 3) as usize,
            duration_ms: 300_000,
            call_duration_ms: 120_000,
            last_call_ms: Some(240_000),
            final_recovery_check: true,
            faults: Some(FaultPlanConfig {
                seed,
                surrogate_crash_per_tick: 0.02,
                host_crash_per_tick: 0.02,
                congestion_per_tick: 0.01,
                drop_window_per_tick: 0.02,
                stale_close_set_per_tick: 0.01,
                partition_per_tick: 0.01,
                ..Default::default()
            }),
            caller_skew: if seed % 2 == 0 { 1.0 } else { 3.0 },
            seed,
            ..Default::default()
        };
        let telemetry = Telemetry::new();
        let world = &worlds[seed as usize % worlds.len()];
        let report = run_with(world, config(seed % 2 == 1), &sim, &telemetry, "ASAP");
        let scope = telemetry.ledger().scope("ASAP");
        let rec = report.recovery;
        assert_eq!(
            rec.recovery_messages,
            scope.count(MessageKind::Handoff)
                + scope.count(MessageKind::Election)
                + 2 * (rec.timeouts + rec.failovers),
            "fault seed {seed}: {rec:?}"
        );
        assert_eq!(rec.retries, rec.timeouts);
        assert_eq!(report.joined, scope.count(MessageKind::JoinRequest));
        totals.merge_from(&rec);
    }
    assert!(totals.timeouts > 0 && totals.failovers > 0, "{totals:?}");
    assert!(
        totals.warm_handoffs > 0 && totals.re_elections > 0,
        "{totals:?}"
    );
}
