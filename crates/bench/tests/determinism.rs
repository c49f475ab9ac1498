//! Determinism regression tests for the robustness experiments.
//!
//! The fault-injection layer, the membership machinery, and the event
//! simulation all promise bit-for-bit reproducibility from a seed. These
//! tests pin the promise at the experiment boundary: running the same
//! experiment twice with the same seed must yield *byte-identical* JSON,
//! the exact artifact a reader would diff between runs.

use asap_bench::experiments::{
    chaos_overload_phase_sharded, chaos_soak_sharded, fault_recovery_sweep_with, json_lines,
    overload_soak_sharded,
};
use asap_bench::Scale;
use asap_telemetry::Telemetry;
use asap_workload::Scenario;

fn tiny_scenario(seed: u64) -> Scenario {
    let mut config = Scale::Tiny.scenario_config();
    // Shrink the world so two full sweeps stay fast in CI.
    config.population.target_hosts = 600;
    Scenario::build(config, seed)
}

#[test]
fn fault_recovery_json_is_byte_identical_across_runs() {
    let scenario = tiny_scenario(5);
    let sweep = |seed| fault_recovery_sweep_with(&scenario, seed, 120, &Telemetry::new());
    let a = json_lines(&sweep(5));
    let b = json_lines(&sweep(5));
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must reproduce the same JSON bytes");
}

#[test]
fn chaos_soak_json_is_byte_identical_across_runs() {
    let scenario = tiny_scenario(9);
    let soak = || chaos_soak_sharded(&scenario, 9, 400, 1, 1, &Telemetry::new());
    let a = json_lines(std::slice::from_ref(&soak()));
    let b = json_lines(std::slice::from_ref(&soak()));
    assert_eq!(a, b, "same seed must reproduce the same JSON bytes");
}

#[test]
fn telemetry_snapshot_is_byte_identical_across_runs() {
    // The whole telemetry pipeline — ledger scopes and their per-kind
    // counts, histograms, span durations — must serialize to the
    // same bytes when the same seed drives the same schedule.
    let scenario = tiny_scenario(5);
    let snap = |_: ()| {
        let telemetry = Telemetry::new();
        fault_recovery_sweep_with(&scenario, 5, 120, &telemetry);
        telemetry.snapshot_json()
    };
    let a = snap(());
    let b = snap(());
    assert!(
        a.contains("ASAP@crash=0.010"),
        "snapshot names the sweep scopes: {a}"
    );
    assert_eq!(a, b, "same seed must reproduce the same snapshot bytes");
}

#[test]
fn chaos_soak_telemetry_snapshot_is_byte_identical_across_runs() {
    let scenario = tiny_scenario(9);
    let snap = |_: ()| {
        let telemetry = Telemetry::new();
        chaos_soak_sharded(&scenario, 9, 400, 1, 1, &telemetry);
        telemetry.snapshot_json()
    };
    let a = snap(());
    let b = snap(());
    assert!(
        a.contains("call.rtt_ms"),
        "snapshot carries the call-RTT histogram: {a}"
    );
    assert_eq!(a, b, "same seed must reproduce the same snapshot bytes");
}

#[test]
fn overload_soak_json_is_byte_identical_across_runs() {
    let scenario = tiny_scenario(7);
    let run = |_: ()| {
        json_lines(&[
            overload_soak_sharded(&scenario, 7, 400, true, 1, 1, &Telemetry::new()),
            overload_soak_sharded(&scenario, 7, 400, false, 1, 1, &Telemetry::new()),
        ])
    };
    let a = run(());
    let b = run(());
    assert!(a.contains("\"capacity_enabled\":true"));
    assert_eq!(a, b, "same seed must reproduce the same JSON bytes");
}

#[test]
fn overload_soak_accounts_for_everything() {
    let scenario = tiny_scenario(7);
    let bounded = overload_soak_sharded(&scenario, 7, 400, true, 1, 1, &Telemetry::new());
    let unbounded = overload_soak_sharded(&scenario, 7, 400, false, 1, 1, &Telemetry::new());
    assert_eq!(bounded.violations(), 0, "bounded run: {bounded:?}");
    assert_eq!(unbounded.violations(), 0, "unbounded run: {unbounded:?}");
    // The regression guard's shape: no enforcement ⇒ nothing queued,
    // shed, or hedged, and the hot surrogate at least as loaded.
    assert_eq!(unbounded.queued_fetches, 0);
    assert_eq!(unbounded.shed_fetches, 0);
    assert_eq!(unbounded.hedged_fetches, 0);
    assert!(unbounded.hot_surrogate_load >= bounded.hot_surrogate_load);
}

#[test]
fn overload_soak_telemetry_snapshot_is_byte_identical_across_runs() {
    let scenario = tiny_scenario(7);
    let snap = |_: ()| {
        let telemetry = Telemetry::new();
        overload_soak_sharded(&scenario, 7, 400, true, 1, 1, &telemetry);
        telemetry.snapshot_json()
    };
    let a = snap(());
    let b = snap(());
    assert!(
        a.contains("admission.offered"),
        "snapshot carries the admission meters: {a}"
    );
    assert_eq!(a, b, "same seed must reproduce the same snapshot bytes");
}

#[test]
fn chaos_overload_phase_holds_the_dead_relay_invariant() {
    let scenario = tiny_scenario(9);
    let telemetry = Telemetry::new();
    let a = chaos_overload_phase_sharded(&scenario, 9, 400, 1, 1, &telemetry);
    let b = chaos_overload_phase_sharded(&scenario, 9, 400, 1, 1, &Telemetry::new());
    assert_eq!(
        a.dead_relay_calls, 0,
        "saturation must never route a call through a dead relay"
    );
    assert_eq!(a.violations(), 0, "overload phase: {a:?}");
    assert_eq!(
        json_lines(std::slice::from_ref(&a)),
        json_lines(std::slice::from_ref(&b))
    );
}

#[test]
fn sharded_soak_hits_the_close_set_and_route_caches() {
    // The caches must be in the soak's hot path, not just present: the
    // full tiny world at seed 7, 1,000 sessions on 4 shards.
    let scenario = Scenario::build(Scale::Tiny.scenario_config(), 7);
    let telemetry = Telemetry::new();
    chaos_soak_sharded(&scenario, 7, 1_000, 4, 1, &telemetry);
    let close_set_hits = telemetry
        .registry()
        .counter("ASAP.cache.close_set.hits")
        .get();
    assert!(close_set_hits > 0, "close-set cache registered no hits");
    let (route_hits, route_misses) = scenario.net.route_cache_stats();
    assert!(
        route_hits > 0,
        "route cache registered no hits ({route_hits}/{route_misses})"
    );
}

#[test]
fn different_seeds_change_the_schedule() {
    let scenario = tiny_scenario(5);
    let sweep = |seed| fault_recovery_sweep_with(&scenario, seed, 120, &Telemetry::new());
    let a = json_lines(&sweep(5));
    let b = json_lines(&sweep(6));
    assert_ne!(a, b, "the seed must actually drive the schedule");
}
