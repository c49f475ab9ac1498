//! Deterministic parallel session engine.
//!
//! The simulation is sharded at the *run* level, not the event level:
//! each shard is a fully independent simulation with its own
//! [`AsapSystem`](crate::AsapSystem), its own seeded RNG stream, and its
//! own private [`Telemetry`] context. Shards run concurrently on scoped
//! `std` threads ([`ordered_map`]), their results are collected in shard
//! order, and the merge happens in shard-index order on a single thread.
//! Because the shard decomposition depends only on `(seed, shards)` —
//! never on the thread count — and every merge operation
//! ([`SimReport::merge_from`], [`Telemetry::merge_from`]) is
//! associative and commutative, the merged output is byte-identical for
//! any number of worker threads.
//!
//! Shard RNG streams are domain-separated: shard `i` of a run with seed
//! `s` draws its seed from a ChaCha8 stream keyed by
//! `("ASAPSHRD", s, i)`, so neighbouring run seeds and neighbouring
//! shard indices produce uncorrelated workloads.

use asap_rng::ChaCha8Rng;
use asap_telemetry::Telemetry;
use asap_workload::Scenario;

use crate::config::AsapConfig;
use crate::events::{run_with, SimConfig, SimReport};

/// Derives the independent RNG seed for shard `shard` of a run seeded
/// with `seed`.
///
/// The derivation is a fixed-key ChaCha8 stream (tag `ASAPSHRD`), so it
/// is stable across platforms and releases; changing either input
/// changes the whole stream.
#[must_use]
pub fn shard_seed(seed: u64, shard: u64) -> u64 {
    let mut key = [0u8; 32];
    key[..8].copy_from_slice(b"ASAPSHRD");
    key[8..16].copy_from_slice(&seed.to_le_bytes());
    key[16..24].copy_from_slice(&shard.to_le_bytes());
    ChaCha8Rng::from_seed(key).next_u64()
}

/// Splits one [`SimConfig`] into `shards` independent shard configs.
///
/// Workload volume (`calls`, `surrogate_failures`) is split as evenly
/// as possible, with the remainder going to the lowest shard indices,
/// so the totals are preserved exactly. Each shard gets its own
/// [`shard_seed`]-derived seed (and fault-plan seed when a fault plan
/// is present); everything else is inherited verbatim.
///
/// The decomposition depends only on the config and `shards` — never
/// on thread count — which is what makes the parallel run
/// deterministic.
#[must_use]
pub fn shard_configs(sim: &SimConfig, shards: usize) -> Vec<SimConfig> {
    assert!(shards > 0, "cannot shard a run into zero shards");
    (0..shards)
        .map(|i| {
            let seed = shard_seed(sim.seed, i as u64);
            let mut cfg = sim.clone();
            cfg.seed = seed;
            cfg.calls = sim.calls / shards + usize::from(i < sim.calls % shards);
            cfg.surrogate_failures =
                sim.surrogate_failures / shards + usize::from(i < sim.surrogate_failures % shards);
            if let Some(faults) = &mut cfg.faults {
                // Give every shard its own fault stream, derived from the
                // shard seed so it is independent of the workload stream.
                faults.seed = shard_seed(seed, u64::MAX);
            }
            cfg
        })
        .collect()
}

/// The machine's available parallelism: the default worker count.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Maps `items` through `f` on up to `threads` scoped threads and
/// returns the results in input order.
///
/// The items are split into one contiguous chunk per thread; each chunk
/// is mapped on its own thread and the chunks are concatenated in order,
/// so the result equals `items.into_iter().map(f).collect()` at any
/// thread count. With one thread (or one item) nothing is spawned.
///
/// # Panics
///
/// Re-raises the panic of any chunk's `f`.
pub fn ordered_map<T: Send, R: Send>(
    items: Vec<T>,
    threads: usize,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let width = threads.min(items.len());
    if width <= 1 {
        return items.into_iter().map(f).collect();
    }
    let per = items.len().div_ceil(width);
    let mut rest = items.into_iter();
    let chunks: Vec<Vec<T>> = (0..width)
        .map(|_| rest.by_ref().take(per).collect())
        .collect();
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| scope.spawn(move || chunk.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// [`run_sharded_on`] with [`default_threads`] workers.
///
/// # Panics
///
/// Panics if the scenario population is empty (propagated from
/// [`run_with`]).
pub fn run_sharded(
    scenario: &Scenario,
    config: AsapConfig,
    sim: &SimConfig,
    shards: usize,
    telemetry: &Telemetry,
    scope_name: &str,
) -> SimReport {
    run_sharded_on(
        default_threads(),
        scenario,
        config,
        sim,
        shards,
        telemetry,
        scope_name,
    )
}

/// Runs the simulation split across `shards` independent shards on up
/// to `threads` worker threads, merging the per-shard reports and
/// telemetry into `telemetry` in shard order.
///
/// With `shards <= 1` this is exactly [`run_with`] — same RNG stream,
/// same telemetry, byte-identical output — so existing single-shard
/// callers can route through here unconditionally. With more shards the
/// per-seed output is still deterministic, but it is a *different*
/// (sharded) workload than the single-shard run of the same seed:
/// determinism holds across thread counts, not across shard counts.
///
/// # Panics
///
/// Panics if the scenario population is empty (propagated from
/// [`run_with`]).
pub fn run_sharded_on(
    threads: usize,
    scenario: &Scenario,
    config: AsapConfig,
    sim: &SimConfig,
    shards: usize,
    telemetry: &Telemetry,
    scope_name: &str,
) -> SimReport {
    if shards <= 1 {
        return run_with(scenario, config, sim, telemetry, scope_name);
    }
    // Each shard gets a private, sink-disabled Telemetry so concurrent
    // shards never interleave writes into the shared context. Results
    // come back in shard order, and the merge below runs on this thread
    // alone.
    let results = ordered_map(shard_configs(sim, shards), threads, |shard_sim| {
        let local = Telemetry::new();
        let report = run_with(scenario, config, &shard_sim, &local, scope_name);
        (report, local)
    });
    let mut merged = SimReport::default();
    for (report, local) in &results {
        merged.merge_from(report);
        telemetry.merge_from(local);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_workload::ScenarioConfig;

    fn scenario() -> Scenario {
        Scenario::build(ScenarioConfig::tiny(), 7)
    }

    fn sim() -> SimConfig {
        SimConfig {
            join_window_ms: 20_000,
            duration_ms: 120_000,
            calls: 30,
            surrogate_failures: 5,
            call_duration_ms: 30_000,
            seed: 42,
            ..SimConfig::default()
        }
    }

    /// Each shard bootstraps its own `AsapSystem` and is its only user:
    /// a system may move to a worker thread, but no two threads ever
    /// share one, so its state needs no locks.
    #[test]
    fn asap_system_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<crate::AsapSystem<'static>>();
    }

    #[test]
    fn shard_seeds_are_distinct_and_stable() {
        let a = shard_seed(42, 0);
        let b = shard_seed(42, 1);
        let c = shard_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Stable across calls (pure function of its inputs).
        assert_eq!(a, shard_seed(42, 0));
    }

    #[test]
    fn shard_configs_preserve_workload_totals() {
        let base = sim();
        for shards in 1..=7 {
            let cfgs = shard_configs(&base, shards);
            assert_eq!(cfgs.len(), shards);
            let calls: usize = cfgs.iter().map(|c| c.calls).sum();
            let fails: usize = cfgs.iter().map(|c| c.surrogate_failures).sum();
            assert_eq!(calls, base.calls);
            assert_eq!(fails, base.surrogate_failures);
            // Even split: no shard differs by more than one call.
            let min = cfgs.iter().map(|c| c.calls).min().unwrap();
            let max = cfgs.iter().map(|c| c.calls).max().unwrap();
            assert!(max - min <= 1);
            // Distinct seeds per shard.
            for (i, c) in cfgs.iter().enumerate() {
                assert_eq!(c.seed, shard_seed(base.seed, i as u64));
            }
        }
    }

    #[test]
    fn ordered_map_keeps_input_order_at_any_width() {
        let items: Vec<u32> = (0..23).collect();
        let want: Vec<u32> = items.iter().map(|x| x * x).collect();
        for threads in [0, 1, 2, 3, 4, 8, 64] {
            assert_eq!(ordered_map(items.clone(), threads, |x| x * x), want);
        }
        assert!(ordered_map(Vec::<u32>::new(), 4, |x| x).is_empty());
    }

    #[test]
    #[should_panic(expected = "shard 5 fails")]
    fn ordered_map_re_raises_a_chunk_panic() {
        ordered_map((0..8).collect(), 4, |x: u32| {
            assert!(x != 5, "shard 5 fails")
        });
    }

    #[test]
    fn single_shard_matches_plain_run() {
        let scenario = scenario();
        let config = AsapConfig::default();
        let base = sim();

        let t1 = Telemetry::new();
        let plain = run_with(&scenario, config, &base, &t1, "ASAP");
        let t2 = Telemetry::new();
        let sharded = run_sharded(&scenario, config, &base, 1, &t2, "ASAP");

        assert_eq!(plain, sharded);
        assert_eq!(t1.snapshot_json(), t2.snapshot_json());
    }

    #[test]
    fn sharded_run_is_thread_count_invariant() {
        let scenario = scenario();
        let config = AsapConfig::default();
        let base = sim();

        let run_at = |threads: usize| {
            let telemetry = Telemetry::new();
            let report = run_sharded_on(threads, &scenario, config, &base, 4, &telemetry, "ASAP");
            (report, telemetry.snapshot_json())
        };

        let (r1, snap1) = run_at(1);
        assert!(r1.calls_completed > 0, "shards must carry real workload");
        for threads in [2, 3, 4, 8] {
            let (r, snap) = run_at(threads);
            assert_eq!(r1, r, "report diverged at {threads} threads");
            assert_eq!(
                snap1, snap,
                "metrics snapshots must be byte-identical at {threads} threads"
            );
        }
    }

    /// `OverloadStats::merge_from` (sum, max for the two high-water
    /// marks) and `Registry::merge_from` (counters add, gauges take the
    /// max) fold the same per-shard meters, so after a sharded run every
    /// metered `report.overload` field equals its merged registry entry.
    /// It runs the overload-soak configuration with one relay slot per
    /// host and a service slot (1 s) shorter than the deadline (3 s), so
    /// the queue-depth gauge and the busy-relay counters move too.
    #[test]
    fn report_and_registry_merges_agree_on_overload() {
        let scenario = scenario();
        let mut config = AsapConfig {
            lat_t_ms: 150.0,
            ..AsapConfig::default()
        };
        config.capacity = asap_netsim::capacity::CapacityConfig {
            enabled: true,
            relay_slots_base: 1,
            relay_slots_per_capability: 0.0,
            surrogate_budget: 1,
            budget_window_ms: 1_000,
            queue_limit: 16,
            queue_deadline_ms: 3_000,
            hedge_delay_ms: 200,
        };
        let sim = SimConfig {
            join_window_ms: 60_000,
            duration_ms: 600_000,
            calls: 900,
            surrogate_failures: 0,
            call_duration_ms: 120_000,
            caller_skew: 4.0,
            last_call_ms: Some(480_000),
            seed: 7,
            ..SimConfig::default()
        };
        let telemetry = Telemetry::new();
        let report = run_sharded(&scenario, config, &sim, 3, &telemetry, "ASAP");
        let metrics = telemetry.snapshot().metrics;
        let merged = |name: &str| {
            let key = format!("ASAP.{name}");
            metrics
                .counters
                .get(&key)
                .copied()
                .unwrap_or_else(|| metrics.gauges[&key] as u64)
        };
        let o = report.overload;
        for (field, name) in [
            (o.offered_fetches, "admission.offered"),
            (o.admitted_fetches, "admission.admitted"),
            (o.queued_fetches, "admission.queued"),
            (o.shed_queue_full, "admission.shed_queue_full"),
            (o.shed_deadline, "admission.shed_deadline"),
            (o.max_queue_depth, "admission.max_queue_depth"),
            (o.hedged_fetches, "hedge.sent"),
            (o.hedge_wins, "hedge.wins"),
            (o.relay_busy_skips, "relay.busy_skips"),
            (o.relay_spillovers, "relay.spillovers"),
            (o.saturated_acquires, "relay.saturated_acquires"),
            (o.surrogate_requests, "surrogate.requests"),
            (o.hot_surrogate_load, "surrogate.hot_load"),
        ] {
            assert_eq!(field, merged(name), "{name}");
        }
        assert!(o.offered_fetches > 0, "no shard fetched a close set");
    }

    #[test]
    fn merge_order_is_shard_order_not_completion_order() {
        // Run the same sharded workload twice; byte-identical output
        // means the merge cannot depend on anything nondeterministic.
        let scenario = scenario();
        let config = AsapConfig::default();
        let base = sim();
        let go = || {
            let telemetry = Telemetry::new();
            let report = run_sharded(&scenario, config, &base, 3, &telemetry, "ASAP");
            (report, telemetry.snapshot_json())
        };
        assert_eq!(go(), go());
    }
}
