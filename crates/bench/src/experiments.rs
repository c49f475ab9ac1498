//! Reusable experiment drivers shared by the robustness binaries.
//!
//! The `fault_recovery` and `chaos_soak` binaries and the determinism
//! regression test all need the *same* simulation schedule, so the
//! schedule lives here once: a caller hands in a scenario, a seed, and a
//! size, and gets back serializable rows. Two calls with equal inputs
//! must produce byte-identical JSON — that property is what the
//! determinism test pins down.

use asap_core::events::{run_with, SimConfig, SimReport};
use asap_core::parallel::run_sharded_on;
use asap_core::AsapConfig;
use asap_netsim::capacity::CapacityConfig;
use asap_netsim::faults::FaultPlanConfig;
use asap_telemetry::{json_row, Telemetry, ToJson};
use asap_workload::Scenario;

json_row! {
    /// One sweep point of the crash-rate experiment.
    #[derive(Debug, Clone)]
    pub struct FaultRecoveryRow {
        /// Constant `"fault_recovery"` so mixed JSON streams stay greppable.
        pub experiment: String,
        /// Master seed of the run.
        pub seed: u64,
        /// Per-tick surrogate/host crash probability at this sweep point.
        pub crash_rate_per_tick: f64,
        /// Calls scheduled.
        pub calls: u64,
        /// Calls that completed (direct or relayed).
        pub calls_completed: u64,
        /// Calls with no route at all.
        pub calls_without_path: u64,
        /// Active calls torn down with no replacement path.
        pub calls_dropped: u64,
        /// Mid-call relay failovers that found a replacement path.
        pub midcall_failovers: u64,
        /// Completed calls not dropped mid-call, over all completed calls
        /// (direct ones included): the headline robustness number.
        pub survival: f64,
        /// Warm standby promotions (quorum held; no cold re-election).
        pub warm_handoffs: u64,
        /// Cold re-elections (quorum lost or no usable standby).
        pub re_elections: u64,
        /// Replica members demoted by the suspicion detector.
        pub suspected_dead: u64,
        /// Calls served below the full protocol.
        pub degraded_calls: u64,
        /// Request timeouts observed.
        pub timeouts: u64,
        /// Request retries performed.
        pub retries: u64,
        /// Cached close sets purged by epoch bumps.
        pub cache_invalidations: u64,
        /// Extra control messages spent on recovery.
        pub recovery_messages: u64,
        /// Virtual ms spent waiting out retry backoff.
        pub stabilization_ticks: u64,
    }
}

/// The crash rates swept by the fault-recovery experiment.
pub const FAULT_RECOVERY_RATES: [f64; 5] = [0.0, 0.002, 0.005, 0.01, 0.02];

/// Runs the crash-rate sweep and returns one row per rate, recording
/// into `telemetry`: each sweep point gets its own `ASAP@crash=RATE`
/// ledger scope so the per-kind overhead of the rates stays separable in
/// snapshots.
///
/// Deterministic: equal `(scenario, seed, calls)` inputs produce equal
/// rows, and [`json_lines`] of equal rows is byte-identical.
pub fn fault_recovery_sweep_with(
    scenario: &Scenario,
    seed: u64,
    calls: usize,
    telemetry: &Telemetry,
) -> Vec<FaultRecoveryRow> {
    FAULT_RECOVERY_RATES
        .iter()
        .map(|&rate| {
            let sim = SimConfig {
                calls,
                surrogate_failures: 0,
                faults: Some(FaultPlanConfig {
                    seed,
                    surrogate_crash_per_tick: rate,
                    host_crash_per_tick: rate,
                    congestion_per_tick: 0.002,
                    drop_window_per_tick: 0.002,
                    stale_close_set_per_tick: 0.002,
                    ..Default::default()
                }),
                seed,
                ..Default::default()
            };
            let report = run_with(
                scenario,
                AsapConfig::default(),
                &sim,
                telemetry,
                &format!("ASAP@crash={rate:.3}"),
            );
            let survival = if report.calls_completed > 0 {
                (report.calls_completed - report.calls_dropped) as f64
                    / report.calls_completed as f64
            } else {
                1.0
            };
            FaultRecoveryRow {
                experiment: "fault_recovery".to_owned(),
                seed,
                crash_rate_per_tick: rate,
                calls: calls as u64,
                calls_completed: report.calls_completed,
                calls_without_path: report.calls_without_path,
                calls_dropped: report.calls_dropped,
                midcall_failovers: report.midcall_failovers,
                survival,
                warm_handoffs: report.recovery.warm_handoffs,
                re_elections: report.recovery.re_elections,
                suspected_dead: report.recovery.suspected_dead,
                degraded_calls: report.degraded_calls,
                timeouts: report.recovery.timeouts,
                retries: report.recovery.retries,
                cache_invalidations: report.recovery.cache_invalidations,
                recovery_messages: report.recovery.recovery_messages,
                stabilization_ticks: report.recovery.stabilization_ticks,
            }
        })
        .collect()
}

json_row! {
    /// Summary of one chaos-soak run: churn + AS partitions under a
    /// bounded-call schedule, with the four robustness invariants counted.
    #[derive(Debug, Clone)]
    pub struct ChaosSoakReport {
        /// Constant `"chaos_soak"`.
        pub experiment: String,
        /// Master seed of the run.
        pub seed: u64,
        /// Sessions scheduled.
        pub sessions: u64,
        /// Calls that completed (direct or relayed).
        pub calls_completed: u64,
        /// Calls with no route at all.
        pub calls_without_path: u64,
        /// Active calls torn down with no replacement path.
        pub calls_dropped: u64,
        /// Mid-call relay failovers that found a replacement path.
        pub midcall_failovers: u64,
        /// AS partitions applied.
        pub partitions: u64,
        /// Active calls torn down because an endpoint AS was partitioned.
        pub partition_dropped_calls: u64,
        /// Calls served below the full protocol.
        pub degraded_calls: u64,
        /// Stale-close-set rung servings.
        pub stale_sets_served: u64,
        /// Calls that fell to MIX-style random probing.
        pub probe_fallbacks: u64,
        /// Calls forced onto the bare direct path.
        pub forced_direct: u64,
        /// Warm standby promotions.
        pub warm_handoffs: u64,
        /// Cold re-elections.
        pub re_elections: u64,
        /// Replica members demoted by the suspicion detector.
        pub suspected_dead: u64,
        /// Ladder downgrades across all clusters.
        pub downgrades: u64,
        /// Ladder recoveries back to the full protocol.
        pub ladder_recoveries: u64,
        /// INVARIANT — calls routed through a suspected-dead relay. Must be 0.
        pub dead_relay_calls: u64,
        /// INVARIANT — degraded calls with no active fault to excuse them.
        /// Must be 0.
        pub unexcused_degraded_calls: u64,
        /// INVARIANT — sessions still active at the end of the run. Must be 0.
        pub unterminated_calls: u64,
        /// INVARIANT — clusters stuck without a usable control plane after
        /// all faults healed. Must be 0.
        pub stuck_clusters: u64,
    }
}

impl ChaosSoakReport {
    /// Total invariant violations (0 = the run is clean).
    pub fn violations(&self) -> u64 {
        self.dead_relay_calls
            + self.unexcused_degraded_calls
            + self.unterminated_calls
            + self.stuck_clusters
    }

    fn from_report(seed: u64, sessions: usize, report: &SimReport) -> ChaosSoakReport {
        ChaosSoakReport {
            experiment: "chaos_soak".to_owned(),
            seed,
            sessions: sessions as u64,
            calls_completed: report.calls_completed,
            calls_without_path: report.calls_without_path,
            calls_dropped: report.calls_dropped,
            midcall_failovers: report.midcall_failovers,
            partitions: report.partitions,
            partition_dropped_calls: report.partition_dropped_calls,
            degraded_calls: report.degraded_calls,
            stale_sets_served: report.recovery.stale_sets_served,
            probe_fallbacks: report.recovery.probe_fallbacks,
            forced_direct: report.recovery.forced_direct,
            warm_handoffs: report.recovery.warm_handoffs,
            re_elections: report.recovery.re_elections,
            suspected_dead: report.recovery.suspected_dead,
            downgrades: report.recovery.downgrades,
            ladder_recoveries: report.recovery.ladder_recoveries,
            dead_relay_calls: report.dead_relay_calls,
            unexcused_degraded_calls: report.unexcused_degraded_calls,
            unterminated_calls: report.unterminated_calls,
            stuck_clusters: report.stuck_clusters,
        }
    }
}

/// The churn + partition schedule the soak run drives.
///
/// Every knob is derived from `(seed, sessions)` alone so the run is
/// seed-reproducible: calls stop early enough for every session to
/// terminate inside the window, and the end of the run heals all faults
/// and checks that no cluster is left stuck degraded.
pub fn chaos_soak_sim(seed: u64, sessions: usize) -> SimConfig {
    let duration_ms = 1_800_000;
    let call_duration_ms = 120_000;
    SimConfig {
        join_window_ms: 60_000,
        duration_ms,
        calls: sessions,
        surrogate_failures: 0,
        call_duration_ms,
        faults: Some(FaultPlanConfig {
            seed,
            surrogate_crash_per_tick: 0.01,
            host_crash_per_tick: 0.01,
            congestion_per_tick: 0.002,
            drop_window_per_tick: 0.01,
            drop_prob: (0.6, 0.95),
            drop_window_ms: (10_000, 40_000),
            stale_close_set_per_tick: 0.002,
            partition_per_tick: 0.01,
        }),
        caller_skew: 1.0,
        last_call_ms: Some(duration_ms - call_duration_ms),
        final_recovery_check: true,
        seed,
    }
}

/// The protocol configuration the soak runs under.
///
/// `latT` is tightened from the paper's 300 ms to 150 ms: at bench
/// scale almost no session exceeds 300 ms direct RTT, so the paper's
/// threshold would let nearly every call take the fast direct path and
/// the selection machinery (close sets, the degradation ladder) would
/// sit idle. At 150 ms roughly a fifth of sessions go through relay
/// selection, which is what the soak is there to stress.
pub fn chaos_soak_config() -> AsapConfig {
    AsapConfig {
        lat_t_ms: 150.0,
        ..Default::default()
    }
}

/// Runs the chaos soak, recording into `telemetry` under the `ASAP`
/// ledger scope, and returns its summary. The run is split across
/// `shards` independent shards on up to `threads` threads via
/// [`run_sharded_on`]; the output is deterministic per `(seed, shards)`
/// regardless of how many worker threads execute it.
pub fn chaos_soak_sharded(
    scenario: &Scenario,
    seed: u64,
    sessions: usize,
    shards: usize,
    threads: usize,
    telemetry: &Telemetry,
) -> ChaosSoakReport {
    let sim = chaos_soak_sim(seed, sessions);
    let report = run_sharded_on(
        threads,
        scenario,
        chaos_soak_config(),
        &sim,
        shards,
        telemetry,
        "ASAP",
    );
    ChaosSoakReport::from_report(seed, sessions, &report)
}

json_row! {
    /// Summary of one overload-soak run: a skewed caller population hammers
    /// a small set of hot surrogates and relays, with the capacity model
    /// either bounding the load (admission control, shedding, hedging,
    /// relay-slot spillover) or — for the regression guard — switched off.
    #[derive(Debug, Clone)]
    pub struct OverloadSoakReport {
        /// Constant `"overload_soak"`.
        pub experiment: String,
        /// Master seed of the run.
        pub seed: u64,
        /// Whether the capacity model was enabled.
        pub capacity_enabled: bool,
        /// Sessions scheduled.
        pub sessions: u64,
        /// Calls that completed (direct or relayed).
        pub calls_completed: u64,
        /// Calls with no route at all.
        pub calls_without_path: u64,
        /// Calls whose close-set fetch was shed and that were served from a
        /// degraded rung instead.
        pub overload_shed_calls: u64,
        /// Fetches offered to admission control.
        pub offered_fetches: u64,
        /// Fetches admitted immediately.
        pub admitted_fetches: u64,
        /// Fetches admitted after queueing.
        pub queued_fetches: u64,
        /// Fetches shed (queue full + deadline).
        pub shed_fetches: u64,
        /// Deepest admission queue observed.
        pub max_queue_depth: u64,
        /// Hedge legs issued.
        pub hedged_fetches: u64,
        /// Hedge legs that answered first.
        pub hedge_wins: u64,
        /// Relay candidates skipped on the `Busy` verdict.
        pub relay_busy_skips: u64,
        /// Calls that spilled over to a later candidate.
        pub relay_spillovers: u64,
        /// Mid-call failovers triggered by relay saturation.
        pub saturation_failovers: u64,
        /// Relay-slot occupancy high-water mark.
        pub max_relay_slots_in_use: u32,
        /// Heaviest served-request load on a single surrogate.
        pub hot_surrogate_load: u64,
        /// INVARIANT — gap between sessions and the calls accounted for
        /// as completed or no-path, in either direction (every offered
        /// call must land exactly once). Must be 0.
        pub unaccounted_calls: u64,
        /// INVARIANT — gap between offered fetches and admitted + queued
        /// + shed ones, in either direction. Must be 0.
        pub unaccounted_fetches: u64,
        /// INVARIANT — queue-depth observations beyond the configured
        /// bound. Must be 0.
        pub queue_depth_violations: u64,
        /// INVARIANT — sessions still active at the end of the run. Must
        /// be 0.
        pub unterminated_calls: u64,
    }
}

impl OverloadSoakReport {
    /// Total invariant violations (0 = the run is clean).
    pub fn violations(&self) -> u64 {
        self.unaccounted_calls
            + self.unaccounted_fetches
            + self.queue_depth_violations
            + self.unterminated_calls
    }

    fn from_report(
        seed: u64,
        sessions: usize,
        config: &AsapConfig,
        report: &SimReport,
    ) -> OverloadSoakReport {
        let o = &report.overload;
        let accounted = report.calls_completed + report.calls_without_path;
        let admission_total = o.admitted_fetches + o.queued_fetches + o.shed_fetches();
        let bound = u64::from(config.capacity.queue_limit);
        OverloadSoakReport {
            experiment: "overload_soak".to_owned(),
            seed,
            capacity_enabled: config.capacity.enabled,
            sessions: sessions as u64,
            calls_completed: report.calls_completed,
            calls_without_path: report.calls_without_path,
            overload_shed_calls: report.overload_shed_calls,
            offered_fetches: o.offered_fetches,
            admitted_fetches: o.admitted_fetches,
            queued_fetches: o.queued_fetches,
            shed_fetches: o.shed_fetches(),
            max_queue_depth: o.max_queue_depth,
            hedged_fetches: o.hedged_fetches,
            hedge_wins: o.hedge_wins,
            relay_busy_skips: o.relay_busy_skips,
            relay_spillovers: o.relay_spillovers,
            saturation_failovers: report.saturation_failovers,
            max_relay_slots_in_use: report.max_relay_slots_in_use,
            hot_surrogate_load: o.hot_surrogate_load,
            unaccounted_calls: (sessions as u64).abs_diff(accounted),
            unaccounted_fetches: o.offered_fetches.abs_diff(admission_total),
            queue_depth_violations: o.max_queue_depth.saturating_sub(bound),
            unterminated_calls: report.unterminated_calls,
        }
    }
}

/// The skewed-caller schedule the overload soak drives.
///
/// No injected faults: the only stressor is load. A caller skew of 4
/// concentrates most sessions on a low-host-id prefix, so those hosts'
/// clusters see far more close-set fetches and relay traffic than the
/// capacity budget allows — exactly the hot-surrogate shape the
/// admission queue, shedding, hedging, and relay spillover exist for.
pub fn overload_soak_sim(seed: u64, sessions: usize) -> SimConfig {
    let duration_ms = 1_800_000;
    let call_duration_ms = 120_000;
    SimConfig {
        join_window_ms: 60_000,
        duration_ms,
        calls: sessions,
        surrogate_failures: 0,
        call_duration_ms,
        faults: None,
        caller_skew: 4.0,
        last_call_ms: Some(duration_ms - call_duration_ms),
        final_recovery_check: true,
        seed,
    }
}

/// The protocol configuration the overload soak runs under.
///
/// `latT` is tightened to 150 ms for the same reason as
/// [`chaos_soak_config`], and the capacity knobs are squeezed far below
/// their defaults (one request per surrogate per 2 s window, a queue of
/// 16 with a 1.5 s deadline, one relay slot plus two per unit
/// capability) so bench-scale load actually saturates them: the hot
/// surrogates must queue, shed past the deadline, and push callers onto
/// hedges and the degraded rungs. `enabled: false` is the regression
/// guard: the same squeeze with no enforcement must reproduce the
/// unbounded hot-surrogate behavior.
pub fn overload_soak_config(enabled: bool) -> AsapConfig {
    let mut config = AsapConfig {
        lat_t_ms: 150.0,
        ..Default::default()
    };
    config.capacity = CapacityConfig {
        enabled,
        relay_slots_base: 1,
        relay_slots_per_capability: 2.0,
        surrogate_budget: 1,
        budget_window_ms: 2_000,
        queue_limit: 16,
        queue_deadline_ms: 1_500,
        hedge_delay_ms: 200,
    };
    config
}

/// Runs the overload soak, recording into `telemetry`, and returns its
/// summary. Enabled and disabled runs get distinct ledger scopes so one
/// snapshot can hold both sides of the regression guard. The run is
/// split across `shards` independent shards on up to `threads` threads
/// via [`run_sharded_on`].
pub fn overload_soak_sharded(
    scenario: &Scenario,
    seed: u64,
    sessions: usize,
    enabled: bool,
    shards: usize,
    threads: usize,
    telemetry: &Telemetry,
) -> OverloadSoakReport {
    let sim = overload_soak_sim(seed, sessions);
    let config = overload_soak_config(enabled);
    let scope = if enabled { "ASAP" } else { "ASAP@nocap" };
    let report = run_sharded_on(threads, scenario, config, &sim, shards, telemetry, scope);
    OverloadSoakReport::from_report(seed, sessions, &config, &report)
}

/// The combined overload + crash + partition phase of the chaos soak:
/// the full churn/partition schedule of [`chaos_soak_sim`] with the
/// caller skew and squeezed capacity of the overload soak on top. The
/// point is that saturation pressure must not erode the fault
/// invariants — in particular `dead_relay_calls == 0` (a busy relay is
/// never an excuse to route through a dead one). The run is split
/// across `shards` independent shards on up to `threads` threads via
/// [`run_sharded_on`].
pub fn chaos_overload_phase_sharded(
    scenario: &Scenario,
    seed: u64,
    sessions: usize,
    shards: usize,
    threads: usize,
    telemetry: &Telemetry,
) -> ChaosSoakReport {
    let sim = SimConfig {
        caller_skew: 4.0,
        ..chaos_soak_sim(seed, sessions)
    };
    let config = AsapConfig {
        capacity: overload_soak_config(true).capacity,
        ..chaos_soak_config()
    };
    let report = run_sharded_on(
        threads,
        scenario,
        config,
        &sim,
        shards,
        telemetry,
        "ASAP@overload",
    );
    let mut summary = ChaosSoakReport::from_report(seed, sessions, &report);
    summary.experiment = "chaos_soak_overload".to_owned();
    summary
}

/// Serializes rows as newline-delimited JSON, one object per line.
pub fn json_lines<T: ToJson>(rows: &[T]) -> String {
    let mut out = String::new();
    for r in rows {
        out.push_str(&r.to_json().to_text());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_core::OverloadStats;

    #[test]
    fn overload_invariants_flag_over_counts_too() {
        let config = overload_soak_config(true);
        let clean = SimReport {
            calls_completed: 7,
            calls_without_path: 3,
            overload: OverloadStats {
                offered_fetches: 9,
                admitted_fetches: 4,
                queued_fetches: 2,
                shed_queue_full: 2,
                shed_deadline: 1,
                ..OverloadStats::default()
            },
            ..SimReport::default()
        };
        assert_eq!(
            OverloadSoakReport::from_report(1, 10, &config, &clean).violations(),
            0
        );

        // One call and one fetch tallied twice.
        let mut over = clean.clone();
        over.calls_completed += 1;
        over.overload.admitted_fetches += 1;
        let report = OverloadSoakReport::from_report(1, 10, &config, &over);
        assert_eq!(report.unaccounted_calls, 1);
        assert_eq!(report.unaccounted_fetches, 1);
        assert_eq!(report.violations(), 2);
    }
}
