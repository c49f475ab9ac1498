//! Deterministic fault injection for protocol robustness experiments.
//!
//! The paper's evaluation assumes a cooperative world: surrogates stay
//! up, close-set requests are answered, and AS conditions only change
//! through the latency model's own episodes. Real peer-relay deployments
//! see all of those assumptions break, so this module provides the
//! machinery to break them *on purpose and reproducibly*:
//!
//! * [`FaultPlan`] — a seed-reproducible schedule of surrogate crashes,
//!   relay host departures, transient AS congestion bursts, message-drop
//!   windows, and stale close-cluster-set epochs, generated per simulated
//!   tick from a ChaCha stream (same seed ⇒ byte-identical plan).
//! * [`MessageDrops`] — a stateless per-message drop decider (hash-based,
//!   so concurrent queries and replays agree).
//! * [`backoff_ms`] — per-request timeout ([`RETRY_TIMEOUT_MS`], at most
//!   [`MAX_RETRIES`] retries) with bounded exponential backoff and
//!   deterministic jitter, the recovery side of the contract.
//!
//! Everything here is pure data and hashing — the *interpretation* of a
//! fault (who re-elects, which call fails over) belongs to the protocol
//! layer consuming the plan.

use std::ops::{Range, RangeInclusive};

use asap_rng::ChaCha8Rng;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The primary surrogate of this cluster crashes (goes offline).
    SurrogateCrash {
        /// Cluster whose primary surrogate dies (`ClusterId.0`).
        cluster: u32,
    },
    /// An arbitrary host departs ungracefully — if it is mid-call as a
    /// relay, the call must fail over.
    HostCrash {
        /// The departing host (`HostId.0`).
        host: u32,
    },
    /// A transient congestion burst inside one AS: every path crossing it
    /// suffers the added RTT and loss until the burst clears.
    AsCongestion {
        /// The congested AS number.
        asn: u32,
        /// Added round-trip time while the burst lasts, ms.
        added_rtt_ms: f64,
        /// Added loss probability while the burst lasts.
        added_loss: f64,
        /// Burst duration, ms.
        duration_ms: u64,
    },
    /// A window during which control messages are dropped with the given
    /// probability (requests time out and must be retried).
    MessageDropWindow {
        /// Per-message drop probability in [0, 1).
        drop_prob: f64,
        /// Window duration, ms.
        duration_ms: u64,
    },
    /// The cluster's close-cluster-set epoch is forced stale (as if its
    /// surrogate set rotated): cached sets referencing it must rebuild.
    StaleCloseSet {
        /// Cluster whose epoch is bumped (`ClusterId.0`).
        cluster: u32,
    },
    /// One AS is partitioned from the rest of the network: hosts inside
    /// it stop heartbeating and answering control requests until the
    /// partition heals. Unlike a crash, the hosts come back intact.
    AsPartition {
        /// The partitioned AS number.
        asn: u32,
        /// Partition duration, ms.
        duration_ms: u64,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires, in simulated milliseconds.
    pub at_ms: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// Scheduling granularity of [`FaultPlan::generate`], ms: one Bernoulli
/// draw per fault category per tick.
pub const FAULT_TICK_MS: u64 = 1_000;

/// Added RTT range of a congestion burst, ms.
pub const CONGESTION_RTT_MS: RangeInclusive<f64> = 80.0..=400.0;

/// Added loss range of a congestion burst.
pub const CONGESTION_LOSS: RangeInclusive<f64> = 0.05..=0.30;

/// Duration range of a congestion burst, ms.
pub const CONGESTION_DURATION_MS: RangeInclusive<u64> = 10_000..=60_000;

/// Duration range of an AS partition, ms.
pub const PARTITION_MS: RangeInclusive<u64> = 20_000..=90_000;

/// Per-tick fault probabilities and message-drop shapes for
/// [`FaultPlan::generate`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlanConfig {
    /// Seed of the ChaCha stream driving the schedule.
    pub seed: u64,
    /// Per-tick probability of a surrogate crash (uniform random
    /// cluster).
    pub surrogate_crash_per_tick: f64,
    /// Per-tick probability of an arbitrary host departure.
    pub host_crash_per_tick: f64,
    /// Per-tick probability of an AS congestion burst starting.
    pub congestion_per_tick: f64,
    /// Per-tick probability of a message-drop window starting.
    pub drop_window_per_tick: f64,
    /// Drop-probability range of a message-drop window.
    pub drop_prob: (f64, f64),
    /// Duration range of a message-drop window, ms.
    pub drop_window_ms: (u64, u64),
    /// Per-tick probability of a forced-stale close-set epoch.
    pub stale_close_set_per_tick: f64,
    /// Per-tick probability of an AS partition starting.
    pub partition_per_tick: f64,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig {
            seed: 0,
            surrogate_crash_per_tick: 0.0,
            host_crash_per_tick: 0.0,
            congestion_per_tick: 0.0,
            drop_window_per_tick: 0.0,
            drop_prob: (0.2, 0.8),
            drop_window_ms: (5_000, 20_000),
            stale_close_set_per_tick: 0.0,
            partition_per_tick: 0.0,
        }
    }
}

/// A deterministic, time-sorted schedule of fault events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Generates the schedule for a world of `clusters` clusters,
    /// `hosts` hosts, and the given AS number pool, with faults firing
    /// on the ticks ([`FAULT_TICK_MS`] apart) from `window.start` up to
    /// `window.end` (exclusive). Same config, window and world ⇒
    /// identical plan, on every run and platform; moving only
    /// `window.end` earlier drops the events at or after it and keeps
    /// the rest.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside [0, 1).
    pub fn generate(
        config: &FaultPlanConfig,
        window: Range<u64>,
        clusters: u32,
        hosts: u32,
        asns: &[u32],
    ) -> FaultPlan {
        for p in [
            config.surrogate_crash_per_tick,
            config.host_crash_per_tick,
            config.congestion_per_tick,
            config.drop_window_per_tick,
            config.stale_close_set_per_tick,
            config.partition_per_tick,
        ] {
            assert!(
                (0.0..1.0).contains(&p),
                "fault probability {p} not in [0, 1)"
            );
        }
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0xFA01_7135);
        let mut events = Vec::new();
        let mut at = window.start;
        while at < window.end {
            if clusters > 0 && rng.gen_bool(config.surrogate_crash_per_tick) {
                events.push(FaultEvent {
                    at_ms: at,
                    kind: FaultKind::SurrogateCrash {
                        cluster: rng.gen_range(0..clusters),
                    },
                });
            }
            if hosts > 0 && rng.gen_bool(config.host_crash_per_tick) {
                events.push(FaultEvent {
                    at_ms: at,
                    kind: FaultKind::HostCrash {
                        host: rng.gen_range(0..hosts),
                    },
                });
            }
            if !asns.is_empty() && rng.gen_bool(config.congestion_per_tick) {
                events.push(FaultEvent {
                    at_ms: at,
                    kind: FaultKind::AsCongestion {
                        asn: asns[rng.gen_range(0..asns.len())],
                        added_rtt_ms: rng.gen_range(CONGESTION_RTT_MS),
                        added_loss: rng.gen_range(CONGESTION_LOSS),
                        duration_ms: rng.gen_range(CONGESTION_DURATION_MS),
                    },
                });
            }
            if rng.gen_bool(config.drop_window_per_tick) {
                events.push(FaultEvent {
                    at_ms: at,
                    kind: FaultKind::MessageDropWindow {
                        drop_prob: rng.gen_range(config.drop_prob.0..=config.drop_prob.1),
                        duration_ms: rng
                            .gen_range(config.drop_window_ms.0..=config.drop_window_ms.1),
                    },
                });
            }
            if clusters > 0 && rng.gen_bool(config.stale_close_set_per_tick) {
                events.push(FaultEvent {
                    at_ms: at,
                    kind: FaultKind::StaleCloseSet {
                        cluster: rng.gen_range(0..clusters),
                    },
                });
            }
            if !asns.is_empty() && rng.gen_bool(config.partition_per_tick) {
                events.push(FaultEvent {
                    at_ms: at,
                    kind: FaultKind::AsPartition {
                        asn: asns[rng.gen_range(0..asns.len())],
                        duration_ms: rng.gen_range(PARTITION_MS),
                    },
                });
            }
            at += FAULT_TICK_MS;
        }
        FaultPlan { events }
    }

    /// The scheduled events, sorted by firing time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Stateless deterministic message-drop decider: whether a message drops
/// depends only on (seed, message key), never on query order, so
/// replays and concurrent queries agree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MessageDrops {
    /// Per-message drop probability in [0, 1).
    pub drop_prob: f64,
    seed: u64,
}

impl MessageDrops {
    /// A decider dropping each message with probability `drop_prob`.
    ///
    /// # Panics
    ///
    /// Panics if `drop_prob` is outside [0, 1).
    pub fn new(drop_prob: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&drop_prob),
            "drop probability {drop_prob} not in [0, 1)"
        );
        MessageDrops { drop_prob, seed }
    }

    /// Whether the message identified by `key` is dropped.
    pub fn drops(&self, key: u64) -> bool {
        unit(mix(self.seed, key)) < self.drop_prob
    }
}

/// Base timeout of a control request (a close-set fetch), ms.
pub const RETRY_TIMEOUT_MS: u64 = 400;

/// Retries after the first attempt (total attempts = `MAX_RETRIES + 1`).
pub const MAX_RETRIES: u32 = 4;

/// Backoff multiplier per retry.
pub const BACKOFF: f64 = 2.0;

/// Upper bound on any single backoff wait before jitter, ms.
pub const MAX_BACKOFF_MS: u64 = 5_000;

/// Jitter fraction: each wait is scaled by a factor in
/// `[1 - JITTER, 1 + JITTER)`.
pub const JITTER: f64 = 0.1;

/// The wait before retrying after failed attempt `attempt` (0-based).
///
/// Attempt `n` waits `RETRY_TIMEOUT_MS * BACKOFF^n`, capped at
/// [`MAX_BACKOFF_MS`], then ±[`JITTER`] of itself — the jitter drawn by
/// hashing `(salt, n)`, so the same request retries on the same schedule
/// in every replay while distinct requests still decorrelate.
pub fn backoff_ms(attempt: u32, salt: u64) -> u64 {
    let base = (RETRY_TIMEOUT_MS as f64) * BACKOFF.powi(attempt.min(30) as i32);
    let capped = base.min(MAX_BACKOFF_MS as f64);
    let sway = 2.0 * unit(mix(salt, 0x6A77 ^ u64::from(attempt))) - 1.0;
    let jittered = capped * (1.0 + JITTER * sway);
    jittered.max(1.0) as u64
}

/// SplitMix64-style avalanche of two words (same family as the latency
/// model's hashing, kept local so fault decisions never perturb it).
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b)
        .wrapping_add(0x632B_E593_02D8_B849);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to [0, 1).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The window the crashy plans fire in.
    const WINDOW: Range<u64> = 0..120_000;

    fn crashy() -> FaultPlanConfig {
        FaultPlanConfig {
            seed: 7,
            surrogate_crash_per_tick: 0.05,
            host_crash_per_tick: 0.05,
            congestion_per_tick: 0.02,
            drop_window_per_tick: 0.02,
            stale_close_set_per_tick: 0.02,
            partition_per_tick: 0.02,
            ..Default::default()
        }
    }

    #[test]
    fn plan_is_seed_reproducible() {
        let config = crashy();
        let a = FaultPlan::generate(&config, WINDOW, 40, 1_000, &[1, 2, 3]);
        let b = FaultPlan::generate(&config, WINDOW, 40, 1_000, &[1, 2, 3]);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "a crashy config must schedule something");
        let other = FaultPlan::generate(
            &FaultPlanConfig { seed: 8, ..config },
            WINDOW,
            40,
            1_000,
            &[1, 2, 3],
        );
        assert_ne!(a, other, "different seeds must give different plans");
    }

    #[test]
    fn plan_is_sorted_and_in_window() {
        let plan = FaultPlan::generate(&crashy(), WINDOW, 40, 1_000, &[1, 2, 3]);
        let mut last = 0;
        for e in plan.events() {
            assert!(e.at_ms >= last, "events out of order");
            assert!(e.at_ms < 120_000);
            last = e.at_ms;
        }
    }

    #[test]
    fn an_earlier_window_end_keeps_the_events_before_it() {
        let full = FaultPlan::generate(&crashy(), WINDOW, 40, 1_000, &[1, 2, 3]);
        let cut = FaultPlan::generate(&crashy(), 0..60_000, 40, 1_000, &[1, 2, 3]);
        let before: Vec<FaultEvent> = full
            .events()
            .iter()
            .copied()
            .filter(|e| e.at_ms < 60_000)
            .collect();
        assert!(!before.is_empty() && before.len() < full.len());
        assert_eq!(cut.events(), before.as_slice());
    }

    #[test]
    fn zero_rates_schedule_nothing() {
        let plan = FaultPlan::generate(&FaultPlanConfig::default(), WINDOW, 40, 1_000, &[1]);
        assert!(plan.is_empty());
    }

    #[test]
    fn plan_targets_stay_in_range() {
        let plan = FaultPlan::generate(&crashy(), WINDOW, 5, 30, &[42, 43]);
        for e in plan.events() {
            match e.kind {
                FaultKind::SurrogateCrash { cluster } | FaultKind::StaleCloseSet { cluster } => {
                    assert!(cluster < 5);
                }
                FaultKind::HostCrash { host } => assert!(host < 30),
                FaultKind::AsCongestion { asn, .. } | FaultKind::AsPartition { asn, .. } => {
                    assert!([42, 43].contains(&asn));
                }
                FaultKind::MessageDropWindow { drop_prob, .. } => {
                    assert!((0.0..1.0).contains(&drop_prob));
                }
            }
        }
    }

    #[test]
    fn message_drops_are_order_independent() {
        let drops = MessageDrops::new(0.5, 99);
        let forward: Vec<bool> = (0..1_000).map(|k| drops.drops(k)).collect();
        let backward: Vec<bool> = (0..1_000).rev().map(|k| drops.drops(k)).collect();
        let backward_reversed: Vec<bool> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward_reversed);
        let dropped = forward.iter().filter(|&&d| d).count();
        assert!(
            (300..700).contains(&dropped),
            "drop rate wildly off: {dropped}/1000"
        );
    }

    #[test]
    fn backoff_grows_and_stays_bounded() {
        let mut last = 0;
        for attempt in 0..10 {
            let wait = backoff_ms(attempt, 5);
            assert!(
                wait <= MAX_BACKOFF_MS + MAX_BACKOFF_MS / 10 + 1,
                "attempt {attempt} waited {wait} ms"
            );
            if attempt < 3 {
                assert!(wait >= last, "backoff shrank before the cap");
            }
            last = wait;
        }
        // Deterministic: the same (attempt, salt) always waits the same.
        assert_eq!(backoff_ms(2, 77), backoff_ms(2, 77));
        // Jitter decorrelates distinct requests.
        assert_ne!(backoff_ms(2, 77), backoff_ms(2, 78));
    }
}
