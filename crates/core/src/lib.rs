//! ASAP: the AS-aware peer-relay protocol (Ren, Guo, Zhang — ICDCS 2006).
//!
//! ASAP selects voice-packet relays for VoIP sessions whose direct IP
//! route is too slow, using two ideas the paper distills from its
//! measurement study:
//!
//! 1. **AS-awareness** — relays are chosen per *IP-prefix cluster* guided
//!    by an annotated AS graph, so candidates in the same AS (which share
//!    bottlenecks) are never probed redundantly, and candidate clusters
//!    are provably close (few valley-free AS hops).
//! 2. **Division of labor** — per-cluster *surrogates* precompute *close
//!    cluster sets* in the background; a caller then intersects two close
//!    cluster sets instead of probing the network, so one-hop relay
//!    selection costs 2 messages (§7.3).
//!
//! The crate provides:
//!
//! * [`AsapConfig`] — the paper's tunables (`k`, `latT`, `lossT`,
//!   `sizeT`), the surrogate load split and the capacity model. The
//!   survival machinery beyond the paper runs on named constants instead:
//!   [`STANDBYS`], [`ladder::STALE_SET_MAX_AGE_MS`],
//!   [`ladder::MIX_PROBES`], [`events::PUBLISH_INTERVAL_MS`], and the
//!   detector and retry constants of [`asap_netsim::membership`] and
//!   [`asap_netsim::faults`].
//! * [`close_set`] — `construct-close-cluster-set()` (paper Fig. 9): a
//!   valley-free bounded BFS with latency/loss pruning.
//! * [`select`] — `select-close-relay()` (paper Fig. 10): one-hop close
//!   cluster intersection with two-hop expansion.
//! * [`AsapSystem`] — the node runtime: bootstrap tables, surrogate
//!   election and failover, join and call flows, message accounting.
//! * [`AsapSelector`] — adapter implementing
//!   [`asap_baselines::RelaySelector`] so ASAP plugs into the same
//!   evaluation harness as DEDI/RAND/MIX/OPT.
//! * [`events`] — a discrete-event simulation of the full protocol
//!   machine (joins, publishes, failures) for end-to-end validation.
//! * [`ladder`] — the graceful-degradation ladder: full ASAP →
//!   bounded-stale close sets → MIX-style probing → direct path, with
//!   phi-accrual liveness and replica-set warm handoff behind it
//!   (beyond the paper, which assumes a cooperative network).
//!
//! # Example
//!
//! ```
//! use asap_core::{AsapConfig, AsapSystem};
//! use asap_workload::{sessions, Scenario, ScenarioConfig};
//!
//! let scenario = Scenario::build(ScenarioConfig::tiny(), 7);
//! let system = AsapSystem::bootstrap(&scenario, AsapConfig::default());
//! let s = sessions::generate(&scenario.population, 1, 3)[0];
//! let outcome = system.call(s.caller, s.callee);
//! // Every returned relay path is composed of valley-free close-set legs.
//! assert!(outcome.messages >= 2 || outcome.used_direct);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod close_set;
mod config;
pub mod events;
pub mod ladder;
pub mod parallel;
mod replica;
pub mod select;
mod selector;
mod system;

pub use config::AsapConfig;
pub use ladder::{DegradationLadder, DegradationLevel};
pub use parallel::{run_sharded, run_sharded_on, shard_configs, shard_seed};
pub use replica::ReplicaSet;
pub use selector::AsapSelector;
pub use system::{
    best_surrogate, surrogate_order, surrogate_score, AsapSystem, CallOutcome, FetchResult,
    OverloadStats, RecoveryStats, SystemStats, STANDBYS,
};
