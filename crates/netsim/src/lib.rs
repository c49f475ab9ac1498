//! Network simulation substrate for the ASAP VoIP peer-relay system.
//!
//! The paper's evaluation is *trace-driven*: it replays King-measured RTTs
//! between Gnutella cluster delegates over the inferred AS graph. Those
//! 2005 traces are not available, so this crate provides the synthetic
//! equivalent — a latency and loss model over the synthetic Internet from
//! [`asap_topology`] that preserves the properties the paper's analysis
//! rests on:
//!
//! * **RTT correlates with AS hops** (paper property 3): path latency is
//!   the sum of per-AS-link propagation (distance-based) plus per-AS
//!   transit processing.
//! * **A small tail of very slow direct paths** (Fig. 2(a)): congestion
//!   and failure episodes inflate every route crossing an afflicted AS —
//!   the Fig. 4 scenario that relays in *other* ASes can bypass.
//! * **Relays add a fixed forwarding delay**: 20 ms one-way, 40 ms per
//!   round trip through a relay, the paper's own conservative constant
//!   ([`RELAY_DELAY_RTT_MS`]).
//! * **Measurements are noisy and lossy**: the [`king`] front-end answers
//!   only ~70% of queries (the paper got 1,498,749 responses from
//!   2,130,140 delegate pairs) with multiplicative noise.
//!
//! The model is deterministic: every quantity is derived from the
//! generator seed via per-entity hashing, so repeated queries (and
//! repeated runs) agree.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacity;
pub mod events;
pub mod faults;
pub mod king;
pub mod membership;
mod memo;
pub mod model;

pub use capacity::{Admission, AdmissionQueue, CapacityConfig, RelaySlots, ShedCause};
pub use faults::{FaultEvent, FaultKind, FaultPlan, FaultPlanConfig, MessageDrops};
pub use membership::{MembershipView, SuspicionDetector, Verdict};
pub use model::{AsCondition, NetConfig, NetModel};

/// One-way packet forwarding delay added by an application-layer relay
/// node, in milliseconds. Measured at ~12 ms in the paper's 100 Mbps
/// testbed; the paper conservatively uses 20 ms.
pub const RELAY_DELAY_ONE_WAY_MS: f64 = 20.0;

/// Round-trip delay added by one relay node: twice the one-way forwarding
/// delay (paper §3.2).
pub const RELAY_DELAY_RTT_MS: f64 = 2.0 * RELAY_DELAY_ONE_WAY_MS;
