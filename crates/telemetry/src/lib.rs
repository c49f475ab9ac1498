//! Deterministic telemetry for the ASAP reproduction.
//!
//! Three pieces, combined behind the [`Telemetry`] facade:
//!
//! * a metrics [`Registry`] of atomic [`Counter`]s, [`Gauge`]s, and
//!   fixed-bucket log-scale [`Histogram`]s with quantile estimation;
//! * a [`SpanTracer`] for sim-time spans — scoped timers keyed on the
//!   virtual clock, never the wall clock, with an optional JSONL
//!   [`EventSink`];
//! * a [`MessageLedger`] of typed control-plane [`MessageKind`]s, one
//!   counter per kind in each named scope — the single source of truth
//!   for the paper's overhead figures (Fig. 18, §6.3).
//!
//! # Determinism contract
//!
//! Everything here snapshots byte-identically for a given simulation
//! seed: all accumulators are integers or fixed-point (no float
//! accumulation order dependence), all snapshot maps are `BTreeMap`s
//! (no registration-order dependence), and nothing reads the wall
//! clock. Recording on the hot path is atomic adds only; with the event
//! sink disabled (the default) no allocation happens per event.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
mod json;
pub mod ledger;
pub mod registry;
pub mod spans;

pub use histogram::{
    bucket_bounds, bucket_index, Histogram, HistogramHandle, HistogramSnapshot, BUCKETS, OVERFLOW,
    UNDERFLOW,
};
pub use json::{Json, ToJson};
pub use ledger::{LedgerScope, MessageKind, MessageLedger, ScopeSnapshot, MESSAGE_KINDS};
pub use registry::{Counter, Gauge, Registry, RegistrySnapshot};
pub use spans::{EventSink, Span, SpanTracer};

use std::collections::BTreeMap;

/// The panic message when a lock's holder panicked: the state behind
/// the lock may be half-updated, so no later reader may trust it.
pub(crate) const POISONED: &str = "a thread panicked while holding this lock";

/// The combined telemetry context handed through a simulation: one
/// registry, one ledger, one span tracer. Clones are handles onto the
/// same state, so every subsystem records into the same snapshot.
#[derive(Debug, Clone)]
pub struct Telemetry {
    registry: Registry,
    ledger: MessageLedger,
    spans: SpanTracer,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// A fresh telemetry context with the event sink disabled.
    pub fn new() -> Self {
        let registry = Registry::new();
        Telemetry {
            spans: SpanTracer::new(registry.clone()),
            ledger: MessageLedger::new(),
            registry,
        }
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The message-overhead ledger.
    pub fn ledger(&self) -> &MessageLedger {
        &self.ledger
    }

    /// The span tracer.
    pub fn spans(&self) -> &SpanTracer {
        &self.spans
    }

    /// Folds another telemetry context into this one: counters and
    /// ledger counts add, gauges take the maximum (all gauges are
    /// high-water marks), histograms merge bucket-wise. The combine is
    /// associative and commutative, which is what lets the parallel
    /// session engine give each shard a private context and fold them
    /// back in shard order with a seed-stable result. Span event
    /// buffers are not merged — shards run with the sink disabled.
    pub fn merge_from(&self, other: &Telemetry) {
        self.registry.merge_from(&other.registry);
        self.ledger.merge_from(&other.ledger);
    }

    /// A deterministic snapshot of every metric and ledger scope.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            metrics: self.registry.snapshot(),
            messages: self.ledger.snapshot(),
        }
    }

    /// The snapshot as JSON — byte-identical across runs with the same
    /// seed.
    pub fn snapshot_json(&self) -> String {
        self.snapshot().to_json().to_text()
    }
}

/// A full telemetry snapshot: registry metrics plus the per-scope
/// message ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Counters, gauges, and histograms by name.
    pub metrics: RegistrySnapshot,
    /// Message-ledger scopes by name.
    pub messages: BTreeMap<String, ScopeSnapshot>,
}

impl TelemetrySnapshot {
    fn to_json(&self) -> Json {
        Json::object([
            ("metrics", self.metrics.to_json()),
            (
                "messages",
                Json::object(self.messages.iter().map(|(k, v)| (k, v.to_json()))),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_shares_state_across_clones() {
        let t = Telemetry::new();
        let t2 = t.clone();
        t.registry().counter("calls").inc();
        t2.ledger().scope("ASAP").record(MessageKind::Heartbeat, 3);
        let snap = t.snapshot();
        assert_eq!(snap.metrics.counters["calls"], 1);
        assert_eq!(snap.messages["ASAP"].kinds["heartbeat"], 3);
    }

    #[test]
    fn merge_combines_counters_gauges_histograms_and_ledger() {
        let a = Telemetry::new();
        let b = Telemetry::new();
        a.registry().counter("calls").add(3);
        b.registry().counter("calls").add(4);
        b.registry().counter("only_b").inc();
        a.registry().gauge("depth").raise(7);
        b.registry().gauge("depth").raise(5);
        a.registry().histogram("rtt").record(10.0);
        b.registry().histogram("rtt").record(20.0);
        a.ledger().scope("ASAP").record(MessageKind::Heartbeat, 2);
        b.ledger().scope("ASAP").record(MessageKind::Heartbeat, 5);
        a.merge_from(&b);
        let snap = a.snapshot();
        assert_eq!(snap.metrics.counters["calls"], 7);
        assert_eq!(snap.metrics.counters["only_b"], 1);
        assert_eq!(snap.metrics.gauges["depth"], 7);
        assert_eq!(snap.metrics.histograms["rtt"].count, 2);
        assert_eq!(snap.messages["ASAP"].kinds["heartbeat"], 7);
    }

    #[test]
    fn merge_into_self_is_a_no_op() {
        let t = Telemetry::new();
        t.registry().counter("c").add(5);
        t.ledger().scope("S").record(MessageKind::Publish, 3);
        let before = t.snapshot_json();
        let alias = t.clone();
        t.merge_from(&alias);
        assert_eq!(t.snapshot_json(), before);
    }

    #[test]
    fn snapshot_json_is_stable_across_equal_feeds() {
        let feed = |t: &Telemetry| {
            t.registry().histogram("rtt").record(42.0);
            t.registry().counter("b").inc();
            t.registry().counter("a").add(2);
            t.ledger().scope("X").record(MessageKind::ProbeRequest, 4);
            let s = t.spans().start("call", 100);
            t.spans().end(s, 180);
        };
        let t1 = Telemetry::new();
        let t2 = Telemetry::new();
        feed(&t1);
        feed(&t2);
        assert_eq!(t1.snapshot_json(), t2.snapshot_json());
    }
}
