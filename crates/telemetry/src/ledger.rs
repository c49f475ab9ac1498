//! The unified control-plane message ledger.
//!
//! The paper's evaluation is ultimately about protocol *cost*: Fig. 18
//! compares per-session selection overhead across methods, and the §6.3
//! load analysis breaks traffic down by type. Before this subsystem the
//! repro counted messages in three disconnected places (the baseline
//! selectors, `core::system`, and the event simulation); the ledger is
//! the single source of truth they all record into.
//!
//! A [`MessageLedger`] holds one [`LedgerScope`] per protocol or
//! subsystem (`"ASAP"`, `"DEDI"`, `"ASAP.construction"`, …). A scope
//! holds exactly one atomic counter per [`MessageKind`]: recording is a
//! single atomic add, and the only lock is the ledger's own name → scope
//! map, taken when a scope handle is looked up or the ledger merged or
//! snapshotted.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Json;
use crate::POISONED;

/// Typed control-plane message kinds, covering every message the
/// protocol machine and the baselines send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum MessageKind {
    /// Join handshake request to a bootstrap node.
    JoinRequest,
    /// Join handshake reply.
    JoinReply,
    /// Close-cluster-set fetch request to a surrogate.
    CloseSetRequest,
    /// Close-cluster-set fetch reply.
    CloseSetReply,
    /// Periodic nodal-information publish to the cluster surrogate.
    Publish,
    /// RTT probe request (probing baselines, MIX-rung fallback, and
    /// close-set construction measurements).
    ProbeRequest,
    /// RTT probe reply.
    ProbeReply,
    /// Liveness heartbeat from a monitored replica member.
    Heartbeat,
    /// Warm-handoff quorum round and promotion notification.
    Handoff,
    /// Cold re-election notification (bootstrap + cluster members).
    Election,
    /// Call-setup pings (direct-route ping and failover re-pings).
    CallSetup,
    /// Hedged close-set fetch request to a standby replica (issued when
    /// the primary leg exceeds the hedge delay).
    HedgeRequest,
    /// Hedged close-set fetch reply from a standby replica.
    HedgeReply,
}

/// All kinds, in declaration order (the order scope snapshots use).
pub const MESSAGE_KINDS: [MessageKind; 13] = [
    MessageKind::JoinRequest,
    MessageKind::JoinReply,
    MessageKind::CloseSetRequest,
    MessageKind::CloseSetReply,
    MessageKind::Publish,
    MessageKind::ProbeRequest,
    MessageKind::ProbeReply,
    MessageKind::Heartbeat,
    MessageKind::Handoff,
    MessageKind::Election,
    MessageKind::CallSetup,
    MessageKind::HedgeRequest,
    MessageKind::HedgeReply,
];

impl MessageKind {
    /// Stable snake_case name used in snapshots.
    pub fn name(self) -> &'static str {
        match self {
            MessageKind::JoinRequest => "join_request",
            MessageKind::JoinReply => "join_reply",
            MessageKind::CloseSetRequest => "close_set_request",
            MessageKind::CloseSetReply => "close_set_reply",
            MessageKind::Publish => "publish",
            MessageKind::ProbeRequest => "probe_request",
            MessageKind::ProbeReply => "probe_reply",
            MessageKind::Heartbeat => "heartbeat",
            MessageKind::Handoff => "handoff",
            MessageKind::Election => "election",
            MessageKind::CallSetup => "call_setup",
            MessageKind::HedgeRequest => "hedge_request",
            MessageKind::HedgeReply => "hedge_reply",
        }
    }
}

const KINDS: usize = MESSAGE_KINDS.len();

/// A handle onto one scope's message counters (cheap to clone; all
/// clones record into the same cells).
#[derive(Debug, Clone, Default)]
pub struct LedgerScope(Arc<[AtomicU64; KINDS]>);

impl LedgerScope {
    /// A scope detached from any ledger (selectors constructed without a
    /// shared ledger still meter themselves).
    pub fn detached() -> Self {
        Self::default()
    }

    /// Records `n` messages of `kind`. One atomic add.
    pub fn record(&self, kind: MessageKind, n: u64) {
        self.0[kind as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Messages of one kind recorded so far.
    pub fn count(&self, kind: MessageKind) -> u64 {
        self.0[kind as usize].load(Ordering::Relaxed)
    }

    /// Total messages across all kinds.
    pub fn total(&self) -> u64 {
        self.0.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Folds another scope's per-kind counts into this one. Addition
    /// is associative and commutative, so shard scopes merged in any
    /// grouping produce the same snapshot. Merging a scope into itself
    /// is a no-op.
    pub fn merge_from(&self, other: &LedgerScope) {
        if Arc::ptr_eq(&self.0, &other.0) {
            return;
        }
        for (mine, theirs) in self.0.iter().zip(other.0.iter()) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// A deterministic snapshot of this scope.
    pub fn snapshot(&self) -> ScopeSnapshot {
        ScopeSnapshot {
            total: self.total(),
            kinds: MESSAGE_KINDS
                .iter()
                .filter_map(|&k| {
                    let c = self.count(k);
                    (c > 0).then_some((k.name(), c))
                })
                .collect(),
        }
    }
}

/// The ledger: named scopes over shared cells.
#[derive(Debug, Clone, Default)]
pub struct MessageLedger(Arc<Mutex<BTreeMap<String, LedgerScope>>>);

impl MessageLedger {
    /// A fresh, empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// The scope named `name`, created on first use. Keep the handle;
    /// recording through it never re-locks the ledger.
    pub fn scope(&self, name: &str) -> LedgerScope {
        let mut scopes = self.0.lock().expect(POISONED);
        if let Some(s) = scopes.get(name) {
            return s.clone();
        }
        let s = LedgerScope::default();
        scopes.insert(name.to_owned(), s.clone());
        s
    }

    /// Folds every scope of `other` into the same-named scope here
    /// (creating scopes as needed). Merging a ledger into itself is a
    /// no-op.
    pub fn merge_from(&self, other: &MessageLedger) {
        if Arc::ptr_eq(&self.0, &other.0) {
            return;
        }
        let theirs: Vec<(String, LedgerScope)> = other
            .0
            .lock()
            .expect(POISONED)
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        for (name, scope) in theirs {
            self.scope(&name).merge_from(&scope);
        }
    }

    /// Total messages across every scope.
    pub fn total(&self) -> u64 {
        self.0
            .lock()
            .expect(POISONED)
            .values()
            .map(|s| s.total())
            .sum()
    }

    /// A deterministic snapshot of every scope, ordered by name.
    pub fn snapshot(&self) -> BTreeMap<String, ScopeSnapshot> {
        self.0
            .lock()
            .expect(POISONED)
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }
}

/// Point-in-time state of one ledger scope: the per-kind message-count
/// breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct ScopeSnapshot {
    /// Total messages across all kinds.
    pub total: u64,
    /// Non-zero per-kind counts, by stable kind name.
    pub kinds: BTreeMap<&'static str, u64>,
}

impl ScopeSnapshot {
    pub(crate) fn to_json(&self) -> Json {
        Json::object([
            ("total", Json::U64(self.total)),
            (
                "kinds",
                Json::object(self.kinds.iter().map(|(k, &v)| (k, Json::U64(v)))),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_share_cells_by_name() {
        let ledger = MessageLedger::new();
        let a = ledger.scope("ASAP");
        let b = ledger.scope("ASAP");
        a.record(MessageKind::CallSetup, 2);
        b.record(MessageKind::Heartbeat, 1);
        assert_eq!(ledger.scope("ASAP").total(), 3);
        assert_eq!(ledger.total(), 3);
    }

    #[test]
    fn snapshot_elides_zero_kinds() {
        let scope = LedgerScope::detached();
        scope.record(MessageKind::ProbeRequest, 5);
        let snap = scope.snapshot();
        assert_eq!(snap.kinds.len(), 1);
        assert_eq!(snap.kinds["probe_request"], 5);
        assert_eq!(snap.total, 5);
    }
}
