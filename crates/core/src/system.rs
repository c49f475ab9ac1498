//! The ASAP node runtime: bootstrap tables, surrogate replica sets with
//! epoch-numbered warm handoff, phi-accrual liveness, the
//! graceful-degradation ladder, join and call flows, message accounting.
//!
//! # Failure model
//!
//! Two detection channels coexist, mirroring a real deployment:
//!
//! * **Announced departures** ([`AsapSystem::crash_host`],
//!   [`AsapSystem::fail_surrogate`]) — cluster-local peers notice the
//!   closed connection immediately, so the replica set reacts in the same
//!   step (warm handoff or cold re-election).
//! * **Silent failures** ([`AsapSystem::silent_crash`], AS partitions) —
//!   nothing announces them. The phi-accrual suspicion detector
//!   ([`asap_netsim::membership`]) accumulates evidence from missed
//!   heartbeats, and [`AsapSystem::membership_tick`] demotes replica
//!   members only once their verdict reaches [`Verdict::Dead`].
//!
//! Losing an active surrogate triggers an **epoch-numbered handoff**: if a
//! quorum of the replica set (active + standbys) is still usable, the best
//! standby is promoted in place — the cluster's epoch advances but cached
//! close sets referencing it are kept, because the close-set content is
//! cluster-level and relays are resolved through `surrogate_of` at pick
//! time. Without quorum the cluster falls back to a cold re-election,
//! which purges every cached close set referencing it.

use std::cell::{Cell, RefCell, RefMut};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use asap_baselines::RelayPath;
use asap_cluster::{Asn, ClusterId};
use asap_netsim::capacity::{Admission, AdmissionQueue, RelaySlots, ShedCause};
use asap_netsim::faults::{backoff_ms, MessageDrops, MAX_RETRIES};
use asap_netsim::membership::{MembershipView, Verdict};
use asap_telemetry::{Counter, Gauge, HistogramHandle, LedgerScope, MessageKind, Telemetry};
use asap_workload::{HostId, Population, Scenario};

use crate::close_set::{construct_close_cluster_set, CloseClusterSet, ClusterIndex};
use crate::config::AsapConfig;
use crate::ladder::{DegradationLadder, DegradationLevel, MIX_PROBES, STALE_SET_MAX_AGE_MS};
use crate::replica::{ReplicaSet, ReplicaTable};
use crate::select::{select_close_relay, CloseRelaySelection};

/// Counters of everything the system spent recovering from faults:
/// dropped control messages, crashed surrogates, dead mid-call relays,
/// degraded-mode service.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Control requests that timed out (dropped request or reply).
    pub timeouts: u64,
    /// Requests re-sent after a timeout: one per timeout.
    pub retries: u64,
    /// Mid-call relay failovers performed.
    pub failovers: u64,
    /// Cold surrogate re-elections (no usable quorum, or forced epochs).
    pub re_elections: u64,
    /// Cached close sets dropped because a referenced cluster's surrogate
    /// epoch advanced without a warm handoff.
    pub cache_invalidations: u64,
    /// Messages spent purely on recovery: the handoff and election
    /// messages in the ledger (quorum rounds, re-election notifications)
    /// plus one wasted request/reply pair per timeout and one re-ping
    /// pair per failover.
    pub recovery_messages: u64,
    /// Virtual milliseconds (the simulator's tick) spent waiting on
    /// retry backoff before requests got through.
    pub stabilization_ticks: u64,
    /// Warm standby promotions: an active surrogate was replaced by a
    /// quorum handoff without purging dependent close sets.
    pub warm_handoffs: u64,
    /// Surrogate losses where the surviving replica set had no usable
    /// quorum, forcing a cold re-election.
    pub quorum_failures: u64,
    /// Replica members declared dead by the suspicion detector (silent
    /// crashes and partitions caught via missed heartbeats).
    pub suspected_dead: u64,
    /// Ladder transitions to a more degraded service level.
    pub downgrades: u64,
    /// Ladder recoveries back to the full protocol.
    pub ladder_recoveries: u64,
    /// Calls served from a bounded-age cached close set because fresh
    /// fetches were impossible (the stale-close-set rung).
    pub stale_sets_served: u64,
    /// Calls that fell through to MIX-style random relay probing (no
    /// close set available at all).
    pub probe_fallbacks: u64,
    /// Calls forced onto the direct path above `latT` because even
    /// probing found no relay.
    pub forced_direct: u64,
}

impl RecoveryStats {
    /// Adds another shard's recovery counters into this one. Every
    /// field is a plain event count, so field-wise addition is the
    /// exact combine (associative and commutative).
    pub fn merge_from(&mut self, other: &RecoveryStats) {
        self.timeouts += other.timeouts;
        self.retries += other.retries;
        self.failovers += other.failovers;
        self.re_elections += other.re_elections;
        self.cache_invalidations += other.cache_invalidations;
        self.recovery_messages += other.recovery_messages;
        self.stabilization_ticks += other.stabilization_ticks;
        self.warm_handoffs += other.warm_handoffs;
        self.quorum_failures += other.quorum_failures;
        self.suspected_dead += other.suspected_dead;
        self.downgrades += other.downgrades;
        self.ladder_recoveries += other.ladder_recoveries;
        self.stale_sets_served += other.stale_sets_served;
        self.probe_fallbacks += other.probe_fallbacks;
        self.forced_direct += other.forced_direct;
    }
}

/// Counters of everything the capacity model did: admission verdicts on
/// close-set fetches, hedged fetch legs, load-aware relay spillovers,
/// and the surrogate-load high-water marks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadStats {
    /// Close-set fetches offered to admission control (every fetch that
    /// reached a usable surrogate, whether or not capacity is enabled).
    pub offered_fetches: u64,
    /// Fetches admitted with no queueing delay.
    pub admitted_fetches: u64,
    /// Fetches admitted after waiting in the surrogate's bounded queue.
    pub queued_fetches: u64,
    /// Total virtual milliseconds queued fetches waited for a service
    /// slot.
    pub queue_wait_ms: u64,
    /// Fetches shed because the surrogate's queue was full.
    pub shed_queue_full: u64,
    /// Fetches shed because the queueing delay would have exceeded the
    /// deadline.
    pub shed_deadline: u64,
    /// Deepest admission queue observed across all surrogates.
    pub max_queue_depth: u64,
    /// Hedge legs issued to standby replicas (queue delay or retry
    /// backoff crossed the hedge delay).
    pub hedged_fetches: u64,
    /// Hedge legs whose answer arrived first and served the fetch.
    pub hedge_wins: u64,
    /// Relay candidates skipped during path evaluation because every
    /// relay-call slot was occupied (the typed `Busy` verdict).
    pub relay_busy_skips: u64,
    /// Calls that spilled over to a later candidate after at least one
    /// busy skip.
    pub relay_spillovers: u64,
    /// Relay slot acquisitions that pushed a host over its limit (the
    /// runtime treats these like relay crashes and fails away).
    pub saturated_acquires: u64,
    /// Close-set requests actually served by surrogates (shed fetches
    /// never reach one, so they do not count).
    pub surrogate_requests: u64,
    /// Heaviest per-(cluster, surrogate) served-request load observed.
    pub hot_surrogate_load: u64,
}

impl OverloadStats {
    /// Fetches shed by admission control, for either cause.
    pub fn shed_fetches(&self) -> u64 {
        self.shed_queue_full + self.shed_deadline
    }

    /// The conservation invariant: every offered fetch is admitted,
    /// queued, or shed — none lost.
    pub fn accounted(&self) -> bool {
        self.offered_fetches == self.admitted_fetches + self.queued_fetches + self.shed_fetches()
    }

    /// Adds another shard's overload counters into this one. Event
    /// counts add; the two high-water marks (`max_queue_depth`,
    /// `hot_surrogate_load`) take the maximum — both combines are
    /// associative and commutative, so shard merge order cannot change
    /// the result.
    pub fn merge_from(&mut self, other: &OverloadStats) {
        self.offered_fetches += other.offered_fetches;
        self.admitted_fetches += other.admitted_fetches;
        self.queued_fetches += other.queued_fetches;
        self.queue_wait_ms += other.queue_wait_ms;
        self.shed_queue_full += other.shed_queue_full;
        self.shed_deadline += other.shed_deadline;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
        self.hedged_fetches += other.hedged_fetches;
        self.hedge_wins += other.hedge_wins;
        self.relay_busy_skips += other.relay_busy_skips;
        self.relay_spillovers += other.relay_spillovers;
        self.saturated_acquires += other.saturated_acquires;
        self.surrogate_requests += other.surrogate_requests;
        self.hot_surrogate_load = self.hot_surrogate_load.max(other.hot_surrogate_load);
    }
}

/// Counters describing everything the system did since bootstrap.
/// Message costs are not counted here: every control message is
/// recorded, by [`MessageKind`], into the system's telemetry ledger
/// scope (see [`AsapSystem::ledger_scope`]), and the fields that count
/// messages are read from it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SystemStats {
    /// Hosts that completed the join handshake (the join requests in
    /// the ledger).
    pub joins: u64,
    /// Calls placed.
    pub calls: u64,
    /// Calls that used the direct path (below `latT`).
    pub direct_calls: u64,
    /// Calls that ran `select-close-relay()` (or a degraded fallback).
    pub relayed_calls: u64,
    /// Close cluster sets constructed by surrogates.
    pub close_sets_built: u64,
    /// Close-set requests answered from the per-cluster memo.
    pub close_set_cache_hits: u64,
    /// Close-set requests that had to (re)build the set: never built, or
    /// purged by a cold epoch change.
    pub close_set_cache_misses: u64,
    /// Surrogate elections performed (bootstrap + cold re-elections).
    pub elections: u64,
    /// Everything spent recovering from injected faults.
    pub recovery: RecoveryStats,
    /// Everything the capacity model did: admission verdicts, hedges,
    /// spillovers, surrogate-load high-water marks.
    pub overload: OverloadStats,
}

/// The outcome of one call placed through ASAP.
#[derive(Debug, Clone)]
pub struct CallOutcome {
    /// Direct-route RTT measured at call start, if routable.
    pub direct_rtt_ms: Option<f64>,
    /// Whether the call proceeded on the direct path because it was
    /// already below `latT`.
    pub used_direct: bool,
    /// The relay selection, when one ran.
    pub selection: Option<CloseRelaySelection>,
    /// The path actually picked, with its true RTT and loss: no relays
    /// for the direct path, one or two relay hosts otherwise.
    pub chosen: Option<RelayPath>,
    /// Messages this call recorded in the ledger scope: 2 for the direct
    /// ping, plus any wasted fetch attempts, hedge legs, selection or
    /// probing messages.
    pub messages: u64,
    /// The service-ladder rung this call was served at.
    pub degradation: DegradationLevel,
    /// Whether admission control shed a close-set fetch of this call
    /// (the call was then served from the degraded rungs instead of
    /// failing).
    pub shed_by_overload: bool,
}

/// The outcome of one possibly-degraded, possibly-hedged close-set
/// fetch.
#[derive(Debug, Clone)]
pub struct FetchResult {
    /// The close set obtained, if any rung produced one.
    pub set: Option<Arc<CloseClusterSet>>,
    /// The service-ladder rung the set was obtained at.
    pub level: DegradationLevel,
    /// Whether admission control shed this fetch before it reached the
    /// surrogate.
    pub shed: bool,
}

/// The running ASAP system over a scenario.
///
/// Bootstrap responsibilities (§6.1) are precomputed: the prefix → ASN and
/// prefix → surrogate tables and the annotated AS graph (owned by the
/// scenario). Surrogates construct close cluster sets lazily and cache
/// them — in the deployed system this is continuous background work; in
/// the simulation laziness keeps experiments fast without changing any
/// observable result.
///
/// A system has one owner: its mutable state sits in `Cell`/`RefCell`
/// fields behind `&self` methods, so it is `Send` but not `Sync`. Each
/// method borrows a cell only for as long as it calls nothing that
/// borrows the same cell again.
#[derive(Debug)]
pub struct AsapSystem<'a> {
    scenario: &'a Scenario,
    config: AsapConfig,
    index: ClusterIndex,
    /// Per-cluster replica sets, epochs and primaries (indexed by
    /// `ClusterId.0`), and the memoized close sets they keep current.
    replicas: RefCell<ReplicaTable>,
    /// Close-set requests served, per (cluster, surrogate) — used to
    /// verify load sharing.
    surrogate_load: RefCell<HashMap<(ClusterId, HostId), u64>>,
    /// Hosts marked offline (failed surrogates stay out of elections).
    offline: RefCell<Vec<bool>>,
    /// Injected control-message drop decider (None = healthy network).
    message_faults: Cell<Option<MessageDrops>>,
    /// Phi-accrual liveness over every current and former replica member.
    membership: RefCell<MembershipView>,
    /// Per-cluster graceful-degradation ladder state.
    ladders: RefCell<Vec<DegradationLadder>>,
    /// Per-(cluster, surrogate) admission queues: the virtual-service-
    /// clock request budget with its bounded, deadline-aware queue.
    admissions: RefCell<BTreeMap<(ClusterId, HostId), AdmissionQueue>>,
    /// Per-host relay-call slot occupancy (`None` when the capacity
    /// model is disabled).
    relay_slots: Option<RefCell<RelaySlots>>,
    /// Registry handles: the store of the overload counters and of the
    /// close-set cache outcomes.
    meters: Meters,
    /// ASNs currently cut off by an AS partition (hosts intact but
    /// silent to the outside).
    partitioned: RefCell<BTreeSet<u32>>,
    /// Monotonic virtual clock, advanced by the event-driven runtime.
    clock_ms: Cell<u64>,
    /// The counters with no other store (see [`AsapSystem::stats`]).
    stats: RefCell<Tallies>,
    /// Shared telemetry context (registry + ledger + spans).
    telemetry: Telemetry,
    /// Per-session protocol messages, by kind (the Fig. 18 quantity).
    scope: LedgerScope,
    /// Amortized close-set construction messages, kept in a sibling
    /// scope so the per-session numbers stay clean (§7.3 reports them
    /// separately).
    construction_scope: LedgerScope,
    /// End-to-end RTT of every path a call actually got.
    call_rtt: HistogramHandle,
}

/// The [`SystemStats`] counters with no other store. Four fields of
/// `recovery` stay zero here: [`AsapSystem::stats`] sums the two ladder
/// fields from the ladders and derives `retries` and
/// `recovery_messages`.
#[derive(Debug, Clone, Copy, Default)]
struct Tallies {
    direct_calls: u64,
    relayed_calls: u64,
    queue_wait_ms: u64,
    recovery: RecoveryStats,
}

/// Registry handles for the overload counters and the close-set cache
/// outcomes, created once at bootstrap so the hot paths never re-lock
/// the registry. They are the only store of these counts.
#[derive(Debug)]
struct Meters {
    offered: Counter,
    admitted: Counter,
    queued: Counter,
    shed_queue_full: Counter,
    shed_deadline: Counter,
    hedged: Counter,
    hedge_wins: Counter,
    busy_skips: Counter,
    spillovers: Counter,
    saturated: Counter,
    surrogate_requests: Counter,
    max_queue_depth: Gauge,
    hot_surrogate: Gauge,
    cache_hits: Counter,
    cache_misses: Counter,
}

impl Meters {
    fn new(telemetry: &Telemetry, scope_name: &str) -> Self {
        let registry = telemetry.registry();
        let counter = |name: &str| registry.counter(&format!("{scope_name}.{name}"));
        let gauge = |name: &str| registry.gauge(&format!("{scope_name}.{name}"));
        Meters {
            offered: counter("admission.offered"),
            admitted: counter("admission.admitted"),
            queued: counter("admission.queued"),
            shed_queue_full: counter("admission.shed_queue_full"),
            shed_deadline: counter("admission.shed_deadline"),
            hedged: counter("hedge.sent"),
            hedge_wins: counter("hedge.wins"),
            busy_skips: counter("relay.busy_skips"),
            spillovers: counter("relay.spillovers"),
            saturated: counter("relay.saturated_acquires"),
            surrogate_requests: counter("surrogate.requests"),
            max_queue_depth: gauge("admission.max_queue_depth"),
            hot_surrogate: gauge("surrogate.hot_load"),
            cache_hits: counter("cache.close_set.hits"),
            cache_misses: counter("cache.close_set.misses"),
        }
    }
}

/// Warm standby surrogates each cluster keeps behind its active set (the
/// bootstrap replica set): a lost primary hands off to the best online
/// standby on an epoch-numbered quorum handoff instead of forcing a cold
/// re-election.
pub const STANDBYS: usize = 2;

/// The surrogate election order: `Less` when `a` is the better
/// surrogate candidate. Candidates rank by nodal capability discounted
/// by access delay, ties to the lower host id. Surrogates must be
/// powerful *and* well connected: a capable host behind a slow access
/// link would make the whole cluster look far in every close cluster
/// set.
pub fn surrogate_order(population: &Population, a: HostId, b: HostId) -> Ordering {
    let score = |h: HostId| {
        let host = population.host(h);
        host.nodal.capability() - host.access_ms / 100.0
    };
    score(b).total_cmp(&score(a)).then(a.cmp(&b))
}

/// SplitMix64 finalizer: the deterministic hash behind MIX-style probing.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl<'a> AsapSystem<'a> {
    /// Boots the system: builds the bootstrap tables and elects each
    /// cluster's replica set — the most capable members as active
    /// surrogates ("every surrogate is the most powerful and reliable
    /// VoIP end host in its cluster", §6.3) plus warm standbys. Every
    /// replica member starts monitored with a heartbeat at t=0.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    pub fn bootstrap(scenario: &'a Scenario, config: AsapConfig) -> Self {
        Self::bootstrap_scoped(scenario, config, &Telemetry::new(), "ASAP")
    }

    /// Boots the system recording into `telemetry` under the ledger
    /// scope `scope_name` (and `"<scope_name>.construction"` for the
    /// amortized close-set construction messages). Several systems can
    /// share one telemetry context under distinct scope names — e.g.
    /// `"ASAP@small"` / `"ASAP@large"` in a scalability sweep. They must
    /// not share a scope name: [`AsapSystem::stats`] reads the overload
    /// and cache counters from the registry under that name, and the
    /// join and recovery message counts from the ledger scope, so two
    /// systems on one `(telemetry, scope_name)` would see each other's.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    pub fn bootstrap_scoped(
        scenario: &'a Scenario,
        config: AsapConfig,
        telemetry: &Telemetry,
        scope_name: &str,
    ) -> Self {
        config.validate().expect("invalid ASAP configuration");
        let index = ClusterIndex::build(scenario);
        let offline = vec![false; scenario.population.hosts().len()];
        let cluster_count = scenario.population.clustering().cluster_count();
        let relay_slots = config.capacity.enabled.then(|| {
            RefCell::new(RelaySlots::new(
                &config.capacity,
                scenario
                    .population
                    .hosts()
                    .iter()
                    .map(|h| h.nodal.capability()),
            ))
        });
        let mut system = AsapSystem {
            scenario,
            config,
            index,
            replicas: RefCell::default(),
            surrogate_load: RefCell::default(),
            offline: RefCell::new(offline),
            message_faults: Cell::new(None),
            membership: RefCell::default(),
            ladders: RefCell::new(vec![DegradationLadder::default(); cluster_count]),
            admissions: RefCell::default(),
            relay_slots,
            meters: Meters::new(telemetry, scope_name),
            partitioned: RefCell::default(),
            clock_ms: Cell::new(0),
            stats: RefCell::default(),
            telemetry: telemetry.clone(),
            scope: telemetry.ledger().scope(scope_name),
            construction_scope: telemetry
                .ledger()
                .scope(&format!("{scope_name}.construction")),
            call_rtt: telemetry
                .registry()
                .histogram(&format!("{scope_name}.call.rtt_ms")),
        };
        let replicas: Vec<ReplicaSet> = scenario
            .population
            .clustering()
            .clusters()
            .iter()
            .map(|c| system.elect_split(c.id(), &[]))
            .collect();
        let view = system.membership.get_mut();
        for m in replicas.iter().flat_map(|r| r.members()) {
            view.heartbeat(m.0, 0);
        }
        *system.replicas.get_mut() = ReplicaTable::new(replicas);
        system
    }

    /// How many surrogates a cluster of `members` hosts elects: one per
    /// started block of [`AsapConfig::members_per_surrogate`] members.
    fn surrogate_count(&self, members: usize) -> usize {
        members.div_ceil(self.config.members_per_surrogate).max(1)
    }

    /// The scenario this system runs over.
    pub fn scenario(&self) -> &'a Scenario {
        self.scenario
    }

    /// The protocol configuration.
    pub fn config(&self) -> &AsapConfig {
        &self.config
    }

    /// A snapshot of the counters, assembled from the one store of each:
    /// the registry meters (overload counters, cache outcomes), the
    /// ledger scope (joins, handoff and election messages), the ladder
    /// table (downgrades, recoveries) and the local tallies. Derived
    /// fields are computed: every call is direct or relayed, every cache
    /// miss builds one close set, every cluster was elected once at
    /// bootstrap plus once per cold re-election, every timeout is retried
    /// once, and every timeout and failover wastes one message pair.
    pub fn stats(&self) -> SystemStats {
        let t = *self.stats.borrow();
        let m = &self.meters;
        let ledger = |kind: MessageKind| self.scope.count(kind);
        let (downgrades, ladder_recoveries) = self
            .ladders
            .borrow()
            .iter()
            .fold((0, 0), |(d, r), l| (d + l.downgrades, r + l.recoveries));
        let clusters = self.scenario.population.clustering().cluster_count() as u64;
        SystemStats {
            joins: ledger(MessageKind::JoinRequest),
            calls: t.direct_calls + t.relayed_calls,
            direct_calls: t.direct_calls,
            relayed_calls: t.relayed_calls,
            close_sets_built: m.cache_misses.get(),
            close_set_cache_hits: m.cache_hits.get(),
            close_set_cache_misses: m.cache_misses.get(),
            elections: clusters + t.recovery.re_elections,
            recovery: RecoveryStats {
                retries: t.recovery.timeouts,
                recovery_messages: ledger(MessageKind::Handoff)
                    + ledger(MessageKind::Election)
                    + 2 * (t.recovery.timeouts + t.recovery.failovers),
                downgrades,
                ladder_recoveries,
                ..t.recovery
            },
            overload: OverloadStats {
                offered_fetches: m.offered.get(),
                admitted_fetches: m.admitted.get(),
                queued_fetches: m.queued.get(),
                queue_wait_ms: t.queue_wait_ms,
                shed_queue_full: m.shed_queue_full.get(),
                shed_deadline: m.shed_deadline.get(),
                max_queue_depth: m.max_queue_depth.get() as u64,
                hedged_fetches: m.hedged.get(),
                hedge_wins: m.hedge_wins.get(),
                relay_busy_skips: m.busy_skips.get(),
                relay_spillovers: m.spillovers.get(),
                saturated_acquires: m.saturated.get(),
                surrogate_requests: m.surrogate_requests.get(),
                hot_surrogate_load: m.hot_surrogate.get() as u64,
            },
        }
    }

    /// The telemetry context this system records into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The ledger scope holding this system's per-session protocol
    /// messages, by [`MessageKind`].
    pub fn ledger_scope(&self) -> &LedgerScope {
        &self.scope
    }

    /// The sibling scope holding the amortized close-set construction
    /// messages (kept out of the per-session numbers, per §7.3).
    pub fn construction_scope(&self) -> &LedgerScope {
        &self.construction_scope
    }

    /// Advances the monotonic virtual clock (late values are ignored).
    pub fn advance_to(&self, now_ms: u64) {
        self.clock_ms.set(self.clock_ms.get().max(now_ms));
    }

    /// The current virtual time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.clock_ms.get()
    }

    /// The recovery tallies, borrowed for an update.
    fn recovery(&self) -> RefMut<'_, RecoveryStats> {
        RefMut::map(self.stats.borrow_mut(), |t| &mut t.recovery)
    }

    /// The current primary surrogate of `cluster`.
    ///
    /// # Panics
    ///
    /// Panics if the cluster id is out of range.
    pub fn surrogate_of(&self, cluster: ClusterId) -> HostId {
        self.replicas.borrow()[cluster].primary()
    }

    /// All current active surrogates of `cluster` (large clusters elect
    /// several; §6.3).
    ///
    /// # Panics
    ///
    /// Panics if the cluster id is out of range.
    pub fn surrogates_of(&self, cluster: ClusterId) -> Vec<HostId> {
        self.replicas.borrow()[cluster].active.clone()
    }

    /// The current warm standbys of `cluster`, best first.
    pub fn standbys_of(&self, cluster: ClusterId) -> Vec<HostId> {
        self.replicas.borrow()[cluster].standbys.clone()
    }

    /// A snapshot of `cluster`'s full replica set.
    pub fn replica_set_of(&self, cluster: ClusterId) -> ReplicaSet {
        self.replicas.borrow()[cluster].clone()
    }

    /// The surrogate of `cluster` that serves `requester`'s close-set
    /// request: requests are spread across the cluster's usable
    /// surrogates by requester hash, and the chosen surrogate's load
    /// counter is bumped.
    pub fn serving_surrogate(&self, cluster: ClusterId, requester: HostId) -> HostId {
        let pick = self.route_surrogate(cluster, requester);
        self.record_surrogate_load(cluster, pick);
        pick
    }

    /// The surrogate `requester`'s request would route to, without
    /// bumping any load counter — admission control must know the
    /// target before deciding whether the request is served at all.
    fn route_surrogate(&self, cluster: ClusterId, requester: HostId) -> HostId {
        let replicas = self.replicas.borrow();
        let actives = &replicas[cluster].active;
        let usable: Vec<HostId> = actives
            .iter()
            .copied()
            .filter(|&h| self.host_usable(h))
            .collect();
        let pool = if usable.is_empty() { actives } else { &usable };
        pool[(requester.0 as usize) % pool.len()]
    }

    /// Bumps `surrogate`'s served-request counter. Only *served*
    /// requests count — shed fetches never reach the surrogate, which
    /// is exactly the load relief the admission queue buys.
    fn record_surrogate_load(&self, cluster: ClusterId, surrogate: HostId) {
        let served = {
            let mut load = self.surrogate_load.borrow_mut();
            let entry = load.entry((cluster, surrogate)).or_insert(0);
            *entry += 1;
            *entry
        };
        self.meters.surrogate_requests.inc();
        self.meters.hot_surrogate.raise(served as i64);
    }

    /// Close-set requests served so far by `surrogate` on behalf of
    /// `cluster`.
    pub fn surrogate_load(&self, cluster: ClusterId, surrogate: HostId) -> u64 {
        self.surrogate_load
            .borrow()
            .get(&(cluster, surrogate))
            .copied()
            .unwrap_or(0)
    }

    /// Runs `surrogate`'s admission control for one close-set request
    /// at the current virtual time. With the capacity model disabled
    /// every request is admitted immediately, but the offer is still
    /// counted so the conservation invariant (offered = admitted +
    /// queued + shed) holds in both modes.
    fn admit_request(&self, cluster: ClusterId, surrogate: HostId) -> Admission {
        let meters = &self.meters;
        meters.offered.inc();
        if !self.config.capacity.enabled {
            meters.admitted.inc();
            return Admission::Admit {
                waited_ms: 0,
                depth: 0,
            };
        }
        let now = self.now_ms();
        let (verdict, max_depth) = {
            let mut queues = self.admissions.borrow_mut();
            let queue = queues
                .entry((cluster, surrogate))
                .or_insert_with(|| AdmissionQueue::new(&self.config.capacity));
            (queue.offer(now), queue.max_depth())
        };
        meters.max_queue_depth.raise(i64::from(max_depth));
        match verdict {
            Admission::Admit { waited_ms: 0, .. } => meters.admitted.inc(),
            Admission::Admit { waited_ms, .. } => {
                meters.queued.inc();
                self.stats.borrow_mut().queue_wait_ms += waited_ms;
            }
            Admission::Shed(ShedCause::QueueFull) => meters.shed_queue_full.inc(),
            Admission::Shed(ShedCause::DeadlineExceeded) => meters.shed_deadline.inc(),
        }
        verdict
    }

    /// Elects a fresh replica set for `cluster`: highest nodal capability
    /// (discounted by access delay), ties to the lower host id. Prefers
    /// usable members, then merely-online ones, then anyone; `exclude`
    /// is kept out unless it would empty every pool. The returned epoch
    /// is 0; [`ReplicaTable::replace`] continues an existing cluster's.
    fn elect_split(&self, cluster: ClusterId, exclude: &[HostId]) -> ReplicaSet {
        let population = &self.scenario.population;
        let members = population.cluster_members(cluster);
        let pick_pool = |pred: &dyn Fn(HostId) -> bool| -> Vec<HostId> {
            members
                .iter()
                .copied()
                .filter(|&h| !exclude.contains(&h) && pred(h))
                .collect()
        };
        let mut pool = pick_pool(&|h| self.host_usable(h));
        if pool.is_empty() {
            pool = pick_pool(&|h| self.is_online(h));
        }
        if pool.is_empty() {
            pool = pick_pool(&|_| true);
        }
        if pool.is_empty() {
            pool = members.to_vec();
        }
        pool.sort_by(|&a, &b| surrogate_order(population, a, b));
        let actives_n = self.surrogate_count(members.len());
        let active: Vec<HostId> = pool.iter().copied().take(actives_n).collect();
        let standbys: Vec<HostId> = pool
            .iter()
            .copied()
            .skip(actives_n)
            .take(STANDBYS)
            .collect();
        ReplicaSet {
            active,
            standbys,
            epoch: 0,
        }
    }

    /// Whether `host` is currently online.
    pub fn is_online(&self, host: HostId) -> bool {
        !self.offline.borrow()[host.0 as usize]
    }

    /// Physical reachability: online and not behind an AS partition.
    fn host_reachable(&self, host: HostId) -> bool {
        if self.offline.borrow()[host.0 as usize] {
            return false;
        }
        let asn = self.scenario.population.host(host).asn.0;
        !self.partitioned.borrow().contains(&asn)
    }

    /// Whether the system would route through `host`: physically
    /// reachable (a setup ping would answer) *and* not declared dead by
    /// the suspicion detector.
    pub fn host_usable(&self, host: HostId) -> bool {
        self.host_reachable(host) && self.relay_verdict(host) != Verdict::Dead
    }

    /// The suspicion verdict on `host` at the current virtual time
    /// (unmonitored hosts are [`Verdict::Alive`]).
    pub fn relay_verdict(&self, host: HostId) -> Verdict {
        let now = self.now_ms();
        self.membership.borrow().verdict(host.0, now)
    }

    /// Whether `cluster`'s control plane can answer a close-set request:
    /// at least one active surrogate is usable.
    pub fn cluster_control_usable(&self, cluster: ClusterId) -> bool {
        self.replicas.borrow()[cluster]
            .active
            .iter()
            .any(|&h| self.host_usable(h))
    }

    /// The current surrogate epoch of `cluster` (advances on every
    /// handoff, re-election, or forced staleness).
    pub fn surrogate_epoch(&self, cluster: ClusterId) -> u64 {
        self.replicas.borrow()[cluster].epoch
    }

    /// The ladder state of `cluster` (for soak-harness assertions).
    pub fn ladder_of(&self, cluster: ClusterId) -> DegradationLadder {
        self.ladders.borrow()[cluster.0 as usize]
    }

    /// Cuts `asn` off: its hosts stay up but no traffic crosses the
    /// partition, so heartbeats stop and fetches into it fail.
    pub fn partition_as(&self, asn: u32) {
        self.partitioned.borrow_mut().insert(asn);
    }

    /// Heals a partition: traffic (and heartbeats) flow again.
    pub fn heal_as(&self, asn: u32) {
        self.partitioned.borrow_mut().remove(&asn);
    }

    /// Whether `asn` is currently partitioned.
    pub fn is_partitioned(&self, asn: u32) -> bool {
        self.partitioned.borrow().contains(&asn)
    }

    /// Installs (or clears) an injected control-message drop decider.
    /// While set, close-set fetches may time out and go through the
    /// retry schedule of [`asap_netsim::faults::backoff_ms`].
    pub fn set_message_faults(&self, faults: Option<MessageDrops>) {
        self.message_faults.set(faults);
    }

    /// Handles an announced primary-surrogate failure: marks the host
    /// offline and hands off (or re-elects). Returns the new primary.
    pub fn fail_surrogate(&self, cluster: ClusterId) -> HostId {
        let old = self.surrogate_of(cluster);
        self.crash_host(old);
        self.surrogate_of(cluster)
    }

    /// An *announced* ungraceful departure: cluster peers notice the
    /// closed connection immediately. An active surrogate triggers a
    /// quorum handoff (warm when possible, cold re-election otherwise);
    /// a standby is replaced in place. Returns `true` when the active
    /// surrogate set changed.
    pub fn crash_host(&self, host: HostId) -> bool {
        if !self.mark_offline(host) {
            return false; // already down
        }
        let cluster = self.scenario.population.cluster_of(host);
        let (is_active, is_standby) = {
            let rs = &self.replicas.borrow()[cluster];
            (rs.active.contains(&host), rs.standbys.contains(&host))
        };
        if is_active {
            self.handle_surrogate_loss(cluster, host);
            true
        } else {
            if is_standby {
                self.replicas
                    .borrow_mut()
                    .standbys_mut(cluster)
                    .retain(|&h| h != host);
                self.backfill_standbys(cluster);
            }
            false
        }
    }

    /// A *silent* crash: the host dies without anyone noticing. Replica
    /// roles it held are only recovered once the suspicion detector
    /// declares it dead at a later [`AsapSystem::membership_tick`].
    /// Returns `true` when the host held an active surrogate role.
    pub fn silent_crash(&self, host: HostId) -> bool {
        if !self.mark_offline(host) {
            return false;
        }
        let cluster = self.scenario.population.cluster_of(host);
        self.replicas.borrow()[cluster].active.contains(&host)
    }

    /// Marks `host` offline; `false` if it already was.
    fn mark_offline(&self, host: HostId) -> bool {
        let mut offline = self.offline.borrow_mut();
        if offline[host.0 as usize] {
            return false;
        }
        offline[host.0 as usize] = true;
        true
    }

    /// Replaces the lost active surrogate `lost` of `cluster`. With a
    /// usable quorum of the replica set (survivors × 2 ≥ set size) and a
    /// usable standby, the standby is promoted warm: the epoch advances
    /// and cached close sets stay. Otherwise the cluster cold-re-elects
    /// and dependent cache entries are purged.
    fn handle_surrogate_loss(&self, cluster: ClusterId, lost: HostId) {
        let (set_size, slot, usable, promoted) = {
            let rs = &self.replicas.borrow()[cluster];
            let Some(slot) = rs.active.iter().position(|&h| h == lost) else {
                return; // not an active surrogate (already demoted)
            };
            let members = rs.members();
            let usable: Vec<HostId> = members
                .iter()
                .copied()
                .filter(|&h| h != lost && self.host_usable(h))
                .collect();
            let promoted = usable.iter().copied().find(|h| rs.standbys.contains(h));
            (members.len(), slot, usable.len(), promoted)
        };
        let quorum = usable * 2 >= set_size;
        if let (true, Some(promoted)) = (quorum, promoted) {
            self.replicas.borrow_mut().promote(cluster, slot, promoted);
            self.backfill_standbys(cluster);
            self.recovery().warm_handoffs += 1;
            // One quorum round among the replica set plus the bootstrap
            // notification.
            self.scope.record(MessageKind::Handoff, 2 + set_size as u64);
        } else {
            let fresh = self.elect_split(cluster, &[lost]);
            let new_members = fresh.members();
            let dropped = self.replicas.borrow_mut().replace(cluster, fresh);
            self.recovery().cache_invalidations += dropped;
            {
                let mut view = self.membership.borrow_mut();
                for h in new_members {
                    view.watch(h.0);
                }
            }
            let members = self.scenario.population.cluster_members(cluster).len() as u64;
            let mut recovery = self.recovery();
            recovery.re_elections += 1;
            if !quorum {
                recovery.quorum_failures += 1;
            }
            // Bootstrap notification (2 messages) plus one per member.
            self.scope.record(MessageKind::Election, 2 + members);
        }
    }

    /// Tops the standby list back up to [`STANDBYS`] with the best
    /// usable members not already in the replica set.
    fn backfill_standbys(&self, cluster: ClusterId) {
        let population = &self.scenario.population;
        loop {
            let (current, have) = {
                let rs = &self.replicas.borrow()[cluster];
                (rs.members(), rs.standbys.len())
            };
            if have >= STANDBYS {
                return;
            }
            let candidate = population
                .cluster_members(cluster)
                .iter()
                .copied()
                .filter(|h| !current.contains(h) && self.host_usable(*h))
                .min_by(|&a, &b| surrogate_order(population, a, b));
            let Some(candidate) = candidate else {
                return; // nobody left to recruit
            };
            self.replicas
                .borrow_mut()
                .standbys_mut(cluster)
                .push(candidate);
            self.membership.borrow_mut().watch(candidate.0);
        }
    }

    /// One membership sweep at `now_ms`: every reachable monitored node
    /// heartbeats, then active surrogates (and lingering standbys) whose
    /// verdict is [`Verdict::Dead`] are demoted/replaced — unless the
    /// whole cluster has no usable member, in which case the current set
    /// is kept rather than churning pointless elections. Returns the
    /// active surrogates demoted this sweep: callers should fail over any
    /// call still relayed through them.
    ///
    /// The sweep costs one heartbeat per monitored node plus a check of
    /// the clusters of the silent (unreachable) ones, in ascending
    /// cluster order. Skipping the other clusters is exact: a node that
    /// beat at `now_ms` and an unmonitored or just-registered node are
    /// all [`Verdict::Alive`], and handling one cluster never changes
    /// another cluster's replicas.
    pub fn membership_tick(&self, now_ms: u64) -> Vec<HostId> {
        self.advance_to(now_ms);
        let (beats, silent) = self
            .membership
            .borrow_mut()
            .sweep(now_ms, |id| self.host_reachable(HostId(id)));
        self.scope.record(MessageKind::Heartbeat, beats);
        let mut clusters: Vec<ClusterId> = silent
            .into_iter()
            .map(|id| self.scenario.population.cluster_of(HostId(id)))
            .collect();
        clusters.sort_unstable();
        clusters.dedup();
        let mut demoted = Vec::new();
        for cluster in clusters {
            let (dead_active, dead_standby) = {
                let rs = &self.replicas.borrow()[cluster];
                let view = self.membership.borrow();
                let dead = |h: &&HostId| view.verdict(h.0, now_ms) == Verdict::Dead;
                (
                    rs.active.iter().filter(dead).copied().collect::<Vec<_>>(),
                    rs.standbys.iter().filter(dead).copied().collect::<Vec<_>>(),
                )
            };
            if dead_active.is_empty() && dead_standby.is_empty() {
                continue;
            }
            let members = self.scenario.population.cluster_members(cluster);
            if !members.iter().any(|&h| self.host_usable(h)) {
                continue; // nothing better to promote
            }
            for h in dead_active {
                if !self.replicas.borrow()[cluster].active.contains(&h) {
                    continue; // a cold re-election already replaced it
                }
                self.recovery().suspected_dead += 1;
                self.handle_surrogate_loss(cluster, h);
                demoted.push(h);
            }
            let lingering: Vec<HostId> = {
                let standbys = &self.replicas.borrow()[cluster].standbys;
                dead_standby
                    .into_iter()
                    .filter(|h| standbys.contains(h))
                    .collect()
            };
            if !lingering.is_empty() {
                self.recovery().suspected_dead += lingering.len() as u64;
                self.replicas
                    .borrow_mut()
                    .standbys_mut(cluster)
                    .retain(|h| !lingering.contains(h));
                self.backfill_standbys(cluster);
            }
        }
        demoted
    }

    /// Forces `cluster`'s close-set epoch stale — as if its surrogate set
    /// rotated without a handoff — so every cached close set referencing
    /// it rebuilds on next use (the `StaleCloseSet` fault).
    pub fn expire_close_set(&self, cluster: ClusterId) {
        let dropped = self.replicas.borrow_mut().expire(cluster);
        self.recovery().cache_invalidations += dropped;
    }

    /// The join flow (steps 1–4 of Fig. 8): the host learns its ASN and
    /// surrogate from a bootstrap, then fetches its cluster's close
    /// cluster set. Returns `(ASN, surrogate)`. Costs 4 messages (2 per
    /// round trip).
    pub fn join(&self, host: HostId) -> (Asn, HostId) {
        let h = self.scenario.population.host(host);
        let cluster = self.scenario.population.cluster_of(host);
        let surrogate = self.serving_surrogate(cluster, host);
        self.scope.record(MessageKind::JoinRequest, 1);
        self.scope.record(MessageKind::JoinReply, 1);
        self.scope.record(MessageKind::CloseSetRequest, 1);
        self.scope.record(MessageKind::CloseSetReply, 1);
        (h.asn, surrogate)
    }

    /// The close cluster set of `cluster`, constructing and caching it if
    /// the surrogate has not built one yet (or if a cold epoch change of
    /// a cluster it references purged the cached copy).
    pub fn close_set_of(&self, cluster: ClusterId) -> Arc<CloseClusterSet> {
        if let Some(set) = self.replicas.borrow().close_set(cluster) {
            self.meters.cache_hits.inc();
            return set;
        }
        self.meters.cache_misses.inc();
        let set = {
            let replicas = self.replicas.borrow();
            let primaries = replicas.primaries();
            Arc::new(construct_close_cluster_set(
                self.scenario,
                &self.index,
                &|c: ClusterId| primaries[c.0 as usize],
                cluster,
                &self.config,
            ))
        };
        // Construction cost is probe round trips.
        let probes = set.construction_messages;
        self.construction_scope
            .record(MessageKind::ProbeRequest, probes - probes / 2);
        self.construction_scope
            .record(MessageKind::ProbeReply, probes / 2);
        self.replicas
            .borrow_mut()
            .cache_close_set(cluster, Arc::clone(&set), self.now_ms());
        set
    }

    /// Issues the hedge leg of a close-set fetch to the first usable
    /// warm standby of `cluster`. Returns the set when the standby
    /// answers (the hedge "wins"); `None` when no standby is usable or
    /// the hedge leg is dropped too. The leg's request/reply pair is
    /// metered in the ledger under the dedicated hedge message kinds, so
    /// the cost of hedging is visible.
    fn hedge_fetch(&self, cluster: ClusterId, requester: HostId) -> Option<Arc<CloseClusterSet>> {
        let standby = self
            .standbys_of(cluster)
            .into_iter()
            .find(|&h| self.host_usable(h))?;
        self.meters.hedged.inc();
        self.scope.record(MessageKind::HedgeRequest, 1);
        self.scope.record(MessageKind::HedgeReply, 1);
        if let Some(faults) = self.message_faults.get() {
            // The hedge leg rides its own drop key: its fate is
            // independent of the primary's attempts.
            let key = (u64::from(requester.0) << 34)
                ^ (u64::from(cluster.0) << 8)
                ^ (u64::from(standby.0) << 13)
                ^ 0xA5;
            if faults.drops(key) {
                return None;
            }
        }
        self.meters.hedge_wins.inc();
        Some(self.close_set_of(cluster))
    }

    /// Fetches a close cluster set over a possibly-degraded,
    /// possibly-overloaded control plane.
    ///
    /// The request first routes to its serving surrogate and passes that
    /// surrogate's admission control: a fetch exceeding the request-rate
    /// budget waits in the bounded queue, and one that would overflow
    /// the queue or miss its deadline is *shed* — it skips the surrogate
    /// entirely and falls through the same degradation ladder a dead
    /// surrogate would trigger (bounded-stale cache, then probing), so
    /// overload degrades calls instead of failing them.
    ///
    /// Admitted fetches go through the retry schedule of
    /// [`asap_netsim::faults::backoff_ms`] against the injected
    /// [`MessageDrops`]. Whenever the accumulated delay (queueing or
    /// retry backoff) crosses the configured hedge delay, the fetch is
    /// *hedged*: the same request is re-issued to a warm standby replica
    /// and the first answer wins, with both legs metered.
    pub fn fetch_close_set_degraded(&self, cluster: ClusterId, requester: HostId) -> FetchResult {
        let mut shed = false;
        if self.cluster_control_usable(cluster) {
            let surrogate = self.route_surrogate(cluster, requester);
            match self.admit_request(cluster, surrogate) {
                Admission::Shed(_) => shed = true,
                Admission::Admit { waited_ms, .. } => {
                    self.record_surrogate_load(cluster, surrogate);
                    let served = self.fetch_admitted(cluster, requester, waited_ms);
                    if served.is_some() {
                        return FetchResult {
                            set: served,
                            level: DegradationLevel::FullAsap,
                            shed: false,
                        };
                    }
                }
            }
        }
        // Degraded service: shed by admission control, surrogate
        // unreachable, or every retry eaten. A cached set of bounded age
        // still beats probing.
        let now = self.now_ms();
        let cached = self
            .replicas
            .borrow()
            .close_set_within(cluster, now, STALE_SET_MAX_AGE_MS);
        match cached {
            Some(set) => {
                self.recovery().stale_sets_served += 1;
                FetchResult {
                    set: Some(set),
                    level: DegradationLevel::StaleCloseSet,
                    shed,
                }
            }
            None => FetchResult {
                set: None,
                level: DegradationLevel::RandomProbe,
                shed,
            },
        }
    }

    /// Serves an admitted close-set request that has already waited
    /// `waited_ms` in the admission queue: the primary's retry schedule
    /// against the injected drops, hedged to a standby once the
    /// accumulated wait crosses the hedge delay. Returns the first
    /// answer, or `None` when every attempt (and the hedge) was dropped.
    /// Wasted request/reply pairs are recorded in the ledger.
    fn fetch_admitted(
        &self,
        cluster: ClusterId,
        requester: HostId,
        waited_ms: u64,
    ) -> Option<Arc<CloseClusterSet>> {
        let capacity = self.config.capacity;
        let mut hedged = false;
        // Queue-delay hedge: the request is already `waited_ms` old
        // before the surrogate even serves it.
        if capacity.enabled && waited_ms >= capacity.hedge_delay_ms {
            hedged = true;
            if let Some(set) = self.hedge_fetch(cluster, requester) {
                return Some(set);
            }
        }
        let Some(faults) = self.message_faults.get() else {
            return Some(self.close_set_of(cluster));
        };
        let mut waited_total = waited_ms;
        for attempt in 0..=MAX_RETRIES {
            let key =
                (u64::from(requester.0) << 34) ^ (u64::from(cluster.0) << 8) ^ u64::from(attempt);
            if !faults.drops(key) {
                return Some(self.close_set_of(cluster));
            }
            // The wasted request/reply pair.
            self.scope.record(MessageKind::CloseSetRequest, 1);
            self.scope.record(MessageKind::CloseSetReply, 1);
            let backoff = backoff_ms(attempt, key);
            {
                let mut recovery = self.recovery();
                recovery.timeouts += 1;
                recovery.stabilization_ticks += backoff;
            }
            waited_total += backoff;
            // Retry-backoff hedge: the cumulative wait just crossed the
            // hedge delay.
            if capacity.enabled && !hedged && waited_total >= capacity.hedge_delay_ms {
                hedged = true;
                if let Some(set) = self.hedge_fetch(cluster, requester) {
                    return Some(set);
                }
            }
        }
        None
    }

    /// Whether `a` and `b` can exchange packets at all: same AS, or
    /// neither side behind a partition.
    fn pair_connected(&self, a: HostId, b: HostId) -> bool {
        let asn_a = self.scenario.population.host(a).asn.0;
        let asn_b = self.scenario.population.host(b).asn.0;
        if asn_a == asn_b {
            return true;
        }
        let partitioned = self.partitioned.borrow();
        !partitioned.contains(&asn_a) && !partitioned.contains(&asn_b)
    }

    /// MIX-style deterministic random probing: the last resort before
    /// going direct. Candidate relays are drawn by hashing (caller,
    /// callee, attempt) over the whole population — AS-blind, no
    /// surrogate involved — and the best responding one-hop path wins
    /// even above `latT`. Returns the best path and the probes sent.
    fn probe_relays(&self, caller: HostId, callee: HostId) -> (Option<RelayPath>, u64) {
        let host_count = self.scenario.population.hosts().len() as u64;
        let mut attempts = 0u64;
        let mut best: Option<RelayPath> = None;
        for i in 0..MIX_PROBES {
            let key = (u64::from(caller.0) << 40) ^ (u64::from(callee.0) << 16) ^ i as u64;
            let h = HostId((mix64(key) % host_count) as u32);
            if h == caller || h == callee || !self.host_usable(h) {
                continue;
            }
            attempts += 1;
            let Some((rtt, loss)) = self.scenario.one_hop_metrics(caller, h, callee) else {
                continue;
            };
            if best.as_ref().is_none_or(|b| rtt < b.rtt_ms) {
                best = Some(RelayPath {
                    relays: vec![h],
                    rtt_ms: rtt,
                    loss,
                });
            }
        }
        (best, attempts)
    }

    /// Records the rung `cluster` was served at; the ladder counts its
    /// own transitions.
    fn observe_ladder(&self, cluster: ClusterId, level: DegradationLevel) {
        self.ladders.borrow_mut()[cluster.0 as usize].observe(level);
    }

    /// Places a call (steps 5–10 of Fig. 8): ping the direct route; if it
    /// violates `latT`, walk the service ladder — `select-close-relay()`
    /// over fresh or bounded-stale close sets, then MIX-style random
    /// probing, then the direct path even above `latT`. A selection that
    /// finds no relay within the budget also keeps the direct path.
    ///
    /// Every message is recorded in the ledger scope where it is sent;
    /// the outcome's `messages` is the scope's growth across the call.
    pub fn call(&self, caller: HostId, callee: HostId) -> CallOutcome {
        let before = self.scope.total();
        let mut outcome = self.place_call(caller, callee);
        outcome.messages = self.scope.total() - before;
        {
            let mut tallies = self.stats.borrow_mut();
            if outcome.used_direct {
                tallies.direct_calls += 1;
            } else {
                tallies.relayed_calls += 1;
            }
        }
        if let Some(path) = &outcome.chosen {
            self.call_rtt.record(path.rtt_ms);
        }
        outcome
    }

    /// The protocol steps of [`AsapSystem::call`]; `messages` is left 0.
    fn place_call(&self, caller: HostId, callee: HostId) -> CallOutcome {
        // Direct-route ping + reply (or its timeout).
        self.scope.record(MessageKind::CallSetup, 2);
        let mut outcome = CallOutcome {
            direct_rtt_ms: None,
            used_direct: false,
            selection: None,
            chosen: None,
            messages: 0,
            degradation: DegradationLevel::FullAsap,
            shed_by_overload: false,
        };
        if !self.pair_connected(caller, callee) {
            // The direct ping times out, and no relay can bridge into a
            // partitioned AS either: the call fails outright.
            return outcome;
        }

        let direct = self
            .scenario
            .host_metrics(caller, callee)
            .map(|(rtt_ms, loss)| RelayPath {
                relays: Vec::new(),
                rtt_ms,
                loss,
            });
        outcome.direct_rtt_ms = direct.as_ref().map(|p| p.rtt_ms);
        if direct
            .as_ref()
            .is_some_and(|p| p.rtt_ms < self.config.lat_t_ms)
        {
            outcome.used_direct = true;
            outcome.chosen = direct;
            return outcome;
        }

        let caller_cluster = self.scenario.population.cluster_of(caller);
        let callee_cluster = self.scenario.population.cluster_of(callee);

        // A same-AS pair inside a partition can reach no relay outside:
        // serve the direct path, the last rung.
        let isolated = {
            let partitioned = self.partitioned.borrow();
            partitioned.contains(&self.scenario.population.host(caller).asn.0)
                || partitioned.contains(&self.scenario.population.host(callee).asn.0)
        };
        if isolated {
            self.recovery().forced_direct += 1;
            self.observe_ladder(caller_cluster, DegradationLevel::DirectOnly);
            outcome.degradation = DegradationLevel::DirectOnly;
            outcome.chosen = direct;
            return outcome;
        }

        let fetch1 = self.fetch_close_set_degraded(caller_cluster, caller);
        let fetch2 = self.fetch_close_set_degraded(callee_cluster, caller);
        outcome.shed_by_overload = fetch1.shed || fetch2.shed;
        let mut level = fetch1.level.max(fetch2.level);

        if let (Some(caller_set), Some(callee_set)) = (fetch1.set, fetch2.set) {
            let clustering = self.scenario.population.clustering();
            let cluster_size = |c: ClusterId| clustering.cluster(c).len() as u64;
            let sel =
                select_close_relay(&caller_set, &callee_set, &self.config, &cluster_size, |c| {
                    self.close_set_of(c)
                });
            // The selection exchange is close-set requests/replies with
            // the two surrogates (2 messages one-hop; §7.3).
            self.scope.record(
                MessageKind::CloseSetRequest,
                sel.messages - sel.messages / 2,
            );
            self.scope
                .record(MessageKind::CloseSetReply, sel.messages / 2);
            // "Comprehensively considering" the candidates: evaluate the
            // top few by true path RTT (their surrogates' measurements
            // are estimates) and keep the best. When no relay meets the
            // budget, the direct route still carries the call: ASAP ran
            // in full, so the rung stays where it is.
            outcome.chosen = self.pick_best(caller, callee, &sel, &[]).or(direct);
            outcome.selection = Some(sel);
        } else {
            level = level.max(DegradationLevel::RandomProbe);
            let (best, attempts) = self.probe_relays(caller, callee);
            self.scope.record(MessageKind::ProbeRequest, attempts);
            self.scope.record(MessageKind::ProbeReply, attempts);
            self.recovery().probe_fallbacks += 1;
            if best.is_none() {
                level = DegradationLevel::DirectOnly;
                self.recovery().forced_direct += 1;
            }
            outcome.chosen = best.or(direct);
        }

        self.observe_ladder(caller_cluster, level);
        outcome.degradation = level;
        outcome
    }

    /// Whether every relay-call slot of `host` is occupied (never, with
    /// the capacity model disabled). Selection skips a busy relay and
    /// spills over to the next candidate.
    pub fn relay_busy(&self, host: HostId) -> bool {
        self.relay_slots
            .as_ref()
            .is_some_and(|slots| slots.borrow().busy(host.0 as usize))
    }

    /// Occupies one relay-call slot on every host of `relays` (the
    /// event runtime calls this when a call starts using a path).
    /// Returns the hosts now *over* their slot limit — saturated relays
    /// the runtime must treat like crashed ones and fail away from.
    pub fn acquire_relays(&self, relays: &[HostId]) -> Vec<HostId> {
        let Some(slots) = &self.relay_slots else {
            return Vec::new();
        };
        let over: Vec<HostId> = {
            let mut slots = slots.borrow_mut();
            relays
                .iter()
                .copied()
                .filter(|&r| slots.force_acquire(r.0 as usize))
                .collect()
        };
        self.meters.saturated.add(over.len() as u64);
        over
    }

    /// Releases the relay-call slots [`AsapSystem::acquire_relays`]
    /// took (call teardown, or failover away from the path).
    pub fn release_relays(&self, relays: &[HostId]) {
        if let Some(slots) = &self.relay_slots {
            let mut slots = slots.borrow_mut();
            for &r in relays {
                slots.release(r.0 as usize);
            }
        }
    }

    /// The relay-slot occupancy high-water mark across all hosts (0
    /// when the capacity model is disabled).
    pub fn max_relay_slots_in_use(&self) -> u32 {
        self.relay_slots
            .as_ref()
            .map_or(0, |s| s.borrow().max_in_use())
    }

    /// Evaluates the top candidates of a selection against the true
    /// network and returns the best concrete path, load-aware: a relay
    /// whose call slots are full ([`AsapSystem::relay_busy`]) is skipped
    /// and the caller spills over to the next candidate. Only when *every*
    /// candidate is busy does a second, load-blind pass run — the
    /// least-bad saturated relay still beats failing the call, and the
    /// over-limit acquire that follows makes the runtime fail away from
    /// it like it would from a crash.
    fn pick_best(
        &self,
        caller: HostId,
        callee: HostId,
        selection: &CloseRelaySelection,
        dead: &[HostId],
    ) -> Option<RelayPath> {
        let mut busy_skips = 0u64;
        let best = self.pick_best_filtered(caller, callee, selection, dead, true, &mut busy_skips);
        if busy_skips == 0 {
            return best;
        }
        self.meters.busy_skips.add(busy_skips);
        if best.is_some() {
            self.meters.spillovers.inc();
            return best;
        }
        self.pick_best_filtered(caller, callee, selection, dead, false, &mut 0)
    }

    /// One candidate-evaluation pass. Relays that are unusable —
    /// offline, behind a partition (the setup ping would time out),
    /// suspected dead, or explicitly listed in `dead` — are skipped;
    /// with `skip_busy`, slot-saturated relays are skipped too and
    /// counted into `busy_skips`.
    fn pick_best_filtered(
        &self,
        caller: HostId,
        callee: HostId,
        selection: &CloseRelaySelection,
        dead: &[HostId],
        skip_busy: bool,
        busy_skips: &mut u64,
    ) -> Option<RelayPath> {
        // All one-hop candidates are evaluated (their RTT estimates are
        // already on hand from the close sets, per the paper's
        // "comprehensively considering" step); two-hop pairs are capped —
        // they only matter when the one-hop set is thin anyway.
        const TWO_HOP_SCAN: usize = 64;
        let mut best: Option<RelayPath> = None;
        // RTT and loss of a leg come from one route lookup; an unroutable
        // leg rules the candidate out.
        let mut consider = |relays: &[HostId], metrics: Option<(f64, f64)>| {
            if let Some((rtt_ms, loss)) = metrics {
                if best.as_ref().is_none_or(|b| rtt_ms < b.rtt_ms) {
                    best = Some(RelayPath {
                        relays: relays.to_vec(),
                        rtt_ms,
                        loss,
                    });
                }
            }
        };

        for r in &selection.one_hop {
            let relay = self.surrogate_of(r.cluster);
            if relay == caller
                || relay == callee
                || dead.contains(&relay)
                || !self.host_usable(relay)
            {
                continue;
            }
            if skip_busy && self.relay_busy(relay) {
                *busy_skips += 1;
                continue;
            }
            consider(
                &[relay],
                self.scenario.one_hop_metrics(caller, relay, callee),
            );
        }
        for t in selection.two_hop.iter().take(TWO_HOP_SCAN) {
            let (r1, r2) = (self.surrogate_of(t.first), self.surrogate_of(t.second));
            if r1 == r2 || [r1, r2].contains(&caller) || [r1, r2].contains(&callee) {
                continue;
            }
            if dead.contains(&r1)
                || dead.contains(&r2)
                || !self.host_usable(r1)
                || !self.host_usable(r2)
            {
                continue;
            }
            if skip_busy && (self.relay_busy(r1) || self.relay_busy(r2)) {
                *busy_skips += 1;
                continue;
            }
            consider(
                &[r1, r2],
                self.scenario.two_hop_metrics(caller, r1, r2, callee),
            );
        }
        best
    }

    /// Mid-call relay failover: the call's relay died, so re-pick from
    /// the *cached* candidate set (no new `select-close-relay()` run),
    /// skipping `dead` hosts and any cluster whose surrogates are all
    /// unusable. Falls back to a two-hop pair, then to the direct path
    /// even above `latT` — a degraded call beats a dropped one. Returns
    /// `None` only when the pair is truly partitioned.
    pub fn failover_path(
        &self,
        caller: HostId,
        callee: HostId,
        selection: &CloseRelaySelection,
        dead: &[HostId],
    ) -> Option<RelayPath> {
        // A cluster is only unusable when every surrogate is down — a
        // crash of the primary redirects `surrogate_of` to the promoted
        // standby (or re-elected replacement) automatically.
        let dead_clusters: Vec<ClusterId> = dead
            .iter()
            .map(|&h| self.scenario.population.cluster_of(h))
            .filter(|&c| self.surrogates_of(c).iter().all(|&s| !self.host_usable(s)))
            .collect();
        let filtered = selection.excluding(&dead_clusters);
        let mut best = self.pick_best(caller, callee, &filtered, dead);
        if best.is_none() && self.pair_connected(caller, callee) {
            if let Some((rtt_ms, loss)) = self.scenario.host_metrics(caller, callee) {
                best = Some(RelayPath {
                    relays: Vec::new(),
                    rtt_ms,
                    loss,
                });
            }
        }
        self.recovery().failovers += 1;
        // Re-ping of the replacement path.
        self.scope.record(MessageKind::CallSetup, 2);
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_netsim::membership::HEARTBEAT_INTERVAL_MS;
    use asap_workload::{sessions, ScenarioConfig};

    fn scenario() -> Scenario {
        Scenario::build(ScenarioConfig::tiny(), 21)
    }

    /// The tiny world with its best-connected AS congested, so routes
    /// across it turn latent and calls run relay selection (the
    /// uncongested tiny world never needs a relay).
    fn congested_scenario() -> Scenario {
        let mut s = scenario();
        let graph = &s.internet.graph;
        let hub = *graph
            .asns()
            .iter()
            .max_by_key(|&&a| (graph.degree(a), a))
            .unwrap();
        s.apply_as_congestion(hub, 400.0, 0.0);
        s
    }

    /// A cluster with at least `n` members, or a skip.
    fn cluster_with(s: &Scenario, n: usize) -> Option<ClusterId> {
        s.population
            .clustering()
            .clusters()
            .iter()
            .find(|c| c.len() >= n)
            .map(|c| c.id())
    }

    #[test]
    fn bootstrap_elects_most_capable_surrogates() {
        let s = scenario();
        let system = AsapSystem::bootstrap(&s, AsapConfig::default());
        for c in s.population.clustering().clusters() {
            let surrogate = system.surrogate_of(c.id());
            for &m in s.population.cluster_members(c.id()) {
                assert!(
                    surrogate_order(&s.population, surrogate, m).is_le(),
                    "surrogate of {:?} is not the best-scoring member",
                    c.id()
                );
            }
        }
    }

    #[test]
    fn bootstrap_keeps_standbys_warm() {
        let s = scenario();
        let system = AsapSystem::bootstrap(&s, AsapConfig::default());
        for c in s.population.clustering().clusters() {
            let rs = system.replica_set_of(c.id());
            assert!(!rs.active.is_empty());
            assert_eq!(rs.epoch, 0);
            // Standbys fill up to STANDBYS, bounded by the cluster
            // size; none overlaps the active set.
            let expect = STANDBYS.min(c.len().saturating_sub(rs.active.len()));
            assert_eq!(rs.standbys.len(), expect, "cluster {:?}", c.id());
            for sb in &rs.standbys {
                assert!(!rs.active.contains(sb));
                assert_eq!(system.relay_verdict(*sb), Verdict::Alive);
            }
        }
    }

    #[test]
    fn fast_direct_calls_skip_selection() {
        let s = scenario();
        let system = AsapSystem::bootstrap(&s, AsapConfig::default());
        // Find a fast pair.
        let fast = sessions::generate(&s.population, 200, 1)
            .into_iter()
            .find(|x| s.host_rtt_ms(x.caller, x.callee).is_some_and(|r| r < 150.0))
            .expect("some fast session exists");
        let out = system.call(fast.caller, fast.callee);
        assert!(out.used_direct);
        assert!(out.selection.is_none());
        assert_eq!(out.messages, 2);
        assert_eq!(out.degradation, DegradationLevel::FullAsap);
        assert!(out.chosen.unwrap().relays.is_empty());
    }

    #[test]
    fn slow_calls_run_selection() {
        let s = congested_scenario();
        let system = AsapSystem::bootstrap(&s, AsapConfig::default());
        let slow = sessions::generate(&s.population, 3000, 2)
            .into_iter()
            .find(|x| s.host_rtt_ms(x.caller, x.callee).is_some_and(|r| r > 300.0))
            .expect("congestion made some session latent");
        let out = system.call(slow.caller, slow.callee);
        assert!(!out.used_direct);
        assert_eq!(out.degradation, DegradationLevel::FullAsap);
        let sel = out.selection.expect("selection ran");
        assert!(out.messages >= 4); // ping + 2 selection messages
        if let Some(chosen) = &out.chosen {
            assert!(!chosen.relays.is_empty());
            // The chosen relay really is a surrogate the selection named.
            let named: Vec<HostId> =
                sel.one_hop
                    .iter()
                    .map(|r| system.surrogate_of(r.cluster))
                    .chain(sel.two_hop.iter().flat_map(|t| {
                        [system.surrogate_of(t.first), system.surrogate_of(t.second)]
                    }))
                    .collect();
            for r in &chosen.relays {
                assert!(named.contains(r));
            }
        }
    }

    #[test]
    fn calls_whose_selection_finds_no_relay_go_direct() {
        // At a tight latT many direct routes miss the budget, and for
        // most of them no relay beats it either: those calls must still
        // be carried on the direct route, not reported unroutable.
        let s = Scenario::build(ScenarioConfig::tiny(), 1);
        let config = AsapConfig {
            lat_t_ms: 150.0,
            ..AsapConfig::default()
        };
        let system = AsapSystem::bootstrap(&s, config);
        let mut fell_back = 0;
        for sess in sessions::generate(&s.population, 2000, 7) {
            let Some(direct_rtt) = s.host_rtt_ms(sess.caller, sess.callee) else {
                continue;
            };
            let out = system.call(sess.caller, sess.callee);
            let chosen = out.chosen.expect("a routable pair always gets a path");
            if chosen.relays.is_empty() && out.selection.is_some() {
                // Selection ran and found nothing: the call is served
                // direct without counting as a forced downgrade.
                assert_eq!(chosen.rtt_ms, direct_rtt);
                assert!(!out.used_direct);
                assert!(out.degradation < DegradationLevel::DirectOnly);
                fell_back += 1;
            }
        }
        assert!(fell_back > 0, "no selection came back empty");
        assert_eq!(system.stats().recovery.forced_direct, 0);
    }

    #[test]
    fn close_sets_are_cached() {
        let s = scenario();
        let system = AsapSystem::bootstrap(&s, AsapConfig::default());
        let c = s.population.clustering().clusters()[0].id();
        let a = system.close_set_of(c);
        let b = system.close_set_of(c);
        assert!(Arc::ptr_eq(&a, &b));
        let stats = system.stats();
        assert_eq!(stats.close_sets_built, 1);
        // One build (miss) then one memo hit, read from the registry
        // counters.
        assert_eq!(stats.close_set_cache_misses, 1);
        assert_eq!(stats.close_set_cache_hits, 1);
        let registry = system.telemetry().registry();
        assert_eq!(registry.counter("ASAP.cache.close_set.hits").get(), 1);
        assert_eq!(registry.counter("ASAP.cache.close_set.misses").get(), 1);
    }

    #[test]
    fn construction_counter_reconciles_with_ledger_pings() {
        // The amortized construction cost reported on each set must
        // equal the probe messages metered into the construction ledger
        // scope — same events, two views.
        let s = scenario();
        let system = AsapSystem::bootstrap(&s, AsapConfig::default());
        let mut counted = 0u64;
        for c in s.population.clustering().clusters() {
            counted += system.close_set_of(c.id()).construction_messages;
        }
        let scope = system.construction_scope();
        let metered = scope.count(MessageKind::ProbeRequest) + scope.count(MessageKind::ProbeReply);
        assert_eq!(metered, counted, "ledger probes != construction counters");
        // And the request/reply split is balanced.
        assert_eq!(
            scope.count(MessageKind::ProbeRequest),
            scope.count(MessageKind::ProbeReply)
        );
    }

    #[test]
    fn surrogate_loss_with_standby_hands_off_warm() {
        let s = scenario();
        let system = AsapSystem::bootstrap(&s, AsapConfig::default());
        let Some(cluster) = cluster_with(&s, 3) else {
            return;
        };
        let _ = system.close_set_of(cluster);
        let built_before = system.stats().close_sets_built;
        let old = system.surrogate_of(cluster);
        let standby = system.standbys_of(cluster)[0];
        let epoch_before = system.surrogate_epoch(cluster);
        let new = system.fail_surrogate(cluster);
        assert_ne!(old, new, "handoff must pick a different host");
        assert_eq!(new, standby, "the best warm standby is promoted");
        assert_eq!(system.surrogate_epoch(cluster), epoch_before + 1);
        // Warm handoff keeps dependent cache entries: no rebuild on the
        // next request.
        let _ = system.close_set_of(cluster);
        assert_eq!(system.stats().close_sets_built, built_before);
        let rec = system.stats().recovery;
        assert_eq!(rec.warm_handoffs, 1);
        assert_eq!(rec.re_elections, 0);
        assert_eq!(rec.cache_invalidations, 0);
    }

    #[test]
    fn exhausted_replica_set_cold_elects_and_purges() {
        let s = scenario();
        let system = AsapSystem::bootstrap(&s, AsapConfig::default());
        let Some(cluster) = cluster_with(&s, 2) else {
            return;
        };
        let _ = system.close_set_of(cluster);
        // Kill the acting primary over and over. Backfill keeps topping
        // the standby pool from the cluster, so the pool only runs dry
        // once nearly every member is down — crash up to the whole
        // cluster plus the replica-set margin.
        let limit =
            s.population.cluster_members(cluster).len() + system.replica_set_of(cluster).size() + 1;
        for _ in 0..limit {
            if system.stats().recovery.re_elections > 0 {
                break;
            }
            system.fail_surrogate(cluster);
        }
        let rec = system.stats().recovery;
        assert!(rec.re_elections >= 1, "quorum never failed: {rec:?}");
        assert!(rec.quorum_failures >= 1);
        // Cold election purged dependent entries.
        assert!(rec.cache_invalidations >= 1);
        assert!(!system.surrogates_of(cluster).is_empty());
    }

    #[test]
    fn silent_crash_is_caught_by_membership_ticks() {
        let s = scenario();
        let system = AsapSystem::bootstrap(&s, AsapConfig::default());
        let Some(cluster) = cluster_with(&s, 3) else {
            return;
        };
        let victim = system.surrogate_of(cluster);
        assert!(system.silent_crash(victim));
        // Nothing announced the crash: the role is still held.
        assert_eq!(system.surrogate_of(cluster), victim);
        let interval = HEARTBEAT_INTERVAL_MS;
        let mut demoted = false;
        for k in 1..=120 {
            if system.membership_tick(k * interval).contains(&victim) {
                demoted = true;
                break;
            }
        }
        assert!(demoted, "the detector never declared the victim dead");
        assert_ne!(system.surrogate_of(cluster), victim);
        let rec = system.stats().recovery;
        assert!(rec.suspected_dead >= 1);
        assert!(rec.warm_handoffs + rec.re_elections >= 1);
    }

    #[test]
    fn heartbeating_members_are_never_suspected() {
        let s = scenario();
        let system = AsapSystem::bootstrap(&s, AsapConfig::default());
        let interval = HEARTBEAT_INTERVAL_MS;
        for k in 1..=60 {
            let demoted = system.membership_tick(k * interval);
            assert!(demoted.is_empty(), "healthy node demoted at tick {k}");
        }
        assert_eq!(system.stats().recovery.suspected_dead, 0);
    }

    #[test]
    fn partition_degrades_fetch_then_heals() {
        let s = scenario();
        let system = AsapSystem::bootstrap(&s, AsapConfig::default());
        let cluster = s.population.clustering().clusters()[0].id();
        let member = s.population.cluster_members(cluster)[0];
        let asn = s.population.host(member).asn.0;
        // Warm the cache at t=0, then cut the AS off.
        let _ = system.close_set_of(cluster);
        system.partition_as(asn);
        assert!(!system.cluster_control_usable(cluster));
        let fetch = system.fetch_close_set_degraded(cluster, member);
        assert_eq!(fetch.level, DegradationLevel::StaleCloseSet);
        assert!(
            fetch.set.is_some(),
            "bounded-age cache must serve the stale rung"
        );
        assert!(!fetch.shed, "a partition is not an overload shed");
        assert_eq!(system.stats().recovery.stale_sets_served, 1);
        // Once the cached copy ages out, only probing is left.
        system.advance_to(STALE_SET_MAX_AGE_MS + 1);
        let fetch = system.fetch_close_set_degraded(cluster, member);
        assert_eq!(fetch.level, DegradationLevel::RandomProbe);
        assert!(fetch.set.is_none());
        // Healing reopens the paths, and the next membership sweep
        // delivers heartbeats again, clearing the Dead verdicts the
        // silent 120 s earned every watched node.
        system.heal_as(asn);
        system.membership_tick(STALE_SET_MAX_AGE_MS + 2);
        assert!(system.cluster_control_usable(cluster));
        let fetch = system.fetch_close_set_degraded(cluster, member);
        assert_eq!(fetch.level, DegradationLevel::FullAsap);
        assert!(fetch.set.is_some());
    }

    #[test]
    fn probing_rung_serves_calls_without_any_close_set() {
        let s = congested_scenario();
        let system = AsapSystem::bootstrap(&s, AsapConfig::default());
        // Every control message is eaten and nothing is cached: fetches
        // land on the probing rung.
        system.set_message_faults(Some(asap_netsim::MessageDrops::new(0.999, 5)));
        let slow = sessions::generate(&s.population, 3000, 2)
            .into_iter()
            .find(|x| s.host_rtt_ms(x.caller, x.callee).is_some_and(|r| r > 300.0))
            .expect("congestion made some session latent");
        let out = system.call(slow.caller, slow.callee);
        assert!(!out.used_direct);
        assert!(out.selection.is_none(), "no close set means no selection");
        assert!(out.degradation >= DegradationLevel::RandomProbe);
        // Either probing found a relay or the call went forced-direct.
        let rec = system.stats().recovery;
        assert_eq!(rec.probe_fallbacks, 1);
        match &out.chosen {
            Some(p) if !p.relays.is_empty() => {
                assert_eq!(out.degradation, DegradationLevel::RandomProbe);
                assert!(system.host_usable(p.relays[0]));
            }
            Some(_) => assert_eq!(out.degradation, DegradationLevel::DirectOnly),
            None => assert_eq!(out.degradation, DegradationLevel::DirectOnly),
        }
        // The ladder recorded the downgrade and recovers on the next
        // healthy call.
        assert!(system
            .ladder_of(s.population.cluster_of(slow.caller))
            .is_degraded());
        system.set_message_faults(None);
        let again = system.call(slow.caller, slow.callee);
        assert_eq!(again.degradation, DegradationLevel::FullAsap);
        assert!(!system
            .ladder_of(s.population.cluster_of(slow.caller))
            .is_degraded());
        assert!(system.stats().recovery.ladder_recoveries >= 1);
    }

    #[test]
    fn partitioned_pairs_cannot_call_across() {
        let s = scenario();
        let system = AsapSystem::bootstrap(&s, AsapConfig::default());
        let hosts = s.population.hosts();
        let a = hosts[0].id;
        let b = hosts
            .iter()
            .find(|h| h.asn != hosts[0].asn)
            .expect("another AS exists")
            .id;
        system.partition_as(s.population.host(a).asn.0);
        let out = system.call(a, b);
        assert!(out.chosen.is_none(), "no path can cross a partition");
        assert!(out.direct_rtt_ms.is_none());
        system.heal_as(s.population.host(a).asn.0);
        let healed = system.call(a, b);
        assert!(healed.direct_rtt_ms.is_some() || healed.chosen.is_none());
    }

    #[test]
    fn join_reports_asn_and_surrogate() {
        let s = scenario();
        let system = AsapSystem::bootstrap(&s, AsapConfig::default());
        let host = s.population.hosts()[5].id;
        let (asn, surrogate) = system.join(host);
        assert_eq!(asn, s.population.host(host).asn);
        let cluster = s.population.cluster_of(host);
        assert!(system.surrogates_of(cluster).contains(&surrogate));
        assert_eq!(system.stats().joins, 1);
        // The 4 join messages (2 round trips) land in the ledger, typed.
        let scope = system.ledger_scope();
        assert_eq!(scope.count(MessageKind::JoinRequest), 1);
        assert_eq!(scope.count(MessageKind::JoinReply), 1);
        assert_eq!(scope.count(MessageKind::CloseSetRequest), 1);
        assert_eq!(scope.count(MessageKind::CloseSetReply), 1);
        assert_eq!(scope.total(), 4);
    }

    #[test]
    fn large_clusters_elect_multiple_surrogates() {
        let s = scenario();
        let config = AsapConfig {
            members_per_surrogate: 3,
            ..Default::default()
        };
        let system = AsapSystem::bootstrap(&s, config);
        let big = s
            .population
            .clustering()
            .clusters()
            .iter()
            .find(|c| c.len() >= 7)
            .expect("some cluster with ≥7 members")
            .id();
        let surrogates = system.surrogates_of(big);
        let want = s.population.cluster_members(big).len().div_ceil(3);
        assert_eq!(surrogates.len(), want);
        // All surrogates are distinct members.
        let members = s.population.cluster_members(big);
        let mut dedup = surrogates.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), surrogates.len());
        assert!(surrogates.iter().all(|h| members.contains(h)));
    }

    #[test]
    fn close_set_requests_are_load_balanced() {
        let s = scenario();
        let config = AsapConfig {
            members_per_surrogate: 2,
            ..Default::default()
        };
        let system = AsapSystem::bootstrap(&s, config);
        let big = s
            .population
            .clustering()
            .clusters()
            .iter()
            .find(|c| c.len() >= 6)
            .expect("some cluster with ≥6 members")
            .id();
        let surrogates = system.surrogates_of(big);
        assert!(surrogates.len() >= 3);
        // Scale requests with the surrogate count so every surrogate is
        // reachable by the requester-hash spread regardless of cluster size.
        let requests = surrogates.len() as u32 * 10;
        for i in 0..requests {
            let _ = system.serving_surrogate(big, HostId(i));
        }
        for &sur in &surrogates {
            let load = system.surrogate_load(big, sur);
            assert!(load > 0, "surrogate {sur} served nothing");
            assert!(
                load <= requests as u64 / surrogates.len() as u64 + 1,
                "surrogate {sur} overloaded: {load}"
            );
        }
    }

    #[test]
    fn message_faults_cause_timeouts_but_calls_still_complete() {
        let s = congested_scenario();
        let system = AsapSystem::bootstrap(&s, AsapConfig::default());
        system.set_message_faults(Some(asap_netsim::MessageDrops::new(0.9, 77)));
        let sessions = sessions::generate(&s.population, 200, 9);
        let mut relayed = 0;
        for sess in &sessions {
            let out = system.call(sess.caller, sess.callee);
            if !out.used_direct {
                relayed += 1;
            }
        }
        assert!(relayed > 0, "congestion made no call relay");
        let rec = system.stats().recovery;
        // 90% drop probability over many fetches must hit some timeouts,
        // and every timeout is accounted as retries + messages + waiting.
        assert!(rec.timeouts > 0);
        assert_eq!(rec.retries, rec.timeouts);
        assert_eq!(rec.recovery_messages, rec.timeouts * 2);
        assert!(rec.stabilization_ticks > 0);
    }

    #[test]
    fn failover_avoids_dead_relay_and_offline_hosts() {
        let s = congested_scenario();
        let system = AsapSystem::bootstrap(&s, AsapConfig::default());
        let slow = sessions::generate(&s.population, 3000, 2)
            .into_iter()
            .find(|x| s.host_rtt_ms(x.caller, x.callee).is_some_and(|r| r > 300.0))
            .expect("congestion made some session latent");
        let out = system.call(slow.caller, slow.callee);
        let selection = out.selection.expect("latent calls run selection");
        let dead_relay = out
            .chosen
            .and_then(|chosen| chosen.relays.first().copied())
            .expect("the latent call is relayed");
        let messages_before = system.stats().recovery.recovery_messages;
        system.crash_host(dead_relay);
        let replacement = system.failover_path(slow.caller, slow.callee, &selection, &[dead_relay]);
        let path = replacement.expect("failover finds some path (direct at worst)");
        assert!(
            !path.relays.contains(&dead_relay),
            "failover re-picked the dead relay"
        );
        for r in &path.relays {
            assert!(system.is_online(*r), "failover picked an offline relay");
        }
        let rec = system.stats().recovery;
        assert_eq!(rec.failovers, 1);
        assert!(
            rec.recovery_messages >= messages_before + 2,
            "failover re-ping was not accounted: {rec:?}"
        );
    }

    #[test]
    fn crashing_non_surrogate_does_not_re_elect() {
        let s = scenario();
        let system = AsapSystem::bootstrap(&s, AsapConfig::default());
        let cluster = s
            .population
            .clustering()
            .clusters()
            .iter()
            .find(|c| c.len() >= 2)
            .expect("some multi-member cluster")
            .id();
        let surrogate = system.surrogate_of(cluster);
        let bystander = *s
            .population
            .cluster_members(cluster)
            .iter()
            .find(|&&h| h != surrogate)
            .unwrap();
        let epoch_before = system.surrogate_epoch(cluster);
        assert!(!system.crash_host(bystander));
        assert_eq!(system.surrogate_of(cluster), surrogate);
        assert_eq!(system.surrogate_epoch(cluster), epoch_before);
        assert!(!system.is_online(bystander));
        // A crashed standby never lingers in the replica set.
        assert!(!system.standbys_of(cluster).contains(&bystander));
        // Crashing the same host twice is a no-op.
        assert!(!system.crash_host(bystander));
    }

    #[test]
    fn epoch_bump_purges_dependent_cache_entries() {
        let s = scenario();
        let system = AsapSystem::bootstrap(&s, AsapConfig::default());
        let c = s.population.clustering().clusters()[0].id();
        let set = system.close_set_of(c);
        // Expire some cluster the set references (or the home cluster).
        let target = set.entries().first().map_or(c, |e| e.cluster);
        system.expire_close_set(target);
        assert!(system.stats().recovery.cache_invalidations >= 1);
        // The next request rebuilds the purged set.
        let _ = system.close_set_of(c);
        assert_eq!(system.stats().close_sets_built, 2);
    }

    #[test]
    fn burst_fetches_queue_then_shed_into_the_ladder() {
        let s = scenario();
        // A tight budget: 2 requests/s, 4-deep queue, short deadline.
        let mut config = AsapConfig::default();
        config.capacity.surrogate_budget = 2;
        config.capacity.budget_window_ms = 1000;
        config.capacity.queue_limit = 4;
        config.capacity.queue_deadline_ms = 1500;
        config.capacity.hedge_delay_ms = 10_000; // keep hedging out of this test
        let system = AsapSystem::bootstrap(&s, config);
        let cluster = s.population.clustering().clusters()[0].id();
        let member = s.population.cluster_members(cluster)[0];
        // Warm the cache so shed fetches land on the stale rung.
        let _ = system.close_set_of(cluster);
        let mut shed = 0;
        for _ in 0..16 {
            let fetch = system.fetch_close_set_degraded(cluster, member);
            if fetch.shed {
                shed += 1;
                assert_eq!(
                    fetch.level,
                    DegradationLevel::StaleCloseSet,
                    "a shed fetch with a warm cache serves the stale rung"
                );
                assert!(fetch.set.is_some(), "shedding must not lose the call");
            }
        }
        let overload = system.stats().overload;
        assert!(shed > 0, "16 instant fetches must overwhelm a 2/s budget");
        assert!(
            overload.accounted(),
            "admission lost a request: {overload:?}"
        );
        assert_eq!(overload.offered_fetches, 16);
        assert!(u64::from(system.config().capacity.queue_limit) >= overload.max_queue_depth);
        // Load subsides: the same fetch a window later is full service.
        // (A membership sweep keeps the heartbeats flowing across the
        // time jump so liveness does not confound the admission check.)
        system.membership_tick(60_000);
        let fetch = system.fetch_close_set_degraded(cluster, member);
        assert_eq!(fetch.level, DegradationLevel::FullAsap);
        assert!(!fetch.shed);
    }

    #[test]
    fn surrogate_load_only_counts_served_requests() {
        let s = scenario();
        let mut config = AsapConfig::default();
        config.capacity.surrogate_budget = 1;
        config.capacity.budget_window_ms = 1000;
        config.capacity.queue_limit = 2;
        config.capacity.queue_deadline_ms = 1000;
        config.capacity.hedge_delay_ms = 10_000;
        let system = AsapSystem::bootstrap(&s, config);
        let cluster = s.population.clustering().clusters()[0].id();
        let member = s.population.cluster_members(cluster)[0];
        for _ in 0..20 {
            let _ = system.fetch_close_set_degraded(cluster, member);
        }
        let overload = system.stats().overload;
        assert!(overload.shed_fetches() > 0);
        // Served requests — and therefore the hot-surrogate load — are
        // bounded by what admission let through, not by what was offered.
        assert_eq!(
            overload.surrogate_requests,
            overload.admitted_fetches + overload.queued_fetches
        );
        let hottest = system
            .surrogates_of(cluster)
            .iter()
            .map(|&h| system.surrogate_load(cluster, h))
            .max();
        assert_eq!(Some(overload.hot_surrogate_load), hottest);
        assert!(overload.hot_surrogate_load <= overload.surrogate_requests);
    }

    #[test]
    fn queue_delay_past_hedge_threshold_fans_out_to_a_standby() {
        let s = scenario();
        // Budget 1/s with a deep queue and a hedge delay of one slot:
        // the second instant fetch waits ≥ 1000 ms and must hedge.
        let mut config = AsapConfig::default();
        config.capacity.surrogate_budget = 1;
        config.capacity.budget_window_ms = 1000;
        config.capacity.queue_limit = 32;
        config.capacity.queue_deadline_ms = 60_000;
        config.capacity.hedge_delay_ms = 1000;
        let system = AsapSystem::bootstrap(&s, config);
        let Some(cluster) = cluster_with(&s, 3) else {
            return; // need a standby to hedge to
        };
        let member = s.population.cluster_members(cluster)[0];
        let first = system.fetch_close_set_degraded(cluster, member);
        assert_eq!(first.level, DegradationLevel::FullAsap);
        let second = system.fetch_close_set_degraded(cluster, member);
        assert_eq!(second.level, DegradationLevel::FullAsap);
        assert!(second.set.is_some());
        let overload = system.stats().overload;
        assert_eq!(overload.hedged_fetches, 1, "the queued fetch must hedge");
        assert_eq!(overload.hedge_wins, 1, "no faults: the hedge answer wins");
        // The hedge leg is exactly one request/reply pair, in the ledger
        // under the hedge kinds, attributed to the standby that served it.
        let scope = system.ledger_scope();
        assert_eq!(scope.count(MessageKind::HedgeRequest), 1);
        assert_eq!(scope.count(MessageKind::HedgeReply), 1);
        // A completed hedged fetch is served exactly once: one win, and
        // the primary leg's close set was never rebuilt a second time.
        assert!(overload.hedge_wins <= overload.hedged_fetches);
    }

    #[test]
    fn busy_relays_are_skipped_until_all_are_saturated() {
        let s = congested_scenario();
        let system = AsapSystem::bootstrap(&s, AsapConfig::default());
        let slow = sessions::generate(&s.population, 3000, 2)
            .into_iter()
            .find(|x| s.host_rtt_ms(x.caller, x.callee).is_some_and(|r| r > 300.0))
            .expect("congestion made some session latent");
        let out = system.call(slow.caller, slow.callee);
        let selection = out.selection.expect("latent calls run selection");
        let chosen = out.chosen.expect("the latent call is relayed");
        assert!(!chosen.relays.is_empty(), "the latent call is relayed");
        // Saturate the winning relay's slots; the re-pick must spill
        // over to a different relay (or go direct via failover), never
        // re-choose the busy one while alternatives exist.
        let winner = chosen.relays[0];
        let limit = {
            let occupy: Vec<HostId> = vec![winner];
            let mut acquired = 0u32;
            while system.acquire_relays(&occupy).is_empty() {
                acquired += 1;
                assert!(acquired < 10_000, "relay slot limit must be finite");
            }
            acquired
        };
        assert!(limit >= 1, "every host has at least the base slot count");
        assert!(system.relay_busy(winner));
        let repick = system.failover_path(slow.caller, slow.callee, &selection, &[]);
        let overload = system.stats().overload;
        assert!(
            overload.relay_busy_skips >= 1,
            "the busy winner was skipped"
        );
        if let Some(path) = repick {
            assert!(
                !path.relays.contains(&winner) || overload.relay_spillovers == 0,
                "spillover re-picked the saturated relay while counting a spillover"
            );
        }
        // Releasing the slots clears the verdict.
        for _ in 0..=limit {
            system.release_relays(&[winner]);
        }
        assert!(!system.relay_busy(winner));
    }

    #[test]
    fn stats_accumulate() {
        let s = scenario();
        let system = AsapSystem::bootstrap(&s, AsapConfig::default());
        let sessions = sessions::generate(&s.population, 10, 3);
        for sess in &sessions {
            system.call(sess.caller, sess.callee);
        }
        let stats = system.stats();
        assert_eq!(stats.calls, 10);
        assert_eq!(stats.direct_calls + stats.relayed_calls, 10);
        // Every call records at least its 2 setup pings in the ledger.
        assert!(system.ledger_scope().count(MessageKind::CallSetup) >= 20);
        assert!(system.ledger_scope().total() >= 20);
    }

    /// The overload meters fire with the capacity model on (fetches
    /// queue, shed and hedge; relays run out of slots) and stay at zero
    /// with it off. In both modes every offered fetch is accounted for
    /// and only admitted fetches reach a surrogate.
    #[test]
    fn overload_meters_follow_capacity_and_account_for_fetches() {
        let s = congested_scenario();
        let Some(cluster) = cluster_with(&s, 3) else {
            return; // need a standby to hedge to
        };
        let member = s.population.cluster_members(cluster)[0];
        let latent: Vec<_> = sessions::generate(&s.population, 2000, 13)
            .into_iter()
            .filter(|x| s.host_rtt_ms(x.caller, x.callee).is_some_and(|r| r > 300.0))
            .take(40)
            .collect();
        assert!(!latent.is_empty(), "congestion made no session latent");
        for enabled in [true, false] {
            let mut config = AsapConfig::default();
            config.capacity.enabled = enabled;
            config.capacity.surrogate_budget = 2;
            config.capacity.budget_window_ms = 1000;
            config.capacity.queue_limit = 4;
            config.capacity.queue_deadline_ms = 1500;
            config.capacity.hedge_delay_ms = 400;
            config.capacity.relay_slots_base = 1;
            config.capacity.relay_slots_per_capability = 1.0;
            let system = AsapSystem::bootstrap(&s, config);
            system.set_message_faults(Some(asap_netsim::MessageDrops::new(0.3, 11)));
            for _ in 0..24 {
                let _ = system.fetch_close_set_degraded(cluster, member);
            }
            // Fill every even host's relay slots past the limit, so calls
            // skip busy relays and spill over to odd ones.
            for h in (0..s.population.hosts().len() as u32).step_by(2) {
                let _ = system.acquire_relays(&[HostId(h); 3]);
            }
            for (i, sess) in latent.iter().enumerate() {
                system.membership_tick(i as u64 * 100);
                let _ = system.call(sess.caller, sess.callee);
            }

            let stats = system.stats();
            let o = stats.overload;
            if enabled {
                assert!(o.queued_fetches > 0 && o.shed_fetches() > 0 && o.hedged_fetches > 0);
                assert!(o.relay_busy_skips > 0 && o.saturated_acquires > 0);
            } else {
                assert_eq!(o.queued_fetches + o.shed_fetches() + o.hedged_fetches, 0);
                assert_eq!(o.relay_busy_skips + o.saturated_acquires, 0);
            }
            assert!(o.accounted(), "capacity {enabled}: {o:?}");
            assert_eq!(o.surrogate_requests, o.admitted_fetches + o.queued_fetches);
            assert!(o.max_queue_depth <= u64::from(config.capacity.queue_limit));
        }
    }
}
