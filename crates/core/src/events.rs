//! Discrete-event simulation of the full ASAP protocol machine.
//!
//! The algorithmic heart of ASAP lives in [`crate::close_set`] and
//! [`crate::select`]; this module exercises the *system* around it over
//! virtual time — hosts joining, periodically publishing nodal
//! information, surrogates failing and being replaced, calls arriving —
//! and accounts every message by type. It is the end-to-end validation
//! that the protocol machine stays consistent under churn, and the source
//! of the §6.3 traffic-load numbers.

use std::collections::{BTreeMap, BTreeSet};

use asap_cluster::ClusterId;
use asap_netsim::events::{EventQueue, SimTime};
use asap_netsim::faults::{FaultKind, FaultPlan, FaultPlanConfig, MessageDrops};
use asap_netsim::membership::{Verdict, HEARTBEAT_INTERVAL_MS};
use asap_rng::StdRng;
use asap_telemetry::{MessageKind, Span, Telemetry};
use asap_workload::sessions::Session;
use asap_workload::{HostId, Scenario};

use crate::config::AsapConfig;
use crate::ladder::DegradationLevel;
use crate::select::CloseRelaySelection;
use crate::system::{AsapSystem, OverloadStats, RecoveryStats};

/// How often end hosts publish nodal information to their surrogate,
/// virtual ms.
pub const PUBLISH_INTERVAL_MS: u64 = 60_000;

/// The nodal-information publishes a host that joins at `join_ms` sends
/// in a run that ends at `duration_ms`: one every
/// [`PUBLISH_INTERVAL_MS`] after joining, each strictly before the end
/// (the run stops at its end time, before anything else due then).
fn publishes_before_end(join_ms: u64, duration_ms: u64) -> u64 {
    duration_ms.saturating_sub(join_ms + 1) / PUBLISH_INTERVAL_MS
}

/// Message taxonomy for the load accounting. Derived at the end of a
/// run from the system's telemetry ledger scope — the simulation no
/// longer keeps parallel counters — by folding the typed
/// [`MessageKind`]s into the paper's §6.3 categories.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageCounts {
    /// Join requests/replies with bootstraps.
    pub join: u64,
    /// Close-cluster-set requests/replies with surrogates.
    pub close_set: u64,
    /// Periodic nodal-information publishes to surrogates.
    pub publish: u64,
    /// Surrogate-change notifications (bootstrap + cluster members).
    pub election: u64,
    /// Per-call messages (pings + selection).
    pub call: u64,
    /// Liveness heartbeats from monitored replica members.
    pub heartbeat: u64,
    /// Hedged close-set fetch legs to standby replicas (both the
    /// request and the reply of every hedge, win or lose).
    pub hedge: u64,
}

impl MessageCounts {
    /// Total messages of all types.
    pub fn total(&self) -> u64 {
        self.join
            + self.close_set
            + self.publish
            + self.election
            + self.call
            + self.heartbeat
            + self.hedge
    }

    /// Adds another shard's message counts into this one (plain event
    /// counts: field-wise addition is the exact combine).
    pub fn merge_from(&mut self, other: &MessageCounts) {
        self.join += other.join;
        self.close_set += other.close_set;
        self.publish += other.publish;
        self.election += other.election;
        self.call += other.call;
        self.heartbeat += other.heartbeat;
        self.hedge += other.hedge;
    }
}

/// Configuration of the protocol simulation.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Hosts join uniformly at random within this window (ms).
    pub join_window_ms: u64,
    /// Total simulated duration (ms).
    pub duration_ms: u64,
    /// Number of calls placed at random times after the join window.
    pub calls: usize,
    /// Number of random surrogate failures injected.
    pub surrogate_failures: usize,
    /// How long a placed call stays active, ms — while active, relay
    /// crashes hit it mid-call and congestion bursts degrade it.
    pub call_duration_ms: u64,
    /// Optional deterministic fault schedule driven alongside the
    /// workload (crashes, congestion, message drops, stale epochs,
    /// AS partitions), firing from `join_window_ms` until
    /// `duration_ms`.
    pub faults: Option<FaultPlanConfig>,
    /// Latest time a call may be placed (None = anytime before the end).
    /// Soak runs set `duration_ms - call_duration_ms` so every session
    /// can terminate inside the simulated window.
    pub last_call_ms: Option<u64>,
    /// When set, the end of the run heals every partition, clears
    /// message faults, runs one membership sweep, and counts clusters
    /// whose control plane is still unusable despite having online
    /// members ([`SimReport::stuck_clusters`] — the "no permanently
    /// stuck degraded mode" invariant).
    pub final_recovery_check: bool,
    /// Caller-population skew: 1.0 draws callers uniformly; above 1.0
    /// callers concentrate on a shrinking prefix of the host space
    /// (`⌊n·u^skew⌋` for uniform `u`), hammering a few clusters'
    /// surrogates — the overload-soak workload shape.
    pub caller_skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            join_window_ms: 60_000,
            duration_ms: 600_000,
            calls: 50,
            surrogate_failures: 3,
            call_duration_ms: 180_000,
            faults: None,
            last_call_ms: None,
            final_recovery_check: false,
            caller_skew: 1.0,
            seed: 0,
        }
    }
}

/// What the protocol simulation observed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimReport {
    /// Hosts that joined: the run's `JoinRequest` ledger count.
    pub joined: u64,
    /// Calls completed (direct or relayed).
    pub calls_completed: u64,
    /// Calls that found no path at all (unroutable destination).
    pub calls_without_path: u64,
    /// Surrogate failovers performed.
    pub failovers: u64,
    /// Mid-call relay failovers that found a replacement path.
    pub midcall_failovers: u64,
    /// Active calls torn down because no replacement path existed after
    /// their relay died.
    pub calls_dropped: u64,
    /// Active calls degraded by an AS congestion burst crossing one of
    /// their endpoints or relays.
    pub congestion_degraded_calls: u64,
    /// AS partitions applied.
    pub partitions: u64,
    /// Active calls torn down because an endpoint's AS was partitioned.
    pub partition_dropped_calls: u64,
    /// Calls served below the full protocol (any degraded rung).
    pub degraded_calls: u64,
    /// INVARIANT COUNTER — calls that were routed through a relay the
    /// suspicion detector had already declared dead. Must stay 0.
    pub dead_relay_calls: u64,
    /// INVARIANT COUNTER — degraded calls with no excuse: no message-drop
    /// window active and both endpoint clusters' control planes usable.
    /// Must stay 0.
    pub unexcused_degraded_calls: u64,
    /// Calls still active when the simulation ended (soak schedules keep
    /// this at 0 by bounding [`SimConfig::last_call_ms`]).
    pub unterminated_calls: u64,
    /// INVARIANT COUNTER — clusters left with an unusable control plane
    /// despite online members after the final recovery check healed all
    /// faults. Must stay 0. Only counted when
    /// [`SimConfig::final_recovery_check`] is set.
    pub stuck_clusters: u64,
    /// Protocol-side recovery counters (retries, handoffs, re-elections,
    /// ladder transitions), snapshotted from the system at the end.
    pub recovery: RecoveryStats,
    /// Capacity-model counters (admission verdicts, hedges, spillovers,
    /// surrogate-load high-water marks), snapshotted from the system at
    /// the end.
    pub overload: OverloadStats,
    /// Calls whose close-set fetch was shed by admission control and
    /// that were served from the degraded rungs instead of failing.
    pub overload_shed_calls: u64,
    /// Mid-call failovers triggered because a relay-slot acquire pushed
    /// a host over its limit (saturation treated like a crash).
    pub saturation_failovers: u64,
    /// Relay-slot occupancy high-water mark across all hosts.
    pub max_relay_slots_in_use: u32,
    /// Message counters by type.
    pub messages: MessageCounts,
    /// Virtual time at which the simulation ended.
    pub ended_at: SimTime,
}

impl SimReport {
    /// Folds another shard's report into this one. Event counts add;
    /// the nested recovery/overload stats use their own merge rules;
    /// `max_relay_slots_in_use` (a high-water mark) and `ended_at` (all
    /// shards simulate the same virtual window) take the maximum. Every
    /// combine is associative and commutative, so the parallel engine's
    /// shard-order fold equals any other grouping.
    pub fn merge_from(&mut self, other: &SimReport) {
        self.joined += other.joined;
        self.calls_completed += other.calls_completed;
        self.calls_without_path += other.calls_without_path;
        self.failovers += other.failovers;
        self.midcall_failovers += other.midcall_failovers;
        self.calls_dropped += other.calls_dropped;
        self.congestion_degraded_calls += other.congestion_degraded_calls;
        self.partitions += other.partitions;
        self.partition_dropped_calls += other.partition_dropped_calls;
        self.degraded_calls += other.degraded_calls;
        self.dead_relay_calls += other.dead_relay_calls;
        self.unexcused_degraded_calls += other.unexcused_degraded_calls;
        self.unterminated_calls += other.unterminated_calls;
        self.stuck_clusters += other.stuck_clusters;
        self.recovery.merge_from(&other.recovery);
        self.overload.merge_from(&other.overload);
        self.overload_shed_calls += other.overload_shed_calls;
        self.saturation_failovers += other.saturation_failovers;
        self.max_relay_slots_in_use = self
            .max_relay_slots_in_use
            .max(other.max_relay_slots_in_use);
        self.messages.merge_from(&other.messages);
        self.ended_at = self.ended_at.max(other.ended_at);
    }
}

/// Events driving the protocol simulation.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A host joins, and its publishes for the rest of the run are
    /// counted at once: each only adds to the ledger.
    Join(HostId),
    Call(Session),
    FailSurrogate(u32),
    /// A scheduled fault fires (index into the [`FaultPlan`]).
    Fault(usize),
    /// A windowed fault (message drops) expires.
    FaultEnd,
    /// An AS partition may heal (the ASN's latest end time is checked).
    PartitionEnd(u32),
    /// Periodic membership sweep: heartbeats + suspicion-based demotion.
    MembershipTick,
    /// An active call hangs up normally.
    EndCall(u64),
    End,
}

/// A call in progress: enough state to fail it over when its relay dies
/// and to mark it degraded when congestion crosses its path.
#[derive(Debug)]
struct ActiveCall {
    session: Session,
    /// The cached candidate set failover re-picks from (None for calls
    /// that went direct).
    selection: Option<CloseRelaySelection>,
    relays: Vec<HostId>,
    /// Relays that already died under this call (never re-picked).
    dead: Vec<HostId>,
    degraded: bool,
    /// The call's open telemetry span, closed at hangup or teardown.
    span: Span,
}

/// Runs the protocol machine over virtual time with a private telemetry
/// context under the `"ASAP"` scope.
///
/// # Panics
///
/// Panics if the scenario population is empty.
pub fn run(scenario: &Scenario, config: AsapConfig, sim: &SimConfig) -> SimReport {
    run_with(scenario, config, sim, &Telemetry::new(), "ASAP")
}

/// Runs the protocol machine over virtual time, recording every message,
/// histogram, and span into `telemetry` under the ledger scope
/// `scope_name`. The report's [`MessageCounts`] are derived from that
/// scope (deltas over the run), so several runs can share one context.
///
/// # Panics
///
/// Panics if the scenario population is empty.
pub fn run_with(
    scenario: &Scenario,
    config: AsapConfig,
    sim: &SimConfig,
    telemetry: &Telemetry,
    scope_name: &str,
) -> SimReport {
    let system = AsapSystem::bootstrap_scoped(scenario, config, telemetry, scope_name);
    let scope = system.ledger_scope().clone();
    let spans = telemetry.spans().clone();
    let base: Vec<u64> = asap_telemetry::MESSAGE_KINDS
        .iter()
        .map(|&k| scope.count(k))
        .collect();
    let mut rng = StdRng::seed_from_u64(sim.seed);
    let mut run = Run::default();
    let hosts = scenario.population.hosts();
    assert!(!hosts.is_empty(), "cannot simulate an empty population");

    for h in hosts {
        run.queue.schedule(
            SimTime(rng.gen_range(0..sim.join_window_ms.max(1))),
            Event::Join(h.id),
        );
    }
    let last_call = sim
        .last_call_ms
        .unwrap_or(sim.duration_ms)
        .max(sim.join_window_ms + 1);
    for _ in 0..sim.calls {
        // The uniform draw stays byte-for-byte on the historical RNG
        // stream; the skewed draw (⌊n·u^skew⌋) concentrates callers on a
        // prefix of the host space to hammer a few surrogates.
        let caller = if sim.caller_skew == 1.0 {
            HostId(rng.gen_range(0..hosts.len()) as u32)
        } else {
            let u: f64 = rng.gen();
            let idx = (hosts.len() as f64 * u.powf(sim.caller_skew)) as usize;
            HostId(idx.min(hosts.len() - 1) as u32)
        };
        let callee = loop {
            let c = HostId(rng.gen_range(0..hosts.len()) as u32);
            if c != caller {
                break c;
            }
        };
        let at = rng.gen_range(sim.join_window_ms..last_call);
        run.queue
            .schedule(SimTime(at), Event::Call(Session { caller, callee }));
    }
    let clusters = scenario.population.clustering().cluster_count() as u32;
    for _ in 0..sim.surrogate_failures {
        let at = rng.gen_range(sim.join_window_ms..sim.duration_ms.max(sim.join_window_ms + 1));
        run.queue.schedule(
            SimTime(at),
            Event::FailSurrogate(rng.gen_range(0..clusters)),
        );
    }
    let plan = sim.faults.as_ref().map(|fc| {
        let mut asns: Vec<u32> = hosts.iter().map(|h| h.asn.0).collect();
        asns.sort_unstable();
        asns.dedup();
        let window = sim.join_window_ms..sim.duration_ms;
        let plan = FaultPlan::generate(fc, window, clusters, hosts.len() as u32, &asns);
        for (i, e) in plan.events().iter().enumerate() {
            run.queue.schedule(SimTime(e.at_ms), Event::Fault(i));
        }
        plan
    });
    let plan = plan.unwrap_or_default();
    // Membership sweeps at the heartbeat cadence for the whole run.
    let mut tick_at = HEARTBEAT_INTERVAL_MS;
    while tick_at < sim.duration_ms {
        run.queue.schedule(SimTime(tick_at), Event::MembershipTick);
        tick_at += HEARTBEAT_INTERVAL_MS;
    }
    run.queue.schedule(SimTime(sim.duration_ms), Event::End);

    while let Some((now, event)) = run.queue.pop() {
        system.advance_to(now.as_ms());
        match event {
            Event::End => {
                run.report.ended_at = now;
                run.report.unterminated_calls = run.active.len() as u64;
                if sim.final_recovery_check {
                    // Heal everything, give the detector one sweep, and
                    // verify no cluster is stuck degraded: every cluster
                    // with an online member must be able to serve again.
                    for &asn in run.partitioned_until.keys() {
                        system.heal_as(asn);
                    }
                    system.set_message_faults(None);
                    let _ = system.membership_tick(now.as_ms());
                    for c in scenario.population.clustering().clusters() {
                        let members = scenario.population.cluster_members(c.id());
                        let any_online = members.iter().any(|&h| system.is_online(h));
                        if any_online && !system.cluster_control_usable(c.id()) {
                            run.report.stuck_clusters += 1;
                        }
                    }
                }
                break;
            }
            Event::Join(h) => {
                let _ = system.join(h);
                scope.record(
                    MessageKind::Publish,
                    publishes_before_end(now.as_ms(), sim.duration_ms),
                );
            }
            Event::Call(session) => {
                let outcome = system.call(session.caller, session.callee);
                if outcome.shed_by_overload {
                    run.report.overload_shed_calls += 1;
                }
                if outcome.degradation > DegradationLevel::FullAsap {
                    run.report.degraded_calls += 1;
                    // A downgrade is legitimate only while the control
                    // plane is actually impaired: a drop window is live,
                    // an endpoint cluster cannot answer, or admission
                    // control shed the fetch to protect a surrogate.
                    let caller_cluster = scenario.population.cluster_of(session.caller);
                    let callee_cluster = scenario.population.cluster_of(session.callee);
                    let excused = outcome.shed_by_overload
                        || !run.drop_window_spans.is_empty()
                        || !system.cluster_control_usable(caller_cluster)
                        || !system.cluster_control_usable(callee_cluster)
                        || system.is_partitioned(scenario.population.host(session.caller).asn.0)
                        || system.is_partitioned(scenario.population.host(session.callee).asn.0);
                    if !excused {
                        run.report.unexcused_degraded_calls += 1;
                    }
                }
                if let Some(chosen) = outcome.chosen {
                    for &r in &chosen.relays {
                        if system.relay_verdict(r) == Verdict::Dead {
                            run.report.dead_relay_calls += 1;
                        }
                    }
                    run.report.calls_completed += 1;
                    let mut call = ActiveCall {
                        session,
                        selection: outcome.selection,
                        relays: chosen.relays,
                        dead: Vec::new(),
                        degraded: false,
                        span: spans.start("call", now.as_ms()),
                    };
                    if call_touches_congestion(scenario, &call, &run.congested_until, now.as_ms()) {
                        call.degraded = true;
                        run.report.congestion_degraded_calls += 1;
                    }
                    // The path starts carrying media: occupy one relay
                    // slot per relay. Saturated relays are treated like
                    // crashed ones — every call through them fails over.
                    let saturated = system.acquire_relays(&call.relays);
                    let id = run.next_call_id;
                    run.next_call_id += 1;
                    run.active.insert(id, call);
                    run.queue
                        .schedule(now.after_ms(sim.call_duration_ms), Event::EndCall(id));
                    for r in saturated {
                        run.report.saturation_failovers += 1;
                        run.fail_over_calls(&system, r, now);
                    }
                } else {
                    run.report.calls_without_path += 1;
                }
            }
            Event::EndCall(id) => {
                if let Some(call) = run.active.remove(&id) {
                    system.release_relays(&call.relays);
                    spans.end(call.span, now.as_ms());
                }
            }
            Event::FailSurrogate(cluster) => {
                let id = ClusterId(cluster);
                let old = system.surrogate_of(id);
                let _ = system.fail_surrogate(id);
                run.report.failovers += 1;
                run.fail_over_calls(&system, old, now);
            }
            Event::Fault(i) => {
                run.apply_fault(scenario, &system, plan.events()[i].kind, i, now, sim);
            }
            Event::FaultEnd => {
                // Only message-drop windows schedule an end event.
                if let Some(span) = run.drop_window_spans.pop() {
                    spans.end(span, now.as_ms());
                }
                if run.drop_window_spans.is_empty() {
                    system.set_message_faults(None);
                }
            }
            Event::PartitionEnd(asn) => {
                // Heal only once the *latest* overlapping partition of
                // this ASN has run out.
                if let Some(&(until, span)) = run.partitioned_until.get(&asn) {
                    if until <= now.as_ms() {
                        run.partitioned_until.remove(&asn);
                        system.heal_as(asn);
                        spans.end(span, now.as_ms());
                    }
                }
            }
            Event::MembershipTick => {
                for h in system.membership_tick(now.as_ms()) {
                    // The surrogate role moved on; calls still relayed
                    // through the suspect must fail over too.
                    run.report.failovers += 1;
                    run.fail_over_calls(&system, h, now);
                }
            }
        }
    }
    let mut report = run.report;
    let stats = system.stats();
    report.recovery = stats.recovery;
    report.overload = stats.overload;
    report.max_relay_slots_in_use = system.max_relay_slots_in_use();
    let delta = |k: MessageKind| scope.count(k) - base[k as usize];
    report.joined = delta(MessageKind::JoinRequest);
    report.messages = MessageCounts {
        join: delta(MessageKind::JoinRequest) + delta(MessageKind::JoinReply),
        close_set: delta(MessageKind::CloseSetRequest) + delta(MessageKind::CloseSetReply),
        publish: delta(MessageKind::Publish),
        election: delta(MessageKind::Election) + delta(MessageKind::Handoff),
        call: delta(MessageKind::CallSetup)
            + delta(MessageKind::ProbeRequest)
            + delta(MessageKind::ProbeReply),
        heartbeat: delta(MessageKind::Heartbeat),
        hedge: delta(MessageKind::HedgeRequest) + delta(MessageKind::HedgeReply),
    };
    report
}

/// The event loop's own state: the queue, the calls in progress, the
/// live fault windows with their telemetry spans, and the report so far.
/// A message-drop window is live while its span is on the stack.
#[derive(Default)]
struct Run {
    queue: EventQueue<Event>,
    /// BTreeMap so iteration (failover scans, congestion marking) is
    /// deterministic.
    active: BTreeMap<u64, ActiveCall>,
    next_call_id: u64,
    /// ASN → congestion-burst end time (virtual ms).
    congested_until: BTreeMap<u32, u64>,
    /// ASN → partition end time (virtual ms) and the partition's open
    /// telemetry span.
    partitioned_until: BTreeMap<u32, (u64, Span)>,
    /// Open telemetry spans of the (possibly overlapping) message-drop
    /// windows, a LIFO stack.
    drop_window_spans: Vec<Span>,
    report: SimReport,
}

impl Run {
    /// Applies one scheduled fault to the running system.
    ///
    /// Plan-driven crashes are *silent*: the victim disappears without
    /// any notification, and its replica roles are only recovered once
    /// the suspicion detector declares it dead at a membership tick.
    /// Calls relayed through it notice immediately (the media stream
    /// stops) and fail over right away.
    fn apply_fault(
        &mut self,
        scenario: &Scenario,
        system: &AsapSystem<'_>,
        kind: FaultKind,
        index: usize,
        now: SimTime,
        sim: &SimConfig,
    ) {
        let spans = system.telemetry().spans().clone();
        match kind {
            FaultKind::SurrogateCrash { cluster } => {
                let victim = system.surrogate_of(ClusterId(cluster));
                let _ = system.silent_crash(victim);
                self.fail_over_calls(system, victim, now);
            }
            FaultKind::HostCrash { host } => {
                let victim = HostId(host);
                let _ = system.silent_crash(victim);
                self.fail_over_calls(system, victim, now);
            }
            FaultKind::AsPartition { asn, duration_ms } => {
                system.partition_as(asn);
                self.report.partitions += 1;
                let (until, _) = self
                    .partitioned_until
                    .entry(asn)
                    .or_insert_with(|| (0, spans.start("partition", now.as_ms())));
                *until = (*until).max(now.as_ms() + duration_ms);
                self.queue
                    .schedule(now.after_ms(duration_ms), Event::PartitionEnd(asn));
                // Calls with an endpoint inside the cut AS lose their
                // media path outright.
                let of = |h: HostId| scenario.population.host(h).asn.0;
                let severed: Vec<u64> = self
                    .active
                    .iter()
                    .filter(|(_, c)| (of(c.session.caller) == asn) != (of(c.session.callee) == asn))
                    .map(|(&id, _)| id)
                    .collect();
                for id in severed {
                    if let Some(call) = self.active.remove(&id) {
                        system.release_relays(&call.relays);
                        spans.end(call.span, now.as_ms());
                    }
                    self.report.partition_dropped_calls += 1;
                }
                // Calls merely *relayed* through the cut AS fail over.
                let dead_relays: BTreeSet<HostId> = self
                    .active
                    .values()
                    .flat_map(|c| c.relays.iter().copied())
                    .filter(|&r| of(r) == asn)
                    .collect();
                for r in dead_relays {
                    self.fail_over_calls(system, r, now);
                }
            }
            FaultKind::AsCongestion {
                asn, duration_ms, ..
            } => {
                let until = self.congested_until.entry(asn).or_insert(0);
                *until = (*until).max(now.as_ms() + duration_ms);
                for call in self.active.values_mut() {
                    if !call.degraded && call_touches_asn(scenario, call, asn) {
                        call.degraded = true;
                        self.report.congestion_degraded_calls += 1;
                    }
                }
            }
            FaultKind::MessageDropWindow {
                drop_prob,
                duration_ms,
            } => {
                self.drop_window_spans
                    .push(spans.start("drop_window", now.as_ms()));
                system.set_message_faults(Some(MessageDrops::new(
                    drop_prob,
                    sim.seed ^ ((index as u64) << 20) ^ 0xD20F,
                )));
                self.queue
                    .schedule(now.after_ms(duration_ms), Event::FaultEnd);
            }
            FaultKind::StaleCloseSet { cluster } => {
                system.expire_close_set(ClusterId(cluster));
            }
        }
    }

    /// Fails over every active call relayed through `dead_host`: re-pick
    /// from the cached candidate set, or tear the call down when even
    /// the direct fallback is unroutable.
    fn fail_over_calls(&mut self, system: &AsapSystem<'_>, dead_host: HostId, now: SimTime) {
        let affected: Vec<u64> = self
            .active
            .iter()
            .filter(|(_, c)| c.relays.contains(&dead_host))
            .map(|(&id, _)| id)
            .collect();
        for id in affected {
            let call = self.active.get_mut(&id).expect("collected from the map");
            call.dead.push(dead_host);
            // The failover re-ping is recorded in the system's ledger scope.
            let replacement = call.selection.as_ref().and_then(|sel| {
                system.failover_path(call.session.caller, call.session.callee, sel, &call.dead)
            });
            match replacement {
                Some(path) => {
                    // Swap the slot occupancy to the replacement path. A
                    // cascade (the replacement saturating too) is not
                    // chased here: the load-aware re-pick already routed
                    // around busy relays, and the next placement will
                    // again.
                    system.release_relays(&call.relays);
                    let _ = system.acquire_relays(&path.relays);
                    call.relays = path.relays;
                    self.report.midcall_failovers += 1;
                }
                None => {
                    self.report.calls_dropped += 1;
                    let call = self.active.remove(&id).expect("still in the map");
                    system.release_relays(&call.relays);
                    system.telemetry().spans().end(call.span, now.as_ms());
                }
            }
        }
    }
}

/// Whether any endpoint or relay of `call` sits in `asn`.
fn call_touches_asn(scenario: &Scenario, call: &ActiveCall, asn: u32) -> bool {
    let of = |h: HostId| scenario.population.host(h).asn.0;
    of(call.session.caller) == asn
        || of(call.session.callee) == asn
        || call.relays.iter().any(|&r| of(r) == asn)
}

/// Whether `call` crosses any AS whose congestion burst is still live at
/// `now_ms`.
fn call_touches_congestion(
    scenario: &Scenario,
    call: &ActiveCall,
    congested_until: &BTreeMap<u32, u64>,
    now_ms: u64,
) -> bool {
    congested_until
        .iter()
        .any(|(&asn, &until)| until > now_ms && call_touches_asn(scenario, call, asn))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_workload::ScenarioConfig;

    fn scenario() -> Scenario {
        Scenario::build(ScenarioConfig::tiny(), 17)
    }

    /// The tiny world of `seed` with its best-connected AS congested, so
    /// routes across it turn latent and calls run relay selection (the
    /// uncongested tiny world never needs a relay).
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

    #[test]
    fn every_host_joins_and_publishes() {
        let s = scenario();
        let report = run(&s, AsapConfig::default(), &SimConfig::default());
        assert_eq!(report.joined, s.population.hosts().len() as u64);
        // Each host publishes roughly duration/interval times.
        let expected = report.joined * (SimConfig::default().duration_ms / PUBLISH_INTERVAL_MS - 1);
        assert!(report.messages.publish >= expected / 2, "too few publishes");
    }

    #[test]
    fn publishes_due_at_the_end_are_not_sent() {
        const P: u64 = PUBLISH_INTERVAL_MS;
        let end = 10 * P;
        // A join exactly one interval before the end: its first publish
        // is due at the end, so none is sent.
        assert_eq!(publishes_before_end(end - P, end), 0);
        // Less than one interval before the end: none either.
        assert_eq!(publishes_before_end(end - P + 1, end), 0);
        assert_eq!(publishes_before_end(end - 1, end), 0);
        // Just over one interval before: exactly one.
        assert_eq!(publishes_before_end(end - P - 1, end), 1);
        // The end an exact multiple of intervals after the join: the
        // last one is due at the end and dropped.
        assert_eq!(publishes_before_end(0, end), 9);
        assert_eq!(publishes_before_end(3 * P, end), 6);
        // Joining at or after the end sends nothing.
        assert_eq!(publishes_before_end(end, end), 0);
        assert_eq!(publishes_before_end(end + P, end), 0);
    }

    #[test]
    fn calls_complete_under_churn() {
        let s = scenario();
        let sim = SimConfig {
            calls: 30,
            surrogate_failures: 5,
            ..Default::default()
        };
        let report = run(&s, AsapConfig::default(), &sim);
        assert_eq!(report.calls_completed + report.calls_without_path, 30);
        assert!(report.calls_completed > 0, "no call completed at all");
        assert_eq!(report.failovers, 5);
    }

    #[test]
    fn simulation_is_deterministic() {
        let s = scenario();
        let sim = SimConfig::default();
        let a = run(&s, AsapConfig::default(), &sim);
        let b = run(&s, AsapConfig::default(), &sim);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.calls_completed, b.calls_completed);
    }

    #[test]
    fn message_totals_add_up() {
        let s = scenario();
        let report = run(&s, AsapConfig::default(), &SimConfig::default());
        let m = report.messages;
        assert_eq!(
            m.total(),
            m.join + m.close_set + m.publish + m.election + m.call + m.heartbeat + m.hedge
        );
        assert!(m.total() > 0);
    }

    fn faulty_sim() -> SimConfig {
        SimConfig {
            calls: 40,
            surrogate_failures: 0,
            faults: Some(FaultPlanConfig {
                seed: 3,
                surrogate_crash_per_tick: 0.02,
                host_crash_per_tick: 0.02,
                congestion_per_tick: 0.01,
                drop_window_per_tick: 0.01,
                stale_close_set_per_tick: 0.01,
                partition_per_tick: 0.005,
                ..Default::default()
            }),
            ..Default::default()
        }
    }

    #[test]
    fn faulty_run_is_deterministic() {
        let s = scenario();
        let sim = faulty_sim();
        let a = run(&s, AsapConfig::default(), &sim);
        let b = run(&s, AsapConfig::default(), &sim);
        assert_eq!(a, b, "same seed must reproduce the whole report");
    }

    #[test]
    fn faults_exercise_recovery_without_losing_the_workload() {
        let s = scenario();
        let report = run(&s, AsapConfig::default(), &faulty_sim());
        // The workload is fully accounted: every call either completed
        // at setup or had no path; drops only come from the active set.
        assert_eq!(report.calls_completed + report.calls_without_path, 40);
        assert!(report.calls_completed > 0, "faults wiped out every call");
        assert!(report.calls_dropped <= report.calls_completed);
        // ~10 expected surrogate crashes over 540 ticks at 2%/tick: the
        // suspicion detector must have demoted victims, and every
        // demotion resolved as a warm handoff or a cold re-election.
        assert!(
            report.recovery.suspected_dead > 0,
            "no silent crash was ever suspected: {:?}",
            report.recovery
        );
        assert!(
            report.recovery.warm_handoffs + report.recovery.re_elections > 0,
            "no surrogate loss was ever recovered: {:?}",
            report.recovery
        );
        assert!(report.failovers > 0);
        // The invariants hold even under this unexcused-hostile mix.
        assert_eq!(report.dead_relay_calls, 0);
        assert_eq!(report.unexcused_degraded_calls, 0);
        // Every mid-call failover spent its re-ping.
        assert!(report.recovery.recovery_messages >= 2 * report.midcall_failovers);
    }

    #[test]
    fn partition_churn_honors_soak_invariants() {
        // World 17's partitions never cut an endpoint AS of a live call;
        // world 18 is the first from 17 up whose run degrades service.
        let s = congested_scenario(18);
        let sim = SimConfig {
            calls: 60,
            surrogate_failures: 0,
            duration_ms: 600_000,
            call_duration_ms: 120_000,
            last_call_ms: Some(600_000 - 120_000),
            final_recovery_check: true,
            faults: Some(FaultPlanConfig {
                seed: 11,
                surrogate_crash_per_tick: 0.01,
                host_crash_per_tick: 0.01,
                partition_per_tick: 0.02,
                drop_window_per_tick: 0.01,
                ..Default::default()
            }),
            ..Default::default()
        };
        let report = run(&s, AsapConfig::default(), &sim);
        assert!(report.partitions > 0, "no partition was ever injected");
        assert_eq!(report.dead_relay_calls, 0);
        assert_eq!(report.unexcused_degraded_calls, 0);
        assert_eq!(report.unterminated_calls, 0);
        assert_eq!(report.stuck_clusters, 0);
        // Degraded service actually happened and was recorded.
        assert!(report.degraded_calls > 0 || report.partition_dropped_calls > 0);
    }

    #[test]
    fn skewed_overload_sheds_without_losing_the_workload() {
        let s = congested_scenario(17);
        // Tight capacity + heavily skewed callers: a few surrogates get
        // hammered and must queue, shed, and hedge — without losing a
        // single call or tripping an invariant.
        let config = AsapConfig {
            lat_t_ms: 150.0, // force relay selection at tiny scale
            capacity: asap_netsim::capacity::CapacityConfig {
                surrogate_budget: 2,
                budget_window_ms: 1000,
                queue_limit: 8,
                queue_deadline_ms: 1500,
                hedge_delay_ms: 200,
                relay_slots_base: 1,
                relay_slots_per_capability: 2.0,
                ..Default::default()
            },
            ..Default::default()
        };
        let sim = SimConfig {
            calls: 120,
            surrogate_failures: 0,
            caller_skew: 4.0,
            duration_ms: 120_000,
            call_duration_ms: 60_000,
            last_call_ms: Some(60_000),
            ..Default::default()
        };
        let report = run(&s, config, &sim);
        // Every offered call and every offered fetch is accounted for.
        assert_eq!(report.calls_completed + report.calls_without_path, 120);
        assert!(report.overload.accounted(), "{:?}", report.overload);
        assert!(report.overload.offered_fetches > 0);
        // Shedding excuses the degradation it causes.
        assert_eq!(report.dead_relay_calls, 0);
        assert_eq!(report.unexcused_degraded_calls, 0);
        // The queue bound held.
        assert!(
            report.overload.max_queue_depth <= u64::from(config.capacity.queue_limit),
            "queue depth escaped its bound: {:?}",
            report.overload
        );
        // Determinism: the whole report reproduces bit-for-bit.
        let again = run(&s, config, &sim);
        assert_eq!(report, again);
    }

    #[test]
    fn healthy_run_reports_no_recovery() {
        let s = scenario();
        let sim = SimConfig {
            surrogate_failures: 0,
            faults: None,
            ..Default::default()
        };
        let report = run(&s, AsapConfig::default(), &sim);
        assert_eq!(report.recovery, RecoveryStats::default());
        assert_eq!(report.midcall_failovers, 0);
        assert_eq!(report.calls_dropped, 0);
        assert_eq!(report.congestion_degraded_calls, 0);
    }

    #[test]
    fn ends_at_configured_duration() {
        let s = scenario();
        let sim = SimConfig {
            duration_ms: 120_000,
            ..Default::default()
        };
        let report = run(&s, AsapConfig::default(), &sim);
        assert_eq!(report.ended_at, SimTime(120_000));
    }
}
