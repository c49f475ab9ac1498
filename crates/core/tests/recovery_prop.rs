//! Seeded property tests of the fault-recovery invariants.
//!
//! Whatever sequence of crashes, forced-stale epochs, and close-set
//! fetches hits the system:
//!
//! 1. a cluster with at least one online member never has an offline
//!    surrogate (re-election is immediate and complete);
//! 2. every cluster always has a non-empty surrogate list (the protocol
//!    never loses a cluster's representative entirely).
//!
//! A third property holds after every membership sweep: no cluster with
//! a usable member keeps a `Dead` active surrogate or standby. The sweep
//! checks only the clusters of silent nodes, so this is the post-
//! condition of a scan over every cluster.
//!
//! No cached close set outlives a cold epoch change of a cluster it
//! references: the replica table purges in the same call that changes
//! the epoch, and its unit tests compare that against a cache that
//! re-checks every epoch on lookup.
//!
//! The last test drives every state-changing entry point of the system
//! in random order and re-checks the admission invariant after each
//! one. The system keeps its state in `RefCell`s, so a
//! method that called back into the system while still holding a
//! mutable borrow would panic there.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use asap_cluster::ClusterId;
use asap_core::select::CloseRelaySelection;
use asap_core::{AsapConfig, AsapSystem};
use asap_netsim::capacity::CapacityConfig;
use asap_netsim::faults::{FaultKind, FaultPlan, FaultPlanConfig, MessageDrops};
use asap_netsim::membership::{Verdict, HEARTBEAT_INTERVAL_MS};
use asap_rng::check::{check, vec};
use asap_workload::{HostId, Scenario, ScenarioConfig};

fn scenario() -> &'static Scenario {
    static SCENARIO: OnceLock<Scenario> = OnceLock::new();
    SCENARIO.get_or_init(|| Scenario::build(ScenarioConfig::tiny(), 23))
}

/// One randomized action against the running system.
fn apply(system: &AsapSystem<'_>, x: u32, action: u8) {
    let s = system.scenario();
    let hosts = s.population.hosts().len() as u32;
    let clusters = s.population.clustering().cluster_count() as u32;
    match action % 4 {
        0 => {
            system.crash_host(HostId(x % hosts));
        }
        1 => {
            system.expire_close_set(ClusterId(x % clusters));
        }
        2 => {
            let _ = system.close_set_of(ClusterId(x % clusters));
        }
        _ => {
            system.fail_surrogate(ClusterId(x % clusters));
        }
    }
}

fn check_invariants(system: &AsapSystem<'_>) {
    let s = system.scenario();
    for c in s.population.clustering().clusters() {
        let surrogates = system.surrogates_of(c.id());
        assert!(
            !surrogates.is_empty(),
            "cluster {:?} lost every surrogate",
            c.id()
        );
        let members = s.population.cluster_members(c.id());
        if members.iter().any(|&h| system.is_online(h)) {
            for sur in &surrogates {
                assert!(
                    system.is_online(*sur),
                    "cluster {:?} has an online member but offline surrogate {sur}",
                    c.id()
                );
            }
        }
    }
}

#[test]
fn recovery_invariants_hold_under_arbitrary_churn() {
    check(16, |rng| {
        let ops = vec(rng, 0..40, |rng| (rng.next_u32(), rng.next_u32() as u8));
        let s = scenario();
        let system = AsapSystem::bootstrap(s, AsapConfig::default());
        check_invariants(&system);
        for (x, action) in ops {
            apply(&system, x, action);
            check_invariants(&system);
        }
    });
}

#[test]
fn crashed_surrogates_never_serve_again() {
    check(16, |rng| {
        let crashes = vec(rng, 1..30, |rng| rng.next_u32());
        let s = scenario();
        let system = AsapSystem::bootstrap(s, AsapConfig::default());
        let hosts = s.population.hosts().len() as u32;
        for x in crashes {
            let victim = HostId(x % hosts);
            system.crash_host(victim);
            let cluster = s.population.cluster_of(victim);
            let members = s.population.cluster_members(cluster);
            if members.iter().any(|&h| system.is_online(h)) {
                assert!(
                    !system.surrogates_of(cluster).contains(&victim),
                    "crashed {victim} still listed as surrogate"
                );
            }
        }
        check_invariants(&system);
    });
}

/// What the sweep replay does at one virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Step {
    /// Heal `asn` if its latest partition has run out.
    Heal(u32),
    /// Apply fault plan event `i`.
    Fault(usize),
    /// One membership sweep.
    Tick,
}

/// No cluster with a usable member keeps a `Dead` replica.
fn check_sweep_post_condition(system: &AsapSystem<'_>, now: u64) {
    let s = system.scenario();
    for c in s.population.clustering().clusters() {
        let members = s.population.cluster_members(c.id());
        if !members.iter().any(|&h| system.host_usable(h)) {
            continue;
        }
        let rs = system.replica_set_of(c.id());
        for &h in rs.active.iter().chain(&rs.standbys) {
            assert_ne!(
                system.relay_verdict(h),
                Verdict::Dead,
                "cluster {:?} keeps dead replica {h} after the sweep at {now} ms: {rs:?}",
                c.id()
            );
        }
    }
}

/// Random schedules of silent crashes (surrogates and arbitrary hosts),
/// AS partitions and their heals, drawn by the fault plan generator the
/// event simulation uses, replayed against the system with a membership
/// sweep every heartbeat interval.
#[test]
fn sweeps_leave_no_dead_replica_in_a_usable_cluster() {
    let s = scenario();
    let hosts = s.population.hosts().len() as u32;
    let clusters = s.population.clustering().cluster_count() as u32;
    let mut asns: Vec<u32> = s.population.hosts().iter().map(|h| h.asn.0).collect();
    asns.sort_unstable();
    asns.dedup();
    let (mut demoted, mut heals) = (0, 0);
    check(24, |rng| {
        let faults = FaultPlanConfig {
            seed: rng.next_u64(),
            surrogate_crash_per_tick: rng.gen_range(0.0..0.2),
            host_crash_per_tick: rng.gen_range(0.0..0.3),
            partition_per_tick: rng.gen_range(0.0..0.1),
            ..Default::default()
        };
        let end = rng.gen_range(10_000u64..120_000);
        let plan = FaultPlan::generate(&faults, 0..end, clusters, hosts, &asns);
        let mut steps: Vec<(u64, Step)> = plan
            .events()
            .iter()
            .enumerate()
            .map(|(i, e)| (e.at_ms, Step::Fault(i)))
            .collect();
        for e in plan.events() {
            if let FaultKind::AsPartition { asn, duration_ms } = e.kind {
                steps.push((e.at_ms + duration_ms, Step::Heal(asn)));
            }
        }
        let last = steps.iter().map(|&(at, _)| at).max().unwrap_or(0);
        let mut at = HEARTBEAT_INTERVAL_MS;
        while at <= last + 20 * HEARTBEAT_INTERVAL_MS {
            steps.push((at, Step::Tick));
            at += HEARTBEAT_INTERVAL_MS;
        }
        steps.sort_unstable();

        let system = AsapSystem::bootstrap(s, AsapConfig::default());
        // ASN → end of its latest partition.
        let mut partitioned_until = BTreeMap::new();
        for (now, step) in steps {
            system.advance_to(now);
            match step {
                Step::Fault(i) => match plan.events()[i].kind {
                    FaultKind::SurrogateCrash { cluster } => {
                        system.silent_crash(system.surrogate_of(ClusterId(cluster)));
                    }
                    FaultKind::HostCrash { host } => {
                        system.silent_crash(HostId(host));
                    }
                    FaultKind::AsPartition { asn, duration_ms } => {
                        system.partition_as(asn);
                        let until = partitioned_until.entry(asn).or_insert(0);
                        *until = (*until).max(now + duration_ms);
                    }
                    other => unreachable!("fault {other:?} has a zero rate"),
                },
                Step::Heal(asn) => {
                    if partitioned_until.get(&asn).is_some_and(|&u| u <= now) {
                        partitioned_until.remove(&asn);
                        system.heal_as(asn);
                        heals += 1;
                    }
                }
                Step::Tick => {
                    demoted += system.membership_tick(now).len();
                    check_sweep_post_condition(&system, now);
                }
            }
        }
    });
    assert!(demoted > 0, "no sweep demoted a surrogate");
    assert!(heals > 0, "no partition healed");
}

/// The tiny world 23 with its best-connected AS congested, so calls
/// run relay selection and pick relays.
fn congested_scenario() -> &'static Scenario {
    static SCENARIO: OnceLock<Scenario> = OnceLock::new();
    SCENARIO.get_or_init(|| {
        let mut s = Scenario::build(ScenarioConfig::tiny(), 23);
        let graph = &s.internet.graph;
        let hub = *graph
            .asns()
            .iter()
            .max_by_key(|&&a| (graph.degree(a), a))
            .unwrap();
        s.apply_as_congestion(hub, 400.0, 0.0);
        s
    })
}

/// A relayed call kept for the failover and relay-slot actions.
struct Placed {
    caller: HostId,
    callee: HostId,
    selection: CloseRelaySelection,
    relays: Vec<HostId>,
}

#[test]
fn every_entry_point_interleaves_without_a_borrow_conflict() {
    let s = congested_scenario();
    let config = AsapConfig {
        lat_t_ms: 150.0,
        capacity: CapacityConfig {
            surrogate_budget: 1,
            budget_window_ms: 2000,
            queue_limit: 2,
            queue_deadline_ms: 500,
            hedge_delay_ms: 200,
            relay_slots_base: 1,
            relay_slots_per_capability: 1.0,
            ..Default::default()
        },
        ..Default::default()
    };
    let hosts = s.population.hosts().len() as u32;
    let clusters = s.population.clustering().cluster_count() as u32;
    let mut asns: Vec<u32> = s.population.hosts().iter().map(|h| h.asn.0).collect();
    asns.sort_unstable();
    asns.dedup();
    // How often each action did real work, summed over all cases.
    let (mut selections, mut failovers, mut offered, mut sheds) = (0, 0, 0, 0);
    check(12, |rng| {
        let ops = vec(rng, 20..120, |rng| (rng.next_u32(), rng.next_u32() % 14));
        let system = AsapSystem::bootstrap(s, config);
        let mut placed: Vec<Placed> = Vec::new();
        for (x, action) in ops {
            let host = HostId(x % hosts);
            let cluster = ClusterId(x % clusters);
            let asn = asns[x as usize % asns.len()];
            match action {
                0..=3 => {
                    let callee = HostId((x / 7 + 1 + host.0) % hosts);
                    let out = system.call(host, callee);
                    if let (Some(selection), Some(chosen)) = (out.selection, out.chosen) {
                        selections += 1;
                        let _ = system.acquire_relays(&chosen.relays);
                        placed.push(Placed {
                            caller: host,
                            callee,
                            selection,
                            relays: chosen.relays,
                        });
                    }
                }
                4 => {
                    system.silent_crash(host);
                }
                5 => {
                    system.crash_host(host);
                }
                6 => {
                    system.fail_surrogate(cluster);
                }
                7 => system.partition_as(asn),
                8 => system.heal_as(asn),
                9 => {
                    let faults = (x % 2 == 0).then(|| MessageDrops::new(0.5, u64::from(x)));
                    system.set_message_faults(faults);
                }
                10 => {
                    let _ = system.membership_tick(system.now_ms() + u64::from(x % 3_000));
                }
                11 => system.expire_close_set(cluster),
                _ if placed.is_empty() => {}
                12 => {
                    let i = x as usize % placed.len();
                    let call = &mut placed[i];
                    let dead = call.relays.clone();
                    if let Some(path) =
                        system.failover_path(call.caller, call.callee, &call.selection, &dead)
                    {
                        failovers += 1;
                        system.release_relays(&call.relays);
                        let _ = system.acquire_relays(&path.relays);
                        call.relays = path.relays;
                    }
                }
                _ => {
                    let call = placed.swap_remove(x as usize % placed.len());
                    system.release_relays(&call.relays);
                }
            }
            let overload = system.stats().overload;
            assert!(overload.accounted(), "action {action}: {overload:?}");
        }
        let overload = system.stats().overload;
        offered += overload.offered_fetches;
        sheds += overload.shed_fetches();
    });
    assert!(selections > 0, "no call ran relay selection");
    assert!(failovers > 0, "no failover found a path");
    assert!(offered > 0 && sheds > 0, "offered {offered}, shed {sheds}");
}
