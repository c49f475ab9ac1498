//! Seeded property tests for `select-close-relay()` over arbitrary close
//! cluster sets, close-set invariants on a shared scenario, and a
//! differential oracle for the Fig. 9 close-set construction.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use asap_cluster::{Asn, ClusterId};
use asap_core::close_set::{
    construct_close_cluster_set, construct_close_cluster_set_with_mode, CloseClusterEntry,
    CloseClusterSet, ClusterIndex, SearchMode,
};
use asap_core::select::{select_close_relay, CloseRelaySelection, OneHopRelay, TwoHopRelay};
use asap_core::{AsapConfig, AsapSystem};
use asap_netsim::{AsCondition, NetConfig, NetModel, RELAY_DELAY_RTT_MS};
use asap_rng::check::{check, vec};
use asap_rng::StdRng;
use asap_topology::valley::{bounded_search, bounded_search_unconstrained, Expand, Reached};
use asap_topology::{AsTier, EdgeKind};
use asap_workload::{sessions, HostId, Scenario, ScenarioConfig};

fn shared_scenario() -> &'static Scenario {
    static SCENARIO: OnceLock<Scenario> = OnceLock::new();
    SCENARIO.get_or_init(|| Scenario::build(ScenarioConfig::tiny(), 99))
}

fn arb_entry(rng: &mut StdRng) -> CloseClusterEntry {
    let c = rng.gen_range(0..40);
    CloseClusterEntry {
        cluster: ClusterId(c),
        rtt_ms: rng.gen_range(1.0..280.0),
        loss: rng.gen_range(0.0..0.04),
        as_hops: rng.gen_range(0..5),
    }
}

fn arb_set(rng: &mut StdRng) -> CloseClusterSet {
    CloseClusterSet::from_entries(vec(rng, 0..24, arb_entry))
}

#[test]
fn one_hop_results_respect_latency_threshold() {
    check(256, |rng| {
        let caller = arb_set(rng);
        let callee = arb_set(rng);
        let config = AsapConfig {
            size_t: 0,
            ..Default::default()
        };
        let sel = select_close_relay(&caller, &callee, &config, &|_| 3, &mut |_| {
            CloseClusterSet::default()
        });
        for r in &sel.one_hop {
            assert!(r.est_rtt_ms < config.lat_t_ms);
            // The estimate is the sum of both legs plus the relay delay.
            let (e1, e2) = (
                caller.get(r.cluster).unwrap(),
                callee.get(r.cluster).unwrap(),
            );
            assert!((r.est_rtt_ms - (e1.rtt_ms + e2.rtt_ms + RELAY_DELAY_RTT_MS)).abs() < 1e-9);
        }
        // Sorted ascending.
        for w in sel.one_hop.windows(2) {
            assert!(w[0].est_rtt_ms <= w[1].est_rtt_ms);
        }
        // One-hop clusters are exactly the thresholded intersection.
        for e1 in caller.entries() {
            let qualifies = callee
                .get(e1.cluster)
                .is_some_and(|e2| e1.rtt_ms + e2.rtt_ms + RELAY_DELAY_RTT_MS < config.lat_t_ms);
            assert_eq!(
                sel.one_hop.iter().any(|r| r.cluster == e1.cluster),
                qualifies
            );
        }
    });
}

#[test]
fn quality_paths_equal_member_weights() {
    check(256, |rng| {
        let caller = arb_set(rng);
        let callee = arb_set(rng);
        let size = rng.gen_range(1u64..50);
        let config = AsapConfig {
            size_t: 0,
            ..Default::default()
        };
        let sel = select_close_relay(&caller, &callee, &config, &|_| size, &mut |_| {
            CloseClusterSet::default()
        });
        assert_eq!(sel.quality_paths(), sel.one_hop.len() as u64 * size);
    });
}

#[test]
fn message_accounting_matches_expansion() {
    check(256, |rng| {
        let caller = arb_set(rng);
        let callee = arb_set(rng);
        let config = AsapConfig::default(); // size_t = 300: tiny sets expand
        let mut fetches = 0u64;
        let sel = select_close_relay(&caller, &callee, &config, &|_| 1, &mut |_| {
            fetches += 1;
            CloseClusterSet::default()
        });
        if sel.expanded_two_hop {
            assert_eq!(fetches, caller.len() as u64);
            assert_eq!(sel.messages, 2 + 2 * fetches);
        } else {
            assert_eq!(sel.messages, 2);
            assert_eq!(fetches, 0);
        }
    });
}

#[test]
fn two_hop_paths_respect_threshold() {
    check(256, |rng| {
        let caller = arb_set(rng);
        let callee = arb_set(rng);
        let mid = arb_set(rng);
        let config = AsapConfig::default();
        let sel = select_close_relay(&caller, &callee, &config, &|_| 1, &mut |_| mid.clone());
        for t in &sel.two_hop {
            assert!(t.est_rtt_ms < config.lat_t_ms);
            assert!(caller.contains(t.first));
            assert!(callee.contains(t.second));
            assert!(mid.contains(t.second));
            assert_ne!(t.first, t.second);
        }
    });
}

#[test]
fn best_estimate_is_global_minimum() {
    check(256, |rng| {
        let caller = arb_set(rng);
        let callee = arb_set(rng);
        let config = AsapConfig {
            size_t: 0,
            ..Default::default()
        };
        let sel = select_close_relay(&caller, &callee, &config, &|_| 1, &mut |_| {
            CloseClusterSet::default()
        });
        if let Some(best) = sel.best_est_rtt_ms() {
            for r in &sel.one_hop {
                assert!(best <= r.est_rtt_ms + 1e-12);
            }
        } else {
            assert!(sel.one_hop.is_empty() && sel.two_hop.is_empty());
        }
    });
}

/// Fig. 10 written out plainly: hash lookups into the callee set, no
/// pruning, and a fetch that hands back an owned copy of each set. The
/// differential test below holds the library to it bit for bit.
fn reference_select_close_relay(
    caller_set: &CloseClusterSet,
    callee_set: &CloseClusterSet,
    config: &AsapConfig,
    cluster_size: &dyn Fn(ClusterId) -> u64,
    fetch_close_set: &mut dyn FnMut(ClusterId) -> CloseClusterSet,
) -> CloseRelaySelection {
    let mut sel = CloseRelaySelection {
        messages: 2,
        ..Default::default()
    };
    for e1 in caller_set.entries() {
        let Some(e2) = callee_set.get(e1.cluster) else {
            continue;
        };
        let est_rtt_ms = e1.rtt_ms + e2.rtt_ms + RELAY_DELAY_RTT_MS;
        if est_rtt_ms < config.lat_t_ms {
            sel.one_hop.push(OneHopRelay {
                cluster: e1.cluster,
                est_rtt_ms,
                est_loss: 1.0 - (1.0 - e1.loss) * (1.0 - e2.loss),
                member_ips: cluster_size(e1.cluster),
            });
        }
    }
    sel.one_hop
        .sort_by(|a, b| a.est_rtt_ms.total_cmp(&b.est_rtt_ms));
    let one_hop_ips: u64 = sel.one_hop.iter().map(|r| r.member_ips).sum();
    if (one_hop_ips as usize) < config.size_t {
        sel.expanded_two_hop = true;
        for e1 in caller_set.entries() {
            sel.messages += 2;
            let r1_set = fetch_close_set(e1.cluster);
            for e12 in r1_set.entries() {
                if e12.cluster == e1.cluster {
                    continue;
                }
                let Some(e2) = callee_set.get(e12.cluster) else {
                    continue;
                };
                let est_rtt_ms = e1.rtt_ms + e12.rtt_ms + e2.rtt_ms + 2.0 * RELAY_DELAY_RTT_MS;
                if est_rtt_ms < config.lat_t_ms {
                    sel.two_hop.push(TwoHopRelay {
                        first: e1.cluster,
                        second: e12.cluster,
                        est_rtt_ms,
                        member_pairs: cluster_size(e1.cluster) * cluster_size(e12.cluster),
                    });
                }
            }
        }
        sel.two_hop
            .sort_by(|a, b| a.est_rtt_ms.total_cmp(&b.est_rtt_ms));
    }
    sel
}

/// An entry of cluster `0..max_cluster` whose RTT is often on, or just
/// either side of, the pruning boundary `rtt + 80 ms = latT` of the
/// default `latT = 300 ms`: one ulp of the RTT away, and one ulp of the
/// sum away. Zero RTTs are common, so near-boundary pairs can qualify.
fn arb_boundary_entry(rng: &mut StdRng, max_cluster: u32) -> CloseClusterEntry {
    let lat_t = AsapConfig::default().lat_t_ms;
    let boundary = lat_t - 2.0 * RELAY_DELAY_RTT_MS;
    let c = rng.gen_range(0..max_cluster);
    // Weights 4 (uniform), 2 (zero), then 1 for each boundary value.
    let rtt_ms = match rng.gen_range(0..11) {
        0..=3 => rng.gen_range(0.0..290.0),
        4 | 5 => 0.0,
        6 => boundary,
        7 => boundary.next_down(),
        8 => boundary.next_up(),
        9 => lat_t.next_down() - 2.0 * RELAY_DELAY_RTT_MS,
        _ => lat_t.next_up() - 2.0 * RELAY_DELAY_RTT_MS,
    };
    CloseClusterEntry {
        cluster: ClusterId(c),
        rtt_ms,
        loss: rng.gen_range(0.0..0.04),
        as_hops: 1,
    }
}

fn arb_boundary_set(rng: &mut StdRng, max_cluster: u32) -> CloseClusterSet {
    CloseClusterSet::from_entries(vec(rng, 0..24, |rng| arb_boundary_entry(rng, max_cluster)))
}

/// One-hop and two-hop relays as bit patterns, so `-0.0`/`0.0` and NaN
/// payloads compare exactly.
type RelayBits = (Vec<(u32, u64, u64, u64)>, Vec<(u32, u32, u64, u64)>);

fn relay_bits(sel: &CloseRelaySelection) -> RelayBits {
    let one = sel.one_hop.iter().map(|r| {
        (
            r.cluster.0,
            r.est_rtt_ms.to_bits(),
            r.est_loss.to_bits(),
            r.member_ips,
        )
    });
    let two = sel.two_hop.iter().map(|t| {
        (
            t.first.0,
            t.second.0,
            t.est_rtt_ms.to_bits(),
            t.member_pairs,
        )
    });
    (one.collect(), two.collect())
}

/// An entry of cluster `0..max_cluster` whose RTT sits on a 20 ms grid
/// from 0 to 140 ms, so two-hop estimates through one `r1` often tie.
fn arb_grid_entry(rng: &mut StdRng, max_cluster: u32) -> CloseClusterEntry {
    let c = rng.gen_range(0..max_cluster);
    CloseClusterEntry {
        cluster: ClusterId(c),
        rtt_ms: 20.0 * f64::from(rng.gen_range(0u32..8)),
        loss: rng.gen_range(0.0..0.04),
        as_hops: 1,
    }
}

/// Up to 60 grid entries over 24 clusters: sets drawn this way share
/// most of their clusters, each set in its own entry order.
fn arb_grid_set(rng: &mut StdRng) -> CloseClusterSet {
    CloseClusterSet::from_entries(vec(rng, 0..61, |rng| arb_grid_entry(rng, 24)))
}

/// Runs `select_close_relay` and the plain reference on one case and
/// requires them to agree bit for bit, with one fetch per caller entry
/// in entry order when expanding. Returns whether the reference holds
/// two tied pairs through one `r1` whose order in `r1`'s set differs
/// from their order by callee RTT (the order a walk of the callee's
/// entries by RTT finds them in).
fn assert_matches_reference(
    caller: &CloseClusterSet,
    callee: &CloseClusterSet,
    mids: &[CloseClusterSet],
    config: &AsapConfig,
    cluster_size: &dyn Fn(ClusterId) -> u64,
) -> bool {
    let mid_of = |c: ClusterId| &mids[c.0 as usize % mids.len()];
    let mut fetched = Vec::new();
    let fast = select_close_relay(caller, callee, config, cluster_size, |c| {
        fetched.push(c);
        mid_of(c)
    });
    let mut ref_fetched = Vec::new();
    let reference = reference_select_close_relay(caller, callee, config, cluster_size, &mut |c| {
        ref_fetched.push(c);
        mid_of(c).clone()
    });

    assert_eq!(relay_bits(&fast), relay_bits(&reference));
    assert_eq!(fast.messages, reference.messages);
    assert_eq!(fast.expanded_two_hop, reference.expanded_two_hop);
    // One fetch per caller entry, in entry order, when expanding.
    let caller_order: Vec<ClusterId> = caller.entries().iter().map(|e| e.cluster).collect();
    let expected = if fast.expanded_two_hop {
        caller_order
    } else {
        Vec::new()
    };
    assert_eq!(&fetched, &expected);
    assert_eq!(&ref_fetched, &expected);

    // The final sort is stable, so tied pairs through one r1 sit next
    // to each other in r1's entry order.
    let by_callee_rtt = |c: ClusterId| {
        let i = callee.entries().iter().position(|e| e.cluster == c);
        let i = i.expect("a two-hop pair ends in the callee's set");
        (callee.entries()[i].rtt_ms, i)
    };
    reference.two_hop.windows(2).any(|w| {
        let (a, b) = (by_callee_rtt(w[0].second), by_callee_rtt(w[1].second));
        w[0].first == w[1].first
            && w[0].est_rtt_ms.to_bits() == w[1].est_rtt_ms.to_bits()
            && a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).is_gt()
    })
}

/// `select_close_relay` (slice lookups, exact pruning, the callee
/// walk by RTT, borrowed fetches) is bit-identical to the plain
/// reference, order included. The boundary cases put RTTs on and
/// either side of the pruning bounds; callee-side ids run past every
/// caller-side id, so the callee slice is probed out of range too. The
/// grid cases share most clusters between the callee and the `r1`
/// sets, in different entry orders and at tied RTTs, and at least one
/// of them must hold tied pairs through one `r1` whose `r1` order
/// differs from their callee RTT order.
#[test]
fn select_close_relay_matches_the_plain_reference() {
    check(256, |rng| {
        let caller = arb_boundary_set(rng, 40);
        let callee = arb_boundary_set(rng, 80);
        let mids = vec(rng, 1..6, |rng| arb_boundary_set(rng, 80));
        let size_t = rng.gen_range(0usize..120);
        let size = rng.gen_range(1u64..8);
        let config = AsapConfig {
            size_t,
            ..Default::default()
        };
        let cluster_size = |c: ClusterId| size + u64::from(c.0 % 3);
        assert_matches_reference(&caller, &callee, &mids, &config, &cluster_size);
    });
    let mut tie_order_cases = 0;
    check(256, |rng| {
        let caller = arb_grid_set(rng);
        let callee = arb_grid_set(rng);
        let mids = vec(rng, 1..4, arb_grid_set);
        let size_t = rng.gen_range(0usize..400);
        let size = rng.gen_range(1u64..8);
        let config = AsapConfig {
            size_t,
            ..Default::default()
        };
        let cluster_size = |c: ClusterId| size + u64::from(c.0 % 3);
        tie_order_cases += usize::from(assert_matches_reference(
            &caller,
            &callee,
            &mids,
            &config,
            &cluster_size,
        ));
    });
    assert!(
        tie_order_cases > 0,
        "no grid case tied pairs through one r1 out of callee RTT order"
    );
}

/// The seed `latent_compare` draws round `round`'s sessions with when
/// run with `--seed seed` (a SplitMix64 finalizer over both).
fn latent_round_seed(seed: u64, round: u64) -> u64 {
    let mix = |mut z: u64| {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    mix(seed ^ mix(round))
}

/// Fig. 10 at eval scale, on the two rounds `latent_compare` runs at
/// seed 11: the eval world (scenario seed 1), 100,000 sessions drawn
/// with the round's seed, and the first 600 with a direct RTT above
/// 300 ms. Each round selects from the close sets of a fresh default
/// `AsapSystem`, and every selection must match the plain reference
/// bit for bit. Prints, per round, the expansions, the two-hop pairs,
/// the callee entries the walk visits and the `r1` entries a scan of
/// the fetched sets would visit. Takes about a second in release; run
/// it with `cargo test --release -p asap-core -- --ignored --nocapture`.
#[test]
#[ignore = "eval scale: run in release with --ignored"]
fn eval_scale_select_close_relay_matches_the_plain_reference() {
    let scenario = Scenario::build(ScenarioConfig::eval_scale(), 1);
    let population = &scenario.population;
    let cluster_size = |c: ClusterId| population.clustering().cluster(c).len() as u64;
    let relay_delays = 2.0 * RELAY_DELAY_RTT_MS;
    for round in 0..2 {
        let all = sessions::generate(population, 100_000, latent_round_seed(11, round));
        let routed = sessions::with_direct_routes(&scenario, &all);
        let mut latent = sessions::latent_sessions(&routed, 300.0);
        latent.truncate(600);
        assert_eq!(latent.len(), 600);
        let system = AsapSystem::bootstrap(&scenario, AsapConfig::default());
        let config = system.config();
        let (mut expansions, mut pairs, mut walked, mut scanned) = (0, 0, 0, 0);
        for (i, s) in latent.iter().enumerate() {
            let caller = system.close_set_of(population.cluster_of(s.session.caller));
            let callee = system.close_set_of(population.cluster_of(s.session.callee));
            let fast = select_close_relay(&caller, &callee, config, &cluster_size, |c| {
                system.close_set_of(c)
            });
            let reference =
                reference_select_close_relay(&caller, &callee, config, &cluster_size, &mut |c| {
                    let set = system.close_set_of(c);
                    scanned += set.len();
                    (*set).clone()
                });
            let what = format!("round {round}, session {i}");
            assert_eq!(relay_bits(&fast), relay_bits(&reference), "{what}");
            assert_eq!(fast.messages, reference.messages, "{what}");
            assert_eq!(fast.expanded_two_hop, reference.expanded_two_hop, "{what}");
            if fast.expanded_two_hop {
                expansions += 1;
                pairs += fast.two_hop.len();
                // The walk visits each callee entry that passes its bound.
                for e1 in caller.entries() {
                    if e1.rtt_ms + relay_delays < config.lat_t_ms {
                        let within = |e2: &&CloseClusterEntry| {
                            e1.rtt_ms + e2.rtt_ms + relay_delays < config.lat_t_ms
                        };
                        walked += callee.entries().iter().filter(within).count();
                    }
                }
            }
        }
        eprintln!(
            "Fig. 10, round {round}: {expansions} expansions of 600 selects, {pairs} two-hop \
             pairs, {walked} callee entries walked ({scanned} r1 entries in the fetched sets)"
        );
    }
}

/// Fig. 9 at eval scale (scenario seed 1): every cluster's close set,
/// measured from the surrogates of a default `AsapSystem`, at `k` = 2, 3
/// and 4 (the default and the bounds `ablation_asap` sweeps below it),
/// against the plain reference bit for bit, construction messages
/// included. Takes about a second in release; run it with `cargo test
/// --release -p asap-core -- --ignored`.
#[test]
#[ignore = "eval scale: run in release with --ignored"]
fn eval_scale_close_sets_match_the_plain_reference() {
    let scenario = Scenario::build(ScenarioConfig::eval_scale(), 1);
    let index = ClusterIndex::build(&scenario);
    let system = AsapSystem::bootstrap(&scenario, AsapConfig::default());
    let surrogate_of = |c: ClusterId| system.surrogate_of(c);
    let mut outcomes = [0usize; 3];
    for k in [2, 3, 4] {
        let config = AsapConfig {
            k,
            ..Default::default()
        };
        let mut entries = 0;
        for c in scenario.population.clustering().clusters() {
            let set =
                construct_close_cluster_set(&scenario, &index, &surrogate_of, c.id(), &config);
            let (reference, messages) = reference_close_set(
                &scenario,
                &surrogate_of,
                c.id(),
                &config,
                SearchMode::ValleyFree,
                &mut outcomes,
            );
            let what = format!("k = {k}, cluster {:?}", c.id());
            assert_eq!(entry_bits(set.entries()), entry_bits(&reference), "{what}");
            assert_eq!(set.construction_messages, messages, "{what}");
            entries += set.len();
        }
        eprintln!("Fig. 9, k = {k}: {entries} close-set entries over all clusters");
    }
}

/// Close-set construction invariants over the shared scenario, for a
/// handful of configurations (each case costs a full BFS).
#[test]
fn close_sets_respect_any_configuration() {
    check(8, |rng| {
        let k = rng.gen_range(1usize..5);
        let lat_t = rng.gen_range(60.0f64..400.0);
        let cluster_ix = rng.gen_range(0usize..10);
        let scenario = shared_scenario();
        let index = ClusterIndex::build(scenario);
        let clusters = scenario.population.clustering().clusters();
        let origin = clusters[cluster_ix % clusters.len()].id();
        let config = AsapConfig {
            k,
            lat_t_ms: lat_t,
            ..Default::default()
        };
        let set = construct_close_cluster_set(
            scenario,
            &index,
            &|c| scenario.delegate_of(c),
            origin,
            &config,
        );
        // Fig. 10's lookup in an r1 set assumes each cluster once.
        let mut listed = HashSet::new();
        for e in set.entries() {
            assert!(e.rtt_ms < lat_t);
            assert!(e.as_hops as usize <= k);
            assert_ne!(e.cluster, origin);
            assert!(listed.insert(e.cluster), "{:?} listed twice", e.cluster);
        }
        // Each completed remote measurement costs one request/reply
        // pair; co-located (0-hop) clusters are close by construction
        // and free.
        let remote = set.entries().iter().filter(|e| e.as_hops > 0).count() as u64;
        assert!(set.construction_messages >= 2 * remote);
        assert_eq!(set.construction_messages % 2, 0);
    });
}

/// Fig. 9 as the paper states it, with no index tricks: clusters found
/// by ASN in a hash map, the `Reached`-collecting searches, and one
/// `Scenario::host_metrics` per measured cluster. Returns the entries
/// and the construction messages, and tallies each remote measurement
/// into `outcomes` as routed, crossing a failed AS, or unroutable.
fn reference_close_set(
    scenario: &Scenario,
    surrogate_of: &dyn Fn(ClusterId) -> HostId,
    origin_cluster: ClusterId,
    config: &AsapConfig,
    mode: SearchMode,
    outcomes: &mut [usize; 3],
) -> (Vec<CloseClusterEntry>, u64) {
    let mut by_asn: HashMap<Asn, Vec<ClusterId>> = HashMap::new();
    for c in scenario.population.clustering().clusters() {
        by_asn.entry(c.asn()).or_default().push(c.id());
    }
    let clusters_of = |asn: Asn| by_asn.get(&asn).cloned().unwrap_or_default();
    let origin_asn = scenario
        .population
        .clustering()
        .cluster(origin_cluster)
        .asn();
    let from = surrogate_of(origin_cluster);
    let measure = |to: HostId| {
        let (rtt, loss) = scenario.host_metrics(from, to)?;
        Some((if from == to { 0.0 } else { rtt }, loss))
    };
    let close = |rtt: f64, loss: f64| rtt < config.lat_t_ms && loss < config.loss_t;

    let mut entries = Vec::new();
    for c in clusters_of(origin_asn) {
        let peer = surrogate_of(c);
        match measure(peer) {
            Some((rtt, loss)) if c != origin_cluster && close(rtt, loss) => {
                entries.push(CloseClusterEntry {
                    cluster: c,
                    rtt_ms: rtt,
                    loss,
                    as_hops: 0,
                })
            }
            _ => {}
        }
    }
    let mut messages = 0;
    let visit = |reached: Reached| {
        let clusters = clusters_of(reached.asn);
        if clusters.is_empty() {
            return Expand::Continue;
        }
        let mut best_rtt = f64::INFINITY;
        for c in clusters {
            let peer = surrogate_of(c);
            let Some((rtt, loss)) = measure(peer) else {
                outcomes[2] += 1;
                continue;
            };
            outcomes[usize::from(loss == 1.0)] += 1;
            messages += 2;
            best_rtt = best_rtt.min(rtt);
            if close(rtt, loss) {
                entries.push(CloseClusterEntry {
                    cluster: c,
                    rtt_ms: rtt,
                    loss,
                    as_hops: reached.hops as u32,
                });
            }
        }
        if best_rtt >= config.lat_t_ms {
            Expand::Prune
        } else {
            Expand::Continue
        }
    };
    let graph = &scenario.internet.graph;
    match mode {
        SearchMode::ValleyFree => bounded_search(graph, origin_asn, config.k, visit),
        SearchMode::Unconstrained => {
            bounded_search_unconstrained(graph, origin_asn, config.k, visit)
        }
    };
    (entries, messages)
}

type EntryBits = (ClusterId, u32, u64, u64);

fn entry_bits(entries: &[CloseClusterEntry]) -> Vec<EntryBits> {
    entries
        .iter()
        .map(|e| (e.cluster, e.as_hops, e.rtt_ms.to_bits(), e.loss.to_bits()))
        .collect()
}

/// A tiny world with one congested transit AS, one partitioned transit
/// AS and one failed cluster-hosting AS, so shared route walks cross
/// all three conditions. One cluster-hosting AS is also re-annotated to
/// peer with its providers, which leaves it without routes to most
/// ASes.
fn faulted_world(rng: &mut StdRng) -> Scenario {
    let mut scenario = Scenario::build(ScenarioConfig::tiny(), rng.gen_range(0..4));
    let clusters = scenario.population.clustering().clusters();
    let peering_only = clusters[rng.gen_range(0..clusters.len())].asn();
    let failed = clusters[rng.gen_range(0..clusters.len())].asn();
    let mut internet = (*scenario.internet).clone();
    let providers: Vec<Asn> = internet.graph.providers(peering_only).collect();
    for provider in providers {
        internet
            .graph
            .add_edge(peering_only, provider, EdgeKind::PeerToPeer);
    }
    let internet = Arc::new(internet);
    scenario.net = NetModel::new(Arc::clone(&internet), NetConfig::default(), 5);
    scenario.internet = internet;

    let net = &scenario.internet;
    let transits: Vec<Asn> = net
        .graph
        .asns()
        .iter()
        .copied()
        .filter(|&a| net.tier(a) == Some(AsTier::Transit))
        .collect();
    let congested = transits[rng.gen_range(0..transits.len())];
    let partitioned = transits[rng.gen_range(0..transits.len())];
    let congestion = AsCondition::Congested {
        added_rtt_ms: rng.gen_range(20.0..300.0),
        added_loss: rng.gen_range(0.0..0.05),
    };
    scenario.net.set_condition(congested, congestion);
    scenario.net.set_condition(partitioned, AsCondition::Failed);
    scenario.net.set_condition(failed, AsCondition::Failed);
    scenario
}

/// The node-indexed construction (one route walk per reached AS, shared
/// by the surrogates inside it) against the plain reference: same
/// entries in the same order, bit-equal measurements, same hops and
/// messages. Surrogates are remapped at random so the walk's fallbacks
/// run too: a surrogate outside its cluster's AS, and the origin
/// surrogate itself, also inside the reached AS.
#[test]
fn close_set_construction_matches_the_plain_reference() {
    let mut outcomes = [0usize; 3];
    check(24, |rng| {
        let scenario = faulted_world(rng);
        let index = ClusterIndex::build(&scenario);
        let clusters = scenario.population.clustering().clusters();
        let hosts = scenario.population.hosts();
        let origin = clusters[rng.gen_range(0..clusters.len())].id();
        // Half the time the origin surrogate is a host of another
        // cluster that it serves too, so the search can reach its AS
        // and measure it as that cluster's surrogate.
        let origin_surrogate = match rng.gen_range(0..2) {
            0 => hosts[rng.gen_range(0..hosts.len())].id,
            _ => scenario.delegate_of(origin),
        };
        let mut remap: HashMap<ClusterId, HostId> = clusters
            .iter()
            .filter_map(|c| {
                let host = match rng.gen_range(0..10) {
                    0 => hosts[rng.gen_range(0..hosts.len())].id,
                    1 => origin_surrogate,
                    _ => return None,
                };
                Some((c.id(), host))
            })
            .collect();
        remap.insert(
            scenario.population.cluster_of(origin_surrogate),
            origin_surrogate,
        );
        let surrogate_of = |c: ClusterId| {
            if c == origin {
                return origin_surrogate;
            }
            remap
                .get(&c)
                .copied()
                .unwrap_or_else(|| scenario.delegate_of(c))
        };
        let config = AsapConfig {
            k: rng.gen_range(0usize..6),
            lat_t_ms: rng.gen_range(40.0f64..600.0),
            loss_t: rng.gen_range(0.005f64..0.2),
            ..Default::default()
        };
        for mode in [SearchMode::ValleyFree, SearchMode::Unconstrained] {
            let set = construct_close_cluster_set_with_mode(
                &scenario,
                &index,
                &surrogate_of,
                origin,
                &config,
                mode,
            );
            let (entries, messages) = reference_close_set(
                &scenario,
                &surrogate_of,
                origin,
                &config,
                mode,
                &mut outcomes,
            );
            assert_eq!(entry_bits(set.entries()), entry_bits(&entries), "{mode:?}");
            assert_eq!(set.construction_messages, messages, "{mode:?}");
        }
    });
    assert!(
        outcomes.iter().all(|&n| n > 0),
        "routed / failed / unroutable measurements: {outcomes:?}"
    );
}
