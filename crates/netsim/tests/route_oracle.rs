//! Differential oracle for the index-walk route queries and their memo.
//!
//! `as_rtt_ms`, `as_loss`, `as_metrics` and `as_metrics_idx` walk the
//! cached routing tree by node index the first time a pair is asked, and
//! answer repeats from an AS-pair memo. `path_rtt_ms` and `path_loss`
//! over the materialised `as_path` are the plain reference, and a fresh
//! model's first answer is the memo's: every float must be bit-equal to
//! both, under any AS conditions, and from any number of threads.
//! `Scenario::host_metrics`, which asks by the hosts' AS node indices,
//! must equal `as_metrics` by ASN plus both access terms.

use std::collections::BTreeSet;
use std::sync::{Arc, Barrier};
use std::thread;

use asap_cluster::Asn;
use asap_netsim::model::FAILURE_RTT_MS;
use asap_netsim::{AsCondition, NetConfig, NetModel};
use asap_topology::{
    AsGraph, AsTier, EdgeKind, InternetConfig, InternetGenerator, SyntheticInternet,
};
use asap_workload::{Scenario, ScenarioConfig};

fn model(seed: u64) -> NetModel {
    model_with(seed, NetConfig::default())
}

fn model_with(seed: u64, config: NetConfig) -> NetModel {
    let net = Arc::new(InternetGenerator::new(InternetConfig::tiny(), seed).generate());
    NetModel::new(net, config, seed)
}

fn bits(m: Option<(f64, f64)>) -> Option<(u64, u64)> {
    m.map(|(rtt, loss)| (rtt.to_bits(), loss.to_bits()))
}

/// Checks every ordered AS pair against the path reference and returns
/// the fused answers, in pair order.
fn check_all_pairs(m: &NetModel) -> Vec<Option<(u64, u64)>> {
    let asns = m.internet().graph.asns().to_vec();
    let mut answers = Vec::with_capacity(asns.len() * asns.len());
    for (i, &a) in (0u32..).zip(&asns) {
        for (j, &b) in (0u32..).zip(&asns) {
            let fused = m.as_metrics(a, b);
            assert_eq!(
                bits(fused),
                bits(m.as_rtt_ms(a, b).zip(m.as_loss(a, b))),
                "as_metrics({a}, {b}) disagrees with as_rtt_ms/as_loss"
            );
            assert_eq!(
                bits(m.as_metrics_idx(i, j)),
                bits(fused),
                "as_metrics_idx({i}, {j}) disagrees with as_metrics({a}, {b})"
            );
            if a != b {
                let reference = m
                    .as_path(a, b)
                    .map(|path| (m.path_rtt_ms(&path), m.path_loss(&path)));
                assert_eq!(
                    bits(fused),
                    bits(reference),
                    "{a} -> {b}: index walk {fused:?} vs path reference {reference:?}"
                );
            }
            answers.push(bits(fused));
        }
    }
    answers
}

#[test]
fn index_walk_is_bit_equal_to_the_path_reference() {
    // Frequent link and AS congestion, so that many routes carry both
    // kinds of term and a change in summation order shows in the bits.
    let mut m = model_with(
        5,
        NetConfig {
            congestion_prob_core_link: 0.3,
            congestion_prob_transit: 0.2,
        },
    );
    let asns = m.internet().graph.asns().to_vec();
    let baseline = check_all_pairs(&m);
    // Every AS is the destination of some pair of distinct ASes, so every
    // tree was built exactly once.
    assert_eq!(m.route_cache_stats().1, asns.len() as u64);

    // The longest route crossing a congested link, and two ASes on it.
    let path = asns
        .iter()
        .flat_map(|&a| asns.iter().map(move |&b| (a, b)))
        .filter_map(|(a, b)| m.as_path(a, b))
        .filter(|p| p.windows(2).any(|w| m.link_condition(w[0], w[1]).0 > 0.0))
        .max_by_key(Vec::len)
        .expect("some route crosses a congested link");
    assert!(path.len() >= 4, "longest route {path:?}");
    let (a, b) = (path[0], *path.last().unwrap());
    let (first, mid) = (path[1], path[path.len() / 2]);
    let saved = (m.condition(first), m.condition(mid));

    // Several congested ASes on one route: their terms add in path order.
    for (asn, added_rtt_ms) in [(first, 75.0), (mid, 210.0)] {
        m.set_condition(
            asn,
            AsCondition::Congested {
                added_rtt_ms,
                added_loss: 0.03,
            },
        );
    }
    let congested = check_all_pairs(&m);
    assert_ne!(congested, baseline, "congestion changed no route");

    m.set_condition(mid, AsCondition::Failed);
    check_all_pairs(&m);
    assert_eq!(
        m.as_metrics(a, b),
        Some((FAILURE_RTT_MS, 1.0)),
        "a failed mid-path AS must time the route out"
    );

    m.set_condition(first, saved.0);
    m.set_condition(mid, saved.1);
    assert_eq!(
        check_all_pairs(&m),
        baseline,
        "healing restores every answer"
    );
    // Conditions are read at query time: no tree was rebuilt.
    assert_eq!(m.route_cache_stats().1, asns.len() as u64);
}

/// Checks `Scenario::host_metrics` of every pair in `pairs`, asked by
/// the hosts' AS node indices, against `as_metrics` by ASN plus both
/// access terms, bit for bit, and against `host_rtt_ms`/`host_loss`.
/// Each query must cost what `as_metrics` costs: one route lookup
/// between distinct ASes, none inside one AS. Returns the number of
/// routable pairs.
fn check_host_metrics(s: &Scenario, pairs: impl Iterator<Item = (usize, usize)>) -> usize {
    let hosts = s.population.hosts();
    let mut routed = 0;
    for (i, j) in pairs {
        let (a, b) = (&hosts[i], &hosts[j]);
        let before = s.net.route_cache_stats();
        let fast = s.host_metrics(a.id, b.id);
        let after = s.net.route_cache_stats();
        let lookups = after.0 + after.1 - before.0 - before.1;
        assert_eq!(lookups, u64::from(a.asn != b.asn), "{} -> {}", a.id, b.id);
        let reference = (s.net.as_metrics(a.asn, b.asn))
            .map(|(core, loss)| (core + 2.0 * a.access_ms + 2.0 * b.access_ms, loss));
        assert_eq!(bits(fast), bits(reference), "{} -> {}", a.id, b.id);
        let split = s.host_rtt_ms(a.id, b.id).zip(s.host_loss(a.id, b.id));
        assert_eq!(bits(fast), bits(split), "{} -> {}", a.id, b.id);
        routed += usize::from(fast.is_some());
    }
    routed
}

/// Random host pairs, and pairs inside one AS, of two tiny worlds.
#[test]
fn host_metrics_match_host_rtt_and_as_loss() {
    for seed in [6, 7] {
        let s = Scenario::build(ScenarioConfig::tiny(), seed);
        let n = s.population.hosts().len();
        let random = (0..400).map(|i| ((i * 37) % n, (i * 101 + 7) % n));
        assert!(check_host_metrics(&s, random) > 0);
        // Hosts are indexed by id: each AS's first host with every host
        // of that AS.
        let same_as: Vec<(usize, usize)> = (s.population.as_groups())
            .flat_map(|g| {
                g.hosts
                    .iter()
                    .map(move |h| (g.hosts[0].0 as usize, h.0 as usize))
            })
            .collect();
        assert!(same_as.iter().any(|(a, b)| a != b), "no AS holds two hosts");
        check_host_metrics(&s, same_as.into_iter());
    }
}

/// The index path in a faulted world: the model is rebuilt with the
/// dense core-link and transit congestion of
/// `index_walk_is_bit_equal_to_the_path_reference`, then the first
/// transit AS of a long route fails, the last is congested, and a host
/// AS fails, so queries cross every condition.
#[test]
fn host_metrics_by_node_index_match_as_metrics_in_a_faulted_world() {
    let mut s = Scenario::build(ScenarioConfig::tiny(), 8);
    let dense = NetConfig {
        congestion_prob_core_link: 0.3,
        congestion_prob_transit: 0.2,
    };
    s.net = NetModel::new(Arc::clone(&s.internet), dense, 5);
    let hosts = s.population.hosts();
    let n = hosts.len();
    let path = (0..n)
        .filter_map(|i| s.net.as_path(hosts[0].asn, hosts[i].asn))
        .max_by_key(Vec::len)
        .expect("host 0 routes somewhere");
    assert!(path.len() >= 4, "longest route {path:?}");
    let host_as = hosts[n / 2].asn;
    let (failed, congested) = (path[1], path[path.len() - 2]);
    s.net.set_condition(failed, AsCondition::Failed);
    s.net.set_condition(
        congested,
        AsCondition::Congested {
            added_rtt_ms: 120.0,
            added_loss: 0.02,
        },
    );
    s.net.set_condition(host_as, AsCondition::Failed);
    let pairs = (0..n).flat_map(|i| [(0, i), (i, 0), (n / 2, i), (i, (i * 37) % n)]);
    assert!(check_host_metrics(&s, pairs) > 0);
}

#[test]
fn fused_query_costs_one_route_lookup() {
    let m = model(7);
    let stubs = m.internet().stub_asns();
    let (a, b) = (stubs[0], stubs[1]);
    m.as_metrics(a, b);
    assert_eq!(m.route_cache_stats(), (0, 1));
    m.as_rtt_ms(a, b);
    m.as_loss(a, b);
    assert_eq!(m.route_cache_stats(), (2, 1));
    // Intra-AS queries and unknown ASes never reach the router.
    m.as_metrics(a, a);
    m.as_metrics_idx(0, 0);
    assert_eq!(m.as_metrics(Asn(u32::MAX), b), None);
    assert_eq!(m.route_cache_stats(), (2, 1));
}

#[test]
fn threads_sharing_one_model_agree_with_a_single_thread() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<NetModel>();

    let asns = model(8).internet().graph.asns().to_vec();
    let pairs: Vec<(Asn, Asn)> = asns
        .iter()
        .step_by(3)
        .flat_map(|&a| asns.iter().step_by(2).map(move |&b| (a, b)))
        .collect();
    let destinations: BTreeSet<Asn> = pairs
        .iter()
        .filter(|(a, b)| a != b)
        .map(|&(_, b)| b)
        .collect();
    let run = |m: &NetModel| -> Vec<Option<(u64, u64)>> {
        pairs
            .iter()
            .map(|&(a, b)| bits(m.as_metrics(a, b)))
            .collect()
    };

    let single = run(&model(8));
    let shared = model(8);
    let (left, right) = thread::scope(|s| {
        let left = s.spawn(|| run(&shared));
        let right = s.spawn(|| run(&shared));
        (left.join().unwrap(), right.join().unwrap())
    });
    assert_eq!(left, single);
    assert_eq!(right, single);
    let (hits, misses) = shared.route_cache_stats();
    assert_eq!(
        misses,
        destinations.len() as u64,
        "a racing build counted twice"
    );
    let routed = pairs.iter().filter(|(a, b)| a != b).count() as u64;
    assert_eq!(hits + misses, 2 * routed);
}

/// Every ordered pair of `asns`, each asked once, in pair order.
fn ask_all(m: &NetModel, asns: &[Asn]) -> Vec<Option<(u64, u64)>> {
    asns.iter()
        .flat_map(|&a| asns.iter().map(move |&b| bits(m.as_metrics(a, b))))
        .collect()
}

/// A hand-built world: 3 — 2 — 1 peer in a row and 4 is a customer of 1,
/// so 3 reaches neither 1 nor 4, and 1 and 4 do not reach 3.
fn peering_chain() -> NetModel {
    let mut graph = AsGraph::new();
    graph.add_edge(Asn(3), Asn(2), EdgeKind::PeerToPeer);
    graph.add_edge(Asn(2), Asn(1), EdgeKind::PeerToPeer);
    graph.add_edge(Asn(1), Asn(4), EdgeKind::ProviderToCustomer);
    let n = graph.node_count();
    let internet = SyntheticInternet {
        graph,
        tiers: vec![AsTier::Transit; n],
        coords: (0..n).map(|i| (10.0 * i as f64, 5.0)).collect(),
    };
    NetModel::new(Arc::new(internet), NetConfig::default(), 3)
}

#[test]
fn unroutable_pairs_answer_none_cold_and_warm() {
    let m = peering_chain();
    let unroutable = [(3, 1), (1, 3), (3, 4), (4, 3)].map(|(a, b)| (Asn(a), Asn(b)));
    for (a, b) in unroutable {
        let (hits, misses) = m.route_cache_stats();
        assert_eq!(m.as_metrics(a, b), None, "cold {a} -> {b}");
        let cold = m.route_cache_stats();
        assert_eq!(
            cold.0 + cold.1,
            hits + misses + 1,
            "a cold query is one lookup"
        );
        assert_eq!(m.as_metrics(a, b), None, "warm {a} -> {b}");
        assert_eq!(
            m.route_cache_stats(),
            (cold.0 + 1, cold.1),
            "a warm None is a hit"
        );
        assert_eq!(m.as_path(a, b), None, "the reference routes {a} -> {b}");
    }
    // Routable pairs of the same world still answer, cold and warm.
    for (a, b) in [(3, 2), (2, 4), (4, 2)].map(|(a, b)| (Asn(a), Asn(b))) {
        let path = m.as_path(a, b).expect("routable");
        let reference = Some((m.path_rtt_ms(&path), m.path_loss(&path)));
        assert_eq!(bits(m.as_metrics(a, b)), bits(reference), "cold {a} -> {b}");
        assert_eq!(bits(m.as_metrics(a, b)), bits(reference), "warm {a} -> {b}");
    }
}

#[test]
fn repeat_queries_match_a_fresh_model_before_and_after_set_condition() {
    let config = NetConfig {
        congestion_prob_core_link: 0.3,
        congestion_prob_transit: 0.2,
    };
    let mut m = model_with(9, config.clone());
    let asns = m.internet().graph.asns().to_vec();
    let distinct = (asns.len() * (asns.len() - 1)) as u64;
    let fresh = ask_all(&model_with(9, config.clone()), &asns);
    assert_eq!(ask_all(&m, &asns), fresh, "cold");
    let cold = m.route_cache_stats();
    assert_eq!(ask_all(&m, &asns), fresh, "warm");
    assert_eq!(m.route_cache_stats(), (cold.0 + distinct, cold.1));

    // Congest one AS and fail another on the longest route: the memo must
    // not keep an answer from before either change.
    let path = asns
        .iter()
        .flat_map(|&a| asns.iter().map(move |&b| (a, b)))
        .filter_map(|(a, b)| m.as_path(a, b))
        .max_by_key(Vec::len)
        .expect("some route");
    let (congested, failed) = (path[1], path[path.len() - 2]);
    let changes = [
        (
            congested,
            AsCondition::Congested {
                added_rtt_ms: 120.0,
                added_loss: 0.02,
            },
        ),
        (failed, AsCondition::Failed),
    ];
    let saved = changes.map(|(asn, _)| (asn, m.condition(asn)));
    let mut last = fresh.clone();
    for k in 1..=changes.len() {
        let (asn, condition) = changes[k - 1];
        m.set_condition(asn, condition);
        let mut reference = model_with(9, config.clone());
        for (asn, condition) in &changes[..k] {
            reference.set_condition(*asn, *condition);
        }
        let fresh_changed = ask_all(&reference, &asns);
        assert_ne!(fresh_changed, last, "change {k} moved no answer");
        assert_eq!(ask_all(&m, &asns), fresh_changed, "cold after change {k}");
        assert_eq!(ask_all(&m, &asns), fresh_changed, "warm after change {k}");
        last = fresh_changed;
    }

    for (asn, condition) in saved {
        m.set_condition(asn, condition);
    }
    assert_eq!(ask_all(&m, &asns), fresh, "healing restores every answer");
    assert_eq!(ask_all(&m, &asns), fresh, "warm after healing");
    // Conditions never rebuild a tree.
    assert_eq!(m.route_cache_stats().1, cold.1);
}

#[test]
fn four_threads_racing_first_touches_agree_with_one_thread() {
    // The tiny world has 143 ASes, one short of a whole number of tiles,
    // so a slot that racing first touches burn can push the last ASes
    // past the directory, where queries fall back to the walk.
    let asns = model(10).internet().graph.asns().to_vec();
    let run = |m: &NetModel| [ask_all(m, &asns), ask_all(m, &asns)];

    let single = model(10);
    let expected = run(&single);
    for _ in 1..4 {
        assert_eq!(run(&single), expected);
    }
    let shared = model(10);
    let start = Barrier::new(4);
    let answers: Vec<_> = thread::scope(|s| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    run(&shared)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for answer in answers {
        assert_eq!(answer, expected);
    }
    assert_eq!(shared.route_cache_stats(), single.route_cache_stats());
}

/// Every ordered pair of the eval world's endpoint ASes, cold and warm,
/// against the path reference. A few seconds in release: run it with
/// `cargo test --release -p asap-netsim -- --ignored`.
#[test]
#[ignore = "eval scale: run in release with --ignored"]
fn eval_scale_endpoint_pairs_match_the_path_reference() {
    let scenario = Scenario::build(ScenarioConfig::eval_scale(), 1);
    let net = &scenario.net;
    let ases: Vec<Asn> = scenario.population.as_groups().map(|g| g.asn).collect();
    assert_eq!(ases.len(), 330);
    assert_eq!(net.route_cache_stats(), (0, 0), "the model starts cold");
    let cold = ask_all(net, &ases);
    let after_cold = net.route_cache_stats();
    assert_eq!(after_cold.1, ases.len() as u64, "one tree per endpoint AS");
    assert_eq!(ask_all(net, &ases), cold, "warm");
    let distinct = (ases.len() * (ases.len() - 1)) as u64;
    assert_eq!(
        net.route_cache_stats(),
        (after_cold.0 + distinct, after_cold.1)
    );
    let pairs = ases.iter().flat_map(|&a| ases.iter().map(move |&b| (a, b)));
    for ((a, b), answer) in pairs.zip(&cold) {
        if a != b {
            let reference = net
                .as_path(a, b)
                .map(|path| (net.path_rtt_ms(&path), net.path_loss(&path)));
            assert_eq!(*answer, bits(reference), "{a} -> {b}");
        }
    }
}
