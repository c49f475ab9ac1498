//! Differential oracle for the index-walk route queries.
//!
//! `as_rtt_ms`, `as_loss`, `as_metrics` and `as_metrics_idx` walk the
//! cached routing tree by node index. `path_rtt_ms` and `path_loss` over
//! the materialised `as_path` are the plain reference: every float must
//! be bit-equal to theirs, under any AS conditions, and from any number
//! of threads.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::thread;

use asap_cluster::Asn;
use asap_netsim::{AsCondition, NetConfig, NetModel};
use asap_topology::{InternetConfig, InternetGenerator};

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
            ..NetConfig::default()
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
        Some((m.config().failure_rtt_ms, 1.0)),
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

#[test]
fn host_metrics_match_host_rtt_and_as_loss() {
    let m = model(6);
    let stubs = m.internet().stub_asns();
    for (i, &a) in stubs.iter().enumerate().take(20) {
        for &b in stubs.iter().skip(i).take(20) {
            let (ha, hb) = ((a, 3.5), (b, 11.25));
            assert_eq!(
                bits(m.host_metrics(ha, hb)),
                bits(m.host_rtt_ms(ha, hb).zip(m.as_loss(a, b)))
            );
        }
    }
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
