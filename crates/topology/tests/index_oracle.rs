//! Differential oracles for the index-based graph walks.
//!
//! BGP routing trees and the bounded searches read per-kind neighbor
//! slices that `AsGraph` derives from its adjacency. The references here
//! scan every neighbor from `AsGraph::neighbors` and filter by edge kind,
//! as the walks did before the split: trees must agree node by node,
//! searches visit by visit.

use std::collections::VecDeque;
use std::ops::Range;

use asap_cluster::Asn;
use asap_rng::check::check;
use asap_rng::StdRng;
use asap_topology::routing::{BgpRouter, RouteClass};
use asap_topology::valley::{self, Expand, Phase};
use asap_topology::{AsGraph, EdgeKind, InternetConfig, InternetGenerator};

/// One node of a reference tree: next hop, class and hops, or `None`
/// when the node has no route.
type NodeRoute = Option<(Option<u32>, RouteClass, usize)>;

/// The three-stage propagation of `routing::compute_tree`, over every
/// neighbor of each node.
fn reference_tree(graph: &AsGraph, dest: u32) -> Vec<NodeRoute> {
    const NO_ROUTE: u32 = u32::MAX;
    let n = graph.node_count();
    let nbrs = |x: u32| graph.neighbors(graph.asn_at(x));
    let mut next_hop = vec![NO_ROUTE; n];
    let mut class = vec![RouteClass::Provider; n];
    let mut hops = vec![0usize; n];
    let mut has_route = vec![false; n];
    let hops_at = |hops: &[usize], x: u32| if x == dest { 0 } else { hops[x as usize] };

    has_route[dest as usize] = true;
    let mut frontier = VecDeque::from([dest]);
    while let Some(x) = frontier.pop_front() {
        let candidate = hops_at(&hops, x) + 1;
        for &(y, kind) in nbrs(x) {
            let up = matches!(
                kind,
                EdgeKind::CustomerToProvider | EdgeKind::SiblingToSibling
            );
            if !up || y == dest {
                continue;
            }
            let yi = y as usize;
            let better = !has_route[yi]
                || (class[yi] == RouteClass::Customer
                    && (hops[yi] > candidate
                        || (hops[yi] == candidate
                            && graph.asn_at(next_hop[yi]) > graph.asn_at(x))));
            if better {
                let first_time = !has_route[yi];
                has_route[yi] = true;
                class[yi] = RouteClass::Customer;
                hops[yi] = candidate;
                next_hop[yi] = x;
                if first_time || hops[yi] == candidate {
                    frontier.push_back(y);
                }
            }
        }
    }

    let holders: Vec<u32> = (0..n as u32)
        .filter(|&i| {
            i == dest || (has_route[i as usize] && class[i as usize] == RouteClass::Customer)
        })
        .collect();
    for x in holders {
        let candidate = hops_at(&hops, x) + 1;
        for &(y, kind) in nbrs(x) {
            if kind != EdgeKind::PeerToPeer || y == dest {
                continue;
            }
            let yi = y as usize;
            let better = !has_route[yi]
                || (class[yi] == RouteClass::Peer
                    && (hops[yi] > candidate
                        || (hops[yi] == candidate
                            && graph.asn_at(next_hop[yi]) > graph.asn_at(x))));
            if better {
                has_route[yi] = true;
                class[yi] = RouteClass::Peer;
                hops[yi] = candidate;
                next_hop[yi] = x;
            }
        }
    }

    let mut frontier: VecDeque<u32> = (0..n as u32)
        .filter(|&i| i == dest || has_route[i as usize])
        .collect();
    while let Some(x) = frontier.pop_front() {
        let candidate = hops_at(&hops, x) + 1;
        for &(y, kind) in nbrs(x) {
            let down = matches!(
                kind,
                EdgeKind::ProviderToCustomer | EdgeKind::SiblingToSibling
            );
            if !down || y == dest {
                continue;
            }
            let yi = y as usize;
            let better = !has_route[yi]
                || (class[yi] == RouteClass::Provider
                    && (hops[yi] > candidate
                        || (hops[yi] == candidate
                            && graph.asn_at(next_hop[yi]) > graph.asn_at(x))));
            if better && (!has_route[yi] || class[yi] == RouteClass::Provider) {
                let improved = !has_route[yi] || hops[yi] > candidate;
                has_route[yi] = true;
                class[yi] = RouteClass::Provider;
                hops[yi] = candidate;
                next_hop[yi] = x;
                if improved {
                    frontier.push_back(y);
                }
            }
        }
    }

    (0..n)
        .map(|i| {
            if i == dest as usize {
                Some((None, RouteClass::Customer, 0))
            } else {
                (next_hop[i] != NO_ROUTE).then(|| (Some(next_hop[i]), class[i], hops[i]))
            }
        })
        .collect()
}

/// The tree `router` builds towards `dest`, read node by node through
/// the public accessors.
fn router_tree(graph: &AsGraph, router: &BgpRouter, dest: u32) -> Vec<NodeRoute> {
    let tree = router.tree_idx(graph, dest);
    graph
        .asns()
        .iter()
        .enumerate()
        .map(|(i, &asn)| {
            let class = tree.class_from(graph, asn)?;
            let hops = tree.hops_from(graph, asn)?;
            Some((tree.next_hop_idx(i as u32), class, hops))
        })
        .collect()
}

/// Every tree `router` builds on `graph`.
fn router_trees(graph: &AsGraph, router: &BgpRouter) -> Vec<Vec<NodeRoute>> {
    (0..graph.node_count() as u32)
        .map(|dest| router_tree(graph, router, dest))
        .collect()
}

fn reference_trees(graph: &AsGraph) -> Vec<Vec<NodeRoute>> {
    (0..graph.node_count() as u32)
        .map(|dest| reference_tree(graph, dest))
        .collect()
}

#[test]
fn every_tree_of_a_tiny_world_matches_the_full_scan() {
    let net = InternetGenerator::new(InternetConfig::tiny(), 17).generate();
    let router = BgpRouter::new(&net.graph);
    let trees = router_trees(&net.graph, &router);
    assert_eq!(trees, reference_trees(&net.graph));
    let routed = trees.iter().flatten().filter(|r| r.is_some()).count();
    assert!(
        routed > net.graph.node_count(),
        "trees route almost nothing"
    );
}

/// Every tree of the default-config graph, the 4,030-AS world of the
/// eval-scale scenarios, matches the full scan node by node. Run with
/// `cargo test --release -p asap-topology -- --ignored`.
#[test]
#[ignore = "eval scale: run in release with --ignored"]
fn every_tree_of_the_default_world_matches_the_full_scan() {
    // `Scenario::build`'s topology seed for scenario seed 1.
    let net = InternetGenerator::new(InternetConfig::default(), 1 ^ 0x7090).generate();
    let graph = &net.graph;
    assert_eq!(graph.node_count(), 4030);
    let router = BgpRouter::new(graph);
    for dest in 0..graph.node_count() as u32 {
        let tree = router_tree(graph, &router, dest);
        assert!(
            tree == reference_tree(graph, dest),
            "tree towards node {dest}"
        );
    }
}

/// Provider-to-customer edges three times as often as each other kind.
fn arb_kind(rng: &mut StdRng) -> EdgeKind {
    match rng.gen_range(0..5) {
        0..=2 => EdgeKind::ProviderToCustomer,
        3 => EdgeKind::PeerToPeer,
        _ => EdgeKind::SiblingToSibling,
    }
}

/// Adds a number of random edges drawn from `edges` over up to 24 ASes.
fn add_random_edges(g: &mut AsGraph, rng: &mut StdRng, edges: Range<usize>) {
    for _ in 0..rng.gen_range(edges) {
        let (a, b) = (rng.gen_range(0..24), rng.gen_range(0..24));
        g.add_edge(Asn(a), Asn(b), arb_kind(rng));
    }
}

/// Random graphs, mutated after their slices were derived: a router
/// over the grown graph must see the new and re-annotated edges.
#[test]
fn trees_of_random_graphs_match_the_full_scan_across_mutations() {
    check(128, |rng| {
        let mut g = AsGraph::new();
        add_random_edges(&mut g, rng, 1..60);
        assert_eq!(router_trees(&g, &BgpRouter::new(&g)), reference_trees(&g));
        add_random_edges(&mut g, rng, 1..20);
        g.add_node(Asn(rng.gen_range(20..40)));
        assert_eq!(router_trees(&g, &BgpRouter::new(&g)), reference_trees(&g));
    });
}

/// `valley::bounded_search` as it walked before the split: every
/// neighbor in both phases, filtered by `Phase::step`.
fn reference_search(
    graph: &AsGraph,
    origin: u32,
    max_hops: usize,
    mut visit: impl FnMut(u32, usize) -> Expand,
) {
    let n = graph.node_count();
    let mut seen = vec![[false; 2]; n];
    let mut reported = vec![false; n];
    let mut pruned = vec![false; n];
    let mut queue = VecDeque::from([(origin, Phase::Up, 0)]);
    seen[origin as usize][0] = true;
    while let Some((idx, phase, hops)) = queue.pop_front() {
        if idx != origin && !reported[idx as usize] {
            reported[idx as usize] = true;
            pruned[idx as usize] = visit(idx, hops) == Expand::Prune;
        }
        if hops == max_hops || (idx != origin && pruned[idx as usize]) {
            continue;
        }
        for &(next, kind) in graph.neighbors(graph.asn_at(idx)) {
            let Some(next_phase) = phase.step(kind) else {
                continue;
            };
            let slot = &mut seen[next as usize][usize::from(next_phase == Phase::Down)];
            if !*slot {
                *slot = true;
                queue.push_back((next, next_phase, hops + 1));
            }
        }
    }
}

#[test]
fn bounded_search_visits_like_the_full_scan() {
    check(256, |rng| {
        let mut g = AsGraph::new();
        add_random_edges(&mut g, rng, 1..80);
        let origin = rng.gen_range(0..g.node_count() as u32);
        let k = rng.gen_range(0usize..6);
        // Prune a fixed random subset, so both walks see the same
        // verdicts.
        let prune: Vec<bool> = (0..g.node_count())
            .map(|_| rng.gen_range(0..4) == 0)
            .collect();
        let verdict = |idx: u32| {
            if prune[idx as usize] {
                Expand::Prune
            } else {
                Expand::Continue
            }
        };
        let mut fast = Vec::new();
        valley::bounded_search_idx(&g, origin, k, |idx, hops| {
            fast.push((idx, hops));
            verdict(idx)
        });
        let mut reference = Vec::new();
        reference_search(&g, origin, k, |idx, hops| {
            reference.push((idx, hops));
            verdict(idx)
        });
        assert_eq!(fast, reference);
        // The Reached-collecting wrapper visits and returns the same.
        let mut wrapped = Vec::new();
        let collected = valley::bounded_search(&g, g.asn_at(origin), k, |r| {
            wrapped.push(r);
            verdict(g.index_of(r.asn).unwrap())
        });
        assert_eq!(collected, wrapped);
        let as_idx: Vec<(u32, usize)> = collected
            .iter()
            .map(|r| (g.index_of(r.asn).unwrap(), r.hops))
            .collect();
        assert_eq!(as_idx, reference);
    });
}

/// A random graph with a random target mask: each node a target with
/// probability one in 1..=4, so some masks hold every node.
fn graph_with_targets(rng: &mut StdRng) -> (AsGraph, Vec<bool>) {
    let mut g = AsGraph::new();
    add_random_edges(&mut g, rng, 1..80);
    let one_in = rng.gen_range(1..5);
    let target = (0..g.node_count())
        .map(|_| rng.gen_range(0..one_in) == 0)
        .collect();
    (g, target)
}

/// The directed search against the full scan: the same targets, at the
/// same hops and in the same order, under a visitor that prunes
/// targets chosen by a hash of the node.
#[test]
fn directed_search_visits_the_targets_of_the_full_scan() {
    check(256, |rng| {
        let (g, target) = graph_with_targets(rng);
        let origin = rng.gen_range(0..g.node_count() as u32);
        let k = rng.gen_range(0usize..=6);
        let salt = rng.next_u64();
        let verdict = |idx: u32| {
            let h = (u64::from(idx) ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            if h >> 62 == 0 {
                Expand::Prune
            } else {
                Expand::Continue
            }
        };
        let reach = valley::ReachTable::new(&g, |idx| target[idx as usize]);
        let mut directed = Vec::new();
        reach.search(origin, k, |idx, hops| {
            directed.push((idx, hops));
            verdict(idx)
        });
        let mut reference = Vec::new();
        reference_search(&g, origin, k, |idx, hops| {
            if !target[idx as usize] {
                return Expand::Continue;
            }
            reference.push((idx, hops));
            verdict(idx)
        });
        assert_eq!(directed, reference);
    });
}

/// Each state's distance to the nearest target against brute force:
/// uphill, the fewest hops at which a plain search from the node
/// reaches a target (the `valley_free_hops` of the nearest one);
/// downhill, a fixpoint over provider→customer and sibling links.
#[test]
fn reach_table_distances_match_a_brute_force() {
    check(256, |rng| {
        let (g, target) = graph_with_targets(rng);
        let reach = valley::ReachTable::new(&g, |idx| target[idx as usize]);
        let n = g.node_count();
        for v in 0..n as u32 {
            let reached = valley::bounded_search(&g, g.asn_at(v), 2 * n, |_| Expand::Continue);
            let up = reached
                .iter()
                .filter(|r| target[g.index_of(r.asn).unwrap() as usize])
                .map(|r| r.hops)
                .chain(target[v as usize].then_some(0))
                .min();
            assert_eq!(reach.hops_to_target(v, Phase::Up), up, "node {v} uphill");
        }
        let mut down: Vec<Option<usize>> = target.iter().map(|&t| t.then_some(0)).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for v in 0..n {
                for &(w, kind) in g.neighbors(g.asn_at(v as u32)) {
                    let Some(via) = down[w as usize].filter(|_| Phase::Down.step(kind).is_some())
                    else {
                        continue;
                    };
                    if down[v].is_none_or(|d| via + 1 < d) {
                        down[v] = Some(via + 1);
                        changed = true;
                    }
                }
            }
        }
        for v in 0..n as u32 {
            let got = reach.hops_to_target(v, Phase::Down);
            assert_eq!(got, down[v as usize], "node {v} downhill");
        }
    });
}
