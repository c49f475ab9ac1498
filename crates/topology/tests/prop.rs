//! Seeded property tests for AS-graph invariants, valley-free search, and
//! BGP policy routing.

use asap_cluster::Asn;
use asap_rng::check::{check, vec};
use asap_rng::StdRng;
use asap_topology::routing::BgpRouter;
use asap_topology::{valley, AsGraph, EdgeKind};

/// Provider-to-customer edges three times as often as each other kind.
fn arb_kind(rng: &mut StdRng) -> EdgeKind {
    match rng.gen_range(0..5) {
        0..=2 => EdgeKind::ProviderToCustomer,
        3 => EdgeKind::PeerToPeer,
        _ => EdgeKind::SiblingToSibling,
    }
}

/// Random annotated graphs over up to 24 ASes.
fn arb_graph(rng: &mut StdRng) -> AsGraph {
    let mut g = AsGraph::new();
    for _ in 0..rng.gen_range(1..80) {
        let (a, b) = (rng.gen_range(0..24), rng.gen_range(0..24));
        g.add_edge(Asn(a), Asn(b), arb_kind(rng));
    }
    g
}

/// The plain adjacency model `AsGraph` must agree with: nodes in
/// insertion order, each with its neighbors in insertion order, a
/// re-added adjacency re-annotated in place on both sides.
#[derive(Default)]
struct ModelGraph {
    adj: Vec<(Asn, Vec<(Asn, EdgeKind)>)>,
}

impl ModelGraph {
    fn node(&mut self, asn: Asn) -> usize {
        match self.adj.iter().position(|(a, _)| *a == asn) {
            Some(i) => i,
            None => {
                self.adj.push((asn, Vec::new()));
                self.adj.len() - 1
            }
        }
    }

    fn add_edge(&mut self, a: Asn, b: Asn, kind: EdgeKind) {
        if a == b {
            return;
        }
        let (ia, ib) = (self.node(a), self.node(b));
        match self.adj[ia].1.iter().position(|(n, _)| *n == b) {
            Some(i) => {
                self.adj[ia].1[i].1 = kind;
                let j = self.adj[ib].1.iter().position(|(n, _)| *n == a).unwrap();
                self.adj[ib].1[j].1 = kind.reverse();
            }
            None => {
                self.adj[ia].1.push((b, kind));
                self.adj[ib].1.push((a, kind.reverse()));
            }
        }
    }

    fn edge_kind(&self, a: Asn, b: Asn) -> Option<EdgeKind> {
        let (_, nbrs) = self.adj.iter().find(|(n, _)| *n == a)?;
        nbrs.iter().find(|(n, _)| *n == b).map(|&(_, k)| k)
    }
}

/// Edge insertions that build hubs (ASes 0–2 take most adjacencies, so
/// their lists outgrow their neighbors'), each added hub-first or
/// leaf-first, with a third of them repeating an earlier pair in either
/// direction, re-annotated or not.
fn arb_hub_insertions(rng: &mut StdRng) -> Vec<(Asn, Asn, EdgeKind)> {
    let mut ops: Vec<(Asn, Asn, EdgeKind)> = Vec::new();
    for _ in 0..rng.gen_range(1..120) {
        let op = if !ops.is_empty() && rng.gen_bool(1.0 / 3.0) {
            let (a, b, kind) = ops[rng.gen_range(0..ops.len())];
            let kind = if rng.gen_bool(0.5) {
                kind
            } else {
                arb_kind(rng)
            };
            (a, b, kind)
        } else {
            let hub = Asn(rng.gen_range(0..3));
            let other = Asn(rng.gen_range(0..32));
            (hub, other, arb_kind(rng))
        };
        let (a, b, kind) = op;
        ops.push(if rng.gen_bool(0.5) {
            (a, b, kind)
        } else {
            (b, a, kind.reverse())
        });
    }
    ops
}

/// `add_edge` and `edge_kind` against the plain model. After every
/// insertion: node order, exact adjacency order (which `edges()` and the
/// routing trees iterate) with its annotations, degrees, the edge count
/// and the inserted pair's annotation both ways. At the end: every pair,
/// absent pairs and ASes included.
#[test]
fn add_edge_and_edge_kind_match_the_adjacency_model() {
    check(256, |rng| {
        let mut g = AsGraph::new();
        let mut model = ModelGraph::default();
        for (a, b, kind) in arb_hub_insertions(rng) {
            g.add_edge(a, b, kind);
            model.add_edge(a, b, kind);
            let asns: Vec<Asn> = model.adj.iter().map(|(a, _)| *a).collect();
            assert_eq!(g.asns(), asns.as_slice());
            let links: usize = model.adj.iter().map(|(_, n)| n.len()).sum();
            assert_eq!(g.edge_count() * 2, links);
            for (asn, nbrs) in &model.adj {
                let got: Vec<(Asn, EdgeKind)> = g
                    .neighbors(*asn)
                    .iter()
                    .map(|&(n, k)| (g.asn_at(n), k))
                    .collect();
                assert_eq!(&got, nbrs, "adjacency of {asn}");
                assert_eq!(g.degree(*asn), nbrs.len());
            }
            for (x, y) in [(a, b), (b, a)] {
                assert_eq!(g.edge_kind(x, y), model.edge_kind(x, y), "{x} -> {y}");
            }
        }
        for x in (0..34).map(Asn) {
            for y in (0..34).map(Asn) {
                assert_eq!(g.edge_kind(x, y), model.edge_kind(x, y), "{x} -> {y}");
            }
        }
    });
}

#[test]
fn edge_annotations_are_mirrored() {
    check(256, |rng| {
        let g = arb_graph(rng);
        for (a, b, k) in g.edges() {
            assert_eq!(g.edge_kind(b, a), Some(k.reverse()));
        }
    });
}

#[test]
fn degree_equals_neighbor_count_and_edges_sum() {
    check(256, |rng| {
        let g = arb_graph(rng);
        let total: usize = g.asns().iter().map(|&a| g.degree(a)).sum();
        assert_eq!(total, 2 * g.edge_count());
    });
}

#[test]
fn bounded_search_hops_agree_with_valley_free_hops() {
    check(256, |rng| {
        let g = arb_graph(rng);
        let k = rng.gen_range(1usize..5);
        let Some(&origin) = g.asns().first() else {
            return;
        };
        let reached = valley::bounded_search(&g, origin, k, |_| valley::Expand::Continue);
        for r in &reached {
            assert!(r.hops <= k);
            assert_eq!(valley::valley_free_hops(&g, origin, r.asn, k), Some(r.hops));
        }
        // Completeness: anything with a valley-free distance ≤ k is reached.
        for &dst in g.asns() {
            if dst == origin {
                continue;
            }
            if let Some(h) = valley::valley_free_hops(&g, origin, dst, k) {
                assert!(
                    reached.iter().any(|r| r.asn == dst && r.hops == h),
                    "{dst} at {h} hops missing from bounded_search"
                );
            }
        }
    });
}

#[test]
fn policy_routes_are_valley_free_and_loop_free() {
    check(256, |rng| {
        let g = arb_graph(rng);
        let router = BgpRouter::new(&g);
        let asns: Vec<Asn> = g.asns().to_vec();
        for &d in asns.iter().take(6) {
            for &s in asns.iter().take(12) {
                if let Some(path) = router.path(&g, s, d) {
                    assert!(
                        valley::is_valley_free(&g, &path),
                        "route {:?} has a valley",
                        path
                    );
                    let mut sorted = path.clone();
                    sorted.sort();
                    sorted.dedup();
                    assert_eq!(sorted.len(), path.len(), "route has a loop");
                    assert_eq!(*path.first().unwrap(), s);
                    assert_eq!(*path.last().unwrap(), d);
                }
            }
        }
    });
}

#[test]
fn policy_route_exists_whenever_any_valley_free_path_exists() {
    check(256, |rng| {
        let g = arb_graph(rng);
        // BGP with customer/peer/provider export rules finds a route iff a
        // valley-free path exists at all (our propagation is complete).
        let router = BgpRouter::new(&g);
        let asns: Vec<Asn> = g.asns().to_vec();
        let n = asns.len();
        for &d in asns.iter().take(4) {
            for &s in asns.iter().take(8) {
                let policy = router.path(&g, s, d).is_some();
                let any = valley::valley_free_hops(&g, s, d, n).is_some();
                assert_eq!(
                    policy, any,
                    "policy route {} vs valley-free path {} for {}->{}",
                    policy, any, s, d
                );
            }
        }
    });
}

#[test]
fn gao_inference_covers_exactly_observed_adjacencies() {
    check(256, |rng| {
        let paths = vec(rng, 1..20, |rng| {
            let mut seen = std::collections::HashSet::new();
            vec(rng, 2..6, |rng| Asn(rng.gen_range(0..16)))
                .into_iter()
                .filter(|a| seen.insert(*a))
                .collect::<Vec<_>>()
        });
        let inf = asap_topology::gao::infer(&paths, &Default::default());
        // Every inferred edge appears on some path, and vice versa.
        let mut observed = std::collections::HashSet::new();
        for p in &paths {
            for w in p.windows(2) {
                let key = if w[0] <= w[1] {
                    (w[0], w[1])
                } else {
                    (w[1], w[0])
                };
                observed.insert(key);
            }
        }
        let inferred: std::collections::HashSet<(Asn, Asn)> = inf
            .graph
            .edges()
            .map(|(a, b, _)| if a <= b { (a, b) } else { (b, a) })
            .collect();
        assert_eq!(inferred, observed);
    });
}
