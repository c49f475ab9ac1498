//! BGP policy routing over the annotated AS graph.
//!
//! Direct IP routing between two end hosts follows each AS's commercial
//! policy, not shortest paths: every AS prefers routes learned from
//! customers over routes learned from peers over routes learned from
//! providers (it is paid for the first, pays for the last), and only then
//! breaks ties by AS-path length. The realized routes are valley-free.
//! This module computes those routes with the standard three-stage
//! propagation over the annotated graph, one *routing tree* per
//! destination AS.
//!
//! These policy routes are what the paper calls the **direct IP routing
//! path**; their latency tail (paths forced through congested or distant
//! providers even when a short detour exists) is precisely the gap ASAP's
//! relays exploit.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use asap_cluster::Asn;

use crate::graph::AsGraph;
use crate::valley;

/// How a route was learned, in decreasing order of preference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RouteClass {
    /// Learned from a customer (or the destination itself).
    Customer,
    /// Learned across one peering link.
    Peer,
    /// Learned from a provider.
    Provider,
}

const NO_ROUTE: u32 = u32::MAX;

/// All routes towards one destination AS: for every source AS, the next
/// hop, and on demand the route class and the AS-hop count.
///
/// A route walk reads only the next hops, so a tree keeps only those.
/// The first [`RoutingTree::class_from`] or [`RoutingTree::hops_from`]
/// call re-runs this destination's propagation to fill the other two
/// (a fill that [`BgpRouter::cache_stats`] does not count).
#[derive(Debug, Clone)]
pub struct RoutingTree {
    dest: Asn,
    dest_idx: u32,
    /// Per node index: next hop towards the destination (NO_ROUTE if
    /// unreachable).
    next_hop: Vec<u32>,
    detail: OnceLock<RouteDetail>,
}

/// Per node index: the route class and hop count of a [`RoutingTree`].
#[derive(Debug, Clone)]
struct RouteDetail {
    class: Vec<RouteClass>,
    hops: Vec<u8>,
}

impl RoutingTree {
    /// The destination AS this tree routes towards.
    pub fn destination(&self) -> Asn {
        self.dest
    }

    /// Whether node index `src` has a policy-compliant route to the
    /// destination (the destination itself always does).
    pub fn routable_idx(&self, src: u32) -> bool {
        src == self.dest_idx || self.next_hop[src as usize] != NO_ROUTE
    }

    /// The next hop from node index `src` towards the destination, or
    /// `None` at the destination and at nodes with no route. Following
    /// it from a routable node walks the policy route without building
    /// a path.
    pub fn next_hop_idx(&self, src: u32) -> Option<u32> {
        match self.next_hop[src as usize] {
            NO_ROUTE => None,
            next => Some(next),
        }
    }

    /// Whether `src` has any policy-compliant route to the destination.
    pub fn reachable(&self, graph: &AsGraph, src: Asn) -> bool {
        graph.index_of(src).is_some_and(|i| self.routable_idx(i))
    }

    /// The number of AS links on the policy route from `src`, if routable.
    pub fn hops_from(&self, graph: &AsGraph, src: Asn) -> Option<usize> {
        let i = graph.index_of(src)?;
        if i == self.dest_idx {
            return Some(0);
        }
        self.next_hop_idx(i)?;
        Some(self.detail(graph).hops[i as usize] as usize)
    }

    /// The route class at `src`, if routable.
    pub fn class_from(&self, graph: &AsGraph, src: Asn) -> Option<RouteClass> {
        let i = graph.index_of(src)?;
        if i == self.dest_idx {
            return Some(RouteClass::Customer);
        }
        self.next_hop_idx(i)?;
        Some(self.detail(graph).class[i as usize])
    }

    /// Classes and hop counts, from a second propagation run on first use.
    fn detail(&self, graph: &AsGraph) -> &RouteDetail {
        self.detail
            .get_or_init(|| propagate(graph, self.dest_idx).1)
    }

    /// The full AS path from `src` to the destination (inclusive on both
    /// ends), if routable.
    pub fn path_from(&self, graph: &AsGraph, src: Asn) -> Option<Vec<Asn>> {
        let mut i = graph.index_of(src)?;
        if !self.routable_idx(i) {
            return None;
        }
        let mut path = vec![graph.asn_at(i)];
        while let Some(next) = self.next_hop_idx(i) {
            i = next;
            path.push(graph.asn_at(i));
            debug_assert!(path.len() <= graph.node_count() + 1, "routing loop");
        }
        Some(path)
    }
}

/// Computes BGP policy routes on demand and caches one [`RoutingTree`] per
/// destination AS.
///
/// The cache is a table sized from the graph with one `OnceLock` per
/// destination node, so every method takes `&self` and threads share
/// one router without a lock: each tree is built at most once, and a
/// thread that races a build waits for it instead of building again.
/// A cached tree holds one `u32` next hop per node; the route classes
/// and hop counts that only [`BgpRouter::as_hops`] and
/// [`RoutingTree::class_from`] read are rebuilt on their first use.
///
/// ```
/// use asap_topology::{AsGraph, EdgeKind, routing::BgpRouter};
/// use asap_cluster::Asn;
///
/// let mut g = AsGraph::new();
/// g.add_edge(Asn(1), Asn(2), EdgeKind::ProviderToCustomer);
/// g.add_edge(Asn(1), Asn(3), EdgeKind::ProviderToCustomer);
/// let router = BgpRouter::new(&g);
/// // 2 and 3 reach each other through their shared provider 1.
/// assert_eq!(router.path(&g, Asn(2), Asn(3)), Some(vec![Asn(2), Asn(1), Asn(3)]));
/// ```
#[derive(Debug)]
pub struct BgpRouter {
    trees: Vec<OnceLock<RoutingTree>>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

impl BgpRouter {
    /// Creates a router with an empty route cache for `graph`. Every
    /// query must pass this same graph.
    pub fn new(graph: &AsGraph) -> Self {
        BgpRouter {
            trees: (0..graph.node_count()).map(|_| OnceLock::new()).collect(),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
        }
    }

    /// `(hits, misses)` of the routing-tree cache: a miss computes a
    /// full tree, a hit answers from the memo. Every tree lookup counts
    /// exactly once, and a destination costs exactly one miss even when
    /// threads race to build it. The lazy class and hop-count fill of a
    /// cached tree is not a lookup and counts nothing.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.cache_hits.load(Ordering::Relaxed),
            self.cache_misses.load(Ordering::Relaxed),
        )
    }

    /// The routing tree towards `dest`, computing and caching it if needed.
    ///
    /// # Panics
    ///
    /// Panics if `dest` is not in the graph.
    pub fn tree(&self, graph: &AsGraph, dest: Asn) -> &RoutingTree {
        let dest_idx = graph
            .index_of(dest)
            .unwrap_or_else(|| panic!("destination {dest} not in AS graph"));
        self.tree_idx(graph, dest_idx)
    }

    /// The routing tree towards node index `dest_idx`, computing and
    /// caching it if needed.
    ///
    /// # Panics
    ///
    /// Panics if `dest_idx` is not a node index of the graph the router
    /// was sized from.
    pub fn tree_idx(&self, graph: &AsGraph, dest_idx: u32) -> &RoutingTree {
        let mut built = false;
        let tree = self.trees[dest_idx as usize].get_or_init(|| {
            built = true;
            compute_tree(graph, dest_idx)
        });
        let counter = if built {
            &self.cache_misses
        } else {
            &self.cache_hits
        };
        counter.fetch_add(1, Ordering::Relaxed);
        tree
    }

    /// The policy route AS path from `src` to `dest`, if one exists.
    ///
    /// # Panics
    ///
    /// Panics if `dest` is not in the graph.
    pub fn path(&self, graph: &AsGraph, src: Asn, dest: Asn) -> Option<Vec<Asn>> {
        self.tree(graph, dest).path_from(graph, src)
    }

    /// AS-hop count of the policy route, if one exists.
    ///
    /// # Panics
    ///
    /// Panics if `dest` is not in the graph.
    pub fn as_hops(&self, graph: &AsGraph, src: Asn, dest: Asn) -> Option<usize> {
        self.tree(graph, dest).hops_from(graph, src)
    }
}

/// The routing tree towards `dest_idx`, keeping only its next hops.
fn compute_tree(graph: &AsGraph, dest_idx: u32) -> RoutingTree {
    RoutingTree {
        dest: graph.asn_at(dest_idx),
        dest_idx,
        next_hop: propagate(graph, dest_idx).0,
        detail: OnceLock::new(),
    }
}

/// Computes every node's next hop, route class and hop count towards
/// `dest` with three-stage propagation:
///
/// 1. **Customer routes** climb from the destination through
///    customer→provider links (every AS gladly carries traffic *to* its
///    customers). Shortest (in hops) wins; ties broken by lower next-hop
///    ASN for determinism.
/// 2. **Peer routes**: an AS holding a customer route exports it across
///    each of its peering links (one peer hop only).
/// 3. **Provider routes** descend: an AS holding any route exports it to
///    its customers, recursively.
///
/// Sibling links propagate routes in every stage without changing class.
/// Each stage walks only the neighbor slice its edges come from (see
/// `AsGraph::up_idx` and its siblings), in adjacency order, so it visits
/// the same candidates in the same order as a scan of every neighbor.
fn propagate(graph: &AsGraph, dest_idx: u32) -> (Vec<u32>, RouteDetail) {
    let n = graph.node_count();
    let mut next_hop = vec![NO_ROUTE; n];
    let mut class = vec![RouteClass::Provider; n];
    let mut hops = vec![0u8; n];
    let mut has_route = vec![false; n];

    // Stage 1: customer routes (BFS uphill from dest).
    has_route[dest_idx as usize] = true;
    let mut frontier = VecDeque::new();
    frontier.push_back(dest_idx);
    while let Some(x) = frontier.pop_front() {
        let x_hops = if x == dest_idx {
            0
        } else {
            hops[x as usize] as usize
        };
        // Export x's customer route to x's providers and siblings.
        for &y in graph.up_idx(x) {
            if y == dest_idx {
                continue;
            }
            let yi = y as usize;
            let candidate_hops = x_hops + 1;
            let better = !has_route[yi]
                || (class[yi] == RouteClass::Customer
                    && ((hops[yi] as usize) > candidate_hops
                        || (hops[yi] as usize == candidate_hops
                            && graph.asn_at(next_hop[yi]) > graph.asn_at(x))));
            if better {
                let first_time = !has_route[yi];
                has_route[yi] = true;
                class[yi] = RouteClass::Customer;
                hops[yi] = candidate_hops as u8;
                next_hop[yi] = x;
                if first_time || (hops[yi] as usize) == candidate_hops {
                    frontier.push_back(y);
                }
            }
        }
    }

    // Stage 2: peer routes. Snapshot customer-route holders first so a
    // freshly assigned peer route is never re-exported.
    let holders: Vec<u32> = (0..n as u32)
        .filter(|&i| {
            i == dest_idx || (has_route[i as usize] && class[i as usize] == RouteClass::Customer)
        })
        .collect();
    for x in holders {
        let x_hops = if x == dest_idx {
            0
        } else {
            hops[x as usize] as usize
        };
        for &y in graph.peers_idx(x) {
            if y == dest_idx {
                continue;
            }
            let yi = y as usize;
            let candidate_hops = x_hops + 1;
            let better = !has_route[yi]
                || (class[yi] == RouteClass::Peer
                    && ((hops[yi] as usize) > candidate_hops
                        || (hops[yi] as usize == candidate_hops
                            && graph.asn_at(next_hop[yi]) > graph.asn_at(x))));
            if better {
                has_route[yi] = true;
                class[yi] = RouteClass::Peer;
                hops[yi] = candidate_hops as u8;
                next_hop[yi] = x;
            }
        }
    }

    // Stage 3: provider routes (BFS downhill from every route holder).
    let mut frontier: VecDeque<u32> = (0..n as u32)
        .filter(|&i| i == dest_idx || has_route[i as usize])
        .collect();
    while let Some(x) = frontier.pop_front() {
        let x_hops = if x == dest_idx {
            0
        } else {
            hops[x as usize] as usize
        };
        // Export x's route to x's customers and siblings.
        for &y in graph.down_idx(x) {
            if y == dest_idx {
                continue;
            }
            let yi = y as usize;
            let candidate_hops = x_hops + 1;
            let better = !has_route[yi]
                || (class[yi] == RouteClass::Provider
                    && class[x as usize] <= RouteClass::Provider
                    && ((hops[yi] as usize) > candidate_hops
                        || (hops[yi] as usize == candidate_hops
                            && graph.asn_at(next_hop[yi]) > graph.asn_at(x))));
            if better && (!has_route[yi] || class[yi] == RouteClass::Provider) {
                let improved = !has_route[yi] || (hops[yi] as usize) > candidate_hops;
                has_route[yi] = true;
                class[yi] = RouteClass::Provider;
                hops[yi] = candidate_hops.min(u8::MAX as usize) as u8;
                next_hop[yi] = x;
                if improved {
                    frontier.push_back(y);
                }
            }
        }
    }

    (next_hop, RouteDetail { class, hops })
}

/// Convenience check used by tests and property suites: every realized
/// policy route must be valley-free.
pub fn route_is_valley_free(graph: &AsGraph, tree: &RoutingTree, src: Asn) -> bool {
    match tree.path_from(graph, src) {
        Some(path) => valley::is_valley_free(graph, &path),
        None => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{InternetConfig, InternetGenerator};
    use crate::graph::EdgeKind;

    fn p2c() -> EdgeKind {
        EdgeKind::ProviderToCustomer
    }

    /// dest(1) <- provider(2) <- source(3): provider route for 3.
    #[test]
    fn routes_through_shared_provider() {
        let mut g = AsGraph::new();
        g.add_edge(Asn(2), Asn(1), p2c());
        g.add_edge(Asn(2), Asn(3), p2c());
        let r = BgpRouter::new(&g);
        assert_eq!(
            r.path(&g, Asn(3), Asn(1)),
            Some(vec![Asn(3), Asn(2), Asn(1)])
        );
        assert_eq!(
            r.tree(&g, Asn(1)).class_from(&g, Asn(3)),
            Some(RouteClass::Provider)
        );
        assert_eq!(
            r.tree(&g, Asn(1)).class_from(&g, Asn(2)),
            Some(RouteClass::Customer)
        );
    }

    #[test]
    fn customer_route_preferred_over_shorter_peer_route() {
        // dest 1; source 4 hears: customer route 4->5->1 (2 hops, 5 is 4's
        // customer chain) and peer route 4->1 would not exist; construct:
        // 4 has customer 5, 5 has customer 1 → customer route, 2 hops.
        // 4 also peers with 6, 6 has customer 1 → peer route, 2 hops.
        // Same length: customer class must win.
        let mut g = AsGraph::new();
        g.add_edge(Asn(4), Asn(5), p2c());
        g.add_edge(Asn(5), Asn(1), p2c());
        g.add_edge(Asn(4), Asn(6), EdgeKind::PeerToPeer);
        g.add_edge(Asn(6), Asn(1), p2c());
        let r = BgpRouter::new(&g);
        let tree = r.tree(&g, Asn(1));
        assert_eq!(tree.class_from(&g, Asn(4)), Some(RouteClass::Customer));
        assert_eq!(
            tree.path_from(&g, Asn(4)),
            Some(vec![Asn(4), Asn(5), Asn(1)])
        );
    }

    #[test]
    fn peer_route_preferred_over_provider_route() {
        // Source 3 can go up to provider 2 then down to 1 (provider route)
        // or across its peer 4 which has customer 1 (peer route).
        let mut g = AsGraph::new();
        g.add_edge(Asn(2), Asn(3), p2c());
        g.add_edge(Asn(2), Asn(1), p2c());
        g.add_edge(Asn(3), Asn(4), EdgeKind::PeerToPeer);
        g.add_edge(Asn(4), Asn(1), p2c());
        let r = BgpRouter::new(&g);
        let tree = r.tree(&g, Asn(1));
        assert_eq!(tree.class_from(&g, Asn(3)), Some(RouteClass::Peer));
        assert_eq!(
            tree.path_from(&g, Asn(3)),
            Some(vec![Asn(3), Asn(4), Asn(1)])
        );
    }

    #[test]
    fn no_route_across_two_peering_links() {
        // 3 - 2 - 1 all peering: 3 cannot reach 1 (2 would transit between
        // two peers).
        let mut g = AsGraph::new();
        g.add_edge(Asn(3), Asn(2), EdgeKind::PeerToPeer);
        g.add_edge(Asn(2), Asn(1), EdgeKind::PeerToPeer);
        let r = BgpRouter::new(&g);
        assert_eq!(r.path(&g, Asn(3), Asn(1)), None);
        assert!(r.tree(&g, Asn(1)).reachable(&g, Asn(2)));
    }

    #[test]
    fn siblings_transit_freely() {
        // 3's only upstream is its sibling 2, whose provider 4 also serves 1.
        let mut g = AsGraph::new();
        g.add_edge(Asn(3), Asn(2), EdgeKind::SiblingToSibling);
        g.add_edge(Asn(4), Asn(2), p2c());
        g.add_edge(Asn(4), Asn(1), p2c());
        let r = BgpRouter::new(&g);
        assert_eq!(
            r.path(&g, Asn(3), Asn(1)),
            Some(vec![Asn(3), Asn(2), Asn(4), Asn(1)])
        );
    }

    #[test]
    fn self_route_is_trivial() {
        let mut g = AsGraph::new();
        g.add_node(Asn(1));
        let r = BgpRouter::new(&g);
        assert_eq!(r.path(&g, Asn(1), Asn(1)), Some(vec![Asn(1)]));
        assert_eq!(r.as_hops(&g, Asn(1), Asn(1)), Some(0));
    }

    #[test]
    fn direct_route_can_be_longer_than_relay_detour() {
        // Fig. 4 (right): multi-homed B under D and E. Direct A→C must take
        // the long valley-free route over the top, while relaying at B gives
        // A→D→B plus B→E→C (both short) — the overlay advantage.
        let mut g = AsGraph::new();
        // Long top chain: D and E connect only via tier-1 I.
        g.add_edge(Asn(9), Asn(4), p2c()); // I -> D
        g.add_edge(Asn(9), Asn(5), p2c()); // I -> E
        g.add_edge(Asn(4), Asn(1), p2c()); // D -> A
        g.add_edge(Asn(5), Asn(3), p2c()); // E -> C
        g.add_edge(Asn(4), Asn(2), p2c()); // D -> B
        g.add_edge(Asn(5), Asn(2), p2c()); // E -> B
        let r = BgpRouter::new(&g);
        let direct = r.as_hops(&g, Asn(1), Asn(3)).unwrap();
        let via_b = r.as_hops(&g, Asn(1), Asn(2)).unwrap() + r.as_hops(&g, Asn(2), Asn(3)).unwrap();
        assert_eq!(direct, 4);
        assert_eq!(via_b, 4); // 2 + 2: equal hops here, but avoids the core I.
        assert!(r.path(&g, Asn(1), Asn(3)).unwrap().contains(&Asn(9)));
        assert!(!r.path(&g, Asn(1), Asn(2)).unwrap().contains(&Asn(9)));
    }

    #[test]
    fn all_policy_routes_are_valley_free_on_synthetic_internet() {
        let net = InternetGenerator::new(InternetConfig::tiny(), 11).generate();
        let r = BgpRouter::new(&net.graph);
        let asns: Vec<Asn> = net.graph.asns().to_vec();
        let dests = [asns[0], asns[asns.len() / 2], asns[asns.len() - 1]];
        for &d in &dests {
            let tree = compute_tree(&net.graph, net.graph.index_of(d).unwrap());
            for &s in &asns {
                assert!(
                    route_is_valley_free(&net.graph, &tree, s),
                    "route {s} → {d} has a valley"
                );
            }
        }
        // And the cache caches: one miss on first build, hits after.
        r.tree(&net.graph, dests[0]);
        r.tree(&net.graph, dests[0]);
        assert_eq!(r.cache_stats(), (1, 1));
        r.as_hops(&net.graph, asns[1], dests[0]);
        assert_eq!(r.cache_stats(), (2, 1));
    }

    #[test]
    fn synthetic_internet_is_fully_routable() {
        let net = InternetGenerator::new(InternetConfig::tiny(), 13).generate();
        let tree = compute_tree(&net.graph, 0);
        let unreachable = net
            .graph
            .asns()
            .iter()
            .filter(|&&s| !tree.reachable(&net.graph, s))
            .count();
        assert_eq!(
            unreachable, 0,
            "{unreachable} ASes cannot reach a tier-connected AS"
        );
    }

    #[test]
    #[should_panic(expected = "not in AS graph")]
    fn tree_for_unknown_destination_panics() {
        let g = AsGraph::new();
        let r = BgpRouter::new(&g);
        r.tree(&g, Asn(42));
    }
}
