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
use std::iter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use asap_cluster::Asn;

use crate::graph::{AsGraph, CoreSplit, LEAF};
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

/// One AS's route towards a tree's destination.
#[derive(Debug, Clone, Copy)]
struct Route {
    /// Node index of the next hop; `NO_ROUTE` if the AS has no route.
    next: u32,
    /// AS links to the destination.
    hops: u16,
    class: RouteClass,
}

impl Route {
    /// No route. Its class is not `Customer`, so it never exports.
    const NONE: Route = Route {
        next: NO_ROUTE,
        hops: 0,
        class: RouteClass::Provider,
    };

    fn routed(&self) -> bool {
        self.next != NO_ROUTE
    }
}

/// All routes towards one destination AS: for every source AS, the next
/// hop, the route class and the AS-hop count.
///
/// A tree stores the routes of the transit core only (see
/// [`BgpRouter`]), one 8-byte entry per core AS. A leaf's route, and so
/// the first hop of a walk from a leaf, is derived from its neighbors'
/// entries when asked. Past its first hop, every route runs through the
/// core.
#[derive(Debug, Clone)]
pub struct RoutingTree {
    dest: Asn,
    dest_idx: u32,
    core: Arc<CoreSplit>,
    /// Per core slot: that AS's route. The destination's own entry, if
    /// it is in the core, is a 0-hop customer route to itself.
    routes: Box<[Route]>,
}

impl RoutingTree {
    /// The destination AS this tree routes towards.
    pub fn destination(&self) -> Asn {
        self.dest
    }

    /// Whether node index `src` has a policy-compliant route to the
    /// destination (the destination itself always does).
    pub fn routable_idx(&self, src: u32) -> bool {
        src == self.dest_idx || self.route_at(src).is_some()
    }

    /// The next hop from node index `src` towards the destination, or
    /// `None` at the destination and at nodes with no route.
    pub fn next_hop_idx(&self, src: u32) -> Option<u32> {
        if src == self.dest_idx {
            return None;
        }
        self.route_at(src).map(|r| r.next)
    }

    /// The policy route from node index `src`: the node indices after
    /// `src`, ending at the destination (none from the destination
    /// itself), or `None` if `src` has no route. The first hop is
    /// resolved here, once; a clone of the iterator walks the route
    /// again without resolving it again.
    pub fn route_idx(&self, src: u32) -> Option<RouteHops<'_>> {
        let next = if src == self.dest_idx {
            None
        } else {
            Some(self.route_at(src)?.next)
        };
        Some(RouteHops { tree: self, next })
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
        self.route_at(i).map(|r| usize::from(r.hops))
    }

    /// The route class at `src`, if routable.
    pub fn class_from(&self, graph: &AsGraph, src: Asn) -> Option<RouteClass> {
        let i = graph.index_of(src)?;
        if i == self.dest_idx {
            return Some(RouteClass::Customer);
        }
        self.route_at(i).map(|r| r.class)
    }

    /// The full AS path from `src` to the destination (inclusive on both
    /// ends), if routable.
    pub fn path_from(&self, graph: &AsGraph, src: Asn) -> Option<Vec<Asn>> {
        let i = graph.index_of(src)?;
        let hops = self.route_idx(i)?.take(graph.node_count());
        let path: Vec<Asn> = iter::once(i).chain(hops).map(|x| graph.asn_at(x)).collect();
        debug_assert_eq!(path.last(), Some(&self.dest), "routing loop");
        Some(path)
    }

    /// The route of node `src`, which is not the destination: its core
    /// entry, or a leaf's derived route.
    fn route_at(&self, src: u32) -> Option<Route> {
        match self.core.slot(src) {
            LEAF => self.leaf_route(src),
            s => Some(self.routes[s as usize]).filter(Route::routed),
        }
    }

    /// The route of leaf `leaf`, which is not the destination.
    ///
    /// A leaf is offered routes only by neighbors that export to it: a
    /// peer holding a customer route (or the destination) across the
    /// peering, and any routed provider down to its customer. It prefers
    /// a peer route to a provider route, then fewer hops, then the lower
    /// next-hop ASN, as propagation does. Both lists are sorted by ASN,
    /// so the first of the fewest hops wins.
    fn leaf_route(&self, leaf: u32) -> Option<Route> {
        let core = &*self.core;
        let best_peer = core
            .leaf_peers
            .of(leaf)
            .iter()
            .filter_map(|&peer| {
                if peer == self.dest_idx {
                    return Some((0, peer));
                }
                match core.slot(peer) {
                    LEAF => None,
                    s => {
                        let r = self.routes[s as usize];
                        (r.class == RouteClass::Customer).then_some((r.hops, peer))
                    }
                }
            })
            .min_by_key(|&(hops, _)| hops);
        if let Some((hops, next)) = best_peer {
            return Some(Route {
                next,
                hops: hops + 1,
                class: RouteClass::Peer,
            });
        }
        core.leaf_providers
            .of(leaf)
            .iter()
            .filter_map(|&s| {
                let r = self.routes[s as usize];
                r.routed().then_some((r.hops, s))
            })
            .min_by_key(|&(hops, _)| hops)
            .map(|(hops, s)| Route {
                next: core.node(s),
                hops: hops + 1,
                class: RouteClass::Provider,
            })
    }
}

/// The node indices of a policy route after its source, ending at the
/// destination; see [`RoutingTree::route_idx`].
#[derive(Debug, Clone)]
pub struct RouteHops<'a> {
    tree: &'a RoutingTree,
    next: Option<u32>,
}

impl Iterator for RouteHops<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let x = self.next?;
        let tree = self.tree;
        // Past its source, a route runs through the core.
        self.next = (x != tree.dest_idx).then(|| tree.routes[tree.core.slot(x) as usize].next);
        Some(x)
    }
}

/// Computes BGP policy routes on demand and caches one [`RoutingTree`] per
/// destination AS.
///
/// The cache is a table sized from the graph with one `OnceLock` per
/// destination node, so every method takes `&self` and threads share
/// one router without a lock: each tree is built at most once, and a
/// thread that races a build waits for it instead of building again.
///
/// A tree build propagates routes over the graph's transit core (the
/// ASes with a customer or a sibling) plus the destination, and a
/// cached tree keeps one next hop, hop count and class per core AS.
/// A leaf's route is derived from its neighbors' when a query starts
/// from it.
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
    /// tree, a hit answers from the memo. Every tree lookup counts
    /// exactly once, and a destination costs exactly one miss even when
    /// threads race to build it.
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

/// The routing tree towards `dest_idx`.
fn compute_tree(graph: &AsGraph, dest_idx: u32) -> RoutingTree {
    let core = Arc::clone(graph.core());
    RoutingTree {
        dest: graph.asn_at(dest_idx),
        dest_idx,
        routes: propagate(graph, &core, dest_idx),
        core,
    }
}

/// Computes every core AS's route towards `dest_idx` with three-stage
/// propagation:
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
/// Each stage walks only the core slices its edges come from. A leaf
/// other than the destination exports nothing: stage 1 climbs only to
/// providers and siblings, and a leaf is nobody's provider or sibling;
/// stage 2 exports only customer routes, which only that climb hands
/// out; stage 3 descends to customers and siblings, and a leaf has
/// none. So the core's routes do not depend on the leaves, and a leaf
/// destination takes part only through its first exports.
///
/// Every stage settles on the same routes in any visiting order: an AS
/// keeps the best offer it hears by (class, hops, next-hop ASN), and
/// the last offer each exporter sends carries its final hop count.
fn propagate(graph: &AsGraph, core: &CoreSplit, dest_idx: u32) -> Box<[Route]> {
    let mut routes = vec![Route::NONE; core.node.len()];
    let via = |x: u32, hops: u16, class| Route {
        next: x,
        hops: hops + 1,
        class,
    };

    // Stage 1: customer routes (BFS uphill from dest). A leaf
    // destination has no slot: its exports, to its providers here and
    // its core peers in stage 2, are made up front.
    let dest_slot = core.slot(dest_idx);
    let mut frontier = VecDeque::new();
    if dest_slot == LEAF {
        let route = via(dest_idx, 0, RouteClass::Customer);
        for &y in core.leaf_providers.of(dest_idx) {
            if offer(graph, &mut routes, y, route) {
                frontier.push_back(y);
            }
        }
    } else {
        routes[dest_slot as usize] = Route {
            next: dest_idx,
            hops: 0,
            class: RouteClass::Customer,
        };
        frontier.push_back(dest_slot);
    }
    while let Some(x) = frontier.pop_front() {
        let route = via(core.node(x), routes[x as usize].hops, RouteClass::Customer);
        // Export x's customer route to x's providers and siblings.
        for &y in core.up.of(x) {
            if offer(graph, &mut routes, y, route) {
                frontier.push_back(y);
            }
        }
    }

    // Stage 2: peer routes. A peer route is never re-exported: only a
    // customer route holder exports, and no stage-2 offer makes one.
    if dest_slot == LEAF {
        let route = via(dest_idx, 0, RouteClass::Peer);
        for &peer in core.leaf_peers.of(dest_idx) {
            let y = core.slot(peer);
            if y != LEAF {
                offer(graph, &mut routes, y, route);
            }
        }
    }
    for x in 0..core.node.len() as u32 {
        let Route { hops, class, .. } = routes[x as usize];
        if class == RouteClass::Customer {
            let route = via(core.node(x), hops, RouteClass::Peer);
            for &y in core.peer.of(x) {
                offer(graph, &mut routes, y, route);
            }
        }
    }

    // Stage 3: provider routes (BFS downhill from every route holder).
    frontier.extend((0..core.node.len() as u32).filter(|&x| routes[x as usize].routed()));
    while let Some(x) = frontier.pop_front() {
        let route = via(core.node(x), routes[x as usize].hops, RouteClass::Provider);
        // Export x's route to x's customers and siblings.
        for &y in core.down.of(x) {
            if offer(graph, &mut routes, y, route) {
                frontier.push_back(y);
            }
        }
    }

    routes.into_boxed_slice()
}

/// Offers slot `y` the route `offer`. It replaces y's route when y has
/// none, or has one of the same class that is longer, or as long
/// through a higher next-hop ASN. Returns whether y had no route or its
/// hop count fell, the cases in which y's own exports change.
fn offer(graph: &AsGraph, routes: &mut [Route], y: u32, offer: Route) -> bool {
    let r = &mut routes[y as usize];
    if !r.routed() {
        *r = offer;
        return true;
    }
    if r.class != offer.class {
        return false;
    }
    let fewer = r.hops > offer.hops;
    if fewer || (r.hops == offer.hops && graph.asn_at(r.next) > graph.asn_at(offer.next)) {
        *r = offer;
    }
    fewer
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

    /// A 301-AS provider chain, `0 → 300` in each direction: hop counts
    /// past 255 neither wrap nor clamp.
    #[test]
    fn long_chains_count_every_hop() {
        for top_down in [true, false] {
            let mut g = AsGraph::new();
            for i in 0..300 {
                let (provider, customer) = if top_down { (i + 1, i) } else { (i, i + 1) };
                g.add_edge(Asn(provider), Asn(customer), p2c());
            }
            let r = BgpRouter::new(&g);
            let tree = r.tree(&g, Asn(0));
            let class = if top_down {
                RouteClass::Customer
            } else {
                RouteClass::Provider
            };
            assert_eq!(tree.class_from(&g, Asn(300)), Some(class));
            assert_eq!(r.as_hops(&g, Asn(300), Asn(0)), Some(300));
            assert_eq!(r.as_hops(&g, Asn(0), Asn(300)), Some(300));
            assert_eq!(r.path(&g, Asn(300), Asn(0)).map(|p| p.len()), Some(301));
        }
    }

    /// Leaf 9's peer 5 holds a customer route (5 → 6 → 1), so 9 takes it
    /// over the one-hop route down from its provider 1, the destination.
    #[test]
    fn leaf_prefers_a_peer_customer_route_to_a_shorter_provider_route() {
        let mut g = AsGraph::new();
        g.add_edge(Asn(1), Asn(9), p2c());
        g.add_edge(Asn(9), Asn(5), EdgeKind::PeerToPeer);
        g.add_edge(Asn(5), Asn(6), p2c());
        g.add_edge(Asn(6), Asn(1), p2c());
        let r = BgpRouter::new(&g);
        let tree = r.tree(&g, Asn(1));
        assert_eq!(tree.class_from(&g, Asn(9)), Some(RouteClass::Peer));
        assert_eq!(tree.hops_from(&g, Asn(9)), Some(3));
        assert_eq!(
            tree.path_from(&g, Asn(9)),
            Some(vec![Asn(9), Asn(5), Asn(6), Asn(1)])
        );
    }

    /// Leaf 9's providers 7, 4 and 8 are each one hop above destination
    /// 1; the lowest ASN wins, whatever the adjacency or index order.
    #[test]
    fn leaf_breaks_equal_provider_hops_by_lower_asn() {
        let mut g = AsGraph::new();
        for provider in [7, 4, 8] {
            g.add_edge(Asn(provider), Asn(9), p2c());
            g.add_edge(Asn(provider), Asn(1), p2c());
        }
        let r = BgpRouter::new(&g);
        let tree = r.tree(&g, Asn(1));
        assert_eq!(tree.class_from(&g, Asn(9)), Some(RouteClass::Provider));
        assert_eq!(
            tree.path_from(&g, Asn(9)),
            Some(vec![Asn(9), Asn(4), Asn(1)])
        );
    }

    /// Leaf destination 1 peers with core AS 2 and leaf 3: both take a
    /// one-hop peer route, and 2's customer 4 a provider route through 2.
    #[test]
    fn leaf_destination_exports_across_its_peerings() {
        let mut g = AsGraph::new();
        g.add_edge(Asn(1), Asn(2), EdgeKind::PeerToPeer);
        g.add_edge(Asn(1), Asn(3), EdgeKind::PeerToPeer);
        g.add_edge(Asn(2), Asn(4), p2c());
        let r = BgpRouter::new(&g);
        let tree = r.tree(&g, Asn(1));
        for peer in [2, 3] {
            assert_eq!(tree.class_from(&g, Asn(peer)), Some(RouteClass::Peer));
            assert_eq!(r.path(&g, Asn(peer), Asn(1)), Some(vec![Asn(peer), Asn(1)]));
        }
        assert_eq!(tree.class_from(&g, Asn(4)), Some(RouteClass::Provider));
        assert_eq!(
            r.path(&g, Asn(4), Asn(1)),
            Some(vec![Asn(4), Asn(2), Asn(1)])
        );
    }

    /// Leaf 3's only link is a peering with leaf 2, which holds just a
    /// provider route to 1: 2 exports nothing across it.
    #[test]
    fn leaf_leaf_peering_alone_gives_no_route() {
        let mut g = AsGraph::new();
        g.add_edge(Asn(3), Asn(2), EdgeKind::PeerToPeer);
        g.add_edge(Asn(1), Asn(2), p2c());
        let r = BgpRouter::new(&g);
        let tree = r.tree(&g, Asn(1));
        assert!(tree.reachable(&g, Asn(2)));
        assert!(!tree.reachable(&g, Asn(3)));
        assert_eq!(r.path(&g, Asn(3), Asn(1)), None);
        assert_eq!(r.as_hops(&g, Asn(3), Asn(1)), None);
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
