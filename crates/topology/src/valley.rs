//! The valley-free path automaton and bounded valley-free searches.
//!
//! An AS-level route is *valley-free* when it climbs through zero or more
//! customer→provider (or sibling) links, optionally crosses a single
//! peer–peer link, and then descends through provider→customer (or
//! sibling) links. Any other shape would require some AS to transit
//! traffic it is not paid to carry. ASAP's close-cluster-set construction
//! (paper Fig. 9) is a breadth-first search constrained to valley-free
//! extensions, so this module is the heart of the protocol substrate.
//!
//! The search runs on the product of the graph and the two-phase
//! automaton. A Fig. 9 build only acts at ASes that originate a cluster,
//! so [`ReachTable`] records, for a set of target ASes, how many
//! valley-free hops each automaton state is from the nearest one, and
//! [`ReachTable::search`] expands only the states that can still reach a
//! target within the hop bound. It reports the same targets, in the same
//! order and at the same hops, as the plain search; [`bounded_search`]
//! is that search with every AS a target.

use std::collections::VecDeque;

use asap_cluster::Asn;

use crate::graph::{AsGraph, EdgeKind, NeighborSlices};

/// The state of the valley-free automaton while walking a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Still climbing: customer→provider and sibling links allowed; a
    /// peer link or a provider→customer link switches to [`Phase::Down`].
    Up,
    /// Descending: only provider→customer and sibling links allowed.
    Down,
}

impl Phase {
    /// Advances the automaton across one link, returning the new phase or
    /// `None` if the extension would create a valley (or a second peering
    /// link).
    pub fn step(self, kind: EdgeKind) -> Option<Phase> {
        match (self, kind) {
            (Phase::Up, EdgeKind::CustomerToProvider) => Some(Phase::Up),
            (Phase::Up, EdgeKind::SiblingToSibling) => Some(Phase::Up),
            (Phase::Up, EdgeKind::PeerToPeer) => Some(Phase::Down),
            (Phase::Up, EdgeKind::ProviderToCustomer) => Some(Phase::Down),
            (Phase::Down, EdgeKind::ProviderToCustomer) => Some(Phase::Down),
            (Phase::Down, EdgeKind::SiblingToSibling) => Some(Phase::Down),
            (Phase::Down, _) => None,
        }
    }
}

/// Tests whether `path` (a sequence of ASes, each adjacent to the next in
/// `graph`) is a valley-free route. Paths with a missing adjacency are not
/// valley-free. Single-AS and empty paths are trivially valley-free.
pub fn is_valley_free(graph: &AsGraph, path: &[Asn]) -> bool {
    let mut phase = Phase::Up;
    for w in path.windows(2) {
        let Some(kind) = graph.edge_kind(w[0], w[1]) else {
            return false;
        };
        match phase.step(kind) {
            Some(next) => phase = next,
            None => return false,
        }
    }
    true
}

/// An AS reached by [`bounded_search`], with the hop count at which it was
/// first reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reached {
    /// The AS reached.
    pub asn: Asn,
    /// Valley-free AS hops from the search origin.
    pub hops: usize,
}

/// Whether the bounded search should keep extending paths *through* an AS
/// it has just reached. Returned by the visitor passed to
/// [`bounded_search`]; pruning models Fig. 9's latency / loss-rate
/// thresholds (`lat() > latT` stops path expansion without discarding the
/// node itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expand {
    /// Keep extending valley-free paths through this AS.
    Continue,
    /// Record the AS but do not extend paths through it.
    Prune,
}

/// Breadth-first search from `origin` over valley-free paths of at most
/// `max_hops` AS links, invoking `visit` the first time each AS is reached
/// (at its minimal valley-free hop count). `visit` may prune expansion
/// per-AS. The origin itself is not visited.
///
/// The search runs on the product of the graph and the two-phase
/// valley-free automaton, so an AS reachable both on an uphill and a
/// downhill prefix is explored through whichever arrives first — and, at
/// equal hops, through the uphill state, which permits strictly more
/// extensions.
///
/// Returns all reached ASes in visit order. [`bounded_search_idx`] runs
/// the same search by node index without collecting them.
pub fn bounded_search(
    graph: &AsGraph,
    origin: Asn,
    max_hops: usize,
    mut visit: impl FnMut(Reached) -> Expand,
) -> Vec<Reached> {
    let Some(origin_idx) = graph.index_of(origin) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    bounded_search_idx(graph, origin_idx, max_hops, |idx, hops| {
        let reached = Reached {
            asn: graph.asn_at(idx),
            hops,
        };
        out.push(reached);
        visit(reached)
    });
    out
}

/// [`bounded_search`] from node index `origin_idx`, visiting each reached
/// AS as `visit(node_idx, hops)`, in the same order: the directed search
/// of [`ReachTable::search`] with every AS a target.
///
/// # Panics
///
/// Panics if `origin_idx` is not a node index of `graph`.
pub fn bounded_search_idx(
    graph: &AsGraph,
    origin_idx: u32,
    max_hops: usize,
    visit: impl FnMut(u32, usize) -> Expand,
) {
    ReachTable::new(graph, |_| true).search(origin_idx, max_hops, visit);
}

/// Marks an automaton state from which no target can be reached.
const UNREACHABLE: u32 = u32::MAX;

/// How far every state of the valley-free automaton is from a set of
/// *target* ASes: for each `(node, phase)`, the fewest further
/// valley-free hops to a target (0 at a target, in either phase). It
/// also keeps, per node, the uphill and downhill successor states that
/// can reach a target at all, in the order [`bounded_search`] tries
/// them.
///
/// Built once per target set by one reverse breadth-first search over
/// the automaton (O(E)); [`ReachTable::search`] then runs
/// [`bounded_search`] directed at the targets.
#[derive(Debug, Clone, Default)]
pub struct ReachTable {
    /// `dist[node][phase]`: fewest valley-free hops from that state to a
    /// target, [`UNREACHABLE`] if there is none.
    dist: Vec<[u32; 2]>,
    /// Uphill successors `(next, phase)` of each node, in adjacency order.
    up: NeighborSlices<(u32, Phase)>,
    /// Downhill successors of each node (customers and siblings), in
    /// adjacency order.
    down: NeighborSlices,
}

impl ReachTable {
    /// Builds the table of `graph` for the nodes `is_target` accepts.
    pub fn new(graph: &AsGraph, is_target: impl Fn(u32) -> bool) -> Self {
        let n = graph.node_count();
        let mut dist = vec![[UNREACHABLE; 2]; n];
        let mut queue = VecDeque::new();
        for node in (0..n as u32).filter(|&node| is_target(node)) {
            dist[node as usize] = [0, 0];
            queue.push_back((node, Phase::Up));
            queue.push_back((node, Phase::Down));
        }
        // Walk the automaton backwards: `(prev, prev_phase)` steps to
        // `(node, phase)` across the link prev → node, which `node` sees
        // as `kind`.
        while let Some((node, phase)) = queue.pop_front() {
            let d = dist[node as usize][phase as usize] + 1;
            for &(prev, kind) in graph.neighbors_idx(node) {
                for prev_phase in [Phase::Up, Phase::Down] {
                    let slot = &mut dist[prev as usize][prev_phase as usize];
                    if *slot == UNREACHABLE && prev_phase.step(kind.reverse()) == Some(phase) {
                        *slot = d;
                        queue.push_back((prev, prev_phase));
                    }
                }
            }
        }
        let reaches = |node: u32, phase: Phase| dist[node as usize][phase as usize] != UNREACHABLE;
        let up = NeighborSlices::collect(n, |node, out| {
            let steps = graph.neighbors_idx(node).iter();
            out.extend(
                steps
                    .filter_map(|&(next, kind)| Some((next, Phase::Up.step(kind)?)))
                    .filter(|&(next, phase)| reaches(next, phase)),
            );
        });
        // Downhill, only provider→customer and sibling links extend a
        // path, and both stay downhill.
        let down = NeighborSlices::collect(n, |node, out| {
            let steps = graph.down_idx(node).iter().copied();
            out.extend(steps.filter(|&next| reaches(next, Phase::Down)));
        });
        ReachTable { dist, up, down }
    }

    /// The fewest valley-free hops from node `node`, in automaton state
    /// `phase`, to a target; `None` if no valley-free path leads to one.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node index of the table's graph.
    pub fn hops_to_target(&self, node: u32, phase: Phase) -> Option<usize> {
        let d = self.dist[node as usize][phase as usize];
        (d != UNREACHABLE).then_some(d as usize)
    }

    /// [`bounded_search_idx`] directed at the targets: `visit(node_idx,
    /// hops)` is invoked for the targets only, and for exactly the
    /// targets, hops and order the plain search reports whenever its
    /// visitor prunes at targets only.
    ///
    /// A state `(node, phase)` reached at `hops` is *useful* when
    /// `hops + dist[node][phase] <= max_hops`, and the search enqueues
    /// useful states only. Every parent of a useful state is useful,
    /// and a useless state only ever enqueues useless ones, so dropping
    /// the useless states from the FIFO keeps the relative order of the
    /// rest. The first dequeued state of a target is useful (its
    /// distance is 0), so each target is visited when, and at the hops,
    /// the plain search visits it.
    ///
    /// # Panics
    ///
    /// Panics if `origin_idx` is not a node index of the table's graph.
    pub fn search(
        &self,
        origin_idx: u32,
        max_hops: usize,
        mut visit: impl FnMut(u32, usize) -> Expand,
    ) {
        // Per node: enqueued uphill, enqueued downhill (the bit of each
        // phase), visited, and pruned by the visitor.
        const VISITED: u8 = 4;
        const PRUNED: u8 = 8;
        let seen = |phase: Phase| 1u8 << phase as u8;
        let mut flags = vec![0u8; self.dist.len()];
        // The origin itself is never visited.
        flags[origin_idx as usize] = seen(Phase::Up) | VISITED;
        // Each state `(node, phase)` enters the FIFO at most once, so
        // room for two per node is enough: one allocation, no growth.
        let mut queue = VecDeque::with_capacity(2 * self.dist.len());
        queue.push_back((origin_idx, Phase::Up, 0));

        while let Some((idx, phase, hops)) = queue.pop_front() {
            let f = &mut flags[idx as usize];
            let is_target = self.dist[idx as usize][Phase::Up as usize] == 0;
            if *f & VISITED == 0 && is_target {
                *f |= VISITED;
                if visit(idx, hops) == Expand::Prune {
                    *f |= PRUNED;
                }
            }
            if hops == max_hops || *f & PRUNED != 0 {
                continue;
            }
            let mut push = |next: u32, next_phase: Phase| {
                let bit = seen(next_phase);
                let useful =
                    hops + 1 + self.dist[next as usize][next_phase as usize] as usize <= max_hops;
                let f = &mut flags[next as usize];
                if *f & bit == 0 && useful {
                    *f |= bit;
                    queue.push_back((next, next_phase, hops + 1));
                }
            };
            match phase {
                Phase::Up => {
                    for &(next, next_phase) in self.up.of(idx) {
                        push(next, next_phase);
                    }
                }
                Phase::Down => {
                    for &next in self.down.of(idx) {
                        push(next, Phase::Down);
                    }
                }
            }
        }
    }
}

/// Like [`bounded_search`], but ignoring the valley-free constraint: a
/// plain breadth-first search over the undirected AS graph. Used by
/// ablation experiments to quantify what policy-awareness buys — the
/// unconstrained ball is larger, but the extra ASes are reached over
/// paths BGP would never realize.
pub fn bounded_search_unconstrained(
    graph: &AsGraph,
    origin: Asn,
    max_hops: usize,
    mut visit: impl FnMut(Reached) -> Expand,
) -> Vec<Reached> {
    let Some(origin_idx) = graph.index_of(origin) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    bounded_search_unconstrained_idx(graph, origin_idx, max_hops, |idx, hops| {
        let reached = Reached {
            asn: graph.asn_at(idx),
            hops,
        };
        out.push(reached);
        visit(reached)
    });
    out
}

/// [`bounded_search_unconstrained`] from node index `origin_idx`,
/// visiting each reached AS as `visit(node_idx, hops)`, in the same
/// order.
///
/// # Panics
///
/// Panics if `origin_idx` is not a node index of `graph`.
pub fn bounded_search_unconstrained_idx(
    graph: &AsGraph,
    origin_idx: u32,
    max_hops: usize,
    mut visit: impl FnMut(u32, usize) -> Expand,
) {
    let n = graph.node_count();
    let mut seen = vec![false; n];
    let mut pruned = vec![false; n];
    let mut queue: VecDeque<(u32, usize)> = VecDeque::new();
    seen[origin_idx as usize] = true;
    queue.push_back((origin_idx, 0));
    while let Some((idx, hops)) = queue.pop_front() {
        if idx != origin_idx && visit(idx, hops) == Expand::Prune {
            pruned[idx as usize] = true;
        }
        if hops == max_hops || (idx != origin_idx && pruned[idx as usize]) {
            continue;
        }
        for &(next, _) in graph.neighbors_idx(idx) {
            if !seen[next as usize] {
                seen[next as usize] = true;
                queue.push_back((next, hops + 1));
            }
        }
    }
}

/// The minimal number of AS links on a valley-free path from `src` to
/// `dst`, if one of at most `max_hops` links exists.
///
/// The paper (citing Mao et al., SIGMETRICS'05) uses shortest valley-free
/// AS-hop paths as a reasonably accurate stand-in for actual BGP paths,
/// and observes that >90% of sessions with direct RTT below 300 ms cross
/// no more than 4 AS hops — the justification for `k = 4` in
/// `construct-close-cluster-set()`.
pub fn valley_free_hops(graph: &AsGraph, src: Asn, dst: Asn, max_hops: usize) -> Option<usize> {
    if src == dst {
        return Some(0);
    }
    let mut found = None;
    bounded_search(graph, src, max_hops, |r| {
        if r.asn == dst && found.is_none() {
            found = Some(r.hops);
        }
        Expand::Continue
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the annotated graph from the paper's Fig. 4 (right):
    /// a multi-homed stub B under providers D and E shortens the path
    /// between stubs A (under D) and C (under E).
    fn multihomed_fixture() -> AsGraph {
        let mut g = AsGraph::new();
        let p2c = EdgeKind::ProviderToCustomer;
        // Core chain D - F - H - I - G - E (peers at the top).
        g.add_edge(Asn(4), Asn(6), EdgeKind::PeerToPeer); // D-F
        g.add_edge(Asn(6), Asn(8), EdgeKind::CustomerToProvider); // F-H
        g.add_edge(Asn(8), Asn(9), EdgeKind::PeerToPeer); // H-I
        g.add_edge(Asn(9), Asn(7), EdgeKind::ProviderToCustomer); // I-G
        g.add_edge(Asn(7), Asn(5), EdgeKind::PeerToPeer); // G-E
                                                          // Stubs.
        g.add_edge(Asn(4), Asn(1), p2c); // D -> A
        g.add_edge(Asn(5), Asn(3), p2c); // E -> C
                                         // Multi-homed B under both D and E.
        g.add_edge(Asn(4), Asn(2), p2c); // D -> B
        g.add_edge(Asn(5), Asn(2), p2c); // E -> B
        g
    }

    #[test]
    fn phase_automaton_truth_table() {
        use EdgeKind::*;
        assert_eq!(Phase::Up.step(CustomerToProvider), Some(Phase::Up));
        assert_eq!(Phase::Up.step(SiblingToSibling), Some(Phase::Up));
        assert_eq!(Phase::Up.step(PeerToPeer), Some(Phase::Down));
        assert_eq!(Phase::Up.step(ProviderToCustomer), Some(Phase::Down));
        assert_eq!(Phase::Down.step(ProviderToCustomer), Some(Phase::Down));
        assert_eq!(Phase::Down.step(SiblingToSibling), Some(Phase::Down));
        assert_eq!(Phase::Down.step(CustomerToProvider), None);
        assert_eq!(Phase::Down.step(PeerToPeer), None);
    }

    #[test]
    fn up_peer_down_is_valley_free() {
        let g = multihomed_fixture();
        // A -> D -> F: climb then peer: ok.
        assert!(is_valley_free(&g, &[Asn(1), Asn(4), Asn(6)]));
        // A -> D -> B -> E -> C: the multi-homed shortcut is NOT valley-free
        // (B would transit for its providers)...
        assert!(!is_valley_free(
            &g,
            &[Asn(1), Asn(4), Asn(2), Asn(5), Asn(3)]
        ));
        // ...which is exactly why B must act as an *application-layer relay*
        // (the overlay hop restarts the automaton at B).
        assert!(is_valley_free(&g, &[Asn(1), Asn(4), Asn(2)]));
        assert!(is_valley_free(&g, &[Asn(2), Asn(5), Asn(3)]));
    }

    #[test]
    fn two_peer_links_are_rejected() {
        let mut g = AsGraph::new();
        g.add_edge(Asn(1), Asn(2), EdgeKind::PeerToPeer);
        g.add_edge(Asn(2), Asn(3), EdgeKind::PeerToPeer);
        assert!(!is_valley_free(&g, &[Asn(1), Asn(2), Asn(3)]));
    }

    #[test]
    fn missing_adjacency_is_not_valley_free() {
        let g = multihomed_fixture();
        assert!(!is_valley_free(&g, &[Asn(1), Asn(3)]));
    }

    #[test]
    fn trivial_paths_are_valley_free() {
        let g = multihomed_fixture();
        assert!(is_valley_free(&g, &[]));
        assert!(is_valley_free(&g, &[Asn(1)]));
    }

    #[test]
    fn bounded_search_respects_hop_limit() {
        let g = multihomed_fixture();
        let reached = bounded_search(&g, Asn(1), 1, |_| Expand::Continue);
        assert_eq!(reached.len(), 1);
        assert_eq!(
            reached[0],
            Reached {
                asn: Asn(4),
                hops: 1
            }
        );
    }

    #[test]
    fn bounded_search_reports_minimal_hops() {
        let g = multihomed_fixture();
        let reached = bounded_search(&g, Asn(1), 4, |_| Expand::Continue);
        let hops_of = |a: u32| reached.iter().find(|r| r.asn == Asn(a)).map(|r| r.hops);
        assert_eq!(hops_of(4), Some(1)); // D
        assert_eq!(hops_of(2), Some(2)); // B via D
        assert_eq!(hops_of(6), Some(2)); // F via D (peer)
                                         // C is NOT reachable valley-free from A within 4 hops: the only
                                         // policy-compliant route climbs A-D, peers D-F... but F-H is c2p
                                         // after a peer link — invalid. The uphill route A-D is peer-limited.
        assert_eq!(hops_of(3), None);
    }

    #[test]
    fn pruning_stops_expansion_but_keeps_node() {
        let g = multihomed_fixture();
        // Prune at D: B and F should become unreachable.
        let reached = bounded_search(&g, Asn(1), 4, |r| {
            if r.asn == Asn(4) {
                Expand::Prune
            } else {
                Expand::Continue
            }
        });
        assert_eq!(reached.len(), 1);
        assert_eq!(reached[0].asn, Asn(4));
    }

    #[test]
    fn unconstrained_search_supersets_valley_free() {
        let g = multihomed_fixture();
        let vf = bounded_search(&g, Asn(1), 4, |_| Expand::Continue);
        let un = bounded_search_unconstrained(&g, Asn(1), 4, |_| Expand::Continue);
        assert!(un.len() >= vf.len());
        for r in &vf {
            let u = un
                .iter()
                .find(|x| x.asn == r.asn)
                .expect("vf-reachable is plain-reachable");
            assert!(u.hops <= r.hops);
        }
        // C (AS 3) is plain-reachable but not valley-free-reachable.
        assert!(un.iter().any(|r| r.asn == Asn(3)));
        assert!(!vf.iter().any(|r| r.asn == Asn(3)));
    }

    #[test]
    fn valley_free_hops_basics() {
        let g = multihomed_fixture();
        assert_eq!(valley_free_hops(&g, Asn(1), Asn(1), 4), Some(0));
        assert_eq!(valley_free_hops(&g, Asn(1), Asn(2), 4), Some(2));
        assert_eq!(valley_free_hops(&g, Asn(1), Asn(3), 6), None);
        assert_eq!(valley_free_hops(&g, Asn(2), Asn(3), 4), Some(2));
    }

    #[test]
    fn search_from_absent_origin_is_empty() {
        let g = multihomed_fixture();
        assert!(bounded_search(&g, Asn(999), 4, |_| Expand::Continue).is_empty());
    }

    #[test]
    fn uphill_state_preferred_at_equal_hops() {
        // Diamond where X is reachable at 2 hops both downhill (via P) and
        // uphill (via Q); continuing past X must still be possible uphill.
        let mut g = AsGraph::new();
        let c2p = EdgeKind::CustomerToProvider;
        g.add_edge(Asn(0), Asn(1), c2p); // origin -> Q (up)
        g.add_edge(Asn(1), Asn(2), c2p); // Q -> X (up)
        g.add_edge(Asn(0), Asn(3), EdgeKind::PeerToPeer); // origin - P
        g.add_edge(Asn(3), Asn(2), EdgeKind::ProviderToCustomer); // P -> X (down)
        g.add_edge(Asn(2), Asn(4), c2p); // X -> top (only valid uphill)
        let reached = bounded_search(&g, Asn(0), 3, |_| Expand::Continue);
        assert!(
            reached.iter().any(|r| r.asn == Asn(4)),
            "must keep climbing through X"
        );
    }
}
