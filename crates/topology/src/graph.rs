//! The annotated AS graph.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, OnceLock};

use asap_cluster::Asn;

/// The commercial relationship annotating a *directed* AS adjacency, read
/// as "the role of the source AS towards the destination AS".
///
/// Internet routing depends on the provider–customer and peer–peer
/// contractual relationships between neighboring ASes: a provider transits
/// traffic for its customers, peers exchange traffic between their own
/// customers only, and siblings (two ASes of one organization) transit
/// freely for each other. These rules give AS-level paths the valley-free
/// property that ASAP's close-cluster-set BFS must respect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// The source AS is a provider of the destination AS.
    ProviderToCustomer,
    /// The source AS is a customer of the destination AS.
    CustomerToProvider,
    /// The two ASes have a settlement-free peering agreement.
    PeerToPeer,
    /// The two ASes belong to the same organization.
    SiblingToSibling,
}

impl EdgeKind {
    /// The annotation of the same adjacency viewed from the other side.
    pub fn reverse(self) -> EdgeKind {
        match self {
            EdgeKind::ProviderToCustomer => EdgeKind::CustomerToProvider,
            EdgeKind::CustomerToProvider => EdgeKind::ProviderToCustomer,
            EdgeKind::PeerToPeer => EdgeKind::PeerToPeer,
            EdgeKind::SiblingToSibling => EdgeKind::SiblingToSibling,
        }
    }
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EdgeKind::ProviderToCustomer => "p2c",
            EdgeKind::CustomerToProvider => "c2p",
            EdgeKind::PeerToPeer => "p2p",
            EdgeKind::SiblingToSibling => "s2s",
        };
        f.write_str(s)
    }
}

/// Dense internal index of an AS inside an [`AsGraph`].
pub(crate) type NodeIdx = u32;

/// Per-node neighbor lists in one flat array: the neighbors of node `i`
/// are `nodes[start[i]..start[i + 1]]`.
#[derive(Debug, Clone)]
pub(crate) struct NeighborSlices<T = NodeIdx> {
    start: Vec<u32>,
    nodes: Vec<T>,
}

impl<T> Default for NeighborSlices<T> {
    fn default() -> Self {
        NeighborSlices {
            start: Vec::new(),
            nodes: Vec::new(),
        }
    }
}

impl NeighborSlices {
    /// The neighbors of every node whose edge kind passes `keep`, in
    /// adjacency order.
    fn filter(adj: &[Vec<(NodeIdx, EdgeKind)>], keep: impl Fn(EdgeKind) -> bool) -> Self {
        NeighborSlices::collect(adj.len(), |i, nodes| {
            let nbrs = adj[i as usize].iter();
            nodes.extend(nbrs.filter(|(_, k)| keep(*k)).map(|&(n, _)| n));
        })
    }
}

impl<T> NeighborSlices<T> {
    /// The lists `fill(node, nodes)` appends for each of `node_count`
    /// nodes, in index order.
    pub(crate) fn collect(node_count: usize, mut fill: impl FnMut(NodeIdx, &mut Vec<T>)) -> Self {
        let mut start = Vec::with_capacity(node_count + 1);
        let mut nodes = Vec::new();
        start.push(0);
        for i in 0..node_count as NodeIdx {
            fill(i, &mut nodes);
            start.push(nodes.len() as u32);
        }
        NeighborSlices { start, nodes }
    }

    pub(crate) fn of(&self, idx: NodeIdx) -> &[T] {
        let i = idx as usize;
        &self.nodes[self.start[i] as usize..self.start[i + 1] as usize]
    }
}

/// Hashes an AS number with one multiply and a fold, instead of SipHash.
///
/// The `Asn → index` map is the only user. Its keys are not adversarial,
/// and it is never iterated, so nothing observes its order. The fold
/// brings the product's well-mixed high half into the low bits the table
/// indexes by, so ASNs that agree in their low bits still spread.
#[derive(Debug, Clone, Copy, Default)]
struct AsnHasher(u64);

impl Hasher for AsnHasher {
    fn finish(&self) -> u64 {
        let h = self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ (h >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = self.0.rotate_left(32) ^ u64::from(n);
    }
}

/// Views of the adjacency derived on first use.
#[derive(Debug, Clone, Default)]
struct KindSplit {
    /// Provider→customer and sibling neighbors, for the valley-free
    /// searches.
    down: NeighborSlices,
    /// The core and its slices, derived on the first routing-tree build.
    core: OnceLock<Arc<CoreSplit>>,
}

/// Whether a route climbs an edge of this kind: customer→provider and
/// sibling edges.
fn climbs(kind: EdgeKind) -> bool {
    matches!(
        kind,
        EdgeKind::CustomerToProvider | EdgeKind::SiblingToSibling
    )
}

/// Whether a route descends an edge of this kind: provider→customer and
/// sibling edges.
fn descends(kind: EdgeKind) -> bool {
    matches!(
        kind,
        EdgeKind::ProviderToCustomer | EdgeKind::SiblingToSibling
    )
}

/// The [`CoreSplit::slot`] of a leaf.
pub(crate) const LEAF: u32 = u32::MAX;

/// The transit core of the graph, with its neighbor slices in slot
/// space.
///
/// A *leaf* is an AS with no customers and no siblings; every other AS
/// is in the *core*. Core ASes are numbered by *slot* in node index
/// order. A leaf never exports a route to anyone but its own customers
/// and siblings, and it has none, so BGP propagation runs over the core
/// alone and each leaf's route is derived from its neighbors' (see
/// `routing`).
#[derive(Debug)]
pub(crate) struct CoreSplit {
    /// Per node: its slot, or [`LEAF`].
    slot: Vec<u32>,
    /// Per slot: its node index.
    pub(crate) node: Vec<NodeIdx>,
    /// Per slot: core providers and siblings, as slots, in adjacency
    /// order.
    pub(crate) up: NeighborSlices,
    /// Per slot: core peers, as slots, in adjacency order.
    pub(crate) peer: NeighborSlices,
    /// Per slot: core customers and siblings, as slots, in adjacency
    /// order.
    pub(crate) down: NeighborSlices,
    /// Per node, empty for a core node: a leaf's providers, as slots,
    /// by ascending ASN.
    pub(crate) leaf_providers: NeighborSlices,
    /// Per node, empty for a core node: a leaf's peers, as node indices,
    /// by ascending ASN.
    pub(crate) leaf_peers: NeighborSlices,
}

impl CoreSplit {
    fn new(asns: &[Asn], adj: &[Vec<(NodeIdx, EdgeKind)>]) -> Self {
        let mut slot = vec![LEAF; adj.len()];
        let mut node = Vec::new();
        for (i, nbrs) in (0..).zip(adj) {
            if nbrs.iter().any(|&(_, k)| descends(k)) {
                slot[i as usize] = node.len() as u32;
                node.push(i);
            }
        }
        // A core route visits each core AS at most once, so its hop
        // count, a `u16` in each tree, is at most the core's size.
        assert!(
            node.len() < usize::from(u16::MAX),
            "a core of {} ASes overflows a routing tree's hop counts",
            node.len()
        );
        let in_core = |keep: fn(EdgeKind) -> bool| {
            NeighborSlices::collect(node.len(), |s, out| {
                let nbrs = adj[node[s as usize] as usize].iter();
                let kept = nbrs.filter(|&&(n, k)| keep(k) && slot[n as usize] != LEAF);
                out.extend(kept.map(|&(n, _)| slot[n as usize]));
            })
        };
        let up = in_core(climbs);
        let peer = in_core(|k| k == EdgeKind::PeerToPeer);
        let down = in_core(descends);
        let leaf_lists = |kind: EdgeKind| {
            NeighborSlices::collect(adj.len(), |i, out| {
                if slot[i as usize] == LEAF {
                    let start = out.len();
                    let nbrs = adj[i as usize].iter().filter(|&&(_, k)| k == kind);
                    out.extend(nbrs.map(|&(n, _)| n));
                    out[start..].sort_unstable_by_key(|&n| asns[n as usize]);
                }
            })
        };
        let leaf_peers = leaf_lists(EdgeKind::PeerToPeer);
        // A leaf's providers have a customer, so every one has a slot.
        let mut leaf_providers = leaf_lists(EdgeKind::CustomerToProvider);
        for n in &mut leaf_providers.nodes {
            *n = slot[*n as usize];
        }
        CoreSplit {
            slot,
            node,
            up,
            peer,
            down,
            leaf_providers,
            leaf_peers,
        }
    }

    /// The slot of node `idx`, or [`LEAF`].
    pub(crate) fn slot(&self, idx: NodeIdx) -> u32 {
        self.slot[idx as usize]
    }

    /// The node index of slot `s`.
    pub(crate) fn node(&self, s: u32) -> NodeIdx {
        self.node[s as usize]
    }
}

/// An annotated AS-level graph of the Internet.
///
/// Nodes are [`Asn`]s; every undirected adjacency is stored twice, once per
/// direction, with mirrored [`EdgeKind`] annotations. Node indices are
/// dense, which lets the routing and search layers use flat `Vec` state.
///
/// ```
/// use asap_topology::{AsGraph, EdgeKind};
/// use asap_cluster::Asn;
///
/// let mut g = AsGraph::new();
/// g.add_edge(Asn(10), Asn(20), EdgeKind::ProviderToCustomer);
/// assert_eq!(g.edge_kind(Asn(20), Asn(10)), Some(EdgeKind::CustomerToProvider));
/// assert_eq!(g.degree(Asn(10)), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AsGraph {
    asns: Vec<Asn>,
    index: HashMap<Asn, NodeIdx, BuildHasherDefault<AsnHasher>>,
    adj: Vec<Vec<(NodeIdx, EdgeKind)>>,
    edge_count: usize,
    /// Derived from `adj` on first use; every mutation resets it.
    split: OnceLock<KindSplit>,
}

impl AsGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        AsGraph::default()
    }

    /// Adds `asn` as an isolated node if not yet present; returns its dense
    /// index either way.
    pub fn add_node(&mut self, asn: Asn) -> u32 {
        if let Some(&idx) = self.index.get(&asn) {
            return idx;
        }
        let idx = self.asns.len() as NodeIdx;
        self.split.take();
        self.asns.push(asn);
        self.adj.push(Vec::new());
        self.index.insert(asn, idx);
        idx
    }

    /// Adds the undirected adjacency `a — b` annotated `kind` (viewed from
    /// `a`); the reverse direction is annotated [`EdgeKind::reverse`].
    /// Creates missing nodes. Replaces the annotation if the adjacency
    /// already exists. Self-loops are ignored.
    ///
    /// A new adjacency is pushed at the end of both lists, so adjacency
    /// order (and with it [`AsGraph::edges`] and every routing tree) is
    /// insertion order. Whether the adjacency exists is decided on the
    /// shorter of the two lists: a stub attaching to a hub scans its own
    /// few entries, not the hub's thousands.
    pub fn add_edge(&mut self, a: Asn, b: Asn, kind: EdgeKind) {
        if a == b {
            return;
        }
        let ia = self.add_node(a);
        let ib = self.add_node(b);
        self.link(ia, ib, kind);
    }

    /// [`AsGraph::add_edge`] by dense index, for distinct nodes. Returns
    /// whether the adjacency is new (`false` for a re-annotation).
    pub(crate) fn link(&mut self, ia: NodeIdx, ib: NodeIdx, kind: EdgeKind) -> bool {
        debug_assert_ne!(ia, ib, "self-loop");
        match self.edge_kind_idx(ia, ib) {
            // The mirror is already `kind.reverse()`.
            Some(old) if old == kind => false,
            Some(_) => {
                self.split.take();
                for (from, to, k) in [(ia, ib, kind), (ib, ia, kind.reverse())] {
                    let slot = self.adj[from as usize].iter_mut().find(|(n, _)| *n == to);
                    slot.expect("adjacency lists are mirrored").1 = k;
                }
                false
            }
            None => {
                self.split.take();
                self.adj[ia as usize].push((ib, kind));
                self.adj[ib as usize].push((ia, kind.reverse()));
                self.edge_count += 1;
                true
            }
        }
    }

    /// Number of AS nodes.
    pub fn node_count(&self) -> usize {
        self.asns.len()
    }

    /// Number of undirected AS links.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Whether the graph contains `asn`.
    pub fn contains(&self, asn: Asn) -> bool {
        self.index.contains_key(&asn)
    }

    /// The dense index of `asn`, if present.
    pub fn index_of(&self, asn: Asn) -> Option<u32> {
        self.index.get(&asn).copied()
    }

    /// The AS at dense index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn asn_at(&self, idx: u32) -> Asn {
        self.asns[idx as usize]
    }

    /// All AS numbers, ordered by dense index.
    pub fn asns(&self) -> &[Asn] {
        &self.asns
    }

    /// The neighbors of `asn` with their edge annotations (viewed from
    /// `asn`). Empty if `asn` is absent.
    pub fn neighbors(&self, asn: Asn) -> &[(u32, EdgeKind)] {
        match self.index_of(asn) {
            Some(idx) => &self.adj[idx as usize],
            None => &[],
        }
    }

    /// Neighbors by dense index.
    pub(crate) fn neighbors_idx(&self, idx: NodeIdx) -> &[(NodeIdx, EdgeKind)] {
        &self.adj[idx as usize]
    }

    fn split(&self) -> &KindSplit {
        self.split.get_or_init(|| KindSplit {
            down: NeighborSlices::filter(&self.adj, descends),
            core: OnceLock::new(),
        })
    }

    /// The customers and siblings of node `idx`, in adjacency order.
    pub(crate) fn down_idx(&self, idx: NodeIdx) -> &[NodeIdx] {
        self.split().down.of(idx)
    }

    /// The transit core and its slices, derived on first use.
    pub(crate) fn core(&self) -> &Arc<CoreSplit> {
        self.split()
            .core
            .get_or_init(|| Arc::new(CoreSplit::new(&self.asns, &self.adj)))
    }

    /// The annotation of edge `a → b`, if the adjacency exists. Scans the
    /// shorter of the two adjacency lists.
    pub fn edge_kind(&self, a: Asn, b: Asn) -> Option<EdgeKind> {
        self.edge_kind_idx(self.index_of(a)?, self.index_of(b)?)
    }

    /// [`AsGraph::edge_kind`] by dense index: the lists are mirrored, so
    /// the shorter one answers, reversed if it is `b`'s.
    pub(crate) fn edge_kind_idx(&self, ia: NodeIdx, ib: NodeIdx) -> Option<EdgeKind> {
        let (fwd, back) = (&self.adj[ia as usize], &self.adj[ib as usize]);
        if fwd.len() <= back.len() {
            fwd.iter().find(|(n, _)| *n == ib).map(|&(_, k)| k)
        } else {
            back.iter()
                .find(|(n, _)| *n == ia)
                .map(|&(_, k)| k.reverse())
        }
    }

    /// The connection degree of `asn` (0 if absent). Used both by the DEDI
    /// baseline (which probes nodes in the highest-degree clusters) and by
    /// Gao inference (degree identifies top providers).
    pub fn degree(&self, asn: Asn) -> usize {
        self.neighbors(asn).len()
    }

    /// The providers of `asn` (neighbors it has a customer-to-provider edge
    /// towards).
    pub fn providers(&self, asn: Asn) -> impl Iterator<Item = Asn> + '_ {
        self.neighbors(asn)
            .iter()
            .filter(|(_, k)| *k == EdgeKind::CustomerToProvider)
            .map(move |(n, _)| self.asn_at(*n))
    }

    /// The customers of `asn`.
    pub fn customers(&self, asn: Asn) -> impl Iterator<Item = Asn> + '_ {
        self.neighbors(asn)
            .iter()
            .filter(|(_, k)| *k == EdgeKind::ProviderToCustomer)
            .map(move |(n, _)| self.asn_at(*n))
    }

    /// Whether `asn` is multi-homed, i.e. has more than one provider. The
    /// paper's Fig. 4 shows multi-homed customer ASes are exactly the ones
    /// whose relay paths can beat direct BGP routing.
    pub fn is_multi_homed(&self, asn: Asn) -> bool {
        self.providers(asn).take(2).count() == 2
    }

    /// Iterates over all undirected edges once, as `(a, b, kind-from-a)`
    /// with `index(a) < index(b)`.
    pub fn edges(&self) -> impl Iterator<Item = (Asn, Asn, EdgeKind)> + '_ {
        self.adj.iter().enumerate().flat_map(move |(ia, nbrs)| {
            nbrs.iter()
                .filter(move |(ib, _)| (ia as NodeIdx) < *ib)
                .map(move |(ib, k)| (self.asns[ia], self.asns[*ib as usize], *k))
        })
    }

    /// Size in bytes of a compact binary encoding of the graph (4-byte ASN
    /// per node, 4+4+1 bytes per edge). The paper reports ~800 KB for the
    /// 2005-09-26 Internet AS graph (20,955 nodes / 56,907 links); this is
    /// the §6.3 bootstrap-storage figure.
    pub fn encoded_size_bytes(&self) -> usize {
        self.node_count() * 4 + self.edge_count() * 9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_edge_mirrors_kind() {
        let mut g = AsGraph::new();
        g.add_edge(Asn(1), Asn(2), EdgeKind::ProviderToCustomer);
        assert_eq!(
            g.edge_kind(Asn(1), Asn(2)),
            Some(EdgeKind::ProviderToCustomer)
        );
        assert_eq!(
            g.edge_kind(Asn(2), Asn(1)),
            Some(EdgeKind::CustomerToProvider)
        );
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn re_adding_edge_replaces_annotation() {
        let mut g = AsGraph::new();
        g.add_edge(Asn(1), Asn(2), EdgeKind::ProviderToCustomer);
        g.add_edge(Asn(1), Asn(2), EdgeKind::PeerToPeer);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_kind(Asn(2), Asn(1)), Some(EdgeKind::PeerToPeer));
    }

    #[test]
    fn self_loops_ignored() {
        let mut g = AsGraph::new();
        g.add_edge(Asn(1), Asn(1), EdgeKind::PeerToPeer);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn providers_customers_multihoming() {
        let mut g = AsGraph::new();
        g.add_edge(Asn(10), Asn(1), EdgeKind::CustomerToProvider);
        g.add_edge(Asn(10), Asn(2), EdgeKind::CustomerToProvider);
        g.add_edge(Asn(10), Asn(11), EdgeKind::ProviderToCustomer);
        let mut providers: Vec<Asn> = g.providers(Asn(10)).collect();
        providers.sort();
        assert_eq!(providers, vec![Asn(1), Asn(2)]);
        assert_eq!(g.customers(Asn(10)).collect::<Vec<_>>(), vec![Asn(11)]);
        assert!(g.is_multi_homed(Asn(10)));
        assert!(!g.is_multi_homed(Asn(11)));
    }

    #[test]
    fn edges_iterates_each_link_once() {
        let mut g = AsGraph::new();
        g.add_edge(Asn(1), Asn(2), EdgeKind::PeerToPeer);
        g.add_edge(Asn(2), Asn(3), EdgeKind::ProviderToCustomer);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 2);
    }

    #[test]
    fn encoded_size_tracks_counts() {
        let mut g = AsGraph::new();
        g.add_edge(Asn(1), Asn(2), EdgeKind::PeerToPeer);
        assert_eq!(g.encoded_size_bytes(), 2 * 4 + 9);
    }

    #[test]
    fn absent_nodes_behave() {
        let g = AsGraph::new();
        assert!(!g.contains(Asn(5)));
        assert_eq!(g.degree(Asn(5)), 0);
        assert_eq!(g.edge_kind(Asn(5), Asn(6)), None);
        assert!(g.neighbors(Asn(5)).is_empty());
    }

    #[test]
    fn index_round_trips_asns_that_collide_in_the_low_bits() {
        let mut asns: Vec<Asn> = (0..512u32).map(|k| Asn(k << 16)).collect();
        asns.extend([Asn(u32::MAX), Asn(u32::MAX - 1), Asn(1)]);
        let mut g = AsGraph::new();
        for &asn in &asns {
            g.add_node(asn);
        }
        assert_eq!(g.node_count(), asns.len());
        for (i, &asn) in (0u32..).zip(&asns) {
            assert_eq!(g.index_of(asn), Some(i), "{asn}");
            assert_eq!(g.asn_at(i), asn);
        }
        assert_eq!(g.index_of(Asn(1 << 15)), None);
        assert_eq!(g.index_of(Asn(2)), None);
    }

    #[test]
    fn kind_reverse_is_involutive() {
        for k in [
            EdgeKind::ProviderToCustomer,
            EdgeKind::CustomerToProvider,
            EdgeKind::PeerToPeer,
            EdgeKind::SiblingToSibling,
        ] {
            assert_eq!(k.reverse().reverse(), k);
        }
    }
}
