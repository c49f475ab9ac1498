//! Synthetic Internet-like AS topology generation.
//!
//! The paper annotates a real 2005 AS graph (20,955 ASes / 56,907 links)
//! inferred from BGP dumps. Those dumps are not available here, so this
//! module grows a synthetic topology with the structural properties ASAP
//! exploits:
//!
//! * a **tier-1 clique** of mutually peering transit-free providers;
//! * **transit (tier-2) ASes** attaching to providers by preferential
//!   attachment (yielding a heavy-tailed degree distribution) and peering
//!   with each other regionally;
//! * **stub ASes**, a fixed fraction of them **multi-homed** — the
//!   Fig. 4 ingredient that makes one-hop relays beat direct routes;
//! * occasional **sibling** links;
//! * per-AS **geographic coordinates** (tier-1 spread globally, customers
//!   placed near their first provider) so that link latency can correlate
//!   with distance in `asap-netsim`.

use asap_cluster::Asn;
use asap_rng::{SliceRandom, StdRng};

use crate::graph::{AsGraph, EdgeKind, NodeIdx};

/// The hierarchy tier an AS was generated in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AsTier {
    /// Transit-free core provider (member of the peering clique).
    Tier1,
    /// Regional/national transit provider.
    Transit,
    /// Edge network originating end-host prefixes.
    Stub,
}

/// Probability that a stub AS is multi-homed (two or more providers).
pub const MULTIHOME_PROB: f64 = 0.5;

/// Expected number of extra peering links per transit AS.
pub const TRANSIT_PEERING: f64 = 4.0;

/// Probability that a stub has a sibling AS.
pub const SIBLING_PROB: f64 = 0.01;

/// Side length of the square world the coordinates live in, in units
/// of coordinate distance (`asap_netsim` turns a unit into one-way
/// propagation milliseconds).
pub const WORLD_SIZE: f64 = 100.0;

/// The sizes of the three tiers [`InternetGenerator`] grows; every other
/// shape of the topology is a constant of this module.
///
/// The defaults produce a ~4,000-AS Internet, a scale at which the full
/// evaluation pipeline runs in seconds; `InternetConfig::paper_scale()`
/// approximates the 20,955-AS graph of the paper.
#[derive(Debug, Clone)]
pub struct InternetConfig {
    /// Number of tier-1 core ASes (fully meshed with peering links).
    pub tier1: usize,
    /// Number of transit ASes.
    pub transit: usize,
    /// Number of stub ASes.
    pub stubs: usize,
}

impl Default for InternetConfig {
    fn default() -> Self {
        InternetConfig {
            tier1: 10,
            transit: 500,
            stubs: 3500,
        }
    }
}

impl InternetConfig {
    /// A configuration approximating the scale of the paper's 2005-09-26
    /// graph (20,955 ASes, 56,907 links).
    pub fn paper_scale() -> Self {
        InternetConfig {
            tier1: 12,
            transit: 2400,
            stubs: 18500,
        }
    }

    /// A small configuration for fast unit tests.
    pub fn tiny() -> Self {
        InternetConfig {
            tier1: 3,
            transit: 20,
            stubs: 120,
        }
    }
}

/// Error from [`InternetGenerator::try_generate`]: the configuration
/// left an attachment step with no candidate provider (e.g. `tier1: 0`,
/// where neither a transit nor a stub AS has anything to buy transit
/// from).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenError {
    /// An AS of the given tier had no provider pool to attach to.
    EmptyProviderPool {
        /// The tier being attached when the pool came up empty.
        tier: AsTier,
    },
}

impl std::fmt::Display for GenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenError::EmptyProviderPool { tier } => write!(
                f,
                "no provider available to attach a {tier:?} AS \
                 (configure at least one tier-1 AS)"
            ),
        }
    }
}

impl std::error::Error for GenError {}

/// A generated Internet: the annotated AS graph plus per-AS metadata.
#[derive(Debug, Clone)]
pub struct SyntheticInternet {
    /// The annotated AS graph.
    pub graph: AsGraph,
    /// Tier of every AS, indexed by the graph's dense node index.
    pub tiers: Vec<AsTier>,
    /// Planar coordinates of every AS (same indexing), used by the latency
    /// model, inside the square of side [`WORLD_SIZE`].
    pub coords: Vec<(f64, f64)>,
}

impl SyntheticInternet {
    /// Tier of `asn`, if the AS exists.
    pub fn tier(&self, asn: Asn) -> Option<AsTier> {
        self.graph.index_of(asn).map(|i| self.tiers[i as usize])
    }

    /// All stub ASes (the ones that host end users / VoIP peers).
    pub fn stub_asns(&self) -> Vec<Asn> {
        self.graph
            .asns()
            .iter()
            .enumerate()
            .filter(|(i, _)| self.tiers[*i] == AsTier::Stub)
            .map(|(_, &a)| a)
            .collect()
    }

    /// Euclidean distance between two ASes' coordinates.
    ///
    /// # Panics
    ///
    /// Panics if either AS is absent from the graph.
    pub fn distance(&self, a: Asn, b: Asn) -> f64 {
        let index = |asn| {
            self.graph
                .index_of(asn)
                .expect("AS not in the generated graph")
        };
        self.distance_idx(index(a), index(b))
    }

    /// Euclidean distance between the coordinates of two graph node
    /// indices.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn distance_idx(&self, a: u32, b: u32) -> f64 {
        let (ax, ay) = self.coords[a as usize];
        let (bx, by) = self.coords[b as usize];
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }
}

/// Grows [`SyntheticInternet`]s from an [`InternetConfig`] and a seed.
///
/// ```
/// use asap_topology::{InternetConfig, InternetGenerator};
///
/// let internet = InternetGenerator::new(InternetConfig::tiny(), 42).generate();
/// assert!(internet.graph.node_count() >= 143);
/// // Deterministic: the same seed yields the same topology.
/// let again = InternetGenerator::new(InternetConfig::tiny(), 42).generate();
/// assert_eq!(internet.graph.edge_count(), again.graph.edge_count());
/// ```
#[derive(Debug)]
pub struct InternetGenerator {
    config: InternetConfig,
    rng: StdRng,
}

impl InternetGenerator {
    /// Creates a generator with the given configuration and RNG seed.
    pub fn new(config: InternetConfig, seed: u64) -> Self {
        InternetGenerator {
            config,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Generates the topology.
    ///
    /// # Panics
    ///
    /// Panics if the configuration leaves an AS with no possible
    /// provider (see [`InternetGenerator::try_generate`] for the
    /// non-panicking form).
    pub fn generate(self) -> SyntheticInternet {
        self.try_generate()
            .expect("topology generation failed: invalid InternetConfig")
    }

    /// Generates the topology, reporting degenerate configurations as
    /// [`GenError`] instead of panicking. For every config `generate`
    /// accepts, this produces the identical topology (same seed, same
    /// RNG draw sequence).
    pub fn try_generate(mut self) -> Result<SyntheticInternet, GenError> {
        let cfg = self.config.clone();
        let mut graph = AsGraph::new();
        let mut tiers = Vec::new();
        let mut coords: Vec<(f64, f64)> = Vec::new();
        let mut pool = ProviderPool::new(cfg.tier1 + cfg.transit);
        let mut next_asn = 1u32;
        let w = WORLD_SIZE;

        let mut alloc = |graph: &mut AsGraph,
                         tiers: &mut Vec<AsTier>,
                         coords: &mut Vec<(f64, f64)>,
                         tier: AsTier,
                         xy: (f64, f64)| {
            let idx = graph.add_node(Asn(next_asn));
            next_asn += 1;
            debug_assert_eq!(idx as usize, tiers.len());
            tiers.push(tier);
            coords.push(xy);
            idx
        };

        // --- Tier-1 clique, spread around the world. ---
        for i in 0..cfg.tier1 {
            let angle = i as f64 / cfg.tier1 as f64 * std::f64::consts::TAU;
            let xy = (
                w / 2.0 + w / 3.0 * angle.cos() + self.rng.gen_range(-w / 20.0..w / 20.0),
                w / 2.0 + w / 3.0 * angle.sin() + self.rng.gen_range(-w / 20.0..w / 20.0),
            );
            let node = alloc(&mut graph, &mut tiers, &mut coords, AsTier::Tier1, xy);
            pool.join(node);
        }
        for i in 0..cfg.tier1 {
            for j in (i + 1)..cfg.tier1 {
                let (a, b) = (pool.node[i], pool.node[j]);
                pool.link(&mut graph, a, b, EdgeKind::PeerToPeer);
            }
        }

        // --- Transit ASes. The real Internet's AS hierarchy is shallow
        // (mean AS-path length ≈ 4), so transit ASes overwhelmingly buy
        // transit from the tier-1 clique directly, and are multi-homed
        // across several tier-1s; only a minority sit under another
        // transit AS. ---
        for _ in 0..cfg.transit {
            // The pool so far: the tier-1s, then the transits before this
            // one. An empty clique leaves the first transit with no
            // provider in either pool.
            let pooled = pool.node.len();
            let provider = if pooled == cfg.tier1 || self.rng.gen_bool(0.75) {
                self.weighted_provider(&pool, cfg.tier1)
            } else {
                self.weighted_provider(&pool, pooled)
            }
            .ok_or(GenError::EmptyProviderPool {
                tier: AsTier::Transit,
            })?;
            let (px, py) = coords[provider as usize];
            let xy = (
                clamp((px + self.rng.gen_range(-w / 6.0..w / 6.0)).abs(), w),
                clamp((py + self.rng.gen_range(-w / 6.0..w / 6.0)).abs(), w),
            );
            let node = alloc(&mut graph, &mut tiers, &mut coords, AsTier::Transit, xy);
            pool.join(node);
            pool.link(&mut graph, provider, node, EdgeKind::ProviderToCustomer);
            // Transit ASes are multi-homed across additional tier-1s. A
            // repeated draw re-adds the same annotation, which changes
            // nothing, so a transit has 1–4 distinct providers.
            for _ in 0..self.rng.gen_range(2..=3) {
                let second = self
                    .weighted_provider(&pool, cfg.tier1)
                    .expect("a transit attaches only under a non-empty clique");
                pool.link(&mut graph, second, node, EdgeKind::ProviderToCustomer);
            }
        }

        // --- Peering among transit ASes, preferring nearby ones. ---
        let transits = pool.node[cfg.tier1..].to_vec();
        let peer_links = (cfg.transit as f64 * TRANSIT_PEERING / 2.0) as usize;
        for _ in 0..peer_links {
            if transits.len() < 2 {
                break;
            }
            let a = *transits.choose(&mut self.rng).unwrap();
            // Pick the geographically closest of a few random candidates:
            // peering is regional.
            let best = (0..4)
                .map(|_| *transits.choose(&mut self.rng).unwrap())
                .filter(|&b| b != a && graph.edge_kind_idx(a, b).is_none())
                .min_by(|&x, &y| {
                    let d = |b: NodeIdx| dist(coords[a as usize], coords[b as usize]);
                    d(x).total_cmp(&d(y))
                });
            if let Some(b) = best {
                pool.link(&mut graph, a, b, EdgeKind::PeerToPeer);
            }
        }

        // --- Stub ASes. ---
        let pooled = pool.node.len();
        for _ in 0..cfg.stubs {
            let provider = self
                .weighted_provider(&pool, pooled)
                .ok_or(GenError::EmptyProviderPool { tier: AsTier::Stub })?;
            let (px, py) = coords[provider as usize];
            let xy = (
                clamp((px + self.rng.gen_range(-w / 10.0..w / 10.0)).abs(), w),
                clamp((py + self.rng.gen_range(-w / 10.0..w / 10.0)).abs(), w),
            );
            let node = alloc(&mut graph, &mut tiers, &mut coords, AsTier::Stub, xy);
            pool.link(&mut graph, provider, node, EdgeKind::ProviderToCustomer);
            if self.rng.gen_bool(MULTIHOME_PROB) {
                // Second (occasionally third) provider — possibly far away,
                // which is what creates useful relay shortcuts. A repeated
                // draw changes nothing.
                let extra = if self.rng.gen_bool(0.2) { 2 } else { 1 };
                for _ in 0..extra {
                    let p = self
                        .weighted_provider(&pool, pooled)
                        .expect("the first provider came from this pool");
                    pool.link(&mut graph, p, node, EdgeKind::ProviderToCustomer);
                }
            }
            if self.rng.gen_bool(SIBLING_PROB) {
                let xy2 = (
                    clamp((xy.0 + self.rng.gen_range(-1.0..1.0)).abs(), w),
                    clamp((xy.1 + self.rng.gen_range(-1.0..1.0)).abs(), w),
                );
                let sib = alloc(&mut graph, &mut tiers, &mut coords, AsTier::Stub, xy2);
                pool.link(&mut graph, node, sib, EdgeKind::SiblingToSibling);
                pool.link(&mut graph, provider, sib, EdgeKind::ProviderToCustomer);
            }
        }

        Ok(SyntheticInternet {
            graph,
            tiers,
            coords,
        })
    }

    /// Picks a provider among the first `m` members of `pool` with
    /// probability proportional to degree + 1 (preferential attachment):
    /// one draw in `0..` the pool's total weight, mapped to the member
    /// whose weight interval holds it, exactly as a walk over the members
    /// in pool order would map it. `None` when `m` is 0; no RNG draw
    /// happens in that case.
    fn weighted_provider(&mut self, pool: &ProviderPool, m: usize) -> Option<NodeIdx> {
        if m == 0 {
            return None;
        }
        let draw = self.rng.gen_range(0..pool.weights.prefix(m));
        Some(pool.node[pool.weights.find(draw)])
    }
}

/// The ASes a new customer can buy transit from, with their
/// preferential-attachment weights.
///
/// Members take slots in the order they join: the tier-1s, then the
/// transits in generation order, so the tier-1 pool is a prefix of the
/// combined one. A slot's weight is its AS's degree + 1; [`ProviderPool::link`]
/// keeps it current as adjacencies are added.
#[derive(Debug)]
struct ProviderPool {
    /// Slot weights.
    weights: Fenwick,
    /// Per slot: its node index.
    node: Vec<NodeIdx>,
    /// Per node index, up to the last member's: its slot, or `None`.
    slot: Vec<Option<u32>>,
}

impl ProviderPool {
    /// An empty pool with room for `capacity` members.
    fn new(capacity: usize) -> Self {
        ProviderPool {
            weights: Fenwick::new(capacity),
            node: Vec::with_capacity(capacity),
            slot: Vec::with_capacity(capacity),
        }
    }

    /// Adds `node`, still without neighbors (weight 1), as the next slot.
    fn join(&mut self, node: NodeIdx) {
        let s = self.node.len();
        self.node.push(node);
        if self.slot.len() <= node as usize {
            self.slot.resize(node as usize + 1, None);
        }
        self.slot[node as usize] = Some(s as u32);
        self.weights.add(s, 1);
    }

    /// Adds the adjacency `a — b` to `graph` and, if it is new, adds one
    /// to the weight of each endpoint that is a member.
    fn link(&mut self, graph: &mut AsGraph, a: NodeIdx, b: NodeIdx, kind: EdgeKind) {
        if graph.link(a, b, kind) {
            for n in [a, b] {
                if let Some(&Some(s)) = self.slot.get(n as usize) {
                    self.weights.add(s as usize, 1);
                }
            }
        }
    }
}

/// A Fenwick (binary indexed) tree over non-negative slot weights: adds
/// to one slot, prefix sums and the inverse search each cost O(log n).
#[derive(Debug)]
struct Fenwick {
    /// 1-based: `tree[i]` sums the slots `i - lowbit(i)..i` (0-based);
    /// `tree[0]` is unused.
    tree: Vec<usize>,
}

impl Fenwick {
    /// `len` slots of weight 0.
    fn new(len: usize) -> Self {
        Fenwick {
            tree: vec![0; len + 1],
        }
    }

    /// Adds `w` to slot `s`.
    fn add(&mut self, s: usize, w: usize) {
        let mut i = s + 1;
        while i < self.tree.len() {
            self.tree[i] += w;
            i += i & i.wrapping_neg();
        }
    }

    /// The total weight of slots `0..m`.
    fn prefix(&self, m: usize) -> usize {
        let (mut i, mut sum) = (m, 0);
        while i > 0 {
            sum += self.tree[i];
            i &= i - 1;
        }
        sum
    }

    /// The first slot `s` whose inclusive prefix sum exceeds `draw`: the
    /// slot a walk subtracting each weight from `draw` stops at. `draw`
    /// must be below the total weight.
    fn find(&self, mut draw: usize) -> usize {
        let n = self.tree.len() - 1;
        // `pos` slots lie wholly at or below `draw`.
        let mut pos = 0;
        let mut step = if n == 0 { 0 } else { 1 << n.ilog2() };
        while step > 0 {
            let next = pos + step;
            if next <= n && self.tree[next] <= draw {
                pos = next;
                draw -= self.tree[next];
            }
            step >>= 1;
        }
        pos
    }
}

fn clamp(v: f64, max: f64) -> f64 {
    v.min(max).max(0.0)
}

fn dist(a: (f64, f64), b: (f64, f64)) -> f64 {
    ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::valley;
    use asap_rng::check::{check, vec};

    /// The plain walk the Fenwick search replaces: the first slot of
    /// `weights` at which `draw`, less every earlier weight, falls below
    /// the slot's own weight.
    fn walk(weights: &[usize], mut draw: usize) -> Option<usize> {
        for (s, &w) in weights.iter().enumerate() {
            if draw < w {
                return Some(s);
            }
            draw -= w;
        }
        None
    }

    /// Random weights (zeros included, as for slots not yet joined), +1
    /// bumps between rounds of picks, every prefix length and every draw
    /// below each prefix's total. Catches, each on its own: `<` for `<=`
    /// in `find`'s descent, `find` returning one slot off, `prefix`
    /// summing one slot too many, and `add` climbing one slot at a time
    /// instead of by the low bit.
    #[test]
    fn fenwick_pick_matches_the_prefix_walk() {
        check(64, |rng| {
            let mut weights = vec(rng, 0..24, |rng| rng.gen_range(0..4usize));
            let n = weights.len();
            let mut tree = Fenwick::new(n);
            for (s, &w) in weights.iter().enumerate() {
                tree.add(s, w);
            }
            for _ in 0..8 {
                for m in 0..=n {
                    let total: usize = weights[..m].iter().sum();
                    assert_eq!(tree.prefix(m), total, "prefix {m} of {weights:?}");
                    for draw in 0..total {
                        assert_eq!(
                            Some(tree.find(draw)),
                            walk(&weights[..m], draw),
                            "draw {draw} below prefix {m} of {weights:?}"
                        );
                    }
                }
                if n > 0 {
                    let s = rng.gen_range(0..n);
                    weights[s] += 1;
                    tree.add(s, 1);
                }
            }
        });
    }

    fn internet() -> SyntheticInternet {
        InternetGenerator::new(InternetConfig::tiny(), 7).generate()
    }

    #[test]
    fn generates_requested_counts() {
        let net = internet();
        let cfg = InternetConfig::tiny();
        // Siblings may add a few extra stubs.
        assert!(net.graph.node_count() >= cfg.tier1 + cfg.transit + cfg.stubs);
        assert_eq!(net.tiers.len(), net.graph.node_count());
        assert_eq!(net.coords.len(), net.graph.node_count());
    }

    #[test]
    fn tier1_is_a_peering_clique() {
        let net = internet();
        let t1: Vec<Asn> = net
            .graph
            .asns()
            .iter()
            .enumerate()
            .filter(|(i, _)| net.tiers[*i] == AsTier::Tier1)
            .map(|(_, &a)| a)
            .collect();
        for i in 0..t1.len() {
            for j in (i + 1)..t1.len() {
                assert_eq!(
                    net.graph.edge_kind(t1[i], t1[j]),
                    Some(EdgeKind::PeerToPeer)
                );
            }
        }
    }

    #[test]
    fn every_non_tier1_as_has_a_provider_path_to_the_core() {
        let net = internet();
        for (i, &asn) in net.graph.asns().iter().enumerate() {
            if net.tiers[i] == AsTier::Tier1 {
                continue;
            }
            // Walk up providers; must reach tier-1 within a bounded number
            // of steps (no provider cycles).
            let mut current = asn;
            let mut steps = 0;
            loop {
                let Some(p) = net.graph.providers(current).next() else {
                    // Sibling stubs may rely on their sibling's provider.
                    let has_sibling_with_provider = net
                        .graph
                        .neighbors(current)
                        .iter()
                        .any(|(_, k)| *k == EdgeKind::SiblingToSibling);
                    assert!(has_sibling_with_provider, "{asn} has no upstream at all");
                    break;
                };
                current = p;
                steps += 1;
                assert!(steps < 64, "provider chain from {asn} does not terminate");
                if net.tier(current) == Some(AsTier::Tier1) {
                    break;
                }
            }
        }
    }

    #[test]
    fn stubs_never_have_customers() {
        let net = internet();
        for (i, &asn) in net.graph.asns().iter().enumerate() {
            if net.tiers[i] == AsTier::Stub {
                assert_eq!(
                    net.graph.customers(asn).count(),
                    0,
                    "{asn} is a stub with customers"
                );
            }
        }
    }

    #[test]
    fn multihomed_stubs_exist() {
        let net = internet();
        let stubs = net.stub_asns();
        let multihomed = stubs
            .iter()
            .filter(|&&a| net.graph.is_multi_homed(a))
            .count();
        assert!(multihomed > 0, "expected some multi-homed stubs");
        assert!(
            multihomed < stubs.len(),
            "not every stub should be multi-homed"
        );
    }

    #[test]
    fn any_two_ases_connected_valley_free_through_the_core() {
        // Valley-free reachability: a stub can reach the core uphill and any
        // other AS lies downhill of the core, so generous hop bounds must
        // connect random pairs.
        let net = internet();
        let stubs = net.stub_asns();
        let (a, b) = (stubs[0], stubs[stubs.len() / 2]);
        assert!(valley::valley_free_hops(&net.graph, a, b, 10).is_some());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = InternetGenerator::new(InternetConfig::tiny(), 99).generate();
        let b = InternetGenerator::new(InternetConfig::tiny(), 99).generate();
        assert_eq!(a.graph.node_count(), b.graph.node_count());
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
        let ea: Vec<_> = a.graph.edges().collect();
        let eb: Vec<_> = b.graph.edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = InternetGenerator::new(InternetConfig::tiny(), 1).generate();
        let b = InternetGenerator::new(InternetConfig::tiny(), 2).generate();
        let ea: Vec<_> = a.graph.edges().collect();
        let eb: Vec<_> = b.graph.edges().collect();
        assert_ne!(ea, eb);
    }

    #[test]
    fn empty_tier1_is_an_error_not_a_panic() {
        // Regression: this configuration used to trip the
        // "provider pool must not be empty" assertion inside
        // weighted_provider with ~75% probability per transit AS.
        let cfg = InternetConfig {
            tier1: 0,
            transit: 5,
            stubs: 10,
        };
        let err = InternetGenerator::new(cfg, 1).try_generate().unwrap_err();
        assert_eq!(
            err,
            GenError::EmptyProviderPool {
                tier: AsTier::Transit
            }
        );

        // Stubs with nothing upstream fail the same way.
        let cfg = InternetConfig {
            tier1: 0,
            transit: 0,
            stubs: 3,
        };
        let err = InternetGenerator::new(cfg, 1).try_generate().unwrap_err();
        assert_eq!(err, GenError::EmptyProviderPool { tier: AsTier::Stub });
    }

    #[test]
    fn minimal_topologies_generate() {
        // The smallest useful worlds: one core AS and a handful of
        // customers must come out whole, across several seeds (the
        // 75%/25% provider-branch coin means a single seed would not
        // exercise both paths on a one-transit config).
        for seed in 0..8 {
            let cfg = InternetConfig {
                tier1: 1,
                transit: 1,
                stubs: 1,
            };
            let net = InternetGenerator::new(cfg, seed)
                .try_generate()
                .expect("minimal topology generates");
            assert!(net.graph.node_count() >= 3);
            assert!(!net.stub_asns().is_empty());

            let cfg = InternetConfig {
                tier1: 1,
                transit: 0,
                stubs: 2,
            };
            let net = InternetGenerator::new(cfg, seed)
                .try_generate()
                .expect("transit-free topology generates");
            assert!(net.graph.node_count() >= 3);
        }
    }

    #[test]
    fn try_generate_matches_generate_for_valid_configs() {
        let a = InternetGenerator::new(InternetConfig::tiny(), 42).generate();
        let b = InternetGenerator::new(InternetConfig::tiny(), 42)
            .try_generate()
            .unwrap();
        let ea: Vec<_> = a.graph.edges().collect();
        let eb: Vec<_> = b.graph.edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn coordinates_inside_world() {
        let net = internet();
        let w = WORLD_SIZE;
        for &(x, y) in &net.coords {
            assert!((0.0..=w).contains(&x) && (0.0..=w).contains(&y));
        }
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let net = InternetGenerator::new(InternetConfig::default(), 3).generate();
        let mut degrees: Vec<usize> = net
            .graph
            .asns()
            .iter()
            .map(|&a| net.graph.degree(a))
            .collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        // Top node should dominate the median by an order of magnitude.
        let median = degrees[degrees.len() / 2];
        assert!(
            degrees[0] >= median * 10,
            "max {} vs median {}",
            degrees[0],
            median
        );
    }
}
