//! The AS-level latency and loss model.
//!
//! The model's shape is the constants of this module: propagation per
//! unit of distance, per-hop delay, stub congestion and failure rates,
//! the severity ranges of congestion, base loss, pair jitter and
//! circuitous routes. They were calibrated once against Fig. 2(a) and
//! the k = 4 statistic (DESIGN §8). [`NetConfig`] holds only the two
//! congestion rates that tests raise.

use std::iter;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use asap_cluster::Asn;
use asap_topology::routing::{BgpRouter, RouteHops};
use asap_topology::{AsTier, SyntheticInternet};

use crate::memo::RouteMemo;

/// Health of an AS during the simulated period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AsCondition {
    /// Operating normally.
    Healthy,
    /// Congested: every path crossing this AS pays `added_rtt_ms` extra
    /// round-trip latency and `added_loss` extra loss probability.
    Congested {
        /// Extra RTT in milliseconds per traversal.
        added_rtt_ms: f64,
        /// Extra loss probability per traversal.
        added_loss: f64,
    },
    /// Failed: paths crossing this AS effectively time out.
    Failed,
}

/// One-way milliseconds of propagation per unit of coordinate distance.
pub const MS_PER_DISTANCE: f64 = 0.40;

/// One-way per-AS-link router/serialization delay in milliseconds.
pub const PER_HOP_MS: f64 = 0.8;

/// Probability that a stub AS is congested (endpoint-adjacent
/// congestion, which no relay can bypass).
pub const CONGESTION_PROB_STUB: f64 = 0.001;

/// Extra RTT range (ms) a congested AS or core link adds per traversal,
/// fixed for the whole simulated period (unlike the fault plan's
/// bursts, `faults::CONGESTION_RTT_MS`).
pub const CONGESTED_ADDED_RTT_MS: RangeInclusive<f64> = 50.0..=600.0;

/// Extra loss range a congested AS or core link adds per traversal.
pub const CONGESTED_ADDED_LOSS: RangeInclusive<f64> = 0.01..=0.08;

/// Fraction of stub ASes failed during the simulated period (core ASes
/// do not fail wholesale; per the paper's Fig. 2(a) only ~10 of 10^5
/// sessions sit on the retransmission plateau).
pub const FAILED_FRACTION: f64 = 0.0002;

/// RTT assigned to paths crossing a failed AS (a retransmission timeout
/// plateau; Fig. 2(a) shows ~10 sessions above 5 s).
pub const FAILURE_RTT_MS: f64 = 5_500.0;

/// Baseline end-to-end loss probability range per path.
pub const BASE_LOSS: RangeInclusive<f64> = 0.001..=0.01;

/// Multiplicative latency jitter per AS pair (±fraction).
pub const PAIR_JITTER: f64 = 0.30;

/// Probability that an AS pair suffers a circuitous route (a triangle
/// inequality violation): its latency is multiplied by a factor drawn
/// from [`TIV_RANGE`]. These pairs are exactly the ones one-hop relays
/// rescue geometrically (paper Fig. 2(b): 60% of sessions have an
/// optimal one-hop path faster than the direct route).
pub const TIV_PROB: f64 = 0.18;

/// Multiplier range for circuitous pairs.
pub const TIV_RANGE: RangeInclusive<f64> = 1.4..=2.2;

/// The congestion rates of the latency/loss model that tests vary; every
/// other quantity of the model is a constant of this module.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Probability that a *core link* (both endpoints tier-1/transit) is
    /// congested. Link-level core congestion is the paper's Fig. 4
    /// scenario: it afflicts every direct route crossing that peering or
    /// transit link, yet relays whose legs meet elsewhere bypass it.
    ///
    /// A setting rather than a constant because it is the only way to
    /// congest a core link: the route oracle raises it to put dense
    /// congestion on tiny worlds, and the comparison test raises it to
    /// get a latent-session pool.
    pub congestion_prob_core_link: f64,
    /// Probability that a transit AS is congested as a whole (regional
    /// provider trouble; bypassable only by endpoints with another
    /// upstream).
    ///
    /// A setting rather than a constant because the route oracle raises
    /// it to congest many transit ASes when the model is built.
    pub congestion_prob_transit: f64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            congestion_prob_core_link: 0.008,
            congestion_prob_transit: 0.008,
        }
    }
}

/// Deterministic AS-level latency/loss oracle over a synthetic Internet.
///
/// All randomness is derived by hashing the configured seed with the
/// entities involved, so the model is a pure function: the same query
/// always returns the same answer, queries never interfere, and the whole
/// model is `Send + Sync`. Queries take no lock: each destination's BGP
/// routing tree is built once behind its own `OnceLock`, over the
/// transit core only, and a route query walks that tree by node index:
/// it derives the first hop once when the source is a leaf AS, then
/// follows core next hops, reading coordinates, tiers and AS conditions
/// by index, so it allocates nothing and hashes only its two endpoints.
/// The answer is then memoized by ordered AS pair, so a repeat query
/// reads two slot indices and one table entry instead of walking.
/// [`NetModel::set_condition`], the one way to change an answer, drops
/// that memo; the trees never change.
///
/// ```
/// use asap_netsim::{NetConfig, NetModel};
/// use asap_topology::{InternetConfig, InternetGenerator};
/// use std::sync::Arc;
///
/// let net = Arc::new(InternetGenerator::new(InternetConfig::tiny(), 1).generate());
/// let model = NetModel::new(net.clone(), NetConfig::default(), 7);
/// let stubs = net.stub_asns();
/// let rtt = model.as_rtt_ms(stubs[0], stubs[1]).expect("routable");
/// assert_eq!(model.as_rtt_ms(stubs[0], stubs[1]), Some(rtt)); // deterministic
/// ```
#[derive(Debug)]
pub struct NetModel {
    internet: Arc<SyntheticInternet>,
    config: NetConfig,
    seed: u64,
    conditions: Vec<AsCondition>,
    router: BgpRouter,
    /// Route-query answers by ordered AS pair, filled by the tree walk.
    memo: RouteMemo,
    /// Queries answered from `memo`, each a route-cache hit.
    memo_hits: AtomicU64,
}

impl NetModel {
    /// Builds the model, sampling congestion/failure episodes from `seed`.
    pub fn new(internet: Arc<SyntheticInternet>, config: NetConfig, seed: u64) -> Self {
        let n = internet.graph.node_count();
        let mut conditions = vec![AsCondition::Healthy; n];
        for (idx, cond) in conditions.iter_mut().enumerate() {
            let h = mix(seed, 0xC0F_FEE, idx as u64);
            let u = unit(h);
            let congestion_prob = match internet.tiers[idx] {
                AsTier::Tier1 => 0.0,
                AsTier::Transit => config.congestion_prob_transit,
                AsTier::Stub => CONGESTION_PROB_STUB,
            };
            let can_fail = internet.tiers[idx] == AsTier::Stub;
            if can_fail && u < FAILED_FRACTION {
                *cond = AsCondition::Failed;
            } else if u < FAILED_FRACTION + congestion_prob {
                let (lo, hi) = CONGESTED_ADDED_RTT_MS.into_inner();
                let (llo, lhi) = CONGESTED_ADDED_LOSS.into_inner();
                // Uniform severity: congestion episodes range from mild
                // to severe (the paper's problem sessions sit 50-400 ms
                // above their clean RTT).
                let sev = unit(mix(seed, 0xBAD, idx as u64));
                *cond = AsCondition::Congested {
                    added_rtt_ms: lo + sev * (hi - lo),
                    added_loss: llo + sev * (lhi - llo),
                };
            }
        }
        let router = BgpRouter::new(&internet.graph);
        NetModel {
            internet,
            config,
            seed,
            conditions,
            router,
            memo: RouteMemo::new(n),
            memo_hits: AtomicU64::new(0),
        }
    }

    /// The synthetic Internet this model runs over.
    pub fn internet(&self) -> &Arc<SyntheticInternet> {
        &self.internet
    }

    /// The health of `asn` during the simulated period.
    pub fn condition(&self, asn: Asn) -> AsCondition {
        match self.internet.graph.index_of(asn) {
            Some(i) => self.conditions[i as usize],
            None => AsCondition::Healthy,
        }
    }

    /// Overrides the health of `asn` (failure injection in tests), and
    /// drops every memoized route answer.
    ///
    /// # Panics
    ///
    /// Panics if `asn` is not in the graph.
    pub fn set_condition(&mut self, asn: Asn, condition: AsCondition) {
        let i = self.internet.graph.index_of(asn).expect("AS not in graph") as usize;
        self.conditions[i] = condition;
        self.memo = RouteMemo::new(self.conditions.len());
    }

    /// The BGP policy AS path from `a` to `b`, if routable.
    pub fn as_path(&self, a: Asn, b: Asn) -> Option<Vec<Asn>> {
        if !self.internet.graph.contains(a) || !self.internet.graph.contains(b) {
            return None;
        }
        self.router.path(&self.internet.graph, a, b)
    }

    /// The policy route from node index `src` to node index `dest`: the
    /// node indices after `src`, ending at `dest` (none when they are
    /// equal), or `None` if no policy route exists. One routing-tree
    /// lookup, counted in [`NetModel::route_cache_stats`] as
    /// [`NetModel::as_path`] counts it; the walk allocates nothing and
    /// hashes no AS number.
    ///
    /// # Panics
    ///
    /// Panics if either index is not a node index of the model's graph.
    pub fn route_idx(&self, src: u32, dest: u32) -> Option<RouteHops<'_>> {
        let tree = self.router.tree_idx(&self.internet.graph, dest);
        tree.route_idx(src)
    }

    /// AS-hop count of the direct policy route.
    pub fn as_hops(&self, a: Asn, b: Asn) -> Option<usize> {
        if !self.internet.graph.contains(a) || !self.internet.graph.contains(b) {
            return None;
        }
        self.router.as_hops(&self.internet.graph, a, b)
    }

    /// `(hits, misses)` of the route cache: a miss computes a full
    /// per-destination BGP tree, a hit reuses a tree or answers from the
    /// AS-pair memo. Every route query between two distinct ASes counts
    /// once, a fused [`NetModel::as_metrics`] query included, so the
    /// counts do not depend on whether the memo answered.
    pub fn route_cache_stats(&self) -> (u64, u64) {
        let (hits, misses) = self.router.cache_stats();
        (hits + self.memo_hits.load(Ordering::Relaxed), misses)
    }

    /// Round-trip time in milliseconds between (the delegate routers of)
    /// two ASes along the direct BGP route, or `None` if no policy route
    /// exists. Includes congestion/failure inflation; excludes end-host
    /// access delays (`Scenario::host_rtt_ms` in `asap-workload` adds
    /// them).
    pub fn as_rtt_ms(&self, a: Asn, b: Asn) -> Option<f64> {
        self.as_metrics(a, b).map(|(rtt, _)| rtt)
    }

    /// RTT (ms) and loss probability between two ASes along the direct
    /// BGP route, from one route lookup: `(as_rtt_ms(a, b), as_loss(a,
    /// b))`, or `None` if no policy route exists.
    ///
    /// The route is walked by node index and its terms are summed in the
    /// order [`NetModel::path_rtt_ms`] and [`NetModel::path_loss`] sum
    /// them over [`NetModel::as_path`] (all link terms, then per-AS
    /// condition terms, a failed AS short-circuiting), so both floats are
    /// bit-equal to theirs.
    pub fn as_metrics(&self, a: Asn, b: Asn) -> Option<(f64, f64)> {
        if a == b {
            return Some((self.intra_as_rtt_ms(a), self.base_pair_loss(a, b)));
        }
        let graph = &self.internet.graph;
        self.as_metrics_idx(graph.index_of(a)?, graph.index_of(b)?)
    }

    /// [`NetModel::as_metrics`] between two graph node indices, without
    /// hashing either AS number. Bit-equal to `as_metrics` of their
    /// ASes. The first query of an ordered pair walks its route; later
    /// ones read the memoized answer.
    ///
    /// # Panics
    ///
    /// Panics if either index is not a node index of the model's graph.
    pub fn as_metrics_idx(&self, src: u32, dest: u32) -> Option<(f64, f64)> {
        if src == dest {
            let a = self.internet.graph.asn_at(src);
            return Some((self.intra_as_rtt_ms(a), self.base_pair_loss(a, a)));
        }
        let Some(entry) = self.memo.entry(src, dest) else {
            return self.walk(src, dest);
        };
        if let Some(answer) = entry.get() {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
            return answer;
        }
        let answer = self.walk(src, dest);
        entry.set(answer);
        answer
    }

    /// Walks the policy route from `src` to `dest` (distinct node
    /// indices) and sums its RTT and loss terms.
    fn walk(&self, src: u32, dest: u32) -> Option<(f64, f64)> {
        let graph = &self.internet.graph;
        let (a, b) = (graph.asn_at(src), graph.asn_at(dest));
        let route = self.router.tree_idx(graph, dest).route_idx(src)?;
        let mut one_way = 0.0;
        let mut extra_rtt = 0.0;
        let mut loss = self.base_pair_loss(a, b);
        let mut congested = false;
        let mut x = src;
        let mut hops = route.clone();
        loop {
            match self.conditions[x as usize] {
                AsCondition::Healthy => {}
                AsCondition::Congested { .. } => congested = true,
                AsCondition::Failed => return Some((FAILURE_RTT_MS, 1.0)),
            }
            let Some(y) = hops.next() else {
                break;
            };
            let d = self.internet.distance_idx(x, y);
            one_way += d * MS_PER_DISTANCE + PER_HOP_MS;
            let (link_rtt, link_loss) = self.link_condition_idx(x, y);
            extra_rtt += link_rtt;
            loss += link_loss;
            x = y;
        }
        // Condition terms come after every link term, in path order.
        if congested {
            for x in iter::once(src).chain(route) {
                if let AsCondition::Congested {
                    added_rtt_ms,
                    added_loss,
                } = self.conditions[x as usize]
                {
                    extra_rtt += added_rtt_ms;
                    loss += added_loss;
                }
            }
        }
        let rtt = (2.0 * one_way + extra_rtt) * self.pair_jitter_factor(a, b);
        Some((rtt, loss.min(1.0)))
    }

    /// The congestion state of the AS-AS link between `a` and `b`:
    /// extra RTT (ms) and extra loss per traversal. Zero for healthy
    /// links. Only core links (both endpoints tier-1/transit) are subject
    /// to link congestion; deterministic per (seed, link).
    pub fn link_condition(&self, a: Asn, b: Asn) -> (f64, f64) {
        let graph = &self.internet.graph;
        match (graph.index_of(a), graph.index_of(b)) {
            (Some(a), Some(b)) => self.link_condition_idx(a, b),
            _ => (0.0, 0.0),
        }
    }

    /// [`NetModel::link_condition`] between two graph node indices.
    fn link_condition_idx(&self, a: u32, b: u32) -> (f64, f64) {
        let is_core = |i: u32| {
            matches!(
                self.internet.tiers[i as usize],
                AsTier::Tier1 | AsTier::Transit
            )
        };
        if !is_core(a) || !is_core(b) {
            return (0.0, 0.0);
        }
        let (a, b) = (self.internet.graph.asn_at(a), self.internet.graph.asn_at(b));
        let (x, y) = (a.0.min(b.0) as u64, a.0.max(b.0) as u64);
        if unit(mix(self.seed ^ 0x11_4C, x, y)) >= self.config.congestion_prob_core_link {
            return (0.0, 0.0);
        }
        let sev = unit(mix(self.seed ^ 0x5EF, x, y));
        let (lo, hi) = CONGESTED_ADDED_RTT_MS.into_inner();
        let (llo, lhi) = CONGESTED_ADDED_LOSS.into_inner();
        (lo + sev * (hi - lo), llo + sev * (lhi - llo))
    }

    /// RTT along an explicit AS path (used for relay legs and what-if
    /// questions). The path need not be the policy route.
    pub fn path_rtt_ms(&self, path: &[Asn]) -> f64 {
        let mut one_way = 0.0;
        let mut extra_rtt = 0.0;
        for w in path.windows(2) {
            let d = self.internet.distance(w[0], w[1]);
            one_way += d * MS_PER_DISTANCE + PER_HOP_MS;
            extra_rtt += self.link_condition(w[0], w[1]).0;
        }
        for &asn in path {
            match self.condition(asn) {
                AsCondition::Healthy => {}
                AsCondition::Congested { added_rtt_ms, .. } => extra_rtt += added_rtt_ms,
                AsCondition::Failed => return FAILURE_RTT_MS,
            }
        }
        // Deterministic per-pair jitter (same for both directions).
        let (first, last) = (path.first(), path.last());
        let jitter = match (first, last) {
            (Some(&f), Some(&l)) => self.pair_jitter_factor(f, l),
            _ => 1.0,
        };
        (2.0 * one_way + extra_rtt) * jitter
    }

    /// End-to-end loss probability between two ASes along the direct
    /// route, or `None` if unroutable.
    pub fn as_loss(&self, a: Asn, b: Asn) -> Option<f64> {
        self.as_metrics(a, b).map(|(_, loss)| loss)
    }

    /// Loss probability along an explicit AS path.
    pub fn path_loss(&self, path: &[Asn]) -> f64 {
        let mut loss = match (path.first(), path.last()) {
            (Some(&f), Some(&l)) => self.base_pair_loss(f, l),
            _ => 0.0,
        };
        for w in path.windows(2) {
            loss += self.link_condition(w[0], w[1]).1;
        }
        for &asn in path {
            match self.condition(asn) {
                AsCondition::Healthy => {}
                AsCondition::Congested { added_loss, .. } => loss += added_loss,
                AsCondition::Failed => return 1.0,
            }
        }
        loss.min(1.0)
    }

    /// Intra-AS RTT between two hosts of the same AS (small, distance
    /// independent, deterministic per AS).
    fn intra_as_rtt_ms(&self, asn: Asn) -> f64 {
        2.0 + 6.0 * unit(mix(self.seed, 0x1A7, asn.0 as u64))
    }

    fn pair_jitter_factor(&self, a: Asn, b: Asn) -> f64 {
        let (lo, hi) = (a.0.min(b.0) as u64, a.0.max(b.0) as u64);
        let u = unit(mix(self.seed, lo, hi));
        let mut factor = 1.0 + PAIR_JITTER * (2.0 * u - 1.0);
        if unit(mix(self.seed ^ 0x717, lo, hi)) < TIV_PROB {
            let (tlo, thi) = TIV_RANGE.into_inner();
            factor *= tlo + (thi - tlo) * unit(mix(self.seed ^ 0x7117, lo, hi));
        }
        factor
    }

    fn base_pair_loss(&self, a: Asn, b: Asn) -> f64 {
        let (lo, hi) = BASE_LOSS.into_inner();
        let (x, y) = (a.0.min(b.0) as u64, a.0.max(b.0) as u64);
        let u = unit(mix(self.seed, x ^ 0x1055, y));
        lo + u * u * (hi - lo)
    }
}

/// SplitMix64-style deterministic hash of three words.
fn mix(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a ^ b.rotate_left(21) ^ c.rotate_left(42) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to a uniform float in [0, 1).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_topology::{InternetConfig, InternetGenerator};

    fn model(seed: u64) -> NetModel {
        let net = Arc::new(InternetGenerator::new(InternetConfig::tiny(), 3).generate());
        NetModel::new(net, NetConfig::default(), seed)
    }

    #[test]
    fn rtt_is_deterministic_and_symmetric_in_jitter() {
        let m = model(1);
        let stubs = m.internet().stub_asns();
        let (a, b) = (stubs[0], stubs[7]);
        let r1 = m.as_rtt_ms(a, b);
        let r2 = m.as_rtt_ms(a, b);
        assert_eq!(r1, r2);
        assert!(r1.unwrap() > 0.0);
    }

    #[test]
    fn same_as_rtt_is_small() {
        let m = model(2);
        let a = m.internet().stub_asns()[0];
        let rtt = m.as_rtt_ms(a, a).unwrap();
        assert!((2.0..10.0).contains(&rtt), "intra-AS RTT {rtt}");
    }

    #[test]
    fn longer_paths_cost_more_on_average() {
        // RTT/AS-hop correlation (paper property 3): average RTT of 1-hop
        // pairs below average RTT of 4-hop pairs.
        let m = model(3);
        let stubs = m.internet().stub_asns();
        let mut by_hops: std::collections::HashMap<usize, (f64, usize)> = Default::default();
        for i in 0..stubs.len() {
            for j in (i + 1)..stubs.len().min(i + 30) {
                if let (Some(h), Some(r)) = (
                    m.as_hops(stubs[i], stubs[j]),
                    m.as_rtt_ms(stubs[i], stubs[j]),
                ) {
                    if r < FAILURE_RTT_MS {
                        let e = by_hops.entry(h).or_insert((0.0, 0));
                        e.0 += r;
                        e.1 += 1;
                    }
                }
            }
        }
        let avg = |h: usize| by_hops.get(&h).map(|(s, c)| s / *c as f64);
        if let (Some(short), Some(long)) = (avg(2), avg(5)) {
            assert!(short < long, "2-hop avg {short} vs 5-hop avg {long}");
        }
    }

    #[test]
    fn failed_as_forces_timeout_rtt() {
        let mut m = model(4);
        let stubs = m.internet().stub_asns();
        let (a, b) = (stubs[1], stubs[11]);
        let path = m.as_path(a, b).unwrap();
        let middle = path[path.len() / 2];
        m.set_condition(middle, AsCondition::Failed);
        assert_eq!(m.as_rtt_ms(a, b), Some(FAILURE_RTT_MS));
        assert_eq!(m.as_loss(a, b), Some(1.0));
    }

    #[test]
    fn congested_as_inflates_rtt_and_loss() {
        let mut m = model(5);
        let stubs = m.internet().stub_asns();
        let (a, b) = (stubs[2], stubs[13]);
        let path = m.as_path(a, b).unwrap();
        for &asn in &path {
            m.set_condition(asn, AsCondition::Healthy);
        }
        let clean_rtt = m.as_rtt_ms(a, b).unwrap();
        let clean_loss = m.as_loss(a, b).unwrap();
        let middle = path[path.len() / 2];
        m.set_condition(
            middle,
            AsCondition::Congested {
                added_rtt_ms: 200.0,
                added_loss: 0.05,
            },
        );
        assert!(
            (m.as_rtt_ms(a, b).unwrap() - (clean_rtt + 200.0 * m_jitter(&m, a, b))).abs() < 1e-6
                || m.as_rtt_ms(a, b).unwrap() > clean_rtt + 100.0
        );
        assert!((m.as_loss(a, b).unwrap() - (clean_loss + 0.05)).abs() < 1e-9);
    }

    // Congestion is added before jitter multiplies; recover the factor.
    fn m_jitter(m: &NetModel, a: Asn, b: Asn) -> f64 {
        m.pair_jitter_factor(a, b)
    }

    #[test]
    fn relay_leg_sums_exceed_either_leg() {
        let m = model(6);
        let stubs = m.internet().stub_asns();
        let (a, r, b) = (stubs[0], stubs[5], stubs[10]);
        let leg1 = m.as_rtt_ms(a, r).unwrap();
        let leg2 = m.as_rtt_ms(r, b).unwrap();
        let relay = leg1 + leg2 + crate::RELAY_DELAY_RTT_MS;
        assert!(relay > leg1 && relay > leg2);
        assert!(relay >= crate::RELAY_DELAY_RTT_MS);
    }

    #[test]
    fn unknown_as_is_unroutable() {
        let m = model(9);
        assert_eq!(m.as_rtt_ms(Asn(999_999), m.internet().stub_asns()[0]), None);
    }

    #[test]
    fn episode_sampling_respects_fractions() {
        let net = Arc::new(InternetGenerator::new(InternetConfig::default(), 10).generate());
        let m = NetModel::new(net.clone(), NetConfig::default(), 11);
        let n = net.graph.node_count() as f64;
        let congested = net
            .graph
            .asns()
            .iter()
            .filter(|&&a| matches!(m.condition(a), AsCondition::Congested { .. }))
            .count() as f64;
        let frac = congested / n;
        // Defaults: no tier-1 is ever congested, 0.8% of transits and
        // 0.1% of stubs are (core links congest separately, per link).
        assert!((0.0005..0.02).contains(&frac), "congested fraction {frac}");
    }
}
