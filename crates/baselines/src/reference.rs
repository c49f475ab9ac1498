//! Plain references for the selectors' fast paths, and the eval-scale
//! check that runs them against each other.
//!
//! Each reference is the selector's defining loop written the obvious
//! way: OPT's scan over every host in id order with a per-select leg
//! map, its two-hop pairing with one route query per pair, and ED's
//! per-candidate [`EarliestDivergence::shared_prefix_len`]. The unit
//! tests of `opt` and `ed` compare the selectors with them bit for bit.

use std::collections::{HashMap, HashSet};

use asap_cluster::Asn;
use asap_netsim::RELAY_DELAY_RTT_MS;
use asap_voip::QualityRequirement;
use asap_workload::sessions::Session;
use asap_workload::{HostId, Scenario};

use crate::selector::{eval_one_hop, RelayPath, SelectionOutcome};
use crate::{EarliestDivergence, RandSel};

/// An outcome's bits: best relays, best RTT and loss, probed nodes and
/// quality paths.
pub(crate) type Bits = (Option<Vec<HostId>>, Option<(u64, u64)>, u64, u64);

/// The bits of `out`, for exact comparison.
pub(crate) fn bits(out: &SelectionOutcome) -> Bits {
    let best = out.best.as_ref();
    (
        best.map(|b| b.relays.clone()),
        best.map(|b| (b.rtt_ms.to_bits(), b.loss.to_bits())),
        out.probed_nodes,
        out.quality_paths,
    )
}

/// Keeps the `cap` smallest entries (by value) in `heap`, fed in host
/// order: once full, the list is sorted and a newcomer must beat the
/// worst strictly.
pub(crate) fn push_best<T>(heap: &mut Vec<(f64, T)>, entry: (f64, T), cap: usize) {
    if heap.len() < cap {
        heap.push(entry);
        if heap.len() == cap {
            heap.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        return;
    }
    // Heap is full and sorted: replace the worst if better.
    if entry.0 < heap[cap - 1].0 {
        heap[cap - 1] = entry;
        let mut i = cap - 1;
        while i > 0 && heap[i].0 < heap[i - 1].0 {
            heap.swap(i, i - 1);
            i -= 1;
        }
    }
}

/// OPT in its plain form, with `candidates` legs a side for two-hop
/// pairing. Returns the outcome and the route queries an implementation
/// that asks each distinct query once would make: the two legs of every
/// AS holding a relay, plus the middle leg of every distinct AS pair
/// the pairing visits. An intra-AS leg is no route query.
pub(crate) fn opt_select(
    candidates: usize,
    scenario: &Scenario,
    session: Session,
    requirement: &QualityRequirement,
) -> (SelectionOutcome, u64) {
    let pop = &scenario.population;
    let caller = pop.host(session.caller);
    let callee = pop.host(session.callee);
    let mut leg_a: HashMap<Asn, Option<(f64, f64)>> = HashMap::new();
    let mut leg_b: HashMap<Asn, Option<(f64, f64)>> = HashMap::new();
    let mut out = SelectionOutcome::default();
    let mut best_from_a: Vec<(f64, (HostId, f64))> = Vec::new();
    let mut best_to_b: Vec<(f64, (HostId, f64))> = Vec::new();
    for host in pop.hosts() {
        if host.id == session.caller || host.id == session.callee {
            continue;
        }
        let a_leg = *leg_a
            .entry(host.asn)
            .or_insert_with(|| scenario.net.as_metrics(caller.asn, host.asn));
        let b_leg = *leg_b
            .entry(host.asn)
            .or_insert_with(|| scenario.net.as_metrics(host.asn, callee.asn));
        let access = 2.0 * host.access_ms;
        let (Some((a_leg, la)), Some((b_leg, lb))) = (a_leg, b_leg) else {
            continue;
        };
        let a_full = a_leg + 2.0 * caller.access_ms + access;
        let b_full = b_leg + access + 2.0 * callee.access_ms;
        let rtt = a_full + b_full + RELAY_DELAY_RTT_MS;
        let loss = 1.0 - (1.0 - la) * (1.0 - lb);
        out.consider(
            RelayPath {
                relays: vec![host.id],
                rtt_ms: rtt,
                loss,
            },
            requirement,
        );
        if candidates > 0 {
            push_best(&mut best_from_a, (a_full, (host.id, la)), candidates);
            push_best(&mut best_to_b, (b_full, (host.id, lb)), candidates);
        }
    }
    let mut pairs = HashSet::new();
    for &(a_full, (r1, l1)) in &best_from_a {
        for &(b_full, (r2, l3)) in &best_to_b {
            if r1 == r2 {
                continue;
            }
            let (h1, h2) = (pop.host(r1), pop.host(r2));
            pairs.insert((h1.asn, h2.asn));
            let Some((mid, l2)) = scenario.net.as_metrics(h1.asn, h2.asn) else {
                continue;
            };
            let mid_full = mid + 2.0 * h1.access_ms + 2.0 * h2.access_ms;
            let rtt = a_full + mid_full + b_full + 2.0 * RELAY_DELAY_RTT_MS;
            let loss = 1.0 - (1.0 - l1) * (1.0 - l2) * (1.0 - l3);
            if out.best.as_ref().is_none_or(|b| rtt < b.rtt_ms) {
                out.best = Some(RelayPath {
                    relays: vec![r1, r2],
                    rtt_ms: rtt,
                    loss,
                });
            }
        }
    }
    let is_query = |(a, b): &(Asn, Asn)| a != b;
    let legs = leg_a
        .keys()
        .filter(|&&x| is_query(&(caller.asn, x)))
        .count()
        + leg_b
            .keys()
            .filter(|&&x| is_query(&(x, callee.asn)))
            .count();
    let queries = legs + pairs.iter().filter(|p| is_query(p)).count();
    (out, queries as u64)
}

/// ED in its plain form over `RandSel::new(count, seed)`'s candidates,
/// as `EarliestDivergence::new(count, seed)` draws them, with the
/// per-candidate [`EarliestDivergence::shared_prefix_len`].
pub(crate) fn ed_select(
    count: usize,
    seed: u64,
    scenario: &Scenario,
    session: Session,
    requirement: &QualityRequirement,
) -> SelectionOutcome {
    let mut out = SelectionOutcome::default();
    let mut ranked = Vec::new();
    for r in RandSel::new(count, seed).candidates(scenario, session) {
        let Some(path) = eval_one_hop(scenario, session, r) else {
            continue;
        };
        out.probed_nodes += 1;
        if requirement.rtt_ok(path.rtt_ms) {
            out.quality_paths += 1;
        }
        let shared = EarliestDivergence::shared_prefix_len(scenario, session, r);
        ranked.push((shared, path.rtt_ms, path));
    }
    ranked.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    out.best = ranked.into_iter().next().map(|(_, _, p)| p);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Opt, RelaySelector};
    use asap_workload::sessions;
    use asap_workload::ScenarioConfig;

    /// The `fig11_18_compare` draw at eval scale, as the `latent_compare`
    /// benchmark workload makes it at seed 11: scenario seed 1, 100,000
    /// sessions, the first 600 latent (direct RTT > 300 ms) ones, OPT
    /// with default settings and ED with 200 candidates. Both selectors
    /// must match their plain references bit for bit, and OPT must ask
    /// each route query once. Takes a few seconds in release; run it
    /// with `cargo test --release -p asap-baselines -- --ignored`.
    #[test]
    #[ignore = "eval scale: run in release with --ignored"]
    fn eval_scale_opt_and_ed_match_their_references() {
        let seed = 11;
        let scenario = Scenario::build(ScenarioConfig::eval_scale(), 1);
        let all = sessions::generate(&scenario.population, 100_000, seed);
        let routed = sessions::with_direct_routes(&scenario, &all);
        let mut latent = sessions::latent_sessions(&routed, 300.0);
        latent.truncate(600);
        assert_eq!(latent.len(), 600);
        let req = QualityRequirement::default();
        let opt = Opt::new();
        let ed = EarliestDivergence::new(200, seed ^ 0xAB);
        let (mut asked, mut two_hop) = (0, 0);
        for (i, s) in latent.iter().enumerate() {
            let (reference, queries) = opt_select(32, &scenario, s.session, &req);
            let before = scenario.net.route_cache_stats();
            let fast = opt.select(&scenario, s.session, &req);
            let after = scenario.net.route_cache_stats();
            assert_eq!(bits(&fast), bits(&reference), "OPT, session {i}");
            assert_eq!(
                after.0 + after.1 - before.0 - before.1,
                queries,
                "OPT, session {i}"
            );
            asked += queries;
            two_hop += u64::from(fast.best.is_some_and(|b| b.relays.len() == 2));
            let reference = ed_select(200, seed ^ 0xAB, &scenario, s.session, &req);
            let fast = ed.select(&scenario, s.session, &req);
            assert_eq!(bits(&fast), bits(&reference), "ED, session {i}");
        }
        eprintln!("OPT: {asked} route queries over 600 selects, {two_hop} two-hop wins");
    }
}
