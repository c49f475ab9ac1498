//! OPT: the offline optimal relay selection.

use asap_netsim::RELAY_DELAY_RTT_MS;
use asap_telemetry::LedgerScope;
use asap_voip::QualityRequirement;
use asap_workload::sessions::Session;
use asap_workload::{HostId, Scenario};

use crate::selector::{RelayPath, RelaySelector, SelectionOutcome};

/// The offline optimum of §7.1: "OPT always chooses relay nodes that give
/// the shortest overlay routing latency. This is an offline method with
/// all latency data on hand through one-hop and two-hop relay paths
/// iterations."
///
/// One-hop paths are enumerated exhaustively over every peer. Exhaustive
/// two-hop enumeration is O(hosts²) per session, which even the paper's
/// authors could only afford offline; we bound it by pairing the
/// `two_hop_candidates` best caller-side relays with the same number of
/// best callee-side relays (the optimal two-hop path overwhelmingly
/// combines short legs, so the bound loses nothing in practice — see
/// DESIGN.md). OPT spends no protocol messages: it is an oracle, not a
/// protocol.
#[derive(Debug, Clone)]
pub struct Opt {
    two_hop_candidates: usize,
    scope: LedgerScope,
}

impl Default for Opt {
    fn default() -> Self {
        Opt::new()
    }
}

impl Opt {
    /// One-hop-exhaustive OPT with a 32-candidate two-hop bound.
    pub fn new() -> Self {
        Opt {
            two_hop_candidates: 32,
            scope: LedgerScope::detached(),
        }
    }

    /// Sets the per-side candidate bound for two-hop enumeration (0
    /// disables two-hop search).
    pub fn with_two_hop_candidates(mut self, candidates: usize) -> Self {
        self.two_hop_candidates = candidates;
        self
    }

    /// Binds the (always-empty) scope — OPT is an oracle and records no
    /// messages, but the uniform binding keeps metered comparisons
    /// honest: its Fig. 18 cost really is zero in the same ledger.
    pub fn with_scope(mut self, scope: LedgerScope) -> Self {
        self.scope = scope;
        self
    }
}

impl RelaySelector for Opt {
    fn name(&self) -> &'static str {
        "OPT"
    }

    /// One pass per AS group of [`Population::as_groups`]: the group's
    /// two legs (caller → AS, AS → callee) cost one route query each,
    /// asked by AS graph node index, and within a group the full legs
    /// and the one-hop RTT never decrease along the group's
    /// `(access_ms, id)` order, since they add the relay's access delay
    /// to fixed terms. So the quality-path count is a `partition_point`
    /// over the group's contiguous access-delay slice, and the best
    /// one-hop path and the two-hop candidate lists stop reading a group
    /// at the first host past their bound, reading no `Host` record.
    /// Ties go to the smaller `(value, HostId)`, which is what a scan in
    /// host order with a strict `<` keeps.
    ///
    /// [`Population::as_groups`]: asap_workload::Population::as_groups
    fn select(
        &self,
        scenario: &Scenario,
        session: Session,
        requirement: &QualityRequirement,
    ) -> SelectionOutcome {
        let pop = &scenario.population;
        let caller = pop.host(session.caller);
        let callee = pop.host(session.callee);
        let is_endpoint = |id: HostId| id == session.caller || id == session.callee;
        // The endpoints, once each: they sit in their AS groups but relay
        // nothing.
        let ends = [caller, callee];
        let ends = if caller.id == callee.id {
            &ends[..1]
        } else {
            &ends[..]
        };

        let mut out = SelectionOutcome::default();
        // The best one-hop path, and the best caller-side and callee-side
        // legs for two-hop pairing.
        let mut best = TopK::new(1);
        let mut from_a = TopK::new(self.two_hop_candidates);
        let mut to_b = TopK::new(self.two_hop_candidates);

        for group in pop.as_groups() {
            let relays =
                group.hosts.len() - ends.iter().filter(|e| e.as_node == group.node).count();
            if relays == 0 {
                continue;
            }
            let a_leg = scenario.net.as_metrics_idx(caller.as_node, group.node);
            let b_leg = scenario.net.as_metrics_idx(group.node, callee.as_node);
            let (Some((a_leg, la)), Some((b_leg, lb))) = (a_leg, b_leg) else {
                continue;
            };
            let loss = 1.0 - (1.0 - la) * (1.0 - lb);
            // `(a_full, b_full, rtt)` through a relay of this group with
            // access delay `access_ms`.
            let legs = |access_ms: f64| {
                let access = 2.0 * access_ms;
                let a_full = a_leg + 2.0 * caller.access_ms + access;
                let b_full = b_leg + access + 2.0 * callee.access_ms;
                (a_full, b_full, a_full + b_full + RELAY_DELAY_RTT_MS)
            };

            out.probed_nodes += relays as u64;
            let quality = (group.access_ms).partition_point(|&a| requirement.rtt_ok(legs(a).2));
            let quality_endpoints = ends
                .iter()
                .filter(|e| e.as_node == group.node && requirement.rtt_ok(legs(e.access_ms).2))
                .count();
            out.quality_paths += (quality - quality_endpoints) as u64;

            for (&id, &access_ms) in group.hosts.iter().zip(group.access_ms) {
                if is_endpoint(id) {
                    continue;
                }
                let (a_full, b_full, rtt) = legs(access_ms);
                let mut admitted = false;
                for (top, value, loss) in [
                    (&mut best, rtt, loss),
                    (&mut from_a, a_full, la),
                    (&mut to_b, b_full, lb),
                ] {
                    if top.admits(value) {
                        top.push(Ranked {
                            value,
                            relay: id,
                            loss,
                        });
                        admitted = true;
                    }
                }
                if !admitted {
                    break;
                }
            }
        }

        out.best = best.items.first().map(|one| RelayPath {
            relays: vec![one.relay],
            rtt_ms: one.value,
            loss: one.loss,
        });
        pair_two_hop(scenario, &from_a.items, &to_b.items, &mut out);
        out
    }

    fn scope(&self) -> &LedgerScope {
        &self.scope
    }
}

/// A relay ranked by an RTT: a one-hop path's RTT, or a caller-side or
/// callee-side leg's full RTT (access delays included), with that
/// path's or leg's loss.
struct Ranked {
    value: f64,
    relay: HostId,
    loss: f64,
}

/// The `cap` smallest entries by `(value, relay)`, kept in that order.
struct TopK {
    cap: usize,
    items: Vec<Ranked>,
}

impl TopK {
    fn new(cap: usize) -> Self {
        TopK {
            cap,
            items: Vec::with_capacity(cap + 1),
        }
    }

    /// Whether an entry of `value` could enter the list: the list has
    /// room, or `value` is at most its worst (a tie then goes by relay).
    fn admits(&self, value: f64) -> bool {
        self.items.len() < self.cap || self.items.last().is_some_and(|w| value <= w.value)
    }

    fn push(&mut self, entry: Ranked) {
        let key = |r: &Ranked| (r.value, r.relay);
        let at = self.items.partition_point(|r| key(r) < key(&entry));
        if at < self.cap {
            self.items.insert(at, entry);
            self.items.truncate(self.cap);
        }
    }
}

/// Two-hop: pairs the best caller-side legs with the best callee-side
/// legs, keeping a pair in `out` when it beats the best path so far.
/// Pairs are visited caller-side major, in list order, and the middle
/// leg is one route query per distinct `(AS, AS)` pair visited.
fn pair_two_hop(
    scenario: &Scenario,
    from_a: &[Ranked],
    to_b: &[Ranked],
    out: &mut SelectionOutcome,
) {
    let pop = &scenario.population;
    // Each list's relay ASes (by AS graph node index), numbered in order
    // of first appearance.
    let number = |legs: &[Ranked]| {
        let mut nodes: Vec<u32> = Vec::new();
        let slots: Vec<usize> = legs
            .iter()
            .map(|l| {
                let node = pop.host(l.relay).as_node;
                nodes.iter().position(|&n| n == node).unwrap_or_else(|| {
                    nodes.push(node);
                    nodes.len() - 1
                })
            })
            .collect();
        (nodes, slots)
    };
    let (a_nodes, a_slots) = number(from_a);
    let (b_nodes, b_slots) = number(to_b);
    let mut mids: Vec<Option<Option<(f64, f64)>>> = vec![None; a_nodes.len() * b_nodes.len()];
    for (a, &i) in from_a.iter().zip(&a_slots) {
        for (b, &j) in to_b.iter().zip(&b_slots) {
            if a.relay == b.relay {
                continue;
            }
            let mid = *mids[i * b_nodes.len() + j]
                .get_or_insert_with(|| scenario.net.as_metrics_idx(a_nodes[i], b_nodes[j]));
            let Some((mid, l2)) = mid else {
                continue;
            };
            let (h1, h2) = (pop.host(a.relay), pop.host(b.relay));
            let mid_full = mid + 2.0 * h1.access_ms + 2.0 * h2.access_ms;
            let rtt = a.value + mid_full + b.value + 2.0 * RELAY_DELAY_RTT_MS;
            let loss = 1.0 - (1.0 - a.loss) * (1.0 - l2) * (1.0 - b.loss);
            // Two-hop paths are extra candidates for the shortest RTT;
            // they do not add to the quality-path count (Figs. 11/12
            // compare protocols, not the oracle).
            let better = match &out.best {
                Some(best) => rtt < best.rtt_ms,
                None => true,
            };
            if better {
                out.best = Some(RelayPath {
                    relays: vec![a.relay, b.relay],
                    rtt_ms: rtt,
                    loss,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, bits};
    use asap_cluster::Asn;
    use asap_workload::ScenarioConfig;

    #[test]
    fn opt_beats_or_matches_every_probing_method() {
        let s = Scenario::build(ScenarioConfig::tiny(), 5);
        let sess = Session {
            caller: HostId(0),
            callee: HostId(123),
        };
        let req = QualityRequirement::default();
        let opt = Opt::new().select(&s, sess, &req);
        let rand = crate::RandSel::new(50, 1).select(&s, sess, &req);
        let dedi = crate::Dedi::new(&s, 20).select(&s, sess, &req);
        let o = opt.best.as_ref().unwrap().rtt_ms;
        if let Some(r) = rand.best {
            assert!(o <= r.rtt_ms + 1e-9);
        }
        if let Some(d) = dedi.best {
            assert!(o <= d.rtt_ms + 1e-9);
        }
    }

    #[test]
    fn opt_one_hop_matches_scenario_arithmetic() {
        let s = Scenario::build(ScenarioConfig::tiny(), 5);
        let sess = Session {
            caller: HostId(0),
            callee: HostId(123),
        };
        let req = QualityRequirement::default();
        let opt = Opt::new().with_two_hop_candidates(0).select(&s, sess, &req);
        let best = opt.best.unwrap();
        assert_eq!(best.relays.len(), 1);
        let direct_eval = s
            .one_hop_rtt_ms(sess.caller, best.relays[0], sess.callee)
            .unwrap();
        assert!(
            (best.rtt_ms - direct_eval).abs() < 1e-9,
            "{} vs {direct_eval}",
            best.rtt_ms
        );
    }

    #[test]
    fn two_hop_never_hurts() {
        let s = Scenario::build(ScenarioConfig::tiny(), 5);
        let sess = Session {
            caller: HostId(7),
            callee: HostId(200),
        };
        let req = QualityRequirement::default();
        let one = Opt::new().with_two_hop_candidates(0).select(&s, sess, &req);
        let two = Opt::new()
            .with_two_hop_candidates(16)
            .select(&s, sess, &req);
        assert!(two.best.unwrap().rtt_ms <= one.best.unwrap().rtt_ms + 1e-9);
    }

    #[test]
    fn opt_spends_no_messages() {
        let s = Scenario::build(ScenarioConfig::tiny(), 5);
        let sess = Session {
            caller: HostId(0),
            callee: HostId(10),
        };
        let opt = Opt::new();
        let (_, spent) =
            crate::selector::select_metered(&opt, &s, sess, &QualityRequirement::default());
        assert_eq!(spent, 0);
    }

    /// OPT against its host-order reference, bit for bit, on tiny scale
    /// and on a 5,000-host world (tiny has few host ASes, so its AS
    /// groups are small), at two-hop bounds 0, 1, 4, 32 and 64: random
    /// sessions, sessions inside one AS, then a session a two-hop path
    /// wins once the transit ASes of its direct route are congested.
    /// OPT asks each route query once per select: two legs per AS
    /// holding a relay, and one middle leg per distinct AS pair the
    /// pairing visits (intra-AS legs are no queries).
    #[test]
    fn dense_scan_matches_the_hash_map_reference() {
        let req = QualityRequirement::default();
        let check = |world: &Scenario, session: Session, what: &str| {
            let mut two_hop_wins = 0;
            for candidates in [0, 1, 4, 32, 64] {
                let opt = Opt::new().with_two_hop_candidates(candidates);
                let (reference, queries) = reference::opt_select(candidates, world, session, &req);
                let before = world.net.route_cache_stats();
                let fast = opt.select(world, session, &req);
                let after = world.net.route_cache_stats();
                let what = format!("{what}, {candidates} candidates");
                assert_eq!(bits(&fast), bits(&reference), "{what}");
                let asked = (after.0 - before.0) + (after.1 - before.1);
                assert_eq!(asked, queries, "route queries of {what}");
                two_hop_wins += usize::from(fast.best.is_some_and(|b| b.relays.len() == 2));
            }
            two_hop_wins
        };
        let mut wide = ScenarioConfig::tiny();
        wide.population.target_hosts = 5_000;
        for (name, config, seed) in [("tiny", ScenarioConfig::tiny(), 5), ("5k", wide, 6)] {
            let mut world = Scenario::build(config, seed);
            let pop = &world.population;
            let hosts = pop.hosts().len() as u32;
            let mut sessions: Vec<Session> = (0..40u32)
                .map(|i| Session {
                    caller: HostId((i * 37) % hosts),
                    callee: HostId((i * 101 + 7) % hosts),
                })
                .collect();
            // Caller and callee in one AS: that group loses two relays.
            let shared = pop.as_groups().filter(|g| g.hosts.len() > 2).take(3);
            sessions.extend(shared.map(|g| Session {
                caller: g.hosts[0],
                callee: g.hosts[g.hosts.len() - 1],
            }));
            for (i, &session) in sessions.iter().enumerate() {
                check(&world, session, &format!("{name} session {i}"));
            }
            let session = jam_a_two_hop_win(&mut world);
            let wins = check(&world, session, &format!("{name} two-hop session"));
            assert!(wins > 0, "{name}: no two-hop win");
        }
    }

    /// Congests the transit ASes of the direct route of the first
    /// session, between the first hosts of two AS groups, that OPT then
    /// answers with a two-hop path, and returns that session.
    fn jam_a_two_hop_win(world: &mut Scenario) -> Session {
        let req = QualityRequirement::default();
        let firsts: Vec<(Asn, HostId)> = world
            .population
            .as_groups()
            .map(|g| (g.asn, g.hosts[0]))
            .collect();
        for &(c, caller) in &firsts {
            for &(d, callee) in &firsts {
                let Some(path) = world.net.as_path(c, d).filter(|p| p.len() > 2) else {
                    continue;
                };
                let transit = &path[1..path.len() - 1];
                for &t in transit {
                    world.apply_as_congestion(t, 2_000.0, 0.0);
                }
                let session = Session { caller, callee };
                let best = Opt::new().select(world, session, &req).best;
                if best.is_some_and(|b| b.relays.len() == 2) {
                    return session;
                }
                for &t in transit {
                    world.clear_as_condition(t);
                }
            }
        }
        panic!("no congested direct route makes a two-hop path win");
    }

    #[test]
    fn top_k_orders_by_value_then_relay() {
        // Duplicate values, offered in host order and in reverse.
        let values = [5.0, 1.0, 3.0, 1.0, 9.0, 3.0, 2.0, 3.0, 1.0, 7.0, 3.0, 2.0];
        for cap in [1, 3, 5, 8, 12] {
            let mut heap = Vec::new();
            for (i, &v) in values.iter().enumerate() {
                reference::push_best(&mut heap, (v, HostId(i as u32)), cap);
            }
            let expected: Vec<(f64, HostId)> = heap.iter().map(|&(v, id)| (v, id)).collect();
            for order in [false, true] {
                let mut top = TopK::new(cap);
                let mut offer = |i: usize| {
                    if top.admits(values[i]) {
                        top.push(Ranked {
                            value: values[i],
                            relay: HostId(i as u32),
                            loss: 0.0,
                        });
                    }
                };
                if order {
                    (0..values.len()).rev().for_each(&mut offer);
                } else {
                    (0..values.len()).for_each(&mut offer);
                }
                let got: Vec<(f64, HostId)> =
                    top.items.iter().map(|r| (r.value, r.relay)).collect();
                assert_eq!(got, expected, "cap {cap}, reversed {order}");
            }
        }
    }
}
