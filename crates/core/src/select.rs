//! `select-close-relay()` — paper Fig. 10.
//!
//! When the direct route between caller `h1` and callee `h2` violates the
//! latency threshold, the caller obtains `h2`'s close cluster set (2
//! messages) and intersects it with its own:
//!
//! * **one-hop**: every cluster `r` in the intersection with
//!   `relaylat(h1–r–h2) < latT` contributes *all of its member IPs* as
//!   usable relays (set `OS`);
//! * **two-hop**: if `|OS| < sizeT`, the caller queries each one-hop
//!   cluster surrogate `r1` for *its* close cluster set (2 messages each)
//!   and adds pairs `r1–r2` with `r2` in the callee's set and
//!   `relaylat(h1–r1–r2–h2) < latT` (set `TS`).
//!
//! `relaylat()` sums the measured leg RTTs plus 40 ms round-trip
//! forwarding delay per intermediary.
//!
//! **Fetch contract.** The caller supplies `fetch_close_set`, which may
//! return the set by value or any handle that borrows as one
//! (`S: Borrow<CloseClusterSet>`, e.g. the runtime's cached
//! `Arc<CloseClusterSet>`), so no set is copied. During two-hop
//! expansion it is called exactly once per caller-side entry, in entry
//! order, and each call is charged 2 messages, whether or not the
//! fetched set contributes a pair: the fetch is what builds sets, meters
//! cache hits and feeds the Fig. 18 ledger.
//!
//! **Exact pruning.** Write `e1`, `e12` and `e2` for the RTTs of the
//! legs `h1–r1`, `r1–r2` and `r2–h2`. A pair's estimate is computed as
//! `((e1 + e12) + e2) + 80`. Set RTTs are finite and non-negative, and
//! f64 rounding is monotone, so the estimate is never below
//! `(e1 + e2) + 80`, `e1 + 80` or `e2 + 80`. Hence:
//!
//! * the scan through `r1` is skipped when `e1 + 80 ≥ latT` (`r1`'s set
//!   is still fetched, per the contract above);
//! * once per expansion, the callee entries with `e2 + 80 < latT` (the
//!   *closers*) are listed by position and stably sorted by RTT;
//! * for each `r1`, the closers are walked while `(e1 + e2) + 80 <
//!   latT`; since `e2` only grows along the list, no later closer could
//!   qualify either. Each closer's cluster is looked up in `r1`'s set
//!   through its position index, so a visited closer costs no hash and
//!   the walk is sized by the pairs that can still close, not by
//!   `|S1|·|S(r1)|`.
//!
//! **Order.** The plain algorithm scans `r1`'s set and pushes the pairs
//! through `r1` in `r1`'s entry order; the final stable sort by
//! estimate keeps that order among ties. The closer walk finds the same
//! pairs in callee RTT order, so each `r1`'s pairs are re-sorted by
//! their position in `r1`'s set before the final sort. The output is
//! then bit-identical to the plain algorithm, order included.
//!
//! **Precondition.** Every set holds each cluster at most once, so that
//! the lookup in `r1`'s set finds the one entry a scan would visit.
//! Fig. 9 reports each reached AS once and skips the origin, and
//! [`CloseClusterSet::from_entries`] keeps only the first entry of a
//! duplicated cluster, so every set the library builds meets it. (The
//! callee side needs no precondition: its closers are the entries that
//! [`CloseClusterSet::get`] answers with.)

use std::borrow::Borrow;

use asap_cluster::ClusterId;
use asap_netsim::RELAY_DELAY_RTT_MS;

use crate::close_set::CloseClusterSet;
use crate::config::AsapConfig;

/// A one-hop relay cluster selected for a session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OneHopRelay {
    /// The relay cluster.
    pub cluster: ClusterId,
    /// Estimated relay-path RTT `relaylat(h1–r–h2)` in ms.
    pub est_rtt_ms: f64,
    /// Estimated relay-path loss (independent legs).
    pub est_loss: f64,
    /// Number of member IPs the cluster contributes as relay candidates.
    pub member_ips: u64,
}

/// A two-hop relay cluster pair selected for a session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoHopRelay {
    /// First relay cluster (close to the caller).
    pub first: ClusterId,
    /// Second relay cluster (close to the callee).
    pub second: ClusterId,
    /// Estimated relay-path RTT in ms.
    pub est_rtt_ms: f64,
    /// Number of member IP *pairs* contributed (|first| × |second|).
    pub member_pairs: u64,
}

/// The outcome of `select-close-relay()`.
#[derive(Debug, Clone, Default)]
pub struct CloseRelaySelection {
    /// One-hop relay clusters (`OS`), sorted by estimated RTT.
    pub one_hop: Vec<OneHopRelay>,
    /// Two-hop relay cluster pairs (`TS`), sorted by estimated RTT; empty
    /// unless the one-hop set fell short of `sizeT`.
    pub two_hop: Vec<TwoHopRelay>,
    /// Whether two-hop expansion was triggered.
    pub expanded_two_hop: bool,
    /// Protocol messages spent: 2 for the callee's close set, plus 2 per
    /// surrogate queried during two-hop expansion (§7.3).
    pub messages: u64,
}

impl CloseRelaySelection {
    /// Total quality relay paths at member-IP granularity: one-hop member
    /// IPs plus two-hop member pairs. This is the quantity Figs. 11/12
    /// plot ("90% of the sessions can find more than 10^4 quality
    /// paths").
    pub fn quality_paths(&self) -> u64 {
        let one: u64 = self.one_hop.iter().map(|r| r.member_ips).sum();
        let two: u64 = self.two_hop.iter().map(|r| r.member_pairs).sum();
        one + two
    }

    /// The best estimated relay RTT across both sets, if any.
    pub fn best_est_rtt_ms(&self) -> Option<f64> {
        let one = self.one_hop.first().map(|r| r.est_rtt_ms);
        let two = self.two_hop.first().map(|r| r.est_rtt_ms);
        match (one, two) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The selection with every candidate touching one of `dead_clusters`
    /// removed — the cached candidate set a caller falls back on when its
    /// relay dies mid-call, without re-running `select-close-relay()`.
    /// Filtering costs no messages: the candidates are already cached.
    pub fn excluding(&self, dead_clusters: &[ClusterId]) -> CloseRelaySelection {
        let keep = |c: ClusterId| !dead_clusters.contains(&c);
        CloseRelaySelection {
            one_hop: self
                .one_hop
                .iter()
                .filter(|r| keep(r.cluster))
                .cloned()
                .collect(),
            two_hop: self
                .two_hop
                .iter()
                .filter(|t| keep(t.first) && keep(t.second))
                .cloned()
                .collect(),
            expanded_two_hop: self.expanded_two_hop,
            messages: 0,
        }
    }
}

/// Runs `select-close-relay()` from the caller's and callee's close
/// cluster sets.
///
/// `cluster_size` reports the member count of a cluster (the bootstrap's
/// prefix tables know it); `fetch_close_set` obtains the close cluster
/// set of a caller-side surrogate during two-hop expansion — the runtime
/// supplies a cached lookup and the message accounting assumes one
/// request/response round trip per call (see the module docs for the
/// full contract). Each set must hold a cluster at most once (module
/// docs, "Precondition").
pub fn select_close_relay<S: Borrow<CloseClusterSet>>(
    caller_set: &CloseClusterSet,
    callee_set: &CloseClusterSet,
    config: &AsapConfig,
    cluster_size: &dyn Fn(ClusterId) -> u64,
    mut fetch_close_set: impl FnMut(ClusterId) -> S,
) -> CloseRelaySelection {
    let mut sel = CloseRelaySelection {
        messages: 2,
        ..Default::default()
    };

    // One-hop: CS = S1 ∩ S2.
    for e1 in caller_set.entries() {
        let Some(e2) = callee_set.get(e1.cluster) else {
            continue;
        };
        let est_rtt_ms = e1.rtt_ms + e2.rtt_ms + RELAY_DELAY_RTT_MS;
        if est_rtt_ms < config.lat_t_ms {
            let est_loss = 1.0 - (1.0 - e1.loss) * (1.0 - e2.loss);
            sel.one_hop.push(OneHopRelay {
                cluster: e1.cluster,
                est_rtt_ms,
                est_loss,
                member_ips: cluster_size(e1.cluster),
            });
        }
    }
    sel.one_hop
        .sort_by(|a, b| a.est_rtt_ms.total_cmp(&b.est_rtt_ms));

    // Two-hop expansion when the one-hop candidate pool is thin.
    let one_hop_ips: u64 = sel.one_hop.iter().map(|r| r.member_ips).sum();
    if (one_hop_ips as usize) < config.size_t {
        sel.expanded_two_hop = true;
        let lat_t = config.lat_t_ms;
        let relay_delays = 2.0 * RELAY_DELAY_RTT_MS;
        // The callee entries that can still close a pair, by RTT.
        let callee = callee_set.entries();
        let mut closers = Vec::with_capacity(callee.len());
        closers.extend((0..callee.len() as u32).filter(|&i| {
            let e2 = &callee[i as usize];
            callee_set.position(e2.cluster) == Some(i) && e2.rtt_ms + relay_delays < lat_t
        }));
        // Ties go by position: the stable order by RTT, without a stable
        // sort's scratch buffer.
        closers.sort_unstable_by(|&a, &b| {
            let rtt = |i: u32| callee[i as usize].rtt_ms;
            rtt(a).total_cmp(&rtt(b)).then(a.cmp(&b))
        });
        for e1 in caller_set.entries() {
            // Query r1's surrogate for its close cluster set.
            sel.messages += 2;
            let r1_set = fetch_close_set(e1.cluster);
            if e1.rtt_ms + relay_delays >= lat_t {
                continue; // no pair through r1 can qualify (module docs)
            }
            let r1_set = r1_set.borrow();
            let first = sel.two_hop.len();
            for &i2 in &closers {
                let e2 = &callee[i2 as usize];
                if e1.rtt_ms + e2.rtt_ms + relay_delays >= lat_t {
                    break; // nor can this or any later closer (module docs)
                }
                if e2.cluster == e1.cluster {
                    continue;
                }
                let Some(e12) = r1_set.get(e2.cluster) else {
                    continue;
                };
                let est_rtt_ms = e1.rtt_ms + e12.rtt_ms + e2.rtt_ms + relay_delays;
                if est_rtt_ms < lat_t {
                    sel.two_hop.push(TwoHopRelay {
                        first: e1.cluster,
                        second: e2.cluster,
                        est_rtt_ms,
                        member_pairs: cluster_size(e1.cluster) * cluster_size(e2.cluster),
                    });
                }
            }
            // r1's pairs in r1's entry order, as a scan of its set would
            // push them (module docs).
            sel.two_hop[first..].sort_unstable_by_key(|t| r1_set.position(t.second));
        }
        sel.two_hop
            .sort_by(|a, b| a.est_rtt_ms.total_cmp(&b.est_rtt_ms));
    }

    sel
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::close_set::CloseClusterEntry;

    fn entry(cluster: u32, rtt: f64) -> CloseClusterEntry {
        CloseClusterEntry {
            cluster: ClusterId(cluster),
            rtt_ms: rtt,
            loss: 0.005,
            as_hops: 1,
        }
    }

    fn set(entries: &[CloseClusterEntry]) -> CloseClusterSet {
        let mut s = CloseClusterSet::default();
        for &e in entries {
            s.push_for_tests(e);
        }
        s
    }

    fn no_two_hop() -> impl FnMut(ClusterId) -> CloseClusterSet {
        |_| CloseClusterSet::default()
    }

    #[test]
    fn one_hop_intersects_and_thresholds() {
        let caller = set(&[entry(1, 100.0), entry(2, 100.0), entry(3, 250.0)]);
        let callee = set(&[entry(2, 100.0), entry(3, 100.0), entry(4, 50.0)]);
        let cfg = AsapConfig {
            size_t: 0,
            ..Default::default()
        };
        let sel = select_close_relay(&caller, &callee, &cfg, &|_| 10, &mut no_two_hop());
        // Cluster 2: 100+100+40 = 240 < 300 ✓. Cluster 3: 250+100+40 = 390 ✗.
        assert_eq!(sel.one_hop.len(), 1);
        assert_eq!(sel.one_hop[0].cluster, ClusterId(2));
        assert_eq!(sel.quality_paths(), 10);
        assert_eq!(sel.messages, 2);
        assert!(!sel.expanded_two_hop);
    }

    #[test]
    fn two_hop_triggers_below_size_t() {
        let caller = set(&[entry(1, 50.0)]);
        let callee = set(&[entry(9, 60.0)]);
        // One-hop intersection is empty; r1 = cluster 1 knows cluster 9.
        let cfg = AsapConfig::default();
        let mut fetch = |c: ClusterId| {
            assert_eq!(c, ClusterId(1));
            set(&[entry(9, 70.0)])
        };
        let sel = select_close_relay(&caller, &callee, &cfg, &|_| 5, &mut fetch);
        assert!(sel.expanded_two_hop);
        assert_eq!(sel.two_hop.len(), 1);
        let t = &sel.two_hop[0];
        assert_eq!((t.first, t.second), (ClusterId(1), ClusterId(9)));
        // 50 + 70 + 60 + 80 = 260 < 300.
        assert!((t.est_rtt_ms - 260.0).abs() < 1e-9);
        assert_eq!(t.member_pairs, 25);
        // 2 base + 2 for the one surrogate queried.
        assert_eq!(sel.messages, 4);
    }

    #[test]
    fn two_hop_skipped_when_one_hop_is_rich() {
        let caller = set(&[entry(1, 50.0)]);
        let callee = set(&[entry(1, 50.0)]);
        let cfg = AsapConfig {
            size_t: 10,
            ..Default::default()
        };
        let sel = select_close_relay(&caller, &callee, &cfg, &|_| 1000, &mut no_two_hop());
        assert!(!sel.expanded_two_hop);
        assert_eq!(sel.messages, 2);
    }

    #[test]
    fn results_sorted_by_estimated_rtt() {
        let caller = set(&[entry(1, 120.0), entry(2, 40.0), entry(3, 80.0)]);
        let callee = set(&[entry(1, 40.0), entry(2, 40.0), entry(3, 40.0)]);
        let cfg = AsapConfig {
            size_t: 0,
            ..Default::default()
        };
        let sel = select_close_relay(&caller, &callee, &cfg, &|_| 1, &mut no_two_hop());
        let rtts: Vec<f64> = sel.one_hop.iter().map(|r| r.est_rtt_ms).collect();
        let mut sorted = rtts.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(rtts, sorted);
        assert_eq!(sel.best_est_rtt_ms(), Some(40.0 + 40.0 + 40.0));
    }

    #[test]
    fn empty_sets_yield_empty_selection() {
        let cfg = AsapConfig::default();
        let sel = select_close_relay(
            &CloseClusterSet::default(),
            &CloseClusterSet::default(),
            &cfg,
            &|_| 1,
            &mut no_two_hop(),
        );
        assert_eq!(sel.quality_paths(), 0);
        assert_eq!(sel.best_est_rtt_ms(), None);
        assert!(
            sel.expanded_two_hop,
            "empty one-hop always triggers expansion"
        );
    }
}
