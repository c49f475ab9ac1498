//! Grouping peer IPs into prefix-level or AS-level clusters.

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::asn::Asn;
use crate::ip::{Ip, Prefix};
use crate::table::PrefixTable;

/// Dense identifier of a cluster within one [`Clustering`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClusterId(pub u32);

impl std::fmt::Display for ClusterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// Granularity at which peers are grouped.
///
/// The paper groups its 269,413 Gnutella IPs both ways: 103,625 of them
/// matched 7,171 IP prefixes and belonged to 1,461 ASes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ClusterLevel {
    /// One cluster per longest-matched BGP prefix (finer; the level ASAP
    /// surrogates operate at).
    #[default]
    Prefix,
    /// One cluster per origin AS (coarser).
    As,
}

/// One cluster: the set of member peers sharing a prefix (or AS), plus the
/// delegate used for latency measurements.
#[derive(Debug, Clone)]
pub struct Cluster {
    id: ClusterId,
    prefix: Prefix,
    asn: Asn,
    members: Vec<Ip>,
    delegate: usize,
}

impl Cluster {
    /// The cluster's identifier.
    pub fn id(&self) -> ClusterId {
        self.id
    }

    /// The longest-matched prefix shared by the members. For AS-level
    /// clusterings this is the prefix of the first member seen.
    pub fn prefix(&self) -> Prefix {
        self.prefix
    }

    /// The origin AS of the cluster.
    pub fn asn(&self) -> Asn {
        self.asn
    }

    /// The member peer IPs.
    pub fn members(&self) -> &[Ip] {
        &self.members
    }

    /// Number of member peers.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the cluster has no members (never true for clusters of a
    /// [`Clustering`]).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The delegate peer chosen to represent the cluster in pairwise
    /// latency measurements.
    pub fn delegate(&self) -> Ip {
        self.members[self.delegate]
    }

    /// Re-selects the delegate by member index (used when the previous
    /// delegate goes offline).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn set_delegate_index(&mut self, index: usize) {
        assert!(
            index < self.members.len(),
            "delegate index {index} out of bounds"
        );
        self.delegate = index;
    }
}

/// The result of grouping a peer population into clusters.
///
/// Built one of two ways. [`Clustering::from_ips`] is the paper's
/// longest-prefix match (§5, Fig. 1): every input IP that matches some
/// prefix in the [`PrefixTable`] is assigned to exactly one cluster;
/// unmatched IPs are reported via [`unmatched`](Clustering::unmatched)
/// (the paper likewise only kept the 103,625 of 269,413 crawled IPs that
/// matched a BGP prefix). [`Clustering::from_clusters`] takes clusters
/// already drawn, as a synthetic population places its peers.
///
/// Stored: the clusters (members in order, delegate) and the peer count.
/// The IP → cluster map behind [`Clustering::cluster_of`] is derived
/// from the clusters on first use (`from_ips` builds it as it matches).
#[derive(Debug, Clone)]
pub struct Clustering {
    level: ClusterLevel,
    clusters: Vec<Cluster>,
    peers: usize,
    by_ip: OnceLock<HashMap<Ip, ClusterId>>,
    unmatched: Vec<Ip>,
}

impl Clustering {
    /// Groups `ips` using `table` at the requested `level`.
    ///
    /// The delegate of each cluster is its first member in input order —
    /// deterministic, so experiments are reproducible; callers wanting a
    /// randomized delegate can use [`Cluster::set_delegate_index`].
    pub fn from_ips(ips: &[Ip], table: &PrefixTable, level: ClusterLevel) -> Self {
        let mut clusters: Vec<Cluster> = Vec::new();
        let mut by_ip = HashMap::new();
        let mut unmatched = Vec::new();
        // Key is the matched prefix at Prefix level, the origin AS at As level.
        let mut key_to_cluster: HashMap<(u32, u8, u32), usize> = HashMap::new();

        for &ip in ips {
            if by_ip.contains_key(&ip) {
                continue; // duplicate input IP
            }
            let Some((prefix, asn)) = table.matched_prefix(ip) else {
                unmatched.push(ip);
                continue;
            };
            let key = match level {
                ClusterLevel::Prefix => (prefix.base().0, prefix.len(), 0),
                ClusterLevel::As => (0, 0, asn.0),
            };
            let idx = *key_to_cluster.entry(key).or_insert_with(|| {
                let id = ClusterId(clusters.len() as u32);
                clusters.push(Cluster {
                    id,
                    prefix,
                    asn,
                    members: Vec::new(),
                    delegate: 0,
                });
                clusters.len() - 1
            });
            clusters[idx].members.push(ip);
            by_ip.insert(ip, clusters[idx].id);
        }

        Clustering {
            level,
            clusters,
            peers: by_ip.len(),
            by_ip: OnceLock::from(by_ip),
            unmatched,
        }
    }

    /// Takes prefix-level clusters as given: the `k`-th `(prefix, origin
    /// AS, members)` becomes cluster `ClusterId(k)`, with its members in
    /// the order given and the first of them as delegate. No IP is
    /// unmatched. Members must be distinct across clusters; no map is
    /// built until [`Clustering::cluster_of`] is first asked.
    ///
    /// This is what [`Clustering::from_ips`] assigns at
    /// [`ClusterLevel::Prefix`] to IPs listed cluster by cluster, when the
    /// prefixes are disjoint and each cluster's members fall in its
    /// prefix.
    ///
    /// # Panics
    ///
    /// Panics if a cluster has no members.
    pub fn from_clusters(clusters: impl IntoIterator<Item = (Prefix, Asn, Vec<Ip>)>) -> Self {
        let clusters: Vec<Cluster> = (clusters.into_iter().enumerate())
            .map(|(k, (prefix, asn, members))| {
                assert!(!members.is_empty(), "cluster {k} has no members");
                Cluster {
                    id: ClusterId(k as u32),
                    prefix,
                    asn,
                    members,
                    delegate: 0,
                }
            })
            .collect();
        Clustering {
            level: ClusterLevel::Prefix,
            peers: clusters.iter().map(Cluster::len).sum(),
            clusters,
            by_ip: OnceLock::new(),
            unmatched: Vec::new(),
        }
    }

    /// The granularity this clustering was built at.
    pub fn level(&self) -> ClusterLevel {
        self.level
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Total number of clustered (matched) peers.
    pub fn peer_count(&self) -> usize {
        self.peers
    }

    /// All clusters, indexable by `ClusterId.0`.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// The cluster with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this clustering.
    pub fn cluster(&self, id: ClusterId) -> &Cluster {
        &self.clusters[id.0 as usize]
    }

    /// The cluster a peer IP belongs to, if it was matched. The first
    /// call on a clustering built by [`Clustering::from_clusters`] derives
    /// the IP → cluster map.
    pub fn cluster_of(&self, ip: Ip) -> Option<ClusterId> {
        let by_ip = self.by_ip.get_or_init(|| {
            (self.clusters.iter())
                .flat_map(|c| c.members.iter().map(move |&ip| (ip, c.id)))
                .collect()
        });
        by_ip.get(&ip).copied()
    }

    /// Input IPs that matched no prefix and were therefore dropped.
    pub fn unmatched(&self) -> &[Ip] {
        &self.unmatched
    }

    /// Iterates over the delegate IP of every cluster.
    pub fn delegates(&self) -> impl Iterator<Item = (ClusterId, Ip)> + '_ {
        self.clusters.iter().map(|c| (c.id, c.delegate()))
    }

    /// Distribution of cluster sizes, as a sorted `Vec` of member counts.
    /// Used by the §6.3 load analysis ("90% of the clusters contain no more
    /// than 100 online end hosts").
    pub fn size_distribution(&self) -> Vec<usize> {
        let mut sizes: Vec<usize> = self.clusters.iter().map(|c| c.len()).collect();
        sizes.sort_unstable();
        sizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PrefixTable {
        vec![("10.1.0.0/16", 1u32), ("10.2.0.0/16", 1), ("20.0.0.0/8", 2)]
            .into_iter()
            .map(|(p, a)| (p.parse().unwrap(), Asn(a)))
            .collect()
    }

    fn ip(s: &str) -> Ip {
        s.parse().unwrap()
    }

    #[test]
    fn prefix_level_splits_by_prefix() {
        let ips = vec![
            ip("10.1.0.1"),
            ip("10.1.0.2"),
            ip("10.2.0.1"),
            ip("20.0.0.1"),
        ];
        let c = Clustering::from_ips(&ips, &table(), ClusterLevel::Prefix);
        assert_eq!(c.cluster_count(), 3);
        assert_eq!(c.peer_count(), 4);
        assert_ne!(c.cluster_of(ip("10.1.0.1")), c.cluster_of(ip("10.2.0.1")));
    }

    #[test]
    fn as_level_merges_same_origin() {
        let ips = vec![ip("10.1.0.1"), ip("10.2.0.1"), ip("20.0.0.1")];
        let c = Clustering::from_ips(&ips, &table(), ClusterLevel::As);
        assert_eq!(c.cluster_count(), 2);
        assert_eq!(c.cluster_of(ip("10.1.0.1")), c.cluster_of(ip("10.2.0.1")));
    }

    #[test]
    fn unmatched_ips_are_reported() {
        let ips = vec![ip("10.1.0.1"), ip("99.0.0.1")];
        let c = Clustering::from_ips(&ips, &table(), ClusterLevel::Prefix);
        assert_eq!(c.peer_count(), 1);
        assert_eq!(c.unmatched(), &[ip("99.0.0.1")]);
        assert_eq!(c.cluster_of(ip("99.0.0.1")), None);
    }

    #[test]
    fn duplicates_are_ignored() {
        let ips = vec![ip("10.1.0.1"), ip("10.1.0.1")];
        let c = Clustering::from_ips(&ips, &table(), ClusterLevel::Prefix);
        assert_eq!(c.peer_count(), 1);
        assert_eq!(c.cluster(c.cluster_of(ip("10.1.0.1")).unwrap()).len(), 1);
    }

    #[test]
    fn delegate_is_first_member_and_replaceable() {
        let ips = vec![ip("10.1.0.1"), ip("10.1.0.2")];
        let mut c = Clustering::from_ips(&ips, &table(), ClusterLevel::Prefix);
        let id = c.cluster_of(ip("10.1.0.1")).unwrap();
        assert_eq!(c.cluster(id).delegate(), ip("10.1.0.1"));
        c.clusters[id.0 as usize].set_delegate_index(1);
        assert_eq!(c.cluster(id).delegate(), ip("10.1.0.2"));
    }

    #[test]
    fn given_clusters_match_lpm_of_ips_listed_cluster_by_cluster() {
        let ips = vec![
            ip("10.2.0.7"),
            ip("10.2.0.1"),
            ip("10.1.0.3"),
            ip("20.0.0.1"),
            ip("20.0.0.2"),
        ];
        let lpm = Clustering::from_ips(&ips, &table(), ClusterLevel::Prefix);
        let given = Clustering::from_clusters(
            (lpm.clusters().iter()).map(|c| (c.prefix(), c.asn(), c.members().to_vec())),
        );
        assert_eq!(given.level(), ClusterLevel::Prefix);
        assert_eq!(given.peer_count(), lpm.peer_count());
        assert!(given.unmatched().is_empty());
        for (g, l) in given.clusters().iter().zip(lpm.clusters()) {
            assert_eq!(
                (g.id(), g.prefix(), g.asn(), g.members(), g.delegate()),
                (l.id(), l.prefix(), l.asn(), l.members(), l.delegate())
            );
        }
        for &ip in &ips {
            assert_eq!(given.cluster_of(ip), lpm.cluster_of(ip));
        }
        assert_eq!(given.cluster_of(Ip(0)), None);
    }

    #[test]
    #[should_panic(expected = "cluster 0 has no members")]
    fn given_clusters_must_not_be_empty() {
        let p: Prefix = "10.1.0.0/16".parse().unwrap();
        Clustering::from_clusters([(p, Asn(1), Vec::new())]);
    }

    #[test]
    fn size_distribution_is_sorted() {
        let ips = vec![
            ip("10.1.0.1"),
            ip("10.1.0.2"),
            ip("10.1.0.3"),
            ip("20.0.0.1"),
        ];
        let c = Clustering::from_ips(&ips, &table(), ClusterLevel::Prefix);
        assert_eq!(c.size_distribution(), vec![1, 3]);
    }
}
