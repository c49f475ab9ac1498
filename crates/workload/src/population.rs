//! Synthetic peer populations.

use asap_cluster::{Asn, ClusterId, Clustering, Ip, Prefix, PrefixTable};
use asap_rng::{SliceRandom, StdRng};
use asap_topology::SyntheticInternet;
use std::ops::RangeInclusive;
use std::sync::OnceLock;

/// Dense identifier of a host within one [`Population`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct HostId(pub u32);

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "H{}", self.0)
    }
}

/// Nodal information a peer publishes to its cluster surrogate (paper
/// §6.1: "nodal information includes bandwidth, continuous online time,
/// node processing power, and other related information").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodalInfo {
    /// Uplink bandwidth in kbit/s.
    pub bandwidth_kbps: u32,
    /// Continuous online time in hours.
    pub uptime_hours: f64,
    /// Relative processing-power score in [0, 1].
    pub cpu_score: f64,
}

impl NodalInfo {
    /// A scalar capability score used to rank surrogate candidates: a
    /// powerful, stable, well-connected host scores high.
    pub fn capability(&self) -> f64 {
        let bw = (self.bandwidth_kbps as f64 / 10_000.0).min(1.0);
        let up = (self.uptime_hours / 168.0).min(1.0);
        0.4 * bw + 0.4 * up + 0.2 * self.cpu_score
    }
}

/// One VoIP peer.
///
/// The record is 48 bytes: `as_node` sits in what would otherwise be
/// padding after the three 4-byte identifiers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Host {
    /// Dense identifier within the population.
    pub id: HostId,
    /// The host's IP address.
    pub ip: Ip,
    /// The AS the host's prefix is originated by.
    pub asn: Asn,
    /// The node index of `asn` in the AS graph the population was
    /// generated on (`AsGraph::index_of(asn)`), set once per AS by
    /// [`Population::generate`], so host-level route queries
    /// (`Scenario::host_metrics`) hash no AS number.
    pub as_node: u32,
    /// One-way access-link delay in milliseconds.
    pub access_ms: f64,
    /// Published nodal information.
    pub nodal: NodalInfo,
}

/// Maximum number of prefixes (clusters) a single AS originates.
pub const MAX_PREFIXES_PER_AS: usize = 3;

/// Range of per-host access-link one-way delays in milliseconds, drawn
/// heavy-tailed (most hosts broadband near the low end; the 2005
/// Gnutella population skews broadband). The only access-delay model:
/// every host's delay is drawn from it by [`Population::generate`].
pub const ACCESS_MS: RangeInclusive<f64> = 0.5..=15.0;

/// Parameters of population synthesis: its size and seed. The rest of
/// its shape is the constants of this module.
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// Approximate number of peers to generate.
    pub target_hosts: usize,
    /// RNG seed for cluster sizes, IPs, access delays and nodal info.
    pub seed: u64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            target_hosts: 20_000,
            seed: 0,
        }
    }
}

impl PopulationConfig {
    /// A small population for fast tests.
    pub fn tiny() -> Self {
        PopulationConfig {
            target_hosts: 300,
            ..Default::default()
        }
    }
}

/// A synthesized peer population over a synthetic Internet.
///
/// Invariants: every host's IP falls in exactly one announced prefix; the
/// prefix's origin AS is the host's AS; cluster sizes are heavy-tailed
/// (90% ≤ 100 hosts).
///
/// The population is clustered as it is drawn: cluster `k` is the `k`-th
/// announced /22, its members are its hosts, contiguous in id order, and
/// its delegate is the first of them. That is exactly what longest-prefix
/// matching the hosts' IPs against [`Population::prefix_table`] assigns
/// (the /22s are disjoint and each holds at least one host), so no IP is
/// matched or hashed to build it.
///
/// Stored: the hosts, each host's cluster (by host id), each cluster's
/// run of host ids, the announcements and the [`Clustering`]. Derived on
/// first use: the prefix table and the AS groups. [`Population::host_by_ip`]
/// searches the ascending /22 bases, then the cluster's ascending IPs.
#[derive(Debug, Clone)]
pub struct Population {
    hosts: Vec<Host>,
    /// Each host's cluster, by host id.
    cluster_of: Vec<ClusterId>,
    /// Every host id, cluster by cluster (so in id order), so that
    /// [`Population::cluster_members`] lends a slice.
    members: Vec<HostId>,
    /// Where each cluster's run in `members` starts, then the end.
    cluster_starts: Vec<u32>,
    announcements: Vec<(Prefix, Asn)>,
    /// Derived from `announcements` on first use.
    prefix_table: OnceLock<PrefixTable>,
    clustering: Clustering,
    /// Derived from `hosts` on first use.
    as_groups: OnceLock<AsGroups>,
}

/// The hosts grouped by AS, as [`Population::as_groups`] lists them, in
/// one flat list rather than a `Vec` per AS.
#[derive(Debug, Clone)]
struct AsGroups {
    /// Each group's AS, its AS graph node index and the end of its run
    /// in `hosts`.
    ends: Vec<(Asn, u32, usize)>,
    /// Every host id, group by group.
    hosts: Vec<HostId>,
    /// The access delay of each host of `hosts`, at the same position.
    access_ms: Vec<f64>,
}

/// One AS's hosts, as [`Population::as_groups`] lists them.
#[derive(Debug, Clone, Copy)]
pub struct AsGroup<'a> {
    /// The AS.
    pub asn: Asn,
    /// Its node index in the AS graph (every host's [`Host::as_node`]).
    pub node: u32,
    /// Its hosts, ordered by `(access_ms, id)`.
    pub hosts: &'a [HostId],
    /// The access delay of each host of `hosts`, at the same position:
    /// a contiguous, non-decreasing slice, so a scan or a binary search
    /// over the group's delays reads no [`Host`] record.
    pub access_ms: &'a [f64],
}

impl Population {
    /// Synthesizes a population on the stub ASes of `internet`.
    ///
    /// Host access delays are drawn from the population's RNG, seeded
    /// with `config.seed`, over [`ACCESS_MS`] (heavy-tailed: mostly
    /// broadband, occasional modem-like stragglers).
    ///
    /// # Panics
    ///
    /// Panics if the Internet has no stub ASes.
    pub fn generate(internet: &SyntheticInternet, config: &PopulationConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut stubs = internet.stub_asns();
        assert!(!stubs.is_empty(), "internet has no stub ASes to host peers");
        stubs.shuffle(&mut rng);

        let mut hosts = Vec::new();
        let mut cluster_of = Vec::new();
        let mut cluster_starts = vec![0];
        let mut announcements = Vec::new();
        let mut clusters = Vec::new();
        let mut prefix_counter = 0u32;
        let mut stub_iter = stubs.iter().cycle();

        while hosts.len() < config.target_hosts {
            let &asn = stub_iter.next().expect("cycle never ends");
            let as_node = internet
                .graph
                .index_of(asn)
                .expect("stub AS is in the AS graph");
            let prefixes = rng.gen_range(1..=MAX_PREFIXES_PER_AS);
            for _ in 0..prefixes {
                if hosts.len() >= config.target_hosts {
                    break;
                }
                // Heavy-tailed cluster size: Pareto with α ≈ 0.6 capped at
                // 1,000 — median ~3 hosts, ~94% of clusters ≤ 100 hosts,
                // a few ~1,000-host clusters, matching the paper's §6.3
                // statistics (103,625 IPs over 7,171 prefixes).
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let size = (u.powf(-1.0 / 0.6).ceil() as usize).min(1_000);
                let size = size.min(config.target_hosts - hosts.len()).max(1);
                // A /22 holds up to 1022 hosts; allocate from a private
                // counter so prefixes never collide.
                let base = Ip((10 << 24) | (prefix_counter << 10));
                prefix_counter += 1;
                let prefix = Prefix::new(base, 22);
                let cluster = ClusterId(announcements.len() as u32);
                announcements.push((prefix, asn));
                let mut ips = Vec::with_capacity(size);
                for i in 0..size {
                    let id = HostId(hosts.len() as u32);
                    let ip = prefix.nth(1 + i as u64);
                    ips.push(ip);
                    let access_u: f64 = rng.gen();
                    let nodal = NodalInfo {
                        bandwidth_kbps: *[256u32, 768, 1_500, 3_000, 10_000, 100_000]
                            .choose(&mut rng)
                            .unwrap(),
                        uptime_hours: rng.gen_range(0.0..400.0f64),
                        cpu_score: rng.gen_range(0.0..1.0),
                    };
                    let (alo, ahi) = ACCESS_MS.into_inner();
                    hosts.push(Host {
                        id,
                        ip,
                        asn,
                        as_node,
                        access_ms: alo + access_u.powi(4) * (ahi - alo),
                        nodal,
                    });
                }
                cluster_of.resize(hosts.len(), cluster);
                cluster_starts.push(hosts.len() as u32);
                clusters.push((prefix, asn, ips));
            }
        }

        Population {
            members: hosts.iter().map(|h| h.id).collect(),
            hosts,
            cluster_of,
            cluster_starts,
            announcements,
            prefix_table: OnceLock::new(),
            clustering: Clustering::from_clusters(clusters),
            as_groups: OnceLock::new(),
        }
    }

    /// All hosts, indexable by `HostId.0`.
    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    /// The host with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn host(&self, id: HostId) -> &Host {
        &self.hosts[id.0 as usize]
    }

    /// The hosts grouped by AS: one [`AsGroup`] per AS that holds a
    /// host, in order of each AS's first host, and each group's hosts
    /// ordered by `(access_ms, id)`, with their access delays beside
    /// them. An AS's hosts need not be contiguous in
    /// [`Population::hosts`]. Derived on first use.
    pub fn as_groups(&self) -> impl Iterator<Item = AsGroup<'_>> {
        let AsGroups {
            ends,
            hosts,
            access_ms,
        } = self.as_groups.get_or_init(|| {
            // Each AS's group, by AS graph node index.
            let nodes = self.hosts.iter().map(|h| h.as_node as usize + 1).max();
            let mut slot = vec![usize::MAX; nodes.unwrap_or(0)];
            let mut ends: Vec<(Asn, u32, usize)> = Vec::new();
            let group: Vec<usize> = (self.hosts.iter())
                .map(|h| {
                    let g = &mut slot[h.as_node as usize];
                    if *g == usize::MAX {
                        *g = ends.len();
                        ends.push((h.asn, h.as_node, 0));
                    }
                    *g
                })
                .collect();
            for &g in &group {
                ends[g].2 += 1;
            }
            let mut end = 0;
            for (.., e) in &mut ends {
                end += *e;
                *e = end;
            }
            let mut hosts: Vec<HostId> = self.hosts.iter().map(|h| h.id).collect();
            hosts.sort_by(|&a, &b| {
                let key = |id: HostId| (group[id.0 as usize], self.host(id).access_ms);
                let ((ga, aa), (gb, ab)) = (key(a), key(b));
                ga.cmp(&gb).then(aa.total_cmp(&ab)).then(a.cmp(&b))
            });
            let access_ms = hosts.iter().map(|&id| self.host(id).access_ms).collect();
            AsGroups {
                ends,
                hosts,
                access_ms,
            }
        });
        let starts = std::iter::once(0).chain(ends.iter().map(|&(.., end)| end));
        (ends.iter().zip(starts)).map(|(&(asn, node, end), start)| AsGroup {
            asn,
            node,
            hosts: &hosts[start..end],
            access_ms: &access_ms[start..end],
        })
    }

    /// The host owning `ip`, if any: a binary search over the ascending
    /// /22 bases of the announcements for the cluster, then one over its
    /// members' ascending IPs.
    pub fn host_by_ip(&self, ip: Ip) -> Option<&Host> {
        let k = (self.announcements)
            .partition_point(|(prefix, _)| prefix.base() <= ip)
            .checked_sub(1)?;
        let members = self.cluster_members(ClusterId(k as u32));
        let i = (members.binary_search_by_key(&ip, |&id| self.host(id).ip)).ok()?;
        Some(self.host(members[i]))
    }

    /// The `(prefix, origin AS)` announcements backing this population
    /// (input to RIB synthesis).
    pub fn announcements(&self) -> &[(Prefix, Asn)] {
        &self.announcements
    }

    /// The prefix → origin-AS table of the announcements. Derived on
    /// first use.
    pub fn prefix_table(&self) -> &PrefixTable {
        (self.prefix_table).get_or_init(|| self.announcements.iter().copied().collect())
    }

    /// The prefix-level clustering of the population, as drawn.
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// The cluster a host belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn cluster_of(&self, id: HostId) -> ClusterId {
        self.cluster_of[id.0 as usize]
    }

    /// All member hosts of a cluster, in id order (the order of the
    /// cluster's IPs in [`Population::clustering`]).
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn cluster_members(&self, cluster: ClusterId) -> &[HostId] {
        let k = cluster.0 as usize;
        let (start, end) = (self.cluster_starts[k], self.cluster_starts[k + 1]);
        &self.members[start as usize..end as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_topology::{InternetConfig, InternetGenerator};

    fn population() -> (SyntheticInternet, Population) {
        let net = InternetGenerator::new(InternetConfig::tiny(), 1).generate();
        let pop = Population::generate(
            &net,
            &PopulationConfig {
                target_hosts: 800,
                ..Default::default()
            },
        );
        (net, pop)
    }

    #[test]
    fn hosts_reach_target() {
        let (_, pop) = population();
        assert_eq!(pop.hosts().len(), 800);
    }

    #[test]
    fn every_host_matches_its_announced_prefix_and_as() {
        let (_, pop) = population();
        for h in pop.hosts() {
            let (prefix, origin) = pop
                .prefix_table()
                .matched_prefix(h.ip)
                .expect("host IP mapped");
            assert!(prefix.contains(h.ip));
            assert_eq!(origin, h.asn, "host {} AS mismatch", h.ip);
        }
    }

    #[test]
    fn every_host_carries_its_as_node_index() {
        let (net, pop) = population();
        for h in pop.hosts() {
            assert_eq!(Some(h.as_node), net.graph.index_of(h.asn), "{}", h.id);
        }
        // The index fits the record's padding.
        assert_eq!(std::mem::size_of::<Host>(), 48);
    }

    #[test]
    fn hosts_live_on_stub_ases() {
        let (net, pop) = population();
        let stubs: std::collections::HashSet<Asn> = net.stub_asns().into_iter().collect();
        assert!(pop.hosts().iter().all(|h| stubs.contains(&h.asn)));
    }

    #[test]
    fn cluster_sizes_are_heavy_tailed() {
        let net = InternetGenerator::new(InternetConfig::default(), 2).generate();
        let pop = Population::generate(
            &net,
            &PopulationConfig {
                target_hosts: 20_000,
                seed: 3,
            },
        );
        let sizes = pop.clustering().size_distribution();
        let small = sizes.iter().filter(|&&s| s <= 100).count();
        let frac = small as f64 / sizes.len() as f64;
        assert!(frac >= 0.85, "only {frac:.2} of clusters ≤ 100 hosts");
        assert!(*sizes.last().unwrap() > 100, "no large cluster at all");
    }

    #[test]
    fn clustering_covers_all_hosts() {
        let (_, pop) = population();
        assert_eq!(pop.clustering().peer_count(), pop.hosts().len());
        for h in pop.hosts() {
            let c = pop.cluster_of(h.id);
            assert!(pop.cluster_members(c).contains(&h.id));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let net = InternetGenerator::new(InternetConfig::tiny(), 1).generate();
        let cfg = PopulationConfig {
            target_hosts: 200,
            seed: 9,
        };
        let a = Population::generate(&net, &cfg);
        let b = Population::generate(&net, &cfg);
        assert_eq!(a.hosts(), b.hosts());
    }

    #[test]
    fn access_delays_are_heavy_tailed() {
        let (_, pop) = population();
        let samples: Vec<f64> = pop.hosts().iter().map(|h| h.access_ms).collect();
        let (lo, hi) = ACCESS_MS.into_inner();
        assert!(samples.iter().all(|&s| s >= lo && s <= hi));
        let median = {
            let mut s = samples.clone();
            s.sort_by(f64::total_cmp);
            s[s.len() / 2]
        };
        let max = samples.iter().copied().fold(f64::MIN, f64::max);
        assert!(
            median < (lo + hi) / 4.0,
            "median {median} should hug the low end"
        );
        assert!(max > hi * 0.7, "tail should reach near {hi}, got {max}");
    }

    #[test]
    fn capability_rewards_power_and_stability() {
        let strong = NodalInfo {
            bandwidth_kbps: 100_000,
            uptime_hours: 300.0,
            cpu_score: 0.9,
        };
        let weak = NodalInfo {
            bandwidth_kbps: 256,
            uptime_hours: 0.5,
            cpu_score: 0.1,
        };
        assert!(strong.capability() > weak.capability());
    }

    #[test]
    fn as_groups_cover_every_host_once_sorted_by_access() {
        let net = InternetGenerator::new(InternetConfig::tiny(), 1).generate();
        // Enough hosts that the draw wraps around the stub ASes.
        let pop = Population::generate(
            &net,
            &PopulationConfig {
                target_hosts: 20_000,
                ..Default::default()
            },
        );
        let mut seen = vec![0u32; pop.hosts().len()];
        let mut ases = std::collections::HashSet::new();
        for group in pop.as_groups() {
            let asn = group.asn;
            assert!(ases.insert(asn), "{asn} has two groups");
            assert!(!group.hosts.is_empty());
            assert_eq!(group.node, net.graph.index_of(asn).unwrap());
            assert_eq!(group.access_ms.len(), group.hosts.len());
            for (&id, &access) in group.hosts.iter().zip(group.access_ms) {
                assert_eq!(pop.host(id).asn, asn);
                assert_eq!(access.to_bits(), pop.host(id).access_ms.to_bits());
                seen[id.0 as usize] += 1;
            }
            let key = |id: HostId| (pop.host(id).access_ms, id);
            assert!(group.hosts.windows(2).all(|w| key(w[0]) < key(w[1])));
        }
        assert!(seen.iter().all(|&n| n == 1));
        // The draw cycles through the stub ASes, so some AS's hosts are
        // not contiguous: the grouping must not assume they are.
        let runs = pop
            .hosts()
            .windows(2)
            .filter(|w| w[0].asn != w[1].asn)
            .count()
            + 1;
        assert!(runs > ases.len(), "{runs} runs over {} ASes", ases.len());
    }

    #[test]
    fn host_by_ip_roundtrips() {
        let (_, pop) = population();
        let h = &pop.hosts()[17];
        assert_eq!(pop.host_by_ip(h.ip).unwrap().id, h.id);
    }
}
