//! Synthetic peer populations.

use asap_cluster::{Asn, ClusterLevel, Clustering, Ip, Prefix, PrefixTable};
use asap_rng::{SliceRandom, StdRng};
use asap_topology::SyntheticInternet;
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Host {
    /// Dense identifier within the population.
    pub id: HostId,
    /// The host's IP address.
    pub ip: Ip,
    /// The AS the host's prefix is originated by.
    pub asn: Asn,
    /// One-way access-link delay in milliseconds.
    pub access_ms: f64,
    /// Published nodal information.
    pub nodal: NodalInfo,
}

/// Parameters of population synthesis.
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// Approximate number of peers to generate.
    pub target_hosts: usize,
    /// Maximum number of prefixes (clusters) a single AS originates.
    pub max_prefixes_per_as: usize,
    /// Range of per-host access-link one-way delays in milliseconds,
    /// drawn heavy-tailed (most hosts broadband near the low end; the
    /// 2005 Gnutella population skews broadband).
    pub access_ms: (f64, f64),
    /// RNG seed for cluster sizes, IPs, and nodal info.
    pub seed: u64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            target_hosts: 20_000,
            max_prefixes_per_as: 3,
            access_ms: (0.5, 15.0),
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
#[derive(Debug, Clone)]
pub struct Population {
    hosts: Vec<Host>,
    by_ip: std::collections::HashMap<Ip, HostId>,
    announcements: Vec<(Prefix, Asn)>,
    prefix_table: PrefixTable,
    clustering: Clustering,
    /// Derived from `hosts` on first use.
    as_groups: OnceLock<AsGroups>,
}

/// The hosts grouped by AS, as [`Population::as_groups`] lists them, in
/// one flat list rather than a `Vec` per AS.
#[derive(Debug, Clone)]
struct AsGroups {
    /// Each group's AS and the end of its run in `hosts`.
    ends: Vec<(Asn, usize)>,
    /// Every host id, group by group.
    hosts: Vec<HostId>,
}

impl Population {
    /// Synthesizes a population on the stub ASes of `internet`.
    ///
    /// Host access delays are sampled from the hash stream of
    /// `config.seed` (heavy-tailed: mostly broadband, occasional
    /// modem-like stragglers), mirroring
    /// `asap_netsim::NetModel::sample_access_ms`.
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
        let mut announcements = Vec::new();
        let mut prefix_counter = 0u32;
        let mut stub_iter = stubs.iter().cycle();

        while hosts.len() < config.target_hosts {
            let &asn = stub_iter.next().expect("cycle never ends");
            let prefixes = rng.gen_range(1..=config.max_prefixes_per_as);
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
                announcements.push((prefix, asn));
                for i in 0..size {
                    let id = HostId(hosts.len() as u32);
                    let ip = prefix.nth(1 + i as u64);
                    let access_u: f64 = rng.gen();
                    let nodal = NodalInfo {
                        bandwidth_kbps: *[256u32, 768, 1_500, 3_000, 10_000, 100_000]
                            .choose(&mut rng)
                            .unwrap(),
                        uptime_hours: rng.gen_range(0.0..400.0f64),
                        cpu_score: rng.gen_range(0.0..1.0),
                    };
                    let (alo, ahi) = config.access_ms;
                    hosts.push(Host {
                        id,
                        ip,
                        asn,
                        access_ms: alo + access_u.powi(4) * (ahi - alo),
                        nodal,
                    });
                }
            }
        }

        let prefix_table: PrefixTable = announcements.iter().copied().collect();
        let ips: Vec<Ip> = hosts.iter().map(|h| h.ip).collect();
        let clustering = Clustering::from_ips(&ips, &prefix_table, ClusterLevel::Prefix);
        debug_assert_eq!(clustering.peer_count(), hosts.len());
        let by_ip = hosts.iter().map(|h| (h.ip, h.id)).collect();

        Population {
            hosts,
            by_ip,
            announcements,
            prefix_table,
            clustering,
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

    /// The hosts grouped by AS: one `(AS, hosts)` entry per AS that
    /// holds a host, in order of each AS's first host, and each group's
    /// hosts ordered by `(access_ms, id)`. An AS's hosts need not be
    /// contiguous in [`Population::hosts`]. Derived on first use.
    pub fn as_groups(&self) -> impl Iterator<Item = (Asn, &[HostId])> {
        let AsGroups { ends, hosts } = self.as_groups.get_or_init(|| {
            let mut slot: std::collections::HashMap<Asn, usize> = std::collections::HashMap::new();
            let mut ends: Vec<(Asn, usize)> = Vec::new();
            let group: Vec<usize> = (self.hosts.iter())
                .map(|h| {
                    *slot.entry(h.asn).or_insert_with(|| {
                        ends.push((h.asn, 0));
                        ends.len() - 1
                    })
                })
                .collect();
            for &g in &group {
                ends[g].1 += 1;
            }
            let mut end = 0;
            for (_, e) in &mut ends {
                end += *e;
                *e = end;
            }
            let mut hosts: Vec<HostId> = self.hosts.iter().map(|h| h.id).collect();
            hosts.sort_by(|&a, &b| {
                let key = |id: HostId| (group[id.0 as usize], self.host(id).access_ms);
                let ((ga, aa), (gb, ab)) = (key(a), key(b));
                ga.cmp(&gb).then(aa.total_cmp(&ab)).then(a.cmp(&b))
            });
            AsGroups { ends, hosts }
        });
        let starts = std::iter::once(0).chain(ends.iter().map(|&(_, end)| end));
        (ends.iter().zip(starts)).map(|(&(asn, end), start)| (asn, &hosts[start..end]))
    }

    /// The host owning `ip`, if any.
    pub fn host_by_ip(&self, ip: Ip) -> Option<&Host> {
        self.by_ip.get(&ip).map(|&id| self.host(id))
    }

    /// The `(prefix, origin AS)` announcements backing this population
    /// (input to RIB synthesis).
    pub fn announcements(&self) -> &[(Prefix, Asn)] {
        &self.announcements
    }

    /// The prefix → origin-AS table.
    pub fn prefix_table(&self) -> &PrefixTable {
        &self.prefix_table
    }

    /// The prefix-level clustering of the population.
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// The cluster a host belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn cluster_of(&self, id: HostId) -> asap_cluster::ClusterId {
        self.clustering
            .cluster_of(self.host(id).ip)
            .expect("every host is clustered")
    }

    /// All member hosts of a cluster.
    pub fn cluster_members(&self, cluster: asap_cluster::ClusterId) -> Vec<HostId> {
        self.clustering
            .cluster(cluster)
            .members()
            .iter()
            .map(|&ip| self.host_by_ip(ip).expect("member is a host").id)
            .collect()
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
                ..Default::default()
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
            ..Default::default()
        };
        let a = Population::generate(&net, &cfg);
        let b = Population::generate(&net, &cfg);
        assert_eq!(a.hosts(), b.hosts());
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
        for (asn, group) in pop.as_groups() {
            assert!(ases.insert(asn), "{asn} has two groups");
            assert!(!group.is_empty());
            for &id in group {
                assert_eq!(pop.host(id).asn, asn);
                seen[id.0 as usize] += 1;
            }
            let key = |id: HostId| (pop.host(id).access_ms, id);
            assert!(group.windows(2).all(|w| key(w[0]) < key(w[1])));
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
