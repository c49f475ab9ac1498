//! The population's clustering, as drawn, against the paper's
//! longest-prefix match (§5, Fig. 1) over the same IPs.
//!
//! `Population::generate` clusters hosts as it places them: cluster `k`
//! is the `k`-th announced /22, its members are its contiguous hosts and
//! its delegate the first. `Clustering::from_ips` over the hosts' IPs and
//! the population's prefix table is the plain reference it must equal,
//! field by field, together with every host's `cluster_of`, every
//! cluster's `cluster_members` and the IP lookups. The tiny populations
//! run in the default suite; the default, eval and scalability ones are
//! ignored, for release builds:
//! `cargo test --release -p asap-workload -- --ignored`.

use std::collections::HashMap;

use asap_cluster::{ClusterId, ClusterLevel, Clustering, Ip};
use asap_topology::{InternetConfig, InternetGenerator};
use asap_workload::{HostId, Population, PopulationConfig, Scenario, ScenarioConfig};

/// Checks `pop`'s clustering and cluster lookups against LPM.
fn assert_matches_lpm(pop: &Population) {
    let ips: Vec<Ip> = pop.hosts().iter().map(|h| h.ip).collect();
    let lpm = Clustering::from_ips(&ips, pop.prefix_table(), ClusterLevel::Prefix);
    let drawn = pop.clustering();
    assert!(lpm.unmatched().is_empty(), "a host IP matched no prefix");
    assert!(drawn.unmatched().is_empty());
    assert_eq!(drawn.level(), lpm.level());
    assert_eq!(drawn.cluster_count(), lpm.cluster_count());
    assert_eq!(drawn.peer_count(), lpm.peer_count());
    assert_eq!(drawn.peer_count(), pop.hosts().len());
    for (d, l) in drawn.clusters().iter().zip(lpm.clusters()) {
        assert_eq!(d.id(), l.id());
        assert_eq!(d.prefix(), l.prefix(), "{}", l.id());
        assert_eq!(d.asn(), l.asn(), "{}", l.id());
        assert_eq!(d.members(), l.members(), "{}", l.id());
        assert_eq!(d.delegate(), l.delegate(), "{}", l.id());
    }

    // The plain IP → host map, built here so the lookups under test are
    // checked against something they do not use.
    let host_of: HashMap<Ip, HostId> = pop.hosts().iter().map(|h| (h.ip, h.id)).collect();
    for h in pop.hosts() {
        let want = lpm.cluster_of(h.ip);
        assert_eq!(Some(pop.cluster_of(h.id)), want, "{}", h.id);
        assert_eq!(drawn.cluster_of(h.ip), want, "{}", h.id);
        assert_eq!(pop.host_by_ip(h.ip).map(|x| x.id), Some(h.id));
    }
    for c in lpm.clusters() {
        let want: Vec<HostId> = c.members().iter().map(|ip| host_of[ip]).collect();
        assert_eq!(pop.cluster_members(c.id()), want, "{}", c.id());
        let prefix = c.prefix();
        // Addresses of the /22 that hold no host: its base, the one
        // after its last member and its last.
        let last = Ip(prefix.base().0 + prefix.size() as u32 - 1);
        for ip in [prefix.base(), prefix.nth(1 + c.len() as u64), last] {
            assert!(!host_of.contains_key(&ip));
            assert_eq!(pop.host_by_ip(ip).map(|h| h.id), None, "{ip}");
            assert_eq!(drawn.cluster_of(ip), None, "{ip}");
        }
    }
    for ip in [Ip(0), Ip(u32::MAX)] {
        assert_eq!(pop.host_by_ip(ip).map(|h| h.id), None, "{ip}");
    }
    let ends = (0..drawn.cluster_count()).map(|k| pop.cluster_members(ClusterId(k as u32)).len());
    assert_eq!(ends.sum::<usize>(), pop.hosts().len());
}

#[test]
fn tiny_populations_cluster_as_lpm_does() {
    let net = InternetGenerator::new(InternetConfig::tiny(), 1).generate();
    for seed in 0..16 {
        let config = PopulationConfig {
            seed,
            ..PopulationConfig::tiny()
        };
        assert_matches_lpm(&Population::generate(&net, &config));
    }
}

#[test]
#[ignore = "default scale; run in release with --ignored"]
fn default_population_clusters_as_lpm_does() {
    for seed in [1, 11] {
        let config = ScenarioConfig::default();
        assert_matches_lpm(&Scenario::build(config, seed).population);
    }
}

#[test]
#[ignore = "eval scale; run in release with --ignored"]
fn eval_population_clusters_as_lpm_does() {
    for seed in [1, 5, 11] {
        let config = ScenarioConfig::eval_scale();
        assert_matches_lpm(&Scenario::build(config, seed).population);
    }
}

#[test]
#[ignore = "scalability scale; run in release with --ignored"]
fn scalability_population_clusters_as_lpm_does() {
    let config = ScenarioConfig::scalability_scale();
    assert_matches_lpm(&Scenario::build(config, 1).population);
}
