//! End-to-end fidelity of the bootstrap pipeline: synthetic Internet →
//! BGP RIB → Gao inference → (inferred annotated graph) → valley-free
//! close-set search. The paper's bootstraps never see ground truth; they
//! infer the annotated graph from BGP dumps. This test checks that the
//! inferred graph supports the protocol as well as the true one.

use asap_cluster::{Asn, Ip, Prefix};
use asap_topology::gao::{accuracy, infer, GaoConfig};
use asap_topology::rib::{collect_rib, extract_prefix_table, RibConfig};
use asap_topology::valley::{bounded_search, Expand};
use asap_topology::AsGraph;
use asap_workload::{Scenario, ScenarioConfig};

#[test]
fn inferred_graph_supports_the_same_close_set_search() {
    let scenario = Scenario::build(ScenarioConfig::tiny(), 55);
    let truth = &scenario.internet.graph;

    // Bootstrap's view: a full-table RIB — every AS originates at least
    // one prefix (as on the real Internet), seen from 60 vantage points.
    // The population's host prefixes alone would cover too few links for
    // inference, just as a single-collector BGP view would.
    let mut announcements = scenario.population.announcements().to_vec();
    for (i, &asn) in truth.asns().iter().enumerate() {
        let base = Ip((192u32 << 24) | ((i as u32) << 8));
        announcements.push((Prefix::new(base, 24), asn));
    }
    let rib = collect_rib(
        truth,
        &announcements,
        &RibConfig {
            vantage_points: 60,
            seed: 2,
        },
    );
    let paths: Vec<Vec<Asn>> = rib.iter().map(|e| e.as_path.clone()).collect();
    let inferred = infer(&paths, &GaoConfig::default()).graph;

    // Inference quality on the overlapping edges. The flat topology is
    // adversarial for Gao's phase 3 (many links sit adjacent to path
    // tops, inviting peering over-inference — her paper reports the same
    // weakness), so the bar here is lower than the per-crate unit test's.
    let acc = accuracy(&inferred, truth);
    assert!(acc.ratio() > 0.7, "inference accuracy {:.2}", acc.ratio());

    // Valley-free k-hop reach from host ASes: inferred vs truth. The
    // inferred graph only contains observed adjacencies, so its ball is a
    // subset; it must still recover the bulk of the true reach.
    let host_asns: Vec<Asn> = scenario
        .population
        .clustering()
        .clusters()
        .iter()
        .map(|c| c.asn())
        .take(8)
        .collect();
    let mut recovered = 0usize;
    let mut total = 0usize;
    for &origin in &host_asns {
        let reach = |g: &AsGraph| -> std::collections::HashSet<Asn> {
            bounded_search(g, origin, 4, |_| Expand::Continue)
                .into_iter()
                .map(|r| r.asn)
                .collect()
        };
        let true_ball = reach(truth);
        if !inferred.contains(origin) {
            continue;
        }
        let inferred_ball = reach(&inferred);
        total += true_ball.len();
        recovered += true_ball.intersection(&inferred_ball).count();
    }
    assert!(total > 0);
    let frac = recovered as f64 / total as f64;
    assert!(
        frac > 0.6,
        "inferred graph recovers only {frac:.2} of the k=4 reach"
    );
}

#[test]
fn prefix_table_from_rib_matches_population_truth() {
    let scenario = Scenario::build(ScenarioConfig::tiny(), 56);
    let rib = collect_rib(
        &scenario.internet.graph,
        scenario.population.announcements(),
        &RibConfig {
            vantage_points: 40,
            seed: 3,
        },
    );
    let table = extract_prefix_table(&rib);
    // Every host whose prefix was observed maps to its true AS.
    let mut observed = 0usize;
    for host in scenario.population.hosts().iter().take(300) {
        if let Some(asn) = table.origin_as(host.ip) {
            observed += 1;
            assert_eq!(asn, host.asn, "wrong origin for {}", host.ip);
        }
    }
    assert!(
        observed > 200,
        "RIB observed too few host prefixes: {observed}"
    );
}
