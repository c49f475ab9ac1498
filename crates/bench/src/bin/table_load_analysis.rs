//! §6.3 — system traffic-load analysis.
//!
//! The paper argues ASAP's load is modest: the AS graph costs ~800 KB of
//! bootstrap storage (2005-09-26 graph: 20,955 ASes / 56,907 links), 90%
//! of clusters hold ≤ 100 online hosts so surrogates cope, and a few
//! ~1,000-host clusters can elect multiple surrogates. This binary
//! measures all three on the synthetic world, plus the protocol
//! simulation's message-type breakdown.

use asap_bench::{row, section, Args, Scale};
use asap_core::events::{run, SimConfig};
use asap_core::AsapConfig;

fn main() {
    let args = Args::parse(Scale::Tiny);
    eprintln!(
        "load: building scenario ({:?}, seed {})…",
        args.scale, args.seed
    );
    let scenario = args.scenario();
    let graph = &scenario.internet.graph;

    section("Bootstrap storage: annotated AS graph");
    row(&[&"AS nodes", &graph.node_count()]);
    row(&[&"AS links", &graph.edge_count()]);
    row(&[
        &"encoded size (KB)",
        &format!("{:.1}", graph.encoded_size_bytes() as f64 / 1024.0),
    ]);
    // Paper-scale extrapolation: bytes per (node + 2.7 links) × 20,955.
    let per_as = graph.encoded_size_bytes() as f64 / graph.node_count() as f64;
    row(&[
        &"extrapolated to 20,955 ASes (KB)",
        &format!("{:.0}", per_as * 20_955.0 / 1024.0),
    ]);

    section("Cluster population (surrogate load)");
    let sizes = scenario.population.clustering().size_distribution();
    let n = sizes.len();
    let le100 = sizes.iter().filter(|&&s| s <= 100).count();
    row(&[&"clusters", &n]);
    row(&[&"hosts", &scenario.population.hosts().len()]);
    row(&[
        &"clusters ≤100 hosts",
        &le100,
        &format!("{:.1}%", 100.0 * le100 as f64 / n as f64),
    ]);
    row(&[&"largest cluster", sizes.last().unwrap_or(&0)]);
    row(&[
        &"clusters >300 hosts (multi-surrogate)",
        &sizes.iter().filter(|&&s| s > 300).count(),
    ]);

    section("Protocol simulation: message breakdown (10-minute virtual run)");
    let sim = SimConfig {
        calls: 200,
        surrogate_failures: 5,
        seed: args.seed,
        ..Default::default()
    };
    let report = run(&scenario, AsapConfig::default(), &sim);
    let m = report.messages;
    row(&[&"joins", &report.joined]);
    row(&[&"calls completed", &report.calls_completed]);
    row(&[&"failovers", &report.failovers]);
    row(&[&"join msgs", &m.join]);
    row(&[&"close-set msgs", &m.close_set]);
    row(&[&"publish msgs", &m.publish]);
    row(&[&"election msgs", &m.election]);
    row(&[&"call msgs", &m.call]);
    row(&[&"heartbeat msgs", &m.heartbeat]);
    row(&[&"hedge msgs", &m.hedge]);
    row(&[&"total msgs", &m.total()]);
    let per_host_per_min = m.total() as f64
        / scenario.population.hosts().len() as f64
        / (report.ended_at.as_secs_f64() / 60.0);
    row(&[&"msgs/host/minute", &format!("{per_host_per_min:.2}")]);
}
