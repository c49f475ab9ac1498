//! Figure 17 — scalability of the four protocols.
//!
//! §7.3: grow the population from 23,366 to 103,625 hosts (×4.434). A
//! method is *scalable* if its per-session quality-path count grows with
//! the population: dividing the large-scale counts by 4.434 should
//! reproduce the small-scale CDF. ASAP passes (its candidate pool is
//! every member of every close cluster); DEDI/RAND/MIX fail (their probe
//! budgets are fixed).

use asap_baselines::{Dedi, Mix, RandSel, RelaySelector};
use asap_bench::{percentile, row, section, sorted, Args, Scale};
use asap_core::parallel::ordered_map;
use asap_core::{AsapConfig, AsapSelector, AsapSystem};
use asap_telemetry::Telemetry;
use asap_voip::QualityRequirement;
use asap_workload::sessions;
use asap_workload::{PopulationConfig, Scenario, ScenarioConfig};

/// Quality-path percentiles for all four methods at one population size.
///
/// Every method's message spend lands in the shared `telemetry` ledger
/// under a `NAME@tag` scope (e.g. `ASAP@small`), so the two population
/// sizes stay separable in `--metrics-out` snapshots.
fn run_at(
    scenario: &Scenario,
    sessions_n: usize,
    seed: u64,
    take: usize,
    telemetry: &Telemetry,
    tag: &str,
    threads: usize,
) -> Vec<(String, Vec<f64>)> {
    let all = sessions::generate(&scenario.population, sessions_n, seed ^ 0xF17);
    let with = sessions::with_direct_routes(scenario, &all);
    let latent = sessions::latent_sessions(&with, 300.0);
    eprintln!(
        "fig17: {} hosts → {} latent sessions",
        scenario.population.hosts().len(),
        latent.len()
    );

    let req = QualityRequirement::default();
    let scope = |name: &str| telemetry.ledger().scope(&format!("{name}@{tag}"));
    let dedi = Dedi::new(scenario, 80).with_scope(scope("DEDI"));
    let rand = RandSel::new(200, seed ^ 0xAB).with_scope(scope("RAND"));
    let mix = Mix::new(scenario, 40, 120, seed ^ 0xCD).with_scope(scope("MIX"));
    let system = AsapSystem::bootstrap_scoped(
        scenario,
        AsapConfig::default(),
        telemetry,
        &format!("ASAP@{tag}"),
    );
    let asap = AsapSelector::new(system);

    // The four methods are independent given the shared scenario, so
    // they run concurrently on `threads` threads, each moved to the one
    // thread that calls it. `ordered_map` preserves input order, so the
    // output (and every downstream table) is identical to the sequential
    // loop at any thread count.
    let methods: Vec<(&str, Box<dyn RelaySelector + Send>)> = vec![
        ("DEDI", Box::new(dedi)),
        ("RAND", Box::new(rand)),
        ("MIX", Box::new(mix)),
        ("ASAP", Box::new(asap)),
    ];
    ordered_map(methods, threads, |(name, m)| {
        let quality: Vec<f64> = latent
            .iter()
            .take(take)
            .map(|s| m.select(scenario, s.session, &req).quality_paths as f64)
            .collect();
        (name.to_string(), quality)
    })
}

fn main() {
    let args = Args::parse(Scale::Tiny);
    // Two population sizes with the paper's 4.434 ratio, scaled down from
    // 23,366/103,625 when not run at --scale scalability.
    let (small_n, large_n) = match args.scale {
        Scale::Tiny => (2_000, 8_868),
        _ => (23_366, 103_625),
    };
    let ratio = large_n as f64 / small_n as f64;

    let base = args.scale.scenario_config();
    let small_cfg = ScenarioConfig {
        population: PopulationConfig {
            target_hosts: small_n,
            ..base.population.clone()
        },
        internet: base.internet.clone(),
        net: base.net.clone(),
    };
    let large_cfg = ScenarioConfig {
        population: PopulationConfig {
            target_hosts: large_n,
            ..base.population.clone()
        },
        internet: base.internet,
        net: base.net,
    };

    eprintln!("fig17: building {small_n}-host scenario…");
    let small = Scenario::build(small_cfg, args.seed);
    eprintln!("fig17: building {large_n}-host scenario…");
    let large = Scenario::build(large_cfg, args.seed);

    let telemetry = Telemetry::new();
    let take = 200;
    let small_res = run_at(
        &small,
        args.sessions,
        args.seed,
        take,
        &telemetry,
        "small",
        args.threads,
    );
    let large_res = run_at(
        &large,
        args.sessions,
        args.seed + 1,
        take,
        &telemetry,
        "large",
        args.threads,
    );

    section(&format!(
        "Fig. 17: quality paths at {large_n} hosts divided by {ratio:.3}, vs {small_n} hosts"
    ));
    row(&[
        &"method",
        &"small p50",
        &"large/r p50",
        &"small p90",
        &"large/r p90",
    ]);
    for ((name, small_q), (_, large_q)) in small_res.iter().zip(&large_res) {
        let s = sorted(small_q);
        let l = sorted(&large_q.iter().map(|q| q / ratio).collect::<Vec<_>>());
        if s.is_empty() || l.is_empty() {
            row(&[&name, &"-", &"-", &"-", &"-"]);
            continue;
        }
        row(&[
            &name,
            &format!("{:.0}", percentile(&s, 0.5)),
            &format!("{:.0}", percentile(&l, 0.5)),
            &format!("{:.0}", percentile(&s, 0.9)),
            &format!("{:.0}", percentile(&l, 0.9)),
        ]);
    }
    println!(
        "\n# Scalable ⇔ the scaled large-population column matches the small one.\n\
         # ASAP's columns should agree; DEDI/RAND/MIX collapse toward zero."
    );

    args.write_metrics(&telemetry);
}
