//! Ablations of ASAP's design choices (DESIGN.md §5 calls these out):
//!
//! * **k sweep** — the BFS hop bound: k = 4 is the paper's choice; lower
//!   bounds miss candidates, higher ones pay more construction traffic
//!   for little gain.
//! * **latT sweep** — the pruning threshold trades set size against
//!   construction messages.
//! * **sizeT sweep** — when two-hop expansion triggers, and what it costs
//!   in per-session messages.
//! * **valley-free vs unconstrained BFS** — what routing-policy awareness
//!   buys: the unconstrained ball probes more clusters for the same
//!   close set.
//! * **surrogate election** — best-member election vs random members:
//!   a badly chosen surrogate distorts every measurement of its cluster.

use asap_bench::{percentile, row, section, sorted, Args, Scale};
use asap_core::close_set::{construct_close_cluster_set_with_mode, ClusterIndex, SearchMode};
use asap_core::{surrogate_order, AsapConfig, AsapSelector, AsapSystem};
use asap_voip::QualityRequirement;
use asap_workload::sessions;
use asap_workload::HostId;

fn main() {
    let args = Args::parse(Scale::Tiny);
    eprintln!(
        "ablation: building scenario ({:?}, seed {})…",
        args.scale, args.seed
    );
    let scenario = args.scenario();
    let index = ClusterIndex::build(&scenario);
    let req = QualityRequirement::default();

    let all = sessions::generate(&scenario.population, args.sessions.min(20_000), args.seed);
    let with = sessions::with_direct_routes(&scenario, &all);
    let latent = sessions::latent_sessions(&with, 300.0);
    let take = latent.len().min(120);
    eprintln!("ablation: {} latent sessions (using {take})", latent.len());

    // --- k sweep ---
    section("k sweep (BFS hop bound)");
    row(&[
        &"k",
        &"median quality paths",
        &"median messages",
        &"found relay %",
    ]);
    for k in [2usize, 3, 4, 5] {
        let config = AsapConfig {
            k,
            ..Default::default()
        };
        let system = AsapSystem::bootstrap(&scenario, config);
        let selector = AsapSelector::new(system);
        let (mut quality, mut messages, mut found) = (Vec::new(), Vec::new(), 0usize);
        for s in latent.iter().take(take) {
            let (out, spent) =
                asap_baselines::select_metered(&selector, &scenario, s.session, &req);
            quality.push(out.quality_paths as f64);
            messages.push(spent as f64);
            found += usize::from(out.best.is_some());
        }
        row(&[
            &k,
            &format!("{:.0}", percentile(&sorted(&quality), 0.5)),
            &format!("{:.0}", percentile(&sorted(&messages), 0.5)),
            &format!("{:.0}%", 100.0 * found as f64 / take.max(1) as f64),
        ]);
    }

    // --- latT sweep ---
    section("latT sweep (pruning threshold, ms)");
    row(&[
        &"latT",
        &"median quality paths",
        &"construction msgs (one cluster)",
    ]);
    let probe_cluster = scenario.population.clustering().clusters()[0].id();
    for lat_t in [150.0, 225.0, 300.0, 450.0] {
        let config = AsapConfig {
            lat_t_ms: lat_t,
            ..Default::default()
        };
        let set = construct_close_cluster_set_with_mode(
            &scenario,
            &index,
            &|c| scenario.delegate_of(c),
            probe_cluster,
            &config,
            SearchMode::ValleyFree,
        );
        let system = AsapSystem::bootstrap(&scenario, config);
        let selector = AsapSelector::new(system);
        let mut quality = Vec::new();
        for s in latent.iter().take(take.min(40)) {
            let out = asap_baselines::RelaySelector::select(&selector, &scenario, s.session, &req);
            quality.push(out.quality_paths as f64);
        }
        row(&[
            &lat_t,
            &format!("{:.0}", percentile(&sorted(&quality), 0.5)),
            &set.construction_messages,
        ]);
    }
    println!(
        "# latT is dual-use: it prunes the BFS *and* decides when the direct\n\
         # path is accepted — at latT=450 most >300 ms sessions simply keep\n\
         # their direct route, so no relay selection runs at all."
    );

    // --- sizeT sweep ---
    section("sizeT sweep (two-hop trigger)");
    row(&[
        &"sizeT",
        &"median messages",
        &"p95 messages",
        &"two-hop sessions",
    ]);
    for size_t in [0usize, 100, 300, 1_000, 10_000] {
        let config = AsapConfig {
            size_t,
            ..Default::default()
        };
        let system = AsapSystem::bootstrap(&scenario, config);
        let selector = AsapSelector::new(system);
        let mut messages = Vec::new();
        let mut two_hop = 0usize;
        for s in latent.iter().take(take.min(60)) {
            let (_, spent) = asap_baselines::select_metered(&selector, &scenario, s.session, &req);
            messages.push(spent as f64);
            // A one-hop selection costs 2 setup pings + 2 close-set
            // messages; anything beyond that is the two-hop exchange.
            if spent > 4 {
                two_hop += 1;
            }
        }
        let m = sorted(&messages);
        row(&[
            &size_t,
            &format!("{:.0}", percentile(&m, 0.5)),
            &format!("{:.0}", percentile(&m, 0.95)),
            &two_hop,
        ]);
    }

    // --- valley-free vs unconstrained BFS ---
    section("valley-free vs unconstrained close-set BFS");
    row(&[&"mode", &"median set size", &"median construction msgs"]);
    let clusters: Vec<_> = scenario
        .population
        .clustering()
        .clusters()
        .iter()
        .map(|c| c.id())
        .take(40)
        .collect();
    for (name, mode) in [
        ("valley-free", SearchMode::ValleyFree),
        ("unconstrained", SearchMode::Unconstrained),
    ] {
        let mut sizes = Vec::new();
        let mut msgs = Vec::new();
        for &c in &clusters {
            let set = construct_close_cluster_set_with_mode(
                &scenario,
                &index,
                &|c| scenario.delegate_of(c),
                c,
                &AsapConfig::default(),
                mode,
            );
            sizes.push(set.len() as f64);
            msgs.push(set.construction_messages as f64);
        }
        row(&[
            &name,
            &format!("{:.0}", percentile(&sorted(&sizes), 0.5)),
            &format!("{:.0}", percentile(&sorted(&msgs), 0.5)),
        ]);
    }

    // --- surrogate election policy ---
    section("surrogate election: best member vs arbitrary member");
    row(&[&"policy", &"median close-set size (40 clusters)"]);
    for (name, pick_first) in [
        ("best (capability-access)", false),
        ("arbitrary (first member)", true),
    ] {
        let surrogate_of = |c: asap_cluster::ClusterId| -> HostId {
            let members = scenario.population.cluster_members(c);
            if pick_first {
                members[0]
            } else {
                members
                    .iter()
                    .copied()
                    .min_by(|&a, &b| surrogate_order(&scenario.population, a, b))
                    .unwrap()
            }
        };
        let mut sizes = Vec::new();
        for &c in &clusters {
            let set = construct_close_cluster_set_with_mode(
                &scenario,
                &index,
                &surrogate_of,
                c,
                &AsapConfig::default(),
                SearchMode::ValleyFree,
            );
            sizes.push(set.len() as f64);
        }
        row(&[&name, &format!("{:.0}", percentile(&sorted(&sizes), 0.5))]);
    }
}
