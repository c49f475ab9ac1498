//! Figures 11–16 and 18 — the §7.2 method comparison on latent sessions.
//!
//! * Figs. 11/12: number of quality paths per session + CDF — DEDI, RAND,
//!   and MIX stay below a few hundred while ASAP finds orders of
//!   magnitude more (member-IP granularity).
//! * Figs. 13/14: shortest relay RTT + CCDF — ASAP tracks OPT; the
//!   probing baselines leave a slow tail.
//! * Figs. 15/16: highest MOS (E-model, G.729A+VAD, 0.5% loss) + CDF.
//! * Fig. 18: per-session message overhead CDF — DEDI/RAND/MIX pay fixed
//!   80/200/160 probes, ASAP usually ≤ a few hundred messages.

use asap_baselines::{
    select_metered, Dedi, EarliestDivergence, Mix, Opt, RandSel, RelaySelector, SelectionOutcome,
};
use asap_bench::{percentile, row, section, sorted, Args, Scale};
use asap_core::{AsapConfig, AsapSelector, AsapSystem};
use asap_telemetry::{HistogramHandle, Telemetry};
use asap_voip::{emodel::EModel, Codec, QualityRequirement};
use asap_workload::sessions;

struct MethodResult {
    name: &'static str,
    quality: Vec<f64>,
    shortest: Vec<f64>,
    mos: Vec<f64>,
    messages: Vec<f64>,
    best_rtt: HistogramHandle,
}

impl MethodResult {
    fn new(name: &'static str, telemetry: &Telemetry) -> Self {
        MethodResult {
            name,
            quality: Vec::new(),
            shortest: Vec::new(),
            mos: Vec::new(),
            messages: Vec::new(),
            best_rtt: telemetry
                .registry()
                .histogram(&format!("{name}.best_rtt_ms")),
        }
    }

    fn record(&mut self, out: &SelectionOutcome, spent: u64, model: &EModel) {
        self.quality.push(out.quality_paths as f64);
        self.messages.push(spent as f64);
        if let Some(best) = &out.best {
            self.shortest.push(best.rtt_ms);
            self.mos.push(model.mos_from_rtt(best.rtt_ms, 0.005));
            self.best_rtt.record(best.rtt_ms);
        }
    }
}

fn main() {
    let args = Args::parse(Scale::Tiny);
    eprintln!(
        "fig11_18: building scenario ({:?}, seed {})…",
        args.scale, args.seed
    );
    let scenario = args.scenario();
    let all = sessions::generate(&scenario.population, args.sessions, args.seed ^ 0xF1118);
    let with = sessions::with_direct_routes(&scenario, &all);
    let latent = sessions::latent_sessions(&with, 300.0);
    eprintln!(
        "fig11_18: {} sessions, {} routable, {} latent (>300 ms)",
        all.len(),
        with.len(),
        latent.len()
    );

    // One telemetry context for the whole comparison: each method gets its
    // own ledger scope, so the Fig. 18 overhead numbers, the per-kind
    // breakdowns, and `--metrics-out` all report from the same source.
    let telemetry = Telemetry::new();
    let req = QualityRequirement::default();
    let model = EModel::new(Codec::G729aVad);
    let dedi = Dedi::new(&scenario, 80).with_scope(telemetry.ledger().scope("DEDI"));
    let rand = RandSel::new(200, args.seed ^ 0xAB).with_scope(telemetry.ledger().scope("RAND"));
    let mix =
        Mix::new(&scenario, 40, 120, args.seed ^ 0xCD).with_scope(telemetry.ledger().scope("MIX"));
    let ed =
        EarliestDivergence::new(200, args.seed ^ 0xAB).with_scope(telemetry.ledger().scope("ED"));
    let opt = Opt::new().with_scope(telemetry.ledger().scope("OPT"));
    let system = AsapSystem::bootstrap_scoped(&scenario, AsapConfig::default(), &telemetry, "ASAP");
    let asap = AsapSelector::new(system);

    let mut results: Vec<MethodResult> = ["DEDI", "RAND", "MIX", "ASAP", "OPT", "ED"]
        .iter()
        .map(|n| MethodResult::new(n, &telemetry))
        .collect();

    // OPT is exhaustive per session; cap the comparison set so the eval
    // scale finishes in minutes.
    let take = latent.len().min(600);
    // Paired (ASAP, OPT) shortest RTTs on the sessions where ASAP found a
    // relay, for a same-session-set comparison.
    let mut paired: Vec<(f64, f64)> = Vec::new();
    for s in latent.iter().take(take) {
        // Each selector's message spend is metered as the delta of its
        // ledger scope across the call — there is no per-outcome counter.
        let outs: Vec<(SelectionOutcome, u64)> = vec![
            select_metered(&dedi, &scenario, s.session, &req),
            select_metered(&rand, &scenario, s.session, &req),
            select_metered(&mix, &scenario, s.session, &req),
            select_metered(&asap, &scenario, s.session, &req),
            select_metered(&opt, &scenario, s.session, &req),
            select_metered(&ed, &scenario, s.session, &req),
        ];
        if let (Some(a), Some(o)) = (&outs[3].0.best, &outs[4].0.best) {
            paired.push((a.rtt_ms, o.rtt_ms));
        }
        for (r, (out, spent)) in results.iter_mut().zip(&outs) {
            r.record(out, *spent, &model);
        }
    }

    section("Figs. 11/12: quality paths per latent session");
    row(&[&"method", &"p10", &"p50", &"p90", &"max"]);
    for r in &results {
        if r.name == "OPT" || r.name == "ED" {
            continue; // the oracle is not a protocol, and ED counts like RAND
        }
        let q = sorted(&r.quality);
        if q.is_empty() {
            row(&[&r.name, &"-", &"-", &"-", &"-"]);
            continue;
        }
        row(&[
            &r.name,
            &percentile(&q, 0.1),
            &percentile(&q, 0.5),
            &percentile(&q, 0.9),
            &percentile(&q, 1.0),
        ]);
    }

    section("Figs. 13/14: shortest relay RTT (ms) among found paths");
    row(&[&"method", &"found", &"p50", &"p95", &"max", &">1s frac"]);
    for r in &results {
        let v = sorted(&r.shortest);
        if v.is_empty() {
            row(&[&r.name, &0, &"-", &"-", &"-", &"-"]);
            continue;
        }
        row(&[
            &r.name,
            &v.len(),
            &format!("{:.0}", percentile(&v, 0.5)),
            &format!("{:.0}", percentile(&v, 0.95)),
            &format!("{:.0}", percentile(&v, 1.0)),
            &format!("{:.3}", asap_bench::frac_above(&v, 1000.0)),
        ]);
    }

    // Per-method "found" sets differ (ASAP abstains on hopeless sessions,
    // the probing baselines always report their best probe), so also
    // compare ASAP and OPT on the *same* sessions.
    section("Figs. 13/14 (paired): ASAP vs OPT on ASAP-found sessions");
    if paired.is_empty() {
        println!("(ASAP found no relays in this run)");
    } else {
        let asap_v = sorted(&paired.iter().map(|p| p.0).collect::<Vec<_>>());
        let opt_v = sorted(&paired.iter().map(|p| p.1).collect::<Vec<_>>());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        row(&[&"", &"mean", &"p50", &"p95"]);
        row(&[
            &"ASAP",
            &format!("{:.1}", mean(&asap_v)),
            &format!("{:.1}", percentile(&asap_v, 0.5)),
            &format!("{:.1}", percentile(&asap_v, 0.95)),
        ]);
        row(&[
            &"OPT",
            &format!("{:.1}", mean(&opt_v)),
            &format!("{:.1}", percentile(&opt_v, 0.5)),
            &format!("{:.1}", percentile(&opt_v, 0.95)),
        ]);
        let within = paired.iter().filter(|(a, o)| *a <= 1.5 * o + 20.0).count();
        row(&[
            &"ASAP within 1.5×OPT+20ms",
            &format!("{:.2}", within as f64 / paired.len() as f64),
        ]);
    }

    section("Figs. 15/16: highest MOS (G.729A+VAD, 0.5% loss)");
    row(&[&"method", &"p5", &"p50", &"min", &"<2.9 frac"]);
    for r in &results {
        let v = sorted(&r.mos);
        if v.is_empty() {
            row(&[&r.name, &"-", &"-", &"-", &"-"]);
            continue;
        }
        let below = v.iter().filter(|&&m| m < 2.9).count() as f64 / v.len() as f64;
        row(&[
            &r.name,
            &format!("{:.2}", percentile(&v, 0.05)),
            &format!("{:.2}", percentile(&v, 0.5)),
            &format!("{:.2}", v[0]),
            &format!("{below:.3}"),
        ]);
    }

    section("Fig. 18: per-session selection messages");
    row(&[&"method", &"p50", &"p80", &"max"]);
    for r in &results {
        if r.name == "OPT" {
            continue;
        }
        let v = sorted(&r.messages);
        row(&[
            &r.name,
            &percentile(&v, 0.5),
            &percentile(&v, 0.8),
            &percentile(&v, 1.0),
        ]);
    }

    section("Fig. 18 source: ledger totals by message kind");
    let scoped: Vec<(&str, &asap_telemetry::LedgerScope)> = vec![
        ("DEDI", dedi.scope()),
        ("RAND", rand.scope()),
        ("MIX", mix.scope()),
        ("ASAP", asap.scope()),
        ("ED", ed.scope()),
    ];
    let mut header: Vec<&dyn std::fmt::Display> = vec![&"kind"];
    for (name, _) in &scoped {
        header.push(name);
    }
    row(&header);
    for kind in asap_telemetry::MESSAGE_KINDS {
        let counts: Vec<u64> = scoped.iter().map(|(_, s)| s.count(kind)).collect();
        if counts.iter().all(|&c| c == 0) {
            continue;
        }
        let kind_name = kind.name();
        let mut cells: Vec<&dyn std::fmt::Display> = vec![&kind_name];
        for c in &counts {
            cells.push(c);
        }
        row(&cells);
    }

    args.write_metrics(&telemetry);
}
