//! Cross-crate integration test: the paper's headline comparison (§7.2).
//!
//! On latent sessions (direct RTT > 300 ms):
//!
//! * ASAP finds orders of magnitude more quality paths than DEDI/RAND/MIX
//!   (Figs. 11/12);
//! * ASAP's shortest relay RTT approaches OPT's and beats the probing
//!   baselines (Figs. 13/14);
//! * ASAP's MOS stays satisfactory while baselines leave a bad tail
//!   (Figs. 15/16).
//!
//! Run at a reduced scale so the suite stays fast; the bench binaries
//! reproduce the full-scale figures.

use asap_baselines::{Dedi, Mix, Opt, RandSel, RelaySelector};
use asap_core::{AsapConfig, AsapSelector, AsapSystem};
use asap_voip::{emodel::EModel, Codec, QualityRequirement};
use asap_workload::sessions::{latent_sessions, with_direct_routes};
use asap_workload::{sessions, PopulationConfig, Scenario, ScenarioConfig};

fn build() -> Scenario {
    let mut cfg = ScenarioConfig::eval_scale();
    cfg.population = PopulationConfig {
        target_hosts: 3_000,
        ..Default::default()
    };
    // Slightly heavier congestion than the default so the reduced test
    // scale still yields a solid pool of latent sessions.
    cfg.net.congestion_prob_core_link = 0.08;
    Scenario::build(cfg, 2026)
}

#[test]
fn asap_dominates_baselines_and_approaches_opt() {
    let scenario = build();
    let all = sessions::generate(&scenario.population, 8_000, 3);
    let with = with_direct_routes(&scenario, &all);
    let latent = latent_sessions(&with, 300.0);
    assert!(
        latent.len() >= 10,
        "need latent sessions to compare on, got {}",
        latent.len()
    );

    let req = QualityRequirement::default();
    let dedi = Dedi::new(&scenario, 80);
    let rand = RandSel::new(200, 7);
    let mix = Mix::new(&scenario, 40, 120, 7);
    let opt = Opt::new();
    let system = AsapSystem::bootstrap(&scenario, AsapConfig::default());
    let asap = AsapSelector::new(system);

    // Unlike the paper's trace (where every latent session had a sub-300 ms
    // one-hop path), our synthetic world also contains *hopeless* latent
    // sessions — endpoint-adjacent congestion no relay can bypass. OPT
    // classifies them: the comparison runs on the fixable ones.
    let mut fixable = 0usize;
    let mut asap_wins_quality = 0usize;
    let mut asap_best_sum = 0.0;
    let mut opt_best_sum = 0.0;
    let mut asap_found = 0usize;
    let mut asap_msgs = Vec::new();

    for s in latent.iter().take(60) {
        let sess = s.session;
        let o_opt = opt.select(&scenario, sess, &req);
        let (_, asap_spent) = asap_baselines::select_metered(&asap, &scenario, sess, &req);
        asap_msgs.push(asap_spent);
        let opt_best = match &o_opt.best {
            Some(b) if req.rtt_ok(b.rtt_ms) => b.rtt_ms,
            _ => continue,
        };
        fixable += 1;
        let o_dedi = dedi.select(&scenario, sess, &req);
        let o_rand = rand.select(&scenario, sess, &req);
        let o_mix = mix.select(&scenario, sess, &req);
        let o_asap = asap.select(&scenario, sess, &req);

        let base_max = o_dedi
            .quality_paths
            .max(o_rand.quality_paths)
            .max(o_mix.quality_paths);
        if o_asap.quality_paths > 10 * base_max.max(1) {
            asap_wins_quality += 1;
        }
        if let Some(a) = &o_asap.best {
            asap_found += 1;
            asap_best_sum += a.rtt_ms;
            opt_best_sum += opt_best;
        }
    }
    assert!(fixable >= 5, "need fixable latent sessions, got {fixable}");

    // Figs. 11/12: ASAP finds vastly more quality paths for most fixable
    // sessions.
    assert!(
        asap_wins_quality * 10 >= fixable * 7,
        "ASAP out-found baselines 10× on only {asap_wins_quality}/{fixable} fixable sessions"
    );

    // Figs. 13/14: ASAP's average best RTT approaches OPT's and meets the
    // latency requirement.
    assert!(
        asap_found * 10 >= fixable * 8,
        "ASAP found a relay on only {asap_found}/{fixable}"
    );
    let asap_avg = asap_best_sum / asap_found as f64;
    let opt_avg = opt_best_sum / asap_found as f64;
    assert!(opt_avg <= asap_avg + 1e-9, "OPT must lower-bound ASAP");
    assert!(
        asap_avg <= 2.0 * opt_avg + 20.0,
        "ASAP best avg {asap_avg:.1} ms vs OPT {opt_avg:.1} ms — too far from optimal"
    );
    assert!(
        asap_avg < 300.0,
        "ASAP best avg {asap_avg:.1} ms fails the latency requirement"
    );

    // Fig. 18: most sessions stay within a few hundred messages.
    asap_msgs.sort_unstable();
    let p80 = asap_msgs[(asap_msgs.len() * 8 / 10).min(asap_msgs.len() - 1)];
    assert!(
        p80 <= 1_000,
        "80th-percentile ASAP overhead {p80} messages is out of shape"
    );
}

#[test]
fn asap_mos_stays_satisfactory_where_baselines_fail() {
    let scenario = build();
    let all = sessions::generate(&scenario.population, 8_000, 4);
    let with = with_direct_routes(&scenario, &all);
    let latent = latent_sessions(&with, 300.0);
    if latent.len() < 5 {
        return;
    }
    let req = QualityRequirement::default();
    let system = AsapSystem::bootstrap(&scenario, AsapConfig::default());
    let asap = AsapSelector::new(system);
    let rand = RandSel::new(200, 9);
    let model = EModel::new(Codec::G729aVad);

    let mut asap_mos = Vec::new();
    let mut rand_mos = Vec::new();
    for s in latent.iter().take(20) {
        let o_asap = asap.select(&scenario, s.session, &req);
        let o_rand = rand.select(&scenario, s.session, &req);
        if let Some(b) = o_asap.best {
            asap_mos.push(model.mos_from_rtt(b.rtt_ms, 0.005));
        }
        if let Some(b) = o_rand.best {
            rand_mos.push(model.mos_from_rtt(b.rtt_ms, 0.005));
        }
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(!asap_mos.is_empty());
    assert!(
        avg(&asap_mos) >= 3.6,
        "ASAP mean MOS {:.2} below satisfaction",
        avg(&asap_mos)
    );
    if !rand_mos.is_empty() {
        assert!(
            avg(&asap_mos) >= avg(&rand_mos) - 0.05,
            "ASAP MOS {:.2} should not trail RAND {:.2}",
            avg(&asap_mos),
            avg(&rand_mos)
        );
    }
}
