//! Property-based tests for the latency/loss model and the event queue.

use std::sync::{Arc, OnceLock};

use asap_netsim::events::{EventQueue, SimTime};
use asap_netsim::membership::{
    HEARTBEAT_INTERVAL_MS, MIN_STD_MS, PHI_DEAD, PHI_SUSPECT, SUSPICION_WINDOW,
};
use asap_netsim::model::CONGESTED_ADDED_RTT_MS;
use asap_netsim::{NetConfig, NetModel, SuspicionDetector, Verdict};
use asap_rng::check::{check, vec};
use asap_topology::{InternetConfig, InternetGenerator, SyntheticInternet};
use asap_workload::{Scenario, ScenarioConfig};

fn shared() -> &'static (Arc<SyntheticInternet>, NetModel) {
    static SHARED: OnceLock<(Arc<SyntheticInternet>, NetModel)> = OnceLock::new();
    SHARED.get_or_init(|| {
        let net = Arc::new(InternetGenerator::new(InternetConfig::tiny(), 77).generate());
        let model = NetModel::new(net.clone(), NetConfig::default(), 78);
        (net, model)
    })
}

#[test]
fn rtt_is_pure_and_positive() {
    check(256, |rng| {
        let i = rng.gen_range(0usize..120);
        let j = rng.gen_range(0usize..120);
        let (net, model) = shared();
        let stubs = net.stub_asns();
        let (a, b) = (stubs[i % stubs.len()], stubs[j % stubs.len()]);
        let r1 = model.as_rtt_ms(a, b);
        let r2 = model.as_rtt_ms(a, b);
        assert_eq!(r1, r2);
        if let Some(r) = r1 {
            assert!(r > 0.0);
            assert!(r.is_finite());
        }
    });
}

#[test]
fn rtt_is_symmetric_when_routes_are() {
    check(256, |rng| {
        let i = rng.gen_range(0usize..120);
        let j = rng.gen_range(0usize..120);
        // BGP routes need not be symmetric, but when the policy paths are
        // reverses of each other the modeled RTT must agree (same links,
        // same conditions, same pair jitter).
        let (net, model) = shared();
        let stubs = net.stub_asns();
        let (a, b) = (stubs[i % stubs.len()], stubs[j % stubs.len()]);
        let (Some(p_ab), Some(p_ba)) = (model.as_path(a, b), model.as_path(b, a)) else {
            return;
        };
        let mut rev = p_ba.clone();
        rev.reverse();
        if rev == p_ab {
            let (r_ab, r_ba) = (
                model.as_rtt_ms(a, b).unwrap(),
                model.as_rtt_ms(b, a).unwrap(),
            );
            assert!(
                (r_ab - r_ba).abs() < 1e-9,
                "asymmetric RTT on symmetric route"
            );
        }
    });
}

#[test]
fn loss_is_a_probability() {
    check(256, |rng| {
        let i = rng.gen_range(0usize..120);
        let j = rng.gen_range(0usize..120);
        let (net, model) = shared();
        let stubs = net.stub_asns();
        let (a, b) = (stubs[i % stubs.len()], stubs[j % stubs.len()]);
        if let Some(l) = model.as_loss(a, b) {
            assert!((0.0..=1.0).contains(&l));
        }
    });
}

#[test]
fn link_condition_is_deterministic_and_bounded() {
    check(256, |rng| {
        let i = rng.gen_range(0usize..60);
        let j = rng.gen_range(0usize..60);
        let (net, model) = shared();
        let asns = net.graph.asns();
        let (a, b) = (asns[i % asns.len()], asns[j % asns.len()]);
        let c1 = model.link_condition(a, b);
        let c2 = model.link_condition(a, b);
        assert_eq!(c1, c2);
        // Symmetric in argument order.
        assert_eq!(c1, model.link_condition(b, a));
        assert!(c1.0 == 0.0 || CONGESTED_ADDED_RTT_MS.contains(&c1.0));
    });
}

fn shared_scenario() -> &'static Scenario {
    static SHARED: OnceLock<Scenario> = OnceLock::new();
    SHARED.get_or_init(|| Scenario::build(ScenarioConfig::tiny(), 77))
}

#[test]
fn host_rtt_decomposes() {
    check(256, |rng| {
        let s = shared_scenario();
        let hosts = s.population.hosts();
        let a = &hosts[rng.gen_range(0..hosts.len())];
        let b = &hosts[rng.gen_range(0..hosts.len())];
        if let (Some(core), Some(host)) = (s.net.as_rtt_ms(a.asn, b.asn), s.host_rtt_ms(a.id, b.id))
        {
            assert!((host - core - 2.0 * a.access_ms - 2.0 * b.access_ms).abs() < 1e-9);
        }
    });
}

#[test]
fn event_queue_pops_in_nondecreasing_time_order() {
    check(256, |rng| {
        let times = vec(rng, 1..64, |rng| rng.gen_range(0u64..10_000));
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((at, _)) = q.pop() {
            assert!(at >= last);
            last = at;
            count += 1;
        }
        assert_eq!(count, times.len());
    });
}

#[test]
fn event_queue_is_fifo_within_a_tick() {
    check(256, |rng| {
        let n = rng.gen_range(1usize..32);
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(SimTime(42), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..n).collect::<Vec<_>>());
    });
}

/// Phi never decreases while a node stays silent: suspicion of a
/// quiet node only deepens as virtual time passes.
#[test]
fn phi_is_monotone_in_silence() {
    check(256, |rng| {
        let beats = rng.gen_range(2u64..40);
        let jitter = rng.gen_range(0u64..400);
        let probes = vec(rng, 1..24, |rng| rng.gen_range(1u64..600_000));
        let mut d = SuspicionDetector::default();
        let interval = HEARTBEAT_INTERVAL_MS;
        let mut now = 0;
        for k in 0..beats {
            now = k * interval + (jitter * k) % 200;
            d.heartbeat(now);
        }
        let mut offsets = probes;
        offsets.sort_unstable();
        let mut last_phi = 0.0f64;
        for off in offsets {
            let phi = d.phi(now + off);
            assert!(
                phi >= last_phi,
                "phi fell from {last_phi} to {phi} at +{off}ms"
            );
            assert!(phi.is_finite() && phi >= 0.0);
            last_phi = phi;
        }
    });
}

/// A heartbeat resets suspicion: right after hearing from a node,
/// phi is back near zero and the verdict is Alive, no matter how
/// dead the node looked a moment before.
#[test]
fn heartbeat_resets_suspicion() {
    check(256, |rng| {
        let beats = rng.gen_range(2u64..20);
        let silence = rng.gen_range(1u64..10_000_000);
        let mut d = SuspicionDetector::default();
        let interval = HEARTBEAT_INTERVAL_MS;
        for k in 0..beats {
            d.heartbeat(k * interval);
        }
        let quiet = (beats - 1) * interval + silence;
        let before = d.phi(quiet);
        d.heartbeat(quiet);
        let after = d.phi(quiet);
        assert!(after <= before);
        assert!(after < PHI_SUSPECT);
        assert_eq!(d.verdict(quiet), Verdict::Alive);
    });
}

/// A node that heartbeats every interval, even with bounded delivery
/// jitter, is never suspected — the detector's false-positive guard.
#[test]
fn regular_heartbeater_is_never_suspected() {
    check(256, |rng| {
        let beats = rng.gen_range(3u64..80);
        let jitters = vec(rng, 3..80, |rng| rng.gen_range(0u64..150));
        let mut d = SuspicionDetector::default();
        let interval = HEARTBEAT_INTERVAL_MS;
        let mut now = 0;
        for k in 0..beats {
            now = k * interval + jitters[k as usize % jitters.len()];
            d.heartbeat(now);
            assert_eq!(d.verdict(now), Verdict::Alive, "suspected at beat {}", k);
        }
        // Between beats the verdict stays Alive too: probe just before
        // the next scheduled heartbeat would land.
        assert_eq!(d.verdict(now + interval), Verdict::Alive);
    });
}

/// The plain reference detector: the gap window rebuilt from every
/// heartbeat accepted so far, and the estimate recomputed on each query.
#[derive(Default)]
struct ReferenceDetector {
    /// Accepted heartbeats, in order (a beat earlier than the latest
    /// accepted one is dropped).
    beats: Vec<u64>,
}

impl ReferenceDetector {
    fn heartbeat(&mut self, now: u64) {
        if self.beats.last().is_none_or(|&last| now >= last) {
            self.beats.push(now);
        }
    }

    /// The estimated mean and deviation of the inter-arrival gaps.
    fn estimate(&self) -> (f64, f64) {
        // Gap i lands in slot i mod SUSPICION_WINDOW, so the window holds
        // the latest SUSPICION_WINDOW gaps in that slot order.
        let mut window: Vec<f64> = Vec::new();
        for (i, pair) in self.beats.windows(2).enumerate() {
            let gap = (pair[1] - pair[0]) as f64;
            if i < SUSPICION_WINDOW {
                window.push(gap);
            } else {
                window[i % SUSPICION_WINDOW] = gap;
            }
        }
        if window.is_empty() {
            return (HEARTBEAT_INTERVAL_MS as f64, MIN_STD_MS);
        }
        let n = window.len() as f64;
        let mean = window.iter().sum::<f64>() / n;
        let var = window.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / n;
        (
            mean.max(HEARTBEAT_INTERVAL_MS as f64),
            var.sqrt().max(MIN_STD_MS),
        )
    }

    fn phi(&self, now: u64) -> f64 {
        let Some(&last) = self.beats.last() else {
            return 0.0;
        };
        let (mean, std) = self.estimate();
        let silence = now.saturating_sub(last) as f64;
        if silence <= mean {
            return 0.0;
        }
        let z = (silence - mean) / (std * std::f64::consts::SQRT_2);
        // Abramowitz–Stegun 7.1.26, as the detector evaluates it.
        let t = 1.0 / (1.0 + 0.3275911 * z.abs());
        let poly = t
            * (0.254829592
                + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
        let e = poly * (-z * z).exp();
        let erfc = if z >= 0.0 { e } else { 2.0 - e };
        -(0.5 * erfc).max(f64::MIN_POSITIVE).log10()
    }
}

/// The detector's phi and verdict equal the plain reference's bit for
/// bit on random schedules: regular, jittered, rapid and stalled beats,
/// out-of-order and repeated beats, more gaps than the window holds, and
/// queries at silence 0, exactly one heartbeat interval, exactly the
/// estimated mean and around it, and far past it, several between beats.
#[test]
fn detector_matches_the_plain_reference() {
    // Queries at exactly the mean above the interval floor, and queries
    // past each threshold, summed over all cases.
    let (mut at_mean, mut suspect, mut dead) = (0, 0, 0);
    check(256, |rng| {
        let base_gap = [HEARTBEAT_INTERVAL_MS, 300, 1_500, 2_000][rng.gen_range(0..4usize)];
        let jitter = if rng.gen_bool(0.5) {
            0
        } else {
            rng.gen_range(0u64..600)
        };
        let beats = rng.gen_range(0usize..200);
        let mut d = SuspicionDetector::default();
        let mut reference = ReferenceDetector::default();
        let mut now = rng.gen_range(0u64..5_000);
        let mut ask = |d: &SuspicionDetector, reference: &ReferenceDetector, t: u64| {
            let (got, want) = (d.phi(t), reference.phi(t));
            assert_eq!(got.to_bits(), want.to_bits(), "phi at {t}: {got} vs {want}");
            let verdict = if want >= PHI_DEAD {
                Verdict::Dead
            } else if want >= PHI_SUSPECT {
                Verdict::Suspect
            } else {
                Verdict::Alive
            };
            assert_eq!(d.verdict(t), verdict, "verdict at {t}");
            suspect += usize::from(verdict == Verdict::Suspect);
            dead += usize::from(verdict == Verdict::Dead);
        };
        for _ in 0..beats {
            let beat = match rng.gen_range(0u32..10) {
                // A stale packet from before the latest beat.
                0 => now.saturating_sub(rng.gen_range(1u64..3_000)),
                // A repeated beat: a zero gap.
                1 => now,
                // A stall, then the node comes back.
                2 => {
                    now += rng.gen_range(5_000u64..60_000);
                    now
                }
                _ => {
                    now += base_gap + rng.gen_range(0..=jitter);
                    now
                }
            };
            d.heartbeat(beat);
            reference.heartbeat(beat);
            let last = reference.beats.last().copied().unwrap_or(0);
            let (mean, _) = reference.estimate();
            if mean > HEARTBEAT_INTERVAL_MS as f64 && mean.fract() == 0.0 {
                at_mean += 1;
            }
            for t in [
                last,
                last + HEARTBEAT_INTERVAL_MS,
                last + HEARTBEAT_INTERVAL_MS + 1,
                last + mean.floor() as u64,
                last + mean.ceil() as u64 + 1,
                last + rng.gen_range(0u64..20_000),
                last + rng.gen_range(0u64..600_000),
                now.saturating_sub(rng.gen_range(0u64..2_000)),
            ] {
                if rng.gen_bool(0.7) {
                    ask(&d, &reference, t);
                }
            }
        }
        for _ in 0..4 {
            ask(&d, &reference, now + rng.gen_range(0u64..120_000));
        }
    });
    assert!(
        at_mean > 0 && suspect > 0 && dead > 0,
        "{at_mean} {suspect} {dead}"
    );
}
