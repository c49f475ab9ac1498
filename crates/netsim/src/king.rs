//! A King-style latency measurement front-end.
//!
//! The paper estimates inter-host latency with King (Gummadi et al.,
//! IMW'02), which triangulates through the hosts' DNS servers. King is
//! imperfect: in the paper's campaign only 1,498,749 of 2,130,140 delegate
//! pairs responded (~70%), and individual estimates carry noise. The ASAP
//! protocol must work from such *measurements*, not ground truth, so this
//! module wraps a [`NetModel`] with deterministic non-response and
//! multiplicative noise, and counts the probes issued (measurement probes
//! are part of the overhead story in Fig. 18).

use std::sync::atomic::{AtomicU64, Ordering};

use asap_cluster::Asn;

use crate::model::NetModel;

/// Probability that a measurement gets no response (the paper saw ~30%
/// of recursive DNS queries unanswered).
pub const NON_RESPONSE: f64 = 0.30;

/// Multiplicative noise half-width: a measurement is the true RTT scaled
/// by a factor uniform in `[1 − NOISE, 1 + NOISE]`.
pub const NOISE: f64 = 0.10;

/// A measuring wrapper over [`NetModel`].
///
/// Non-response and noise are deterministic per AS pair (a pair that does
/// not answer never answers during the period, like a DNS server that
/// rejects recursive queries), so retrying does not launder failures —
/// matching the paper's methodology of dropping unresponsive pairs.
#[derive(Debug)]
pub struct KingEstimator<'a> {
    model: &'a NetModel,
    seed: u64,
    probes: AtomicU64,
}

impl<'a> KingEstimator<'a> {
    /// Wraps `model` with measurement imperfections derived from `seed`.
    pub fn new(model: &'a NetModel, seed: u64) -> Self {
        KingEstimator {
            model,
            seed,
            probes: AtomicU64::new(0),
        }
    }

    /// The underlying ground-truth model.
    pub fn model(&self) -> &NetModel {
        self.model
    }

    /// Number of measurement probes issued so far.
    pub fn probes_issued(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Measures the AS-level RTT between `a` and `b`. Returns `None` when
    /// the pair is unroutable or does not respond to King probing.
    pub fn measure_rtt_ms(&self, a: Asn, b: Asn) -> Option<f64> {
        self.probes.fetch_add(1, Ordering::Relaxed);
        if self.pair_unit(a, b, 0x0DE5) < NON_RESPONSE {
            return None;
        }
        let true_rtt = self.model.as_rtt_ms(a, b)?;
        let u = self.pair_unit(a, b, 0x2013);
        Some(true_rtt * (1.0 + NOISE * (2.0 * u - 1.0)))
    }

    fn pair_unit(&self, a: Asn, b: Asn, salt: u64) -> f64 {
        let (x, y) = (a.0.min(b.0) as u64, a.0.max(b.0) as u64);
        let mut z =
            self.seed ^ salt ^ x.rotate_left(17) ^ y.rotate_left(39) ^ 0x9E37_79B9_7F4A_7C15;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{NetConfig, NetModel};
    use asap_topology::{InternetConfig, InternetGenerator};
    use std::sync::Arc;

    fn setup() -> NetModel {
        let net = Arc::new(InternetGenerator::new(InternetConfig::tiny(), 5).generate());
        NetModel::new(net, NetConfig::default(), 6)
    }

    #[test]
    fn measurement_is_deterministic() {
        let model = setup();
        let king = KingEstimator::new(&model, 1);
        let stubs = model.internet().stub_asns();
        assert_eq!(
            king.measure_rtt_ms(stubs[0], stubs[9]),
            king.measure_rtt_ms(stubs[0], stubs[9])
        );
    }

    #[test]
    fn noise_stays_within_bounds() {
        let model = setup();
        let king = KingEstimator::new(&model, 2);
        let stubs = model.internet().stub_asns();
        let mut answered = 0;
        for i in 1..40 {
            let (a, b) = (stubs[0], stubs[i]);
            let Some(measured) = king.measure_rtt_ms(a, b) else {
                continue;
            };
            answered += 1;
            let truth = model.as_rtt_ms(a, b).unwrap();
            assert!((measured / truth - 1.0).abs() <= NOISE + 1e-12);
        }
        assert!(answered > 0, "no pair answered");
    }

    #[test]
    fn non_response_rate_is_respected() {
        let model = setup();
        let king = KingEstimator::new(&model, 3);
        let stubs = model.internet().stub_asns();
        let mut missing = 0;
        let mut total = 0;
        for i in 0..stubs.len() {
            for j in (i + 1)..stubs.len().min(i + 10) {
                total += 1;
                if king.measure_rtt_ms(stubs[i], stubs[j]).is_none() {
                    missing += 1;
                }
            }
        }
        let frac = missing as f64 / total as f64;
        assert!((0.2..0.4).contains(&frac), "non-response fraction {frac}");
        assert_eq!(king.probes_issued(), total as u64);
    }

    #[test]
    fn unresponsive_pair_stays_unresponsive() {
        let model = setup();
        let king = KingEstimator::new(&model, 4);
        let stubs = model.internet().stub_asns();
        let silent: Vec<(Asn, Asn)> = (1..30)
            .map(|i| (stubs[0], stubs[i]))
            .filter(|&(a, b)| king.measure_rtt_ms(a, b).is_none())
            .collect();
        assert!(!silent.is_empty(), "no pair was silent");
        for (a, b) in silent {
            assert!(
                king.measure_rtt_ms(a, b).is_none(),
                "{a}-{b} answered on retry"
            );
        }
    }
}
