//! The ITU-T G.107 E-model: transmission rating `R` and MOS.
//!
//! The E-model combines additive impairments on a 0–100 "transmission
//! rating" scale:
//!
//! ```text
//! R = R₀ − Is − Id(Ta) − Ie,eff(Ppl) + A
//! ```
//!
//! * `R₀ − Is ≈ 93.2` with all default G.107 parameters (basic
//!   signal-to-noise minus simultaneous impairments);
//! * `Id(Ta)` is the delay impairment for one-way mouth-to-ear delay `Ta`,
//!   for which we use the widely adopted piecewise approximation of Cole &
//!   Rosenbluth (ACM CCR 2001): `Id = 0.024·Ta + 0.11·(Ta − 177.3)·H(Ta −
//!   177.3)`;
//! * `Ie,eff = Ie + (95 − Ie) · Ppl/(Ppl + Bpl)` is the effective
//!   equipment impairment under random packet loss `Ppl` (in percent);
//! * `A` is the advantage factor, fixed at 0 here (wire-bound telephony).
//!
//! `R` maps to MOS with the standard G.107 Annex B cubic.

use crate::codec::Codec;

/// Default `R₀ − Is` under G.107 default parameters.
pub const DEFAULT_BASE_R: f64 = 93.2;

/// An E-model evaluator for a fixed codec, with the G.107 default base
/// rating and no advantage factor.
///
/// ```
/// use asap_voip::{emodel::EModel, Codec};
/// let m = EModel::new(Codec::G711Plc);
/// // Near-zero delay, zero loss: R close to the 93.2 ceiling.
/// assert!((m.rating(0.0, 0.0) - 93.2).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EModel {
    codec: Codec,
}

impl EModel {
    /// Creates an evaluator for `codec`.
    pub fn new(codec: Codec) -> Self {
        EModel { codec }
    }

    /// Delay impairment `Id` for a one-way mouth-to-ear delay in
    /// milliseconds (Cole–Rosenbluth approximation).
    pub fn delay_impairment(one_way_ms: f64) -> f64 {
        let d = one_way_ms.max(0.0);
        let mut id = 0.024 * d;
        if d > 177.3 {
            id += 0.11 * (d - 177.3);
        }
        id
    }

    /// Effective equipment impairment `Ie,eff` for a packet loss
    /// probability `loss` in [0, 1].
    pub fn loss_impairment(&self, loss: f64) -> f64 {
        let ppl = (loss.clamp(0.0, 1.0)) * 100.0;
        let ie = self.codec.ie();
        ie + (95.0 - ie) * ppl / (ppl + self.codec.bpl())
    }

    /// Transmission rating `R` for a one-way delay (ms) and a packet loss
    /// probability in [0, 1]. Clamped to [0, 100].
    pub fn rating(&self, one_way_ms: f64, loss: f64) -> f64 {
        let r = DEFAULT_BASE_R - Self::delay_impairment(one_way_ms) - self.loss_impairment(loss);
        r.clamp(0.0, 100.0)
    }

    /// MOS for a one-way delay (ms) and loss probability, via
    /// [`r_to_mos`].
    pub fn mos(&self, one_way_ms: f64, loss: f64) -> f64 {
        r_to_mos(self.rating(one_way_ms, loss))
    }

    /// Convenience: MOS from a round-trip time, assuming symmetric paths
    /// (one-way delay = RTT / 2), as the paper does when scoring relay
    /// paths by their RTT.
    pub fn mos_from_rtt(&self, rtt_ms: f64, loss: f64) -> f64 {
        self.mos(rtt_ms / 2.0, loss)
    }
}

/// Maps a transmission rating `R ∈ [0, 100]` to MOS with the G.107 Annex B
/// cubic: `MOS = 1 + 0.035·R + 7·10⁻⁶·R·(R − 60)·(100 − R)`, clamped to
/// [1, 4.5].
pub fn r_to_mos(r: f64) -> f64 {
    let r = r.clamp(0.0, 100.0);
    let mos = 1.0 + 0.035 * r + 7.0e-6 * r * (r - 60.0) * (100.0 - r);
    mos.clamp(1.0, 4.5)
}

/// The MOS below which "listeners' dissatisfaction" begins (paper §2,
/// following P.800 usage): 3.6, corresponding to R ≈ 70.
pub const SATISFACTION_MOS: f64 = 3.6;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r_to_mos_anchor_points() {
        // G.107 Annex B anchors: R=0 → MOS 1, R=100 → MOS ≈ 4.5,
        // R=70 → MOS ≈ 3.6 ("some users dissatisfied" boundary).
        assert_eq!(r_to_mos(0.0), 1.0);
        assert!((r_to_mos(100.0) - 4.5).abs() < 0.01);
        assert!((r_to_mos(70.0) - 3.6).abs() < 0.02);
        assert!((r_to_mos(50.0) - 2.58).abs() < 0.02);
    }

    #[test]
    fn r_to_mos_is_monotone() {
        let mut last = 0.0;
        for i in 0..=100 {
            let mos = r_to_mos(i as f64);
            assert!(mos >= last, "MOS not monotone at R={i}");
            last = mos;
        }
    }

    #[test]
    fn delay_impairment_kinks_at_177ms() {
        assert_eq!(EModel::delay_impairment(0.0), 0.0);
        let below = EModel::delay_impairment(177.0);
        assert!((below - 0.024 * 177.0).abs() < 1e-9);
        let above = EModel::delay_impairment(277.3);
        assert!((above - (0.024 * 277.3 + 0.11 * 100.0)).abs() < 1e-9);
    }

    #[test]
    fn negative_delay_treated_as_zero() {
        assert_eq!(EModel::delay_impairment(-5.0), 0.0);
    }

    #[test]
    fn loss_impairment_zero_loss_is_ie() {
        let m = EModel::new(Codec::G729aVad);
        assert!((m.loss_impairment(0.0) - 11.0).abs() < 1e-9);
    }

    #[test]
    fn loss_impairment_saturates_at_95() {
        let m = EModel::new(Codec::G711);
        assert!(m.loss_impairment(1.0) < 95.0);
        assert!(m.loss_impairment(1.0) > 90.0);
        // Out-of-range input is clamped, not extrapolated.
        assert_eq!(m.loss_impairment(2.0), m.loss_impairment(1.0));
    }

    #[test]
    fn mos_decreases_with_delay_and_loss() {
        let m = EModel::new(Codec::G729aVad);
        assert!(m.mos(50.0, 0.005) > m.mos(250.0, 0.005));
        assert!(m.mos(50.0, 0.005) > m.mos(50.0, 0.05));
    }

    #[test]
    fn g711_without_plc_drops_roughly_one_mos_per_percent_loss() {
        // Paper §2 (citing Markopoulou et al. with Nortel data): for codecs
        // without loss concealment, MOS drops by roughly one unit per 1% of
        // packet loss. Our G.711 Bpl = 4.3 reproduces that slope for the
        // first few percent.
        let m = EModel::new(Codec::G711);
        let drop_1pct = m.mos(10.0, 0.0) - m.mos(10.0, 0.01);
        assert!(
            (0.5..=1.5).contains(&drop_1pct),
            "1% loss drop = {drop_1pct}"
        );
        let drop_2pct = m.mos(10.0, 0.0) - m.mos(10.0, 0.02);
        assert!(drop_2pct > drop_1pct);
    }

    #[test]
    fn paper_operating_point_g729a_vad() {
        // §7.2: G.729A+VAD, 0.5% loss. A path with RTT ≤ 115 ms (ASAP's
        // worst shortest-RTT) must score above 3.85; the paper reports all
        // ASAP/OPT sessions above 3.85.
        let m = EModel::new(Codec::G729aVad);
        assert!(
            m.mos_from_rtt(115.0, 0.005) > 3.85,
            "mos = {}",
            m.mos_from_rtt(115.0, 0.005)
        );
        // And a 300 ms-RTT path still satisfies (> 3.6)…
        assert!(m.mos_from_rtt(300.0, 0.005) > SATISFACTION_MOS);
        // …while a 1 s-RTT path is clearly unsatisfactory (< 2.9 per the
        // paper's baseline tail).
        assert!(m.mos_from_rtt(1000.0, 0.005) < 2.9);
    }

    #[test]
    fn rating_clamped_to_valid_range() {
        let m = EModel::new(Codec::G7231);
        assert_eq!(m.rating(10_000.0, 1.0), 0.0);
    }
}
