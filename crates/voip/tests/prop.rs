//! Seeded property tests for the E-model.

use asap_rng::check::check;
use asap_rng::StdRng;
use asap_voip::emodel::{r_to_mos, EModel};
use asap_voip::Codec;

fn arb_codec(rng: &mut StdRng) -> Codec {
    const CODECS: [Codec; 5] = [
        Codec::G711,
        Codec::G711Plc,
        Codec::G729,
        Codec::G729aVad,
        Codec::G7231,
    ];
    CODECS[rng.gen_range(0..CODECS.len())]
}

#[test]
fn mos_is_always_in_range() {
    check(256, |rng| {
        let codec = arb_codec(rng);
        let delay = rng.gen_range(0.0f64..5_000.0);
        let loss = rng.gen_range(0.0f64..1.0);
        let mos = EModel::new(codec).mos(delay, loss);
        assert!((1.0..=4.5).contains(&mos), "MOS {mos} out of range");
    });
}

#[test]
fn mos_monotone_in_delay() {
    check(256, |rng| {
        let codec = arb_codec(rng);
        let d1 = rng.gen_range(0.0f64..2_000.0);
        let d2 = rng.gen_range(0.0f64..2_000.0);
        let loss = rng.gen_range(0.0f64..0.5);
        let m = EModel::new(codec);
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        assert!(m.mos(lo, loss) >= m.mos(hi, loss) - 1e-12);
    });
}

#[test]
fn mos_monotone_in_loss() {
    check(256, |rng| {
        let codec = arb_codec(rng);
        let delay = rng.gen_range(0.0f64..2_000.0);
        let l1 = rng.gen_range(0.0f64..1.0);
        let l2 = rng.gen_range(0.0f64..1.0);
        let m = EModel::new(codec);
        let (lo, hi) = if l1 <= l2 { (l1, l2) } else { (l2, l1) };
        assert!(m.mos(delay, lo) >= m.mos(delay, hi) - 1e-12);
    });
}

#[test]
fn r_to_mos_monotone_and_clamped() {
    check(256, |rng| {
        let r1 = rng.gen_range(-50.0f64..150.0);
        let r2 = rng.gen_range(-50.0f64..150.0);
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        assert!(r_to_mos(lo) <= r_to_mos(hi) + 1e-12);
        assert!((1.0..=4.5).contains(&r_to_mos(r1)));
    });
}

#[test]
fn rtt_and_one_way_agree() {
    check(256, |rng| {
        let codec = arb_codec(rng);
        let rtt = rng.gen_range(0.0f64..2_000.0);
        let loss = rng.gen_range(0.0f64..0.5);
        let m = EModel::new(codec);
        assert_eq!(m.mos_from_rtt(rtt, loss), m.mos(rtt / 2.0, loss));
    });
}

#[test]
fn better_codec_never_hurts_at_zero_loss() {
    check(256, |rng| {
        let delay = rng.gen_range(0.0f64..1_000.0);
        // G.711 (Ie = 0) upper-bounds every other codec at zero loss.
        let g711 = EModel::new(Codec::G711).mos(delay, 0.0);
        for codec in [Codec::G729, Codec::G729aVad, Codec::G7231] {
            assert!(g711 >= EModel::new(codec).mos(delay, 0.0) - 1e-12);
        }
    });
}
