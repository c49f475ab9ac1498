//! Codec impairment parameters.

use std::fmt;

/// A narrowband speech codec with its E-model impairment parameters.
///
/// `Ie` is the equipment impairment factor (how much the codec itself
/// degrades quality at zero loss) and `Bpl` the packet-loss robustness
/// factor; both feed the effective equipment impairment
/// `Ie,eff = Ie + (95 − Ie) · Ppl / (Ppl + Bpl)` of ITU-T G.113 / G.107.
/// Values follow ITU-T G.113 Appendix I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Codec {
    /// G.711 (64 kbit/s PCM), no packet-loss concealment.
    G711,
    /// G.711 with packet-loss concealment.
    G711Plc,
    /// G.729 (8 kbit/s CS-ACELP).
    G729,
    /// G.729A with voice activity detection — the codec the ASAP paper
    /// fixes for its Fig. 15/16 MOS evaluation.
    G729aVad,
    /// G.723.1 (6.3 kbit/s MP-MLQ).
    G7231,
}

impl Codec {
    /// Equipment impairment factor `Ie` at zero packet loss.
    pub fn ie(self) -> f64 {
        match self {
            Codec::G711 | Codec::G711Plc => 0.0,
            Codec::G729 => 10.0,
            Codec::G729aVad => 11.0,
            Codec::G7231 => 15.0,
        }
    }

    /// Packet-loss robustness factor `Bpl` (higher = more robust), for
    /// random losses.
    pub fn bpl(self) -> f64 {
        match self {
            Codec::G711 => 4.3,
            Codec::G711Plc => 25.1,
            Codec::G729 => 19.0,
            Codec::G729aVad => 19.0,
            Codec::G7231 => 16.1,
        }
    }
}

impl fmt::Display for Codec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Codec::G711 => "G.711",
            Codec::G711Plc => "G.711+PLC",
            Codec::G729 => "G.729",
            Codec::G729aVad => "G.729A+VAD",
            Codec::G7231 => "G.723.1",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameters_match_g113() {
        assert_eq!(Codec::G711.ie(), 0.0);
        assert_eq!(Codec::G729aVad.ie(), 11.0);
        assert_eq!(Codec::G729aVad.bpl(), 19.0);
        assert_eq!(Codec::G7231.ie(), 15.0);
    }

    #[test]
    fn plc_makes_g711_more_loss_robust() {
        assert!(Codec::G711Plc.bpl() > Codec::G711.bpl());
    }

    #[test]
    fn display_names() {
        assert_eq!(Codec::G729aVad.to_string(), "G.729A+VAD");
    }
}
