//! VoIP speech-quality substrate: the ITU-T E-model, MOS, codec
//! impairment tables, and the G.114 delay limit.
//!
//! The ASAP paper evaluates relay paths by the Mean Opinion Score its
//! sessions would achieve: "The MOS quality metric can be quantitatively
//! characterized with the end-to-end delay and packet loss rate under the
//! ITU-E-Model when fixing other non-network factors. By fixing the codec
//! as G.729A+VAD, given the RTT and packet loss rate of a path, we use
//! ITU-E-Model to compute its MOS." (§7.2). This crate implements that
//! computation:
//!
//! * [`emodel`] — the G.107 transmission-rating computation `R = R₀ − Is −
//!   Id(Ta) − Ie,eff(Ppl) + A` and the R → MOS mapping.
//! * [`Codec`] — equipment-impairment (`Ie`) and loss-robustness (`Bpl`)
//!   parameters for the codecs the paper discusses (G.711, G.729, G.729A,
//!   G.723.1).
//! * [`budget`] — the G.114 one-way delay limit (150 ms) and the derived
//!   300 ms RTT threshold ASAP uses for *quality paths*.
//! * [`QualityRequirement`] — the quality-path RTT predicate relay
//!   selection applies.
//!
//! # Example
//!
//! ```
//! use asap_voip::{emodel::EModel, Codec};
//!
//! let model = EModel::new(Codec::G729aVad);
//! // A 100 ms one-way path with 0.5% loss is comfortably satisfactory…
//! let good = model.mos(100.0, 0.005);
//! assert!(good > 3.85);
//! // …while a 400 ms one-way path with the same loss is not.
//! let bad = model.mos(400.0, 0.005);
//! assert!(bad < 3.6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
mod codec;
pub mod emodel;
mod quality;

pub use codec::Codec;
pub use quality::QualityRequirement;
