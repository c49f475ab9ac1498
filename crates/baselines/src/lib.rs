//! Baseline relay-selection methods for the ASAP evaluation.
//!
//! §7.1 of the paper compares five relay node selection methods:
//!
//! 1. **DEDI** — RON-like: a fixed set of dedicated relay nodes placed in
//!    the clusters whose ASes have the largest connection degrees
//!    ([`Dedi`]).
//! 2. **RAND** — SOSR-like: randomly chosen peer relays ([`RandSel`]).
//! 3. **MIX** — both dedicated and random relays ([`Mix`]).
//! 4. **ASAP** — the paper's contribution, implemented in `asap-core`
//!    (which plugs into the same [`RelaySelector`] trait).
//! 5. **OPT** — the offline optimum with all latency data on hand
//!    ([`Opt`]).
//!
//! §4 also discusses the **earliest-divergence** heuristic for finding
//! independent paths ([`EarliestDivergence`]) — implemented so the
//! evaluation can show why disjointness alone does not meet VoIP's
//! latency requirement.
//!
//! This crate also hosts the **Skype-like prober** ([`skype`]): a
//! behavioral model of Skype's AS-unaware relay hunting that regenerates
//! the four limits of §5 (suboptimal major paths, same-AS probing, long
//! stabilization / relay bounce, probing overhead).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dedi;
mod ed;
mod mix;
mod opt;
mod rand_sel;
#[cfg(test)]
mod reference;
mod selector;
pub mod skype;

pub use dedi::Dedi;
pub use ed::EarliestDivergence;
pub use mix::Mix;
pub use opt::Opt;
pub use rand_sel::RandSel;
pub use selector::{select_metered, RelayPath, RelaySelector, SelectionOutcome};
