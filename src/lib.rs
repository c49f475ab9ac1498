//! # ASAP — an AS-Aware Peer-Relay Protocol for High Quality VoIP
//!
//! A from-scratch reproduction of Ren, Guo & Zhang's ICDCS 2006 paper:
//! the ASAP protocol itself plus every substrate its trace-driven
//! evaluation needs (annotated AS graphs, BGP policy routing, Gao
//! relationship inference, an Internet latency/loss model, the ITU
//! E-model, peer populations, and the DEDI/RAND/MIX/OPT baselines and a
//! Skype-like prober it is compared against).
//!
//! This crate is a facade: it re-exports the workspace crates under short
//! module names and hosts the runnable examples and cross-crate
//! integration tests.
//!
//! ```
//! use asap::prelude::*;
//!
//! // Build a small world, boot ASAP, and place a call.
//! let scenario = Scenario::build(ScenarioConfig::tiny(), 1);
//! let system = AsapSystem::bootstrap(&scenario, AsapConfig::default());
//! let session = sessions::generate(&scenario.population, 1, 2)[0];
//! let outcome = system.call(session.caller, session.callee);
//! assert!(outcome.messages >= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use asap_baselines as baselines;
pub use asap_cluster as cluster;
pub use asap_core as core;
pub use asap_netsim as netsim;
pub use asap_topology as topology;
pub use asap_voip as voip;
pub use asap_workload as workload;

/// The most common imports, in one line.
pub mod prelude {
    pub use asap_baselines::{Dedi, Mix, Opt, RandSel, RelaySelector, SelectionOutcome};
    pub use asap_cluster::{Asn, ClusterId, Ip, Prefix};
    pub use asap_core::{AsapConfig, AsapSelector, AsapSystem};
    pub use asap_netsim::{NetConfig, NetModel};
    pub use asap_topology::{AsGraph, EdgeKind, InternetConfig, InternetGenerator};
    pub use asap_voip::{emodel::EModel, Codec, QualityRequirement};
    pub use asap_workload::{sessions, HostId, Population, Scenario, ScenarioConfig};
}
