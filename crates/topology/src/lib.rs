//! Annotated AS-graph substrate for the ASAP VoIP peer-relay system.
//!
//! ASAP (Ren, Guo, Zhang — ICDCS 2006) selects voice-packet relays by
//! reasoning over the Internet's Autonomous System topology: an *annotated
//! AS graph* whose edges carry the commercial relationship between
//! neighboring ASes (provider–customer, peer–peer, sibling–sibling). The
//! paper builds this graph from RouteViews / RIPE / CERNET BGP dumps using
//! Gao's relationship-inference algorithm. Since real 2005 BGP dumps are
//! not available here, this crate supplies a faithful synthetic pipeline:
//!
//! 1. [`InternetGenerator`] grows a tiered, power-law Internet-like AS
//!    topology (tier-1 clique, multi-homed transit and stub ASes, peering
//!    and sibling links) with per-AS geographic coordinates.
//!    [`InternetConfig`] sets the three tier sizes; the multi-homing,
//!    peering and sibling rates and the world size are constants of
//!    [`gen`].
//! 2. [`routing`] computes BGP policy routes (prefer customer > peer >
//!    provider, then shortest AS path) — the *direct IP routing paths*
//!    whose latency tail motivates relay selection.
//! 3. [`rib`] announces prefixes and records the AS paths seen from
//!    vantage-point ASes, emulating a RouteViews RIB dump.
//! 4. [`gao`] runs Gao's inference algorithm over those AS paths to recover
//!    an annotated graph, exactly as the paper's bootstrap nodes would.
//! 5. [`valley`] provides the valley-free path automaton and the bounded
//!    breadth-first searches that `construct-close-cluster-set()` relies on.
//!
//! # Example
//!
//! ```
//! use asap_topology::{AsGraph, EdgeKind, valley};
//! use asap_cluster::Asn;
//!
//! let mut g = AsGraph::new();
//! // AS1 is AS2's provider; AS2 and AS3 peer; AS3 is AS4's provider.
//! g.add_edge(Asn(1), Asn(2), EdgeKind::ProviderToCustomer);
//! g.add_edge(Asn(2), Asn(3), EdgeKind::PeerToPeer);
//! g.add_edge(Asn(3), Asn(4), EdgeKind::ProviderToCustomer);
//!
//! // 2 → 3 → 4 climbs nothing, crosses one peering link, then descends:
//! // valley-free.
//! assert!(valley::is_valley_free(&g, &[Asn(2), Asn(3), Asn(4)]));
//! // 4 → 3 → 2 → 1 would make AS2 transit traffic between its peer and
//! // its provider: not valley-free.
//! assert!(!valley::is_valley_free(&g, &[Asn(4), Asn(3), Asn(2), Asn(1)]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gao;
pub mod gen;
mod graph;
pub mod rib;
pub mod routing;
pub mod valley;

pub use gen::{AsTier, GenError, InternetConfig, InternetGenerator, SyntheticInternet};
pub use graph::{AsGraph, EdgeKind};
