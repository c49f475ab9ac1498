//! Workload generation for the ASAP VoIP peer-relay system.
//!
//! The paper's workload is a crawl of 269,413 Gnutella peer IPs, of which
//! 103,625 matched BGP prefixes and fell into 7,171 prefix clusters /
//! 1,461 ASes, with 100,000 random peer pairs as VoIP calling sessions.
//! This crate synthesizes the equivalent:
//!
//! * [`Population`] — peers spread over the synthetic Internet's stub
//!   ASes with heavy-tailed cluster sizes (90% of clusters hold ≤ 100
//!   hosts, a few reach ~1,000 — the §6.3 load-analysis statistics),
//!   per-host access delays drawn over [`ACCESS_MS`], and nodal
//!   information (bandwidth, uptime, processing power) for surrogate
//!   election. [`PopulationConfig`] sets only the size and the seed.
//! * [`sessions`] — seeded random session generation and the >300 ms
//!   "latent session" filter of §7.1.
//! * [`Scenario`] — the one-stop bundle (Internet + network model +
//!   population) every experiment, test, and example builds on.
//!
//! # Example
//!
//! ```
//! use asap_workload::{Scenario, ScenarioConfig};
//!
//! let scenario = Scenario::build(ScenarioConfig::tiny(), 42);
//! assert!(scenario.population.hosts().len() >= 200);
//! let sessions = asap_workload::sessions::generate(&scenario.population, 10, 1);
//! for s in &sessions {
//!     // Every generated session connects two distinct live hosts.
//!     assert_ne!(s.caller, s.callee);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod population;
mod scenario;
pub mod sessions;

pub use population::{
    AsGroup, Host, HostId, NodalInfo, Population, PopulationConfig, ACCESS_MS, MAX_PREFIXES_PER_AS,
};
pub use scenario::{Scenario, ScenarioConfig};
