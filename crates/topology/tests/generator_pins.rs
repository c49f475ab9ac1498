//! Pins of the synthetic Internet the generator grows.
//!
//! Each world is hashed (64-bit FNV-1a) over its `edges()` in iteration
//! order, its `tiers` and the bits of its coordinates, and the digest must
//! equal its line in `generator_pins.txt`. Every routing tree, population
//! and experiment output is a function of these three, so a change to the
//! generator or to `AsGraph`'s adjacency order that must not move any
//! output leaves every pin as it is. One that moves a world on purpose
//! regenerates the pin with the command a mismatch prints, and says why.

use std::path::Path;

use asap_topology::{AsTier, EdgeKind, InternetConfig, InternetGenerator, SyntheticInternet};

/// `Scenario::build`'s generator seed for a scenario seed.
fn scenario_seed(seed: u64) -> u64 {
    seed ^ 0x7090
}

/// 64-bit FNV-1a over the edges in order, the tiers and the coordinate
/// bits.
fn digest(net: &SyntheticInternet) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (a, b, kind) in net.graph.edges() {
        feed(&a.0.to_le_bytes());
        feed(&b.0.to_le_bytes());
        feed(&[match kind {
            EdgeKind::ProviderToCustomer => 0,
            EdgeKind::CustomerToProvider => 1,
            EdgeKind::PeerToPeer => 2,
            EdgeKind::SiblingToSibling => 3,
        }]);
    }
    for tier in &net.tiers {
        feed(&[match tier {
            AsTier::Tier1 => 0,
            AsTier::Transit => 1,
            AsTier::Stub => 2,
        }]);
    }
    for &(x, y) in &net.coords {
        feed(&x.to_bits().to_le_bytes());
        feed(&y.to_bits().to_le_bytes());
    }
    h
}

/// The world `config` grows from generator seed `seed`, labelled for
/// [`check_pins`].
fn world(
    name: &'static str,
    seed: u64,
    config: InternetConfig,
) -> (&'static str, u64, SyntheticInternet) {
    (name, seed, InternetGenerator::new(config, seed).generate())
}

/// Checks each `(name, generator seed, world)` against its pin and fails
/// once, listing every mismatch with the command that regenerates it.
fn check_pins(worlds: impl IntoIterator<Item = (&'static str, u64, SyntheticInternet)>) {
    let pins_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/generator_pins.txt");
    let pins = std::fs::read_to_string(&pins_path).expect("read tests/generator_pins.txt");
    let mut mismatches = Vec::new();
    for (name, seed, net) in worlds {
        let key = format!("{name} {seed} ");
        let pinned = pins.lines().find(|l| l.starts_with(&key));
        let actual = format!("{key}{:#018x}", digest(&net));
        if pinned != Some(actual.as_str()) {
            let fix = match pinned {
                Some(_) => format!(
                    "sed -i 's/^{key}.*/{actual}/' crates/topology/tests/generator_pins.txt"
                ),
                None => format!("echo '{actual}' >> crates/topology/tests/generator_pins.txt"),
            };
            mismatches.push(format!("{name} seed {seed}: pinned {pinned:?}\n  {fix}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "generated worlds differ from their pins; if the change means to move them, \
         regenerate with\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn tiny_worlds_match_their_pins() {
    check_pins((0..16).map(|seed| world("tiny", seed, InternetConfig::tiny())));
}

/// The eval-scale world at the scenario seeds the experiments and the
/// benchmark use.
#[test]
fn default_worlds_match_their_pins() {
    check_pins(
        [1, 2, 3, 5, 7, 10, 11]
            .map(|seed| world("default", scenario_seed(seed), InternetConfig::default())),
    );
}

/// One-AS cores, the smallest pools: every extra provider draw repeats
/// the first, and with no transit the stubs draw from the clique alone.
#[test]
fn minimal_worlds_match_their_pins() {
    check_pins((0..8).flat_map(|seed| {
        [
            world(
                "minimal_transit",
                seed,
                InternetConfig {
                    tier1: 1,
                    transit: 1,
                    stubs: 1,
                },
            ),
            world(
                "minimal_stubs",
                seed,
                InternetConfig {
                    tier1: 1,
                    transit: 0,
                    stubs: 2,
                },
            ),
        ]
    }));
}

/// The paper-scale world, with the AS and link counts the ROADMAP quotes.
#[test]
fn paper_scale_world_matches_its_pin() {
    let paper = world("paper", scenario_seed(1), InternetConfig::paper_scale());
    assert_eq!(paper.2.graph.node_count(), 21_114);
    assert_eq!(paper.2.graph.edge_count(), 42_556);
    check_pins([paper]);
}
