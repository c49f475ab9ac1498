//! The graceful-degradation ladder.
//!
//! ASAP's relay selection assumes a healthy control plane: surrogates
//! answer close-set requests, so a caller can always intersect two fresh
//! close cluster sets. Under churn or partition that assumption fails,
//! and the worst possible response is to block a call on a control plane
//! that is not coming back. Instead, each caller cluster walks a ladder
//! of strictly cheaper service levels and climbs back up the moment the
//! control plane answers again:
//!
//! 1. [`DegradationLevel::FullAsap`] — fresh close sets, the paper's
//!    protocol, AS-aware selection.
//! 2. [`DegradationLevel::StaleCloseSet`] — a cached close set whose age
//!    is within [`STALE_SET_MAX_AGE_MS`]: AS-aware but possibly missing
//!    recent re-elections (bounded staleness).
//! 3. [`DegradationLevel::RandomProbe`] — MIX-style deterministic random
//!    relay probing ([`MIX_PROBES`] draws), AS-blind but requiring no
//!    surrogate at all.
//! 4. [`DegradationLevel::DirectOnly`] — the direct path even above
//!    `latT`: a degraded call beats a dropped one.
//!
//! Every downgrade and recovery is recorded so the soak harness can
//! assert that no cluster gets *stuck* degraded once faults clear.

/// Maximum age of a cached close set the stale rung still serves once
/// fresh fetches fail, virtual ms.
pub const STALE_SET_MAX_AGE_MS: u64 = 120_000;

/// Deterministic random relay probes the probing rung draws before
/// giving up and going direct.
pub const MIX_PROBES: usize = 16;

/// One rung of the service ladder, from full protocol to bare direct
/// path. Ordered: greater = more degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum DegradationLevel {
    /// Fresh close sets from live surrogates — the full protocol.
    #[default]
    FullAsap,
    /// A cached close set of bounded age; AS-aware but possibly stale.
    StaleCloseSet,
    /// MIX-style deterministic random probing; AS-blind, surrogate-free.
    RandomProbe,
    /// Direct path only, even above the latency threshold.
    DirectOnly,
}

impl DegradationLevel {
    /// A short stable label for reports and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            DegradationLevel::FullAsap => "full_asap",
            DegradationLevel::StaleCloseSet => "stale_close_set",
            DegradationLevel::RandomProbe => "random_probe",
            DegradationLevel::DirectOnly => "direct_only",
        }
    }
}

/// Per-cluster ladder state with transition accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradationLadder {
    level: DegradationLevel,
    /// Times the ladder moved to a more degraded level.
    pub downgrades: u64,
    /// Times the ladder recovered to the full protocol.
    pub recoveries: u64,
}

impl DegradationLadder {
    /// The current service level.
    pub fn level(&self) -> DegradationLevel {
        self.level
    }

    /// Records that a call was served at `level`. Moving to a more
    /// degraded level counts one downgrade; serving at
    /// [`DegradationLevel::FullAsap`] from any degraded level counts one
    /// recovery. Serving at a *less* degraded (but not full) level moves
    /// the ladder there without counting — partial recoveries only count
    /// once the full protocol works again.
    pub fn observe(&mut self, level: DegradationLevel) {
        if level == self.level {
            return;
        }
        if level > self.level {
            self.downgrades += 1;
        } else if level == DegradationLevel::FullAsap {
            self.recoveries += 1;
        }
        self.level = level;
    }

    /// Whether the ladder currently sits below the full protocol.
    pub fn is_degraded(&self) -> bool {
        self.level != DegradationLevel::FullAsap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_by_severity() {
        assert!(DegradationLevel::FullAsap < DegradationLevel::StaleCloseSet);
        assert!(DegradationLevel::StaleCloseSet < DegradationLevel::RandomProbe);
        assert!(DegradationLevel::RandomProbe < DegradationLevel::DirectOnly);
        assert_eq!(DegradationLevel::default(), DegradationLevel::FullAsap);
    }

    #[test]
    fn observe_counts_downgrades_and_recoveries() {
        let mut ladder = DegradationLadder::default();
        ladder.observe(DegradationLevel::FullAsap);
        assert_eq!((ladder.downgrades, ladder.recoveries), (0, 0));

        ladder.observe(DegradationLevel::StaleCloseSet);
        ladder.observe(DegradationLevel::DirectOnly);
        assert_eq!(ladder.downgrades, 2);
        assert!(ladder.is_degraded());

        // Partial recovery moves but does not count.
        ladder.observe(DegradationLevel::RandomProbe);
        assert_eq!(ladder.recoveries, 0);
        assert_eq!(ladder.level(), DegradationLevel::RandomProbe);

        ladder.observe(DegradationLevel::FullAsap);
        assert_eq!(ladder.recoveries, 1);
        assert!(!ladder.is_degraded());
    }

    #[test]
    fn repeated_same_level_is_a_no_op() {
        let mut ladder = DegradationLadder::default();
        ladder.observe(DegradationLevel::RandomProbe);
        let snapshot = ladder;
        ladder.observe(DegradationLevel::RandomProbe);
        assert_eq!(ladder, snapshot);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(DegradationLevel::FullAsap.label(), "full_asap");
        assert_eq!(DegradationLevel::DirectOnly.label(), "direct_only");
    }
}
