//! The quality-path requirement.

/// The requirement a relay path must meet to count as a *quality path*
/// (paper §7.1: "VoIP user satisfaction demands RTT latency be below 300
/// ms and MOS be above 3.6"). Relay selection applies only the RTT part;
/// the MOS floor is [`SATISFACTION_MOS`](crate::emodel::SATISFACTION_MOS).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityRequirement {
    /// Maximum acceptable round-trip time in milliseconds.
    pub max_rtt_ms: f64,
}

impl Default for QualityRequirement {
    fn default() -> Self {
        QualityRequirement {
            max_rtt_ms: crate::budget::RTT_LIMIT_MS,
        }
    }
}

impl QualityRequirement {
    /// Whether a path with the given RTT satisfies the latency part of the
    /// requirement (the predicate ASAP's `select-close-relay()` applies).
    pub fn rtt_ok(&self, rtt_ms: f64) -> bool {
        rtt_ms < self.max_rtt_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_requirement_matches_paper() {
        let req = QualityRequirement::default();
        assert_eq!(req.max_rtt_ms, 300.0);
    }

    #[test]
    fn strict_inequality_on_rtt() {
        let req = QualityRequirement::default();
        assert!(req.rtt_ok(299.9));
        assert!(!req.rtt_ok(300.0));
    }
}
