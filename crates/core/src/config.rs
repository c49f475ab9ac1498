//! Protocol configuration.

use asap_netsim::capacity::CapacityConfig;

/// The ASAP protocol constants, with the values §6.2/§7.1 of the paper
/// recommends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsapConfig {
    /// `k` — AS-hop bound of the close-cluster-set BFS. The paper sets 4:
    /// ">90% of the sessions with direct IP routing RTTs below 300 ms
    /// have no more than 4 AS hops".
    pub k: usize,
    /// `latT` — the RTT threshold (ms) that prunes BFS expansion and
    /// defines a quality relay path ("close to 300 ms").
    pub lat_t_ms: f64,
    /// `lossT` — the loss-rate threshold that prunes BFS expansion.
    pub loss_t: f64,
    /// `sizeT` — if fewer one-hop relay IPs than this are found, two-hop
    /// selection starts (§7.1 sets 300).
    pub size_t: usize,
    /// Members served per surrogate: clusters elect
    /// `ceil(members / members_per_surrogate)` surrogates, so the few
    /// ~1,000-host clusters share their request load (§6.3).
    pub members_per_surrogate: usize,
    /// Per-host capacity bounds: relay-call slots, the surrogate
    /// request-rate budget with its bounded deadline-aware admission
    /// queue, and the hedged-fetch delay.
    pub capacity: CapacityConfig,
}

impl Default for AsapConfig {
    fn default() -> Self {
        AsapConfig {
            k: 4,
            lat_t_ms: 300.0,
            loss_t: 0.05,
            size_t: 300,
            members_per_surrogate: 300,
            capacity: CapacityConfig::default(),
        }
    }
}

impl AsapConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field: `k` must be ≥ 1,
    /// thresholds positive, `lossT` within (0, 1].
    pub fn validate(&self) -> Result<(), String> {
        if self.k == 0 {
            return Err("k must be at least 1 AS hop".into());
        }
        if !(self.lat_t_ms > 0.0 && self.lat_t_ms.is_finite()) {
            return Err("latT must be positive and finite".into());
        }
        if !(self.loss_t > 0.0 && self.loss_t <= 1.0) {
            return Err("lossT must be in (0, 1]".into());
        }
        if self.members_per_surrogate == 0 {
            return Err("members_per_surrogate must be at least 1".into());
        }
        self.capacity.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = AsapConfig::default();
        assert_eq!(c.k, 4);
        assert_eq!(c.lat_t_ms, 300.0);
        assert_eq!(c.size_t, 300);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_nonsense() {
        assert!(AsapConfig {
            k: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(AsapConfig {
            lat_t_ms: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(AsapConfig {
            loss_t: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(AsapConfig {
            loss_t: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn capacity_validation_flows_through() {
        // Zero capacity (no request budget) must be rejected at
        // construction, not misbehave at runtime.
        let mut config = AsapConfig::default();
        config.capacity.surrogate_budget = 0;
        assert!(config.validate().is_err());
        // Zero hedge delay likewise.
        let mut config = AsapConfig::default();
        config.capacity.hedge_delay_ms = 0;
        assert!(config.validate().is_err());
        // A disabled capacity model is still validated.
        let mut config = AsapConfig::default();
        config.capacity.enabled = false;
        config.capacity.queue_limit = 0;
        assert!(config.validate().is_err());
    }
}
