//! Per-host capacity modeling: relay-call slots and surrogate admission.
//!
//! The paper sizes clusters so "~1,000-host clusters share their request
//! load" (§6.3) and leans on ASAP's low probing overhead for
//! scalability, but nothing in the protocol *bounds* the work a single
//! host absorbs: a popular relay or a hot surrogate in a skewed caller
//! population saturates silently (the RON and SOSR experience). This
//! module provides the two bounded resources the protocol layer consults:
//!
//! * [`RelaySlots`] — concurrent relay-call slots per host, derived from
//!   nodal capability. Selection skips a relay that is
//!   [`RelaySlots::busy`], so the caller spills over to the next
//!   candidate. A call that starts on a path takes its slots with
//!   [`RelaySlots::force_acquire`], and the overshoot is reported so the
//!   runtime can treat the saturated relay like a crashed one.
//! * [`AdmissionQueue`] — a surrogate's bounded, deadline-aware request
//!   queue over a fixed request-rate budget. Offers are admitted
//!   immediately, queued behind a deterministic virtual service clock, or
//!   shed with a typed [`ShedCause`].
//!
//! Everything is plain arithmetic over the caller-supplied virtual
//! clock: same offer sequence ⇒ same verdict sequence, on every run.

/// Capacity/admission tunables, embedded in the protocol configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityConfig {
    /// Master switch: when `false` nothing is bounded (the pre-capacity
    /// behavior, kept for the regression guard in `overload_soak`).
    pub enabled: bool,
    /// Relay-call slots every host gets regardless of capability.
    pub relay_slots_base: u32,
    /// Extra relay-call slots per unit of nodal capability (capability
    /// is in [0, 1], so a host gets `base + floor(cap * this)` slots).
    pub relay_slots_per_capability: f64,
    /// Close-set requests a surrogate serves per budget window.
    pub surrogate_budget: u32,
    /// Length of the surrogate request-rate budget window, ms.
    pub budget_window_ms: u64,
    /// Maximum requests waiting in a surrogate's admission queue; an
    /// offer that would queue deeper is shed with
    /// [`ShedCause::QueueFull`].
    pub queue_limit: u32,
    /// Maximum time an admitted request may wait in the queue, ms; an
    /// offer that would wait longer is shed with
    /// [`ShedCause::DeadlineExceeded`].
    pub queue_deadline_ms: u64,
    /// Queue wait after which the requester hedges the fetch to a
    /// standby replica and takes the first answer, ms.
    pub hedge_delay_ms: u64,
}

impl Default for CapacityConfig {
    fn default() -> Self {
        CapacityConfig {
            enabled: true,
            relay_slots_base: 2,
            relay_slots_per_capability: 6.0,
            surrogate_budget: 64,
            budget_window_ms: 1_000,
            queue_limit: 32,
            queue_deadline_ms: 2_000,
            hedge_delay_ms: 300,
        }
    }
}

impl CapacityConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field. A disabled
    /// config is still validated: a nonsense value is a bug whether or
    /// not the switch is on.
    pub fn validate(&self) -> Result<(), String> {
        if self.relay_slots_base == 0 {
            return Err("relay slot base must be at least 1".into());
        }
        if !(self.relay_slots_per_capability >= 0.0 && self.relay_slots_per_capability.is_finite())
        {
            return Err("relay slots per capability must be finite and non-negative".into());
        }
        if self.surrogate_budget == 0 {
            return Err("surrogate request budget must be positive".into());
        }
        if self.budget_window_ms == 0 {
            return Err("budget window must be positive".into());
        }
        if self.queue_limit == 0 {
            return Err("admission queue limit must be positive".into());
        }
        if self.queue_deadline_ms == 0 {
            return Err("admission queue deadline must be positive".into());
        }
        if self.hedge_delay_ms == 0 {
            return Err("hedge delay must be positive".into());
        }
        Ok(())
    }

    /// Relay-call slots a host of the given nodal capability provides.
    pub fn relay_slots_for(&self, capability: f64) -> u32 {
        let extra = (capability.clamp(0.0, 1.0) * self.relay_slots_per_capability) as u32;
        self.relay_slots_base + extra
    }

    /// Virtual service time of one admitted request, ms (the budget
    /// spread evenly over its window, never zero).
    pub fn slot_interval_ms(&self) -> u64 {
        (self.budget_window_ms / u64::from(self.surrogate_budget)).max(1)
    }
}

/// Why an offered request was shed instead of served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedCause {
    /// The bounded queue already held `queue_limit` waiting requests.
    QueueFull,
    /// Serving the request would start after its queue deadline.
    DeadlineExceeded,
}

/// The verdict of one [`AdmissionQueue::offer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Served within the budget: `waited_ms` is the queue delay (0 =
    /// immediate), `depth` how many requests were already waiting.
    Admit {
        /// Virtual ms the request waits before being served.
        waited_ms: u64,
        /// Requests queued ahead of this one at offer time.
        depth: u32,
    },
    /// Shed: the caller must fall through its degradation ladder.
    Shed(ShedCause),
}

/// A surrogate's bounded, deadline-aware admission queue.
///
/// Modeled as a deterministic virtual service clock: each admitted
/// request occupies one service slot of
/// [`CapacityConfig::slot_interval_ms`]; the next free slot time is the
/// queue state. Depth, wait, and shed verdicts all derive from it, so
/// equal offer sequences produce equal verdicts — no wall clock, no
/// randomness.
#[derive(Debug, Clone)]
pub struct AdmissionQueue {
    slot_interval_ms: u64,
    queue_limit: u32,
    deadline_ms: u64,
    /// Virtual time the next admitted request would start service.
    next_free_ms: u64,
    /// High-water mark of observed queue depth.
    max_depth: u32,
}

impl AdmissionQueue {
    /// A fresh queue under `config`'s budget, limit, and deadline.
    pub fn new(config: &CapacityConfig) -> Self {
        AdmissionQueue {
            slot_interval_ms: config.slot_interval_ms(),
            queue_limit: config.queue_limit,
            deadline_ms: config.queue_deadline_ms,
            next_free_ms: 0,
            max_depth: 0,
        }
    }

    /// Offers one request at virtual time `now_ms` and returns the
    /// verdict. Admitted requests consume one service slot; shed
    /// requests consume nothing.
    pub fn offer(&mut self, now_ms: u64) -> Admission {
        let start = self.next_free_ms.max(now_ms);
        let waited_ms = start - now_ms;
        let depth = (waited_ms / self.slot_interval_ms) as u32;
        // A request that would miss its deadline is useless whether or
        // not the queue has room, so the deadline is diagnosed first;
        // the depth bound is the backstop for loose deadlines.
        if waited_ms > self.deadline_ms {
            return Admission::Shed(ShedCause::DeadlineExceeded);
        }
        if depth >= self.queue_limit {
            return Admission::Shed(ShedCause::QueueFull);
        }
        self.next_free_ms = start + self.slot_interval_ms;
        self.max_depth = self.max_depth.max(depth);
        Admission::Admit { waited_ms, depth }
    }

    /// Deepest queue ever observed by an admitted offer.
    pub fn max_depth(&self) -> u32 {
        self.max_depth
    }
}

/// Concurrent relay-call slots for a whole host population.
///
/// Slot limits derive from nodal capability via
/// [`CapacityConfig::relay_slots_for`]; occupancy is plain counters the
/// protocol layer acquires at call setup and releases at teardown or
/// failover.
#[derive(Debug, Clone)]
pub struct RelaySlots {
    limits: Vec<u32>,
    in_use: Vec<u32>,
    /// Highest occupancy any host reached (diagnoses force-acquire
    /// overshoot).
    max_in_use: u32,
}

impl RelaySlots {
    /// Builds the slot table from per-host capability scores.
    pub fn new(config: &CapacityConfig, capabilities: impl IntoIterator<Item = f64>) -> Self {
        let limits: Vec<u32> = capabilities
            .into_iter()
            .map(|c| config.relay_slots_for(c))
            .collect();
        let n = limits.len();
        RelaySlots {
            limits,
            in_use: vec![0; n],
            max_in_use: 0,
        }
    }

    /// Whether `host` has no free slot left.
    pub fn busy(&self, host: usize) -> bool {
        self.in_use[host] >= self.limits[host]
    }

    /// Takes a slot unconditionally (a call starting on a path, which
    /// may have found no free relay to spill to). Returns `true` when
    /// the host is now *over* its limit — the saturation signal the
    /// runtime treats like a crash.
    pub fn force_acquire(&mut self, host: usize) -> bool {
        self.in_use[host] += 1;
        self.max_in_use = self.max_in_use.max(self.in_use[host]);
        self.in_use[host] > self.limits[host]
    }

    /// Returns `host`'s slot (saturating; releasing an idle host is a
    /// no-op so teardown paths need not track acquisition precisely).
    pub fn release(&mut self, host: usize) {
        self.in_use[host] = self.in_use[host].saturating_sub(1);
    }

    /// Highest concurrent occupancy any host ever reached.
    pub fn max_in_use(&self) -> u32 {
        self.max_in_use
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_rng::check::{check, vec};

    fn tight() -> CapacityConfig {
        CapacityConfig {
            surrogate_budget: 4,
            budget_window_ms: 1_000, // 250 ms per request
            queue_limit: 3,
            queue_deadline_ms: 600,
            ..Default::default()
        }
    }

    #[test]
    fn validation_rejects_nonsense() {
        assert!(CapacityConfig::default().validate().is_ok());
        for bad in [
            CapacityConfig {
                relay_slots_base: 0,
                ..Default::default()
            },
            CapacityConfig {
                surrogate_budget: 0,
                ..Default::default()
            },
            CapacityConfig {
                budget_window_ms: 0,
                ..Default::default()
            },
            CapacityConfig {
                queue_limit: 0,
                ..Default::default()
            },
            CapacityConfig {
                queue_deadline_ms: 0,
                ..Default::default()
            },
            CapacityConfig {
                hedge_delay_ms: 0,
                ..Default::default()
            },
            CapacityConfig {
                relay_slots_per_capability: f64::NAN,
                ..Default::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should not validate");
        }
    }

    #[test]
    fn idle_queue_admits_immediately() {
        let mut q = AdmissionQueue::new(&tight());
        assert_eq!(
            q.offer(1_000),
            Admission::Admit {
                waited_ms: 0,
                depth: 0
            }
        );
    }

    #[test]
    fn burst_queues_then_sheds_on_deadline() {
        let mut q = AdmissionQueue::new(&tight());
        // 250 ms service time, 600 ms deadline: offers 0..=2 fit (waits
        // 0/250/500), offer 3 would wait 750 > 600.
        for i in 0..3 {
            match q.offer(0) {
                Admission::Admit { waited_ms, depth } => {
                    assert_eq!(waited_ms, 250 * i);
                    assert_eq!(depth, i as u32);
                }
                shed => panic!("offer {i} unexpectedly shed: {shed:?}"),
            }
        }
        assert_eq!(q.offer(0), Admission::Shed(ShedCause::DeadlineExceeded));
        // Shed offers consume nothing: after the backlog drains the queue
        // admits again.
        assert_eq!(
            q.offer(10_000),
            Admission::Admit {
                waited_ms: 0,
                depth: 0
            }
        );
    }

    #[test]
    fn queue_limit_binds_before_a_loose_deadline() {
        let config = CapacityConfig {
            queue_deadline_ms: 1_000_000,
            ..tight()
        };
        let mut q = AdmissionQueue::new(&config);
        let mut admitted = 0;
        let mut shed = 0;
        for _ in 0..20 {
            match q.offer(0) {
                Admission::Admit { depth, .. } => {
                    assert!(depth < config.queue_limit);
                    admitted += 1;
                }
                Admission::Shed(cause) => {
                    assert_eq!(cause, ShedCause::QueueFull);
                    shed += 1;
                }
            }
        }
        assert_eq!(admitted, config.queue_limit);
        assert_eq!(shed, 20 - admitted);
        assert!(q.max_depth() < config.queue_limit);
    }

    #[test]
    fn slots_fill_to_the_limit_then_turn_busy() {
        let config = CapacityConfig {
            relay_slots_base: 1,
            relay_slots_per_capability: 2.0,
            ..Default::default()
        };
        // capability 1.0 → 3 slots, capability 0.0 → 1 slot.
        let mut slots = RelaySlots::new(&config, [1.0, 0.0]);
        for _ in 0..3 {
            assert!(!slots.busy(0));
            assert!(!slots.force_acquire(0), "within the limit");
        }
        assert!(slots.busy(0));
        assert!(!slots.force_acquire(1));
        assert!(slots.busy(1));
        slots.release(0);
        assert!(!slots.busy(0), "a released slot is free again");
        assert!(!slots.force_acquire(0));
        assert!(slots.busy(0));
    }

    #[test]
    fn force_acquire_reports_saturation() {
        let config = CapacityConfig {
            relay_slots_base: 1,
            relay_slots_per_capability: 0.0,
            ..Default::default()
        };
        let mut slots = RelaySlots::new(&config, [0.5]);
        assert!(!slots.force_acquire(0), "within the limit");
        assert!(slots.force_acquire(0), "now over the limit");
        assert_eq!(slots.max_in_use(), 2);
        slots.release(0);
        slots.release(0);
        slots.release(0); // over-release is a no-op
        assert!(!slots.busy(0));
        assert!(!slots.force_acquire(0), "every slot was returned");
        assert_eq!(slots.max_in_use(), 2, "high-water marks persist");
    }

    /// Conservation: every offer is admitted (immediately or queued)
    /// or shed — and admitted waits respect both bounds.
    #[test]
    fn admission_conserves_offers() {
        check(256, |rng| {
            let budget = rng.gen_range(1u32..32);
            let window = rng.gen_range(1u64..5_000);
            let limit = rng.gen_range(1u32..16);
            let deadline = rng.gen_range(1u64..10_000);
            let gaps = vec(rng, 1..200, |rng| rng.gen_range(0u64..700));
            let config = CapacityConfig {
                surrogate_budget: budget,
                budget_window_ms: window,
                queue_limit: limit,
                queue_deadline_ms: deadline,
                ..Default::default()
            };
            let mut q = AdmissionQueue::new(&config);
            let (mut now, mut admitted, mut queued, mut shed) = (0u64, 0u64, 0u64, 0u64);
            for gap in &gaps {
                now += gap;
                match q.offer(now) {
                    Admission::Admit { waited_ms: 0, .. } => admitted += 1,
                    Admission::Admit { waited_ms, depth } => {
                        assert!(waited_ms <= deadline);
                        assert!(depth < limit);
                        queued += 1;
                    }
                    Admission::Shed(_) => shed += 1,
                }
            }
            assert_eq!(admitted + queued + shed, gaps.len() as u64);
            assert!(q.max_depth() < limit);
        });
    }

    /// Determinism: the same offer sequence yields the same verdicts.
    #[test]
    fn admission_is_deterministic() {
        check(256, |rng| {
            let gaps = vec(rng, 1..100, |rng| rng.gen_range(0u64..500));
            let config = tight();
            let run = || {
                let mut q = AdmissionQueue::new(&config);
                let mut now = 0u64;
                gaps.iter()
                    .map(|g| {
                        now += g;
                        q.offer(now)
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(run(), run());
        });
    }
}
