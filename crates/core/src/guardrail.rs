//! Last-known-good rollback guardrail.
//!
//! Online exploration is the main barrier to deploying RL tuners: a
//! single bad action under heavy load can push the system into a
//! configuration it cannot learn its way out of quickly. The
//! [`RollbackGuard`] tracks the best SLA-satisfying configuration seen
//! so far and, when response time stays in *severe* violation (beyond
//! [`SEVERE_FACTOR`](RollbackGuard::SEVERE_FACTOR) × SLA) for
//! [`TRIP_AFTER`](RollbackGuard::TRIP_AFTER) consecutive iterations,
//! tells the agent to veto exploration in that direction and jump back
//! to the last-known-good state.
//!
//! Hysteresis keeps the guard from fighting normal learning: after a
//! rollback it holds off for [`HOLD`](RollbackGuard::HOLD) iterations,
//! so the restored configuration gets time to take effect and ordinary
//! (non-severe) SLA violations never trigger it at all.

/// What the guard wants done after observing one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardDecision {
    /// Nothing to do: keep learning normally.
    Observe,
    /// Restore the last-known-good lattice state and veto the action
    /// that led here.
    Rollback {
        /// Lattice state of the best SLA-satisfying config seen.
        state: usize,
    },
}

/// Tracks the best SLA-satisfying configuration and demands a rollback
/// when severe violations persist.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RollbackGuard {
    /// Best SLA-satisfying `(state, response_ms)` seen so far.
    lkg: Option<(usize, f64)>,
    /// Consecutive severe violations.
    severe_streak: usize,
    /// Remaining hysteresis iterations after a rollback.
    cooldown: usize,
}

impl RollbackGuard {
    /// A violation is *severe* when response time exceeds
    /// `SEVERE_FACTOR × SLA`.
    pub const SEVERE_FACTOR: f64 = 2.0;
    /// Consecutive severe violations that trigger a rollback.
    pub const TRIP_AFTER: usize = 3;
    /// Hysteresis: iterations after a rollback during which the guard
    /// stays quiet.
    pub const HOLD: usize = 6;
    /// Iterations an exploration veto stays in force.
    pub const VETO_TTL: u64 = 12;

    /// The best SLA-satisfying `(state, response_ms)` seen so far.
    pub fn last_known_good(&self) -> Option<(usize, f64)> {
        self.lkg
    }

    /// Current severe-violation streak (diagnostics).
    pub fn severe_streak(&self) -> usize {
        self.severe_streak
    }

    /// Observes one iteration: the lattice `state` the measurement was
    /// taken under and its mean response time against `sla_ms`.
    pub fn observe(&mut self, state: usize, rt_ms: f64, sla_ms: f64) -> GuardDecision {
        if rt_ms.is_finite() && rt_ms > 0.0 && rt_ms <= sla_ms {
            // SLA satisfied: remember the best config and clear the streak.
            if self.lkg.is_none_or(|(_, best)| rt_ms < best) {
                self.lkg = Some((state, rt_ms));
            }
            self.severe_streak = 0;
            self.cooldown = self.cooldown.saturating_sub(1);
            return GuardDecision::Observe;
        }
        if self.cooldown > 0 {
            // Hysteresis: the streak stays frozen while the hold is in
            // force, so a fresh run of severe violations is needed
            // before the guard can fire again.
            self.cooldown -= 1;
            self.severe_streak = 0;
            return GuardDecision::Observe;
        }
        if rt_ms.is_finite() && rt_ms > Self::SEVERE_FACTOR * sla_ms {
            self.severe_streak += 1;
        } else {
            // Mild violation or unusable sample: not the guard's business.
            self.severe_streak = 0;
            return GuardDecision::Observe;
        }
        if self.severe_streak < Self::TRIP_AFTER {
            return GuardDecision::Observe;
        }
        self.severe_streak = 0;
        match self.lkg {
            // Rolling back to the state we are already in would be a
            // no-op; leave recovery to learning (and the policy library).
            Some((lkg_state, _)) if lkg_state != state => {
                self.cooldown = Self::HOLD;
                GuardDecision::Rollback { state: lkg_state }
            }
            _ => GuardDecision::Observe,
        }
    }

    /// Serializes the guard for checkpointing.
    pub fn encode(&self, w: &mut ckpt::wire::Writer) {
        match self.lkg {
            Some((state, rt)) => {
                w.put_bool(true);
                w.put_usize(state);
                w.put_f64(rt);
            }
            None => w.put_bool(false),
        }
        w.put_usize(self.severe_streak);
        w.put_usize(self.cooldown);
    }

    /// Reconstructs a guard from [`encode`](Self::encode)d bytes.
    pub fn decode(r: &mut ckpt::wire::Reader<'_>) -> Result<Self, ckpt::CkptError> {
        let lkg = if r.get_bool()? {
            let state = r.get_usize()?;
            let rt = r.get_f64()?;
            if !rt.is_finite() || rt <= 0.0 {
                return Err(ckpt::CkptError::Corrupt {
                    detail: format!("last-known-good rt {rt} is impossible"),
                });
            }
            Some((state, rt))
        } else {
            None
        };
        Ok(RollbackGuard {
            lkg,
            severe_streak: r.get_usize()?,
            cooldown: r.get_usize()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SLA: f64 = 1_000.0;

    #[test]
    fn remembers_the_best_sla_satisfying_state() {
        let mut g = RollbackGuard::default();
        g.observe(3, 800.0, SLA);
        g.observe(5, 400.0, SLA);
        g.observe(2, 950.0, SLA);
        assert_eq!(g.last_known_good(), Some((5, 400.0)));
    }

    #[test]
    fn mild_violations_never_trigger() {
        let mut g = RollbackGuard::default();
        g.observe(5, 400.0, SLA);
        for _ in 0..50 {
            // Violating, but under the 2× severity bar.
            assert_eq!(g.observe(1, 1_500.0, SLA), GuardDecision::Observe);
        }
    }

    #[test]
    fn persistent_severe_violation_rolls_back() {
        let mut g = RollbackGuard::default(); // TRIP_AFTER = 3
        g.observe(5, 400.0, SLA);
        assert_eq!(g.observe(1, 3_000.0, SLA), GuardDecision::Observe);
        assert_eq!(g.observe(1, 3_000.0, SLA), GuardDecision::Observe);
        assert_eq!(
            g.observe(1, 3_000.0, SLA),
            GuardDecision::Rollback { state: 5 }
        );
    }

    #[test]
    fn hysteresis_holds_after_a_rollback() {
        let mut g = RollbackGuard::default(); // HOLD = 6
        g.observe(5, 400.0, SLA);
        for _ in 0..2 {
            g.observe(1, 3_000.0, SLA);
        }
        assert!(matches!(
            g.observe(1, 3_000.0, SLA),
            GuardDecision::Rollback { .. }
        ));
        // Still severe, but inside the hold window: quiet, and the
        // streak stays frozen.
        for _ in 0..6 {
            assert_eq!(g.observe(1, 3_000.0, SLA), GuardDecision::Observe);
        }
        // Hold expired: a *fresh* streak of TRIP_AFTER severe
        // violations is required before the guard fires again.
        assert_eq!(g.observe(1, 3_000.0, SLA), GuardDecision::Observe);
        assert_eq!(g.observe(1, 3_000.0, SLA), GuardDecision::Observe);
        assert!(matches!(
            g.observe(1, 3_000.0, SLA),
            GuardDecision::Rollback { .. }
        ));
    }

    #[test]
    fn no_rollback_without_a_known_good_state() {
        let mut g = RollbackGuard::default();
        for _ in 0..20 {
            assert_eq!(g.observe(1, 5_000.0, SLA), GuardDecision::Observe);
        }
    }

    #[test]
    fn no_rollback_onto_the_current_state() {
        let mut g = RollbackGuard::default();
        g.observe(5, 400.0, SLA);
        for _ in 0..20 {
            assert_eq!(g.observe(5, 3_000.0, SLA), GuardDecision::Observe);
        }
    }

    #[test]
    fn infinite_samples_reset_the_streak() {
        let mut g = RollbackGuard::default();
        g.observe(5, 400.0, SLA);
        g.observe(1, 3_000.0, SLA);
        g.observe(1, 3_000.0, SLA);
        g.observe(1, f64::INFINITY, SLA);
        // The dropped-sample INFINITY broke the streak.
        assert_eq!(g.observe(1, 3_000.0, SLA), GuardDecision::Observe);
    }

    #[test]
    fn guard_round_trips_through_wire() {
        let mut g = RollbackGuard::default();
        g.observe(5, 400.0, SLA);
        for _ in 0..3 {
            g.observe(1, 3_000.0, SLA);
        }
        g.observe(1, 3_000.0, SLA); // mid-hold, nonzero streak history
        let mut w = ckpt::wire::Writer::new();
        g.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ckpt::wire::Reader::new(&bytes, "test");
        let back = RollbackGuard::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, g);
        let mut w2 = ckpt::wire::Writer::new();
        back.encode(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn decode_rejects_impossible_lkg() {
        let mut w = ckpt::wire::Writer::new();
        w.put_bool(true);
        w.put_usize(0);
        w.put_f64(f64::NEG_INFINITY);
        w.put_usize(0);
        w.put_usize(0);
        let bytes = w.into_bytes();
        let mut r = ckpt::wire::Reader::new(&bytes, "test");
        assert!(RollbackGuard::decode(&mut r).is_err());
    }
}
