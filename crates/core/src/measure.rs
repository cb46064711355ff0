//! Hardened measurement channel: retry budget, per-iteration timeout
//! handling, and a circuit breaker over sample acquisition.
//!
//! The paper assumes every iteration yields a trustworthy response-time
//! measurement; the scenario engine can already *inject* measurement
//! faults (`blackout`, `timeout`). This module supplies the defensive
//! half: acquisition is wrapped in a deterministic retry budget, and a
//! circuit breaker trips after consecutive failed acquisitions so the
//! experiment loop can hold configuration and freeze learning until the
//! channel recovers (degraded mode).
//!
//! The breaker is the classic three-state machine:
//!
//! ```text
//!            TRIP_AFTER consecutive failures
//!   Closed ────────────────────────────────────▶ Open
//!     ▲                                           │ COOLDOWN intervals
//!     │ probe succeeds                            ▼
//!     └──────────────────────────────────────  HalfOpen
//!                       probe fails: back to Open
//! ```
//!
//! Everything is a pure function of the fault directives — no
//! wall-clock time, no OS randomness — so runs remain
//! bit-identical at any `RAC_THREADS` and the channel state can be
//! reconstructed exactly by checkpoint replay.

use std::sync::OnceLock;

use obs::Event;
use websim::PerfSample;

/// Circuit-breaker state. The channel is *degraded* whenever the state
/// is not [`Closed`](BreakerState::Closed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: samples flow, failures are counted.
    Closed,
    /// Tripped: acquisition is suspended for the cooldown.
    Open,
    /// Cooldown elapsed: the next interval performs a probe acquisition.
    HalfOpen,
}

/// A state-machine edge taken during one [`MeasurementChannel::acquire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerTransition {
    /// `Closed → Open`: too many consecutive failures.
    Tripped,
    /// `Open → HalfOpen`: cooldown elapsed, probing next.
    Probing,
    /// `HalfOpen → Closed`: probe succeeded, channel healthy again.
    Recovered,
    /// `HalfOpen → Open`: probe failed, breaker re-opened.
    Reopened,
}

/// Outcome of one interval's sample acquisition.
#[derive(Debug, Clone, PartialEq)]
pub struct Acquisition {
    /// The sample, when acquisition succeeded (possibly via retry).
    pub sample: Option<PerfSample>,
    /// Acquisition attempts made this interval (0 while `Open`).
    pub attempts: usize,
    /// Whether a retry recovered the sample after a first-attempt
    /// timeout.
    pub retried: bool,
    /// Consecutive failed acquisitions after this interval.
    pub failures: usize,
    /// Degraded intervals so far in the current outage (meaningful on
    /// [`BreakerTransition::Recovered`]).
    pub outage_iters: usize,
    /// Breaker edge taken this interval, if any.
    pub transition: Option<BreakerTransition>,
}

/// Wraps per-interval sample acquisition with a deterministic retry
/// budget and a circuit breaker.
///
/// The experiment loop feeds each interval's raw measurement through
/// [`acquire`](Self::acquire); scenario fault events steer the channel
/// via [`set_blackout`](Self::set_blackout) and
/// [`arm_timeout`](Self::arm_timeout).
///
/// # Example
///
/// ```
/// use rac::{BreakerState, MeasurementChannel};
/// use websim::PerfSample;
///
/// let mut ch = MeasurementChannel::default();
/// ch.set_blackout(true);
/// let raw = PerfSample::from_parts(vec![500.0; 10], 0, 60.0);
/// ch.acquire(raw); // fails: consecutive = 1
/// let acq = ch.acquire(raw); // fails again: breaker trips
/// assert!(acq.sample.is_none());
/// assert_eq!(ch.state(), BreakerState::Open);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MeasurementChannel {
    state: BreakerState,
    consecutive_failures: usize,
    cooldown_left: usize,
    outage_iters: usize,
    blackout: bool,
    timeout_next: bool,
}

impl Default for MeasurementChannel {
    /// A closed (healthy) channel.
    fn default() -> Self {
        MeasurementChannel {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            cooldown_left: 0,
            outage_iters: 0,
            blackout: false,
            timeout_next: false,
        }
    }
}

impl MeasurementChannel {
    /// Extra acquisition attempts allowed per interval after the first
    /// one fails. A single-timeout fault is absorbed by one retry; a
    /// blackout defeats any finite budget.
    pub const RETRY_BUDGET: usize = 1;
    /// Consecutive failed acquisitions (after retries) that trip the
    /// breaker from `Closed` to `Open`.
    pub const TRIP_AFTER: usize = 2;
    /// Intervals the breaker stays `Open` before probing (`HalfOpen`).
    pub const COOLDOWN: usize = 1;

    /// Current breaker state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether the channel is degraded (breaker not `Closed`). While
    /// degraded the experiment loop holds configuration and skips the
    /// tuner entirely.
    pub fn is_open(&self) -> bool {
        self.state != BreakerState::Closed
    }

    /// Starts (`true`) or lifts (`false`) a measurement blackout: while
    /// active every acquisition attempt fails, defeating the retry
    /// budget. Driven by the scenario `blackout` fault directive.
    pub fn set_blackout(&mut self, on: bool) {
        self.blackout = on;
    }

    /// Arms a one-shot acquisition timeout for the next interval: the
    /// first attempt fails and the retry succeeds. Driven by the
    /// scenario `timeout` fault directive.
    pub fn arm_timeout(&mut self) {
        self.timeout_next = true;
    }

    /// One attempt sequence under the current fault flags. Returns
    /// `(sample, attempts, retried)`.
    fn attempt(&self, raw: PerfSample, timeout: bool) -> (Option<PerfSample>, usize, bool) {
        if self.blackout {
            // Every attempt fails; the whole budget is burned.
            (None, 1 + Self::RETRY_BUDGET, false)
        } else if timeout {
            // The one-shot timeout fails the first attempt; the first
            // retry succeeds.
            (Some(raw), 2, true)
        } else {
            (Some(raw), 1, false)
        }
    }

    /// Runs one interval's acquisition through the breaker state
    /// machine. `raw` is the measurement the system produced this
    /// interval; it is discarded when acquisition fails or the breaker
    /// is `Open`.
    pub fn acquire(&mut self, raw: PerfSample) -> Acquisition {
        let timeout = std::mem::take(&mut self.timeout_next);
        match self.state {
            BreakerState::Closed => {
                let (sample, attempts, retried) = self.attempt(raw, timeout);
                if sample.is_some() {
                    self.consecutive_failures = 0;
                    self.done(sample, attempts, retried, None)
                } else {
                    self.consecutive_failures += 1;
                    if self.consecutive_failures >= Self::TRIP_AFTER {
                        self.state = BreakerState::Open;
                        self.cooldown_left = Self::COOLDOWN;
                        self.outage_iters = 1;
                        self.done(None, attempts, retried, Some(BreakerTransition::Tripped))
                    } else {
                        self.done(None, attempts, retried, None)
                    }
                }
            }
            BreakerState::Open => {
                self.outage_iters += 1;
                self.cooldown_left = self.cooldown_left.saturating_sub(1);
                let transition = if self.cooldown_left == 0 {
                    self.state = BreakerState::HalfOpen;
                    Some(BreakerTransition::Probing)
                } else {
                    None
                };
                self.done(None, 0, false, transition)
            }
            BreakerState::HalfOpen => {
                let (sample, attempts, retried) = self.attempt(raw, timeout);
                if sample.is_some() {
                    self.state = BreakerState::Closed;
                    self.consecutive_failures = 0;
                    let acq = self.done(
                        sample,
                        attempts,
                        retried,
                        Some(BreakerTransition::Recovered),
                    );
                    self.outage_iters = 0;
                    acq
                } else {
                    self.state = BreakerState::Open;
                    self.cooldown_left = Self::COOLDOWN;
                    self.consecutive_failures += 1;
                    self.outage_iters += 1;
                    self.done(None, attempts, retried, Some(BreakerTransition::Reopened))
                }
            }
        }
    }

    fn done(
        &self,
        sample: Option<PerfSample>,
        attempts: usize,
        retried: bool,
        transition: Option<BreakerTransition>,
    ) -> Acquisition {
        Acquisition {
            sample,
            attempts,
            retried,
            failures: self.consecutive_failures,
            outage_iters: self.outage_iters,
            transition,
        }
    }

    /// Serializes the full channel state (breaker position, fault
    /// flags) for checkpointing.
    pub fn encode(&self, w: &mut ckpt::wire::Writer) {
        w.put_usize(match self.state {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        });
        w.put_usize(self.consecutive_failures);
        w.put_usize(self.cooldown_left);
        w.put_usize(self.outage_iters);
        w.put_bool(self.blackout);
        w.put_bool(self.timeout_next);
    }

    /// Reconstructs a channel from [`encode`](Self::encode)d bytes,
    /// rejecting semantically impossible states.
    pub fn decode(r: &mut ckpt::wire::Reader<'_>) -> Result<Self, ckpt::CkptError> {
        let state = match r.get_usize()? {
            0 => BreakerState::Closed,
            1 => BreakerState::Open,
            2 => BreakerState::HalfOpen,
            n => {
                return Err(ckpt::CkptError::Corrupt {
                    detail: format!("breaker state {n} out of range"),
                })
            }
        };
        Ok(MeasurementChannel {
            state,
            consecutive_failures: r.get_usize()?,
            cooldown_left: r.get_usize()?,
            outage_iters: r.get_usize()?,
            blackout: r.get_bool()?,
            timeout_next: r.get_bool()?,
        })
    }
}

/// Resolved-once handles for the guardrail metrics.
pub(crate) struct GuardMetrics {
    pub trips: obs::Counter,
    pub recoveries: obs::Counter,
    pub reopens: obs::Counter,
    pub retries: obs::Counter,
    pub acquire_failures: obs::Counter,
    pub degraded_iterations: obs::Counter,
    pub rollbacks: obs::Counter,
    pub breaker_open: obs::Gauge,
}

impl GuardMetrics {
    pub(crate) fn get() -> &'static GuardMetrics {
        static METRICS: OnceLock<GuardMetrics> = OnceLock::new();
        METRICS.get_or_init(|| {
            let r = obs::Registry::global();
            GuardMetrics {
                trips: r.counter("rac_guard_trips_total"),
                recoveries: r.counter("rac_guard_recoveries_total"),
                reopens: r.counter("rac_guard_reopens_total"),
                retries: r.counter("rac_guard_retries_total"),
                acquire_failures: r.counter("rac_guard_acquire_failures_total"),
                degraded_iterations: r.counter("rac_guard_degraded_iterations_total"),
                rollbacks: r.counter("rac_guard_rollbacks_total"),
                breaker_open: r.gauge("rac_guard_breaker_open"),
            }
        })
    }
}

/// Records one acquisition's metrics and trace events. Called only from
/// *live* experiment loops — checkpoint replay reconstructs channel
/// state silently, exactly like it suppresses decision events.
pub(crate) fn note_acquisition(acq: &Acquisition, iteration: usize, degraded_now: bool) {
    if obs::enabled() {
        let m = GuardMetrics::get();
        if acq.retried {
            m.retries.inc();
        }
        if acq.attempts > 0 && acq.sample.is_none() {
            m.acquire_failures.inc();
        }
        if degraded_now {
            m.degraded_iterations.inc();
        }
        match acq.transition {
            Some(BreakerTransition::Tripped) => m.trips.inc(),
            Some(BreakerTransition::Recovered) => m.recoveries.inc(),
            Some(BreakerTransition::Reopened) => m.reopens.inc(),
            _ => {}
        }
        m.breaker_open.set(degraded_now as i64);
        // Mirror the breaker into the live /healthz cell (atomics only;
        // health state never feeds the trace).
        let health = obs::health::global();
        health.set_breaker_open(degraded_now);
        health.set_degraded(degraded_now);
        // Each measurement acquisition is forward motion even when the
        // iteration counter stalls inside a long interval, so beat the
        // supervisor heartbeat here too.
        health.beat();
    }
    let iter = (iteration + 1) as u64;
    if acq.retried {
        obs::trace::emit(|| {
            Event::new("guardrail")
                .field("iter", iter)
                .field("action", "retry")
                .field("detail", "timeout recovered by retry")
        });
    }
    if let Some(t) = acq.transition {
        obs::trace::emit(|| {
            let (action, detail) = match t {
                BreakerTransition::Tripped => (
                    "trip",
                    format!("{} consecutive acquisition failures", acq.failures),
                ),
                BreakerTransition::Probing => {
                    ("probe", "cooldown elapsed; probing channel".to_string())
                }
                BreakerTransition::Recovered => (
                    "recover",
                    format!(
                        "channel healthy after {} degraded intervals",
                        acq.outage_iters
                    ),
                ),
                BreakerTransition::Reopened => {
                    ("reopen", "probe failed; breaker reopened".to_string())
                }
            };
            Event::new("guardrail")
                .field("iter", iter)
                .field("action", action)
                .field("detail", detail)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(rt: f64) -> PerfSample {
        PerfSample::from_parts(vec![rt; 10], 0, 60.0)
    }

    #[test]
    fn healthy_channel_passes_samples_through() {
        let mut ch = MeasurementChannel::default();
        for _ in 0..5 {
            let acq = ch.acquire(raw(400.0));
            assert_eq!(acq.attempts, 1);
            assert!(!acq.retried);
            assert_eq!(acq.sample.unwrap().mean_response_ms, 400.0);
            assert_eq!(ch.state(), BreakerState::Closed);
        }
    }

    #[test]
    fn timeout_is_absorbed_by_one_retry() {
        let mut ch = MeasurementChannel::default();
        ch.arm_timeout();
        let acq = ch.acquire(raw(400.0));
        assert!(acq.retried);
        assert_eq!(acq.attempts, 2);
        assert!(acq.sample.is_some());
        assert_eq!(ch.state(), BreakerState::Closed);
        // The timeout was one-shot.
        let acq = ch.acquire(raw(400.0));
        assert!(!acq.retried);
        assert_eq!(acq.attempts, 1);
    }

    #[test]
    fn blackout_trips_probes_and_recovers() {
        let mut ch = MeasurementChannel::default(); // TRIP_AFTER = 2, COOLDOWN = 1
        ch.set_blackout(true);
        assert_eq!(ch.acquire(raw(1.0)).transition, None);
        let acq = ch.acquire(raw(1.0));
        assert_eq!(acq.transition, Some(BreakerTransition::Tripped));
        assert_eq!(ch.state(), BreakerState::Open);
        // Open: cooldown burns down, then probe is scheduled.
        let acq = ch.acquire(raw(1.0));
        assert_eq!(acq.attempts, 0);
        assert_eq!(acq.transition, Some(BreakerTransition::Probing));
        assert_eq!(ch.state(), BreakerState::HalfOpen);
        // Probe under blackout fails: back to Open.
        let acq = ch.acquire(raw(1.0));
        assert_eq!(acq.transition, Some(BreakerTransition::Reopened));
        assert_eq!(ch.state(), BreakerState::Open);
        // Fault clears; next probe succeeds.
        ch.set_blackout(false);
        let acq = ch.acquire(raw(1.0));
        assert_eq!(acq.transition, Some(BreakerTransition::Probing));
        let acq = ch.acquire(raw(2.0));
        assert_eq!(acq.transition, Some(BreakerTransition::Recovered));
        assert!(acq.outage_iters >= 3, "outage spanned {}", acq.outage_iters);
        assert_eq!(ch.state(), BreakerState::Closed);
        assert!(acq.sample.is_some());
    }

    #[test]
    fn channel_state_round_trips_through_wire() {
        let mut ch = MeasurementChannel::default();
        ch.set_blackout(true);
        ch.arm_timeout();
        ch.acquire(raw(1.0));
        ch.acquire(raw(1.0));
        ch.acquire(raw(1.0));
        let mut w = ckpt::wire::Writer::new();
        ch.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ckpt::wire::Reader::new(&bytes, "test");
        let back = MeasurementChannel::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, ch);
        // Re-encoding produces identical bytes.
        let mut w2 = ckpt::wire::Writer::new();
        back.encode(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn decode_rejects_impossible_state() {
        let mut w = ckpt::wire::Writer::new();
        w.put_usize(9); // invalid breaker discriminant
        w.put_usize(0);
        w.put_usize(0);
        w.put_usize(0);
        w.put_bool(false);
        w.put_bool(false);
        let bytes = w.into_bytes();
        let mut r = ckpt::wire::Reader::new(&bytes, "test");
        assert!(MeasurementChannel::decode(&mut r).is_err());
    }
}
