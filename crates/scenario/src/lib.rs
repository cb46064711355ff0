//! Scriptable time-varying workload and fault-injection scenarios.
//!
//! The paper evaluates RAC only under step changes between fixed system
//! contexts. This crate extends the testbed beyond those clean steps: a
//! *scenario* schedules events in simulated time against a running
//! experiment — workload-intensity curves (piecewise-linear ramps,
//! sinusoidal diurnal cycles, flash-crowd spikes), gradual TPC-W mix
//! drift, VM reallocation, and fault injections (tier stalls, latency
//! noise, measurement corruption, dropped intervals).
//!
//! Scenarios are authored in a small line-oriented text format (see
//! [`Scenario::parse`] and `scenarios/*.scn` at the repository root) and
//! compiled into a sorted [`Timeline`] of discrete events with
//! deterministic tie-breaking, mirroring `simkernel`'s event-queue
//! discipline. The experiment driver (`rac::Experiment::run_scenario`)
//! applies each event at the boundary of the measurement interval that
//! contains it, so a scenario run is a pure function of
//! (spec, scenario, seed) — bit-identical at any `RAC_THREADS`.
//!
//! # Example
//!
//! ```
//! use scenario::Scenario;
//!
//! let src = "\
//! name demo
//! duration 600s
//! interval 300s
//! ramp 0s..600s intensity 1 -> 2
//! ";
//! let scn = Scenario::parse(src).unwrap();
//! assert_eq!(scn.iterations(), 2);
//! let timeline = scn.compile();
//! assert!(!timeline.is_empty());
//! // Display round-trips through the parser.
//! assert_eq!(Scenario::parse(&scn.to_string()).unwrap(), scn);
//! ```

pub mod gen;
pub mod parse;
pub mod timeline;

use simkernel::SimDuration;
use tpcw::Mix;
use vmstack::ResourceLevel;

pub use gen::Difficulty;
pub use parse::{ParseError, ParseWarning};
pub use timeline::{EventKind, TimedEvent, Timeline};

/// A tier of the three-tier system, as targeted by fault injection.
/// (The web tier runs Apache; the app/db tier runs Tomcat + MySQL on
/// the reallocatable VM.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// The web (Apache) VM.
    Web,
    /// The app/db (Tomcat + MySQL) VM.
    AppDb,
}

impl Tier {
    /// The `.scn` keyword for this tier.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Web => "web",
            Tier::AppDb => "appdb",
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One timeline directive, as authored in a `.scn` file.
///
/// Times are offsets from the start of the measured run (warm-up
/// excluded). Intensity directives describe an *absolute* multiplier on
/// the scenario's base client population; where several overlap, the
/// one declared last wins (a spike overlays the curve beneath it).
#[derive(Debug, Clone, PartialEq)]
pub enum Directive {
    /// `at <t> intensity <v>` — step the intensity to `value`.
    IntensityAt {
        /// When the step applies.
        t: SimDuration,
        /// New intensity multiplier.
        value: f64,
    },
    /// `ramp <t0>..<t1> intensity <from> -> <to>` — piecewise-linear
    /// ramp; holds `to` after `t1`.
    IntensityRamp {
        /// Ramp start.
        t0: SimDuration,
        /// Ramp end.
        t1: SimDuration,
        /// Intensity at `t0`.
        from: f64,
        /// Intensity at `t1` (held afterwards).
        to: f64,
    },
    /// `sine <t0>..<t1> intensity <base> amp <amp> period <p>` —
    /// sinusoidal (diurnal) cycle around `base`; holds `base` after
    /// `t1`.
    IntensitySine {
        /// Cycle start.
        t0: SimDuration,
        /// Cycle end.
        t1: SimDuration,
        /// Mean intensity.
        base: f64,
        /// Peak deviation from `base`.
        amp: f64,
        /// Period of one full cycle.
        period: SimDuration,
    },
    /// `spike at <t> peak <v> rise <r> decay <d>` — flash crowd: a
    /// linear rise to `peak` over `rise`, then a linear decay back to
    /// whatever the underlying curve prescribes, over `decay`.
    IntensitySpike {
        /// Spike onset.
        t: SimDuration,
        /// Peak intensity multiplier.
        peak: f64,
        /// Rise time (0 = instantaneous).
        rise: SimDuration,
        /// Decay time back to the underlying curve.
        decay: SimDuration,
    },
    /// `at <t> mix <mix>` — hard mix switch (sessions restart).
    MixAt {
        /// When the switch applies.
        t: SimDuration,
        /// The new mix.
        mix: Mix,
    },
    /// `drift <t0>..<t1> mix <from> -> <to>` — gradual drift: the
    /// fleet's transition matrix is interpolated between the two mixes,
    /// preserving sessions.
    MixDrift {
        /// Drift start.
        t0: SimDuration,
        /// Drift end (fully `to` afterwards).
        t1: SimDuration,
        /// Starting mix.
        from: Mix,
        /// Final mix.
        to: Mix,
    },
    /// `at <t> level <1|2|3>` — VM reallocation of the app/db tier.
    LevelAt {
        /// When the reallocation applies.
        t: SimDuration,
        /// The new resource level.
        level: ResourceLevel,
    },
    /// `fault at <t> stall <tier> <dur>` — the tier's CPU freezes for
    /// `dur` of simulated time, then recovers.
    Stall {
        /// Stall onset.
        t: SimDuration,
        /// Which tier stalls.
        tier: Tier,
        /// Stall duration.
        dur: SimDuration,
    },
    /// `fault at <t> noise <factor> for <dur>` — multiplicative latency
    /// noise: every service demand is scaled by `factor` for `dur`.
    Noise {
        /// Noise onset.
        t: SimDuration,
        /// Demand multiplier (> 0; 1.0 is a no-op).
        factor: f64,
        /// How long the noise lasts.
        dur: SimDuration,
    },
    /// `fault at <t> outlier <factor>` — the measurement of the
    /// interval containing `t` is corrupted: reported response times
    /// are multiplied by `factor` (the system itself is unaffected).
    Outlier {
        /// Which interval's measurement to corrupt.
        t: SimDuration,
        /// Corruption multiplier (> 0).
        factor: f64,
    },
    /// `fault at <t> drop` — the measurement of the interval containing
    /// `t` is lost entirely (the tuner sees an empty sample).
    Drop {
        /// Which interval's measurement to drop.
        t: SimDuration,
    },
    /// `fault at <t> blackout for <dur>` — total measurement outage:
    /// every sample acquisition in `[t, t+dur)` fails, defeating the
    /// measurement channel's retry budget (the system itself keeps
    /// running).
    Blackout {
        /// Outage onset.
        t: SimDuration,
        /// How long acquisitions keep failing.
        dur: SimDuration,
    },
    /// `fault at <t> timeout` — the sample acquisition for the interval
    /// containing `t` times out once; a retry succeeds if the
    /// measurement channel still has retry budget.
    Timeout {
        /// Which interval's acquisition times out.
        t: SimDuration,
    },
    /// `tail at <t> think lognormal <sigma>` / `tail at <t> think off` —
    /// switch browser think times to a heavy-tailed log-normal of the
    /// same mean (σ controls tail weight) or back to the bit-exact
    /// exponential default.
    ThinkTail {
        /// When the switch applies.
        t: SimDuration,
        /// Log-normal σ, or `None` for the exponential default.
        sigma: Option<f64>,
    },
    /// `tail at <t> service lognormal <sigma>` / `tail at <t> service
    /// off` — multiply every request's service demands by a mean-1
    /// log-normal jitter (σ controls tail weight) or restore the
    /// bit-exact deterministic default.
    ServiceTail {
        /// When the switch applies.
        t: SimDuration,
        /// Log-normal σ, or `None` for no jitter.
        sigma: Option<f64>,
    },
}

impl Directive {
    /// The directive's start time — `t` for point directives, `t0` for
    /// windowed ones. Used by the parser to warn about directives that
    /// start at or past the scenario `duration` (which
    /// [`Scenario::compile`] drops).
    pub fn start(&self) -> SimDuration {
        match self {
            Directive::IntensityAt { t, .. }
            | Directive::IntensitySpike { t, .. }
            | Directive::MixAt { t, .. }
            | Directive::LevelAt { t, .. }
            | Directive::Stall { t, .. }
            | Directive::Noise { t, .. }
            | Directive::Outlier { t, .. }
            | Directive::Drop { t }
            | Directive::Blackout { t, .. }
            | Directive::Timeout { t }
            | Directive::ThinkTail { t, .. }
            | Directive::ServiceTail { t, .. } => *t,
            Directive::IntensityRamp { t0, .. }
            | Directive::IntensitySine { t0, .. }
            | Directive::MixDrift { t0, .. } => *t0,
        }
    }
}

/// A parsed scenario: header (name, clock, base workload) plus timeline
/// directives. Build one with [`Scenario::parse`]; [`Scenario::compile`]
/// turns it into a discrete [`Timeline`].
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (used for output file names).
    pub name: String,
    /// Total measured simulated time (warm-up excluded).
    pub duration: SimDuration,
    /// Measurement-interval length; curves are sampled at interval
    /// boundaries.
    pub interval: SimDuration,
    /// Warm-up run before the first measured interval (default 600 s).
    pub warmup: SimDuration,
    /// Base client population (overrides the experiment spec when set).
    pub clients: Option<usize>,
    /// Starting traffic mix (default shopping).
    pub mix: Mix,
    /// Starting app/db resource level (default Level 1).
    pub level: ResourceLevel,
    /// RNG seed override for the run.
    pub seed: Option<u64>,
    /// Timeline directives in declaration order.
    pub directives: Vec<Directive>,
}

impl Scenario {
    /// Number of measurement iterations the scenario spans
    /// (`duration / interval`, rounded down; at least 1 and at most
    /// 100,000 by parser validation).
    pub fn iterations(&self) -> usize {
        (self.duration.as_micros() / self.interval.as_micros()) as usize
    }

    /// Returns a copy with every time (duration, interval, warm-up, and
    /// all directive times) scaled by `num/den` — the whole timeline
    /// keeps its shape relative to the interval grid. Used by the quick
    /// figure mode.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero or scaling collapses the interval to
    /// zero.
    pub fn scaled(&self, num: u64, den: u64) -> Scenario {
        assert!(den > 0, "scale denominator must be positive");
        let scale = |d: SimDuration| SimDuration::from_micros(d.as_micros() * num / den);
        let mut out = self.clone();
        out.duration = scale(out.duration);
        out.interval = scale(out.interval);
        out.warmup = scale(out.warmup);
        assert!(!out.interval.is_zero(), "scaled interval must be positive");
        for d in &mut out.directives {
            match d {
                Directive::IntensityAt { t, .. }
                | Directive::MixAt { t, .. }
                | Directive::LevelAt { t, .. }
                | Directive::Outlier { t, .. }
                | Directive::Drop { t }
                | Directive::Timeout { t }
                | Directive::ThinkTail { t, .. }
                | Directive::ServiceTail { t, .. } => *t = scale(*t),
                Directive::IntensityRamp { t0, t1, .. } | Directive::MixDrift { t0, t1, .. } => {
                    *t0 = scale(*t0);
                    *t1 = scale(*t1);
                    assert!(*t0 < *t1, "scaled range must keep t0 < t1");
                }
                Directive::IntensitySine { t0, t1, period, .. } => {
                    *t0 = scale(*t0);
                    *t1 = scale(*t1);
                    *period = scale(*period);
                    assert!(*t0 < *t1, "scaled range must keep t0 < t1");
                    assert!(!period.is_zero(), "scaled sine period must be positive");
                }
                Directive::IntensitySpike { t, rise, decay, .. } => {
                    *t = scale(*t);
                    *rise = scale(*rise);
                    *decay = scale(*decay);
                }
                Directive::Stall { t, dur, .. }
                | Directive::Noise { t, dur, .. }
                | Directive::Blackout { t, dur } => {
                    *t = scale(*t);
                    *dur = scale(*dur);
                }
            }
        }
        out
    }

    /// A 64-bit FNV-1a fingerprint of the scenario's canonical text
    /// form. `Display` round-trips losslessly through the parser, so
    /// two scenarios fingerprint equal exactly when every header and
    /// directive matches — which is what checkpoint files record to
    /// refuse resuming against a different timeline.
    ///
    /// # Example
    ///
    /// ```
    /// use scenario::Scenario;
    ///
    /// let a = Scenario::parse("name x\nduration 600s\ninterval 300s\n").unwrap();
    /// assert_eq!(a.fingerprint(), a.clone().fingerprint());
    /// assert_ne!(a.fingerprint(), a.scaled(1, 2).fingerprint());
    /// ```
    pub fn fingerprint(&self) -> u64 {
        simkernel::Fnv1a::new()
            .write(self.to_string().as_bytes())
            .finish()
    }

    /// The client population offered during each measurement iteration,
    /// given a base population — the intensity curve replayed over the
    /// interval grid. Useful for annotating figure CSVs.
    pub fn offered_clients(&self, base_clients: usize) -> Vec<usize> {
        let timeline = self.compile();
        let mut intensity = 1.0;
        let mut idx = 0;
        let mut out = Vec::with_capacity(self.iterations());
        for k in 0..self.iterations() {
            let start = SimDuration::from_micros(k as u64 * self.interval.as_micros());
            while let Some(ev) = timeline.events().get(idx) {
                if ev.t > start {
                    break;
                }
                if let EventKind::Intensity(v) = ev.kind {
                    intensity = v;
                }
                idx += 1;
            }
            out.push((((base_clients as f64) * intensity).round() as usize).max(1));
        }
        out
    }
}

/// The three scenarios bundled with the repository (`scenarios/*.scn`),
/// embedded so binaries and tests resolve them regardless of the
/// working directory.
pub mod bundled {
    /// Sinusoidal diurnal load cycle with a gradual mix drift.
    pub const DIURNAL: &str = include_str!("../../../scenarios/diurnal.scn");
    /// Flash crowd: sudden spike to ~2.75× load with slow decay.
    pub const FLASH_CROWD: &str = include_str!("../../../scenarios/flash-crowd.scn");
    /// Degradation: VM downgrade, tier stall, measurement faults.
    pub const DEGRADE: &str = include_str!("../../../scenarios/degrade.scn");

    /// All bundled scenarios as `(name, source)` pairs.
    pub fn all() -> [(&'static str, &'static str); 3] {
        [
            ("diurnal", DIURNAL),
            ("flash-crowd", FLASH_CROWD),
            ("degrade", DEGRADE),
        ]
    }

    /// Looks a bundled scenario up by name.
    pub fn by_name(name: &str) -> Option<&'static str> {
        all()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, src)| src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundled_scenarios_parse_and_compile() {
        for (name, src) in bundled::all() {
            let scn = Scenario::parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(scn.name, name);
            assert!(scn.iterations() >= 10, "{name} too short");
            let timeline = scn.compile();
            assert!(!timeline.is_empty(), "{name} compiles to no events");
            // Round trip through Display.
            let again = Scenario::parse(&scn.to_string()).unwrap();
            assert_eq!(again, scn, "{name} does not round-trip");
        }
    }

    #[test]
    fn bundled_lookup() {
        assert!(bundled::by_name("diurnal").is_some());
        assert!(bundled::by_name("nope").is_none());
    }

    #[test]
    fn scaled_preserves_iteration_count() {
        for (_, src) in bundled::all() {
            let scn = Scenario::parse(src).unwrap();
            let scaled = scn.scaled(1, 3);
            assert_eq!(scaled.iterations(), scn.iterations());
        }
    }

    #[test]
    fn offered_clients_follows_intensity() {
        let src = "\
name t
duration 900s
interval 300s
at 300s intensity 2
";
        let scn = Scenario::parse(src).unwrap();
        assert_eq!(scn.offered_clients(100), vec![100, 200, 200]);
    }

    #[test]
    #[should_panic(expected = "scaled interval must be positive")]
    fn collapsing_scale_panics() {
        let scn = Scenario::parse(bundled::DIURNAL).unwrap();
        let _ = scn.scaled(0, 1);
    }
}
