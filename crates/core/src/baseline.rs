//! The comparison tuners of Section 5.2: static default configuration
//! and the trial-and-error (one-parameter-at-a-time) method.

use websim::{Param, PerfSample, ServerConfig};

use crate::agent::Tuner;
use crate::context::ViolationDetector;
use crate::param::ConfigLattice;

/// The do-nothing baseline: the system stays at the Table-1 defaults.
///
/// # Example
///
/// ```
/// use rac::{StaticDefault, Tuner};
/// use websim::{PerfSample, ServerConfig};
///
/// let mut t = StaticDefault::new();
/// let s = PerfSample::from_parts(vec![1.0], 0, 1.0);
/// assert_eq!(t.next_config(&s), ServerConfig::default());
/// ```
#[derive(Debug, Clone, Default)]
pub struct StaticDefault;

impl StaticDefault {
    /// Creates the baseline.
    pub fn new() -> Self {
        StaticDefault
    }
}

impl Tuner for StaticDefault {
    fn name(&self) -> &str {
        "static default"
    }

    fn next_config(&mut self, _observed: &PerfSample) -> ServerConfig {
        ServerConfig::default()
    }
}

/// The trial-and-error method an administrator might use (Section 5.2):
/// tune one parameter at a time — sweep its candidate values for one
/// interval each, fix the best, move to the next parameter — assuming a
/// concave-upward effect of each parameter and independence between
/// them. Prone to local optima, as the paper observes.
///
/// Parameters are visited in rough order of expected impact
/// (`MaxClients` and `MaxThreads` first). When a sustained performance
/// shift is detected after the sweep finished (a context change), the
/// sweep restarts from the then-best configuration.
///
/// # Example
///
/// ```
/// use rac::{TrialAndError, Tuner};
/// use websim::PerfSample;
///
/// let mut t = TrialAndError::new(4);
/// let s = PerfSample::from_parts(vec![500.0; 5], 0, 300.0);
/// let cfg = t.next_config(&s); // starts probing MaxClients
/// assert_eq!(t.name(), "trial-and-error");
/// # let _ = cfg;
/// ```
#[derive(Debug, Clone)]
pub struct TrialAndError {
    lattice: ConfigLattice,
    /// Best configuration found so far (fixed parameters).
    best_config: ServerConfig,
    /// Index into `ORDER` of the parameter under test.
    param_pos: usize,
    /// Next candidate level to try for the current parameter.
    next_level: usize,
    /// Best (rt, level) observed for the current parameter.
    best_for_param: Option<(f64, usize)>,
    /// The level whose measurement we are waiting for.
    pending_level: Option<usize>,
    /// Set once all parameters have been processed.
    done: bool,
    detector: ViolationDetector,
}

impl TrialAndError {
    /// Impact-ordered parameter schedule.
    const ORDER: [Param; 8] = [
        Param::MaxClients,
        Param::MaxThreads,
        Param::KeepaliveTimeout,
        Param::SessionTimeout,
        Param::MinSpareServers,
        Param::MaxSpareServers,
        Param::MinSpareThreads,
        Param::MaxSpareThreads,
    ];

    /// Creates the tuner probing `levels` candidate values per
    /// parameter.
    ///
    /// # Panics
    ///
    /// Panics if `levels < 2`.
    pub fn new(levels: usize) -> Self {
        TrialAndError {
            lattice: ConfigLattice::new(levels),
            best_config: ServerConfig::default(),
            param_pos: 0,
            next_level: 0,
            best_for_param: None,
            pending_level: None,
            done: false,
            detector: ViolationDetector::default(),
        }
    }

    /// Returns `true` once every parameter has been tuned.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The best configuration found so far.
    pub fn best_config(&self) -> ServerConfig {
        self.best_config
    }

    fn candidate(&self, level: usize) -> ServerConfig {
        let p = Self::ORDER[self.param_pos];
        self.best_config
            .with(p, self.lattice.value_at(p, level))
            .expect("lattice values are in range")
    }

    fn restart(&mut self) {
        self.param_pos = 0;
        self.next_level = 0;
        self.best_for_param = None;
        self.pending_level = None;
        self.done = false;
    }

    /// Writes the tuner's complete sweep state into a snapshot. The
    /// parameter order is a compile-time constant, so only the cursor
    /// into it is serialized.
    pub fn save_state(&self, snap: &mut ckpt::SnapshotWriter) {
        snap.section(SECTION_TAE, |w| {
            w.put_usize(self.lattice.levels());
            crate::persist::encode_config(w, &self.best_config);
            w.put_usize(self.param_pos);
            w.put_usize(self.next_level);
            match self.best_for_param {
                Some((rt, level)) => {
                    w.put_bool(true);
                    w.put_f64(rt);
                    w.put_usize(level);
                }
                None => w.put_bool(false),
            }
            match self.pending_level {
                Some(level) => {
                    w.put_bool(true);
                    w.put_usize(level);
                }
                None => w.put_bool(false),
            }
            w.put_bool(self.done);
            self.detector.encode(w);
        });
    }

    /// Reconstructs a tuner from a snapshot written by
    /// [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// Returns a typed [`ckpt::CkptError`] when the section is missing,
    /// corrupt, or decodes to an impossible sweep position.
    pub fn restore(snap: &ckpt::Snapshot) -> Result<Self, ckpt::CkptError> {
        let corrupt = |detail: String| ckpt::CkptError::Corrupt { detail };
        let mut r = snap.section(SECTION_TAE)?;
        let levels = r.get_usize()?;
        if !(2..=64).contains(&levels) {
            return Err(corrupt(format!("lattice levels {levels} out of range")));
        }
        let best_config = crate::persist::decode_config(&mut r)?;
        let param_pos = r.get_usize()?;
        let next_level = r.get_usize()?;
        if param_pos >= Self::ORDER.len() || next_level > levels {
            return Err(corrupt(format!(
                "sweep cursor param {param_pos}/levels {next_level} out of range"
            )));
        }
        let best_for_param = if r.get_bool()? {
            let rt = r.get_f64()?;
            let level = r.get_usize()?;
            if level >= levels {
                return Err(corrupt(format!("best level {level} out of range")));
            }
            Some((rt, level))
        } else {
            None
        };
        let pending_level = if r.get_bool()? {
            let level = r.get_usize()?;
            if level >= levels {
                return Err(corrupt(format!("pending level {level} out of range")));
            }
            Some(level)
        } else {
            None
        };
        let done = r.get_bool()?;
        let detector = ViolationDetector::decode(&mut r)?;
        r.finish()?;
        Ok(TrialAndError {
            lattice: ConfigLattice::new(levels),
            best_config,
            param_pos,
            next_level,
            best_for_param,
            pending_level,
            done,
            detector,
        })
    }
}

/// Section name of a [`TrialAndError`] snapshot.
pub(crate) const SECTION_TAE: &str = "tae.state";

impl Tuner for TrialAndError {
    fn name(&self) -> &str {
        "trial-and-error"
    }

    fn next_config(&mut self, observed: &PerfSample) -> ServerConfig {
        let rt = observed.mean_response_ms;

        // Score the candidate we asked for last interval.
        if let Some(level) = self.pending_level.take() {
            let better = match self.best_for_param {
                Some((best_rt, _)) => rt < best_rt,
                None => true,
            };
            if better && rt.is_finite() {
                self.best_for_param = Some((rt, level));
            }
        }

        if self.done {
            // Keep watching for a context change; restart the sweep from
            // the current best when one is detected.
            if self.detector.observe(rt) {
                self.restart();
            } else {
                return self.best_config;
            }
        }

        let levels = self.lattice.levels();
        if self.next_level >= levels {
            // Current parameter finished: fix its best value.
            if let Some((_, best_level)) = self.best_for_param.take() {
                self.best_config = self.candidate(best_level);
            }
            self.param_pos += 1;
            self.next_level = 0;
            if self.param_pos >= Self::ORDER.len() {
                self.done = true;
                self.param_pos = 0;
                self.detector.reset();
                return self.best_config;
            }
        }

        // Probe the next candidate value.
        let level = self.next_level;
        self.next_level += 1;
        self.pending_level = Some(level);
        self.candidate(level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rt: f64) -> PerfSample {
        PerfSample::from_parts(vec![rt; 10], 0, 300.0)
    }

    /// Separable synthetic landscape where trial-and-error succeeds.
    fn separable(cfg: &ServerConfig) -> f64 {
        let m = cfg.max_clients() as f64;
        let t = cfg.max_threads() as f64;
        100.0 + 0.001 * (m - 402.0).powi(2) + 0.001 * (t - 203.0).powi(2)
    }

    /// Landscape with interacting parameters: the global optimum needs
    /// MaxClients and MaxThreads raised *together*; raising either alone
    /// makes things worse, so one-at-a-time tuning gets trapped.
    fn coupled(cfg: &ServerConfig) -> f64 {
        let m = cfg.max_clients() as f64 / 600.0;
        let t = cfg.max_threads() as f64 / 600.0;
        100.0 + 500.0 * (1.0 - m * t) + 300.0 * (m - t).abs()
    }

    fn run(tuner: &mut TrialAndError, landscape: fn(&ServerConfig) -> f64, iters: usize) -> f64 {
        let mut cfg = ServerConfig::default();
        for _ in 0..iters {
            cfg = tuner.next_config(&sample(landscape(&cfg)));
        }
        landscape(&tuner.best_config())
    }

    #[test]
    fn static_default_never_moves() {
        let mut t = StaticDefault::new();
        for rt in [10.0, 10_000.0, f64::INFINITY] {
            assert_eq!(t.next_config(&sample(rt)), ServerConfig::default());
        }
        assert_eq!(t.name(), "static default");
    }

    #[test]
    fn finds_optimum_on_separable_landscape() {
        let mut t = TrialAndError::new(4);
        run(&mut t, separable, 40);
        assert!(t.is_done());
        let best = t.best_config();
        assert_eq!(best.max_clients(), 402, "MaxClients not tuned: {best}");
        assert_eq!(best.max_threads(), 203, "MaxThreads not tuned: {best}");
    }

    #[test]
    fn probes_each_level_of_each_parameter_once() {
        let mut t = TrialAndError::new(3);
        let mut seen = Vec::new();
        let mut cfg = ServerConfig::default();
        for _ in 0..(8 * 3 + 2) {
            cfg = t.next_config(&sample(separable(&cfg)));
            seen.push(cfg);
        }
        assert!(t.is_done());
        // 24 probes then it settles.
        assert_eq!(seen[24], seen[25], "should be stable after the sweep");
    }

    #[test]
    fn stays_at_best_after_done() {
        let mut t = TrialAndError::new(3);
        run(&mut t, separable, 30);
        let best = t.best_config();
        for _ in 0..10 {
            let rt = separable(&best);
            assert_eq!(t.next_config(&sample(rt)), best);
        }
    }

    #[test]
    fn local_optimum_on_coupled_landscape() {
        // The globally best lattice point for the coupled landscape.
        let lattice = ConfigLattice::new(4);
        let mut global_best = f64::INFINITY;
        for s in 0..lattice.num_states() {
            global_best = global_best.min(coupled(&lattice.config_at(s)));
        }
        let mut t = TrialAndError::new(4);
        let achieved = run(&mut t, coupled, 40);
        assert!(
            achieved > global_best * 1.02,
            "one-at-a-time tuning should be trapped: {achieved} vs {global_best}"
        );
    }

    #[test]
    fn trial_and_error_round_trips_mid_sweep() {
        let mut t = TrialAndError::new(3);
        let mut cfg = ServerConfig::default();
        for _ in 0..7 {
            cfg = t.next_config(&sample(separable(&cfg))); // mid-parameter
        }
        let mut snap = ckpt::SnapshotWriter::new();
        t.save_state(&mut snap);
        let restored = ckpt::Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        let mut back = TrialAndError::restore(&restored).unwrap();
        // Both copies must make identical decisions from here on.
        for _ in 0..30 {
            let s = sample(separable(&cfg));
            let a = t.next_config(&s);
            assert_eq!(back.next_config(&s), a);
            cfg = a;
        }
        assert_eq!(back.is_done(), t.is_done());
        assert_eq!(back.best_config(), t.best_config());
    }

    #[test]
    fn trial_and_error_restore_rejects_bad_cursor() {
        let mut t = TrialAndError::new(3);
        t.param_pos = 99;
        let mut snap = ckpt::SnapshotWriter::new();
        t.save_state(&mut snap);
        let restored = ckpt::Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert!(matches!(
            TrialAndError::restore(&restored),
            Err(ckpt::CkptError::Corrupt { .. })
        ));
    }

    #[test]
    fn restarts_after_context_change() {
        let mut t = TrialAndError::new(3);
        run(&mut t, separable, 30);
        assert!(t.is_done());
        // Sustained 10× degradation: the detector needs its window plus
        // s_thr consecutive violations.
        let mut cfg = t.best_config();
        for _ in 0..12 {
            cfg = t.next_config(&sample(separable(&cfg)));
        }
        for _ in 0..6 {
            cfg = t.next_config(&sample(separable(&cfg) * 10.0));
        }
        assert!(!t.is_done(), "sweep should restart after a context change");
    }
}
