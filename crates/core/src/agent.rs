//! The RAC agent (Sections 3–4, Algorithm 3) and the `Tuner` interface.

use std::collections::{HashMap, VecDeque};
use std::sync::OnceLock;

use obs::Event;
use rl::{batch_value_sweep_report, Environment, QLearning, QTable, SweepReport};
use simkernel::Pcg64;
use websim::{PerfSample, ServerConfig};

use crate::action::Action;
use crate::context::{PolicyLibrary, ViolationDetector};
use crate::guardrail::{GuardDecision, RollbackGuard};
use crate::init::InitialPolicy;
use crate::mdp::{ConfigMdp, ALPHA, GAMMA, THETA};
use crate::measure::GuardMetrics;
use crate::param::ConfigLattice;
use crate::reward::SlaReward;

/// Typed constructor errors for [`RacAgent`], returned by
/// [`RacAgent::with_initial_policy`] and
/// [`RacAgent::try_with_policy_library`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AgentError {
    /// The initial policy was trained on a lattice of a different size
    /// than `settings.online_levels` implies.
    LatticeMismatch {
        /// States in the supplied policy's performance map.
        policy_states: usize,
        /// States in the agent's online lattice.
        lattice_states: usize,
    },
    /// A policy library was supplied with no entries.
    EmptyLibrary,
}

impl std::fmt::Display for AgentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AgentError::LatticeMismatch {
                policy_states,
                lattice_states,
            } => write!(
                f,
                "initial policy trained on a different lattice \
                 ({policy_states} states, online lattice has {lattice_states})"
            ),
            AgentError::EmptyLibrary => write!(f, "policy library must not be empty"),
        }
    }
}

impl std::error::Error for AgentError {}

/// Resolved-once handles for the agent's hot-path metrics (the
/// registry lock is only taken on first use).
struct AgentMetrics {
    iterations: obs::Counter,
    switches: obs::Counter,
    sweep_passes: obs::Counter,
    sweep_updates: obs::Counter,
    streak: obs::Gauge,
}

impl AgentMetrics {
    fn get() -> &'static AgentMetrics {
        static METRICS: OnceLock<AgentMetrics> = OnceLock::new();
        METRICS.get_or_init(|| {
            let r = obs::Registry::global();
            AgentMetrics {
                iterations: r.counter("rac_agent_iterations_total"),
                switches: r.counter("rac_agent_policy_switches_total"),
                sweep_passes: r.counter("rac_agent_sweep_passes_total"),
                sweep_updates: r.counter("rac_agent_sweep_updates_total"),
                streak: r.gauge("rac_agent_violation_streak"),
            }
        })
    }
}

/// Anything that can drive the configuration of a running web system:
/// the RAC agent and the baselines it is compared against.
///
/// The experiment runner calls [`next_config`](Tuner::next_config) once
/// per measurement interval with the performance observed under the
/// previously returned configuration (the first call observes the
/// system's starting configuration, [`ServerConfig::default`]).
pub trait Tuner {
    /// Short name used in figure legends.
    fn name(&self) -> &str;
    /// Decides the configuration for the next interval.
    fn next_config(&mut self, observed: &PerfSample) -> ServerConfig;
    /// Informs the tuner whether the measurement channel is degraded
    /// (circuit breaker open). While degraded the experiment loop holds
    /// configuration and does not call
    /// [`next_config`](Tuner::next_config); tuners that learn online
    /// use this to freeze exploration and suspend updates cleanly.
    /// Baselines ignore it.
    fn set_degraded(&mut self, _degraded: bool) {}
}

/// Cap on the sweep passes of each interval's batch retraining, which
/// otherwise runs to [`THETA`].
pub(crate) const BATCH_PASSES: usize = 6;

/// Hyper-parameters of the online RAC agent.
///
/// Defaults follow the paper: online ε = 0.05 and an SLA-referenced
/// reward. The agent learns with the paper's α = [`ALPHA`] and
/// γ = [`GAMMA`], and detects context changes with its
/// [`ViolationDetector`] constants.
#[derive(Debug, Clone, PartialEq)]
pub struct RacSettings {
    /// Grid points per parameter in the online lattice.
    pub online_levels: usize,
    /// SLA reference response time (ms).
    pub sla_ms: f64,
    /// Online exploration rate ε.
    pub epsilon: f64,
    /// Guard band (in reward units) for exploration: a random action is
    /// only taken among actions whose Q-value is within this margin of
    /// the best one, so a single exploratory step cannot walk into a
    /// configuration the value function already knows to be
    /// catastrophic. The paper's finer online granularity made random
    /// steps inherently small; on a coarse lattice the guard plays that
    /// role. `f64::INFINITY` disables guarding (classic ε-greedy).
    pub exploration_guard: f64,
    /// Whether online learning (measurement feedback + retraining) is
    /// enabled; disabling reproduces the "w/o online learning" agent of
    /// Figure 6, which follows its initial policy greedily.
    pub online_learning: bool,
    /// RNG seed for exploration.
    pub seed: u64,
}

impl Default for RacSettings {
    fn default() -> Self {
        RacSettings {
            online_levels: 4,
            sla_ms: 1_000.0,
            epsilon: 0.05,
            exploration_guard: 1.5,
            online_learning: true,
            seed: 7,
        }
    }
}

/// The RAC auto-configuration agent: performance monitor input, RL-based
/// decision maker, configuration controller output.
///
/// # Example
///
/// ```
/// use rac::{RacAgent, RacSettings, Tuner};
/// use websim::PerfSample;
///
/// let mut agent = RacAgent::new(RacSettings::default());
/// let observed = PerfSample::from_parts(vec![800.0; 10], 0, 300.0);
/// let next = agent.next_config(&observed);
/// println!("reconfigure to: {next}");
/// ```
#[derive(Debug, Clone)]
pub struct RacAgent {
    settings: RacSettings,
    lattice: ConfigLattice,
    mdp: ConfigMdp,
    qtable: QTable,
    rng: Pcg64,
    current_state: usize,
    last_action: usize,
    detector: ViolationDetector,
    library: Option<PolicyLibrary>,
    iterations: u64,
    switches: u64,
    /// Base predictions of the active initial policy (ms per state).
    predicted: Vec<f64>,
    /// States measured in the current context, overriding predictions.
    measured: HashMap<usize, f64>,
    /// EWMA multiplicative correction of `predicted` toward observed
    /// reality: offline training cannot anticipate the absolute level of
    /// every live context (e.g. session-store steady state), so the
    /// whole predicted map is rescaled as evidence accumulates — the
    /// paper's "interactions ... calibrate the mapping from
    /// configuration to performance".
    calibration: f64,
    /// Recent `(state, response_ms)` samples; after a policy switch the
    /// violation streak is replayed as measurements of the new context.
    recent: VecDeque<(usize, f64)>,
    /// Whether the measurement channel is degraded: exploration frozen,
    /// Q-updates suspended, configuration held.
    degraded: bool,
    /// Last-known-good rollback guardrail.
    guard: RollbackGuard,
    /// Exploration vetoes from rollbacks: `(state, action, expires_at)`
    /// where `expires_at` is the iteration count past which the veto
    /// lapses.
    vetoes: Vec<(usize, usize, u64)>,
}

impl RacAgent {
    /// Creates an agent with **no** initial policy (the "w/o policy
    /// initialization" configuration of Figure 7): Q-table and
    /// performance map start empty and everything must be learned
    /// online.
    pub fn new(settings: RacSettings) -> Self {
        let lattice = ConfigLattice::new(settings.online_levels);
        let reward = SlaReward::new(settings.sla_ms);
        let mdp = ConfigMdp::new(&lattice, reward);
        let qtable = QTable::new(lattice.num_states(), Action::COUNT);
        Self::assemble(settings, lattice, mdp, qtable, None)
    }

    /// Creates an agent bootstrapped from a single offline-trained
    /// policy (the "static initial policy" agent of Figure 9).
    ///
    /// # Errors
    ///
    /// Returns [`AgentError::LatticeMismatch`] when the policy's
    /// lattice size does not match `settings.online_levels`.
    pub fn with_initial_policy(
        settings: RacSettings,
        policy: &InitialPolicy,
    ) -> Result<Self, AgentError> {
        let lattice = ConfigLattice::new(settings.online_levels);
        let reward = SlaReward::new(settings.sla_ms);
        let mut mdp = ConfigMdp::new(&lattice, reward);
        if policy.perf_ms.len() != lattice.num_states() {
            return Err(AgentError::LatticeMismatch {
                policy_states: policy.perf_ms.len(),
                lattice_states: lattice.num_states(),
            });
        }
        mdp.set_perf_map(policy.perf_ms.iter().map(|&p| p as f64).collect());
        let mut qtable = QTable::new(lattice.num_states(), Action::COUNT);
        qtable.copy_from(&policy.qtable);
        Ok(Self::assemble(settings, lattice, mdp, qtable, None))
    }

    /// Creates an agent with a library of per-context policies and
    /// adaptive switching (the full RAC agent of Figures 5 and 10).
    ///
    /// The agent starts from the first library entry.
    ///
    /// # Errors
    ///
    /// Returns [`AgentError::EmptyLibrary`] for an empty library and
    /// [`AgentError::LatticeMismatch`] when its policies do not match
    /// the lattice.
    pub fn try_with_policy_library(
        settings: RacSettings,
        library: PolicyLibrary,
    ) -> Result<Self, AgentError> {
        let Some((_, first)) = library.iter().next() else {
            return Err(AgentError::EmptyLibrary);
        };
        let first = first.clone();
        let mut agent = Self::with_initial_policy(settings, &first)?;
        agent.library = Some(library);
        Ok(agent)
    }

    /// Panicking convenience wrapper over
    /// [`try_with_policy_library`](Self::try_with_policy_library).
    ///
    /// # Panics
    ///
    /// Panics if the library is empty or its policies do not match the
    /// lattice.
    pub fn with_policy_library(settings: RacSettings, library: PolicyLibrary) -> Self {
        Self::try_with_policy_library(settings, library).unwrap_or_else(|e| panic!("{e}"))
    }

    fn assemble(
        settings: RacSettings,
        lattice: ConfigLattice,
        mdp: ConfigMdp,
        qtable: QTable,
        library: Option<PolicyLibrary>,
    ) -> Self {
        let rng = Pcg64::seed_from_u64(settings.seed);
        let current_state = lattice.state_of(&ServerConfig::default());
        let predicted = mdp.perf_map().to_vec();
        RacAgent {
            settings,
            lattice,
            mdp,
            qtable,
            rng,
            current_state,
            last_action: Action::Keep.index(),
            detector: ViolationDetector::default(),
            library,
            iterations: 0,
            switches: 0,
            predicted,
            measured: HashMap::new(),
            calibration: 1.0,
            recent: VecDeque::with_capacity(8),
            degraded: false,
            guard: RollbackGuard::default(),
            vetoes: Vec::new(),
        }
    }

    /// The configuration the agent believes the system is running.
    pub fn current_config(&self) -> ServerConfig {
        self.lattice.config_at(self.current_state)
    }

    /// Number of decision iterations so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Number of policy switches performed (adaptive agents only).
    pub fn policy_switches(&self) -> u64 {
        self.switches
    }

    /// Whether the agent is holding in degraded mode (measurement
    /// channel breaker open).
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// The last-known-good rollback guardrail (diagnostics).
    pub fn guard(&self) -> &RollbackGuard {
        &self.guard
    }

    /// Whether exploring `action` from `state` is currently vetoed by a
    /// rollback.
    fn is_vetoed(&self, state: usize, action: usize) -> bool {
        self.vetoes
            .iter()
            .any(|&(s, a, _)| s == state && a == action)
    }

    /// Packages the agent's current learned state as an
    /// [`InitialPolicy`]: the online Q-table plus the performance map
    /// the agent is acting on (measured response times where available,
    /// calibrated predictions elsewhere).
    ///
    /// This is the donor side of cross-run policy transfer — a finished
    /// agent's `learned_policy()` can seed a fresh agent on the same
    /// lattice via [`with_initial_policy`](Self::with_initial_policy),
    /// generalizing the snapshot warm-start path to transfers that never
    /// touch disk. `fit.samples`/`samples` report how many lattice
    /// states were actually measured online; `passes` is 0 because no
    /// offline sweep produced this table.
    pub fn learned_policy(&self) -> InitialPolicy {
        let states = self.lattice.num_states();
        let mut perf_ms = Vec::with_capacity(states);
        for s in 0..states {
            let v = match self.measured.get(&s) {
                Some(&rt) => rt,
                None => self.predicted[s] * self.calibration,
            };
            perf_ms.push(v as f32);
        }
        InitialPolicy {
            qtable: self.qtable.clone(),
            perf_ms,
            fit: numerics::FitQuality {
                r_squared: 0.0,
                rmse: 0.0,
                samples: self.measured.len(),
            },
            samples: self.measured.len(),
            passes: 0,
        }
    }

    fn maybe_switch_policy(&mut self, measured_ms: f64) {
        let Some(library) = &self.library else {
            return;
        };
        if let Some(best) = library.best_match(self.current_state, measured_ms) {
            self.qtable.copy_from(&best.qtable);
            self.predicted = best.perf_ms.iter().map(|&p| p as f64).collect();
            self.calibration = 1.0;
            // Measurements from before the change no longer describe the
            // system; the violation streak that triggered the switch does.
            self.measured.clear();
            for &(state, rt) in &self.recent {
                self.measured.insert(state, rt);
            }
            self.switches += 1;
        }
    }

    /// Rebuilds the MDP's performance map: measured values where
    /// available, calibrated predictions elsewhere. The map stays in
    /// `f64` end to end — rounding the calibrated products through
    /// `f32` collapsed near-tied states and let the index tie-break
    /// flip the argmin whenever calibration ≠ 1.0.
    fn refresh_perf_map(&mut self) {
        let calib = self.calibration;
        let mut perf: Vec<f64> = self.predicted.iter().map(|&p| p * calib).collect();
        for (&s, &rt) in &self.measured {
            perf[s] = rt;
        }
        self.mdp.set_perf_map(perf);
    }

    /// Current multiplicative calibration of the predicted landscape
    /// (diagnostics; 1.0 means predictions are taken at face value).
    pub fn calibration(&self) -> f64 {
        self.calibration
    }

    /// ε-greedy with a guard band: exploration draws uniformly among
    /// actions whose Q-value is within `exploration_guard` of the best,
    /// so random steps never enter regions the table already values as
    /// disastrous.
    fn choose_action(&mut self, s: usize) -> usize {
        let epsilon = if self.settings.online_learning {
            self.settings.epsilon
        } else {
            0.0
        };
        let best = self.qtable.best_action(s);
        if epsilon <= 0.0 || !self.rng.chance(epsilon) {
            return best;
        }
        let floor = self.qtable.get(s, best) - self.settings.exploration_guard;
        let candidates: Vec<usize> = (0..self.qtable.actions())
            .filter(|&a| self.qtable.get(s, a) >= floor && !self.is_vetoed(s, a))
            .collect();
        if candidates.is_empty() {
            best
        } else {
            candidates[self.rng.below(candidates.len() as u64) as usize]
        }
    }

    /// Writes the agent's complete learned and tuner state into a
    /// snapshot: settings, Q-table, performance knowledge, detector,
    /// guardrail, RNG stream position, and whether the agent has a
    /// policy library. The library itself is immutable and large, so
    /// only its [`fingerprint`](PolicyLibrary::fingerprint) is recorded;
    /// whoever checkpoints the agent stores the library once, beside the
    /// snapshot. A [`restore`](Self::restore)d agent makes bit-identical
    /// decisions to one that was never serialized.
    pub fn save_state(&self, snap: &mut ckpt::SnapshotWriter) {
        snap.section(SECTION_SETTINGS, |w| {
            w.put_usize(self.settings.online_levels);
            w.put_f64(self.settings.sla_ms);
            w.put_f64(self.settings.epsilon);
            w.put_f64(self.settings.exploration_guard);
            w.put_bool(self.settings.online_learning);
            w.put_u64(self.settings.seed);
        });
        snap.section(SECTION_QTABLE, |w| {
            crate::persist::encode_qtable(w, &self.qtable);
        });
        snap.section(SECTION_STATE, |w| {
            w.put_u64(self.iterations);
            w.put_u64(self.switches);
            w.put_usize(self.current_state);
            w.put_usize(self.last_action);
            w.put_f64(self.calibration);
            w.put_usize(self.predicted.len());
            for &p in &self.predicted {
                w.put_f64(p);
            }
            // HashMap iteration order is unstable; sort so identical
            // agents encode to identical bytes.
            let mut measured: Vec<(usize, f64)> =
                self.measured.iter().map(|(&s, &rt)| (s, rt)).collect();
            measured.sort_unstable_by_key(|&(s, _)| s);
            w.put_usize(measured.len());
            for (s, rt) in measured {
                w.put_usize(s);
                w.put_f64(rt);
            }
            w.put_usize(self.recent.len());
            for &(s, rt) in &self.recent {
                w.put_usize(s);
                w.put_f64(rt);
            }
        });
        snap.section(SECTION_DETECTOR, |w| {
            self.detector.encode(w);
        });
        snap.section(SECTION_GUARD, |w| {
            w.put_bool(self.degraded);
            self.guard.encode(w);
            w.put_usize(self.vetoes.len());
            for &(s, a, exp) in &self.vetoes {
                w.put_usize(s);
                w.put_usize(a);
                w.put_u64(exp);
            }
        });
        snap.section(SECTION_RNG, |w| {
            for word in self.rng.state_words() {
                w.put_u64(word);
            }
        });
        snap.section(SECTION_LIBRARY_REF, |w| {
            w.put_bool(self.library.is_some());
            if let Some(library) = &self.library {
                w.put_u64(library.fingerprint());
            }
        });
    }

    /// Reconstructs an agent from a snapshot written by
    /// [`save_state`](Self::save_state), given the policy library the
    /// agent was saved with (`None` for an agent without one).
    ///
    /// # Errors
    ///
    /// Returns a typed [`ckpt::CkptError`] when a section is missing,
    /// fails its CRC, or decodes to values that violate the agent's
    /// invariants (out-of-range states/actions, mismatched table
    /// shapes, invalid hyper-parameters) — a CRC-valid but semantically
    /// impossible snapshot is rejected rather than trusted — and
    /// [`ckpt::CkptError::Mismatch`] when `library` is not the one the
    /// snapshot names.
    pub fn restore(
        snap: &ckpt::Snapshot,
        library: Option<PolicyLibrary>,
    ) -> Result<Self, ckpt::CkptError> {
        let corrupt = |detail: String| ckpt::CkptError::Corrupt { detail };

        let mut r = snap.section(SECTION_SETTINGS)?;
        let settings = RacSettings {
            online_levels: r.get_usize()?,
            sla_ms: r.get_f64()?,
            epsilon: r.get_f64()?,
            exploration_guard: r.get_f64()?,
            online_learning: r.get_bool()?,
            seed: r.get_u64()?,
        };
        r.finish()?;
        if settings.online_levels < 2 || settings.online_levels > 64 {
            return Err(corrupt(format!(
                "online_levels {} out of range",
                settings.online_levels
            )));
        }
        if settings.sla_ms.is_nan() || settings.sla_ms <= 0.0 {
            return Err(corrupt(format!(
                "sla_ms {} must be positive",
                settings.sla_ms
            )));
        }
        if settings.epsilon.is_nan() || settings.epsilon < 0.0 || settings.epsilon > 1.0 {
            return Err(corrupt(format!(
                "epsilon {} out of [0, 1]",
                settings.epsilon
            )));
        }

        let lattice = ConfigLattice::new(settings.online_levels);
        let states = lattice.num_states();
        let reward = SlaReward::new(settings.sla_ms);
        let mdp = ConfigMdp::new(&lattice, reward);

        let mut r = snap.section(SECTION_QTABLE)?;
        let qtable = crate::persist::decode_qtable(&mut r, states, Action::COUNT)?;
        r.finish()?;

        let mut r = snap.section(SECTION_STATE)?;
        let iterations = r.get_u64()?;
        let switches = r.get_u64()?;
        let current_state = r.get_usize()?;
        let last_action = r.get_usize()?;
        let calibration = r.get_f64()?;
        if current_state >= states {
            return Err(corrupt(format!(
                "current state {current_state} out of {states} states"
            )));
        }
        if last_action >= Action::COUNT {
            return Err(corrupt(format!("action index {last_action} out of range")));
        }
        if !calibration.is_finite() || calibration <= 0.0 {
            return Err(corrupt(format!(
                "calibration {calibration} must be positive"
            )));
        }
        let predicted_len = r.get_usize()?;
        if predicted_len != states {
            return Err(ckpt::CkptError::Mismatch {
                detail: format!("predicted map has {predicted_len} states, lattice has {states}"),
            });
        }
        let mut predicted = Vec::with_capacity(states);
        for _ in 0..states {
            predicted.push(r.get_f64()?);
        }
        // Each measured and recent entry is a state and a response time.
        let measured_len = r.get_count(16)?;
        let mut measured = HashMap::with_capacity(measured_len);
        for _ in 0..measured_len {
            let s = r.get_usize()?;
            let rt = r.get_f64()?;
            if s >= states {
                return Err(corrupt(format!("measured state {s} out of range")));
            }
            measured.insert(s, rt);
        }
        let recent_len = r.get_count(16)?;
        let mut recent = VecDeque::with_capacity(recent_len.max(8));
        for _ in 0..recent_len {
            let s = r.get_usize()?;
            let rt = r.get_f64()?;
            if s >= states {
                return Err(corrupt(format!("recent state {s} out of range")));
            }
            recent.push_back((s, rt));
        }
        r.finish()?;

        let mut r = snap.section(SECTION_DETECTOR)?;
        let detector = ViolationDetector::decode(&mut r)?;
        r.finish()?;

        let mut r = snap.section(SECTION_GUARD)?;
        let degraded = r.get_bool()?;
        let guard = RollbackGuard::decode(&mut r)?;
        if let Some((s, _)) = guard.last_known_good() {
            if s >= states {
                return Err(corrupt(format!("last-known-good state {s} out of range")));
            }
        }
        // A veto is a state, an action and an expiry.
        let veto_len = r.get_count(24)?;
        let mut vetoes = Vec::with_capacity(veto_len);
        for _ in 0..veto_len {
            let s = r.get_usize()?;
            let a = r.get_usize()?;
            let exp = r.get_u64()?;
            if s >= states || a >= Action::COUNT {
                return Err(corrupt(format!("veto ({s}, {a}) out of range")));
            }
            vetoes.push((s, a, exp));
        }
        r.finish()?;

        let mut r = snap.section(SECTION_RNG)?;
        let mut words = [0u64; 4];
        for word in &mut words {
            *word = r.get_u64()?;
        }
        r.finish()?;
        let rng = Pcg64::from_state_words(words);

        let mut r = snap.section(SECTION_LIBRARY_REF)?;
        let saved = if r.get_bool()? {
            Some(r.get_u64()?)
        } else {
            None
        };
        r.finish()?;
        let given = library.as_ref().map(PolicyLibrary::fingerprint);
        if given != saved {
            let name = |fp: Option<u64>| match fp {
                Some(fp) => format!("policy library {fp:#018x}"),
                None => "no policy library".to_string(),
            };
            return Err(ckpt::CkptError::Mismatch {
                detail: format!(
                    "agent was checkpointed with {}, restore was given {}",
                    name(saved),
                    name(given)
                ),
            });
        }

        let mut agent = RacAgent {
            settings,
            lattice,
            mdp,
            qtable,
            rng,
            current_state,
            last_action,
            detector,
            library,
            iterations,
            switches,
            predicted,
            measured,
            calibration,
            recent,
            degraded,
            guard,
            vetoes,
        };
        agent.refresh_perf_map();
        Ok(agent)
    }
}

/// Section names of a [`RacAgent`] snapshot.
pub(crate) const SECTION_SETTINGS: &str = "rac.settings";
pub(crate) const SECTION_QTABLE: &str = "rac.qtable";
pub(crate) const SECTION_STATE: &str = "rac.state";
pub(crate) const SECTION_DETECTOR: &str = "rac.detector";
pub(crate) const SECTION_RNG: &str = "rac.rng";
pub(crate) const SECTION_LIBRARY_REF: &str = "rac.library_ref";
pub(crate) const SECTION_GUARD: &str = "rac.guard";

impl Tuner for RacAgent {
    fn name(&self) -> &str {
        match (&self.library, self.settings.online_learning) {
            (Some(_), _) => "RAC (adaptive init)",
            (None, true) => "RAC",
            (None, false) => "RAC (w/o online learning)",
        }
    }

    /// Enters or leaves degraded mode. Entering freezes exploration
    /// (ε is never consulted because decisions are suspended entirely),
    /// Q-updates, and configuration; leaving resumes exactly where the
    /// agent stopped — RNG stream, Q-table, and detector state are
    /// untouched by the outage.
    fn set_degraded(&mut self, degraded: bool) {
        self.degraded = degraded;
    }

    /// One iteration of Algorithm 3: record the measurement for the
    /// current configuration, detect context changes (switching initial
    /// policies if a library is available), retrain the Q-table in batch,
    /// and pick the next action ε-greedily.
    fn next_config(&mut self, observed: &PerfSample) -> ServerConfig {
        if self.degraded {
            // Measurement channel is open: the sample is untrustworthy.
            // Freeze everything — no exploration, no Q-update, no
            // detector/guard bookkeeping — and hold the configuration.
            return self.lattice.config_at(self.current_state);
        }
        self.iterations += 1;
        self.vetoes.retain(|&(_, _, exp)| exp > self.iterations);
        let measured = observed.mean_response_ms;
        let switches_before = self.switches;
        let mut sweep = SweepReport::default();

        if self.settings.online_learning {
            if measured.is_finite() && measured > 0.0 {
                // Recalibrate the predicted level when this state's value
                // was still a prediction (first visit in this context)
                // AND the error indicates a level mismatch rather than
                // local noise — small errors are handled precisely by
                // the measured-value layer, and folding them into the
                // global factor would churn the whole landscape.
                let base = self.predicted[self.current_state];
                if !self.measured.contains_key(&self.current_state) && base > 0.0 {
                    let target = measured / (base * self.calibration);
                    if !(0.5..=2.0).contains(&target) {
                        let corrected = self.calibration * target;
                        self.calibration =
                            (0.7 * self.calibration + 0.3 * corrected).clamp(0.1, 20.0);
                    }
                }
                // Update the performance knowledge for the current state,
                // keeping older information about every other state.
                self.measured.insert(self.current_state, measured);
                self.recent.push_back((self.current_state, measured));
                if self.recent.len() > ViolationDetector::S_THR {
                    self.recent.pop_front();
                }
            }

            // Context-change detection and adaptive policy switching.
            // The replacement policy is chosen against the violation
            // streak's mean, not one (possibly transient) sample.
            {
                let _detector = obs::Span::start("detector");
                if self.detector.observe(measured) {
                    let estimate = self.detector.last_streak_mean();
                    let estimate = if estimate.is_finite() {
                        estimate
                    } else {
                        measured
                    };
                    self.maybe_switch_policy(estimate);
                }
            }

            // Batch retraining over measured + calibrated-predicted
            // performance.
            let _sweep_span = obs::Span::start("sweep");
            self.refresh_perf_map();
            sweep = batch_value_sweep_report(
                &self.mdp,
                &mut self.qtable,
                &QLearning::new(ALPHA, GAMMA),
                THETA,
                BATCH_PASSES,
            );
        }

        // Guarded ε-greedy action selection from the (re)trained table.
        let mut action = self.choose_action(self.current_state);
        let mut next_state = self.mdp.transition(self.current_state, action);
        let reward = self.mdp.sla_reward().of_response_ms(measured);
        let guard_span = obs::Span::start("guardrail");
        let decision = self
            .guard
            .observe(self.current_state, measured, self.settings.sla_ms);
        let rolled_back = if let GuardDecision::Rollback { state } = decision {
            // Severe violations persisted: veto exploration of the step
            // that led here and restore the last-known-good config.
            self.vetoes.push((
                self.current_state,
                self.last_action,
                self.iterations + RollbackGuard::VETO_TTL,
            ));
            action = Action::Keep.index();
            next_state = state;
            true
        } else {
            false
        };
        if rolled_back {
            if obs::enabled() {
                GuardMetrics::get().rollbacks.inc();
            }
            obs::trace::emit(|| {
                Event::new("guardrail")
                    .field("iter", self.iterations)
                    .field("action", "rollback")
                    .field(
                        "detail",
                        format!(
                            "persistent severe violation; restoring last-known-good state \
                             {next_state}"
                        ),
                    )
            });
        }
        drop(guard_span);

        if obs::enabled() {
            let m = AgentMetrics::get();
            m.iterations.inc();
            m.switches.add(self.switches - switches_before);
            m.sweep_passes.add(sweep.passes as u64);
            m.sweep_updates.add(sweep.updates);
            m.streak.set(self.detector.streak() as i64);
        }
        obs::trace::emit(|| {
            let epsilon = if self.settings.online_learning {
                self.settings.epsilon
            } else {
                0.0
            };
            Event::new("decision")
                .field("iter", self.iterations)
                .field("rt_ms", measured)
                .field("p95_ms", observed.p95_response_ms)
                .field("tput_rps", observed.throughput_rps)
                .field("completed", observed.completed)
                .field("refused", observed.refused)
                .field("reward", reward)
                .field("epsilon", epsilon)
                .field("state", self.current_state as u64)
                .field(
                    "action",
                    if rolled_back {
                        "rollback".to_string()
                    } else {
                        Action::from_index(action).to_string()
                    },
                )
                .field("next_state", next_state as u64)
                .field("q_delta", sweep.max_delta)
                .field("sweep_passes", sweep.passes as u64)
                .field("streak", self.detector.streak() as u64)
                .field("switched", self.switches > switches_before)
                .field("switches", self.switches)
                .field("calibration", self.calibration)
        });

        self.last_action = action;
        self.current_state = next_state;
        self.lattice.config_at(next_state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SystemContext;
    use crate::init::{train_initial_policy, OfflineSettings};
    use tpcw::Mix;
    use vmstack::ResourceLevel;

    fn sample(rt_ms: f64) -> PerfSample {
        PerfSample::from_parts(vec![rt_ms; 20], 0, 300.0)
    }

    fn settings() -> RacSettings {
        RacSettings {
            online_levels: 3,
            seed: 11,
            ..RacSettings::default()
        }
    }

    /// A synthetic configuration→response-time landscape: a bowl over
    /// MaxClients and KeepAlive.
    fn landscape(cfg: &ServerConfig) -> f64 {
        let m = cfg.max_clients() as f64;
        let k = cfg.keepalive_timeout_secs() as f64;
        150.0 + 0.003 * (m - 600.0).powi(2) + 6.0 * (k - 11.0).powi(2)
    }

    fn drive(agent: &mut RacAgent, iterations: usize) -> Vec<f64> {
        let mut rts = Vec::new();
        let mut cfg = ServerConfig::default();
        for _ in 0..iterations {
            let rt = landscape(&cfg);
            rts.push(rt);
            cfg = agent.next_config(&sample(rt));
        }
        rts
    }

    #[test]
    fn uninitialized_agent_starts_at_default() {
        let agent = RacAgent::new(settings());
        let cfg = agent.current_config();
        // Nearest lattice point to the Table-1 default.
        assert_eq!(
            agent.lattice.state_of(&ServerConfig::default()),
            agent.current_state
        );
        assert!(cfg.max_clients() <= 600);
    }

    #[test]
    fn agent_improves_on_synthetic_landscape() {
        let mut agent = RacAgent::new(settings());
        let rts = drive(&mut agent, 120);
        let early: f64 = rts[..10].iter().sum::<f64>() / 10.0;
        let late: f64 = rts[rts.len() - 10..].iter().sum::<f64>() / 10.0;
        assert!(
            late < early,
            "no improvement: early {early:.0} late {late:.0}"
        );
        assert_eq!(agent.iterations(), 120);
    }

    #[test]
    fn initialized_agent_converges_fast() {
        let lattice = ConfigLattice::new(3);
        let policy = train_initial_policy(
            &lattice,
            SlaReward::new(1_000.0),
            OfflineSettings::default(),
            landscape,
        )
        .unwrap();
        let mut agent = RacAgent::with_initial_policy(settings(), &policy).unwrap();
        let rts = drive(&mut agent, 25);
        // With a good initial policy the agent reaches the bowl floor in
        // well under 25 iterations (paper's headline claim).
        let best = rts.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            rts[rts.len() - 1] < rts[0] || best < rts[0] * 0.6,
            "initialized agent failed to improve quickly: {rts:?}"
        );
    }

    #[test]
    fn without_online_learning_is_greedy_and_static_knowledge() {
        let lattice = ConfigLattice::new(3);
        let policy = train_initial_policy(
            &lattice,
            SlaReward::new(1_000.0),
            OfflineSettings::default(),
            landscape,
        )
        .unwrap();
        let s = RacSettings {
            online_learning: false,
            ..settings()
        };
        let mut a = RacAgent::with_initial_policy(s.clone(), &policy).unwrap();
        let mut b = RacAgent::with_initial_policy(s, &policy).unwrap();
        // Identical observations → identical (greedy, deterministic) paths.
        for i in 0..20 {
            let rt = 100.0 + i as f64;
            assert_eq!(a.next_config(&sample(rt)), b.next_config(&sample(rt)));
        }
        assert_eq!(a.name(), "RAC (w/o online learning)");
    }

    #[test]
    fn library_agent_switches_on_context_change() {
        let lattice = ConfigLattice::new(3);
        let reward = SlaReward::new(1_000.0);
        let fast =
            train_initial_policy(&lattice, reward, OfflineSettings::default(), landscape).unwrap();
        let slow = train_initial_policy(
            &lattice,
            reward,
            OfflineSettings::default(),
            |c: &ServerConfig| landscape(c) * 8.0,
        )
        .unwrap();
        let mut lib = PolicyLibrary::new();
        lib.insert(
            SystemContext::new(Mix::Shopping, ResourceLevel::Level1),
            fast,
        );
        lib.insert(
            SystemContext::new(Mix::Ordering, ResourceLevel::Level3),
            slow,
        );

        let mut agent = RacAgent::with_policy_library(settings(), lib);
        assert_eq!(agent.name(), "RAC (adaptive init)");
        // Steady fast context first…
        for _ in 0..12 {
            agent.next_config(&sample(150.0));
        }
        assert_eq!(agent.policy_switches(), 0);
        // …then an abrupt 8× degradation sustained long enough.
        for _ in 0..8 {
            agent.next_config(&sample(1_600.0));
        }
        assert!(agent.policy_switches() >= 1, "no policy switch detected");
    }

    #[test]
    fn lattice_mismatch_is_a_typed_error() {
        let lattice = ConfigLattice::new(4);
        let policy = train_initial_policy(
            &lattice,
            SlaReward::new(1_000.0),
            OfflineSettings::default(),
            |_: &ServerConfig| 100.0,
        )
        .unwrap();
        let err = RacAgent::with_initial_policy(settings(), &policy).unwrap_err();
        assert_eq!(
            err,
            AgentError::LatticeMismatch {
                policy_states: lattice.num_states(),
                lattice_states: ConfigLattice::new(3).num_states(),
            }
        );
        assert!(err.to_string().contains("different lattice"));
    }

    #[test]
    fn empty_library_is_a_typed_error() {
        let err = RacAgent::try_with_policy_library(settings(), PolicyLibrary::new()).unwrap_err();
        assert_eq!(err, AgentError::EmptyLibrary);
        assert!(err.to_string().contains("must not be empty"));
    }

    #[test]
    fn degraded_mode_holds_and_resumes_bit_identically() {
        let mut a = RacAgent::new(settings());
        let mut b = RacAgent::new(settings());
        for _ in 0..10 {
            assert_eq!(a.next_config(&sample(700.0)), b.next_config(&sample(700.0)));
        }
        // `a` goes through an outage: the experiment loop would not call
        // a degraded tuner, but even direct calls must be inert.
        a.set_degraded(true);
        assert!(a.is_degraded());
        let held = a.current_config();
        for _ in 0..5 {
            assert_eq!(a.next_config(&PerfSample::empty()), held);
        }
        assert_eq!(a.iterations(), 10, "degraded iterations must not count");
        a.set_degraded(false);
        // Resumed: identical to the never-degraded twin from here on.
        for _ in 0..10 {
            assert_eq!(a.next_config(&sample(650.0)), b.next_config(&sample(650.0)));
        }
    }

    #[test]
    fn persistent_severe_violation_triggers_rollback() {
        let mut agent = RacAgent::new(settings());
        // Establish a last-known-good state under the 1000ms SLA.
        agent.next_config(&sample(300.0));
        let (lkg, _) = agent.guard.last_known_good().expect("lkg recorded");
        // Sustained severe violations (>2× SLA) must eventually fire the
        // guard: configuration jumps back to the last-known-good state
        // and the offending direction is vetoed.
        let mut fired_at = None;
        for i in 0..12 {
            agent.next_config(&sample(5_000.0));
            if !agent.vetoes.is_empty() {
                fired_at = Some(i);
                break;
            }
        }
        assert!(fired_at.is_some(), "guard never fired");
        assert_eq!(agent.current_state, lkg, "rollback must restore lkg");
        // Vetoes expire after their TTL.
        let expiry = agent.vetoes[0].2;
        while agent.iterations() < expiry {
            agent.next_config(&sample(300.0));
        }
        assert!(agent.vetoes.is_empty(), "veto outlived its TTL");
    }

    #[test]
    fn guard_and_detector_state_survive_snapshot_mid_hold() {
        let mut agent = RacAgent::new(settings());
        agent.next_config(&sample(300.0));
        // One extreme sample arms the detector's outlier guard
        // (mid-hold) while severe streaks accumulate in the guard.
        agent.next_config(&sample(300.0 * 100.0));
        for _ in 0..8 {
            agent.next_config(&sample(5_000.0));
        }
        agent.set_degraded(true);

        let mut snap = ckpt::SnapshotWriter::new();
        agent.save_state(&mut snap);
        let bytes = snap.to_bytes();
        let restored =
            RacAgent::restore(&ckpt::Snapshot::from_bytes(&bytes).unwrap(), None).unwrap();
        assert!(restored.is_degraded());
        assert_eq!(restored.vetoes, agent.vetoes);
        assert_eq!(restored.guard, agent.guard);
        let mut again = ckpt::SnapshotWriter::new();
        restored.save_state(&mut again);
        assert_eq!(again.to_bytes(), bytes, "restore → save not a fixed point");

        // Both resume and continue identically.
        let mut a = agent;
        let mut b = restored;
        a.set_degraded(false);
        b.set_degraded(false);
        for rt in [4_800.0, 500.0, 900.0, 5_200.0, 410.0] {
            assert_eq!(a.next_config(&sample(rt)), b.next_config(&sample(rt)));
        }
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_library_panics() {
        RacAgent::with_policy_library(settings(), PolicyLibrary::new());
    }
}
