//! Policy initialization (Section 4.1, Algorithm 2).
//!
//! Online RL from a zero Q-table explores terribly (Figure 7). The
//! paper's remedy: (1) sample the performance of a small set of coarse,
//! *grouped* configurations, (2) fit a polynomial regression that
//! exploits the concave-upward effect of each parameter, (3) predict the
//! performance of every unvisited configuration, and (4) run an offline
//! RL process over the predicted landscape to produce an initial policy
//! for online learning.

use numerics::{FitQuality, PolynomialModel, RegressionError};
use rl::{batch_value_sweep, QLearning, QTable};
use websim::ServerConfig;

use crate::action::Action;
use crate::grouping::{group_features, sampling_plan};
use crate::mdp::{ConfigMdp, ALPHA, GAMMA, THETA};
use crate::param::ConfigLattice;
use crate::reward::SlaReward;
use crate::runner::Measure;

/// Safety cap on the offline sweep's passes.
pub(crate) const MAX_PASSES: usize = 500;

/// Settings of the offline training process. Its sweep learns with the
/// paper's α = [`ALPHA`] and γ = [`GAMMA`] until θ = [`THETA`]; our
/// full-table sweeps subsume the paper's ε-greedy exploration (every
/// state–action pair is visited each pass).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OfflineSettings {
    /// Grid points per parameter *group* during data collection.
    pub group_levels: usize,
}

impl Default for OfflineSettings {
    fn default() -> Self {
        OfflineSettings { group_levels: 3 }
    }
}

/// An initial policy for one system context: a converged Q-table plus
/// the predicted performance map it was trained on.
#[derive(Debug, Clone, PartialEq)]
pub struct InitialPolicy {
    /// The offline-trained Q-table.
    pub qtable: QTable,
    /// Predicted mean response time (ms) per lattice state.
    pub perf_ms: Vec<f32>,
    /// Goodness of fit of the regression predictor.
    pub fit: FitQuality,
    /// Number of configurations actually measured.
    pub samples: usize,
    /// Sweep passes the offline RL took to converge.
    pub passes: usize,
}

impl InitialPolicy {
    /// Predicted response time of a lattice state (ms).
    pub fn predicted_perf(&self, state: usize) -> f64 {
        self.perf_ms[state] as f64
    }
}

/// Runs the full policy-initialization pipeline (Algorithm 2) for one
/// system context.
///
/// `measure` supplies the observed mean response time in milliseconds
/// per coarse sample configuration — a [`SimMeasurer`](crate::SimMeasurer)
/// against the live simulator for real training (the whole sampling
/// plan is submitted as one batch, so it fans out across the parallel
/// runner's workers), or any synthetic closure in tests.
///
/// # Errors
///
/// Returns the underlying [`RegressionError`] if the regression cannot
/// be fit (e.g. the measurement function returned non-finite values for
/// nearly all samples).
///
/// # Example
///
/// ```
/// use rac::{train_initial_policy, ConfigLattice, OfflineSettings, SlaReward};
///
/// let lattice = ConfigLattice::new(3);
/// // Synthetic landscape: a bowl in the first group (MaxClients/MaxThreads).
/// let policy = train_initial_policy(&lattice, SlaReward::new(1_000.0),
///     OfflineSettings::default(), |cfg: &websim::ServerConfig| {
///         let m = cfg.max_clients() as f64;
///         200.0 + 0.004 * (m - 350.0).powi(2)
///     }).unwrap();
/// assert_eq!(policy.samples, 81);
/// assert!(policy.fit.r_squared > 0.9);
/// ```
pub fn train_initial_policy(
    lattice: &ConfigLattice,
    reward: SlaReward,
    settings: OfflineSettings,
    mut measure: impl Measure,
) -> Result<InitialPolicy, RegressionError> {
    let _span = obs::Span::start("train_initial_policy");
    // 1. Parameter grouping + coarse data collection, submitted as one
    //    batch so runner-backed measurers evaluate it in parallel.
    let plan = sampling_plan(settings.group_levels);
    let configs: Vec<ServerConfig> = plan.iter().map(|(_, config)| *config).collect();
    let measured = measure.measure_batch(&configs);
    let policy = fit_initial_policy(lattice, reward, &plan, &measured)?;
    trace_offline_policy(&policy);
    Ok(policy)
}

/// Steps 2–4 of Algorithm 2 over an already measured sampling plan:
/// `measured[i]` is the response time of `plan[i]`. A pure function of
/// its arguments that emits no trace events, so it may run on any
/// thread; callers report the result with [`trace_offline_policy`].
pub(crate) fn fit_initial_policy(
    lattice: &ConfigLattice,
    reward: SlaReward,
    plan: &[(Vec<f64>, ServerConfig)],
    measured: &[f64],
) -> Result<InitialPolicy, RegressionError> {
    // Worker threads root their own profiler stacks, so the fit opens
    // its own frame wherever it runs.
    let _span = obs::Span::start("fit_initial_policy");
    let mut xs = Vec::with_capacity(plan.len());
    let mut ys = Vec::with_capacity(plan.len());
    for ((coords, _), &rt) in plan.iter().zip(measured) {
        if rt.is_finite() && rt > 0.0 {
            xs.push(coords.clone());
            ys.push(rt);
        }
    }
    let samples = xs.len();

    // Winsorize catastrophic samples: a choked corner configuration can
    // measure 100x the median (queueing + retry storms), and quadratic
    // least squares would then spend all its freedom on that corner and
    // misplace the minimum. Capping extremes keeps the *shape* the
    // paper's concavity assumption relies on.
    if !ys.is_empty() {
        let mut sorted = ys.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        let cap = (median * 25.0).max(1.0);
        for y in &mut ys {
            *y = y.min(cap);
        }
    }

    // 2. Regression-based prediction function.
    let model = PolynomialModel::fit(&xs, &ys)?;

    // 3. Predict the performance of every unvisited configuration.
    let mut mdp = ConfigMdp::new(lattice, reward);
    let mut coords = vec![0usize; 8];
    // No prediction may promise better performance than (nearly) the
    // best configuration actually observed; unchecked extrapolation
    // dips would otherwise create phantom optima the online agent
    // chases through real (possibly terrible) configurations.
    let floor = ys.iter().copied().fold(f64::INFINITY, f64::min) * 0.75;
    for s in 0..lattice.num_states() {
        lattice.space().decode_into(s, &mut coords);
        let features = group_features(lattice, &coords);
        let predicted = model.predict(&features).max(floor.max(1.0));
        mdp.set_perf(s, predicted);
    }

    // 4. Offline RL over the predicted landscape.
    let mut qtable = QTable::new(lattice.num_states(), Action::COUNT);
    let passes = batch_value_sweep(
        &mdp,
        &mut qtable,
        &QLearning::new(ALPHA, GAMMA),
        THETA,
        MAX_PASSES,
    );

    Ok(InitialPolicy {
        qtable,
        perf_ms: mdp.perf_map().iter().map(|&p| p as f32).collect(),
        fit: model.quality(),
        samples,
        passes,
    })
}

/// Emits the `offline_policy` trace event for a trained policy. The
/// trace scope is thread-local, so this runs on the caller's thread.
pub(crate) fn trace_offline_policy(policy: &InitialPolicy) {
    obs::trace::emit(|| {
        obs::Event::new("offline_policy")
            .field("samples", policy.samples as u64)
            .field("passes", policy.passes as u64)
            .field("r_squared", policy.fit.r_squared)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use websim::Param;

    fn bowl(cfg: &ServerConfig) -> f64 {
        // Optimum at MaxClients ≈ 450, KeepAlive ≈ 6; everything else flat.
        let m = cfg.max_clients() as f64;
        let k = cfg.keepalive_timeout_secs() as f64;
        100.0 + 0.002 * (m - 450.0).powi(2) + 8.0 * (k - 6.0).powi(2)
    }

    #[test]
    fn pipeline_produces_converged_policy() {
        let lattice = ConfigLattice::new(4);
        let policy = train_initial_policy(
            &lattice,
            SlaReward::new(1_000.0),
            OfflineSettings::default(),
            bowl,
        )
        .unwrap();
        assert_eq!(policy.samples, 81);
        assert!(policy.passes < MAX_PASSES, "offline RL did not converge");
        assert!(policy.fit.r_squared > 0.8, "r2 {}", policy.fit.r_squared);
    }

    #[test]
    fn policy_walks_toward_the_bowl_minimum() {
        let lattice = ConfigLattice::new(4);
        let reward = SlaReward::new(1_000.0);
        let policy =
            train_initial_policy(&lattice, reward, OfflineSettings::default(), bowl).unwrap();
        let mdp = ConfigMdp::new(&lattice, reward);
        let mut s = lattice.state_of(&ServerConfig::default());
        for _ in 0..40 {
            let a = policy.qtable.best_action(s);
            let next = rl::Environment::transition(&mdp, s, a);
            if next == s {
                break;
            }
            s = next;
        }
        // The regression works in *group-feature* space (MaxClients and
        // MaxThreads share a group), so the walk must end at a state
        // whose predicted performance matches the predicted optimum —
        // individual members of a group are interchangeable to the
        // initial policy until online learning separates them.
        let min_pred = policy.perf_ms.iter().copied().fold(f32::INFINITY, f32::min) as f64;
        let final_pred = policy.predicted_perf(s);
        assert!(
            final_pred <= min_pred * 1.05 + 1.0,
            "walk ended at predicted {final_pred:.1}ms, optimum {min_pred:.1}ms ({})",
            lattice.config_at(s)
        );
        // And the walk must have left the choked low-capacity corner
        // (the optimism floor can flatten the basin into a plateau, so
        // the exact resting point within it is unspecified).
        let coords = lattice.space().decode(s);
        let feature = crate::grouping::group_features(&lattice, &coords)[0];
        assert!(
            feature >= 0.3,
            "walk ended in the choked corner: feature {feature}"
        );
    }

    #[test]
    fn non_finite_measurements_are_skipped() {
        let lattice = ConfigLattice::new(3);
        let mut calls = 0;
        let policy = train_initial_policy(
            &lattice,
            SlaReward::new(1_000.0),
            OfflineSettings::default(),
            |c: &ServerConfig| {
                calls += 1;
                if calls % 5 == 0 {
                    f64::INFINITY
                } else {
                    bowl(c)
                }
            },
        )
        .unwrap();
        assert!(policy.samples < 81);
        assert!(policy.samples >= 60);
    }

    #[test]
    fn too_few_valid_samples_errors() {
        let lattice = ConfigLattice::new(3);
        let result = train_initial_policy(
            &lattice,
            SlaReward::new(1_000.0),
            OfflineSettings::default(),
            |_: &ServerConfig| f64::NAN,
        );
        assert!(result.is_err());
    }

    #[test]
    fn predictions_cover_all_states_positively() {
        let lattice = ConfigLattice::new(3);
        let policy = train_initial_policy(
            &lattice,
            SlaReward::new(1_000.0),
            OfflineSettings::default(),
            bowl,
        )
        .unwrap();
        assert_eq!(policy.perf_ms.len(), lattice.num_states());
        assert!(policy.perf_ms.iter().all(|&p| p > 0.0 && p.is_finite()));
    }

    #[test]
    fn session_timeout_shares_keepalive_group_position() {
        // Sanity: the plan really moves SessionTimeout with KeepAlive.
        let plan = sampling_plan(3);
        for (coords, cfg) in plan {
            let (klo, khi) = Param::KeepaliveTimeout.range();
            let t = (cfg.keepalive_timeout_secs() - klo) as f64 / (khi - klo) as f64;
            assert!((t - coords[1]).abs() < 0.05);
        }
    }
}
