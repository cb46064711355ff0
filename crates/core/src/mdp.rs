//! The configuration MDP the RAC agent plans against.

use std::sync::{Arc, Mutex};

use rl::{Environment, SweepPlan};

use crate::action::Action;
use crate::param::ConfigLattice;
use crate::reward::SlaReward;

/// TD learning rate α of every sweep over a [`ConfigMdp`]: the offline
/// fit and the agent's per-interval retraining (the paper's 0.1).
pub const ALPHA: f64 = 0.1;

/// Discount rate γ of every sweep over a [`ConfigMdp`] (the paper's 0.9).
pub const GAMMA: f64 = 0.9;

/// Convergence threshold θ of every sweep over a [`ConfigMdp`]
/// (Algorithm 1): a sweep stops once no Q-value moved by more.
pub const THETA: f64 = 1e-3;

/// The deterministic Markov decision process over configuration states
/// (Section 3.2): states are lattice points, actions are per-parameter
/// steps, and the reward of a transition is the SLA reward of the
/// *destination* configuration's (measured or predicted) response time.
///
/// Transitions live in the lattice's [`SweepPlan`], built once per
/// lattice size and shared by every MDP on it; rewards are kept per
/// destination. Batch retraining sweeps
/// ([`rl::batch_value_sweep`]) read both in place.
///
/// The performance map is kept in `f64`: the agent multiplies predicted
/// response times by a calibration factor every interval, and rounding
/// the products through `f32` used to collapse near-tied states onto
/// the same value, letting the deterministic tie-break (lowest index)
/// flip the argmin whenever calibration ≠ 1.0.
///
/// # Example
///
/// ```
/// use rac::{Action, ConfigLattice, ConfigMdp, SlaReward};
/// use rl::Environment;
///
/// let lattice = ConfigLattice::new(3);
/// let mut mdp = ConfigMdp::new(&lattice, SlaReward::new(1_000.0));
/// mdp.set_perf(0, 500.0);
/// let keep = Action::Keep.index();
/// assert_eq!(mdp.transition(0, keep), 0);
/// assert_eq!(mdp.reward(0), 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigMdp {
    plan: Arc<SweepPlan>,
    perf_ms: Vec<f64>,
    /// `reward.of_response_ms(perf_ms[s])` per state, refreshed whenever
    /// the performance map changes: the reward of a transition depends
    /// only on the destination state, so the division/clamp is paid once
    /// per map write instead of once per query. Computed by the same
    /// call, so cached and recomputed values are bit-identical.
    reward_of: Vec<f64>,
    reward: SlaReward,
}

/// The plan of a lattice, built on first use and kept for the process:
/// it depends only on the lattice size, and every fit and agent on that
/// size shares it instead of holding its own 4.4 MB successor table.
fn lattice_plan(lattice: &ConfigLattice) -> Arc<SweepPlan> {
    static PLANS: Mutex<Vec<(usize, Arc<SweepPlan>)>> = Mutex::new(Vec::new());
    let levels = lattice.levels();
    let mut plans = PLANS
        .lock()
        .expect("a thread panicked while building a lattice plan");
    if let Some((_, plan)) = plans.iter().find(|(l, _)| *l == levels) {
        return Arc::clone(plan);
    }
    let space = lattice.space();
    let mut coords = [0usize; 8];
    let mut moved = [0usize; 8];
    let plan = Arc::new(SweepPlan::new(
        lattice.num_states(),
        Action::COUNT,
        |s, a| {
            if a == 0 {
                space.decode_into(s, &mut coords);
            }
            moved = coords;
            Action::from_index(a).apply(&mut moved, levels);
            space.encode(&moved)
        },
    ));
    plans.push((levels, Arc::clone(&plan)));
    plan
}

impl ConfigMdp {
    /// Builds the MDP for a lattice, with every state's performance
    /// initialized to the SLA reference (neutral reward).
    pub fn new(lattice: &ConfigLattice, reward: SlaReward) -> Self {
        let states = lattice.num_states();
        ConfigMdp {
            plan: lattice_plan(lattice),
            perf_ms: vec![reward.sla_ms(); states],
            reward_of: vec![reward.of_response_ms(reward.sla_ms()); states],
            reward,
        }
    }

    /// The reward function in use.
    pub fn sla_reward(&self) -> SlaReward {
        self.reward
    }

    /// Records the (measured or predicted) mean response time of a
    /// state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn set_perf(&mut self, state: usize, response_ms: f64) {
        self.perf_ms[state] = response_ms;
        self.reward_of[state] = self.reward.of_response_ms(response_ms);
    }

    /// The stored response time of a state (ms).
    pub fn perf(&self, state: usize) -> f64 {
        self.perf_ms[state]
    }

    /// Replaces the entire performance map.
    ///
    /// # Panics
    ///
    /// Panics if `perf_ms.len()` differs from the state count.
    pub fn set_perf_map(&mut self, perf_ms: Vec<f64>) {
        assert_eq!(
            perf_ms.len(),
            self.perf_ms.len(),
            "performance map size mismatch"
        );
        self.reward_of.clear();
        self.reward_of
            .extend(perf_ms.iter().map(|&p| self.reward.of_response_ms(p)));
        self.perf_ms = perf_ms;
    }

    /// Read access to the full performance map.
    pub fn perf_map(&self) -> &[f64] {
        &self.perf_ms
    }

    /// The state with the lowest stored response time (ties toward the
    /// lowest index).
    pub fn best_state(&self) -> usize {
        let mut best = 0;
        for (s, &p) in self.perf_ms.iter().enumerate().skip(1) {
            if p < self.perf_ms[best] {
                best = s;
            }
        }
        best
    }
}

impl Environment for ConfigMdp {
    fn num_states(&self) -> usize {
        self.perf_ms.len()
    }

    fn num_actions(&self) -> usize {
        Action::COUNT
    }

    fn transition(&self, s: usize, a: usize) -> usize {
        self.plan.successor(s, a)
    }

    fn reward(&self, s2: usize) -> f64 {
        self.reward_of[s2]
    }

    fn plan(&self) -> Arc<SweepPlan> {
        Arc::clone(&self.plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl::{batch_value_sweep, QLearning, QTable};
    use websim::Param;

    fn lattice() -> ConfigLattice {
        ConfigLattice::new(3)
    }

    #[test]
    fn transitions_match_action_semantics() {
        let l = lattice();
        let mdp = ConfigMdp::new(&l, SlaReward::new(1_000.0));
        let origin = l.space().encode(&[1; 8]);
        for action in Action::all() {
            let mut coords = [1usize; 8];
            action.apply(&mut coords, 3);
            let expect = l.space().encode(&coords);
            assert_eq!(mdp.transition(origin, action.index()), expect, "{action}");
        }
    }

    #[test]
    fn boundary_actions_self_loop() {
        let l = lattice();
        let mdp = ConfigMdp::new(&l, SlaReward::new(1_000.0));
        let corner = l.space().encode(&[0; 8]);
        for p in Param::ALL {
            assert_eq!(mdp.transition(corner, Action::decrease(p).index()), corner);
        }
    }

    #[test]
    fn reward_uses_destination_perf() {
        let l = lattice();
        let mut mdp = ConfigMdp::new(&l, SlaReward::new(1_000.0));
        let s0 = l.space().encode(&[0; 8]);
        let s1 = mdp.transition(s0, Action::increase(Param::MaxClients).index());
        mdp.set_perf(s1, 200.0);
        let r = mdp.reward(s1);
        assert!((r - 0.8).abs() < 1e-6);
    }

    #[test]
    fn default_perf_is_neutral() {
        let l = lattice();
        let mdp = ConfigMdp::new(&l, SlaReward::new(500.0));
        assert_eq!(mdp.reward(0), 0.0);
    }

    #[test]
    fn best_state_finds_minimum() {
        let l = lattice();
        let mut mdp = ConfigMdp::new(&l, SlaReward::new(1_000.0));
        mdp.set_perf(42, 10.0);
        assert_eq!(mdp.best_state(), 42);
    }

    #[test]
    fn planning_reaches_the_good_configuration() {
        // Give one lattice state a great response time and verify that a
        // converged policy walks there from the default state.
        let l = lattice();
        let mut mdp = ConfigMdp::new(&l, SlaReward::new(1_000.0));
        let goal_coords = [2usize, 1, 0, 0, 2, 1, 0, 0];
        let goal = l.space().encode(&goal_coords);
        // Make perf improve smoothly toward the goal so the gradient is
        // informative (distance-shaped bowl).
        let mut coords = vec![0usize; 8];
        for s in 0..l.num_states() {
            l.space().decode_into(s, &mut coords);
            let dist: usize = coords
                .iter()
                .zip(&goal_coords)
                .map(|(a, b)| a.abs_diff(*b))
                .sum();
            mdp.set_perf(s, 100.0 + 300.0 * dist as f64);
        }
        let mut q = QTable::new(l.num_states(), Action::COUNT);
        batch_value_sweep(&mdp, &mut q, &QLearning::new(0.5, 0.9), 1e-4, 500);

        let mut s = l.state_of(&websim::ServerConfig::default());
        for _ in 0..32 {
            s = mdp.transition(s, q.best_action(s));
        }
        assert_eq!(s, goal, "greedy walk should end at the optimum");
    }

    #[test]
    fn perf_map_preserves_sub_f32_differences() {
        // Two states closer together than f32 can represent at this
        // magnitude; the old f32 map collapsed them onto one value.
        let l = lattice();
        let mut mdp = ConfigMdp::new(&l, SlaReward::new(1_000.0));
        mdp.set_perf(7, 500.000_000_1);
        mdp.set_perf(3, 500.0);
        assert_eq!(mdp.perf(7), 500.000_000_1, "stored exactly, no rounding");
        assert!(mdp.perf(3) < mdp.perf(7));
        assert_eq!(mdp.best_state(), 3);
    }

    #[test]
    fn calibration_epsilon_never_reorders_near_ties() {
        // Regression for the refresh_perf_map truncation bias: predicted
        // response times one f32 ulp apart (the finest distinction an
        // offline policy can express), rescaled by calibration factors
        // within 1.0 ± ε, must keep their strict order in the map —
        // including across a binade boundary, where the old rounding
        // back to f32 could merge or reorder the products and flip the
        // argmin onto the lower-indexed state.
        let l = lattice();
        let pairs: [(f32, f32); 3] = [
            (500.0, f32::from_bits(500.0f32.to_bits() + 1)),
            (f32::from_bits(512.0f32.to_bits() - 1), 512.0),
            (999.999_94, 1_000.0),
        ];
        for eps in [1e-9, 1e-8, 3e-8, 1e-7, 1e-6] {
            for calib in [1.0 - eps, 1.0 + eps] {
                for (lo, hi) in pairs {
                    // A high SLA reference keeps every untouched state's
                    // default perf above the pair under test.
                    let mut mdp = ConfigMdp::new(&l, SlaReward::new(10_000.0));
                    // The lower-indexed state gets the *worse* (higher)
                    // prediction, so any tie collapse would flip the
                    // argmin onto it.
                    mdp.set_perf(0, hi as f64 * calib);
                    mdp.set_perf(1, lo as f64 * calib);
                    assert!(
                        mdp.perf(1) < mdp.perf(0),
                        "calibration {calib} collapsed {lo} vs {hi}"
                    );
                    assert_eq!(
                        mdp.best_state(),
                        1,
                        "calibration {calib} reordered {lo} vs {hi}"
                    );
                }
            }
        }
    }

    #[test]
    fn lattice_levels_are_coordinate_sums() {
        let l = ConfigLattice::new(4);
        let plan = ConfigMdp::new(&l, SlaReward::new(1_000.0)).plan();
        let sizes: Vec<usize> = (0..plan.levels()).map(|i| plan.level(i).len()).collect();
        let rising = [
            1, 8, 36, 120, 322, 728, 1_428, 2_472, 3_823, 5_328, 6_728, 7_728,
        ];
        let mut expected = rising.to_vec();
        expected.push(8_092);
        expected.extend(rising.iter().rev());
        assert_eq!(sizes, expected);
        let mut coords = vec![0usize; 8];
        for level in 0..plan.levels() {
            for &s in plan.level(level) {
                l.space().decode_into(s as usize, &mut coords);
                assert_eq!(coords.iter().sum::<usize>(), level, "state {s}");
            }
        }
    }

    /// Algorithm 1 in index order, one `QLearning::update_toward` per
    /// entry: the reference the sweep must equal bit for bit.
    fn scalar_sweep(
        mdp: &ConfigMdp,
        q: &mut QTable,
        learner: &QLearning,
        theta: f64,
        max_passes: usize,
    ) -> rl::SweepReport {
        let mut report = rl::SweepReport::default();
        for pass in 1..=max_passes {
            let mut error: f64 = 0.0;
            for s in 0..mdp.num_states() {
                for a in 0..mdp.num_actions() {
                    let s2 = mdp.transition(s, a);
                    let next_value = q.max_q(s2);
                    error = error.max(learner.update_toward(q, s, a, mdp.reward(s2), next_value));
                }
            }
            report.passes = pass;
            report.max_delta = error;
            report.updates += (mdp.num_states() * mdp.num_actions()) as u64;
            if error < theta {
                break;
            }
        }
        report
    }

    #[test]
    fn sweep_equals_scalar_reference_on_three_landscapes() {
        // 17 levels on this lattice, several not a multiple of 8 wide.
        let l = lattice();
        let learner = QLearning::new(ALPHA, GAMMA);
        let mut mdp = ConfigMdp::new(&l, SlaReward::new(1_000.0));
        assert_eq!(mdp.plan().levels(), 17);
        let mixed: Vec<f64> = (0..l.num_states())
            .map(|s| 200.0 + ((s * 7_919) % 1_700) as f64)
            .collect();
        // Every state over the SLA, so every reward is negative.
        let over: Vec<f64> = mixed.iter().map(|p| p + 1_100.0).collect();
        let fresh = || QTable::new(l.num_states(), Action::COUNT);
        // A table three passes into the over-SLA map, then retrained on
        // the mixed one as the agent would.
        mdp.set_perf_map(over.clone());
        let mut warm = fresh();
        batch_value_sweep(&mdp, &mut warm, &learner, 0.0, 3);
        let landscapes = [
            ("mixed", mixed.clone(), fresh(), crate::init::MAX_PASSES),
            ("over the SLA", over, fresh(), crate::init::MAX_PASSES),
            ("warm, online cap", mixed, warm, crate::agent::BATCH_PASSES),
        ];
        for (name, perf, table, max_passes) in landscapes {
            mdp.set_perf_map(perf);
            let mut fast = table.clone();
            let mut slow = table;
            let report = rl::batch_value_sweep_report(&mdp, &mut fast, &learner, THETA, max_passes);
            assert_eq!(
                report,
                scalar_sweep(&mdp, &mut slow, &learner, THETA, max_passes),
                "{name}"
            );
            let bits = |q: &QTable| q.values().map(f32::to_bits).collect::<Vec<_>>();
            assert_eq!(bits(&fast), bits(&slow), "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn bad_perf_map_panics() {
        let l = lattice();
        let mut mdp = ConfigMdp::new(&l, SlaReward::new(1_000.0));
        mdp.set_perf_map(vec![0.0; 3]);
    }
}
