//! The configuration MDP the RAC agent plans against.

use rl::Environment;

use crate::action::Action;
use crate::param::ConfigLattice;
use crate::reward::SlaReward;

/// The deterministic Markov decision process over configuration states
/// (Section 3.2): states are lattice points, actions are per-parameter
/// steps, and the reward of a transition is the SLA reward of the
/// *destination* configuration's (measured or predicted) response time.
///
/// Transitions are precomputed into a dense table and rewards into a
/// per-destination table, which batch retraining sweeps
/// ([`rl::batch_value_sweep`]) read in place.
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
/// assert_eq!(mdp.reward(0, keep, 0), 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigMdp {
    levels: usize,
    states: usize,
    transitions: Vec<u32>,
    perf_ms: Vec<f64>,
    /// `reward.of_response_ms(perf_ms[s])` per state, refreshed whenever
    /// the performance map changes: the reward of a transition depends
    /// only on the destination state, and sweeps query it `states ×
    /// actions × passes` times per retrain, so the division/clamp is
    /// paid once per map write instead of once per query. Computed by
    /// the same call, so cached and recomputed values are bit-identical.
    reward_of: Vec<f64>,
    reward: SlaReward,
}

impl ConfigMdp {
    /// Builds the MDP for a lattice, with every state's performance
    /// initialized to the SLA reference (neutral reward).
    pub fn new(lattice: &ConfigLattice, reward: SlaReward) -> Self {
        let states = lattice.num_states();
        let levels = lattice.levels();
        let mut transitions = Vec::with_capacity(states * Action::COUNT);
        let mut coords = vec![0usize; 8];
        let mut scratch = vec![0usize; 8];
        for s in 0..states {
            lattice.space().decode_into(s, &mut coords);
            for a in 0..Action::COUNT {
                scratch.copy_from_slice(&coords);
                Action::from_index(a).apply(&mut scratch, levels);
                transitions.push(lattice.space().encode(&scratch) as u32);
            }
        }
        ConfigMdp {
            levels,
            states,
            transitions,
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
        assert_eq!(perf_ms.len(), self.states, "performance map size mismatch");
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
        self.states
    }

    fn num_actions(&self) -> usize {
        Action::COUNT
    }

    fn transition(&self, s: usize, a: usize) -> usize {
        self.transitions[s * Action::COUNT + a] as usize
    }

    fn reward(&self, _s: usize, _a: usize, s2: usize) -> f64 {
        self.reward_of[s2]
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
        let r = mdp.reward(s0, Action::increase(Param::MaxClients).index(), s1);
        assert!((r - 0.8).abs() < 1e-6);
    }

    #[test]
    fn default_perf_is_neutral() {
        let l = lattice();
        let mdp = ConfigMdp::new(&l, SlaReward::new(500.0));
        assert_eq!(mdp.reward(0, 0, 0), 0.0);
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
    #[should_panic(expected = "size mismatch")]
    fn bad_perf_map_panics() {
        let l = lattice();
        let mut mdp = ConfigMdp::new(&l, SlaReward::new(1_000.0));
        mdp.set_perf_map(vec![0.0; 3]);
    }
}
