//! Algorithm 1: batch value sweeps against an environment model.

use crate::qtable::{QLearning, QTable};

/// A (deterministic) model of the environment: the MDP the RAC agent
/// plans against.
///
/// The configuration MDP is deterministic — applying a reconfiguration
/// action yields a known next configuration — so the model needs only a
/// transition function and a reward function. Rewards typically come
/// from measured samples plus regression-predicted performance for
/// unvisited configurations.
pub trait Environment {
    /// Number of states.
    fn num_states(&self) -> usize;
    /// Number of actions available in every state.
    fn num_actions(&self) -> usize;
    /// The state reached by taking `a` in `s`.
    ///
    /// Must be pure: a sweep may query the same `(s, a)` any number of
    /// times within a call and expects the same answer every time.
    fn transition(&self, s: usize, a: usize) -> usize;
    /// Immediate reward for the transition `s --a--> s2`.
    ///
    /// Must be pure, like [`transition`](Self::transition).
    fn reward(&self, s: usize, a: usize, s2: usize) -> f64;
}

/// What a batch retraining sweep did — the observability payload the
/// online agent reports per iteration (passes run, largest Q-entry
/// change, total updates applied).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SweepReport {
    /// Passes performed (≥ 1).
    pub passes: usize,
    /// Largest single-entry |ΔQ| observed in the **final** pass — the
    /// residual training error when the sweep stopped.
    pub max_delta: f64,
    /// Total TD updates applied across all passes.
    pub updates: u64,
}

/// Runs repeated full-table Q-learning sweeps (the paper's Algorithm 1)
/// until the largest single-entry change in a pass drops below `theta`
/// or `max_passes` passes have run.
///
/// Returns the number of passes performed.
///
/// # Panics
///
/// Panics if the Q-table shape does not match the environment, `theta`
/// is negative, or `max_passes` is zero.
///
/// # Example
///
/// See the [crate-level example](crate).
pub fn batch_value_sweep(
    env: &impl Environment,
    q: &mut QTable,
    learner: &QLearning,
    theta: f64,
    max_passes: usize,
) -> usize {
    batch_value_sweep_report(env, q, learner, theta, max_passes).passes
}

/// The fully instrumented sweep: like [`batch_value_sweep`] but
/// returning the [`SweepReport`] (passes, residual max |ΔQ|, update
/// count) instead of just the pass count.
///
/// # Panics
///
/// Same as [`batch_value_sweep`].
pub fn batch_value_sweep_report(
    env: &impl Environment,
    q: &mut QTable,
    learner: &QLearning,
    theta: f64,
    max_passes: usize,
) -> SweepReport {
    assert_eq!(q.states(), env.num_states(), "state count mismatch");
    assert_eq!(q.actions(), env.num_actions(), "action count mismatch");
    assert!(theta >= 0.0, "theta must be non-negative");
    assert!(max_passes > 0, "need at least one pass");

    let states = env.num_states();
    let actions = env.num_actions();

    // The model is read in place on every update. The sweep is generic,
    // so each query inlines (for `ConfigMdp`, a load from its own dense
    // transition and per-destination reward tables), and purity makes
    // re-reading it bit-identical to reading it once.
    let successor = |s: usize, a: usize| {
        let s2 = env.transition(s, a);
        assert!(s2 < states, "transition ({s},{a}) -> {s2} out of range");
        s2
    };

    let mut report = SweepReport::default();
    // Off-policy Q-learning values a successor by `max_a Q(s', a)`, so
    // the per-state row maximum is tracked incrementally: an update
    // raises it directly, and only demoting the current maximum forces
    // an O(actions) rescan. f32 `max` over a row is order-independent,
    // so the cached value is always exactly `QTable::max_q` — the sweep
    // stays a Gauss-Seidel pass (successor values are read mid-pass, as
    // written).
    let alpha = learner.alpha();
    let gamma = learner.gamma();
    let row_max_of = |row: &[f32]| row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let values = q.raw_mut();
    let mut row_max: Vec<f32> = (0..states)
        .map(|s| row_max_of(&values[s * actions..(s + 1) * actions]))
        .collect();
    for pass in 1..=max_passes {
        let mut error: f64 = 0.0;
        for s in 0..states {
            let base = s * actions;
            for a in 0..actions {
                let s2 = successor(s, a);
                // Same arithmetic as `QLearning::update_toward`:
                // f64 target, f32 store, f64 delta.
                let old32 = values[base + a];
                let old = old32 as f64;
                let target = env.reward(s, a, s2) + gamma * row_max[s2] as f64;
                let new = old + alpha * (target - old);
                let new32 = new as f32;
                values[base + a] = new32;
                if new32 >= row_max[s] {
                    row_max[s] = new32;
                } else if old32 == row_max[s] {
                    row_max[s] = row_max_of(&values[base..base + actions]);
                }
                error = error.max((new - old).abs());
            }
        }
        report.passes = pass;
        report.max_delta = error;
        report.updates += (states * actions) as u64;
        if error < theta {
            break;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1-D lattice where moving toward the middle pays.
    struct Ridge {
        n: usize,
        peak: usize,
    }

    impl Environment for Ridge {
        fn num_states(&self) -> usize {
            self.n
        }
        fn num_actions(&self) -> usize {
            3
        }
        fn transition(&self, s: usize, a: usize) -> usize {
            match a {
                0 => s.saturating_sub(1),
                1 => s,
                _ => (s + 1).min(self.n - 1),
            }
        }
        fn reward(&self, _s: usize, _a: usize, s2: usize) -> f64 {
            -((s2 as f64) - (self.peak as f64)).abs()
        }
    }

    #[test]
    fn converges_to_peak_seeking_policy() {
        let env = Ridge { n: 21, peak: 13 };
        let mut q = QTable::new(21, 3);
        let passes = batch_value_sweep(&env, &mut q, &QLearning::new(1.0, 0.9), 1e-4, 1000);
        assert!(passes < 1000, "did not converge");
        for s in 0..21 {
            let a = q.best_action(s);
            match s.cmp(&13) {
                std::cmp::Ordering::Less => assert_eq!(a, 2, "state {s} should move right"),
                std::cmp::Ordering::Equal => assert_eq!(a, 1, "peak should stay"),
                std::cmp::Ordering::Greater => assert_eq!(a, 0, "state {s} should move left"),
            }
        }
    }

    #[test]
    fn respects_max_passes() {
        let env = Ridge { n: 50, peak: 25 };
        let mut q = QTable::new(50, 3);
        let passes = batch_value_sweep(&env, &mut q, &QLearning::new(0.1, 0.9), 0.0, 3);
        assert_eq!(passes, 3);
    }

    #[test]
    fn theta_zero_runs_all_passes() {
        let env = Ridge { n: 5, peak: 2 };
        let mut q = QTable::new(5, 3);
        // theta 0 can never be beaten by a strictly positive error, but a
        // fully converged table yields exactly 0 deltas under alpha=1.
        let passes = batch_value_sweep(&env, &mut q, &QLearning::new(1.0, 0.5), 1e-12, 500);
        assert!(passes < 500);
    }

    #[test]
    #[should_panic(expected = "state count mismatch")]
    fn shape_mismatch_panics() {
        let env = Ridge { n: 5, peak: 2 };
        let mut q = QTable::new(4, 3);
        batch_value_sweep(&env, &mut q, &QLearning::new(0.5, 0.5), 1e-3, 10);
    }

    /// A model whose every transition leaves the state space.
    struct Escape;

    impl Environment for Escape {
        fn num_states(&self) -> usize {
            4
        }
        fn num_actions(&self) -> usize {
            2
        }
        fn transition(&self, _s: usize, _a: usize) -> usize {
            self.num_states()
        }
        fn reward(&self, _s: usize, _a: usize, _s2: usize) -> f64 {
            0.0
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_transition_panics() {
        let mut q = QTable::new(4, 2);
        batch_value_sweep(&Escape, &mut q, &QLearning::new(0.5, 0.5), 1e-3, 10);
    }

    #[test]
    fn report_matches_pass_count_and_counts_updates() {
        let env = Ridge { n: 21, peak: 13 };
        let learner = QLearning::new(1.0, 0.9);
        let mut q1 = QTable::new(21, 3);
        let passes = batch_value_sweep(&env, &mut q1, &learner, 1e-4, 1000);
        let mut q2 = QTable::new(21, 3);
        let report = batch_value_sweep_report(&env, &mut q2, &learner, 1e-4, 1000);
        assert_eq!(report.passes, passes);
        assert_eq!(report.updates, (passes * 21 * 3) as u64);
        assert!(report.max_delta < 1e-4, "residual {}", report.max_delta);
        // Identical sweeps produce identical tables.
        for s in 0..21 {
            for a in 0..3 {
                assert_eq!(q1.get(s, a), q2.get(s, a));
            }
        }
    }

    /// The pre-optimization sweep loop, verbatim: queries the model per
    /// update and recomputes `max_q` from the live table. The optimized
    /// sweep must reproduce it bit-for-bit.
    fn naive_sweep_report(
        env: &impl Environment,
        q: &mut QTable,
        learner: &QLearning,
        theta: f64,
        max_passes: usize,
    ) -> SweepReport {
        let mut report = SweepReport::default();
        for pass in 1..=max_passes {
            let mut error: f64 = 0.0;
            for s in 0..env.num_states() {
                for a in 0..env.num_actions() {
                    let s2 = env.transition(s, a);
                    let r = env.reward(s, a, s2);
                    let next_value = q.max_q(s2);
                    let delta = learner.update_toward(q, s, a, r, next_value);
                    error = error.max(delta);
                }
            }
            report.passes = pass;
            report.max_delta = error;
            report.updates += (env.num_states() * env.num_actions()) as u64;
            if error < theta {
                break;
            }
        }
        report
    }

    /// A model with irrational rewards and tangled transitions, so any
    /// reordering of float operations in the optimized loop shows up as
    /// a bit difference somewhere in thousands of updates.
    struct Scramble {
        n: usize,
    }

    impl Environment for Scramble {
        fn num_states(&self) -> usize {
            self.n
        }
        fn num_actions(&self) -> usize {
            5
        }
        fn transition(&self, s: usize, a: usize) -> usize {
            (s * 7 + a * 13 + 3) % self.n
        }
        fn reward(&self, s: usize, a: usize, s2: usize) -> f64 {
            ((s * 31 + a * 17 + s2) as f64).sin() / 3.0
        }
    }

    #[test]
    fn optimized_sweep_is_bit_identical_to_naive_loop() {
        for (theta, passes) in [(1e-6, 400), (0.0, 50)] {
            for learner in [QLearning::new(0.1, 0.9), QLearning::new(1.0, 0.5)] {
                for env_n in [7usize, 64] {
                    let env = Scramble { n: env_n };
                    let mut fast = QTable::new(env_n, 5);
                    let report_fast =
                        batch_value_sweep_report(&env, &mut fast, &learner, theta, passes);
                    let mut slow = QTable::new(env_n, 5);
                    let report_slow = naive_sweep_report(&env, &mut slow, &learner, theta, passes);
                    assert_eq!(report_fast, report_slow, "theta={theta} n={env_n}");
                    let fast_bits: Vec<u32> = fast.raw().iter().map(|v| v.to_bits()).collect();
                    let slow_bits: Vec<u32> = slow.raw().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(fast_bits, slow_bits, "theta={theta} n={env_n}");
                }
            }
        }
    }

    #[test]
    fn optimized_sweep_matches_naive_from_warm_nonzero_table() {
        // Warm tables exercise the incremental row-max bookkeeping from
        // a state where maxima sit at arbitrary positions (including
        // demotions of the current maximum).
        let env = Scramble { n: 33 };
        let learner = QLearning::new(0.3, 0.8);
        let mut seed = QTable::new(33, 5);
        for s in 0..33 {
            for a in 0..5 {
                seed.set(s, a, ((s * 5 + a) as f64).cos() * 2.0);
            }
        }
        let mut fast = seed.clone();
        let mut slow = seed;
        let rf = batch_value_sweep_report(&env, &mut fast, &learner, 1e-7, 300);
        let rs = naive_sweep_report(&env, &mut slow, &learner, 1e-7, 300);
        assert_eq!(rf, rs);
        assert_eq!(fast.raw(), slow.raw());
    }

    #[test]
    fn warm_start_converges_faster() {
        let env = Ridge { n: 31, peak: 11 };
        let learner = QLearning::new(0.5, 0.9);
        let mut cold = QTable::new(31, 3);
        let cold_passes = batch_value_sweep(&env, &mut cold, &learner, 1e-4, 10_000);
        // Re-run from the converged table: should stop almost immediately.
        let mut warm = QTable::new(31, 3);
        warm.copy_from(&cold);
        let warm_passes = batch_value_sweep(&env, &mut warm, &learner, 1e-4, 10_000);
        assert!(
            warm_passes < cold_passes,
            "warm {warm_passes} vs cold {cold_passes}"
        );
    }
}
