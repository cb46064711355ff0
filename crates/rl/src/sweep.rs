//! Algorithm 1: batch value sweeps against an environment model.

use std::sync::Arc;

use crate::plan::{SweepPlan, LANES};
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
    /// times and expects the same answer every time.
    fn transition(&self, s: usize, a: usize) -> usize;
    /// Immediate reward for arriving in `s2`, whichever state and action
    /// led there.
    ///
    /// Must be pure, like [`transition`](Self::transition).
    fn reward(&self, s2: usize) -> f64;
    /// The [`SweepPlan`] a sweep runs on, which must agree with
    /// [`transition`](Self::transition). The default derives one on
    /// every call; a model swept repeatedly keeps its plan and shares
    /// it, so a table it swept stays in plan layout between sweeps.
    fn plan(&self) -> Arc<SweepPlan> {
        Arc::new(SweepPlan::new(
            self.num_states(),
            self.num_actions(),
            |s, a| self.transition(s, a),
        ))
    }
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
/// is negative, `max_passes` is zero, or a transition leaves the state
/// space.
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
/// Each pass is a Gauss–Seidel pass in state-index order: state by
/// state, action by action, every entry moves toward `r(s') + γ ·
/// max_a' Q(s', a')` with the successor's row maximum as it stands at
/// that moment, in the arithmetic of [`QLearning::update_toward`]. The
/// sweep computes exactly those values, bit for bit, in another order:
///
/// * A row reads only its successors' maxima. A successor with a lower
///   index has been updated earlier in the pass, one with a higher
///   index has not. Any order that keeps every pair of states that read
///   each other in index order therefore reads the same values. Level
///   order ([`SweepPlan`]) is such an order, and no two states of one
///   level read each other. On the configuration lattice the level is
///   the coordinate sum.
/// * So the rows of a level are independent: they are updated
///   eight at a time, one action at a time across a block stored
///   `[action][lane]`, which the compiler vectorizes.
/// * A self-loop at action `a` reads the row's maximum over the new
///   values of actions before `a` and the old values from `a` on —
///   what the index-order sweep's running maximum holds there.
/// * The pass's error is the maximum of per-lane maxima, so pass counts
///   and `max_delta` are unchanged too.
///
/// The table is permuted into plan layout in place, and stays in it
/// (see [`QTable`]): no second table is held, and the next sweep on the
/// same plan starts at once.
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
    let plan = env.plan();
    assert_eq!(
        (plan.num_states(), plan.num_actions()),
        (q.states(), q.actions()),
        "plan shape mismatch"
    );

    let actions = plan.num_actions();
    let slots = plan.blocks() * LANES;
    // Per-slot rewards and row maxima. Padding lanes hold zeros in every
    // entry, so they stay zero and never raise the error.
    let mut reward = vec![0.0f64; slots];
    let mut row_max = vec![0.0f32; slots];
    for s in 0..plan.num_states() {
        reward[plan.slot(s)] = env.reward(s);
    }
    let values = q.in_layout(&plan);
    for k in 0..plan.blocks() {
        let (start, width) = plan.block(k);
        let maxima = &mut row_max[k * LANES..k * LANES + width];
        maxima.fill(f32::NEG_INFINITY);
        for column in values[start * actions..(start + width) * actions].chunks_exact(width) {
            for (m, &v) in maxima.iter_mut().zip(column) {
                *m = max(*m, v);
            }
        }
    }

    let alpha = learner.alpha();
    let gamma = learner.gamma();
    let mut suffix = vec![[0.0f32; LANES]; actions];
    let mut padded = vec![0.0f32; actions * LANES];
    let mut report = SweepReport::default();
    for pass in 1..=max_passes {
        let mut error = [0.0f64; LANES];
        for k in 0..plan.blocks() {
            let (start, width) = plan.block(k);
            let rows = start * actions..(start + width) * actions;
            // A level's last block is swept in a copy widened to
            // `LANES`, its padding lanes zero.
            let narrow = width < LANES;
            if narrow {
                for (lanes, column) in padded
                    .chunks_exact_mut(LANES)
                    .zip(values[rows.clone()].chunks_exact(width))
                {
                    lanes[..width].copy_from_slice(column);
                    lanes[width..].fill(0.0);
                }
            }
            sweep_block(
                if narrow {
                    &mut padded
                } else {
                    &mut values[rows.clone()]
                },
                plan.block_successors(k),
                k * LANES,
                &reward,
                &mut row_max,
                &mut suffix,
                alpha,
                gamma,
                &mut error,
            );
            if narrow {
                for (lanes, column) in padded
                    .chunks_exact(LANES)
                    .zip(values[rows].chunks_exact_mut(width))
                {
                    column.copy_from_slice(&lanes[..width]);
                }
            }
        }
        let error = error.into_iter().fold(0.0, max);
        report.passes = pass;
        report.max_delta = error;
        report.updates += (plan.num_states() * actions) as u64;
        if error < theta {
            break;
        }
    }
    report
}

/// The larger of a running maximum and `x`, skipping a NaN `x` as
/// `f32::max` and `f64::max` do. The sweep's maxima start at 0 or −∞ and
/// so never hold NaN; on them this agrees with `max` up to the sign of a
/// zero, which no update can observe (`±0 − old` is `−old` for a nonzero
/// `old`, and every mix of signed zeros stores `+0`). It compiles to one
/// `maxps`/`maxpd` instead of `max`'s NaN fix-up.
#[inline(always)]
fn max<T: PartialOrd>(acc: T, x: T) -> T {
    if x > acc {
        x
    } else {
        acc
    }
}

/// One pass over one block: `q` holds its values and `succ` its
/// successor slots, both `[action][lane]`; its lanes are slots `own ..
/// own + LANES`. Folds each lane's largest |ΔQ| into `error`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn sweep_block(
    q: &mut [f32],
    succ: &[u32],
    own: usize,
    reward: &[f64],
    row_max: &mut [f32],
    suffix: &mut [[f32; LANES]],
    alpha: f64,
    gamma: f64,
    error: &mut [f64; LANES],
) {
    let mut old_max = [f32::NEG_INFINITY; LANES];
    for (values, suffix) in q.chunks_exact(LANES).zip(suffix.iter_mut()).rev() {
        for lane in 0..LANES {
            old_max[lane] = max(old_max[lane], values[lane]);
        }
        *suffix = old_max;
    }
    let mut new_max = [f32::NEG_INFINITY; LANES];
    for ((values, succ), old_max) in q
        .chunks_exact_mut(LANES)
        .zip(succ.chunks_exact(LANES))
        .zip(suffix.iter())
    {
        // The block's own row maxima as a self-loop reads them at this
        // action. No other row of the level reads them.
        let mut own_max = [0.0f32; LANES];
        for lane in 0..LANES {
            own_max[lane] = max(new_max[lane], old_max[lane]);
        }
        row_max[own..own + LANES].copy_from_slice(&own_max);
        let mut next = [0.0f32; LANES];
        let mut r = [0.0f64; LANES];
        for lane in 0..LANES {
            let s2 = succ[lane] as usize;
            next[lane] = row_max[s2];
            r[lane] = reward[s2];
        }
        // The arithmetic of `QLearning::update_toward`: f64 target, f32
        // store, f64 delta.
        for lane in 0..LANES {
            let old = values[lane] as f64;
            let target = r[lane] + gamma * next[lane] as f64;
            let new = old + alpha * (target - old);
            let new32 = new as f32;
            values[lane] = new32;
            new_max[lane] = max(new_max[lane], new32);
            error[lane] = max(error[lane], (new - old).abs());
        }
    }
    row_max[own..own + LANES].copy_from_slice(&new_max);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::rng::ShimRng;

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
        fn reward(&self, s2: usize) -> f64 {
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
        fn reward(&self, _s2: usize) -> f64 {
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
                    let r = env.reward(s2);
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
        fn reward(&self, s2: usize) -> f64 {
            ((s2 * 31 + 17) as f64).sin() / 3.0
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
                    let fast_bits: Vec<u32> = fast.values().map(f32::to_bits).collect();
                    let slow_bits: Vec<u32> = slow.values().map(f32::to_bits).collect();
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
        assert_eq!(fast, slow);
    }

    /// A random model: successors anywhere (self-loops common), rewards
    /// per destination, both drawn from few values so ties and signed
    /// zeros are frequent. With a kept plan, a table swept twice stays
    /// in plan layout between the sweeps; without one, each sweep gets a
    /// new plan and converts the table out of the last one's layout.
    struct Graph {
        actions: usize,
        next: Vec<usize>,
        reward: Vec<f64>,
        plan: Option<Arc<SweepPlan>>,
    }

    /// A value from a small set that includes both zeros.
    fn tied(rng: &mut ShimRng) -> f64 {
        [0.0, -0.0, 0.5, -0.25, 1.0 / 3.0, -1.0][rng.below(6) as usize]
    }

    impl Graph {
        fn random(states: usize, actions: usize, keep_plan: bool, rng: &mut ShimRng) -> Self {
            let next: Vec<usize> = (0..states * actions)
                .map(|i| {
                    if rng.below(4) == 0 {
                        i / actions
                    } else {
                        rng.below(states as u64) as usize
                    }
                })
                .collect();
            let reward = (0..states).map(|_| tied(rng)).collect();
            let mut graph = Graph {
                actions,
                next,
                reward,
                plan: None,
            };
            if keep_plan {
                graph.plan = Some(graph.plan());
            }
            graph
        }
    }

    impl Environment for Graph {
        fn num_states(&self) -> usize {
            self.reward.len()
        }
        fn num_actions(&self) -> usize {
            self.actions
        }
        fn transition(&self, s: usize, a: usize) -> usize {
            self.next[s * self.actions + a]
        }
        fn reward(&self, s2: usize) -> f64 {
            self.reward[s2]
        }
        fn plan(&self) -> Arc<SweepPlan> {
            self.plan.clone().unwrap_or_else(|| {
                Arc::new(SweepPlan::new(self.reward.len(), self.actions, |s, a| {
                    self.transition(s, a)
                }))
            })
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The level-order kernel equals the index-order oracle bit for
        /// bit on arbitrary graphs, cold and warm, over two calls.
        #[test]
        fn prop_sweep_matches_naive_oracle_on_random_graphs(
            states in 1usize..=200,
            actions in 1usize..=9,
            seed: u64,
            warm: bool,
            tight: bool,
            keep_plan: bool,
            max_passes in 1usize..=50,
            learner in 0usize..4,
        ) {
            let mut rng = ShimRng::new(seed);
            let env = Graph::random(states, actions, keep_plan, &mut rng);
            let learner = [(0.1, 0.9), (0.5, 0.5), (1.0, 0.0), (0.3, 0.99)][learner];
            let learner = QLearning::new(learner.0, learner.1);
            let theta = if tight { 0.0 } else { 1e-3 };
            let mut fast = QTable::new(states, actions);
            if warm {
                for s in 0..states {
                    for a in 0..actions {
                        fast.set(s, a, tied(&mut rng));
                    }
                }
            }
            let mut slow = fast.clone();
            for call in 0..2 {
                let report = batch_value_sweep_report(&env, &mut fast, &learner, theta, max_passes);
                let oracle = naive_sweep_report(&env, &mut slow, &learner, theta, max_passes);
                prop_assert_eq!(report, oracle, "call {}", call);
                let fast_bits: Vec<u32> = fast.values().map(f32::to_bits).collect();
                let slow_bits: Vec<u32> = slow.values().map(f32::to_bits).collect();
                prop_assert_eq!(fast_bits, slow_bits, "call {}", call);
            }
        }
    }

    #[test]
    fn one_way_chain_puts_one_state_in_each_level() {
        let plan = SweepPlan::new(10, 2, |s, a| if a == 0 { s } else { (s + 1).min(9) });
        assert_eq!(plan.levels(), 10);
        for l in 0..10 {
            assert_eq!(plan.level(l), &[l as u32]);
        }
        // Reversed edges give the same levels: a pair is ordered by index.
        let plan = SweepPlan::new(10, 2, |s, a| if a == 0 { s } else { s.saturating_sub(1) });
        assert_eq!(plan.levels(), 10);
        assert_eq!(plan.successor(4, 1), 3);
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
