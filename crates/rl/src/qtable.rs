//! Dense Q-tables and temporal-difference updates.

/// A dense table of action values `Q(s, a)`, stored as `f32` to keep
/// large configuration lattices cache- and memory-friendly.
///
/// # Example
///
/// ```
/// use rl::QTable;
///
/// let mut q = QTable::new(4, 2);
/// q.set(1, 0, 0.5);
/// q.set(1, 1, 1.5);
/// assert_eq!(q.best_action(1), 1);
/// assert_eq!(q.max_q(1), 1.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QTable {
    values: Vec<f32>,
    states: usize,
    actions: usize,
}

impl QTable {
    /// Creates a zero-initialized table.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the table would overflow
    /// memory indexing.
    pub fn new(states: usize, actions: usize) -> Self {
        assert!(
            states > 0 && actions > 0,
            "table dimensions must be positive"
        );
        let size = states.checked_mul(actions).expect("Q-table too large");
        QTable {
            values: vec![0.0; size],
            states,
            actions,
        }
    }

    /// Number of states.
    pub fn states(&self) -> usize {
        self.states
    }

    /// Number of actions per state.
    pub fn actions(&self) -> usize {
        self.actions
    }

    #[inline]
    fn idx(&self, s: usize, a: usize) -> usize {
        debug_assert!(
            s < self.states && a < self.actions,
            "({s},{a}) out of bounds"
        );
        s * self.actions + a
    }

    /// Reads `Q(s, a)`.
    #[inline]
    pub fn get(&self, s: usize, a: usize) -> f64 {
        self.values[self.idx(s, a)] as f64
    }

    /// Writes `Q(s, a)`.
    #[inline]
    pub fn set(&mut self, s: usize, a: usize, value: f64) {
        let i = self.idx(s, a);
        self.values[i] = value as f32;
    }

    /// The greedy action at `s` (ties broken toward the lowest index,
    /// deterministically).
    pub fn best_action(&self, s: usize) -> usize {
        let row = &self.values[s * self.actions..(s + 1) * self.actions];
        let mut best = 0;
        for (a, v) in row.iter().enumerate().skip(1) {
            if *v > row[best] {
                best = a;
            }
        }
        best
    }

    /// `max_a Q(s, a)`.
    pub fn max_q(&self, s: usize) -> f64 {
        let row = &self.values[s * self.actions..(s + 1) * self.actions];
        row.iter().copied().fold(f32::NEG_INFINITY, f32::max) as f64
    }

    /// The raw state-major value storage, for persistence. Row `s`
    /// occupies `raw()[s * actions .. (s + 1) * actions]`.
    pub fn raw(&self) -> &[f32] {
        &self.values
    }

    /// Mutable raw storage for the sweep hot loop, which indexes rows by
    /// precomputed stride instead of going through [`get`](Self::get) /
    /// [`set`](Self::set) per update.
    pub(crate) fn raw_mut(&mut self) -> &mut [f32] {
        &mut self.values
    }

    /// Rebuilds a table from storage previously captured with
    /// [`QTable::raw`].
    ///
    /// # Panics
    ///
    /// Panics if the dimensions are zero or `values.len() != states *
    /// actions` — callers restoring untrusted data must validate the
    /// shape first.
    pub fn from_raw(states: usize, actions: usize, values: Vec<f32>) -> Self {
        assert!(
            states > 0 && actions > 0,
            "table dimensions must be positive"
        );
        assert_eq!(
            values.len(),
            states * actions,
            "raw Q-table length mismatch"
        );
        QTable {
            values,
            states,
            actions,
        }
    }

    /// Copies all values from another table of identical shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn copy_from(&mut self, other: &QTable) {
        assert_eq!(
            (self.states, self.actions),
            (other.states, other.actions),
            "Q-table shape mismatch"
        );
        self.values.copy_from_slice(&other.values);
    }
}

/// Temporal-difference learning parameters (the paper uses α = 0.1,
/// γ = 0.9).
///
/// # Example
///
/// ```
/// use rl::{QLearning, QTable};
///
/// let mut q = QTable::new(2, 2);
/// let td = QLearning::new(0.5, 0.9);
/// // Take action 1 in state 0, land in state 1 with reward 1.0.
/// let next_value = q.max_q(1);
/// let delta = td.update_toward(&mut q, 0, 1, 1.0, next_value);
/// assert!((q.get(0, 1) - 0.5).abs() < 1e-6);
/// assert!((delta - 0.5).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QLearning {
    alpha: f64,
    gamma: f64,
}

impl QLearning {
    /// Creates an updater with learning rate `alpha` and discount
    /// `gamma`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]` or `gamma` outside `[0, 1)`.
    pub fn new(alpha: f64, gamma: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        assert!((0.0..1.0).contains(&gamma), "gamma must be in [0, 1)");
        QLearning { alpha, gamma }
    }

    /// Learning rate α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Discount rate γ.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// TD update toward an externally supplied successor value:
    /// `Q(s,a) += α · (r + γ · next_value − Q(s,a))`. With `next_value =
    /// max_a' Q(s',a')` this is the off-policy Q-learning backup — the
    /// scalar reference [`batch_value_sweep`](crate::batch_value_sweep)'s
    /// in-place loop is tested bit-identical against.
    ///
    /// Returns the absolute change, used for Algorithm 1's convergence
    /// test.
    pub fn update_toward(
        &self,
        q: &mut QTable,
        s: usize,
        a: usize,
        r: f64,
        next_value: f64,
    ) -> f64 {
        let old = q.get(s, a);
        let target = r + self.gamma * next_value;
        let new = old + self.alpha * (target - old);
        q.set(s, a, new);
        (new - old).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_table_is_zero() {
        let q = QTable::new(3, 2);
        for s in 0..3 {
            for a in 0..2 {
                assert_eq!(q.get(s, a), 0.0);
            }
        }
        assert_eq!(q.states(), 3);
        assert_eq!(q.actions(), 2);
    }

    #[test]
    fn best_action_tie_breaks_low() {
        let q = QTable::new(1, 3);
        assert_eq!(q.best_action(0), 0);
        let mut q2 = QTable::new(1, 3);
        q2.set(0, 2, 5.0);
        q2.set(0, 1, 5.0);
        assert_eq!(q2.best_action(0), 1, "first maximal action wins");
    }

    #[test]
    fn update_moves_toward_target() {
        let mut q = QTable::new(2, 1);
        let td = QLearning::new(0.1, 0.9);
        q.set(1, 0, 10.0);
        // target = 1 + 0.9*10 = 10; delta = 0.1 * 10 = 1
        let next_value = q.max_q(1);
        let delta = td.update_toward(&mut q, 0, 0, 1.0, next_value);
        assert!((delta - 1.0).abs() < 1e-6);
        assert!((q.get(0, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn repeated_updates_converge_to_fixed_point() {
        let mut q = QTable::new(1, 1);
        let td = QLearning::new(0.5, 0.5);
        // Self-loop with reward 1: fixed point Q = 1 / (1 - γ) = 2.
        for _ in 0..100 {
            let next_value = q.max_q(0);
            td.update_toward(&mut q, 0, 0, 1.0, next_value);
        }
        assert!((q.get(0, 0) - 2.0).abs() < 1e-4);
    }

    #[test]
    fn copy_from_copies_every_value() {
        let mut a = QTable::new(2, 2);
        a.set(0, 0, 3.0);
        a.set(1, 1, -2.0);
        let mut b = QTable::new(2, 2);
        b.copy_from(&a);
        assert_eq!(b, a);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn copy_shape_mismatch_panics() {
        QTable::new(2, 2).copy_from(&QTable::new(2, 3));
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_panics() {
        QLearning::new(0.0, 0.9);
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn bad_gamma_panics() {
        QLearning::new(0.1, 1.0);
    }

    proptest! {
        /// TD updates keep values bounded when rewards are bounded:
        /// |Q| ≤ r_max / (1 − γ).
        #[test]
        fn prop_bounded_values(
            rewards in proptest::collection::vec(-1.0f64..1.0, 1..100),
        ) {
            let mut q = QTable::new(3, 2);
            let td = QLearning::new(0.2, 0.9);
            let bound = 1.0 / (1.0 - 0.9) + 1e-3;
            for (i, r) in rewards.iter().enumerate() {
                let s = i % 3;
                let a = i % 2;
                let s2 = (i + 1) % 3;
                let next_value = q.max_q(s2);
                td.update_toward(&mut q, s, a, *r, next_value);
                prop_assert!(q.get(s, a).abs() <= bound);
            }
        }
    }
}
