//! Tabular reinforcement learning for the RAC agent.
//!
//! The paper casts online auto-configuration as a finite Markov decision
//! process whose states are configurations and whose actions adjust one
//! parameter at a time, solved with temporal-difference Q-learning
//! (Section 3.2, Algorithm 1). This crate provides the generic machinery,
//! independent of web systems:
//!
//! * [`IndexSpace`] — mixed-radix encoding of multi-dimensional discrete
//!   state lattices into dense indices.
//! * [`QTable`] — a dense `#states × #actions` table of action values.
//! * [`QLearning`] — the TD(0) learning and discount rates, with the
//!   scalar Q-learning backup the sweep is tested against.
//! * [`Environment`] + [`batch_value_sweep`] — Algorithm 1: repeated
//!   full-table sweeps against a (deterministic) model of the
//!   environment until the largest Q change drops below θ.
//! * [`SweepPlan`] — the level order and block layout the sweep runs
//!   in, which reproduces the index-order sweep bit for bit.
//!
//! # Example
//!
//! Solve a toy chain MDP where the reward peaks at state 7:
//!
//! ```
//! use rl::{batch_value_sweep, Environment, QLearning, QTable};
//!
//! struct Chain;
//! impl Environment for Chain {
//!     fn num_states(&self) -> usize { 10 }
//!     fn num_actions(&self) -> usize { 3 } // left, stay, right
//!     fn transition(&self, s: usize, a: usize) -> usize {
//!         match a { 0 => s.saturating_sub(1), 1 => s, _ => (s + 1).min(9) }
//!     }
//!     fn reward(&self, s2: usize) -> f64 {
//!         -((s2 as f64) - 7.0).abs()
//!     }
//! }
//!
//! let mut q = QTable::new(10, 3);
//! batch_value_sweep(&Chain, &mut q, &QLearning::new(1.0, 0.9), 1e-6, 500);
//! // From state 0 the learned policy walks right.
//! assert_eq!(q.best_action(0), 2);
//! // From state 9 it walks left.
//! assert_eq!(q.best_action(9), 0);
//! ```

mod plan;
mod qtable;
mod space;
mod sweep;

pub use plan::SweepPlan;
pub use qtable::{QLearning, QTable};
pub use space::IndexSpace;
pub use sweep::{batch_value_sweep, batch_value_sweep_report, Environment, SweepReport};
