//! Cross-crate invariant tests: the pieces agree with each other at the
//! seams (lattice ↔ simulator, MDP ↔ RL, properties under random use).

use proptest::prelude::*;
use rac::{Action, ConfigLattice, ConfigMdp, SlaReward};
use rl::{Environment, QTable};
use simkernel::{Pcg64, SimDuration};
use tpcw::Mix;
use vmstack::ResourceLevel;
use websim::{Param, ServerConfig, SystemSpec, ThreeTierSystem};

/// Every lattice state is a configuration the simulator accepts at
/// runtime without panicking and keeps serving under.
#[test]
fn every_lattice_state_is_runnable() {
    let lattice = ConfigLattice::new(3);
    let mut sys = ThreeTierSystem::new(SystemSpec::default().with_clients(40).with_seed(5));
    // Exercise a deterministic sample of states, including the corners.
    let probe: Vec<usize> = (0..lattice.num_states())
        .step_by(lattice.num_states() / 40)
        .collect();
    for state in probe {
        let cfg = lattice.config_at(state);
        sys.set_config(cfg);
        let s = sys.run_interval(SimDuration::from_secs(20));
        assert!(s.refused < 10_000, "mass refusals at state {state}: {s}");
    }
}

/// The MDP transition table agrees with the lattice and action
/// semantics for every action from random states.
#[test]
fn mdp_transitions_agree_with_lattice() {
    let lattice = ConfigLattice::new(4);
    let mdp = ConfigMdp::new(&lattice, SlaReward::new(1_000.0));
    let mut rng = Pcg64::seed_from_u64(77);
    for _ in 0..200 {
        let s = rng.below(lattice.num_states() as u64) as usize;
        let mut coords = lattice.space().decode(s);
        let a = rng.below(Action::COUNT as u64) as usize;
        Action::from_index(a).apply(&mut coords, lattice.levels());
        assert_eq!(mdp.transition(s, a), lattice.space().encode(&coords));
    }
}

/// Actions always yield configurations that differ in at most one
/// parameter and by exactly one lattice step.
#[test]
fn actions_change_at_most_one_parameter() {
    let lattice = ConfigLattice::new(4);
    let mdp = ConfigMdp::new(&lattice, SlaReward::new(1_000.0));
    let mut rng = Pcg64::seed_from_u64(78);
    for _ in 0..200 {
        let s = rng.below(lattice.num_states() as u64) as usize;
        let a = rng.below(Action::COUNT as u64) as usize;
        let s2 = mdp.transition(s, a);
        let before = lattice.config_at(s);
        let after = lattice.config_at(s2);
        let changed: Vec<Param> = Param::ALL
            .into_iter()
            .filter(|&p| before.get(p) != after.get(p))
            .collect();
        assert!(changed.len() <= 1, "action {a} changed {changed:?}");
    }
}

/// The simulator honours every traffic mix / level combination of
/// Table 2 without stalling.
#[test]
fn all_table2_combinations_serve_requests() {
    for context in rac::paper_contexts() {
        let spec = SystemSpec::default()
            .with_clients(60)
            .with_mix(context.mix)
            .with_level(context.level)
            .with_seed(6);
        let mut sys = ThreeTierSystem::new(spec);
        let s = sys.run_interval(SimDuration::from_secs(90));
        assert!(s.is_measurable(), "{context}: no completions");
        assert!(s.throughput_rps > 1.0, "{context}: throughput {s}");
    }
}

/// Reconfiguring mid-flight never loses the system: it keeps completing
/// requests across an aggressive random reconfiguration schedule.
#[test]
fn random_reconfiguration_storm_is_safe() {
    let lattice = ConfigLattice::new(3);
    let mut rng = Pcg64::seed_from_u64(9);
    let mut sys = ThreeTierSystem::new(SystemSpec::default().with_clients(80).with_seed(9));
    let mut total = 0u64;
    for i in 0..30 {
        let state = rng.below(lattice.num_states() as u64) as usize;
        sys.set_config(lattice.config_at(state));
        if i % 7 == 3 {
            let level = ResourceLevel::ALL[rng.below(3) as usize];
            sys.set_resource_level(level);
        }
        if i % 11 == 5 {
            let mix = Mix::ALL[rng.below(3) as usize];
            sys.set_workload(40 + (rng.below(80) as usize), mix);
        }
        let s = sys.run_interval(SimDuration::from_secs(30));
        total += s.completed;
    }
    assert!(
        total > 500,
        "storm starved the system: only {total} completions"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random greedy walks through any Q-table stay inside the state
    /// space and produce valid configurations.
    #[test]
    fn prop_greedy_walks_stay_valid(seed: u64) {
        let lattice = ConfigLattice::new(3);
        let mdp = ConfigMdp::new(&lattice, SlaReward::new(1_000.0));
        let mut q = QTable::new(lattice.num_states(), Action::COUNT);
        let mut rng = Pcg64::seed_from_u64(seed);
        // Random Q-values → arbitrary greedy policy.
        for _ in 0..5_000 {
            let s = rng.below(lattice.num_states() as u64) as usize;
            let a = rng.below(Action::COUNT as u64) as usize;
            q.set(s, a, rng.f64() * 10.0 - 5.0);
        }
        let mut s = rng.below(lattice.num_states() as u64) as usize;
        for _ in 0..64 {
            s = mdp.transition(s, q.best_action(s));
            prop_assert!(s < lattice.num_states());
            let cfg = lattice.config_at(s);
            prop_assert_eq!(lattice.state_of(&cfg), s);
        }
    }

    /// Rewards seen by the MDP are always within the SLA reward bounds.
    #[test]
    fn prop_rewards_bounded(seed: u64) {
        let lattice = ConfigLattice::new(3);
        let mut mdp = ConfigMdp::new(&lattice, SlaReward::new(500.0));
        let mut rng = Pcg64::seed_from_u64(seed);
        for _ in 0..100 {
            let s = rng.below(lattice.num_states() as u64) as usize;
            mdp.set_perf(s, rng.f64() * 10_000.0);
        }
        for _ in 0..100 {
            let s = rng.below(lattice.num_states() as u64) as usize;
            let a = rng.below(Action::COUNT as u64) as usize;
            let s2 = mdp.transition(s, a);
            let r = mdp.reward(s2);
            prop_assert!((-SlaReward::PENALTY_CAP..=1.0).contains(&r));
        }
    }
}

/// Clone-independence: a cloned system evolves identically to its
/// original (no hidden shared state).
#[test]
fn cloned_system_is_independent_but_identical() {
    let mut a = ThreeTierSystem::new(SystemSpec::default().with_clients(50).with_seed(3));
    let _ = a.run_interval(SimDuration::from_secs(60));
    let mut b = a.clone();
    let sa = a.run_interval(SimDuration::from_secs(60));
    let sb = b.run_interval(SimDuration::from_secs(60));
    assert_eq!(sa, sb);
    // Diverge one copy: the other is unaffected.
    b.set_config(
        ServerConfig::default()
            .with(Param::MaxClients, 5)
            .expect("in range"),
    );
    let sa2 = a.run_interval(SimDuration::from_secs(60));
    let sb2 = b.run_interval(SimDuration::from_secs(60));
    assert_ne!(sa2, sb2);
}
