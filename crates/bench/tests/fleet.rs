//! End-to-end fleet contracts, exercised through the same reporting
//! path `figures fleet` uses: the emitted CSVs — not just the in-memory
//! outcomes — must be byte-identical at any thread count and across a
//! kill-and-resume, and a mismatched warm-start library must fail typed
//! at the seeding boundary rather than panicking mid-fleet.

use ckpt::{Snapshot, SnapshotWriter};
use fleet::{FleetConfig, FleetError, FleetRun, TransferError};
use rac::runner::Runner;
use rac_bench::fleet::{aggregate, aggregate_table, tenants_csv};

fn small_config() -> FleetConfig {
    FleetConfig {
        tenants: 6,
        seed: 42,
        cold: 2,
        chunk: 2,
        scale_den: 40, // compressed timeline: integration-test speed
        online_levels: 3,
        control: true,
        radius: 2.0, // ungated: keep every warm tenant warm
    }
}

fn run_to_completion(config: FleetConfig, runner: &Runner) -> FleetRun {
    let mut run = FleetRun::new(config).unwrap();
    while !run.is_complete() {
        run.step(runner).unwrap();
    }
    run
}

#[test]
fn emitted_csvs_are_bit_identical_across_thread_counts() {
    let serial = run_to_completion(small_config(), &Runner::new(1));
    let sharded = run_to_completion(small_config(), &Runner::new(8));
    assert_eq!(
        tenants_csv(&serial),
        tenants_csv(&sharded),
        "per-tenant CSV must not depend on RAC_THREADS"
    );
    assert_eq!(
        aggregate_table(&aggregate(&serial)).render_csv(),
        aggregate_table(&aggregate(&sharded)).render_csv(),
        "aggregate CSV must not depend on RAC_THREADS"
    );
}

#[test]
fn kill_and_resume_reproduces_the_uninterrupted_csvs() {
    let runner = Runner::new(2);
    let uninterrupted = run_to_completion(small_config(), &runner);

    // Run two steps (cold wave + one warm chunk), checkpoint through
    // the wire, drop the run, resume, and finish.
    let mut first = FleetRun::new(small_config()).unwrap();
    first.step(&runner).unwrap();
    first.step(&runner).unwrap();
    assert!(!first.is_complete());
    let mut w = SnapshotWriter::new();
    first.save(&mut w);
    let bytes = w.to_bytes();
    drop(first);

    let snap = Snapshot::from_bytes(&bytes).unwrap();
    let mut resumed = FleetRun::resume(small_config(), &snap).unwrap();
    while !resumed.is_complete() {
        resumed.step(&runner).unwrap();
    }
    assert_eq!(tenants_csv(&uninterrupted), tenants_csv(&resumed));
    assert_eq!(
        aggregate_table(&aggregate(&uninterrupted)).render_csv(),
        aggregate_table(&aggregate(&resumed)).render_csv()
    );
}

#[test]
fn mismatched_library_warm_start_fails_typed_before_any_tenant_runs() {
    // Regression: a `--warm-start` library trained on a different
    // parameter lattice used to panic deep inside agent construction; it
    // must surface `TransferError::LatticeMismatch` at fleet
    // construction instead.
    let wrong_levels = small_config().online_levels + 1;
    let lattice = rac::ConfigLattice::new(wrong_levels);
    let policy = rac::train_initial_policy(
        &lattice,
        rac::SlaReward::new(1_000.0),
        rac::OfflineSettings { group_levels: 2 },
        |c: &websim::ServerConfig| 100.0 + c.max_clients() as f64 * 0.1,
    )
    .unwrap();
    let mut library = rac::PolicyLibrary::new();
    library.insert(rac::paper_contexts()[0], policy);

    match FleetRun::with_library(small_config(), &library) {
        Err(FleetError::Transfer(TransferError::LatticeMismatch {
            policy_states,
            store_states,
            ..
        })) => {
            assert_eq!(policy_states, lattice.num_states());
            assert_eq!(
                store_states,
                rac::ConfigLattice::new(small_config().online_levels).num_states()
            );
        }
        other => panic!("expected a typed lattice mismatch, got {other:?}"),
    }
}
