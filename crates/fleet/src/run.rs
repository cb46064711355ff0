//! The fleet driver: sharded tenant experiments with policy transfer.
//!
//! A fleet run proceeds in **steps**. The first step is the *cold wave*:
//! the first [`FleetConfig::cold`] tenants tune from scratch
//! ([`rac::RacAgent::new`]) in parallel over the shared work-queue
//! ([`rac::Runner::run_tasks`]). Every later step is a *chunk* of up to
//! [`FleetConfig::chunk`] warm tenants, each seeded from the nearest
//! finished donor in the [`TransferStore`] — provided that donor sits
//! within the transfer radius ([`FleetConfig::radius`]); a tenant with
//! no sufficiently similar donor tunes from scratch rather than risk
//! negative transfer. Donors are chosen on the
//! calling thread *before* the chunk is dispatched, and learned policies
//! join the store in tenant-index order *after* the chunk returns, so a
//! tenant's inputs — spec, scenario, donor policy — are fixed regardless
//! of worker interleaving:
//!
//! > **Fleet results are bit-identical at any `RAC_THREADS`.**
//!
//! Step boundaries are also the checkpoint boundaries: [`FleetRun::save`]
//! writes three sections (`fleet.meta`, `fleet.results`, `fleet.store`)
//! and [`FleetRun::resume`] restores them, validating the roster
//! fingerprint so a drifted generator or different `(count, seed)` is a
//! typed mismatch rather than a silently mixed fleet.

use ckpt::{CkptError, Snapshot, SnapshotWriter};
use rac::runner::Runner;
use rac::{Action, ConfigLattice, Experiment, IterationRecord, RacAgent, RacSettings};
use scenario::{bundled, Scenario};

use crate::tenant::{self, TenantSpec};
use crate::transfer::{TransferError, TransferStore};

/// Wire-format version of the fleet checkpoint sections.
const FLEET_FORMAT: u32 = 1;

const SECTION_META: &str = "fleet.meta";
const SECTION_RESULTS: &str = "fleet.results";
const SECTION_STORE: &str = "fleet.store";

/// An SLA-compliant streak must reach this length before its first
/// iteration counts as the tenant's time-to-SLA.
pub const SLA_STREAK: usize = 3;

/// A donor picked for a tenant before dispatch: name, squared feature
/// distance, and the policy to seed from.
type SelectedDonor = (String, f64, rac::InitialPolicy);

/// Errors a fleet run can surface.
#[derive(Debug)]
pub enum FleetError {
    /// The configuration is unusable (zero tenants, cold > tenants, …).
    Config(String),
    /// A checkpoint could not be read, or disagrees with this run's
    /// configuration or roster.
    Ckpt(CkptError),
    /// The policy-transfer seeding boundary rejected a policy.
    Transfer(TransferError),
    /// A tenant's assigned scenario failed to parse (bundled scenarios
    /// only fail if the generator and the bundle drift apart).
    Scenario(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Config(msg) => write!(f, "fleet config: {msg}"),
            FleetError::Ckpt(e) => write!(f, "fleet checkpoint: {e}"),
            FleetError::Transfer(e) => write!(f, "policy transfer: {e}"),
            FleetError::Scenario(msg) => write!(f, "scenario: {msg}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<CkptError> for FleetError {
    fn from(e: CkptError) -> Self {
        FleetError::Ckpt(e)
    }
}

impl From<TransferError> for FleetError {
    fn from(e: TransferError) -> Self {
        FleetError::Transfer(e)
    }
}

/// Shape of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Fleet size.
    pub tenants: usize,
    /// Registry seed (drives every tenant draw).
    pub seed: u64,
    /// Tenants in the cold wave (tuned from scratch; they become the
    /// initial donor pool).
    pub cold: usize,
    /// Warm tenants dispatched per step; the store grows between
    /// chunks, so later chunks pick from a richer donor pool.
    pub chunk: usize,
    /// Scenario timeline compression: every bundled scenario runs
    /// `scaled(1, scale_den)`, keeping its iteration count but
    /// shrinking simulated time per interval.
    pub scale_den: u64,
    /// Grid points per parameter in each agent's online lattice.
    pub online_levels: usize,
    /// Run a matched cold control for every warm tenant: the same
    /// tenant, same scenario, same seeds, but a from-scratch agent.
    /// This is what makes the cold-vs-warm comparison fair — cohort
    /// means compare *different* tenants (composition noise easily
    /// swamps the transfer effect), while the control pairs each warm
    /// tenant with itself. Costs one extra experiment per warm tenant.
    pub control: bool,
    /// Transfer radius: a tenant warm-starts only when its nearest
    /// donor sits within this squared feature distance; otherwise it
    /// tunes from scratch. Guards against *negative transfer* — a donor
    /// from a sufficiently different system misdirects early
    /// exploration and settles slower than a cold start. Feature
    /// distances span roughly 0..1.4, so a radius ≥ 2.0 disables the
    /// gate.
    pub radius: f64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            tenants: 200,
            seed: 42,
            cold: 50,
            chunk: 25,
            scale_den: 5,
            online_levels: 4,
            control: true,
            radius: 0.005,
        }
    }
}

impl FleetConfig {
    fn validate(&self) -> Result<(), FleetError> {
        let fail = |msg: String| Err(FleetError::Config(msg));
        if self.tenants == 0 {
            return fail("fleet needs at least 1 tenant".into());
        }
        if self.cold == 0 {
            return fail("cold wave needs at least 1 tenant (the first donor)".into());
        }
        if self.cold > self.tenants {
            return fail(format!(
                "cold wave of {} exceeds fleet size {}",
                self.cold, self.tenants
            ));
        }
        if self.chunk == 0 {
            return fail("chunk size must be at least 1".into());
        }
        if self.scale_den == 0 {
            return fail("scale denominator must be positive".into());
        }
        if self.online_levels < 2 {
            return fail("online lattice needs at least 2 levels per parameter".into());
        }
        if self.radius.is_nan() || self.radius <= 0.0 {
            return fail(format!(
                "transfer radius must be positive, got {}",
                self.radius
            ));
        }
        Ok(())
    }
}

/// What one tenant's experiment produced.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantOutcome {
    /// Roster index.
    pub id: usize,
    /// Donor the tenant warm-started from. `None` for the cold wave and
    /// for tenants whose nearest donor fell outside the transfer
    /// radius.
    pub donor: Option<DonorRef>,
    /// Measured iterations the scenario spanned.
    pub iterations: usize,
    /// First iteration opening an [`SLA_STREAK`]-long compliant streak;
    /// `iterations` when the tenant never settled.
    pub iters_to_sla: usize,
    /// Iterations meeting the tenant's SLA.
    pub attained: usize,
    /// Mean response time across the whole series (ms).
    pub mean_ms: f64,
    /// The matched cold control (same tenant, from-scratch agent).
    /// `None` for cold-wave tenants (they *are* their own control) and
    /// when [`FleetConfig::control`] is off.
    pub control: Option<ControlOutcome>,
}

/// Outcome of a warm tenant's matched cold-control run.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlOutcome {
    /// Iterations-to-SLA without the donor policy.
    pub iters_to_sla: usize,
    /// SLA-compliant iterations without the donor policy.
    pub attained: usize,
    /// Mean response time without the donor policy (ms).
    pub mean_ms: f64,
}

/// Donor provenance on a warm-started tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct DonorRef {
    /// The donor tenant's name.
    pub name: String,
    /// Squared feature distance at selection time.
    pub distance: f64,
}

/// A fleet run in progress: a cold wave, then chunks of warm tenants,
/// advanced one [`FleetRun::step`] at a time.
#[derive(Debug)]
pub struct FleetRun {
    config: FleetConfig,
    roster: Vec<TenantSpec>,
    store: TransferStore,
    outcomes: Vec<TenantOutcome>,
}

impl FleetRun {
    /// A fresh run: generates the roster and an empty transfer store.
    pub fn new(config: FleetConfig) -> Result<Self, FleetError> {
        config.validate()?;
        let roster = tenant::generate(config.tenants, config.seed);
        let states = ConfigLattice::new(config.online_levels).num_states();
        Ok(FleetRun {
            store: TransferStore::new(states, Action::COUNT),
            outcomes: Vec::new(),
            config,
            roster,
        })
    }

    /// A fresh run whose store is pre-seeded from a warm-start policy
    /// library: even the "cold" wave then warm-starts, and the library
    /// donors compete with finished tenants for nearest-neighbor
    /// selection. A library of another lattice is a typed
    /// [`TransferError::LatticeMismatch`].
    pub fn with_library(
        config: FleetConfig,
        library: &rac::PolicyLibrary,
    ) -> Result<Self, FleetError> {
        let mut run = FleetRun::new(config)?;
        run.store.seed_from_library(library)?;
        Ok(run)
    }

    /// Restores a run from its checkpoint sections.
    ///
    /// # Errors
    ///
    /// [`FleetError::Ckpt`] with [`CkptError::Mismatch`] when the
    /// checkpoint was written by a different configuration or roster.
    pub fn resume(config: FleetConfig, snap: &Snapshot) -> Result<Self, FleetError> {
        config.validate()?;
        let roster = tenant::generate(config.tenants, config.seed);

        let mut r = snap.section(SECTION_META)?;
        let format = r.get_u32()?;
        if format != FLEET_FORMAT {
            return Err(CkptError::Mismatch {
                detail: format!(
                    "fleet checkpoint format {format}, this build reads {FLEET_FORMAT}"
                ),
            }
            .into());
        }
        let saved = FleetConfig {
            tenants: r.get_usize()?,
            seed: r.get_u64()?,
            cold: r.get_usize()?,
            chunk: r.get_usize()?,
            scale_den: r.get_u64()?,
            online_levels: r.get_usize()?,
            control: r.get_bool()?,
            radius: r.get_f64()?,
        };
        if saved != config {
            return Err(CkptError::Mismatch {
                detail: format!(
                    "fleet checkpoint was written by {saved:?}, this run is {config:?}"
                ),
            }
            .into());
        }
        let fingerprint = r.get_u64()?;
        if fingerprint != tenant::roster_fingerprint(&roster) {
            return Err(CkptError::Mismatch {
                detail: "fleet checkpoint roster fingerprint does not match this generator; \
                         the tenant registry has drifted"
                    .to_string(),
            }
            .into());
        }
        r.finish()?;

        let states = ConfigLattice::new(config.online_levels).num_states();
        let mut r = snap.section(SECTION_STORE)?;
        let store = TransferStore::decode(&mut r, states, Action::COUNT)?;
        r.finish()?;

        let mut r = snap.section(SECTION_RESULTS)?;
        let count = r.get_usize()?;
        if count > config.tenants {
            return Err(CkptError::Corrupt {
                detail: format!(
                    "section `{SECTION_RESULTS}` holds {count} outcomes for a {}-tenant fleet",
                    config.tenants
                ),
            }
            .into());
        }
        let mut outcomes = Vec::with_capacity(count);
        for _ in 0..count {
            let id = r.get_usize()?;
            let donor = if r.get_bool()? {
                Some(DonorRef {
                    name: r.get_str()?,
                    distance: r.get_f64()?,
                })
            } else {
                None
            };
            let iterations = r.get_usize()?;
            let iters_to_sla = r.get_usize()?;
            let attained = r.get_usize()?;
            let mean_ms = r.get_f64()?;
            let control = if r.get_bool()? {
                Some(ControlOutcome {
                    iters_to_sla: r.get_usize()?,
                    attained: r.get_usize()?,
                    mean_ms: r.get_f64()?,
                })
            } else {
                None
            };
            outcomes.push(TenantOutcome {
                id,
                donor,
                iterations,
                iters_to_sla,
                attained,
                mean_ms,
                control,
            });
        }
        r.finish()?;

        Ok(FleetRun {
            config,
            roster,
            store,
            outcomes,
        })
    }

    /// Writes the run's checkpoint sections into `snap`.
    pub fn save(&self, snap: &mut SnapshotWriter) {
        snap.section(SECTION_META, |w| {
            w.put_u32(FLEET_FORMAT);
            w.put_usize(self.config.tenants);
            w.put_u64(self.config.seed);
            w.put_usize(self.config.cold);
            w.put_usize(self.config.chunk);
            w.put_u64(self.config.scale_den);
            w.put_usize(self.config.online_levels);
            w.put_bool(self.config.control);
            w.put_f64(self.config.radius);
            w.put_u64(tenant::roster_fingerprint(&self.roster));
        });
        snap.section(SECTION_RESULTS, |w| {
            w.put_usize(self.outcomes.len());
            for o in &self.outcomes {
                w.put_usize(o.id);
                match &o.donor {
                    Some(d) => {
                        w.put_bool(true);
                        w.put_str(&d.name);
                        w.put_f64(d.distance);
                    }
                    None => w.put_bool(false),
                }
                w.put_usize(o.iterations);
                w.put_usize(o.iters_to_sla);
                w.put_usize(o.attained);
                w.put_f64(o.mean_ms);
                match &o.control {
                    Some(c) => {
                        w.put_bool(true);
                        w.put_usize(c.iters_to_sla);
                        w.put_usize(c.attained);
                        w.put_f64(c.mean_ms);
                    }
                    None => w.put_bool(false),
                }
            }
        });
        snap.section(SECTION_STORE, |w| self.store.encode(w));
    }

    /// The run's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The generated roster, in tenant-id order.
    pub fn roster(&self) -> &[TenantSpec] {
        &self.roster
    }

    /// Finished-tenant outcomes, in tenant-id order.
    pub fn outcomes(&self) -> &[TenantOutcome] {
        &self.outcomes
    }

    /// The donor pool as it stands.
    pub fn store(&self) -> &TransferStore {
        &self.store
    }

    /// Tenants finished so far.
    pub fn done(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether every tenant has run.
    pub fn is_complete(&self) -> bool {
        self.outcomes.len() == self.config.tenants
    }

    /// Runs the next step — the remaining cold wave if any cold tenant
    /// is unfinished, otherwise the next warm chunk — sharded over
    /// `runner`. Returns the number of tenants that finished (0 when the
    /// run was already complete).
    ///
    /// # Errors
    ///
    /// [`FleetError::Scenario`] if a tenant's bundled scenario fails to
    /// parse, [`FleetError::Transfer`] if a learned policy is rejected
    /// at the store boundary (both indicate internal drift, not user
    /// error).
    pub fn step(&mut self, runner: &Runner) -> Result<usize, FleetError> {
        let done = self.outcomes.len();
        let (from, to) = if done < self.config.cold {
            (done, self.config.cold)
        } else {
            (done, (done + self.config.chunk).min(self.config.tenants))
        };
        if from >= to {
            return Ok(0);
        }

        // Donor selection happens here, on the calling thread, against
        // the store as of the previous step — never inside a worker. A
        // nearest donor outside the transfer radius is discarded: the
        // tenant tunes from scratch rather than risk negative transfer.
        let batch: Vec<(TenantSpec, Option<SelectedDonor>)> = self.roster[from..to]
            .iter()
            .map(|t| {
                let donor = self
                    .store
                    .nearest(t.features())
                    .filter(|&(_, dist)| dist <= self.config.radius)
                    .map(|(d, dist)| (d.name.clone(), dist, d.policy.clone()));
                (t.clone(), donor)
            })
            .collect();

        let results = runner.run_tasks(batch.len(), |i| {
            let (t, donor) = &batch[i];
            run_tenant(t, donor.as_ref(), &self.config)
        });

        for result in results {
            let (outcome, policy, spec) = result?;
            self.record(outcome, policy, &spec);
        }
        Ok(to - from)
    }

    /// Appends one finished tenant: outcome to the results, learned
    /// policy to the donor pool, progress to the live health cell.
    fn record(&mut self, outcome: TenantOutcome, policy: rac::InitialPolicy, spec: &TenantSpec) {
        self.store
            .insert(spec.name(), spec.features(), policy)
            .expect("a tenant's learned policy matches its own lattice");
        if obs::enabled() {
            let registry = obs::Registry::global();
            let name = spec.name();
            let labels = [("tenant", name.as_str())];
            registry
                .gauge(&obs::export::labeled(
                    "rac_fleet_tenant_iters_to_sla",
                    &labels,
                ))
                .set(outcome.iters_to_sla as i64);
            registry
                .gauge(&obs::export::labeled(
                    "rac_fleet_tenant_sla_attained",
                    &labels,
                ))
                .set(outcome.attained as i64);
            registry.counter("rac_fleet_tenants_done_total").inc();
        }
        self.outcomes.push(outcome);
        obs::health::global()
            .set_fleet_progress(self.outcomes.len() as u64, self.config.tenants as u64);
    }
}

/// Runs one tenant's full experiment. Pure in `(spec, donor, config)`:
/// the simulator stream is pinned by the tenant seed, the agent stream
/// by its settings seed, and the donor was fixed by the caller — so this
/// is safe to shard at any thread count.
#[allow(clippy::type_complexity)]
fn run_tenant(
    t: &TenantSpec,
    donor: Option<&SelectedDonor>,
    config: &FleetConfig,
) -> Result<(TenantOutcome, rac::InitialPolicy, TenantSpec), FleetError> {
    let src = bundled::by_name(t.scenario).ok_or_else(|| {
        FleetError::Scenario(format!(
            "tenant {} assigned unknown scenario {}",
            t.name(),
            t.scenario
        ))
    })?;
    let scn = Scenario::parse(src)
        .map_err(|e| FleetError::Scenario(format!("bundled scenario {}: {e}", t.scenario)))?
        .scaled(1, config.scale_den);

    let settings = RacSettings {
        online_levels: config.online_levels,
        sla_ms: t.sla_ms,
        seed: t.seed,
        ..RacSettings::default()
    };
    // The tenant's own spec wins over scenario header defaults (clients,
    // mix, level, seed): the scenario contributes only its timeline.
    let experiment = Experiment::new(t.system_spec())
        .with_interval(scn.interval)
        .with_warmup(scn.warmup);

    let mut agent = match donor {
        Some((_, _, policy)) => {
            RacAgent::with_initial_policy(settings.clone(), policy).map_err(|_| {
                FleetError::Transfer(TransferError::LatticeMismatch {
                    policy_states: policy.qtable.states(),
                    policy_actions: policy.qtable.actions(),
                    store_states: ConfigLattice::new(config.online_levels).num_states(),
                    store_actions: Action::COUNT,
                })
            })?
        }
        None => RacAgent::new(settings.clone()),
    };

    let series = experiment.run_scenario(&scn, &mut agent);
    let mut outcome = summarize(t, donor, &series);

    // The matched control: the identical tenant tuned from scratch.
    // Runs after the warm session, but both are pure functions of their
    // inputs, so ordering cannot couple them.
    if config.control && donor.is_some() {
        let mut cold_agent = RacAgent::new(settings);
        let control_series = experiment.run_scenario(&scn, &mut cold_agent);
        let (iters_to_sla, attained, mean_ms) = fold_series(t.sla_ms, &control_series);
        outcome.control = Some(ControlOutcome {
            iters_to_sla,
            attained,
            mean_ms,
        });
    }
    Ok((outcome, agent.learned_policy(), t.clone()))
}

/// Folds an iteration series into `(iters_to_sla, attained, mean_ms)`.
fn fold_series(sla_ms: f64, series: &[IterationRecord]) -> (usize, usize, f64) {
    let iterations = series.len();
    let attained = series.iter().filter(|r| r.response_ms <= sla_ms).count();
    let mut iters_to_sla = iterations;
    let mut streak = 0usize;
    for (i, r) in series.iter().enumerate() {
        if r.response_ms <= sla_ms {
            streak += 1;
            if streak == SLA_STREAK {
                iters_to_sla = i + 1 - SLA_STREAK;
                break;
            }
        } else {
            streak = 0;
        }
    }
    // Dropped intervals record an infinite response time; the mean is
    // taken over the finite samples (infinite only if nothing survived)
    // so one overloaded interval cannot poison the whole row.
    let finite: Vec<f64> = series
        .iter()
        .map(|r| r.response_ms)
        .filter(|x| x.is_finite())
        .collect();
    let mean_ms = if finite.is_empty() {
        f64::INFINITY
    } else {
        finite.iter().sum::<f64>() / finite.len() as f64
    };
    (iters_to_sla, attained, mean_ms)
}

/// Folds an iteration series into the tenant's outcome row.
fn summarize(
    t: &TenantSpec,
    donor: Option<&SelectedDonor>,
    series: &[IterationRecord],
) -> TenantOutcome {
    let (iters_to_sla, attained, mean_ms) = fold_series(t.sla_ms, series);
    TenantOutcome {
        id: t.id,
        donor: donor.map(|(name, distance, _)| DonorRef {
            name: name.clone(),
            distance: *distance,
        }),
        iterations: series.len(),
        iters_to_sla,
        attained,
        mean_ms,
        control: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> FleetConfig {
        FleetConfig {
            tenants: 6,
            seed: 42,
            cold: 2,
            chunk: 2,
            // Aggressive compression keeps the unit suite fast: 7200 s
            // scenarios shrink to 24 intervals of 7.5 s.
            scale_den: 40,
            online_levels: 3,
            control: true,
            // Ungated: feature distances max out around 1.4, so every
            // warm tenant keeps its nearest donor.
            radius: 2.0,
        }
    }

    #[test]
    fn radius_gates_out_distant_donors() {
        let mut gated = FleetRun::new(FleetConfig {
            // No donor pair in a 6-tenant roster sits this close.
            radius: 1e-12,
            ..tiny_config()
        })
        .unwrap();
        let runner = Runner::new(2);
        while !gated.is_complete() {
            gated.step(&runner).unwrap();
        }
        for o in gated.outcomes() {
            assert!(
                o.donor.is_none(),
                "tenant {} warm-started through the gate",
                o.id
            );
            assert!(o.control.is_none(), "controls only pair with warm starts");
        }
        // Every tenant still donates: the pool grows even when nobody
        // inside this fleet is close enough to borrow from it.
        assert_eq!(gated.store().len(), gated.config().tenants);
    }

    #[test]
    fn config_validation_catches_degenerate_shapes() {
        let bad = [
            FleetConfig {
                tenants: 0,
                ..tiny_config()
            },
            FleetConfig {
                cold: 0,
                ..tiny_config()
            },
            FleetConfig {
                cold: 7,
                ..tiny_config()
            },
            FleetConfig {
                chunk: 0,
                ..tiny_config()
            },
            FleetConfig {
                scale_den: 0,
                ..tiny_config()
            },
            FleetConfig {
                online_levels: 1,
                ..tiny_config()
            },
        ];
        for config in bad {
            assert!(
                matches!(FleetRun::new(config.clone()), Err(FleetError::Config(_))),
                "{config:?} should be rejected"
            );
        }
    }

    #[test]
    fn fleet_is_bit_identical_across_thread_counts() {
        let mut runs = Vec::new();
        for threads in [1, 8] {
            let runner = Runner::new(threads);
            let mut run = FleetRun::new(tiny_config()).unwrap();
            while !run.is_complete() {
                run.step(&runner).unwrap();
            }
            runs.push(run);
        }
        let (serial, parallel) = (&runs[0], &runs[1]);
        assert_eq!(serial.outcomes(), parallel.outcomes());
        assert_eq!(serial.store().donors(), parallel.store().donors());
    }

    #[test]
    fn warm_tenants_record_their_donor_and_cold_do_not() {
        let runner = Runner::new(4);
        let mut run = FleetRun::new(tiny_config()).unwrap();
        while !run.is_complete() {
            run.step(&runner).unwrap();
        }
        let outcomes = run.outcomes();
        assert_eq!(outcomes.len(), 6);
        for o in &outcomes[..2] {
            assert!(o.donor.is_none(), "cold tenant t{:03} got a donor", o.id);
        }
        for o in &outcomes[2..] {
            let donor = o.donor.as_ref().expect("warm tenant without donor");
            assert!(donor.name.starts_with('t'));
            assert!(donor.distance.is_finite());
            // A donor must have finished before the borrowing tenant's
            // chunk was dispatched.
            let donor_id: usize = donor.name[1..].parse().unwrap();
            assert!(donor_id < o.id || donor_id < run.config().cold);
        }
        // Every tenant donated: the pool ends at fleet size.
        assert_eq!(run.store().len(), 6);
    }

    #[test]
    fn checkpoint_resume_reproduces_an_uninterrupted_run() {
        let runner = Runner::new(2);
        let config = tiny_config();

        let mut straight = FleetRun::new(config.clone()).unwrap();
        while !straight.is_complete() {
            straight.step(&runner).unwrap();
        }

        // Interrupt after the first step, round-trip through bytes.
        let mut interrupted = FleetRun::new(config.clone()).unwrap();
        interrupted.step(&runner).unwrap();
        let mut snap = SnapshotWriter::new();
        interrupted.save(&mut snap);
        let snap = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        let mut resumed = FleetRun::resume(config, &snap).unwrap();
        while !resumed.is_complete() {
            resumed.step(&runner).unwrap();
        }

        assert_eq!(straight.outcomes(), resumed.outcomes());
        assert_eq!(straight.store().donors(), resumed.store().donors());
    }

    #[test]
    fn resume_rejects_mismatched_config_or_roster() {
        let runner = Runner::new(2);
        let mut run = FleetRun::new(tiny_config()).unwrap();
        run.step(&runner).unwrap();
        let mut snap = SnapshotWriter::new();
        run.save(&mut snap);
        let snap = Snapshot::from_bytes(&snap.to_bytes()).unwrap();

        let other_seed = FleetConfig {
            seed: 43,
            ..tiny_config()
        };
        match FleetRun::resume(other_seed, &snap) {
            Err(FleetError::Ckpt(CkptError::Mismatch { .. })) => {}
            other => panic!("expected config mismatch, got {other:?}"),
        }

        let other_size = FleetConfig {
            tenants: 8,
            ..tiny_config()
        };
        assert!(matches!(
            FleetRun::resume(other_size, &snap),
            Err(FleetError::Ckpt(CkptError::Mismatch { .. }))
        ));
    }

    #[test]
    fn library_seeded_run_gives_cold_wave_donors_too() {
        let lattice = ConfigLattice::new(3);
        let policy = rac::train_initial_policy(
            &lattice,
            rac::SlaReward::new(1_000.0),
            rac::OfflineSettings { group_levels: 2 },
            |c: &websim::ServerConfig| 100.0 + c.max_clients() as f64 * 0.1,
        )
        .unwrap();
        let mut lib = rac::PolicyLibrary::new();
        lib.insert(rac::paper_contexts()[0], policy);

        let config = FleetConfig {
            tenants: 2,
            cold: 1,
            ..tiny_config()
        };
        let mut run = FleetRun::with_library(config, &lib).unwrap();
        assert_eq!(run.store().len(), 1);
        let runner = Runner::new(2);
        run.step(&runner).unwrap();
        let first = &run.outcomes()[0];
        let donor = first.donor.as_ref().expect("library-seeded cold tenant");
        assert!(donor.name.starts_with("library:"));
    }

    #[test]
    fn library_with_wrong_lattice_is_rejected_at_construction() {
        let lattice = ConfigLattice::new(2);
        let policy = rac::train_initial_policy(
            &lattice,
            rac::SlaReward::new(1_000.0),
            rac::OfflineSettings { group_levels: 2 },
            |c: &websim::ServerConfig| 100.0 + c.max_clients() as f64 * 0.1,
        )
        .unwrap();
        let mut lib = rac::PolicyLibrary::new();
        lib.insert(rac::paper_contexts()[0], policy);

        // tiny_config runs 3-level agents; the 2-level library must be
        // rejected with the typed transfer error, before any tenant runs.
        match FleetRun::with_library(tiny_config(), &lib) {
            Err(FleetError::Transfer(TransferError::LatticeMismatch { .. })) => {}
            other => panic!("expected typed lattice mismatch, got {other:?}"),
        }
    }
}
