//! The fleet-wide policy transfer store.
//!
//! Generalizes the one-to-one `--warm-start` machinery (a policy
//! library read from a checkpoint's library directory) into a shared
//! library: every finished tenant donates its learned policy
//! ([`rac::RacAgent::learned_policy`]) tagged with the tenant's feature
//! vector, and a new tenant is seeded from the *nearest* donor under
//! squared-Euclidean feature distance.
//!
//! Determinism: donors are kept in insertion order; nearest-neighbor
//! scans that order and only replaces the best candidate on a *strictly*
//! smaller distance, so equal-distance ties always resolve to the
//! earliest-inserted (lowest-id) donor. Distances are exact `f64`
//! arithmetic over the tenants' feature vectors — no ordering ambiguity,
//! no dependence on thread count.

use ckpt::wire::{Reader, Writer};
use ckpt::CkptError;
use rac::{InitialPolicy, PolicyLibrary};

/// Typed errors at the policy-transfer seeding boundary.
#[derive(Debug)]
pub enum TransferError {
    /// A donor policy's lattice shape disagrees with the store's. Warm
    /// starting an agent from it would panic deep inside construction;
    /// the boundary rejects it instead.
    LatticeMismatch {
        /// States × actions of the offered policy.
        policy_states: usize,
        /// Actions of the offered policy.
        policy_actions: usize,
        /// States the store's lattice has.
        store_states: usize,
        /// Actions the store's lattice has.
        store_actions: usize,
    },
    /// The snapshot could not be read or validated.
    Snapshot(CkptError),
}

impl std::fmt::Display for TransferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransferError::LatticeMismatch {
                policy_states,
                policy_actions,
                store_states,
                store_actions,
            } => write!(
                f,
                "policy trained on a {policy_states}x{policy_actions} lattice cannot seed a \
                 {store_states}x{store_actions} transfer store"
            ),
            TransferError::Snapshot(e) => write!(f, "transfer store snapshot: {e}"),
        }
    }
}

impl std::error::Error for TransferError {}

impl From<CkptError> for TransferError {
    fn from(e: CkptError) -> Self {
        TransferError::Snapshot(e)
    }
}

/// One donated policy: who it came from, where that system sits in
/// feature space, and the learned policy itself.
#[derive(Debug, Clone, PartialEq)]
pub struct Donor {
    /// Provenance label (a tenant name like `t042`, or `library:<ctx>`
    /// for entries seeded from a warm-start snapshot).
    pub name: String,
    /// The donor system's feature vector.
    pub features: [f64; 4],
    /// The donated policy.
    pub policy: InitialPolicy,
}

/// The shared policy library (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct TransferStore {
    states: usize,
    actions: usize,
    donors: Vec<Donor>,
}

impl TransferStore {
    /// An empty store for policies on a `states` × `actions` lattice.
    pub fn new(states: usize, actions: usize) -> Self {
        TransferStore {
            states,
            actions,
            donors: Vec::new(),
        }
    }

    /// Number of donors.
    pub fn len(&self) -> usize {
        self.donors.len()
    }

    /// Whether no donor has been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.donors.is_empty()
    }

    /// The donors, in insertion order.
    pub fn donors(&self) -> &[Donor] {
        &self.donors
    }

    /// Inserts a donated policy — **the** seeding boundary: a policy
    /// whose lattice shape disagrees with the store's is rejected with a
    /// typed error here, before it can reach any agent constructor.
    ///
    /// # Errors
    ///
    /// [`TransferError::LatticeMismatch`] when the policy's Q-table or
    /// performance map does not match the store's lattice.
    pub fn insert(
        &mut self,
        name: String,
        features: [f64; 4],
        policy: InitialPolicy,
    ) -> Result<(), TransferError> {
        if policy.qtable.states() != self.states
            || policy.qtable.actions() != self.actions
            || policy.perf_ms.len() != self.states
        {
            return Err(TransferError::LatticeMismatch {
                policy_states: policy.qtable.states(),
                policy_actions: policy.qtable.actions(),
                store_states: self.states,
                store_actions: self.actions,
            });
        }
        self.donors.push(Donor {
            name,
            features,
            policy,
        });
        Ok(())
    }

    /// Seeds the store from a warm-start policy library (the
    /// one-to-one `--warm-start` machinery, fleet-ified): each
    /// per-context policy becomes a donor labeled `library:<context>`,
    /// placed in feature space by its context's mix and resource level
    /// at neutral client/SLA coordinates.
    ///
    /// Returns the number of donors added.
    ///
    /// # Errors
    ///
    /// [`TransferError::LatticeMismatch`] when the library was trained
    /// on a different lattice than the store's: a mismatched warm start
    /// fails typed at this boundary instead of panicking later.
    pub fn seed_from_library(&mut self, library: &PolicyLibrary) -> Result<usize, TransferError> {
        let mut added = 0;
        for (ctx, policy) in library.iter() {
            let level = vmstack::ResourceLevel::ALL
                .iter()
                .position(|&l| l == ctx.level)
                .unwrap_or(0);
            let features = [ctx.mix.order_fraction(), level as f64 / 2.0, 0.5, 2.0 / 3.0];
            self.insert(format!("library:{ctx}"), features, policy.clone())?;
            added += 1;
        }
        Ok(added)
    }

    /// The nearest donor to `features` (squared Euclidean distance),
    /// with ties broken toward the earliest-inserted donor. `None` only
    /// when the store is empty.
    pub fn nearest(&self, features: [f64; 4]) -> Option<(&Donor, f64)> {
        let mut best: Option<(&Donor, f64)> = None;
        for donor in &self.donors {
            let d = distance(donor.features, features);
            match best {
                // Strict less-than: an equal distance keeps the earlier
                // donor, which is the deterministic tie-break.
                Some((_, best_d)) if d.total_cmp(&best_d).is_lt() => best = Some((donor, d)),
                None => best = Some((donor, d)),
                _ => {}
            }
        }
        best
    }

    /// Writes the store into a wire payload (fleet checkpoint section).
    pub fn encode(&self, w: &mut Writer) {
        w.put_usize(self.states);
        w.put_usize(self.actions);
        w.put_usize(self.donors.len());
        for donor in &self.donors {
            w.put_str(&donor.name);
            for f in donor.features {
                w.put_f64(f);
            }
            rac::encode_policy(w, &donor.policy);
        }
    }

    /// Reads a store back, enforcing the expected lattice shape.
    ///
    /// # Errors
    ///
    /// [`TransferError::LatticeMismatch`] when the stored lattice shape
    /// differs from `states` × `actions`; [`TransferError::Snapshot`]
    /// for wire-level corruption.
    pub fn decode(
        r: &mut Reader<'_>,
        states: usize,
        actions: usize,
    ) -> Result<Self, TransferError> {
        let got_states = r.get_usize()?;
        let got_actions = r.get_usize()?;
        if (got_states, got_actions) != (states, actions) {
            return Err(TransferError::LatticeMismatch {
                policy_states: got_states,
                policy_actions: got_actions,
                store_states: states,
                store_actions: actions,
            });
        }
        let len = r.get_usize()?;
        let mut store = TransferStore::new(states, actions);
        for _ in 0..len {
            let name = r.get_str()?;
            let mut features = [0.0; 4];
            for f in &mut features {
                *f = r.get_f64()?;
            }
            let policy = rac::decode_policy(r, states, actions)?;
            store.insert(name, features, policy)?;
        }
        Ok(store)
    }
}

/// Squared Euclidean distance between two feature vectors.
pub fn distance(a: [f64; 4], b: [f64; 4]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rac::{Action, ConfigLattice, OfflineSettings, SlaReward};

    fn policy_for(levels: usize) -> (InitialPolicy, usize) {
        let lattice = ConfigLattice::new(levels);
        let policy = rac::train_initial_policy(
            &lattice,
            SlaReward::new(1_000.0),
            OfflineSettings { group_levels: 2 },
            |c: &websim::ServerConfig| 100.0 + c.max_clients() as f64 * 0.1,
        )
        .unwrap();
        (policy, lattice.num_states())
    }

    #[test]
    fn insert_rejects_mismatched_lattice_with_typed_error() {
        let (small, _) = policy_for(2);
        let (_, big_states) = policy_for(3);
        let mut store = TransferStore::new(big_states, Action::COUNT);
        let err = store
            .insert("t000".into(), [0.0; 4], small.clone())
            .unwrap_err();
        match err {
            TransferError::LatticeMismatch {
                policy_states,
                store_states,
                ..
            } => {
                assert_eq!(policy_states, small.qtable.states());
                assert_eq!(store_states, big_states);
            }
            other => panic!("expected LatticeMismatch, got {other:?}"),
        }
        assert!(store.is_empty(), "rejected policy must not be stored");
    }

    #[test]
    fn seed_from_snapshot_with_mismatched_lattice_is_typed_not_panic() {
        // Regression: a warm-start library trained on a different
        // parameter lattice must surface a typed error at the seeding
        // boundary.
        let (policy, states) = policy_for(2);
        let mut lib = rac::PolicyLibrary::new();
        lib.insert(rac::paper_contexts()[0], policy);

        // Same lattice seeds fine...
        let mut ok_store = TransferStore::new(states, Action::COUNT);
        assert_eq!(ok_store.seed_from_library(&lib).unwrap(), 1);

        // ...a 3-level store rejects the 2-level library, typed.
        let bigger = ConfigLattice::new(3).num_states();
        let mut store = TransferStore::new(bigger, Action::COUNT);
        let err = store.seed_from_library(&lib).unwrap_err();
        assert!(
            matches!(err, TransferError::LatticeMismatch { .. }),
            "got {err:?}"
        );
        assert!(store.is_empty());
    }

    #[test]
    fn nearest_picks_minimum_and_breaks_ties_by_insertion_order() {
        let (policy, states) = policy_for(2);
        let mut store = TransferStore::new(states, Action::COUNT);
        // Two donors equidistant from the query (mirror images), one
        // farther away.
        store
            .insert("t000".into(), [0.0, 0.0, 0.0, 0.0], policy.clone())
            .unwrap();
        store
            .insert("t001".into(), [0.2, 0.0, 0.0, 0.0], policy.clone())
            .unwrap();
        store
            .insert("t002".into(), [0.9, 0.9, 0.9, 0.9], policy.clone())
            .unwrap();
        let query = [0.1, 0.0, 0.0, 0.0];
        assert_eq!(
            distance([0.0; 4], query),
            distance([0.2, 0.0, 0.0, 0.0], query)
        );
        let (donor, d) = store.nearest(query).unwrap();
        assert_eq!(
            donor.name, "t000",
            "equal distance must keep the earliest donor"
        );
        assert!((d - 0.01).abs() < 1e-12);

        // A strictly closer donor still wins regardless of position.
        store
            .insert("t003".into(), [0.1, 0.0, 0.0, 0.0], policy)
            .unwrap();
        assert_eq!(store.nearest(query).unwrap().0.name, "t003");
    }

    #[test]
    fn store_round_trips_through_the_wire() {
        let (policy, states) = policy_for(2);
        let mut store = TransferStore::new(states, Action::COUNT);
        store
            .insert("t007".into(), [0.5, 1.0, 0.25, 0.6], policy)
            .unwrap();
        let mut w = Writer::new();
        store.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "t");
        let back = TransferStore::decode(&mut r, states, Action::COUNT).unwrap();
        r.finish().unwrap();
        assert_eq!(back, store);

        // Decoding under a different lattice is a typed mismatch.
        let mut r = Reader::new(&bytes, "t");
        let err = TransferStore::decode(&mut r, states + 1, Action::COUNT).unwrap_err();
        assert!(matches!(err, TransferError::LatticeMismatch { .. }));
    }
}
