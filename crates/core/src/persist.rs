//! Shared wire codecs for the crate's checkpointable values.
//!
//! Everything here is a thin layer over [`ckpt::wire`]: each codec
//! writes a value's complete logical state in a fixed field order and
//! reads it back with validation, so a decoded value either equals the
//! encoded one or the caller gets a typed [`CkptError`] — never a
//! half-restored structure. Types whose fields are private to another
//! module ([`RacAgent`](crate::RacAgent), the violation detector, the
//! baselines) implement their codecs in their own modules; this one
//! holds the building blocks they share.

use ckpt::wire::{Reader, Writer};
use ckpt::{CkptError, Snapshot, SnapshotWriter};
use rl::QTable;
use tpcw::Mix;
use vmstack::ResourceLevel;
use websim::ServerConfig;

use crate::context::{PolicyLibrary, SystemContext};
use crate::init::InitialPolicy;

/// The section [`library_to_snapshot`] writes.
const SECTION_LIBRARY: &str = "rac.library";

/// Encodes a server configuration as its eight raw parameter values.
pub(crate) fn encode_config(w: &mut Writer, config: &ServerConfig) {
    for v in config.values() {
        w.put_u32(v);
    }
}

/// Decodes a server configuration, validating every parameter range.
pub(crate) fn decode_config(r: &mut Reader<'_>) -> Result<ServerConfig, CkptError> {
    let mut values = [0u32; 8];
    for v in &mut values {
        *v = r.get_u32()?;
    }
    ServerConfig::from_values(values).map_err(|e| CkptError::Corrupt {
        detail: format!("invalid server configuration in checkpoint: {e}"),
    })
}

/// Encodes a system context as indices into the canonical mix/level
/// orders.
pub(crate) fn encode_context(w: &mut Writer, ctx: &SystemContext) {
    let mix = Mix::ALL.iter().position(|&m| m == ctx.mix).unwrap_or(0);
    let level = ResourceLevel::ALL
        .iter()
        .position(|&l| l == ctx.level)
        .unwrap_or(0);
    w.put_u8(mix as u8);
    w.put_u8(level as u8);
}

/// Decodes a system context.
pub(crate) fn decode_context(r: &mut Reader<'_>) -> Result<SystemContext, CkptError> {
    let mix = r.get_u8()? as usize;
    let level = r.get_u8()? as usize;
    let mix = *Mix::ALL.get(mix).ok_or_else(|| CkptError::Corrupt {
        detail: format!("mix index {mix} out of range"),
    })?;
    let level = *ResourceLevel::ALL
        .get(level)
        .ok_or_else(|| CkptError::Corrupt {
            detail: format!("resource level index {level} out of range"),
        })?;
    Ok(SystemContext::new(mix, level))
}

/// Encodes a Q-table with its shape.
pub(crate) fn encode_qtable(w: &mut Writer, q: &QTable) {
    w.put_usize(q.states());
    w.put_usize(q.actions());
    w.put_f32s(q.values());
}

/// Decodes a Q-table, enforcing the expected shape.
pub(crate) fn decode_qtable(
    r: &mut Reader<'_>,
    states: usize,
    actions: usize,
) -> Result<QTable, CkptError> {
    let got_states = r.get_usize()?;
    let got_actions = r.get_usize()?;
    if (got_states, got_actions) != (states, actions) {
        return Err(CkptError::Mismatch {
            detail: format!(
                "Q-table shape {got_states}x{got_actions} in checkpoint, expected {states}x{actions}"
            ),
        });
    }
    let len = states
        .checked_mul(actions)
        .ok_or_else(|| CkptError::Corrupt {
            detail: "Q-table shape overflows".to_string(),
        })?;
    Ok(QTable::from_raw(states, actions, r.get_f32s(len)?))
}

/// Encodes one offline-trained initial policy.
///
/// Public because the fleet transfer store and the policy cache of
/// `rac_bench` persist policies outside any [`PolicyLibrary`]; the
/// field order is part of the checkpoint wire format.
pub fn encode_policy(w: &mut Writer, p: &InitialPolicy) {
    encode_qtable(w, &p.qtable);
    w.put_usize(p.perf_ms.len());
    w.put_f32s(p.perf_ms.iter().copied());
    w.put_f64(p.fit.r_squared);
    w.put_f64(p.fit.rmse);
    w.put_usize(p.fit.samples);
    w.put_usize(p.samples);
    w.put_usize(p.passes);
}

/// Decodes one initial policy trained on a `states`-state lattice.
///
/// Returns [`CkptError::Mismatch`] when the encoded policy's shape
/// disagrees with `states`/`actions` — the caller's lattice, not the
/// snapshot, is authoritative.
pub fn decode_policy(
    r: &mut Reader<'_>,
    states: usize,
    actions: usize,
) -> Result<InitialPolicy, CkptError> {
    let qtable = decode_qtable(r, states, actions)?;
    let len = r.get_usize()?;
    if len != states {
        return Err(CkptError::Mismatch {
            detail: format!("policy performance map has {len} states, expected {states}"),
        });
    }
    let perf_ms = r.get_f32s(len)?;
    let fit = numerics::FitQuality {
        r_squared: r.get_f64()?,
        rmse: r.get_f64()?,
        samples: r.get_usize()?,
    };
    let samples = r.get_usize()?;
    let passes = r.get_usize()?;
    Ok(InitialPolicy {
        qtable,
        perf_ms,
        fit,
        samples,
        passes,
    })
}

/// Encodes a policy library (contexts in insertion order).
pub(crate) fn encode_library(w: &mut Writer, lib: &PolicyLibrary) {
    w.put_usize(lib.len());
    for (ctx, policy) in lib.iter() {
        encode_context(w, ctx);
        encode_policy(w, policy);
    }
}

/// Decodes a policy library of `states`-state policies.
pub(crate) fn decode_library(
    r: &mut Reader<'_>,
    states: usize,
    actions: usize,
) -> Result<PolicyLibrary, CkptError> {
    let len = r.get_usize()?;
    let mut lib = PolicyLibrary::new();
    for _ in 0..len {
        let ctx = decode_context(r)?;
        let policy = decode_policy(r, states, actions)?;
        lib.insert(ctx, policy);
    }
    Ok(lib)
}

/// FNV-1a over the library's wire encoding ([`encode_library`]), the
/// hash the spec and scenario fingerprints take over theirs. Callers go
/// through the memoizing [`PolicyLibrary::fingerprint`].
pub(crate) fn library_fingerprint(lib: &PolicyLibrary) -> u64 {
    let mut w = Writer::new();
    encode_library(&mut w, lib);
    simkernel::Fnv1a::new().write(&w.into_bytes()).finish()
}

/// Writes a policy library into a snapshot as its `rac.library`
/// section: the lattice shape, then every `(context, policy)` entry.
/// Checkpointed line-ups store their library this way, once, in a
/// sidecar snapshot that their snapshots name by
/// [`PolicyLibrary::fingerprint`]; [`library_from_snapshot`] reads it
/// back.
///
/// # Panics
///
/// Panics if the snapshot already has a `rac.library` section.
pub fn library_to_snapshot(snap: &mut SnapshotWriter, lib: &PolicyLibrary) {
    snap.section(SECTION_LIBRARY, |w| {
        match lib.iter().next() {
            Some((_, policy)) => {
                w.put_bool(true);
                w.put_usize(policy.qtable.states());
                w.put_usize(policy.qtable.actions());
                encode_library(w, lib);
            }
            None => w.put_bool(false),
        };
    });
}

/// Reads the policy library a snapshot stores with
/// [`library_to_snapshot`], trained on a `states` × `actions` lattice —
/// the warm-start path: a fresh run seeds its agent with the library a
/// previous run learned with, without restoring any online state.
///
/// A library from a run with different `online_levels` has a
/// self-consistent shape header, but would blow up later inside agent
/// construction; the shape check turns that into a typed error before
/// any policy is handed out.
///
/// # Errors
///
/// Returns [`CkptError::MissingSection`] when the snapshot has no
/// `rac.library` section, [`CkptError::Mismatch`] when the stored
/// library is empty or was trained on another lattice, and decoding
/// errors as usual.
pub fn library_from_snapshot(
    snap: &Snapshot,
    states: usize,
    actions: usize,
) -> Result<PolicyLibrary, CkptError> {
    let mut r = snap.section(SECTION_LIBRARY)?;
    if !r.get_bool()? {
        return Err(CkptError::Mismatch {
            detail: "snapshot holds an empty policy library, nothing to warm-start from"
                .to_string(),
        });
    }
    let got_states = r.get_usize()?;
    let got_actions = r.get_usize()?;
    if (got_states, got_actions) != (states, actions) {
        return Err(CkptError::Mismatch {
            detail: format!(
                "warm-start library trained on a {got_states}x{got_actions} lattice, \
                 this run's lattice is {states}x{actions}"
            ),
        });
    }
    let lib = decode_library(&mut r, states, actions)?;
    r.finish()?;
    Ok(lib)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{train_initial_policy, OfflineSettings};
    use crate::param::ConfigLattice;
    use crate::reward::SlaReward;
    use crate::Action;

    #[test]
    fn config_round_trips() {
        let cfg = ServerConfig::default();
        let mut w = Writer::new();
        encode_config(&mut w, &cfg);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "t");
        assert_eq!(decode_config(&mut r).unwrap(), cfg);
        r.finish().unwrap();
    }

    #[test]
    fn context_round_trips_all_combinations() {
        for &mix in &Mix::ALL {
            for &level in &ResourceLevel::ALL {
                let ctx = SystemContext::new(mix, level);
                let mut w = Writer::new();
                encode_context(&mut w, &ctx);
                let bytes = w.into_bytes();
                let mut r = Reader::new(&bytes, "t");
                assert_eq!(decode_context(&mut r).unwrap(), ctx);
            }
        }
    }

    #[test]
    fn bad_context_index_is_corrupt() {
        let mut r = Reader::new(&[9, 0], "t");
        assert!(matches!(
            decode_context(&mut r),
            Err(CkptError::Corrupt { .. })
        ));
    }

    #[test]
    fn qtable_round_trips_and_rejects_shape_drift() {
        let mut q = QTable::new(3, 2);
        q.set(1, 1, -2.5);
        let mut w = Writer::new();
        encode_qtable(&mut w, &q);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "t");
        assert_eq!(decode_qtable(&mut r, 3, 2).unwrap(), q);
        let mut r = Reader::new(&bytes, "t");
        assert!(matches!(
            decode_qtable(&mut r, 4, 2),
            Err(CkptError::Mismatch { .. })
        ));
    }

    #[test]
    fn policy_and_library_round_trip() {
        let lattice = ConfigLattice::new(2);
        let policy = train_initial_policy(
            &lattice,
            SlaReward::new(1_000.0),
            OfflineSettings { group_levels: 2 },
            |c: &ServerConfig| 100.0 + c.max_clients() as f64 * 0.1,
        )
        .unwrap();
        let mut lib = PolicyLibrary::new();
        lib.insert(
            SystemContext::new(Mix::Shopping, ResourceLevel::Level1),
            policy,
        );
        let mut w = Writer::new();
        encode_library(&mut w, &lib);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "t");
        let back = decode_library(&mut r, lattice.num_states(), Action::COUNT).unwrap();
        r.finish().unwrap();
        assert_eq!(back, lib);
    }

    #[test]
    fn library_snapshot_reads_back_only_on_its_own_lattice() {
        let lattice = ConfigLattice::new(2);
        let policy = train_initial_policy(
            &lattice,
            SlaReward::new(1_000.0),
            OfflineSettings { group_levels: 2 },
            |c: &ServerConfig| 100.0 + c.max_clients() as f64 * 0.1,
        )
        .unwrap();
        let mut lib = PolicyLibrary::new();
        lib.insert(
            SystemContext::new(Mix::Ordering, ResourceLevel::Level3),
            policy,
        );
        let snapshot = |lib: &PolicyLibrary| {
            let mut w = SnapshotWriter::new();
            library_to_snapshot(&mut w, lib);
            Snapshot::from_vec(w.to_bytes()).unwrap()
        };
        let states = lattice.num_states();
        let back = library_from_snapshot(&snapshot(&lib), states, Action::COUNT).unwrap();
        assert_eq!(back, lib);
        let bigger = ConfigLattice::new(3).num_states();
        for (states, actions) in [(bigger, Action::COUNT), (states, Action::COUNT + 1)] {
            let err = library_from_snapshot(&snapshot(&lib), states, actions).unwrap_err();
            assert!(matches!(err, CkptError::Mismatch { .. }), "{err}");
        }
        let empty = library_from_snapshot(&snapshot(&PolicyLibrary::new()), states, Action::COUNT);
        assert!(matches!(empty, Err(CkptError::Mismatch { .. })));
        let none = Snapshot::from_vec(SnapshotWriter::new().to_bytes()).unwrap();
        let missing = library_from_snapshot(&none, states, Action::COUNT);
        assert!(matches!(missing, Err(CkptError::MissingSection { .. })));
    }
}
