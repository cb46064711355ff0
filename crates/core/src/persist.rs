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
use ckpt::CkptError;
use rl::QTable;
use tpcw::Mix;
use vmstack::ResourceLevel;
use websim::ServerConfig;

use crate::context::{PolicyLibrary, SystemContext};
use crate::init::InitialPolicy;

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
///
/// Public, like [`encode_policy`], because a checkpointed line-up lists
/// its library's contexts in a file of their own.
pub fn encode_context(w: &mut Writer, ctx: &SystemContext) {
    let mix = Mix::ALL.iter().position(|&m| m == ctx.mix).unwrap_or(0);
    let level = ResourceLevel::ALL
        .iter()
        .position(|&l| l == ctx.level)
        .unwrap_or(0);
    w.put_u8(mix as u8);
    w.put_u8(level as u8);
}

/// Decodes a system context.
///
/// # Errors
///
/// [`CkptError::Corrupt`] for an index outside the canonical orders,
/// and truncation as usual.
pub fn decode_context(r: &mut Reader<'_>) -> Result<SystemContext, CkptError> {
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

/// FNV-1a over the library's wire encoding — its entry count, then
/// each context and policy in insertion order — the hash the spec and
/// scenario fingerprints take over theirs. Each entry is encoded and
/// hashed in turn through one buffer, so the encoding is never held
/// whole. Callers go through the memoizing
/// [`PolicyLibrary::fingerprint`].
pub(crate) fn library_fingerprint(lib: &PolicyLibrary) -> u64 {
    let mut hash = simkernel::Fnv1a::new();
    let mut w = Writer::new();
    w.put_usize(lib.len());
    hash.write(w.as_bytes());
    for (ctx, policy) in lib.iter() {
        w.clear();
        encode_context(&mut w, ctx);
        encode_policy(&mut w, policy);
        hash.write(w.as_bytes());
    }
    hash.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{train_initial_policy, OfflineSettings};
    use crate::param::ConfigLattice;
    use crate::reward::SlaReward;
    use crate::Action;

    /// The library's wire encoding built whole: the oracle the streamed
    /// encoder must match byte for byte.
    fn encode_library(w: &mut Writer, lib: &PolicyLibrary) {
        w.put_usize(lib.len());
        for (ctx, policy) in lib.iter() {
            encode_context(w, ctx);
            encode_policy(w, policy);
        }
    }

    /// Three contexts of a 2-level lattice, each with its own landscape.
    fn three_policy_library() -> PolicyLibrary {
        let lattice = ConfigLattice::new(2);
        let mut lib = PolicyLibrary::new();
        for (i, &ctx) in crate::paper_contexts().iter().take(3).enumerate() {
            let scale = 1.0 + i as f64;
            let policy = train_initial_policy(
                &lattice,
                SlaReward::new(1_000.0),
                OfflineSettings { group_levels: 2 },
                |c: &ServerConfig| scale * (100.0 + c.max_clients() as f64 * 0.1),
            )
            .unwrap();
            lib.insert(ctx, policy);
        }
        lib
    }

    #[test]
    fn streamed_fingerprint_hashes_the_materialized_encoding() {
        for lib in [three_policy_library(), PolicyLibrary::new()] {
            let mut w = Writer::new();
            encode_library(&mut w, &lib);
            let oracle = simkernel::Fnv1a::new().write(&w.into_bytes()).finish();
            assert_eq!(library_fingerprint(&lib), oracle, "{} policies", lib.len());
        }
    }

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
        // A library rebuilt from its entries' encodings, as a
        // checkpointed line-up stores and reads them, is the library.
        let lib = three_policy_library();
        let states = ConfigLattice::new(2).num_states();
        let mut back = PolicyLibrary::new();
        for (ctx, policy) in lib.iter() {
            let mut w = Writer::new();
            encode_context(&mut w, ctx);
            encode_policy(&mut w, policy);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes, "t");
            let ctx = decode_context(&mut r).unwrap();
            back.insert(ctx, decode_policy(&mut r, states, Action::COUNT).unwrap());
            r.finish().unwrap();
        }
        assert_eq!(back, lib);
        assert_eq!(back.fingerprint(), lib.fingerprint());
    }
}
