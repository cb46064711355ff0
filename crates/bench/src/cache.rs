//! On-disk cache for offline-trained initial policies.
//!
//! Offline training is the slow step of the pipeline, so the harness
//! caches each context's [`InitialPolicy`] in a small self-describing
//! binary file (little-endian, std-only — no serialization dependency).

use std::fs;
use std::io::{self, Write};
use std::path::Path;

use numerics::FitQuality;
use rac::{Action, ConfigLattice, InitialPolicy};
use rl::QTable;

const MAGIC: &[u8; 8] = b"RACPOL01";

/// Stores a policy at `path`, creating parent directories as needed.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn store_policy(path: &Path, policy: &InitialPolicy) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let states = policy.perf_ms.len();
    let actions = policy.qtable.actions();
    let mut buf = Vec::with_capacity(16 + states * 4 * (1 + actions));
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&(states as u64).to_le_bytes());
    buf.extend_from_slice(&(actions as u64).to_le_bytes());
    buf.extend_from_slice(&policy.fit.r_squared.to_le_bytes());
    buf.extend_from_slice(&policy.fit.rmse.to_le_bytes());
    buf.extend_from_slice(&(policy.fit.samples as u64).to_le_bytes());
    buf.extend_from_slice(&(policy.samples as u64).to_le_bytes());
    buf.extend_from_slice(&(policy.passes as u64).to_le_bytes());
    for &p in &policy.perf_ms {
        buf.extend_from_slice(&p.to_le_bytes());
    }
    for s in 0..states {
        for a in 0..actions {
            buf.extend_from_slice(&(policy.qtable.get(s, a) as f32).to_le_bytes());
        }
    }
    let tmp = path.with_extension("tmp");
    fs::File::create(&tmp)?.write_all(&buf)?;
    fs::rename(&tmp, path)
}

/// Loads a policy from `path` if it exists and matches the lattice;
/// returns `None` on a miss or any corruption (the caller retrains).
pub fn load_policy(path: &Path, lattice: &ConfigLattice) -> Option<InitialPolicy> {
    let buf = fs::read(path).ok()?;
    let (header, values) = buf.split_at_checked(MAGIC.len() + 7 * 8)?;
    let (magic, fields) = header.split_at(MAGIC.len());
    if magic != MAGIC {
        return None;
    }
    let field = |i: usize| -> [u8; 8] { fields[8 * i..8 * (i + 1)].try_into().expect("8 bytes") };
    let states = u64::from_le_bytes(field(0)) as usize;
    let actions = u64::from_le_bytes(field(1)) as usize;
    if states != lattice.num_states() || actions != Action::COUNT {
        return None;
    }
    // The rest is exactly the performance map, then the Q-table in
    // row-major order, all `f32`.
    if values.len() != 4 * states * (1 + actions) {
        return None;
    }
    let mut values = values
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes")));
    let perf_ms = values.by_ref().take(states).collect();
    Some(InitialPolicy {
        qtable: QTable::from_raw(states, actions, values.collect()),
        perf_ms,
        fit: FitQuality {
            r_squared: f64::from_le_bytes(field(2)),
            rmse: f64::from_le_bytes(field(3)),
            samples: u64::from_le_bytes(field(4)) as usize,
        },
        samples: u64::from_le_bytes(field(5)) as usize,
        passes: u64::from_le_bytes(field(6)) as usize,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rac::{train_initial_policy, OfflineSettings, SlaReward};

    fn tiny_policy(lattice: &ConfigLattice) -> InitialPolicy {
        train_initial_policy(
            lattice,
            SlaReward::new(1_000.0),
            OfflineSettings::default(),
            |c: &websim::ServerConfig| 100.0 + c.max_clients() as f64 * 0.3,
        )
        .unwrap()
    }

    #[test]
    fn round_trip() {
        let dir = std::env::temp_dir().join(format!("rac-cache-test-{}", std::process::id()));
        let path = dir.join("p.bin");
        let lattice = ConfigLattice::new(3);
        let policy = tiny_policy(&lattice);
        store_policy(&path, &policy).unwrap();
        let loaded = load_policy(&path, &lattice).expect("cache hit");
        assert_eq!(loaded.samples, policy.samples);
        assert_eq!(loaded.passes, policy.passes);
        assert_eq!(loaded.perf_ms, policy.perf_ms);
        assert_eq!(loaded.fit, policy.fit);
        let bits = |q: &QTable| q.values().map(f32::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(&loaded.qtable), bits(&policy.qtable));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn lattice_mismatch_misses() {
        let dir = std::env::temp_dir().join(format!("rac-cache-test2-{}", std::process::id()));
        let path = dir.join("p.bin");
        let small = ConfigLattice::new(3);
        store_policy(&path, &tiny_policy(&small)).unwrap();
        let big = ConfigLattice::new(4);
        assert!(load_policy(&path, &big).is_none());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn missing_and_corrupt_files_miss() {
        let lattice = ConfigLattice::new(3);
        assert!(load_policy(Path::new("/nonexistent/rac.bin"), &lattice).is_none());
        let dir = std::env::temp_dir().join(format!("rac-cache-test3-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("junk.bin");
        fs::write(&path, b"not a policy").unwrap();
        assert!(load_policy(&path, &lattice).is_none());
        // Cut inside the Q-table (the file's tail), and one byte too long.
        store_policy(&path, &tiny_policy(&lattice)).unwrap();
        let whole = fs::read(&path).unwrap();
        fs::write(&path, &whole[..whole.len() - 6]).unwrap();
        assert!(load_policy(&path, &lattice).is_none());
        let mut long = whole.clone();
        long.push(0);
        fs::write(&path, &long).unwrap();
        assert!(load_policy(&path, &lattice).is_none());
        fs::write(&path, &whole).unwrap();
        assert!(load_policy(&path, &lattice).is_some());
        let _ = fs::remove_dir_all(dir);
    }
}
