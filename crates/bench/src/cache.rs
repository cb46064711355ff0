//! On-disk cache for offline-trained initial policies.
//!
//! Offline training is the slow step of the pipeline, so the harness
//! caches each context's [`InitialPolicy`] as a one-section [`ckpt`]
//! snapshot, encoded with [`rac::encode_policy`] like the library
//! sidecar and the fleet's donors. A file that fails its magic,
//! version, CRC or shape is rejected, never served.

use std::fs::File;
use std::io::{self, Read as _};
use std::path::Path;

use ckpt::{CkptError, Snapshot, SnapshotWriter};
use rac::{Action, ConfigLattice, InitialPolicy};

/// The one section of a cached policy.
const SECTION_POLICY: &str = "rac.policy";

/// Stores a policy at `path` atomically, creating parent directories as
/// needed.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn store_policy(path: &Path, policy: &InitialPolicy) -> io::Result<()> {
    let mut snap = SnapshotWriter::new();
    snap.section(SECTION_POLICY, |w| rac::encode_policy(w, policy));
    snap.write_atomic(path).map(drop).map_err(io::Error::other)
}

/// Loads a policy from `path` if it exists, checks out and matches the
/// lattice; returns `None` on a miss or a rejection (the caller
/// retrains).
pub fn load_policy(path: &Path, lattice: &ConfigLattice) -> Option<InitialPolicy> {
    read_policy(path, lattice, &mut Vec::new()).ok().flatten()
}

/// Reads the policy cached at `path` through `buf`, which keeps the
/// file's bytes for reuse: `Ok(None)` when there is no file, an error
/// when the file cannot be read, fails a snapshot check, or holds a
/// policy of another shape than `lattice`'s.
///
/// # Errors
///
/// Any [`CkptError`] reading, verifying or decoding the file.
pub fn read_policy(
    path: &Path,
    lattice: &ConfigLattice,
    buf: &mut Vec<u8>,
) -> Result<Option<InitialPolicy>, CkptError> {
    buf.clear();
    match File::open(path).and_then(|mut file| file.read_to_end(buf)) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        read => read.map_err(|source| CkptError::Io {
            path: path.to_path_buf(),
            context: "read cached policy",
            source,
        })?,
    };
    let snap = Snapshot::from_vec(std::mem::take(buf))?;
    let mut r = snap.section(SECTION_POLICY)?;
    let policy = rac::decode_policy(&mut r, lattice.num_states(), Action::COUNT)?;
    r.finish()?;
    *buf = snap.into_bytes();
    Ok(Some(policy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rac::{train_initial_policy, OfflineSettings, SlaReward};
    use rl::QTable;
    use std::fs;

    fn tiny_policy(lattice: &ConfigLattice) -> InitialPolicy {
        train_initial_policy(
            lattice,
            SlaReward::new(1_000.0),
            OfflineSettings::default(),
            |c: &websim::ServerConfig| 100.0 + c.max_clients() as f64 * 0.3,
        )
        .unwrap()
    }

    /// The cache layout before snapshots: the magic `RACPOL` with
    /// version `01`, seven 8-byte header fields, then the performance
    /// map and the Q-table as raw `f32`s.
    fn legacy_bytes(p: &InitialPolicy) -> Vec<u8> {
        let mut w = ckpt::wire::Writer::new();
        for b in [&b"RACPOL"[..], b"01"].concat() {
            w.put_u8(b);
        }
        w.put_usize(p.perf_ms.len());
        w.put_usize(p.qtable.actions());
        w.put_f64(p.fit.r_squared);
        w.put_f64(p.fit.rmse);
        w.put_usize(p.fit.samples);
        w.put_usize(p.samples);
        w.put_usize(p.passes);
        w.put_f32s(p.perf_ms.iter().copied());
        w.put_f32s(p.qtable.values());
        w.into_bytes()
    }

    #[test]
    fn round_trip() {
        let dir = std::env::temp_dir().join(format!("rac-cache-test-{}", std::process::id()));
        let path = dir.join("p.ckpt");
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
        // Bit-exact: storing the loaded policy writes the same bytes,
        // and no temp file is left behind.
        let again = dir.join("again.ckpt");
        store_policy(&again, &loaded).unwrap();
        assert_eq!(fs::read(&again).unwrap(), fs::read(&path).unwrap());
        assert!(!ckpt::temp_path(&path).exists());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn lattice_mismatch_misses() {
        let dir = std::env::temp_dir().join(format!("rac-cache-test2-{}", std::process::id()));
        let path = dir.join("p.ckpt");
        let small = ConfigLattice::new(3);
        store_policy(&path, &tiny_policy(&small)).unwrap();
        let big = ConfigLattice::new(4);
        assert!(load_policy(&path, &big).is_none());
        let err = read_policy(&path, &big, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, CkptError::Mismatch { .. }), "{err}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn missing_and_corrupt_files_miss() {
        let lattice = ConfigLattice::new(3);
        let missing = Path::new("/nonexistent/rac.ckpt");
        assert!(load_policy(missing, &lattice).is_none());
        assert!(read_policy(missing, &lattice, &mut Vec::new())
            .unwrap()
            .is_none());
        let dir = std::env::temp_dir().join(format!("rac-cache-test3-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("junk.ckpt");
        let rejected = |bytes: &[u8]| {
            fs::write(&path, bytes).unwrap();
            assert!(load_policy(&path, &lattice).is_none());
            read_policy(&path, &lattice, &mut Vec::new()).unwrap_err()
        };
        let err = rejected(b"not a policy, not a snapshot");
        assert!(matches!(err, CkptError::BadMagic), "{err}");
        let policy = tiny_policy(&lattice);
        store_policy(&path, &policy).unwrap();
        let whole = fs::read(&path).unwrap();
        // Cut inside the Q-table (the file's tail), and one byte too long.
        let err = rejected(&whole[..whole.len() - 6]);
        assert!(matches!(err, CkptError::Truncated { .. }), "{err}");
        let mut long = whole.clone();
        long.push(0);
        assert!(matches!(rejected(&long), CkptError::Corrupt { .. }));
        // One flipped bit in the payload fails its CRC.
        let mut flipped = whole.clone();
        flipped[whole.len() / 2] ^= 0x01;
        assert!(matches!(rejected(&flipped), CkptError::CrcMismatch { .. }));
        // A policy in the pre-snapshot layout under the new name.
        assert!(matches!(
            rejected(&legacy_bytes(&policy)),
            CkptError::BadMagic
        ));
        fs::write(&path, &whole).unwrap();
        assert!(load_policy(&path, &lattice).is_some());
        let _ = fs::remove_dir_all(dir);
    }
}
