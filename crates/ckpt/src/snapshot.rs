//! The snapshot container: magic, format version, CRC-checked sections,
//! and atomic on-disk persistence.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       8     MAGIC  b"RACCKPT\0"
//! 8       4     format version (u32)
//! 12      4     section count (u32)
//! then, per section:
//!         2     name length (u16)
//!         n     name (UTF-8)
//!         8     payload length (u64)
//!         4     CRC-32 of payload
//!         m     payload
//! ```
//!
//! Strictly nothing after the last section; trailing bytes are rejected.

use std::fs::{self, File};
use std::io::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::crc::crc32;
use crate::error::CkptError;
use crate::wire::{Reader, Writer};

/// First eight bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"RACCKPT\0";

/// The format revision this build writes and the only one it reads.
///
/// Version 2 moved the policy library out of line-up snapshots into a
/// content-addressed sidecar snapshot. Version 3 dropped the agent's
/// experience log and the learning, detector, channel and guard
/// constants from agent and tuner sections. Older files are refused.
pub const FORMAT_VERSION: u32 = 3;

/// Builds a snapshot section by section, then serializes or persists it.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotWriter {
    /// An empty snapshot.
    pub fn new() -> Self {
        SnapshotWriter::default()
    }

    /// Appends a section whose payload is written by `fill`.
    ///
    /// # Panics
    ///
    /// Panics if `name` repeats an existing section or exceeds a `u16`
    /// length — section names are compile-time constants in practice,
    /// so either is a programming error.
    pub fn section(&mut self, name: &str, fill: impl FnOnce(&mut Writer)) {
        assert!(
            u16::try_from(name.len()).is_ok(),
            "section name too long: {name}"
        );
        assert!(
            self.sections.iter().all(|(n, _)| n != name),
            "duplicate section: {name}"
        );
        let mut w = Writer::new();
        fill(&mut w);
        self.sections.push((name.to_string(), w.into_bytes()));
    }

    /// Serializes the snapshot to its on-disk byte form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload: usize = self
            .sections
            .iter()
            .map(|(n, p)| 14 + n.len() + p.len())
            .sum();
        let mut out = Vec::with_capacity(16 + payload);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (name, payload) in &self.sections {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&crc32(payload).to_le_bytes());
            out.extend_from_slice(payload);
        }
        out
    }

    /// Persists the snapshot atomically: parent directories are created,
    /// bytes go to [`temp_path`], the file is fsynced, then renamed over
    /// `path`. Returns the number of bytes written.
    pub fn write_atomic(&self, path: &Path) -> Result<u64, CkptError> {
        write_bytes_atomic(&self.to_bytes(), path)
    }
}

/// The temp file an atomic write of `path` goes through: `path` with its
/// extension replaced by `tmp` (`run/x.ckpt` → `run/x.tmp`). The one
/// definition shared by writers, the stale-temp sweep, and anything
/// that plants or looks for a torn write.
pub fn temp_path(path: &Path) -> PathBuf {
    path.with_extension("tmp")
}

/// Atomically replaces `path` with `bytes` via a temp file + rename —
/// the same crash-safety as [`SnapshotWriter::write_atomic`], for
/// callers that already hold the serialized form. Parent directories
/// are created; returns the number of bytes written.
///
/// # Errors
///
/// Returns [`CkptError::Io`] (with path and context) when any
/// filesystem step fails.
pub fn write_bytes_atomic(bytes: &[u8], path: &Path) -> Result<u64, CkptError> {
    let io = |context: &'static str| {
        let path = path.to_path_buf();
        move |source: std::io::Error| CkptError::Io {
            path,
            context,
            source,
        }
    };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent).map_err(io("create checkpoint directory for"))?;
        }
    }
    let tmp = temp_path(path);
    {
        let mut f = File::create(&tmp).map_err(|source| CkptError::Io {
            path: tmp.clone(),
            context: "create temp checkpoint file",
            source,
        })?;
        f.write_all(bytes).map_err(|source| CkptError::Io {
            path: tmp.clone(),
            context: "write temp checkpoint file",
            source,
        })?;
        f.sync_all().map_err(|source| CkptError::Io {
            path: tmp.clone(),
            context: "sync temp checkpoint file",
            source,
        })?;
    }
    fs::rename(&tmp, path).map_err(io("rename temp checkpoint over"))?;
    Ok(bytes.len() as u64)
}

/// Removes the stale [`temp_path`] file left beside a checkpoint by a crash
/// that hit between temp-file creation and the final rename. The temp
/// file is by construction incomplete or unrenamed — the committed
/// snapshot at `path` (if any) is always the authoritative one — so
/// resume paths call this before scanning or loading. Returns whether a
/// temp file was actually removed.
///
/// # Errors
///
/// Returns [`CkptError::Io`] when the temp file exists but cannot be
/// removed; a missing temp file is the normal case, not an error.
pub fn remove_stale_temp(path: &Path) -> Result<bool, CkptError> {
    let tmp = temp_path(path);
    match fs::remove_file(&tmp) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
        Err(source) => Err(CkptError::Io {
            path: tmp,
            context: "remove stale temp checkpoint file",
            source,
        }),
    }
}

/// A checksum-verified snapshot. It owns the file's bytes and keeps the
/// range of each section's payload, so parsing copies nothing.
#[derive(Debug, Clone)]
pub struct Snapshot {
    bytes: Vec<u8>,
    sections: Vec<(String, Range<usize>)>,
}

impl Snapshot {
    /// Parses and fully verifies a snapshot from its byte form, which it
    /// copies once.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CkptError> {
        Snapshot::from_vec(bytes.to_vec())
    }

    /// Parses and fully verifies a snapshot in place, taking ownership
    /// of its bytes.
    pub fn from_vec(bytes: Vec<u8>) -> Result<Self, CkptError> {
        if bytes.len() < 16 {
            return Err(CkptError::Truncated {
                detail: format!("file is {} bytes, header needs 16", bytes.len()),
            });
        }
        if bytes[..8] != MAGIC {
            return Err(CkptError::BadMagic);
        }
        let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        if version != FORMAT_VERSION {
            return Err(CkptError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let count = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
        let mut r = Reader::new(&bytes[16..], "<container>");
        // No CRC covers the count, so bound it by the bytes present
        // before allocating for it: each section header takes 14 bytes.
        let fits = r.remaining() / 14;
        if usize::try_from(count).unwrap_or(usize::MAX) > fits {
            return Err(CkptError::Truncated {
                detail: format!(
                    "header claims {count} sections, the {} bytes after it hold at most {fits}",
                    r.remaining()
                ),
            });
        }
        let mut sections = Vec::with_capacity(count as usize);
        for i in 0..count {
            let name_len = u16::from_le_bytes([r.get_u8()?, r.get_u8()?]) as usize;
            let name =
                String::from_utf8(r.take(name_len)?.to_vec()).map_err(|_| CkptError::Corrupt {
                    detail: format!("section {i} name is not valid UTF-8"),
                })?;
            let payload_len = r.get_usize()?;
            let expect_crc = r.get_u32()?;
            if r.remaining() < payload_len {
                return Err(CkptError::Truncated {
                    detail: format!(
                        "section `{name}` claims {payload_len} payload bytes, only {} remain",
                        r.remaining()
                    ),
                });
            }
            let start = bytes.len() - r.remaining();
            if crc32(r.take(payload_len)?) != expect_crc {
                return Err(CkptError::CrcMismatch { section: name });
            }
            sections.push((name, start..start + payload_len));
        }
        if r.remaining() != 0 {
            return Err(CkptError::Corrupt {
                detail: format!("{} trailing bytes after the last section", r.remaining()),
            });
        }
        Ok(Snapshot { bytes, sections })
    }

    /// The snapshot's bytes, for reuse as a buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Reads and verifies a snapshot file.
    pub fn load(path: &Path) -> Result<Self, CkptError> {
        let bytes = fs::read(path).map_err(|source| CkptError::Io {
            path: path.to_path_buf(),
            context: "read checkpoint file",
            source,
        })?;
        Snapshot::from_vec(bytes)
    }

    /// A reader over the named section's payload, or
    /// [`CkptError::MissingSection`].
    pub fn section(&self, name: &str) -> Result<Reader<'_>, CkptError> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(n, range)| Reader::new(&self.bytes[range.clone()], n))
            .ok_or_else(|| CkptError::MissingSection {
                section: name.to_string(),
            })
    }

    /// Whether the named section exists.
    pub fn has_section(&self, name: &str) -> bool {
        self.sections.iter().any(|(n, _)| n == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SnapshotWriter {
        let mut w = SnapshotWriter::new();
        w.section("alpha", |w| {
            w.put_u64(42);
            w.put_str("hello");
        });
        w.section("beta", |w| w.put_f64(1.5));
        w
    }

    #[test]
    fn round_trips() {
        let bytes = sample().to_bytes();
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        assert!(snap.has_section("alpha") && snap.has_section("beta"));
        let mut r = snap.section("alpha").unwrap();
        assert_eq!(r.get_u64().unwrap(), 42);
        assert_eq!(r.get_str().unwrap(), "hello");
        r.finish().unwrap();
        let mut r = snap.section("beta").unwrap();
        assert_eq!(r.get_f64().unwrap(), 1.5);
        r.finish().unwrap();
    }

    #[test]
    fn from_vec_agrees_with_from_bytes() {
        let writer = sample();
        let bytes = writer.to_bytes();
        let copied = Snapshot::from_bytes(&bytes).unwrap();
        let owned = Snapshot::from_vec(bytes.clone()).unwrap();
        assert_eq!(owned.sections, copied.sections);
        assert_eq!(owned.bytes, bytes);
        for (name, payload) in &writer.sections {
            for snap in [&copied, &owned] {
                let mut r = snap.section(name).unwrap();
                assert_eq!(r.take(r.remaining()).unwrap(), payload.as_slice());
            }
        }
    }

    #[test]
    fn serialization_is_deterministic() {
        assert_eq!(sample().to_bytes(), sample().to_bytes());
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = sample().to_bytes();
        bytes[0] ^= 0xff;
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(CkptError::BadMagic)
        ));
    }

    #[test]
    fn rejects_future_version() {
        let mut bytes = sample().to_bytes();
        bytes[8] = 99;
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(CkptError::UnsupportedVersion {
                found: 99,
                supported: FORMAT_VERSION
            })
        ));
    }

    #[test]
    fn rejects_format_version_1() {
        for old in [1, 2] {
            let mut bytes = sample().to_bytes();
            bytes[8..12].copy_from_slice(&u32::to_le_bytes(old));
            assert!(
                matches!(
                    Snapshot::from_bytes(&bytes),
                    Err(CkptError::UnsupportedVersion { found, supported: 3 }) if found == old
                ),
                "version {old} accepted"
            );
        }
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = sample().to_bytes();
        for len in 0..bytes.len() {
            let err = Snapshot::from_bytes(&bytes[..len]).unwrap_err();
            assert!(
                matches!(err, CkptError::Truncated { .. }),
                "truncation to {len} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn rejects_payload_bit_flips() {
        let clean = sample().to_bytes();
        // Flip one bit in every payload byte position; each must be
        // caught by its section's CRC.
        let header = 16;
        let mut offset = header;
        for (name, payload) in &sample().sections {
            offset += 2 + name.len() + 8 + 4;
            for i in 0..payload.len() {
                let mut bytes = clean.clone();
                bytes[offset + i] ^= 0x01;
                assert!(
                    matches!(
                        Snapshot::from_bytes(&bytes),
                        Err(CkptError::CrcMismatch { .. })
                    ),
                    "flip at payload byte {i} of `{name}` not caught"
                );
            }
            offset += payload.len();
        }
    }

    #[test]
    fn rejects_header_corruption() {
        // Reads the snapshot back in full: a renamed section decodes but
        // is then missing.
        let read = |bytes: &[u8]| -> Result<(), CkptError> {
            let snap = Snapshot::from_bytes(bytes)?;
            snap.section("alpha")?.get_u64()?;
            snap.section("beta")?.get_f64()?;
            Ok(())
        };
        let clean = sample().to_bytes();
        read(&clean).unwrap();
        // Every byte outside the payloads: the container header and each
        // section's header.
        let mut headers: Vec<usize> = (0..16).collect();
        let mut offset = 16;
        for (name, payload) in &sample().sections {
            let header = 2 + name.len() + 8 + 4;
            headers.extend(offset..offset + header);
            offset += header + payload.len();
        }
        for at in headers {
            for value in [0x00, 0xff] {
                if clean[at] == value {
                    continue;
                }
                let mut bytes = clean.clone();
                bytes[at] = value;
                assert!(
                    read(&bytes).is_err(),
                    "byte {at} set to {value:#04x} accepted"
                );
            }
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(CkptError::Corrupt { .. })
        ));
    }

    #[test]
    fn missing_section_is_typed() {
        let snap = Snapshot::from_bytes(&sample().to_bytes()).unwrap();
        assert!(matches!(
            snap.section("gamma"),
            Err(CkptError::MissingSection { .. })
        ));
    }

    #[test]
    fn atomic_write_then_load() {
        let dir = std::env::temp_dir().join(format!("ckpt-test-{}", std::process::id()));
        let path = dir.join("nested").join("snap.ckpt");
        let written = sample().write_atomic(&path).unwrap();
        assert_eq!(written, sample().to_bytes().len() as u64);
        let snap = Snapshot::load(&path).unwrap();
        assert!(snap.has_section("alpha"));
        assert!(!temp_path(&path).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_temp_never_shadows_the_committed_snapshot() {
        let dir = std::env::temp_dir().join(format!("ckpt-tmp-test-{}", std::process::id()));
        let path = dir.join("snap.ckpt");
        sample().write_atomic(&path).unwrap();
        // Emulate a crash mid-write: a torn temp file beside the real
        // snapshot.
        let tmp = temp_path(&path);
        std::fs::write(&tmp, &sample().to_bytes()[..10]).unwrap();
        assert!(remove_stale_temp(&path).unwrap());
        assert!(!tmp.exists(), "stale temp must be cleaned");
        // The committed snapshot is untouched and still loads.
        let snap = Snapshot::load(&path).unwrap();
        assert!(snap.has_section("alpha"));
        // Idempotent when there is nothing to clean.
        assert!(!remove_stale_temp(&path).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = Snapshot::load(Path::new("/nonexistent/definitely/missing.ckpt")).unwrap_err();
        assert!(matches!(err, CkptError::Io { .. }));
        let msg = err.to_string();
        assert!(msg.contains("missing.ckpt"), "{msg}");
    }
}
