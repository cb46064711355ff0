//! Crash-safe snapshot persistence: a versioned, deterministic,
//! length-prefixed binary container with a CRC-32 per section and
//! atomic write-temp-then-rename persistence.
//!
//! The format is deliberately dumb: a magic header, a format version,
//! and a flat list of named sections, each carrying an opaque payload
//! protected by its own checksum. Higher layers (the RL agent, the
//! scenario lineup runner) define what goes *inside* a section with the
//! little-endian primitives in [`wire`]; this crate only guarantees
//! that what comes back out is byte-for-byte what went in — or a typed
//! error, never garbage.
//!
//! # Reading guarantees
//!
//! [`Snapshot::from_vec`] (which parses in place), [`Snapshot::load`]
//! and [`Snapshot::from_bytes`] (which copies once) reject, with a
//! distinct [`CkptError`] variant each: wrong magic, unsupported format
//! version, truncation anywhere (header, section header, payload, or a
//! section count the file is too short to hold), per-section CRC
//! mismatches, and trailing bytes after the last section. A snapshot
//! that decodes is exactly the snapshot that was written.
//!
//! # Writing guarantees
//!
//! [`SnapshotWriter::write_atomic`] writes to [`temp_path`] (the path
//! with its extension replaced by `tmp`), fsyncs, then renames over
//! `path`. A crash at any point leaves either the old complete file or
//! the new complete file — never a torn one. Each section goes to the
//! file from its own buffer, so a snapshot is never copied whole in
//! memory.
//!
//! # Example
//!
//! ```
//! use ckpt::{Snapshot, SnapshotWriter};
//!
//! let mut w = SnapshotWriter::new();
//! w.section("greeting", |w| w.put_str("hello"));
//! let bytes = w.to_bytes();
//!
//! let snap = Snapshot::from_bytes(&bytes).unwrap();
//! let mut r = snap.section("greeting").unwrap();
//! assert_eq!(r.get_str().unwrap(), "hello");
//! r.finish().unwrap();
//! ```

mod crc;
mod error;
mod snapshot;
pub mod wire;

pub use crc::crc32;
pub use error::CkptError;
pub use snapshot::{remove_stale_temp, temp_path, Snapshot, SnapshotWriter, FORMAT_VERSION, MAGIC};
