//! The atomic dirty marker: one file under the state directory whose
//! presence at startup means the previous instance died without a
//! clean shutdown.
//!
//! The marker is armed once the daemon's start is accepted (operands
//! queued, listeners bound), before any job runs, and disarmed only on
//! the graceful-exit path, *after* the worker has checkpointed and
//! stopped; a rejected start leaves it as it was. A SIGKILL (or panic that escapes the supervisor) leaves it
//! behind, so the next start can tell a crash from a clean stop and
//! deliberately take the recovery path: sweep stale `.tmp` checkpoint
//! files, resume from the last committed snapshot, and report
//! `dirty_start=true` over the admin socket.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// See the [module docs](self).
#[derive(Debug, Clone)]
pub struct DirtyMarker {
    path: PathBuf,
}

impl DirtyMarker {
    /// The marker for a given state directory.
    pub fn in_dir(state_dir: &Path) -> Self {
        DirtyMarker {
            path: state_dir.join("racd.dirty"),
        }
    }

    /// Whether the marker is currently on disk (a previous instance
    /// crashed). Read this *before* [`DirtyMarker::arm`].
    pub fn present(&self) -> bool {
        self.path.exists()
    }

    /// Arms the marker. The write is made durable (fsync) so a crash
    /// immediately afterwards still finds it.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the marker file.
    pub fn arm(&self) -> io::Result<()> {
        if let Some(parent) = self.path.parent() {
            fs::create_dir_all(parent)?;
        }
        let f = fs::File::create(&self.path)?;
        f.sync_all()
    }

    /// Disarms the marker — the clean-shutdown path only.
    ///
    /// # Errors
    ///
    /// Any I/O error removing the file; a missing marker is fine.
    pub fn disarm(&self) -> io::Result<()> {
        match fs::remove_file(&self.path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_disarm_cycle() {
        let dir = std::env::temp_dir().join(format!("racd-marker-{}", std::process::id()));
        let m = DirtyMarker::in_dir(&dir);
        assert!(!m.present());
        m.arm().unwrap();
        assert!(m.present(), "armed marker must be visible");
        // Arming twice is fine (restart after crash re-arms).
        m.arm().unwrap();
        m.disarm().unwrap();
        assert!(!m.present());
        // Disarming an absent marker is not an error.
        m.disarm().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }
}
