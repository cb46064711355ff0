//! Daemon configuration: CLI arguments plus an optional `key = value`
//! config file whose tunables can be re-read on `SIGHUP`.

use std::path::PathBuf;
use std::time::Duration;

use rac_bench::cli::{self, Grammar};

use crate::backoff::Backoff;

/// Which offline policy library the worker seeds the RAC agent from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LibraryKind {
    /// One cheaply-trained context at the standard lattice — fast to
    /// build, used by the drill harness and CI.
    Quick,
    /// The full six-context paper library (disk-cached).
    Standard,
}

/// Everything the daemon needs to run; see [`parse_args`].
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Root for queue, checkpoints, markers, and address files.
    pub state_dir: PathBuf,
    /// Where finished jobs write `scenario-<name>.csv` / `.trace.jsonl`.
    pub results_dir: PathBuf,
    /// Offline-policy disk cache.
    pub cache_dir: PathBuf,
    /// Admin line-protocol listener address (port 0 = OS-assigned; the
    /// resolved address is written to `<state>/admin.addr`).
    pub admin_addr: String,
    /// Optional embedded observability server address.
    pub serve_addr: Option<String>,
    /// Exit as soon as the queue is empty instead of idling for more
    /// work (an already-empty queue drains trivially).
    pub once: bool,
    /// Scale scenarios down like `figures --quick`.
    pub quick: bool,
    /// Policy library flavor.
    pub library: LibraryKind,
    /// Flush the lineup checkpoint every N global iterations.
    pub checkpoint_every: usize,
    /// How long the heartbeat may stall before the worker counts as
    /// hung.
    pub heartbeat_timeout: Duration,
    /// Restart pacing.
    pub backoff: Backoff,
    /// Restart-storm breaker: consecutive failures before the daemon
    /// gives up with [`crate::supervisor::EXIT_RESTART_STORM`].
    pub max_restarts: u32,
    /// Config file re-read on `SIGHUP`, if any.
    pub config_path: Option<PathBuf>,
}

impl DaemonConfig {
    /// Defaults rooted at `state_dir`.
    pub fn new(state_dir: PathBuf) -> Self {
        let results_dir = state_dir.join("results");
        let cache_dir = state_dir.join("cache");
        DaemonConfig {
            state_dir,
            results_dir,
            cache_dir,
            admin_addr: "127.0.0.1:0".to_string(),
            serve_addr: None,
            once: false,
            quick: false,
            library: LibraryKind::Quick,
            checkpoint_every: 5,
            heartbeat_timeout: Duration::from_secs(30),
            backoff: Backoff {
                base: Duration::from_millis(200),
                cap: Duration::from_secs(5),
            },
            max_restarts: 5,
            config_path: None,
        }
    }

    /// Applies the reloadable tunables from the `key = value` file at
    /// `config_path` (blank lines and `#` comments ignored). Returns
    /// the keys that changed.
    ///
    /// # Errors
    ///
    /// A message naming the offending line for unreadable files,
    /// unknown keys, or unparsable values.
    pub fn apply_file(&mut self) -> Result<Vec<&'static str>, String> {
        let Some(path) = &self.config_path else {
            return Ok(Vec::new());
        };
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut changed = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| {
                format!("{}:{}: expected key = value", path.display(), lineno + 1)
            })?;
            let (key, value) = (key.trim(), value.trim());
            let bad = |what: &str| {
                format!(
                    "{}:{}: {key}: not a valid {what}: {value}",
                    path.display(),
                    lineno + 1
                )
            };
            match key {
                "checkpoint_every" => {
                    let v: usize = value.parse().map_err(|_| bad("count"))?;
                    if v != self.checkpoint_every {
                        self.checkpoint_every = v;
                        changed.push("checkpoint_every");
                    }
                }
                "heartbeat_timeout_ms" => {
                    let v: u64 = value.parse().map_err(|_| bad("duration (ms)"))?;
                    let v = Duration::from_millis(v);
                    if v != self.heartbeat_timeout {
                        self.heartbeat_timeout = v;
                        changed.push("heartbeat_timeout_ms");
                    }
                }
                "backoff_base_ms" => {
                    let v: u64 = value.parse().map_err(|_| bad("duration (ms)"))?;
                    let v = Duration::from_millis(v);
                    if v != self.backoff.base {
                        self.backoff.base = v;
                        changed.push("backoff_base_ms");
                    }
                }
                "backoff_cap_ms" => {
                    let v: u64 = value.parse().map_err(|_| bad("duration (ms)"))?;
                    let v = Duration::from_millis(v);
                    if v != self.backoff.cap {
                        self.backoff.cap = v;
                        changed.push("backoff_cap_ms");
                    }
                }
                "max_restarts" => {
                    let v: u32 = value.parse().map_err(|_| bad("count"))?;
                    if v != self.max_restarts {
                        self.max_restarts = v;
                        changed.push("max_restarts");
                    }
                }
                other => {
                    return Err(format!(
                        "{}:{}: unknown key `{other}` (reloadable keys: checkpoint_every, \
                         heartbeat_timeout_ms, backoff_base_ms, backoff_cap_ms, max_restarts)",
                        path.display(),
                        lineno + 1
                    ))
                }
            }
        }
        Ok(changed)
    }
}

/// Parsed command line: the configuration plus initial scenario
/// operands (bundled names or `.scn` paths) to enqueue at startup.
#[derive(Debug)]
pub struct Cli {
    /// The daemon configuration.
    pub config: DaemonConfig,
    /// Initial jobs.
    pub operands: Vec<String>,
}

/// The `racd` command line: its options with their defaults, and the
/// admin protocol. `racd --help` prints it rendered.
pub const GRAMMAR: Grammar = Grammar {
    name: "",
    synopsis: "racd [scenario ...]",
    flags: "\
--state <dir>       state root (queue, checkpoints, markers)  [required]
--results <dir>     output dir for CSV/trace artifacts  [<state>/results]
--cache <dir>       offline-policy cache  [<state>/cache]
--admin <addr>      admin listener  [127.0.0.1:0; resolved addr in <state>/admin.addr]
--serve <addr>      embedded /metrics /healthz /profile server  [off]
--config <file>     key = value tunables, re-read on SIGHUP
--library <kind>    quick | standard policy library  [quick]
--every <n>         checkpoint every N line-up iterations  [5]
--once              exit once the queue drains
--quick             scale scenarios down (like figures --quick)
--help              print this usage (also -h)",
    notes: "
runs scenario line-up jobs under supervision: each job checkpoints to
<state>/ckpt, crashes resume from the last committed snapshot, and
SIGTERM/SIGINT checkpoint-then-stop at the next iteration boundary.

admin protocol (one command per line; reply is `ok ...` or `err <code> ...`):
  status | checkpoint | pause | resume | shutdown
  inject <scenario.scn> | upgrade <snapshot.ckpt>",
};

/// Parses `args` (without the program name).
///
/// # Errors
///
/// The offending argument's message followed by the usage; the caller
/// prints it and exits with [`crate::supervisor::EXIT_USAGE`].
pub fn parse_args(args: &[String]) -> Result<Cli, String> {
    let usage = |msg: String| format!("{msg}\n{}", cli::usage(&[&GRAMMAR]));
    let parsed = cli::parse(args, &[&GRAMMAR]).map_err(usage)?;
    // `-h` is single-dash, so the parser reads it as an operand.
    if parsed.has("--help") || parsed.operands.iter().any(|o| o == "-h") {
        return Err(cli::usage(&[&GRAMMAR]));
    }
    let library = parsed
        .value_by("--library", "quick or standard", |v| match v {
            "quick" => Some(LibraryKind::Quick),
            "standard" => Some(LibraryKind::Standard),
            _ => None,
        })
        .map_err(usage)?;
    let every = parsed
        .value("--every", "an unsigned integer")
        .map_err(usage)?;
    let state_dir = parsed
        .get("--state")
        .ok_or_else(|| usage("--state is required".into()))?;

    let mut config = DaemonConfig::new(PathBuf::from(state_dir));
    if let Some(d) = parsed.get("--results") {
        config.results_dir = PathBuf::from(d);
    }
    if let Some(d) = parsed.get("--cache") {
        config.cache_dir = PathBuf::from(d);
    }
    if let Some(a) = parsed.get("--admin") {
        config.admin_addr = a.to_string();
    }
    config.serve_addr = parsed.get("--serve").map(String::from);
    config.config_path = parsed.get("--config").map(PathBuf::from);
    if let Some(k) = library {
        config.library = k;
    }
    if let Some(n) = every {
        config.checkpoint_every = n;
    }
    config.once = parsed.has("--once");
    config.quick = parsed.has("--quick");
    // The config file participates at startup too, not just on SIGHUP.
    config.apply_file()?;
    Ok(Cli {
        config,
        operands: parsed.operands,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flags_and_operands() {
        let cli = parse_args(&args(&[
            "flash-crowd",
            "--state",
            "/tmp/st",
            "--once",
            "--quick",
            "--library",
            "standard",
            "--every",
            "3",
        ]))
        .unwrap();
        assert_eq!(cli.operands, vec!["flash-crowd"]);
        assert_eq!(cli.config.state_dir, PathBuf::from("/tmp/st"));
        assert_eq!(cli.config.results_dir, PathBuf::from("/tmp/st/results"));
        assert!(cli.config.once && cli.config.quick);
        assert_eq!(cli.config.library, LibraryKind::Standard);
        assert_eq!(cli.config.checkpoint_every, 3);
    }

    #[test]
    fn state_is_required_and_unknown_flags_rejected() {
        assert!(parse_args(&args(&["diurnal"]))
            .unwrap_err()
            .contains("--state"));
        assert!(parse_args(&args(&["--state", "s", "--bogus"]))
            .unwrap_err()
            .contains("--bogus"));
    }

    #[test]
    fn a_flag_never_takes_the_next_flag_as_its_value() {
        let err = parse_args(&args(&["--state", "--once"])).unwrap_err();
        assert!(err.contains("--state needs a value"), "{err}");
    }

    #[test]
    fn help_prints_the_full_usage() {
        for flag in ["--help", "-h"] {
            let usage = parse_args(&args(&["--state", "s", flag])).unwrap_err();
            assert!(usage.starts_with("usage: racd"), "{usage}");
            assert!(usage.contains("--library <kind>") && usage.contains("upgrade <snapshot"));
        }
    }

    #[test]
    fn config_file_reload_applies_tunables() {
        let dir = std::env::temp_dir().join(format!("racd-cfg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("racd.conf");
        std::fs::write(
            &path,
            "# tunables\nmax_restarts = 9\nbackoff_base_ms = 10\nheartbeat_timeout_ms = 1000\n",
        )
        .unwrap();
        let mut cfg = DaemonConfig::new(dir.clone());
        cfg.config_path = Some(path.clone());
        let changed = cfg.apply_file().unwrap();
        assert_eq!(
            changed,
            vec!["max_restarts", "backoff_base_ms", "heartbeat_timeout_ms"]
        );
        assert_eq!(cfg.max_restarts, 9);
        assert_eq!(cfg.backoff.base, Duration::from_millis(10));
        // Re-applying an unchanged file reports nothing changed.
        assert!(cfg.apply_file().unwrap().is_empty());
        // Unknown keys are typed errors, not silent no-ops.
        std::fs::write(&path, "warp_factor = 9\n").unwrap();
        assert!(cfg.apply_file().unwrap_err().contains("warp_factor"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
