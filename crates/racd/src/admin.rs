//! The admin line protocol and its TCP listener.
//!
//! Grammar (one command per connection, newline-terminated, UTF-8):
//!
//! ```text
//! status                 -> ok state=... job=... queue=... ...
//! checkpoint             -> ok checkpoint requested
//! pause                  -> ok paused
//! resume                 -> ok resumed
//! shutdown               -> ok shutting down
//! inject <scenario.scn>  -> ok injected <name> | err ...
//! upgrade <snapshot>     -> ok upgraded ... | err lattice-mismatch ...
//! ```
//!
//! Every reply is a single line starting `ok` or `err <code>`; the
//! parser is total — any token soup yields a typed [`AdminError`],
//! never a panic — so a stray `curl` or a fuzzing client cannot take
//! the daemon down. Paths may contain spaces: everything after the
//! command word, trimmed, is the argument.

use std::fmt;
use std::io;
use std::net::SocketAddr;
use std::time::Duration;

use obs::serve::{Framing, Listener};

/// One command line. The deadline is longer than the ObsServer's, but
/// it bounds the whole connection just the same: a slow client must not
/// wedge the single-threaded accept loop.
const LINE: Framing = Framing {
    terminator: b"\n",
    cap: 4 * 1024,
    timeout: Duration::from_millis(2000),
};

/// A parsed admin command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdminCmd {
    /// One-line daemon status.
    Status,
    /// Checkpoint-on-demand at the next iteration boundary.
    Checkpoint,
    /// Hold the worker at its next iteration boundary.
    Pause,
    /// Release a pause.
    Resume,
    /// Graceful shutdown (same path as SIGTERM).
    Shutdown,
    /// Validate and enqueue a scenario file.
    Inject(String),
    /// Rolling agent swap: seed subsequent jobs' RAC agent from the
    /// policy library of a line-up checkpoint (vetoed if its lattice
    /// does not match).
    Upgrade(String),
}

/// Why a command line did not parse. Total over arbitrary input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdminError {
    /// Nothing but whitespace.
    Empty,
    /// First word is not a known command.
    Unknown(String),
    /// `inject`/`upgrade` without a path.
    MissingArg(&'static str),
    /// A no-argument command with trailing tokens.
    ExtraArgs(&'static str),
}

impl AdminError {
    /// Stable machine-readable code for the `err <code> ...` reply.
    pub fn code(&self) -> &'static str {
        match self {
            AdminError::Empty => "empty",
            AdminError::Unknown(_) => "unknown-command",
            AdminError::MissingArg(_) => "missing-arg",
            AdminError::ExtraArgs(_) => "extra-args",
        }
    }
}

impl fmt::Display for AdminError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdminError::Empty => write!(f, "empty command"),
            AdminError::Unknown(cmd) => write!(
                f,
                "unknown command `{cmd}` (try: status, checkpoint, pause, resume, \
                 shutdown, inject <file>, upgrade <file>)"
            ),
            AdminError::MissingArg(cmd) => write!(f, "{cmd} needs a file argument"),
            AdminError::ExtraArgs(cmd) => write!(f, "{cmd} takes no arguments"),
        }
    }
}

/// Parses one admin command line. Total: any input yields a command or
/// a typed error, never a panic.
pub fn parse_command(line: &str) -> Result<AdminCmd, AdminError> {
    let line = line.trim();
    let Some(word) = line.split_whitespace().next() else {
        return Err(AdminError::Empty);
    };
    let rest = line[word.len()..].trim();
    let bare = |cmd: AdminCmd, name: &'static str| {
        if rest.is_empty() {
            Ok(cmd)
        } else {
            Err(AdminError::ExtraArgs(name))
        }
    };
    let with_path = |make: fn(String) -> AdminCmd, name: &'static str| {
        if rest.is_empty() {
            Err(AdminError::MissingArg(name))
        } else {
            Ok(make(rest.to_string()))
        }
    };
    match word.to_ascii_lowercase().as_str() {
        "status" => bare(AdminCmd::Status, "status"),
        "checkpoint" => bare(AdminCmd::Checkpoint, "checkpoint"),
        "pause" => bare(AdminCmd::Pause, "pause"),
        "resume" => bare(AdminCmd::Resume, "resume"),
        "shutdown" => bare(AdminCmd::Shutdown, "shutdown"),
        "inject" => with_path(AdminCmd::Inject, "inject"),
        "upgrade" => with_path(AdminCmd::Upgrade, "upgrade"),
        other => Err(AdminError::Unknown(other.to_string())),
    }
}

/// The admin listener: accepts one command per connection and replies
/// with a single line. Dropping the handle stops the thread.
#[derive(Debug)]
pub struct AdminServer(Listener);

impl AdminServer {
    /// Binds `addr` (port 0 lets the OS pick) and dispatches parsed
    /// commands to `handler`, whose return value is the reply line.
    ///
    /// # Errors
    ///
    /// Any I/O error binding the listener.
    pub fn start(
        addr: &str,
        handler: impl Fn(AdminCmd) -> String + Send + Sync + 'static,
    ) -> io::Result<AdminServer> {
        obs::serve::serve(addr, "racd-admin", LINE, move |line| {
            let reply = match parse_command(line) {
                Ok(cmd) => handler(cmd),
                Err(e) => format!("err {} {e}", e.code()),
            };
            reply + "\n"
        })
        .map(AdminServer)
    }

    /// The actually-bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.0.local_addr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    #[test]
    fn grammar_round_trips() {
        assert_eq!(parse_command("status"), Ok(AdminCmd::Status));
        assert_eq!(parse_command("  CHECKPOINT  "), Ok(AdminCmd::Checkpoint));
        assert_eq!(parse_command("pause"), Ok(AdminCmd::Pause));
        assert_eq!(parse_command("resume"), Ok(AdminCmd::Resume));
        assert_eq!(parse_command("shutdown"), Ok(AdminCmd::Shutdown));
        assert_eq!(
            parse_command("inject /tmp/my scenario.scn"),
            Ok(AdminCmd::Inject("/tmp/my scenario.scn".to_string())),
            "paths keep their spaces"
        );
        assert_eq!(
            parse_command("upgrade snap.ckpt"),
            Ok(AdminCmd::Upgrade("snap.ckpt".to_string()))
        );
    }

    #[test]
    fn errors_are_typed() {
        assert_eq!(parse_command("   "), Err(AdminError::Empty));
        assert!(matches!(
            parse_command("frobnicate now"),
            Err(AdminError::Unknown(_))
        ));
        assert_eq!(
            parse_command("inject"),
            Err(AdminError::MissingArg("inject"))
        );
        assert_eq!(
            parse_command("status please"),
            Err(AdminError::ExtraArgs("status"))
        );
        // Codes are stable strings for scripting.
        assert_eq!(parse_command("x").unwrap_err().code(), "unknown-command");
    }

    #[test]
    fn server_answers_over_a_real_socket() {
        let server = AdminServer::start("127.0.0.1:0", |cmd| match cmd {
            AdminCmd::Status => "ok state=idle".to_string(),
            other => format!("ok echoed {other:?}"),
        })
        .expect("bind loopback");
        let addr = server.local_addr();

        let ask = |line: &str| -> String {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(line.as_bytes()).unwrap();
            s.write_all(b"\n").unwrap();
            let mut reply = String::new();
            BufReader::new(s).read_line(&mut reply).unwrap();
            reply.trim_end().to_string()
        };
        assert_eq!(ask("status"), "ok state=idle");
        assert!(ask("inject a.scn").starts_with("ok echoed Inject"));
        let err = ask("blorp");
        assert!(err.starts_with("err unknown-command"), "got: {err}");
    }
}
