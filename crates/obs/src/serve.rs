//! Zero-dependency embedded observability server.
//!
//! [`ObsServer::start`] binds a std [`TcpListener`] and answers
//! minimal HTTP/1.0 `GET` requests on a background thread:
//!
//! | path       | body                                                    |
//! |------------|---------------------------------------------------------|
//! | `/metrics` | Prometheus text exposition of the global registry       |
//! | `/healthz` | JSON run state from [`crate::health`]                   |
//! | `/profile` | current folded-stack dump from [`crate::profile`]       |
//!
//! Every response closes the connection (`Connection: close`), so any
//! HTTP client — `curl`, Prometheus itself, a browser — works without
//! keep-alive handling. The server reads live snapshots on each
//! request; it never buffers or caches, so a scrape mid-run sees the
//! registry as of that instant.
//!
//! Serving is read-only over metrics/health/profile state. None of
//! those feed the decision trace, so running with or without a server
//! cannot change CSV/trace/checkpoint bytes.
//!
//! The socket plumbing is [`serve`], which `racd`'s admin listener runs
//! on too: a non-blocking accept polled every 10 ms, one connection at a
//! time, one request per connection read under an overall deadline.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::registry::Registry;
use crate::{export, health, process, profile};

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// How [`serve`] reads a request: up to and including `terminator`, or
/// `cap` bytes, whichever comes first, all within `timeout` of accepting
/// the connection. The timeout bounds the whole connection, not each
/// read: a client feeding one byte per read timeout would otherwise
/// keep the single-threaded server busy forever.
#[derive(Debug, Clone, Copy)]
pub struct Framing {
    /// The bytes that end a request.
    pub terminator: &'static [u8],
    /// Upper bound on the request bytes buffered.
    pub cap: usize,
    /// Overall per-connection IO deadline.
    pub timeout: Duration,
}

/// An HTTP request head.
const HTTP: Framing = Framing {
    terminator: b"\r\n\r\n",
    cap: 8 * 1024,
    timeout: Duration::from_millis(500),
};

/// A listener running [`serve`]'s accept loop; dropping it stops and
/// joins the background thread, which releases the port.
#[derive(Debug)]
pub struct Listener {
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Listener {
    /// The actually-bound address (resolves port `0` requests).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Binds `addr` (port `0` lets the OS pick) and answers connections on
/// a background thread named `thread`, one at a time: each request is
/// read as `framing` says, lossily decoded as UTF-8, and answered with
/// `reply(request)` before the connection closes. Serving inline keeps
/// the server single-threaded and unkillable by load; replies must be
/// cheap.
///
/// # Errors
///
/// Any I/O error binding the listener or spawning its thread.
pub fn serve(
    addr: &str,
    thread: &str,
    framing: Framing,
    reply: impl Fn(&str) -> String + Send + 'static,
) -> io::Result<Listener> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name(thread.into())
        .spawn(move || {
            while !stop_flag.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let _ = answer(stream, framing, &reply);
                    }
                    Err(_) => std::thread::sleep(ACCEPT_POLL),
                }
            }
        })?;
    Ok(Listener {
        local,
        stop,
        handle: Some(handle),
    })
}

fn answer(
    mut stream: TcpStream,
    framing: Framing,
    reply: &impl Fn(&str) -> String,
) -> io::Result<()> {
    // Timeouts are armed before the request is touched, and every read
    // below re-arms against the remaining budget of one overall
    // deadline started here.
    stream.set_nonblocking(false)?;
    stream.set_write_timeout(Some(framing.timeout))?;
    let deadline = Instant::now() + framing.timeout;
    let request = read_request(&mut stream, framing, deadline)?;
    stream.write_all(reply(&request).as_bytes())?;
    stream.flush()
}

/// Reads until the end of `framing.terminator`, the size cap, or
/// `deadline` — whichever comes first. The read timeout shrinks to the
/// remaining budget before every read, so a client trickling bytes just
/// under the per-read timeout still gets cut off at the deadline.
fn read_request(stream: &mut TcpStream, framing: Framing, deadline: Instant) -> io::Result<String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 512];
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            break;
        }
        stream.set_read_timeout(Some(remaining))?;
        let n = match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => break,
            Err(e) => return Err(e),
        };
        // The terminator may straddle the previous read.
        let from = buf.len().saturating_sub(framing.terminator.len() - 1);
        buf.extend_from_slice(&chunk[..n]);
        if let Some(at) = buf[from..]
            .windows(framing.terminator.len())
            .position(|w| w == framing.terminator)
        {
            buf.truncate(from + at + framing.terminator.len());
            break;
        }
        if buf.len() >= framing.cap {
            break;
        }
    }
    Ok(String::from_utf8_lossy(&buf).into_owned())
}

/// Handle to a running observability server; dropping it stops the
/// background thread.
#[derive(Debug)]
pub struct ObsServer(Listener);

impl ObsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9898`, or port `0` to let the OS
    /// pick) and starts serving on a background thread.
    pub fn start(addr: &str) -> io::Result<ObsServer> {
        serve(addr, "obs-serve", HTTP, http_reply).map(ObsServer)
    }

    /// The actually-bound address (resolves port `0` requests).
    pub fn local_addr(&self) -> SocketAddr {
        self.0.local_addr()
    }
}

/// The whole HTTP/1.0 response to the request head `head`.
fn http_reply(head: &str) -> String {
    let (status, reason, content_type, body) = match parse_get_path(head) {
        Some(path) => respond(&path),
        None => (
            405,
            "Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n".to_string(),
        ),
    };
    format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    )
}

/// Extracts the path of a `GET <path> ...` request line, if that is
/// what arrived.
fn parse_get_path(head: &str) -> Option<String> {
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    if parts.next()? != "GET" {
        return None;
    }
    Some(parts.next()?.to_string())
}

/// Routes a request path to `(status, reason, content-type, body)`.
/// Split out from the socket plumbing so tests can exercise routing
/// without a live listener.
fn respond(path: &str) -> (u16, &'static str, &'static str, String) {
    // Ignore any query string: `/metrics?x=1` still scrapes.
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/metrics" => {
            process::refresh();
            (
                200,
                "OK",
                "text/plain; version=0.0.4; charset=utf-8",
                export::render_prometheus(&Registry::global().snapshot()),
            )
        }
        "/healthz" => (
            200,
            "OK",
            "application/json; charset=utf-8",
            health::global().render_json(),
        ),
        "/profile" => (200, "OK", "text/plain; charset=utf-8", profile::folded()),
        _ => (
            404,
            "Not Found",
            "text/plain; charset=utf-8",
            "not found; try /metrics, /healthz or /profile\n".to_string(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read response");
        let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_all_routes_over_real_sockets() {
        let server = ObsServer::start("127.0.0.1:0").expect("bind loopback");
        let addr = server.local_addr();
        Registry::global().counter("rac_serve_test_total").inc();
        health::global().begin_job("serve-test");

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.0 200"), "head: {head}");
        assert!(head.contains("Content-Length:"));
        assert!(body.contains("rac_serve_test_total"));
        export::validate_prometheus(&body).expect("served metrics must be valid exposition");

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.0 200"));
        assert!(head.contains("application/json"));
        assert!(body.contains("\"state\":"));

        let (head, _body) = get(addr, "/profile");
        assert!(head.starts_with("HTTP/1.0 200"));

        let (head, body) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.0 404"));
        assert!(body.contains("not found"));

        // Query strings are tolerated.
        let (head, _) = get(addr, "/metrics?scrape=1");
        assert!(head.starts_with("HTTP/1.0 200"));
    }

    #[test]
    fn malformed_request_gets_an_error_reply() {
        let server = ObsServer::start("127.0.0.1:0").expect("bind loopback");
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .write_all(b"\x00\x01 utter garbage, not http\r\n\r\n")
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.0 405"), "got: {raw}");
        // The server must still be alive for the next client.
        let (head, _) = get(server.local_addr(), "/healthz");
        assert!(head.starts_with("HTTP/1.0 200"));
    }

    #[test]
    fn slow_client_cannot_stall_a_scrape() {
        let server = ObsServer::start("127.0.0.1:0").expect("bind loopback");
        let addr = server.local_addr();
        // A slow-loris client: dribbles one byte at a time, never
        // finishing the request head. Each byte lands well inside the
        // per-read timeout, so only the overall connection deadline can
        // get rid of it.
        let loris = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            for _ in 0..30 {
                if stream.write_all(b"G").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        // Give the loris time to be accepted first.
        std::thread::sleep(Duration::from_millis(150));
        let start = Instant::now();
        let (head, _) = get(addr, "/healthz");
        let waited = start.elapsed();
        assert!(head.starts_with("HTTP/1.0 200"), "head: {head}");
        assert!(
            waited < Duration::from_secs(2),
            "scrape stalled {waited:?} behind a slow client"
        );
        loris.join().unwrap();
    }

    #[test]
    fn rejects_non_get_methods() {
        let server = ObsServer::start("127.0.0.1:0").expect("bind loopback");
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write!(stream, "POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.0 405"));
    }

    #[test]
    fn drop_stops_the_listener() {
        let server = ObsServer::start("127.0.0.1:0").expect("bind loopback");
        let addr = server.local_addr();
        drop(server);
        // The port must be re-bindable once the thread has joined.
        let rebind = TcpListener::bind(addr);
        assert!(rebind.is_ok(), "listener still holding {addr} after drop");
    }

    #[test]
    fn routing_without_sockets() {
        let (status, _, _, _) = respond("/healthz");
        assert_eq!(status, 200);
        // Each scrape reads the peak RSS afresh, where it is readable.
        let (status, _, _, body) = respond("/metrics");
        assert_eq!(status, 200);
        let gauge = format!("\n{} ", process::PEAK_RSS_BYTES);
        assert_eq!(body.contains(&gauge), process::peak_rss_bytes().is_some());
        let (status, _, _, body) = respond("/other");
        assert_eq!(status, 404);
        assert!(body.contains("/metrics"));
    }
}
