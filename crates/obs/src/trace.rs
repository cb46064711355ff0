//! The decision-trace pipeline: a buffering [`TraceWriter`] plus a
//! thread-local scope through which instrumented code emits events
//! without holding a writer reference.
//!
//! # Determinism contract
//!
//! A trace is deterministic when every event emitted into it is a pure
//! function of the traced computation: the writer assigns sequence
//! numbers in emission order, stamps events from the thread-local
//! simulated clock, and serializes sorted by `(run, t_us, seq)` with a
//! stable field order. A single-threaded traced computation (one figure
//! job, one experiment) therefore produces **byte-identical** JSONL
//! regardless of `RAC_THREADS`, host load, or wall-clock time — which
//! is why wall-clock durations live in the metrics registry
//! ([`crate::registry`]) and never in trace events.

use std::cell::{Cell, RefCell};
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::event::Event;

/// Buffers trace events and serializes them deterministically.
///
/// Writers are [`Sync`]: events may be emitted from any thread (each
/// gets a unique sequence number), though deterministic traces come
/// from single-threaded scopes — see the module docs.
#[derive(Debug, Default)]
pub struct TraceWriter {
    events: Mutex<Vec<Event>>,
    seq: AtomicU64,
}

impl TraceWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        TraceWriter::default()
    }

    /// Records an event, assigning it the next sequence number.
    pub fn emit(&self, mut event: Event) {
        event.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.events.lock().unwrap().push(event);
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// `true` when nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The buffered events, sorted by `(run, t_us, seq)`.
    pub fn events(&self) -> Vec<Event> {
        let mut events = self.events.lock().unwrap().clone();
        events.sort_by_key(Event::sort_key);
        events
    }

    /// The canonical JSONL serialization: one event per line, sorted by
    /// `(run, t_us, seq)`, with a trailing newline (empty string when
    /// no events were emitted).
    pub fn serialize(&self) -> String {
        let events = self.events();
        let mut out = String::new();
        for e in &events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }

    /// Restores previously captured events, preserving their original
    /// sequence numbers, and bumps the writer's sequence counter past
    /// the highest restored one so new emissions keep sorting after
    /// their run/time peers. This is how a resumed run re-installs the
    /// trace prefix a checkpoint carried: `serialize()` of the restored
    /// prefix is byte-identical to the original writer's.
    pub fn restore_events(&self, events: Vec<Event>) {
        let max_seq = events.iter().map(|e| e.seq).max();
        self.events.lock().unwrap().extend(events);
        if let Some(max) = max_seq {
            self.seq.fetch_max(max + 1, Ordering::Relaxed);
        }
    }

    /// Writes the serialized trace to `path`, creating parent
    /// directories as needed.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.serialize().as_bytes())
    }
}

thread_local! {
    static SCOPE: RefCell<Vec<Arc<TraceWriter>>> = const { RefCell::new(Vec::new()) };
    static SIM_TIME_US: Cell<u64> = const { Cell::new(0) };
    static RUN: Cell<u64> = const { Cell::new(0) };
}

/// Runs `f` with `writer` installed as the current thread's trace
/// scope. Scopes nest; the innermost receives emissions. The sim clock
/// and run counter are saved and restored around `f`, so sibling
/// scopes on a reused worker thread start from a clean clock.
pub fn with_writer<R>(writer: &Arc<TraceWriter>, f: impl FnOnce() -> R) -> R {
    struct Guard {
        saved_time: u64,
        saved_run: u64,
    }
    impl Drop for Guard {
        fn drop(&mut self) {
            SCOPE.with(|s| {
                s.borrow_mut().pop();
            });
            SIM_TIME_US.with(|t| t.set(self.saved_time));
            RUN.with(|r| r.set(self.saved_run));
        }
    }
    let guard = Guard {
        saved_time: SIM_TIME_US.with(Cell::get),
        saved_run: RUN.with(Cell::get),
    };
    SCOPE.with(|s| s.borrow_mut().push(Arc::clone(writer)));
    SIM_TIME_US.with(|t| t.set(0));
    RUN.with(|r| r.set(0));
    let result = f();
    drop(guard);
    result
}

/// Runs `f` in a fresh trace scope under `RAC_OBS=trace` and returns
/// its result with the writer that captured its events; otherwise runs
/// `f` bare and returns no writer. This is how harnesses trace one job:
/// the writer then goes to the job's `.trace.jsonl`.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Option<Arc<TraceWriter>>) {
    if crate::tracing_enabled() {
        let writer = Arc::new(TraceWriter::new());
        (with_writer(&writer, f), Some(writer))
    } else {
        (f(), None)
    }
}

/// `true` when a trace scope is installed on this thread —
/// instrumented code uses this to skip event construction entirely
/// when nobody is listening.
pub fn scoped() -> bool {
    SCOPE.with(|s| !s.borrow().is_empty())
}

/// Emits the event built by `make` into the current scope, if any.
/// Without a scope this is a no-op and `make` is never called.
pub fn emit(make: impl FnOnce() -> Event) {
    let writer = SCOPE.with(|s| s.borrow().last().cloned());
    if let Some(writer) = writer {
        writer.emit(make());
    }
}

/// Sets the thread's simulated clock (microseconds since run start);
/// subsequent [`Event::new`] stamps use it.
pub fn set_sim_time_us(t_us: u64) {
    SIM_TIME_US.with(|t| t.set(t_us));
}

/// The thread's current simulated clock.
pub fn sim_time_us() -> u64 {
    SIM_TIME_US.with(Cell::get)
}

/// Starts a new run on this thread: increments the run counter, resets
/// the sim clock to zero, and returns the new run index. Experiment
/// harnesses call this once per tuning session so events from
/// back-to-back sessions in one scope sort as sequential runs instead
/// of interleaving by sim-time.
pub fn begin_run() -> u64 {
    let run = RUN.with(|r| {
        r.set(r.get() + 1);
        r.get()
    });
    set_sim_time_us(0);
    run
}

/// The thread's current run index (0 before the first [`begin_run`]).
pub fn current_run() -> u64 {
    RUN.with(Cell::get)
}

/// Sets the thread's run counter directly. Resumed runs use this to
/// continue from the run index a checkpoint recorded, so the next
/// [`begin_run`] picks up exactly where the interrupted process left
/// off.
pub fn set_run(run: u64) {
    RUN.with(|r| r.set(run));
}

/// Serializes the current scope's buffered trace, or `None` when no
/// scope is installed (tracing off). Checkpoint writers embed this
/// prefix so a resumed process can reproduce the full trace
/// byte-for-byte.
pub fn snapshot_serialized() -> Option<String> {
    SCOPE
        .with(|s| s.borrow().last().cloned())
        .map(|w| w.serialize())
}

/// Parses a serialized trace prefix back into the current scope's
/// writer, preserving sequence numbers (see
/// [`TraceWriter::restore_events`]). Returns the number of restored
/// events; without a scope this is a no-op returning 0.
///
/// # Errors
///
/// Returns the line's [`ParseError`](crate::event::ParseError) if the
/// prefix is not a valid trace serialization.
pub fn restore_serialized(text: &str) -> Result<usize, crate::event::ParseError> {
    let writer = SCOPE.with(|s| s.borrow().last().cloned());
    let Some(writer) = writer else {
        return Ok(0);
    };
    let mut events = Vec::new();
    for line in text.lines() {
        events.push(crate::event::parse_line(line)?);
    }
    let n = events.len();
    writer.restore_events(events);
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unscoped_emit_is_a_noop_and_builds_nothing() {
        let mut built = false;
        emit(|| {
            built = true;
            Event::new("never")
        });
        assert!(!built, "event closure must not run without a scope");
    }

    #[test]
    fn scoped_emissions_are_ordered_and_sequenced() {
        let w = Arc::new(TraceWriter::new());
        with_writer(&w, || {
            set_sim_time_us(100);
            emit(|| Event::new("b"));
            set_sim_time_us(50); // out of order on purpose
            emit(|| Event::new("a"));
        });
        let events = w.events();
        assert_eq!(events.len(), 2);
        // Sorted by sim-time despite emission order.
        assert_eq!(events[0].kind, "a");
        assert_eq!(events[0].t_us, 50);
        assert_eq!(events[1].kind, "b");
        assert_eq!(events[1].seq, 0, "seq reflects emission order");
    }

    #[test]
    fn runs_partition_the_ordering() {
        let w = Arc::new(TraceWriter::new());
        with_writer(&w, || {
            assert_eq!(begin_run(), 1);
            set_sim_time_us(900);
            emit(|| Event::new("first-run-late"));
            assert_eq!(begin_run(), 2);
            assert_eq!(sim_time_us(), 0, "begin_run resets the clock");
            set_sim_time_us(10);
            emit(|| Event::new("second-run-early"));
        });
        let events = w.events();
        // Run 1's t=900 sorts before run 2's t=10.
        assert_eq!(events[0].kind, "first-run-late");
        assert_eq!(events[1].kind, "second-run-early");
        assert_eq!(events[0].run, 1);
        assert_eq!(events[1].run, 2);
    }

    #[test]
    fn scopes_nest_and_restore_clock() {
        let outer = Arc::new(TraceWriter::new());
        let inner = Arc::new(TraceWriter::new());
        with_writer(&outer, || {
            set_sim_time_us(77);
            begin_run();
            with_writer(&inner, || {
                assert_eq!(sim_time_us(), 0, "fresh scope, fresh clock");
                assert_eq!(current_run(), 0);
                emit(|| Event::new("inner"));
            });
            assert_eq!(sim_time_us(), 0, "begin_run had reset the clock");
            assert_eq!(current_run(), 1, "outer run restored");
            emit(|| Event::new("outer"));
        });
        assert_eq!(inner.events()[0].kind, "inner");
        assert_eq!(outer.events()[0].kind, "outer");
        assert!(!scoped());
    }

    #[test]
    fn serialize_is_jsonl_with_trailing_newline() {
        let w = Arc::new(TraceWriter::new());
        assert_eq!(w.serialize(), "");
        with_writer(&w, || {
            emit(|| Event::new("x").field("v", 1u64));
        });
        let text = w.serialize();
        assert!(text.ends_with('\n'));
        assert_eq!(text.lines().count(), 1);
        crate::event::parse_line(text.trim_end()).unwrap();
    }

    #[test]
    fn restore_round_trips_and_continues_sequencing() {
        let original = Arc::new(TraceWriter::new());
        with_writer(&original, || {
            begin_run();
            set_sim_time_us(10);
            emit(|| Event::new("a").field("v", 1u64));
            set_sim_time_us(20);
            emit(|| Event::new("b"));
        });
        let prefix = original.serialize();

        // A "new process": fresh writer, restore the prefix, continue.
        let resumed = Arc::new(TraceWriter::new());
        with_writer(&resumed, || {
            assert_eq!(restore_serialized(&prefix).unwrap(), 2);
            set_run(1);
            set_sim_time_us(30);
            emit(|| Event::new("c"));
        });
        let text = resumed.serialize();
        assert!(text.starts_with(&prefix), "prefix must be byte-identical");
        assert_eq!(text.lines().count(), 3);
        let events = resumed.events();
        assert_eq!(events[2].kind, "c");
        assert_eq!(events[2].seq, 2, "sequencing continues past the prefix");
        assert_eq!(events[2].run, 1);
    }

    #[test]
    fn restore_without_scope_is_noop() {
        assert_eq!(restore_serialized("").unwrap(), 0);
        assert_eq!(restore_serialized("not parsed without a scope").unwrap(), 0);
    }

    #[test]
    fn write_to_creates_directories() {
        let dir = std::env::temp_dir().join(format!("obs-trace-test-{}", std::process::id()));
        let path = dir.join("nested/trace.jsonl");
        let w = Arc::new(TraceWriter::new());
        with_writer(&w, || emit(|| Event::new("x")));
        w.write_to(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, w.serialize());
        let _ = std::fs::remove_dir_all(dir);
    }
}
