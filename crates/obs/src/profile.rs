//! Hierarchical self-profiler: a thread-local span *stack* aggregated
//! into a global call tree.
//!
//! [`Span`](crate::Span)s already record flat duration histograms; when
//! profiling is switched on (see [`set_enabled`]) each global-registry
//! span additionally pushes a frame onto a thread-local stack. On drop
//! the frame folds its wall-clock time into a process-wide tree keyed
//! by the semicolon-joined name path (`tuner;sweep`), tracking entry
//! count, total time, and *self* time (total minus time attributed to
//! child frames).
//!
//! The tree exports directly as flamegraph-compatible **folded
//! stacks** — one line per path, `frame;frame;frame <self-µs>` — via
//! [`folded`], ready for `inferno` / `flamegraph.pl` or the
//! `/profile` endpoint of [`crate::serve`].
//!
//! Profiling is wall-clock sampling and therefore inherently
//! non-deterministic; like every span it feeds metrics/profiles only,
//! never the decision trace. It defaults to **off** so instrumented
//! code paths cost one relaxed atomic load when unused.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Aggregated statistics for one call-tree node (one unique name path).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Number of spans that completed at this exact path.
    pub count: u64,
    /// Total wall-clock µs spent inside spans at this path.
    pub total_us: u64,
    /// µs at this path not attributed to child spans (`total - children`).
    pub self_us: u64,
}

/// A pending stack frame; completed frames fold into the global tree.
struct Frame {
    /// Semicolon-joined path from the thread's root span to this one.
    path: String,
    /// Wall-clock µs already attributed to completed child frames.
    child_us: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn tree() -> &'static Mutex<BTreeMap<String, NodeStats>> {
    static TREE: OnceLock<Mutex<BTreeMap<String, NodeStats>>> = OnceLock::new();
    TREE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Switches call-tree capture on or off process-wide. Spans started
/// while disabled never join the tree, even if it is enabled before
/// they drop.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// `true` when spans are currently feeding the call tree.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears the aggregated tree (the per-thread stacks of live spans are
/// untouched — frames still open keep their paths).
pub fn reset() {
    tree().lock().unwrap().clear();
}

/// Pushes a frame for `name` onto the current thread's stack and
/// returns its depth token, or `None` when profiling is disabled.
/// Called by [`crate::Span::start`]; pair with [`exit_frame`].
pub(crate) fn enter_frame(name: &str) -> Option<usize> {
    if !enabled() {
        return None;
    }
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let path = match stack.last() {
            Some(parent) => format!("{};{}", parent.path, name),
            None => name.to_string(),
        };
        stack.push(Frame { path, child_us: 0 });
        Some(stack.len() - 1)
    })
}

/// Completes the frame identified by `depth`, folding `elapsed_us`
/// into the tree and crediting it to the parent frame's child time.
///
/// Drops normally unwind LIFO, but a span moved across scopes (or
/// leaked) can drop out of order; any frames stacked *above* the one
/// being closed are discarded rather than misattributed, and a token
/// pointing past the live stack is ignored.
pub(crate) fn exit_frame(depth: usize, elapsed_us: u64) {
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        if depth >= stack.len() {
            return;
        }
        stack.truncate(depth + 1);
        let frame = stack.pop().expect("depth < len implies non-empty");
        let self_us = elapsed_us.saturating_sub(frame.child_us);
        if let Some(parent) = stack.last_mut() {
            parent.child_us = parent.child_us.saturating_add(elapsed_us);
        }
        let mut tree = tree().lock().unwrap();
        let node = tree.entry(frame.path).or_default();
        node.count += 1;
        node.total_us = node.total_us.saturating_add(elapsed_us);
        node.self_us = node.self_us.saturating_add(self_us);
    });
}

/// The path of the current thread's innermost open frame, or `None`
/// when profiling is off or no frame is open. An executor captures it
/// on the thread that submits work and passes it to [`with_root`] on
/// each worker thread.
pub fn current_path() -> Option<String> {
    if !enabled() {
        return None;
    }
    STACK.with(|stack| stack.borrow().last().map(|frame| frame.path.clone()))
}

/// Runs `f` with the current thread's frames rooted under `path`, so a
/// span started on a worker folds at `path;name` as it would on the
/// submitting thread. The root itself folds nothing: its time belongs
/// to the submitting frame, on its own thread. A `None` path roots
/// nothing.
pub fn with_root<R>(path: Option<String>, f: impl FnOnce() -> R) -> R {
    let Some(path) = path else {
        return f();
    };
    let depth = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        stack.push(Frame { path, child_us: 0 });
        stack.len() - 1
    });
    let result = f();
    STACK.with(|stack| stack.borrow_mut().truncate(depth));
    result
}

/// A copy of the aggregated call tree, sorted by name path.
pub fn snapshot() -> Vec<(String, NodeStats)> {
    tree()
        .lock()
        .unwrap()
        .iter()
        .map(|(path, stats)| (path.clone(), *stats))
        .collect()
}

/// The tree rendered as flamegraph folded stacks: one
/// `frame;frame <self-µs>` line per path, sorted by path. Nodes whose
/// entire time is attributed to children still appear (with value 0)
/// so the hierarchy stays visible to downstream tools.
pub fn folded() -> String {
    let mut out = String::new();
    for (path, stats) in snapshot() {
        out.push_str(&path);
        out.push(' ');
        out.push_str(&stats.self_us.to_string());
        out.push('\n');
    }
    out
}

/// Depth of the current thread's live span stack (test hook).
#[cfg(test)]
pub(crate) fn stack_depth() -> usize {
    STACK.with(|stack| stack.borrow().len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex as StdMutex, MutexGuard};

    /// The tree and the enable flag are process-global; serialize the
    /// tests that touch them.
    fn guard() -> MutexGuard<'static, ()> {
        static LOCK: StdMutex<()> = StdMutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn stats_for(path: &str) -> NodeStats {
        snapshot()
            .into_iter()
            .find(|(p, _)| p == path)
            .map(|(_, s)| s)
            .unwrap_or_else(|| panic!("missing node {path}"))
    }

    #[test]
    fn nested_frames_build_paths_and_split_self_time() {
        let _g = guard();
        reset();
        set_enabled(true);
        let outer = enter_frame("outer").unwrap();
        let inner = enter_frame("inner").unwrap();
        exit_frame(inner, 300);
        exit_frame(outer, 1_000);
        set_enabled(false);

        let outer = stats_for("outer");
        assert_eq!(outer.count, 1);
        assert_eq!(outer.total_us, 1_000);
        assert_eq!(outer.self_us, 700, "child time subtracted from self");
        let inner = stats_for("outer;inner");
        assert_eq!(inner.total_us, 300);
        assert_eq!(inner.self_us, 300);
        assert_eq!(stack_depth(), 0);
    }

    #[test]
    fn siblings_share_a_path_and_accumulate() {
        let _g = guard();
        reset();
        set_enabled(true);
        let root = enter_frame("root").unwrap();
        for _ in 0..3 {
            let child = enter_frame("step").unwrap();
            exit_frame(child, 100);
        }
        exit_frame(root, 500);
        set_enabled(false);

        let step = stats_for("root;step");
        assert_eq!(step.count, 3);
        assert_eq!(step.total_us, 300);
        let root = stats_for("root");
        assert_eq!(root.self_us, 200);
    }

    #[test]
    fn out_of_order_drop_discards_orphans_instead_of_misattributing() {
        let _g = guard();
        reset();
        set_enabled(true);
        let outer = enter_frame("outer").unwrap();
        let _leaked = enter_frame("leaked").unwrap();
        // Closing `outer` while `leaked` is still open must not credit
        // the leaked frame anywhere; the stale token is then ignored.
        exit_frame(outer, 400);
        exit_frame(5, 999); // token past the live stack: no-op
        set_enabled(false);

        assert_eq!(stats_for("outer").self_us, 400);
        assert!(snapshot().iter().all(|(p, _)| !p.contains("leaked")));
        assert_eq!(stack_depth(), 0);
    }

    #[test]
    fn with_root_prefixes_paths_and_folds_nothing_itself() {
        let _g = guard();
        reset();
        set_enabled(true);
        let submit = enter_frame("submit").unwrap();
        let root = current_path();
        assert_eq!(root.as_deref(), Some("submit"));
        let worker = std::thread::spawn(move || {
            with_root(root, || {
                let job = enter_frame("job").unwrap();
                exit_frame(job, 70);
            });
            stack_depth()
        });
        assert_eq!(worker.join().unwrap(), 0, "the root is popped");
        exit_frame(submit, 100);
        set_enabled(false);

        assert_eq!(stats_for("submit;job").total_us, 70);
        assert_eq!(
            stats_for("submit").self_us,
            100,
            "worker time is not credited across threads"
        );
        assert_eq!(stats_for("submit").count, 1, "the root folds nothing");
        assert!(current_path().is_none(), "profiling off: no path");
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let _g = guard();
        reset();
        set_enabled(false);
        assert!(enter_frame("ghost").is_none());
        exit_frame(0, 123);
        assert!(snapshot().iter().all(|(p, _)| !p.contains("ghost")));
    }

    #[test]
    fn folded_output_is_sorted_and_self_valued() {
        let _g = guard();
        reset();
        set_enabled(true);
        let b = enter_frame("bb").unwrap();
        exit_frame(b, 50);
        let a = enter_frame("aa").unwrap();
        let c = enter_frame("cc").unwrap();
        exit_frame(c, 10);
        exit_frame(a, 40);
        set_enabled(false);

        let folded = folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines, vec!["aa 30", "aa;cc 10", "bb 50"]);
    }

    #[test]
    fn self_never_exceeds_total_and_children_fit_parent() {
        let _g = guard();
        reset();
        set_enabled(true);
        // A randomized-ish nesting shape with fixed durations.
        let r = enter_frame("r").unwrap();
        for i in 0..4 {
            let mid = enter_frame("mid").unwrap();
            if i % 2 == 0 {
                let leaf = enter_frame("leaf").unwrap();
                exit_frame(leaf, 7);
            }
            exit_frame(mid, 25);
        }
        exit_frame(r, 120);
        set_enabled(false);

        let nodes = snapshot();
        for (_, s) in &nodes {
            assert!(s.self_us <= s.total_us, "self must never exceed total");
        }
        // children's total fits inside the parent's total
        let parent = stats_for("r");
        let children: u64 = nodes
            .iter()
            .filter(|(p, _)| p.starts_with("r;") && p.matches(';').count() == 1)
            .map(|(_, s)| s.total_us)
            .sum();
        assert!(children <= parent.total_us);
        assert_eq!(parent.self_us, parent.total_us - children);
    }
}
