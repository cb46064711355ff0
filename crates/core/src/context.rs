//! System contexts, context-change detection, and the policy library
//! (Section 4.3).

use std::sync::{Arc, OnceLock};

use simkernel::stats::SlidingWindow;
use tpcw::Mix;
use vmstack::ResourceLevel;

use crate::init::InitialPolicy;

/// A *system context*: the combination of traffic mix and VM resource
/// setting the web system currently runs under.
///
/// # Example
///
/// ```
/// use rac::{paper_contexts, SystemContext};
/// use tpcw::Mix;
/// use vmstack::ResourceLevel;
///
/// let contexts = paper_contexts();
/// assert_eq!(contexts.len(), 6);
/// assert_eq!(contexts[0], SystemContext::new(Mix::Shopping, ResourceLevel::Level1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SystemContext {
    /// TPC-W traffic mix.
    pub mix: Mix,
    /// App/db VM resource level.
    pub level: ResourceLevel,
}

impl SystemContext {
    /// Creates a context.
    pub fn new(mix: Mix, level: ResourceLevel) -> Self {
        SystemContext { mix, level }
    }
}

impl std::fmt::Display for SystemContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} @ {}", self.mix, self.level)
    }
}

/// The six contexts of Table 2.
pub fn paper_contexts() -> [SystemContext; 6] {
    [
        SystemContext::new(Mix::Shopping, ResourceLevel::Level1), // Context-1
        SystemContext::new(Mix::Ordering, ResourceLevel::Level1), // Context-2
        SystemContext::new(Mix::Ordering, ResourceLevel::Level3), // Context-3
        SystemContext::new(Mix::Shopping, ResourceLevel::Level2), // Context-4
        SystemContext::new(Mix::Ordering, ResourceLevel::Level2), // Context-5
        SystemContext::new(Mix::Browsing, ResourceLevel::Level1), // Context-6
    ]
}

/// Detects context changes from the reward/response-time stream: a
/// *violation* is a sample deviating from the recent average, over
/// n = [`WINDOW`](Self::WINDOW) samples, by at least
/// v_thr = [`V_THR`](Self::V_THR); s_thr = [`S_THR`](Self::S_THR)
/// consecutive violations signal a context change (Section 4.3, with
/// the paper's values).
///
/// An *outlier guard* protects against corrupted measurements: a lone
/// sample more than [`OUTLIER_K`](Self::OUTLIER_K) × the windowed median
/// is held back rather than counted, and only counts (retroactively) if
/// the next sample violates too. A real context shift therefore still
/// fires after exactly s_thr violating samples, while an isolated
/// monitoring glitch — however extreme — can no longer contribute to a
/// spurious policy switch.
///
/// # Example
///
/// ```
/// use rac::ViolationDetector;
///
/// let mut d = ViolationDetector::default();
/// for _ in 0..10 {
///     assert!(!d.observe(100.0)); // steady state
/// }
/// let mut detected = false;
/// for _ in 0..5 {
///     detected = d.observe(500.0); // abrupt shift
/// }
/// assert!(detected);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ViolationDetector {
    window: SlidingWindow,
    consecutive: usize,
    streak_sum: f64,
    streak_count: usize,
    last_streak_mean: f64,
    /// A suspected-outlier sample awaiting confirmation by its
    /// successor.
    pending_outlier: Option<f64>,
}

impl Default for ViolationDetector {
    fn default() -> Self {
        ViolationDetector {
            window: SlidingWindow::new(Self::WINDOW),
            consecutive: 0,
            streak_sum: 0.0,
            streak_count: 0,
            last_streak_mean: f64::NAN,
            pending_outlier: None,
        }
    }
}

impl ViolationDetector {
    /// Window size n: the baseline is the mean of the last n
    /// non-violating samples.
    pub const WINDOW: usize = 10;
    /// Violation threshold v_thr, relative to the baseline.
    pub const V_THR: f64 = 0.3;
    /// Consecutive violations s_thr that signal a context change.
    pub const S_THR: usize = 5;
    /// Outlier guard factor: a violating sample greater than this many
    /// times the windowed median, arriving with no streak in progress,
    /// is held until the next sample confirms (counts both) or refutes
    /// (discards it) the shift.
    pub const OUTLIER_K: f64 = 4.0;

    /// Length of the current violation streak (0 in steady state; the
    /// detector resets to 0 when it fires).
    pub fn streak(&self) -> usize {
        self.consecutive
    }

    /// Feeds one response-time observation. Returns `true` when a
    /// context change is detected (the detector then resets).
    pub fn observe(&mut self, response_ms: f64) -> bool {
        let avg = self.window.mean();
        let violation = match avg {
            Some(avg) if avg > 0.0 && response_ms.is_finite() => {
                (response_ms - avg).abs() / avg >= Self::V_THR
            }
            Some(_) => response_ms.is_finite(),
            // No history yet: nothing to deviate from.
            None => false,
        };
        // Resolve a held suspected outlier first: a violating successor
        // confirms the shift was real, so the held sample counts
        // retroactively; a recovered successor proves it was isolated
        // corruption, and it is discarded without a trace.
        if let Some(held) = self.pending_outlier.take() {
            if violation {
                self.count_violation(held);
            }
        }
        if violation {
            let suspicious = self.consecutive == 0
                && response_ms.is_finite()
                && self
                    .window
                    .median()
                    .is_some_and(|m| m > 0.0 && response_ms > Self::OUTLIER_K * m);
            if suspicious {
                self.pending_outlier = Some(response_ms);
                return false;
            }
            self.count_violation(response_ms);
        } else {
            self.consecutive = 0;
            self.streak_sum = 0.0;
            self.streak_count = 0;
            // Only non-violating samples update the baseline, so a
            // persistent shift keeps registering until the switch.
            if response_ms.is_finite() {
                self.window.push(response_ms);
            }
        }
        if self.consecutive >= Self::S_THR {
            self.last_streak_mean = if self.streak_count > 0 {
                self.streak_sum / self.streak_count as f64
            } else {
                f64::NAN
            };
            self.reset();
            return true;
        }
        false
    }

    /// The mean of the violation streak that triggered the most recent
    /// detection — a robust estimate of the new context's performance
    /// level, used to pick the replacement policy (one transient sample
    /// would be a poor guide).
    pub fn last_streak_mean(&self) -> f64 {
        self.last_streak_mean
    }

    /// Clears history (called after a policy switch).
    pub fn reset(&mut self) {
        self.window.clear();
        self.consecutive = 0;
        self.streak_sum = 0.0;
        self.streak_count = 0;
        self.pending_outlier = None;
    }

    fn count_violation(&mut self, response_ms: f64) {
        self.consecutive += 1;
        if response_ms.is_finite() {
            self.streak_sum += response_ms;
            self.streak_count += 1;
        }
    }

    /// Serializes the detector's complete state (window contents
    /// oldest-first, streak progress, held outlier).
    pub(crate) fn encode(&self, w: &mut ckpt::wire::Writer) {
        w.put_usize(self.window.len());
        for v in self.window.iter() {
            w.put_f64(v);
        }
        w.put_usize(self.consecutive);
        w.put_f64(self.streak_sum);
        w.put_usize(self.streak_count);
        w.put_f64(self.last_streak_mean);
        match self.pending_outlier {
            Some(v) => {
                w.put_bool(true);
                w.put_f64(v);
            }
            None => w.put_bool(false),
        }
    }

    /// Restores a detector serialized by [`encode`](Self::encode).
    pub(crate) fn decode(r: &mut ckpt::wire::Reader<'_>) -> Result<Self, ckpt::CkptError> {
        let len = r.get_usize()?;
        if len > Self::WINDOW {
            return Err(ckpt::CkptError::Corrupt {
                detail: format!("detector window {len}/{} is impossible", Self::WINDOW),
            });
        }
        let mut window = SlidingWindow::new(Self::WINDOW);
        for _ in 0..len {
            window.push(r.get_f64()?);
        }
        let consecutive = r.get_usize()?;
        let streak_sum = r.get_f64()?;
        let streak_count = r.get_usize()?;
        let last_streak_mean = r.get_f64()?;
        let pending_outlier = if r.get_bool()? {
            Some(r.get_f64()?)
        } else {
            None
        };
        Ok(ViolationDetector {
            window,
            consecutive,
            streak_sum,
            streak_count,
            last_streak_mean,
            pending_outlier,
        })
    }
}

/// A library of per-context initial policies, produced by offline
/// training (Section 4.3). On a detected context change, the agent
/// switches to the "most suitable" policy — the one whose predicted
/// performance at the current configuration best matches what is being
/// measured.
#[derive(Debug, Clone)]
pub struct PolicyLibrary {
    entries: Vec<(SystemContext, InitialPolicy)>,
    /// [`fingerprint`](Self::fingerprint) once computed, shared by
    /// clones; [`insert`](Self::insert) starts a fresh one.
    fingerprint: Arc<OnceLock<u64>>,
}

impl PartialEq for PolicyLibrary {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl PolicyLibrary {
    /// Creates an empty library.
    pub fn new() -> Self {
        PolicyLibrary {
            entries: Vec::new(),
            fingerprint: Arc::default(),
        }
    }

    /// Adds a context's policy.
    pub fn insert(&mut self, context: SystemContext, policy: InitialPolicy) {
        self.entries.push((context, policy));
        self.fingerprint = Arc::default();
    }

    /// A 64-bit FNV-1a fingerprint of the library's checkpoint wire
    /// encoding: what a checkpoint records to name the library, and the
    /// content address of the sidecar file holding it. Computed on the
    /// first call and remembered by this library and every clone of it,
    /// so a process pays for it at most once per library.
    pub fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| crate::persist::library_fingerprint(self))
    }

    /// Number of stored policies.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the library has no policies.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The policy trained for an exact context, if present.
    pub fn for_context(&self, context: SystemContext) -> Option<&InitialPolicy> {
        self.entries
            .iter()
            .find(|(c, _)| *c == context)
            .map(|(_, p)| p)
    }

    /// The "most suitable" policy given the currently measured response
    /// time at lattice state `state`: the entry whose prediction at that
    /// state is closest (relative error) to the measurement.
    pub fn best_match(&self, state: usize, measured_ms: f64) -> Option<&InitialPolicy> {
        self.entries
            .iter()
            .min_by(|(_, a), (_, b)| {
                let da = (a.predicted_perf(state) - measured_ms).abs();
                let db = (b.predicted_perf(state) - measured_ms).abs();
                da.total_cmp(&db)
            })
            .map(|(_, p)| p)
    }

    /// Iterates over `(context, policy)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (&SystemContext, &InitialPolicy)> {
        self.entries.iter().map(|(c, p)| (c, p))
    }
}

impl Default for PolicyLibrary {
    fn default() -> Self {
        Self::new()
    }
}

/// Moves the `(context, policy)` entries out, in insertion order.
impl IntoIterator for PolicyLibrary {
    type Item = (SystemContext, InitialPolicy);
    type IntoIter = std::vec::IntoIter<(SystemContext, InitialPolicy)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{train_initial_policy, OfflineSettings};
    use crate::param::ConfigLattice;
    use crate::reward::SlaReward;

    #[test]
    fn paper_contexts_match_table_2() {
        let c = paper_contexts();
        assert_eq!(
            c[1],
            SystemContext::new(Mix::Ordering, ResourceLevel::Level1)
        );
        assert_eq!(
            c[2],
            SystemContext::new(Mix::Ordering, ResourceLevel::Level3)
        );
        assert_eq!(
            c[5],
            SystemContext::new(Mix::Browsing, ResourceLevel::Level1)
        );
        assert_eq!(c[0].to_string(), "shopping @ Level-1");
    }

    #[test]
    fn detector_ignores_steady_state() {
        let mut d = ViolationDetector::default();
        for i in 0..100 {
            // ±10% wiggle stays under the 30% threshold.
            let rt = 100.0 + if i % 2 == 0 { 10.0 } else { -10.0 };
            assert!(!d.observe(rt), "false positive at sample {i}");
        }
    }

    #[test]
    fn detector_fires_after_s_thr_violations() {
        let mut d = ViolationDetector::default();
        for _ in 0..10 {
            d.observe(100.0);
        }
        for i in 0..4 {
            assert!(!d.observe(200.0), "fired early at violation {i}");
        }
        assert!(
            d.observe(200.0),
            "must fire on the 5th consecutive violation"
        );
    }

    #[test]
    fn isolated_violations_do_not_fire() {
        let mut d = ViolationDetector::default();
        for _ in 0..10 {
            d.observe(100.0);
        }
        for _ in 0..20 {
            assert!(!d.observe(200.0), "isolated violation must not fire");
            d.observe(100.0); // resets the streak
        }
    }

    #[test]
    fn detector_handles_infinite_samples() {
        let mut d = ViolationDetector::default();
        for _ in 0..10 {
            d.observe(100.0);
        }
        assert!(!d.observe(f64::INFINITY));
        assert!(!d.observe(f64::INFINITY));
        // Infinite = violation? They are treated as non-violations of the
        // *window*, but they do not reset the count either way; a real
        // context change manifests in finite-but-shifted samples.
        let mut fired = false;
        for _ in 0..6 {
            fired = d.observe(1_000.0) || fired;
        }
        assert!(fired);
    }

    #[test]
    fn streak_exactly_at_s_thr_fires_and_resets() {
        let mut d = ViolationDetector::default();
        for _ in 0..10 {
            d.observe(100.0);
        }
        // Exactly s_thr − 1 violations: armed but not fired.
        for i in 1..5 {
            assert!(!d.observe(250.0));
            assert_eq!(d.streak(), i);
        }
        // The s_thr-th violation fires, and the streak resets to 0.
        assert!(d.observe(250.0));
        assert_eq!(d.streak(), 0);
        // The triggering streak's mean is exactly the violating level.
        assert!((d.last_streak_mean() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn reset_mid_streak_clears_progress() {
        let mut d = ViolationDetector::default();
        for _ in 0..10 {
            d.observe(100.0);
        }
        for _ in 0..4 {
            d.observe(250.0);
        }
        assert_eq!(d.streak(), 4);
        d.reset();
        assert_eq!(d.streak(), 0);
        // After reset the baseline window is empty too, so the next
        // samples establish a *new* baseline instead of violating the
        // old one — no firing even at the previously violating level.
        for i in 0..10 {
            assert!(!d.observe(250.0), "fired after reset at sample {i}");
        }
    }

    #[test]
    fn last_streak_mean_is_nan_before_any_streak() {
        let d = ViolationDetector::default();
        assert!(d.last_streak_mean().is_nan());
        let mut d = ViolationDetector::default();
        for _ in 0..20 {
            d.observe(100.0);
        }
        // Steady state never fired: still NaN.
        assert!(d.last_streak_mean().is_nan());
    }

    #[test]
    fn outlier_guard_ignores_isolated_spikes() {
        let mut d = ViolationDetector::default();
        for _ in 0..10 {
            d.observe(100.0);
        }
        // A lone 10× sample followed by recovery, repeated forever:
        // never fires, and the held sample never even starts a streak.
        for i in 0..20 {
            assert!(!d.observe(1_000.0), "spike {i} must be held, not counted");
            assert_eq!(d.streak(), 0, "held spike {i} must not start a streak");
            assert!(!d.observe(100.0), "recovery {i} must discard the spike");
            assert_eq!(d.streak(), 0);
        }
    }

    #[test]
    fn outlier_guard_does_not_delay_real_shifts() {
        let mut d = ViolationDetector::default();
        for _ in 0..10 {
            d.observe(100.0);
        }
        // A sustained shift beyond k × median: the first sample is held,
        // the second confirms it retroactively, so the detector fires on
        // the s_thr-th shifted sample, as it would with no guard.
        for i in 0..ViolationDetector::S_THR {
            let fired = d.observe(900.0);
            assert_eq!(fired, i == 4, "must fire on the 5th sample, not sample {i}");
        }
        assert!((d.last_streak_mean() - 900.0).abs() < 1e-9);
    }

    #[test]
    fn outlier_guard_leaves_moderate_violations_alone() {
        let mut d = ViolationDetector::default();
        for _ in 0..10 {
            d.observe(100.0);
        }
        // 200 ms violates the 30% band but stays under 4 × median, so it
        // counts immediately — the guard only questions extreme samples.
        assert!(!d.observe(200.0));
        assert_eq!(d.streak(), 1);
    }

    fn tiny_policy(scale: f64) -> InitialPolicy {
        let lattice = ConfigLattice::new(3);
        train_initial_policy(
            &lattice,
            SlaReward::new(1_000.0),
            OfflineSettings::default(),
            |c: &websim::ServerConfig| scale * (50.0 + c.max_clients() as f64 * 0.1),
        )
        .unwrap()
    }

    #[test]
    fn library_exact_and_best_match() {
        let mut lib = PolicyLibrary::new();
        let slow = tiny_policy(10.0);
        let fast = tiny_policy(1.0);
        let ctx_slow = SystemContext::new(Mix::Ordering, ResourceLevel::Level3);
        let ctx_fast = SystemContext::new(Mix::Shopping, ResourceLevel::Level1);
        lib.insert(ctx_slow, slow);
        lib.insert(ctx_fast, fast);
        assert_eq!(lib.len(), 2);

        assert!(lib.for_context(ctx_slow).is_some());
        assert!(lib
            .for_context(SystemContext::new(Mix::Browsing, ResourceLevel::Level2))
            .is_none());

        // A measurement near the slow landscape matches the slow policy.
        let state = 0;
        let slow_pred = lib.for_context(ctx_slow).unwrap().predicted_perf(state);
        let best = lib.best_match(state, slow_pred).unwrap();
        assert!((best.predicted_perf(state) - slow_pred).abs() < 1e-6);
    }

    #[test]
    fn library_fingerprint_follows_contents_and_is_shared_by_clones() {
        let ctx = SystemContext::new(Mix::Shopping, ResourceLevel::Level1);
        let mut lib = PolicyLibrary::new();
        lib.insert(ctx, tiny_policy(1.0));
        let clone = lib.clone();
        let fp = lib.fingerprint();
        // Computed once, for the library and its clones alike.
        assert_eq!(clone.fingerprint.get(), Some(&fp));
        // Equal contents, equal fingerprint; any insert changes it.
        let mut rebuilt = PolicyLibrary::new();
        rebuilt.insert(ctx, tiny_policy(1.0));
        assert_eq!(rebuilt.fingerprint(), fp);
        lib.insert(
            SystemContext::new(Mix::Ordering, ResourceLevel::Level3),
            tiny_policy(10.0),
        );
        assert_ne!(lib.fingerprint(), fp);
        assert_eq!(clone.fingerprint(), fp);
    }

    #[test]
    fn empty_library_has_no_match() {
        let lib = PolicyLibrary::new();
        assert!(lib.best_match(0, 100.0).is_none());
        assert!(lib.is_empty());
    }

    #[test]
    fn detector_round_trips_mid_streak() {
        let mut d = ViolationDetector::default();
        for _ in 0..10 {
            d.observe(100.0);
        }
        for _ in 0..3 {
            d.observe(200.0); // streak in progress
        }
        let mut w = ckpt::wire::Writer::new();
        d.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ckpt::wire::Reader::new(&bytes, "t");
        let mut back = ViolationDetector::decode(&mut r).unwrap();
        r.finish().unwrap();
        // Struct equality would trip over NaN fields (last_streak_mean
        // starts as NaN); re-encoding must reproduce the exact bytes.
        let mut w2 = ckpt::wire::Writer::new();
        back.encode(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
        // The restored detector fires on exactly the same future sample.
        assert!(!back.observe(200.0));
        assert!(back.observe(200.0), "streak must resume at 3/5");
    }

    #[test]
    fn detector_round_trips_pending_outlier() {
        let mut d = ViolationDetector::default();
        for _ in 0..10 {
            d.observe(100.0);
        }
        assert!(!d.observe(1_000.0)); // held as a suspected outlier
        let mut w = ckpt::wire::Writer::new();
        d.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ckpt::wire::Reader::new(&bytes, "t");
        let back = ViolationDetector::decode(&mut r).unwrap();
        r.finish().unwrap();
        let mut w2 = ckpt::wire::Writer::new();
        back.encode(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn detector_decode_rejects_bad_thresholds() {
        // A window longer than n cannot come from a detector.
        let mut w = ckpt::wire::Writer::new();
        w.put_usize(ViolationDetector::WINDOW + 1);
        for _ in 0..=ViolationDetector::WINDOW {
            w.put_f64(100.0);
        }
        w.put_usize(0);
        w.put_f64(0.0);
        w.put_usize(0);
        w.put_f64(f64::NAN);
        w.put_bool(false);
        let bytes = w.into_bytes();
        let mut r = ckpt::wire::Reader::new(&bytes, "t");
        assert!(matches!(
            ViolationDetector::decode(&mut r),
            Err(ckpt::CkptError::Corrupt { .. })
        ));
    }
}
