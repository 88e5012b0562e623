//! The privacy-budget ledger.
//!
//! The paper's longitudinal guarantee (Theorem 2) rests on spending the
//! `(r, ε, δ, n)` budget of the n-fold Gaussian mechanism *exactly once*
//! per permanent candidate set: the set is drawn when a top location first
//! enters a user's profile and then replayed forever, and posterior output
//! selection is free post-processing. The ledger turns that invariant into
//! an auditable record: every spend (candidate-set draw, window close,
//! checkpoint restore) is recorded as a [`SpendEvent`] and folded into
//! per-user aggregates — running totals composed with basic composition
//! (k draws at `(ε, δ)` cost `(kε, kδ)`) and a pay count per `(user, top)`
//! candidate set — and [`Ledger::assert_no_double_spend`] cross-checks the
//! recovery layer's `candidate_redraws == 0` invariant from the other
//! side: a candidate set that exists on a device but was never (or more
//! than once) paid for in the ledger is an audit failure.
//!
//! The events themselves are counted, not kept. Every export and audit
//! reads only the aggregates, and a log would grow with every window close
//! and restore a long-running fleet performs; the aggregates grow only
//! with users and released sets.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

/// A total-order key for a top location: the IEEE-754 bit patterns of its
/// coordinates. Exact candidate-set identity (not proximity) is what the
/// ledger tracks, so bit equality is the right notion here.
pub type TopKey = (u64, u64);

/// Builds a [`TopKey`] from a top location's coordinates.
pub fn top_key(x: f64, y: f64) -> TopKey {
    (x.to_bits(), y.to_bits())
}

fn key_point(key: TopKey) -> (f64, f64) {
    (f64::from_bits(key.0), f64::from_bits(key.1))
}

/// What a ledger entry paid for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpendKind {
    /// A fresh permanent candidate set was drawn for `top`, spending one
    /// `(ε, δ)` unit of the n-fold Gaussian budget for `n` released
    /// points.
    CandidateSet {
        /// The top location the set protects.
        top: TopKey,
        /// Per-set privacy level ε.
        epsilon: f64,
        /// Per-set failure probability δ.
        delta: f64,
        /// Number of simultaneously released points.
        n: u32,
    },
    /// A profile window closed (free unless it drew fresh sets, which are
    /// recorded separately).
    WindowClose,
    /// Device state was rebuilt from a checkpoint (must never re-spend).
    Restore,
}

/// One privacy-budget spend, as recorded into the ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpendEvent {
    /// The user whose budget the event touches.
    pub user: u64,
    /// What was spent.
    pub kind: SpendKind,
}

/// Composed running totals for one user.
#[derive(Debug, Clone, Copy, Default)]
pub struct UserTotals {
    /// Summed ε across candidate-set draws (basic composition).
    pub epsilon: f64,
    /// Summed δ across candidate-set draws (basic composition).
    pub delta: f64,
    /// Number of candidate sets paid for.
    pub candidate_sets: u64,
    /// Number of window-close events.
    pub window_closes: u64,
    /// Number of checkpoint restores observed.
    pub restores: u64,
}

/// Ledger-wide aggregate totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct LedgerTotals {
    /// Users with at least one event.
    pub users: u64,
    /// Total events recorded.
    pub events: u64,
    /// Summed ε across all users.
    pub epsilon: f64,
    /// Summed δ across all users.
    pub delta: f64,
    /// Total candidate sets paid for.
    pub candidate_sets: u64,
    /// Total window-close events.
    pub window_closes: u64,
    /// Total restore events.
    pub restores: u64,
}

/// Audit failures from [`Ledger::assert_no_double_spend`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LedgerError {
    /// The same `(user, top)` candidate set was paid for more than once —
    /// the budget theorem no longer covers the release.
    DoubleSpend {
        /// Offending user.
        user: u64,
        /// Offending top location.
        top: TopKey,
        /// How many times the set was paid for.
        count: u64,
    },
    /// A candidate set live on a device has no ledger entry — state was
    /// forged, restored from outside the ledger's view, or instrumentation
    /// missed a draw.
    Unrecorded {
        /// Offending user.
        user: u64,
        /// Offending top location.
        top: TopKey,
    },
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            LedgerError::DoubleSpend { user, top, count } => {
                let (x, y) = key_point(top);
                write!(
                    f,
                    "privacy budget double-spend: user {user} paid {count} times for the candidate set at ({x}, {y})"
                )
            }
            LedgerError::Unrecorded { user, top } => {
                let (x, y) = key_point(top);
                write!(
                    f,
                    "unrecorded candidate set: user {user} holds a set at ({x}, {y}) with no ledger entry"
                )
            }
        }
    }
}

impl std::error::Error for LedgerError {}

#[derive(Debug, Default)]
struct LedgerInner {
    /// Events recorded so far.
    events: u64,
    /// How many times each `(user, top)` candidate set was paid for.
    spends: BTreeMap<(u64, TopKey), u64>,
    totals: BTreeMap<u64, UserTotals>,
}

/// The privacy-budget ledger: per-user aggregates of every recorded spend;
/// a cheaply cloneable handle to shared state.
///
/// # Examples
///
/// ```
/// use privlocad_telemetry::{top_key, Ledger, SpendEvent, SpendKind};
///
/// let ledger = Ledger::new();
/// let top = top_key(100.0, 200.0);
/// let set = SpendKind::CandidateSet { top, epsilon: 1.0, delta: 1e-4, n: 10 };
/// ledger.record(SpendEvent { user: 7, kind: set });
/// ledger.record(SpendEvent { user: 7, kind: SpendKind::WindowClose });
/// let totals = ledger.totals();
/// assert_eq!(totals.candidate_sets, 1);
/// assert!(ledger.assert_no_double_spend([(7, top_key(100.0, 200.0))]).is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    inner: Arc<Mutex<LedgerInner>>,
}

impl Ledger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Records one event: counts it and folds it into the aggregates.
    pub fn record(&self, event: SpendEvent) {
        let mut inner = self.inner.lock();
        let totals = inner.totals.entry(event.user).or_default();
        match event.kind {
            SpendKind::CandidateSet { top, epsilon, delta, .. } => {
                totals.epsilon += epsilon;
                totals.delta += delta;
                totals.candidate_sets += 1;
                *inner.spends.entry((event.user, top)).or_insert(0) += 1;
            }
            SpendKind::WindowClose => totals.window_closes += 1,
            SpendKind::Restore => totals.restores += 1,
        }
        inner.events += 1;
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.inner.lock().events as usize
    }

    /// Whether the ledger is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Composed per-user totals, sorted by user id.
    pub fn user_totals(&self) -> Vec<(u64, UserTotals)> {
        self.inner.lock().totals.iter().map(|(&u, &t)| (u, t)).collect()
    }

    /// Ledger-wide aggregate totals.
    pub fn totals(&self) -> LedgerTotals {
        let inner = self.inner.lock();
        let mut out = LedgerTotals { events: inner.events, ..LedgerTotals::default() };
        for totals in inner.totals.values() {
            out.users += 1;
            out.epsilon += totals.epsilon;
            out.delta += totals.delta;
            out.candidate_sets += totals.candidate_sets;
            out.window_closes += totals.window_closes;
            out.restores += totals.restores;
        }
        out
    }

    /// Audits the exactly-once spend invariant against the candidate sets
    /// actually live on devices (`live` is every `(user, top)` with a
    /// released permanent set, e.g. decoded from final checkpoints).
    ///
    /// # Errors
    ///
    /// [`LedgerError::DoubleSpend`] if any `(user, top)` set was paid for
    /// more than once; [`LedgerError::Unrecorded`] if a live set has no
    /// ledger entry at all. The first failure in `(user, top)` order wins.
    pub fn assert_no_double_spend(
        &self,
        live: impl IntoIterator<Item = (u64, TopKey)>,
    ) -> Result<(), LedgerError> {
        let inner = self.inner.lock();
        for (&(user, top), &count) in &inner.spends {
            if count > 1 {
                return Err(LedgerError::DoubleSpend { user, top, count });
            }
        }
        let mut missing: Vec<(u64, TopKey)> = live
            .into_iter()
            .filter(|&(user, top)| !inner.spends.contains_key(&(user, top)))
            .collect();
        missing.sort_unstable();
        match missing.first() {
            Some(&(user, top)) => Err(LedgerError::Unrecorded { user, top }),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records a fresh candidate-set draw of `n = 10` points.
    fn candidate_set(ledger: &Ledger, user: u64, top: TopKey, epsilon: f64, delta: f64) {
        ledger.record(SpendEvent {
            user,
            kind: SpendKind::CandidateSet { top, epsilon, delta, n: 10 },
        });
    }

    #[test]
    fn composition_totals_are_k_fold() {
        // k draws at (ε, δ) compose to (kε, kδ) under basic composition.
        let ledger = Ledger::new();
        let (eps, delta, k) = (0.4, 1e-3, 7u64);
        for i in 0..k {
            candidate_set(&ledger, 3, top_key(i as f64, 0.0), eps, delta);
        }
        let totals = ledger.totals();
        assert_eq!(totals.candidate_sets, k);
        assert!((totals.epsilon - eps * k as f64).abs() < 1e-12);
        assert!((totals.delta - delta * k as f64).abs() < 1e-15);
        assert_eq!(totals.users, 1);
    }

    #[test]
    fn per_user_totals_stay_separate() {
        let ledger = Ledger::new();
        candidate_set(&ledger, 1, top_key(0.0, 0.0), 1.0, 1e-4);
        candidate_set(&ledger, 2, top_key(0.0, 0.0), 2.0, 2e-4);
        ledger.record(SpendEvent { user: 1, kind: SpendKind::WindowClose });
        ledger.record(SpendEvent { user: 2, kind: SpendKind::Restore });
        let users = ledger.user_totals();
        assert_eq!(users.len(), 2);
        assert!((users[0].1.epsilon - 1.0).abs() < 1e-12);
        assert_eq!(users[0].1.window_closes, 1);
        assert_eq!(users[0].1.restores, 0);
        assert!((users[1].1.epsilon - 2.0).abs() < 1e-12);
        assert_eq!(users[1].1.restores, 1);
    }

    #[test]
    fn audit_accepts_exactly_once_spends() {
        let ledger = Ledger::new();
        let tops = [top_key(1.0, 2.0), top_key(3.0, 4.0)];
        for &top in &tops {
            candidate_set(&ledger, 9, top, 1.0, 1e-4);
        }
        ledger.record(SpendEvent { user: 9, kind: SpendKind::Restore });
        let live: Vec<_> = tops.iter().map(|&t| (9, t)).collect();
        assert!(ledger.assert_no_double_spend(live).is_ok());
    }

    #[test]
    fn audit_trips_on_a_double_spend() {
        let ledger = Ledger::new();
        let top = top_key(5.0, 5.0);
        candidate_set(&ledger, 4, top, 1.0, 1e-4);
        candidate_set(&ledger, 4, top, 1.0, 1e-4);
        assert_eq!(
            ledger.assert_no_double_spend([(4, top)]),
            Err(LedgerError::DoubleSpend { user: 4, top, count: 2 })
        );
    }

    #[test]
    fn audit_trips_on_a_forged_live_set() {
        // A candidate set present on a device but absent from the ledger
        // is exactly what a forged or out-of-band-restored snapshot looks
        // like.
        let ledger = Ledger::new();
        candidate_set(&ledger, 4, top_key(5.0, 5.0), 1.0, 1e-4);
        let forged = top_key(99.0, 99.0);
        assert_eq!(
            ledger.assert_no_double_spend([(4, top_key(5.0, 5.0)), (4, forged)]),
            Err(LedgerError::Unrecorded { user: 4, top: forged })
        );
    }

    #[test]
    fn every_record_is_counted() {
        // Each kind counts as one event, restores included, though only
        // the aggregates keep what the events said.
        let ledger = Ledger::new();
        assert!(ledger.is_empty());
        ledger.record(SpendEvent { user: 2, kind: SpendKind::WindowClose });
        candidate_set(&ledger, 1, top_key(0.0, 0.0), 1.0, 1e-4);
        ledger.record(SpendEvent { user: 2, kind: SpendKind::Restore });
        ledger.record(SpendEvent { user: 3, kind: SpendKind::Restore });
        ledger.record(SpendEvent { user: 1, kind: SpendKind::Restore });
        assert_eq!(ledger.len(), 5);
        let totals = ledger.totals();
        assert_eq!(totals.events, 5);
        assert_eq!(totals.users, 3);
        assert_eq!(totals.restores, 3);
        assert_eq!(totals.candidate_sets, 1);
        assert_eq!(totals.window_closes, 1);
    }
}
