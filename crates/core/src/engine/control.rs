//! Cooperative cancellation for campaign execution.
//!
//! A [`CancelToken`] is the engine's graceful-shutdown surface: the
//! executor checks it before starting each run (never mid-run), so a
//! cancelled campaign finishes the runs already in flight, flushes
//! every completed record to the journal, and reports the partial
//! tallies it has with an explicit [`CompletionStatus::Interrupted`].
//! The `repro` CLI wires Ctrl-C to one token shared by every campaign
//! of the invocation.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Did the executor drain the whole plan, or was it cancelled first?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionStatus {
    /// Every scheduled run completed (executed or resumed).
    Complete,
    /// A cancel request stopped the campaign before the plan drained;
    /// tallies cover only the runs that finished.
    Interrupted,
}

impl CompletionStatus {
    /// Did the plan drain fully?
    pub fn is_complete(self) -> bool {
        matches!(self, CompletionStatus::Complete)
    }
}

/// Cooperative cancellation flag, checked by the executor between
/// runs.
///
/// Two trip mechanisms:
/// * [`CancelToken::cancel`] — external request (signal handler, test).
/// * [`CancelToken::after_runs`] — self-trip after N completed runs,
///   the deterministic stand-in for "killed mid-campaign" that the
///   resume-law tests and proptests use (no processes, no signals).
///   Such a token also admits only N run starts, so parallel workers
///   cannot start an extra run while the N-th is still in flight.
#[derive(Debug)]
pub struct CancelToken {
    cancelled: AtomicBool,
    /// Remaining completions before self-trip; `u64::MAX` = disabled.
    countdown: AtomicU64,
    /// Remaining run starts admitted; `u64::MAX` = unlimited.
    starts: AtomicU64,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken {
            cancelled: AtomicBool::new(false),
            countdown: AtomicU64::new(u64::MAX),
            starts: AtomicU64::new(u64::MAX),
        }
    }
}

impl CancelToken {
    /// A token that trips only on an explicit [`CancelToken::cancel`].
    pub fn new() -> Arc<Self> {
        Arc::new(CancelToken::default())
    }

    /// A token that trips itself once `runs` runs have completed —
    /// deterministic mid-campaign interruption for tests.
    pub fn after_runs(runs: u64) -> Arc<Self> {
        Arc::new(CancelToken {
            cancelled: AtomicBool::new(runs == 0),
            countdown: AtomicU64::new(runs),
            starts: AtomicU64::new(runs),
        })
    }

    /// Request cancellation. Idempotent; the executor stops *starting*
    /// runs, it never aborts one mid-flight.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    /// Executor admission check before starting a run: `false` once
    /// cancelled or once an [`CancelToken::after_runs`] token has
    /// admitted its N starts.
    pub fn try_start(&self) -> bool {
        !self.is_cancelled()
            && self
                .starts
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| match v {
                    u64::MAX => Some(v),
                    _ => v.checked_sub(1),
                })
                .is_ok()
    }

    /// Executor notification: one run finished. Drives the
    /// [`CancelToken::after_runs`] countdown; a plain token ignores it.
    pub fn note_run_complete(&self) {
        if self.countdown.load(Ordering::SeqCst) == u64::MAX {
            return;
        }
        let prev = self
            .countdown
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .unwrap_or(0);
        if prev <= 1 {
            self.cancel();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_token_trips_only_on_cancel() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        for _ in 0..100 {
            t.note_run_complete();
        }
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn countdown_token_trips_after_n_runs() {
        let t = CancelToken::after_runs(3);
        t.note_run_complete();
        t.note_run_complete();
        assert!(!t.is_cancelled());
        t.note_run_complete();
        assert!(t.is_cancelled());
    }

    #[test]
    fn countdown_token_admits_exactly_n_starts() {
        let t = CancelToken::after_runs(2);
        assert!(t.try_start() && t.try_start());
        assert!(!t.try_start(), "a third start while two are in flight");
        assert!(!t.is_cancelled(), "cancellation still waits for completions");
        let plain = CancelToken::new();
        assert!((0..100).all(|_| plain.try_start()));
        plain.cancel();
        assert!(!plain.try_start());
    }

    #[test]
    fn zero_countdown_starts_cancelled() {
        assert!(CancelToken::after_runs(0).is_cancelled());
    }

    #[test]
    fn completion_status_predicates() {
        assert!(CompletionStatus::Complete.is_complete());
        assert!(!CompletionStatus::Interrupted.is_complete());
    }
}
