//! Cooperative cancellation and deadlines for every execution path.
//!
//! A [`CancelToken`] is a cheap, cloneable handle shared between a
//! caller (a tenant front end, a timeout wrapper, a test harness) and
//! the execution layers underneath
//! ([`crate::scheduler::QueryScheduler`] →
//! [`crate::Engine::run`] / streaming ingest →
//! [`crate::executor`] region fan-out → the [`crate::pool`] worker job
//! loop). Workers poll the token **once per work unit** (a scan
//! region, a streamed chunk, a join partition), so a cancelled or
//! past-deadline query stops within one unit of in-flight work and
//! surfaces a structured [`crate::Error::Cancelled`] /
//! [`crate::Error::DeadlineExceeded`] instead of completing, hanging,
//! or poisoning shared state.
//!
//! The fast path is a single relaxed atomic load; the deadline (when
//! set) costs one monotonic clock read per check. A token is never
//! required: an [`crate::ExecOptions`] without one passes no token and
//! pays nothing. A caller's token and a time budget compose into a
//! child token ([`CancelToken::child_with_deadline`]); every range of
//! a sharded scan polls the one batch token.
//!
//! ```
//! use atgis::cancel::{CancelToken, Interrupt};
//!
//! let token = CancelToken::new();
//! assert!(token.check().is_ok());
//! token.cancel();
//! assert_eq!(token.check(), Err(Interrupt::Cancelled));
//!
//! // Deadlines trip on their own once the budget elapses.
//! let strict = CancelToken::with_deadline(std::time::Duration::ZERO);
//! assert_eq!(strict.check(), Err(Interrupt::DeadlineExceeded));
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a cooperative check tripped: an explicit [`CancelToken::cancel`]
/// or an elapsed deadline. Cancellation wins when both hold — the
/// caller's explicit signal is the stronger statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interrupt {
    /// The token was explicitly cancelled.
    Cancelled,
    /// The token's deadline elapsed.
    DeadlineExceeded,
}

impl std::fmt::Display for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Interrupt::Cancelled => write!(f, "cancelled"),
            Interrupt::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

struct TokenState {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    /// Parent state for tokens created with
    /// [`CancelToken::child_with_deadline`]: the child trips whenever
    /// any ancestor trips, but cancelling the child never propagates
    /// upward.
    parent: Option<Arc<TokenState>>,
}

impl TokenState {
    fn interrupted(&self) -> Option<Interrupt> {
        if self.cancelled.load(Ordering::Relaxed) {
            return Some(Interrupt::Cancelled);
        }
        if let Some(at) = self.deadline {
            if Instant::now() >= at {
                return Some(Interrupt::DeadlineExceeded);
            }
        }
        self.parent.as_deref().and_then(TokenState::interrupted)
    }

    fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
            || self.parent.as_deref().is_some_and(TokenState::is_cancelled)
    }
}

/// A cloneable cancellation handle with an optional deadline. All
/// clones observe the same state; [`CancelToken::cancel`] from any
/// thread trips every holder's next [`CancelToken::check`].
#[derive(Clone)]
pub struct CancelToken {
    state: Arc<TokenState>,
}

impl CancelToken {
    /// A live token with no deadline. It only trips when
    /// [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        CancelToken {
            state: Arc::new(TokenState {
                cancelled: AtomicBool::new(false),
                deadline: None,
                parent: None,
            }),
        }
    }

    /// A token that additionally trips once `budget` has elapsed from
    /// now. A budget too large to represent as an `Instant` (e.g. a
    /// client sending `u64::MAX` milliseconds as a "no timeout"
    /// sentinel) means **no deadline**, never a panic.
    pub fn with_deadline(budget: Duration) -> Self {
        match Instant::now().checked_add(budget) {
            Some(at) => CancelToken::deadline_at(at),
            None => CancelToken::new(),
        }
    }

    /// A token that additionally trips at the given instant.
    pub fn deadline_at(at: Instant) -> Self {
        CancelToken {
            state: Arc::new(TokenState {
                cancelled: AtomicBool::new(false),
                deadline: Some(at),
                parent: None,
            }),
        }
    }

    /// Trips the token: every subsequent [`CancelToken::check`] on any
    /// clone returns [`Interrupt::Cancelled`]. Idempotent.
    pub fn cancel(&self) {
        self.state.cancelled.store(true, Ordering::Release);
    }

    /// Whether [`CancelToken::cancel`] has been called on this token
    /// or any ancestor (deadline state is not consulted).
    pub fn is_cancelled(&self) -> bool {
        self.state.is_cancelled()
    }

    /// A child token that trips whenever `self` trips (cancellation or
    /// deadline) and additionally once `budget` has elapsed from now;
    /// its own [`CancelToken::cancel`] never propagates back to
    /// `self`. [`crate::ExecOptions`] derives one when a caller's
    /// token and a time budget compose. The effective deadline is the
    /// earlier of the child's and any ancestor's; an unrepresentable
    /// budget means the child adds no deadline of its own.
    pub fn child_with_deadline(&self, budget: Duration) -> CancelToken {
        CancelToken {
            state: Arc::new(TokenState {
                cancelled: AtomicBool::new(false),
                deadline: Instant::now().checked_add(budget),
                parent: Some(self.state.clone()),
            }),
        }
    }

    /// The configured deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.state.deadline
    }

    /// Polls the token: `None` while work may continue, `Some` once
    /// cancelled or past the deadline. One relaxed atomic load on the
    /// hot path; the clock is read only when a deadline is set.
    pub fn interrupted(&self) -> Option<Interrupt> {
        self.state.interrupted()
    }

    /// [`CancelToken::interrupted`] as a `Result`, for `?`-style
    /// chaining in execution loops.
    pub fn check(&self) -> std::result::Result<(), Interrupt> {
        match self.interrupted() {
            Some(i) => Err(i),
            None => Ok(()),
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .field("deadline", &self.state.deadline)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.interrupted(), None);
        assert!(t.check().is_ok());
    }

    #[test]
    fn cancel_trips_every_clone() {
        let t = CancelToken::new();
        let clone = t.clone();
        t.cancel();
        assert!(clone.is_cancelled());
        assert_eq!(clone.check(), Err(Interrupt::Cancelled));
        t.cancel(); // idempotent
        assert_eq!(t.interrupted(), Some(Interrupt::Cancelled));
    }

    #[test]
    fn elapsed_deadline_trips() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert_eq!(t.check(), Err(Interrupt::DeadlineExceeded));
        let future = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(future.check().is_ok());
    }

    #[test]
    fn oversized_budgets_mean_no_deadline_not_a_panic() {
        // `Instant::now() + Duration::MAX` overflows; the token must
        // degrade to "no deadline" (the natural reading of a huge
        // client-supplied timeout) instead of panicking.
        let t = CancelToken::with_deadline(Duration::MAX);
        assert_eq!(t.deadline(), None);
        assert!(t.check().is_ok());
        t.cancel();
        assert_eq!(t.check(), Err(Interrupt::Cancelled));
        // A representable-but-huge budget still yields a deadline.
        let far = CancelToken::with_deadline(Duration::from_secs(86_400 * 365));
        assert!(far.deadline().is_some());
        assert!(far.check().is_ok());
    }

    #[test]
    fn explicit_cancellation_outranks_the_deadline() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        t.cancel();
        assert_eq!(t.interrupted(), Some(Interrupt::Cancelled));
    }

    #[test]
    fn child_trips_with_parent_but_not_vice_versa() {
        let parent = CancelToken::new();
        let child = parent.child_with_deadline(Duration::from_secs(3600));
        assert!(child.check().is_ok());
        child.cancel();
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled(), "child cancel stays local");
        let other = parent.child_with_deadline(Duration::from_secs(3600));
        parent.cancel();
        assert_eq!(other.interrupted(), Some(Interrupt::Cancelled));
        assert!(other.is_cancelled());
    }

    #[test]
    fn child_deadline_composes_with_parent_deadline() {
        let parent = CancelToken::with_deadline(Duration::from_secs(3600));
        let strict = parent.child_with_deadline(Duration::ZERO);
        assert_eq!(strict.check(), Err(Interrupt::DeadlineExceeded));
        let lax = parent.child_with_deadline(Duration::from_secs(7200));
        assert!(lax.check().is_ok());
        // The parent's earlier trip still reaches the lax child.
        let tight = CancelToken::with_deadline(Duration::ZERO);
        let inherited = tight.child_with_deadline(Duration::from_secs(3600));
        assert_eq!(inherited.check(), Err(Interrupt::DeadlineExceeded));
        // Oversized child budgets degrade to "no own deadline".
        let huge = parent.child_with_deadline(Duration::MAX);
        assert!(huge.check().is_ok());
    }

    #[test]
    fn cancellation_crosses_threads() {
        let t = CancelToken::new();
        let worker = t.clone();
        let handle = std::thread::spawn(move || {
            while worker.check().is_ok() {
                std::thread::yield_now();
            }
            worker.interrupted()
        });
        t.cancel();
        assert_eq!(handle.join().unwrap(), Some(Interrupt::Cancelled));
    }
}
