//! Cooperative cancellation for the evaluation engine.
//!
//! A [`CancelToken`] carries an optional shared **cancel flag** (set by a
//! draining server, a shutting-down pool owner, …) and an optional
//! wall-clock **deadline**. [`crate::EvalPool::evaluate`] checks the
//! token **once per BFS level** and bails out with an [`Interrupt`]
//! verdict instead of finishing the evaluation. One level is the
//! natural grain:
//! it bounds the overstay to a single frontier sweep (the unit of work
//! between checks) while keeping the hot loop free of per-edge or
//! per-node checks.
//!
//! Cancellation is strictly cooperative and lossy by design: an
//! interrupted evaluation returns *no* partial result, and callers (the
//! serving layer) must treat the verdict as "not evaluated", never as an
//! empty answer.
//!
//! ```
//! use pathlearn_graph::cancel::{CancelToken, Interrupt};
//! use pathlearn_graph::eval::{EvalScratch, Goal};
//! use pathlearn_graph::graph::figure3_g0;
//! use pathlearn_graph::plan::plan_query;
//! use pathlearn_graph::EvalPool;
//! use pathlearn_automata::Regex;
//! use std::time::Instant;
//!
//! let graph = figure3_g0();
//! let query = Regex::parse("(a·b)*·c", graph.alphabet()).unwrap().to_dfa(3);
//! let plan = plan_query(&query, &graph);
//! let (pool, mut scratch) = (EvalPool::sequential(), EvalScratch::new());
//! // An already-expired deadline yields the Deadline verdict...
//! let expired = CancelToken::with_deadline(Instant::now());
//! assert_eq!(
//!     pool.evaluate(&mut scratch, &plan, &graph, Goal::Monadic, &expired),
//!     Err(Interrupt::Deadline),
//! );
//! // ...while the never-cancelled token evaluates normally.
//! let result = pool.evaluate(&mut scratch, &plan, &graph, Goal::Monadic, &CancelToken::never());
//! assert_eq!(result.unwrap().len(), 2);
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Why an evaluation was interrupted — the verdict
/// [`crate::EvalPool::evaluate`] returns instead of a result set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Interrupt {
    /// The token's deadline passed (per-query time budget exhausted).
    Deadline,
    /// The token's shared cancel flag was raised (drain / shutdown).
    Cancelled,
}

impl std::fmt::Display for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Interrupt::Deadline => f.write_str("deadline exceeded"),
            Interrupt::Cancelled => f.write_str("cancelled"),
        }
    }
}

impl std::error::Error for Interrupt {}

/// A cheap, cloneable cancellation token: an optional shared flag plus
/// an optional deadline. The default token never cancels: under
/// [`CancelToken::never`] an evaluation always runs to its answer.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Option<Arc<AtomicBool>>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// The token that never cancels (no flag, no deadline).
    pub fn never() -> Self {
        Self::default()
    }

    /// A token that trips with [`Interrupt::Deadline`] once `deadline`
    /// has passed.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            flag: None,
            deadline: Some(deadline),
        }
    }

    /// A token that trips with [`Interrupt::Cancelled`] once `flag` is
    /// set. The flag is shared: one `store(true)` cancels every token
    /// cloned from it (how a draining server sweeps its in-flight work).
    pub fn with_flag(flag: Arc<AtomicBool>) -> Self {
        CancelToken {
            flag: Some(flag),
            deadline: None,
        }
    }

    /// Adds (or replaces) a deadline on this token, keeping its flag.
    pub fn and_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The token's deadline, if any — exposed so waiters (e.g. a thread
    /// blocked on a coalescing ticket) can bound their sleeps.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// `true` iff this token can never cancel (no flag and no deadline):
    /// the caller may take uninterruptible fast paths.
    pub fn is_never(&self) -> bool {
        self.flag.is_none() && self.deadline.is_none()
    }

    /// `Err` with the verdict if the token has tripped. The deadline is
    /// checked first, so an expired budget reports [`Interrupt::Deadline`]
    /// even while a drain is also in progress.
    pub fn check(&self) -> Result<(), Interrupt> {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(Interrupt::Deadline);
            }
        }
        if let Some(flag) = &self.flag {
            if flag.load(Ordering::Relaxed) {
                return Err(Interrupt::Cancelled);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn never_token_never_trips() {
        let token = CancelToken::never();
        assert!(token.is_never());
        assert_eq!(token.check(), Ok(()));
        assert_eq!(token.deadline(), None);
    }

    #[test]
    fn deadline_token_trips_once_expired() {
        let fresh = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!fresh.is_never());
        assert_eq!(fresh.check(), Ok(()));
        let expired = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(expired.check(), Err(Interrupt::Deadline));
    }

    #[test]
    fn flag_token_trips_when_raised_and_shares_the_flag() {
        let flag = Arc::new(AtomicBool::new(false));
        let token = CancelToken::with_flag(flag.clone());
        let clone = token.clone();
        assert_eq!(token.check(), Ok(()));
        flag.store(true, Ordering::Relaxed);
        assert_eq!(token.check(), Err(Interrupt::Cancelled));
        assert_eq!(clone.check(), Err(Interrupt::Cancelled), "clones share");
    }

    #[test]
    fn deadline_outranks_flag_in_the_verdict() {
        let flag = Arc::new(AtomicBool::new(true));
        let token = CancelToken::with_flag(flag).and_deadline(Instant::now());
        assert_eq!(token.check(), Err(Interrupt::Deadline));
        assert!(token.deadline().is_some());
    }

    #[test]
    fn interrupt_displays() {
        assert_eq!(Interrupt::Deadline.to_string(), "deadline exceeded");
        assert_eq!(Interrupt::Cancelled.to_string(), "cancelled");
    }
}
