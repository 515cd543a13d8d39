//! Cooperative per-query deadlines.
//!
//! A [`Deadline`] is a point in time the strategies agree to respect: the
//! ERA sweep, TA's sorted-access loop, and Merge's heap loop each call
//! [`Deadline::check`] at their iteration boundaries (every
//! [`CHECK_INTERVAL`] units of work), so an over-budget query stops within
//! one check window and returns [`TrexError::DeadlineExceeded`] instead of
//! holding a worker — and the maintenance read gate — for an unbounded
//! time. There is no preemption: a deadline only fires where a strategy
//! polls it.

use std::time::{Duration, Instant};

use crate::{Result, TrexError};

/// Units of work (positions read, sorted accesses, merged elements) between
/// consecutive deadline polls inside a strategy loop. One `Instant::now()`
/// per interval keeps the polling cost far below the work it brackets.
pub const CHECK_INTERVAL: u64 = 1024;

/// A point in time after which a query should stop, or no limit at all.
///
/// `Copy` and two words wide, so threading it through the strategy calls is
/// free. The no-limit variant ([`Deadline::none`]) never reads the clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// No deadline: [`check`](Deadline::check) always succeeds.
    pub fn none() -> Deadline {
        Deadline { at: None }
    }

    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Deadline {
        Deadline {
            at: Instant::now().checked_add(budget),
        }
    }

    /// A deadline at an absolute instant.
    pub fn at(at: Instant) -> Deadline {
        Deadline { at: Some(at) }
    }

    /// From an optional absolute instant (`None` = no deadline) — the shape
    /// [`EvalOptions::deadline`](crate::EvalOptions) carries.
    pub fn from_opt(at: Option<Instant>) -> Deadline {
        Deadline { at }
    }

    /// Whether a limit is set at all.
    pub fn is_set(&self) -> bool {
        self.at.is_some()
    }

    /// Whether the deadline has passed. Reads the clock only when a limit
    /// is set.
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }

    /// Time left before the deadline; `None` when no limit is set, zero
    /// when already expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.at
            .map(|at| at.saturating_duration_since(Instant::now()))
    }

    /// `Err(TrexError::DeadlineExceeded)` once the deadline has passed.
    #[inline]
    pub fn check(&self) -> Result<()> {
        if self.expired() {
            Err(TrexError::DeadlineExceeded)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_deadline_never_fires() {
        let d = Deadline::none();
        assert!(!d.is_set());
        assert!(!d.expired());
        assert!(d.check().is_ok());
        assert_eq!(d.remaining(), None);
    }

    #[test]
    fn generous_deadline_passes_then_zero_budget_fires() {
        let d = Deadline::after(Duration::from_secs(3600));
        assert!(d.is_set());
        assert!(d.check().is_ok());
        assert!(d.remaining().unwrap() > Duration::from_secs(3000));

        let expired = Deadline::after(Duration::ZERO);
        assert!(expired.expired());
        assert!(matches!(expired.check(), Err(TrexError::DeadlineExceeded)));
        assert_eq!(expired.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn absolute_deadline_in_the_past_fires() {
        let d = Deadline::at(Instant::now() - Duration::from_millis(1));
        assert!(d.expired());
    }
}
