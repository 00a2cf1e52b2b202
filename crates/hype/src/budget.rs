//! Work budgets: deadlines and cooperative cancellation for evaluators.
//!
//! A [`WorkBudget`] carries an optional wall-clock deadline and an
//! optional shared cancel flag into an evaluation. Drivers thread a
//! [`BudgetMeter`] through their hot loops and call [`BudgetMeter::tick`]
//! once per unit of work (one DOM stack pop, one parser event, one jump
//! candidate). The meter is built so the
//! unbudgeted case — the common one — costs a single predictable branch:
//!
//! * unarmed (no deadline, no cancel token): `tick` tests one `bool` and
//!   returns;
//! * armed: `tick` decrements a countdown, and only every
//!   `check_interval` events pays for the real check (an atomic load and
//!   an `Instant::now` comparison, kept out of line in a `#[cold]` fn).
//!
//! This bounds both the overhead *and* the overshoot: an expired
//! evaluation runs at most one check interval of extra events before it
//! abandons. Abandonment is safe by construction — evaluators only read
//! immutable snapshots and write evaluator-local state (machine frames,
//! candidate sets, per-driver ancestor paths), so dropping them mid-scan cannot
//! corrupt anything shared; the partial [`EvalStats`] travel out in the
//! interrupt for observability.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::stats::EvalStats;
use smoqe_xml::XmlError;

/// Default events between real deadline/cancel checks.
pub const DEFAULT_CHECK_INTERVAL: u32 = 1024;

/// Why an evaluation was interrupted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Interrupt {
    /// The budget's deadline passed mid-evaluation.
    DeadlineExceeded,
    /// The budget's cancel token was set mid-evaluation.
    Cancelled,
}

/// An abandoned evaluation: why it stopped plus the counters it had
/// accumulated when it did (partial — `answers`/`cans_size` are only
/// finalized by a completed run; `nodes_visited` is live and is what
/// bounded-abandonment assertions use).
#[derive(Clone, Copy, Debug)]
pub struct EvalInterrupt {
    /// What cut the evaluation short.
    pub kind: Interrupt,
    /// Counters at the moment of abandonment.
    pub stats: EvalStats,
}

/// A streaming/batch driver failure: either the underlying parse failed,
/// or the budget interrupted the scan.
#[derive(Debug)]
pub enum DriverError {
    /// XML parsing failed (the pre-budget error surface).
    Xml(XmlError),
    /// The work budget interrupted the scan.
    Interrupted(EvalInterrupt),
}

impl From<XmlError> for DriverError {
    fn from(e: XmlError) -> Self {
        DriverError::Xml(e)
    }
}

/// Limits on one evaluation: an optional deadline, an optional shared
/// cancel flag, and how often to check them. The default budget is
/// unlimited and free to thread everywhere.
#[derive(Clone, Debug, Default)]
pub struct WorkBudget {
    /// Absolute wall-clock instant after which evaluation abandons.
    pub deadline: Option<Instant>,
    /// Shared flag; once `true`, evaluation abandons at the next check.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Events between real checks (`0` means [`DEFAULT_CHECK_INTERVAL`]).
    pub check_interval: u32,
}

impl WorkBudget {
    /// A budget with no limits (every check is skipped via one branch).
    pub fn unlimited() -> WorkBudget {
        WorkBudget::default()
    }

    /// A deadline-only budget.
    pub fn with_deadline(deadline: Instant) -> WorkBudget {
        WorkBudget {
            deadline: Some(deadline),
            ..WorkBudget::default()
        }
    }

    /// A cancel-token-only budget.
    pub fn with_cancel(cancel: Arc<AtomicBool>) -> WorkBudget {
        WorkBudget {
            cancel: Some(cancel),
            ..WorkBudget::default()
        }
    }

    /// Whether this budget can never interrupt anything.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.cancel.is_none()
    }

    /// The effective check interval.
    pub fn interval(&self) -> u32 {
        if self.check_interval == 0 {
            DEFAULT_CHECK_INTERVAL
        } else {
            self.check_interval
        }
    }

    /// Builds the per-evaluation meter. Each concurrent worker of a
    /// parallel evaluation takes its own meter over the same budget.
    pub fn meter(&self) -> BudgetMeter {
        let interval = self.interval();
        BudgetMeter {
            armed: !self.is_unlimited(),
            countdown: interval,
            interval,
            deadline: self.deadline,
            cancel: self.cancel.clone(),
        }
    }
}

/// The per-evaluation countdown a driver ticks in its hot loop.
#[derive(Clone, Debug)]
pub struct BudgetMeter {
    armed: bool,
    countdown: u32,
    interval: u32,
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
}

impl Default for BudgetMeter {
    /// An unarmed meter (what [`WorkBudget::unlimited`] produces).
    fn default() -> Self {
        WorkBudget::unlimited().meter()
    }
}

impl BudgetMeter {
    /// Counts one event; every `check_interval` events performs the real
    /// deadline/cancel check. Unarmed meters cost one branch.
    #[inline]
    pub fn tick(&mut self) -> Option<Interrupt> {
        if !self.armed {
            return None;
        }
        self.countdown -= 1;
        if self.countdown != 0 {
            return None;
        }
        self.countdown = self.interval;
        self.check_now()
    }

    /// The real check, paid once per interval (or explicitly before
    /// starting expensive non-tickable work). Cancellation wins ties so a
    /// cancelled-then-expired request reports the caller's action.
    #[cold]
    pub fn check_now(&self) -> Option<Interrupt> {
        if let Some(cancel) = &self.cancel {
            if cancel.load(Ordering::Relaxed) {
                return Some(Interrupt::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(Interrupt::DeadlineExceeded);
            }
        }
        None
    }

    /// Whether this meter can ever interrupt (drivers may skip bookkeeping
    /// entirely for unarmed meters).
    pub fn is_armed(&self) -> bool {
        self.armed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unlimited_budget_never_interrupts() {
        let mut meter = WorkBudget::unlimited().meter();
        assert!(!meter.is_armed());
        for _ in 0..10_000 {
            assert_eq!(meter.tick(), None);
        }
    }

    #[test]
    fn expired_deadline_fires_within_one_interval() {
        let budget = WorkBudget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            cancel: None,
            check_interval: 64,
        };
        let mut meter = budget.meter();
        let mut ticks = 0u32;
        let interrupt = loop {
            ticks += 1;
            if let Some(i) = meter.tick() {
                break i;
            }
            assert!(ticks <= 64, "must fire within one check interval");
        };
        assert_eq!(interrupt, Interrupt::DeadlineExceeded);
        assert_eq!(ticks, 64);
    }

    #[test]
    fn cancel_token_fires_and_wins_over_deadline() {
        let cancel = Arc::new(AtomicBool::new(false));
        let budget = WorkBudget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            cancel: Some(cancel.clone()),
            check_interval: 8,
        };
        let mut meter = budget.meter();
        cancel.store(true, Ordering::Relaxed);
        let interrupt = (0..8).find_map(|_| meter.tick()).expect("fires");
        assert_eq!(interrupt, Interrupt::Cancelled);
    }

    #[test]
    fn future_deadline_does_not_fire() {
        let budget = WorkBudget {
            deadline: Some(Instant::now() + Duration::from_secs(3600)),
            cancel: None,
            check_interval: 4,
        };
        let mut meter = budget.meter();
        assert!(meter.is_armed());
        for _ in 0..100 {
            assert_eq!(meter.tick(), None);
        }
    }

    #[test]
    fn zero_interval_means_default() {
        assert_eq!(WorkBudget::unlimited().interval(), DEFAULT_CHECK_INTERVAL);
        let meter = WorkBudget::with_cancel(Arc::new(AtomicBool::new(false))).meter();
        assert!(meter.is_armed());
    }
}
