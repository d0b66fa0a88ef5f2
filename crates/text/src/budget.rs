//! Per-run cost budgets: a configuration ([`RunBudget`]) plus a cheap
//! atomic cancellation token ([`BudgetToken`]) threaded through the
//! pipeline's existing loop boundaries.
//!
//! The paper's repository workloads are adversarially heterogeneous: one
//! pathological column pair can dominate a batch run's wall-clock. A
//! [`RunBudget`] bounds what a single match → synthesize → join is allowed
//! to spend along three axes:
//!
//! * **wall-clock deadline** — checked cooperatively at loop boundaries
//!   (the matcher's row scan, the coverage scan's row loop, the selection
//!   heap's pop loop, the equi-join's per-transformation loop);
//! * **row cap / byte cap** — deterministic *admission* limits charged once
//!   with the pair's size, so an oversized pair is rejected identically on
//!   every run and at every thread count.
//!
//! A token trips exactly once: the first cause to exceed is recorded
//! atomically and every later [`BudgetToken::check`] — from any thread —
//! returns that same [`BudgetExceeded`] cause. Checks are a relaxed atomic
//! load plus (when a deadline is set) an `Instant::now()` call; with no
//! budget configured the pipeline passes `None` and pays nothing.
//!
//! Budget overruns are *graceful degradation*, not errors: the batch layer
//! converts them into `PairStatus::TimedOut` reports carrying whatever
//! phase metrics the pair completed, and the rest of the repository runs
//! unaffected.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Why a budget tripped (the first cause wins and is sticky).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetExceeded {
    /// The wall-clock deadline passed.
    Deadline,
    /// The charged byte total exceeded the byte cap.
    Bytes,
    /// The charged row total exceeded the row cap.
    Rows,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetExceeded::Deadline => write!(f, "wall-clock deadline exceeded"),
            BudgetExceeded::Bytes => write!(f, "byte cap exceeded"),
            BudgetExceeded::Rows => write!(f, "row cap exceeded"),
        }
    }
}

/// A per-pair cost budget: unset axes are unlimited. `Default` is fully
/// unlimited (a token that never trips).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunBudget {
    /// Wall-clock deadline measured from [`RunBudget::token`].
    pub deadline: Option<Duration>,
    /// Cap on charged bytes (the pair's total cell text at admission).
    pub max_bytes: Option<u64>,
    /// Cap on charged rows (source rows + target rows at admission).
    pub max_rows: Option<u64>,
}

impl RunBudget {
    /// Builder-style wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Starts the budget's clock: returns a fresh token whose deadline (if
    /// any) is measured from *now* and whose charge counters are zero.
    pub fn token(&self) -> BudgetToken {
        BudgetToken {
            deadline: self.deadline.map(|d| Instant::now() + d),
            max_bytes: self.max_bytes.unwrap_or(u64::MAX),
            max_rows: self.max_rows.unwrap_or(u64::MAX),
            bytes: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            tripped: AtomicU8::new(TRIP_NONE),
        }
    }
}

const TRIP_NONE: u8 = 0;
const TRIP_DEADLINE: u8 = 1;
const TRIP_BYTES: u8 = 2;
const TRIP_ROWS: u8 = 3;

fn cause_of(code: u8) -> BudgetExceeded {
    match code {
        TRIP_DEADLINE => BudgetExceeded::Deadline,
        TRIP_BYTES => BudgetExceeded::Bytes,
        TRIP_ROWS => BudgetExceeded::Rows,
        _ => unreachable!("no cause recorded"),
    }
}

/// The live cancellation token of one [`RunBudget`] run (see the module
/// docs). Shared by reference across the pipeline's scoped worker threads;
/// all methods take `&self` and are thread-safe.
#[derive(Debug)]
pub struct BudgetToken {
    deadline: Option<Instant>,
    max_bytes: u64,
    max_rows: u64,
    bytes: AtomicU64,
    rows: AtomicU64,
    tripped: AtomicU8,
}

impl BudgetToken {
    /// Records the first cause to trip; returns the recorded cause (which
    /// may be an earlier racer's — every caller sees one consistent cause).
    fn trip(&self, code: u8) -> BudgetExceeded {
        match self.tripped.compare_exchange(TRIP_NONE, code, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => cause_of(code),
            Err(prev) => cause_of(prev),
        }
    }

    /// Charges `n` rows against the row cap, then runs [`Self::check`].
    pub fn charge_rows(&self, n: usize) -> Result<(), BudgetExceeded> {
        let total = self.rows.fetch_add(n as u64, Ordering::Relaxed).saturating_add(n as u64);
        if total > self.max_rows {
            return Err(self.trip(TRIP_ROWS));
        }
        self.check()
    }

    /// Charges `n` bytes against the byte cap, then runs [`Self::check`].
    pub fn charge_bytes(&self, n: usize) -> Result<(), BudgetExceeded> {
        let total = self.bytes.fetch_add(n as u64, Ordering::Relaxed).saturating_add(n as u64);
        if total > self.max_bytes {
            return Err(self.trip(TRIP_BYTES));
        }
        self.check()
    }

    /// The cooperative cancellation check: returns the recorded cause if
    /// the token already tripped, trips on a passed deadline, and is `Ok`
    /// otherwise. Cheap enough for per-row / per-round loop boundaries.
    pub fn check(&self) -> Result<(), BudgetExceeded> {
        match self.tripped.load(Ordering::Relaxed) {
            TRIP_NONE => {}
            code => return Err(cause_of(code)),
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(self.trip(TRIP_DEADLINE));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let token = RunBudget::default().token();
        assert_eq!(token.check(), Ok(()));
        assert_eq!(token.charge_rows(1_000_000), Ok(()));
        assert_eq!(token.charge_bytes(usize::MAX / 2), Ok(()));
        assert_eq!(token.check(), Ok(()));
    }

    #[test]
    fn row_cap_trips_deterministically_and_stays_tripped() {
        let token = RunBudget { max_rows: Some(10), ..RunBudget::default() }.token();
        assert_eq!(token.charge_rows(10), Ok(()));
        assert_eq!(token.charge_rows(1), Err(BudgetExceeded::Rows));
        // Sticky: every later check reports the same first cause.
        assert_eq!(token.check(), Err(BudgetExceeded::Rows));
        assert_eq!(token.charge_bytes(1), Err(BudgetExceeded::Rows));
        assert_eq!(token.check(), Err(BudgetExceeded::Rows));
    }

    #[test]
    fn byte_cap_trips() {
        let token = RunBudget { max_bytes: Some(100), ..RunBudget::default() }.token();
        assert_eq!(token.charge_bytes(64), Ok(()));
        assert_eq!(token.charge_bytes(64), Err(BudgetExceeded::Bytes));
    }

    #[test]
    fn zero_deadline_trips_at_first_check() {
        let token = RunBudget::default().with_deadline(Duration::ZERO).token();
        assert_eq!(token.check(), Err(BudgetExceeded::Deadline));
        assert_eq!(token.charge_rows(0), Err(BudgetExceeded::Deadline));
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let token = RunBudget::default().with_deadline(Duration::from_secs(3600)).token();
        assert_eq!(token.check(), Ok(()));
    }

    #[test]
    fn first_cause_wins_across_threads() {
        let budget = RunBudget { max_rows: Some(0), max_bytes: Some(0), ..RunBudget::default() };
        let token = budget.token();
        let causes: Vec<BudgetExceeded> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let token = &token;
                    scope.spawn(move || {
                        if i % 2 == 0 {
                            token.charge_rows(1).unwrap_err()
                        } else {
                            token.charge_bytes(1).unwrap_err()
                        }
                    })
                })
                .collect();
            // Test-only join: a panic here is the test failing, not a
            // user-data path.
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Whatever raced first, every thread saw the one recorded cause.
        assert!(causes.windows(2).all(|w| w[0] == w[1]), "{causes:?}");
    }
}
