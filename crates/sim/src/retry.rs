//! Deterministic retry-with-backoff over the unified timed-wait API.
//!
//! Every mechanism in the workspace exposes its timed waits through one
//! `*_by(ctx, impl Into<Deadline>)` shape (PR 4). The natural client of
//! that shape is a retry loop — attempt with bounded patience, withdraw,
//! try again — and the R2 liveness scenarios each hand-roll one.
//! [`retry_with_backoff`] is that loop, made deterministic and
//! inspectable:
//!
//! * every attempt waits the same number of virtual ticks (no randomized
//!   jitter — determinism is load-bearing for exploration);
//! * attempts are bounded, so a retry loop can *give up*, which the R2
//!   classifier must see (`gave-up:` degrades the cell);
//! * every withdrawal and re-attempt is emitted in the standard liveness
//!   vocabulary (`timed-out:`/`retry:`/`gave-up:`), so
//!   `bloom_core::liveness` can classify a run that recovered only after
//!   retrying separately from one that was served outright.

use crate::ctx::Ctx;

/// A bounded virtual-tick backoff schedule: a number of attempts, each
/// with the same patience. A re-attempt is immediate, keeping the wait
/// episode open for the starvation watchdog exactly like the hand-rolled
/// R2 loops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Backoff {
    patience: u64,
    attempts: usize,
}

impl Backoff {
    /// `attempts` tries, each waiting `patience` virtual ticks.
    pub fn fixed(patience: u64, attempts: usize) -> Self {
        Backoff { patience, attempts }
    }
}

/// How a [`retry_with_backoff`] loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryOutcome {
    /// An attempt succeeded; `retries` counts the withdrawn attempts
    /// before it (0 = served outright, never timed out).
    Acquired {
        /// Withdrawn attempts before the successful one.
        retries: usize,
    },
    /// The schedule ran dry without an attempt succeeding; the loop
    /// emitted `gave-up:<label>` (an R2 *degrades* verdict).
    GaveUp {
        /// Total attempts made (the schedule length).
        attempts: usize,
    },
}

impl RetryOutcome {
    /// Whether the resource was acquired.
    pub fn acquired(&self) -> bool {
        matches!(self, RetryOutcome::Acquired { .. })
    }

    /// Whether at least one attempt was withdrawn before the outcome.
    pub fn retried(&self) -> bool {
        match self {
            RetryOutcome::Acquired { retries } => *retries > 0,
            RetryOutcome::GaveUp { .. } => true,
        }
    }
}

/// Runs `attempt` under `backoff`'s schedule until it returns `true` or
/// the attempts run dry.
///
/// `attempt` receives the patience (virtual ticks) for the current try
/// and returns whether the timed wait succeeded — the natural fit for
/// any `*_by` operation: `|ctx, p| sem.p_by(ctx, p) == TryResult::Acquired`,
/// `|ctx, p| queue.wait_by(ctx, p)`, `|ctx, p| chan.send_by(ctx, v, p).is_ok()`.
///
/// Emission contract (the R2 vocabulary, see `bloom_core::liveness`):
/// `timed-out:<label> [n]` after each withdrawn attempt `n`,
/// `retry:<label> [n]` before re-attempt `n`, and `gave-up:<label>` if the
/// schedule is exhausted. A first-try success emits nothing.
pub fn retry_with_backoff(
    ctx: &Ctx,
    label: &str,
    backoff: &Backoff,
    mut attempt: impl FnMut(&Ctx, u64) -> bool,
) -> RetryOutcome {
    for i in 0..backoff.attempts {
        if i > 0 {
            ctx.emit(&format!("retry:{label}"), &[i as i64]);
        }
        if attempt(ctx, backoff.patience) {
            return RetryOutcome::Acquired { retries: i };
        }
        ctx.emit(&format!("timed-out:{label}"), &[i as i64]);
    }
    ctx.emit(&format!("gave-up:{label}"), &[]);
    RetryOutcome::GaveUp {
        attempts: backoff.attempts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Sim;
    use crate::waitq::WaitQueue;
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[test]
    fn acquires_after_retry_with_the_full_paper_trail() {
        let mut sim = Sim::new();
        let q = Arc::new(WaitQueue::new("slot"));
        let outcome = Arc::new(Mutex::new(None));
        let (q2, out) = (Arc::clone(&q), Arc::clone(&outcome));
        sim.spawn("contender", move |ctx| {
            let r = retry_with_backoff(ctx, "slot", &Backoff::fixed(3, 5), |ctx, p| {
                q2.wait_by(ctx, p)
            });
            *out.lock() = Some(r);
        });
        let q3 = Arc::clone(&q);
        sim.spawn("releaser", move |ctx| {
            ctx.sleep(4); // outlast the first attempt
            q3.wake_one(ctx);
        });
        let report = sim.run().expect("clean run");
        let r = outcome.lock().expect("contender ran");
        assert!(r.acquired() && r.retried(), "acquired only after retrying");
        assert!(report.trace.count_user("timed-out:slot") >= 1);
        assert!(report.trace.count_user("retry:slot") >= 1);
        assert_eq!(report.trace.count_user("gave-up:slot"), 0);
    }

    #[test]
    fn gives_up_loudly_when_the_schedule_runs_dry() {
        let mut sim = Sim::new();
        let q = Arc::new(WaitQueue::new("slot"));
        let outcome = Arc::new(Mutex::new(None));
        let out = Arc::clone(&outcome);
        sim.spawn("contender", move |ctx| {
            let r = retry_with_backoff(ctx, "slot", &Backoff::fixed(2, 3), |ctx, p| {
                q.wait_by(ctx, p)
            });
            *out.lock() = Some(r);
        });
        let report = sim.run().expect("withdrawals prevent the wedge");
        assert_eq!(
            *outcome.lock(),
            Some(RetryOutcome::GaveUp { attempts: 3 }),
            "nobody ever wakes the queue"
        );
        assert_eq!(report.trace.count_user("timed-out:slot"), 3);
        assert_eq!(report.trace.count_user("gave-up:slot"), 1);
    }

    #[test]
    fn first_try_success_emits_nothing() {
        let mut sim = Sim::new();
        let outcome = Arc::new(Mutex::new(None));
        let out = Arc::clone(&outcome);
        sim.spawn("lucky", move |ctx| {
            let r = retry_with_backoff(ctx, "slot", &Backoff::fixed(5, 2), |_, _| true);
            *out.lock() = Some(r);
        });
        let report = sim.run().expect("clean run");
        assert_eq!(*outcome.lock(), Some(RetryOutcome::Acquired { retries: 0 }));
        assert_eq!(report.trace.user_events().count(), 0);
    }
}
