#![forbid(unsafe_code)]
#![deny(deprecated)]
//! Dijkstra semaphores over the `bloom-sim` deterministic simulator.
//!
//! Semaphores are the low-level baseline the paper's high-level mechanisms
//! (monitors, serializers, path expressions) are measured against: Bloom's
//! opening observation is that "the need for a mechanism that is higher
//! level than semaphores, and easier to use, is widely recognized".
//! This crate provides the classical constructs:
//!
//! * [`Semaphore`] — counting semaphore with a choice of [`Fairness`]:
//!   *strong* (FIFO, direct hand-off, no barging) or *weak* (a released
//!   permit may be stolen by a barger, so waiters can starve under an
//!   unfair scheduler — demonstrated in the test suite).
//! * [`BinarySemaphore`] — the two-state variant; `v` on an open semaphore
//!   is a programming error and panics, matching Dijkstra's definition.
//! * [`Lock`] — a mutual-exclusion convenience wrapper with a closure API.
//!
//! # Crash safety
//!
//! Bare `p`/`v` pairs have no crash story: a process that dies (fault-plan
//! kill or panic) between `p` and `v` takes the permit with it and later
//! entrants wedge — which is precisely the low-level-mechanism fragility
//! the crash-robustness experiment (R1) measures. The structured entry
//! points are safe: [`Semaphore::with_permit`] releases the permit during
//! the unwind, and [`Lock::with`]/[`Lock::try_with`] mark the lock
//! *poisoned* (surfaced as [`bloom_sim::Poisoned`]) and wake all waiters
//! so no survivor blocks forever. A process that dies while *blocked* in
//! `p` is removed from the wait queue by the queue's own unwind guard and
//! is never granted a permit.
//!
//! # Example
//!
//! ```
//! use bloom_sim::Sim;
//! use bloom_semaphore::Semaphore;
//! use std::sync::Arc;
//!
//! let mut sim = Sim::new();
//! let sem = Arc::new(Semaphore::strong("permits", 1));
//! for i in 0..2 {
//!     let sem = Arc::clone(&sem);
//!     sim.spawn(&format!("worker{i}"), move |ctx| {
//!         sem.p(ctx);
//!         ctx.emit("critical", &[i]);
//!         sem.v(ctx);
//!     });
//! }
//! let report = sim.run().unwrap();
//! assert_eq!(report.trace.count_user("critical"), 2);
//! ```

use bloom_sim::{Access, Ctx, Deadline, ObjId, Poisoned, WaitQueue};
use parking_lot::Mutex;

/// Outcome of a timed acquire ([`Semaphore::p_by`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryResult {
    /// A permit was obtained.
    Acquired,
    /// The timeout elapsed without obtaining a permit.
    TimedOut,
}

/// Wake-up discipline of a [`Semaphore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fairness {
    /// FIFO with direct hand-off: `v` transfers the permit straight to the
    /// longest-waiting process, so waiters are served in arrival order and
    /// cannot be overtaken (a "strong" or blocked-queue semaphore).
    Strong,
    /// `v` increments the count and wakes one waiter, but the woken process
    /// must re-contend: a process that calls `p` before the woken one is
    /// rescheduled can steal the permit (barging). Starvation is possible
    /// under an adversarial scheduler.
    Weak,
}

/// A counting semaphore.
#[derive(Debug)]
pub struct Semaphore {
    count: Mutex<u64>,
    queue: WaitQueue,
    fairness: Fairness,
    /// Identity of the count for the explorers' object-granular
    /// dependency tracking: two semaphores with different names never
    /// conflict footprint-wise.
    obj: ObjId,
}

impl Semaphore {
    /// Creates a semaphore with the given initial count and fairness.
    pub fn new(name: &str, initial: u64, fairness: Fairness) -> Self {
        Semaphore {
            count: Mutex::new(initial),
            queue: WaitQueue::new(name),
            fairness,
            obj: ObjId::new("semaphore", name),
        }
    }

    /// Creates a strong (FIFO hand-off) semaphore.
    pub fn strong(name: &str, initial: u64) -> Self {
        Semaphore::new(name, initial, Fairness::Strong)
    }

    /// Creates a weak (barging-prone) semaphore.
    pub fn weak(name: &str, initial: u64) -> Self {
        Semaphore::new(name, initial, Fairness::Weak)
    }

    /// Dijkstra's P operation: decrement the count, blocking while it is zero.
    pub fn p(&self, ctx: &Ctx) {
        self.acquire(ctx, None);
    }

    /// The one blocking P, waiting at most `timeout` ticks when that is
    /// `Some`.
    fn acquire(&self, ctx: &Ctx, timeout: Option<u64>) -> TryResult {
        match self.fairness {
            Fairness::Strong => {
                // The count is kernel-invisible shared state: mark the
                // quantum (see `Ctx::note_sync_obj`) before touching it.
                ctx.note_sync_obj_op(&self.obj, Access::Write);
                if self.try_p() || self.queue.wait_priority(ctx, 0, timeout) {
                    // Taken from the count, or handed to us directly by
                    // `v` without touching the count — the resumed quantum
                    // reads no shared state, so it is deliberately *not*
                    // marked: a bare stutter after a hand-off keeps an
                    // empty footprint and races with nothing.
                    TryResult::Acquired
                } else {
                    TryResult::TimedOut
                }
            }
            Fairness::Weak => {
                let until = timeout.map(|ticks| ctx.now().plus(ticks));
                loop {
                    // Each re-contention (including the first attempt and
                    // every post-wake retry) touches the shared count.
                    ctx.note_sync_obj_op(&self.obj, Access::Write);
                    if self.try_p() {
                        return TryResult::Acquired;
                    }
                    let left = match until {
                        None => None,
                        Some(until) => {
                            let now = ctx.now();
                            if now >= until {
                                return TryResult::TimedOut;
                            }
                            Some(until.0 - now.0)
                        }
                    };
                    if !self.queue.wait_priority(ctx, 0, left) {
                        // Timed out parked; the barging discipline grants
                        // one last look at the count.
                        return if self.try_p() {
                            TryResult::Acquired
                        } else {
                            TryResult::TimedOut
                        };
                    }
                    // Re-contend: a barger may have taken the permit
                    // between our wake-up and our next dispatch.
                }
            }
        }
    }

    /// Non-blocking P: takes a permit if one is immediately available.
    ///
    /// **Explore-unsafe**: records no footprint. The count is shared
    /// state, and taking (or failing to take) a permit both mutates and
    /// branches on it — a solution calling this bare form inside an
    /// explored schedule is invisible to the object-granular prune, so
    /// the explorer may skip a sibling reordering that would change the
    /// outcome (see `tests/prune_soundness.rs`). Solution code must use
    /// [`Semaphore::try_p_ctx`]; this form exists for test assertions and
    /// post-run inspection only.
    pub fn try_p(&self) -> bool {
        let mut count = self.count.lock();
        if *count > 0 {
            *count -= 1;
            true
        } else {
            false
        }
    }

    /// Instrumented [`Semaphore::try_p`]: records the count access in the
    /// quantum's footprint (a write — the attempt may decrement, and the
    /// failure branch is invalidated by any concurrent `v`).
    pub fn try_p_ctx(&self, ctx: &Ctx) -> bool {
        ctx.note_sync_obj_op(&self.obj, Access::Write);
        self.try_p()
    }

    /// Timed P: blocks until the [`Deadline`] — relative
    /// (`u64`/`Duration` ticks) or absolute ([`Deadline::at`],
    /// [`Ctx::deadline_after`]) — expires.
    ///
    /// An already-expired deadline degenerates to a [`Semaphore::try_p`]
    /// that never parks, so retry loops can pass a fixed absolute deadline
    /// through repeated acquire attempts without re-computing remaining
    /// ticks.
    ///
    /// The timeout-vs-wake race (see [`WaitQueue::park_enqueued`]) cannot
    /// lose a permit in either direction: a `v` that skips a waiter whose
    /// timer already fired falls back to incrementing the count, and a
    /// hand-off that wins the race simply delivers the permit. On a strong
    /// semaphore a timed-out waiter reports [`TryResult::TimedOut`] even
    /// if a permit became free in the same instant (hand-off order is
    /// king); a weak waiter re-contends one final time before giving up.
    pub fn p_by(&self, ctx: &Ctx, deadline: impl Into<Deadline>) -> TryResult {
        let Some(ticks) = ctx.remaining(deadline) else {
            // Expired: one permit check, no parking.
            return if self.try_p_ctx(ctx) {
                TryResult::Acquired
            } else {
                TryResult::TimedOut
            };
        };
        self.acquire(ctx, Some(ticks))
    }

    /// Runs `f` with a permit held, releasing it even if `f` unwinds
    /// (fault-plan kill or panic): the crash-safe alternative to a bare
    /// `p`/`v` pair.
    pub fn with_permit<R>(&self, ctx: &Ctx, f: impl FnOnce() -> R) -> R {
        self.p(ctx);
        let cleanup = ReleaseOnUnwind { sem: self, ctx };
        let r = f();
        std::mem::forget(cleanup);
        self.v(ctx);
        r
    }

    /// Dijkstra's V operation: release a permit.
    pub fn v(&self, ctx: &Ctx) {
        ctx.note_sync_obj_op(&self.obj, Access::Write);
        match self.fairness {
            Fairness::Strong => {
                // Direct hand-off: if anyone waits, the permit never becomes
                // visible to bargers.
                if self.queue.wake_one(ctx).is_none() {
                    *self.count.lock() += 1;
                }
            }
            Fairness::Weak => {
                *self.count.lock() += 1;
                self.queue.wake_one(ctx);
            }
        }
    }

    /// Current count (permits immediately available): a probe for test
    /// assertions and post-run inspection. It records no footprint, so a
    /// process must not branch on it during an explored schedule (see
    /// [`Semaphore::try_p`]).
    pub fn value(&self) -> u64 {
        *self.count.lock()
    }

    /// Number of processes blocked in [`Semaphore::p`]: a probe for test
    /// assertions and post-run inspection. It records no footprint, so a
    /// process must not branch on it during an explored schedule (see
    /// [`Semaphore::try_p`]).
    pub fn waiting(&self) -> usize {
        self.queue.len()
    }

    /// The configured fairness discipline.
    pub fn fairness(&self) -> Fairness {
        self.fairness
    }

    /// The diagnostic name this semaphore was created with.
    pub fn name(&self) -> &str {
        self.queue.name()
    }
}

/// Returns the permit of a [`Semaphore::with_permit`] section whose body
/// unwound. Disarmed with `mem::forget` on the normal path.
struct ReleaseOnUnwind<'a> {
    sem: &'a Semaphore,
    ctx: &'a Ctx,
}

impl Drop for ReleaseOnUnwind<'_> {
    fn drop(&mut self) {
        // Shutdown cancellations unwind concurrently; kernel state and the
        // trace are off-limits then, and nobody is left to need the permit.
        if self.ctx.cancelling() {
            return;
        }
        self.sem.v(self.ctx);
    }
}

/// A binary semaphore: the count is only ever 0 or 1.
///
/// Following Dijkstra, `v` on an already-open binary semaphore is a
/// programming error rather than a no-op, and panics.
#[derive(Debug)]
pub struct BinarySemaphore {
    inner: Semaphore,
}

impl BinarySemaphore {
    /// Creates a binary semaphore; `open` selects the initial state.
    pub fn new(name: &str, open: bool) -> Self {
        BinarySemaphore {
            inner: Semaphore::strong(name, u64::from(open)),
        }
    }

    /// P: close the semaphore, blocking while it is closed.
    pub fn p(&self, ctx: &Ctx) {
        self.inner.p(ctx);
    }

    /// V: open the semaphore.
    ///
    /// # Panics
    ///
    /// Panics if the semaphore is already open (count would exceed 1).
    pub fn v(&self, ctx: &Ctx) {
        assert!(
            self.inner.value() == 0,
            "V on an already-open binary semaphore \"{}\"",
            self.inner.name()
        );
        self.inner.v(ctx);
    }

    /// Whether the semaphore is currently open: a probe for test
    /// assertions and post-run inspection. It records no footprint, so a
    /// process must not branch on it during an explored schedule (see
    /// [`Semaphore::try_p`]).
    pub fn is_open(&self) -> bool {
        self.inner.value() == 1
    }
}

/// Mutual exclusion built from a strong binary semaphore, with a closure
/// API that makes forgetting the release impossible.
///
/// # Crash safety
///
/// If the body of a [`Lock::with`]/[`Lock::try_with`] section unwinds
/// (fault-plan kill or panic), the lock is marked *poisoned* — the
/// protected state may be mid-update — and released, so waiters wake
/// instead of wedging. Subsequent [`Lock::try_with`] calls observe
/// [`Poisoned`]; plain [`Lock::with`] panics on a poisoned lock, keeping
/// the failure loud. The bare [`Lock::acquire`]/[`Lock::release`] pair
/// has no crash protection, exactly like a raw semaphore.
#[derive(Debug)]
pub struct Lock {
    sem: Semaphore,
    poisoned: Mutex<Option<Poisoned>>,
}

impl Lock {
    /// Creates an open lock.
    pub fn new(name: &str) -> Self {
        Lock {
            sem: Semaphore::strong(name, 1),
            poisoned: Mutex::new(None),
        }
    }

    /// Runs `f` with the lock held.
    ///
    /// # Panics
    ///
    /// Panics if the lock is poisoned (a previous holder died mid-section).
    /// Use [`Lock::try_with`] to handle poisoning as a value.
    pub fn with<R>(&self, ctx: &Ctx, f: impl FnOnce() -> R) -> R {
        match self.try_with(ctx, f) {
            Ok(r) => r,
            Err(p) => panic!("{p}"),
        }
    }

    /// Runs `f` with the lock held, surfacing poisoning instead of
    /// panicking. The body is not entered on a poisoned lock.
    pub fn try_with<R>(&self, ctx: &Ctx, f: impl FnOnce() -> R) -> Result<R, Poisoned> {
        self.sem.p(ctx);
        // Unlike a bare strong-semaphore hand-off, the quantum resumed
        // here *does* read shared state (the poison flag), so it must be
        // marked even though `p` itself leaves the hand-off unmarked.
        ctx.note_sync_obj_op(&self.sem.obj, Access::Read);
        if let Some(p) = self.poisoned.lock().clone() {
            ctx.emit(&format!("poison-seen:{}", self.name()), &[]);
            self.sem.v(ctx);
            return Err(p);
        }
        let cleanup = PoisonOnUnwind { lock: self, ctx };
        let r = f();
        std::mem::forget(cleanup);
        self.sem.v(ctx);
        Ok(r)
    }

    /// Whether a previous holder died inside a closure section: a probe
    /// for test assertions and post-run inspection. It records no
    /// footprint, so a process must not branch on it during an explored
    /// schedule; solution code observes poisoning through
    /// [`Lock::try_with`]'s `Err`, which is recorded.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.lock().is_some()
    }

    /// The diagnostic name this lock was created with.
    pub fn name(&self) -> &str {
        self.sem.name()
    }

    /// Acquires the lock without the closure API; pair with [`Lock::release`].
    pub fn acquire(&self, ctx: &Ctx) {
        self.sem.p(ctx);
    }

    /// Releases the lock acquired with [`Lock::acquire`].
    pub fn release(&self, ctx: &Ctx) {
        self.sem.v(ctx);
    }
}

/// Poisons and releases a [`Lock`] whose closure section unwound.
struct PoisonOnUnwind<'a> {
    lock: &'a Lock,
    ctx: &'a Ctx,
}

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if self.ctx.cancelling() {
            return;
        }
        *self.lock.poisoned.lock() = Some(Poisoned {
            primitive: self.lock.name().to_string(),
            by: self.ctx.pid(),
        });
        self.ctx.emit(&format!("poison:{}", self.lock.name()), &[]);
        // Release so waiters wake and observe the poison instead of
        // blocking forever behind a dead holder.
        self.lock.sem.v(self.ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bloom_sim::{FifoPolicy, RandomPolicy, Sim};
    use std::sync::Arc;

    /// N workers around a 1-permit semaphore: the critical section is
    /// exclusive (checked via an occupancy counter).
    fn exclusion_scenario(fairness: Fairness) {
        let mut sim = Sim::new();
        let sem = Arc::new(Semaphore::new("cs", 1, fairness));
        let occupancy = Arc::new(Mutex::new((0u32, 0u32))); // (current, max)
        for i in 0..5 {
            let sem = Arc::clone(&sem);
            let occ = Arc::clone(&occupancy);
            sim.spawn(&format!("w{i}"), move |ctx| {
                for _ in 0..4 {
                    sem.p(ctx);
                    {
                        let mut o = occ.lock();
                        o.0 += 1;
                        o.1 = o.1.max(o.0);
                    }
                    ctx.yield_now(); // stretch the critical section
                    occ.lock().0 -= 1;
                    sem.v(ctx);
                }
            });
        }
        sim.run().expect("no deadlock");
        assert_eq!(occupancy.lock().1, 1, "mutual exclusion held");
    }

    #[test]
    fn strong_semaphore_enforces_exclusion() {
        exclusion_scenario(Fairness::Strong);
    }

    #[test]
    fn weak_semaphore_enforces_exclusion() {
        exclusion_scenario(Fairness::Weak);
    }

    #[test]
    fn initial_count_admits_that_many() {
        let mut sim = Sim::new();
        let sem = Arc::new(Semaphore::strong("pool", 3));
        let peak = Arc::new(Mutex::new((0u32, 0u32)));
        for i in 0..6 {
            let sem = Arc::clone(&sem);
            let peak = Arc::clone(&peak);
            sim.spawn(&format!("w{i}"), move |ctx| {
                sem.p(ctx);
                {
                    let mut p = peak.lock();
                    p.0 += 1;
                    p.1 = p.1.max(p.0);
                }
                ctx.yield_now();
                ctx.yield_now();
                peak.lock().0 -= 1;
                sem.v(ctx);
            });
        }
        sim.run().unwrap();
        let (_, max) = *peak.lock();
        assert_eq!(max, 3, "exactly the pool size runs concurrently");
    }

    #[test]
    fn strong_serves_in_fifo_order() {
        let mut sim = Sim::new();
        let sem = Arc::new(Semaphore::strong("s", 0));
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..4 {
            let sem = Arc::clone(&sem);
            let order = Arc::clone(&order);
            sim.spawn(&format!("w{i}"), move |ctx| {
                sem.p(ctx);
                order.lock().push(i);
            });
        }
        let sem2 = Arc::clone(&sem);
        sim.spawn("releaser", move |ctx| {
            for _ in 0..5 {
                ctx.yield_now();
            }
            for _ in 0..4 {
                sem2.v(ctx);
            }
        });
        sim.run().unwrap();
        assert_eq!(*order.lock(), vec![0, 1, 2, 3]);
    }

    /// The classical weak/strong distinction, under a *fair* (FIFO)
    /// scheduler. A cycler holds the permit and repeatedly does `v(); p()`
    /// without yielding in between: with a weak semaphore each `v` wakes the
    /// victim but the cycler's very next `p` steals the permit back before
    /// the victim is dispatched, so the victim re-parks every cycle
    /// (barging starvation). A strong semaphore hands the permit directly
    /// to the victim on the first `v`, so the victim enters immediately.
    #[test]
    fn weak_semaphore_allows_barging_starvation() {
        const CYCLES: u64 = 100;
        let run = |fairness: Fairness| -> u64 {
            let mut sim = Sim::new();
            let sem = Arc::new(Semaphore::new("s", 1, fairness));
            let cycle = Arc::new(Mutex::new(0u64));
            let entered_at = Arc::new(Mutex::new(u64::MAX));

            let sem1 = Arc::clone(&sem);
            let cycle1 = Arc::clone(&cycle);
            sim.spawn("cycler", move |ctx| {
                sem1.p(ctx); // take the permit before the victim arrives
                ctx.yield_now(); // let the victim block
                for _ in 0..CYCLES {
                    *cycle1.lock() += 1;
                    sem1.v(ctx);
                    sem1.p(ctx); // barge (weak) or block behind victim (strong)
                    ctx.yield_now();
                }
                sem1.v(ctx);
            });

            let sem2 = Arc::clone(&sem);
            let cycle2 = Arc::clone(&cycle);
            let entered2 = Arc::clone(&entered_at);
            sim.spawn("victim", move |ctx| {
                sem2.p(ctx);
                *entered2.lock() = *cycle2.lock();
                sem2.v(ctx);
            });

            sim.run().expect("no deadlock");
            let at = *entered_at.lock();
            at
        };
        assert!(
            run(Fairness::Strong) <= 1,
            "strong semaphore hands the victim the permit on the first v"
        );
        assert_eq!(
            run(Fairness::Weak),
            CYCLES,
            "weak semaphore starves the victim until the cycler stops"
        );
    }

    #[test]
    fn try_p_never_blocks() {
        let mut sim = Sim::new();
        let sem = Arc::new(Semaphore::strong("s", 1));
        let sem2 = Arc::clone(&sem);
        sim.spawn("t", move |_ctx| {
            assert!(sem2.try_p());
            assert!(!sem2.try_p());
            assert_eq!(sem2.value(), 0);
        });
        sim.run().unwrap();
    }

    #[test]
    fn binary_semaphore_double_v_panics() {
        let mut sim = Sim::new();
        let b = Arc::new(BinarySemaphore::new("b", true));
        let b2 = Arc::clone(&b);
        sim.spawn("offender", move |ctx| b2.v(ctx));
        let err = sim.run().expect_err("double V must fail");
        assert!(err.to_string().contains("already-open"));
    }

    #[test]
    fn binary_semaphore_round_trip() {
        let mut sim = Sim::new();
        let b = Arc::new(BinarySemaphore::new("b", true));
        let b2 = Arc::clone(&b);
        sim.spawn("t", move |ctx| {
            assert!(b2.is_open());
            b2.p(ctx);
            assert!(!b2.is_open());
            b2.v(ctx);
            assert!(b2.is_open());
        });
        sim.run().unwrap();
    }

    #[test]
    fn lock_closure_sections_are_atomic() {
        let mut sim = Sim::new();
        let lock = Arc::new(Lock::new("l"));
        let inside = Arc::new(Mutex::new((0u32, 0u32)));
        for i in 0..4 {
            let lock = Arc::clone(&lock);
            let inside = Arc::clone(&inside);
            sim.spawn(&format!("w{i}"), move |ctx| {
                for _ in 0..5 {
                    lock.with(ctx, || {
                        let mut o = inside.lock();
                        o.0 += 1;
                        o.1 = o.1.max(o.0);
                        o.0 -= 1;
                    });
                    ctx.yield_now();
                }
            });
        }
        sim.run().unwrap();
        assert_eq!(inside.lock().1, 1);
    }

    #[test]
    fn counting_invariant_under_random_schedules() {
        for seed in 0..10 {
            let mut sim = Sim::new();
            sim.set_policy(RandomPolicy::new(seed));
            let sem = Arc::new(Semaphore::strong("s", 2));
            let occ = Arc::new(Mutex::new((0i64, 0i64)));
            for i in 0..6 {
                let sem = Arc::clone(&sem);
                let occ = Arc::clone(&occ);
                sim.spawn(&format!("w{i}"), move |ctx| {
                    for _ in 0..5 {
                        sem.p(ctx);
                        {
                            let mut o = occ.lock();
                            o.0 += 1;
                            o.1 = o.1.max(o.0);
                        }
                        ctx.yield_now();
                        occ.lock().0 -= 1;
                        sem.v(ctx);
                    }
                });
            }
            sim.run().unwrap();
            let (current, max) = *occ.lock();
            assert_eq!(current, 0);
            assert!(max <= 2, "seed {seed}: occupancy {max} exceeded permits");
        }
    }

    /// Withdrawal: a timed-out `p_by` leaves no residue — the holder
    /// still releases to an empty queue, a later retry succeeds, and the
    /// count balances. Exercised on both fairness disciplines.
    #[test]
    fn p_by_withdraws_cleanly_then_retries() {
        for fairness in [Fairness::Strong, Fairness::Weak] {
            let mut sim = Sim::new();
            let sem = Arc::new(Semaphore::new("s", 1, fairness));
            let outcome = Arc::new(Mutex::new(Vec::new()));

            let sem1 = Arc::clone(&sem);
            sim.spawn("holder", move |ctx| {
                sem1.p(ctx);
                ctx.sleep(10); // hold well past the requester's deadline
                sem1.v(ctx);
            });

            let sem2 = Arc::clone(&sem);
            let out2 = Arc::clone(&outcome);
            sim.spawn("requester", move |ctx| {
                let deadline = ctx.deadline_after(3);
                let first = sem2.p_by(ctx, deadline);
                out2.lock().push(first);
                // Expired deadline: degenerates to try_p, no parking.
                let again = sem2.p_by(ctx, deadline);
                out2.lock().push(again);
                assert_eq!(sem2.waiting(), 0, "withdrawal left no registration");
                // An untimed retry succeeds once the holder releases.
                sem2.p(ctx);
                sem2.v(ctx);
            });

            sim.run().expect("no deadlock");
            assert_eq!(
                *outcome.lock(),
                vec![TryResult::TimedOut, TryResult::TimedOut],
                "{fairness:?}"
            );
            assert_eq!(sem.value(), 1, "count balanced after timeout + retry");
        }
    }

    #[test]
    fn fifo_policy_keeps_weak_semaphore_live() {
        let mut sim = Sim::new();
        sim.set_policy(FifoPolicy);
        let sem = Arc::new(Semaphore::weak("s", 1));
        let done = Arc::new(Mutex::new(0));
        for i in 0..3 {
            let sem = Arc::clone(&sem);
            let done = Arc::clone(&done);
            sim.spawn(&format!("w{i}"), move |ctx| {
                for _ in 0..10 {
                    sem.p(ctx);
                    ctx.yield_now();
                    sem.v(ctx);
                }
                *done.lock() += 1;
            });
        }
        sim.run().unwrap();
        assert_eq!(*done.lock(), 3);
    }
}
