//! Real-thread counting semaphores, binary semaphores, and the poisoning
//! [`RtLock`] — mirrors `bloom-semaphore` operation for operation.
//!
//! The simulator crate gets check-then-park atomicity for free from the
//! one-running-process invariant; here each semaphore is one explicit
//! `Mutex<SemState>` + broadcast `Condvar`. The strong discipline keeps
//! its no-barging guarantee by *direct hand-off*: `v` moves the permit
//! into a per-waiter `granted` set rather than back into the count, so a
//! barger calling `try_p` between the hand-off and the waiter's wake-up
//! finds nothing to steal — the same property the simulator's
//! `WaitQueue::wake_one` hand-off provides.

use crate::runtime::RtCtx;
use crate::unlock_then_wake;
use bloom_sim::{Deadline, Poisoned};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashSet, VecDeque};

/// Outcome of a timed acquire ([`RtSemaphore::p_by`]); mirrors
/// `bloom_semaphore::TryResult`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryResult {
    /// A permit was obtained.
    Acquired,
    /// The timeout elapsed without obtaining a permit.
    TimedOut,
}

/// Wake-up discipline; mirrors `bloom_semaphore::Fairness`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fairness {
    Strong,
    Weak,
}

struct SemState {
    count: u64,
    /// Arrival-ordered tickets of parked strong-mode waiters.
    queue: VecDeque<u64>,
    /// Tickets whose permit has been handed off but not yet collected.
    granted: HashSet<u64>,
}

/// A counting semaphore on OS threads.
pub struct RtSemaphore {
    state: Mutex<SemState>,
    cv: Condvar,
    fairness: Fairness,
    name: String,
}

impl RtSemaphore {
    fn new(name: &str, initial: u64, fairness: Fairness) -> Self {
        RtSemaphore {
            state: Mutex::new(SemState {
                count: initial,
                queue: VecDeque::new(),
                granted: HashSet::new(),
            }),
            cv: Condvar::new(),
            fairness,
            name: name.to_string(),
        }
    }

    /// A strong (FIFO direct-hand-off, no barging) semaphore.
    pub fn strong(name: &str, initial: u64) -> Self {
        RtSemaphore::new(name, initial, Fairness::Strong)
    }

    /// A weak (re-contention, barging-prone) semaphore.
    pub fn weak(name: &str, initial: u64) -> Self {
        RtSemaphore::new(name, initial, Fairness::Weak)
    }

    /// Dijkstra's P: decrement the count, blocking while it is zero.
    pub fn p(&self, ctx: &RtCtx) {
        ctx.chaos();
        let mut s = self.state.lock();
        match self.fairness {
            Fairness::Strong => {
                if s.count > 0 {
                    s.count -= 1;
                    return;
                }
                let ticket = ctx.fresh_ticket();
                s.queue.push_back(ticket);
                while !s.granted.remove(&ticket) {
                    self.cv.wait(&mut s);
                }
            }
            Fairness::Weak => {
                while s.count == 0 {
                    self.cv.wait(&mut s);
                }
                s.count -= 1;
            }
        }
    }

    /// Non-blocking P. Takes `ctx` (unlike the simulator's bare `try_p`)
    /// so the attempt is an instrumented chaos point.
    pub fn try_p(&self, ctx: &RtCtx) -> bool {
        ctx.chaos();
        let mut s = self.state.lock();
        if s.count > 0 {
            s.count -= 1;
            true
        } else {
            false
        }
    }

    /// Timed P against a virtual-tick [`Deadline`], mapped to a bounded
    /// wall-clock budget by [`RtCtx::wall_budget`].
    ///
    /// One behavioral delta from the simulator, sound in the envelope
    /// sense: a strong waiter whose budget expires in the same instant a
    /// hand-off arrives *accepts* the permit (the grant is already
    /// recorded under the mutex; refusing it would have to re-route a
    /// permit the releaser believes delivered). The simulator reports
    /// `TimedOut` on that knife-edge; both outcomes are legal runs.
    pub fn p_by(&self, ctx: &RtCtx, deadline: impl Into<Deadline>) -> TryResult {
        ctx.chaos();
        let Some(budget) = ctx.wall_budget(deadline) else {
            return if self.try_p(ctx) {
                TryResult::Acquired
            } else {
                TryResult::TimedOut
            };
        };
        let start = std::time::Instant::now();
        let mut s = self.state.lock();
        match self.fairness {
            Fairness::Strong => {
                if s.count > 0 {
                    s.count -= 1;
                    return TryResult::Acquired;
                }
                let ticket = ctx.fresh_ticket();
                s.queue.push_back(ticket);
                loop {
                    if s.granted.remove(&ticket) {
                        return TryResult::Acquired;
                    }
                    let elapsed = start.elapsed();
                    if elapsed >= budget {
                        // Withdraw. The grant/timeout race is settled here
                        // under the mutex: either our ticket is still in
                        // the queue (no grant happened — remove it), or it
                        // was granted while we raced for the lock (take it).
                        if s.granted.remove(&ticket) {
                            return TryResult::Acquired;
                        }
                        s.queue.retain(|&t| t != ticket);
                        return TryResult::TimedOut;
                    }
                    self.cv.wait_for(&mut s, budget - elapsed);
                }
            }
            Fairness::Weak => loop {
                if s.count > 0 {
                    s.count -= 1;
                    return TryResult::Acquired;
                }
                let elapsed = start.elapsed();
                if elapsed >= budget {
                    return TryResult::TimedOut;
                }
                self.cv.wait_for(&mut s, budget - elapsed);
            },
        }
    }

    /// Runs `f` with a permit held, releasing it even if `f` unwinds —
    /// the crash-safe structured entry point.
    pub fn with_permit<R>(&self, ctx: &RtCtx, f: impl FnOnce() -> R) -> R {
        self.p(ctx);
        let cleanup = ReleaseOnUnwind { sem: self, ctx };
        let r = f();
        std::mem::forget(cleanup);
        self.v(ctx);
        r
    }

    /// Dijkstra's V: release a permit.
    pub fn v(&self, ctx: &RtCtx) {
        // Jitter-only: a release must be kill-atomic (see
        // [`RtCtx::jitter`]) — dying here would strand the permit with no
        // crash guard left to poison it, a coordinate the simulator's
        // kills cannot express.
        ctx.jitter();
        let mut s = self.state.lock();
        let wake = match self.fairness {
            Fairness::Strong => {
                if let Some(ticket) = s.queue.pop_front() {
                    // Direct hand-off: the permit never becomes visible
                    // to bargers.
                    s.granted.insert(ticket);
                    true
                } else {
                    s.count += 1;
                    false
                }
            }
            Fairness::Weak => {
                s.count += 1;
                true
            }
        };
        unlock_then_wake(s, &self.cv, wake);
    }

    /// Permits immediately available.
    pub fn value(&self) -> u64 {
        self.state.lock().count
    }

    /// Parked strong-mode waiters (weak waiters re-contend and are not
    /// individually registered).
    pub fn waiting(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// The diagnostic name this semaphore was created with.
    pub fn name(&self) -> &str {
        &self.name
    }
}

struct ReleaseOnUnwind<'a> {
    sem: &'a RtSemaphore,
    ctx: &'a RtCtx,
}

impl Drop for ReleaseOnUnwind<'_> {
    fn drop(&mut self) {
        if self.ctx.cancelling() {
            return;
        }
        self.sem.v(self.ctx);
    }
}

/// Mutual exclusion with poisoning, mirroring `bloom_semaphore::Lock`:
/// a body that unwinds marks the lock poisoned (first writer wins),
/// emits `poison:<name>`, and releases so waiters wake; later entrants
/// observe `poison-seen:<name>` and get [`Poisoned`] back.
pub struct RtLock {
    sem: RtSemaphore,
    poisoned: Mutex<Option<Poisoned>>,
}

impl RtLock {
    /// Creates an open lock.
    pub fn new(name: &str) -> Self {
        RtLock {
            sem: RtSemaphore::strong(name, 1),
            poisoned: Mutex::new(None),
        }
    }

    /// Runs `f` with the lock held; panics if the lock is poisoned.
    pub fn with<R>(&self, ctx: &RtCtx, f: impl FnOnce() -> R) -> R {
        match self.try_with(ctx, f) {
            Ok(r) => r,
            Err(p) => panic!("{p}"),
        }
    }

    /// Runs `f` with the lock held, surfacing poisoning as a value; the
    /// body is not entered on a poisoned lock.
    pub fn try_with<R>(&self, ctx: &RtCtx, f: impl FnOnce() -> R) -> Result<R, Poisoned> {
        self.sem.p(ctx);
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

    /// Whether a previous holder died inside a closure section.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.lock().is_some()
    }

    /// The diagnostic name this lock was created with.
    pub fn name(&self) -> &str {
        self.sem.name()
    }
}

struct PoisonOnUnwind<'a> {
    lock: &'a RtLock,
    ctx: &'a RtCtx,
}

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if self.ctx.cancelling() {
            return;
        }
        {
            // First writer wins: a waiter that entered, saw no poison,
            // and then unwound must not overwrite the original culprit.
            let mut p = self.lock.poisoned.lock();
            if p.is_none() {
                *p = Some(Poisoned {
                    primitive: self.lock.name().to_string(),
                    by: self.ctx.pid(),
                });
            }
            // Emit while still holding the poison lock: observers read the
            // flag under this lock, so logging first guarantees `poison:`
            // precedes every `poison-seen:` in the trace.
            self.ctx.emit(&format!("poison:{}", self.lock.name()), &[]);
        }
        self.lock.sem.v(self.ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{KillPoint, RtConfig, RtSim};
    use std::sync::Arc;

    #[test]
    fn strong_semaphore_enforces_exclusion_on_real_threads() {
        let mut rt = RtSim::new();
        let sem = Arc::new(RtSemaphore::strong("cs", 1));
        let occ = Arc::new(Mutex::new((0u32, 0u32)));
        for i in 0..4 {
            let sem = Arc::clone(&sem);
            let occ = Arc::clone(&occ);
            rt.spawn(&format!("w{i}"), move |ctx| {
                for _ in 0..25 {
                    sem.p(ctx);
                    {
                        let mut o = occ.lock();
                        o.0 += 1;
                        o.1 = o.1.max(o.0);
                    }
                    ctx.chaos();
                    occ.lock().0 -= 1;
                    sem.v(ctx);
                }
            });
        }
        rt.run().expect("no wedge");
        assert_eq!(occ.lock().1, 1, "mutual exclusion held");
    }

    #[test]
    fn weak_semaphore_enforces_exclusion_on_real_threads() {
        let mut rt = RtSim::new();
        let sem = Arc::new(RtSemaphore::weak("cs", 2));
        let occ = Arc::new(Mutex::new((0u32, 0u32)));
        for i in 0..5 {
            let sem = Arc::clone(&sem);
            let occ = Arc::clone(&occ);
            rt.spawn(&format!("w{i}"), move |ctx| {
                for _ in 0..25 {
                    sem.p(ctx);
                    {
                        let mut o = occ.lock();
                        o.0 += 1;
                        o.1 = o.1.max(o.0);
                    }
                    occ.lock().0 -= 1;
                    sem.v(ctx);
                }
            });
        }
        rt.run().expect("no wedge");
        assert!(occ.lock().1 <= 2, "permit bound held");
    }

    #[test]
    fn strong_hand_off_defeats_a_barger() {
        // Waiter parks on an empty semaphore; releaser v's; a barger
        // hammering try_p must never intercept the handed-off permit.
        let mut rt = RtSim::new();
        let sem = Arc::new(RtSemaphore::strong("s", 0));
        let got = Arc::new(Mutex::new(Vec::new()));

        let sem1 = Arc::clone(&sem);
        let got1 = Arc::clone(&got);
        rt.spawn("waiter", move |ctx| {
            sem1.p(ctx);
            got1.lock().push("waiter");
        });

        let sem2 = Arc::clone(&sem);
        rt.spawn("releaser", move |ctx| {
            // Release only once the waiter is queued: a `v` before that
            // would raise the count, which the barger may take.
            while sem2.waiting() < 1 {
                std::thread::yield_now();
            }
            sem2.v(ctx);
        });

        let sem3 = Arc::clone(&sem);
        let got3 = Arc::clone(&got);
        rt.spawn("barger", move |ctx| {
            let deadline = std::time::Instant::now() + std::time::Duration::from_millis(60);
            while std::time::Instant::now() < deadline {
                if sem3.try_p(ctx) {
                    got3.lock().push("barger");
                    sem3.v(ctx);
                }
            }
        });

        rt.run().expect("no wedge");
        let got = got.lock();
        assert!(got.contains(&"waiter"), "hand-off reached the waiter");
        assert!(!got.contains(&"barger"), "barger never saw the permit");
    }

    #[test]
    fn p_by_times_out_and_withdraws() {
        let mut rt = RtSim::new();
        let sem = Arc::new(RtSemaphore::strong("s", 0));
        let sem1 = Arc::clone(&sem);
        rt.spawn("requester", move |ctx| {
            assert_eq!(sem1.p_by(ctx, 5u64), TryResult::TimedOut);
            assert_eq!(sem1.waiting(), 0, "withdrawal left no registration");
        });
        rt.run().expect("no wedge");
        assert_eq!(sem.value(), 0, "count balanced");
    }

    #[test]
    fn p_by_acquires_when_released_in_time() {
        let mut rt = RtSim::new();
        let sem = Arc::new(RtSemaphore::strong("s", 0));
        let sem1 = Arc::clone(&sem);
        rt.spawn("requester", move |ctx| {
            // 5000 ticks * 200µs = 1s budget; release comes in ~10ms.
            assert_eq!(sem1.p_by(ctx, 5000u64), TryResult::Acquired);
        });
        let sem2 = Arc::clone(&sem);
        rt.spawn("releaser", move |ctx| {
            std::thread::sleep(std::time::Duration::from_millis(10));
            sem2.v(ctx);
        });
        rt.run().expect("no wedge");
    }

    #[test]
    fn with_permit_releases_on_kill() {
        let mut rt = RtSim::with_config(RtConfig {
            kill: Some(KillPoint {
                process: "victim".into(),
                at_point: 2, // the chaos point inside the section body
            }),
            ..RtConfig::default()
        });
        let sem = Arc::new(RtSemaphore::strong("s", 1));
        let sem1 = Arc::clone(&sem);
        rt.spawn("victim", move |ctx| {
            // Point 1 is p()'s entry; point 2 (fatal) is ours.
            sem1.with_permit(ctx, || ctx.chaos());
        });
        let sem2 = Arc::clone(&sem);
        rt.spawn("survivor", move |ctx| {
            sem2.p(ctx); // must not wedge behind the dead holder
            sem2.v(ctx);
        });
        let report = rt.run().expect("kill is contained");
        assert_eq!(report.processes[0].status, bloom_sim::ProcessStatus::Killed);
    }

    #[test]
    fn lock_poisons_on_kill_and_survivors_see_it() {
        let mut rt = RtSim::with_config(RtConfig {
            kill: Some(KillPoint {
                process: "victim".into(),
                at_point: 2,
            }),
            ..RtConfig::default()
        });
        let lock = Arc::new(RtLock::new("l"));
        let lock1 = Arc::clone(&lock);
        rt.spawn("victim", move |ctx| {
            let _ = lock1.try_with(ctx, || ctx.chaos());
        });
        let lock2 = Arc::clone(&lock);
        rt.spawn("survivor", move |ctx| {
            // Retry until the victim's poison lands (it may not have
            // entered yet on the first attempt).
            loop {
                match lock2.try_with(ctx, || ()) {
                    Err(_) => break,
                    Ok(()) => std::thread::sleep(std::time::Duration::from_millis(1)),
                }
            }
        });
        let report = rt.run().expect("kill is contained");
        assert_eq!(report.trace.count_user("poison:l"), 1);
        assert!(report.trace.count_user("poison-seen:l") >= 1);
        assert!(lock.is_poisoned());
    }
}
