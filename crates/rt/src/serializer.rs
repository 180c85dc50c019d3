//! Real-thread Atkinson–Hewitt serializers — mirrors `bloom-serializer`
//! operation for operation.
//!
//! One `Mutex<SerState<S>>` + broadcast `Condvar` holds possession, the
//! entry queue, every guarded internal queue, and the crowd memberships.
//! There is no explicit signal anywhere, exactly as in the paper's
//! construct: every possession release re-evaluates the guards of all
//! queue heads and hands possession to the oldest eligible candidate
//! (lowest arrival ticket across eligible queue heads and the entry
//! front). Guard predicates see a [`RtGuardView`] — protected state plus
//! queue lengths and crowd sizes — like the simulator's `GuardView`.
//!
//! The protected state lives in its own mutex (lock order: serializer
//! core, then state) so that crowd members, which run *outside*
//! possession, can be re-evaluated against it without racing the holder.

use crate::runtime::RtCtx;
use crate::{unlock_then_wake, wake_then_relock};
use bloom_sim::{Deadline, Pid, Poisoned};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{HashSet, VecDeque};

/// Handle to a named internal queue; mirrors `bloom_serializer::QueueId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtQueueId(usize);

/// Handle to a named crowd; mirrors `bloom_serializer::CrowdId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtCrowdId(usize);

/// Snapshot passed to guard predicates; mirrors
/// `bloom_serializer::GuardView`.
pub struct RtGuardView<'a, S> {
    state: &'a S,
    queue_lens: &'a [usize],
    crowd_lens: &'a [usize],
}

impl<S> RtGuardView<'_, S> {
    /// The protected state.
    pub fn state(&self) -> &S {
        self.state
    }

    /// Whether the crowd has no members.
    pub fn crowd_is_empty(&self, crowd: RtCrowdId) -> bool {
        self.crowd_lens[crowd.0] == 0
    }

    /// Number of processes in the crowd.
    pub fn crowd_len(&self, crowd: RtCrowdId) -> usize {
        self.crowd_lens[crowd.0]
    }

    /// Whether the queue has no waiters.
    pub fn queue_is_empty(&self, queue: RtQueueId) -> bool {
        self.queue_lens[queue.0] == 0
    }

    /// Number of waiters in the queue (including the process whose guard
    /// is being evaluated, for its own queue).
    pub fn queue_len(&self, queue: RtQueueId) -> usize {
        self.queue_lens[queue.0]
    }
}

type Guard<S> = Box<dyn Fn(&RtGuardView<'_, S>) -> bool + Send>;

struct SWaiter<S> {
    ticket: u64,
    priority: i64,
    guard: Guard<S>,
}

struct QueueState<S> {
    waiters: VecDeque<SWaiter<S>>,
}

struct CrowdState {
    members: Vec<Pid>,
}

struct SerState<S> {
    busy: bool,
    holder: Option<Pid>,
    poisoned: Option<Poisoned>,
    entry: VecDeque<u64>,
    queues: Vec<QueueState<S>>,
    crowds: Vec<CrowdState>,
    granted: HashSet<u64>,
    poison_woken: HashSet<u64>,
}

enum Wake {
    Granted,
    Poison(Poisoned),
}

/// An Atkinson–Hewitt serializer on OS threads; mirrors
/// `bloom_serializer::Serializer`.
pub struct RtSerializer<S> {
    name: String,
    core: Mutex<SerState<S>>,
    cv: Condvar,
    data: Mutex<S>,
}

impl<S: Send> RtSerializer<S> {
    /// Creates a serializer protecting `initial`.
    pub fn new(name: &str, initial: S) -> Self {
        RtSerializer {
            name: name.to_string(),
            core: Mutex::new(SerState {
                busy: false,
                holder: None,
                poisoned: None,
                entry: VecDeque::new(),
                queues: Vec::new(),
                crowds: Vec::new(),
                granted: HashSet::new(),
                poison_woken: HashSet::new(),
            }),
            cv: Condvar::new(),
            data: Mutex::new(initial),
        }
    }

    /// The serializer's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declares a FIFO queue; call before spawning users.
    pub fn queue(&self, _name: &str) -> RtQueueId {
        let mut s = self.core.lock();
        s.queues.push(QueueState {
            waiters: VecDeque::new(),
        });
        RtQueueId(s.queues.len() - 1)
    }

    /// Declares a crowd; call before spawning users.
    pub fn crowd(&self, _name: &str) -> RtCrowdId {
        let mut s = self.core.lock();
        s.crowds.push(CrowdState {
            members: Vec::new(),
        });
        RtCrowdId(s.crowds.len() - 1)
    }

    /// Current number of members of `crowd`.
    pub fn crowd_len(&self, crowd: RtCrowdId) -> usize {
        self.core.lock().crowds[crowd.0].members.len()
    }

    /// Current number of waiters in `queue`.
    pub fn queue_len(&self, queue: RtQueueId) -> usize {
        self.core.lock().queues[queue.0].waiters.len()
    }

    /// Runs `body` with possession; panics if the serializer is poisoned.
    pub fn enter<R>(&self, ctx: &RtCtx, body: impl FnOnce(&RtSerializerCtx<'_, S>) -> R) -> R {
        match self.try_enter(ctx, body) {
            Ok(r) => r,
            Err(p) => panic!("{p}"),
        }
    }

    /// Runs `body` with possession, surfacing poisoning as a value; the
    /// body is not entered on a poisoned serializer.
    pub fn try_enter<R>(
        &self,
        ctx: &RtCtx,
        body: impl FnOnce(&RtSerializerCtx<'_, S>) -> R,
    ) -> Result<R, Poisoned> {
        ctx.chaos();
        self.acquire(ctx)?;
        let cleanup = PoisonOnUnwind { ser: self, ctx };
        let sc = RtSerializerCtx { ser: self, ctx };
        let r = body(&sc);
        std::mem::forget(cleanup);
        let mut s = self.core.lock();
        // Possession may have dissolved while the body waited in a queue
        // (poison broadcast); release only what we still hold.
        let wake = s.holder == Some(ctx.pid()) && self.release_locked(&mut s);
        unlock_then_wake(s, &self.cv, wake);
        Ok(r)
    }

    /// Whether a previous holder died inside the serializer.
    pub fn is_poisoned(&self) -> bool {
        self.core.lock().poisoned.is_some()
    }

    fn acquire(&self, ctx: &RtCtx) -> Result<(), Poisoned> {
        let mut s = self.core.lock();
        if let Some(p) = s.poisoned.clone() {
            drop(s);
            ctx.emit(&format!("poison-seen:{}", self.name), &[]);
            return Err(p);
        }
        if !s.busy {
            s.busy = true;
            s.holder = Some(ctx.pid());
            return Ok(());
        }
        let ticket = ctx.fresh_ticket();
        s.entry.push_back(ticket);
        match self.await_grant(&mut s, ctx.pid(), ticket) {
            Wake::Granted => Ok(()),
            Wake::Poison(p) => {
                drop(s);
                ctx.emit(&format!("poison-seen:{}", self.name), &[]);
                Err(p)
            }
        }
    }

    fn await_grant<'a>(
        &'a self,
        s: &mut MutexGuard<'a, SerState<S>>,
        pid: Pid,
        ticket: u64,
    ) -> Wake {
        loop {
            if s.granted.remove(&ticket) {
                s.holder = Some(pid);
                return Wake::Granted;
            }
            if s.poison_woken.remove(&ticket) {
                return Wake::Poison(s.poisoned.clone().expect("poison wake implies poison"));
            }
            self.cv.wait(s);
        }
    }

    /// Eligibility scan: the oldest candidate among eligible queue heads
    /// and the entry front. Returns the ticket plus the queue it heads
    /// (`None` = entrant).
    fn select_winner(&self, s: &SerState<S>) -> Option<(u64, Option<usize>)> {
        let queue_lens: Vec<usize> = s.queues.iter().map(|q| q.waiters.len()).collect();
        let crowd_lens: Vec<usize> = s.crowds.iter().map(|c| c.members.len()).collect();
        let data = self.data.lock();
        let view = RtGuardView {
            state: &*data,
            queue_lens: &queue_lens,
            crowd_lens: &crowd_lens,
        };
        let mut best: Option<(u64, Option<usize>)> = None;
        for (qi, q) in s.queues.iter().enumerate() {
            if let Some(head) = q.waiters.front() {
                if (head.guard)(&view) && best.map_or(true, |(t, _)| head.ticket < t) {
                    best = Some((head.ticket, Some(qi)));
                }
            }
        }
        if let Some(&ticket) = s.entry.front() {
            if best.map_or(true, |(t, _)| ticket < t) {
                best = Some((ticket, None));
            }
        }
        best
    }

    /// Hands possession to the next eligible candidate or frees it; the
    /// caller must currently hold possession. Returns whether it granted
    /// a waiter, which the caller then wakes after unlocking.
    #[must_use]
    fn release_locked(&self, s: &mut SerState<S>) -> bool {
        s.holder = None;
        let ticket = match self.select_winner(s) {
            Some((_, Some(qi))) => {
                s.queues[qi]
                    .waiters
                    .pop_front()
                    .expect("winner heads queue")
                    .ticket
            }
            Some((_, None)) => s.entry.pop_front().expect("winner is entry front"),
            None => {
                s.busy = false;
                return false;
            }
        };
        s.granted.insert(ticket);
        true
    }
}

/// Poisons the serializer if the holder's body unwinds; a no-op when the
/// process dies waiting in a queue or running in a crowd (it holds
/// nothing then — the queue/crowd unwind guards do that cleanup).
struct PoisonOnUnwind<'a, S: Send> {
    ser: &'a RtSerializer<S>,
    ctx: &'a RtCtx,
}

impl<S: Send> Drop for PoisonOnUnwind<'_, S> {
    fn drop(&mut self) {
        if self.ctx.cancelling() {
            return;
        }
        let mut s = self.ser.core.lock();
        if s.holder != Some(self.ctx.pid()) {
            return;
        }
        s.holder = None;
        s.busy = false;
        if s.poisoned.is_none() {
            s.poisoned = Some(Poisoned {
                primitive: self.ser.name.clone(),
                by: self.ctx.pid(),
            });
        }
        // Wake everyone without possession — entrants and every queued
        // guarantee — so they observe the poison instead of wedging.
        let mut woken: Vec<u64> = s.entry.drain(..).collect();
        for q in s.queues.iter_mut() {
            woken.extend(q.waiters.drain(..).map(|w| w.ticket));
        }
        s.poison_woken.extend(woken);
        // Emit while still holding the state lock: a survivor can only
        // observe the poison flag under this lock, so logging first
        // guarantees `poison:` precedes every `poison-seen:` in the trace.
        self.ctx.emit(&format!("poison:{}", self.ser.name), &[]);
        unlock_then_wake(s, &self.ser.cv, true);
    }
}

/// Leaves the crowd if the crowd body unwinds, then re-runs guard
/// evaluation — a guarantee such as "the writers crowd is empty" may have
/// just become true with nobody inside to re-check it.
struct LeaveCrowdOnUnwind<'a, S: Send> {
    ser: &'a RtSerializer<S>,
    crowd: RtCrowdId,
    ctx: &'a RtCtx,
}

impl<S: Send> Drop for LeaveCrowdOnUnwind<'_, S> {
    fn drop(&mut self) {
        let me = self.ctx.pid();
        let mut s = self.ser.core.lock();
        let members = &mut s.crowds[self.crowd.0].members;
        if let Some(at) = members.iter().position(|&p| p == me) {
            members.remove(at);
        }
        if self.ctx.cancelling() {
            return;
        }
        // Claim possession on behalf of the dead member and hand it
        // straight to whoever became eligible; if someone is inside,
        // their release re-evaluates anyway.
        let mut wake = false;
        if !s.busy {
            s.busy = true;
            s.holder = Some(me);
            wake = self.ser.release_locked(&mut s);
        }
        unlock_then_wake(s, &self.ser.cv, wake);
    }
}

/// Capability to use a serializer from inside [`RtSerializer::enter`];
/// mirrors `bloom_serializer::SerializerCtx`.
pub struct RtSerializerCtx<'a, S> {
    ser: &'a RtSerializer<S>,
    ctx: &'a RtCtx,
}

impl<S: Send> RtSerializerCtx<'_, S> {
    /// Accesses the protected state.
    ///
    /// Unlike the simulator's `state` (whose `try_lock` can only fail on
    /// re-entrance), this blocks briefly if a concurrent guard evaluation
    /// holds the state; nested `state()` calls therefore deadlock instead
    /// of panicking — do not nest them.
    pub fn state<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.ser.data.lock())
    }

    /// The real-thread context of the process inside the serializer.
    pub fn ctx(&self) -> &RtCtx {
        self.ctx
    }

    /// Waits in `queue` until the caller heads it, `guard` holds, and
    /// possession is free — the Atkinson–Hewitt `enqueue` with a
    /// guarantee. Panics on a poison wake.
    pub fn enqueue(
        &self,
        queue: RtQueueId,
        guard: impl Fn(&RtGuardView<'_, S>) -> bool + Send + 'static,
    ) {
        self.enqueue_priority(queue, 0, guard);
    }

    /// Like [`RtSerializerCtx::enqueue`], surfacing a poison wake as a
    /// value. On `Err` the caller does *not* have possession and must
    /// leave the body promptly.
    pub fn enqueue_checked(
        &self,
        queue: RtQueueId,
        guard: impl Fn(&RtGuardView<'_, S>) -> bool + Send + 'static,
    ) -> Result<(), Poisoned> {
        self.enqueue_inner(queue, 0, Box::new(guard))
    }

    /// Priority enqueue (lower first, FIFO among equals); panics on a
    /// poison wake.
    pub fn enqueue_priority(
        &self,
        queue: RtQueueId,
        priority: i64,
        guard: impl Fn(&RtGuardView<'_, S>) -> bool + Send + 'static,
    ) {
        if let Err(p) = self.enqueue_inner(queue, priority, Box::new(guard)) {
            panic!("{p}");
        }
    }

    fn enqueue_inner(
        &self,
        queue: RtQueueId,
        priority: i64,
        guard: Guard<S>,
    ) -> Result<(), Poisoned> {
        self.ctx.chaos();
        let ticket = self.ctx.fresh_ticket();
        let mut s = self.ser.core.lock();
        Self::insert_waiter(&mut s, queue, ticket, priority, guard);
        // Releasing possession may select *us* (the oldest eligible
        // head); then we take our entry back and keep possession.
        let Some(mut s) = self.hand_off_maybe_self(s, queue, ticket) else {
            return Ok(());
        };
        match self.ser.await_grant(&mut s, self.ctx.pid(), ticket) {
            Wake::Granted => Ok(()),
            Wake::Poison(p) => {
                drop(s);
                self.ctx
                    .emit(&format!("poison-seen:{}", self.ser.name), &[]);
                Err(p)
            }
        }
    }

    /// Timed enqueue against a virtual-tick [`Deadline`]: `true` if the
    /// guarantee was met, `false` on timeout (after which possession has
    /// been re-acquired, so the caller can handle the failure inside the
    /// serializer). An expired deadline gives up immediately, keeping
    /// possession.
    pub fn enqueue_by(
        &self,
        queue: RtQueueId,
        deadline: impl Into<Deadline>,
        guard: impl Fn(&RtGuardView<'_, S>) -> bool + Send + 'static,
    ) -> bool {
        self.ctx.chaos();
        let Some(budget) = self.ctx.wall_budget(deadline) else {
            return false;
        };
        let start = std::time::Instant::now();
        let ticket = self.ctx.fresh_ticket();
        let mut s = self.ser.core.lock();
        Self::insert_waiter(&mut s, queue, ticket, 0, Box::new(guard));
        let Some(mut s) = self.hand_off_maybe_self(s, queue, ticket) else {
            return true;
        };
        loop {
            if s.granted.remove(&ticket) {
                s.holder = Some(self.ctx.pid());
                return true;
            }
            if s.poison_woken.remove(&ticket) {
                // Mirror the simulator: a poison broadcast reads as a
                // wake; the enclosing `try_enter` skips the release.
                return true;
            }
            let elapsed = start.elapsed();
            if elapsed >= budget {
                // Withdraw (settled under the lock — if a grant raced us
                // it was caught above) and re-enter as a fresh entrant.
                s.queues[queue.0].waiters.retain(|w| w.ticket != ticket);
                if !s.busy {
                    s.busy = true;
                    s.holder = Some(self.ctx.pid());
                    return false;
                }
                s.entry.push_back(ticket);
                return match self.ser.await_grant(&mut s, self.ctx.pid(), ticket) {
                    Wake::Granted | Wake::Poison(_) => false,
                };
            }
            self.ser.cv.wait_for(&mut s, budget - elapsed);
        }
    }

    fn insert_waiter(
        s: &mut SerState<S>,
        queue: RtQueueId,
        ticket: u64,
        priority: i64,
        guard: Guard<S>,
    ) {
        let waiters = &mut s.queues[queue.0].waiters;
        let at = waiters
            .iter()
            .position(|w| (w.priority, w.ticket) > (priority, ticket))
            .unwrap_or(waiters.len());
        waiters.insert(
            at,
            SWaiter {
                ticket,
                priority,
                guard,
            },
        );
    }

    /// Releases possession after self-enqueueing. Returns `None` if the
    /// caller itself won the hand-off and keeps possession; otherwise
    /// wakes whoever was granted and returns the re-taken lock.
    fn hand_off_maybe_self<'g>(
        &'g self,
        mut s: MutexGuard<'g, SerState<S>>,
        queue: RtQueueId,
        ticket: u64,
    ) -> Option<MutexGuard<'g, SerState<S>>> {
        if let Some((t, Some(qi))) = self.ser.select_winner(&s) {
            if qi == queue.0 && t == ticket {
                s.queues[qi].waiters.pop_front();
                return None; // still the holder; busy stays true
            }
        }
        let wake = self.ser.release_locked(&mut s);
        Some(wake_then_relock(&self.ser.core, s, &self.ser.cv, wake))
    }

    /// Joins `crowd`, releases possession, runs `body` outside the
    /// serializer (concurrently with other crowd members), then re-enters
    /// and leaves the crowd. A body that dies leaves the crowd during the
    /// unwind and re-triggers guard evaluation.
    pub fn join_crowd<R>(&self, crowd: RtCrowdId, body: impl FnOnce() -> R) -> R {
        self.ctx.chaos();
        {
            let mut s = self.ser.core.lock();
            s.crowds[crowd.0].members.push(self.ctx.pid());
            let wake = self.ser.release_locked(&mut s);
            unlock_then_wake(s, &self.ser.cv, wake);
        }
        let cleanup = LeaveCrowdOnUnwind {
            ser: self.ser,
            crowd,
            ctx: self.ctx,
        };
        let r = body();
        // Re-enter before leaving the crowd, like the simulator. A poison
        // while we were in the crowd surfaces here as a panic (the plain
        // entry points stay loud).
        if let Err(p) = self.ser.acquire(self.ctx) {
            // The unwind guard removes the membership.
            panic!("{p}");
        }
        std::mem::forget(cleanup);
        let mut s = self.ser.core.lock();
        let members = &mut s.crowds[crowd.0].members;
        let at = members
            .iter()
            .position(|&p| p == self.ctx.pid())
            .expect("leave_crowd: caller not a member");
        members.remove(at);
        r
    }

    /// Number of members currently in `crowd`.
    pub fn crowd_len(&self, crowd: RtCrowdId) -> usize {
        self.ser.core.lock().crowds[crowd.0].members.len()
    }

    /// Whether `crowd` is empty.
    pub fn crowd_is_empty(&self, crowd: RtCrowdId) -> bool {
        self.crowd_len(crowd) == 0
    }

    /// Number of waiters in `queue`.
    pub fn queue_len(&self, queue: RtQueueId) -> usize {
        self.ser.core.lock().queues[queue.0].waiters.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{KillPoint, RtConfig, RtSim};
    use std::sync::Arc;
    use std::time::Duration;

    /// Readers–writers with reader priority: the canonical serializer
    /// shape from the paper. Readers join a crowd; writers enqueue with
    /// the guarantee that both crowds are empty.
    #[test]
    fn readers_overlap_and_writers_are_exclusive() {
        let mut rt = RtSim::new();
        let ser = Arc::new(RtSerializer::new("rw", ()));
        let rq = ser.queue("readq");
        let wq = ser.queue("writeq");
        let rc = ser.crowd("readers");
        let wc = ser.crowd("writers");
        let occupancy = Arc::new(Mutex::new((0i32, 0i32, 0i32))); // (readers, writers, max_readers)

        for i in 0..4 {
            let ser = Arc::clone(&ser);
            let occ = Arc::clone(&occupancy);
            rt.spawn(&format!("reader{i}"), move |ctx| {
                for _ in 0..10 {
                    ser.enter(ctx, |sc| {
                        sc.enqueue(rq, move |v| v.crowd_is_empty(wc));
                        sc.join_crowd(rc, || {
                            let mut o = occ.lock();
                            assert_eq!(o.1, 0, "reader overlapped a writer");
                            o.0 += 1;
                            o.2 = o.2.max(o.0);
                            drop(o);
                            std::thread::sleep(Duration::from_micros(200));
                            occ.lock().0 -= 1;
                        });
                    });
                }
            });
        }
        for i in 0..2 {
            let ser = Arc::clone(&ser);
            let occ = Arc::clone(&occupancy);
            rt.spawn(&format!("writer{i}"), move |ctx| {
                for _ in 0..6 {
                    ser.enter(ctx, |sc| {
                        sc.enqueue(wq, move |v| v.crowd_is_empty(rc) && v.crowd_is_empty(wc));
                        sc.join_crowd(wc, || {
                            let mut o = occ.lock();
                            assert_eq!(o.0, 0, "writer overlapped readers");
                            assert_eq!(o.1, 0, "two writers inside");
                            o.1 += 1;
                            drop(o);
                            std::thread::sleep(Duration::from_micros(200));
                            occ.lock().1 -= 1;
                        });
                    });
                }
            });
        }
        rt.run().expect("no wedge");
    }

    #[test]
    fn enqueue_by_times_out_and_regains_possession() {
        let mut rt = RtSim::new();
        let ser = Arc::new(RtSerializer::new("s", false));
        let q = ser.queue("q");
        let ser1 = Arc::clone(&ser);
        rt.spawn("p", move |ctx| {
            ser1.enter(ctx, |sc| {
                // Guarantee can never hold; 5-tick budget.
                assert!(!sc.enqueue_by(q, 5u64, |v| *v.state()));
                // Timed out — but we must be back in possession.
                sc.state(|s| *s = true);
            });
        });
        rt.run().expect("no wedge");
        assert_eq!(ser.queue_len(q), 0, "withdrawal removed the waiter");
    }

    #[test]
    fn poisoned_serializer_wakes_queue_waiters() {
        let mut rt = RtSim::with_config(RtConfig {
            kill: Some(KillPoint {
                process: "victim".into(),
                at_point: 2,
            }),
            ..RtConfig::default()
        });
        let ser = Arc::new(RtSerializer::new("s", ()));
        let q = ser.queue("q");

        let ser1 = Arc::clone(&ser);
        rt.spawn("waiter", move |ctx| {
            let r = ser1.try_enter(ctx, |sc| sc.enqueue_checked(q, |_| false));
            match r {
                Err(_) | Ok(Err(_)) => {}
                Ok(Ok(())) => panic!("an always-false guarantee cannot be met"),
            }
        });

        let ser2 = Arc::clone(&ser);
        rt.spawn("victim", move |ctx| {
            std::thread::sleep(Duration::from_millis(15)); // let the waiter park
            let _ = ser2.try_enter(ctx, |sc| sc.ctx().chaos());
        });

        let report = rt.run().expect("kill is contained");
        assert_eq!(report.trace.count_user("poison:s"), 1);
        assert!(ser.is_poisoned());
    }

    #[test]
    fn crowd_member_death_reevaluates_guards() {
        // A waiter's guarantee is "the crowd is empty"; the only member
        // dies inside the crowd. The unwind must re-run guard evaluation
        // or the waiter wedges.
        let mut rt = RtSim::with_config(RtConfig {
            kill: Some(KillPoint {
                process: "member".into(),
                at_point: 4, // enter, enqueue, join_crowd, then inside the body
            }),
            ..RtConfig::default()
        });
        let ser = Arc::new(RtSerializer::new("s", ()));
        let q = ser.queue("q");
        let c = ser.crowd("c");

        let ser1 = Arc::clone(&ser);
        rt.spawn("member", move |ctx| {
            ser1.enter(ctx, |sc| {
                sc.enqueue(q, |_| true);
                sc.join_crowd(c, || {
                    std::thread::sleep(Duration::from_millis(20));
                    ctx.chaos(); // dies here, inside the crowd
                });
            });
        });

        let ser2 = Arc::clone(&ser);
        rt.spawn("waiter", move |ctx| {
            std::thread::sleep(Duration::from_millis(5)); // arrive second
            ser2.enter(ctx, |sc| {
                sc.enqueue(q, move |v| v.crowd_is_empty(c));
                assert_eq!(sc.crowd_len(c), 0, "guarantee holds on grant");
            });
        });

        let report = rt.run().expect("no wedge");
        assert_eq!(report.processes[0].status, bloom_sim::ProcessStatus::Killed);
        assert_eq!(ser.crowd_len(c), 0);
    }
}
