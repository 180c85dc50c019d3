//! Real-thread monitors with all three signal disciplines — mirrors
//! `bloom-monitor` operation for operation.
//!
//! One `Mutex<MonState>` + broadcast `Condvar` implements possession, the
//! entry and urgent queues, and every condition queue; each blocking
//! operation is a loop over the condvar checking which wake it received:
//!
//! * a **grant** (its ticket appears in `granted`) — possession was handed
//!   to it directly by a release, a Hoare signal, or a deferred
//!   signal-and-exit hand-off; bargers can never intercept possession
//!   because it never passes through an "open" state during a hand-off;
//! * a **poison wake** (its ticket appears in `poison_woken`) — the holder
//!   died mid-body; the waiter observes the poison and backs out.
//!
//! Mesa signalling moves the waiter's ticket from the condition queue to
//! the back of the entry queue — re-contention *is* entry competition, so
//! the separate "wake, then re-acquire" step of the simulator collapses
//! into waiting for an entry grant, with identical observable semantics
//! (the waiter resumes with possession and must re-check its predicate).

use crate::runtime::RtCtx;
use crate::{unlock_then_wake, wake_then_relock};
use bloom_sim::{Deadline, Pid, Poisoned};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// Signal discipline; mirrors `bloom_monitor::Signaling`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signaling {
    /// Hoare signal-and-wait: possession passes to the signalled process;
    /// the signaller parks on the urgent queue.
    Hoare,
    /// Mesa signal-and-continue: the signaller keeps possession; the
    /// signalled process re-enters through the entry competition.
    SignalAndContinue,
    /// Howard signal-and-exit: the hand-off is deferred to the moment the
    /// signaller leaves the monitor.
    SignalAndExit,
}

/// A condition variable for [`RtMonitor`]; mirrors `bloom_monitor::Cond`.
///
/// The queue is mutated only while the owning monitor's state lock is
/// held (lock order: monitor state, then condition queue); the probe
/// methods take only the condition's own lock.
pub struct RtCond {
    name: String,
    /// `(ticket, priority)` in arrival order.
    queue: Mutex<Vec<(u64, i64)>>,
}

impl RtCond {
    /// Creates a condition with a diagnostic name.
    pub fn new(name: &str) -> Self {
        RtCond {
            name: name.to_string(),
            queue: Mutex::new(Vec::new()),
        }
    }

    /// Number of processes waiting on this condition.
    pub fn len(&self) -> usize {
        self.queue.lock().len()
    }

    /// Whether no process waits on this condition (Hoare's `¬queue`).
    pub fn is_empty(&self) -> bool {
        self.queue.lock().is_empty()
    }

    /// Priority of the frontmost waiter (Hoare's `minrank`), if any.
    pub fn min_priority(&self) -> Option<i64> {
        self.queue.lock().iter().map(|&(_, p)| p).min()
    }

    /// The condition's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Removes and returns the best waiter: lowest priority, FIFO among
    /// equals.
    fn take_front(&self) -> Option<u64> {
        let mut q = self.queue.lock();
        let best = q
            .iter()
            .enumerate()
            .min_by_key(|&(i, &(_, prio))| (prio, i))
            .map(|(i, _)| i)?;
        Some(q.remove(best).0)
    }

    fn remove_ticket(&self, ticket: u64) -> bool {
        let mut q = self.queue.lock();
        let before = q.len();
        q.retain(|&(t, _)| t != ticket);
        q.len() < before
    }

    fn drain(&self) -> Vec<u64> {
        self.queue.lock().drain(..).map(|(t, _)| t).collect()
    }
}

struct MonState {
    busy: bool,
    holder: Option<Pid>,
    poisoned: Option<Poisoned>,
    entry: VecDeque<u64>,
    urgent: VecDeque<u64>,
    /// Tickets holding an uncollected possession grant.
    granted: HashSet<u64>,
    /// Tickets woken by the poison broadcast (no possession attached).
    poison_woken: HashSet<u64>,
    /// Signal-and-exit: ticket the next release hands off to.
    pending_handoff: Option<u64>,
}

/// The non-generic core: everything except the protected state, so the
/// unwind guard and the condition plumbing need no `S` parameter.
struct MonCore {
    name: String,
    signaling: Signaling,
    state: Mutex<MonState>,
    cv: Condvar,
    watched: Mutex<Vec<Arc<RtCond>>>,
}

/// How a blocking wait ended.
enum Wake {
    Granted,
    Poison(Poisoned),
}

impl MonCore {
    /// Parks the given ticket until it is granted possession or poison-
    /// woken. The caller has already enqueued the ticket somewhere.
    fn await_grant<'a>(&'a self, s: &mut MutexGuard<'a, MonState>, pid: Pid, ticket: u64) -> Wake {
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

    /// Hands possession onward; called by the holder with the lock held.
    /// Returns whether it granted a waiter, which the caller then wakes
    /// after unlocking.
    #[must_use]
    fn release_locked(&self, s: &mut MonState) -> bool {
        s.holder = None;
        let next = s
            .pending_handoff
            .take()
            .or_else(|| s.urgent.pop_front())
            .or_else(|| s.entry.pop_front());
        match next {
            Some(t) => {
                // Hand-off: busy stays true, so a barger arriving before
                // the grantee collects finds the monitor occupied.
                s.granted.insert(t);
                true
            }
            None => {
                s.busy = false;
                false
            }
        }
    }

    fn acquire(&self, ctx: &RtCtx) -> Result<(), Poisoned> {
        let mut s = self.state.lock();
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
}

/// A monitor protecting state `S` on OS threads; mirrors
/// `bloom_monitor::Monitor`.
pub struct RtMonitor<S> {
    core: MonCore,
    data: Mutex<S>,
}

impl<S: Send> RtMonitor<S> {
    /// Creates a monitor with the given signal discipline.
    pub fn new(name: &str, signaling: Signaling, initial: S) -> Self {
        RtMonitor {
            core: MonCore {
                name: name.to_string(),
                signaling,
                state: Mutex::new(MonState {
                    busy: false,
                    holder: None,
                    poisoned: None,
                    entry: VecDeque::new(),
                    urgent: VecDeque::new(),
                    granted: HashSet::new(),
                    poison_woken: HashSet::new(),
                    pending_handoff: None,
                }),
                cv: Condvar::new(),
                watched: Mutex::new(Vec::new()),
            },
            data: Mutex::new(initial),
        }
    }

    /// Creates a monitor with Hoare signal-and-wait semantics.
    pub fn hoare(name: &str, initial: S) -> Self {
        RtMonitor::new(name, Signaling::Hoare, initial)
    }

    /// Creates a monitor with Mesa signal-and-continue semantics.
    pub fn mesa(name: &str, initial: S) -> Self {
        RtMonitor::new(name, Signaling::SignalAndContinue, initial)
    }

    /// Creates a monitor with Howard signal-and-exit semantics.
    pub fn signal_and_exit(name: &str, initial: S) -> Self {
        RtMonitor::new(name, Signaling::SignalAndExit, initial)
    }

    /// The monitor's diagnostic name.
    pub fn name(&self) -> &str {
        &self.core.name
    }

    /// The configured signal discipline.
    pub fn signaling(&self) -> Signaling {
        self.core.signaling
    }

    /// Runs `body` with possession; panics if the monitor is poisoned.
    pub fn enter<R>(&self, ctx: &RtCtx, body: impl FnOnce(&RtMonitorCtx<'_, S>) -> R) -> R {
        match self.try_enter(ctx, body) {
            Ok(r) => r,
            Err(p) => panic!("{p}"),
        }
    }

    /// Runs `body` with possession, surfacing poisoning as a value; the
    /// body is not entered on a poisoned monitor.
    pub fn try_enter<R>(
        &self,
        ctx: &RtCtx,
        body: impl FnOnce(&RtMonitorCtx<'_, S>) -> R,
    ) -> Result<R, Poisoned> {
        ctx.chaos();
        self.core.acquire(ctx)?;
        let cleanup = PoisonOnUnwind {
            core: &self.core,
            ctx,
        };
        let mc = RtMonitorCtx { monitor: self, ctx };
        let r = body(&mc);
        std::mem::forget(cleanup);
        let mut s = self.core.state.lock();
        // Possession may have dissolved while the body waited on a
        // condition (poison broadcast); release only what we still hold.
        let wake = s.holder == Some(ctx.pid()) && self.core.release_locked(&mut s);
        unlock_then_wake(s, &self.core.cv, wake);
        Ok(r)
    }

    /// Registers `cond` for the poison broadcast, like
    /// `Monitor::register_cond`.
    pub fn register_cond(&self, cond: &Arc<RtCond>) {
        self.core.watched.lock().push(Arc::clone(cond));
    }

    /// Whether a previous holder died inside the monitor.
    pub fn is_poisoned(&self) -> bool {
        self.core.state.lock().poisoned.is_some()
    }
}

/// Poisons the monitor if the holder's body unwinds; disarmed with
/// `mem::forget` on the normal path. A no-op when the process dies
/// waiting on a condition (it holds nothing then).
struct PoisonOnUnwind<'a> {
    core: &'a MonCore,
    ctx: &'a RtCtx,
}

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if self.ctx.cancelling() {
            return;
        }
        let mut s = self.core.state.lock();
        if s.holder != Some(self.ctx.pid()) {
            return;
        }
        s.holder = None;
        s.busy = false;
        if s.poisoned.is_none() {
            s.poisoned = Some(Poisoned {
                primitive: self.core.name.clone(),
                by: self.ctx.pid(),
            });
        }
        // Wake everyone without possession so they observe the poison:
        // entrants, paused signallers, a deferred grantee, and the
        // waiters of every registered condition.
        let mut woken: Vec<u64> = s.entry.drain(..).collect();
        woken.extend(s.urgent.drain(..));
        woken.extend(s.pending_handoff.take());
        for cond in self.core.watched.lock().iter() {
            woken.extend(cond.drain());
        }
        s.poison_woken.extend(woken);
        // Emit while still holding the state lock: a survivor can only
        // observe the poison flag under this lock, so logging first
        // guarantees `poison:` precedes every `poison-seen:` in the trace.
        self.ctx.emit(&format!("poison:{}", self.core.name), &[]);
        unlock_then_wake(s, &self.core.cv, true);
    }
}

/// Capability to use a monitor from inside [`RtMonitor::enter`]; mirrors
/// `bloom_monitor::MonitorCtx`.
pub struct RtMonitorCtx<'a, S> {
    monitor: &'a RtMonitor<S>,
    ctx: &'a RtCtx,
}

impl<S: Send> RtMonitorCtx<'_, S> {
    /// Accesses the protected state.
    ///
    /// # Panics
    ///
    /// Panics on re-entrant use, which would otherwise deadlock.
    pub fn state<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        let mut guard = self
            .monitor
            .data
            .try_lock()
            .expect("monitor state re-entered: do not nest state()/wait() calls");
        f(&mut guard)
    }

    /// The real-thread context of the process inside the monitor.
    pub fn ctx(&self) -> &RtCtx {
        self.ctx
    }

    /// Waits on `cond`; panics on a poison wake.
    pub fn wait(&self, cond: &RtCond) {
        self.wait_priority(cond, 0);
    }

    /// Priority wait (signalled in increasing `priority` order, FIFO among
    /// equals); panics on a poison wake.
    pub fn wait_priority(&self, cond: &RtCond, priority: i64) {
        if let Err(p) = self.wait_priority_checked(cond, priority) {
            panic!("{p}");
        }
    }

    /// Like [`RtMonitorCtx::wait`], returning a poison wake as a value.
    /// On `Err` the caller does *not* have possession and must leave the
    /// body promptly.
    pub fn wait_checked(&self, cond: &RtCond) -> Result<(), Poisoned> {
        self.wait_priority_checked(cond, 0)
    }

    /// Priority variant of [`RtMonitorCtx::wait_checked`].
    pub fn wait_priority_checked(&self, cond: &RtCond, priority: i64) -> Result<(), Poisoned> {
        self.ctx.chaos();
        let core = &self.monitor.core;
        let ticket = self.ctx.fresh_ticket();
        let mut s = core.state.lock();
        cond.queue.lock().push((ticket, priority));
        let wake = core.release_locked(&mut s);
        let mut s = wake_then_relock(&core.state, s, &core.cv, wake);
        match core.await_grant(&mut s, self.ctx.pid(), ticket) {
            Wake::Granted => Ok(()),
            Wake::Poison(p) => {
                drop(s);
                self.ctx.emit(&format!("poison-seen:{}", core.name), &[]);
                Err(p)
            }
        }
    }

    /// Timed wait against a virtual-tick [`Deadline`] (wall-clock budget
    /// via [`RtCtx::wall_budget`]): `true` if signalled, `false` on
    /// timeout, after which the waiter has withdrawn and re-entered like a
    /// fresh entrant — it resumes with possession either way.
    ///
    /// # Panics
    ///
    /// Panics on a poison wake and under [`Signaling::SignalAndExit`]
    /// (a deferred hand-off cannot be withdrawn), like the simulator.
    pub fn wait_by(&self, cond: &RtCond, deadline: impl Into<Deadline>) -> bool {
        match self.wait_by_checked(cond, deadline) {
            Ok(signalled) => signalled,
            Err(p) => panic!("{p}"),
        }
    }

    /// Like [`RtMonitorCtx::wait_by`], returning poisoning as a value.
    pub fn wait_by_checked(
        &self,
        cond: &RtCond,
        deadline: impl Into<Deadline>,
    ) -> Result<bool, Poisoned> {
        let core = &self.monitor.core;
        assert!(
            core.signaling != Signaling::SignalAndExit,
            "timed waits are not supported under signal-and-exit semantics: \
             a deferred hand-off cannot be withdrawn"
        );
        self.ctx.chaos();
        let Some(budget) = self.ctx.wall_budget(deadline) else {
            return Ok(false);
        };
        let start = std::time::Instant::now();
        let ticket = self.ctx.fresh_ticket();
        let mut s = core.state.lock();
        cond.queue.lock().push((ticket, 0));
        let wake = core.release_locked(&mut s);
        let mut s = wake_then_relock(&core.state, s, &core.cv, wake);
        loop {
            if s.granted.remove(&ticket) {
                s.holder = Some(self.ctx.pid());
                return Ok(true);
            }
            if s.poison_woken.remove(&ticket) {
                let p = s.poisoned.clone().expect("poison wake implies poison");
                drop(s);
                self.ctx.emit(&format!("poison-seen:{}", core.name), &[]);
                return Err(p);
            }
            let elapsed = start.elapsed();
            if elapsed >= budget {
                // Withdraw — settled under the state lock. Three places
                // our ticket can legitimately be:
                if cond.remove_ticket(ticket) {
                    // Still on the condition: a true timeout. Re-enter
                    // like a fresh entrant.
                    if !s.busy {
                        s.busy = true;
                        s.holder = Some(self.ctx.pid());
                        return Ok(false);
                    }
                    s.entry.push_back(ticket);
                    return match core.await_grant(&mut s, self.ctx.pid(), ticket) {
                        Wake::Granted => Ok(false),
                        Wake::Poison(p) => {
                            drop(s);
                            self.ctx.emit(&format!("poison-seen:{}", core.name), &[]);
                            Err(p)
                        }
                    };
                }
                // A Mesa signal raced the timeout and moved us to the
                // entry queue: we count as signalled; wait out the grant.
                return match core.await_grant(&mut s, self.ctx.pid(), ticket) {
                    Wake::Granted => Ok(true),
                    Wake::Poison(p) => {
                        drop(s);
                        self.ctx.emit(&format!("poison-seen:{}", core.name), &[]);
                        Err(p)
                    }
                };
            }
            core.cv.wait_for(&mut s, budget - elapsed);
        }
    }

    /// Signals `cond`; semantics per the monitor's discipline. Panics if
    /// a Hoare signaller is woken by a poison broadcast.
    pub fn signal(&self, cond: &RtCond) {
        if let Err(p) = self.signal_checked(cond) {
            panic!("{p}");
        }
    }

    /// Like [`RtMonitorCtx::signal`], returning a Hoare signaller's
    /// poison wake as a value. On `Err` the caller does *not* have
    /// possession and must leave the body promptly.
    pub fn signal_checked(&self, cond: &RtCond) -> Result<(), Poisoned> {
        self.ctx.chaos();
        let core = &self.monitor.core;
        let mut s = core.state.lock();
        match core.signaling {
            Signaling::Hoare => {
                let Some(waiter) = cond.take_front() else {
                    return Ok(());
                };
                // Step aside for the signalled process: possession passes
                // to it directly; we park on the urgent queue.
                let ticket = self.ctx.fresh_ticket();
                s.urgent.push_back(ticket);
                s.holder = None;
                s.granted.insert(waiter);
                let mut s = wake_then_relock(&core.state, s, &core.cv, true);
                match core.await_grant(&mut s, self.ctx.pid(), ticket) {
                    Wake::Granted => Ok(()),
                    Wake::Poison(p) => {
                        drop(s);
                        self.ctx.emit(&format!("poison-seen:{}", core.name), &[]);
                        Err(p)
                    }
                }
            }
            Signaling::SignalAndContinue => {
                if let Some(waiter) = cond.take_front() {
                    // Re-contention is entry competition.
                    s.entry.push_back(waiter);
                }
                Ok(())
            }
            Signaling::SignalAndExit => {
                let Some(waiter) = cond.take_front() else {
                    return Ok(());
                };
                assert!(
                    s.pending_handoff.is_none(),
                    "signal-and-exit permits one effective signal per monitor entry"
                );
                s.pending_handoff = Some(waiter);
                Ok(())
            }
        }
    }

    /// Wakes every waiter on `cond` (broadcast).
    ///
    /// # Panics
    ///
    /// Panics unless the discipline is [`Signaling::SignalAndContinue`],
    /// like the simulator.
    pub fn signal_all(&self, cond: &RtCond) {
        let core = &self.monitor.core;
        assert!(
            core.signaling == Signaling::SignalAndContinue,
            "signal_all requires signal-and-continue semantics"
        );
        self.ctx.chaos();
        let mut s = core.state.lock();
        for waiter in cond.drain() {
            s.entry.push_back(waiter);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{KillPoint, RtConfig, RtSim};
    use std::time::Duration;

    fn bounded_buffer(signaling: Signaling) {
        const CAP: usize = 3;
        const ITEMS: i64 = 40;
        let mut rt = RtSim::new();
        let m = Arc::new(RtMonitor::new("buf", signaling, Vec::<i64>::new()));
        let not_full = Arc::new(RtCond::new("not_full"));
        let not_empty = Arc::new(RtCond::new("not_empty"));

        let (m1, nf1, ne1) = (
            Arc::clone(&m),
            Arc::clone(&not_full),
            Arc::clone(&not_empty),
        );
        rt.spawn("producer", move |ctx| {
            for i in 0..ITEMS {
                m1.enter(ctx, |mc| {
                    if signaling == Signaling::SignalAndContinue {
                        while mc.state(|b| b.len()) >= CAP {
                            mc.wait(&nf1);
                        }
                    } else if mc.state(|b| b.len()) >= CAP {
                        mc.wait(&nf1);
                    }
                    mc.state(|b| b.push(i));
                    mc.signal(&ne1);
                });
            }
        });

        let (m2, nf2, ne2) = (
            Arc::clone(&m),
            Arc::clone(&not_full),
            Arc::clone(&not_empty),
        );
        let got = Arc::new(Mutex::new(Vec::new()));
        let got2 = Arc::clone(&got);
        rt.spawn("consumer", move |ctx| {
            for _ in 0..ITEMS {
                let v = m2.enter(ctx, |mc| {
                    if signaling == Signaling::SignalAndContinue {
                        while mc.state(|b| b.is_empty()) {
                            mc.wait(&ne2);
                        }
                    } else if mc.state(|b| b.is_empty()) {
                        mc.wait(&ne2);
                    }
                    let v = mc.state(|b| b.remove(0));
                    mc.signal(&nf2);
                    v
                });
                got2.lock().push(v);
            }
        });

        rt.run().expect("no wedge");
        assert_eq!(*got.lock(), (0..ITEMS).collect::<Vec<_>>());
    }

    #[test]
    fn hoare_bounded_buffer_delivers_in_order() {
        bounded_buffer(Signaling::Hoare);
    }

    #[test]
    fn mesa_bounded_buffer_delivers_in_order() {
        bounded_buffer(Signaling::SignalAndContinue);
    }

    #[test]
    fn signal_and_exit_hands_off_at_release() {
        let mut rt = RtSim::new();
        let m = Arc::new(RtMonitor::signal_and_exit("m", false));
        let ready = Arc::new(RtCond::new("ready"));

        let (m1, r1) = (Arc::clone(&m), Arc::clone(&ready));
        rt.spawn("waiter", move |ctx| {
            m1.enter(ctx, |mc| {
                if !mc.state(|&mut f| f) {
                    mc.wait(&r1);
                }
                // Hand-off semantics: the flag set by the signaller must
                // still hold — no third party could intervene.
                assert!(mc.state(|&mut f| f));
            });
        });

        let (m2, r2) = (Arc::clone(&m), Arc::clone(&ready));
        rt.spawn("signaller", move |ctx| {
            std::thread::sleep(Duration::from_millis(10));
            m2.enter(ctx, |mc| {
                mc.state(|f| *f = true);
                mc.signal(&r2);
                // Signal takes effect only when we leave.
                assert!(mc.state(|&mut f| f));
            });
        });

        rt.run().expect("no wedge");
    }

    #[test]
    fn wait_by_times_out_and_reenters_with_possession() {
        let mut rt = RtSim::new();
        let m = Arc::new(RtMonitor::mesa("m", 0u32));
        let never = Arc::new(RtCond::new("never"));
        let m1 = Arc::clone(&m);
        let n1 = Arc::clone(&never);
        rt.spawn("p", move |ctx| {
            m1.enter(ctx, |mc| {
                assert!(!mc.wait_by(&n1, 5u64), "nobody signals");
                // We must hold possession again: state access works.
                mc.state(|n| *n += 1);
            });
        });
        rt.run().expect("no wedge");
        assert!(never.is_empty(), "withdrawal removed the registration");
    }

    #[test]
    fn poisoned_monitor_wakes_waiters_and_rejects_entrants() {
        let mut rt = RtSim::with_config(RtConfig {
            kill: Some(KillPoint {
                process: "victim".into(),
                at_point: 2, // enter is point 1; the in-body point is 2
            }),
            ..RtConfig::default()
        });
        let m = Arc::new(RtMonitor::mesa("m", ()));
        let cond = Arc::new(RtCond::new("c"));
        m.register_cond(&cond);

        let (m1, c1) = (Arc::clone(&m), Arc::clone(&cond));
        rt.spawn("waiter", move |ctx| {
            let woke = m1.try_enter(ctx, |mc| mc.wait_checked(&c1));
            // Either the monitor was already poisoned at entry, or the
            // poison broadcast woke us mid-wait.
            match woke {
                Err(_) | Ok(Err(_)) => {}
                Ok(Ok(())) => panic!("nobody signals this condition"),
            }
        });

        let m2 = Arc::clone(&m);
        rt.spawn("victim", move |ctx| {
            std::thread::sleep(Duration::from_millis(15)); // let the waiter park
            let _ = m2.try_enter(ctx, |mc| mc.ctx().chaos());
        });

        let report = rt.run().expect("kill is contained");
        assert_eq!(report.trace.count_user("poison:m"), 1);
        assert!(m.is_poisoned());
    }

    #[test]
    fn hoare_priority_wait_serves_minrank_first() {
        let mut rt = RtSim::new();
        let m = Arc::new(RtMonitor::hoare("m", Vec::<i64>::new()));
        let cond = Arc::new(RtCond::new("c"));
        for prio in [5i64, 1, 3] {
            let (m1, c1) = (Arc::clone(&m), Arc::clone(&cond));
            rt.spawn(&format!("w{prio}"), move |ctx| {
                m1.enter(ctx, |mc| {
                    mc.wait_priority(&c1, prio);
                    mc.state(|order| order.push(prio));
                });
            });
        }
        let (m2, c2) = (Arc::clone(&m), Arc::clone(&cond));
        rt.spawn("signaller", move |ctx| {
            // Wait until all three are parked on the condition.
            while c2.len() < 3 {
                std::thread::sleep(Duration::from_millis(1));
            }
            for _ in 0..3 {
                m2.enter(ctx, |mc| mc.signal(&c2));
            }
        });
        rt.run().expect("no wedge");
        let m_ref = Arc::try_unwrap(m).ok().expect("all threads joined");
        assert_eq!(m_ref.data.into_inner(), vec![1, 3, 5]);
    }
}
