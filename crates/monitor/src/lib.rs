#![forbid(unsafe_code)]
#![deny(deprecated)]
//! Hoare monitors over the `bloom-sim` deterministic simulator.
//!
//! This crate reproduces the monitor construct of Hoare's "Monitors: An
//! Operating System Structuring Concept" (CACM 1974), which is one of the
//! three mechanisms Bloom's paper evaluates (§5.2). A [`Monitor`] couples:
//!
//! * **mutual exclusion** — at most one process executes *inside* the
//!   monitor at a time (possession);
//! * **condition variables** ([`Cond`]) — queues a process can `wait` on
//!   while automatically releasing possession, and `signal` to resume a
//!   waiter;
//! * an **urgent queue** — under Hoare semantics a signaller steps aside
//!   for the signalled process and is resumed *before* any process waiting
//!   to enter;
//! * **priority (conditional) wait** — `wait_priority(cond, p)` wakes
//!   lowest-`p` first (Hoare's disk-head scheduler uses this to order
//!   requests by track number — *request parameter* information in Bloom's
//!   taxonomy);
//! * **queue interrogation** — `Cond::is_empty`/`len`/`min_priority` expose
//!   whether anyone waits (Bloom's *synchronization state* information).
//!
//! Two signalling disciplines are provided, selected at construction:
//!
//! * [`Signaling::Hoare`] — signal-and-wait: possession passes directly to
//!   the signalled process, so the condition it was signalled about is
//!   *guaranteed* to hold when it resumes. The signaller parks on the
//!   urgent queue.
//! * [`Signaling::SignalAndContinue`] — Mesa semantics: the signaller keeps
//!   possession; the signalled process re-contends for entry and must
//!   re-check its condition in a loop (a barger may have invalidated it).
//!
//! Bloom's §5.2 findings reproduced by this crate's tests and the
//! `bloom-problems` solutions:
//!
//! * monitor queues handle *request type* (one queue per type) and
//!   *request time* (FIFO within a queue) but the two **conflict** when a
//!   problem needs both, forcing the two-stage queuing idiom;
//! * the explicit signal forces the implementor to decide a total wake
//!   order, so exclusion constraints cannot be written without priority
//!   constraints;
//! * nested monitor calls deadlock (Lister's problem), while the
//!   shared-resource structuring of §2 avoids it.
//!
//! # Example: a one-slot buffer
//!
//! ```
//! use bloom_monitor::{Cond, Monitor};
//! use bloom_sim::Sim;
//! use std::sync::Arc;
//!
//! struct Slot { full: bool, value: i64 }
//!
//! let mut sim = Sim::new();
//! let m = Arc::new(Monitor::hoare("slot", Slot { full: false, value: 0 }));
//! let not_full = Arc::new(Cond::new("not_full"));
//! let not_empty = Arc::new(Cond::new("not_empty"));
//!
//! let (m2, nf, ne) = (Arc::clone(&m), Arc::clone(&not_full), Arc::clone(&not_empty));
//! sim.spawn("producer", move |ctx| {
//!     m2.enter(ctx, |mc| {
//!         while mc.state(|s| s.full) {
//!             mc.wait(&nf);
//!         }
//!         mc.state(|s| { s.full = true; s.value = 42; });
//!         mc.signal(&ne);
//!     });
//! });
//! let (m3, nf, ne) = (Arc::clone(&m), Arc::clone(&not_full), Arc::clone(&not_empty));
//! sim.spawn("consumer", move |ctx| {
//!     let got = m3.enter(ctx, |mc| {
//!         while !mc.state(|s| s.full) {
//!             mc.wait(&ne);
//!         }
//!         mc.state(|s| { s.full = false; s.value })
//!     });
//!     assert_eq!(got, 42);
//!     m3.enter(ctx, |mc| mc.signal(&nf));
//! });
//! sim.run().unwrap();
//! ```

use bloom_sim::{Access, Ctx, Deadline, ObjId, Pid, Poisoned, WaitQueue};
use parking_lot::Mutex;
use std::sync::Arc;

/// Signal discipline of a [`Monitor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signaling {
    /// Hoare's signal-and-wait: possession is handed to the signalled
    /// process immediately; the signaller parks on the urgent queue and is
    /// resumed with priority over new entrants. The signalled process may
    /// assume its condition holds.
    Hoare,
    /// Mesa-style signal-and-continue: the signaller keeps possession; the
    /// signalled process is moved to the entry competition and must
    /// re-check its condition on resumption.
    SignalAndContinue,
    /// Howard's signal-and-exit (SR): the signal takes effect when the
    /// signaller *leaves* the monitor, handing possession directly to the
    /// signalled process — the signaller never re-enters, so no urgent
    /// queue is needed and, like Hoare semantics, the signalled condition
    /// is guaranteed to hold on resumption.
    SignalAndExit,
}

/// A condition variable.
///
/// Conditions are free-standing objects used *with* a monitor's
/// [`MonitorCtx`]; creating one per logical predicate ("not full",
/// "not empty") matches Hoare's usage. The interrogation methods implement
/// Hoare's `queue`/`minrank` operations.
#[derive(Debug)]
pub struct Cond {
    queue: WaitQueue,
}

impl Cond {
    /// Creates a condition with a diagnostic name.
    pub fn new(name: &str) -> Self {
        Cond {
            queue: WaitQueue::new(name),
        }
    }

    /// Number of processes waiting on this condition.
    ///
    /// **Explore-unsafe probe**: records no footprint, so a monitor body
    /// that branches on it is invisible to the object-granular prune.
    /// Solution code must use [`Cond::len_ctx`]; this bare form exists
    /// for test assertions and post-run inspection.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Instrumented [`Cond::len`] (footprint-recorded read).
    pub fn len_ctx(&self, ctx: &Ctx) -> usize {
        self.queue.len_ctx(ctx)
    }

    /// Whether no process waits on this condition (Hoare's `¬queue`).
    ///
    /// **Explore-unsafe probe** — see [`Cond::len`]; solution code must
    /// use [`Cond::is_empty_ctx`].
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Instrumented [`Cond::is_empty`] (footprint-recorded read).
    pub fn is_empty_ctx(&self, ctx: &Ctx) -> bool {
        self.queue.is_empty_ctx(ctx)
    }

    /// Priority of the frontmost waiter (Hoare's `minrank`), if any.
    ///
    /// **Explore-unsafe probe** — see [`Cond::len`]; solution code must
    /// use [`Cond::min_priority_ctx`].
    pub fn min_priority(&self) -> Option<i64> {
        self.queue.min_priority()
    }

    /// Instrumented [`Cond::min_priority`] (footprint-recorded read).
    pub fn min_priority_ctx(&self, ctx: &Ctx) -> Option<i64> {
        self.queue.min_priority_ctx(ctx)
    }

    /// The condition's diagnostic name.
    pub fn name(&self) -> &str {
        self.queue.name()
    }
}

/// A monitor protecting state `S`.
///
/// All access to `S` happens inside [`Monitor::enter`], via
/// [`MonitorCtx::state`]; possession (the implicit monitor lock) is held
/// for the duration of the `enter` body except while waiting on a
/// condition.
///
/// # Crash safety
///
/// A process that dies (fault-plan kill or panic) while *holding
/// possession* poisons the monitor: the protected state may be mid-update,
/// so instead of silently wedging everyone behind the dead holder, the
/// monitor records a [`Poisoned`] verdict, dissolves possession, and wakes
/// every entry/urgent waiter plus the waiters of every condition passed to
/// [`Monitor::register_cond`]. Woken processes and later entrants observe
/// the poison: [`Monitor::try_enter`] and [`MonitorCtx::wait_checked`]
/// return it as a value; plain [`Monitor::enter`] and [`MonitorCtx::wait`]
/// panic, keeping the failure loud. A process that dies while *waiting on
/// a condition* (it holds nothing) is merely dequeued — the monitor stays
/// healthy.
#[derive(Debug)]
pub struct Monitor<S> {
    name: String,
    /// Identity for object-granular dependency tracking.
    obj: ObjId,
    signaling: Signaling,
    /// Whether some process currently has possession.
    busy: Mutex<bool>,
    /// Which process has (or was just handed) possession; `None` when open.
    holder: Mutex<Option<Pid>>,
    /// Set when a holder died mid-body; sticky once set.
    poisoned: Mutex<Option<Poisoned>>,
    /// Conditions to broadcast-wake if the monitor is poisoned.
    watched: Mutex<Vec<Arc<Cond>>>,
    entry: WaitQueue,
    urgent: WaitQueue,
    /// Signal-and-exit only: the process the next release hands off to.
    pending_handoff: Mutex<Option<bloom_sim::Pid>>,
    state: Mutex<S>,
}

impl<S: Send> Monitor<S> {
    /// Creates a monitor with the given signal discipline.
    pub fn new(name: &str, signaling: Signaling, initial: S) -> Self {
        Monitor {
            name: name.to_string(),
            obj: ObjId::new("monitor", name),
            signaling,
            busy: Mutex::new(false),
            holder: Mutex::new(None),
            poisoned: Mutex::new(None),
            watched: Mutex::new(Vec::new()),
            entry: WaitQueue::new(&format!("{name}.entry")),
            urgent: WaitQueue::new(&format!("{name}.urgent")),
            pending_handoff: Mutex::new(None),
            state: Mutex::new(initial),
        }
    }

    /// Creates a monitor with Hoare signal-and-wait semantics.
    pub fn hoare(name: &str, initial: S) -> Self {
        Monitor::new(name, Signaling::Hoare, initial)
    }

    /// Creates a monitor with Mesa signal-and-continue semantics.
    pub fn mesa(name: &str, initial: S) -> Self {
        Monitor::new(name, Signaling::SignalAndContinue, initial)
    }

    /// Creates a monitor with Howard signal-and-exit semantics.
    pub fn signal_and_exit(name: &str, initial: S) -> Self {
        Monitor::new(name, Signaling::SignalAndExit, initial)
    }

    /// The monitor's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configured signal discipline.
    pub fn signaling(&self) -> Signaling {
        self.signaling
    }

    /// Runs `body` with possession of the monitor.
    ///
    /// Entry blocks while another process has possession. The body receives
    /// a [`MonitorCtx`] through which it accesses the protected state and
    /// the condition operations.
    ///
    /// # Panics
    ///
    /// Panics if the monitor is poisoned (a previous holder died inside its
    /// body). Use [`Monitor::try_enter`] to handle poisoning as a value.
    pub fn enter<R>(&self, ctx: &Ctx, body: impl FnOnce(&MonitorCtx<'_, S>) -> R) -> R {
        match self.try_enter(ctx, body) {
            Ok(r) => r,
            Err(p) => panic!("{p}"),
        }
    }

    /// Runs `body` with possession, surfacing poisoning instead of
    /// panicking. The body is not entered on a poisoned monitor.
    pub fn try_enter<R>(
        &self,
        ctx: &Ctx,
        body: impl FnOnce(&MonitorCtx<'_, S>) -> R,
    ) -> Result<R, Poisoned> {
        if let Some(p) = self.observe_poison(ctx) {
            return Err(p);
        }
        self.acquire(ctx);
        if let Some(p) = self.observe_poison(ctx) {
            // We were woken by the poison broadcast, not a possession
            // hand-off; there is nothing to release.
            return Err(p);
        }
        let cleanup = PoisonOnUnwind { monitor: self, ctx };
        let mc = MonitorCtx { monitor: self, ctx };
        let r = body(&mc);
        std::mem::forget(cleanup);
        if self.poisoned.lock().is_some() {
            // Possession dissolved while the body waited on a condition
            // (the dying holder broadcast); the body already observed the
            // poison through `wait_checked` and chose its return value.
            return Ok(r);
        }
        self.release(ctx);
        Ok(r)
    }

    /// Registers `cond` for the poison broadcast: if a holder dies, waiters
    /// on registered conditions are woken (and observe the poison) instead
    /// of sleeping forever on a condition nobody will ever signal again.
    pub fn register_cond(&self, cond: &Arc<Cond>) {
        self.watched.lock().push(Arc::clone(cond));
    }

    /// Whether a previous holder died inside the monitor.
    ///
    /// **Explore-unsafe probe** — see [`Cond::len`]; solution code that
    /// branches on poisoning must use [`Monitor::is_poisoned_ctx`].
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.lock().is_some()
    }

    /// Instrumented [`Monitor::is_poisoned`] (footprint-recorded read).
    pub fn is_poisoned_ctx(&self, ctx: &Ctx) -> bool {
        ctx.note_sync_obj_op(&self.obj, Access::Read);
        self.is_poisoned()
    }

    /// Clones the poison verdict, recording the observation in the trace.
    fn observe_poison(&self, ctx: &Ctx) -> Option<Poisoned> {
        // Reads shared state (the poison flag) — and is called at every
        // post-wake point, so it also marks resumed quanta as impure for
        // the explorer (see `Ctx::note_sync_obj`).
        ctx.note_sync_obj_op(&self.obj, Access::Read);
        let p = self.poisoned.lock().clone()?;
        ctx.emit(&format!("poison-seen:{}", self.name), &[]);
        Some(p)
    }

    fn acquire(&self, ctx: &Ctx) {
        ctx.note_sync_obj_op(&self.obj, Access::Write);
        let got = {
            let mut busy = self.busy.lock();
            if *busy {
                false
            } else {
                *busy = true;
                true
            }
        };
        if got {
            *self.holder.lock() = Some(ctx.pid());
        } else {
            // Possession is handed to us directly when we are woken; the
            // busy flag stays true across the hand-off (the releaser also
            // records us as the new holder).
            self.entry.wait(ctx);
        }
    }

    fn release(&self, ctx: &Ctx) {
        ctx.note_sync_obj_op(&self.obj, Access::Write);
        // Signal-and-exit: a deferred signal takes effect now, handing
        // possession straight to the signalled process.
        if let Some(pid) = self.pending_handoff.lock().take() {
            *self.holder.lock() = Some(pid);
            ctx.unpark(pid);
            return; // hand-off: busy stays true
        }
        // Hoare: the urgent queue (paused signallers) beats the entry queue.
        if let Some(pid) = self.urgent.wake_one(ctx) {
            *self.holder.lock() = Some(pid);
            return; // hand-off: busy stays true
        }
        if let Some(pid) = self.entry.wake_one(ctx) {
            *self.holder.lock() = Some(pid);
            return; // hand-off: busy stays true
        }
        *self.busy.lock() = false;
        *self.holder.lock() = None;
    }
}

/// Poisons a [`Monitor`] whose holder's body unwound (kill or panic).
///
/// Armed for the whole `enter` body and disarmed with `mem::forget` on the
/// normal path. The holder check makes the guard a no-op when the process
/// dies *waiting on a condition* — it holds nothing then, and its queue
/// entry is removed by the wait's own unwind guard.
struct PoisonOnUnwind<'a, S> {
    monitor: &'a Monitor<S>,
    ctx: &'a Ctx,
}

impl<S> Drop for PoisonOnUnwind<'_, S> {
    fn drop(&mut self) {
        if self.ctx.cancelling() {
            return;
        }
        if *self.monitor.holder.lock() != Some(self.ctx.pid()) {
            return;
        }
        *self.monitor.poisoned.lock() = Some(Poisoned {
            primitive: self.monitor.name.clone(),
            by: self.ctx.pid(),
        });
        self.ctx.emit(&format!("poison:{}", self.monitor.name), &[]);
        // Dissolve possession and wake everyone so they observe the poison
        // instead of wedging: entry and urgent waiters, a deferred
        // signal-and-exit grantee, and the waiters of registered conditions.
        *self.monitor.busy.lock() = false;
        *self.monitor.holder.lock() = None;
        if let Some(pid) = self.monitor.pending_handoff.lock().take() {
            self.ctx.try_unpark(pid);
        }
        self.monitor.entry.wake_all(self.ctx);
        self.monitor.urgent.wake_all(self.ctx);
        for cond in self.monitor.watched.lock().iter() {
            cond.queue.wake_all(self.ctx);
        }
    }
}

/// Removes the parked process's own queue entry if the park unwinds —
/// a kill-point while waiting on a condition or the urgent queue must not
/// leave a dead entry for a later signal to be wasted on.
struct DequeueOnUnwind<'a> {
    queue: &'a WaitQueue,
    ctx: &'a Ctx,
}

impl Drop for DequeueOnUnwind<'_> {
    fn drop(&mut self) {
        self.queue.remove_current(self.ctx);
    }
}

/// Capability to use a monitor from inside [`Monitor::enter`].
#[derive(Debug)]
pub struct MonitorCtx<'a, S> {
    monitor: &'a Monitor<S>,
    ctx: &'a Ctx,
}

impl<S: Send> MonitorCtx<'_, S> {
    /// Accesses the protected state.
    ///
    /// # Panics
    ///
    /// Panics on re-entrant use (calling `state` inside another `state`
    /// closure, or waiting inside one), which would otherwise deadlock.
    pub fn state<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        // Protected-state access is exactly the kernel-invisible effect
        // the purity analysis must see. `f` takes `&mut S`, so conservatively
        // a write even when the closure only reads.
        self.ctx.note_sync_obj_op(&self.monitor.obj, Access::Write);
        let mut guard = self
            .monitor
            .state
            .try_lock()
            .expect("monitor state re-entered: do not nest state()/wait() calls");
        f(&mut guard)
    }

    /// The simulator context of the process inside the monitor.
    pub fn ctx(&self) -> &Ctx {
        self.ctx
    }

    /// Waits on `cond`, releasing possession until signalled.
    ///
    /// # Panics
    ///
    /// Panics if the wake came from a poison broadcast (the holder died);
    /// use [`MonitorCtx::wait_checked`] to handle that as a value.
    pub fn wait(&self, cond: &Cond) {
        self.wait_priority(cond, 0);
    }

    /// Hoare's conditional wait: waiters are signalled in increasing
    /// `priority` order (FIFO among equals). Panics on a poison wake, like
    /// [`MonitorCtx::wait`].
    pub fn wait_priority(&self, cond: &Cond, priority: i64) {
        if let Err(p) = self.wait_priority_checked(cond, priority) {
            panic!("{p}");
        }
    }

    /// Like [`MonitorCtx::wait`], but a wake caused by the monitor being
    /// poisoned returns the verdict instead of panicking. On `Err` the
    /// caller does *not* have possession and must leave the body promptly.
    pub fn wait_checked(&self, cond: &Cond) -> Result<(), Poisoned> {
        self.wait_priority_checked(cond, 0)
    }

    /// Priority variant of [`MonitorCtx::wait_checked`].
    pub fn wait_priority_checked(&self, cond: &Cond, priority: i64) -> Result<(), Poisoned> {
        // Enqueue, release possession, park: atomic under the cooperative
        // invariant. If we die while parked, the unwind guard removes our
        // entry so a later signal is never wasted on a corpse.
        cond.queue.enqueue_current(self.ctx, priority);
        self.monitor.release(self.ctx);
        let cleanup = DequeueOnUnwind {
            queue: &cond.queue,
            ctx: self.ctx,
        };
        self.ctx.park(cond.queue.name());
        std::mem::forget(cleanup);
        if let Some(p) = self.monitor.observe_poison(self.ctx) {
            return Err(p);
        }
        if self.monitor.signaling == Signaling::SignalAndContinue {
            // Mesa: we were only made runnable; re-contend for possession.
            self.monitor.acquire(self.ctx);
            if let Some(p) = self.monitor.observe_poison(self.ctx) {
                // The holder died while we sat on the entry queue.
                return Err(p);
            }
        }
        // Hoare: possession was handed to us by the signaller.
        Ok(())
    }

    /// Timed [`MonitorCtx::wait`]: waits on `cond` until `deadline` at the
    /// latest. Accepts anything convertible into a [`Deadline`] — a tick
    /// count (`u64`), a `Duration`, or an explicit [`Deadline`]. Returns
    /// `true` if signalled, `false` if the wait timed out. An
    /// already-expired deadline returns `false` immediately — possession is
    /// never released and no scheduling point is consumed.
    ///
    /// On timeout the waiter *withdraws*: it removes its condition
    /// registration and re-enters like a fresh entrant, so the body resumes
    /// with possession either way and the monitor invariant is preserved.
    /// A signal that raced the timeout and skipped the stale entry falls
    /// through to the next waiter (or becomes a no-op) exactly as a
    /// release-time rescan would. Mesa callers must re-check their
    /// predicate on *both* return values, as always.
    ///
    /// # Panics
    ///
    /// Panics on a poison wake (use [`MonitorCtx::wait_by_checked`]) and
    /// under [`Signaling::SignalAndExit`], whose deferred hand-off cannot
    /// be withdrawn once granted.
    pub fn wait_by(&self, cond: &Cond, deadline: impl Into<Deadline>) -> bool {
        match self.wait_by_checked(cond, deadline) {
            Ok(signalled) => signalled,
            Err(p) => panic!("{p}"),
        }
    }

    /// Like [`MonitorCtx::wait_by`], but a poison wake (or a poisoning
    /// discovered while re-entering after a timeout) is returned as a value.
    /// On `Err` the caller does *not* have possession and must leave the
    /// body promptly. An expired deadline returns `Ok(false)` without a
    /// poison check — possession was never released, so the caller's view
    /// of the monitor is unchanged.
    pub fn wait_by_checked(
        &self,
        cond: &Cond,
        deadline: impl Into<Deadline>,
    ) -> Result<bool, Poisoned> {
        assert!(
            self.monitor.signaling != Signaling::SignalAndExit,
            "timed waits are not supported under signal-and-exit semantics: \
             a deferred hand-off cannot be withdrawn"
        );
        let Some(ticks) = self.ctx.remaining(deadline) else {
            return Ok(false);
        };
        cond.queue.enqueue_current(self.ctx, 0);
        self.monitor.release(self.ctx);
        let cleanup = DequeueOnUnwind {
            queue: &cond.queue,
            ctx: self.ctx,
        };
        let woken = self.ctx.park_timeout(cond.queue.name(), ticks);
        std::mem::forget(cleanup);
        if !woken {
            // Withdraw: remove the stale registration (idempotent — a
            // signaller may already have skipped past it) and re-acquire
            // possession as a fresh entrant.
            cond.queue.remove_current(self.ctx);
            self.monitor.acquire(self.ctx);
            if let Some(p) = self.monitor.observe_poison(self.ctx) {
                return Err(p);
            }
            return Ok(false);
        }
        if let Some(p) = self.monitor.observe_poison(self.ctx) {
            return Err(p);
        }
        if self.monitor.signaling == Signaling::SignalAndContinue {
            // Mesa: we were only made runnable; re-contend for possession.
            self.monitor.acquire(self.ctx);
            if let Some(p) = self.monitor.observe_poison(self.ctx) {
                return Err(p);
            }
        }
        Ok(true)
    }

    /// Signals `cond`: resumes its frontmost waiter, if any.
    ///
    /// Under Hoare semantics possession passes to the signalled process and
    /// the signaller parks on the urgent queue; under Mesa semantics the
    /// signalled process simply becomes runnable and will re-enter later.
    /// Signalling an empty condition is a no-op in both disciplines.
    ///
    /// # Panics
    ///
    /// Panics under Hoare semantics if the signalled process dies with
    /// possession before handing it back (the urgent-queue wake is then a
    /// poison broadcast); use [`MonitorCtx::signal_checked`] to handle
    /// that as a value.
    pub fn signal(&self, cond: &Cond) {
        if let Err(p) = self.signal_checked(cond) {
            panic!("{p}");
        }
    }

    /// Like [`MonitorCtx::signal`], but a Hoare signaller woken by the
    /// poison broadcast of a dying signallee gets the verdict back instead
    /// of panicking. On `Err` the caller does *not* have possession and
    /// must leave the body promptly. Mesa and signal-and-exit signallers
    /// never park, so they always return `Ok`.
    pub fn signal_checked(&self, cond: &Cond) -> Result<(), Poisoned> {
        // The empty-queue probes below are ctx-less and kernel-invisible.
        self.ctx.note_sync_obj_op(&self.monitor.obj, Access::Write);
        match self.monitor.signaling {
            Signaling::Hoare => {
                if cond.queue.is_empty() {
                    return Ok(());
                }
                // Step aside for the signalled process: enqueue ourselves
                // urgent, wake it (hand-off), park.
                self.monitor.urgent.enqueue_current(self.ctx, 0);
                let Some(pid) = cond.queue.wake_one(self.ctx) else {
                    // Every entry was stale — timed-out waiters that have
                    // not yet withdrawn (see `wait_by_checked`). The
                    // signal is a no-op after all; take back the urgent
                    // registration and keep possession.
                    self.monitor.urgent.remove_current(self.ctx);
                    return Ok(());
                };
                *self.monitor.holder.lock() = Some(pid);
                let cleanup = DequeueOnUnwind {
                    queue: &self.monitor.urgent,
                    ctx: self.ctx,
                };
                self.ctx.park(self.monitor.urgent.name());
                std::mem::forget(cleanup);
                // Resumed: possession handed back to us — unless the wake
                // was the poison broadcast of a dying holder.
                if let Some(p) = self.monitor.observe_poison(self.ctx) {
                    return Err(p);
                }
            }
            Signaling::SignalAndContinue => {
                cond.queue.wake_one(self.ctx);
            }
            Signaling::SignalAndExit => {
                if cond.queue.is_empty() {
                    return Ok(());
                }
                // Defer the hand-off to the moment we leave the monitor:
                // take the waiter off the condition but leave it parked.
                let pid = cond.queue.take_front().expect("non-empty condition");
                let mut pending = self.monitor.pending_handoff.lock();
                assert!(
                    pending.is_none(),
                    "signal-and-exit permits one effective signal per monitor entry"
                );
                *pending = Some(pid);
            }
        }
        Ok(())
    }

    /// Wakes every waiter on `cond` (broadcast).
    ///
    /// # Panics
    ///
    /// Panics under [`Signaling::Hoare`]: broadcast is meaningless when
    /// possession is handed to exactly one signalled process.
    pub fn signal_all(&self, cond: &Cond) {
        assert!(
            self.monitor.signaling == Signaling::SignalAndContinue,
            "signal_all requires signal-and-continue semantics"
        );
        cond.queue.wake_all(self.ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bloom_sim::{RandomPolicy, Sim};
    use std::sync::Arc;

    #[test]
    fn enter_bodies_are_mutually_exclusive() {
        for signaling in [Signaling::Hoare, Signaling::SignalAndContinue] {
            let mut sim = Sim::new();
            let m = Arc::new(Monitor::new("m", signaling, (0u32, 0u32)));
            for i in 0..5 {
                let m = Arc::clone(&m);
                sim.spawn(&format!("w{i}"), move |ctx| {
                    for _ in 0..3 {
                        m.enter(ctx, |mc| {
                            mc.state(|s| {
                                s.0 += 1;
                                s.1 = s.1.max(s.0);
                            });
                            // Possession is held across scheduling points.
                            mc.ctx().yield_now();
                            mc.state(|s| s.0 -= 1);
                        });
                        ctx.yield_now();
                    }
                });
            }
            // Occupancy may only ever be 1: the yield inside the body would
            // expose any exclusion failure.
            let m2 = Arc::clone(&m);
            sim.run().unwrap();
            assert_eq!(m2.state.lock().1, 1, "{signaling:?}: exclusion violated");
        }
    }

    /// Hoare signal hands possession straight to the signalled process: it
    /// runs before the signaller's post-signal code.
    #[test]
    fn hoare_signal_passes_possession_immediately() {
        let mut sim = Sim::new();
        let m = Arc::new(Monitor::hoare("m", false));
        let c = Arc::new(Cond::new("c"));
        let order = Arc::new(Mutex::new(Vec::new()));

        let (m1, c1, o1) = (Arc::clone(&m), Arc::clone(&c), Arc::clone(&order));
        sim.spawn("waiter", move |ctx| {
            m1.enter(ctx, |mc| {
                if !mc.state(|s| *s) {
                    mc.wait(&c1);
                }
                // Hoare guarantee: no re-check loop needed.
                assert!(mc.state(|s| *s), "condition must hold at wake (Hoare)");
                o1.lock().push("waiter-resumed");
            });
        });
        let (m2, c2, o2) = (Arc::clone(&m), Arc::clone(&c), Arc::clone(&order));
        sim.spawn("signaller", move |ctx| {
            ctx.yield_now(); // let the waiter park
            m2.enter(ctx, |mc| {
                mc.state(|s| *s = true);
                o2.lock().push("pre-signal");
                mc.signal(&c2);
                o2.lock().push("post-signal");
            });
        });
        sim.run().unwrap();
        assert_eq!(
            *order.lock(),
            vec!["pre-signal", "waiter-resumed", "post-signal"],
            "signalled process runs before the signaller continues"
        );
    }

    /// Mesa signal-and-continue: the signaller finishes its body first.
    #[test]
    fn mesa_signaller_continues_before_waiter() {
        let mut sim = Sim::new();
        let m = Arc::new(Monitor::mesa("m", false));
        let c = Arc::new(Cond::new("c"));
        let order = Arc::new(Mutex::new(Vec::new()));

        let (m1, c1, o1) = (Arc::clone(&m), Arc::clone(&c), Arc::clone(&order));
        sim.spawn("waiter", move |ctx| {
            m1.enter(ctx, |mc| {
                while !mc.state(|s| *s) {
                    mc.wait(&c1);
                }
                o1.lock().push("waiter-resumed");
            });
        });
        let (m2, c2, o2) = (Arc::clone(&m), Arc::clone(&c), Arc::clone(&order));
        sim.spawn("signaller", move |ctx| {
            ctx.yield_now();
            m2.enter(ctx, |mc| {
                mc.state(|s| *s = true);
                mc.signal(&c2);
                o2.lock().push("post-signal");
            });
        });
        sim.run().unwrap();
        assert_eq!(*order.lock(), vec!["post-signal", "waiter-resumed"]);
    }

    /// Under Mesa semantics a barger can invalidate the signalled
    /// condition, so the while-loop re-check is *required*: the waiter
    /// observes the condition false again and waits a second time.
    #[test]
    fn mesa_requires_recheck_after_barging() {
        let mut sim = Sim::new();
        let m = Arc::new(Monitor::mesa("m", 0i64)); // tokens available
        let c = Arc::new(Cond::new("tokens"));
        let waits = Arc::new(Mutex::new(0u32));

        let (m1, c1, w1) = (Arc::clone(&m), Arc::clone(&c), Arc::clone(&waits));
        sim.spawn("waiter", move |ctx| {
            m1.enter(ctx, |mc| {
                while mc.state(|s| *s) == 0 {
                    *w1.lock() += 1;
                    mc.wait(&c1);
                }
                mc.state(|s| *s -= 1);
            });
        });
        let (m2, c2) = (Arc::clone(&m), Arc::clone(&c));
        sim.spawn("producer", move |ctx| {
            ctx.yield_now(); // waiter parks
            m2.enter(ctx, |mc| {
                mc.state(|s| *s += 1);
                mc.signal(&c2);
            });
            // The waiter is runnable but has not re-entered yet.
        });
        let m3 = Arc::clone(&m);
        sim.spawn("barger", move |ctx| {
            ctx.yield_now();
            // Runs after the producer released but, under FIFO, before the
            // signalled waiter re-acquires: steals the token.
            m3.enter(ctx, |mc| {
                mc.state(|s| {
                    if *s > 0 {
                        *s -= 1;
                    }
                });
            });
        });
        let (m4, c4) = (Arc::clone(&m), Arc::clone(&c));
        sim.spawn("producer2", move |ctx| {
            for _ in 0..6 {
                ctx.yield_now();
            }
            m4.enter(ctx, |mc| {
                mc.state(|s| *s += 1);
                mc.signal(&c4);
            });
        });
        sim.run().unwrap();
        assert_eq!(
            *waits.lock(),
            2,
            "waiter had to wait twice (barging stole the token)"
        );
        assert_eq!(
            *m.state.lock(),
            0,
            "exactly the two produced tokens were consumed"
        );
    }

    #[test]
    fn signal_on_empty_condition_is_noop() {
        for signaling in [Signaling::Hoare, Signaling::SignalAndContinue] {
            let mut sim = Sim::new();
            let m = Arc::new(Monitor::new("m", signaling, ()));
            let c = Arc::new(Cond::new("c"));
            let (m1, c1) = (Arc::clone(&m), Arc::clone(&c));
            sim.spawn("solo", move |ctx| {
                m1.enter(ctx, |mc| {
                    mc.signal(&c1);
                    mc.ctx().emit("survived", &[]);
                });
            });
            let report = sim.run().unwrap();
            assert_eq!(report.trace.count_user("survived"), 1);
        }
    }

    #[test]
    fn priority_wait_orders_wakeups_by_rank() {
        let mut sim = Sim::new();
        let m = Arc::new(Monitor::hoare("m", ()));
        let c = Arc::new(Cond::new("ranked"));
        let order = Arc::new(Mutex::new(Vec::new()));
        for (i, rank) in [(0, 30i64), (1, 10), (2, 20)] {
            let (m, c, order) = (Arc::clone(&m), Arc::clone(&c), Arc::clone(&order));
            sim.spawn(&format!("w{i}"), move |ctx| {
                m.enter(ctx, |mc| {
                    mc.wait_priority(&c, rank);
                    order.lock().push(rank);
                });
            });
        }
        let (m2, c2) = (Arc::clone(&m), Arc::clone(&c));
        sim.spawn("drain", move |ctx| {
            for _ in 0..4 {
                ctx.yield_now();
            }
            assert_eq!(c2.min_priority(), Some(10));
            for _ in 0..3 {
                m2.enter(ctx, |mc| mc.signal(&c2));
            }
        });
        sim.run().unwrap();
        assert_eq!(*order.lock(), vec![10, 20, 30]);
    }

    /// The urgent queue: a Hoare signaller resumes before processes waiting
    /// on the entry queue.
    #[test]
    fn urgent_queue_beats_entry_queue() {
        let mut sim = Sim::new();
        let m = Arc::new(Monitor::hoare("m", ()));
        let c = Arc::new(Cond::new("c"));
        let order = Arc::new(Mutex::new(Vec::new()));

        let (m1, c1, o1) = (Arc::clone(&m), Arc::clone(&c), Arc::clone(&order));
        sim.spawn("waiter", move |ctx| {
            m1.enter(ctx, |mc| {
                mc.wait(&c1);
                o1.lock().push("waiter");
            });
        });
        let (m2, c2, o2) = (Arc::clone(&m), Arc::clone(&c), Arc::clone(&order));
        sim.spawn("signaller", move |ctx| {
            ctx.yield_now();
            m2.enter(ctx, |mc| {
                mc.signal(&c2);
                o2.lock().push("signaller-resumed");
            });
        });
        let (m3, o3) = (Arc::clone(&m), Arc::clone(&order));
        sim.spawn("entrant", move |ctx| {
            ctx.yield_now();
            ctx.yield_now();
            // Arrives while the signaller is inside: parks on entry.
            m3.enter(ctx, |_| {
                o3.lock().push("entrant");
            });
        });
        sim.run().unwrap();
        assert_eq!(
            *order.lock(),
            vec!["waiter", "signaller-resumed", "entrant"],
            "urgent (signaller) resumes before the entry queue"
        );
    }

    #[test]
    fn signal_all_broadcasts_under_mesa() {
        let mut sim = Sim::new();
        let m = Arc::new(Monitor::mesa("m", true));
        let c = Arc::new(Cond::new("gate"));
        let through = Arc::new(Mutex::new(0));
        for i in 0..4 {
            let (m, c, t) = (Arc::clone(&m), Arc::clone(&c), Arc::clone(&through));
            sim.spawn(&format!("w{i}"), move |ctx| {
                m.enter(ctx, |mc| {
                    while mc.state(|closed| *closed) {
                        mc.wait(&c);
                    }
                    *t.lock() += 1;
                });
            });
        }
        let (m2, c2) = (Arc::clone(&m), Arc::clone(&c));
        sim.spawn("opener", move |ctx| {
            for _ in 0..5 {
                ctx.yield_now();
            }
            m2.enter(ctx, |mc| {
                mc.state(|closed| *closed = false);
                mc.signal_all(&c2);
            });
        });
        sim.run().unwrap();
        assert_eq!(*through.lock(), 4);
    }

    #[test]
    fn signal_all_panics_under_hoare() {
        let mut sim = Sim::new();
        let m = Arc::new(Monitor::hoare("m", ()));
        let c = Arc::new(Cond::new("c"));
        sim.spawn("offender", move |ctx| {
            m.enter(ctx, |mc| mc.signal_all(&c));
        });
        let err = sim.run().expect_err("must fail");
        assert!(
            err.to_string().contains("signal_and_continue")
                || err.to_string().contains("signal-and-continue")
        );
    }

    /// Howard's signal-and-exit: the signal takes effect at monitor exit,
    /// the signalled process resumes with the condition guaranteed (like
    /// Hoare), and the signaller never waits on an urgent queue.
    #[test]
    fn signal_and_exit_hands_off_at_release() {
        let mut sim = Sim::new();
        let m = Arc::new(Monitor::signal_and_exit("m", false));
        let c = Arc::new(Cond::new("c"));
        let order = Arc::new(Mutex::new(Vec::new()));

        let (m1, c1, o1) = (Arc::clone(&m), Arc::clone(&c), Arc::clone(&order));
        sim.spawn("waiter", move |ctx| {
            m1.enter(ctx, |mc| {
                if !mc.state(|s| *s) {
                    mc.wait(&c1);
                }
                assert!(mc.state(|s| *s), "condition guaranteed at wake (SR)");
                o1.lock().push("waiter-resumed");
            });
        });
        let (m2, c2, o2) = (Arc::clone(&m), Arc::clone(&c), Arc::clone(&order));
        sim.spawn("signaller", move |ctx| {
            ctx.yield_now();
            m2.enter(ctx, |mc| {
                mc.state(|s| *s = true);
                mc.signal(&c2);
                // Unlike Hoare, the signaller keeps running: the hand-off
                // happens only when this body returns.
                o2.lock().push("post-signal-still-inside");
            });
            o2.lock().push("signaller-left");
        });
        sim.run().unwrap();
        assert_eq!(
            *order.lock(),
            vec![
                "post-signal-still-inside",
                "signaller-left",
                "waiter-resumed"
            ],
            "the signal takes effect at exit, not at the signal statement"
        );
    }

    /// Signal-and-exit hand-off beats the entry queue, like the urgent
    /// queue does under Hoare semantics.
    #[test]
    fn signal_and_exit_handoff_beats_entry_queue() {
        let mut sim = Sim::new();
        let m = Arc::new(Monitor::signal_and_exit("m", ()));
        let c = Arc::new(Cond::new("c"));
        let order = Arc::new(Mutex::new(Vec::new()));
        let (m1, c1, o1) = (Arc::clone(&m), Arc::clone(&c), Arc::clone(&order));
        sim.spawn("waiter", move |ctx| {
            m1.enter(ctx, |mc| {
                mc.wait(&c1);
                o1.lock().push("waiter");
            });
        });
        let (m2, c2) = (Arc::clone(&m), Arc::clone(&c));
        sim.spawn("signaller", move |ctx| {
            ctx.yield_now();
            m2.enter(ctx, |mc| mc.signal(&c2));
        });
        let (m3, o3) = (Arc::clone(&m), Arc::clone(&order));
        sim.spawn("entrant", move |ctx| {
            ctx.yield_now();
            ctx.yield_now();
            m3.enter(ctx, |_| o3.lock().push("entrant"));
        });
        sim.run().unwrap();
        assert_eq!(*order.lock(), vec!["waiter", "entrant"]);
    }

    #[test]
    fn signal_and_exit_rejects_two_signals_per_entry() {
        let mut sim = Sim::new();
        let m = Arc::new(Monitor::signal_and_exit("m", ()));
        let c = Arc::new(Cond::new("c"));
        for i in 0..2 {
            let (m, c) = (Arc::clone(&m), Arc::clone(&c));
            sim.spawn(&format!("w{i}"), move |ctx| {
                m.enter(ctx, |mc| mc.wait(&c));
            });
        }
        let (m2, c2) = (Arc::clone(&m), Arc::clone(&c));
        sim.spawn("offender", move |ctx| {
            for _ in 0..3 {
                ctx.yield_now();
            }
            m2.enter(ctx, |mc| {
                mc.signal(&c2);
                mc.signal(&c2); // second effective signal: error
            });
        });
        let err = sim.run().expect_err("double signal must fail");
        assert!(err.to_string().contains("one effective signal"));
    }

    /// Lister's nested monitor call problem (paper §5.2, [12]/[18]): waiting
    /// inside an inner monitor while holding an outer one deadlocks, because
    /// the outer monitor is not released.
    #[test]
    fn nested_monitor_call_deadlocks() {
        let mut sim = Sim::new();
        let outer = Arc::new(Monitor::hoare("outer", ()));
        let inner = Arc::new(Monitor::hoare("inner", false));
        let c = Arc::new(Cond::new("inner-cond"));

        let (o1, i1, c1) = (Arc::clone(&outer), Arc::clone(&inner), Arc::clone(&c));
        sim.spawn("nester", move |ctx| {
            o1.enter(ctx, |_| {
                i1.enter(ctx, |imc| {
                    while !imc.state(|s| *s) {
                        imc.wait(&c1); // releases inner, but NOT outer
                    }
                });
            });
        });
        let (o2, i2, c2) = (Arc::clone(&outer), Arc::clone(&inner), Arc::clone(&c));
        sim.spawn("helper", move |ctx| {
            ctx.yield_now();
            // Must pass through the outer monitor to reach the inner one,
            // exactly as in the hierarchically structured resource case.
            o2.enter(ctx, |_| {
                i2.enter(ctx, |imc| {
                    imc.state(|s| *s = true);
                    imc.signal(&c2);
                });
            });
        });
        let err = sim.run().expect_err("nested monitor call must deadlock");
        assert!(err.is_deadlock());
    }

    #[test]
    fn conditions_hold_under_random_schedules() {
        // Bounded-counter producer/consumer, 10 random seeds: the counter
        // never exceeds the bound or goes negative.
        for seed in 0..10 {
            let mut sim = Sim::new();
            sim.set_policy(RandomPolicy::new(seed));
            let m = Arc::new(Monitor::hoare("m", 0i64));
            let not_full = Arc::new(Cond::new("nf"));
            let not_empty = Arc::new(Cond::new("ne"));
            const BOUND: i64 = 3;
            for p in 0..2 {
                let (m, nf, ne) = (
                    Arc::clone(&m),
                    Arc::clone(&not_full),
                    Arc::clone(&not_empty),
                );
                sim.spawn(&format!("prod{p}"), move |ctx| {
                    for _ in 0..10 {
                        m.enter(ctx, |mc| {
                            while mc.state(|n| *n) >= BOUND {
                                mc.wait(&nf);
                            }
                            mc.state(|n| {
                                *n += 1;
                                assert!(*n <= BOUND);
                            });
                            mc.signal(&ne);
                        });
                    }
                });
            }
            for c in 0..2 {
                let (m, nf, ne) = (
                    Arc::clone(&m),
                    Arc::clone(&not_full),
                    Arc::clone(&not_empty),
                );
                sim.spawn(&format!("cons{c}"), move |ctx| {
                    for _ in 0..10 {
                        m.enter(ctx, |mc| {
                            while mc.state(|n| *n) == 0 {
                                mc.wait(&ne);
                            }
                            mc.state(|n| {
                                *n -= 1;
                                assert!(*n >= 0);
                            });
                            mc.signal(&nf);
                        });
                    }
                });
            }
            sim.run().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(*m.state.lock(), 0);
        }
    }

    /// Timed-wait withdrawal under both withdrawal-capable disciplines: a
    /// consumer whose condition is never signalled times out, re-acquires
    /// possession, reads consistent state, and the monitor keeps working
    /// for later entrants.
    #[test]
    fn wait_by_withdraws_and_reacquires() {
        for signaling in [Signaling::Hoare, Signaling::SignalAndContinue] {
            let mut sim = Sim::new();
            let m = Arc::new(Monitor::new("buf", signaling, 0u32));
            let nonzero = Arc::new(Cond::new("nonzero"));
            let (m2, c2) = (Arc::clone(&m), Arc::clone(&nonzero));
            sim.spawn("consumer", move |ctx| {
                let got = m2.enter(ctx, |mc| {
                    let signalled = mc.wait_by(&c2, 3u64);
                    assert!(!signalled, "nobody signals");
                    mc.state(|s| *s)
                });
                assert_eq!(got, 0);
            });
            let m3 = Arc::clone(&m);
            sim.spawn("late-entrant", move |ctx| {
                ctx.sleep(10);
                m3.enter(ctx, |mc| mc.state(|s| *s += 1));
            });
            sim.run().unwrap_or_else(|e| panic!("{signaling:?}: {e}"));
            assert_eq!(*m.state.lock(), 1, "{signaling:?}: monitor still works");
            assert!(nonzero.is_empty(), "{signaling:?}: no leaked registration");
        }
    }

    /// A signal delivered before the timeout elapses wins the race: the
    /// timed waiter reports `true` and (Hoare) resumes with the signalled
    /// condition guaranteed.
    #[test]
    fn signal_beats_timeout() {
        for signaling in [Signaling::Hoare, Signaling::SignalAndContinue] {
            let mut sim = Sim::new();
            let m = Arc::new(Monitor::new("m", signaling, false));
            let ready = Arc::new(Cond::new("ready"));
            let (m2, c2) = (Arc::clone(&m), Arc::clone(&ready));
            sim.spawn("waiter", move |ctx| {
                m2.enter(ctx, |mc| {
                    let signalled = mc.wait_by(&c2, 100u64);
                    assert!(signalled);
                    assert!(mc.state(|s| *s), "state updated by the signaller");
                });
            });
            let (m3, c3) = (Arc::clone(&m), Arc::clone(&ready));
            sim.spawn("signaller", move |ctx| {
                ctx.yield_now();
                m3.enter(ctx, |mc| {
                    mc.state(|s| *s = true);
                    mc.signal(&c3);
                });
            });
            sim.run().unwrap_or_else(|e| panic!("{signaling:?}: {e}"));
        }
    }

    /// The timeout-vs-signal race, explored exhaustively: across *every*
    /// schedule a Hoare signaller may find the condition queue holding only
    /// a stale (timed-out, not yet withdrawn) entry. The no-op-signal path
    /// must keep possession with the signaller, never panic, and never leak
    /// a registration (the kernel's end-of-run hygiene assertion checks the
    /// latter on each schedule).
    #[test]
    fn stale_signal_race_explored_exhaustively() {
        let (_, stats) = bloom_sim::ExploreConfig::new(20_000).run(
            || {
                let mut sim = Sim::new();
                let m = Arc::new(Monitor::hoare("m", 0u32));
                let c = Arc::new(Cond::new("c"));
                let (m2, c2) = (Arc::clone(&m), Arc::clone(&c));
                sim.spawn("timed-waiter", move |ctx| {
                    m2.enter(ctx, |mc| {
                        mc.wait_by(&c2, 2u64);
                        mc.state(|s| *s += 1);
                    });
                });
                let (m3, c3) = (Arc::clone(&m), Arc::clone(&c));
                sim.spawn("signaller", move |ctx| {
                    ctx.sleep(3); // straddles the waiter's timeout
                    m3.enter(ctx, |mc| {
                        mc.signal(&c3);
                        mc.state(|s| *s += 1);
                    });
                });
                sim
            },
            |decisions, result| {
                let report = result
                    .as_ref()
                    .unwrap_or_else(|e| panic!("schedule {decisions:?}: {e}"));
                for p in &report.processes {
                    assert_eq!(
                        p.status,
                        bloom_sim::ProcessStatus::Finished,
                        "schedule {decisions:?}: {} did not finish",
                        p.name
                    );
                }
            },
        );
        assert!(stats.complete, "decision space fully explored");
    }
}
