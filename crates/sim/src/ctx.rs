//! The per-process kernel handle.

use crate::baton::{Baton, Go, Report};
use crate::footprint::{Access, ObjId};
use crate::kernel::{obey, stop_process, Cancelled, ProcessStatus, Shared, StopOutcome, TimerKind};
use crate::metrics::SimMetrics;
use crate::symbolic::SymValue;
use crate::trace::EventKind;
use crate::types::{Deadline, Pid, Time};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Handle through which a simulated process interacts with the kernel.
///
/// Every process closure receives a `&Ctx`. All blocking primitives in the
/// mechanism crates take a `&Ctx` argument; the handle identifies *which*
/// process is performing the operation and gives access to the shared kernel.
pub struct Ctx {
    shared: Arc<Shared>,
    pid: Pid,
    /// This process's baton: every stop waits on it for the next command,
    /// so it travels with the handle rather than being looked up under the
    /// state lock.
    baton: Arc<Baton<Go>>,
}

impl Ctx {
    pub(crate) fn new(shared: Arc<Shared>, pid: Pid, baton: Arc<Baton<Go>>) -> Self {
        Ctx { shared, pid, baton }
    }

    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// This process's id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// This process's spawn-time name.
    pub fn name(&self) -> String {
        self.shared.state.lock().procs[self.pid.index()]
            .name
            .clone()
    }

    /// Current virtual time.
    ///
    /// Reading the clock is an observable effect: commuting two quanta
    /// shifts the timestamps between them, so a process that branches on
    /// `now()` voids the explorers' equivalence prune for the whole run
    /// (see [`crate::SimReport::prune_safe`]).
    pub fn now(&self) -> Time {
        self.note_sync();
        let mut st = self.shared.state.lock();
        st.prune_safe = false;
        st.clock
    }

    /// A [`Deadline`] `ticks` quanta from now. Convenience for the timed
    /// mechanism APIs that take absolute deadlines.
    pub fn deadline_after(&self, ticks: u64) -> Deadline {
        Deadline::after(self.now(), ticks)
    }

    /// Resolves a deadline into a wait budget: `Some(ticks)` of budget
    /// left, `None` if the deadline has already expired (the caller must
    /// not park at all — fail fast instead).
    ///
    /// A relative deadline ([`Deadline::within`], or a bare `u64`/
    /// `Duration`) resolves without reading the clock, so it never voids
    /// the explorers' equivalence prune; an absolute one reads
    /// [`Ctx::now`] and therefore does (see [`Ctx::now`]).
    pub fn remaining(&self, deadline: impl Into<Deadline>) -> Option<u64> {
        let deadline = deadline.into();
        match deadline.absolute() {
            Some(_) => deadline.remaining(self.now()),
            None => deadline.remaining(Time::ZERO),
        }
    }

    /// Whether the simulation is shutting down (daemons being cancelled).
    ///
    /// Crash-safety drop guards in the mechanism crates consult this: a
    /// shutdown unwind is not a crash, and because cancelled threads unwind
    /// *concurrently*, guards must not touch kernel state or the trace
    /// then. Pure own-entry queue cleanup remains safe either way.
    pub fn cancelling(&self) -> bool {
        self.note_sync();
        self.shared.cancelling.load(Ordering::SeqCst)
    }

    /// Draws a fresh, strictly increasing ticket. Mechanisms use tickets to
    /// implement FIFO ordering (e.g. arrival order of requests).
    ///
    /// Ticket draws write the shared `"ticket"` pseudo-object: mechanisms
    /// compare ticket *values* across queues (a serializer picks the
    /// lowest front ticket over all its queues, a channel select takes
    /// the oldest offer), so two quanta that both draw tickets must not
    /// be commuted — swapping the draws swaps the values and can swap a
    /// later arbitration.
    pub fn fresh_ticket(&self) -> u64 {
        self.mark_obj(&self.shared.ticket_obj, Access::Write);
        self.shared.fresh_ticket()
    }

    /// Marks the current quantum as having touched synchronization state
    /// the kernel cannot observe.
    ///
    /// The explorers' equivalence prune treats a quantum whose footprint
    /// is empty as touching nothing, so it races with no other quantum.
    /// Mechanism state lives outside the kernel — a semaphore's fast path
    /// decrements a counter under its own mutex without ever entering the
    /// kernel — so every mechanism operation that reads or writes such
    /// state must call this (or [`Ctx::note_sync_obj`]) before doing so;
    /// over-marking is always safe (it only weakens pruning),
    /// under-marking makes the prune unsound. Operations that do not take
    /// a `&Ctx` (e.g. `WaitQueue::len`) cannot be marked: scenarios that
    /// let such calls influence control flow between scheduling points
    /// must not enable pruning.
    ///
    /// This is the conservative fallback of the footprint contract: it
    /// marks the quantum as touching *everything*
    /// ([`crate::Quantum::is_all`]). Mechanisms that know which object they
    /// touched should call [`Ctx::note_sync_obj`] instead, which keeps the
    /// object-granular race analysis effective (see `DESIGN.md` §2.10).
    pub fn note_sync(&self) {
        self.shared.quantum_all.store(true, Ordering::Relaxed);
    }

    /// Marks the current quantum as having accessed one synchronization
    /// object. Object-granular refinement of [`Ctx::note_sync`]: the
    /// kernel records the per-quantum footprint, and the explorers reverse
    /// the order of two quanta only when their footprints conflict (they
    /// share an object and at least one writes it).
    ///
    /// Use `Access::Write` whenever the operation may change the object's
    /// state *or* branches on it in a way later writes could invalidate;
    /// `Access::Read` only for pure probes whose result the caller treats
    /// as a momentary hint. Over-marking (wider access, more objects, or
    /// falling back to [`Ctx::note_sync`]) is always safe.
    pub fn note_sync_obj(&self, obj: &ObjId, access: Access) {
        self.mark_obj(obj, access);
    }

    /// [`Ctx::note_sync_obj`], plus a per-mechanism operation count in
    /// [`crate::SimMetrics::sync_ops`] under the object's kind prefix.
    ///
    /// The mechanism crates call this at the call sites that already had
    /// to report a footprint, so the metric rides an existing
    /// instrumentation point and adds **no new scheduling points**:
    /// incrementing a counter is not a kernel operation, does not stop the
    /// quantum, and is never read back by the scheduler.
    pub fn note_sync_obj_op(&self, obj: &ObjId, access: Access) {
        let mut st = self.shared.state.lock();
        st.mark_obj(obj, access);
        SimMetrics::bump(&mut st.metrics.sync_ops, obj.kind());
    }

    /// [`Ctx::note_sync`], plus a per-mechanism operation count in
    /// [`crate::SimMetrics::sync_ops`] under `mechanism`. Conservative
    /// sibling of [`Ctx::note_sync_obj_op`] for operations with no single
    /// identifiable object.
    pub fn note_sync_op(&self, mechanism: &str) {
        self.note_sync();
        let mut st = self.shared.state.lock();
        SimMetrics::bump(&mut st.metrics.sync_ops, mechanism);
    }

    /// Records an access to `obj` in the current quantum's footprint (when
    /// the footprint log is recorded).
    fn mark_obj(&self, obj: &ObjId, access: Access) {
        self.shared.state.lock().mark_obj(obj, access);
    }

    /// Ends the current quantum with a yield or a sleep and waits until
    /// the kernel lets this process run again; a shutdown cancellation
    /// unwinds.
    fn stop_or_unwind(&self, report: Report<'_>) {
        self.unwind_if_cancelled();
        let resumed = match stop_process(&self.shared, self.pid, report) {
            // Picked right back at our own stop: after a yield the
            // policy's choice, after a sleep our own timer firing with
            // nobody else ready.
            StopOutcome::SelfResume => Ok(()),
            StopOutcome::Handed => obey(self.baton.take()),
        };
        if let Err(cancelled) = resumed {
            cancelled.unwind();
        }
    }

    /// Unwinds if shutdown has begun. Only cancelled processes run then,
    /// so the caller was handed [`Cancelled`] once, ignored it, and is
    /// about to block again with no scheduler left to stop to.
    fn unwind_if_cancelled(&self) {
        if self.shared.cancelling.load(Ordering::SeqCst) {
            Cancelled.unwind();
        }
    }

    /// Gives up the CPU; the process stays runnable and will be rescheduled
    /// according to the policy.
    pub fn yield_now(&self) {
        self.stop_or_unwind(Report::Yielded);
    }

    /// Sleeps for `ticks` quanta of virtual time.
    ///
    /// Sleeping zero ticks is equivalent to [`Ctx::yield_now`].
    pub fn sleep(&self, ticks: u64) {
        if ticks == 0 {
            self.yield_now();
            return;
        }
        self.stop_or_unwind(Report::Slept { ticks });
    }

    /// Parks this process until another process calls [`Ctx::unpark`] on it.
    ///
    /// `reason` is recorded in the trace and shown in deadlock diagnostics.
    /// Mechanism crates call this *after* registering the process on their
    /// own wait queue; thanks to the cooperative invariant the
    /// register-then-park sequence is atomic with respect to other processes.
    ///
    /// A shutdown cancellation unwinds the process (payload [`Cancelled`]),
    /// so drop guards deregister it; see [`Ctx::park_cancellable`] for the
    /// form that returns instead.
    pub fn park(&self, reason: &str) {
        if let Err(cancelled) = self.park_cancellable(reason, None) {
            cancelled.unwind();
        }
    }

    /// Parks this process until [`Ctx::unpark`] *or* until `ticks` quanta
    /// of virtual time elapse. Returns `true` if woken by an unpark,
    /// `false` on timeout.
    ///
    /// On timeout the caller is still registered on whatever wait queue it
    /// joined and must deregister itself (see
    /// [`crate::WaitQueue::wait_by`], which handles this). A leaked
    /// registration is caught loudly: in debug builds the kernel asserts at
    /// the end of every non-panicked run that no wait queue still holds an
    /// entry, and grant paths must consult [`Ctx::is_parked`] before
    /// granting to a queue entry, so a timed-out waiter that has not yet
    /// deregistered is never the target of a grant.
    pub fn park_timeout(&self, reason: &str, ticks: u64) -> bool {
        self.park_cancellable(reason, Some(ticks))
            .unwrap_or_else(|cancelled| cancelled.unwind())
    }

    /// The one park: [`Ctx::park`] with `timeout: None`,
    /// [`Ctx::park_timeout`] with `Some(ticks)`, except that a shutdown
    /// cancellation is returned as `Err(Cancelled)` instead of unwinding.
    /// `Ok(true)` means woken by an unpark, `Ok(false)` timed out.
    ///
    /// On `Err` the caller still holds whatever registrations it made
    /// before parking and must remove them itself before it returns (the
    /// end-of-run queue-hygiene assertion checks [`crate::WaitQueue`]s).
    /// Server daemons use this so that run end costs a return rather than
    /// an unwind. A process that ignores the `Cancelled` and blocks again
    /// is unwound at once. A fault-plan kill or a deadlock-recovery abort
    /// still unwinds, so drop guards run.
    pub fn park_cancellable(&self, reason: &str, timeout: Option<u64>) -> Result<bool, Cancelled> {
        self.unwind_if_cancelled();
        {
            let mut st = self.shared.state.lock();
            let clock = st.clock;
            st.trace.push(
                clock,
                self.pid,
                EventKind::Blocked {
                    reason: reason.to_string(),
                },
            );
        }
        loop {
            let report = match timeout {
                None => Report::Parked { reason },
                Some(ticks) => Report::ParkedTimeout { reason, ticks },
            };
            match stop_process(&self.shared, self.pid, report) {
                // Picked right back at our own stop. A timed park gets here
                // when its own timeout fired with nobody else ready:
                // `timed_out` is set. A plain park gets here only through
                // a fault-plan spurious wake, absorbed below: no timer of
                // ours can ready it (a stale park timeout carries an older
                // token), and an unpark needs another process to run.
                StopOutcome::SelfResume => assert!(
                    timeout.is_some()
                        || self.shared.state.lock().procs[self.pid.index()].spurious_wake,
                    "a re-picked plain park carries a spurious wake"
                ),
                StopOutcome::Handed => obey(self.baton.take())?,
            }
            let mut st = self.shared.state.lock();
            let slot = &mut st.procs[self.pid.index()];
            if timeout.is_some() {
                return Ok(!std::mem::take(&mut slot.timed_out));
            }
            // A fault-plan spurious wake resumed us without a matching
            // unpark: absorb it by re-parking, so mechanisms never observe
            // a wake they did not grant. (A real unpark that raced the
            // spurious window clears the flag — see Ctx::try_unpark — and
            // we return normally.) Timed parks get no spurious wakes.
            if !slot.spurious_wake {
                return Ok(true);
            }
            slot.spurious_wake = false;
            let clock = st.clock;
            st.trace.push(
                clock,
                self.pid,
                EventKind::Blocked {
                    reason: reason.to_string(),
                },
            );
        }
    }

    /// Whether `target` is currently parked — i.e. an unpark delivered now
    /// would succeed. Mirrors exactly what [`Ctx::try_unpark`] would
    /// accept: a blocked process, or a ready one whose pending fault-plan
    /// spurious wake would be converted into the unpark.
    ///
    /// Grant paths that scan a queue which may hold *stale* entries (a
    /// timed-out process that has not yet removed its own registration)
    /// must check this before applying a grant's side effects, so that a
    /// waiter whose timed wait returned `false` was never granted anything.
    pub fn is_parked(&self, target: Pid) -> bool {
        // Footprint: reads the target's park slot. The kernel writes the
        // same pseudo-object when the target parks, and unparks write it
        // too, so commuting this probe past a park-state change is
        // impossible; two probes of the same target commute.
        let mut guard = self.shared.state.lock();
        let st = &mut *guard;
        let slot = &st.procs[target.index()];
        if st.record_quanta {
            st.log.mark(&slot.park_obj, Access::Read);
        }
        matches!(slot.status, ProcessStatus::Blocked { .. }) || slot.spurious_wake
    }

    /// Makes a parked process runnable again if it is currently parked;
    /// returns whether it was. Use for queues that may hold *stale*
    /// entries of processes that already woke by timeout; for queues that
    /// cannot, prefer [`Ctx::unpark`], which panics on staleness.
    pub fn try_unpark(&self, target: Pid) -> bool {
        let mut guard = self.shared.state.lock();
        let st = &mut *guard;
        let slot = &mut st.procs[target.index()];
        if st.record_quanta {
            st.log.mark(&slot.park_obj, Access::Write);
        }
        if !matches!(slot.status, ProcessStatus::Blocked { .. }) {
            // A pending fault-plan spurious wake means the target is Ready
            // but will transparently re-park; converting the pending wake
            // into this real unpark preserves unpark semantics exactly.
            if !slot.spurious_wake {
                return false;
            }
            slot.spurious_wake = false;
            if let Some((reason, _)) = slot.wait_episode() {
                SimMetrics::bump(&mut st.metrics.wakes, reason);
            }
            let clock = st.clock;
            st.trace
                .push(clock, target, EventKind::Unparked { by: self.pid });
            return true;
        }
        self.deliver_unpark(st, target);
        true
    }

    /// Makes a parked process runnable again.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not currently blocked. Under the cooperative
    /// invariant a mechanism only ever wakes processes it has previously
    /// parked, so an unparked-while-not-parked target is a mechanism bug and
    /// is reported loudly rather than being silently ignored.
    pub fn unpark(&self, target: Pid) {
        assert!(
            self.try_unpark(target),
            "unpark of {target} which is {:?} (mechanism bug)",
            self.shared.state.lock().procs[target.index()].status
        );
    }

    /// Shared tail of [`Ctx::try_unpark`]/[`Ctx::unpark`] once `target` is
    /// known to be blocked: wakes it, or — when a fault-plan delayed wake
    /// fires on this unpark — converts the wake into a timed sleep. Either
    /// way the unpark is *delivered* (the hand-off decision is unchanged);
    /// a delay only shifts when the wakee next runs.
    fn deliver_unpark(&self, st: &mut crate::kernel::State, target: Pid) {
        let clock = st.clock;
        // Metrics: the unpark is delivered either way (a fault-plan delay
        // only shifts when the wakee runs), so it counts as a wake and
        // ends the target's blocked episode here.
        if let ProcessStatus::Blocked { reason } = &st.procs[target.index()].status {
            SimMetrics::bump(&mut st.metrics.wakes, reason);
        }
        st.settle_blocked_time(target);
        st.trace
            .push(clock, target, EventKind::Unparked { by: self.pid });
        let delay = if st.faults.active() {
            let crate::kernel::State { faults, procs, .. } = &mut *st;
            faults.on_unpark(target, &procs[target.index()].name)
        } else {
            None
        };
        match delay {
            None => {
                st.procs[target.index()].end_park(ProcessStatus::Ready);
                st.ready.push(target);
            }
            Some(ticks) => {
                let until = clock.plus(ticks);
                st.procs[target.index()].end_park(ProcessStatus::Sleeping { until });
                let tiebreak = st.timer_tiebreak;
                st.timer_tiebreak += 1;
                st.timers.push(std::cmp::Reverse((
                    until,
                    tiebreak,
                    target,
                    TimerKind::Sleep,
                )));
                st.trace
                    .push(clock, target, EventKind::DelayedWake { until });
            }
        }
    }

    /// Draws a value from a finite integer domain at a *data decision
    /// point* (DESIGN.md §2.15): the outcome is a value, not a scheduler
    /// pick, but it is recorded in the same decision vector (tagged
    /// [`crate::DecisionKind::Data`]), so replay, shrinking, journaling
    /// and exploration all cover it. The explorers enumerate every domain
    /// value; the revisit mode additionally collapses values the run
    /// never distinguished — provided the program observes the result
    /// through the returned [`crate::SymValue`]'s comparison methods
    /// rather than [`crate::SymValue::get`].
    ///
    /// Unlike every blocking primitive, this is **not** a scheduling
    /// point: the calling process keeps the CPU and the choice is made
    /// synchronously. The domain is sorted and deduplicated; a singleton
    /// domain records no decision. Accepts any `IntoIterator<Item = i64>`
    /// (a range like `1..=8`, a slice `[0, 1]`, …).
    ///
    /// # Panics
    ///
    /// Panics if the domain is empty.
    pub fn choose_value(&self, label: &str, domain: impl IntoIterator<Item = i64>) -> SymValue {
        crate::symbolic::choose(&self.shared, self.pid, label, domain.into_iter().collect())
    }

    /// Boolean face of [`Ctx::choose_value`]: a nondeterministic `bool`
    /// over the domain `{0, 1}`, observed immediately (which is exact for
    /// a two-value domain — no collapse is lost).
    pub fn choose_bool(&self, label: &str) -> bool {
        self.choose_value(label, [0, 1]).truth()
    }

    /// Appends an application-level event to the trace.
    pub fn emit(&self, label: &str, params: &[i64]) {
        self.emit_for(self.pid, label, params);
    }

    /// Appends an application-level event attributed to another process.
    ///
    /// Mechanisms that *grant* access on behalf of a blocked process (a
    /// semaphore hand-off, a baton protocol) use this to record the grant
    /// at the moment the decision is made, attributed to the process being
    /// granted — keeping trace order faithful to decision order even
    /// though the grantee resumes later.
    pub fn emit_for(&self, target: Pid, label: &str, params: &[i64]) {
        // Footprint: the user-event trace is an ordered pseudo-object —
        // two emitting quanta must never be commuted (their relative
        // event order is the observable behavior the explorers preserve),
        // while an emitting quantum still commutes with independent
        // non-emitting ones.
        let mut st = self.shared.state.lock();
        st.mark_obj(&self.shared.trace_obj, Access::Write);
        let clock = st.clock;
        st.trace.push(
            clock,
            target,
            EventKind::User {
                label: label.to_string(),
                params: params.to_vec(),
            },
        );
    }

    /// Spawns a new process from within a running one.
    pub fn spawn<F>(&self, name: &str, f: F) -> Pid
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        self.note_sync();
        self.shared.spawn_process(name, false, f)
    }

    /// Spawns a daemon process: the run completes (rather than deadlocking)
    /// if only daemons remain blocked, and they are cancelled at shutdown.
    pub fn spawn_daemon<F>(&self, name: &str, f: F) -> Pid
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        self.note_sync();
        self.shared.spawn_process(name, true, f)
    }
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx").field("pid", &self.pid).finish()
    }
}
