//! The one low-level blocking primitive: an ordered wait queue.
//!
//! Every mechanism crate (semaphores, monitors, serializers, path
//! expressions) builds its blocking behavior out of [`WaitQueue`]s. A queue
//! orders waiters by `(priority, arrival ticket)`: plain [`WaitQueue::wait`]
//! uses priority 0, so the order degenerates to FIFO; priority waits (as in
//! Hoare's disk-scheduler monitor) jump the queue.
//!
//! Thanks to the simulator's cooperative invariant, the registration of a
//! waiter and the subsequent park are atomic with respect to all other
//! processes — there is no lost-wakeup window to defend against.

use crate::ctx::Ctx;
use crate::footprint::{Access, ObjId};
use crate::kernel::Shared;
use crate::types::{Deadline, Pid};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::{Arc, Weak};

#[derive(Debug, Clone, Copy)]
pub(crate) struct Waiter {
    pub(crate) pid: Pid,
    ticket: u64,
    priority: i64,
}

/// The shareable interior of a [`WaitQueue`]: the kernel keeps a second
/// handle to every queue that has ever held a waiter, so it can assert at
/// the end of a run that no stale registration was leaked by a timed wait
/// path (see `run_kernel`'s queue-hygiene check).
#[derive(Debug)]
pub(crate) struct QueueCell {
    pub(crate) name: String,
    pub(crate) waiters: Mutex<VecDeque<Waiter>>,
}

/// An ordered queue of parked processes.
#[derive(Debug)]
pub struct WaitQueue {
    cell: Arc<QueueCell>,
    /// Footprint identity for the explorers' object-granular prune: every
    /// mutation of the queue is an access to this object (see
    /// [`Ctx::note_sync_obj`]). Derived from the diagnostic name, so two
    /// queues sharing a name share an identity — which only merges their
    /// footprints (conservative, never unsound).
    obj: ObjId,
    /// The kernel this queue last registered with (for the end-of-run
    /// hygiene check); re-bound lazily on enqueue, so one queue object can
    /// be reused across simulations.
    bound: Mutex<Weak<Shared>>,
}

impl WaitQueue {
    /// Creates an empty queue; `name` appears in traces and deadlock reports.
    pub fn new(name: &str) -> Self {
        WaitQueue {
            cell: Arc::new(QueueCell {
                name: name.to_string(),
                waiters: Mutex::new(VecDeque::new()),
            }),
            obj: ObjId::new("queue", name),
            bound: Mutex::new(Weak::new()),
        }
    }

    /// The queue's diagnostic name.
    pub fn name(&self) -> &str {
        &self.cell.name
    }

    /// Registers this queue's cell with the calling process's kernel (once
    /// per simulation), so the end-of-run hygiene assertion sees it.
    fn bind(&self, ctx: &Ctx) {
        let shared = ctx.shared();
        let mut bound = self.bound.lock();
        if Weak::as_ptr(&bound) == Arc::as_ptr(shared) {
            return;
        }
        *bound = Arc::downgrade(shared);
        shared.queues.lock().push(Arc::clone(&self.cell));
    }

    /// Parks the calling process at the back of the queue (FIFO order).
    pub fn wait(&self, ctx: &Ctx) {
        self.wait_priority(ctx, 0, None);
    }

    /// Parks the calling process ordered by `priority` (lower values are
    /// woken first), with FIFO arrival order breaking ties, for at most
    /// `timeout` ticks when that is `Some`. Returns `true` if woken,
    /// `false` on timeout (see [`WaitQueue::park_enqueued`]).
    pub fn wait_priority(&self, ctx: &Ctx, priority: i64, timeout: Option<u64>) -> bool {
        self.enqueue_current(ctx, priority);
        self.park_enqueued(ctx, timeout)
    }

    /// Registers the calling process on the queue *without* parking it.
    ///
    /// The caller must follow up with [`WaitQueue::park_enqueued`] before
    /// any other process can run; under the simulator's cooperative
    /// invariant any non-blocking work done in between (such as releasing
    /// a monitor) is atomic with the enqueue, which is exactly what
    /// monitor `wait` needs: enqueue on the condition, release possession,
    /// park.
    pub fn enqueue_current(&self, ctx: &Ctx, priority: i64) {
        self.bind(ctx);
        ctx.note_sync_obj(&self.obj, Access::Write);
        let ticket = ctx.fresh_ticket();
        let depth = {
            let mut q = self.cell.waiters.lock();
            let at = q
                .iter()
                .position(|w| (w.priority, w.ticket) > (priority, ticket))
                .unwrap_or(q.len());
            q.insert(
                at,
                Waiter {
                    pid: ctx.pid(),
                    ticket,
                    priority,
                },
            );
            q.len() as u64
        };
        // Metrics only (queue-depth high-water mark); the queue lock is
        // released first so the kernel lock is never nested inside it.
        ctx.shared()
            .state
            .lock()
            .metrics
            .note_queue_depth(&self.cell.name, depth);
    }

    /// Wakes the frontmost waiter, if any, and returns its pid.
    ///
    /// Entries whose process already woke by timeout (see
    /// [`WaitQueue::wait_by`]) are discarded, so a wake is never
    /// wasted on a waiter that has given up.
    pub fn wake_one(&self, ctx: &Ctx) -> Option<Pid> {
        // Queue-state access (even when empty) — see Ctx::note_sync_obj.
        ctx.note_sync_obj(&self.obj, Access::Write);
        loop {
            let waiter = self.cell.waiters.lock().pop_front()?;
            if ctx.try_unpark(waiter.pid) {
                return Some(waiter.pid);
            }
            // Stale entry (timed out, not yet self-removed): skip it.
        }
    }

    /// Wakes every waiter (in queue order) and returns how many were woken.
    pub fn wake_all(&self, ctx: &Ctx) -> usize {
        ctx.note_sync_obj(&self.obj, Access::Write);
        let drained: Vec<Waiter> = self.cell.waiters.lock().drain(..).collect();
        drained.iter().filter(|w| ctx.try_unpark(w.pid)).count()
    }

    /// Wakes a specific pid if it is in this queue; returns whether it was
    /// woken (a stale timed-out entry is removed but not counted).
    pub fn wake_pid(&self, ctx: &Ctx, pid: Pid) -> bool {
        ctx.note_sync_obj(&self.obj, Access::Write);
        let removed = {
            let mut q = self.cell.waiters.lock();
            match q.iter().position(|w| w.pid == pid) {
                Some(at) => {
                    q.remove(at);
                    true
                }
                None => false,
            }
        };
        removed && ctx.try_unpark(pid)
    }

    /// Removes and returns the frontmost waiter *without* waking it; the
    /// caller becomes responsible for eventually unparking the process
    /// (used by deferred hand-offs such as signal-and-exit monitors).
    pub fn take_front(&self) -> Option<Pid> {
        self.cell.waiters.lock().pop_front().map(|w| w.pid)
    }

    /// Removes the calling process's own entry (timeout cleanup).
    pub fn remove_current(&self, ctx: &Ctx) {
        ctx.note_sync_obj(&self.obj, Access::Write);
        self.cell.waiters.lock().retain(|w| w.pid != ctx.pid());
    }

    /// Parks the calling process, which [`WaitQueue::enqueue_current`]
    /// registered, until a wake or, with `timeout: Some(ticks)`, until
    /// `ticks` quanta elapse. Returns `true` if woken, `false` on timeout,
    /// after which the entry is withdrawn (idempotently: a waker may have
    /// skipped past it already). If the process dies while parked (a
    /// fault-plan kill-point or a panic), its entry is removed during the
    /// unwind, so a later wake is never granted to a dead process.
    pub fn park_enqueued(&self, ctx: &Ctx, timeout: Option<u64>) -> bool {
        let cleanup = DequeueOnUnwind { queue: self, ctx };
        let woken = ctx.park(self.name(), timeout);
        std::mem::forget(cleanup);
        if !woken {
            self.remove_current(ctx);
        }
        woken
    }

    /// Parks the calling process at the back of the queue until woken by a
    /// [`WaitQueue::wake_one`]/[`WaitQueue::wake_all`] or until `deadline`
    /// (a tick count, a [`Deadline`], or a `Duration` — see
    /// [`Deadline`]). Returns `true` if woken, `false` on timeout; an
    /// already-expired deadline fails immediately without parking. The
    /// queue entry is removed either way.
    pub fn wait_by(&self, ctx: &Ctx, deadline: impl Into<Deadline>) -> bool {
        let Some(ticks) = ctx.remaining(deadline) else {
            return false;
        };
        self.wait_priority(ctx, 0, Some(ticks))
    }

    /// Number of processes currently waiting.
    ///
    /// Records no footprint. The queue's own changes are footprinted, but
    /// a process that branches on this during an explored schedule needs
    /// another object to carry the dependency: one that every change to
    /// the queue writes and that its own quantum touches (a monitor's
    /// condition probes lean on the monitor's object). Otherwise use it
    /// only for test assertions and post-run inspection.
    pub fn len(&self) -> usize {
        self.cell.waiters.lock().len()
    }

    /// Whether the queue has no waiters. This is Hoare's *condition queue
    /// interrogation* (`nonempty`/`queue` in the monitor paper). Records
    /// no footprint; see [`WaitQueue::len`].
    pub fn is_empty(&self) -> bool {
        self.cell.waiters.lock().is_empty()
    }

    /// Priority of the frontmost waiter, if any (Hoare's `minrank`).
    /// Records no footprint; see [`WaitQueue::len`].
    pub fn min_priority(&self) -> Option<i64> {
        self.cell.waiters.lock().front().map(|w| w.priority)
    }

    /// The frontmost waiter's pid without waking it.
    pub fn front(&self) -> Option<Pid> {
        self.cell.waiters.lock().front().map(|w| w.pid)
    }

    /// Arrival ticket of the frontmost waiter, if any. Lower tickets arrived
    /// earlier; mechanisms use this for longest-waiting selection across
    /// several queues.
    pub fn front_ticket(&self) -> Option<u64> {
        self.cell.waiters.lock().front().map(|w| w.ticket)
    }
}

/// Removes the parked process's queue entry if the park unwinds (kill or
/// panic) instead of returning. Armed before the park and disarmed with
/// `mem::forget` on the normal path, so the `Drop` body runs only during
/// an unwind. Touches only this queue's own mutex — safe even during the
/// concurrent unwinds of shutdown.
struct DequeueOnUnwind<'a> {
    queue: &'a WaitQueue,
    ctx: &'a Ctx,
}

impl Drop for DequeueOnUnwind<'_> {
    fn drop(&mut self) {
        self.queue.remove_current(self.ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Sim;
    use std::sync::Arc;

    #[test]
    fn fifo_wake_order() {
        let mut sim = Sim::new();
        let q = Arc::new(WaitQueue::new("q"));
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            let q = Arc::clone(&q);
            let order = Arc::clone(&order);
            sim.spawn(&format!("w{i}"), move |ctx| {
                q.wait(ctx);
                order.lock().push(i);
            });
        }
        let q2 = Arc::clone(&q);
        sim.spawn("waker", move |ctx| {
            // Let all three park first (each wait is a scheduling point).
            for _ in 0..4 {
                ctx.yield_now();
            }
            assert_eq!(q2.len(), 3);
            while q2.wake_one(ctx).is_some() {}
        });
        sim.run().expect("clean run");
        assert_eq!(*order.lock(), vec![0, 1, 2], "FIFO order preserved");
    }

    #[test]
    fn priority_orders_wakeups() {
        let mut sim = Sim::new();
        let q = Arc::new(WaitQueue::new("prio"));
        let order = Arc::new(Mutex::new(Vec::new()));
        for (i, prio) in [(0, 5i64), (1, 1), (2, 3)] {
            let q = Arc::clone(&q);
            let order = Arc::clone(&order);
            sim.spawn(&format!("w{i}"), move |ctx| {
                q.wait_priority(ctx, prio, None);
                order.lock().push(i);
            });
        }
        let q2 = Arc::clone(&q);
        sim.spawn("waker", move |ctx| {
            for _ in 0..4 {
                ctx.yield_now();
            }
            assert_eq!(q2.min_priority(), Some(1));
            while q2.wake_one(ctx).is_some() {}
        });
        sim.run().expect("clean run");
        assert_eq!(*order.lock(), vec![1, 2, 0], "woken in priority order");
    }

    #[test]
    fn wake_pid_plucks_from_middle() {
        let mut sim = Sim::new();
        let q = Arc::new(WaitQueue::new("q"));
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut pids = Vec::new();
        for i in 0..3 {
            let q = Arc::clone(&q);
            let order = Arc::clone(&order);
            pids.push(sim.spawn(&format!("w{i}"), move |ctx| {
                q.wait(ctx);
                order.lock().push(i);
            }));
        }
        let q2 = Arc::clone(&q);
        let target = pids[1];
        sim.spawn("waker", move |ctx| {
            for _ in 0..4 {
                ctx.yield_now();
            }
            assert!(q2.wake_pid(ctx, target));
            assert!(
                !q2.wake_pid(ctx, target),
                "second wake of same pid is a no-op"
            );
            q2.wake_all(ctx);
        });
        sim.run().expect("clean run");
        assert_eq!(*order.lock(), vec![1, 0, 2]);
    }

    #[test]
    fn empty_queue_wake_is_noop() {
        let mut sim = Sim::new();
        let q = Arc::new(WaitQueue::new("q"));
        let q2 = Arc::clone(&q);
        sim.spawn("solo", move |ctx| {
            assert!(q2.wake_one(ctx).is_none());
            assert_eq!(q2.wake_all(ctx), 0);
            assert!(q2.is_empty());
            assert_eq!(q2.min_priority(), None);
        });
        sim.run().expect("clean run");
    }

    #[test]
    fn deadlock_reported_when_everyone_waits() {
        let mut sim = Sim::new();
        let q = Arc::new(WaitQueue::new("abyss"));
        for i in 0..2 {
            let q = Arc::clone(&q);
            sim.spawn(&format!("w{i}"), move |ctx| q.wait(ctx));
        }
        let err = sim.run().expect_err("must deadlock");
        assert!(err.is_deadlock());
        assert!(err.to_string().contains("abyss"));
    }
}
