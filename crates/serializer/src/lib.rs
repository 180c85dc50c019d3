#![forbid(unsafe_code)]
#![deny(deprecated)]
//! Atkinson–Hewitt serializers over the `bloom-sim` deterministic simulator.
//!
//! Serializers ("Synchronization and Proof Techniques for Serializers",
//! IEEE TSE 1979) are the third mechanism Bloom's paper evaluates (§5.2).
//! They were designed to fix two monitor weaknesses the paper highlights:
//!
//! * **automatic signalling** — a waiting process names a *guarantee*
//!   (guard predicate) when it enqueues; whenever possession of the
//!   serializer is released, the runtime re-evaluates the guards of all
//!   queue heads and resumes an eligible one. No explicit `signal` exists,
//!   so exclusion constraints can be written without deciding a total wake
//!   order (Bloom's §5.2 monitor criticism), and *request time* and
//!   *request type* information no longer conflict: processes waiting for
//!   different conditions share one FIFO queue.
//! * **crowds** — processes actively using the resource are tracked in
//!   [`CrowdId`] multisets. Guards interrogate crowd emptiness directly,
//!   so Bloom's *synchronization state* information is maintained by the
//!   mechanism instead of hand-kept counts.
//! * **`join_crowd`** — executes the resource operation *outside* the
//!   serializer while recording membership, then re-enters. This gives the
//!   §2 protected-resource structure automatically and avoids the nested
//!   monitor call problem.
//!
//! # Semantics implemented
//!
//! * The serializer is exclusive (possession), like a monitor.
//! * [`SerializerCtx::enqueue`] places the caller at the back of a FIFO
//!   queue with a guard closure, releases possession, and blocks until the
//!   caller is at the *head* of its queue, its guard evaluates true, and
//!   possession is free. Only queue heads are eligible — a false-guard
//!   head blocks processes behind it, which is what preserves request
//!   order (FCFS) within a queue.
//! * When several queue heads (or a process waiting to enter) are
//!   eligible, the **longest-waiting** one (smallest arrival ticket) wins —
//!   the same selection rule Bloom assumes for path expressions.
//! * [`SerializerCtx::join_crowd`] adds the caller to a crowd, releases
//!   possession, runs the body concurrently with other crowd members,
//!   then re-enters the serializer and leaves the crowd.
//!
//! All guard re-evaluation happens at possession-release points; since the
//! protected state only changes while possession is held, no wake-up can be
//! missed.
//!
//! # Example: readers sharing, writers excluding, all FCFS
//!
//! ```
//! use bloom_serializer::Serializer;
//! use bloom_sim::Sim;
//! use std::sync::Arc;
//!
//! let mut sim = Sim::new();
//! let s = Arc::new(Serializer::new("db", ()));
//! let q = s.queue("requests");
//! let readers = s.crowd("readers");
//! let writers = s.crowd("writers");
//!
//! for i in 0..3 {
//!     let s = Arc::clone(&s);
//!     sim.spawn(&format!("reader{i}"), move |ctx| {
//!         s.enter(ctx, |sc| {
//!             sc.enqueue(q, move |v| v.crowd_is_empty(writers));
//!             sc.join_crowd(readers, || {
//!                 // read the database, concurrently with other readers
//!             });
//!         });
//!     });
//! }
//! let s2 = Arc::clone(&s);
//! sim.spawn("writer", move |ctx| {
//!     s2.enter(ctx, |sc| {
//!         sc.enqueue(q, move |v| {
//!             v.crowd_is_empty(writers) && v.crowd_is_empty(readers)
//!         });
//!         sc.join_crowd(writers, || {
//!             // write the database, alone
//!         });
//!     });
//! });
//! sim.run().unwrap();
//! ```

use bloom_sim::{Access, Ctx, Deadline, ObjId, Pid, Poisoned, WaitQueue};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// Handle to a named FIFO queue of a [`Serializer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueId(usize);

/// Handle to a named crowd of a [`Serializer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrowdId(usize);

/// Snapshot of serializer bookkeeping passed to guard predicates.
///
/// Guards see the protected state plus queue lengths and crowd sizes —
/// exactly the information the Atkinson–Hewitt guarantee expressions can
/// reference. Note that a waiter counts toward the length of the queue it
/// is waiting in.
#[derive(Debug)]
pub struct GuardView<'a, S> {
    state: &'a S,
    queue_lens: &'a [usize],
    crowd_lens: &'a [usize],
}

impl<S> GuardView<'_, S> {
    /// The protected state.
    pub fn state(&self) -> &S {
        self.state
    }

    /// Whether the crowd has no members.
    pub fn crowd_is_empty(&self, crowd: CrowdId) -> bool {
        self.crowd_lens[crowd.0] == 0
    }

    /// Number of processes in the crowd.
    pub fn crowd_len(&self, crowd: CrowdId) -> usize {
        self.crowd_lens[crowd.0]
    }

    /// Whether the queue has no waiters.
    pub fn queue_is_empty(&self, queue: QueueId) -> bool {
        self.queue_lens[queue.0] == 0
    }

    /// Number of waiters in the queue (including the process whose guard is
    /// being evaluated, for its own queue).
    pub fn queue_len(&self, queue: QueueId) -> usize {
        self.queue_lens[queue.0]
    }
}

type Guard<S> = Box<dyn Fn(&GuardView<'_, S>) -> bool + Send>;

struct SWaiter<S> {
    pid: Pid,
    ticket: u64,
    priority: i64,
    guard: Guard<S>,
}

struct QueueState<S> {
    name: String,
    waiters: VecDeque<SWaiter<S>>,
}

struct CrowdState {
    name: String,
    members: Vec<Pid>,
}

/// Which candidate won the possession hand-off.
enum Winner {
    /// The head of the given internal queue.
    QueueHead(usize),
    /// The front of the entry queue.
    Entrant,
    /// Nobody is eligible; possession becomes free.
    Nobody,
}

/// An Atkinson–Hewitt serializer protecting state `S`.
///
/// # Crash safety
///
/// A process dying (fault-plan kill or panic) with *possession* poisons
/// the serializer: a [`Poisoned`] verdict is recorded, possession is
/// dissolved, and every waiter — entry, all internal queues — is woken to
/// observe it, so nobody wedges behind the corpse.
/// [`Serializer::try_enter`] and [`SerializerCtx::enqueue_checked`]
/// surface the verdict as a value; the plain variants panic, keeping the
/// failure loud. A process dying *in a queue* is dequeued (its guard can
/// never be granted), and one dying *in a crowd* leaves the crowd during
/// the unwind and re-triggers guard evaluation, so a guarantee such as
/// "the writers crowd is empty" does not stay false forever.
#[derive(Debug)]
pub struct Serializer<S> {
    name: String,
    /// Identity for object-granular dependency tracking.
    obj: ObjId,
    busy: Mutex<bool>,
    /// Which process has (or was just handed) possession; `None` when open.
    holder: Mutex<Option<Pid>>,
    /// Set when a holder died mid-body; sticky once set.
    poisoned: Mutex<Option<Poisoned>>,
    entry: WaitQueue,
    queues: Mutex<Vec<QueueState<S>>>,
    crowds: Mutex<Vec<CrowdState>>,
    state: Mutex<S>,
}

impl<S> std::fmt::Debug for QueueState<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueueState")
            .field("name", &self.name)
            .field("len", &self.waiters.len())
            .finish()
    }
}

impl std::fmt::Debug for CrowdState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrowdState")
            .field("name", &self.name)
            .field("members", &self.members)
            .finish()
    }
}

impl<S: Send> Serializer<S> {
    /// Creates a serializer protecting `initial`.
    pub fn new(name: &str, initial: S) -> Self {
        Serializer {
            name: name.to_string(),
            obj: ObjId::new("serializer", name),
            busy: Mutex::new(false),
            holder: Mutex::new(None),
            poisoned: Mutex::new(None),
            entry: WaitQueue::new(&format!("{name}.entry")),
            queues: Mutex::new(Vec::new()),
            crowds: Mutex::new(Vec::new()),
            state: Mutex::new(initial),
        }
    }

    /// The serializer's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declares a FIFO queue; call before the simulation starts.
    pub fn queue(&self, name: &str) -> QueueId {
        let mut queues = self.queues.lock();
        queues.push(QueueState {
            name: name.to_string(),
            waiters: VecDeque::new(),
        });
        QueueId(queues.len() - 1)
    }

    /// Declares a crowd; call before the simulation starts.
    pub fn crowd(&self, name: &str) -> CrowdId {
        let mut crowds = self.crowds.lock();
        crowds.push(CrowdState {
            name: name.to_string(),
            members: Vec::new(),
        });
        CrowdId(crowds.len() - 1)
    }

    /// Current number of members of `crowd`.
    ///
    /// A probe for test assertions and post-run inspection. It records no
    /// footprint, so a process must not branch on it during an explored
    /// schedule: the revisit prune would not see the read. Inside a
    /// possession body, [`SerializerCtx::crowd_len`] records its read;
    /// guard closures read the [`GuardView`], whose evaluation the
    /// possession machinery already records.
    pub fn crowd_len(&self, crowd: CrowdId) -> usize {
        self.crowds.lock()[crowd.0].members.len()
    }

    /// Current number of waiters in `queue`: a probe for test assertions
    /// and post-run inspection (see [`Serializer::crowd_len`]; inside a
    /// possession body, [`SerializerCtx::queue_len`] records its read).
    pub fn queue_len(&self, queue: QueueId) -> usize {
        self.queues.lock()[queue.0].waiters.len()
    }

    /// Runs `body` with possession of the serializer.
    ///
    /// # Panics
    ///
    /// Panics if the serializer is poisoned (a previous holder died inside
    /// its body). Use [`Serializer::try_enter`] to handle poisoning as a
    /// value.
    pub fn enter<R>(&self, ctx: &Ctx, body: impl FnOnce(&SerializerCtx<'_, S>) -> R) -> R {
        match self.try_enter(ctx, body) {
            Ok(r) => r,
            Err(p) => panic!("{p}"),
        }
    }

    /// Runs `body` with possession, surfacing poisoning instead of
    /// panicking. The body is not entered on a poisoned serializer.
    pub fn try_enter<R>(
        &self,
        ctx: &Ctx,
        body: impl FnOnce(&SerializerCtx<'_, S>) -> R,
    ) -> Result<R, Poisoned> {
        if let Some(p) = self.observe_poison(ctx) {
            return Err(p);
        }
        self.acquire(ctx);
        if let Some(p) = self.observe_poison(ctx) {
            // Woken by the poison broadcast, not a possession hand-off.
            return Err(p);
        }
        let cleanup = PoisonOnUnwind { ser: self, ctx };
        let sc = SerializerCtx { ser: self, ctx };
        let r = body(&sc);
        std::mem::forget(cleanup);
        if self.poisoned.lock().is_some() {
            // Possession dissolved while the body waited in a queue (the
            // dying holder broadcast); nothing to release.
            return Ok(r);
        }
        self.release(ctx);
        Ok(r)
    }

    /// Whether a previous holder died inside the serializer: a probe for
    /// test assertions and post-run inspection (see
    /// [`Serializer::crowd_len`]). Solution code observes poisoning
    /// through [`Serializer::try_enter`]'s `Err`, which is recorded.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.lock().is_some()
    }

    /// Clones the poison verdict, recording the observation in the trace.
    fn observe_poison(&self, ctx: &Ctx) -> Option<Poisoned> {
        // Reads shared state, and runs at every post-wake point — puts the
        // serializer in the footprint of every resumed quantum (see
        // `Ctx::note_sync_obj`).
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
            // Entrants are candidates in `select_winner`; when woken,
            // possession was handed to us (the releaser records us as the
            // new holder).
            self.entry.wait(ctx);
        }
    }

    /// Releases possession: hands it to the longest-waiting eligible
    /// candidate (queue head with true guard, or entrant), else frees it.
    fn release(&self, ctx: &Ctx) {
        let kept = self.hand_off(ctx, None);
        debug_assert!(!kept, "release cannot keep possession");
    }

    /// Hands possession to the next eligible candidate, skipping stale
    /// (timed-out) waiters. With `me = Some(pid)`, a win by `pid` keeps
    /// possession and returns `true` instead of unparking.
    fn hand_off(&self, ctx: &Ctx, me: Option<Pid>) -> bool {
        // Guard evaluation reads every queue and crowd, and a win mutates
        // them — all of it kernel-invisible shared state.
        ctx.note_sync_obj_op(&self.obj, Access::Write);
        loop {
            match self.select_winner(me) {
                Winner::QueueHead(qi) => {
                    let waiter = self.queues.lock()[qi]
                        .waiters
                        .pop_front()
                        .expect("winner queue cannot be empty");
                    if Some(waiter.pid) == me {
                        return true; // the caller keeps possession
                    }
                    if ctx.try_unpark(waiter.pid) {
                        *self.holder.lock() = Some(waiter.pid);
                        return false; // hand-off: busy stays true
                    }
                    // Stale entry of a timed-out waiter: drop and re-select.
                }
                Winner::Entrant => {
                    if let Some(pid) = self.entry.wake_one(ctx) {
                        *self.holder.lock() = Some(pid);
                        return false;
                    }
                    // All entrant entries were stale; re-select.
                }
                Winner::Nobody => {
                    *self.busy.lock() = false;
                    *self.holder.lock() = None;
                    return false;
                }
            }
        }
    }

    /// Finds the longest-waiting eligible candidate. If `me` is given and
    /// wins, the caller keeps possession instead of parking.
    fn select_winner(&self, me: Option<Pid>) -> Winner {
        let state = self.state.lock();
        let queues = self.queues.lock();
        let crowds = self.crowds.lock();
        let queue_lens: Vec<usize> = queues.iter().map(|q| q.waiters.len()).collect();
        let crowd_lens: Vec<usize> = crowds.iter().map(|c| c.members.len()).collect();
        let view = GuardView {
            state: &*state,
            queue_lens: &queue_lens,
            crowd_lens: &crowd_lens,
        };

        let mut best: Option<(u64, Winner)> = None;
        for (qi, q) in queues.iter().enumerate() {
            if let Some(head) = q.waiters.front() {
                if (head.guard)(&view) {
                    let candidate = (head.ticket, Winner::QueueHead(qi));
                    if best.as_ref().is_none_or(|(t, _)| head.ticket < *t) {
                        best = Some(candidate);
                    }
                }
            }
        }
        if let Some(ticket) = self.entry.front_ticket() {
            if best.as_ref().is_none_or(|(t, _)| ticket < *t) {
                best = Some((ticket, Winner::Entrant));
            }
        }
        let _ = me; // `me` participates implicitly: it is the head of its queue
        match best {
            Some((_, w)) => w,
            None => Winner::Nobody,
        }
    }
}

/// Poisons a [`Serializer`] whose holder's body unwound (kill or panic).
///
/// Armed for the whole `enter` body and disarmed with `mem::forget` on the
/// normal path. The holder check makes it a no-op when the process dies
/// waiting in a queue or running in a crowd — it holds nothing then, and
/// the wait/crowd guards do that cleanup.
struct PoisonOnUnwind<'a, S> {
    ser: &'a Serializer<S>,
    ctx: &'a Ctx,
}

impl<S> Drop for PoisonOnUnwind<'_, S> {
    fn drop(&mut self) {
        if self.ctx.cancelling() {
            return;
        }
        if *self.ser.holder.lock() != Some(self.ctx.pid()) {
            return;
        }
        *self.ser.poisoned.lock() = Some(Poisoned {
            primitive: self.ser.name.clone(),
            by: self.ctx.pid(),
        });
        self.ctx.emit(&format!("poison:{}", self.ser.name), &[]);
        // Dissolve possession and wake every waiter — entrants and all
        // queued guarantees — so they observe the poison instead of
        // wedging behind the corpse.
        *self.ser.busy.lock() = false;
        *self.ser.holder.lock() = None;
        self.ser.entry.wake_all(self.ctx);
        let drained: Vec<Pid> = self
            .ser
            .queues
            .lock()
            .iter_mut()
            .flat_map(|q| q.waiters.drain(..).map(|w| w.pid))
            .collect();
        for pid in drained {
            self.ctx.try_unpark(pid);
        }
    }
}

/// Removes the parked process's own queue entry if its wait unwinds —
/// a dead waiter's guarantee can never be granted, and its entry would
/// block the FIFO queue behind it forever.
struct DequeueOnUnwind<'a, S> {
    ser: &'a Serializer<S>,
    queue: QueueId,
    ctx: &'a Ctx,
}

impl<S> Drop for DequeueOnUnwind<'_, S> {
    fn drop(&mut self) {
        let me = self.ctx.pid();
        self.ser.queues.lock()[self.queue.0]
            .waiters
            .retain(|w| w.pid != me);
    }
}

/// Leaves the crowd if the crowd body (or the re-entry after it) unwinds,
/// then re-runs guard evaluation: guarantees such as "the writers crowd is
/// empty" may have just become true, and no release would otherwise ever
/// re-check them if the serializer is idle.
struct LeaveCrowdOnUnwind<'a, S: Send> {
    ser: &'a Serializer<S>,
    crowd: CrowdId,
    ctx: &'a Ctx,
}

impl<S: Send> Drop for LeaveCrowdOnUnwind<'_, S> {
    fn drop(&mut self) {
        let me = self.ctx.pid();
        {
            let mut crowds = self.ser.crowds.lock();
            let members = &mut crowds[self.crowd.0].members;
            if let Some(at) = members.iter().position(|&p| p == me) {
                members.remove(at);
            }
        }
        if self.ctx.cancelling() {
            return;
        }
        // If nobody is inside, claim possession on behalf of the dead
        // member and hand it straight to whoever became eligible; if
        // someone is inside, their release re-evaluates anyway.
        let claimed = {
            let mut busy = self.ser.busy.lock();
            if *busy {
                false
            } else {
                *busy = true;
                true
            }
        };
        if claimed {
            self.ser.hand_off(self.ctx, None);
        }
    }
}

/// Capability to use a serializer from inside [`Serializer::enter`].
#[derive(Debug)]
pub struct SerializerCtx<'a, S> {
    ser: &'a Serializer<S>,
    ctx: &'a Ctx,
}

impl<S: Send> SerializerCtx<'_, S> {
    /// Accesses the protected state.
    ///
    /// # Panics
    ///
    /// Panics on re-entrant use, which would otherwise deadlock.
    pub fn state<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        // Protected-state access is exactly the kernel-invisible effect
        // the footprint log must see. `f` takes `&mut S`, so conservatively
        // a write even when the closure only reads.
        self.ctx.note_sync_obj_op(&self.ser.obj, Access::Write);
        let mut guard = self
            .ser
            .state
            .try_lock()
            .expect("serializer state re-entered: do not nest state() calls");
        f(&mut guard)
    }

    /// The simulator context of the process inside the serializer.
    pub fn ctx(&self) -> &Ctx {
        self.ctx
    }

    /// Waits in `queue` until the caller is at its head, `guard` holds, and
    /// possession is free — the Atkinson–Hewitt `enqueue` with a guarantee.
    ///
    /// Possession is released while waiting (other processes may enter the
    /// serializer). There is no explicit signal anywhere: eligibility is
    /// re-evaluated automatically at every possession release.
    pub fn enqueue(
        &self,
        queue: QueueId,
        guard: impl Fn(&GuardView<'_, S>) -> bool + Send + 'static,
    ) {
        self.enqueue_priority(queue, 0, guard);
    }

    /// Like [`SerializerCtx::enqueue`], but a wake caused by the serializer
    /// being poisoned (the holder died) returns the verdict instead of
    /// panicking. On `Err` the caller does *not* have possession and must
    /// leave the body promptly.
    pub fn enqueue_checked(
        &self,
        queue: QueueId,
        guard: impl Fn(&GuardView<'_, S>) -> bool + Send + 'static,
    ) -> Result<(), Poisoned> {
        self.enqueue_inner(queue, 0, Box::new(guard), None)
            .map(|_| ())
    }

    /// Like [`SerializerCtx::enqueue`], but the queue is ordered by
    /// `priority` (lower first; FIFO among equals) instead of pure arrival
    /// order. Bloom notes (§5.2) that priority queues had to be *added* to
    /// serializers when the first version could not handle request
    /// parameters — this method is that addition, used by the disk
    /// scheduler and alarm clock solutions.
    pub fn enqueue_priority(
        &self,
        queue: QueueId,
        priority: i64,
        guard: impl Fn(&GuardView<'_, S>) -> bool + Send + 'static,
    ) {
        if let Err(p) = self.enqueue_inner(queue, priority, Box::new(guard), None) {
            panic!("{p}");
        }
    }

    /// Like [`SerializerCtx::enqueue`], but gives up at `deadline` — the
    /// Atkinson–Hewitt *timeout* feature: an enqueue carries a time bound,
    /// and an expired wait returns control (with possession re-acquired) so
    /// the process can handle the failure inside the serializer. Accepts
    /// anything convertible into a [`Deadline`] — a tick count (`u64`), a
    /// `Duration`, or an explicit [`Deadline`]. Returns `true` if the
    /// guarantee was met, `false` on timeout. An already-expired deadline
    /// gives up immediately — possession is kept and no scheduling point is
    /// consumed — so retry loops can thread one fixed deadline through
    /// repeated attempts.
    ///
    /// # Panics
    ///
    /// Panics on a poison wake, or on a poisoning found while re-entering
    /// after a timeout, like [`SerializerCtx::enqueue`].
    pub fn enqueue_by(
        &self,
        queue: QueueId,
        deadline: impl Into<Deadline>,
        guard: impl Fn(&GuardView<'_, S>) -> bool + Send + 'static,
    ) -> bool {
        let Some(ticks) = self.ctx.remaining(deadline) else {
            return false;
        };
        self.enqueue_inner(queue, 0, Box::new(guard), Some(ticks))
            .unwrap_or_else(|p| panic!("{p}"))
    }

    /// The one enqueue, waiting at most `timeout` ticks when that is
    /// `Some`: `Ok(true)` once the guarantee is met and possession handed
    /// over, `Ok(false)` if it timed out and re-entered, `Err` on a poison
    /// wake or a poisoning found on re-entry (possession is not held then).
    fn enqueue_inner(
        &self,
        queue: QueueId,
        priority: i64,
        guard: Guard<S>,
        timeout: Option<u64>,
    ) -> Result<bool, Poisoned> {
        let ticket = self.ctx.fresh_ticket();
        let me = self.ctx.pid();
        {
            let mut queues = self.ser.queues.lock();
            let waiters = &mut queues[queue.0].waiters;
            let at = waiters
                .iter()
                .position(|w| (w.priority, w.ticket) > (priority, ticket))
                .unwrap_or(waiters.len());
            waiters.insert(
                at,
                SWaiter {
                    pid: me,
                    ticket,
                    priority,
                    guard,
                },
            );
        }
        // Releasing possession may select *us* (we might be the oldest
        // eligible head); in that case keep possession and continue.
        if self.ser.hand_off(self.ctx, Some(me)) {
            return Ok(true); // we stay in possession
        }
        let reason = format!("{}.{}", self.ser.name, self.ser.queues.lock()[queue.0].name);
        let cleanup = DequeueOnUnwind {
            ser: self.ser,
            queue,
            ctx: self.ctx,
        };
        let woken = self.ctx.park(&reason, timeout);
        std::mem::forget(cleanup);
        // Woken with possession handed to us, or by a poison broadcast.
        if !woken {
            // Timed out: deregister (idempotent — a releaser may have
            // skipped and dropped our stale entry already) and re-enter
            // the serializer.
            self.ser.queues.lock()[queue.0]
                .waiters
                .retain(|w| w.pid != me);
            self.ser.acquire(self.ctx);
        }
        match self.ser.observe_poison(self.ctx) {
            Some(p) => Err(p),
            None => Ok(woken),
        }
    }

    /// Joins `crowd`, releases possession, runs `body` outside the
    /// serializer (concurrently with other crowd members), then re-enters
    /// and leaves the crowd.
    ///
    /// If the body dies (fault-plan kill or panic), the membership is
    /// removed during the unwind and guard evaluation re-runs, so waiters
    /// whose guarantees mention this crowd are not stranded.
    pub fn join_crowd<R>(&self, crowd: CrowdId, body: impl FnOnce() -> R) -> R {
        self.ser.crowds.lock()[crowd.0].members.push(self.ctx.pid());
        self.ser.release(self.ctx);
        let cleanup = LeaveCrowdOnUnwind {
            ser: self.ser,
            crowd,
            ctx: self.ctx,
        };
        let r = body();
        self.ser.acquire(self.ctx);
        std::mem::forget(cleanup);
        // `acquire` marks its own quantum before it parks; the membership
        // removal below runs in the quantum resumed *after* the hand-off,
        // which must be marked separately.
        self.ctx.note_sync_obj_op(&self.ser.obj, Access::Write);
        let mut crowds = self.ser.crowds.lock();
        let members = &mut crowds[crowd.0].members;
        let at = members
            .iter()
            .position(|&p| p == self.ctx.pid())
            .expect("leave_crowd: caller not a member");
        members.remove(at);
        r
    }

    /// Number of members currently in `crowd` (Bloom's *synchronization
    /// state* interrogation).
    pub fn crowd_len(&self, crowd: CrowdId) -> usize {
        self.ctx.note_sync_obj_op(&self.ser.obj, Access::Read);
        self.ser.crowds.lock()[crowd.0].members.len()
    }

    /// Whether `crowd` is empty.
    pub fn crowd_is_empty(&self, crowd: CrowdId) -> bool {
        self.crowd_len(crowd) == 0
    }

    /// Number of waiters in `queue`.
    pub fn queue_len(&self, queue: QueueId) -> usize {
        self.ctx.note_sync_obj_op(&self.ser.obj, Access::Read);
        self.ser.queues.lock()[queue.0].waiters.len()
    }
}

// `Arc<Serializer<S>>` is shared across process threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    fn check<S: Send>() {
        assert_send_sync::<Arc<Serializer<S>>>();
    }
    let _ = check::<()>;
};

#[cfg(test)]
mod tests {
    use super::*;
    use bloom_sim::{RandomPolicy, Sim};

    #[test]
    fn serializer_bodies_are_exclusive() {
        let mut sim = Sim::new();
        let s = Arc::new(Serializer::new("s", (0u32, 0u32)));
        for i in 0..4 {
            let s = Arc::clone(&s);
            sim.spawn(&format!("w{i}"), move |ctx| {
                for _ in 0..3 {
                    s.enter(ctx, |sc| {
                        sc.state(|v| {
                            v.0 += 1;
                            v.1 = v.1.max(v.0);
                        });
                        sc.ctx().yield_now();
                        sc.state(|v| v.0 -= 1);
                    });
                }
            });
        }
        let s2 = Arc::clone(&s);
        sim.run().unwrap();
        assert_eq!(s2.state.lock().1, 1);
    }

    /// No explicit signal anywhere: the guard becomes true when another
    /// process mutates state and releases possession, and the waiter
    /// resumes automatically.
    #[test]
    fn automatic_signalling_wakes_eligible_head() {
        let mut sim = Sim::new();
        let s = Arc::new(Serializer::new("s", false));
        let q = s.queue("q");
        let order = Arc::new(Mutex::new(Vec::new()));

        let (s1, o1) = (Arc::clone(&s), Arc::clone(&order));
        sim.spawn("waiter", move |ctx| {
            s1.enter(ctx, |sc| {
                sc.enqueue(q, |v| *v.state());
                o1.lock().push("woken");
            });
        });
        let (s2, o2) = (Arc::clone(&s), Arc::clone(&order));
        sim.spawn("setter", move |ctx| {
            ctx.yield_now();
            s2.enter(ctx, |sc| {
                sc.state(|b| *b = true);
                o2.lock().push("set");
            });
        });
        sim.run().unwrap();
        assert_eq!(*order.lock(), vec!["set", "woken"]);
    }

    /// A queue is FIFO: a head whose guard is false blocks younger waiters
    /// behind it even if their guards are true (this is what preserves
    /// request order).
    #[test]
    fn false_guard_head_blocks_queue() {
        let mut sim = Sim::new();
        let s = Arc::new(Serializer::new("s", false));
        let q = s.queue("q");
        let order = Arc::new(Mutex::new(Vec::new()));

        let (s1, o1) = (Arc::clone(&s), Arc::clone(&order));
        sim.spawn("blocked-head", move |ctx| {
            s1.enter(ctx, |sc| {
                sc.enqueue(q, |v| *v.state()); // false until setter runs
                o1.lock().push("head");
            });
        });
        let (s2, o2) = (Arc::clone(&s), Arc::clone(&order));
        sim.spawn("eager", move |ctx| {
            ctx.yield_now();
            s2.enter(ctx, |sc| {
                sc.enqueue(q, |_| true); // always eligible, but behind head
                o2.lock().push("eager");
            });
        });
        let s3 = Arc::clone(&s);
        sim.spawn("setter", move |ctx| {
            ctx.yield_now();
            ctx.yield_now();
            s3.enter(ctx, |sc| sc.state(|b| *b = true));
        });
        sim.run().unwrap();
        assert_eq!(
            *order.lock(),
            vec!["head", "eager"],
            "FIFO preserved despite guards"
        );
    }

    /// Crowd members run their bodies concurrently; the serializer itself
    /// stays available while they are in the crowd.
    #[test]
    fn crowds_allow_concurrency() {
        let mut sim = Sim::new();
        let s = Arc::new(Serializer::new("s", ()));
        let readers = s.crowd("readers");
        let peak = Arc::new(Mutex::new((0u32, 0u32)));
        for i in 0..3 {
            let s = Arc::clone(&s);
            let peak = Arc::clone(&peak);
            sim.spawn(&format!("r{i}"), move |ctx| {
                s.enter(ctx, |sc| {
                    sc.join_crowd(readers, || {
                        {
                            let mut p = peak.lock();
                            p.0 += 1;
                            p.1 = p.1.max(p.0);
                        }
                        ctx.yield_now();
                        ctx.yield_now();
                        peak.lock().0 -= 1;
                    });
                });
            });
        }
        sim.run().unwrap();
        assert!(
            peak.lock().1 > 1,
            "crowd members overlapped: {:?}",
            peak.lock().1
        );
    }

    #[test]
    fn join_crowd_releases_possession() {
        let mut sim = Sim::new();
        let s = Arc::new(Serializer::new("s", ()));
        let crowd = s.crowd("c");
        let order = Arc::new(Mutex::new(Vec::new()));
        let (s1, o1) = (Arc::clone(&s), Arc::clone(&order));
        sim.spawn("crowder", move |ctx| {
            s1.enter(ctx, |sc| {
                sc.join_crowd(crowd, || {
                    o1.lock().push("in-crowd");
                    ctx.yield_now();
                    ctx.yield_now();
                });
                o1.lock().push("back-in-serializer");
            });
        });
        let (s2, o2) = (Arc::clone(&s), Arc::clone(&order));
        sim.spawn("visitor", move |ctx| {
            ctx.yield_now();
            s2.enter(ctx, |_| {
                o2.lock().push("visitor-inside");
            });
        });
        sim.run().unwrap();
        let order = order.lock();
        let pos = |s: &str| order.iter().position(|x| *x == s).unwrap();
        assert!(
            pos("visitor-inside") > pos("in-crowd")
                && pos("visitor-inside") < pos("back-in-serializer"),
            "visitor entered while the crowder was in the crowd: {order:?}"
        );
    }

    /// Longest-waiting selection across queues: when two heads become
    /// eligible simultaneously, the older ticket wins.
    #[test]
    fn longest_waiting_head_wins() {
        let mut sim = Sim::new();
        let s = Arc::new(Serializer::new("s", false));
        let qa = s.queue("a");
        let qb = s.queue("b");
        let order = Arc::new(Mutex::new(Vec::new()));
        for (name, q, delay) in [("older", qa, 0u32), ("younger", qb, 1)] {
            let (s, o) = (Arc::clone(&s), Arc::clone(&order));
            sim.spawn(name, move |ctx| {
                for _ in 0..delay {
                    ctx.yield_now();
                }
                s.enter(ctx, |sc| {
                    sc.enqueue(q, |v| *v.state());
                    o.lock().push(name);
                });
            });
        }
        let s3 = Arc::clone(&s);
        sim.spawn("setter", move |ctx| {
            ctx.yield_now();
            ctx.yield_now();
            s3.enter(ctx, |sc| sc.state(|b| *b = true));
        });
        sim.run().unwrap();
        assert_eq!(*order.lock(), vec!["older", "younger"]);
    }

    /// Enqueue with an immediately-true guard on an otherwise idle
    /// serializer continues without deadlock (self-selection).
    #[test]
    fn enqueue_with_true_guard_continues() {
        let mut sim = Sim::new();
        let s = Arc::new(Serializer::new("s", ()));
        let q = s.queue("q");
        let s2 = Arc::clone(&s);
        sim.spawn("solo", move |ctx| {
            s2.enter(ctx, |sc| {
                sc.enqueue(q, |_| true);
                ctx.emit("through", &[]);
            });
        });
        let report = sim.run().expect("no deadlock");
        assert_eq!(report.trace.count_user("through"), 1);
    }

    #[test]
    fn enqueue_priority_orders_queue_by_rank() {
        let mut sim = Sim::new();
        let s = Arc::new(Serializer::new("s", false));
        let q = s.queue("ranked");
        let order = Arc::new(Mutex::new(Vec::new()));
        for (i, rank) in [(0, 30i64), (1, 10), (2, 20)] {
            let (s, o) = (Arc::clone(&s), Arc::clone(&order));
            sim.spawn(&format!("w{i}"), move |ctx| {
                s.enter(ctx, |sc| {
                    sc.enqueue_priority(q, rank, |v| *v.state());
                    o.lock().push(rank);
                });
            });
        }
        let s2 = Arc::clone(&s);
        sim.spawn("setter", move |ctx| {
            for _ in 0..3 {
                ctx.yield_now();
            }
            s2.enter(ctx, |sc| sc.state(|b| *b = true));
        });
        sim.run().unwrap();
        assert_eq!(*order.lock(), vec![10, 20, 30], "served in priority order");
    }

    #[test]
    fn enqueue_by_expires_and_returns_with_possession() {
        let mut sim = Sim::new();
        let s = Arc::new(Serializer::new("s", false));
        let q = s.queue("gate");
        let s2 = Arc::clone(&s);
        sim.spawn("impatient", move |ctx| {
            s2.enter(ctx, |sc| {
                let before = ctx.now();
                let met = sc.enqueue_by(q, 30u64, |v| *v.state());
                assert!(!met, "the guarantee is never met");
                assert!(ctx.now().0 >= before.0 + 30, "waited out the bound");
                // Possession was re-acquired: the state is inspectable.
                assert!(!sc.state(|b| *b));
                ctx.emit("handled-timeout", &[]);
            });
        });
        let report = sim.run().expect("timeout avoids the deadlock");
        assert_eq!(report.trace.count_user("handled-timeout"), 1);
    }

    #[test]
    fn enqueue_by_succeeds_when_guarantee_met_in_time() {
        let mut sim = Sim::new();
        let s = Arc::new(Serializer::new("s", false));
        let q = s.queue("gate");
        let (s1, s2) = (Arc::clone(&s), Arc::clone(&s));
        sim.spawn("waiter", move |ctx| {
            s1.enter(ctx, |sc| {
                let met = sc.enqueue_by(q, 1000u64, |v| *v.state());
                assert!(met, "setter ran before the deadline");
                ctx.emit("met", &[]);
            });
        });
        sim.spawn("setter", move |ctx| {
            ctx.yield_now();
            s2.enter(ctx, |sc| sc.state(|b| *b = true));
        });
        let report = sim.run().unwrap();
        assert_eq!(report.trace.count_user("met"), 1);
    }

    /// Deadline withdrawal: `enqueue_by` gives up at the absolute
    /// deadline, leaves no stale entry behind once it withdraws, and an
    /// already-expired deadline fails instantly without releasing
    /// possession.
    #[test]
    fn enqueue_by_withdraws_at_the_deadline() {
        let mut sim = Sim::new();
        let s = Arc::new(Serializer::new("s", false));
        let q = s.queue("gate");
        let s2 = Arc::clone(&s);
        sim.spawn("impatient", move |ctx| {
            s2.enter(ctx, |sc| {
                let deadline = ctx.deadline_after(5);
                assert!(!sc.enqueue_by(q, deadline, |v| *v.state()));
                assert!(deadline.expired(ctx.now()), "gave up only at the deadline");
                assert_eq!(sc.queue_len(q), 0, "withdrawal removed the entry");
                let before = ctx.now();
                assert!(
                    !sc.enqueue_by(q, deadline, |v| *v.state()),
                    "expired deadline fails immediately"
                );
                assert_eq!(ctx.now(), before, "no scheduling point consumed");
            });
        });
        sim.run().expect("deadline avoids the deadlock");
    }

    #[test]
    fn stale_timed_out_head_does_not_wedge_the_queue() {
        // An impatient waiter times out at the head of the queue; the
        // waiter behind it must still be served when its guard turns true.
        let mut sim = Sim::new();
        let s = Arc::new(Serializer::new("s", false));
        let q = s.queue("gate");
        let order = Arc::new(Mutex::new(Vec::new()));
        let (s1, o1) = (Arc::clone(&s), Arc::clone(&order));
        sim.spawn("impatient", move |ctx| {
            s1.enter(ctx, |sc| {
                assert!(!sc.enqueue_by(q, 10u64, |v| *v.state()));
                o1.lock().push("timed-out");
            });
        });
        let (s2, o2) = (Arc::clone(&s), Arc::clone(&order));
        sim.spawn("patient", move |ctx| {
            ctx.yield_now();
            s2.enter(ctx, |sc| {
                sc.enqueue(q, |v| *v.state());
                o2.lock().push("served");
            });
        });
        let s3 = Arc::clone(&s);
        sim.spawn("setter", move |ctx| {
            ctx.sleep(50); // well past the impatient waiter's deadline
            s3.enter(ctx, |sc| sc.state(|b| *b = true));
        });
        sim.run().unwrap();
        let order = order.lock();
        assert!(order.contains(&"timed-out"));
        assert!(order.contains(&"served"));
    }

    #[test]
    fn never_true_guard_deadlocks_and_names_queue() {
        let mut sim = Sim::new();
        let s = Arc::new(Serializer::new("s", ()));
        let q = s.queue("doom");
        let s2 = Arc::clone(&s);
        sim.spawn("stuck", move |ctx| {
            s2.enter(ctx, |sc| sc.enqueue(q, |_| false));
        });
        let err = sim.run().expect_err("deadlock");
        assert!(err.is_deadlock());
        assert!(err.to_string().contains("doom"));
    }

    /// Readers/writers with crowds and guards: writers exclusive, readers
    /// shared, never a reader and writer together — across random seeds.
    #[test]
    fn readers_writers_invariants_under_random_schedules() {
        for seed in 0..8 {
            let mut sim = Sim::new();
            sim.set_policy(RandomPolicy::new(seed));
            let s = Arc::new(Serializer::new("db", ()));
            let q = s.queue("req");
            let readers = s.crowd("readers");
            let writers = s.crowd("writers");
            let active = Arc::new(Mutex::new((0i32, 0i32, false))); // (readers, writers, violated)
            for i in 0..3 {
                let s = Arc::clone(&s);
                let active = Arc::clone(&active);
                sim.spawn(&format!("r{i}"), move |ctx| {
                    for _ in 0..3 {
                        s.enter(ctx, |sc| {
                            sc.enqueue(q, move |v| v.crowd_is_empty(writers));
                            sc.join_crowd(readers, || {
                                {
                                    let mut a = active.lock();
                                    a.0 += 1;
                                    if a.1 > 0 {
                                        a.2 = true;
                                    }
                                }
                                ctx.yield_now();
                                active.lock().0 -= 1;
                            });
                        });
                        ctx.yield_now();
                    }
                });
            }
            for i in 0..2 {
                let s = Arc::clone(&s);
                let active = Arc::clone(&active);
                sim.spawn(&format!("w{i}"), move |ctx| {
                    for _ in 0..3 {
                        s.enter(ctx, |sc| {
                            sc.enqueue(q, move |v| {
                                v.crowd_is_empty(writers) && v.crowd_is_empty(readers)
                            });
                            sc.join_crowd(writers, || {
                                {
                                    let mut a = active.lock();
                                    a.1 += 1;
                                    if a.0 > 0 || a.1 > 1 {
                                        a.2 = true;
                                    }
                                }
                                ctx.yield_now();
                                active.lock().1 -= 1;
                            });
                        });
                        ctx.yield_now();
                    }
                });
            }
            sim.run().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(!active.lock().2, "seed {seed}: exclusion violated");
        }
    }
}
