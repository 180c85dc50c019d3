//! The simulator's path-expression runtime: [`PathResource`].
//!
//! The token machine — the conjunction of paths, the op table and the
//! longest-waiting FIFO scan — is the shared [`crate::backend::Machine`];
//! this module adds the simulator's blocking protocol around it: parking
//! on the op's reason, the parked-only grant guard, timed withdrawal,
//! poisoning, and the footprint marks the explorers read.

use crate::ast::Path;
use crate::backend::{Machine, PredicateView};
use crate::parse::{parse_paths, ParseError};
use bloom_sim::{Access, Ctx, Deadline, ObjId, Poisoned};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A shared resource whose synchronization is specified by path expressions.
///
/// # Example
///
/// ```
/// use bloom_pathexpr::PathResource;
/// use bloom_sim::Sim;
/// use std::sync::Arc;
///
/// let mut sim = Sim::new();
/// // The paper's one-slot buffer: deposits and removes strictly alternate.
/// let buf = Arc::new(PathResource::parse("slot", "path deposit ; remove end").unwrap());
///
/// let b = Arc::clone(&buf);
/// sim.spawn("consumer", move |ctx| {
///     b.perform(ctx, "remove", || { /* take the value */ });
/// });
/// let b = Arc::clone(&buf);
/// sim.spawn("producer", move |ctx| {
///     b.perform(ctx, "deposit", || { /* store the value */ });
/// });
/// // The consumer arrived first but the path forces deposit before remove.
/// sim.run().unwrap();
/// ```
///
/// # Crash safety
///
/// A process dying (fault-plan kill or panic) *mid-operation* — between
/// the paths granting its start and its finish — poisons the resource:
/// the path states have consumed tokens that will never be put back, so
/// every constraint downstream of the dead operation is unsatisfiable.
/// The poison wakes all blocked requests; they (and later requesters)
/// observe a [`Poisoned`] verdict from [`PathResource::try_perform`],
/// while plain [`PathResource::perform`] panics, keeping the failure
/// loud. A process dying while *blocked* (its operation never started)
/// is simply removed from the request queue — the resource stays healthy.
#[derive(Debug)]
pub struct PathResource {
    name: String,
    /// Identity for object-granular dependency tracking.
    obj: ObjId,
    machine: Mutex<Machine<()>>,
    /// Set when a process died mid-operation; sticky once set.
    poisoned: Mutex<Option<Poisoned>>,
}

impl PathResource {
    /// Builds a resource from already-parsed paths.
    pub fn from_paths(name: &str, paths: &[Path]) -> Self {
        PathResource {
            name: name.to_string(),
            obj: ObjId::new("pathexpr", name),
            machine: Mutex::new(Machine::new(name, paths)),
            poisoned: Mutex::new(None),
        }
    }

    /// Parses one or more `path … end` declarations and builds the resource.
    pub fn parse(name: &str, source: &str) -> Result<Self, ParseError> {
        Ok(PathResource::from_paths(name, &parse_paths(source)?))
    }

    /// The resource's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Executes `body` as operation `op`, blocking until every path
    /// naming `op` permits it to start.
    ///
    /// Operations may nest: `body` may itself call `perform` on the same
    /// resource (path procedures invoking other procedures, as in the
    /// paper's Figure 1 where `requestwrite = begin openwrite end`).
    /// An operation named in no path is unconstrained.
    ///
    /// # Panics
    ///
    /// Panics if the resource is poisoned (a process died mid-operation).
    /// Use [`PathResource::try_perform`] to handle poisoning as a value.
    pub fn perform<R>(&self, ctx: &Ctx, op: &str, body: impl FnOnce() -> R) -> R {
        match self.try_perform(ctx, op, body) {
            Ok(r) => r,
            Err(p) => panic!("{p}"),
        }
    }

    /// Like [`PathResource::perform`], but surfaces poisoning as a value
    /// instead of panicking. The operation is not started on a poisoned
    /// resource.
    pub fn try_perform<R>(
        &self,
        ctx: &Ctx,
        op: &str,
        body: impl FnOnce() -> R,
    ) -> Result<R, Poisoned> {
        self.perform_inner(ctx, op, None, body)
            .map(|r| r.expect("an untimed request always starts"))
    }

    /// Starts operation `op` (the first half of [`PathResource::perform`]).
    /// Prefer `perform`; `begin`/`finish` exist for callers whose operation
    /// body does not fit a closure. Note that the `begin`/`finish` form has
    /// no crash protection for the operation body — only `perform`/
    /// `try_perform` poison the resource when the body dies.
    ///
    /// # Panics
    ///
    /// Panics if the resource is (or becomes) poisoned.
    pub fn begin(&self, ctx: &Ctx, op: &str) {
        if let Err(p) = self.request(ctx, op, None) {
            panic!("{p}");
        }
    }

    /// Timed [`PathResource::begin`]: requests `op`, giving up at
    /// `deadline`. Accepts anything convertible into a [`Deadline`] — a
    /// tick count (`u64`), a `Duration`, or an explicit [`Deadline`].
    /// Returns `true` if the operation started (the caller owes a matching
    /// [`PathResource::finish`]), `false` on timeout — the request was
    /// withdrawn and the queue re-scanned, since `blocked()` predicate
    /// counts just changed and may have enabled another request (the same
    /// rescan a finish performs). An already-expired deadline degenerates
    /// to a single activation attempt: an operation the paths permit right
    /// now still starts, but nothing is queued and no scheduling point is
    /// consumed.
    ///
    /// # Panics
    ///
    /// Panics if the resource is (or becomes) poisoned, whether the poison
    /// woke the parked request or arrived with the timeout.
    pub fn request_by(&self, ctx: &Ctx, op: &str, deadline: impl Into<Deadline>) -> bool {
        self.request(ctx, op, Some(deadline.into()))
            .unwrap_or_else(|p| panic!("{p}"))
    }

    /// Timed [`PathResource::perform`]: runs `body` as `op` if the paths
    /// permit it to start by `deadline`, returning `None` on timeout.
    /// Accepts anything convertible into a [`Deadline`]. Panics on poison
    /// like `perform`.
    pub fn perform_by<R>(
        &self,
        ctx: &Ctx,
        op: &str,
        deadline: impl Into<Deadline>,
        body: impl FnOnce() -> R,
    ) -> Option<R> {
        self.perform_inner(ctx, op, Some(deadline.into()), body)
            .unwrap_or_else(|p| panic!("{p}"))
    }

    /// The one perform: `Ok(None)` if the request timed out (see
    /// [`PathResource::request`]).
    fn perform_inner<R>(
        &self,
        ctx: &Ctx,
        op: &str,
        deadline: Option<Deadline>,
        body: impl FnOnce() -> R,
    ) -> Result<Option<R>, Poisoned> {
        if !self.request(ctx, op, deadline)? {
            return Ok(None);
        }
        // From here we hold an activation: dying inside the body leaves
        // tokens consumed forever, so the unwind must poison the resource.
        let cleanup = PoisonOnUnwind { res: self, ctx };
        let r = body();
        std::mem::forget(cleanup);
        self.finish(ctx, op);
        Ok(Some(r))
    }

    /// The one request: starts `op` or queues it and parks until it is
    /// granted or, with a `deadline`, until that expires. `Ok(true)` means
    /// the operation started, `Ok(false)` that the deadline expired first
    /// (the request is withdrawn) and `Err` that the resource is poisoned.
    /// An already-expired deadline makes one activation attempt and
    /// queues nothing.
    fn request(&self, ctx: &Ctx, op: &str, deadline: Option<Deadline>) -> Result<bool, Poisoned> {
        if let Some(p) = self.observe_poison(ctx) {
            return Err(p);
        }
        // An expired deadline neither queues nor parks.
        let (queue, timeout) = match deadline {
            None => (true, None),
            Some(deadline) => match ctx.remaining(deadline) {
                Some(ticks) => (true, Some(ticks)),
                None => (false, None),
            },
        };
        // Starting (or queuing) mutates the machine.
        ctx.note_sync_obj(&self.obj, Access::Write);
        let me = ctx.pid();
        let reason = {
            let mut m = self.machine.lock();
            let id = m.intern(op);
            if m.try_start(me, id) {
                None
            } else if queue {
                m.enqueue(me, id, ());
                Some(Arc::clone(m.reason(id)))
            } else {
                return Ok(false);
            }
        };
        let Some(reason) = reason else {
            // Starting can enable blocked peers (opening a burst).
            self.wake_startable(ctx);
            return Ok(true);
        };
        // If we die while parked here, our request must not linger in the
        // queue: it can never be granted and poisons nothing.
        let cleanup = UnblockOnUnwind { res: self, ctx };
        let woken = ctx.park(&reason, timeout);
        std::mem::forget(cleanup);
        if !woken {
            // Timed out: withdraw. A granting waker cannot have selected us
            // after the timer fired (`drain_startable` skips non-parked
            // entries), so the entry is still ours to remove.
            self.machine.lock().withdraw(me);
            self.wake_startable(ctx);
            return match self.observe_poison(ctx) {
                Some(p) => Err(p),
                None => Ok(false),
            };
        }
        // The resumed quantum re-reads the machine (grant-vs-poison
        // disambiguation below) and may dequeue, so it must be marked.
        ctx.note_sync_obj_op(&self.obj, Access::Write);
        // A granting waker applied our enter effects, recorded our
        // activation, and *removed us from the blocked queue* before
        // unparking. A poison broadcast wakes us still-queued instead.
        if self.machine.lock().withdraw(me) {
            let p = self
                .observe_poison(ctx)
                .expect("woken without grant can only happen on poison");
            return Err(p);
        }
        Ok(true)
    }

    /// Finishes operation `op` (the second half of [`PathResource::perform`]).
    pub fn finish(&self, ctx: &Ctx, op: &str) {
        ctx.note_sync_obj_op(&self.obj, Access::Write);
        self.machine.lock().finish(ctx.pid(), op);
        self.wake_startable(ctx);
    }

    /// Starts every queued request the machine now permits, oldest first,
    /// and unparks each. A queued process that already woke by timeout
    /// (runnable, but not yet dispatched to withdraw its request) is
    /// *skipped, not granted*: it will report the timeout and must not be
    /// charged an activation it will never finish. Its entry stays queued
    /// for its own withdrawal.
    fn wake_startable(&self, ctx: &Ctx) {
        ctx.note_sync_obj_op(&self.obj, Access::Write);
        self.machine
            .lock()
            .drain_startable(|pid| ctx.is_parked(pid), |pid, ()| ctx.unpark(pid));
    }

    /// Whether a process died mid-operation, leaving the paths' token
    /// state unrecoverable.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.lock().is_some()
    }

    /// Clones the poison verdict, recording the observation in the trace.
    fn observe_poison(&self, ctx: &Ctx) -> Option<Poisoned> {
        // Reads shared state — and runs at every request entry point, so
        // it puts the path machine in the footprint of those quanta (see
        // `Ctx::note_sync_obj`).
        ctx.note_sync_obj_op(&self.obj, Access::Read);
        let p = self.poisoned.lock().clone()?;
        ctx.emit(&format!("poison-seen:{}", self.name), &[]);
        Some(p)
    }

    /// Number of executions of `op` currently in progress.
    ///
    /// A probe for test assertions and post-run inspection. It records no
    /// footprint, so a process must not branch on it during an explored
    /// schedule: the revisit prune would not see the read. (v3
    /// predicates need no probe — they are evaluated inside
    /// already-marked machine operations.)
    pub fn active_count(&self, op: &str) -> usize {
        self.machine.lock().view().active(op)
    }

    /// Number of requests currently blocked: a probe for test assertions
    /// and post-run inspection (see [`PathResource::active_count`]).
    pub fn blocked_count(&self) -> usize {
        self.machine.lock().queued().count()
    }

    /// Whether `op` could start right now (no tokens are consumed): a
    /// probe for test assertions and post-run inspection (see
    /// [`PathResource::active_count`]).
    pub fn can_start(&self, op: &str) -> bool {
        self.machine.lock().can_start(op)
    }

    // -- Version-3 extensions (Andler: predicates and state variables) ---

    /// Attaches a predicate to `op`: the operation may start only when the
    /// predicate holds, in addition to the path constraints. Call before
    /// the simulation starts.
    ///
    /// Predicates see synchronization state the 1974 paths cannot express:
    /// active/blocked/completed counts per operation and user state
    /// variables. This is the extension the paper reports Andler added,
    /// "the version closest to satisfying our requirements" (§5.1) — and
    /// the version that can state readers priority correctly, fixing the
    /// footnote-3 anomaly (see `bloom-problems`).
    pub fn add_predicate(
        &self,
        op: &str,
        predicate: impl Fn(&PredicateView<'_>) -> bool + Send + 'static,
    ) {
        self.machine.lock().add_predicate(op, predicate);
    }

    /// Registers a state-variable update to run whenever `op` starts.
    pub fn on_enter(&self, op: &str, update: impl Fn(&mut BTreeMap<String, i64>) + Send + 'static) {
        self.machine.lock().on_enter(op, update);
    }

    /// Registers a state-variable update to run whenever `op` finishes.
    pub fn on_exit(&self, op: &str, update: impl Fn(&mut BTreeMap<String, i64>) + Send + 'static) {
        self.machine.lock().on_exit(op, update);
    }

    /// Completed executions of `op` (v3 history information).
    pub fn completed_count(&self, op: &str) -> u64 {
        self.machine.lock().view().completed(op)
    }

    /// Current value of a v3 state variable (0 if never written).
    pub fn var(&self, name: &str) -> i64 {
        self.machine.lock().view().var(name)
    }
}

/// Poisons a [`PathResource`] when an operation body unwinds (kill or
/// panic): the activation's tokens are consumed and can never be put
/// back. All blocked requests are woken — *without* removing their queue
/// entries, which is how they distinguish the poison broadcast from a
/// grant — so they observe the verdict instead of wedging.
struct PoisonOnUnwind<'a> {
    res: &'a PathResource,
    ctx: &'a Ctx,
}

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if self.ctx.cancelling() {
            return;
        }
        *self.res.poisoned.lock() = Some(Poisoned {
            primitive: self.res.name.clone(),
            by: self.ctx.pid(),
        });
        self.ctx.emit(&format!("poison:{}", self.res.name), &[]);
        for pid in self.res.machine.lock().queued() {
            self.ctx.try_unpark(pid);
        }
    }
}

/// Removes the parked process's own request from the blocked queue if the
/// park unwinds: a request whose process died can never be granted, and
/// leaving it would make `blocked()` predicate counts lie forever.
struct UnblockOnUnwind<'a> {
    res: &'a PathResource,
    ctx: &'a Ctx,
}

impl Drop for UnblockOnUnwind<'_> {
    fn drop(&mut self) {
        self.res.machine.lock().withdraw(self.ctx.pid());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bloom_sim::{RandomPolicy, Sim};
    use std::sync::Arc;

    #[test]
    fn one_slot_buffer_forces_alternation() {
        let mut sim = Sim::new();
        let r = Arc::new(PathResource::parse("slot", "path deposit ; remove end").unwrap());
        let order = Arc::new(Mutex::new(Vec::new()));
        // Consumer arrives first; the path must hold it until a deposit.
        for (name, op, reps) in [("cons", "remove", 3), ("prod", "deposit", 3)] {
            let r = Arc::clone(&r);
            let order = Arc::clone(&order);
            sim.spawn(name, move |ctx| {
                for _ in 0..reps {
                    r.perform(ctx, op, || order.lock().push(op));
                }
            });
        }
        sim.run().unwrap();
        assert_eq!(
            *order.lock(),
            vec!["deposit", "remove", "deposit", "remove", "deposit", "remove"]
        );
    }

    #[test]
    fn single_op_path_serializes() {
        let mut sim = Sim::new();
        let r = Arc::new(PathResource::parse("s", "path a end").unwrap());
        let peak = Arc::new(Mutex::new((0u32, 0u32)));
        for i in 0..4 {
            let r = Arc::clone(&r);
            let peak = Arc::clone(&peak);
            sim.spawn(&format!("p{i}"), move |ctx| {
                r.perform(ctx, "a", || {
                    {
                        let mut p = peak.lock();
                        p.0 += 1;
                        p.1 = p.1.max(p.0);
                    }
                    ctx.yield_now();
                    peak.lock().0 -= 1;
                });
            });
        }
        sim.run().unwrap();
        assert_eq!(peak.lock().1, 1);
    }

    #[test]
    fn burst_allows_concurrent_readers_excludes_writer() {
        let mut sim = Sim::new();
        let r = Arc::new(PathResource::parse("rw", "path { read } , write end").unwrap());
        let stats = Arc::new(Mutex::new((0i32, 0i32, 0i32, false))); // readers, writers, max_readers, violation
        for i in 0..3 {
            let r = Arc::clone(&r);
            let stats = Arc::clone(&stats);
            sim.spawn(&format!("r{i}"), move |ctx| {
                r.perform(ctx, "read", || {
                    {
                        let mut s = stats.lock();
                        s.0 += 1;
                        s.2 = s.2.max(s.0);
                        if s.1 > 0 {
                            s.3 = true;
                        }
                    }
                    ctx.yield_now();
                    ctx.yield_now();
                    stats.lock().0 -= 1;
                });
            });
        }
        let r2 = Arc::clone(&r);
        let stats2 = Arc::clone(&stats);
        sim.spawn("w", move |ctx| {
            r2.perform(ctx, "write", || {
                let mut s = stats2.lock();
                s.1 += 1;
                if s.0 > 0 {
                    s.3 = true;
                }
                s.1 -= 1;
            });
        });
        sim.run().unwrap();
        let s = stats.lock();
        assert!(s.2 > 1, "readers overlapped (burst worked): max={}", s.2);
        assert!(!s.3, "no reader/writer overlap");
    }

    /// Five paths name `op`, more than an activation holds inline.
    const WIDE: &str = "path op end path op , a end path { op } , b end \
                        path 3 : (op) end path 2 : (op , c) end";

    /// Under one path and under the five of [`WIDE`]: queued requests
    /// start longest-waiting first, the conjunction excludes, and `free`,
    /// named in no path, runs inside a held `op`. Both ops are counted.
    #[test]
    fn blocked_requests_resume_longest_waiting_first() {
        for src in ["path op end", WIDE] {
            let mut sim = Sim::new();
            let r = Arc::new(PathResource::parse("s", src).unwrap());
            let log = Arc::new(Mutex::new((0u32, 0u32, Vec::new()))); // inside, peak, order
            for i in 0..4 {
                let (r, log) = (Arc::clone(&r), Arc::clone(&log));
                sim.spawn(&format!("p{i}"), move |ctx| {
                    for _ in 0..i {
                        ctx.yield_now(); // stagger arrival order
                    }
                    r.perform(ctx, "op", || {
                        {
                            let mut l = log.lock();
                            l.0 += 1;
                            l.1 = l.1.max(l.0);
                            l.2.push(i);
                        }
                        assert_eq!(r.active_count("op"), 1);
                        r.perform(ctx, "free", || assert_eq!(r.active_count("free"), 1));
                        for _ in 0..8 {
                            ctx.yield_now(); // let the others queue up
                        }
                        log.lock().0 -= 1;
                    });
                });
            }
            sim.run().unwrap();
            let l = log.lock();
            assert_eq!(l.1, 1, "{src}: exclusion");
            assert_eq!(
                l.2,
                vec![0, 1, 2, 3],
                "{src}: FIFO service of blocked requests"
            );
            assert_eq!((r.active_count("op"), r.completed_count("op")), (0, 4));
            assert_eq!((r.active_count("free"), r.completed_count("free")), (0, 4));
        }
    }

    #[test]
    fn conjunction_of_two_paths_constrains_both() {
        // `b` is serialized by path 1 and must follow `a` by path 2.
        let mut sim = Sim::new();
        let r = Arc::new(PathResource::parse("s", "path b end path a ; b end").unwrap());
        let order = Arc::new(Mutex::new(Vec::new()));
        let (r1, o1) = (Arc::clone(&r), Arc::clone(&order));
        sim.spawn("bee", move |ctx| {
            r1.perform(ctx, "b", || o1.lock().push("b"));
        });
        let (r2, o2) = (Arc::clone(&r), Arc::clone(&order));
        sim.spawn("ay", move |ctx| {
            ctx.yield_now();
            r2.perform(ctx, "a", || o2.lock().push("a"));
        });
        sim.run().unwrap();
        assert_eq!(*order.lock(), vec!["a", "b"]);
    }

    #[test]
    fn nested_operations_of_same_resource() {
        // outer's body performs inner; both are constrained.
        let mut sim = Sim::new();
        let r = Arc::new(PathResource::parse("s", "path outer end path inner end").unwrap());
        let r1 = Arc::clone(&r);
        sim.spawn("nest", move |ctx| {
            r1.perform(ctx, "outer", || {
                assert_eq!(r1.active_count("outer"), 1);
                r1.perform(ctx, "inner", || {
                    assert_eq!(r1.active_count("inner"), 1);
                });
            });
            assert_eq!(r1.active_count("outer"), 0);
        });
        sim.run().unwrap();
    }

    #[test]
    fn unconstrained_op_runs_freely() {
        let mut sim = Sim::new();
        let r = Arc::new(PathResource::parse("s", "path a end").unwrap());
        let r1 = Arc::clone(&r);
        sim.spawn("free", move |ctx| {
            r1.perform(ctx, "unrelated", || {});
            r1.perform(ctx, "unrelated", || {});
        });
        sim.run().unwrap();
    }

    #[test]
    fn bounded_buffer_path_respects_capacity() {
        let mut sim = Sim::new();
        let r = Arc::new(PathResource::parse("buf", "path 2 : (deposit ; remove) end").unwrap());
        let fill = Arc::new(Mutex::new((0i32, 0i32))); // current, max
        let (r1, f1) = (Arc::clone(&r), Arc::clone(&fill));
        sim.spawn("prod", move |ctx| {
            for _ in 0..6 {
                r1.perform(ctx, "deposit", || {
                    let mut f = f1.lock();
                    f.0 += 1;
                    f.1 = f.1.max(f.0);
                });
            }
        });
        let (r2, f2) = (Arc::clone(&r), Arc::clone(&fill));
        sim.spawn("cons", move |ctx| {
            for _ in 0..6 {
                r2.perform(ctx, "remove", || f2.lock().0 -= 1);
                ctx.yield_now();
            }
        });
        sim.run().unwrap();
        let f = fill.lock();
        assert_eq!(f.0, 0);
        assert!(f.1 <= 2, "buffer bound respected: max fill {}", f.1);
    }

    #[test]
    fn waking_one_burst_member_wakes_the_rest() {
        // While `w` runs, several `r` requests block; when `w` exits, the
        // first `r` opens the burst and the others must be woken too.
        let mut sim = Sim::new();
        let r = Arc::new(PathResource::parse("rw", "path { r } , w end").unwrap());
        let concurrent = Arc::new(Mutex::new((0i32, 0i32)));
        let r0 = Arc::clone(&r);
        sim.spawn("writer", move |ctx| {
            r0.perform(ctx, "w", || {
                for _ in 0..4 {
                    ctx.yield_now();
                }
            });
        });
        for i in 0..3 {
            let r = Arc::clone(&r);
            let c = Arc::clone(&concurrent);
            sim.spawn(&format!("r{i}"), move |ctx| {
                r.perform(ctx, "r", || {
                    {
                        let mut s = c.lock();
                        s.0 += 1;
                        s.1 = s.1.max(s.0);
                    }
                    ctx.yield_now();
                    c.lock().0 -= 1;
                });
            });
        }
        sim.run().unwrap();
        assert_eq!(
            concurrent.lock().1,
            3,
            "all blocked readers resumed together"
        );
    }

    #[test]
    fn v3_predicate_gates_an_operation() {
        let mut sim = Sim::new();
        let r = Arc::new(PathResource::parse("s", "path a end path b end").unwrap());
        // `b` may only run after two `a`s have completed: history predicate.
        r.add_predicate("b", |v| v.completed("a") >= 2);
        let order = Arc::new(Mutex::new(Vec::new()));
        let (r1, o1) = (Arc::clone(&r), Arc::clone(&order));
        sim.spawn("bee", move |ctx| {
            r1.perform(ctx, "b", || o1.lock().push("b"));
        });
        let (r2, o2) = (Arc::clone(&r), Arc::clone(&order));
        sim.spawn("ayes", move |ctx| {
            ctx.yield_now();
            for _ in 0..2 {
                r2.perform(ctx, "a", || o2.lock().push("a"));
            }
        });
        sim.run().unwrap();
        assert_eq!(*order.lock(), vec!["a", "a", "b"]);
    }

    #[test]
    fn v3_blocked_count_implements_priority() {
        // Readers-priority in one predicate: write defers to waiting reads.
        let mut sim = Sim::new();
        let r = Arc::new(PathResource::parse("rw", "path { read } , write end").unwrap());
        r.add_predicate("write", |v| v.blocked("read") == 0);
        let order = Arc::new(Mutex::new(Vec::new()));
        let (r0, o0) = (Arc::clone(&r), Arc::clone(&order));
        sim.spawn("writer1", move |ctx| {
            r0.perform(ctx, "write", || {
                for _ in 0..4 {
                    ctx.yield_now();
                }
                o0.lock().push("w1");
            });
        });
        let (r1, o1) = (Arc::clone(&r), Arc::clone(&order));
        sim.spawn("writer2", move |ctx| {
            ctx.yield_now();
            r1.perform(ctx, "write", || o1.lock().push("w2"));
        });
        let (r2, o2) = (Arc::clone(&r), Arc::clone(&order));
        sim.spawn("reader", move |ctx| {
            ctx.yield_now();
            ctx.yield_now();
            r2.perform(ctx, "read", || o2.lock().push("r"));
        });
        sim.run().unwrap();
        // Without the predicate this is the footnote-3 order [w1, w2, r].
        assert_eq!(*order.lock(), vec!["w1", "r", "w2"]);
    }

    #[test]
    fn v3_state_variables_update_on_enter_and_exit() {
        let mut sim = Sim::new();
        let r = Arc::new(PathResource::parse("s", "path a end").unwrap());
        r.on_enter("a", |vars| *vars.entry("entered".into()).or_insert(0) += 1);
        r.on_exit("a", |vars| *vars.entry("exited".into()).or_insert(0) += 1);
        // Limit total runs via a state variable: at most 3 `a`s ever.
        r.add_predicate("a", |v| v.var("entered") < 3);
        let r1 = Arc::clone(&r);
        sim.spawn("worker", move |ctx| {
            for _ in 0..3 {
                r1.perform(ctx, "a", || {});
            }
            assert_eq!(r1.var("entered"), 3);
            assert_eq!(r1.var("exited"), 3);
            assert_eq!(r1.completed_count("a"), 3);
        });
        let r2 = Arc::clone(&r);
        sim.spawn("late", move |ctx| {
            for _ in 0..4 {
                ctx.yield_now();
            }
            // A fourth `a` is blocked forever by the predicate; just check
            // we can observe that without running it.
            assert!(!r2.can_start("a"));
        });
        sim.run().unwrap();
    }

    #[test]
    fn deadlock_when_operation_can_never_start() {
        let mut sim = Sim::new();
        let r = Arc::new(PathResource::parse("s", "path a ; b end").unwrap());
        let r1 = Arc::clone(&r);
        sim.spawn("stuck", move |ctx| {
            r1.perform(ctx, "b", || {}); // b needs a first; nobody does a
        });
        let err = sim.run().expect_err("deadlock");
        assert!(err.is_deadlock());
        assert!(err.to_string().contains("s.b"));
    }

    /// A timed request for an operation the paths never enable gives up at
    /// the bound, leaves the queue clean, and the resource keeps serving
    /// other operations.
    #[test]
    fn request_by_withdraws_cleanly() {
        let mut sim = Sim::new();
        let r = Arc::new(PathResource::parse("s", "path a ; b end").unwrap());
        let r1 = Arc::clone(&r);
        sim.spawn("impatient", move |ctx| {
            // b needs an a first; nobody performs a yet.
            assert_eq!(r1.perform_by(ctx, "b", 5u64, || unreachable!()), None);
            assert_eq!(r1.blocked_count(), 0, "request withdrawn");
            ctx.emit("timed-out", &[]);
        });
        let r2 = Arc::clone(&r);
        sim.spawn("worker", move |ctx| {
            ctx.sleep(10);
            r2.perform(ctx, "a", || {});
            r2.perform(ctx, "b", || {});
        });
        let report = sim.run().expect("timeout avoids the deadlock");
        assert_eq!(report.trace.count_user("timed-out"), 1);
    }

    /// Withdrawal re-scans the queue: a predicate counting `blocked()`
    /// can flip from false to true when a timed-out request leaves, and
    /// the waiter it was blocking must be started by that rescan (without
    /// it, this scenario deadlocks).
    #[test]
    fn withdrawal_rescan_unblocks_predicate_waiters() {
        let mut sim = Sim::new();
        // r can never start (needs a first); w defers to queued r requests.
        let r = Arc::new(PathResource::parse("s", "path a ; r end path w end").unwrap());
        r.add_predicate("w", |v| v.blocked("r") == 0);
        let order = Arc::new(Mutex::new(Vec::new()));
        let (r1, o1) = (Arc::clone(&r), Arc::clone(&order));
        sim.spawn("reader", move |ctx| {
            assert!(!r1.request_by(ctx, "r", 6u64));
            o1.lock().push("r-gave-up");
        });
        let (r2, o2) = (Arc::clone(&r), Arc::clone(&order));
        sim.spawn("writer", move |ctx| {
            ctx.yield_now(); // let the reader queue first
            r2.perform(ctx, "w", || o2.lock().push("w"));
        });
        sim.run().expect("withdrawal rescan frees the writer");
        assert_eq!(*order.lock(), vec!["r-gave-up", "w"]);
    }

    /// The grant-vs-timeout race, explored exhaustively: a holder's finish
    /// may rescan while the timed requester's timer has already fired. The
    /// `drain_startable` parked-only guard must skip the stale entry in
    /// every schedule — granting it would charge an activation the
    /// requester never observes.
    #[test]
    fn grant_timeout_race_explored_exhaustively() {
        let (_, stats) = bloom_sim::ExploreConfig::new(20_000).run(
            || {
                let mut sim = Sim::new();
                let r = Arc::new(PathResource::parse("s", "path a end").unwrap());
                let r1 = Arc::clone(&r);
                sim.spawn("holder", move |ctx| {
                    r1.perform(ctx, "a", || ctx.sleep(3));
                });
                let r2 = Arc::clone(&r);
                sim.spawn("timed", move |ctx| {
                    if r2.request_by(ctx, "a", 2u64) {
                        r2.finish(ctx, "a");
                    }
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

    #[test]
    fn invariants_hold_under_random_schedules() {
        for seed in 0..8 {
            let mut sim = Sim::new();
            sim.set_policy(RandomPolicy::new(seed));
            let r = Arc::new(PathResource::parse("rw", "path { read } , write end").unwrap());
            let bad = Arc::new(Mutex::new(false));
            let active = Arc::new(Mutex::new((0i32, 0i32)));
            for i in 0..3 {
                let (r, bad, active) = (Arc::clone(&r), Arc::clone(&bad), Arc::clone(&active));
                sim.spawn(&format!("r{i}"), move |ctx| {
                    for _ in 0..4 {
                        r.perform(ctx, "read", || {
                            {
                                let mut a = active.lock();
                                a.0 += 1;
                                if a.1 > 0 {
                                    *bad.lock() = true;
                                }
                            }
                            ctx.yield_now();
                            active.lock().0 -= 1;
                        });
                    }
                });
            }
            for i in 0..2 {
                let (r, bad, active) = (Arc::clone(&r), Arc::clone(&bad), Arc::clone(&active));
                sim.spawn(&format!("w{i}"), move |ctx| {
                    for _ in 0..4 {
                        r.perform(ctx, "write", || {
                            {
                                let mut a = active.lock();
                                a.1 += 1;
                                if a.0 > 0 || a.1 > 1 {
                                    *bad.lock() = true;
                                }
                            }
                            ctx.yield_now();
                            active.lock().1 -= 1;
                        });
                    }
                });
            }
            sim.run().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(!*bad.lock(), "seed {seed}: exclusion violated");
        }
    }
}
