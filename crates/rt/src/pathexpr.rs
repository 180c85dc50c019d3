//! Real-thread path expressions: `bloom_pathexpr::PathResource`'s API
//! on OS threads.
//!
//! Nothing of the path language or its machine is duplicated here: the
//! grammar, the compilation, the token machine, the op table, v3
//! predicate views and the longest-waiting FIFO scan are
//! `bloom_pathexpr::backend::Machine`, the same code the simulator's
//! resource runs. What this module adds is the thread protocol: the
//! machine under one mutex, a condvar broadcast, a `granted` ticket set
//! for direct hand-off, a `poison_woken` set and the poisoned verdict. A
//! conformance divergence for path expressions can therefore only come
//! from that protocol (blocking, grant hand-off, timeouts, poisoning),
//! which is what the differential suite exercises. As everywhere in
//! `bloom-rt`, a timed-out request that finds a grant already issued
//! *accepts* it — settled under the mutex — rather than withdrawing,
//! which is the documented envelope delta from the simulator's
//! parked-only drain guard.

use crate::runtime::RtCtx;
use crate::unlock_then_wake;
use bloom_pathexpr::backend::Machine;
use bloom_pathexpr::{parse_paths, ParseError, Path, PredicateView};
use bloom_sim::{Deadline, Poisoned};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// The machine and the thread protocol around it, under one mutex.
#[derive(Debug)]
struct State {
    /// Queued requests are keyed by their wait ticket.
    machine: Machine<u64>,
    /// Set when a process died mid-operation; sticky once set.
    poisoned: Option<Poisoned>,
    /// Tickets whose request a waker started (enter applied, activation
    /// recorded); the parked thread collects and returns.
    granted: HashSet<u64>,
    /// Tickets woken by a poison broadcast instead of a grant.
    poison_woken: HashSet<u64>,
}

impl State {
    /// Starts every queued request that has become startable, oldest
    /// first, handing each off by its ticket: the woken thread owns a
    /// started activation the moment it observes the grant. Returns
    /// whether anything was granted.
    fn drain_startable(&mut self) -> bool {
        let granted = &mut self.granted;
        self.machine.drain_startable(
            |_| true,
            |_, ticket| {
                granted.insert(ticket);
            },
        )
    }

    /// The poison verdict, if any, recording its observation.
    fn observe_poison(&self, ctx: &RtCtx, name: &str) -> Option<Poisoned> {
        let p = self.poisoned.clone()?;
        ctx.emit(&format!("poison-seen:{name}"), &[]);
        Some(p)
    }
}

/// A shared resource whose synchronization is specified by path
/// expressions, on OS threads; mirrors `bloom_pathexpr::PathResource`
/// (see its docs for the model — conjunction of paths, longest-waiting
/// selection, crash poisoning).
pub struct RtPathResource {
    name: String,
    state: Mutex<State>,
    cv: Condvar,
}

impl RtPathResource {
    /// Builds a resource from already-parsed paths.
    pub fn from_paths(name: &str, paths: &[Path]) -> Self {
        RtPathResource {
            name: name.to_string(),
            state: Mutex::new(State {
                machine: Machine::new(name, paths),
                poisoned: None,
                granted: HashSet::new(),
                poison_woken: HashSet::new(),
            }),
            cv: Condvar::new(),
        }
    }

    /// Parses one or more `path … end` declarations and builds the
    /// resource.
    pub fn parse(name: &str, source: &str) -> Result<Self, ParseError> {
        Ok(RtPathResource::from_paths(name, &parse_paths(source)?))
    }

    /// The resource's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Executes `body` as operation `op`, blocking until every path
    /// naming `op` permits it to start. Panics if the resource is
    /// poisoned; see [`RtPathResource::try_perform`].
    pub fn perform<R>(&self, ctx: &RtCtx, op: &str, body: impl FnOnce() -> R) -> R {
        match self.try_perform(ctx, op, body) {
            Ok(r) => r,
            Err(p) => panic!("{p}"),
        }
    }

    /// Like [`RtPathResource::perform`], but surfaces poisoning as a
    /// value instead of panicking.
    pub fn try_perform<R>(
        &self,
        ctx: &RtCtx,
        op: &str,
        body: impl FnOnce() -> R,
    ) -> Result<R, Poisoned> {
        self.perform_inner(ctx, op, None, body)
            .map(|r| r.expect("an untimed request always starts"))
    }

    /// Starts operation `op` (the first half of
    /// [`RtPathResource::perform`]). The `begin`/`finish` form has no
    /// crash protection for the operation body. Panics on poison.
    pub fn begin(&self, ctx: &RtCtx, op: &str) {
        if let Err(p) = self.request(ctx, op, None) {
            panic!("{p}");
        }
    }

    /// Timed [`RtPathResource::begin`]: requests `op`, giving up at
    /// `deadline` (virtual ticks, mapped to a wall-clock budget). Returns
    /// `true` if the operation started (the caller owes a matching
    /// [`RtPathResource::finish`]), `false` on timeout — the request is
    /// withdrawn and the queue re-scanned, since `blocked()` predicate
    /// counts just changed. An already-expired deadline degenerates to a
    /// single activation attempt. Panics on poison.
    pub fn request_by(&self, ctx: &RtCtx, op: &str, deadline: impl Into<Deadline>) -> bool {
        self.request(ctx, op, Some(deadline.into()))
            .unwrap_or_else(|p| panic!("{p}"))
    }

    /// Timed [`RtPathResource::perform`]: runs `body` as `op` if the
    /// paths permit it to start by `deadline`, returning `None` on
    /// timeout. Panics on poison.
    pub fn perform_by<R>(
        &self,
        ctx: &RtCtx,
        op: &str,
        deadline: impl Into<Deadline>,
        body: impl FnOnce() -> R,
    ) -> Option<R> {
        self.perform_inner(ctx, op, Some(deadline.into()), body)
            .unwrap_or_else(|p| panic!("{p}"))
    }

    /// The one perform: `Ok(None)` if the request timed out.
    fn perform_inner<R>(
        &self,
        ctx: &RtCtx,
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

    /// The one request: starts `op` or queues it and waits until it is
    /// granted or, with a `deadline`, until that expires. `Ok(true)`
    /// means the operation started, `Ok(false)` that the deadline expired
    /// first (the request is withdrawn) and `Err` that the resource is
    /// poisoned. An already-expired deadline makes one activation attempt
    /// and queues nothing.
    fn request(&self, ctx: &RtCtx, op: &str, deadline: Option<Deadline>) -> Result<bool, Poisoned> {
        ctx.chaos();
        // `Some(None)`: the deadline has already expired.
        let budget = deadline.map(|d| (ctx.wall_budget(d), Instant::now()));
        let mut st = self.state.lock();
        if let Some(p) = st.observe_poison(ctx, &self.name) {
            return Err(p);
        }
        let id = st.machine.intern(op);
        if st.machine.try_start(ctx.pid(), id) {
            // Starting can enable blocked peers (opening a burst).
            let wake = st.drain_startable();
            unlock_then_wake(st, &self.cv, wake);
            return Ok(true);
        }
        if let Some((None, _)) = budget {
            return Ok(false);
        }
        let ticket = ctx.fresh_ticket();
        st.machine.enqueue(ctx.pid(), id, ticket);
        loop {
            // A grant that raced the timeout is accepted, not withdrawn:
            // the rt envelope delta, settled under the mutex.
            if st.granted.remove(&ticket) {
                return Ok(true);
            }
            if st.poison_woken.remove(&ticket) {
                let p = st.observe_poison(ctx, &self.name);
                return Err(p.expect("poison wake without a poison verdict"));
            }
            let Some((Some(budget), start)) = budget else {
                self.cv.wait(&mut st);
                continue;
            };
            let elapsed = start.elapsed();
            if elapsed >= budget {
                // Timed out: withdraw and re-scan — a `blocked()`
                // predicate may have just flipped for someone else.
                st.machine.withdraw(ctx.pid());
                let wake = st.drain_startable();
                let poisoned = st.observe_poison(ctx, &self.name);
                unlock_then_wake(st, &self.cv, wake);
                return poisoned.map_or(Ok(false), Err);
            }
            self.cv.wait_for(&mut st, budget - elapsed);
        }
    }

    /// Finishes operation `op` (the second half of
    /// [`RtPathResource::perform`]).
    pub fn finish(&self, ctx: &RtCtx, op: &str) {
        // Jitter-only: `finish` runs after `try_perform` disarmed its
        // poison guard, so it must be kill-atomic (see [`RtCtx::jitter`])
        // — dying here would strand the consumed tokens unpoisoned.
        ctx.jitter();
        let mut st = self.state.lock();
        st.machine.finish(ctx.pid(), op);
        let wake = st.drain_startable();
        unlock_then_wake(st, &self.cv, wake);
    }

    /// Whether a process died mid-operation, leaving the paths' token
    /// state unrecoverable.
    pub fn is_poisoned(&self) -> bool {
        self.state.lock().poisoned.is_some()
    }

    /// Number of executions of `op` currently in progress.
    pub fn active_count(&self, op: &str) -> usize {
        self.state.lock().machine.view().active(op)
    }

    /// Number of requests currently blocked.
    pub fn blocked_count(&self) -> usize {
        self.state.lock().machine.queued().count()
    }

    /// Whether `op` could start right now (no tokens are consumed).
    pub fn can_start(&self, op: &str) -> bool {
        self.state.lock().machine.can_start(op)
    }

    // -- Version-3 extensions (Andler: predicates and state variables) ---

    /// Attaches a predicate to `op`: the operation may start only when
    /// the predicate holds, in addition to the path constraints. Call
    /// before the run starts. The predicate runs under the resource's
    /// mutex and must not call back into the resource.
    pub fn add_predicate(
        &self,
        op: &str,
        predicate: impl Fn(&PredicateView<'_>) -> bool + Send + 'static,
    ) {
        self.state.lock().machine.add_predicate(op, predicate);
    }

    /// Registers a state-variable update to run whenever `op` starts.
    pub fn on_enter(&self, op: &str, update: impl Fn(&mut BTreeMap<String, i64>) + Send + 'static) {
        self.state.lock().machine.on_enter(op, update);
    }

    /// Registers a state-variable update to run whenever `op` finishes.
    pub fn on_exit(&self, op: &str, update: impl Fn(&mut BTreeMap<String, i64>) + Send + 'static) {
        self.state.lock().machine.on_exit(op, update);
    }

    /// Completed executions of `op` (v3 history information).
    pub fn completed_count(&self, op: &str) -> u64 {
        self.state.lock().machine.view().completed(op)
    }

    /// Current value of a v3 state variable (0 if never written).
    pub fn var(&self, name: &str) -> i64 {
        self.state.lock().machine.view().var(name)
    }
}

impl std::fmt::Debug for RtPathResource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtPathResource")
            .field("name", &self.name)
            .field("state", &*self.state.lock())
            .finish()
    }
}

/// Poisons the resource when an operation body unwinds: the activation's
/// tokens are consumed and can never be put back. All blocked requests
/// are drained into `poison_woken` so they observe the verdict instead
/// of wedging.
struct PoisonOnUnwind<'a> {
    res: &'a RtPathResource,
    ctx: &'a RtCtx,
}

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if self.ctx.cancelling() {
            return;
        }
        let mut guard = self.res.state.lock();
        let st = &mut *guard;
        if st.poisoned.is_none() {
            st.poisoned = Some(Poisoned {
                primitive: self.res.name.clone(),
                by: self.ctx.pid(),
            });
        }
        self.ctx.emit(&format!("poison:{}", self.res.name), &[]);
        let woken = &mut st.poison_woken;
        st.machine.withdraw_all(|ticket| {
            woken.insert(ticket);
        });
        unlock_then_wake(guard, &self.res.cv, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{KillPoint, RtConfig, RtSim};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn one_slot_buffer_forces_alternation() {
        let mut rt = RtSim::new();
        let r = Arc::new(RtPathResource::parse("slot", "path deposit ; remove end").unwrap());
        let order = Arc::new(Mutex::new(Vec::new()));
        // Consumer arrives first; the path must hold it until a deposit.
        for (name, op, delay_ms) in [("cons", "remove", 0u64), ("prod", "deposit", 10)] {
            let r = Arc::clone(&r);
            let order = Arc::clone(&order);
            rt.spawn(name, move |ctx| {
                std::thread::sleep(Duration::from_millis(delay_ms));
                for _ in 0..3 {
                    r.perform(ctx, op, || order.lock().push(op));
                }
            });
        }
        rt.run().expect("no wedge");
        assert_eq!(
            *order.lock(),
            vec!["deposit", "remove", "deposit", "remove", "deposit", "remove"]
        );
    }

    #[test]
    fn burst_allows_concurrent_readers_and_excludes_writer() {
        let mut rt = RtSim::new();
        let r = Arc::new(RtPathResource::parse("rw", "path { read } , write end").unwrap());
        let inside = Arc::new(Mutex::new((0usize, 0usize, false))); // readers, writers, violation
        let entered = Arc::new(Mutex::new(0usize)); // cumulative reader entries
        for i in 0..3 {
            let r = Arc::clone(&r);
            let inside = Arc::clone(&inside);
            let entered = Arc::clone(&entered);
            rt.spawn(&format!("r{i}"), move |ctx| {
                r.perform(ctx, "read", || {
                    {
                        let mut s = inside.lock();
                        s.0 += 1;
                        if s.1 > 0 {
                            s.2 = true;
                        }
                    }
                    *entered.lock() += 1;
                    // Hold the burst open until all three readers are in:
                    // proves real overlap, not just non-violation.
                    while *entered.lock() < 3 {
                        std::thread::yield_now();
                    }
                    inside.lock().0 -= 1;
                });
            });
        }
        let r2 = Arc::clone(&r);
        let inside2 = Arc::clone(&inside);
        rt.spawn("w", move |ctx| {
            r2.perform(ctx, "write", || {
                let mut s = inside2.lock();
                s.1 += 1;
                if s.0 > 0 {
                    s.2 = true;
                }
                s.1 -= 1;
            });
        });
        rt.run().expect("no wedge");
        assert!(!inside.lock().2, "no reader/writer overlap");
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
            let mut rt = RtSim::new();
            let r = Arc::new(RtPathResource::parse("s", src).unwrap());
            let log = Arc::new(Mutex::new((0u32, 0u32, Vec::new()))); // inside, peak, order
            for i in 0..4 {
                let (r, log) = (Arc::clone(&r), Arc::clone(&log));
                rt.spawn(&format!("p{i}"), move |ctx| {
                    // Serialize arrivals so FIFO has a defined meaning: go
                    // only once every earlier waiter is blocked.
                    while i > 0 && !(r.active_count("op") == 1 && r.blocked_count() == i - 1) {
                        std::thread::yield_now();
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
                        // The first holder waits until all three others queue.
                        while i == 0 && r.blocked_count() < 3 {
                            std::thread::yield_now();
                        }
                        log.lock().0 -= 1;
                    });
                });
            }
            rt.run().expect("no wedge");
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
    fn request_by_withdraws_cleanly() {
        let mut rt = RtSim::new();
        let r = Arc::new(RtPathResource::parse("s", "path a ; b end").unwrap());
        let r1 = Arc::clone(&r);
        rt.spawn("impatient", move |ctx| {
            // b needs an a first; nobody performs a.
            assert_eq!(r1.perform_by(ctx, "b", 3u64, || unreachable!()), None);
            assert_eq!(r1.blocked_count(), 0, "request withdrawn");
        });
        rt.run().expect("timeout avoids the wedge");
    }

    #[test]
    fn v3_predicate_gates_an_operation() {
        let mut rt = RtSim::new();
        let r = Arc::new(RtPathResource::parse("s", "path a end path b end").unwrap());
        r.add_predicate("b", |v| v.completed("a") >= 2);
        let order = Arc::new(Mutex::new(Vec::new()));
        let (r1, o1) = (Arc::clone(&r), Arc::clone(&order));
        rt.spawn("bee", move |ctx| {
            r1.perform(ctx, "b", || o1.lock().push("b"));
        });
        let (r2, o2) = (Arc::clone(&r), Arc::clone(&order));
        rt.spawn("ayes", move |ctx| {
            for _ in 0..2 {
                r2.perform(ctx, "a", || o2.lock().push("a"));
            }
        });
        rt.run().expect("no wedge");
        assert_eq!(*order.lock(), vec!["a", "a", "b"]);
    }

    #[test]
    fn death_mid_operation_poisons_and_wakes_waiters() {
        let mut rt = RtSim::with_config(RtConfig {
            kill: Some(KillPoint {
                process: "victim".into(),
                at_point: 2, // the request is point 1; dies inside the body
            }),
            ..RtConfig::default()
        });
        let r = Arc::new(RtPathResource::parse("s", "path a end").unwrap());
        let entered = Arc::new(Mutex::new(false));
        let (r1, e1) = (Arc::clone(&r), Arc::clone(&entered));
        rt.spawn("victim", move |ctx| {
            r1.perform(ctx, "a", || {
                *e1.lock() = true;
                // Hold until the waiter queues, then die at the chaos point.
                while r1.blocked_count() < 1 {
                    std::thread::yield_now();
                }
                ctx.chaos();
            });
        });
        let (r2, e2) = (Arc::clone(&r), Arc::clone(&entered));
        rt.spawn("waiter", move |ctx| {
            while !*e2.lock() {
                std::thread::yield_now();
            }
            let err = r2.try_perform(ctx, "a", || ()).expect_err("poisoned");
            assert_eq!(err.primitive, "s");
        });
        let report = rt.run().expect("a kill is not a run failure");
        assert!(r.is_poisoned());
        assert_eq!(report.trace.count_user("poison:s"), 1);
        assert_eq!(report.trace.count_user("poison-seen:s"), 1);
    }

    #[test]
    fn death_while_blocked_leaves_resource_healthy() {
        let mut rt = RtSim::with_config(RtConfig {
            kill: Some(KillPoint {
                process: "doomed".into(),
                at_point: 1, // dies at the request's entry chaos point
            }),
            ..RtConfig::default()
        });
        let r = Arc::new(RtPathResource::parse("s", "path a end").unwrap());
        let r1 = Arc::clone(&r);
        rt.spawn("doomed", move |ctx| {
            r1.perform(ctx, "a", || unreachable!("killed before starting"));
        });
        let r2 = Arc::clone(&r);
        rt.spawn("survivor", move |ctx| {
            std::thread::sleep(Duration::from_millis(10));
            r2.perform(ctx, "a", || ());
        });
        rt.run().expect("no wedge");
        assert!(!r.is_poisoned(), "dying before starting poisons nothing");
        assert_eq!(r.blocked_count(), 0);
        assert_eq!(r.completed_count("a"), 1);
    }
}
