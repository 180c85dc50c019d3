//! Real-thread path expressions — the `bloom_pathexpr::PathResource`
//! runtime re-implemented on OS threads.
//!
//! The path *language* is not duplicated: grammar, compilation, and the
//! token-machine `take`/`put` semantics come from
//! `bloom_pathexpr::backend`, so both backends are constrained by the
//! same compiled machines and a conformance divergence can only come
//! from the runtime (blocking, FIFO selection, poisoning) — which is
//! exactly what the differential suite is meant to exercise.
//!
//! The runtime is the standard single-mutex state machine of this crate:
//! one `Mutex<Machine>` holding every path's token state plus the global
//! FIFO of blocked requests, one broadcast condvar, and a `granted`
//! ticket set for direct hand-off. As everywhere in `bloom-rt`, a
//! timed-out request that finds a grant already issued *accepts* it —
//! settled under the machine mutex — rather than withdrawing, which is
//! the documented envelope delta from the simulator's `drain_startable`
//! parked-only guard.

use crate::runtime::RtCtx;
use crate::unlock_then_wake;
use bloom_pathexpr::backend::{compile, CompiledPath, PathState};
use bloom_pathexpr::{parse_paths, ParseError, Path};
use bloom_sim::{Pid, Poisoned};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::time::Instant;

/// The occurrence choice made in each path when an operation started;
/// needed again at exit to apply the matching put ports.
type Activation = Vec<(usize, usize)>;

#[derive(Debug)]
struct Blocked {
    ticket: u64,
    pid: Pid,
    op: String,
}

/// Synchronization-state snapshot passed to version-3 predicates —
/// mirror of `bloom_pathexpr::PredicateView` for the real-thread
/// backend. Predicates run under the machine mutex: they must not call
/// back into the resource.
#[derive(Debug)]
pub struct RtPredicateView<'a> {
    active: &'a BTreeMap<String, usize>,
    blocked: &'a VecDeque<Blocked>,
    completed: &'a BTreeMap<String, u64>,
    vars: &'a BTreeMap<String, i64>,
}

impl RtPredicateView<'_> {
    /// Executions of `op` currently in progress.
    pub fn active(&self, op: &str) -> usize {
        self.active.get(op).copied().unwrap_or(0)
    }

    /// Requests for `op` currently blocked.
    pub fn blocked(&self, op: &str) -> usize {
        self.blocked.iter().filter(|b| b.op == op).count()
    }

    /// Executions of `op` completed so far (history information).
    pub fn completed(&self, op: &str) -> u64 {
        self.completed.get(op).copied().unwrap_or(0)
    }

    /// A state variable's value (0 if never written).
    pub fn var(&self, name: &str) -> i64 {
        self.vars.get(name).copied().unwrap_or(0)
    }
}

type Predicate = Box<dyn Fn(&RtPredicateView<'_>) -> bool + Send>;
type VarUpdate = Box<dyn Fn(&mut BTreeMap<String, i64>) + Send>;

struct Machine {
    compiled: Vec<CompiledPath>,
    states: Vec<PathState>,
    /// Global FIFO of blocked requests, in arrival-ticket order.
    blocked: VecDeque<Blocked>,
    /// Stack of open activations per process (operations nest).
    open: HashMap<Pid, Vec<(String, Activation)>>,
    active: BTreeMap<String, usize>,
    completed: BTreeMap<String, u64>,
    vars: BTreeMap<String, i64>,
    predicates: HashMap<String, Vec<Predicate>>,
    on_enter: HashMap<String, Vec<VarUpdate>>,
    on_exit: HashMap<String, Vec<VarUpdate>>,
    /// Set when a process died mid-operation; sticky once set.
    poisoned: Option<Poisoned>,
    /// Tickets whose request a waker started (enter applied, activation
    /// recorded); the parked thread collects and returns.
    granted: HashSet<u64>,
    /// Tickets woken by a poison broadcast instead of a grant.
    poison_woken: HashSet<u64>,
}

impl Machine {
    /// Finds an enabled occurrence in every path that names `op`, subject
    /// to the operation's v3 predicates.
    fn try_activation(&self, op: &str) -> Option<Activation> {
        if let Some(preds) = self.predicates.get(op) {
            let view = RtPredicateView {
                active: &self.active,
                blocked: &self.blocked,
                completed: &self.completed,
                vars: &self.vars,
            };
            if !preds.iter().all(|p| p(&view)) {
                return None;
            }
        }
        let mut act = Vec::new();
        for (pi, compiled) in self.compiled.iter().enumerate() {
            if let Some(occs) = compiled.occurrences.get(op) {
                let state = &self.states[pi];
                let choice = occs
                    .iter()
                    .position(|occ| state.can_take(compiled, occ.take))?;
                act.push((pi, choice));
            }
        }
        Some(act)
    }

    fn apply_enter(&mut self, op: &str, act: &Activation) {
        for &(pi, oi) in act {
            let occ = self.compiled[pi].occurrences[op][oi];
            self.states[pi].take(&self.compiled[pi], occ.take);
        }
        *self.active.entry(op.to_string()).or_insert(0) += 1;
        if let Some(updates) = self.on_enter.get(op) {
            for update in updates {
                update(&mut self.vars);
            }
        }
    }

    fn apply_exit(&mut self, op: &str, act: &Activation) {
        for &(pi, oi) in act {
            let occ = self.compiled[pi].occurrences[op][oi];
            self.states[pi].put(&self.compiled[pi], occ.put);
        }
        let n = self
            .active
            .get_mut(op)
            .expect("exit of op that never started");
        *n -= 1;
        *self.completed.entry(op.to_string()).or_insert(0) += 1;
        if let Some(updates) = self.on_exit.get(op) {
            for update in updates {
                update(&mut self.vars);
            }
        }
    }

    /// Starts every blocked request that has become startable, oldest
    /// first, restarting the scan after each start (starting one request —
    /// e.g. opening a burst — can enable another). Grants are handed off
    /// directly: the enter effects are applied *here* and the ticket put
    /// in `granted`, so the woken thread owns a started activation the
    /// moment it observes the grant.
    fn drain_startable(&mut self) -> bool {
        let mut any = false;
        loop {
            let found = self
                .blocked
                .iter()
                .enumerate()
                .find_map(|(i, b)| self.try_activation(&b.op).map(|act| (i, act)));
            match found {
                Some((i, act)) => {
                    let b = self.blocked.remove(i).expect("index valid");
                    self.apply_enter(&b.op, &act);
                    self.open.entry(b.pid).or_default().push((b.op, act));
                    self.granted.insert(b.ticket);
                    any = true;
                }
                None => return any,
            }
        }
    }
}

/// A shared resource whose synchronization is specified by path
/// expressions, on OS threads; mirrors `bloom_pathexpr::PathResource`
/// (see its docs for the model — conjunction of paths, longest-waiting
/// selection, crash poisoning).
pub struct RtPathResource {
    name: String,
    machine: Mutex<Machine>,
    cv: Condvar,
}

enum Wake {
    Granted,
    Poison(Poisoned),
}

impl RtPathResource {
    /// Builds a resource from already-parsed paths.
    pub fn from_paths(name: &str, paths: &[Path]) -> Self {
        let compiled: Vec<CompiledPath> = paths.iter().map(compile).collect();
        let states = compiled.iter().map(PathState::new).collect();
        RtPathResource {
            name: name.to_string(),
            machine: Mutex::new(Machine {
                compiled,
                states,
                blocked: VecDeque::new(),
                open: HashMap::new(),
                active: BTreeMap::new(),
                completed: BTreeMap::new(),
                vars: BTreeMap::new(),
                predicates: HashMap::new(),
                on_enter: HashMap::new(),
                on_exit: HashMap::new(),
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
        self.begin_checked(ctx, op)?;
        // From here we hold an activation: dying inside the body leaves
        // tokens consumed forever, so the unwind must poison the resource.
        let cleanup = PoisonOnUnwind { res: self, ctx };
        let r = body();
        std::mem::forget(cleanup);
        self.finish(ctx, op);
        Ok(r)
    }

    /// Starts operation `op` (the first half of
    /// [`RtPathResource::perform`]). The `begin`/`finish` form has no
    /// crash protection for the operation body. Panics on poison.
    pub fn begin(&self, ctx: &RtCtx, op: &str) {
        if let Err(p) = self.begin_checked(ctx, op) {
            panic!("{p}");
        }
    }

    fn begin_checked(&self, ctx: &RtCtx, op: &str) -> Result<(), Poisoned> {
        ctx.chaos();
        let mut m = self.machine.lock();
        if let Some(p) = m.poisoned.clone() {
            ctx.emit(&format!("poison-seen:{}", self.name), &[]);
            return Err(p);
        }
        if let Some(act) = m.try_activation(op) {
            m.apply_enter(op, &act);
            m.open
                .entry(ctx.pid())
                .or_default()
                .push((op.to_string(), act));
            // Starting can enable blocked peers (opening a burst).
            let wake = m.drain_startable();
            unlock_then_wake(m, &self.cv, wake);
            return Ok(());
        }
        let ticket = ctx.fresh_ticket();
        m.blocked.push_back(Blocked {
            ticket,
            pid: ctx.pid(),
            op: op.to_string(),
        });
        match self.await_wake(&mut m, ticket) {
            Wake::Granted => Ok(()),
            Wake::Poison(p) => {
                ctx.emit(&format!("poison-seen:{}", self.name), &[]);
                Err(p)
            }
        }
    }

    /// Parks until the ticket is granted or poison-woken.
    fn await_wake<'a>(&'a self, m: &mut MutexGuard<'a, Machine>, ticket: u64) -> Wake {
        loop {
            if m.granted.remove(&ticket) {
                return Wake::Granted;
            }
            if m.poison_woken.remove(&ticket) {
                let p = m
                    .poisoned
                    .clone()
                    .expect("poison wake without a poison verdict");
                return Wake::Poison(p);
            }
            self.cv.wait(m);
        }
    }

    /// Timed [`RtPathResource::begin`]: requests `op`, giving up at
    /// `deadline` (virtual ticks, mapped to a wall-clock budget). Returns
    /// `true` if the operation started (the caller owes a matching
    /// [`RtPathResource::finish`]), `false` on timeout — the request is
    /// withdrawn and the queue re-scanned, since `blocked()` predicate
    /// counts just changed. An already-expired deadline degenerates to a
    /// single activation attempt. Panics on poison.
    pub fn request_by(
        &self,
        ctx: &RtCtx,
        op: &str,
        deadline: impl Into<bloom_sim::Deadline>,
    ) -> bool {
        match self.request_by_checked(ctx, op, deadline) {
            Ok(started) => started,
            Err(p) => panic!("{p}"),
        }
    }

    /// Like [`RtPathResource::request_by`], but poisoning is returned as
    /// a value.
    pub fn request_by_checked(
        &self,
        ctx: &RtCtx,
        op: &str,
        deadline: impl Into<bloom_sim::Deadline>,
    ) -> Result<bool, Poisoned> {
        ctx.chaos();
        let budget = ctx.wall_budget(deadline);
        let start = Instant::now();
        let mut m = self.machine.lock();
        if let Some(p) = m.poisoned.clone() {
            ctx.emit(&format!("poison-seen:{}", self.name), &[]);
            return Err(p);
        }
        if let Some(act) = m.try_activation(op) {
            m.apply_enter(op, &act);
            m.open
                .entry(ctx.pid())
                .or_default()
                .push((op.to_string(), act));
            let wake = m.drain_startable();
            unlock_then_wake(m, &self.cv, wake);
            return Ok(true);
        }
        let Some(budget) = budget else {
            // Expired deadline: single attempt only, nothing queued.
            return Ok(false);
        };
        let ticket = ctx.fresh_ticket();
        m.blocked.push_back(Blocked {
            ticket,
            pid: ctx.pid(),
            op: op.to_string(),
        });
        loop {
            if m.granted.remove(&ticket) {
                // A grant that raced the timeout is accepted, not
                // withdrawn — the rt envelope delta, settled under the
                // machine mutex.
                return Ok(true);
            }
            if m.poison_woken.remove(&ticket) {
                let p = m
                    .poisoned
                    .clone()
                    .expect("poison wake without a poison verdict");
                ctx.emit(&format!("poison-seen:{}", self.name), &[]);
                return Err(p);
            }
            let elapsed = start.elapsed();
            if elapsed >= budget {
                // Timed out: withdraw and re-scan — a `blocked()`
                // predicate may have just flipped for someone else.
                m.blocked.retain(|b| b.ticket != ticket);
                let wake = m.drain_startable();
                let poisoned = m.poisoned.clone();
                if poisoned.is_some() {
                    ctx.emit(&format!("poison-seen:{}", self.name), &[]);
                }
                unlock_then_wake(m, &self.cv, wake);
                return poisoned.map_or(Ok(false), Err);
            }
            self.cv.wait_for(&mut m, budget - elapsed);
        }
    }

    /// Timed [`RtPathResource::perform`]: runs `body` as `op` if the
    /// paths permit it to start by `deadline`, returning `None` on
    /// timeout. Panics on poison.
    pub fn perform_by<R>(
        &self,
        ctx: &RtCtx,
        op: &str,
        deadline: impl Into<bloom_sim::Deadline>,
        body: impl FnOnce() -> R,
    ) -> Option<R> {
        match self.try_perform_by(ctx, op, deadline, body) {
            Ok(r) => r,
            Err(p) => panic!("{p}"),
        }
    }

    /// Checked form of [`RtPathResource::perform_by`].
    pub fn try_perform_by<R>(
        &self,
        ctx: &RtCtx,
        op: &str,
        deadline: impl Into<bloom_sim::Deadline>,
        body: impl FnOnce() -> R,
    ) -> Result<Option<R>, Poisoned> {
        if !self.request_by_checked(ctx, op, deadline)? {
            return Ok(None);
        }
        let cleanup = PoisonOnUnwind { res: self, ctx };
        let r = body();
        std::mem::forget(cleanup);
        self.finish(ctx, op);
        Ok(Some(r))
    }

    /// Finishes operation `op` (the second half of
    /// [`RtPathResource::perform`]).
    pub fn finish(&self, ctx: &RtCtx, op: &str) {
        // Jitter-only: `finish` runs after `try_perform` disarmed its
        // poison guard, so it must be kill-atomic (see [`RtCtx::jitter`])
        // — dying here would strand the consumed tokens unpoisoned.
        ctx.jitter();
        let mut m = self.machine.lock();
        let stack = m.open.get_mut(&ctx.pid()).expect("finish without begin");
        // Most recent matching activation: operations usually nest, but
        // gate patterns overlap, so search rather than require LIFO.
        let pos = stack
            .iter()
            .rposition(|(open_op, _)| open_op == op)
            .unwrap_or_else(|| panic!("finish of {op} without a matching begin"));
        let (_, act) = stack.remove(pos);
        if stack.is_empty() {
            m.open.remove(&ctx.pid());
        }
        m.apply_exit(op, &act);
        let wake = m.drain_startable();
        unlock_then_wake(m, &self.cv, wake);
    }

    /// Whether a process died mid-operation, leaving the paths' token
    /// state unrecoverable.
    pub fn is_poisoned(&self) -> bool {
        self.machine.lock().poisoned.is_some()
    }

    /// Number of executions of `op` currently in progress.
    pub fn active_count(&self, op: &str) -> usize {
        self.machine.lock().active.get(op).copied().unwrap_or(0)
    }

    /// Number of requests currently blocked.
    pub fn blocked_count(&self) -> usize {
        self.machine.lock().blocked.len()
    }

    /// Whether `op` could start right now (no tokens are consumed).
    pub fn can_start(&self, op: &str) -> bool {
        self.machine.lock().try_activation(op).is_some()
    }

    // -- Version-3 extensions (Andler: predicates and state variables) ---

    /// Attaches a predicate to `op`: the operation may start only when
    /// the predicate holds, in addition to the path constraints. Call
    /// before the run starts. The predicate runs under the machine mutex
    /// and must not call back into the resource.
    pub fn add_predicate(
        &self,
        op: &str,
        predicate: impl Fn(&RtPredicateView<'_>) -> bool + Send + 'static,
    ) {
        self.machine
            .lock()
            .predicates
            .entry(op.to_string())
            .or_default()
            .push(Box::new(predicate));
    }

    /// Registers a state-variable update to run whenever `op` starts.
    pub fn on_enter(&self, op: &str, update: impl Fn(&mut BTreeMap<String, i64>) + Send + 'static) {
        self.machine
            .lock()
            .on_enter
            .entry(op.to_string())
            .or_default()
            .push(Box::new(update));
    }

    /// Registers a state-variable update to run whenever `op` finishes.
    pub fn on_exit(&self, op: &str, update: impl Fn(&mut BTreeMap<String, i64>) + Send + 'static) {
        self.machine
            .lock()
            .on_exit
            .entry(op.to_string())
            .or_default()
            .push(Box::new(update));
    }

    /// Completed executions of `op` (v3 history information).
    pub fn completed_count(&self, op: &str) -> u64 {
        self.machine.lock().completed.get(op).copied().unwrap_or(0)
    }

    /// Current value of a v3 state variable (0 if never written).
    pub fn var(&self, name: &str) -> i64 {
        self.machine.lock().vars.get(name).copied().unwrap_or(0)
    }
}

impl std::fmt::Debug for RtPathResource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let m = self.machine.lock();
        f.debug_struct("RtPathResource")
            .field("name", &self.name)
            .field("paths", &m.compiled.len())
            .field("blocked", &m.blocked.len())
            .field("active", &m.active)
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
        let mut m = self.res.machine.lock();
        if m.poisoned.is_none() {
            m.poisoned = Some(Poisoned {
                primitive: self.res.name.clone(),
                by: self.ctx.pid(),
            });
        }
        self.ctx.emit(&format!("poison:{}", self.res.name), &[]);
        let dead: Vec<u64> = m.blocked.drain(..).map(|b| b.ticket).collect();
        m.poison_woken.extend(dead);
        unlock_then_wake(m, &self.res.cv, true);
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

    #[test]
    fn blocked_requests_resume_longest_waiting_first() {
        let mut rt = RtSim::new();
        let r = Arc::new(RtPathResource::parse("s", "path a end").unwrap());
        let order = Arc::new(Mutex::new(Vec::new()));
        let queued = Arc::new(Mutex::new(0usize));
        let r0 = Arc::clone(&r);
        rt.spawn("holder", move |ctx| {
            r0.perform(ctx, "a", || {
                // Hold until all three waiters are queued.
                while r0.blocked_count() < 3 {
                    std::thread::yield_now();
                }
            });
        });
        for i in 0..3 {
            let r = Arc::clone(&r);
            let order = Arc::clone(&order);
            let queued = Arc::clone(&queued);
            rt.spawn(&format!("w{i}"), move |ctx| {
                // Serialize arrivals so FIFO has a defined meaning: go
                // only once every earlier waiter is blocked.
                loop {
                    let q = *queued.lock();
                    if q == i && r.active_count("a") == 1 && r.blocked_count() == i {
                        break;
                    }
                    std::thread::yield_now();
                }
                *queued.lock() += 1;
                r.perform(ctx, "a", || order.lock().push(i));
            });
        }
        rt.run().expect("no wedge");
        assert_eq!(
            *order.lock(),
            vec![0, 1, 2],
            "FIFO service of blocked requests"
        );
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
                at_point: 2, // begin_checked is point 1; dies inside the body
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
                at_point: 1, // dies at begin_checked's entry chaos point
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
