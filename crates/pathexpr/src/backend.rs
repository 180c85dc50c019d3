//! The path-expression token machine both backends run.
//!
//! A resource is governed by the *conjunction* of several paths: an
//! operation may start only when **every** path naming it has an enabled
//! occurrence, and starting consumes tokens in all of them atomically.
//! Blocked requests wait in one global FIFO; whenever the machine state
//! changes, the queue is re-scanned in arrival order and the
//! longest-waiting request whose operation became startable is started —
//! implementing the selection assumption Bloom makes explicit in §5.1
//! ("the selection operator always chooses the process that has been
//! waiting longest").
//!
//! [`Machine`] is that state and that scan, and nothing else: it never
//! blocks, parks or wakes. The simulator's `PathResource` and bloom-rt's
//! `RtPathResource` each hold one under their own lock and add only their
//! blocking protocol (a park and a parked-only grant guard on the
//! simulator; a ticket grant set, a poison set and a condvar on threads).
//! So the two backends cannot disagree on the path language or on
//! selection; the real-thread conformance suite checks the protocols
//! around the machine (DESIGN §2.12). It is public only for bloom-rt, and
//! is not a stable API.
//!
//! Operations get dense indices ([`OpId`]) the first time they are named,
//! so after one short name lookup an operation does only indexed work:
//! its counts live in its table entry, an activation records its
//! occurrence choices inline for up to four paths, a queued request
//! carries its op's index, each pid's stack of open activations keeps its
//! capacity when it empties, and each op's park reason is built once. An
//! uncontended start and finish allocate nothing.

use crate::ast::Path;
use crate::compile::{compile, CompiledPath, Occurrence, PathState};
use bloom_sim::Pid;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// An operation's dense index in its [`Machine`].
pub type OpId = usize;

type Predicate = Box<dyn Fn(&PredicateView<'_>) -> bool + Send>;
type VarUpdate = Box<dyn Fn(&mut BTreeMap<String, i64>) + Send>;

/// Synchronization-state snapshot passed to version-3 predicates.
///
/// This is the Andler extension the paper cites as the version "closest
/// to satisfying our requirements": boolean predicates over counts and
/// state variables attached to operations. Note that [`PredicateView::blocked`]
/// counts the requesting process itself once it has been queued (i.e.
/// during re-scans), but not on its first admission attempt. Predicates
/// run under the resource's lock: they must not call back into it.
#[derive(Debug)]
pub struct PredicateView<'a> {
    ops: &'a [Op],
    vars: &'a BTreeMap<String, i64>,
}

impl PredicateView<'_> {
    fn op(&self, name: &str) -> Option<&Op> {
        self.ops.iter().find(|o| o.name == name)
    }

    /// Executions of `op` currently in progress.
    pub fn active(&self, op: &str) -> usize {
        self.op(op).map_or(0, |o| o.active)
    }

    /// Requests for `op` currently blocked.
    pub fn blocked(&self, op: &str) -> usize {
        self.op(op).map_or(0, |o| o.blocked)
    }

    /// Executions of `op` completed so far (history information).
    pub fn completed(&self, op: &str) -> u64 {
        self.op(op).map_or(0, |o| o.completed)
    }

    /// A state variable's value (0 if never written).
    pub fn var(&self, name: &str) -> i64 {
        self.vars.get(name).copied().unwrap_or(0)
    }
}

/// One operation's table entry.
struct Op {
    name: String,
    /// `{resource}.{op}`: what a parked request for the op waits on.
    reason: Arc<str>,
    /// Each path naming the op, with the op's occurrences in it.
    paths: Vec<(usize, Vec<Occurrence>)>,
    active: usize,
    blocked: usize,
    completed: u64,
    /// v3 predicates: all must hold for the op to start.
    predicates: Vec<Predicate>,
    /// v3 state-variable updates, run at the op's start and finish.
    on_enter: Vec<VarUpdate>,
    on_exit: Vec<VarUpdate>,
}

impl fmt::Debug for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Op")
            .field("name", &self.name)
            .field("active", &self.active)
            .field("blocked", &self.blocked)
            .field("completed", &self.completed)
            .finish()
    }
}

/// How many paths an [`Activation`] records inline.
const INLINE_PATHS: usize = 4;

/// The occurrence an operation took in each path naming it, in the op's
/// path order: needed again at its finish to apply the matching puts.
/// Inline for the usual few paths; an op named in more spills.
#[derive(Debug)]
enum Activation {
    Inline {
        len: u8,
        choice: [u32; INLINE_PATHS],
    },
    Spilled(Vec<u32>),
}

impl Activation {
    const EMPTY: Activation = Activation::Inline {
        len: 0,
        choice: [0; INLINE_PATHS],
    };

    fn push(&mut self, c: u32) {
        match self {
            Activation::Inline { len, choice } if usize::from(*len) < INLINE_PATHS => {
                choice[usize::from(*len)] = c;
                *len += 1;
            }
            Activation::Inline { choice, .. } => {
                let mut spilled = choice.to_vec();
                spilled.push(c);
                *self = Activation::Spilled(spilled);
            }
            Activation::Spilled(choices) => choices.push(c),
        }
    }

    fn choices(&self) -> &[u32] {
        match self {
            Activation::Inline { len, choice } => &choice[..usize::from(*len)],
            Activation::Spilled(choices) => choices,
        }
    }
}

/// A queued request: its process, its op, and the backend's grant key.
#[derive(Debug, Clone, Copy)]
struct Request<K> {
    pid: Pid,
    op: OpId,
    key: K,
}

/// The token state of a resource's paths, its op table and its FIFO of
/// blocked requests (see the [module docs](self)). `K` is what a backend
/// needs to find a granted request again: nothing on the simulator, a
/// wait ticket on threads.
#[derive(Debug)]
pub struct Machine<K> {
    resource: String,
    compiled: Vec<CompiledPath>,
    states: Vec<PathState>,
    ops: Vec<Op>,
    /// Andler state variables (v3).
    vars: BTreeMap<String, i64>,
    /// Global FIFO of blocked requests, in arrival order.
    queue: VecDeque<Request<K>>,
    /// Stack of open activations per pid index (operations nest: a path
    /// procedure may invoke further operations of the same resource).
    open: Vec<Vec<(OpId, Activation)>>,
}

impl<K: Copy> Machine<K> {
    /// Compiles `paths` for the resource named `resource`, giving every
    /// op the paths name its index.
    pub fn new(resource: &str, paths: &[Path]) -> Self {
        let compiled: Vec<CompiledPath> = paths.iter().map(compile).collect();
        let mut m = Machine {
            resource: resource.to_string(),
            states: compiled.iter().map(PathState::new).collect(),
            compiled: Vec::new(),
            ops: Vec::new(),
            vars: BTreeMap::new(),
            queue: VecDeque::new(),
            open: Vec::new(),
        };
        for (pi, path) in compiled.iter().enumerate() {
            for (name, occs) in &path.occurrences {
                let id = m.intern(name);
                m.ops[id].paths.push((pi, occs.clone()));
            }
        }
        m.compiled = compiled;
        m
    }

    /// The index of `op`, if it has been named.
    pub fn op(&self, name: &str) -> Option<OpId> {
        self.ops.iter().position(|o| o.name == name)
    }

    /// The index of `op`, giving it one if it is new. An op named in no
    /// path runs unconstrained and is still counted.
    pub fn intern(&mut self, name: &str) -> OpId {
        self.op(name).unwrap_or_else(|| {
            self.ops.push(Op {
                name: name.to_string(),
                reason: Arc::from(format!("{}.{name}", self.resource)),
                paths: Vec::new(),
                active: 0,
                blocked: 0,
                completed: 0,
                predicates: Vec::new(),
                on_enter: Vec::new(),
                on_exit: Vec::new(),
            });
            self.ops.len() - 1
        })
    }

    /// What a request for `op` parks on: `{resource}.{op}`.
    pub fn reason(&self, op: OpId) -> &Arc<str> {
        &self.ops[op].reason
    }

    /// The counts and state variables, as v3 predicates and the
    /// resources' probes read them.
    pub fn view(&self) -> PredicateView<'_> {
        PredicateView {
            ops: &self.ops,
            vars: &self.vars,
        }
    }

    /// Finds an enabled occurrence in every path that names `op`, subject
    /// to the operation's v3 predicates.
    fn activation(&self, op: OpId) -> Option<Activation> {
        let entry = &self.ops[op];
        if !entry.predicates.iter().all(|p| p(&self.view())) {
            return None;
        }
        let mut act = Activation::EMPTY;
        for (pi, occs) in &entry.paths {
            let (compiled, state) = (&self.compiled[*pi], &self.states[*pi]);
            let choice = occs
                .iter()
                .position(|occ| state.can_take(compiled, occ.take))?;
            act.push(choice as u32);
        }
        Some(act)
    }

    /// Starts `op` for `pid` if every path permits it now: takes the
    /// tokens, counts the op active, runs its enter updates and opens the
    /// activation. Returns whether it started.
    pub fn try_start(&mut self, pid: Pid, op: OpId) -> bool {
        let Some(act) = self.activation(op) else {
            return false;
        };
        self.start(pid, op, act);
        true
    }

    fn start(&mut self, pid: Pid, op: OpId, act: Activation) {
        let entry = &mut self.ops[op];
        for ((pi, occs), &c) in entry.paths.iter().zip(act.choices()) {
            self.states[*pi].take(&self.compiled[*pi], occs[c as usize].take);
        }
        entry.active += 1;
        for update in &entry.on_enter {
            update(&mut self.vars);
        }
        if self.open.len() <= pid.index() {
            self.open.resize_with(pid.index() + 1, Vec::new);
        }
        self.open[pid.index()].push((op, act));
    }

    /// Finishes `pid`'s most recent open activation of `op`: operations
    /// usually nest, but gate patterns (begin inside one op, finish after
    /// it) overlap, so this searches rather than requiring LIFO order.
    ///
    /// # Panics
    ///
    /// Panics if `pid` has no open activation of `op`.
    pub fn finish(&mut self, pid: Pid, op: &str) {
        let stack = self
            .open
            .get_mut(pid.index())
            .filter(|stack| !stack.is_empty())
            .expect("finish without begin");
        let pos = stack
            .iter()
            .rposition(|&(open, _)| self.ops[open].name == op)
            .unwrap_or_else(|| panic!("finish of {op} without a matching begin"));
        let (id, act) = stack.remove(pos);
        let entry = &mut self.ops[id];
        for ((pi, occs), &c) in entry.paths.iter().zip(act.choices()) {
            self.states[*pi].put(&self.compiled[*pi], occs[c as usize].put);
        }
        entry.active -= 1;
        entry.completed += 1;
        for update in &entry.on_exit {
            update(&mut self.vars);
        }
    }

    /// Queues `pid`'s request for `op` behind every earlier one.
    pub fn enqueue(&mut self, pid: Pid, op: OpId, key: K) {
        self.ops[op].blocked += 1;
        self.queue.push_back(Request { pid, op, key });
    }

    /// Removes `pid`'s queued request; returns whether there was one. A
    /// process queues at most one request at a time.
    pub fn withdraw(&mut self, pid: Pid) -> bool {
        let Some(i) = self.queue.iter().position(|r| r.pid == pid) else {
            return false;
        };
        let r = self.queue.remove(i).expect("index valid");
        self.ops[r.op].blocked -= 1;
        true
    }

    /// Empties the queue, handing each request's key to `f` in arrival
    /// order.
    pub fn withdraw_all(&mut self, mut f: impl FnMut(K)) {
        for r in self.queue.drain(..) {
            self.ops[r.op].blocked -= 1;
            f(r.key);
        }
    }

    /// The queued requests' pids, in arrival order.
    pub fn queued(&self) -> impl Iterator<Item = Pid> + '_ {
        self.queue.iter().map(|r| r.pid)
    }

    /// Starts every queued request that has become startable, oldest
    /// first, restarting the scan after each start (starting one request —
    /// e.g. opening a burst — can enable another). A request is considered
    /// only if `admit` accepts its pid; each start is applied here and
    /// then handed to `grant` with the request's pid and key. Returns
    /// whether anything started.
    pub fn drain_startable(
        &mut self,
        mut admit: impl FnMut(Pid) -> bool,
        mut grant: impl FnMut(Pid, K),
    ) -> bool {
        let mut any = false;
        loop {
            let found = self.queue.iter().enumerate().find_map(|(i, r)| {
                if !admit(r.pid) {
                    return None;
                }
                self.activation(r.op).map(|act| (i, act))
            });
            let Some((i, act)) = found else { return any };
            let r = self.queue.remove(i).expect("index valid");
            self.ops[r.op].blocked -= 1;
            self.start(r.pid, r.op, act);
            grant(r.pid, r.key);
            any = true;
        }
    }

    /// Whether `op` could start right now (no tokens are consumed).
    pub fn can_start(&self, op: &str) -> bool {
        self.op(op).is_none_or(|id| self.activation(id).is_some())
    }

    /// Attaches a v3 predicate to `op`.
    pub fn add_predicate(
        &mut self,
        op: &str,
        predicate: impl Fn(&PredicateView<'_>) -> bool + Send + 'static,
    ) {
        let id = self.intern(op);
        self.ops[id].predicates.push(Box::new(predicate));
    }

    /// Registers a v3 state-variable update to run whenever `op` starts.
    pub fn on_enter(
        &mut self,
        op: &str,
        update: impl Fn(&mut BTreeMap<String, i64>) + Send + 'static,
    ) {
        let id = self.intern(op);
        self.ops[id].on_enter.push(Box::new(update));
    }

    /// Registers a v3 state-variable update to run whenever `op` finishes.
    pub fn on_exit(
        &mut self,
        op: &str,
        update: impl Fn(&mut BTreeMap<String, i64>) + Send + 'static,
    ) {
        let id = self.intern(op);
        self.ops[id].on_exit.push(Box::new(update));
    }
}
