//! CSP-style solutions: the paper's §6 future work, evaluated with the
//! same methodology.
//!
//! In the message-passing model a shared resource becomes a **server
//! process**: clients rendezvous with it over typed channels, its guarded
//! selective receive (Dijkstra's guarded commands / CSP alternatives)
//! encodes the exclusion and priority constraints over server-local
//! state, and a reply grants access. Observations that fall out of
//! running Bloom's method on it:
//!
//! * *request type* is carried by **which channel** a client sends on —
//!   as direct as a path alphabet;
//! * *request time* is the channel's FIFO sender queue — as direct as a
//!   monitor condition queue, and (unlike monitors) type and time do not
//!   conflict because guards, not queue membership, express conditions;
//! * *local state* and *history* live in the server's variables and
//!   control flow (the one-slot server is literally
//!   `loop { deposit?; remove? }` — the same shape as the path
//!   expression);
//! * *synchronization state* is partly mechanism-kept
//!   ([`Channel::pending_senders_ctx`], the CSP analogue of Hoare's
//!   `queue`) and partly hand-kept counts — Indirect, like monitors;
//! * the §2 modularity requirement is met automatically on the
//!   encapsulation side (clients contain zero synchronization code), but
//!   resource code and synchronization code interleave *inside* the
//!   server, so the separability requirement fails — the same verdict as
//!   path expressions, for a different reason.
//!
//! Servers are daemons: they loop forever and are cancelled when all
//! clients finish. They wait only in the cancellable channel forms
//! ([`select_cancellable`], [`Channel::recv_cancellable`]), so a
//! cancelled server returns instead of unwinding its thread.

use crate::events::{DEPOSIT, READ, REMOVE, SEEK, USE, WAKE, WRITE};
use crate::rw::{ReadersWriters, RwVariant};
use crate::{buffer::BoundedBuffer, fcfs::FcfsResource, oneslot::OneSlot};
use bloom_channel::{select_cancellable, Channel};
use bloom_core::events::{enter_for, exit, exit_for, request};
use bloom_core::{Directness, ImplUnit, InfoType, MechanismId, ProblemId, SolutionDesc};
use bloom_sim::{Ctx, Pid};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// A request message: who asks, an optional payload, and where to reply.
struct Msg {
    pid: Pid,
    value: i64,
    reply: Option<Arc<Channel<i64>>>,
}

impl Msg {
    fn start(ctx: &Ctx, value: i64) -> (Msg, Arc<Channel<i64>>) {
        let reply = Arc::new(Channel::new("reply"));
        (
            Msg {
                pid: ctx.pid(),
                value,
                reply: Some(Arc::clone(&reply)),
            },
            reply,
        )
    }

    fn end(ctx: &Ctx) -> Msg {
        Msg {
            pid: ctx.pid(),
            value: 0,
            reply: None,
        }
    }
}

/// Spawns the server daemon exactly once, on first use.
struct ServerOnce {
    started: Mutex<bool>,
}

impl ServerOnce {
    fn new() -> Self {
        ServerOnce {
            started: Mutex::new(false),
        }
    }

    fn ensure(&self, ctx: &Ctx, name: &str, server: impl FnOnce(&Ctx) + Send + 'static) {
        let mut started = self.started.lock();
        if !*started {
            *started = true;
            ctx.spawn_daemon(name, server);
        }
    }
}

// ---------------------------------------------------------------------------
// One-slot buffer
// ---------------------------------------------------------------------------

/// CSP one-slot buffer: the server's control flow *is* the alternation —
/// `loop { deposit? ; remove? }`, the message-passing twin of
/// `path deposit ; remove end`.
pub struct CspOneSlot {
    deposit: Arc<Channel<Msg>>,
    remove: Arc<Channel<Msg>>,
    once: ServerOnce,
}

impl CspOneSlot {
    /// Creates the buffer (the server starts on first use).
    pub fn new() -> Self {
        CspOneSlot {
            deposit: Arc::new(Channel::new("oneslot.deposit")),
            remove: Arc::new(Channel::new("oneslot.remove")),
            once: ServerOnce::new(),
        }
    }

    fn ensure_server(&self, ctx: &Ctx) {
        let (dep, rem) = (Arc::clone(&self.deposit), Arc::clone(&self.remove));
        self.once.ensure(ctx, "oneslot-server", move |ctx| loop {
            // deposit? — history is the server's program counter.
            let Ok(m) = dep.recv_cancellable(ctx) else {
                return;
            };
            let value = m.value;
            enter_for(ctx, m.pid, DEPOSIT, &[value]);
            exit_for(ctx, m.pid, DEPOSIT, &[value]);
            m.reply.expect("start carries reply").send(ctx, 0);
            // remove?
            let Ok(m) = rem.recv_cancellable(ctx) else {
                return;
            };
            enter_for(ctx, m.pid, REMOVE, &[value]);
            exit_for(ctx, m.pid, REMOVE, &[value]);
            m.reply.expect("start carries reply").send(ctx, value);
        });
    }
}

impl Default for CspOneSlot {
    fn default() -> Self {
        Self::new()
    }
}

impl OneSlot for CspOneSlot {
    fn deposit(&self, ctx: &Ctx, value: i64) {
        self.ensure_server(ctx);
        request(ctx, DEPOSIT, &[value]);
        let (msg, reply) = Msg::start(ctx, value);
        self.deposit.send(ctx, msg);
        reply.recv(ctx);
    }

    fn remove(&self, ctx: &Ctx) -> i64 {
        self.ensure_server(ctx);
        request(ctx, REMOVE, &[]);
        let (msg, reply) = Msg::start(ctx, 0);
        self.remove.send(ctx, msg);
        reply.recv(ctx)
    }

    fn desc(&self) -> SolutionDesc {
        SolutionDesc {
            problem: ProblemId::OneSlotBuffer,
            mechanism: MechanismId::Csp,
            units: vec![ImplUnit::new(
                "alternation",
                "server:loop{deposit?;remove?}",
            )],
            info_handling: [(InfoType::History, Directness::Direct)]
                .into_iter()
                .collect::<BTreeMap<_, _>>(),
            workarounds: vec![],
        }
    }
}

// ---------------------------------------------------------------------------
// Bounded buffer
// ---------------------------------------------------------------------------

/// CSP bounded buffer: Dijkstra's guarded-command textbook example —
/// `do q.len < cap; deposit? … [] q.len > 0; remove? … od`.
pub struct CspBuffer {
    deposit: Arc<Channel<Msg>>,
    remove: Arc<Channel<Msg>>,
    once: ServerOnce,
    capacity: usize,
    /// `Some((lo, hi))` makes the server draw its capacity from
    /// `lo..=hi` via [`Ctx::choose_value`] instead of using the fixed
    /// `capacity` field — the E5 symbolic-guard configuration.
    symbolic: Option<(i64, i64)>,
}

impl CspBuffer {
    /// Creates the buffer (the server starts on first use).
    pub fn new(capacity: usize) -> Self {
        CspBuffer {
            deposit: Arc::new(Channel::new("buffer.deposit")),
            remove: Arc::new(Channel::new("buffer.remove")),
            once: ServerOnce::new(),
            capacity,
            symbolic: None,
        }
    }

    /// Symbolic-capacity buffer: the server draws `capacity` from
    /// `lo..=hi` at startup with [`Ctx::choose_value`] and its not-full
    /// guard becomes the symbolic comparison `capacity > len`. Under
    /// revisit-mode exploration all capacities inducing the same guard
    /// outcomes collapse into one schedule class, so the whole domain is
    /// verified at the cost of a few representatives (experiment E5).
    /// [`BoundedBuffer::capacity`] reports `hi`, the loosest bound.
    pub fn with_symbolic_capacity(lo: i64, hi: i64) -> Self {
        assert!(0 < lo && lo <= hi, "need a nonempty positive domain");
        CspBuffer {
            deposit: Arc::new(Channel::new("buffer.deposit")),
            remove: Arc::new(Channel::new("buffer.remove")),
            once: ServerOnce::new(),
            capacity: hi as usize,
            symbolic: Some((lo, hi)),
        }
    }

    fn ensure_server(&self, ctx: &Ctx) {
        let (dep, rem) = (Arc::clone(&self.deposit), Arc::clone(&self.remove));
        let capacity = self.capacity;
        let symbolic = self.symbolic;
        self.once.ensure(ctx, "buffer-server", move |ctx| {
            let cap = symbolic.map(|(lo, hi)| ctx.choose_value("capacity", lo..=hi));
            let mut items: VecDeque<i64> = VecDeque::new();
            loop {
                let not_full = match &cap {
                    Some(c) => c.gt(items.len() as i64),
                    None => items.len() < capacity,
                };
                let Ok((which, m)) =
                    select_cancellable(ctx, &mut [(&*dep, not_full), (&*rem, !items.is_empty())])
                else {
                    return;
                };
                match which {
                    0 => {
                        enter_for(ctx, m.pid, DEPOSIT, &[m.value]);
                        items.push_back(m.value);
                        exit_for(ctx, m.pid, DEPOSIT, &[m.value]);
                        m.reply.expect("reply").send(ctx, 0);
                    }
                    _ => {
                        let value = items.pop_front().expect("guard ensured an item");
                        enter_for(ctx, m.pid, REMOVE, &[value]);
                        exit_for(ctx, m.pid, REMOVE, &[value]);
                        m.reply.expect("reply").send(ctx, value);
                    }
                }
            }
        });
    }
}

impl BoundedBuffer for CspBuffer {
    fn deposit(&self, ctx: &Ctx, value: i64) {
        self.ensure_server(ctx);
        request(ctx, DEPOSIT, &[value]);
        let (msg, reply) = Msg::start(ctx, value);
        self.deposit.send(ctx, msg);
        reply.recv(ctx);
    }

    fn remove(&self, ctx: &Ctx) -> i64 {
        self.ensure_server(ctx);
        request(ctx, REMOVE, &[]);
        let (msg, reply) = Msg::start(ctx, 0);
        self.remove.send(ctx, msg);
        reply.recv(ctx)
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn desc(&self) -> SolutionDesc {
        SolutionDesc {
            problem: ProblemId::BoundedBuffer,
            mechanism: MechanismId::Csp,
            units: vec![
                ImplUnit::new("buffer-mutex", "server:sequential-process"),
                ImplUnit::new("not-full", "guard:len<capacity"),
                ImplUnit::new("not-empty", "guard:nonempty"),
            ],
            info_handling: [(InfoType::LocalState, Directness::Direct)]
                .into_iter()
                .collect::<BTreeMap<_, _>>(),
            workarounds: vec![],
        }
    }
}

// ---------------------------------------------------------------------------
// FCFS resource
// ---------------------------------------------------------------------------

/// CSP FCFS resource: the channel's sender queue is the arrival order;
/// the server grants strictly in `recv` order.
pub struct CspFcfs {
    acquire: Arc<Channel<Msg>>,
    release: Arc<Channel<Msg>>,
    once: ServerOnce,
}

impl CspFcfs {
    /// Creates the resource (the server starts on first use).
    pub fn new() -> Self {
        CspFcfs {
            acquire: Arc::new(Channel::new("fcfs.acquire")),
            release: Arc::new(Channel::new("fcfs.release")),
            once: ServerOnce::new(),
        }
    }

    fn ensure_server(&self, ctx: &Ctx) {
        let (acq, rel) = (Arc::clone(&self.acquire), Arc::clone(&self.release));
        self.once.ensure(ctx, "fcfs-server", move |ctx| loop {
            let Ok(m) = acq.recv_cancellable(ctx) else {
                return;
            };
            enter_for(ctx, m.pid, USE, &[]);
            m.reply.expect("reply").send(ctx, 0);
            // Only the holder sends release.
            if rel.recv_cancellable(ctx).is_err() {
                return;
            }
        });
    }
}

impl Default for CspFcfs {
    fn default() -> Self {
        Self::new()
    }
}

impl FcfsResource for CspFcfs {
    fn with_resource(&self, ctx: &Ctx, body: &mut dyn FnMut()) {
        self.ensure_server(ctx);
        request(ctx, USE, &[]);
        let (msg, reply) = Msg::start(ctx, 0);
        self.acquire.send(ctx, msg);
        reply.recv(ctx);
        body();
        exit(ctx, USE, &[]);
        self.release.send(ctx, Msg::end(ctx));
    }

    fn desc(&self) -> SolutionDesc {
        SolutionDesc {
            problem: ProblemId::FcfsResource,
            mechanism: MechanismId::Csp,
            units: vec![
                ImplUnit::new("resource-mutex", "server:grant-then-await-release"),
                ImplUnit::new("fcfs-order", "channel:fifo-sender-queue"),
            ],
            info_handling: [
                (InfoType::RequestTime, Directness::Direct),
                (InfoType::SyncState, Directness::Indirect),
            ]
            .into_iter()
            .collect::<BTreeMap<_, _>>(),
            workarounds: vec![],
        }
    }
}

// ---------------------------------------------------------------------------
// Disk scheduler
// ---------------------------------------------------------------------------

/// CSP disk scheduler: seeks accumulate in the server's pending sets while
/// the arm is busy; each completion message triggers the SCAN choice. The
/// track rides in the message, but the *ordering* by it is a hand-kept
/// data structure — request parameters are Indirect in this model, just
/// as for monitors' hand-kept counts.
pub struct CspDisk {
    seeks: Arc<Channel<Msg>>,
    done: Arc<Channel<Msg>>,
    once: ServerOnce,
}

impl CspDisk {
    /// Creates the scheduler (the server starts on first use).
    pub fn new() -> Self {
        CspDisk {
            seeks: Arc::new(Channel::new("disk.seeks")),
            done: Arc::new(Channel::new("disk.done")),
            once: ServerOnce::new(),
        }
    }

    fn ensure_server(&self, ctx: &Ctx) {
        let (seeks, done) = (Arc::clone(&self.seeks), Arc::clone(&self.done));
        self.once.ensure(ctx, "disk-server", move |ctx| {
            use std::collections::BTreeMap;
            let mut busy = false;
            let mut head = 0i64;
            let mut up = true;
            let mut seq = 0u64;
            // (track, seq) -> request; `down` keys are negated.
            let mut pending_up: BTreeMap<(i64, u64), Msg> = BTreeMap::new();
            let mut pending_down: BTreeMap<(i64, u64), Msg> = BTreeMap::new();
            loop {
                let Ok((which, m)) =
                    select_cancellable(ctx, &mut [(&*seeks, true), (&*done, true)])
                else {
                    return;
                };
                let stash =
                    |m: Msg,
                     up: bool,
                     head: i64,
                     seq: &mut u64,
                     pending_up: &mut BTreeMap<(i64, u64), Msg>,
                     pending_down: &mut BTreeMap<(i64, u64), Msg>| {
                        let track = m.value;
                        let joins_up = if up { track >= head } else { track > head };
                        *seq += 1;
                        if joins_up {
                            pending_up.insert((track, *seq), m);
                        } else {
                            pending_down.insert((-track, *seq), m);
                        }
                    };
                if which == 0 {
                    stash(m, up, head, &mut seq, &mut pending_up, &mut pending_down);
                } else {
                    busy = false;
                }
                // Drain every request already waiting on the channel so the
                // SCAN choice below sees the whole burst, matching what the
                // shared-memory solutions see in their pending structures.
                while seeks.pending_senders_ctx(ctx) > 0 {
                    let Ok(m) = seeks.recv_cancellable(ctx) else {
                        return;
                    };
                    stash(m, up, head, &mut seq, &mut pending_up, &mut pending_down);
                }
                if !busy {
                    let next = if up {
                        pending_up
                            .pop_first()
                            .map(|((t, _), m)| (t, m))
                            .or_else(|| pending_down.pop_first().map(|((nt, _), m)| (-nt, m)))
                    } else {
                        pending_down
                            .pop_first()
                            .map(|((nt, _), m)| (-nt, m))
                            .or_else(|| pending_up.pop_first().map(|((t, _), m)| (t, m)))
                    };
                    if let Some((track, m)) = next {
                        busy = true;
                        if track > head {
                            up = true;
                        } else if track < head {
                            up = false;
                        }
                        head = track;
                        enter_for(ctx, m.pid, SEEK, &[track]);
                        m.reply.expect("reply").send(ctx, 0);
                    }
                }
            }
        });
    }
}

impl Default for CspDisk {
    fn default() -> Self {
        Self::new()
    }
}

impl crate::disk::DiskScheduler for CspDisk {
    fn seek(&self, ctx: &Ctx, track: i64, body: &mut dyn FnMut()) {
        self.ensure_server(ctx);
        request(ctx, SEEK, &[track]);
        let (msg, reply) = Msg::start(ctx, track);
        self.seeks.send(ctx, msg);
        reply.recv(ctx);
        body();
        exit(ctx, SEEK, &[track]);
        self.done.send(ctx, Msg::end(ctx));
    }

    fn desc(&self) -> SolutionDesc {
        SolutionDesc {
            problem: ProblemId::DiskScheduler,
            mechanism: MechanismId::Csp,
            units: vec![
                ImplUnit::new("head-mutex", "server:busy-flag"),
                ImplUnit::new("elevator-order", "server:pending-sets+scan-choice"),
            ],
            info_handling: [
                (InfoType::RequestParameters, Directness::Indirect),
                (InfoType::SyncState, Directness::Indirect),
            ]
            .into_iter()
            .collect::<BTreeMap<_, _>>(),
            workarounds: vec![],
        }
    }
}

// ---------------------------------------------------------------------------
// Alarm clock
// ---------------------------------------------------------------------------

/// CSP alarm clock: the logical clock and the deadline map are server
/// state; a tick message drains everything due.
pub struct CspAlarm {
    wake_reqs: Arc<Channel<Msg>>,
    ticks: Arc<Channel<Msg>>,
    once: ServerOnce,
}

impl CspAlarm {
    /// Creates the clock (the server starts on first use).
    pub fn new() -> Self {
        CspAlarm {
            wake_reqs: Arc::new(Channel::new("alarm.wake")),
            ticks: Arc::new(Channel::new("alarm.tick")),
            once: ServerOnce::new(),
        }
    }

    fn ensure_server(&self, ctx: &Ctx) {
        let (wake_reqs, ticks) = (Arc::clone(&self.wake_reqs), Arc::clone(&self.ticks));
        self.once.ensure(ctx, "alarm-server", move |ctx| {
            use std::collections::BTreeMap;
            let mut now = 0i64;
            let mut seq = 0u64;
            let mut pending: BTreeMap<(i64, u64), Msg> = BTreeMap::new();
            loop {
                let Ok((which, m)) =
                    select_cancellable(ctx, &mut [(&*wake_reqs, true), (&*ticks, true)])
                else {
                    return;
                };
                if which == 0 {
                    let deadline = now + m.value;
                    if now >= deadline {
                        enter_for(ctx, m.pid, WAKE, &[deadline, now]);
                        m.reply.expect("reply").send(ctx, 0);
                    } else {
                        seq += 1;
                        pending.insert((deadline, seq), m);
                    }
                } else {
                    now += 1;
                    while let Some(entry) = pending.first_entry() {
                        if entry.key().0 > now {
                            break;
                        }
                        let (key, m) = entry.remove_entry();
                        enter_for(ctx, m.pid, WAKE, &[key.0, now]);
                        m.reply.expect("reply").send(ctx, 0);
                    }
                }
            }
        });
    }
}

impl Default for CspAlarm {
    fn default() -> Self {
        Self::new()
    }
}

impl crate::alarm::AlarmClock for CspAlarm {
    fn wake_me(&self, ctx: &Ctx, delay: i64) {
        self.ensure_server(ctx);
        request(ctx, WAKE, &[delay]);
        let (msg, reply) = Msg::start(ctx, delay);
        self.wake_reqs.send(ctx, msg);
        reply.recv(ctx);
        exit(ctx, WAKE, &[]);
    }

    fn tick(&self, ctx: &Ctx) {
        self.ensure_server(ctx);
        self.ticks.send(ctx, Msg::end(ctx));
    }

    fn desc(&self) -> SolutionDesc {
        SolutionDesc {
            problem: ProblemId::AlarmClock,
            mechanism: MechanismId::Csp,
            units: vec![
                ImplUnit::new("alarm-wakeup", "server:deadline-map+tick-drain"),
                ImplUnit::new("earliest-first", "server:btreemap-order"),
            ],
            info_handling: [
                (InfoType::RequestParameters, Directness::Indirect),
                (InfoType::LocalState, Directness::Direct),
            ]
            .into_iter()
            .collect::<BTreeMap<_, _>>(),
            workarounds: vec![],
        }
    }
}

// ---------------------------------------------------------------------------
// Readers/writers
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Read,
    Write,
}

/// A typed request for the FCFS variant's single channel.
struct TypedMsg {
    kind: Kind,
    msg: Msg,
}

/// CSP readers/writers server, all three variants.
pub struct CspRw {
    variant: RwVariant,
    start_read: Arc<Channel<Msg>>,
    start_write: Arc<Channel<Msg>>,
    end_read: Arc<Channel<Msg>>,
    end_write: Arc<Channel<Msg>>,
    /// FCFS only: one channel carries both request types in arrival order.
    requests: Arc<Channel<TypedMsg>>,
    once: ServerOnce,
}

impl CspRw {
    /// Creates the database (the server starts on first use).
    pub fn new(variant: RwVariant) -> Self {
        CspRw {
            variant,
            start_read: Arc::new(Channel::new("rw.start_read")),
            start_write: Arc::new(Channel::new("rw.start_write")),
            end_read: Arc::new(Channel::new("rw.end_read")),
            end_write: Arc::new(Channel::new("rw.end_write")),
            requests: Arc::new(Channel::new("rw.requests")),
            once: ServerOnce::new(),
        }
    }

    fn ensure_server(&self, ctx: &Ctx) {
        let variant = self.variant;
        let sr = Arc::clone(&self.start_read);
        let sw = Arc::clone(&self.start_write);
        let er = Arc::clone(&self.end_read);
        let ew = Arc::clone(&self.end_write);
        let rq = Arc::clone(&self.requests);
        match variant {
            RwVariant::Fcfs => {
                self.once.ensure(ctx, "rw-server", move |ctx| {
                    Self::fcfs_server(ctx, &rq, &er, &ew);
                });
            }
            _ => {
                self.once.ensure(ctx, "rw-server", move |ctx| {
                    Self::priority_server(ctx, variant, &sr, &sw, &er, &ew);
                });
            }
        }
    }

    /// Readers-/writers-priority server: the priority constraint is one
    /// guard conjunct interrogating the opposing channel's sender queue.
    fn priority_server(
        ctx: &Ctx,
        variant: RwVariant,
        sr: &Channel<Msg>,
        sw: &Channel<Msg>,
        er: &Channel<Msg>,
        ew: &Channel<Msg>,
    ) {
        let mut readers = 0u32;
        let mut writing = false;
        loop {
            let read_guard = !writing
                && match variant {
                    // New readers defer to queued writers.
                    RwVariant::WritersPriority => sw.pending_senders_ctx(ctx) == 0,
                    _ => true,
                };
            let write_guard = !writing
                && readers == 0
                && match variant {
                    // Writers defer to queued readers.
                    RwVariant::ReadersPriority => sr.pending_senders_ctx(ctx) == 0,
                    _ => true,
                };
            let Ok((which, m)) = select_cancellable(
                ctx,
                &mut [(sr, read_guard), (sw, write_guard), (er, true), (ew, true)],
            ) else {
                return;
            };
            match which {
                0 => {
                    readers += 1;
                    enter_for(ctx, m.pid, READ, &[]);
                    m.reply.expect("reply").send(ctx, 0);
                }
                1 => {
                    writing = true;
                    enter_for(ctx, m.pid, WRITE, &[]);
                    m.reply.expect("reply").send(ctx, 0);
                }
                2 => readers -= 1,
                _ => writing = false,
            }
        }
    }

    /// FCFS server: one channel holds both request types; an incompatible
    /// head is *deferred*, and the request channel's guard closes until it
    /// is granted — FIFO head-blocking, exactly like the serializer's
    /// shared queue.
    fn fcfs_server(ctx: &Ctx, rq: &Channel<TypedMsg>, er: &Channel<Msg>, ew: &Channel<Msg>) {
        let mut readers = 0u32;
        let mut writing = false;
        let mut deferred: Option<TypedMsg> = None;
        let grant = |ctx: &Ctx, t: TypedMsg, readers: &mut u32, writing: &mut bool| {
            match t.kind {
                Kind::Read => {
                    *readers += 1;
                    enter_for(ctx, t.msg.pid, READ, &[]);
                }
                Kind::Write => {
                    *writing = true;
                    enter_for(ctx, t.msg.pid, WRITE, &[]);
                }
            }
            t.msg.reply.expect("reply").send(ctx, 0);
        };
        // End messages arrive on Msg channels, requests on the TypedMsg
        // channel, so one select cannot watch both. Consequence: a request
        // arriving while the server is parked waiting for an end is served
        // only after that end arrives — a latency (never a safety or
        // FIFO-order) cost, since something is in flight whenever the
        // server waits there.
        loop {
            // Try to grant a deferred head first.
            if let Some(t) = deferred.take() {
                let ok = match t.kind {
                    Kind::Read => !writing,
                    Kind::Write => !writing && readers == 0,
                };
                if ok {
                    grant(ctx, t, &mut readers, &mut writing);
                    continue;
                }
                deferred = Some(t);
            }
            if deferred.is_none() && rq.pending_senders_ctx(ctx) > 0 {
                let Ok(t) = rq.recv_cancellable(ctx) else {
                    return;
                };
                let ok = match t.kind {
                    Kind::Read => !writing,
                    Kind::Write => !writing && readers == 0,
                };
                if ok {
                    grant(ctx, t, &mut readers, &mut writing);
                } else {
                    deferred = Some(t);
                }
                continue;
            }
            if deferred.is_some() || rq.pending_senders_ctx(ctx) == 0 {
                // Wait for an end message, or (when nothing is deferred) a
                // fresh request. Requests and ends have different message
                // types, so when nothing is deferred we wait on ends only
                // if an end is possible; otherwise poll the request
                // channel via its own rendezvous.
                if deferred.is_none() && readers == 0 && !writing {
                    // Nothing in flight: the next event must be a request,
                    // and an idle database admits either kind.
                    let Ok(t) = rq.recv_cancellable(ctx) else {
                        return;
                    };
                    grant(ctx, t, &mut readers, &mut writing);
                    continue;
                }
                let Ok((which, _)) = select_cancellable(ctx, &mut [(er, true), (ew, true)]) else {
                    return;
                };
                match which {
                    0 => readers -= 1,
                    _ => writing = false,
                }
            }
        }
    }
}

impl ReadersWriters for CspRw {
    fn read(&self, ctx: &Ctx, body: &mut dyn FnMut()) {
        self.ensure_server(ctx);
        request(ctx, READ, &[]);
        let (msg, reply) = Msg::start(ctx, 0);
        match self.variant {
            RwVariant::Fcfs => self.requests.send(
                ctx,
                TypedMsg {
                    kind: Kind::Read,
                    msg,
                },
            ),
            _ => self.start_read.send(ctx, msg),
        }
        reply.recv(ctx);
        body();
        exit(ctx, READ, &[]);
        self.end_read.send(ctx, Msg::end(ctx));
    }

    fn write(&self, ctx: &Ctx, body: &mut dyn FnMut()) {
        self.ensure_server(ctx);
        request(ctx, WRITE, &[]);
        let (msg, reply) = Msg::start(ctx, 0);
        match self.variant {
            RwVariant::Fcfs => self.requests.send(
                ctx,
                TypedMsg {
                    kind: Kind::Write,
                    msg,
                },
            ),
            _ => self.start_write.send(ctx, msg),
        }
        reply.recv(ctx);
        body();
        exit(ctx, WRITE, &[]);
        self.end_write.send(ctx, Msg::end(ctx));
    }

    fn desc(&self) -> SolutionDesc {
        let (priority_component, time_info): (&str, Option<(InfoType, Directness)>) =
            match self.variant {
                RwVariant::ReadersPriority => ("guard:writer-defers-to-read-channel-queue", None),
                RwVariant::WritersPriority => ("guard:reader-defers-to-write-channel-queue", None),
                RwVariant::Fcfs => (
                    "channel:single-request-queue+deferred-head",
                    Some((InfoType::RequestTime, Directness::Direct)),
                ),
            };
        let mut info: BTreeMap<InfoType, Directness> = [
            (InfoType::RequestType, Directness::Direct),
            (InfoType::SyncState, Directness::Indirect),
        ]
        .into_iter()
        .collect();
        if let Some((k, v)) = time_info {
            info.insert(k, v);
        }
        SolutionDesc {
            problem: self.variant.problem(),
            mechanism: MechanismId::Csp,
            units: vec![
                // Identical across all three variants.
                ImplUnit::new("rw-exclusion", "guard:read-needs-no-writer"),
                ImplUnit::new("rw-exclusion", "guard:write-needs-empty-db"),
                ImplUnit::new(self.variant.priority_constraint(), priority_component),
            ],
            info_handling: info,
            workarounds: vec![],
        }
    }
}
