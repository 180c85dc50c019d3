//! Crash scenarios: the fault-injection workloads behind experiment R1.
//!
//! The paper evaluates mechanisms on what they can *express*; this module
//! evaluates what they can *survive*. Each scenario is a small, fully
//! deterministic workload in which one process — always named
//! [`VICTIM`] — is killed at a chosen scheduling point while the others
//! try to finish their work. Classifying the outcome with
//! [`bloom_core::crash::classify_crash`] over every kill point yields one
//! cell of the crash-robustness matrix:
//!
//! * **bare semaphores** ([`CrashMechanism::SemaphoreBare`]) are the
//!   baseline: a victim dying inside its critical section takes the
//!   permit to the grave and the scenario *wedges* (loud deadlock);
//! * **`Lock` + `p_by`** ([`CrashMechanism::SemaphoreLock`]) is the
//!   crash-safe semaphore style: the mutex *poisons* and survivors time
//!   out of condition waits instead of wedging;
//! * **monitors**, **serializers** and **path expressions** poison their
//!   primitive when a holder dies and wake every waiter with the verdict;
//!   serializer *crowd* members additionally die without poisoning at
//!   all — membership cleanup re-evaluates the guards (contained);
//! * **CSP** has no possession to poison: a client dying while *parked*
//!   withdraws its offer (contained), but a client dying *mid-protocol*
//!   leaves the server waiting for a reply that never comes — the
//!   readers/writers server wedges, while the buffer server survives
//!   because state never leaves it.
//!
//! The scenarios intentionally use the mechanisms' checked APIs
//! (`try_enter`, `wait_checked`, `enqueue_checked`, `try_perform`,
//! `Lock::try_with`): a survivor that observes poison abandons its
//! remaining work and exits cleanly, which is precisely the behavior the
//! poison protocol exists to enable. Event emission follows the standard
//! `req:`/`enter:`/`exit:` vocabulary, so faulted traces remain parseable
//! by [`bloom_core::events::extract`].

use crate::events::{DEPOSIT, READ, REMOVE, WRITE};
use bloom_channel::{select_cancellable, Channel};
use bloom_core::crash::{classify_crash, CrashOutcome};
use bloom_core::events::{enter, exit, request};
use bloom_monitor::{Cond, Monitor};
use bloom_pathexpr::PathResource;
use bloom_semaphore::{Lock, Semaphore, TryResult};
use bloom_serializer::Serializer;
use bloom_sim::{Ctx, FaultPlan, Sim, SimError, SimReport};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Name of the process every crash scenario designates for the kill.
pub const VICTIM: &str = "victim";

/// Buffer capacity used by the bounded-buffer crash scenarios.
const CAP: usize = 1;

/// How long survivors in the `SemaphoreLock` scenarios wait before giving
/// a corpse up for dead (virtual-time ticks).
const PATIENCE: u64 = 64;

/// The mechanism flavor under crash test — one row of the R1 matrix.
///
/// `SemaphoreBare` and `SemaphoreLock` are deliberately separate rows:
/// the paper's semaphore is the bare P/V primitive, and its crash
/// behavior (wedging) is the baseline the crash-safe wrappers are
/// measured against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CrashMechanism {
    /// Classic bare `P`/`V` (Courtois-style readers/writers, split
    /// counting semaphores for the buffer). No crash protection at all.
    SemaphoreBare,
    /// The crash-safe semaphore style: `Lock::try_with` for exclusion,
    /// `p_by` for condition waits.
    SemaphoreLock,
    /// Monitor with registered conditions and checked waits.
    Monitor,
    /// Serializer with checked enqueues; readers/writers uses crowds.
    Serializer,
    /// Path-expression resource with checked `perform`.
    PathExpr,
    /// CSP server process owning the resource; clients rendezvous.
    Csp,
}

impl CrashMechanism {
    /// All matrix rows, in display order.
    pub const ALL: [CrashMechanism; 6] = [
        CrashMechanism::SemaphoreBare,
        CrashMechanism::SemaphoreLock,
        CrashMechanism::Monitor,
        CrashMechanism::Serializer,
        CrashMechanism::PathExpr,
        CrashMechanism::Csp,
    ];

    /// Display label for the matrix.
    pub fn label(self) -> &'static str {
        match self {
            CrashMechanism::SemaphoreBare => "semaphore (bare P/V)",
            CrashMechanism::SemaphoreLock => "semaphore (Lock+timeout)",
            CrashMechanism::Monitor => "monitor",
            CrashMechanism::Serializer => "serializer",
            CrashMechanism::PathExpr => "path expression",
            CrashMechanism::Csp => "CSP server",
        }
    }
}

impl fmt::Display for CrashMechanism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The problem under crash test — one column of the R1 matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CrashProblem {
    /// Three processes: the victim writer, a reader, a second writer.
    ReadersWriters,
    /// Three processes: the victim producer, a second producer, a
    /// consumer, over a capacity-1 buffer.
    BoundedBuffer,
}

impl CrashProblem {
    /// Both matrix columns.
    pub const ALL: [CrashProblem; 2] = [CrashProblem::ReadersWriters, CrashProblem::BoundedBuffer];

    /// Display label for the matrix.
    pub fn label(self) -> &'static str {
        match self {
            CrashProblem::ReadersWriters => "readers/writers",
            CrashProblem::BoundedBuffer => "bounded buffer",
        }
    }
}

impl fmt::Display for CrashProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Builds the crash scenario simulation, without a fault plan. The caller
/// (a sweep, or the kill-point explorer) injects the kill.
pub fn crash_sim(mech: CrashMechanism, problem: CrashProblem) -> Sim {
    match problem {
        CrashProblem::ReadersWriters => rw_crash_sim(mech),
        CrashProblem::BoundedBuffer => buffer_crash_sim(mech),
    }
}

/// Runs the crash scenario with the victim killed at its `kill_point`-th
/// scheduling point (FIFO schedule).
pub fn crash_scenario(
    mech: CrashMechanism,
    problem: CrashProblem,
    kill_point: u64,
) -> Result<SimReport, SimError> {
    let mut sim = crash_sim(mech, problem);
    sim.set_fault_plan(FaultPlan::new().kill(VICTIM, kill_point));
    sim.run()
}

/// Sweeps kill points `1..=max_points` under the FIFO schedule and
/// classifies each outcome. Kill points past the victim's last scheduling
/// point leave it unharmed; those runs classify as contained (they are the
/// no-fault baseline).
pub fn outcome_sweep(
    mech: CrashMechanism,
    problem: CrashProblem,
    max_points: u64,
) -> Vec<(u64, CrashOutcome)> {
    (1..=max_points)
        .map(|k| (k, classify_crash(&crash_scenario(mech, problem, k))))
        .collect()
}

/// The victim's critical-section body: one quantum of "work" so every
/// scenario has a kill point *inside* the protected region.
fn work(ctx: &Ctx) {
    ctx.yield_now();
}

// ---------------------------------------------------------------------------
// Readers/writers crash scenarios
// ---------------------------------------------------------------------------

fn rw_crash_sim(mech: CrashMechanism) -> Sim {
    let mut sim = Sim::new();
    match mech {
        CrashMechanism::SemaphoreBare => {
            // Courtois problem 1 with bare P/V: readcount + mutex + wrt.
            struct Db {
                mutex: Semaphore,
                wrt: Semaphore,
                readers: Mutex<u32>,
            }
            let db = Arc::new(Db {
                mutex: Semaphore::strong("mutex", 1),
                wrt: Semaphore::strong("wrt", 1),
                readers: Mutex::new(0),
            });
            let read = |db: &Db, ctx: &Ctx| {
                request(ctx, READ, &[]);
                db.mutex.p(ctx);
                {
                    let mut r = db.readers.lock();
                    *r += 1;
                    if *r == 1 {
                        drop(r);
                        db.wrt.p(ctx);
                    }
                }
                db.mutex.v(ctx);
                enter(ctx, READ, &[]);
                work(ctx);
                exit(ctx, READ, &[]);
                db.mutex.p(ctx);
                {
                    let mut r = db.readers.lock();
                    *r -= 1;
                    if *r == 0 {
                        drop(r);
                        db.wrt.v(ctx);
                    }
                }
                db.mutex.v(ctx);
            };
            let write = |db: &Db, ctx: &Ctx| {
                request(ctx, WRITE, &[]);
                db.wrt.p(ctx);
                enter(ctx, WRITE, &[]);
                work(ctx);
                exit(ctx, WRITE, &[]);
                db.wrt.v(ctx);
            };
            let d = Arc::clone(&db);
            sim.spawn(VICTIM, move |ctx| {
                write(&d, ctx);
                ctx.yield_now();
            });
            let d = Arc::clone(&db);
            sim.spawn("reader", move |ctx| {
                ctx.yield_now();
                read(&d, ctx);
            });
            let d = Arc::clone(&db);
            sim.spawn("writer2", move |ctx| {
                ctx.yield_now();
                ctx.yield_now();
                write(&d, ctx);
            });
        }
        CrashMechanism::SemaphoreLock => {
            // Crash-safe rewrite: one poisoning Lock, exclusive access.
            // (Readers give up sharing; what is bought is that a corpse
            // in the critical section poisons instead of wedging.)
            let lock = Arc::new(Lock::new("db"));
            let op = |lock: &Lock, ctx: &Ctx, name: &'static str| {
                request(ctx, name, &[]);
                let _ = lock.try_with(ctx, || {
                    enter(ctx, name, &[]);
                    work(ctx);
                    exit(ctx, name, &[]);
                });
            };
            let l = Arc::clone(&lock);
            sim.spawn(VICTIM, move |ctx| {
                op(&l, ctx, WRITE);
                ctx.yield_now();
            });
            let l = Arc::clone(&lock);
            sim.spawn("reader", move |ctx| {
                ctx.yield_now();
                op(&l, ctx, READ);
            });
            let l = Arc::clone(&lock);
            sim.spawn("writer2", move |ctx| {
                ctx.yield_now();
                ctx.yield_now();
                op(&l, ctx, WRITE);
            });
        }
        CrashMechanism::Monitor => {
            // Readers count in the monitor; the write body runs *inside*
            // the monitor so a dying writer holds possession (and
            // poisons) rather than leaving an orphaned "writing" flag.
            let m = Arc::new(Monitor::hoare("db", 0u32));
            let ok_write = Arc::new(Cond::new("ok-write"));
            m.register_cond(&ok_write);
            let read = |m: &Monitor<u32>, ok_write: &Arc<Cond>, ctx: &Ctx| {
                request(ctx, READ, &[]);
                if m.try_enter(ctx, |mc| mc.state(|r| *r += 1)).is_err() {
                    return;
                }
                enter(ctx, READ, &[]);
                work(ctx);
                exit(ctx, READ, &[]);
                let ok = Arc::clone(ok_write);
                let _ = m.try_enter(ctx, move |mc| {
                    mc.state(|r| *r -= 1);
                    if mc.state(|r| *r) == 0 {
                        // Hoare hand-off: the signalled writer may die with
                        // possession before handing it back.
                        let _ = mc.signal_checked(&ok);
                    }
                });
            };
            let write = |m: &Monitor<u32>, ok_write: &Arc<Cond>, ctx: &Ctx| {
                request(ctx, WRITE, &[]);
                let ok = Arc::clone(ok_write);
                let _ = m.try_enter(ctx, move |mc| {
                    while mc.state(|r| *r) > 0 {
                        if mc.wait_checked(&ok).is_err() {
                            return;
                        }
                    }
                    enter(ctx, WRITE, &[]);
                    work(ctx);
                    exit(ctx, WRITE, &[]);
                    // Chain the Hoare signal: a single reader-side signal
                    // wakes only one of possibly several queued writers.
                    let _ = mc.signal_checked(&ok);
                });
            };
            let (m1, c1) = (Arc::clone(&m), Arc::clone(&ok_write));
            sim.spawn(VICTIM, move |ctx| {
                write(&m1, &c1, ctx);
                ctx.yield_now();
            });
            let (m2, c2) = (Arc::clone(&m), Arc::clone(&ok_write));
            sim.spawn("reader", move |ctx| {
                ctx.yield_now();
                read(&m2, &c2, ctx);
            });
            let (m3, c3) = (Arc::clone(&m), Arc::clone(&ok_write));
            sim.spawn("writer2", move |ctx| {
                ctx.yield_now();
                ctx.yield_now();
                write(&m3, &c3, ctx);
            });
        }
        CrashMechanism::Serializer => {
            let s = Arc::new(Serializer::new("db", ()));
            let q = s.queue("req");
            let readers = s.crowd("readers");
            let writers = s.crowd("writers");
            let read = move |s: &Serializer<()>, ctx: &Ctx| {
                request(ctx, READ, &[]);
                let _ = s.try_enter(ctx, |sc| {
                    if sc
                        .enqueue_checked(q, move |v| v.crowd_is_empty(writers))
                        .is_err()
                    {
                        return;
                    }
                    sc.join_crowd(readers, || {
                        enter(ctx, READ, &[]);
                        work(ctx);
                        exit(ctx, READ, &[]);
                    });
                });
            };
            let write = move |s: &Serializer<()>, ctx: &Ctx| {
                request(ctx, WRITE, &[]);
                let _ = s.try_enter(ctx, |sc| {
                    if sc
                        .enqueue_checked(q, move |v| {
                            v.crowd_is_empty(readers) && v.crowd_is_empty(writers)
                        })
                        .is_err()
                    {
                        return;
                    }
                    sc.join_crowd(writers, || {
                        enter(ctx, WRITE, &[]);
                        work(ctx);
                        exit(ctx, WRITE, &[]);
                    });
                });
            };
            let s1 = Arc::clone(&s);
            sim.spawn(VICTIM, move |ctx| {
                write(&s1, ctx);
                ctx.yield_now();
            });
            let s2 = Arc::clone(&s);
            sim.spawn("reader", move |ctx| {
                ctx.yield_now();
                read(&s2, ctx);
            });
            let s3 = Arc::clone(&s);
            sim.spawn("writer2", move |ctx| {
                ctx.yield_now();
                ctx.yield_now();
                write(&s3, ctx);
            });
        }
        CrashMechanism::PathExpr => {
            let r = Arc::new(
                PathResource::parse("db", "path { read } , write end").expect("static path"),
            );
            let op = |r: &PathResource, ctx: &Ctx, name: &'static str| {
                request(ctx, name, &[]);
                let _ = r.try_perform(ctx, name, || {
                    enter(ctx, name, &[]);
                    work(ctx);
                    exit(ctx, name, &[]);
                });
            };
            let r1 = Arc::clone(&r);
            sim.spawn(VICTIM, move |ctx| {
                op(&r1, ctx, WRITE);
                ctx.yield_now();
            });
            let r2 = Arc::clone(&r);
            sim.spawn("reader", move |ctx| {
                ctx.yield_now();
                op(&r2, ctx, READ);
            });
            let r3 = Arc::clone(&r);
            sim.spawn("writer2", move |ctx| {
                ctx.yield_now();
                ctx.yield_now();
                op(&r3, ctx, WRITE);
            });
        }
        CrashMechanism::Csp => {
            // Server process owns the reader count; clients rendezvous:
            // send on *-start to be granted, on *-end when done.
            let read_start = Arc::new(Channel::new("read-start"));
            let read_end = Arc::new(Channel::new("read-end"));
            let write_start = Arc::new(Channel::new("write-start"));
            let write_end = Arc::new(Channel::new("write-end"));
            let (rs, re, ws, we) = (
                Arc::clone(&read_start),
                Arc::clone(&read_end),
                Arc::clone(&write_start),
                Arc::clone(&write_end),
            );
            sim.spawn_daemon("server", move |ctx| {
                let mut readers = 0i64;
                loop {
                    let Ok((idx, _)) = select_cancellable(
                        ctx,
                        &mut [(&*rs, true), (&*re, readers > 0), (&*ws, readers == 0)],
                    ) else {
                        return;
                    };
                    match idx {
                        0 => readers += 1,
                        1 => readers -= 1,
                        // Granting a write blocks the server until the
                        // writer reports back — its Achilles heel when
                        // the writer dies mid-body.
                        _ => {
                            if we.recv_cancellable(ctx).is_err() {
                                return;
                            }
                        }
                    }
                }
            });
            let read = |start: &Channel<i64>, end: &Channel<i64>, ctx: &Ctx| {
                request(ctx, READ, &[]);
                start.send(ctx, 0);
                enter(ctx, READ, &[]);
                work(ctx);
                exit(ctx, READ, &[]);
                end.send(ctx, 0);
            };
            let write = |start: &Channel<i64>, end: &Channel<i64>, ctx: &Ctx| {
                request(ctx, WRITE, &[]);
                start.send(ctx, 0);
                enter(ctx, WRITE, &[]);
                work(ctx);
                exit(ctx, WRITE, &[]);
                end.send(ctx, 0);
            };
            let (s1, e1) = (Arc::clone(&write_start), Arc::clone(&write_end));
            sim.spawn(VICTIM, move |ctx| {
                write(&s1, &e1, ctx);
                ctx.yield_now();
            });
            let (s2, e2) = (Arc::clone(&read_start), Arc::clone(&read_end));
            sim.spawn("reader", move |ctx| {
                ctx.yield_now();
                read(&s2, &e2, ctx);
            });
            let (s3, e3) = (Arc::clone(&write_start), Arc::clone(&write_end));
            sim.spawn("writer2", move |ctx| {
                ctx.yield_now();
                ctx.yield_now();
                write(&s3, &e3, ctx);
            });
        }
    }
    sim
}

// ---------------------------------------------------------------------------
// Bounded-buffer crash scenarios
// ---------------------------------------------------------------------------

fn buffer_crash_sim(mech: CrashMechanism) -> Sim {
    let mut sim = Sim::new();
    match mech {
        CrashMechanism::SemaphoreBare => {
            struct Buf {
                empty: Semaphore,
                full: Semaphore,
                mutex: Semaphore,
                items: Mutex<VecDeque<i64>>,
            }
            let buf = Arc::new(Buf {
                empty: Semaphore::strong("empty", CAP as u64),
                full: Semaphore::strong("full", 0),
                mutex: Semaphore::strong("mutex", 1),
                items: Mutex::new(VecDeque::new()),
            });
            let deposit = |b: &Buf, ctx: &Ctx, v: i64| {
                request(ctx, DEPOSIT, &[v]);
                b.empty.p(ctx);
                b.mutex.p(ctx);
                enter(ctx, DEPOSIT, &[v]);
                b.items.lock().push_back(v);
                work(ctx);
                exit(ctx, DEPOSIT, &[v]);
                b.mutex.v(ctx);
                b.full.v(ctx);
            };
            let remove = |b: &Buf, ctx: &Ctx| {
                request(ctx, REMOVE, &[]);
                b.full.p(ctx);
                b.mutex.p(ctx);
                let v = b.items.lock().pop_front().expect("full permit held");
                enter(ctx, REMOVE, &[v]);
                exit(ctx, REMOVE, &[v]);
                b.mutex.v(ctx);
                b.empty.v(ctx);
            };
            let b = Arc::clone(&buf);
            sim.spawn(VICTIM, move |ctx| {
                deposit(&b, ctx, 1);
                ctx.yield_now();
            });
            let b = Arc::clone(&buf);
            sim.spawn("producer2", move |ctx| {
                ctx.yield_now();
                deposit(&b, ctx, 2);
            });
            let b = Arc::clone(&buf);
            sim.spawn("consumer", move |ctx| {
                ctx.yield_now();
                ctx.yield_now();
                remove(&b, ctx);
            });
        }
        CrashMechanism::SemaphoreLock => {
            struct Buf {
                empty: Semaphore,
                full: Semaphore,
                lock: Lock,
                items: Mutex<VecDeque<i64>>,
            }
            let buf = Arc::new(Buf {
                empty: Semaphore::strong("empty", CAP as u64),
                full: Semaphore::strong("full", 0),
                lock: Lock::new("buf"),
                items: Mutex::new(VecDeque::new()),
            });
            // The victim uses the plain path (it is healthy until the
            // kill); survivors guard every wait with a timeout so a
            // corpse's lost `V` cannot strand them.
            let deposit = |b: &Buf, ctx: &Ctx, v: i64, patient: bool| {
                request(ctx, DEPOSIT, &[v]);
                if patient {
                    if b.empty.p_by(ctx, PATIENCE) == TryResult::TimedOut {
                        return; // corpse kept the slot: give up loudly-typed
                    }
                } else {
                    b.empty.p(ctx);
                }
                let filled = b.lock.try_with(ctx, || {
                    enter(ctx, DEPOSIT, &[v]);
                    b.items.lock().push_back(v);
                    work(ctx);
                    exit(ctx, DEPOSIT, &[v]);
                });
                if filled.is_ok() {
                    b.full.v(ctx);
                }
            };
            let remove = |b: &Buf, ctx: &Ctx| {
                request(ctx, REMOVE, &[]);
                if b.full.p_by(ctx, PATIENCE) == TryResult::TimedOut {
                    return; // nobody will ever fill the buffer
                }
                let taken = b.lock.try_with(ctx, || {
                    let v = b.items.lock().pop_front().expect("full permit held");
                    enter(ctx, REMOVE, &[v]);
                    exit(ctx, REMOVE, &[v]);
                });
                if taken.is_ok() {
                    b.empty.v(ctx);
                }
            };
            let b = Arc::clone(&buf);
            sim.spawn(VICTIM, move |ctx| {
                deposit(&b, ctx, 1, false);
                ctx.yield_now();
            });
            let b = Arc::clone(&buf);
            sim.spawn("producer2", move |ctx| {
                ctx.yield_now();
                deposit(&b, ctx, 2, true);
            });
            let b = Arc::clone(&buf);
            sim.spawn("consumer", move |ctx| {
                ctx.yield_now();
                ctx.yield_now();
                remove(&b, ctx);
            });
        }
        CrashMechanism::Monitor => {
            let m = Arc::new(Monitor::mesa("buf", VecDeque::<i64>::new()));
            let not_full = Arc::new(Cond::new("not-full"));
            let not_empty = Arc::new(Cond::new("not-empty"));
            m.register_cond(&not_full);
            m.register_cond(&not_empty);
            type BufMon = Monitor<VecDeque<i64>>;
            let deposit = |m: &BufMon, nf: &Arc<Cond>, ne: &Arc<Cond>, ctx: &Ctx, v: i64| {
                request(ctx, DEPOSIT, &[v]);
                let (nf, ne) = (Arc::clone(nf), Arc::clone(ne));
                let _ = m.try_enter(ctx, move |mc| {
                    while mc.state(|b| b.len()) >= CAP {
                        if mc.wait_checked(&nf).is_err() {
                            return;
                        }
                    }
                    enter(ctx, DEPOSIT, &[v]);
                    mc.state(|b| b.push_back(v));
                    work(ctx);
                    exit(ctx, DEPOSIT, &[v]);
                    mc.signal(&ne);
                });
            };
            let remove = |m: &BufMon, nf: &Arc<Cond>, ne: &Arc<Cond>, ctx: &Ctx| {
                request(ctx, REMOVE, &[]);
                let (nf, ne) = (Arc::clone(nf), Arc::clone(ne));
                let _ = m.try_enter(ctx, move |mc| {
                    while mc.state(|b| b.is_empty()) {
                        if mc.wait_checked(&ne).is_err() {
                            return;
                        }
                    }
                    let v = mc.state(|b| b.pop_front().expect("nonempty"));
                    enter(ctx, REMOVE, &[v]);
                    exit(ctx, REMOVE, &[v]);
                    mc.signal(&nf);
                });
            };
            let (m1, f1, e1) = (
                Arc::clone(&m),
                Arc::clone(&not_full),
                Arc::clone(&not_empty),
            );
            sim.spawn(VICTIM, move |ctx| {
                deposit(&m1, &f1, &e1, ctx, 1);
                ctx.yield_now();
            });
            let (m2, f2, e2) = (
                Arc::clone(&m),
                Arc::clone(&not_full),
                Arc::clone(&not_empty),
            );
            sim.spawn("producer2", move |ctx| {
                ctx.yield_now();
                deposit(&m2, &f2, &e2, ctx, 2);
            });
            let (m3, f3, e3) = (
                Arc::clone(&m),
                Arc::clone(&not_full),
                Arc::clone(&not_empty),
            );
            sim.spawn("consumer", move |ctx| {
                ctx.yield_now();
                ctx.yield_now();
                remove(&m3, &f3, &e3, ctx);
            });
        }
        CrashMechanism::Serializer => {
            let s = Arc::new(Serializer::new("buf", VecDeque::<i64>::new()));
            let space = s.queue("space");
            let item = s.queue("item");
            type BufSer = Serializer<VecDeque<i64>>;
            let deposit = move |s: &BufSer, ctx: &Ctx, v: i64| {
                request(ctx, DEPOSIT, &[v]);
                let _ = s.try_enter(ctx, |sc| {
                    if sc
                        .enqueue_checked(space, |g| g.state().len() < CAP)
                        .is_err()
                    {
                        return;
                    }
                    enter(ctx, DEPOSIT, &[v]);
                    sc.state(|b| b.push_back(v));
                    work(ctx);
                    exit(ctx, DEPOSIT, &[v]);
                });
            };
            let remove = move |s: &BufSer, ctx: &Ctx| {
                request(ctx, REMOVE, &[]);
                let _ = s.try_enter(ctx, |sc| {
                    if sc.enqueue_checked(item, |g| !g.state().is_empty()).is_err() {
                        return;
                    }
                    let v = sc.state(|b| b.pop_front().expect("guard held"));
                    enter(ctx, REMOVE, &[v]);
                    exit(ctx, REMOVE, &[v]);
                });
            };
            let s1 = Arc::clone(&s);
            sim.spawn(VICTIM, move |ctx| {
                deposit(&s1, ctx, 1);
                ctx.yield_now();
            });
            let s2 = Arc::clone(&s);
            sim.spawn("producer2", move |ctx| {
                ctx.yield_now();
                deposit(&s2, ctx, 2);
            });
            let s3 = Arc::clone(&s);
            sim.spawn("consumer", move |ctx| {
                ctx.yield_now();
                ctx.yield_now();
                remove(&s3, ctx);
            });
        }
        CrashMechanism::PathExpr => {
            let r = Arc::new(
                PathResource::parse("buf", &format!("path {CAP} : (deposit ; remove) end"))
                    .expect("static path"),
            );
            let items = Arc::new(Mutex::new(VecDeque::<i64>::new()));
            let deposit = |r: &PathResource, items: &Mutex<VecDeque<i64>>, ctx: &Ctx, v: i64| {
                request(ctx, DEPOSIT, &[v]);
                let _ = r.try_perform(ctx, "deposit", || {
                    enter(ctx, DEPOSIT, &[v]);
                    items.lock().push_back(v);
                    work(ctx);
                    exit(ctx, DEPOSIT, &[v]);
                });
            };
            let remove = |r: &PathResource, items: &Mutex<VecDeque<i64>>, ctx: &Ctx| {
                request(ctx, REMOVE, &[]);
                let _ = r.try_perform(ctx, "remove", || {
                    let v = items.lock().pop_front().expect("path admitted the remove");
                    enter(ctx, REMOVE, &[v]);
                    exit(ctx, REMOVE, &[v]);
                });
            };
            let (r1, i1) = (Arc::clone(&r), Arc::clone(&items));
            sim.spawn(VICTIM, move |ctx| {
                deposit(&r1, &i1, ctx, 1);
                ctx.yield_now();
            });
            let (r2, i2) = (Arc::clone(&r), Arc::clone(&items));
            sim.spawn("producer2", move |ctx| {
                ctx.yield_now();
                deposit(&r2, &i2, ctx, 2);
            });
            let (r3, i3) = (Arc::clone(&r), Arc::clone(&items));
            sim.spawn("consumer", move |ctx| {
                ctx.yield_now();
                ctx.yield_now();
                remove(&r3, &i3, ctx);
            });
        }
        CrashMechanism::Csp => {
            // The buffer lives inside the server, so no client crash can
            // corrupt it: dead senders withdraw their offers, and the
            // guards keep the server responsive to everyone else.
            let dep = Arc::new(Channel::new("dep"));
            let rem_req = Arc::new(Channel::new("rem-req"));
            let rem_reply = Arc::new(Channel::new("rem-reply"));
            let (d, rq, rr) = (
                Arc::clone(&dep),
                Arc::clone(&rem_req),
                Arc::clone(&rem_reply),
            );
            sim.spawn_daemon("server", move |ctx| {
                let mut buf = VecDeque::new();
                loop {
                    let Ok((idx, v)) = select_cancellable(
                        ctx,
                        &mut [(&*d, buf.len() < CAP), (&*rq, !buf.is_empty())],
                    ) else {
                        return;
                    };
                    match idx {
                        0 => buf.push_back(v),
                        _ => {
                            let item = buf.pop_front().expect("guard held");
                            rr.send(ctx, item);
                        }
                    }
                }
            });
            let deposit = |dep: &Channel<i64>, ctx: &Ctx, v: i64| {
                request(ctx, DEPOSIT, &[v]);
                dep.send(ctx, v);
                enter(ctx, DEPOSIT, &[v]);
                exit(ctx, DEPOSIT, &[v]);
            };
            let remove = |req: &Channel<i64>, reply: &Channel<i64>, ctx: &Ctx| {
                request(ctx, REMOVE, &[]);
                req.send(ctx, 0);
                let v = reply.recv(ctx);
                enter(ctx, REMOVE, &[v]);
                exit(ctx, REMOVE, &[v]);
            };
            let d1 = Arc::clone(&dep);
            sim.spawn(VICTIM, move |ctx| {
                deposit(&d1, ctx, 1);
                ctx.yield_now();
            });
            let d2 = Arc::clone(&dep);
            sim.spawn("producer2", move |ctx| {
                ctx.yield_now();
                deposit(&d2, ctx, 2);
            });
            let (q3, r3) = (Arc::clone(&rem_req), Arc::clone(&rem_reply));
            sim.spawn("consumer", move |ctx| {
                ctx.yield_now();
                ctx.yield_now();
                remove(&q3, &r3, ctx);
            });
        }
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use bloom_core::crash::{check_crash_containment, check_poison_propagation, classify_crash};
    use bloom_core::expect_clean;

    /// Without a fault plan, every scenario completes cleanly — the
    /// baseline the crash runs are measured against.
    #[test]
    fn all_scenarios_are_healthy_without_faults() {
        for mech in CrashMechanism::ALL {
            for problem in CrashProblem::ALL {
                let report = crash_sim(mech, problem)
                    .run()
                    .unwrap_or_else(|e| panic!("{mech}/{}: {e}", problem.label()));
                assert_eq!(
                    report.killed(),
                    vec![],
                    "{mech}/{}: no fault plan, no kills",
                    problem.label()
                );
            }
        }
    }

    /// Every kill point of every cell is *contained*: victims die, the
    /// fault never silently corrupts survivors, and the poison protocol
    /// (where used) is well-formed.
    #[test]
    fn every_kill_point_is_contained_and_protocol_clean() {
        for mech in CrashMechanism::ALL {
            for problem in CrashProblem::ALL {
                for k in 1..=8 {
                    let result = crash_scenario(mech, problem, k);
                    let killed = match &result {
                        Ok(r) => r.killed(),
                        Err(e) => e.report.killed(),
                    };
                    let what = format!("{mech}/{} kill point {k}", problem.label());
                    expect_clean(&check_crash_containment(&result, &killed), &what);
                    let trace = match &result {
                        Ok(r) => &r.trace,
                        Err(e) => &e.report.trace,
                    };
                    expect_clean(&check_poison_propagation(trace), &what);
                }
            }
        }
    }

    /// The sweep is deterministic: running it twice gives identical
    /// outcome vectors (the replay-determinism guarantee extended to
    /// fault injection).
    #[test]
    fn sweeps_are_deterministic() {
        for mech in CrashMechanism::ALL {
            let a = outcome_sweep(mech, CrashProblem::ReadersWriters, 6);
            let b = outcome_sweep(mech, CrashProblem::ReadersWriters, 6);
            assert_eq!(a, b, "{mech}");
        }
    }

    /// The headline contrast of experiment R1: a writer dying inside its
    /// critical section wedges the bare-semaphore solution but merely
    /// poisons the monitor and serializer ones.
    #[test]
    fn bare_semaphores_wedge_where_monitors_and_serializers_poison() {
        let outcomes = |mech| {
            outcome_sweep(mech, CrashProblem::ReadersWriters, 8)
                .into_iter()
                .map(|(_, o)| o)
                .collect::<Vec<_>>()
        };
        assert!(
            outcomes(CrashMechanism::SemaphoreBare).contains(&CrashOutcome::Wedged),
            "some kill point must wedge bare P/V"
        );
        for mech in [
            CrashMechanism::SemaphoreLock,
            CrashMechanism::Monitor,
            CrashMechanism::PathExpr,
        ] {
            let o = outcomes(mech);
            assert!(
                o.contains(&CrashOutcome::Poisoned),
                "{mech}: some kill point must poison"
            );
            assert!(
                !o.contains(&CrashOutcome::Wedged),
                "{mech}: no kill point may wedge (got {o:?})"
            );
        }
        // The serializer goes one better on readers/writers: the victim
        // dies as a *crowd member*, holding no possession, so membership
        // cleanup re-evaluates the guards and every kill point is fully
        // contained — no poison even needed.
        let ser = outcomes(CrashMechanism::Serializer);
        assert!(
            ser.iter().all(|&o| o == CrashOutcome::Contained),
            "serializer crowds contain every writer crash (got {ser:?})"
        );
        // Where the body *does* run under possession (the buffer), the
        // serializer poisons like the monitor does.
        let ser_buf: Vec<_> =
            outcome_sweep(CrashMechanism::Serializer, CrashProblem::BoundedBuffer, 8)
                .into_iter()
                .map(|(_, o)| o)
                .collect();
        assert!(
            ser_buf.contains(&CrashOutcome::Poisoned) && !ser_buf.contains(&CrashOutcome::Wedged),
            "serializer buffer must poison, never wedge (got {ser_buf:?})"
        );
    }

    /// CSP splits by problem: the buffer server owns all state and
    /// absorbs any client crash, while the readers/writers server wedges
    /// when the writer it granted dies mid-body.
    #[test]
    fn csp_contains_buffer_crashes_but_wedges_on_dead_writers() {
        let buffer: Vec<_> = outcome_sweep(CrashMechanism::Csp, CrashProblem::BoundedBuffer, 8)
            .into_iter()
            .map(|(_, o)| o)
            .collect();
        assert!(
            buffer.iter().all(|&o| o == CrashOutcome::Contained),
            "CSP buffer absorbs every client crash (got {buffer:?})"
        );
        let rw: Vec<_> = outcome_sweep(CrashMechanism::Csp, CrashProblem::ReadersWriters, 8)
            .into_iter()
            .map(|(_, o)| o)
            .collect();
        assert!(
            rw.contains(&CrashOutcome::Wedged),
            "a writer dying mid-body strands the CSP server (got {rw:?})"
        );
        assert!(
            !rw.contains(&CrashOutcome::Poisoned),
            "CSP has no possession to poison"
        );
    }

    /// No faulted run ever panics a survivor or livelocks: the only
    /// acceptable failure mode is a *reported* deadlock. (This is the
    /// `classify_crash` ⊇ `check_crash_containment` consistency check.)
    #[test]
    fn wedges_are_always_loud() {
        for mech in CrashMechanism::ALL {
            for problem in CrashProblem::ALL {
                for k in 1..=8 {
                    let result = crash_scenario(mech, problem, k);
                    if classify_crash(&result) == CrashOutcome::Wedged {
                        let err = result.expect_err("wedged means Err");
                        assert!(
                            err.is_deadlock(),
                            "{mech}/{}: wedge must be a reported deadlock, got {err}",
                            problem.label()
                        );
                    }
                }
            }
        }
    }
}
