//! Liveness scenarios: the workloads behind experiment R2.
//!
//! [`crate::faults`] evaluates what the mechanisms survive when a process
//! *dies*; this module evaluates what they do about requests that *never
//! complete* — the paper's §5 failure stories (weak-semaphore starvation,
//! the nested-monitor deadlock, requests stranded behind a slow holder)
//! made measurable by the liveness layer of `bloom-sim`: timed waits with
//! withdrawal, deadlock recovery by victim abort, and the kernel
//! starvation watchdog. Each (mechanism × scenario) cell is classified by
//! [`bloom_core::liveness::classify_liveness`] into
//! *recovers*/*degrades*/*wedges*, mirroring R1's
//! contained/poisoned/wedged:
//!
//! * [`LiveScenario::TimeoutWithdrawal`] — a holder keeps the resource
//!   busy past a contender's patience; the contender withdraws its timed
//!   request cleanly and retries (the semaphore arm uses
//!   [`bloom_sim::retry_with_backoff`], the bounded form of the loop the
//!   other arms hand-roll). Every mechanism's timed wait must rescan its
//!   queues on withdrawal exactly as on release, so this cell ends
//!   *recovers-after-retry* across the board — served, but only after a
//!   visible withdrawal — the uniform-deadline-layer guarantee.
//! * [`LiveScenario::DeadlockRecovery`] — a genuine cyclic deadlock with
//!   [`bloom_sim::SimConfig::deadlock_recovery`] enabled. What the abort
//!   costs depends on what the victim held: a philosopher blocked on a
//!   fork rolls back via `ReleaseOnUnwind` and the table *recovers*; a
//!   nested-monitor victim holds outer possession, so the abort poisons
//!   it and the cell *degrades*; a serializer victim is a crowd member
//!   whose membership cleanup re-opens the guards (*recovers*); a
//!   path-expression victim is mid-operation and poisons its resource
//!   (*degrades*); a CSP send cycle has no rollback that restores
//!   progress — every peer is consumed (*degrades*).
//! * [`LiveScenario::StarvationWatchdog`] — the paper's weak-semaphore
//!   writer starvation, run against every mechanism under the kernel
//!   watchdog: two readers cycle the resource while a writer retries
//!   with exponentially growing patience. The weak semaphore lets the
//!   readers barge forever — the watchdog flags the writer's wait
//!   episode and the writer finally gives up (*degrades*); FIFO grant
//!   disciplines (strong semaphore, monitor queues, serializer queues,
//!   path-expression block lists, channel offer tickets) serve the
//!   writer within its first patience window (*recovers*).
//!
//! Scenarios emit the standard `req:`/`enter:`/`exit:` vocabulary at
//! decision points, plus the liveness-specific markers the classifier
//! reads: `timed-out:*`/`retry:*` for clean withdrawals (no verdict
//! impact) and `gave-up:*` for a permanent abandon (degrades).

use crate::events::{EAT, READ, USE, WRITE};
use bloom_channel::Channel;
use bloom_core::events::{enter, exit, request};
use bloom_core::liveness::{classify_liveness, LivenessOutcome};
use bloom_monitor::{Cond, Monitor, MonitorCtx};
use bloom_pathexpr::PathResource;
use bloom_semaphore::{Semaphore, TryResult};
use bloom_serializer::Serializer;
use bloom_sim::{retry_with_backoff, Backoff, Ctx, Sim, SimError, SimReport};
use std::fmt;
use std::sync::Arc;

/// How long the holder keeps the resource busy in the timeout-withdrawal
/// scenario (virtual-time ticks). Contender patience below this forces a
/// withdrawal; at or above it, the timed wait succeeds directly.
pub const HOLD: u64 = 6;

/// Default contender patience for [`LiveScenario::TimeoutWithdrawal`]:
/// short enough that the first timed wait expires and the withdrawal
/// path is exercised.
pub const PATIENCE: u64 = 2;

/// The writer's retry schedule in the starvation scenario: exponentially
/// growing patience, with no yield or sleep between attempts so the
/// kernel sees one continuous wait episode (re-parking on the same queue
/// keeps it open — exactly the barging pattern the watchdog measures).
pub const ATTEMPTS: [u64; 4] = [4, 8, 16, 32];

/// Watchdog bound for the starvation scenario: far above any wait a FIFO
/// discipline produces here (a handful of ticks), far below the writer's
/// total retry budget (60 ticks).
pub const STARVATION_BOUND: u64 = 24;

/// Rounds each reader cycles the resource in the starvation scenario —
/// enough virtual time for the writer to exhaust every retry first.
const ROUNDS: usize = 25;

/// The mechanism flavor under liveness test — one row of the R2 matrix.
///
/// Unlike R1 (where the semaphore rows split on crash protection), the
/// semaphore rows here split on *fairness*: weak vs. strong grant
/// discipline is exactly the §5.1 distinction the starvation scenario
/// measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LiveMechanism {
    /// Weak semaphore: `V` makes the permit visible to bargers.
    SemaphoreWeak,
    /// Strong (FIFO hand-off) semaphore.
    SemaphoreStrong,
    /// Hoare monitor (signal-and-wait hand-off).
    MonitorHoare,
    /// Mesa monitor (signal-and-continue, re-check loops).
    MonitorMesa,
    /// Serializer with guarded queues and crowds.
    Serializer,
    /// Path-expression resource.
    PathExpr,
    /// CSP server process owning the resource; clients rendezvous.
    Csp,
}

impl LiveMechanism {
    /// All matrix rows, in display order.
    pub const ALL: [LiveMechanism; 7] = [
        LiveMechanism::SemaphoreWeak,
        LiveMechanism::SemaphoreStrong,
        LiveMechanism::MonitorHoare,
        LiveMechanism::MonitorMesa,
        LiveMechanism::Serializer,
        LiveMechanism::PathExpr,
        LiveMechanism::Csp,
    ];

    /// Display label for the matrix.
    pub fn label(self) -> &'static str {
        match self {
            LiveMechanism::SemaphoreWeak => "semaphore (weak)",
            LiveMechanism::SemaphoreStrong => "semaphore (strong)",
            LiveMechanism::MonitorHoare => "monitor (Hoare)",
            LiveMechanism::MonitorMesa => "monitor (Mesa)",
            LiveMechanism::Serializer => "serializer",
            LiveMechanism::PathExpr => "path expression",
            LiveMechanism::Csp => "CSP server",
        }
    }
}

impl fmt::Display for LiveMechanism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The liveness fault under test — one column of the R2 matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LiveScenario {
    /// A slow holder outlasts a contender's patience; the contender
    /// withdraws and retries.
    TimeoutWithdrawal,
    /// A cyclic deadlock shed by kernel victim abort.
    DeadlockRecovery,
    /// Readers barge while a writer retries under the watchdog.
    StarvationWatchdog,
}

impl LiveScenario {
    /// All matrix columns, in display order.
    pub const ALL: [LiveScenario; 3] = [
        LiveScenario::TimeoutWithdrawal,
        LiveScenario::DeadlockRecovery,
        LiveScenario::StarvationWatchdog,
    ];

    /// Display label for the matrix.
    pub fn label(self) -> &'static str {
        match self {
            LiveScenario::TimeoutWithdrawal => "timeout withdrawal",
            LiveScenario::DeadlockRecovery => "deadlock recovery",
            LiveScenario::StarvationWatchdog => "starvation watchdog",
        }
    }
}

impl fmt::Display for LiveScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Builds the liveness scenario simulation (default parameters).
pub fn liveness_sim(mech: LiveMechanism, scenario: LiveScenario) -> Sim {
    match scenario {
        LiveScenario::TimeoutWithdrawal => timeout_withdrawal_sim(mech, PATIENCE),
        LiveScenario::DeadlockRecovery => deadlock_recovery_sim(mech),
        LiveScenario::StarvationWatchdog => starvation_sim(mech),
    }
}

/// Runs the liveness scenario under the default FIFO schedule.
pub fn liveness_scenario(
    mech: LiveMechanism,
    scenario: LiveScenario,
) -> Result<SimReport, SimError> {
    liveness_sim(mech, scenario).run()
}

/// Runs and classifies one R2 cell.
pub fn liveness_outcome(mech: LiveMechanism, scenario: LiveScenario) -> LivenessOutcome {
    classify_liveness(&liveness_scenario(mech, scenario))
}

/// One quantum of "work" inside the resource.
fn work(ctx: &Ctx) {
    ctx.yield_now();
}

fn semaphore_for(mech: LiveMechanism, name: &str, permits: u64) -> Semaphore {
    match mech {
        LiveMechanism::SemaphoreWeak => Semaphore::weak(name, permits),
        _ => Semaphore::strong(name, permits),
    }
}

fn monitor_for(mech: LiveMechanism, name: &str) -> Monitor<bool> {
    match mech {
        LiveMechanism::MonitorHoare => Monitor::hoare(name, false),
        _ => Monitor::mesa(name, false),
    }
}

// ---------------------------------------------------------------------------
// Timeout withdrawal
// ---------------------------------------------------------------------------

/// Monitor-style acquire: claim the `busy` flag, waiting on `free` with
/// the given patience per attempt (`None` waits untimed). Returns the
/// number of timeouts endured, or `None` if the retry budget (when
/// `give_up_after` is set) ran dry without acquiring.
fn monitor_acquire(
    mc: &MonitorCtx<'_, bool>,
    free: &Cond,
    patience: Option<u64>,
    give_up_after: Option<usize>,
) -> Option<usize> {
    let mut timeouts = 0usize;
    while mc.state(|b| *b) {
        match patience {
            None => mc.wait(free),
            Some(first) => {
                // Exponential patience after the first attempt keeps the
                // wait episode open (no yield between re-waits).
                let ticks = match give_up_after {
                    Some(_) => *ATTEMPTS
                        .get(timeouts)
                        .unwrap_or(ATTEMPTS.last().expect("const")),
                    None => first,
                };
                if !mc.wait_by(free, ticks) {
                    timeouts += 1;
                    if let Some(budget) = give_up_after {
                        if timeouts >= budget {
                            return None;
                        }
                    }
                }
            }
        }
    }
    mc.state(|b| *b = true);
    Some(timeouts)
}

fn monitor_release(mc: &MonitorCtx<'_, bool>, free: &Cond) {
    mc.state(|b| *b = false);
    mc.signal(free);
}

/// Builds the timeout-withdrawal scenario with an explicit contender
/// patience (the default-parameter form is
/// [`liveness_sim`]`(mech, TimeoutWithdrawal)`). A patience below
/// [`HOLD`] forces at least one withdrawal and the cell classifies
/// *recovers-after-retry*; at or above it the timed wait succeeds
/// outright and the cell classifies plain *recovers*.
pub fn timeout_withdrawal_sim(mech: LiveMechanism, patience: u64) -> Sim {
    let mut sim = Sim::new();
    match mech {
        LiveMechanism::SemaphoreWeak | LiveMechanism::SemaphoreStrong => {
            let sem = Arc::new(semaphore_for(mech, "res", 1));
            let s = Arc::clone(&sem);
            sim.spawn("holder", move |ctx| {
                request(ctx, USE, &[0]);
                s.with_permit(ctx, || {
                    enter(ctx, USE, &[0]);
                    ctx.sleep(HOLD);
                    exit(ctx, USE, &[0]);
                });
            });
            let s = Arc::clone(&sem);
            sim.spawn("contender", move |ctx| {
                ctx.yield_now();
                request(ctx, USE, &[1]);
                // The bounded retry loop the other arms hand-roll: 8
                // attempts of `patience` ticks each always outlasts the
                // holder's occupancy, so the loop acquires rather than
                // gives up — and the helper's `timed-out:`/`retry:` paper
                // trail is what makes the cell classify
                // *recovers-after-retry* instead of plain *recovers*.
                let outcome =
                    retry_with_backoff(ctx, "res", &Backoff::fixed(patience, 8), |c, p| {
                        s.p_by(c, p) == TryResult::Acquired
                    });
                if outcome.acquired() {
                    enter(ctx, USE, &[1]);
                    work(ctx);
                    exit(ctx, USE, &[1]);
                    s.v(ctx);
                }
            });
        }
        LiveMechanism::MonitorHoare | LiveMechanism::MonitorMesa => {
            let m = Arc::new(monitor_for(mech, "res"));
            let free = Arc::new(Cond::new("free"));
            m.register_cond(&free);
            let (m1, f1) = (Arc::clone(&m), Arc::clone(&free));
            sim.spawn("holder", move |ctx| {
                request(ctx, USE, &[0]);
                m1.enter(ctx, |mc| {
                    monitor_acquire(mc, &f1, None, None);
                });
                enter(ctx, USE, &[0]);
                ctx.sleep(HOLD);
                exit(ctx, USE, &[0]);
                m1.enter(ctx, |mc| monitor_release(mc, &f1));
            });
            let (m2, f2) = (Arc::clone(&m), Arc::clone(&free));
            sim.spawn("contender", move |ctx| {
                ctx.yield_now();
                request(ctx, USE, &[1]);
                m2.enter(ctx, |mc| {
                    let timeouts = monitor_acquire(mc, &f2, Some(patience), None)
                        .expect("untimed budget never gives up");
                    for _ in 0..timeouts {
                        ctx.emit("timed-out:res", &[]);
                    }
                });
                enter(ctx, USE, &[1]);
                work(ctx);
                exit(ctx, USE, &[1]);
                m2.enter(ctx, |mc| monitor_release(mc, &f2));
            });
        }
        LiveMechanism::Serializer => {
            let s = Arc::new(Serializer::new("res", false));
            let q = s.queue("waiters");
            let s1 = Arc::clone(&s);
            sim.spawn("holder", move |ctx| {
                request(ctx, USE, &[0]);
                s1.enter(ctx, |sc| {
                    sc.enqueue(q, |g| !*g.state());
                    sc.state(|b| *b = true);
                });
                enter(ctx, USE, &[0]);
                ctx.sleep(HOLD);
                exit(ctx, USE, &[0]);
                s1.enter(ctx, |sc| sc.state(|b| *b = false));
            });
            let s2 = Arc::clone(&s);
            sim.spawn("contender", move |ctx| {
                ctx.yield_now();
                request(ctx, USE, &[1]);
                s2.enter(ctx, |sc| {
                    while !sc.enqueue_by(q, patience, |g| !*g.state()) {
                        ctx.emit("timed-out:res", &[]);
                    }
                    sc.state(|b| *b = true);
                });
                enter(ctx, USE, &[1]);
                work(ctx);
                exit(ctx, USE, &[1]);
                s2.enter(ctx, |sc| sc.state(|b| *b = false));
            });
        }
        LiveMechanism::PathExpr => {
            let r = Arc::new(PathResource::parse("res", "path use end").expect("static path"));
            let r1 = Arc::clone(&r);
            sim.spawn("holder", move |ctx| {
                request(ctx, USE, &[0]);
                r1.perform(ctx, USE, || {
                    enter(ctx, USE, &[0]);
                    ctx.sleep(HOLD);
                    exit(ctx, USE, &[0]);
                });
            });
            let r2 = Arc::clone(&r);
            sim.spawn("contender", move |ctx| {
                ctx.yield_now();
                request(ctx, USE, &[1]);
                loop {
                    let served = r2.perform_by(ctx, USE, patience, || {
                        enter(ctx, USE, &[1]);
                        work(ctx);
                        exit(ctx, USE, &[1]);
                    });
                    if served.is_some() {
                        break;
                    }
                    ctx.emit("timed-out:res", &[]);
                }
            });
        }
        LiveMechanism::Csp => {
            let acq = Arc::new(Channel::<i64>::new("acquire"));
            let rel = Arc::new(Channel::<i64>::new("release"));
            let (a, r) = (Arc::clone(&acq), Arc::clone(&rel));
            sim.spawn_daemon("server", move |ctx| {
                while a.recv_cancellable(ctx).is_ok() && r.recv_cancellable(ctx).is_ok() {}
            });
            let (a, r) = (Arc::clone(&acq), Arc::clone(&rel));
            sim.spawn("holder", move |ctx| {
                request(ctx, USE, &[0]);
                a.send(ctx, 0);
                enter(ctx, USE, &[0]);
                ctx.sleep(HOLD);
                exit(ctx, USE, &[0]);
                r.send(ctx, 0);
            });
            let (a, r) = (Arc::clone(&acq), Arc::clone(&rel));
            sim.spawn("contender", move |ctx| {
                ctx.yield_now();
                request(ctx, USE, &[1]);
                while a.send_by(ctx, 1, patience).is_err() {
                    ctx.emit("timed-out:res", &[]);
                }
                enter(ctx, USE, &[1]);
                work(ctx);
                exit(ctx, USE, &[1]);
                r.send(ctx, 1);
            });
        }
    }
    sim
}

// ---------------------------------------------------------------------------
// Deadlock recovery
// ---------------------------------------------------------------------------

/// Builds the deadlock-recovery scenario: a genuine cyclic deadlock under
/// the mechanism's natural idiom, with kernel recovery enabled.
pub fn deadlock_recovery_sim(mech: LiveMechanism) -> Sim {
    let mut sim = Sim::new();
    sim.enable_deadlock_recovery();
    match mech {
        LiveMechanism::SemaphoreWeak | LiveMechanism::SemaphoreStrong => {
            // Three dining philosophers, all left-handed: the classic hold-
            // and-wait cycle. The aborted victim's outer `with_permit`
            // releases its fork during the unwind, and the table drains.
            let forks: Vec<Arc<Semaphore>> = (0..3)
                .map(|i| Arc::new(semaphore_for(mech, &format!("fork{i}"), 1)))
                .collect();
            for i in 0..3usize {
                let left = Arc::clone(&forks[i]);
                let right = Arc::clone(&forks[(i + 1) % 3]);
                sim.spawn(&format!("phil{i}"), move |ctx| {
                    request(ctx, EAT, &[i as i64]);
                    left.with_permit(ctx, || {
                        // Think while holding one fork — the window that
                        // lets the cycle close.
                        ctx.yield_now();
                        right.with_permit(ctx, || {
                            enter(ctx, EAT, &[i as i64]);
                            work(ctx);
                            exit(ctx, EAT, &[i as i64]);
                        });
                    });
                });
            }
        }
        LiveMechanism::MonitorHoare | LiveMechanism::MonitorMesa => {
            // Lister's nested-monitor problem: the nester waits on the
            // inner condition while *keeping outer possession*, so the
            // helper that would signal can never get in. Recovery aborts
            // the helper (parked at entry, clean), then the nester — whose
            // unwind poisons the outer monitor it still holds.
            let outer = Arc::new(match mech {
                LiveMechanism::MonitorHoare => Monitor::hoare("outer", ()),
                _ => Monitor::mesa("outer", ()),
            });
            let inner = Arc::new(monitor_for(mech, "inner"));
            let ready = Arc::new(Cond::new("ready"));
            inner.register_cond(&ready);
            let (o, i, c) = (Arc::clone(&outer), Arc::clone(&inner), Arc::clone(&ready));
            sim.spawn("nester", move |ctx| {
                request(ctx, USE, &[0]);
                o.enter(ctx, |_| {
                    i.enter(ctx, |ic| {
                        while !ic.state(|b| *b) {
                            ic.wait(&c);
                        }
                    });
                    enter(ctx, USE, &[0]);
                    exit(ctx, USE, &[0]);
                });
            });
            let (o, i, c) = (Arc::clone(&outer), Arc::clone(&inner), Arc::clone(&ready));
            sim.spawn("helper", move |ctx| {
                ctx.yield_now();
                let _ = o.try_enter(ctx, |_| {
                    i.enter(ctx, |ic| {
                        ic.state(|b| *b = true);
                        ic.signal(&c);
                    });
                });
            });
            // Unrelated progress, so the verdict reflects the poison cost
            // of the recovery rather than a total wipe-out.
            sim.spawn("worker", move |ctx| {
                ctx.yield_now();
                ctx.yield_now();
            });
        }
        LiveMechanism::Serializer => {
            // Cross-serializer crowd deadlock: each process sits in one
            // serializer's crowd while enqueued in the other serializer on
            // a guarantee that the first crowd empties. The victim's
            // crowd-membership rollback re-runs the survivor's guard.
            let s1 = Arc::new(Serializer::new("s1", ()));
            let s2 = Arc::new(Serializer::new("s2", ()));
            let c1 = s1.crowd("c1");
            let q1 = s1.queue("q1");
            let c2 = s2.crowd("c2");
            let q2 = s2.queue("q2");
            let (sa, sb) = (Arc::clone(&s1), Arc::clone(&s2));
            sim.spawn("crosser-a", move |ctx| {
                request(ctx, USE, &[0]);
                sa.enter(ctx, |sc| {
                    sc.join_crowd(c1, || {
                        // Let the peer take its crowd seat so the cycle
                        // can close.
                        ctx.yield_now();
                        sb.enter(ctx, |sc2| {
                            sc2.enqueue(q2, move |g| g.crowd_is_empty(c2));
                            enter(ctx, USE, &[0]);
                            exit(ctx, USE, &[0]);
                        });
                    });
                });
            });
            let (sa, sb) = (Arc::clone(&s1), Arc::clone(&s2));
            // No leading yield: crosser-a's in-crowd yield is the window in
            // which this peer takes its own crowd seat and blocks, closing
            // the cycle before crosser-a's guard is evaluated.
            sim.spawn("crosser-b", move |ctx| {
                request(ctx, USE, &[1]);
                sb.enter(ctx, |sc| {
                    sc.join_crowd(c2, || {
                        sa.enter(ctx, |sc2| {
                            sc2.enqueue(q1, move |g| g.crowd_is_empty(c1));
                            enter(ctx, USE, &[1]);
                            exit(ctx, USE, &[1]);
                        });
                    });
                });
            });
        }
        LiveMechanism::PathExpr => {
            // Two single-occupancy resources acquired in opposite orders.
            // The victim is mid-operation on its first resource, so its
            // abort poisons it; the survivor observes the poison through
            // `try_perform` and abandons only the nested acquisition.
            let ra = Arc::new(PathResource::parse("ra", "path a end").expect("static path"));
            let rb = Arc::new(PathResource::parse("rb", "path b end").expect("static path"));
            let (a, b) = (Arc::clone(&ra), Arc::clone(&rb));
            sim.spawn("crosser-a", move |ctx| {
                request(ctx, USE, &[0]);
                let _ = a.try_perform(ctx, "a", || {
                    ctx.yield_now();
                    if b.try_perform(ctx, "b", || ()).is_err() {
                        ctx.emit("peer-poisoned:rb", &[]);
                    }
                    enter(ctx, USE, &[0]);
                    exit(ctx, USE, &[0]);
                });
            });
            let (a, b) = (Arc::clone(&ra), Arc::clone(&rb));
            // No leading yield: crosser-a's in-operation yield is the
            // window in which this peer starts its own operation, so both
            // nested requests find the other resource occupied.
            sim.spawn("crosser-b", move |ctx| {
                request(ctx, USE, &[1]);
                let _ = b.try_perform(ctx, "b", || {
                    ctx.yield_now();
                    if a.try_perform(ctx, "a", || ()).is_err() {
                        ctx.emit("peer-poisoned:ra", &[]);
                    }
                    enter(ctx, USE, &[1]);
                    exit(ctx, USE, &[1]);
                });
            });
        }
        LiveMechanism::Csp => {
            // A mutual send cycle: both peers offer before either
            // receives. Withdrawing the victim's offer cannot unblock the
            // survivor (its partner is gone), so recovery consumes every
            // peer — the run completes, but nothing useful happened.
            let a_to_b = Arc::new(Channel::<i64>::new("a-to-b"));
            let b_to_a = Arc::new(Channel::<i64>::new("b-to-a"));
            let (ab, ba) = (Arc::clone(&a_to_b), Arc::clone(&b_to_a));
            sim.spawn("peer-a", move |ctx| {
                request(ctx, USE, &[0]);
                ab.send(ctx, 0);
                let _ = ba.recv(ctx);
                enter(ctx, USE, &[0]);
                exit(ctx, USE, &[0]);
            });
            let (ab, ba) = (Arc::clone(&a_to_b), Arc::clone(&b_to_a));
            sim.spawn("peer-b", move |ctx| {
                ctx.yield_now();
                request(ctx, USE, &[1]);
                ba.send(ctx, 1);
                let _ = ab.recv(ctx);
                enter(ctx, USE, &[1]);
                exit(ctx, USE, &[1]);
            });
        }
    }
    sim
}

// ---------------------------------------------------------------------------
// Starvation watchdog
// ---------------------------------------------------------------------------

/// Builds the starvation scenario: two readers cycle the resource
/// `ROUNDS` times while a writer retries with the [`ATTEMPTS`] patience
/// schedule under a [`STARVATION_BOUND`] watchdog. The writer emits
/// `retry:res` per withdrawal and `gave-up:res` if the budget runs dry.
pub fn starvation_sim(mech: LiveMechanism) -> Sim {
    let mut sim = Sim::new();
    sim.set_starvation_bound(STARVATION_BOUND);
    match mech {
        LiveMechanism::SemaphoreWeak | LiveMechanism::SemaphoreStrong => {
            let sem = Arc::new(semaphore_for(mech, "res", 1));
            for reader in ["reader1", "reader2"] {
                let s = Arc::clone(&sem);
                sim.spawn(reader, move |ctx| {
                    for round in 0..ROUNDS {
                        request(ctx, READ, &[round as i64]);
                        // A polling barger: exactly the access pattern a
                        // weak semaphore cannot defend the writer against.
                        while !s.try_p() {
                            ctx.yield_now();
                        }
                        enter(ctx, READ, &[round as i64]);
                        work(ctx);
                        exit(ctx, READ, &[round as i64]);
                        s.v(ctx);
                        ctx.yield_now();
                    }
                });
            }
            let s = Arc::clone(&sem);
            sim.spawn("writer", move |ctx| {
                ctx.yield_now();
                request(ctx, WRITE, &[]);
                for (attempt, &patience) in ATTEMPTS.iter().enumerate() {
                    match s.p_by(ctx, patience) {
                        TryResult::Acquired => {
                            enter(ctx, WRITE, &[]);
                            work(ctx);
                            exit(ctx, WRITE, &[]);
                            s.v(ctx);
                            return;
                        }
                        TryResult::TimedOut => {
                            ctx.emit("retry:res", &[attempt as i64 + 1]);
                        }
                    }
                }
                ctx.emit("gave-up:res", &[]);
            });
        }
        LiveMechanism::MonitorHoare | LiveMechanism::MonitorMesa => {
            let m = Arc::new(monitor_for(mech, "res"));
            let free = Arc::new(Cond::new("free"));
            m.register_cond(&free);
            for reader in ["reader1", "reader2"] {
                let (m1, f1) = (Arc::clone(&m), Arc::clone(&free));
                sim.spawn(reader, move |ctx| {
                    for round in 0..ROUNDS {
                        request(ctx, READ, &[round as i64]);
                        m1.enter(ctx, |mc| {
                            monitor_acquire(mc, &f1, None, None);
                        });
                        enter(ctx, READ, &[round as i64]);
                        work(ctx);
                        exit(ctx, READ, &[round as i64]);
                        m1.enter(ctx, |mc| monitor_release(mc, &f1));
                        ctx.yield_now();
                    }
                });
            }
            let (m2, f2) = (Arc::clone(&m), Arc::clone(&free));
            sim.spawn("writer", move |ctx| {
                ctx.yield_now();
                request(ctx, WRITE, &[]);
                let mut acquired = None;
                m2.enter(ctx, |mc| {
                    acquired = monitor_acquire(mc, &f2, Some(ATTEMPTS[0]), Some(ATTEMPTS.len()));
                    if let Some(timeouts) = acquired {
                        for attempt in 0..timeouts {
                            ctx.emit("retry:res", &[attempt as i64 + 1]);
                        }
                    }
                });
                match acquired {
                    Some(_) => {
                        enter(ctx, WRITE, &[]);
                        work(ctx);
                        exit(ctx, WRITE, &[]);
                        m2.enter(ctx, |mc| monitor_release(mc, &f2));
                    }
                    None => ctx.emit("gave-up:res", &[]),
                }
            });
        }
        LiveMechanism::Serializer => {
            let s = Arc::new(Serializer::new("res", false));
            let q = s.queue("waiters");
            for reader in ["reader1", "reader2"] {
                let s1 = Arc::clone(&s);
                sim.spawn(reader, move |ctx| {
                    for round in 0..ROUNDS {
                        request(ctx, READ, &[round as i64]);
                        s1.enter(ctx, |sc| {
                            sc.enqueue(q, |g| !*g.state());
                            sc.state(|b| *b = true);
                        });
                        enter(ctx, READ, &[round as i64]);
                        work(ctx);
                        exit(ctx, READ, &[round as i64]);
                        s1.enter(ctx, |sc| sc.state(|b| *b = false));
                        ctx.yield_now();
                    }
                });
            }
            let s2 = Arc::clone(&s);
            sim.spawn("writer", move |ctx| {
                ctx.yield_now();
                request(ctx, WRITE, &[]);
                let mut acquired = false;
                s2.enter(ctx, |sc| {
                    for (attempt, &patience) in ATTEMPTS.iter().enumerate() {
                        if sc.enqueue_by(q, patience, |g| !*g.state()) {
                            sc.state(|b| *b = true);
                            acquired = true;
                            return;
                        }
                        ctx.emit("retry:res", &[attempt as i64 + 1]);
                    }
                });
                if acquired {
                    enter(ctx, WRITE, &[]);
                    work(ctx);
                    exit(ctx, WRITE, &[]);
                    s2.enter(ctx, |sc| sc.state(|b| *b = false));
                } else {
                    ctx.emit("gave-up:res", &[]);
                }
            });
        }
        LiveMechanism::PathExpr => {
            let r = Arc::new(PathResource::parse("res", "path use end").expect("static path"));
            for reader in ["reader1", "reader2"] {
                let r1 = Arc::clone(&r);
                sim.spawn(reader, move |ctx| {
                    for round in 0..ROUNDS {
                        request(ctx, READ, &[round as i64]);
                        r1.perform(ctx, USE, || {
                            enter(ctx, READ, &[round as i64]);
                            work(ctx);
                            exit(ctx, READ, &[round as i64]);
                        });
                        ctx.yield_now();
                    }
                });
            }
            let r2 = Arc::clone(&r);
            sim.spawn("writer", move |ctx| {
                ctx.yield_now();
                request(ctx, WRITE, &[]);
                for (attempt, &patience) in ATTEMPTS.iter().enumerate() {
                    let served = r2.perform_by(ctx, USE, patience, || {
                        enter(ctx, WRITE, &[]);
                        work(ctx);
                        exit(ctx, WRITE, &[]);
                    });
                    if served.is_some() {
                        return;
                    }
                    ctx.emit("retry:res", &[attempt as i64 + 1]);
                }
                ctx.emit("gave-up:res", &[]);
            });
        }
        LiveMechanism::Csp => {
            let acq = Arc::new(Channel::<i64>::new("acquire"));
            let rel = Arc::new(Channel::<i64>::new("release"));
            let (a, r) = (Arc::clone(&acq), Arc::clone(&rel));
            sim.spawn_daemon("server", move |ctx| {
                while a.recv_cancellable(ctx).is_ok() && r.recv_cancellable(ctx).is_ok() {}
            });
            for reader in ["reader1", "reader2"] {
                let (a, r) = (Arc::clone(&acq), Arc::clone(&rel));
                sim.spawn(reader, move |ctx| {
                    for round in 0..ROUNDS {
                        request(ctx, READ, &[round as i64]);
                        a.send(ctx, 0);
                        enter(ctx, READ, &[round as i64]);
                        work(ctx);
                        exit(ctx, READ, &[round as i64]);
                        r.send(ctx, 0);
                        ctx.yield_now();
                    }
                });
            }
            let (a, r) = (Arc::clone(&acq), Arc::clone(&rel));
            sim.spawn("writer", move |ctx| {
                ctx.yield_now();
                request(ctx, WRITE, &[]);
                for (attempt, &patience) in ATTEMPTS.iter().enumerate() {
                    if a.send_by(ctx, 1, patience).is_ok() {
                        enter(ctx, WRITE, &[]);
                        work(ctx);
                        exit(ctx, WRITE, &[]);
                        r.send(ctx, 1);
                        return;
                    }
                    ctx.emit("retry:res", &[attempt as i64 + 1]);
                }
                ctx.emit("gave-up:res", &[]);
            });
        }
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use bloom_core::expect_clean;
    use bloom_core::liveness::{check_recovery_containment, check_starvation_free};

    /// The uniform-deadline-layer guarantee: a timed-out contender
    /// withdraws cleanly and a later attempt succeeds, under every
    /// mechanism — classified *recovers-after-retry*, never lumped into
    /// *degrades*.
    #[test]
    fn timeout_withdrawal_recovers_everywhere() {
        for mech in LiveMechanism::ALL {
            let result = liveness_scenario(mech, LiveScenario::TimeoutWithdrawal);
            assert_eq!(
                classify_liveness(&result),
                LivenessOutcome::RecoversAfterRetry,
                "{mech}: {result:?}"
            );
            let report = result.expect("classified as recovers-after-retry");
            assert!(
                report
                    .trace
                    .user_events()
                    .any(|(_, label, _)| label == "timed-out:res"),
                "{mech}: patience {PATIENCE} < hold {HOLD} must force a withdrawal"
            );
            assert_eq!(
                report.trace.count_user("gave-up:res"),
                0,
                "{mech}: the retry budget must outlast the holder"
            );
            if matches!(
                mech,
                LiveMechanism::SemaphoreWeak | LiveMechanism::SemaphoreStrong
            ) {
                // The semaphore arm runs `retry_with_backoff`, whose paper
                // trail includes the `retry:` marker before each re-attempt.
                assert!(
                    report.trace.count_user("retry:res") >= 1,
                    "{mech}: the backoff helper must log its re-attempts"
                );
            }
        }
    }

    /// Patience at or beyond the hold time means the first timed wait is
    /// simply granted — no withdrawal, same verdict.
    #[test]
    fn generous_patience_skips_the_withdrawal() {
        for mech in LiveMechanism::ALL {
            let result = timeout_withdrawal_sim(mech, HOLD + 4).run();
            assert_eq!(
                classify_liveness(&result),
                LivenessOutcome::Recovers,
                "{mech}: {result:?}"
            );
            assert!(
                !result
                    .expect("recovers")
                    .trace
                    .user_events()
                    .any(|(_, label, _)| label == "timed-out:res"),
                "{mech}: a wait longer than the hold must be granted, not withdrawn"
            );
        }
    }

    /// What deadlock recovery costs depends on what the victim's unwind
    /// has to roll back: fork permits and crowd seats roll back free
    /// (recovers); held possession and mid-operation state poison
    /// (degrades); a consumed rendezvous cycle leaves no progress
    /// (degrades).
    #[test]
    fn deadlock_recovery_verdict_tracks_what_the_victim_held() {
        let expected = [
            (LiveMechanism::SemaphoreWeak, LivenessOutcome::Recovers),
            (LiveMechanism::SemaphoreStrong, LivenessOutcome::Recovers),
            (LiveMechanism::MonitorHoare, LivenessOutcome::Degrades),
            (LiveMechanism::MonitorMesa, LivenessOutcome::Degrades),
            (LiveMechanism::Serializer, LivenessOutcome::Recovers),
            (LiveMechanism::PathExpr, LivenessOutcome::Degrades),
            (LiveMechanism::Csp, LivenessOutcome::Degrades),
        ];
        for (mech, outcome) in expected {
            let result = liveness_scenario(mech, LiveScenario::DeadlockRecovery);
            assert_eq!(classify_liveness(&result), outcome, "{mech}: {result:?}");
            expect_clean(
                &check_recovery_containment(&result),
                &format!("{mech} deadlock recovery"),
            );
            let report = result.expect("recovery completes the run");
            assert!(
                !report.recovered.is_empty(),
                "{mech}: the scenario must actually deadlock and shed a victim"
            );
        }
    }

    /// §5.1 reproduced as a watchdog experiment: under the weak semaphore
    /// the polling readers barge the permit away from the woken writer
    /// forever — the kernel flags the writer's wait episode and the
    /// writer's retry budget runs dry. The strong semaphore hands the
    /// permit over in FIFO order and the same writer is served on its
    /// first attempt.
    #[test]
    fn weak_semaphore_writer_starves_where_strong_serves() {
        let weak = liveness_scenario(
            LiveMechanism::SemaphoreWeak,
            LiveScenario::StarvationWatchdog,
        );
        assert_eq!(classify_liveness(&weak), LivenessOutcome::Degrades);
        let weak = weak.expect("run completes; the writer gave up, not the system");
        assert_eq!(
            weak.starvation.len(),
            1,
            "exactly the writer's episode is flagged: {:?}",
            weak.starvation
        );
        let flag = &weak.starvation[0];
        assert_eq!(flag.name, "writer");
        assert_eq!(flag.reason, "res");
        assert!(
            flag.age > STARVATION_BOUND,
            "flag fires only past the bound (age {})",
            flag.age
        );
        assert!(
            weak.trace
                .user_events()
                .any(|(_, label, _)| label == "gave-up:res"),
            "the weak-semaphore writer's retry budget must run dry"
        );

        let strong = liveness_scenario(
            LiveMechanism::SemaphoreStrong,
            LiveScenario::StarvationWatchdog,
        );
        assert_eq!(classify_liveness(&strong), LivenessOutcome::Recovers);
        let strong = strong.expect("recovers");
        expect_clean(
            &check_starvation_free(&strong),
            "strong semaphore starvation scenario",
        );
        assert!(
            strong
                .trace
                .user_events()
                .any(|(_, label, _)| label == "exit:write"),
            "the strong-semaphore writer must actually write"
        );
    }

    /// The weak-semaphore starvation schedule is concrete and replayable:
    /// the flagged episode is identical run over run.
    #[test]
    fn starvation_flags_are_deterministic() {
        let a = liveness_scenario(
            LiveMechanism::SemaphoreWeak,
            LiveScenario::StarvationWatchdog,
        )
        .expect("completes");
        let b = liveness_scenario(
            LiveMechanism::SemaphoreWeak,
            LiveScenario::StarvationWatchdog,
        )
        .expect("completes");
        assert_eq!(a.starvation, b.starvation);
        assert_eq!(a.decisions, b.decisions);
    }

    /// Every FIFO grant discipline serves the writer within its patience
    /// budget: no watchdog flag, no give-up.
    #[test]
    fn fifo_disciplines_pass_the_watchdog() {
        for mech in [
            LiveMechanism::SemaphoreStrong,
            LiveMechanism::MonitorHoare,
            LiveMechanism::MonitorMesa,
            LiveMechanism::Serializer,
            LiveMechanism::PathExpr,
            LiveMechanism::Csp,
        ] {
            let result = liveness_scenario(mech, LiveScenario::StarvationWatchdog);
            assert_eq!(
                classify_liveness(&result),
                LivenessOutcome::Recovers,
                "{mech}: {result:?}"
            );
            let report = result.expect("recovers");
            expect_clean(
                &check_starvation_free(&report),
                &format!("{mech} starvation scenario"),
            );
            assert!(
                report
                    .trace
                    .user_events()
                    .any(|(_, label, _)| label == "exit:write"),
                "{mech}: the writer must be served"
            );
        }
    }

    /// The full 7×3 matrix is deterministic and never wedges: every cell
    /// either recovers or degrades loudly.
    #[test]
    fn no_cell_of_the_matrix_wedges() {
        for mech in LiveMechanism::ALL {
            for scenario in LiveScenario::ALL {
                let outcome = liveness_outcome(mech, scenario);
                assert_ne!(
                    outcome,
                    LivenessOutcome::Wedges,
                    "{mech} / {scenario} wedged"
                );
                assert_eq!(
                    outcome,
                    liveness_outcome(mech, scenario),
                    "{mech} / {scenario} must classify identically run over run"
                );
            }
        }
    }
}
