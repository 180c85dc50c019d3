//! R4: differential conformance between the deterministic simulator and
//! the real-thread backend (`bloom-rt`).
//!
//! The simulator *proves* properties by exhausting every schedule of a
//! scenario; the real-thread backend *samples* schedules from whatever
//! the OS does. This module connects the two: each [`Scenario`] is one
//! synchronization workload written twice — once against `bloom_sim`
//! and once against `bloom_rt` — with **byte-identical event emissions**
//! at the same decision points, plus one backend-agnostic verdict
//! function over the run result (law verdicts from `bloom_core`,
//! optionally refined by observable trace facts such as which branch a
//! timed wait took).
//!
//! Conformance then means *envelope containment*:
//!
//! * the simulator exhaustively explores the scenario and collects the
//!   set of verdicts any schedule can produce — the **verdict
//!   envelope** ([`sim_envelope`]);
//! * the real-thread twin runs N times under seeded jitter
//!   ([`bloom_rt::RtCtx::chaos`]); every verdict it produces must fall
//!   inside the envelope. A real run may legally miss rare verdicts
//!   (sampling is incomplete) but may never manufacture one the
//!   simulator proved impossible.
//!
//! [`CrashScenario`] extends this to fault injection: the simulator
//! sweeps `FaultPlan` kill-points across every schedule
//! ([`sim_crash_envelope`]), the real twin injects a panic at the same
//! 1-based instrumented points ([`bloom_rt::KillPoint`]), and both
//! sides classify the aftermath with [`bloom_core::classify_crash`].
//! The scenarios are built from the poisoning/withdrawing forms, so the
//! required invariant is sharp: a mid-protocol panic classifies as
//! *contained* or *poisoned*, **never** *wedged* — on either backend.
//! Every real crash run must also satisfy the poison protocol
//! ([`bloom_core::check_poison_propagation`]) unchanged: the laws layer
//! does not know or care that the trace came from OS threads.
//!
//! Everything here is quarantined from the deterministic golden report:
//! real-thread results never feed `docs/report.txt`.

use bloom_channel::{select, Channel};
use bloom_core::checks::check_alternation;
use bloom_core::laws::{eventual_service, exclusion, no_failure, Law, LawSet};
use bloom_core::{check_poison_propagation, classify_crash, CrashOutcome, Violation};
use bloom_monitor::{Cond, Monitor};
use bloom_pathexpr::PathResource;
use bloom_rt::{
    select as rt_select, KillPoint, RtChannel, RtCond, RtConfig, RtMonitor, RtPathResource,
    RtSemaphore, RtSerializer, RtSim, TryResult as RtTryResult,
};
use bloom_semaphore::{Lock, Semaphore, TryResult};
use bloom_serializer::Serializer;
use bloom_sim::{ExploreConfig, PruneMode, Sim, SimError, SimReport};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Stress iterations per scenario when `RT_CONFORMANCE_ITERS` is unset.
pub const DEFAULT_ITERS: usize = 100;

/// Schedule budget for each envelope exploration; the scenarios are
/// sized to exhaust their trees well under it ([`sim_envelope`] asserts
/// completeness — an incomplete envelope would make containment
/// vacuous).
pub const ENVELOPE_BUDGET: usize = 400_000;

/// Stress iterations per scenario: `RT_CONFORMANCE_ITERS` if set (the
/// CI knob), [`DEFAULT_ITERS`] otherwise.
pub fn stress_iters() -> usize {
    std::env::var("RT_CONFORMANCE_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_ITERS)
}

/// One workload written against both backends, with a shared verdict.
pub struct Scenario {
    /// Stable scenario key (report and assertion labels).
    pub name: &'static str,
    /// Which of the five mechanisms the scenario exercises.
    pub mechanism: &'static str,
    /// Builds the simulator twin.
    pub sim: fn() -> Sim,
    /// Populates the real-thread twin.
    pub rt: fn(&mut RtSim),
    /// Backend-agnostic verdict over a run result.
    pub verdict: fn(&Result<SimReport, SimError>) -> String,
}

/// A fault-injection workload written against both backends. The victim
/// dies at a swept 1-based point: the Nth *scheduling point* in the
/// simulator (`FaultPlan::kill`), the Nth *instrumented chaos point* on
/// real threads ([`KillPoint`]). The coordinates need not correspond
/// 1:1 — conformance is on the classified aftermath, not the timing.
pub struct CrashScenario {
    /// Stable scenario key.
    pub name: &'static str,
    /// Which of the five mechanisms the scenario exercises.
    pub mechanism: &'static str,
    /// Name of the process the sweep kills.
    pub victim: &'static str,
    /// Upper bound of the kill-point sweep (loose bounds are free: both
    /// sweeps stop once the victim no longer reaches the point).
    pub max_points: u64,
    /// Builds the simulator twin (without a fault plan; the sweep arms
    /// it).
    pub sim: fn() -> Sim,
    /// Populates the real-thread twin.
    pub rt: fn(&mut RtSim),
}

/// Renders a law-set verdict: `law-clean`, or the sorted violated law
/// names.
fn law_string(set: &LawSet, result: &Result<SimReport, SimError>) -> String {
    let mut names = set.violated(result);
    names.sort();
    names.dedup();
    if names.is_empty() {
        "law-clean".to_string()
    } else {
        format!("violated:{}", names.join("+"))
    }
}

fn report_of(result: &Result<SimReport, SimError>) -> &SimReport {
    match result {
        Ok(report) => report,
        Err(err) => &err.report,
    }
}

// --- scenario 1: semaphore mutual exclusion --------------------------------

fn sem_mutex_sim() -> Sim {
    let mut sim = Sim::new();
    let gate = Arc::new(Semaphore::strong("gate", 1));
    for i in 0..2 {
        let gate = Arc::clone(&gate);
        sim.spawn(&format!("p{i}"), move |ctx| {
            for _ in 0..2 {
                ctx.emit("req:crit", &[]);
                gate.p(ctx);
                ctx.emit("enter:crit", &[]);
                ctx.yield_now();
                ctx.emit("exit:crit", &[]);
                gate.v(ctx);
            }
        });
    }
    sim
}

fn sem_mutex_rt(rt: &mut RtSim) {
    let gate = Arc::new(RtSemaphore::strong("gate", 1));
    for i in 0..2 {
        let gate = Arc::clone(&gate);
        rt.spawn(&format!("p{i}"), move |ctx| {
            for _ in 0..2 {
                ctx.emit("req:crit", &[]);
                gate.p(ctx);
                ctx.emit("enter:crit", &[]);
                ctx.chaos();
                ctx.emit("exit:crit", &[]);
                gate.v(ctx);
            }
        });
    }
}

fn sem_mutex_verdict(result: &Result<SimReport, SimError>) -> String {
    let laws = LawSet::new()
        .with(no_failure())
        .with(exclusion(&[("crit", "crit")]))
        .with(eventual_service());
    law_string(&laws, result)
}

// --- scenario 2: semaphore timed acquire (`p_by` branch) -------------------

fn sem_timeout_sim() -> Sim {
    let mut sim = Sim::new();
    let gate = Arc::new(Semaphore::strong("gate", 1));
    let holder = Arc::clone(&gate);
    sim.spawn("holder", move |ctx| {
        holder.p(ctx);
        ctx.emit("enter:hold", &[]);
        // Sleep *while holding*: simulator timers only fire once the
        // ready set drains, so the contender's deadline is reachable only
        // if the holder occupies the permit without occupying the CPU.
        ctx.sleep(8);
        ctx.emit("exit:hold", &[]);
        holder.v(ctx);
    });
    sim.spawn("contender", move |ctx| match gate.p_by(ctx, 4u64) {
        TryResult::Acquired => {
            ctx.emit("enter:crit", &[]);
            ctx.emit("exit:crit", &[]);
            gate.v(ctx);
        }
        TryResult::TimedOut => ctx.emit("timed-out:gate", &[]),
    });
    sim
}

fn sem_timeout_rt(rt: &mut RtSim) {
    let gate = Arc::new(RtSemaphore::strong("gate", 1));
    let holder = Arc::clone(&gate);
    rt.spawn("holder", move |ctx| {
        holder.p(ctx);
        ctx.emit("enter:hold", &[]);
        ctx.sleep(8);
        ctx.emit("exit:hold", &[]);
        holder.v(ctx);
    });
    rt.spawn("contender", move |ctx| match gate.p_by(ctx, 4u64) {
        RtTryResult::Acquired => {
            ctx.emit("enter:crit", &[]);
            ctx.emit("exit:crit", &[]);
            gate.v(ctx);
        }
        RtTryResult::TimedOut => ctx.emit("timed-out:gate", &[]),
    });
}

fn sem_timeout_verdict(result: &Result<SimReport, SimError>) -> String {
    // No `eventual_service`: a withdrawn request is the point of the
    // scenario, not a stranded waiter.
    let laws = LawSet::new().with(no_failure()).with(exclusion(&[
        ("crit", "crit"),
        ("crit", "hold"),
        ("hold", "hold"),
    ]));
    let branch = if report_of(result).trace.count_user("timed-out:gate") > 0 {
        "timed-out"
    } else {
        "acquired"
    };
    format!("{}+{branch}", law_string(&laws, result))
}

// --- scenario 3: monitor one-slot buffer -----------------------------------

fn mon_oneslot_sim() -> Sim {
    let mut sim = Sim::new();
    let buf = Arc::new(Monitor::hoare("buf", None::<i64>));
    let notfull = Arc::new(Cond::new("notfull"));
    let notempty = Arc::new(Cond::new("notempty"));
    buf.register_cond(&notfull);
    buf.register_cond(&notempty);
    {
        let buf = Arc::clone(&buf);
        let notfull = Arc::clone(&notfull);
        let notempty = Arc::clone(&notempty);
        sim.spawn("producer", move |ctx| {
            for i in 0..2 {
                ctx.emit("req:deposit", &[i]);
                buf.enter(ctx, |mc| {
                    while mc.state(|slot| slot.is_some()) {
                        mc.wait(&notfull);
                    }
                    mc.state(|slot| *slot = Some(i));
                    ctx.emit("enter:deposit", &[i]);
                    ctx.emit("exit:deposit", &[i]);
                    mc.signal(&notempty);
                });
            }
        });
    }
    sim.spawn("consumer", move |ctx| {
        for _ in 0..2 {
            ctx.emit("req:remove", &[]);
            buf.enter(ctx, |mc| {
                while mc.state(|slot| slot.is_none()) {
                    mc.wait(&notempty);
                }
                let got = mc.state(|slot| slot.take().expect("slot is full"));
                ctx.emit("enter:remove", &[got]);
                ctx.emit("exit:remove", &[got]);
                mc.signal(&notfull);
            });
        }
    });
    sim
}

fn mon_oneslot_rt(rt: &mut RtSim) {
    let buf = Arc::new(RtMonitor::hoare("buf", None::<i64>));
    let notfull = Arc::new(RtCond::new("notfull"));
    let notempty = Arc::new(RtCond::new("notempty"));
    buf.register_cond(&notfull);
    buf.register_cond(&notempty);
    {
        let buf = Arc::clone(&buf);
        let notfull = Arc::clone(&notfull);
        let notempty = Arc::clone(&notempty);
        rt.spawn("producer", move |ctx| {
            for i in 0..2 {
                ctx.emit("req:deposit", &[i]);
                buf.enter(ctx, |mc| {
                    while mc.state(|slot| slot.is_some()) {
                        mc.wait(&notfull);
                    }
                    mc.state(|slot| *slot = Some(i));
                    ctx.emit("enter:deposit", &[i]);
                    ctx.emit("exit:deposit", &[i]);
                    mc.signal(&notempty);
                });
            }
        });
    }
    rt.spawn("consumer", move |ctx| {
        for _ in 0..2 {
            ctx.emit("req:remove", &[]);
            buf.enter(ctx, |mc| {
                while mc.state(|slot| slot.is_none()) {
                    mc.wait(&notempty);
                }
                let got = mc.state(|slot| slot.take().expect("slot is full"));
                ctx.emit("enter:remove", &[got]);
                ctx.emit("exit:remove", &[got]);
                mc.signal(&notfull);
            });
        }
    });
}

fn mon_oneslot_verdict(result: &Result<SimReport, SimError>) -> String {
    let laws = LawSet::new()
        .with(no_failure())
        .with(eventual_service())
        .with(Law::new("alternation", |view| {
            check_alternation(&view.events, "deposit", "remove")
        }));
    law_string(&laws, result)
}

// --- scenario 4: serializer readers/writer ---------------------------------

fn ser_rw_sim() -> Sim {
    let mut sim = Sim::new();
    let db = Arc::new(Serializer::new("db", ()));
    let q = db.queue("main");
    let readers = db.crowd("readers");
    let writers = db.crowd("writers");
    for i in 0..2 {
        let db = Arc::clone(&db);
        sim.spawn(&format!("reader{i}"), move |ctx| {
            ctx.emit("req:read", &[]);
            db.enter(ctx, |sc| {
                sc.enqueue(q, move |g| g.crowd_is_empty(writers));
                sc.join_crowd(readers, || {
                    ctx.emit("enter:read", &[]);
                    ctx.yield_now();
                    ctx.emit("exit:read", &[]);
                });
            });
        });
    }
    sim.spawn("writer", move |ctx| {
        ctx.emit("req:write", &[]);
        db.enter(ctx, |sc| {
            sc.enqueue(q, move |g| {
                g.crowd_is_empty(readers) && g.crowd_is_empty(writers)
            });
            sc.join_crowd(writers, || {
                ctx.emit("enter:write", &[]);
                ctx.yield_now();
                ctx.emit("exit:write", &[]);
            });
        });
    });
    sim
}

fn ser_rw_rt(rt: &mut RtSim) {
    let db = Arc::new(RtSerializer::new("db", ()));
    let q = db.queue("main");
    let readers = db.crowd("readers");
    let writers = db.crowd("writers");
    for i in 0..2 {
        let db = Arc::clone(&db);
        rt.spawn(&format!("reader{i}"), move |ctx| {
            ctx.emit("req:read", &[]);
            db.enter(ctx, |sc| {
                sc.enqueue(q, move |g| g.crowd_is_empty(writers));
                sc.join_crowd(readers, || {
                    ctx.emit("enter:read", &[]);
                    ctx.chaos();
                    ctx.emit("exit:read", &[]);
                });
            });
        });
    }
    rt.spawn("writer", move |ctx| {
        ctx.emit("req:write", &[]);
        db.enter(ctx, |sc| {
            sc.enqueue(q, move |g| {
                g.crowd_is_empty(readers) && g.crowd_is_empty(writers)
            });
            sc.join_crowd(writers, || {
                ctx.emit("enter:write", &[]);
                ctx.chaos();
                ctx.emit("exit:write", &[]);
            });
        });
    });
}

fn ser_rw_verdict(result: &Result<SimReport, SimError>) -> String {
    let laws = LawSet::new()
        .with(no_failure())
        .with(exclusion(&[("read", "write"), ("write", "write")]))
        .with(eventual_service());
    law_string(&laws, result)
}

// --- scenario 5: path-expression reader/writer exclusion -------------------

fn path_rw_sim() -> Sim {
    let mut sim = Sim::new();
    let res = Arc::new(
        PathResource::parse("res", "path 2:(read), write end").expect("static path source"),
    );
    for i in 0..2 {
        let res = Arc::clone(&res);
        sim.spawn(&format!("reader{i}"), move |ctx| {
            ctx.emit("req:read", &[]);
            res.perform(ctx, "read", || {
                ctx.emit("enter:read", &[]);
                ctx.yield_now();
                ctx.emit("exit:read", &[]);
            });
        });
    }
    sim.spawn("writer", move |ctx| {
        ctx.emit("req:write", &[]);
        res.perform(ctx, "write", || {
            ctx.emit("enter:write", &[]);
            ctx.yield_now();
            ctx.emit("exit:write", &[]);
        });
    });
    sim
}

fn path_rw_rt(rt: &mut RtSim) {
    let res = Arc::new(
        RtPathResource::parse("res", "path 2:(read), write end").expect("static path source"),
    );
    for i in 0..2 {
        let res = Arc::clone(&res);
        rt.spawn(&format!("reader{i}"), move |ctx| {
            ctx.emit("req:read", &[]);
            res.perform(ctx, "read", || {
                ctx.emit("enter:read", &[]);
                ctx.chaos();
                ctx.emit("exit:read", &[]);
            });
        });
    }
    rt.spawn("writer", move |ctx| {
        ctx.emit("req:write", &[]);
        res.perform(ctx, "write", || {
            ctx.emit("enter:write", &[]);
            ctx.chaos();
            ctx.emit("exit:write", &[]);
        });
    });
}

fn path_rw_verdict(result: &Result<SimReport, SimError>) -> String {
    let laws = LawSet::new()
        .with(no_failure())
        .with(exclusion(&[("read", "write"), ("write", "write")]))
        .with(eventual_service());
    law_string(&laws, result)
}

// --- scenario 6: channel select --------------------------------------------

fn chan_select_sim() -> Sim {
    let mut sim = Sim::new();
    let a = Arc::new(Channel::<i64>::new("a"));
    let b = Arc::new(Channel::<i64>::new("b"));
    {
        let a = Arc::clone(&a);
        sim.spawn("client-a", move |ctx| a.send(ctx, 1));
    }
    {
        let b = Arc::clone(&b);
        sim.spawn("client-b", move |ctx| b.send(ctx, 2));
    }
    sim.spawn("server", move |ctx| {
        for _ in 0..2 {
            let (_, v) = select(ctx, &mut [(&a, true), (&b, true)]);
            ctx.emit("enter:serve", &[v]);
            ctx.emit("exit:serve", &[v]);
        }
    });
    sim
}

fn chan_select_rt(rt: &mut RtSim) {
    let a = Arc::new(RtChannel::<i64>::new("a"));
    let b = Arc::new(RtChannel::<i64>::new("b"));
    {
        let a = Arc::clone(&a);
        rt.spawn("client-a", move |ctx| a.send(ctx, 1));
    }
    {
        let b = Arc::clone(&b);
        rt.spawn("client-b", move |ctx| b.send(ctx, 2));
    }
    rt.spawn("server", move |ctx| {
        for _ in 0..2 {
            let (_, v) = rt_select(ctx, &mut [(&a, true), (&b, true)]);
            ctx.emit("enter:serve", &[v]);
            ctx.emit("exit:serve", &[v]);
        }
    });
}

fn chan_select_verdict(result: &Result<SimReport, SimError>) -> String {
    let laws = LawSet::new().with(no_failure());
    // The service *order* is genuinely schedule-dependent: include it,
    // so the envelope itself demonstrates a multi-verdict containment.
    let order: String = report_of(result)
        .trace
        .user_events()
        .filter(|(_, label, _)| *label == "enter:serve")
        .flat_map(|(_, _, params)| params.iter().map(|v| v.to_string()))
        .collect();
    format!("{}+served:{order}", law_string(&laws, result))
}

/// The five-mechanism conformance suite (the semaphore contributes two
/// scenarios: plain mutual exclusion and the timed-acquire branch).
pub fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "semaphore-mutex",
            mechanism: "semaphore",
            sim: sem_mutex_sim,
            rt: sem_mutex_rt,
            verdict: sem_mutex_verdict,
        },
        Scenario {
            name: "semaphore-timeout",
            mechanism: "semaphore",
            sim: sem_timeout_sim,
            rt: sem_timeout_rt,
            verdict: sem_timeout_verdict,
        },
        Scenario {
            name: "monitor-oneslot",
            mechanism: "monitor",
            sim: mon_oneslot_sim,
            rt: mon_oneslot_rt,
            verdict: mon_oneslot_verdict,
        },
        Scenario {
            name: "serializer-rw",
            mechanism: "serializer",
            sim: ser_rw_sim,
            rt: ser_rw_rt,
            verdict: ser_rw_verdict,
        },
        Scenario {
            name: "pathexpr-rw",
            mechanism: "path expressions",
            sim: path_rw_sim,
            rt: path_rw_rt,
            verdict: path_rw_verdict,
        },
        Scenario {
            name: "channel-select",
            mechanism: "channels",
            sim: chan_select_sim,
            rt: chan_select_rt,
            verdict: chan_select_verdict,
        },
    ]
}

// --- crash scenarios -------------------------------------------------------

fn lock_crash_sim() -> Sim {
    let mut sim = Sim::new();
    let lock = Arc::new(Lock::new("l"));
    {
        let lock = Arc::clone(&lock);
        sim.spawn("victim", move |ctx| {
            lock.with(ctx, || {
                ctx.yield_now();
                ctx.yield_now();
            });
        });
    }
    sim.spawn("survivor", move |ctx| {
        ctx.yield_now();
        match lock.try_with(ctx, || ()) {
            Ok(()) => ctx.emit("worked", &[]),
            Err(_) => ctx.emit("skipped", &[]),
        }
    });
    sim
}

fn lock_crash_rt(rt: &mut RtSim) {
    let lock = Arc::new(bloom_rt::RtLock::new("l"));
    {
        let lock = Arc::clone(&lock);
        rt.spawn("victim", move |ctx| {
            lock.with(ctx, || {
                ctx.chaos();
                ctx.chaos();
            });
        });
    }
    rt.spawn("survivor", move |ctx| {
        ctx.chaos();
        match lock.try_with(ctx, || ()) {
            Ok(()) => ctx.emit("worked", &[]),
            Err(_) => ctx.emit("skipped", &[]),
        }
    });
}

fn monitor_crash_sim() -> Sim {
    let mut sim = Sim::new();
    let m = Arc::new(Monitor::hoare("m", 0i64));
    {
        let m = Arc::clone(&m);
        sim.spawn("victim", move |ctx| {
            m.enter(ctx, |mc| {
                ctx.yield_now();
                mc.state(|n| *n += 1);
                ctx.yield_now();
            });
        });
    }
    sim.spawn("survivor", move |ctx| {
        ctx.yield_now();
        match m.try_enter(ctx, |mc| mc.state(|n| *n += 1)) {
            Ok(_) => ctx.emit("worked", &[]),
            Err(_) => ctx.emit("skipped", &[]),
        }
    });
    sim
}

fn monitor_crash_rt(rt: &mut RtSim) {
    let m = Arc::new(RtMonitor::hoare("m", 0i64));
    {
        let m = Arc::clone(&m);
        rt.spawn("victim", move |ctx| {
            m.enter(ctx, |mc| {
                ctx.chaos();
                mc.state(|n| *n += 1);
                ctx.chaos();
            });
        });
    }
    rt.spawn("survivor", move |ctx| {
        ctx.chaos();
        match m.try_enter(ctx, |mc| mc.state(|n| *n += 1)) {
            Ok(_) => ctx.emit("worked", &[]),
            Err(_) => ctx.emit("skipped", &[]),
        }
    });
}

fn serializer_crash_sim() -> Sim {
    let mut sim = Sim::new();
    let s = Arc::new(Serializer::new("s", 0i64));
    {
        let s = Arc::clone(&s);
        sim.spawn("victim", move |ctx| {
            s.enter(ctx, |sc| {
                ctx.yield_now();
                sc.state(|n| *n += 1);
                ctx.yield_now();
            });
        });
    }
    sim.spawn("survivor", move |ctx| {
        ctx.yield_now();
        match s.try_enter(ctx, |sc| sc.state(|n| *n += 1)) {
            Ok(_) => ctx.emit("worked", &[]),
            Err(_) => ctx.emit("skipped", &[]),
        }
    });
    sim
}

fn serializer_crash_rt(rt: &mut RtSim) {
    let s = Arc::new(RtSerializer::new("s", 0i64));
    {
        let s = Arc::clone(&s);
        rt.spawn("victim", move |ctx| {
            s.enter(ctx, |sc| {
                ctx.chaos();
                sc.state(|n| *n += 1);
                ctx.chaos();
            });
        });
    }
    rt.spawn("survivor", move |ctx| {
        ctx.chaos();
        match s.try_enter(ctx, |sc| sc.state(|n| *n += 1)) {
            Ok(_) => ctx.emit("worked", &[]),
            Err(_) => ctx.emit("skipped", &[]),
        }
    });
}

fn path_crash_sim() -> Sim {
    let mut sim = Sim::new();
    let res = Arc::new(PathResource::parse("res", "path op end").expect("static path source"));
    {
        let res = Arc::clone(&res);
        sim.spawn("victim", move |ctx| {
            res.perform(ctx, "op", || {
                ctx.yield_now();
                ctx.yield_now();
            });
        });
    }
    sim.spawn("survivor", move |ctx| {
        ctx.yield_now();
        match res.try_perform(ctx, "op", || ()) {
            Ok(()) => ctx.emit("worked", &[]),
            Err(_) => ctx.emit("skipped", &[]),
        }
    });
    sim
}

fn path_crash_rt(rt: &mut RtSim) {
    let res = Arc::new(RtPathResource::parse("res", "path op end").expect("static path source"));
    {
        let res = Arc::clone(&res);
        rt.spawn("victim", move |ctx| {
            res.perform(ctx, "op", || {
                ctx.chaos();
                ctx.chaos();
            });
        });
    }
    rt.spawn("survivor", move |ctx| {
        ctx.chaos();
        match res.try_perform(ctx, "op", || ()) {
            Ok(()) => ctx.emit("worked", &[]),
            Err(_) => ctx.emit("skipped", &[]),
        }
    });
}

/// The channel-crash pair. Both sides wait with the same six-tick budget:
/// the sender's offer and the victim's receive. On threads a tick is wall
/// time, and a victim descheduled past the sender's budget would find the
/// offer withdrawn; an untimed receive then waits forever, a wedge that no
/// simulator schedule can produce (virtual time only advances when nobody
/// is ready). Timing the receive too makes wedging impossible by
/// construction on both backends; killed or not, the run is contained.
fn chan_crash_sim() -> Sim {
    let mut sim = Sim::new();
    let a = Arc::new(Channel::<i64>::new("a"));
    {
        let a = Arc::clone(&a);
        sim.spawn("victim", move |ctx| {
            ctx.yield_now();
            match a.recv_by(ctx, 6u64) {
                Some(got) => ctx.emit("got", &[got]),
                None => ctx.emit("missed", &[]),
            }
        });
    }
    sim.spawn("sender", move |ctx| match a.send_by(ctx, 7, 6u64) {
        Ok(()) => ctx.emit("delivered", &[]),
        Err(_) => ctx.emit("undelivered", &[]),
    });
    sim
}

fn chan_crash_rt(rt: &mut RtSim) {
    let a = Arc::new(RtChannel::<i64>::new("a"));
    {
        let a = Arc::clone(&a);
        rt.spawn("victim", move |ctx| {
            ctx.chaos();
            match a.recv_by(ctx, 6u64) {
                Some(got) => ctx.emit("got", &[got]),
                None => ctx.emit("missed", &[]),
            }
        });
    }
    rt.spawn("sender", move |ctx| match a.send_by(ctx, 7, 6u64) {
        Ok(()) => ctx.emit("delivered", &[]),
        Err(_) => ctx.emit("undelivered", &[]),
    });
}

/// The five-mechanism crash-conformance suite: every scenario is built
/// from poisoning (or withdrawing) forms, so *wedged* is never an
/// acceptable aftermath on either backend.
pub fn crash_scenarios() -> Vec<CrashScenario> {
    vec![
        CrashScenario {
            name: "lock-crash",
            mechanism: "semaphore",
            victim: "victim",
            max_points: 6,
            sim: lock_crash_sim,
            rt: lock_crash_rt,
        },
        CrashScenario {
            name: "monitor-crash",
            mechanism: "monitor",
            victim: "victim",
            max_points: 6,
            sim: monitor_crash_sim,
            rt: monitor_crash_rt,
        },
        CrashScenario {
            name: "serializer-crash",
            mechanism: "serializer",
            victim: "victim",
            max_points: 6,
            sim: serializer_crash_sim,
            rt: serializer_crash_rt,
        },
        CrashScenario {
            name: "pathexpr-crash",
            mechanism: "path expressions",
            victim: "victim",
            max_points: 6,
            sim: path_crash_sim,
            rt: path_crash_rt,
        },
        CrashScenario {
            name: "channel-crash",
            mechanism: "channels",
            victim: "victim",
            max_points: 6,
            sim: chan_crash_sim,
            rt: chan_crash_rt,
        },
    ]
}

// --- envelope computation and real-thread sampling -------------------------

/// Exhaustively explores a scenario's simulator twin and returns every
/// verdict any schedule can produce. Panics if the tree exceeds
/// [`ENVELOPE_BUDGET`] — an incomplete envelope proves nothing.
pub fn sim_envelope(s: &Scenario) -> BTreeSet<String> {
    let (journal, stats) = ExploreConfig::new(ENVELOPE_BUDGET)
        .mode(PruneMode::Granular)
        .run(s.sim, |_, result| (s.verdict)(result));
    let verdicts: BTreeSet<String> = journal.into_iter().map(|r| r.value).collect();
    assert!(
        stats.complete,
        "scenario {}: envelope exploration exceeded its budget \
         ({} schedules) — the envelope would be incomplete",
        s.name, stats.schedules
    );
    verdicts
}

/// One seeded-jitter real-thread run of a scenario's twin, reduced to
/// its verdict.
pub fn rt_verdict(s: &Scenario, seed: u64) -> String {
    let mut rt = RtSim::with_config(RtConfig {
        jitter_seed: Some(seed),
        ..RtConfig::default()
    });
    (s.rt)(&mut rt);
    (s.verdict)(&rt.run())
}

/// Exhaustively explores the (schedule × kill-point) space of a crash
/// scenario's simulator twin and returns every [`CrashOutcome`] it can
/// produce.
pub fn sim_crash_envelope(c: &CrashScenario) -> BTreeSet<CrashOutcome> {
    let (journal, stats) = ExploreConfig::new(ENVELOPE_BUDGET)
        .mode(PruneMode::Granular)
        .run_kill_points(c.victim, c.max_points, c.sim, |_, _, result| {
            classify_crash(result)
        });
    let outcomes: BTreeSet<CrashOutcome> = journal.into_iter().map(|(_, r)| r.value).collect();
    assert!(
        stats.complete,
        "crash scenario {}: kill-point exploration exceeded its budget",
        c.name
    );
    outcomes
}

/// One real-thread crash run: jittered, with the victim killed at the
/// given chaos point.
pub struct RtCrashRun {
    /// The injected kill point.
    pub point: u64,
    /// The classified aftermath.
    pub outcome: CrashOutcome,
    /// Poison-protocol violations of the run's trace (must be empty:
    /// the laws layer runs on real traces unchanged).
    pub protocol: Vec<Violation>,
}

/// Runs a crash scenario's real twin once with seeded jitter and a kill
/// at `point`, classifying the aftermath.
pub fn rt_crash_run(c: &CrashScenario, point: u64, seed: u64) -> RtCrashRun {
    let mut rt = RtSim::with_config(RtConfig {
        jitter_seed: Some(seed),
        kill: Some(KillPoint {
            process: c.victim.to_string(),
            at_point: point,
        }),
        ..RtConfig::default()
    });
    (c.rt)(&mut rt);
    let result = rt.run();
    let outcome = classify_crash(&result);
    let protocol = check_poison_propagation(&report_of(&result).trace);
    RtCrashRun {
        point,
        outcome,
        protocol,
    }
}
