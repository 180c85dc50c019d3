//! Behavioral tests for the liveness layer of the kernel: deadlines,
//! the starvation watchdog, deadlock recovery, and the end-of-run wait
//! queue hygiene assertion.

#![deny(deprecated)]

use bloom_sim::{Deadline, EventKind, ProcessStatus, Sim, Time, WaitQueue};
use parking_lot::Mutex;
use std::sync::Arc;

#[test]
fn deadline_arithmetic() {
    let d = Deadline::after(Time(10), 5);
    assert_eq!(d.absolute(), Some(Time(15)));
    assert!(!d.expired(Time(14)));
    assert!(d.expired(Time(15)), "deadline at now is expired");
    assert_eq!(d.remaining(Time(12)), Some(3));
    assert_eq!(d.remaining(Time(15)), None);
    assert_eq!(d.to_string(), "by t15");
    assert_eq!(Deadline::at(Time(15)), d);
    let w = Deadline::within(3);
    assert_eq!(w.absolute(), None);
    assert_eq!(
        w.remaining(Time(999)),
        Some(3),
        "relative ignores the clock"
    );
    assert_eq!(Deadline::from(3u64), w);
    assert_eq!(Deadline::from(std::time::Duration::from_nanos(3)), w);
}

#[test]
fn wait_deadline_times_out_at_the_deadline() {
    let mut sim = Sim::new();
    let q = Arc::new(WaitQueue::new("q"));
    let q2 = Arc::clone(&q);
    let seen = Arc::new(Mutex::new(None));
    let seen2 = Arc::clone(&seen);
    sim.spawn("waiter", move |ctx| {
        let deadline = ctx.deadline_after(4);
        let woken = q2.wait_by(ctx, deadline);
        *seen2.lock() = Some((woken, ctx.now(), deadline));
    });
    sim.run().expect("clean run");
    let (woken, now, deadline) = seen.lock().expect("waiter ran");
    assert!(!woken, "nobody woke the waiter");
    // The timer fires exactly at the deadline; the re-dispatch that resumes
    // the waiter costs one more quantum.
    assert_eq!(now, deadline.absolute().expect("absolute").plus(1));
}

#[test]
fn expired_deadline_fails_without_parking() {
    let mut sim = Sim::new();
    let q = Arc::new(WaitQueue::new("q"));
    let q2 = Arc::clone(&q);
    sim.spawn("late", move |ctx| {
        let before = ctx.now();
        assert!(!q2.wait_by(ctx, Deadline::at(Time::ZERO)));
        assert_eq!(ctx.now(), before, "no scheduling point consumed");
        assert!(q2.is_empty(), "no registration left behind");
    });
    sim.run().expect("clean run");
}

#[test]
fn is_parked_tracks_block_state() {
    let mut sim = Sim::new();
    let q = Arc::new(WaitQueue::new("q"));
    let target = Arc::new(Mutex::new(None));
    let target2 = Arc::clone(&target);
    let q2 = Arc::clone(&q);
    sim.spawn("prober", move |ctx| {
        let sleeper = target2.lock().expect("sleeper spawned before any run");
        assert!(!ctx.is_parked(sleeper), "not yet parked");
        ctx.yield_now();
        assert!(ctx.is_parked(sleeper), "parked after its first dispatch");
        q2.wake_one(ctx);
        assert!(!ctx.is_parked(sleeper), "ready again after the wake");
    });
    let q3 = Arc::clone(&q);
    *target.lock() = Some(sim.spawn("sleeper", move |ctx| q3.wait(ctx)));
    sim.run().expect("clean run");
}

/// A waiter bypassed for longer than the bound is flagged exactly once,
/// with its wait age, while the rest of the system keeps running.
#[test]
fn watchdog_flags_long_wait() {
    let mut sim = Sim::new();
    sim.set_starvation_bound(5);
    let q = Arc::new(WaitQueue::new("starved-q"));
    let q2 = Arc::clone(&q);
    let victim = sim.spawn("victim", move |ctx| q2.wait(ctx));
    let q3 = Arc::clone(&q);
    sim.spawn("cycler", move |ctx| {
        for _ in 0..20 {
            ctx.yield_now();
        }
        q3.wake_one(ctx);
    });
    let report = sim.run().expect("clean run");
    assert_eq!(report.starvation.len(), 1, "flagged exactly once");
    let flag = &report.starvation[0];
    assert_eq!(flag.pid, victim);
    assert_eq!(flag.name, "victim");
    assert_eq!(flag.reason, "starved-q");
    assert!(flag.age > 5, "age {} exceeds the bound", flag.age);
    assert!(report
        .trace
        .events()
        .iter()
        .any(|e| matches!(e.kind, EventKind::StarvationFlagged { .. })));
    assert_eq!(
        report.processes[victim.index()].status,
        ProcessStatus::Finished,
        "detection only: the victim still completes"
    );
}

/// Re-parking on the *same* reason continues the wait episode, so barging
/// starvation (many short parks on one queue) accumulates age and is
/// flagged even though each individual park is brief.
#[test]
fn watchdog_accumulates_age_across_reparks() {
    let mut sim = Sim::new();
    sim.set_starvation_bound(6);
    let q = Arc::new(WaitQueue::new("barged"));
    let q2 = Arc::clone(&q);
    sim.spawn("victim", move |ctx| {
        for _ in 0..5 {
            q2.wait(ctx); // woken each round, immediately re-parks
        }
    });
    let q3 = Arc::clone(&q);
    sim.spawn("cycler", move |ctx| {
        for _ in 0..5 {
            ctx.yield_now();
            ctx.yield_now();
            q3.wake_one(ctx);
        }
    });
    let report = sim.run().expect("clean run");
    assert_eq!(
        report.starvation.len(),
        1,
        "episode spans the re-parks and is flagged once: {:?}",
        report.starvation
    );
}

/// Parking on a *different* queue starts a fresh episode; a process that
/// alternates between two queues, each served promptly, is never flagged.
#[test]
fn watchdog_resets_on_different_reason() {
    let mut sim = Sim::new();
    sim.set_starvation_bound(6);
    let qa = Arc::new(WaitQueue::new("qa"));
    let qb = Arc::new(WaitQueue::new("qb"));
    let (qa2, qb2) = (Arc::clone(&qa), Arc::clone(&qb));
    sim.spawn("hopper", move |ctx| {
        for _ in 0..4 {
            qa2.wait(ctx);
            qb2.wait(ctx);
        }
    });
    sim.spawn("server", move |ctx| {
        for _ in 0..4 {
            ctx.yield_now();
            qa.wake_one(ctx);
            ctx.yield_now();
            qb.wake_one(ctx);
        }
    });
    let report = sim.run().expect("clean run");
    assert!(
        report.starvation.is_empty(),
        "each episode is short: {:?}",
        report.starvation
    );
}

/// Daemons legitimately park forever (server loops); the watchdog ignores
/// them.
#[test]
fn watchdog_ignores_daemons() {
    let mut sim = Sim::new();
    sim.set_starvation_bound(2);
    let q = Arc::new(WaitQueue::new("daemon-q"));
    let q2 = Arc::clone(&q);
    sim.spawn_daemon("server", move |ctx| q2.wait(ctx));
    sim.spawn("worker", move |ctx| {
        for _ in 0..10 {
            ctx.yield_now();
        }
    });
    let report = sim.run().expect("clean run");
    assert!(report.starvation.is_empty());
}

/// With recovery off (the default), mutual waiting is a deadlock error;
/// with recovery on, the kernel sheds victims one at a time — most
/// recently blocked first — until the system can proceed, and records
/// them as cancelled, not crashed.
#[test]
fn deadlock_recovery_aborts_victims_until_run_completes() {
    let build = |recovery: bool| {
        let mut sim = Sim::new();
        if recovery {
            sim.enable_deadlock_recovery();
        }
        let qa = Arc::new(WaitQueue::new("qa"));
        let qb = Arc::new(WaitQueue::new("qb"));
        let qa2 = Arc::clone(&qa);
        sim.spawn("first", move |ctx| qa2.wait(ctx));
        let qb2 = Arc::clone(&qb);
        sim.spawn("second", move |ctx| qb2.wait(ctx));
        sim
    };

    let err = build(false).run().expect_err("must deadlock");
    assert!(err.is_deadlock());

    let report = build(true).run().expect("recovery completes the run");
    // "second" parked later, so it is the first victim; removing it leaves
    // "first" still wedged, so recovery sheds it too.
    assert_eq!(report.recovered.len(), 2);
    assert_eq!(report.name_of(report.recovered[0]), "second");
    assert_eq!(report.name_of(report.recovered[1]), "first");
    for &pid in &report.recovered {
        assert_eq!(
            report.processes[pid.index()].status,
            ProcessStatus::Cancelled,
            "a recovery victim is cancelled, not crashed"
        );
        assert!(report
            .trace
            .events_for(pid)
            .any(|e| e.kind == EventKind::Aborted));
    }
    assert!(report.killed().is_empty(), "an abort is not a kill");
}

/// The queue-hygiene assertion: a mechanism that times out of a park but
/// forgets to deregister (the timed-park footgun) fails the run
/// loudly at the end instead of silently absorbing a future grant.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "stale registration")]
fn leaked_timed_registration_fails_loudly() {
    let mut sim = Sim::new();
    let q = Arc::new(WaitQueue::new("leaky"));
    let q2 = Arc::clone(&q);
    sim.spawn("leaker", move |ctx| {
        q2.enqueue_current(ctx, 0);
        let woken = ctx.park("leaky", Some(2));
        assert!(!woken);
        // Deliberate bug: no remove_current — the registration leaks.
    });
    let _ = sim.run();
}
