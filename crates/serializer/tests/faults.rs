//! Crash-safety of serializers under fault injection: possession
//! poisoning, dead-waiter dequeue, and crowd-member death re-triggering
//! guard evaluation.

#![deny(deprecated)]

use bloom_serializer::Serializer;
use bloom_sim::{EventKind, FaultPlan, Pid, Poisoned, Sim, SimError, SimErrorKind};
use parking_lot::Mutex;
use std::sync::Arc;

/// A holder dying inside the serializer body poisons it; queued waiters
/// are woken and observe the verdict instead of wedging.
#[test]
fn holder_death_poisons_and_wakes_queued_waiters() {
    let mut sim = Sim::new();
    let s = Arc::new(Serializer::new("s", false));
    let q = s.queue("gate");
    // Waiter parks first; victim then enters and dies at its first stop
    // inside the body.
    sim.set_fault_plan(FaultPlan::new().kill("victim", 2));
    let s1 = Arc::clone(&s);
    sim.spawn("waiter", move |ctx| {
        let r = s1.try_enter(ctx, |sc| {
            if let Err(p) = sc.enqueue_checked(q, |v| *v.state()) {
                assert_eq!(p.primitive, "s");
                assert_eq!(p.by, Pid(1));
                ctx.emit("poisoned-while-queued", &[]);
            }
        });
        assert!(r.is_ok(), "entry succeeded before the poison");
    });
    let s2 = Arc::clone(&s);
    sim.spawn("victim", move |ctx| {
        ctx.yield_now(); // stop 1: let the waiter park on its guarantee
        let _ = s2.try_enter(ctx, |sc| {
            sc.ctx().yield_now(); // stop 2: killed holding possession
            sc.state(|b| *b = true);
        });
    });
    let report = sim.run().expect("poisoning contains the crash");
    assert!(s.is_poisoned());
    assert_eq!(report.trace.count_user("poison:s"), 1);
    assert_eq!(report.trace.count_user("poisoned-while-queued"), 1);
    assert_eq!(report.killed(), vec![Pid(1)]);
}

/// Asserts that the timed waiter (pid 0) observed the poison of `s`,
/// left by the victim (pid 1), and panicked with the verdict.
fn assert_waiter_panicked_on_poison(err: &SimError) {
    let verdict = Poisoned {
        primitive: "s".to_string(),
        by: Pid(1),
    };
    assert!(
        matches!(&err.kind, SimErrorKind::ProcessPanicked { pid: Pid(0), message }
            if *message == verdict.to_string()),
        "{err}"
    );
    let trace = &err.report.trace;
    assert_eq!(trace.count_user("poison:s"), 1);
    assert_eq!(trace.count_user("poison-seen:s"), 1);
    assert_eq!(trace.count_user("returned"), 0, "enqueue_by returned");
}

/// A timed waiter woken by the poison broadcast reports it like an
/// untimed one: it sees the poison and panics, rather than reading the
/// wake as a met guarantee and running on without possession.
#[test]
fn timed_waiter_woken_by_poison_panics_with_the_verdict() {
    let mut sim = Sim::new();
    let s = Arc::new(Serializer::new("s", false));
    let q = s.queue("gate");
    sim.set_fault_plan(FaultPlan::new().kill("victim", 2));
    let s1 = Arc::clone(&s);
    sim.spawn("waiter", move |ctx| {
        s1.enter(ctx, |sc| {
            let met = sc.enqueue_by(q, 1_000u64, |v| *v.state());
            ctx.emit("returned", &[i64::from(met)]);
        });
    });
    let s2 = Arc::clone(&s);
    sim.spawn("victim", move |ctx| {
        ctx.yield_now(); // stop 1: let the waiter park on its guarantee
        let _ = s2.try_enter(ctx, |sc| {
            sc.ctx().yield_now(); // stop 2: killed holding possession
            sc.state(|b| *b = true);
        });
    });
    let err = sim.run().expect_err("the waiter panics on the poison");
    assert_waiter_panicked_on_poison(&err);
}

/// A timed waiter that timed out and is re-entering when the holder dies
/// reports the poison too, rather than returning `false` as if it held
/// possession again.
#[test]
fn timed_waiter_reentering_a_poisoned_serializer_panics_with_the_verdict() {
    let mut sim = Sim::new();
    let s = Arc::new(Serializer::new("s", false));
    let q = s.queue("gate");
    sim.set_fault_plan(FaultPlan::new().kill("victim", 3));
    let s1 = Arc::clone(&s);
    sim.spawn("waiter", move |ctx| {
        s1.enter(ctx, |sc| {
            let met = sc.enqueue_by(q, 2u64, |v| *v.state());
            ctx.emit("returned", &[i64::from(met)]);
        });
    });
    let s2 = Arc::clone(&s);
    sim.spawn("victim", move |ctx| {
        ctx.yield_now(); // stop 1: let the waiter park on its guarantee
        let _ = s2.try_enter(ctx, |sc| {
            sc.ctx().sleep(5); // stop 2: the waiter times out meanwhile
            sc.ctx().yield_now(); // stop 3: killed holding possession
        });
    });
    let err = sim.run().expect_err("the waiter panics on the poison");
    assert_waiter_panicked_on_poison(&err);
    assert!(
        err.report
            .trace
            .events_for(Pid(0))
            .any(|e| matches!(&e.kind, EventKind::Blocked { reason } if reason == "s.entry")),
        "the timed-out waiter re-entered through the entry queue"
    );
}

/// A process dying while waiting in a queue is dequeued: its guarantee can
/// never be granted, and the FIFO queue behind it must not be blocked by
/// the corpse.
#[test]
fn dead_queue_head_does_not_block_the_queue() {
    let mut sim = Sim::new();
    // The victim's park on its guarantee is its first scheduling point.
    sim.set_fault_plan(FaultPlan::new().kill("victim", 1));
    let s = Arc::new(Serializer::new("s", false));
    let q = s.queue("gate");
    let s1 = Arc::clone(&s);
    sim.spawn("victim", move |ctx| {
        s1.enter(ctx, |sc| {
            sc.enqueue(q, |v| *v.state());
            ctx.emit("victim-through", &[]);
        });
    });
    let s2 = Arc::clone(&s);
    sim.spawn("behind", move |ctx| {
        ctx.yield_now();
        s2.enter(ctx, |sc| {
            sc.enqueue(q, |v| *v.state());
            ctx.emit("behind-through", &[]);
        });
    });
    let s3 = Arc::clone(&s);
    sim.spawn("setter", move |ctx| {
        ctx.yield_now();
        ctx.yield_now();
        s3.enter(ctx, |sc| sc.state(|b| *b = true));
    });
    let report = sim.run().expect("the dead head is dequeued: no wedge");
    assert_eq!(report.trace.count_user("victim-through"), 0);
    assert_eq!(report.trace.count_user("behind-through"), 1);
    assert!(!s.is_poisoned(), "a queued waiter holds nothing");
}

/// A crowd member dying re-triggers guard evaluation: a waiter whose
/// guarantee is "that crowd is empty" is granted instead of stranded.
#[test]
fn dead_crowd_member_reevaluates_guards() {
    let mut sim = Sim::new();
    // Stops for the victim: 1 = release-into-crowd is not a stop; the
    // yield inside the crowd body is its first park-like stop.
    sim.set_fault_plan(FaultPlan::new().kill("victim", 1));
    let s = Arc::new(Serializer::new("db", ()));
    let q = s.queue("req");
    let writers = s.crowd("writers");
    let s1 = Arc::clone(&s);
    sim.spawn("victim", move |ctx| {
        s1.enter(ctx, |sc| {
            sc.join_crowd(writers, || {
                ctx.yield_now(); // killed mid-crowd
                ctx.emit("victim-finished-write", &[]);
            });
        });
    });
    let s2 = Arc::clone(&s);
    sim.spawn("waiter", move |ctx| {
        s2.enter(ctx, |sc| {
            sc.enqueue(q, move |v| v.crowd_is_empty(writers));
            ctx.emit("granted", &[]);
        });
    });
    let report = sim.run().expect("crowd cleanup prevents the wedge");
    assert_eq!(report.trace.count_user("victim-finished-write"), 0);
    assert_eq!(
        report.trace.count_user("granted"),
        1,
        "the guarantee was re-evaluated after the member died"
    );
    assert_eq!(s.crowd_len(writers), 0, "the corpse left the crowd");
    assert!(!s.is_poisoned(), "a crowd member holds no possession");
}

/// Poison is sticky: entrants arriving after the crash are refused
/// without blocking, and plain `enter` would fail loudly.
#[test]
fn poison_is_sticky_for_late_entrants() {
    let mut sim = Sim::new();
    sim.set_fault_plan(FaultPlan::new().kill("victim", 1));
    let s = Arc::new(Serializer::new("s", ()));
    let s1 = Arc::clone(&s);
    sim.spawn("victim", move |ctx| {
        let _ = s1.try_enter(ctx, |sc| sc.ctx().yield_now());
    });
    let seen = Arc::new(Mutex::new(0u32));
    for i in 0..3 {
        let s = Arc::clone(&s);
        let seen = Arc::clone(&seen);
        sim.spawn(&format!("late{i}"), move |ctx| {
            ctx.yield_now();
            ctx.yield_now();
            assert!(s.try_enter(ctx, |_| ()).is_err());
            *seen.lock() += 1;
        });
    }
    sim.run().expect("no wedge");
    assert_eq!(*seen.lock(), 3);
}
