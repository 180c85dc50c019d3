//! Behavioral tests for the deterministic fault-injection plane:
//! kill-points and their determinism.

#![deny(deprecated)]

use bloom_sim::{EventKind, FaultPlan, Pid, ProcessStatus, RandomPolicy, Sim, WaitQueue};
use parking_lot::Mutex;
use std::sync::Arc;

#[test]
fn kill_at_point_terminates_process_there() {
    let mut sim = Sim::new();
    sim.set_fault_plan(FaultPlan::new().kill("victim", 2));
    let progress = Arc::new(Mutex::new(Vec::new()));
    let p2 = Arc::clone(&progress);
    sim.spawn("victim", move |ctx| {
        p2.lock().push(1);
        ctx.yield_now(); // scheduling point 1
        p2.lock().push(2);
        ctx.yield_now(); // scheduling point 2: killed here
        p2.lock().push(3);
    });
    let report = sim.run().expect("kill is not an error");
    assert_eq!(
        *progress.lock(),
        vec![1, 2],
        "work after the kill never runs"
    );
    assert_eq!(report.killed(), vec![Pid(0)]);
    assert_eq!(report.processes[0].status, ProcessStatus::Killed);
    assert!(
        report
            .trace
            .events()
            .iter()
            .any(|e| e.kind == EventKind::Killed),
        "trace records the kill"
    );
}

#[test]
fn kill_is_not_conflated_with_panic() {
    let mut sim = Sim::new();
    sim.set_fault_plan(FaultPlan::new().kill("victim", 1));
    sim.spawn("victim", |ctx| {
        ctx.yield_now();
        panic!("never reached");
    });
    let report = sim.run().expect("a kill must not surface as a panic error");
    assert!(matches!(report.processes[0].status, ProcessStatus::Killed));
}

#[test]
fn kill_beyond_last_point_never_fires() {
    let mut sim = Sim::new();
    sim.set_fault_plan(FaultPlan::new().kill("victim", 100));
    sim.spawn("victim", |ctx| {
        ctx.yield_now();
        ctx.emit("done", &[]);
    });
    let report = sim.run().unwrap();
    assert!(report.killed().is_empty());
    assert_eq!(report.processes[0].status, ProcessStatus::Finished);
    assert_eq!(report.trace.count_user("done"), 1);
}

#[test]
fn killed_while_parked_is_dequeued_and_never_granted() {
    let mut sim = Sim::new();
    // The victim's first scheduling point is its park.
    sim.set_fault_plan(FaultPlan::new().kill("victim", 1));
    let q = Arc::new(WaitQueue::new("q"));
    let woken = Arc::new(Mutex::new(Vec::new()));
    let (q2, w2) = (Arc::clone(&q), Arc::clone(&woken));
    sim.spawn("victim", move |ctx| {
        q2.wait(ctx);
        w2.lock().push("victim");
    });
    let (q3, w3) = (Arc::clone(&q), Arc::clone(&woken));
    sim.spawn("other", move |ctx| {
        q3.wait(ctx);
        w3.lock().push("other");
    });
    let q4 = Arc::clone(&q);
    sim.spawn("waker", move |ctx| {
        for _ in 0..3 {
            ctx.yield_now();
        }
        // The victim is dead; its entry must be gone, so the single wake
        // reaches "other" and nothing dangles.
        assert_eq!(q4.len(), 1, "victim's queue entry was removed on unwind");
        assert!(q4.wake_one(ctx).is_some());
        assert!(q4.wake_one(ctx).is_none());
    });
    let report = sim.run().expect("contained: no deadlock");
    assert_eq!(
        *woken.lock(),
        vec!["other"],
        "the dead victim is never granted"
    );
    assert_eq!(report.killed(), vec![Pid(0)]);
}

#[test]
fn same_plan_same_seed_identical_trace() {
    let run = || {
        let mut sim = Sim::new();
        sim.set_policy(RandomPolicy::new(0xFA57));
        sim.set_fault_plan(FaultPlan::new().kill("b", 2).kill("c", 1));
        let q = Arc::new(WaitQueue::new("q"));
        for name in ["a", "b", "c"] {
            let q = Arc::clone(&q);
            sim.spawn(name, move |ctx| {
                ctx.yield_now();
                q.wait(ctx);
            });
        }
        let q2 = Arc::clone(&q);
        sim.spawn("waker", move |ctx| {
            for _ in 0..6 {
                ctx.yield_now();
            }
            q2.wake_all(ctx);
        });
        sim.run()
    };
    let (a, b) = (run(), run());
    let render = |r: &Result<bloom_sim::SimReport, bloom_sim::SimError>| match r {
        Ok(rep) => rep.trace.render(),
        Err(e) => e.report.trace.render(),
    };
    assert_eq!(render(&a), render(&b), "fault injection is deterministic");
}

#[test]
fn kill_point_explorer_covers_schedules_and_points() {
    use bloom_sim::ExploreConfig;
    let (journal, stats) = ExploreConfig::new(10_000).run_kill_points(
        "victim",
        3,
        || {
            let mut sim = Sim::new();
            sim.spawn("victim", |ctx| {
                ctx.yield_now();
                ctx.emit("victim-done", &[]);
            });
            sim.spawn("peer", |ctx| {
                ctx.yield_now();
                ctx.emit("peer-done", &[]);
            });
            sim
        },
        |_point, _decisions, result| {
            let report = result.as_ref().expect("no deadlock possible here");
            !report.killed().is_empty()
        },
    );
    assert!(
        stats.complete,
        "tiny scenario fully explored at every point"
    );
    let outcomes: Vec<(u64, bool)> = journal.into_iter().map(|(p, r)| (p, r.value)).collect();
    assert!(
        outcomes.iter().any(|&(p, killed)| p == 1 && killed),
        "kill at the victim's only yield fires in some schedule"
    );
    // The victim has exactly one scheduling point (its yield), so point 2
    // never fires in any schedule — and the sweep proves that and stops
    // there rather than exploring point 3.
    assert_eq!(
        stats.per_point.len(),
        2,
        "sweep must stop once a point can no longer fire"
    );
    assert_eq!(stats.per_point[0].point, 1);
    assert!(stats.per_point[0].kills > 0);
    assert_eq!(stats.per_point[1].point, 2);
    assert_eq!(stats.per_point[1].kills, 0);
    assert!(
        !outcomes.iter().any(|&(p, _)| p == 3),
        "a kill point past the victim's last stop is not explored"
    );
}
