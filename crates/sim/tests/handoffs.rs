//! Exact host hand-off counts of faulted and recovering runs.
//!
//! A run performs `dispatches - self_resumes + loop_wakes` OS hand-offs
//! (see `SimMetrics`). Kills, spurious and delayed wakes, and deadlock
//! recovery aborts all happen on the hosts of the processes involved, so
//! the thread driving each run below wakes exactly once, at its end.

#![deny(deprecated)]

use bloom_sim::{
    Ctx, EventKind, FaultPlan, Pid, ProcessStatus, Sim, SimError, SimReport, Time, WaitQueue,
};
use std::sync::Arc;

/// `(dispatches, self_resumes, loop_wakes)` of a run, and the run.
fn handoffs(sim: Sim) -> ((u64, u64, u64), Result<SimReport, SimError>) {
    let result = sim.run();
    let m = match &result {
        Ok(report) => &report.metrics,
        Err(err) => &err.report.metrics,
    };
    ((m.dispatches, m.self_resumes, m.loop_wakes), result)
}

/// Wakes the front of a queue when dropped by an unwind, the way a
/// mechanism's crash guard releases what a dying process held.
struct WakeOnUnwind<'a>(&'a WaitQueue, &'a Ctx);

impl Drop for WakeOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.wake_one(self.1);
        }
    }
}

/// A kill at a yield unwinds the victim from its own stop; its host
/// then dispatches the peer, whose lone yield is a self-resume.
#[test]
fn kill_at_a_yield_hands_the_cpu_on_from_the_victim() {
    let mut sim = Sim::new();
    sim.set_fault_plan(FaultPlan::new().kill("victim", 1));
    sim.spawn("victim", |ctx| {
        ctx.yield_now();
        ctx.emit("never", &[]);
    });
    sim.spawn("peer", |ctx| ctx.yield_now());
    let (counts, result) = handoffs(sim);
    let report = result.expect("the peer finishes");
    assert_eq!(report.killed(), vec![Pid(0)]);
    assert_eq!(report.trace.count_user("never"), 0);
    assert_eq!(counts, (3, 1, 1));
}

/// A kill at a park unwinds before the park is applied: the victim's
/// queue guard dequeues it, so the peer's later wake finds nobody.
#[test]
fn kill_while_parked_dequeues_and_hands_the_cpu_on() {
    let mut sim = Sim::new();
    sim.set_fault_plan(FaultPlan::new().kill("victim", 1));
    let q = Arc::new(WaitQueue::new("q"));
    let q2 = Arc::clone(&q);
    sim.spawn("victim", move |ctx| q2.wait(ctx));
    let q3 = Arc::clone(&q);
    sim.spawn("peer", move |ctx| {
        ctx.yield_now();
        assert_eq!(q3.wake_one(ctx), None, "the killed waiter dequeued");
    });
    let (counts, result) = handoffs(sim);
    let report = result.expect("the peer finishes");
    assert_eq!(report.killed(), vec![Pid(0)]);
    assert!(q.is_empty());
    assert_eq!(counts, (3, 1, 1));
}

/// A spurious wake readies a lone plain park at its own stop, so the
/// pick comes straight back: a self-resume that re-parks, and then a
/// deadlock.
#[test]
fn spurious_wake_on_a_lone_park_self_resumes_then_deadlocks() {
    let mut sim = Sim::new();
    sim.set_fault_plan(FaultPlan::new().spurious_wake("p", 1));
    sim.spawn("p", |ctx| ctx.park("nobody"));
    let (counts, result) = handoffs(sim);
    let err = result.expect_err("nobody unparks p");
    assert!(err.is_deadlock());
    let spurious = err.report.trace.events().iter();
    let spurious = spurious.filter(|e| e.kind == EventKind::SpuriousWake);
    assert_eq!(spurious.count(), 1);
    assert_eq!(counts, (2, 1, 1));
}

/// A delayed wake turns the unpark into a sleep; the waker's finish
/// fires that timer and dispatches the waiter, all without the
/// driving thread.
#[test]
fn delayed_wake_is_dispatched_by_the_finishing_waker() {
    let mut sim = Sim::new();
    sim.set_fault_plan(FaultPlan::new().delay_wake("waiter", 1, 5));
    let q = Arc::new(WaitQueue::new("q"));
    let q2 = Arc::clone(&q);
    sim.spawn("waiter", move |ctx| q2.wait(ctx));
    sim.spawn("waker", move |ctx| {
        ctx.yield_now();
        q.wake_one(ctx);
    });
    let (counts, result) = handoffs(sim);
    let report = result.expect("the delayed waiter finishes");
    assert_eq!(
        report.final_time,
        Time(9),
        "woken at 3, resumed at 3 + 5 + 1"
    );
    assert_eq!(counts, (4, 1, 1));
}

/// Deadlock recovery picks the stopping process itself: it unwinds at
/// once, its guard wakes the survivor, and its host dispatches it.
#[test]
fn recovery_abort_of_the_stopping_process_unwinds_it_at_once() {
    let mut sim = Sim::new();
    sim.enable_deadlock_recovery();
    let q = Arc::new(WaitQueue::new("q"));
    let gate = Arc::new(WaitQueue::new("gate"));
    let q2 = Arc::clone(&q);
    sim.spawn("survivor", move |ctx| {
        q2.wait(ctx);
        ctx.emit("resumed", &[]);
    });
    sim.spawn("victim", move |ctx| {
        let _wake = WakeOnUnwind(&q, ctx);
        gate.wait(ctx);
    });
    let (counts, result) = handoffs(sim);
    let report = result.expect("recovery resolves the deadlock");
    assert_eq!(report.recovered, vec![Pid(1)]);
    assert_eq!(report.trace.count_user("resumed"), 1);
    assert_eq!(report.processes[1].status, ProcessStatus::Cancelled);
    assert_eq!(counts, (3, 0, 1));
}

/// Deadlock recovery picks a process other than the one that found
/// nobody ready: the finishing process sends it `Go::Abort`, and the
/// victim's host ends the run.
#[test]
fn recovery_abort_of_another_process_is_sent_to_it() {
    let mut sim = Sim::new();
    sim.enable_deadlock_recovery();
    let q = Arc::new(WaitQueue::new("q"));
    sim.spawn("waiter", move |ctx| q.wait(ctx));
    sim.spawn("finisher", |ctx| ctx.yield_now());
    let (counts, result) = handoffs(sim);
    let report = result.expect("recovery resolves the deadlock");
    assert_eq!(report.recovered, vec![Pid(0)]);
    assert_eq!(report.processes[0].status, ProcessStatus::Cancelled);
    assert_eq!(report.processes[1].status, ProcessStatus::Finished);
    assert_eq!(counts, (3, 1, 1));
}
