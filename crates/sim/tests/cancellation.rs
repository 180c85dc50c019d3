//! Run-end cancellation: a daemon parked in [`Ctx::park_cancellable`] is
//! handed [`Cancelled`] and returns, one parked anywhere else is unwound,
//! and both end [`ProcessStatus::Cancelled`] with no `Finished` event.
//! `SimMetrics::shutdown_unwinds` tells the two apart.

#![deny(deprecated)]

use bloom_sim::{Cancelled, Ctx, EventKind, ProcessStatus, Sim, SimReport, WaitQueue};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Runs `sim` on its own thread and fails the test if the run has not
/// returned within `limit`: a shutdown that waits for a body that never
/// ends hangs instead of failing.
fn run_within(sim: Sim, limit: Duration) -> SimReport {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(sim.run());
    });
    rx.recv_timeout(limit)
        .expect("shutdown hung")
        .expect("the run completes")
}

fn status_of(report: &SimReport, name: &str) -> ProcessStatus {
    report
        .processes
        .iter()
        .find(|p| p.name == name)
        .expect("process exists")
        .status
        .clone()
}

/// A worker that finishes after one yield, leaving whatever daemon the
/// test spawned parked at run end.
fn spawn_worker(sim: &mut Sim) {
    sim.spawn("worker", |ctx| ctx.yield_now());
}

/// A daemon parked on a `WaitQueue` (an unwinding park) is unwound at run
/// end: one shutdown unwind, and its drop guard dequeues it.
#[test]
fn daemon_parked_on_a_wait_queue_is_unwound() {
    let mut sim = Sim::new();
    let q = Arc::new(WaitQueue::new("server-q"));
    let q2 = Arc::clone(&q);
    sim.spawn_daemon("server", move |ctx| loop {
        q2.wait(ctx);
    });
    spawn_worker(&mut sim);
    let report = sim.run().expect("clean run");
    assert_eq!(report.metrics.shutdown_unwinds, 1);
    assert_eq!(status_of(&report, "server"), ProcessStatus::Cancelled);
    assert!(q.is_empty(), "the unwind guard dequeued the daemon");
}

/// The same daemon in the cancellable park returns: no shutdown unwind,
/// the same status, and no `Finished` event for it.
#[test]
fn daemon_in_the_cancellable_park_returns() {
    let mut sim = Sim::new();
    let q = Arc::new(WaitQueue::new("server-q"));
    let q2 = Arc::clone(&q);
    let saw = Arc::new(AtomicBool::new(false));
    let saw2 = Arc::clone(&saw);
    let server = sim.spawn_daemon("server", move |ctx| loop {
        q2.enqueue_current(ctx, 0);
        if ctx.park_cancellable("server-q", None) == Err(Cancelled) {
            q2.remove_current(ctx);
            saw2.store(true, Ordering::SeqCst);
            return;
        }
    });
    spawn_worker(&mut sim);
    let report = sim.run().expect("clean run");
    assert!(saw.load(Ordering::SeqCst), "the park returned Cancelled");
    assert_eq!(report.metrics.shutdown_unwinds, 0);
    assert_eq!(status_of(&report, "server"), ProcessStatus::Cancelled);
    assert!(!report
        .trace
        .events()
        .iter()
        .any(|e| e.pid == server && e.kind == EventKind::Finished));
}

/// A daemon that ignores `Cancelled` and blocks again is unwound at once:
/// it can neither hang shutdown nor return to its loop.
#[test]
fn daemon_ignoring_cancelled_is_unwound_when_it_blocks_again() {
    let blocks: [fn(&Ctx); 5] = [
        |ctx| {
            let _ = ctx.park_cancellable("again", None);
        },
        |ctx| {
            ctx.park("again", None);
        },
        |ctx| {
            ctx.park("again", Some(5));
        },
        |ctx| ctx.yield_now(),
        |ctx| ctx.sleep(3),
    ];
    for again in blocks {
        let mut sim = Sim::new();
        let returned = Arc::new(AtomicBool::new(false));
        let returned2 = Arc::clone(&returned);
        sim.spawn_daemon("server", move |ctx| {
            let first = ctx.park_cancellable("first", None);
            assert_eq!(first, Err(Cancelled));
            again(ctx);
            returned2.store(true, Ordering::SeqCst);
        });
        spawn_worker(&mut sim);
        let report = run_within(sim, Duration::from_secs(30));
        assert!(
            !returned.load(Ordering::SeqCst),
            "the second block returned"
        );
        assert_eq!(report.metrics.shutdown_unwinds, 1);
        assert_eq!(status_of(&report, "server"), ProcessStatus::Cancelled);
        let blocked = report
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Blocked { .. }))
            .count();
        assert_eq!(blocked, 1, "the refused block left no trace event");
    }
}

/// The end-of-run queue-hygiene assertion (debug builds) holds on the
/// return path when the cancelled daemon removes its own registration...
#[test]
fn queue_hygiene_holds_on_the_return_path() {
    let mut sim = Sim::new();
    let q = Arc::new(WaitQueue::new("server-q"));
    let q2 = Arc::clone(&q);
    sim.spawn_daemon("server", move |ctx| {
        q2.enqueue_current(ctx, 0);
        if ctx.park_cancellable("server-q", None).is_err() {
            q2.remove_current(ctx);
        }
    });
    spawn_worker(&mut sim);
    sim.run().expect("clean run");
    assert!(q.is_empty());
}

/// ...and still fires when one returns with its registration left behind:
/// the return path is checked, not exempt.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "still holds")]
fn queue_hygiene_catches_a_registration_leaked_on_the_return_path() {
    let mut sim = Sim::new();
    let q = Arc::new(WaitQueue::new("server-q"));
    sim.spawn_daemon("server", move |ctx| {
        q.enqueue_current(ctx, 0);
        let _ = ctx.park_cancellable("server-q", None);
    });
    spawn_worker(&mut sim);
    let _ = sim.run();
}
