//! How a run starts and ends, and its exact host hand-off counts.
//!
//! A run performs `dispatches - self_resumes + 1` OS hand-offs (see
//! `SimMetrics::self_resumes`), counting its end as one. The first process runs on
//! the thread that called `Sim::run`, so its dispatch is a self-resume.
//! Kills, due timers, deadlock recovery aborts and the run's end all
//! happen on the threads of the processes involved, so the thread driving
//! each run below waits exactly once, for its end.

#![deny(deprecated)]

use bloom_sim::{
    Cancelled, Ctx, FaultPlan, Pid, ProcessStatus, Sim, SimConfig, SimError, SimErrorKind,
    SimReport, Time, WaitQueue,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// `(dispatches, self_resumes)` of a run, and the run. The run
/// gets a thread of its own, so a run end that waits for a body that never
/// ends fails the test instead of hanging it.
fn handoffs(sim: Sim) -> ((u64, u64), Result<SimReport, SimError>) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(sim.run());
    });
    let result = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("Sim::run returns");
    let m = match &result {
        Ok(report) => &report.metrics,
        Err(err) => &err.report.metrics,
    };
    ((m.dispatches, m.self_resumes), result)
}

/// A body that parks in the cancellable form until the run's end cancels
/// it, and counts the cancellations it is handed.
fn parks_until_cancelled(cancels: &Arc<AtomicUsize>) -> impl FnOnce(&Ctx) + Send + 'static {
    let cancels = Arc::clone(cancels);
    move |ctx| {
        assert_eq!(ctx.park_cancellable("never", None), Err(Cancelled));
        cancels.fetch_add(1, Ordering::SeqCst);
    }
}

fn statuses(report: &SimReport) -> Vec<ProcessStatus> {
    report.processes.iter().map(|p| p.status.clone()).collect()
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

/// A kill at a yield unwinds the victim from its own stop; its thread
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
    assert_eq!(counts, (3, 2));
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
    assert_eq!(counts, (3, 2));
}

/// The peer's finish leaves nobody ready, so it fires the sleeper's due
/// timer and dispatches the sleeper itself, without the driving thread.
#[test]
fn due_sleeper_is_dispatched_by_the_finishing_peer() {
    let mut sim = Sim::new();
    sim.spawn("sleeper", |ctx| ctx.sleep(5));
    sim.spawn("peer", |ctx| ctx.yield_now());
    let (counts, result) = handoffs(sim);
    let report = result.expect("the sleeper finishes");
    assert_eq!(
        report.final_time,
        Time(7),
        "slept at 1, resumed at 1 + 5 + 1"
    );
    assert_eq!(counts, (4, 2));
}

/// Deadlock recovery picks the stopping process itself: it unwinds at
/// once, its guard wakes the survivor, and its thread dispatches it.
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
    assert_eq!(counts, (3, 1));
}

/// Deadlock recovery picks a process other than the one that found
/// nobody ready: the finishing process sends it `Go::Abort`, and the
/// victim's thread ends the run.
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
    assert_eq!(counts, (3, 2));
}

/// The first process dispatched runs on the thread that called
/// `Sim::run`; the others run on pooled `sim-host-*` threads.
#[test]
fn the_first_body_runs_on_the_callers_thread_and_later_ones_on_hosts() {
    let caller = std::thread::current().id();
    let threads = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Sim::new();
    for p in 0..3 {
        let threads = Arc::clone(&threads);
        sim.spawn(&format!("p{p}"), move |ctx| {
            let me = std::thread::current();
            let name = me.name().unwrap_or_default().to_string();
            threads.lock().unwrap().push((ctx.pid(), me.id(), name));
            ctx.yield_now();
        });
    }
    let m = sim.run().expect("yielding processes finish").metrics;
    let threads = threads.lock().unwrap();
    let pids: Vec<Pid> = threads.iter().map(|t| t.0).collect();
    assert_eq!(pids, [Pid(0), Pid(1), Pid(2)]);
    assert_eq!(threads[0].1, caller, "p0 runs on the caller's thread");
    for (pid, id, name) in &threads[1..] {
        assert_ne!(*id, caller, "{pid} runs on a host");
        assert!(name.starts_with("sim-host-"), "{pid} runs on {name:?}");
    }
    assert_eq!((m.dispatches, m.self_resumes), (6, 1));
}

/// A clean end with a daemon parked in the cancellable park: the client's
/// finish ends the run and cancels the daemon on its pooled host, which
/// returns, so the end costs client → daemon → the caller's thread.
#[test]
fn clean_end_cancels_a_parked_daemon_by_return() {
    let cancels = Arc::new(AtomicUsize::new(0));
    let mut sim = Sim::new();
    sim.spawn("client", |ctx| ctx.yield_now());
    sim.spawn_daemon("server", parks_until_cancelled(&cancels));
    let (counts, result) = handoffs(sim);
    let report = result.expect("the client finishes");
    assert_eq!(cancels.load(Ordering::SeqCst), 1);
    assert_eq!(
        statuses(&report),
        [ProcessStatus::Finished, ProcessStatus::Cancelled]
    );
    assert_eq!(report.metrics.shutdown_unwinds, 0);
    assert_eq!(counts, (3, 1));
}

/// A deadlock of two parked non-daemons ends at the second park, which
/// cancels both: the first on the caller's thread, the second through
/// its own baton.
#[test]
fn deadlock_cancels_every_parked_process_once() {
    let cancels = Arc::new(AtomicUsize::new(0));
    let mut sim = Sim::new();
    sim.spawn("a", parks_until_cancelled(&cancels));
    sim.spawn("b", parks_until_cancelled(&cancels));
    let (counts, result) = handoffs(sim);
    let err = result.expect_err("nobody unparks a or b");
    assert!(err.is_deadlock());
    assert_eq!(cancels.load(Ordering::SeqCst), 2);
    assert_eq!(
        statuses(&err.report),
        [ProcessStatus::Cancelled, ProcessStatus::Cancelled]
    );
    assert_eq!(err.report.metrics.shutdown_unwinds, 0);
    assert_eq!(counts, (2, 1));
}

/// The step budget runs out at a live yielder's stop: the yielder, which
/// has no cancellable form to return through, unwinds, and the daemon
/// parked on the caller's thread returns.
#[test]
fn max_steps_cancels_the_live_yielder_and_the_parked_daemon() {
    let cancels = Arc::new(AtomicUsize::new(0));
    let mut sim = Sim::with_config(SimConfig {
        max_steps: 5,
        ..SimConfig::default()
    });
    sim.spawn_daemon("server", parks_until_cancelled(&cancels));
    sim.spawn("yielder", |ctx| loop {
        ctx.yield_now();
    });
    let (counts, result) = handoffs(sim);
    let err = result.expect_err("the yielder never finishes");
    assert!(matches!(
        err.kind,
        SimErrorKind::MaxStepsExceeded { limit: 5 }
    ));
    assert_eq!(cancels.load(Ordering::SeqCst), 1);
    assert_eq!(
        statuses(&err.report),
        [ProcessStatus::Cancelled, ProcessStatus::Cancelled]
    );
    assert_eq!(err.report.metrics.shutdown_unwinds, 1);
    assert_eq!(counts, (5, 4));
}

/// A panic in the process on the caller's thread ends the run there and
/// cancels the daemon parked on its pooled host.
#[test]
fn panic_on_the_callers_thread_cancels_a_parked_daemon() {
    let cancels = Arc::new(AtomicUsize::new(0));
    let mut sim = Sim::new();
    sim.spawn("panicker", |ctx| {
        ctx.yield_now();
        panic!("boom");
    });
    sim.spawn_daemon("server", parks_until_cancelled(&cancels));
    let (counts, result) = handoffs(sim);
    let err = result.expect_err("the panic fails the run");
    assert!(matches!(
        &err.kind,
        SimErrorKind::ProcessPanicked { pid: Pid(0), message } if message == "boom"
    ));
    assert_eq!(cancels.load(Ordering::SeqCst), 1);
    assert_eq!(err.report.processes[1].status, ProcessStatus::Cancelled);
    assert_eq!(err.report.metrics.shutdown_unwinds, 0);
    assert_eq!(counts, (3, 1));
}

/// A panic in a pooled process ends the run on its host and cancels the
/// process parked on the caller's thread.
#[test]
fn panic_on_a_host_cancels_the_process_on_the_callers_thread() {
    let cancels = Arc::new(AtomicUsize::new(0));
    let mut sim = Sim::new();
    sim.spawn("waiter", parks_until_cancelled(&cancels));
    sim.spawn("panicker", |_| panic!("boom"));
    let (counts, result) = handoffs(sim);
    let err = result.expect_err("the panic fails the run");
    assert!(matches!(
        &err.kind,
        SimErrorKind::ProcessPanicked { pid: Pid(1), message } if message == "boom"
    ));
    assert_eq!(cancels.load(Ordering::SeqCst), 1);
    assert_eq!(err.report.processes[0].status, ProcessStatus::Cancelled);
    assert_eq!(err.report.metrics.shutdown_unwinds, 0);
    assert_eq!(counts, (2, 1));
}

/// A daemon that panics when run end cancels it does not end the run a
/// second time: the run keeps its clean end and the daemon's status
/// records the panic.
#[test]
fn a_panic_after_cancellation_leaves_the_run_end_alone() {
    let mut sim = Sim::new();
    sim.spawn("client", |ctx| ctx.yield_now());
    sim.spawn_daemon("server", |ctx| {
        ctx.park_cancellable("requests", None)
            .expect("nobody sends a request");
    });
    let (counts, result) = handoffs(sim);
    let report = result.expect("the client finishes");
    assert!(matches!(
        report.processes[1].status,
        ProcessStatus::Panicked { .. }
    ));
    assert_eq!(counts, (3, 1));
}
