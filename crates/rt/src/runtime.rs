//! The real-thread runtime: spawn, watch, classify, report.
//!
//! [`RtSim`] mirrors the `bloom_sim::Sim` builder shape — spawn named
//! closures, call [`RtSim::run`], get a `Result<SimReport, SimError>` —
//! but every process is a plain OS thread with no baton protocol and no
//! scheduler. The report is assembled from three ingredients:
//!
//! * a mutex-guarded [`Trace`] that every thread appends to via
//!   [`RtCtx::emit`] (the identical `req:`/`enter:`/`exit:` vocabulary
//!   the checkers consume);
//! * a logical clock — an atomic counter bumped once per recorded event —
//!   standing in for virtual time (checkers depend on event *order*, not
//!   tick values, so a dense counter is sufficient and honest);
//! * per-thread outcomes (finished / killed / panicked / still running at
//!   the watchdog), mapped onto [`ProcessStatus`] and the
//!   [`bloom_sim::SimErrorKind`] variants.
//!
//! Nondeterminism is embraced, not hidden: a run's schedule is whatever
//! the OS did. The conformance harness makes that useful by seeding
//! *jitter* — randomized yields and short sleeps at instrumented
//! [`RtCtx::chaos`] points inside the mechanisms — so N iterations sample
//! N genuinely different thread interleavings, and by injecting a panic
//! at the Nth chaos point of a named thread ([`RtConfig::kill`]),
//! mirroring the simulator's `FaultPlan` kill-points.

use bloom_sim::{
    Deadline, EventKind, Pid, ProcessStatus, ProcessSummary, SimError, SimErrorKind, SimMetrics,
    SimReport, Time, Trace,
};
use parking_lot::{Condvar, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// Panic payload for an injected kill: distinguishes a fault-plan kill
/// (classified [`ProcessStatus::Killed`], run continues) from a genuine
/// bug panic (classified [`SimErrorKind::ProcessPanicked`], run fails).
#[derive(Debug)]
pub struct RtKill;

/// Kill injection: panic the named process at its `at_point`-th
/// instrumented [`RtCtx::chaos`] point (1-based), the real-thread
/// analogue of `FaultPlan::kill_at`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KillPoint {
    /// Name of the process to kill.
    pub process: String,
    /// Which chaos point fires the kill (1 = the first).
    pub at_point: u64,
}

/// Run parameters for a real-thread execution.
#[derive(Debug, Clone)]
pub struct RtConfig {
    /// Wall-clock length of one virtual tick: `*_by` deadlines of `n`
    /// ticks become bounded waits of `n * tick` (clamped to at least one
    /// millisecond so a short tick cannot degenerate to a busy poll).
    pub tick: Duration,
    /// Overall wall-clock budget for the run. Threads still running when
    /// it expires are reported as a deadlock (blocked on
    /// "wall-clock watchdog") and left detached — the real-thread
    /// analogue of the simulator's deadlock detector, necessarily
    /// approximate: a wedged thread cannot be forced to unwind.
    pub watchdog: Duration,
    /// Seed for the per-thread jitter streams; `None` disables jitter
    /// (chaos points still count, so kill injection stays meaningful).
    pub jitter_seed: Option<u64>,
    /// Kill injection, if any.
    pub kill: Option<KillPoint>,
}

impl Default for RtConfig {
    fn default() -> Self {
        RtConfig {
            tick: Duration::from_micros(200),
            watchdog: Duration::from_secs(5),
            jitter_seed: None,
            kill: None,
        }
    }
}

/// State shared by every thread of one run.
struct RtShared {
    trace: Mutex<Trace>,
    /// Logical clock: one tick per recorded event.
    clock: AtomicU64,
    /// Arrival tickets (mechanism FIFO ordering).
    ticket: AtomicU64,
    tick: Duration,
}

impl RtShared {
    fn record(&self, pid: Pid, kind: EventKind) {
        let mut trace = self.trace.lock();
        // Clock and trace advance together under the trace lock, so
        // event times are monotone in seq like a simulator trace.
        let time = Time(self.clock.fetch_add(1, Ordering::Relaxed));
        trace.record(time, pid, kind);
    }
}

/// The handle a real-thread process body receives — the [`bloom_sim::Ctx`]
/// subset the mechanisms and scenario code need.
pub struct RtCtx {
    pid: Pid,
    name: String,
    shared: Arc<RtShared>,
    /// SplitMix64 jitter stream state; 0 disables jitter.
    jitter: std::cell::Cell<u64>,
    /// Instrumented points passed so far (kill-point coordinate).
    points: std::cell::Cell<u64>,
    /// Fire an [`RtKill`] panic at this chaos point, if set.
    kill_at: Option<u64>,
}

impl RtCtx {
    /// This process's id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// This process's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current logical time (one tick per recorded event).
    pub fn now(&self) -> Time {
        Time(self.shared.clock.load(Ordering::Relaxed))
    }

    /// Appends a user event to the shared trace.
    pub fn emit(&self, label: &str, params: &[i64]) {
        self.shared.record(
            self.pid,
            EventKind::User {
                label: label.to_string(),
                params: params.to_vec(),
            },
        );
    }

    /// Appends a user event attributed to another process (releaser-side
    /// `enter_for` emission, exactly as in the simulator).
    pub fn emit_for(&self, pid: Pid, label: &str, params: &[i64]) {
        self.shared.record(
            pid,
            EventKind::User {
                label: label.to_string(),
                params: params.to_vec(),
            },
        );
    }

    /// A fresh arrival ticket; totally ordered across all threads.
    pub fn fresh_ticket(&self) -> u64 {
        self.shared.ticket.fetch_add(1, Ordering::Relaxed)
    }

    /// Always `false`: the real-thread runtime has no deadlock-recovery
    /// abort, so poison guards (which skip their work for cancelled
    /// simulator processes) always run here.
    pub fn cancelling(&self) -> bool {
        false
    }

    /// An instrumented scheduling point: counts toward the kill-point
    /// coordinate and, under a jitter seed, randomizes the thread's
    /// progress (nothing / `yield_now` / a sleep of up to ~100µs) so
    /// repeated iterations sample different OS interleavings.
    ///
    /// Mechanisms call this at every operation entry; scenario bodies may
    /// add their own points, mirroring `Ctx::yield_now` placement.
    pub fn chaos(&self) {
        let n = self.points.get() + 1;
        self.points.set(n);
        if self.kill_at == Some(n) {
            // Record the kill *before* unwinding, as the simulator does:
            // poison guards fire during the unwind, and the poison
            // protocol (`check_poison_propagation`) requires every
            // `poison:` event to follow its process's `Killed` event.
            self.shared.record(self.pid, EventKind::Killed);
            std::panic::panic_any(RtKill);
        }
        self.jitter();
    }

    /// A jitter-only instrumented point: randomizes the thread's progress
    /// exactly like [`RtCtx::chaos`] but does **not** count as a
    /// kill-point coordinate. Mechanism *release* paths (a `v`, a path
    /// `finish`) use this, so an injected kill can never land between a
    /// disarmed crash guard and the completed release and strand the
    /// resource — the simulator's `FaultPlan` kills land only at
    /// scheduling points, and its release paths contain none, so keeping
    /// the two coordinate spaces aligned keeps crash envelopes
    /// comparable.
    pub fn jitter(&self) {
        let mut s = self.jitter.get();
        if s == 0 {
            return;
        }
        // SplitMix64 step, inlined: the jitter stream must not depend on
        // bloom-sim's policy internals.
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        self.jitter.set(s);
        match z % 8 {
            0..=3 => {}
            4 | 5 => thread::yield_now(),
            6 => thread::sleep(Duration::from_micros(z as u32 as u64 % 40)),
            _ => thread::sleep(Duration::from_micros(z as u32 as u64 % 100)),
        }
    }

    /// Sleeps for `ticks` virtual ticks of wall-clock time (`ticks *
    /// tick`, clamped to at least one millisecond) — the real-thread
    /// `Ctx::sleep`. `0` degrades to a bare [`RtCtx::chaos`] point, as
    /// the simulator's `sleep(0)` degrades to `yield_now`.
    pub fn sleep(&self, ticks: u64) {
        if ticks == 0 {
            self.chaos();
            return;
        }
        thread::sleep(
            (self.shared.tick * ticks.min(u32::MAX as u64) as u32).max(Duration::from_millis(1)),
        );
    }

    /// Maps a virtual-tick [`Deadline`] to a bounded wall-clock budget:
    /// `None` if already expired, otherwise `remaining_ticks * tick`,
    /// clamped to at least one millisecond. Relative deadlines
    /// (`u64`/`Duration`/[`Deadline::within`]) resolve against the
    /// logical clock exactly as in the simulator.
    pub fn wall_budget(&self, deadline: impl Into<Deadline>) -> Option<Duration> {
        let ticks = deadline.into().remaining(self.now())?;
        Some((self.shared.tick * ticks.min(u32::MAX as u64) as u32).max(Duration::from_millis(1)))
    }
}

enum Outcome {
    Finished,
    Killed,
    Panicked(String),
}

struct RunState {
    outcomes: Vec<Option<Outcome>>,
    done: usize,
}

type Body = Box<dyn FnOnce(&RtCtx) + Send + 'static>;

/// Builder/owner of one real-thread execution.
pub struct RtSim {
    config: RtConfig,
    procs: Vec<(String, Body)>,
}

impl Default for RtSim {
    fn default() -> Self {
        RtSim::new()
    }
}

impl RtSim {
    /// A runtime with [`RtConfig::default`] parameters.
    pub fn new() -> Self {
        RtSim::with_config(RtConfig::default())
    }

    /// A runtime with explicit parameters.
    pub fn with_config(config: RtConfig) -> Self {
        RtSim {
            config,
            procs: Vec::new(),
        }
    }

    /// Registers a process; pids are assigned in spawn order, like the
    /// simulator builder.
    pub fn spawn(&mut self, name: &str, body: impl FnOnce(&RtCtx) + Send + 'static) -> Pid {
        let pid = Pid(self.procs.len() as u32);
        self.procs.push((name.to_string(), Box::new(body)));
        pid
    }

    /// Runs every process on its own OS thread and assembles the report.
    pub fn run(self) -> Result<SimReport, SimError> {
        install_kill_silencer();
        let shared = Arc::new(RtShared {
            trace: Mutex::new(Trace::new()),
            clock: AtomicU64::new(0),
            ticket: AtomicU64::new(0),
            tick: self.config.tick,
        });
        let names: Vec<String> = self.procs.iter().map(|(n, _)| n.clone()).collect();
        for (i, name) in names.iter().enumerate() {
            shared.record(
                Pid(i as u32),
                EventKind::Spawned {
                    name: name.clone(),
                    daemon: false,
                },
            );
        }
        let state = Arc::new((
            Mutex::new(RunState {
                outcomes: (0..self.procs.len()).map(|_| None).collect(),
                done: 0,
            }),
            Condvar::new(),
        ));
        let total = self.procs.len();
        // No body starts before every thread is live, so no process's wall
        // budget (`wall_budget`) starts ticking while a peer that must
        // meet it has not been created yet — the simulator's clock only
        // advances when processes run.
        let start = Arc::new(Barrier::new(total));
        for (i, (name, body)) in self.procs.into_iter().enumerate() {
            let pid = Pid(i as u32);
            let shared = Arc::clone(&shared);
            let state = Arc::clone(&state);
            let start = Arc::clone(&start);
            let ctx = RtCtxSeed {
                pid,
                name: name.clone(),
                jitter: self
                    .config
                    .jitter_seed
                    // Distinct nonzero stream per thread.
                    .map(|s| s.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (i as u64 + 1))
                    .map(|s| if s == 0 { 1 } else { s })
                    .unwrap_or(0),
                kill_at: self
                    .config
                    .kill
                    .as_ref()
                    .filter(|k| k.process == name)
                    .map(|k| k.at_point),
            };
            thread::Builder::new()
                .name(name)
                .spawn(move || {
                    start.wait();
                    let ctx = RtCtx {
                        pid: ctx.pid,
                        name: ctx.name,
                        shared: Arc::clone(&shared),
                        jitter: std::cell::Cell::new(ctx.jitter),
                        points: std::cell::Cell::new(0),
                        kill_at: ctx.kill_at,
                    };
                    let outcome = match catch_unwind(AssertUnwindSafe(|| body(&ctx))) {
                        Ok(()) => {
                            shared.record(ctx.pid, EventKind::Finished);
                            Outcome::Finished
                        }
                        // The Killed event was already recorded at the
                        // chaos point that raised the kill.
                        Err(payload) if payload.downcast_ref::<RtKill>().is_some() => {
                            Outcome::Killed
                        }
                        Err(payload) => Outcome::Panicked(panic_message(payload.as_ref())),
                    };
                    let (lock, cv) = &*state;
                    let mut s = lock.lock();
                    s.outcomes[ctx.pid.0 as usize] = Some(outcome);
                    s.done += 1;
                    drop(s);
                    cv.notify_all();
                })
                .expect("OS refused to spawn a thread");
        }

        // Watchdog: wait for every thread, or give up loudly.
        let deadline = Instant::now() + self.config.watchdog;
        let (lock, cv) = &*state;
        let mut s = lock.lock();
        while s.done < total {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            cv.wait_for(&mut s, deadline - now);
        }

        let mut processes = Vec::with_capacity(total);
        let mut panicked: Option<(Pid, String)> = None;
        let mut blocked = Vec::new();
        for (i, (name, outcome)) in names.iter().zip(s.outcomes.iter()).enumerate() {
            let pid = Pid(i as u32);
            let status = match outcome {
                Some(Outcome::Finished) => ProcessStatus::Finished,
                Some(Outcome::Killed) => ProcessStatus::Killed,
                Some(Outcome::Panicked(m)) => {
                    if panicked.is_none() {
                        panicked = Some((pid, m.clone()));
                    }
                    ProcessStatus::Panicked { message: m.clone() }
                }
                None => {
                    blocked.push((pid, name.clone(), "wall-clock watchdog".to_string()));
                    ProcessStatus::Blocked {
                        reason: "wall-clock watchdog".to_string(),
                    }
                }
            };
            processes.push(ProcessSummary {
                pid,
                name: name.clone(),
                daemon: false,
                status,
            });
        }
        drop(s);

        let trace = shared.trace.lock().clone();
        let steps = trace.len() as u64;
        let report = SimReport {
            final_time: Time(shared.clock.load(Ordering::Relaxed)),
            trace,
            decisions: Vec::new(),
            steps,
            processes,
            starvation: Vec::new(),
            recovered: Vec::new(),
            // Real-thread runs are never explorable: no decision vector,
            // no replay, no prune.
            prune_safe: false,
            metrics: SimMetrics::default(),
            quanta: Default::default(),
            data_choices: Vec::new(),
        };
        if let Some((pid, message)) = panicked {
            return Err(SimError {
                kind: SimErrorKind::ProcessPanicked { pid, message },
                report: Box::new(report),
            });
        }
        if !blocked.is_empty() {
            return Err(SimError {
                kind: SimErrorKind::Deadlock { blocked },
                report: Box::new(report),
            });
        }
        Ok(report)
    }
}

/// Per-thread seed data moved into the spawned thread (RtCtx itself is
/// not Send because of its Cells; it is constructed on its own thread).
struct RtCtxSeed {
    pid: Pid,
    name: String,
    jitter: u64,
    kill_at: Option<u64>,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

/// Installs (once per process) a panic hook that suppresses the default
/// stderr report for injected [`RtKill`] panics — they are part of the
/// experiment, not bugs — and chains to the previous hook for everything
/// else.
fn install_kill_silencer() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<RtKill>().is_none() {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_reports_finished_processes_and_ordered_trace() {
        let mut rt = RtSim::new();
        rt.spawn("a", |ctx| ctx.emit("enter:work", &[0]));
        rt.spawn("b", |ctx| ctx.emit("enter:work", &[1]));
        let report = rt.run().expect("clean run");
        assert_eq!(report.processes.len(), 2);
        assert!(report
            .processes
            .iter()
            .all(|p| p.status == ProcessStatus::Finished));
        assert_eq!(report.trace.count_user("enter:work"), 2);
        let seqs: Vec<u64> = report.trace.events().iter().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "dense total order");
        assert!(!report.prune_safe, "real runs are never explorable");
    }

    #[test]
    fn kill_point_classifies_killed_not_panicked() {
        let mut rt = RtSim::with_config(RtConfig {
            kill: Some(KillPoint {
                process: "victim".into(),
                at_point: 2,
            }),
            ..RtConfig::default()
        });
        rt.spawn("victim", |ctx| {
            ctx.chaos();
            ctx.emit("survived:1", &[]);
            ctx.chaos(); // dies here
            ctx.emit("survived:2", &[]);
        });
        rt.spawn("bystander", |ctx| ctx.emit("done", &[]));
        let report = rt.run().expect("a kill is not a run failure");
        assert_eq!(report.processes[0].status, ProcessStatus::Killed);
        assert_eq!(report.processes[1].status, ProcessStatus::Finished);
        assert_eq!(report.trace.count_user("survived:1"), 1);
        assert_eq!(report.trace.count_user("survived:2"), 0);
        assert!(report
            .trace
            .events_for(Pid(0))
            .any(|e| e.kind == EventKind::Killed));
    }

    #[test]
    fn genuine_panic_fails_the_run() {
        let mut rt = RtSim::new();
        rt.spawn("buggy", |_| panic!("actual bug"));
        let err = rt.run().expect_err("panic must fail the run");
        match err.kind {
            SimErrorKind::ProcessPanicked { pid, ref message } => {
                assert_eq!(pid, Pid(0));
                assert!(message.contains("actual bug"));
            }
            ref k => panic!("wrong kind: {k:?}"),
        }
    }

    #[test]
    fn watchdog_reports_a_wedge_as_deadlock() {
        let mut rt = RtSim::with_config(RtConfig {
            watchdog: Duration::from_millis(50),
            ..RtConfig::default()
        });
        // A thread that blocks forever: park on a condvar nobody signals.
        rt.spawn("stuck", |_| {
            let m = Mutex::new(());
            let cv = Condvar::new();
            let mut g = m.lock();
            loop {
                cv.wait_for(&mut g, Duration::from_secs(3600));
            }
        });
        let err = rt.run().expect_err("watchdog must fire");
        assert!(err.is_deadlock());
        assert!(err.to_string().contains("stuck") || format!("{:?}", err.kind).contains("stuck"));
    }

    #[test]
    fn wall_budget_maps_ticks_and_respects_expiry() {
        let mut rt = RtSim::new();
        rt.spawn("p", |ctx| {
            let b = ctx.wall_budget(10u64).expect("relative deadline");
            assert!(b >= Duration::from_millis(1));
            assert_eq!(ctx.wall_budget(Deadline::at(Time(0))), None, "already due");
        });
        rt.run().expect("clean run");
    }

    #[test]
    fn jitter_streams_do_not_change_verdicts() {
        for seed in [1u64, 2, 3] {
            let mut rt = RtSim::with_config(RtConfig {
                jitter_seed: Some(seed),
                ..RtConfig::default()
            });
            for i in 0..3 {
                rt.spawn(&format!("p{i}"), |ctx| {
                    for _ in 0..5 {
                        ctx.chaos();
                    }
                });
            }
            rt.run().expect("jitter is noise, not failure");
        }
    }
}
