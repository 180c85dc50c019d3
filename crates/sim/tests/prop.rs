//! Property-based tests of the simulator kernel.

#![deny(deprecated)]

use bloom_sim::{
    Decision, Event, FaultPlan, Pid, ProcessStatus, RandomPolicy, ReplayPolicy, Sim, SimConfig,
    SimError, SimReport, StarvationFlag, Time, WaitQueue,
};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

/// Shared operation log: `(process, op index)` entries in execution order.
type OpLog = Arc<Mutex<Vec<(i64, i64)>>>;

/// Builds a contended scenario: `procs` processes each emit `ops` events
/// with yields in between.
fn scenario(procs: usize, ops: usize) -> (Sim, OpLog) {
    let mut sim = Sim::with_config(SimConfig {
        max_steps: 100_000,
        record_sched_events: false,
        ..SimConfig::default()
    });
    let log = Arc::new(Mutex::new(Vec::new()));
    for p in 0..procs {
        let log = Arc::clone(&log);
        sim.spawn(&format!("p{p}"), move |ctx| {
            for o in 0..ops {
                log.lock().push((p as i64, o as i64));
                ctx.yield_now();
            }
        });
    }
    (sim, log)
}

/// One step of an oracle-test program.
#[derive(Debug, Clone, Copy)]
enum Op {
    Yield,
    Sleep(u64),
    /// A timed wait on the shared queue `q`; its outcome goes in the trace.
    TimedWait(u64),
    /// Wakes the front of `q`, if anyone waits there.
    Wake,
    /// Takes a permit, re-parking on `gate` until one is free: a weak
    /// semaphore's re-contend loop, one wait episode for the watchdog.
    Acquire,
    /// Returns a permit and wakes the front of `gate`.
    Release,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Yield),
        (1u64..4).prop_map(Op::Sleep),
        (1u64..6).prop_map(Op::TimedWait),
        Just(Op::Wake),
        Just(Op::Acquire),
        Just(Op::Release),
    ]
}

/// One oracle-test case: a program (one op list per process `p{i}`) and
/// how it is run.
#[derive(Debug, Clone)]
struct Case {
    program: Vec<Vec<Op>>,
    /// Seed of the random scheduling policy.
    seed: u64,
    /// Starvation watchdog bound (0: off).
    bound: u64,
    /// A fault-plan kill: `(process index, 1-based scheduling point)`.
    kill: Option<(usize, u64)>,
    /// Whether deadlock recovery aborts victims instead of failing.
    recovery: bool,
}

/// Half the cases have no watchdog, half no kill point, and half no
/// timed op (sleeps become yields and timed waits plain wakes), so that
/// runs with none of the three stay common.
fn case() -> impl Strategy<Value = Case> {
    let program = prop::collection::vec(prop::collection::vec(op(), 0..6), 1..5);
    let kill = prop_oneof![Just(None), (0usize..4, 1u64..5).prop_map(Some)];
    (
        (program, any::<u64>(), prop_oneof![Just(0u64), 1u64..6]),
        (kill, any::<bool>(), any::<bool>()),
    )
        .prop_map(|((mut program, seed, bound), (kill, recovery, untimed))| {
            if untimed {
                for op in program.iter_mut().flatten() {
                    *op = match *op {
                        Op::Sleep(_) => Op::Yield,
                        Op::TimedWait(_) => Op::Wake,
                        other => other,
                    };
                }
            }
            Case {
                kill: kill.map(|(victim, point)| (victim % program.len(), point)),
                program,
                seed,
                bound,
                recovery,
            }
        })
}

const MAX_STEPS: u64 = 10_000;

/// Runs `case` on the simulator kernel.
fn run_program(case: &Case) -> Result<SimReport, SimError> {
    let mut sim = Sim::with_config(SimConfig {
        max_steps: MAX_STEPS,
        ..SimConfig::default()
    });
    sim.set_policy(RandomPolicy::new(case.seed));
    if case.bound > 0 {
        sim.set_starvation_bound(case.bound);
    }
    if let Some((victim, point)) = case.kill {
        sim.set_fault_plan(FaultPlan::new().kill(&format!("p{victim}"), point));
    }
    if case.recovery {
        sim.enable_deadlock_recovery();
    }
    let q = Arc::new(WaitQueue::new("q"));
    let gate = Arc::new(WaitQueue::new("gate"));
    let permits = Arc::new(Mutex::new(0u32));
    for (i, ops) in case.program.iter().enumerate() {
        let ops = ops.clone();
        let (q, gate, permits) = (Arc::clone(&q), Arc::clone(&gate), Arc::clone(&permits));
        sim.spawn(&format!("p{i}"), move |ctx| {
            for op in ops {
                match op {
                    Op::Yield => ctx.yield_now(),
                    Op::Sleep(ticks) => ctx.sleep(ticks),
                    Op::TimedWait(ticks) => {
                        let woken = q.wait_by(ctx, ticks);
                        ctx.emit("timed", &[woken as i64]);
                    }
                    Op::Wake => {
                        q.wake_one(ctx);
                    }
                    Op::Acquire => loop {
                        ctx.note_sync();
                        let mut free = permits.lock();
                        if *free > 0 {
                            *free -= 1;
                            break;
                        }
                        drop(free);
                        gate.wait(ctx);
                    },
                    Op::Release => {
                        ctx.note_sync();
                        *permits.lock() += 1;
                        gate.wake_one(ctx);
                    }
                }
            }
        });
    }
    sim.run()
}

/// Everything the oracle predicts about a run.
#[derive(Debug, PartialEq)]
struct Observed {
    error: Option<String>,
    events: Vec<Event>,
    decisions: Vec<Decision>,
    starvation: Vec<StarvationFlag>,
    recovered: Vec<Pid>,
    statuses: Vec<ProcessStatus>,
    final_time: Time,
}

fn report_of(result: &Result<SimReport, SimError>) -> &SimReport {
    match result {
        Ok(report) => report,
        Err(err) => &err.report,
    }
}

fn observed(result: &Result<SimReport, SimError>) -> Observed {
    let report = report_of(result);
    Observed {
        error: result.as_ref().err().map(|err| format!("{:?}", err.kind)),
        events: report.trace.events().to_vec(),
        decisions: report.decisions.clone(),
        starvation: report.starvation.clone(),
        recovered: report.recovered.clone(),
        statuses: report.processes.iter().map(|p| p.status.clone()).collect(),
        final_time: report.final_time,
    }
}

/// The reference semantics of the program language: a single-threaded
/// interpreter with its own ready list, timers, wait queues and clock,
/// and one central loop that dispatches a process, runs it to its next
/// stop, applies the stop and picks again. It shares no code with the
/// kernel: it takes only its picks from [`RandomPolicy`], with the
/// kernel's `(ready, step)` arguments, and states its predictions in the
/// report's data types.
mod oracle {
    use super::{Case, Observed, Op, MAX_STEPS};
    use bloom_sim::{
        Decision, DecisionKind, Event, EventKind, Pid, ProcessStatus, RandomPolicy, SchedPolicy,
        SimErrorKind, StarvationFlag, Time,
    };
    use std::collections::VecDeque;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Status {
        Ready,
        Running,
        Blocked(&'static str),
        Sleeping,
        Finished,
        Killed,
        Cancelled,
    }

    /// What a dispatch resumes: the next op, the tail of a timed wait, or
    /// the permit re-check of an `Acquire`.
    #[derive(Debug, Clone, Copy)]
    enum Resume {
        Next,
        TimedWait,
        Acquire,
    }

    /// How a quantum ended.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Stop {
        Yield,
        Sleep(u64),
        Park(&'static str),
        TimedPark(&'static str, u64),
        Finish,
    }

    struct Proc {
        ops: Vec<Op>,
        pc: usize,
        resume: Resume,
        status: Status,
        /// Bumped at every park; a timeout timer fires only for its own.
        park_token: u64,
        timed_out: bool,
        /// The open wait episode: `(reason, start)`. Re-parking on the
        /// same reason continues it; a yield, sleep or finish closes it.
        wait: Option<(&'static str, u64)>,
        flagged: bool,
        /// Scheduling points so far, for the kill point.
        stops: u64,
    }

    impl Proc {
        fn live(&self) -> bool {
            matches!(
                self.status,
                Status::Ready | Status::Running | Status::Blocked(_) | Status::Sleeping
            )
        }
    }

    /// A pending timer: `(deadline, creation order, pid, park token)`;
    /// a sleep's timer has no token.
    type Timer = (u64, u64, usize, Option<u64>);

    struct Oracle {
        procs: Vec<Proc>,
        ready: Vec<usize>,
        timers: Vec<Timer>,
        timers_made: u64,
        clock: u64,
        step: u64,
        q: VecDeque<usize>,
        gate: VecDeque<usize>,
        permits: u32,
        policy: RandomPolicy,
        events: Vec<Event>,
        decisions: Vec<Decision>,
        starvation: Vec<StarvationFlag>,
        recovered: Vec<Pid>,
        bound: Option<u64>,
        recovery: bool,
        kill: Option<(usize, u64)>,
    }

    /// What the central loop does next.
    enum Next {
        Run(usize),
        Abort(usize),
        End(Option<SimErrorKind>),
    }

    /// Predicts the run of `case`.
    pub fn predict(case: &Case) -> Observed {
        let mut o = Oracle {
            procs: case
                .program
                .iter()
                .map(|ops| Proc {
                    ops: ops.clone(),
                    pc: 0,
                    resume: Resume::Next,
                    status: Status::Ready,
                    park_token: 0,
                    timed_out: false,
                    wait: None,
                    flagged: false,
                    stops: 0,
                })
                .collect(),
            ready: Vec::new(),
            timers: Vec::new(),
            timers_made: 0,
            clock: 0,
            step: 0,
            q: VecDeque::new(),
            gate: VecDeque::new(),
            permits: 0,
            policy: RandomPolicy::new(case.seed),
            events: Vec::new(),
            decisions: Vec::new(),
            starvation: Vec::new(),
            recovered: Vec::new(),
            bound: (case.bound > 0).then_some(case.bound),
            recovery: case.recovery,
            kill: case.kill,
        };
        for pid in 0..o.procs.len() {
            o.ready.push(pid);
            o.event(
                pid,
                EventKind::Spawned {
                    name: format!("p{pid}"),
                    daemon: false,
                },
            );
        }
        let error = loop {
            match o.next() {
                Next::Run(pid) => o.run(pid),
                Next::Abort(victim) => o.abort(victim),
                Next::End(error) => break error,
            }
        };
        // Shutdown cancels every process still live.
        let statuses = o
            .procs
            .iter()
            .map(|p| match p.status {
                Status::Finished => ProcessStatus::Finished,
                Status::Killed => ProcessStatus::Killed,
                _ => ProcessStatus::Cancelled,
            })
            .collect();
        Observed {
            error: error.map(|kind| format!("{kind:?}")),
            events: o.events,
            decisions: o.decisions,
            starvation: o.starvation,
            recovered: o.recovered,
            statuses,
            final_time: Time(o.clock),
        }
    }

    impl Oracle {
        fn event(&mut self, pid: usize, kind: EventKind) {
            self.events.push(Event {
                time: Time(self.clock),
                seq: self.events.len() as u64,
                pid: Pid(pid as u32),
                kind,
            });
        }

        /// Run end, due timers, deadlock and recovery, budget, pick.
        fn next(&mut self) -> Next {
            if self.procs.iter().all(|p| !p.live()) {
                return Next::End(None);
            }
            self.fire_timers();
            if self.ready.is_empty() {
                let blocked: Vec<usize> = (0..self.procs.len())
                    .filter(|&i| matches!(self.procs[i].status, Status::Blocked(_)))
                    .collect();
                if self.recovery && !blocked.is_empty() {
                    let since = |i: usize| self.procs[i].wait.map_or(0, |(_, t)| t);
                    let victim = *blocked.iter().max_by_key(|&&i| (since(i), i)).unwrap();
                    return Next::Abort(victim);
                }
                let blocked: Vec<(Pid, String, String)> = blocked
                    .into_iter()
                    .map(|i| match self.procs[i].status {
                        Status::Blocked(reason) => {
                            (Pid(i as u32), format!("p{i}"), reason.to_string())
                        }
                        _ => unreachable!(),
                    })
                    .collect();
                return Next::End(
                    (!blocked.is_empty()).then_some(SimErrorKind::Deadlock { blocked }),
                );
            }
            if self.step >= MAX_STEPS {
                return Next::End(Some(SimErrorKind::MaxStepsExceeded { limit: MAX_STEPS }));
            }
            let idx = if self.ready.len() == 1 {
                0
            } else {
                let pids: Vec<Pid> = self.ready.iter().map(|&i| Pid(i as u32)).collect();
                let pick = self.policy.choose(&pids, self.step).min(pids.len() - 1);
                self.decisions.push(Decision {
                    arity: pids.len() as u32,
                    chosen: pick as u32,
                    kind: DecisionKind::Sched,
                });
                pick
            };
            let pid = self.ready.remove(idx);
            self.clock += 1;
            self.step += 1;
            self.procs[pid].status = Status::Running;
            if let Some(bound) = self.bound {
                for i in 0..self.procs.len() {
                    let p = &self.procs[i];
                    let (Status::Blocked(_), Some((reason, since)), false) =
                        (p.status, p.wait, p.flagged)
                    else {
                        continue;
                    };
                    let age = self.clock - since;
                    if age > bound {
                        self.procs[i].flagged = true;
                        self.starvation.push(StarvationFlag {
                            pid: Pid(i as u32),
                            name: format!("p{i}"),
                            reason: reason.to_string(),
                            since: Time(since),
                            flagged_at: Time(self.clock),
                            age,
                        });
                        self.event(i, EventKind::StarvationFlagged { age });
                    }
                }
            }
            self.event(pid, EventKind::Scheduled);
            Next::Run(pid)
        }

        fn fire_timers(&mut self) {
            while self.ready.is_empty() && !self.timers.is_empty() {
                self.timers.sort_unstable();
                self.clock = self.clock.max(self.timers[0].0);
                while self.timers.first().is_some_and(|t| t.0 <= self.clock) {
                    let (_, _, pid, token) = self.timers.remove(0);
                    let p = &mut self.procs[pid];
                    let due = match token {
                        None => p.status == Status::Sleeping,
                        Some(token) => {
                            token == p.park_token && matches!(p.status, Status::Blocked(_))
                        }
                    };
                    if !due {
                        continue;
                    }
                    p.timed_out = token.is_some();
                    p.status = Status::Ready;
                    self.ready.push(pid);
                    self.event(pid, EventKind::TimerFired);
                }
            }
        }

        fn add_timer(&mut self, ticks: u64, pid: usize, token: Option<u64>) {
            self.timers
                .push((self.clock + ticks, self.timers_made, pid, token));
            self.timers_made += 1;
        }

        /// Runs `pid` from where it stopped to its next stop.
        fn run(&mut self, pid: usize) {
            match self.procs[pid].resume {
                Resume::Next | Resume::Acquire => {}
                Resume::TimedWait => {
                    let woken = !std::mem::take(&mut self.procs[pid].timed_out);
                    if !woken {
                        self.q.retain(|&w| w != pid);
                    }
                    self.event(
                        pid,
                        EventKind::User {
                            label: "timed".into(),
                            params: vec![woken as i64],
                        },
                    );
                    self.procs[pid].pc += 1;
                }
            }
            let stop = loop {
                let p = &mut self.procs[pid];
                let Some(&op) = p.ops.get(p.pc) else {
                    break Stop::Finish;
                };
                p.resume = Resume::Next;
                match op {
                    Op::Yield => {
                        p.pc += 1;
                        break Stop::Yield;
                    }
                    Op::Sleep(ticks) => {
                        p.pc += 1;
                        break Stop::Sleep(ticks);
                    }
                    Op::TimedWait(ticks) => {
                        p.resume = Resume::TimedWait;
                        self.q.push_back(pid);
                        break Stop::TimedPark("q", ticks);
                    }
                    Op::Wake => {
                        p.pc += 1;
                        self.wake_front(pid, false);
                    }
                    Op::Acquire => {
                        if self.permits > 0 {
                            self.permits -= 1;
                            p.pc += 1;
                        } else {
                            p.resume = Resume::Acquire;
                            self.gate.push_back(pid);
                            break Stop::Park("gate");
                        }
                    }
                    Op::Release => {
                        p.pc += 1;
                        self.permits += 1;
                        self.wake_front(pid, true);
                    }
                }
            };
            self.stop(pid, stop);
        }

        /// Wakes the first still-blocked waiter of `q` (or `gate`),
        /// dropping entries of waiters that already timed out.
        fn wake_front(&mut self, by: usize, gate: bool) {
            loop {
                let front = if gate {
                    self.gate.pop_front()
                } else {
                    self.q.pop_front()
                };
                let Some(w) = front else { return };
                if matches!(self.procs[w].status, Status::Blocked(_)) {
                    self.event(w, EventKind::Unparked { by: Pid(by as u32) });
                    self.procs[w].status = Status::Ready;
                    self.ready.push(w);
                    return;
                }
            }
        }

        /// The unwind of a killed or aborted process drops its queue entry.
        fn dequeue(&mut self, pid: usize) {
            self.q.retain(|&w| w != pid);
            self.gate.retain(|&w| w != pid);
        }

        fn stop(&mut self, pid: usize, stop: Stop) {
            if let Stop::Park(reason) | Stop::TimedPark(reason, _) = stop {
                self.event(
                    pid,
                    EventKind::Blocked {
                        reason: reason.into(),
                    },
                );
            }
            if stop != Stop::Finish && self.kill.is_some_and(|(victim, _)| victim == pid) {
                let p = &mut self.procs[pid];
                p.stops += 1;
                if self.kill == Some((pid, p.stops)) {
                    self.kill = None;
                    p.status = Status::Killed;
                    self.event(pid, EventKind::Killed);
                    self.dequeue(pid);
                    return;
                }
            }
            let clock = self.clock;
            let p = &mut self.procs[pid];
            match stop {
                Stop::Yield | Stop::Sleep(_) | Stop::Finish => {
                    p.wait = None;
                    if stop != Stop::Finish {
                        p.flagged = false;
                    }
                }
                Stop::Park(reason) | Stop::TimedPark(reason, _) => {
                    if p.wait.map(|(r, _)| r) != Some(reason) {
                        p.wait = Some((reason, clock));
                        p.flagged = false;
                    }
                    p.status = Status::Blocked(reason);
                    p.park_token += 1;
                    p.timed_out = false;
                }
            }
            match stop {
                Stop::Yield => {
                    p.status = Status::Ready;
                    self.ready.push(pid);
                    self.event(pid, EventKind::Yielded);
                }
                Stop::Sleep(ticks) => {
                    p.status = Status::Sleeping;
                    self.add_timer(ticks, pid, None);
                    self.event(
                        pid,
                        EventKind::Slept {
                            until: Time(clock + ticks),
                        },
                    );
                }
                Stop::Park(_) => {}
                Stop::TimedPark(_, ticks) => {
                    let token = p.park_token;
                    self.add_timer(ticks, pid, Some(token));
                }
                Stop::Finish => {
                    p.status = Status::Finished;
                    self.event(pid, EventKind::Finished);
                }
            }
        }

        /// Deadlock recovery: the victim unwinds and ends cancelled.
        fn abort(&mut self, victim: usize) {
            self.event(victim, EventKind::Aborted);
            self.recovered.push(Pid(victim as u32));
            self.dequeue(victim);
            let p = &mut self.procs[victim];
            p.status = Status::Cancelled;
            p.wait = None;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The kernel runs random programs of yields, sleeps, timed waits and
    /// wakes, and re-park loops, with or without the starvation watchdog,
    /// a kill point and deadlock recovery, exactly as the single-threaded
    /// [`oracle`] predicts: the same error, trace, decisions, starvation
    /// flags, recovered victims, statuses and clock.
    #[test]
    fn kernel_matches_single_threaded_oracle(case in case()) {
        let result = run_program(&case);
        prop_assert_eq!(observed(&result), oracle::predict(&case));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Whatever the schedule, every operation of every process happens
    /// exactly once and per-process order is preserved.
    #[test]
    fn schedules_conserve_and_order_work(
        procs in 1usize..8,
        ops in 1usize..8,
        seed in any::<u64>(),
    ) {
        let (mut sim, log) = scenario(procs, ops);
        sim.set_policy(RandomPolicy::new(seed));
        sim.run().expect("no blocking in this scenario");
        let log = log.lock();
        prop_assert_eq!(log.len(), procs * ops);
        for p in 0..procs as i64 {
            let seen: Vec<i64> = log.iter().filter(|(q, _)| *q == p).map(|(_, o)| *o).collect();
            let expected: Vec<i64> = (0..ops as i64).collect();
            prop_assert_eq!(seen, expected, "per-process program order violated");
        }
    }

    /// An arbitrary replay script (possibly out of range, possibly short)
    /// never breaks the kernel: the run completes and is deterministic.
    #[test]
    fn arbitrary_replay_scripts_are_safe(
        procs in 1usize..6,
        ops in 1usize..6,
        script in prop::collection::vec(0u32..8, 0..40),
    ) {
        let run = |script: Vec<u32>| {
            let (mut sim, log) = scenario(procs, ops);
            sim.set_policy(ReplayPolicy::new(script));
            sim.run().expect("scenario cannot deadlock");
            let out = log.lock().clone();
            out
        };
        let a = run(script.clone());
        let b = run(script);
        prop_assert_eq!(&a, &b, "same script, same schedule");
        prop_assert_eq!(a.len(), procs * ops);
    }

    /// Recording a random run's decisions and replaying them reproduces
    /// the trace exactly, for any seed and shape.
    #[test]
    fn record_replay_round_trip(
        procs in 2usize..6,
        ops in 1usize..6,
        seed in any::<u64>(),
    ) {
        let (mut sim, log) = scenario(procs, ops);
        sim.set_policy(RandomPolicy::new(seed));
        let report = sim.run().unwrap();
        let original = log.lock().clone();
        let script: Vec<u32> = report.decisions.iter().map(|d| d.chosen).collect();

        let (mut sim2, log2) = scenario(procs, ops);
        sim2.set_policy(ReplayPolicy::new(script));
        sim2.run().unwrap();
        prop_assert_eq!(original, log2.lock().clone());
    }

    /// Sleeping processes always resume at or after their deadline.
    #[test]
    fn sleep_never_wakes_early(
        delays in prop::collection::vec(1u64..60, 1..6),
        seed in any::<u64>(),
    ) {
        let mut sim = Sim::new();
        sim.set_policy(RandomPolicy::new(seed));
        let ok = Arc::new(Mutex::new(true));
        for (i, &d) in delays.iter().enumerate() {
            let ok = Arc::clone(&ok);
            sim.spawn(&format!("s{i}"), move |ctx| {
                let before = ctx.now();
                ctx.sleep(d);
                if ctx.now().0 < before.0 + d {
                    *ok.lock() = false;
                }
            });
        }
        sim.run().unwrap();
        prop_assert!(*ok.lock());
    }
}
