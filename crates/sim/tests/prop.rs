//! Property-based tests of the simulator kernel.

#![deny(deprecated)]

use bloom_sim::{
    Decision, Event, ProcessStatus, RandomPolicy, ReplayPolicy, Sim, SimConfig, SimError,
    SimMetrics, SimReport, StarvationFlag, Time, WaitQueue,
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

/// One step of a differential-test program.
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

/// Runs `program` (one op list per process) under a seeded random policy,
/// with the starvation watchdog at `bound` (0: off).
fn run_program(
    program: &[Vec<Op>],
    seed: u64,
    bound: u64,
    reuse_hosts: bool,
) -> Result<SimReport, SimError> {
    let mut sim = Sim::with_config(SimConfig {
        max_steps: 10_000,
        reuse_hosts,
        ..SimConfig::default()
    });
    sim.set_policy(RandomPolicy::new(seed));
    if bound > 0 {
        sim.set_starvation_bound(bound);
    }
    let q = Arc::new(WaitQueue::new("q"));
    let gate = Arc::new(WaitQueue::new("gate"));
    let permits = Arc::new(Mutex::new(0u32));
    for (i, ops) in program.iter().enumerate() {
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

/// Everything a run shows apart from the host-protocol counters.
type Observed = (
    Option<String>,
    Vec<Event>,
    Vec<Decision>,
    Vec<StarvationFlag>,
    Time,
    Vec<ProcessStatus>,
    SimMetrics,
);

fn report_of(result: &Result<SimReport, SimError>) -> &SimReport {
    match result {
        Ok(report) => report,
        Err(err) => &err.report,
    }
}

fn observed(result: &Result<SimReport, SimError>) -> Observed {
    let report = report_of(result);
    let mut metrics = report.metrics.clone();
    metrics.self_resumes = 0;
    metrics.loop_wakes = 0;
    (
        result.as_ref().err().map(|err| format!("{:?}", err.kind)),
        report.trace.events().to_vec(),
        report.decisions.clone(),
        report.starvation.clone(),
        report.final_time,
        report.processes.iter().map(|p| p.status.clone()).collect(),
        metrics,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The inline continuation (pooled hosts) and the seed protocol
    /// (`reuse_hosts: false`) are the same kernel: for random programs of
    /// yields, sleeps, timed waits and wakes, and re-park loops, with or
    /// without the starvation watchdog, both give the same trace,
    /// decisions, flags, clock, statuses and metrics. Only how the CPU
    /// moved between OS threads differs: the seed protocol wakes the loop
    /// at every dispatch, the inline one only at the end of the run.
    #[test]
    fn inline_continuation_matches_seed_protocol(
        program in prop::collection::vec(prop::collection::vec(op(), 0..6), 1..5),
        seed in any::<u64>(),
        bound in 0u64..6,
    ) {
        let pooled = run_program(&program, seed, bound, true);
        let legacy = run_program(&program, seed, bound, false);
        prop_assert_eq!(observed(&pooled), observed(&legacy));
        let (pooled, legacy) = (&report_of(&pooled).metrics, &report_of(&legacy).metrics);
        prop_assert_eq!(pooled.loop_wakes, 1);
        prop_assert_eq!((legacy.self_resumes, legacy.loop_wakes), (0, legacy.dispatches));
    }

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
