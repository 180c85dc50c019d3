//! The host pool's size is exact: sequential simulations reuse every host,
//! so the pool holds as many threads as one simulation keeps live at once,
//! less the one its first process runs on, the thread that called
//! `Sim::run`.
//!
//! A test binary of its own, because the pool is global to the OS process:
//! no other test may run simulations while this one counts host threads.
//! Linux only (threads are counted through procfs).

#![cfg(target_os = "linux")]
#![deny(deprecated)]

use bloom_sim::{FaultPlan, Sim, WaitQueue};
use std::sync::{Arc, Mutex};

/// Serializes the tests of this binary: each counts the pool's threads.
static POOL: Mutex<()> = Mutex::new(());

/// Host threads alive in this OS process, found by the `sim-host-<n>`
/// names the pool gives them.
fn host_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("sim-host-"))
        .count()
}

/// Three yielding processes are all live until the end of each run. The
/// first runs on the caller's thread, so two hosts serve every run. A host
/// re-idles before it lowers its simulation's job gate, so when a run
/// returns both are idle and the next run's dispatches never find one
/// still busy and spawn more.
#[test]
fn sequential_runs_reuse_every_host() {
    let _pool = POOL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    const RUNS: usize = 5_000;
    for _ in 0..RUNS {
        let mut sim = Sim::new();
        for p in 0..3 {
            sim.spawn(&format!("p{p}"), |ctx| {
                ctx.yield_now();
                ctx.yield_now();
            });
        }
        sim.run().expect("yielding processes finish");
    }
    assert_eq!(
        host_threads(),
        2,
        "{RUNS} sequential runs of three live processes, the first on the \
         caller's thread, did not use exactly two hosts"
    );
}

/// Killed and aborted processes hand the CPU on from their own threads,
/// and hosts re-idle only afterwards. Three processes per run still need
/// exactly two hosts besides the caller's thread: a victim's host is busy
/// only while its own process would have been, so the next run finds both
/// idle again.
#[test]
fn kills_and_recovery_aborts_keep_the_pool_exact() {
    let _pool = POOL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    const RUNS: usize = 2_000;
    for run in 0..RUNS {
        let mut sim = Sim::new();
        // A kill at the victim's first or second yield, or deadlock
        // recovery aborting all three waiters in turn: the last to park
        // unwinds at its own stop and sends the next victim `Go::Abort`.
        if run % 3 < 2 {
            sim.set_fault_plan(FaultPlan::new().kill("p0", run as u64 % 3 + 1));
            for p in 0..3 {
                sim.spawn(&format!("p{p}"), |ctx| {
                    ctx.yield_now();
                    ctx.yield_now();
                });
            }
            let report = sim.run().expect("the survivors finish");
            assert_eq!(report.killed().len(), 1);
        } else {
            sim.enable_deadlock_recovery();
            let q = Arc::new(WaitQueue::new("q"));
            for p in 0..3 {
                let q = Arc::clone(&q);
                sim.spawn(&format!("p{p}"), move |ctx| q.wait(ctx));
            }
            let report = sim.run().expect("recovery aborts every waiter");
            assert_eq!(report.recovered.len(), 3);
        }
    }
    assert_eq!(
        host_threads(),
        2,
        "{RUNS} sequential runs of three processes with kills and aborts, \
         the first on the caller's thread, did not use exactly two hosts"
    );
}
