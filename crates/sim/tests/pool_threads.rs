//! The host pool's size is exact: sequential simulations reuse every host,
//! so the pool holds as many threads as one simulation keeps live at once.
//!
//! A test binary of its own, because the pool is global to the OS process:
//! no other test may run simulations while this one counts host threads.
//! Linux only (threads are counted through procfs).

#![cfg(target_os = "linux")]
#![deny(deprecated)]

use bloom_sim::Sim;

/// Host threads alive in this OS process, found by the `sim-host-<n>`
/// names the pool gives them.
fn host_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("sim-host-"))
        .count()
}

/// Three yielding processes are all live until the end of each run, so
/// three hosts serve every run. A host re-idles before it lowers its
/// simulation's job gate, so when a run returns all three are idle and the
/// next run's first dispatches never find one still busy and spawn more.
#[test]
fn sequential_runs_reuse_every_host() {
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
        3,
        "{RUNS} sequential runs of three live processes grew the pool past three hosts"
    );
}
