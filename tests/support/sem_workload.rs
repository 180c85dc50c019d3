//! The random semaphore workload family that `prune_soundness` and
//! `class_oracle` explore: two generated process programs of critical
//! sections, nonblocking attempts and bare notes over two strong
//! semaphores, plus an optional one-note third process. Each oracle
//! includes this file with `#[path]` and keeps its own checks.

use bloom_semaphore::Semaphore;
use bloom_sim::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// One step of a generated process program.
#[derive(Debug, Clone, Copy)]
pub enum Step {
    /// `p`, emit `enter:c<k>`, yield once, emit `exit:c<k>`, `v` on
    /// semaphore `k` — a critical section with a preemption window inside.
    Crit(usize),
    /// `try_p_ctx` on semaphore `k`: the critical section if a permit was
    /// free, an observable `miss` note otherwise. The branch's outcome
    /// depends on the schedule, so the attempt must be footprint-visible
    /// to the prune — the regression case for the bare `try_p` blind spot.
    TryCrit(usize),
    /// A user event with no synchronization at all.
    Note(u8),
}

pub fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0usize..2).prop_map(Step::Crit),
        (0usize..2).prop_map(Step::TryCrit),
        (0u8..3).prop_map(Step::Note),
    ]
}

/// Two full programs plus an optional one-note third process.
pub type Workload = (Vec<Step>, Vec<Step>, Option<u8>);

/// Enough to contest every dispatch, small enough that the *unpruned*
/// tree stays well under budget.
pub fn workload() -> impl Strategy<Value = Workload> {
    (
        prop::collection::vec(step(), 1..3),
        prop::collection::vec(step(), 1..3),
        prop_oneof![Just(None), (0u8..3).prop_map(Some)],
    )
}

/// Runs step `op` of process `i`.
pub fn exec_step(ctx: &Ctx, sems: &[Semaphore; 2], i: usize, op: Step) {
    match op {
        Step::Crit(k) => {
            sems[k].p(ctx);
            ctx.emit(&format!("enter:c{k}"), &[]);
            ctx.yield_now();
            ctx.emit(&format!("exit:c{k}"), &[]);
            sems[k].v(ctx);
        }
        Step::TryCrit(k) => {
            if sems[k].try_p_ctx(ctx) {
                ctx.emit(&format!("enter:c{k}"), &[]);
                ctx.yield_now();
                ctx.emit(&format!("exit:c{k}"), &[]);
                sems[k].v(ctx);
            } else {
                ctx.emit(&format!("miss:{k}"), &[]);
            }
        }
        Step::Note(tag) => ctx.emit(&format!("note:{i}:{tag}"), &[]),
    }
}

/// The workload's processes `p0`, `p1` and the optional `p2`, over
/// semaphores `s0` and `s1`.
pub fn build_sim(workload: &Workload) -> Sim {
    let mut sim = Sim::new();
    let sems: Arc<[Semaphore; 2]> =
        Arc::new([Semaphore::strong("s0", 1), Semaphore::strong("s1", 1)]);
    let programs = [workload.0.clone(), workload.1.clone()];
    for (i, program) in programs.into_iter().enumerate() {
        let sems = Arc::clone(&sems);
        sim.spawn(&format!("p{i}"), move |ctx| {
            for op in program {
                exec_step(ctx, &sems, i, op);
            }
        });
    }
    if let Some(tag) = workload.2 {
        sim.spawn("p2", move |ctx| ctx.emit(&format!("note:2:{tag}"), &[]));
    }
    sim
}
