#![forbid(unsafe_code)]
#![deny(deprecated)]
//! Deterministic cooperative concurrency simulator.
//!
//! `bloom-sim` is the substrate every synchronization mechanism in this
//! workspace is built on. Simulated *processes* are ordinary Rust closures,
//! each hosted on its own OS thread, but a baton protocol guarantees that
//! **exactly one process executes at any instant**. Every blocking operation
//! (parking, sleeping, yielding) is a scheduling point at which a pluggable
//! [`SchedPolicy`] picks the next process to run. Given a policy, an entire
//! execution — including its virtual-time stamps and event trace — is a pure
//! function of the program, so any run can be replayed, shrunk, or
//! exhaustively explored.
//!
//! This determinism is what makes the paper's *behavioral* claims testable:
//! Bloom's analysis of the Figure-1 path-expression solution (footnote 3)
//! hinges on one specific interleaving of three processes, which
//! [`ExploreConfig::run`] can find mechanically.
//!
//! # Architecture
//!
//! * [`Sim`] — builder/owner of a simulation: spawn processes, pick a
//!   policy, [`Sim::run`] to completion.
//! * [`Ctx`] — the handle a process closure receives; all interaction with
//!   the kernel (parking, spawning, tracing) goes through it.
//! * [`WaitQueue`] — the one low-level blocking primitive; semaphores,
//!   monitors, serializers and path expressions are all built from it.
//! * [`Trace`] / [`Event`] — the totally ordered event log of a run;
//!   higher-level crates derive their correctness checks from it.
//! * [`ExploreConfig`] — bounded exhaustive enumeration of schedules
//!   (and, via [`ExploreConfig::run_kill_points`], of schedule ×
//!   kill-point spaces) on one inline worker or a pool of them.
//! * [`FaultPlan`] — deterministic fault injection: kill a named process
//!   at its Nth scheduling point. Kills are part of the run's coordinates,
//!   so a crash scenario replays exactly like a schedule.
//! * [`SimMetrics`] — per-run observability counters (dispatches, parks,
//!   wakes, queue depths, sync ops, replay divergence) attached to every
//!   [`SimReport`]; strictly *non-authoritative* — metrics observe
//!   scheduling, never influence it.
//! * [`export`] — serializes any trace + metrics pair to JSONL or the
//!   Chrome trace-event format (Perfetto-loadable), dependency-free.
//!
//! # The cooperative invariant
//!
//! Because only one process runs at a time and control transfers only at
//! explicit scheduling points, a *check-then-park* sequence inside a process
//! is atomic with respect to all other processes. Mechanism implementations
//! exploit this: there are no lost-wakeup races to defend against, so the
//! mechanism code stays close to the published pseudocode it reproduces.
//!
//! # Example
//!
//! ```
//! use bloom_sim::{Sim, WaitQueue};
//! use std::sync::Arc;
//!
//! let mut sim = Sim::new();
//! let q = Arc::new(WaitQueue::new("turnstile"));
//! let q2 = Arc::clone(&q);
//! sim.spawn("waiter", move |ctx| {
//!     q2.wait(ctx); // parks until woken
//!     ctx.emit("woken", &[]);
//! });
//! let q3 = Arc::clone(&q);
//! sim.spawn("waker", move |ctx| {
//!     ctx.yield_now(); // let the waiter park first
//!     q3.wake_one(ctx);
//! });
//! let report = sim.run().expect("no deadlock");
//! assert!(report.trace.user_events().any(|(_, label, _)| label == "woken"));
//! ```

mod baton;
mod ctx;
mod error;
mod explore;
pub mod export;
mod fault;
mod footprint;
mod kernel;
mod metrics;
mod parallel;
mod policy;
mod pool;
pub mod prelude;
mod retry;
mod revisit;
mod sample;
mod sim;
mod symbolic;
mod trace;
mod types;
mod waitq;

pub use ctx::Ctx;
pub use error::{SimError, SimErrorKind};
pub use explore::{
    ExploreConfig, ExploreError, ExploreStats, KillPointCount, PhaseTimes, PruneMode,
};
pub use fault::{FaultPlan, KillSpec, Poisoned};
pub use footprint::{Access, ObjId, Quantum, QuantumLog};
pub use kernel::{Cancelled, ProcessStatus, ProcessSummary, SimReport, StarvationFlag};
pub use metrics::{PidMetrics, ReplayDivergence, SimMetrics};
pub use parallel::ScheduleRecord;
pub use policy::{FifoPolicy, LifoPolicy, RandomPolicy, ReplayPolicy, SchedPolicy, SplitMix64};
pub use retry::{retry_with_backoff, Backoff, RetryOutcome};
pub use sample::{
    replay_exact, replay_prefix, shrink_prefix, SampleRecord, SampleStats, SampleStrategy,
};
pub use sim::{Sim, SimConfig};
pub use symbolic::{CmpOp, DataChoice, SymValue};
pub use trace::{Decision, DecisionKind, Event, EventKind, Trace};
pub use types::{Deadline, Pid, Time};
pub use waitq::WaitQueue;
