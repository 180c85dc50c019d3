//! One-stop imports for simulation-driving code.
//!
//! Examples, integration tests, and benchmark binaries all want the same
//! dozen names; `use bloom_sim::prelude::*;` brings them in without a
//! wall of `use` lines. Library crates should keep importing items
//! explicitly — a glob in a library obscures where names come from.

pub use crate::{
    replay_exact, replay_prefix, retry_with_backoff, shrink_prefix, Backoff, Ctx, Deadline,
    ExploreConfig, ExploreStats, FaultPlan, FifoPolicy, LifoPolicy, Pid, PruneMode, RandomPolicy,
    ReplayPolicy, RetryOutcome, SampleStats, SampleStrategy, SchedPolicy, ScheduleRecord, Sim,
    SimConfig, SimError, SimReport, SplitMix64, SymValue, Time, WaitQueue,
};
