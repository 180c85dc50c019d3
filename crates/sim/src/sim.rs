//! The public simulation builder and runner.

use crate::ctx::Ctx;
use crate::error::SimError;
use crate::fault::{FaultPlan, FaultRuntime};
use crate::kernel::{drive, Shared, SimReport};
use crate::policy::SchedPolicy;
use crate::types::Pid;
use std::sync::Arc;

/// Tunables for a simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Dispatch budget; exceeding it fails the run with
    /// [`crate::SimErrorKind::MaxStepsExceeded`]. Guards against livelock.
    pub max_steps: u64,
    /// Whether scheduler-level events (Scheduled/Yielded/…) are recorded in
    /// the trace. User events are always recorded. Disable for benchmarks.
    pub record_sched_events: bool,
    /// Deterministic faults to inject (kills, spurious wakes, delayed
    /// wakes). Empty by default. Fault events are always recorded.
    pub faults: FaultPlan,
    /// Starvation watchdog bound, in quanta. When set, any non-daemon whose
    /// current wait episode (consecutive parks on the same reason) is older
    /// than the bound while other processes are still being dispatched is
    /// flagged in the trace and in [`crate::SimReport::starvation`].
    /// Detection only — the flagged process keeps waiting. `None` (the
    /// default) disables the watchdog.
    pub starvation_bound: Option<u64>,
    /// When enabled, a detected deadlock aborts one victim (the most
    /// recently blocked non-daemon) through the kill-unwind machinery
    /// instead of failing the run: RAII guards roll the victim's
    /// registrations back, the victim ends as
    /// [`crate::ProcessStatus::Cancelled`], and the survivors continue.
    /// Victims are listed in [`crate::SimReport::recovered`]. Disabled by
    /// default: a deadlock fails the run with
    /// [`crate::SimErrorKind::Deadlock`].
    pub deadlock_recovery: bool,
    /// Whether per-dispatch access footprints are recorded in
    /// [`crate::SimReport::quanta`]. On by default (the log is what the
    /// exploration prune modes consume, and they force it on);
    /// disable for long throughput benchmarks where the log's allocation
    /// is measurable.
    pub record_quanta: bool,
    /// Whether process bodies run on recycled host threads from the global
    /// pool (`true`, the default — see `pool.rs`) or on a freshly
    /// spawned OS thread per process (`false`: the seed protocol, kept as
    /// the honest baseline for the exploration benchmarks). The two modes
    /// are observably identical — same traces, decisions, reports — and
    /// differ only in thread lifecycle cost.
    pub reuse_hosts: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_steps: 2_000_000,
            record_sched_events: true,
            faults: FaultPlan::new(),
            starvation_bound: None,
            deadlock_recovery: false,
            record_quanta: true,
            reuse_hosts: true,
        }
    }
}

/// A simulation under construction.
///
/// Spawn processes, optionally set a policy and config, then call
/// [`Sim::run`]. See the [crate docs](crate) for an end-to-end example.
pub struct Sim {
    shared: Arc<Shared>,
    config: SimConfig,
}

impl Sim {
    /// Creates a simulation with the default (FIFO round-robin) policy.
    pub fn new() -> Self {
        Sim::with_config(SimConfig::default())
    }

    /// Creates a simulation with explicit configuration.
    pub fn with_config(config: SimConfig) -> Self {
        let faults = FaultRuntime::new(config.faults.clone());
        Sim {
            shared: Shared::new(&config, faults),
            config,
        }
    }

    /// Replaces the scheduling policy.
    pub fn set_policy<P: SchedPolicy + 'static>(&mut self, policy: P) -> &mut Self {
        self.shared.state.lock().policy = Box::new(policy);
        self
    }

    /// Replaces the fault plan (call before [`Sim::run`]).
    ///
    /// Equivalent to setting [`SimConfig::faults`] up front; this form
    /// suits code that wraps an existing setup closure (see
    /// [`crate::ExploreConfig::run_kill_points`]).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> &mut Self {
        self.config.faults = plan.clone();
        self.shared.state.lock().faults = FaultRuntime::new(plan);
        self
    }

    /// Enables the starvation watchdog with the given age bound (see
    /// [`SimConfig::starvation_bound`]).
    pub fn set_starvation_bound(&mut self, bound: u64) -> &mut Self {
        self.config.starvation_bound = Some(bound);
        self.shared.state.lock().starvation_bound = Some(bound);
        self
    }

    /// Enables deadlock recovery (see [`SimConfig::deadlock_recovery`]).
    pub fn enable_deadlock_recovery(&mut self) -> &mut Self {
        self.config.deadlock_recovery = true;
        self.shared.state.lock().deadlock_recovery = true;
        self
    }

    /// Turns the per-dispatch footprint log on or off (see
    /// [`SimConfig::record_quanta`]). Exploration calls this to force it
    /// on when a prune mode is set.
    pub fn set_record_quanta(&mut self, on: bool) -> &mut Self {
        self.config.record_quanta = on;
        self.shared.state.lock().record_quanta = on;
        self
    }

    /// Spawns a process; it becomes runnable when the simulation starts.
    pub fn spawn<F>(&mut self, name: &str, f: F) -> Pid
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        self.shared.spawn_process(name, false, f)
    }

    /// Spawns a daemon process (see [`Ctx::spawn_daemon`]).
    pub fn spawn_daemon<F>(&mut self, name: &str, f: F) -> Pid
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        self.shared.spawn_process(name, true, f)
    }

    /// Runs the simulation to completion.
    ///
    /// Completion means every non-daemon process finished (daemons are then
    /// cancelled). Failures — deadlock, process panic, step-budget
    /// exhaustion — are returned as [`SimError`], which still carries the
    /// full [`SimReport`] for diagnosis.
    pub fn run(self) -> Result<SimReport, SimError> {
        drive(&self.shared)
    }
}

impl Default for Sim {
    fn default() -> Self {
        Sim::new()
    }
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let policy = self.shared.state.lock().policy.name().to_string();
        f.debug_struct("Sim")
            .field("policy", &policy)
            .field("config", &self.config)
            .finish()
    }
}
