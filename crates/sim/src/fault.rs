//! Deterministic fault injection: kill-points.
//!
//! A [`FaultPlan`] names the kills of a run up front, in terms that are a
//! pure function of the program: the victim's *name* and a 1-based count of
//! its own scheduling points. Because the simulator's virtual time and
//! scheduling points are deterministic, the same plan plus the same policy
//! yields the identical trace on every run — a crash scenario can be
//! replayed, shrunk, and explored exactly like a schedule.
//!
//! A kill terminates a process at its Nth scheduling point (its Nth
//! yield/park/sleep). The victim's thread unwinds, running its RAII
//! guards — which is how the mechanism crates release or poison whatever
//! the victim held — and is recorded as [`crate::ProcessStatus::Killed`],
//! distinct from a panic. Kills are the only fault: the crash axis (R1,
//! `DESIGN.md` §2.6) needs nothing else.

use crate::types::Pid;
use std::fmt;

/// Kill a named process at its `at_point`-th scheduling point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KillSpec {
    /// Spawn-time name of the victim.
    pub process: String,
    /// 1-based count of the victim's own scheduling points (yields, parks,
    /// sleeps); the kill takes effect at that stop, before the victim would
    /// resume.
    pub at_point: u64,
}

/// A deterministic schedule of kills for one simulation run.
///
/// Build with the chainable methods and install via
/// [`crate::SimConfig::faults`] or [`crate::Sim::set_fault_plan`]:
///
/// ```
/// use bloom_sim::{FaultPlan, Sim};
///
/// let mut sim = Sim::new();
/// sim.set_fault_plan(FaultPlan::new().kill("worker", 2));
/// sim.spawn("worker", |ctx| {
///     ctx.yield_now(); // scheduling point 1
///     ctx.yield_now(); // scheduling point 2: killed here
///     ctx.emit("never", &[]);
/// });
/// let report = sim.run().unwrap();
/// assert_eq!(report.killed(), vec![bloom_sim::Pid(0)]);
/// assert_eq!(report.trace.count_user("never"), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Kill-points, each fired at most once.
    pub kills: Vec<KillSpec>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a kill-point: terminate `process` at its `at_point`-th
    /// scheduling point (1-based).
    pub fn kill(mut self, process: &str, at_point: u64) -> Self {
        assert!(at_point > 0, "kill points are 1-based");
        self.kills.push(KillSpec {
            process: process.to_string(),
            at_point,
        });
        self
    }

    /// Whether the plan injects no faults at all.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty()
    }
}

/// A primitive was left poisoned by a process that died inside it.
///
/// Mechanism crates return this from their checked entry points when a
/// kill-point (or panic) unwound a process that held possession; see the
/// crash-safety sections of the mechanism crates. Defined here because the
/// mechanism crates must not depend on one another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Poisoned {
    /// Diagnostic name of the poisoned primitive.
    pub primitive: String,
    /// The process whose death poisoned it.
    pub by: Pid,
}

impl fmt::Display for Poisoned {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "primitive `{}` poisoned by crashed process {}",
            self.primitive, self.by
        )
    }
}

impl std::error::Error for Poisoned {}

/// Kernel-side fault bookkeeping: the plan plus per-process stop counters
/// and per-kill fired flags. Lives inside the kernel's `State`.
#[derive(Debug, Default)]
pub(crate) struct FaultRuntime {
    plan: FaultPlan,
    kill_fired: Vec<bool>,
    stops: Vec<u64>,
}

impl FaultRuntime {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultRuntime {
            kill_fired: vec![false; plan.kills.len()],
            plan,
            stops: Vec::new(),
        }
    }

    /// Whether the plan injects any fault at all (cheap guard for the hot
    /// path; a spec that already fired still counts).
    pub(crate) fn active(&self) -> bool {
        !self.plan.is_empty()
    }

    /// Counts a scheduling point (yield/park/sleep) of `pid`; returns
    /// whether a kill-point fires here.
    pub(crate) fn on_stop(&mut self, pid: Pid, name: &str) -> bool {
        if self.stops.len() <= pid.index() {
            self.stops.resize(pid.index() + 1, 0);
        }
        self.stops[pid.index()] += 1;
        let n = self.stops[pid.index()];
        for (i, k) in self.plan.kills.iter().enumerate() {
            if !self.kill_fired[i] && k.at_point == n && k.process == name {
                self.kill_fired[i] = true;
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builder_accumulates_specs() {
        let plan = FaultPlan::new().kill("a", 3).kill("b", 1);
        assert_eq!(plan.kills.len(), 2);
        assert_eq!(plan.kills[1].process, "b");
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn runtime_fires_each_spec_once() {
        let mut rt = FaultRuntime::new(FaultPlan::new().kill("v", 2));
        assert!(!rt.on_stop(Pid(0), "v"), "point 1: no fire");
        assert!(rt.on_stop(Pid(0), "v"), "point 2: fire");
        assert!(!rt.on_stop(Pid(0), "v"), "spec is one-shot");
    }

    #[test]
    fn runtime_counts_per_process() {
        let mut rt = FaultRuntime::new(FaultPlan::new().kill("v", 2));
        assert!(!rt.on_stop(Pid(0), "other"));
        assert!(!rt.on_stop(Pid(1), "v"));
        assert!(!rt.on_stop(Pid(0), "other"), "other's points don't count");
        assert!(rt.on_stop(Pid(1), "v"), "v's own second point fires");
    }
}
