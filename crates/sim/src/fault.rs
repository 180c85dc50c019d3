//! Deterministic fault injection: kill-points, spurious wakeups, and
//! delayed wakes.
//!
//! A [`FaultPlan`] names the faults of a run up front, in terms that are a
//! pure function of the program: the victim's *name* and a 1-based count of
//! its own scheduling points. Because the simulator's virtual time and
//! scheduling points are deterministic, the same plan plus the same policy
//! yields the identical trace on every run — a crash scenario can be
//! replayed, shrunk, and explored exactly like a schedule.
//!
//! * **Kill-points** terminate a process at its Nth scheduling point (its
//!   Nth yield/park/sleep). The victim's thread unwinds, running its RAII
//!   guards — which is how the mechanism crates release or poison whatever
//!   the victim held — and is recorded as [`crate::ProcessStatus::Killed`],
//!   distinct from a panic.
//! * **Spurious wakeups** make a park return without a matching unpark.
//!   [`crate::Ctx::park`] absorbs them transparently (re-parking), so they
//!   validate the kernel's park protocol without requiring mechanisms to
//!   carry defensive re-check loops the cooperative invariant forbids.
//! * **Delayed wakes** turn the Nth unpark of a process into a timed sleep,
//!   shifting *when* the wakee runs without changing any hand-off decision.

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

/// Wake a named process spuriously at its `at_park`-th plain park.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpuriousSpec {
    /// Spawn-time name of the process to wake.
    pub process: String,
    /// 1-based count of the process's plain (untimed) parks.
    pub at_park: u64,
}

/// Delay the `at_unpark`-th unpark of a named process by `ticks`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelaySpec {
    /// Spawn-time name of the process whose wake is delayed.
    pub process: String,
    /// 1-based count of unparks delivered to the process.
    pub at_unpark: u64,
    /// Virtual-time delay applied to that wake.
    pub ticks: u64,
}

/// A deterministic schedule of faults for one simulation run.
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
    /// Spurious wakeups, each fired at most once.
    pub spurious_wakes: Vec<SpuriousSpec>,
    /// Delayed wakes, each fired at most once.
    pub delayed_wakes: Vec<DelaySpec>,
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

    /// Adds a spurious wakeup at `process`'s `at_park`-th plain park
    /// (1-based).
    pub fn spurious_wake(mut self, process: &str, at_park: u64) -> Self {
        assert!(at_park > 0, "park counts are 1-based");
        self.spurious_wakes.push(SpuriousSpec {
            process: process.to_string(),
            at_park,
        });
        self
    }

    /// Delays the `at_unpark`-th unpark of `process` (1-based) by `ticks`
    /// of virtual time.
    pub fn delay_wake(mut self, process: &str, at_unpark: u64, ticks: u64) -> Self {
        assert!(at_unpark > 0, "unpark counts are 1-based");
        assert!(ticks > 0, "a zero-tick delay is not a fault");
        self.delayed_wakes.push(DelaySpec {
            process: process.to_string(),
            at_unpark,
            ticks,
        });
        self
    }

    /// Whether the plan injects no faults at all.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty() && self.spurious_wakes.is_empty() && self.delayed_wakes.is_empty()
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

/// Kernel-side fault bookkeeping: the plan plus per-process counters and
/// per-spec fired flags. Lives inside the kernel's `State`.
#[derive(Debug, Default)]
pub(crate) struct FaultRuntime {
    plan: FaultPlan,
    kill_fired: Vec<bool>,
    spurious_fired: Vec<bool>,
    delay_fired: Vec<bool>,
    stops: Vec<u64>,
    parks: Vec<u64>,
    unparks: Vec<u64>,
}

impl FaultRuntime {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultRuntime {
            kill_fired: vec![false; plan.kills.len()],
            spurious_fired: vec![false; plan.spurious_wakes.len()],
            delay_fired: vec![false; plan.delayed_wakes.len()],
            plan,
            stops: Vec::new(),
            parks: Vec::new(),
            unparks: Vec::new(),
        }
    }

    /// Whether the plan injects any fault at all (cheap guard for the hot
    /// path; a spec that already fired still counts).
    pub(crate) fn active(&self) -> bool {
        !self.plan.is_empty()
    }

    fn bump(counters: &mut Vec<u64>, pid: Pid) -> u64 {
        if counters.len() <= pid.index() {
            counters.resize(pid.index() + 1, 0);
        }
        counters[pid.index()] += 1;
        counters[pid.index()]
    }

    /// Counts a scheduling point (yield/park/sleep) of `pid`; returns
    /// whether a kill-point fires here.
    pub(crate) fn on_stop(&mut self, pid: Pid, name: &str) -> bool {
        let n = Self::bump(&mut self.stops, pid);
        for (i, k) in self.plan.kills.iter().enumerate() {
            if !self.kill_fired[i] && k.at_point == n && k.process == name {
                self.kill_fired[i] = true;
                return true;
            }
        }
        false
    }

    /// Counts a plain park of `pid`; returns whether a spurious wake fires.
    pub(crate) fn on_park(&mut self, pid: Pid, name: &str) -> bool {
        let n = Self::bump(&mut self.parks, pid);
        for (i, s) in self.plan.spurious_wakes.iter().enumerate() {
            if !self.spurious_fired[i] && s.at_park == n && s.process == name {
                self.spurious_fired[i] = true;
                return true;
            }
        }
        false
    }

    /// Counts an unpark delivered to `pid`; returns the delay in ticks if a
    /// delayed wake fires on this unpark.
    pub(crate) fn on_unpark(&mut self, pid: Pid, name: &str) -> Option<u64> {
        let n = Self::bump(&mut self.unparks, pid);
        for (i, d) in self.plan.delayed_wakes.iter().enumerate() {
            if !self.delay_fired[i] && d.at_unpark == n && d.process == name {
                self.delay_fired[i] = true;
                return Some(d.ticks);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builder_accumulates_specs() {
        let plan = FaultPlan::new()
            .kill("a", 3)
            .spurious_wake("b", 1)
            .delay_wake("c", 2, 10);
        assert_eq!(plan.kills.len(), 1);
        assert_eq!(plan.spurious_wakes.len(), 1);
        assert_eq!(plan.delayed_wakes.len(), 1);
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

    #[test]
    fn delay_reports_ticks() {
        let mut rt = FaultRuntime::new(FaultPlan::new().delay_wake("w", 1, 7));
        assert_eq!(rt.on_unpark(Pid(3), "w"), Some(7));
        assert_eq!(rt.on_unpark(Pid(3), "w"), None);
    }
}
