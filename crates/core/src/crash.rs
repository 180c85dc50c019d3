//! Crash-robustness checkers over whole simulation runs.
//!
//! The paper evaluates mechanisms on expressive power and modularity;
//! this module adds the robustness axis the fault-injection plane
//! (`bloom_sim::FaultPlan`) makes measurable: *what happens to everyone
//! else when a process dies at an arbitrary point?* Three verdicts are
//! possible, and the checkers here assign and validate them:
//!
//! * **Contained** — the run completes; surviving processes finish
//!   normally and no primitive was poisoned. The mechanism (or the
//!   solution's structure) absorbed the crash.
//! * **Poisoned** — the run completes because a crash-safe primitive
//!   converted the crash into an explicit, observable verdict
//!   (`poison:<primitive>` in the trace) that survivors saw instead of
//!   wedging behind the corpse.
//! * **Wedged** — the run fails. A *reported* deadlock is still a loud,
//!   diagnosable failure (the simulator names every blocked process);
//!   what [`check_crash_containment`] rejects is the silent kind —
//!   livelock (step-budget exhaustion) or a survivor panicking on
//!   corrupted state.
//!
//! Unlike the constraint checkers in [`crate::checks`], these consume the
//! whole [`SimReport`]/[`SimError`] (final process statuses matter, not
//! just the event stream).

use crate::checks::Violation;
use bloom_sim::{EventKind, Pid, SimError, SimErrorKind, SimReport, Trace};
use std::collections::BTreeMap;
use std::fmt;

/// The crash-robustness verdict for one (mechanism, scenario) cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CrashOutcome {
    /// The run completed and no primitive was poisoned: survivors never
    /// even saw the crash.
    Contained,
    /// The run completed because a primitive was poisoned: survivors
    /// observed an explicit verdict instead of wedging.
    Poisoned,
    /// The run failed (deadlock, livelock, or cascading panic): the crash
    /// took the rest of the system down with it.
    Wedged,
}

impl fmt::Display for CrashOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CrashOutcome::Contained => "contained",
            CrashOutcome::Poisoned => "poisoned",
            CrashOutcome::Wedged => "wedged",
        })
    }
}

/// Classifies a faulted run into its [`CrashOutcome`].
pub fn classify_crash(result: &Result<SimReport, SimError>) -> CrashOutcome {
    match result {
        Err(_) => CrashOutcome::Wedged,
        Ok(report) => {
            let poisoned = report
                .trace
                .user_events()
                .any(|(_, label, _)| label.starts_with("poison:"));
            if poisoned {
                CrashOutcome::Poisoned
            } else {
                CrashOutcome::Contained
            }
        }
    }
}

/// Checks that a crash was *contained*: killed processes died and stayed
/// dead, every surviving non-daemon process ran to completion, and the
/// failure mode — if any — was loud.
///
/// Accepted outcomes:
///
/// * `Ok` where every process in `victims` ended [`Killed`] and every
///   other non-daemon process ended [`Finished`];
/// * `Err` with a *reported deadlock* — the simulator names each blocked
///   process and its wait reason, so the operator can diagnose it. A
///   wedge is a robustness failure (see [`classify_crash`]), but it is
///   not a *containment* failure.
///
/// Rejected outcomes (violations):
///
/// * `Err(MaxStepsExceeded)` — the crash degenerated into a silent
///   livelock, the worst failure mode;
/// * `Err(ProcessPanicked)` — the crash cascaded: a survivor tripped
///   over state the victim left behind;
/// * `Ok` where a victim is not `Killed` (the fault plan never fired) or
///   a surviving non-daemon is not `Finished`.
///
/// [`Killed`]: bloom_sim::ProcessStatus::Killed
/// [`Finished`]: bloom_sim::ProcessStatus::Finished
pub fn check_crash_containment(
    result: &Result<SimReport, SimError>,
    victims: &[Pid],
) -> Vec<Violation> {
    use bloom_sim::ProcessStatus;
    let mut violations = Vec::new();
    match result {
        Err(e) => {
            let end = e.report.trace.len() as u64;
            match &e.kind {
                SimErrorKind::Deadlock { .. } => {} // loud: contained
                SimErrorKind::MaxStepsExceeded { limit } => violations.push(Violation {
                    at_seq: end,
                    message: format!(
                        "crash degenerated into a livelock (step budget {limit} exhausted)"
                    ),
                }),
                SimErrorKind::ProcessPanicked { pid, message } => violations.push(Violation {
                    at_seq: end,
                    message: format!("crash cascaded: surviving process {pid} panicked: {message}"),
                }),
            }
        }
        Ok(report) => {
            let end = report.trace.len() as u64;
            for p in &report.processes {
                if victims.contains(&p.pid) {
                    if p.status != ProcessStatus::Killed {
                        violations.push(Violation {
                            at_seq: end,
                            message: format!(
                                "victim {} \"{}\" was not killed (status {:?}): the fault \
                                 plan never fired",
                                p.pid, p.name, p.status
                            ),
                        });
                    }
                } else if !p.daemon && p.status != ProcessStatus::Finished {
                    violations.push(Violation {
                        at_seq: end,
                        message: format!(
                            "survivor {} \"{}\" did not finish (status {:?})",
                            p.pid, p.name, p.status
                        ),
                    });
                }
            }
        }
    }
    violations
}

/// Checks the poison protocol itself over a trace:
///
/// * a primitive is poisoned **at most once** — possession is exclusive,
///   so two `poison:<p>` events mean the guard fired for a process that
///   never held possession;
/// * every `poison:<p>` is preceded by a `Killed` **or** `Aborted` event
///   **for the same process** — poison may only originate from the unwind
///   of an injected kill or of a deadlock-recovery abort, never from
///   healthy code;
/// * every `poison-seen:<p>` observation comes **after** the poisoning —
///   nobody can observe a verdict that does not exist yet.
pub fn check_poison_propagation(trace: &Trace) -> Vec<Violation> {
    let mut violations = Vec::new();
    // seq of each process's Killed/Aborted event (at most one per process:
    // either way the process never runs again).
    let killed_at: BTreeMap<Pid, u64> = trace
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Killed | EventKind::Aborted))
        .map(|e| (e.pid, e.seq))
        .collect();
    // First poison event per primitive.
    let mut poisoned_at: BTreeMap<&str, u64> = BTreeMap::new();
    for (event, label, _) in trace.user_events() {
        if let Some(primitive) = label.strip_prefix("poison:") {
            match poisoned_at.get(primitive) {
                Some(first) => violations.push(Violation {
                    at_seq: event.seq,
                    message: format!(
                        "primitive `{primitive}` poisoned twice (first at seq {first}): \
                         possession is exclusive, so a second poisoner cannot exist"
                    ),
                }),
                None => {
                    poisoned_at.insert(primitive, event.seq);
                    match killed_at.get(&event.pid) {
                        Some(&k) if k < event.seq => {}
                        _ => violations.push(Violation {
                            at_seq: event.seq,
                            message: format!(
                                "primitive `{primitive}` poisoned by {} without a preceding \
                                 kill or abort of that process: poison must originate from a \
                                 crash or a recovery abort",
                                event.pid
                            ),
                        }),
                    }
                }
            }
        } else if let Some(primitive) = label.strip_prefix("poison-seen:") {
            match poisoned_at.get(primitive) {
                Some(&p) if p < event.seq => {}
                _ => violations.push(Violation {
                    at_seq: event.seq,
                    message: format!(
                        "{} observed poison on `{primitive}` before any poisoning happened",
                        event.pid
                    ),
                }),
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use bloom_sim::{FaultPlan, Sim};

    /// Runs a healthy two-process sim with a kill, where the victim's
    /// unwind emits a poison event via a drop guard and the survivor
    /// observes it.
    fn poisoned_run() -> Result<SimReport, SimError> {
        let mut sim = Sim::new();
        sim.set_fault_plan(FaultPlan::new().kill("victim", 1));
        sim.spawn("victim", |ctx| {
            let guard = scopeguard(ctx);
            ctx.yield_now(); // killed here
            std::mem::forget(guard);
        });
        sim.spawn("survivor", |ctx| {
            ctx.yield_now();
            ctx.yield_now();
            ctx.emit("poison-seen:L", &[]);
        });
        sim.run()
    }

    /// A minimal drop guard emitting `poison:L`, standing in for the
    /// mechanism crates' real guards.
    fn scopeguard(ctx: &bloom_sim::Ctx) -> impl Drop + '_ {
        struct G<'a>(&'a bloom_sim::Ctx);
        impl Drop for G<'_> {
            fn drop(&mut self) {
                self.0.emit("poison:L", &[]);
            }
        }
        G(ctx)
    }

    #[test]
    fn classify_distinguishes_the_three_outcomes() {
        // Contained: clean run, no poison.
        let mut sim = Sim::new();
        sim.set_fault_plan(FaultPlan::new().kill("victim", 1));
        sim.spawn("victim", |ctx| ctx.yield_now());
        sim.spawn("survivor", |_| {});
        let contained = sim.run();
        assert_eq!(classify_crash(&contained), CrashOutcome::Contained);

        // Poisoned: run completes with a poison event.
        let poisoned = poisoned_run();
        assert_eq!(classify_crash(&poisoned), CrashOutcome::Poisoned);

        // Wedged: survivor parks forever behind the corpse.
        let mut sim = Sim::new();
        sim.set_fault_plan(FaultPlan::new().kill("victim", 1));
        sim.spawn("victim", |ctx| {
            ctx.park("the-resource", None);
        });
        sim.spawn("stuck", |ctx| {
            ctx.park("the-resource", None);
        });
        let wedged = sim.run();
        assert_eq!(classify_crash(&wedged), CrashOutcome::Wedged);
    }

    #[test]
    fn containment_accepts_clean_kill_and_reported_deadlock() {
        let r = poisoned_run();
        let victims = vec![Pid(0)];
        crate::checks::expect_clean(&check_crash_containment(&r, &victims), "poisoned run");

        // A reported deadlock is loud, hence contained.
        let mut sim = Sim::new();
        sim.set_fault_plan(FaultPlan::new().kill("victim", 1));
        sim.spawn("victim", |ctx| {
            ctx.park("lost", None);
        });
        sim.spawn("stuck", |ctx| {
            ctx.park("lost", None);
        });
        let r = sim.run();
        assert!(r.is_err());
        crate::checks::expect_clean(&check_crash_containment(&r, &victims), "loud deadlock");
    }

    #[test]
    fn containment_rejects_unfired_plan_and_unfinished_survivor() {
        // The plan names a process that never reaches its kill point.
        let mut sim = Sim::new();
        sim.set_fault_plan(FaultPlan::new().kill("victim", 5));
        sim.spawn("victim", |ctx| ctx.yield_now());
        let r = sim.run();
        let v = check_crash_containment(&r, &[Pid(0)]);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("never fired"));
    }

    #[test]
    fn containment_rejects_cascading_panic() {
        let mut sim = Sim::new();
        sim.set_fault_plan(FaultPlan::new().kill("victim", 1));
        sim.spawn("victim", |ctx| ctx.yield_now());
        sim.spawn("fragile", |ctx| {
            ctx.yield_now();
            ctx.yield_now();
            panic!("tripped over the corpse's state");
        });
        let r = sim.run();
        let v = check_crash_containment(&r, &[Pid(0)]);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("cascaded"));
    }

    #[test]
    fn poison_propagation_accepts_the_real_protocol() {
        let r = poisoned_run().expect("run completes");
        crate::checks::expect_clean(&check_poison_propagation(&r.trace), "protocol");
    }

    #[test]
    fn poison_propagation_rejects_spontaneous_and_premature_events() {
        // `poison:` from a healthy (never-killed) process.
        let mut sim = Sim::new();
        sim.spawn("liar", |ctx| ctx.emit("poison:L", &[]));
        let r = sim.run().unwrap();
        let v = check_poison_propagation(&r.trace);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("without a preceding kill"));

        // `poison-seen:` before any poisoning.
        let mut sim = Sim::new();
        sim.spawn("eager", |ctx| ctx.emit("poison-seen:L", &[]));
        let r = sim.run().unwrap();
        let v = check_poison_propagation(&r.trace);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("before any poisoning"));
    }

    #[test]
    fn poison_propagation_rejects_double_poisoning() {
        let mut sim = Sim::new();
        sim.set_fault_plan(FaultPlan::new().kill("victim", 1));
        sim.spawn("victim", |ctx| {
            let g1 = scopeguard(ctx);
            let g2 = scopeguard(ctx);
            ctx.yield_now(); // killed: both guards fire
            std::mem::forget(g1);
            std::mem::forget(g2);
        });
        let r = sim.run().unwrap();
        let v = check_poison_propagation(&r.trace);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("poisoned twice"));
    }
}
