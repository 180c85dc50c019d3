//! Liveness-robustness checkers over whole simulation runs (axis R2).
//!
//! [`crate::crash`] asks *what happens to everyone else when a process
//! dies*; this module asks the paper's other failure question — §5's
//! weak-semaphore starvation, nested-monitor deadlock, and priority
//! anomaly are all about requests that **never complete**. The liveness
//! layer in `bloom-sim` (deadlines and timed waits, the kernel starvation
//! watchdog, deadlock recovery by victim abort) makes that measurable, and
//! the checkers here assign one of three verdicts, mirroring R1's
//! contained/poisoned/wedged:
//!
//! * **Recovers** — the run completes, every surviving requester finishes,
//!   no primitive is poisoned, nobody is flagged as starved, and nobody
//!   permanently gave up — and nobody ever had to withdraw: every request
//!   was served within its first patience window.
//! * **RecoversAfterRetry** — same clean ending, but the trace shows the
//!   price of getting there: at least one `timed-out:`/`retry:` marker,
//!   i.e. a waiter withdrew a timed request and only a later attempt
//!   succeeded. Separating this from *degrades* is the point of the
//!   retry-with-backoff helper (`bloom_sim::retry_with_backoff`): a
//!   bounded retry loop that wins is a recovery, not a degradation — but
//!   it is not free either, so the matrix should show it.
//! * **Degrades** — the run completes, but only by paying a visible
//!   price: a primitive was poisoned by an aborted victim's unwind, the
//!   watchdog flagged a starved waiter, a requester gave up for good
//!   (`gave-up:` in the trace), or recovery consumed every requester so
//!   no useful work finished.
//! * **Wedges** — the run fails outright: unrecovered deadlock, livelock
//!   (step-budget exhaustion), or a cascading panic.

use crate::checks::Violation;
use bloom_sim::{EventKind, ProcessStatus, SimError, SimErrorKind, SimReport};
use std::fmt;

/// The liveness-robustness verdict for one (mechanism, scenario) cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LivenessOutcome {
    /// Every requester was served within its first patience window: no
    /// withdrawal, no poison, no flag.
    Recovers,
    /// Every requester was eventually served, but only after at least one
    /// clean withdrawal (`timed-out:`/`retry:` in the trace) — recovery
    /// with a visible retry cost, kept distinct from
    /// [`LivenessOutcome::Degrades`].
    RecoversAfterRetry,
    /// The system kept going, but visibly worse off: poison, a starvation
    /// flag, a permanent give-up, or no survivor progress.
    Degrades,
    /// The run failed (deadlock, livelock, or cascading panic).
    Wedges,
}

impl fmt::Display for LivenessOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LivenessOutcome::Recovers => "recovers",
            LivenessOutcome::RecoversAfterRetry => "recovers-after-retry",
            LivenessOutcome::Degrades => "degrades",
            LivenessOutcome::Wedges => "wedges",
        })
    }
}

/// Classifies a run of a liveness scenario into its [`LivenessOutcome`].
pub fn classify_liveness(result: &Result<SimReport, SimError>) -> LivenessOutcome {
    match result {
        Err(_) => LivenessOutcome::Wedges,
        Ok(report) => {
            let poisoned = report
                .trace
                .user_events()
                .any(|(_, label, _)| label.starts_with("poison:"));
            let gave_up = report
                .trace
                .user_events()
                .any(|(_, label, _)| label.starts_with("gave-up:"));
            let starved = !report.starvation.is_empty();
            let mut non_daemons = 0usize;
            let mut finished = 0usize;
            let mut stranded = false;
            for p in &report.processes {
                if p.daemon {
                    continue;
                }
                non_daemons += 1;
                match &p.status {
                    ProcessStatus::Finished => finished += 1,
                    ProcessStatus::Cancelled if report.recovered.contains(&p.pid) => {}
                    _ => stranded = true,
                }
            }
            let no_progress = non_daemons > 0 && finished == 0;
            if poisoned || gave_up || starved || stranded || no_progress {
                LivenessOutcome::Degrades
            } else if report
                .trace
                .user_events()
                .any(|(_, label, _)| label.starts_with("timed-out:") || label.starts_with("retry:"))
            {
                LivenessOutcome::RecoversAfterRetry
            } else {
                LivenessOutcome::Recovers
            }
        }
    }
}

/// Checks that deadlock recovery was *contained*: victims died cleanly and
/// loudly, and the failure mode — if any — was loud too.
///
/// Accepted outcomes:
///
/// * `Ok` where every pid in [`SimReport::recovered`] ended
///   [`Cancelled`] with an `Aborted` trace event, and every other
///   non-daemon ended [`Finished`] or was itself a later recovery victim;
/// * `Err` with a *reported deadlock* — recovery was off, and the
///   simulator named every blocked process.
///
/// Rejected outcomes (violations): silent livelock
/// (`Err(MaxStepsExceeded)`), a cascading panic
/// (`Err(ProcessPanicked)`), a victim that is not `Cancelled`, or a
/// non-victim survivor that never finished.
///
/// [`Cancelled`]: bloom_sim::ProcessStatus::Cancelled
/// [`Finished`]: bloom_sim::ProcessStatus::Finished
pub fn check_recovery_containment(result: &Result<SimReport, SimError>) -> Vec<Violation> {
    let mut violations = Vec::new();
    match result {
        Err(e) => {
            let end = e.report.trace.len() as u64;
            match &e.kind {
                SimErrorKind::Deadlock { .. } => {} // loud: diagnosable
                SimErrorKind::MaxStepsExceeded { limit } => violations.push(Violation {
                    at_seq: end,
                    message: format!(
                        "liveness failure degenerated into a livelock (step budget {limit} \
                         exhausted)"
                    ),
                }),
                SimErrorKind::ProcessPanicked { pid, message } => violations.push(Violation {
                    at_seq: end,
                    message: format!(
                        "recovery cascaded: surviving process {pid} panicked: {message}"
                    ),
                }),
            }
        }
        Ok(report) => {
            let end = report.trace.len() as u64;
            for p in &report.processes {
                if report.recovered.contains(&p.pid) {
                    if p.status != ProcessStatus::Cancelled {
                        violations.push(Violation {
                            at_seq: end,
                            message: format!(
                                "recovery victim {} \"{}\" is {:?}, expected Cancelled",
                                p.pid, p.name, p.status
                            ),
                        });
                    }
                    if !report
                        .trace
                        .events_for(p.pid)
                        .any(|e| e.kind == EventKind::Aborted)
                    {
                        violations.push(Violation {
                            at_seq: end,
                            message: format!(
                                "recovery victim {} \"{}\" has no Aborted trace event",
                                p.pid, p.name
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

/// Checks that no wait episode was flagged by the kernel starvation
/// watchdog: one violation per [`bloom_sim::StarvationFlag`] in the
/// report. (The bound itself is configured on the simulation via
/// [`bloom_sim::SimConfig::starvation_bound`].)
pub fn check_starvation_free(report: &SimReport) -> Vec<Violation> {
    report
        .starvation
        .iter()
        .map(|flag| Violation {
            at_seq: report.trace.len() as u64,
            message: format!(
                "{} \"{}\" starved on {} for {} quanta (since {}, flagged at {}) while \
                 others progressed",
                flag.pid, flag.name, flag.reason, flag.age, flag.since, flag.flagged_at
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bloom_sim::{Sim, SimConfig, WaitQueue};
    use std::sync::Arc;

    fn deadlocked_pair(recovery: bool) -> Result<SimReport, SimError> {
        let mut sim = Sim::new();
        if recovery {
            sim.enable_deadlock_recovery();
        }
        let q = Arc::new(WaitQueue::new("q"));
        for name in ["a", "b"] {
            let q = Arc::clone(&q);
            sim.spawn(name, move |ctx| q.wait(ctx));
        }
        sim.run()
    }

    #[test]
    fn classify_distinguishes_the_three_outcomes() {
        // Recovers: a clean run where everybody finishes.
        let mut sim = Sim::new();
        sim.set_starvation_bound(50);
        sim.spawn("worker", |ctx| ctx.yield_now());
        assert_eq!(classify_liveness(&sim.run()), LivenessOutcome::Recovers);

        // Recovers-after-retry: completes cleanly, but the trace shows a
        // withdrawal on the way — distinct from both ends.
        let mut sim = Sim::new();
        sim.spawn("patient", |ctx| {
            ctx.emit("timed-out:sem", &[0]);
            ctx.emit("retry:sem", &[1]);
        });
        assert_eq!(
            classify_liveness(&sim.run()),
            LivenessOutcome::RecoversAfterRetry
        );
        assert!(LivenessOutcome::Recovers < LivenessOutcome::RecoversAfterRetry);
        assert!(LivenessOutcome::RecoversAfterRetry < LivenessOutcome::Degrades);

        // Degrades: completes, but a requester permanently gave up.
        let mut sim = Sim::new();
        sim.spawn("quitter", |ctx| ctx.emit("gave-up:sem", &[]));
        sim.spawn("worker", |ctx| ctx.yield_now());
        assert_eq!(classify_liveness(&sim.run()), LivenessOutcome::Degrades);

        // Degrades: recovery consumed every requester (no progress).
        let recovered = deadlocked_pair(true);
        assert_eq!(classify_liveness(&recovered), LivenessOutcome::Degrades);

        // Wedges: unrecovered deadlock.
        let wedged = deadlocked_pair(false);
        assert_eq!(classify_liveness(&wedged), LivenessOutcome::Wedges);
    }

    #[test]
    fn classify_degrades_on_starvation_flag() {
        let mut sim = Sim::new();
        sim.set_starvation_bound(3);
        let q = Arc::new(WaitQueue::new("slow"));
        let q2 = Arc::clone(&q);
        sim.spawn("victim", move |ctx| q2.wait(ctx));
        let q3 = Arc::clone(&q);
        sim.spawn("cycler", move |ctx| {
            for _ in 0..10 {
                ctx.yield_now();
            }
            q3.wake_one(ctx);
        });
        let result = sim.run();
        assert_eq!(classify_liveness(&result), LivenessOutcome::Degrades);
        let report = result.unwrap();
        let v = check_starvation_free(&report);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("starved on slow"));
    }

    #[test]
    fn recovery_containment_accepts_clean_abort_and_loud_deadlock() {
        crate::checks::expect_clean(
            &check_recovery_containment(&deadlocked_pair(true)),
            "clean recovery",
        );
        crate::checks::expect_clean(
            &check_recovery_containment(&deadlocked_pair(false)),
            "loud deadlock",
        );
    }

    #[test]
    fn recovery_containment_rejects_livelock() {
        let mut sim = Sim::with_config(SimConfig {
            max_steps: 10,
            ..SimConfig::default()
        });
        sim.spawn("spinner", |ctx| loop {
            ctx.yield_now();
        });
        let v = check_recovery_containment(&sim.run());
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("livelock"));
    }

    #[test]
    fn poison_from_an_abort_satisfies_the_protocol() {
        // A victim whose unwind emits poison (standing in for the
        // mechanism crates' real guards) after a deadlock-recovery abort.
        let mut sim = Sim::new();
        sim.enable_deadlock_recovery();
        let held = Arc::new(WaitQueue::new("held"));
        let obs_q = Arc::new(WaitQueue::new("obs"));
        // The observer parks first, so the victim — blocked most recently —
        // is the one recovery aborts.
        let obs_q2 = Arc::clone(&obs_q);
        sim.spawn("observer", move |ctx| {
            obs_q2.wait(ctx);
            ctx.emit("poison-seen:L", &[]);
        });
        let obs_q3 = Arc::clone(&obs_q);
        sim.spawn("victim", move |ctx| {
            struct G<'a> {
                ctx: &'a bloom_sim::Ctx,
                waiters: Arc<WaitQueue>,
            }
            impl Drop for G<'_> {
                fn drop(&mut self) {
                    if !self.ctx.cancelling() {
                        self.ctx.emit("poison:L", &[]);
                        self.waiters.wake_one(self.ctx);
                    }
                }
            }
            let guard = G {
                ctx,
                waiters: obs_q3,
            };
            held.wait(ctx); // aborted here; the guard poisons and wakes
            std::mem::forget(guard);
        });
        let report = sim.run().expect("recovery completes the run");
        crate::checks::expect_clean(
            &crate::crash::check_poison_propagation(&report.trace),
            "abort-originated poison",
        );
        assert_eq!(classify_liveness(&Ok(report)), LivenessOutcome::Degrades);
    }
}
