//! Invariant-first checking: declared laws and a violation-rate
//! vocabulary for sampled exploration (axis R3).
//!
//! The checkers in [`crate::checks`] answer "did *this* trace satisfy
//! *this* constraint?". Exhaustive exploration turns that into proof; at
//! hundreds of processes the schedule tree cannot be enumerated, and the
//! honest framing flips to the *nomercy* style: declare **laws** — pure
//! predicates over a whole run that must never be false — and let a
//! sampler ([`bloom_sim::ExploreConfig::sample`]) search for counterexamples. A law
//! with no counterexample after N sampled schedules means exactly "not
//! yet found" — nothing more; a law *with* a counterexample means a
//! concrete, replayable, shrinkable decision vector that exhibits the
//! bug.
//!
//! A [`Law`] sees a [`RunView`]: the run's outcome plus the problem
//! events ([`crate::events`] vocabulary, extracted once per run and
//! shared by every law in the set). [`LawSet::violated`] produces the
//! stable law-name keys the sampler folds into its statistics, and
//! [`classify_rate`] buckets the resulting violating-run fractions into
//! the rate vocabulary the R3 report tables use.

use crate::checks::Violation;
use crate::events::{extract, ProblemEvent};
use bloom_sim::{SimError, SimReport};
use std::fmt;

/// Everything a law may examine about one run: the outcome and the
/// problem events, extracted once (deadlocked runs still carry their
/// partial trace via [`SimError`]'s embedded report).
pub struct RunView<'a> {
    /// The run's outcome as the simulator returned it.
    pub result: &'a Result<SimReport, SimError>,
    /// Problem events of the run's trace, in trace order.
    pub events: Vec<ProblemEvent>,
}

impl<'a> RunView<'a> {
    /// Builds the view, extracting the problem events from whichever
    /// trace the outcome carries.
    pub fn new(result: &'a Result<SimReport, SimError>) -> Self {
        let report = match result {
            Ok(report) => report,
            Err(err) => &err.report,
        };
        RunView {
            result,
            events: extract(&report.trace),
        }
    }

    /// The run's report — the final one on success, the partial one
    /// embedded in the error on failure.
    pub fn report(&self) -> &SimReport {
        match self.result {
            Ok(report) => report,
            Err(err) => &err.report,
        }
    }

    /// The failure, if the run failed.
    pub fn error(&self) -> Option<&SimError> {
        self.result.as_ref().err()
    }

    /// Sequence number just past the trace: where "the run as a whole
    /// violated X" violations anchor.
    pub fn end_seq(&self) -> u64 {
        self.report().trace.len() as u64
    }
}

/// One declared invariant: a name (the stable key violation statistics
/// are folded under) and a predicate producing the violations a run
/// exhibits.
pub struct Law {
    name: String,
    #[allow(clippy::type_complexity)]
    check: Box<dyn Fn(&RunView<'_>) -> Vec<Violation> + Send + Sync>,
}

impl Law {
    /// Declares a law. `name` should be short, kebab-case, and stable —
    /// it keys violation counts, first-hit tables, and report rows.
    pub fn new(
        name: impl Into<String>,
        check: impl Fn(&RunView<'_>) -> Vec<Violation> + Send + Sync + 'static,
    ) -> Self {
        Law {
            name: name.into(),
            check: Box::new(check),
        }
    }

    /// The law's key.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Evaluates the law against one run view.
    pub fn check(&self, view: &RunView<'_>) -> Vec<Violation> {
        (self.check)(view)
    }
}

impl fmt::Debug for Law {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Law").field("name", &self.name).finish()
    }
}

/// A named violation: which law, and what it saw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LawViolation {
    /// The violated law's name.
    pub law: String,
    /// The violation itself.
    pub violation: Violation,
}

impl fmt::Display for LawViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.law, self.violation)
    }
}

/// An ordered set of laws checked together against each sampled run.
#[derive(Debug, Default)]
pub struct LawSet {
    laws: Vec<Law>,
}

impl LawSet {
    /// An empty set.
    pub fn new() -> Self {
        LawSet::default()
    }

    /// Adds a law (builder style).
    pub fn law(
        mut self,
        name: impl Into<String>,
        check: impl Fn(&RunView<'_>) -> Vec<Violation> + Send + Sync + 'static,
    ) -> Self {
        self.laws.push(Law::new(name, check));
        self
    }

    /// Adds an already-built law (builder style).
    pub fn with(mut self, law: Law) -> Self {
        self.laws.push(law);
        self
    }

    /// The declared law names, in declaration order.
    pub fn names(&self) -> Vec<&str> {
        self.laws.iter().map(|l| l.name()).collect()
    }

    /// Checks every law against the run, returning all violations found
    /// (declaration order, then each law's own order).
    pub fn check(&self, result: &Result<SimReport, SimError>) -> Vec<LawViolation> {
        let view = RunView::new(result);
        self.laws
            .iter()
            .flat_map(|law| {
                law.check(&view).into_iter().map(|violation| LawViolation {
                    law: law.name().to_string(),
                    violation,
                })
            })
            .collect()
    }

    /// The names of the laws this run violated — the key list a
    /// [`bloom_sim::ExploreConfig::sample`] map closure returns per iteration. Each
    /// violated law appears once, in declaration order.
    pub fn violated(&self, result: &Result<SimReport, SimError>) -> Vec<String> {
        let view = RunView::new(result);
        self.laws
            .iter()
            .filter(|law| !law.check(&view).is_empty())
            .map(|law| law.name().to_string())
            .collect()
    }
}

/// Law: the run must not fail — no deadlock, no livelock (step-budget
/// exhaustion), no cascading panic. The violation message carries the
/// simulator's own diagnosis.
pub fn no_failure() -> Law {
    Law::new("no-deadlock", |view| match view.error() {
        None => Vec::new(),
        Some(err) => vec![Violation {
            at_seq: view.end_seq(),
            message: format!("run failed: {err}"),
        }],
    })
}

/// Law: starvation-freedom. Violated when the kernel starvation watchdog
/// flagged a waiter ([`SimReport::starvation`]) or a requester
/// permanently gave up (`gave-up:` in the trace) — the two signals the R2
/// classifier treats as visible starvation. Checked on the partial
/// report of failed runs too (a run can starve a reader *and* deadlock).
pub fn starvation_free() -> Law {
    Law::new("starvation-free", |view| {
        let report = view.report();
        let mut violations = crate::liveness::check_starvation_free(report);
        violations.extend(
            report
                .trace
                .user_events()
                .filter(|(_, label, _)| label.starts_with("gave-up:"))
                .map(|(event, label, _)| Violation {
                    at_seq: event.seq,
                    message: format!("{} permanently gave up ({label})", event.pid),
                }),
        );
        violations
    })
}

/// Law: mutual exclusion over the given conflict relation (see
/// [`crate::checks::check_exclusion`]), evaluated over the run's problem
/// events — partial trace included on failed runs.
pub fn exclusion(conflicts: &'static [(&'static str, &'static str)]) -> Law {
    Law::new("exclusion", move |view| {
        crate::checks::check_exclusion(&view.events, conflicts)
    })
}

/// Law: eventual service — every `req:<op>` is matched by an `enter:<op>`
/// from the same process before the trace ends. On a *successful* run an
/// unserved request is a stranded waiter; on failed runs the law is
/// vacuous (the failure itself is [`no_failure`]'s department, and a
/// deadlocked trace legitimately truncates mid-request).
pub fn eventual_service() -> Law {
    Law::new("eventual-service", |view| {
        if view.error().is_some() {
            return Vec::new();
        }
        let mut violations = Vec::new();
        for instance in crate::events::instances(&view.events) {
            if instance.enter.is_none() {
                let request = &view.events[instance.request];
                violations.push(Violation {
                    at_seq: request.seq,
                    message: format!(
                        "{} requested {} and was never admitted",
                        request.pid, request.op
                    ),
                });
            }
        }
        violations
    })
}

/// Violation-rate bucket for one (law, scenario) cell of a sampling
/// campaign: the fraction of sampled runs that violated the law,
/// discretised for the R3 report tables.
///
/// `Unobserved` carries the sampling caveat verbatim: *no counterexample
/// was found in this campaign* — it is not a proof of absence, and the
/// reports print it as `0 found`, never as `impossible`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RateClass {
    /// No violating run in the campaign ("not yet found" — nothing more).
    Unobserved,
    /// Violating-run fraction below 1%.
    Rare,
    /// Violating-run fraction in [1%, 25%).
    Occasional,
    /// Violating-run fraction of 25% or more.
    Frequent,
}

impl fmt::Display for RateClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RateClass::Unobserved => "unobserved",
            RateClass::Rare => "rare",
            RateClass::Occasional => "occasional",
            RateClass::Frequent => "frequent",
        })
    }
}

/// Buckets `hits` violating runs out of `runs` sampled into a
/// [`RateClass`] (integer arithmetic; no violating run is `Unobserved`
/// regardless of `runs`).
pub fn classify_rate(hits: u64, runs: usize) -> RateClass {
    let runs = runs as u64;
    if hits == 0 {
        RateClass::Unobserved
    } else if hits * 100 < runs {
        RateClass::Rare
    } else if hits * 4 < runs {
        RateClass::Occasional
    } else {
        RateClass::Frequent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bloom_sim::{Sim, WaitQueue};
    use std::sync::Arc;

    fn clean_run() -> Result<SimReport, SimError> {
        let mut sim = Sim::new();
        sim.spawn("p", |ctx| {
            crate::events::request(ctx, "work", &[]);
            crate::events::enter(ctx, "work", &[]);
            crate::events::exit(ctx, "work", &[]);
        });
        sim.run()
    }

    fn deadlocked_run() -> Result<SimReport, SimError> {
        let mut sim = Sim::new();
        let q = Arc::new(WaitQueue::new("q"));
        let q2 = Arc::clone(&q);
        sim.spawn("stuck", move |ctx| {
            crate::events::request(ctx, "work", &[]);
            q2.wait(ctx);
        });
        sim.run()
    }

    #[test]
    fn no_failure_law_flags_exactly_failed_runs() {
        let set = LawSet::new().with(no_failure());
        assert!(set.violated(&clean_run()).is_empty());
        assert_eq!(set.violated(&deadlocked_run()), vec!["no-deadlock"]);
    }

    #[test]
    fn eventual_service_flags_stranded_requests_on_ok_runs_only() {
        let set = LawSet::new().with(eventual_service());
        assert!(set.violated(&clean_run()).is_empty());
        // The deadlocked run has an unmatched request, but it failed: the
        // law is vacuous there by design.
        assert!(set.violated(&deadlocked_run()).is_empty());

        // A run that finishes with a request nobody admitted.
        let mut sim = Sim::new();
        sim.spawn("asker", |ctx| {
            crate::events::request(ctx, "work", &[]);
        });
        let result = sim.run();
        let violations = set.check(&result);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].law, "eventual-service");
        assert!(violations[0].violation.message.contains("never admitted"));
    }

    #[test]
    fn starvation_free_law_sees_gave_up_events() {
        let mut sim = Sim::new();
        sim.spawn("quitter", |ctx| ctx.emit("gave-up:work", &[]));
        let result = sim.run();
        let set = LawSet::new().with(starvation_free());
        assert_eq!(set.violated(&result), vec!["starvation-free"]);
    }

    #[test]
    fn exclusion_law_reads_events_of_failed_runs_too() {
        // Two overlapping enters, then a deadlock: the partial trace must
        // still convict the exclusion law.
        let mut sim = Sim::new();
        let q = Arc::new(WaitQueue::new("q"));
        let q2 = Arc::clone(&q);
        sim.spawn("bad", move |ctx| {
            crate::events::enter(ctx, "crit", &[]);
            crate::events::enter(ctx, "crit", &[]);
            q2.wait(ctx);
        });
        let result = sim.run();
        assert!(result.is_err());
        let set = LawSet::new()
            .with(exclusion(&[("crit", "crit")]))
            .with(no_failure());
        assert_eq!(set.violated(&result), vec!["exclusion", "no-deadlock"]);
    }

    #[test]
    fn law_set_keys_are_distinct_and_ordered() {
        let set = LawSet::new()
            .with(no_failure())
            .with(starvation_free())
            .with(eventual_service());
        assert_eq!(
            set.names(),
            vec!["no-deadlock", "starvation-free", "eventual-service"]
        );
    }

    #[test]
    fn rate_classifier_buckets_are_stable() {
        assert_eq!(classify_rate(0, 0), RateClass::Unobserved);
        assert_eq!(classify_rate(0, 1000), RateClass::Unobserved);
        assert_eq!(classify_rate(1, 1000), RateClass::Rare);
        assert_eq!(classify_rate(9, 1000), RateClass::Rare);
        assert_eq!(classify_rate(10, 1000), RateClass::Occasional);
        assert_eq!(classify_rate(249, 1000), RateClass::Occasional);
        assert_eq!(classify_rate(250, 1000), RateClass::Frequent);
        assert_eq!(classify_rate(5, 5), RateClass::Frequent);
        assert_eq!(format!("{}", RateClass::Unobserved), "unobserved");
    }
}
