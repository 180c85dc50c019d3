#![forbid(unsafe_code)]
#![deny(deprecated)]
//! Bloom's methodology for evaluating synchronization mechanisms.
//!
//! This crate is the primary contribution of the reproduced paper
//! ("Evaluating Synchronization Mechanisms", SOSP 1979): a *systematic*
//! way to assess synchronization constructs instead of ad-hoc example
//! chasing. It has four parts, mirroring the paper's sections:
//!
//! * [`taxonomy`] (§3) — synchronization schemes decompose into
//!   *exclusion* and *priority* constraints whose conditions reference six
//!   categories of information ([`InfoType`]); the canonical problem
//!   [`catalog`] encodes which problems exercise which categories
//!   (footnote 2's test suite plus the readers/writers variants of
//!   §5.1.2).
//! * [`cover`] (§1, §4.1) — coverage analysis and minimal test-set
//!   selection: "a set of examples that includes all of these properties
//!   with a minimum of redundancy".
//! * [`events`] / [`checks`] (§4.1) — a uniform event vocabulary that
//!   every mechanism's solution emits, plus machine checkers for each
//!   constraint class: exclusion, FCFS, readers/writers priority (the
//!   checker that exposes the paper's footnote-3 anomaly), buffer bounds,
//!   alternation, elevator order, alarm deadlines, bounded bypass.
//! * [`crash`] — the robustness axis the paper did not evaluate but its
//!   methodology supports: crash-containment and poison-protocol checkers
//!   over whole faulted runs (see `bloom_sim::FaultPlan`), classifying
//!   each (mechanism, scenario) cell as contained, poisoned, or wedged.
//! * [`liveness`] — the second robustness axis (R2): recovery-containment
//!   and starvation checkers over runs with deadlines, deadlock recovery,
//!   and the kernel starvation watchdog, classifying each (mechanism,
//!   scenario) cell as recovers, degrades, or wedges.
//! * [`laws`] — the third robustness axis (R3): invariant-first checking
//!   for schedule trees too big to enumerate. Declared laws (safety and
//!   starvation-freedom predicates over the event vocabulary) are
//!   searched for counterexamples by seeded sampling
//!   ([`bloom_sim::ExploreConfig::sample`]), and violating-run fractions are bucketed
//!   by [`classify_rate`] for the R3 report tables.
//! * [`profile`] / [`independence`](mod@independence) (§4.1, §4.2, §5) — expressive-power
//!   ratings per (mechanism, info type), the paper's own findings encoded
//!   as [`paper_profiles`], and the constraint-independence metrics used
//!   to reproduce §5.1.2's modifiability analysis.
//!
//! Mechanisms themselves live in sibling crates (`bloom-semaphore`,
//! `bloom-monitor`, `bloom-serializer`, `bloom-pathexpr`); the solutions
//! that wire everything together live in `bloom-problems`.

pub mod checks;
pub mod cover;
pub mod crash;
pub mod events;
pub mod independence;
pub mod laws;
pub mod liveness;
pub mod profile;
pub mod report;
pub mod taxonomy;

pub use checks::{expect_clean, Violation};
pub use cover::{coverage, full_target, gaps, greedy_cover, is_complete, minimal_cover, Feature};
pub use crash::{check_crash_containment, check_poison_propagation, classify_crash, CrashOutcome};
pub use events::{extract, instances, Instance, Phase, ProblemEvent};
pub use independence::{
    independence, modification_cost, ImplUnit, IndependenceReport, ModificationCost, SolutionDesc,
};
pub use laws::{
    classify_rate, eventual_service, exclusion, no_failure, starvation_free, Law, LawSet,
    LawViolation, RateClass, RunView,
};
pub use liveness::{
    check_recovery_containment, check_starvation_free, classify_liveness, LivenessOutcome,
};
pub use profile::{
    paper_profile, paper_profiles, Directness, MechanismId, MechanismProfile, Modularity, Support,
};
pub use taxonomy::{
    catalog, spec, ConstraintKind, ConstraintSpec, InfoType, ProblemId, ProblemSpec,
};
