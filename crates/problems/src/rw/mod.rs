//! The readers/writers family — the paper's analytic centerpiece.
//!
//! Three variants share the `rw-exclusion` constraint (a writer excludes
//! everyone, readers exclude only writers) and differ in the priority
//! constraint:
//!
//! * [`RwVariant::ReadersPriority`] — waiting readers beat waiting writers
//!   (Courtois et al. problem 1, the subject of the paper's Figure 1 and
//!   footnote 3);
//! * [`RwVariant::WritersPriority`] — waiting writers beat new readers
//!   (Courtois problem 2, the paper's Figure 2);
//! * [`RwVariant::Fcfs`] — access granted in arrival order, with
//!   consecutive readers still sharing (the variant §5.1.2 uses to test
//!   constraint independence against *request time* information).
//!
//! §4.2's independence methodology is reproduced over exactly this family:
//! the per-mechanism modules attribute their implementation components to
//! the catalog constraints, and the workspace analysis compares how the
//! shared exclusion constraint fares when the priority constraint changes.
//!
//! # Priority semantics and checkers
//!
//! Two formalizations of "X has priority" appear:
//!
//! * **strict**: an opposing operation never *enters* while an X request
//!   is pending (`check_priority_over`) — what the monitor, serializer and
//!   semaphore solutions guarantee;
//! * **arrival-relative**: no opposing request issued *after* a pending X
//!   request overtakes it (`check_no_later_overtake`) — the guarantee the
//!   Figure-2 path solution provides (readers already past `requestread`
//!   when the writer arrives may finish).
//!
//! The Figure-1 path solution satisfies *neither* for readers — that is
//! the paper's footnote-3 anomaly, proved by exhaustive schedule
//! exploration in the workspace tests.

mod monitor;
mod path;
mod semaphore;
mod serializer;

pub use monitor::MonitorRw;
pub use path::{
    PathFcfsRw, PathFig1ReadersPriority, PathFig2WritersPriority, PathV3ReadersPriority,
};
pub use semaphore::SemaphoreRw;
pub use serializer::SerializerRw;

use bloom_core::{MechanismId, ProblemId, SolutionDesc};
use bloom_sim::Ctx;
use std::sync::Arc;

/// Which readers/writers problem variant a solution implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RwVariant {
    /// Waiting readers beat waiting writers.
    ReadersPriority,
    /// Waiting writers beat new readers.
    WritersPriority,
    /// Arrival order, consecutive readers share.
    Fcfs,
}

impl RwVariant {
    /// All variants.
    pub const ALL: [RwVariant; 3] = [
        RwVariant::ReadersPriority,
        RwVariant::WritersPriority,
        RwVariant::Fcfs,
    ];

    /// The catalog problem this variant corresponds to.
    pub fn problem(self) -> ProblemId {
        match self {
            RwVariant::ReadersPriority => ProblemId::ReadersPriorityDb,
            RwVariant::WritersPriority => ProblemId::WritersPriorityDb,
            RwVariant::Fcfs => ProblemId::FcfsReadersWriters,
        }
    }

    /// The catalog name of this variant's priority constraint.
    pub fn priority_constraint(self) -> &'static str {
        match self {
            RwVariant::ReadersPriority => "readers-priority",
            RwVariant::WritersPriority => "writers-priority",
            RwVariant::Fcfs => "fcfs-order",
        }
    }
}

/// A readers/writers database.
pub trait ReadersWriters: Send + Sync {
    /// Performs a read; `body` runs while read access is held.
    fn read(&self, ctx: &Ctx, body: &mut dyn FnMut());
    /// Performs a write; `body` runs while exclusive access is held.
    fn write(&self, ctx: &Ctx, body: &mut dyn FnMut());
    /// Evaluation metadata for this solution.
    fn desc(&self) -> SolutionDesc;
}

/// Fresh instance of the solution for `mechanism` and `variant`.
///
/// # Panics
///
/// Panics for [`MechanismId::PathV2`]: the readers/writers variants do not
/// use the numeric operator, so v2 adds nothing over the v1 solutions.
pub fn make(mechanism: MechanismId, variant: RwVariant) -> Arc<dyn ReadersWriters> {
    match mechanism {
        MechanismId::Semaphore => Arc::new(SemaphoreRw::new(variant)),
        MechanismId::Monitor => Arc::new(MonitorRw::new(variant)),
        MechanismId::Serializer => Arc::new(SerializerRw::new(variant)),
        MechanismId::PathV1 => match variant {
            RwVariant::ReadersPriority => Arc::new(PathFig1ReadersPriority::new()),
            RwVariant::WritersPriority => Arc::new(PathFig2WritersPriority::new()),
            RwVariant::Fcfs => Arc::new(PathFcfsRw::new()),
        },
        MechanismId::Csp => Arc::new(crate::csp::CspRw::new(variant)),
        MechanismId::PathV2 => panic!("readers/writers has no distinct path-v2 solution"),
        MechanismId::PathV3 => match variant {
            RwVariant::ReadersPriority => Arc::new(PathV3ReadersPriority::new()),
            _ => panic!(
                "path-v3 is provided only for readers priority (the anomaly fix); \
                 the other variants gain nothing over v1"
            ),
        },
    }
}

/// The mechanisms with readers/writers solutions.
pub const MECHANISMS: [MechanismId; 5] = [
    MechanismId::Semaphore,
    MechanismId::Monitor,
    MechanismId::Serializer,
    MechanismId::PathV1,
    MechanismId::Csp,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::{run, rw_sim};
    use crate::events::{READ, WRITE};
    use bloom_core::checks::{
        check_all_served, check_exclusion, check_fifo, check_no_later_overtake,
        check_priority_over, expect_clean,
    };
    use bloom_core::events::extract;

    fn exclusion_conflicts() -> Vec<(&'static str, &'static str)> {
        vec![(READ, WRITE), (WRITE, WRITE)]
    }

    /// The shared exclusion constraint holds for every mechanism, every
    /// variant, every tested schedule — including the Figure-1 solution
    /// whose *priority* is broken.
    #[test]
    fn exclusion_holds_for_all_solutions() {
        for mech in MECHANISMS {
            for variant in RwVariant::ALL {
                for seed in [None, Some(31), Some(32), Some(33)] {
                    let report = run(rw_sim(mech, variant, 3, 2, 3), seed)
                        .unwrap_or_else(|e| panic!("{mech} (seed {seed:?}): {e}"));
                    let events = extract(&report.trace);
                    expect_clean(
                        &check_exclusion(&events, &exclusion_conflicts()),
                        &format!("{mech}/{variant:?} exclusion (seed {seed:?})"),
                    );
                    expect_clean(
                        &check_all_served(&events),
                        &format!("{mech}/{variant:?} liveness (seed {seed:?})"),
                    );
                }
            }
        }
    }

    /// Strict readers priority for the mechanisms that guarantee it.
    #[test]
    fn readers_priority_is_strict_except_for_figure1() {
        for mech in [
            MechanismId::Semaphore,
            MechanismId::Monitor,
            MechanismId::Serializer,
        ] {
            for seed in std::iter::once(None).chain((40..60).map(Some)) {
                let report = run(rw_sim(mech, RwVariant::ReadersPriority, 3, 2, 3), seed)
                    .unwrap_or_else(|e| panic!("figure 2 (seed {seed:?}): {e}"));
                let events = extract(&report.trace);
                expect_clean(
                    &check_priority_over(&events, READ, WRITE),
                    &format!("{mech} strict readers priority (seed {seed:?})"),
                );
            }
        }
    }

    /// Writers priority: strict for monitor/serializer/semaphore,
    /// arrival-relative for the Figure-2 path solution.
    #[test]
    fn writers_priority_holds_per_solution_guarantee() {
        for mech in [
            MechanismId::Semaphore,
            MechanismId::Monitor,
            MechanismId::Serializer,
        ] {
            for seed in std::iter::once(None).chain((50..70).map(Some)) {
                let report = run(rw_sim(mech, RwVariant::WritersPriority, 3, 2, 3), seed)
                    .unwrap_or_else(|e| panic!("figure 2 (seed {seed:?}): {e}"));
                let events = extract(&report.trace);
                expect_clean(
                    &check_priority_over(&events, WRITE, READ),
                    &format!("{mech} strict writers priority (seed {seed:?})"),
                );
            }
        }
        for seed in [None, Some(51), Some(52), Some(53), Some(54), Some(55)] {
            let report = run(
                rw_sim(MechanismId::PathV1, RwVariant::WritersPriority, 3, 2, 3),
                seed,
            )
            .unwrap_or_else(|e| panic!("figure 2 (seed {seed:?}): {e}"));
            let events = extract(&report.trace);
            expect_clean(
                &check_no_later_overtake(&events, WRITE, READ),
                &format!("figure-2 arrival-relative writers priority (seed {seed:?})"),
            );
        }
    }

    /// FCFS variant: admissions happen in request order for every
    /// mechanism (readers still share, but their *enters* stay ordered).
    #[test]
    fn fcfs_variant_admits_in_arrival_order() {
        for mech in MECHANISMS {
            for seed in std::iter::once(None).chain((60..80).map(Some)) {
                let report = run(rw_sim(mech, RwVariant::Fcfs, 3, 2, 3), seed)
                    .unwrap_or_else(|e| panic!("figure 2 (seed {seed:?}): {e}"));
                let events = extract(&report.trace);
                expect_clean(
                    &check_fifo(&events, &[READ, WRITE]),
                    &format!("{mech} FCFS admission (seed {seed:?})"),
                );
            }
        }
    }

    /// Readers actually share: some schedule exhibits two concurrent reads
    /// (otherwise the "exclusion" could be a degenerate global lock).
    #[test]
    fn readers_overlap_under_some_schedule() {
        for mech in MECHANISMS {
            let mut overlapped = false;
            for seed in [None, Some(71), Some(72), Some(73), Some(74)] {
                let report = run(rw_sim(mech, RwVariant::ReadersPriority, 4, 1, 3), seed)
                    .unwrap_or_else(|e| panic!("figure 2 (seed {seed:?}): {e}"));
                let events = extract(&report.trace);
                let mut active = 0i32;
                for e in &events {
                    match (e.op.as_str(), e.phase) {
                        (op, bloom_core::Phase::Enter) if op == READ => {
                            active += 1;
                            if active > 1 {
                                overlapped = true;
                            }
                        }
                        (op, bloom_core::Phase::Exit) if op == READ => active -= 1,
                        _ => {}
                    }
                }
            }
            assert!(
                overlapped,
                "{mech}: readers never overlapped in any tested schedule"
            );
        }
    }

    #[test]
    fn descriptions_share_the_exclusion_constraint_name() {
        for mech in MECHANISMS {
            for variant in RwVariant::ALL {
                let d = make(mech, variant).desc();
                assert_eq!(d.problem, variant.problem(), "{mech}/{variant:?}");
                assert!(
                    d.constraints().contains("rw-exclusion"),
                    "{mech}/{variant:?} must attribute rw-exclusion"
                );
                assert!(
                    d.constraints().contains(variant.priority_constraint()),
                    "{mech}/{variant:?} must attribute {}",
                    variant.priority_constraint()
                );
            }
        }
    }
}
