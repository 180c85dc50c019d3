//! The T1 suite: every registered solution declared once, as a [`Cell`].
//!
//! Footnote 2's test set, the readers/writers variants and the path-v3
//! fix, crossed with the mechanisms, give 41 cells. Each holds its
//! identity (problem and mechanism), its scenario at one shape
//! ([`Cell::build`] returns the unrun [`Sim`]), the laws every run must
//! satisfy, the [`Run`]s it is checked under, and any exemption with the
//! paper's reason. Besides the problem's constraint checkers, every law
//! set has `all-served` (every request entered and exited) and
//! `no-deadlock` (a failed run is a violation carrying the simulator's
//! diagnosis, not a panic). The report's T1 and O1 sections, the root
//! `solution_matrix` test and [`crate::registry::all_descs`] iterate
//! [`cells`]; a cell is declared nowhere else.

use crate::drivers::{self, buffer_transfers};
use crate::events::{DEPOSIT, READ, REMOVE, SEEK, USE, WAKE, WRITE};
use crate::rw::RwVariant;
use crate::{alarm, buffer, disk, fcfs, oneslot, rw};
use bloom_core::checks::{
    check_alarm, check_all_served, check_alternation, check_buffer_bounds, check_elevator,
    check_fifo, check_no_later_overtake, check_priority_over, Violation,
};
use bloom_core::laws::{exclusion, no_failure, Law, LawSet};
use bloom_core::{MechanismId, ProblemId, SolutionDesc};
use bloom_sim::Sim;
use std::fmt;

/// The bounded-buffer cell's capacity: its builder and its bounds law
/// read this one constant.
const BUFFER_CAPACITY: usize = 4;

/// One schedule a cell is checked under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// Workload seed: the disk scheduler draws its tracks and the alarm
    /// clock its delays from it; the other scenarios ignore it.
    pub workload: u64,
    /// Scheduling seed: `None` is FIFO, `Some(s)` the seeded random
    /// policy.
    pub seed: Option<u64>,
}

/// One T1 cell: a registered solution, its scenario, laws and runs.
#[derive(Debug)]
pub struct Cell {
    /// The problem solved (for readers/writers, also the variant).
    pub problem: ProblemId,
    /// The mechanism it is solved with.
    pub mechanism: MechanismId,
    /// Laws every run must satisfy.
    pub laws: LawSet,
    /// The schedules the cell is checked under.
    pub runs: Vec<Run>,
    /// A law this solution is not held to, with the paper's reason.
    pub exemption: Option<&'static str>,
}

impl Cell {
    /// The readers/writers variant of a database cell.
    fn variant(&self) -> RwVariant {
        RwVariant::ALL
            .into_iter()
            .find(|v| v.problem() == self.problem)
            .expect("a readers/writers problem")
    }

    /// The cell's scenario, unrun, at the suite's shape.
    pub fn build(&self, workload: u64) -> Sim {
        let mech = self.mechanism;
        match self.problem {
            ProblemId::OneSlotBuffer => drivers::oneslot_sim(mech, 8),
            ProblemId::BoundedBuffer => drivers::buffer_sim(mech, BUFFER_CAPACITY, 3, 2, 4),
            ProblemId::FcfsResource => drivers::fcfs_sim(mech, 6, 3),
            ProblemId::DiskScheduler => drivers::disk_sim(mech, 5, 4, workload),
            ProblemId::AlarmClock => drivers::alarm_sim(mech, 6, workload),
            _ => drivers::rw_sim(mech, self.variant(), 4, 2, 3),
        }
    }

    /// Checks every run against the cell's laws; returns each violation
    /// tagged with the cell, the workload and the seed.
    pub fn sweep(&self) -> Vec<String> {
        self.runs
            .iter()
            .flat_map(|&run| {
                let result = drivers::run(self.build(run.workload), run.seed);
                self.laws.check(&result).into_iter().map(move |v| {
                    format!(
                        "{self} (workload {}, seed {:?}): {v}",
                        run.workload, run.seed
                    )
                })
            })
            .collect()
    }

    /// The solution's evaluation metadata.
    pub fn desc(&self) -> SolutionDesc {
        let mech = self.mechanism;
        match self.problem {
            ProblemId::OneSlotBuffer => oneslot::make(mech).desc(),
            ProblemId::BoundedBuffer => buffer::make(mech, BUFFER_CAPACITY).desc(),
            ProblemId::FcfsResource => fcfs::make(mech).desc(),
            ProblemId::DiskScheduler => disk::make(mech).desc(),
            ProblemId::AlarmClock => alarm::make(mech).desc(),
            _ => rw::make(mech, self.variant()).desc(),
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} × {}", self.problem, self.mechanism)
    }
}

/// Every registered solution, once, in registry order: the one-slot
/// buffer, bounded buffer and FCFS resource, the readers/writers family
/// (each mechanism's three variants, then Andler's path-v3 fix of
/// Figure 1), the disk scheduler and the alarm clock.
pub fn cells() -> Vec<Cell> {
    let mut keys = Vec::new();
    keys.extend(oneslot::MECHANISMS.map(|m| (ProblemId::OneSlotBuffer, m)));
    keys.extend(buffer::MECHANISMS.map(|m| (ProblemId::BoundedBuffer, m)));
    keys.extend(fcfs::MECHANISMS.map(|m| (ProblemId::FcfsResource, m)));
    for m in rw::MECHANISMS {
        keys.extend(RwVariant::ALL.map(|v| (v.problem(), m)));
    }
    keys.push((ProblemId::ReadersPriorityDb, MechanismId::PathV3));
    keys.extend(disk::MECHANISMS.map(|m| (ProblemId::DiskScheduler, m)));
    keys.extend(alarm::MECHANISMS.map(|m| (ProblemId::AlarmClock, m)));
    keys.into_iter().map(|(p, m)| cell(p, m)).collect()
}

/// Declares one cell: the problem's laws (with the solution's exemption),
/// the two common laws, and the problem's runs.
fn cell(problem: ProblemId, mechanism: MechanismId) -> Cell {
    let mut exemption = None;
    let laws = match problem {
        ProblemId::OneSlotBuffer => LawSet::new()
            .law("alternation", |v| {
                check_alternation(&v.events, DEPOSIT, REMOVE)
            })
            .law("bounds", |v| {
                check_buffer_bounds(&v.events, DEPOSIT, REMOVE, 1)
            })
            .with(exclusion(&[
                (DEPOSIT, DEPOSIT),
                (REMOVE, REMOVE),
                (DEPOSIT, REMOVE),
            ])),
        ProblemId::BoundedBuffer => LawSet::new()
            .law("bounds", |v| {
                check_buffer_bounds(&v.events, DEPOSIT, REMOVE, BUFFER_CAPACITY as i64)
            })
            .with(conservation()),
        ProblemId::FcfsResource => LawSet::new()
            .law("fifo", |v| check_fifo(&v.events, &[USE]))
            .with(exclusion(&[(USE, USE)])),
        ProblemId::DiskScheduler => LawSet::new()
            .law("elevator", |v| check_elevator(&v.events, SEEK))
            .with(exclusion(&[(SEEK, SEEK)])),
        ProblemId::AlarmClock => {
            LawSet::new().law("deadlines", |v| check_alarm(&v.events, WAKE, 1))
        }
        ProblemId::ReadersPriorityDb
        | ProblemId::WritersPriorityDb
        | ProblemId::FcfsReadersWriters => {
            let laws = LawSet::new().with(exclusion(&[(READ, WRITE), (WRITE, WRITE)]));
            match (problem, mechanism) {
                (ProblemId::ReadersPriorityDb, MechanismId::PathV1) => {
                    exemption = Some(
                        "no strict-priority: Figure 1 lets a second writer beat a waiting \
                         reader (footnote 3's anomaly, counted over every schedule in F1a)",
                    );
                    laws
                }
                (ProblemId::ReadersPriorityDb, _) => laws.law("strict-priority", |v| {
                    check_priority_over(&v.events, READ, WRITE)
                }),
                (ProblemId::WritersPriorityDb, MechanismId::PathV1) => {
                    exemption = Some(
                        "arrival-priority, not strict-priority: Figure 2 lets readers \
                         already past requestread finish (F2)",
                    );
                    laws.law("arrival-priority", |v| {
                        check_no_later_overtake(&v.events, WRITE, READ)
                    })
                }
                (ProblemId::WritersPriorityDb, _) => laws.law("strict-priority", |v| {
                    check_priority_over(&v.events, WRITE, READ)
                }),
                _ => laws.law("fifo", |v| check_fifo(&v.events, &[READ, WRITE])),
            }
        }
    };
    Cell {
        problem,
        mechanism,
        laws: laws
            .law("all-served", |v| check_all_served(&v.events))
            .with(no_failure()),
        runs: runs(problem),
        exemption,
    }
}

/// FIFO plus ten seeds; the disk scheduler and the alarm clock instead
/// cross six workloads with FIFO and one seed each.
fn runs(problem: ProblemId) -> Vec<Run> {
    let per_workload = |sched_base: u64| {
        (0..6u64)
            .flat_map(|workload| {
                [None, Some(sched_base + workload)].map(|seed| Run { workload, seed })
            })
            .collect()
    };
    match problem {
        ProblemId::DiskScheduler => per_workload(7_000),
        ProblemId::AlarmClock => per_workload(8_000),
        _ => std::iter::once(None)
            .chain((1000..1010).map(Some))
            .map(|seed| Run { workload: 0, seed })
            .collect(),
    }
}

/// Law: every value a consumer received from `remove` was deposited, and
/// every deposited value was received, as multisets (see
/// [`buffer_transfers`]).
fn conservation() -> Law {
    Law::new("conservation", |view| {
        let (mut deposited, mut removed) = buffer_transfers(&view.report().trace);
        deposited.sort_unstable();
        removed.sort_unstable();
        if deposited == removed {
            return Vec::new();
        }
        vec![Violation {
            at_seq: view.end_seq(),
            message: format!("received {removed:?} but deposited {deposited:?}"),
        }]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A process that reports a value nobody deposited convicts the
    /// conservation law and no other.
    #[test]
    fn conservation_law_catches_a_value_nobody_deposited() {
        let cell = cells()
            .into_iter()
            .find(|c| c.problem == ProblemId::BoundedBuffer)
            .expect("registered");
        let mut sim = cell.build(0);
        sim.spawn("forger", |ctx| ctx.emit(drivers::REMOVED, &[999]));
        let result = drivers::run(sim, None);
        assert_eq!(cell.laws.violated(&result), vec!["conservation"]);
    }
}
