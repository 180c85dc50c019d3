//! Experiment T1: the full solution matrix.
//!
//! Footnote 2's test suite (plus the readers/writers variants) × every
//! mechanism, each cell run under its declared schedules and validated by
//! its law set — the machine-checked version of "use the mechanism to
//! implement solutions to a set of examples that covers all information
//! classes" (§4.1). The cells, their scenarios, laws and runs are declared
//! once, in `bloom_problems::suite`; each test below sweeps one problem's
//! cells, and `the_groups_cover_every_cell_once` keeps the groups whole.

#![deny(deprecated)]

use bloom_core::events::extract;
use bloom_core::{MechanismId, ProblemId};
use bloom_problems::drivers::{footnote3_sim, run, rw_sim};
use bloom_problems::rw::RwVariant;
use bloom_problems::suite::cells;
use bloom_sim::replay_prefix;

/// The problems each per-problem test sweeps.
const GROUPS: [&[ProblemId]; 6] = [
    &[ProblemId::OneSlotBuffer],
    &[ProblemId::BoundedBuffer],
    &[ProblemId::FcfsResource],
    &[
        ProblemId::ReadersPriorityDb,
        ProblemId::WritersPriorityDb,
        ProblemId::FcfsReadersWriters,
    ],
    &[ProblemId::DiskScheduler],
    &[ProblemId::AlarmClock],
];

/// Runs every cell of `problems` under every one of its runs against its
/// laws; returns how many cells it swept.
fn sweep(problems: &[ProblemId]) -> usize {
    let cells: Vec<_> = cells()
        .into_iter()
        .filter(|c| problems.contains(&c.problem))
        .collect();
    assert!(!cells.is_empty(), "no cell for {problems:?}");
    let failures: Vec<String> = cells.iter().flat_map(|cell| cell.sweep()).collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    cells.len()
}

#[test]
fn the_groups_cover_every_cell_once() {
    let cells = cells();
    assert_eq!(cells.len(), 41);
    for cell in &cells {
        let homes = GROUPS.iter().filter(|g| g.contains(&cell.problem)).count();
        assert_eq!(homes, 1, "{cell} is swept by {homes} tests");
    }
}

#[test]
fn matrix_one_slot_buffer() {
    sweep(GROUPS[0]);
}

#[test]
fn matrix_bounded_buffer() {
    sweep(GROUPS[1]);
}

#[test]
fn matrix_fcfs_resource() {
    sweep(GROUPS[2]);
}

#[test]
fn matrix_readers_writers_all_variants() {
    // Each mechanism's three variants plus the path-v3 fix of Figure 1.
    assert_eq!(
        sweep(GROUPS[3]),
        3 * bloom_problems::rw::MECHANISMS.len() + 1
    );
}

#[test]
fn matrix_disk_scheduler() {
    sweep(GROUPS[4]);
}

#[test]
fn matrix_alarm_clock() {
    sweep(GROUPS[5]);
}

/// Larger stress configuration: the FCFS readers/writers cells at twice
/// the suite's population and ops, against their full law set.
#[test]
fn matrix_stress_scale() {
    for cell in cells()
        .iter()
        .filter(|c| c.problem == ProblemId::FcfsReadersWriters)
    {
        let result = run(rw_sim(cell.mechanism, RwVariant::Fcfs, 8, 4, 6), Some(99));
        let violations = cell.laws.check(&result);
        assert!(violations.is_empty(), "{cell}: {violations:?}");
        let events = extract(&result.expect("checked above").trace);
        assert!(events.len() > 200, "{cell}: expected a substantial trace");
    }
}

/// A standing finding, pinned as found: the CSP writers-priority server
/// admits a reader while a writer has been waiting since before the grant
/// decision (EXPERIMENTS T1). The seeded sweep passes this cell and the
/// first 40 000 unpruned schedules show no violation; `shrink_prefix` cut
/// a revisit-mode witness down to the prefix below. Whichever change
/// triages the finding — fixing the guard, or claiming and exhaustively
/// verifying a weaker guarantee the way F2 does — changes this test
/// deliberately.
#[test]
fn csp_writers_priority_admits_a_reader_past_a_waiting_writer() {
    let cell = cells()
        .into_iter()
        .find(|c| c.problem == ProblemId::WritersPriorityDb && c.mechanism == MechanismId::Csp)
        .expect("registered");
    let result = replay_prefix(
        || footnote3_sim(MechanismId::Csp, RwVariant::WritersPriority, 2, 2),
        &[0, 1, 2, 2, 2, 2, 2, 2, 2],
    );
    assert_eq!(cell.laws.violated(&result), vec!["strict-priority"]);
    let message = &cell.laws.check(&result)[0].violation.message;
    assert!(
        message.starts_with(
            "P3 entered read although 1 write request(s) had been waiting since before \
             the grant decision at seq 41 (requested at seq [34])"
        ),
        "{message}"
    );
}
