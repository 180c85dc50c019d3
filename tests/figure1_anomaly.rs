//! Experiment F1/F1a/F2: the paper's Figures 1 & 2 under **exhaustive
//! schedule exploration**.
//!
//! Bloom's footnote 3 argues, by exhibiting one interleaving, that the
//! Figure-1 path-expression solution does not implement readers priority.
//! The deterministic simulator lets us upgrade that argument from "one
//! hand-traced interleaving" to a machine-checked quantifier: over *every*
//! schedule of the footnote-3 scenario,
//!
//! * the Figure-1 solution violates the readers-priority constraint in at
//!   least one schedule (and exclusion in none) — the anomaly is real;
//! * the monitor, serializer and semaphore readers-priority solutions
//!   violate it in *no* schedule — the anomaly is Figure 1's, not the
//!   scenario's;
//! * the Figure-2 writers-priority solution never lets a later reader
//!   overtake a waiting writer.

#![deny(deprecated)]

use bloom_core::checks::{check_exclusion, check_no_later_overtake, check_priority_over};
use bloom_core::events::extract;
use bloom_core::MechanismId;
use bloom_problems::drivers::footnote3_sim;
use bloom_problems::rw::RwVariant;
use bloom_sim::prelude::*;

const READ: &str = "read";
const WRITE: &str = "write";

struct ExplorationOutcome {
    schedules: usize,
    complete: bool,
    priority_violations: usize,
    exclusion_violations: usize,
    failures: usize,
    /// Schedules in which some process body ended by a shutdown unwind
    /// (`SimMetrics::shutdown_unwinds`): a host-independent count of the
    /// cost the cancellable channel forms exist to avoid.
    shutdown_unwinds: usize,
}

fn explore_readers_priority(mech: MechanismId, cap: usize) -> ExplorationOutcome {
    // (failed, priority violation, exclusion violation, shutdown unwinds)
    // per schedule.
    let (journal, stats) = ExploreConfig::new(cap).threads(4).run(
        || footnote3_sim(mech, RwVariant::ReadersPriority, 2, 1),
        |_, result| {
            let report = match result {
                Ok(r) => r,
                Err(_) => return (true, false, false, 0),
            };
            let events = extract(&report.trace);
            (
                false,
                !check_priority_over(&events, READ, WRITE).is_empty(),
                !check_exclusion(&events, &[(READ, WRITE), (WRITE, WRITE)]).is_empty(),
                report.metrics.shutdown_unwinds,
            )
        },
    );
    ExplorationOutcome {
        schedules: journal.len(),
        complete: stats.complete,
        priority_violations: journal.iter().filter(|r| r.value.1).count(),
        exclusion_violations: journal.iter().filter(|r| r.value.2).count(),
        failures: journal.iter().filter(|r| r.value.0).count(),
        shutdown_unwinds: journal.iter().filter(|r| r.value.3 > 0).count(),
    }
}

#[test]
fn figure1_violates_readers_priority_in_some_schedule() {
    let out = explore_readers_priority(MechanismId::PathV1, 200_000);
    assert!(
        out.complete,
        "exploration must cover the whole schedule tree"
    );
    assert_eq!(out.failures, 0, "no deadlocks or panics");
    assert!(
        out.priority_violations > 0,
        "footnote 3: some schedule must show a writer beating a waiting reader \
         ({} schedules explored)",
        out.schedules
    );
    assert_eq!(
        out.exclusion_violations, 0,
        "the anomaly is purely a priority bug; exclusion holds in all {} schedules",
        out.schedules
    );
    println!(
        "figure-1: {} of {} schedules violate readers priority",
        out.priority_violations, out.schedules
    );
}

#[test]
fn monitor_solution_is_anomaly_free_over_all_schedules() {
    let out = explore_readers_priority(MechanismId::Monitor, 400_000);
    assert!(out.complete);
    assert_eq!(out.failures, 0);
    assert_eq!(
        out.priority_violations, 0,
        "monitor readers-priority must hold in all {} schedules",
        out.schedules
    );
    assert_eq!(out.exclusion_violations, 0);
}

#[test]
fn serializer_solution_is_anomaly_free_over_all_schedules() {
    let out = explore_readers_priority(MechanismId::Serializer, 400_000);
    assert!(out.complete);
    assert_eq!(out.failures, 0);
    assert_eq!(out.priority_violations, 0);
    assert_eq!(out.exclusion_violations, 0);
}

#[test]
fn semaphore_solution_is_anomaly_free_over_all_schedules() {
    let out = explore_readers_priority(MechanismId::Semaphore, 400_000);
    assert!(out.complete);
    assert_eq!(out.failures, 0);
    assert_eq!(out.priority_violations, 0);
    assert_eq!(out.exclusion_violations, 0);
}

/// The Andler (v3) predicate solution — `path {read},write end` plus the
/// predicate `blocked(read) == 0` on `write` — fixes the anomaly: the
/// paper's remark that Andler's version "comes closest to satisfying our
/// requirements" made checkable.
#[test]
fn path_v3_predicates_fix_the_anomaly() {
    let out = explore_readers_priority(MechanismId::PathV3, 400_000);
    assert!(out.complete);
    assert_eq!(out.failures, 0);
    assert_eq!(
        out.priority_violations, 0,
        "v3 predicates must eliminate the footnote-3 anomaly          ({} schedules explored)",
        out.schedules
    );
    assert_eq!(out.exclusion_violations, 0);
}

/// The CSP server solution (§6 future work): the guard
/// `start_read.pending_senders_ctx(ctx) == 0` on the write alternative
/// plays the same role as the v3 predicate — no anomaly in any schedule.
/// Its server daemon waits only in the cancellable channel forms, so no
/// schedule ends it with a shutdown unwind.
#[test]
fn csp_server_is_anomaly_free_over_all_schedules() {
    let out = explore_readers_priority(MechanismId::Csp, 400_000);
    assert!(out.complete);
    assert_eq!(out.schedules, 20_358);
    assert_eq!(out.failures, 0);
    assert_eq!(out.priority_violations, 0, "{} schedules", out.schedules);
    assert_eq!(out.exclusion_violations, 0);
    assert_eq!(out.shutdown_unwinds, 0, "{} schedules", out.schedules);
}

/// Figure 2, same scenario shape but writers-priority semantics: no
/// reader that requests after a waiting writer may overtake it, in any
/// schedule.
#[test]
fn figure2_never_lets_later_readers_overtake() {
    let (journal, stats) = ExploreConfig::new(400_000).threads(4).run(
        || footnote3_sim(MechanismId::PathV1, RwVariant::WritersPriority, 2, 1),
        |_, result| {
            let report = result.as_ref().expect("figure 2 must not deadlock");
            let events = extract(&report.trace);
            !check_no_later_overtake(&events, WRITE, READ).is_empty()
        },
    );
    assert!(stats.complete);
    let schedules = journal.len();
    let violations = journal.iter().filter(|r| r.value).count();
    assert_eq!(violations, 0, "figure 2 holds in all {schedules} schedules");
}
