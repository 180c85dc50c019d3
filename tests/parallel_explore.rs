//! Determinism contract of the exploration engine: for any worker count,
//! the exploration of a real problem tree is *byte-identical* to the one
//! inline worker's — same schedule count, same set of decision vectors,
//! same merged journal in the same order, and the same `SimMetrics` and
//! the same exported JSONL/Chrome trace bytes for every schedule.
//!
//! The scenario is the experiment-R2 dining-philosophers deadlock-recovery
//! sim: a genuinely contested tree (thousands of schedules) whose runs
//! exercise deadlock detection, victim abort, and recovery bookkeeping —
//! the worst case for any scheme whose merged order could depend on which
//! worker got which subtree.
//!
//! The one inline worker is the serial order itself: unpruned, under a
//! budget cut it runs exactly the first schedules of the complete
//! depth-first journal.

#![deny(deprecated)]

use bloom_core::liveness::classify_liveness;
use bloom_problems::liveness::{deadlock_recovery_sim, LiveMechanism};
use bloom_sim::prelude::*;
use bloom_sim::{export, Decision};
use std::collections::BTreeSet;

const BUDGET: usize = 50_000;

/// FNV-1a 64: folds a whole exported document into one journal token, so
/// the byte-identity assertion covers every exported byte of every
/// schedule without holding thousands of full documents in memory.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One journal line per schedule: decision vector, victim count, verdict,
/// the run's metrics, and hashes of both export formats.
fn line(decisions: &[Decision], result: &Result<SimReport, SimError>) -> String {
    let report: &SimReport = match result {
        Ok(report) => report,
        Err(err) => &err.report,
    };
    let m = &report.metrics;
    assert!(
        !m.replay.diverged(),
        "exhaustive exploration must never diverge from its own decisions"
    );
    let jsonl = export::to_jsonl(&report.trace, m);
    let chrome = export::to_chrome_trace(&report.trace, m);
    let choices: Vec<u32> = decisions.iter().map(|d| d.chosen).collect();
    format!(
        "{choices:?} v{} {} d{} s{} p{} w{} q{} j{:016x} c{:016x}",
        report.recovered.len(),
        classify_liveness(result),
        m.dispatches,
        m.context_switches,
        m.total_parks(),
        m.total_wakes(),
        m.max_queue_depth(),
        fnv1a(jsonl.as_bytes()),
        fnv1a(chrome.as_bytes()),
    )
}

#[test]
fn parallel_matches_serial_on_recovery_tree_at_every_thread_count() {
    let mech = LiveMechanism::SemaphoreStrong;

    // One-worker baseline: the journal comes back in lexicographic
    // decision-vector order — the canonical order the merge of every
    // worker count reproduces.
    let config = ExploreConfig::new(BUDGET);
    let (serial_records, serial_stats) = config.run(|| deadlock_recovery_sim(mech), line);
    assert!(serial_stats.complete, "budget too small for the tree");
    let serial_journal: Vec<String> = serial_records.into_iter().map(|r| r.value).collect();
    let serial_vectors: BTreeSet<String> = serial_journal.iter().cloned().collect();

    for threads in [1, 2, 4, 8] {
        let (records, stats): (Vec<ScheduleRecord<String>>, _) = config
            .clone()
            .threads(threads)
            .run(|| deadlock_recovery_sim(mech), line);
        assert_eq!(
            stats.schedules, serial_stats.schedules,
            "{threads} threads: schedule count diverged"
        );
        assert!(stats.complete, "{threads} threads: must exhaust the tree");
        assert_eq!(
            stats.depth_schedules, serial_stats.depth_schedules,
            "{threads} threads: depth histogram diverged"
        );
        assert_eq!(
            stats.depth_pruned, serial_stats.depth_pruned,
            "{threads} threads: prune histogram diverged"
        );
        match (&stats.first_error, &serial_stats.first_error) {
            (None, None) => {}
            (Some(parallel), Some(serial)) => assert_eq!(
                parallel.choices, serial.choices,
                "{threads} threads: canonical first error diverged"
            ),
            (parallel, serial) => panic!(
                "{threads} threads: first_error presence diverged \
                 (parallel: {:?}, serial: {:?})",
                parallel.is_some(),
                serial.is_some()
            ),
        }
        let vectors: BTreeSet<String> = records.iter().map(|r| r.value.clone()).collect();
        assert_eq!(
            vectors, serial_vectors,
            "{threads} threads: decision-vector set diverged"
        );
        let merged: Vec<String> = records.into_iter().map(|r| r.value).collect();
        assert_eq!(
            merged, serial_journal,
            "{threads} threads: merged journal (incl. metrics and export \
             hashes) is not byte-identical to serial"
        );
    }
}

/// The revisit prune on the recovery tree: exactly 243 of the tree's 492
/// schedules (the count is deterministic, so a change to it must be
/// deliberate), byte-identical journals (decision vectors, verdicts,
/// metrics, export hashes) across one inline worker and 1/2/4/8 worker
/// threads, and every returned [`ExploreStats`] passing its own
/// accounting cross-check — the regression net for prune-tally drift
/// (`depth_pruned` is settled from discovered-sibling capacity minus
/// grants, not incremented ad hoc).
#[test]
fn revisit_matches_serial_on_recovery_tree() {
    let mech = LiveMechanism::SemaphoreStrong;
    let config = ExploreConfig::new(BUDGET).mode(PruneMode::Revisit);
    let (serial_records, serial_stats) = config.run(|| deadlock_recovery_sim(mech), line);
    assert!(serial_stats.complete, "budget too small for the tree");
    serial_stats.assert_consistent();
    assert_eq!(serial_stats.schedules, 243, "revisit schedules");
    assert!(
        serial_stats.schedules < 492,
        "revisit must prune the 492-schedule recovery tree"
    );
    assert_eq!(
        serial_stats.schedules,
        serial_stats.revisits as usize + 1,
        "every schedule past the root run is a granted revisit"
    );
    // The unified verb already canonicalises by decision vector.
    let serial_journal: Vec<String> = serial_records.into_iter().map(|r| r.value).collect();

    for threads in [1, 2, 4, 8] {
        let (records, stats): (Vec<ScheduleRecord<String>>, _) = config
            .clone()
            .threads(threads)
            .run(|| deadlock_recovery_sim(mech), line);
        stats.assert_consistent();
        assert_eq!(stats.schedules, serial_stats.schedules, "{threads} threads");
        assert_eq!(stats.pruned, serial_stats.pruned, "{threads} threads");
        assert_eq!(
            stats.revisit_requests, serial_stats.revisit_requests,
            "{threads} threads: race-request tally diverged"
        );
        assert_eq!(stats.revisits, serial_stats.revisits, "{threads} threads");
        assert_eq!(stats.conflicts, serial_stats.conflicts, "{threads} threads");
        assert_eq!(
            stats.depth_pruned, serial_stats.depth_pruned,
            "{threads} threads: prune histogram diverged"
        );
        let merged: Vec<String> = records.into_iter().map(|r| r.value).collect();
        assert_eq!(
            merged, serial_journal,
            "{threads} threads: revisit journal is not byte-identical to serial"
        );
    }
}

/// One worker pops the least prefix, so under a budget cut it runs the
/// first schedules of the complete journal, on a tree whose runs
/// deadlock, abort victims, and recover. Unpruned this holds by
/// construction: every prefix a run pushes extends its own decision
/// vector. Under revisit it is observed on this tree, not guaranteed: a
/// race whose earlier quantum lies inside a run's prefix can request a
/// branch that sorts before that run.
#[test]
fn one_worker_budget_cut_runs_the_first_schedules_on_recovery_tree() {
    let mech = LiveMechanism::SemaphoreStrong;
    let modes: [fn(usize) -> ExploreConfig; 2] = [ExploreConfig::new, |budget| {
        ExploreConfig::new(budget).mode(PruneMode::Revisit)
    }];
    for config in modes {
        let (complete, stats) = config(BUDGET).run(|| deadlock_recovery_sim(mech), line);
        assert!(stats.complete, "budget too small for the tree");
        for budget in [1, 4, 37, stats.schedules / 2, stats.schedules - 1] {
            let (journal, cut) = config(budget).run(|| deadlock_recovery_sim(mech), line);
            assert!(!cut.complete, "budget {budget} must cut the tree");
            assert_eq!(cut.schedules, budget);
            assert_eq!(
                journal,
                complete[..budget],
                "budget {budget}: one worker must run the first schedules"
            );
        }
    }
}
