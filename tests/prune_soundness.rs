//! Soundness oracle for the explorers' equivalence pruning.
//!
//! proptest generates small random workloads — processes taking
//! semaphore-protected critical sections on a shared or private semaphore,
//! with bare yields mixed in — and the revisit exploration (DESIGN.md
//! §2.14) must observe **exactly** the behaviors the unpruned one does:
//!
//! * the set of distinct per-run journals (liveness verdict + full
//!   user-event trace) is identical — pruning may skip a schedule only
//!   when an equivalent one is already in the set;
//! * every checker verdict is identical — here, mutual exclusion of the
//!   critical sections, which holds in every schedule pruned or not;
//! * the pruned exploration never visits *more* schedules.
//!
//! This is the workload family the object-granular footprint log was
//! built for (disjoint semaphores commute; a shared one does not). The
//! oracle runs at one inline worker and at 1/2/4/8 worker threads, plus
//! the accounting cross-check (`ExploreStats::assert_consistent`).
//!
//! A second generator adds *data* nondeterminism (`Ctx::choose_value`,
//! DESIGN.md §2.15): a chooser process draws a value and either observes
//! it exactly (no collapse is sound — the symbolic engine must enumerate
//! the domain) or only compares it against a threshold (the constraint
//! classes must collapse, strictly beating brute-force enumeration). The
//! revisit mode's behavior set must equal the brute-force one, and its
//! journals must stay byte-identical across the same worker counts.

#![deny(deprecated)]

#[path = "support/sem_workload.rs"]
mod sem_workload;

use bloom_core::checks::{check_exclusion, expect_clean};
use bloom_core::events::extract;
use bloom_semaphore::Semaphore;
use bloom_sim::prelude::*;
use proptest::prelude::*;
use sem_workload::{build_sim, exec_step, step, workload, Step};
use std::collections::BTreeSet;
use std::sync::Arc;

const BUDGET: usize = 30_000;

/// Journal line for one schedule: liveness verdict plus the full ordered
/// user-event trace. Also asserts the exclusion checker is clean — the
/// semaphores guard the critical sections in *every* schedule, pruned or
/// not, so a prune that manufactured a violation would fail here first.
fn line(result: &Result<SimReport, SimError>) -> String {
    let report = match result {
        Ok(report) => report,
        Err(err) => &err.report,
    };
    let events = extract(&report.trace);
    expect_clean(
        &check_exclusion(&events, &[("c0", "c0"), ("c1", "c1")]),
        "critical sections are semaphore-protected",
    );
    // Behavior = the ordered (process, label, params) sequence. Timestamps
    // are deliberately excluded: commuting two quanta shifts the
    // timestamps of everything between them — that is exactly the
    // unobservable difference the prune collapses (reading the clock via
    // `Ctx::now` voids the prune for this very reason).
    let trace: Vec<String> = report
        .trace
        .user_events()
        .map(|(e, label, params)| format!("{}:{label}:{params:?}", e.pid))
        .collect();
    format!("{} {}", result.is_ok(), trace.join(","))
}

/// The `try_p` footprint blind spot, pinned as a deterministic case: a
/// nonblocking attempt races a `v`, so the hit/miss branch depends on the
/// schedule. The probe sits alone in its quantum — the `yield_now`
/// separates it from the branch's emission, so nothing *else* in that
/// quantum leaves a footprint. The bare `Semaphore::try_p` records none
/// either: an empty footprint races with nothing, the prune never
/// reverses the probe and the `v`, and the pruned exploration loses one
/// of the two behaviors (swap in `try_p` and this test fails). The
/// instrumented `try_p_ctx` marks the access; both explorations must
/// observe both behaviors.
#[test]
fn instrumented_try_p_is_visible_to_the_prune() {
    let build = || {
        let mut sim = Sim::new();
        let sem = Arc::new(Semaphore::strong("s", 0));
        let s1 = Arc::clone(&sem);
        sim.spawn("taker", move |ctx| {
            let got = s1.try_p_ctx(ctx);
            ctx.yield_now();
            if got {
                ctx.emit("got", &[]);
                s1.v(ctx);
            } else {
                ctx.emit("missed", &[]);
            }
        });
        let s2 = Arc::clone(&sem);
        sim.spawn("giver", move |ctx| s2.v(ctx));
        sim
    };
    let collect = |prune: bool| {
        let config = ExploreConfig::new(BUDGET);
        let config = if prune {
            config.mode(PruneMode::Revisit)
        } else {
            config
        };
        let (journal, stats) = config.run(build, |_, result| {
            let report = result.as_ref().expect("no deadlock possible");
            let labels: Vec<String> = report
                .trace
                .user_events()
                .map(|(_, label, _)| label.to_string())
                .collect();
            labels.join(",")
        });
        assert!(stats.complete, "tiny tree must be fully explored");
        journal
            .into_iter()
            .map(|r| r.value)
            .collect::<BTreeSet<_>>()
    };
    let unpruned = collect(false);
    assert_eq!(
        unpruned.len(),
        2,
        "the race has exactly two behaviors: {unpruned:?}"
    );
    assert_eq!(collect(true), unpruned, "prune must keep both behaviors");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn pruned_exploration_observes_every_behavior(w in workload()) {
        let behaviors = |journal: Vec<bloom_sim::ScheduleRecord<String>>| -> BTreeSet<String> {
            journal.into_iter().map(|r| r.value).collect()
        };
        let (unpruned_journal, unpruned_stats) = ExploreConfig::new(BUDGET)
            .run(|| build_sim(&w), |_, result| line(result));
        prop_assert!(unpruned_stats.complete, "workload exceeds the budget");
        let unpruned = behaviors(unpruned_journal);

        // The revisit mode against the unpruned oracle, at one inline
        // worker and at 1/2/4/8 worker threads: the same behavior set, no
        // more schedules, and balanced accounting on every workload the
        // generator produces. The unified verbs return journals sorted by
        // decision vector, so every entry below is directly
        // byte-comparable.
        let revisit = ExploreConfig::new(BUDGET).mode(PruneMode::Revisit);
        let (revisit_journal, revisit_stats) =
            revisit.run(|| build_sim(&w), |_, result| line(result));
        prop_assert!(revisit_stats.complete);
        revisit_stats.assert_consistent();
        prop_assert!(
            revisit_stats.schedules <= unpruned_stats.schedules,
            "revisit visited more schedules than exhaustive ({} > {})",
            revisit_stats.schedules,
            unpruned_stats.schedules,
        );
        let revisit_behaviors: BTreeSet<String> =
            revisit_journal.iter().map(|r| r.value.clone()).collect();
        prop_assert_eq!(
            &revisit_behaviors, &unpruned,
            "revisit exploration must observe the same behavior set \
             (schedules: {} revisit vs {} unpruned)",
            revisit_stats.schedules, unpruned_stats.schedules,
        );

        for threads in [1, 2, 4, 8] {
            let (records, stats) = revisit
                .clone()
                .threads(threads)
                .run(|| build_sim(&w), |_, result| line(result));
            prop_assert!(stats.complete);
            stats.assert_consistent();
            prop_assert_eq!(stats.schedules, revisit_stats.schedules);
            prop_assert_eq!(stats.pruned, revisit_stats.pruned);
            prop_assert_eq!(
                stats.revisit_requests,
                revisit_stats.revisit_requests
            );
            prop_assert_eq!(stats.revisits, revisit_stats.revisits);
            prop_assert_eq!(
                &records, &revisit_journal,
                "{} threads: revisit journal diverged from one worker",
                threads,
            );
        }
    }
}

/// One data-nondeterminism step for the symbolic oracle (DESIGN.md §2.15).
#[derive(Debug, Clone, Copy)]
enum DataStep {
    /// `choose_value` over `0..n`, observed exactly via `SymValue::get`:
    /// every value is behaviorally distinct, so no collapse is sound and
    /// the symbolic engine must enumerate the whole domain.
    Pick(i64),
    /// `choose_value` over `1..=3` compared against `threshold`: the
    /// behavior depends only on the comparison class, so the class with
    /// two members must collapse to one representative — strictly fewer
    /// runs than brute-force enumeration.
    Guard { sem: usize, threshold: i64 },
}

fn data_step() -> impl Strategy<Value = DataStep> {
    prop_oneof![
        (2i64..4).prop_map(DataStep::Pick),
        ((0usize..2), (1i64..3)).prop_map(|(sem, threshold)| DataStep::Guard { sem, threshold }),
    ]
}

/// One scheduler-nondeterministic program racing one data-choosing
/// process (plus an optional pure-note third): every data decision point
/// appears under several scheduling contexts, so the collapse has to be
/// correct at *every* tree position, not just the root.
fn data_workload() -> impl Strategy<Value = (Vec<Step>, DataStep, Option<u8>)> {
    (
        prop::collection::vec(step(), 1..3),
        data_step(),
        prop_oneof![Just(None), (0u8..3).prop_map(Some)],
    )
}

fn build_data_sim(w: &(Vec<Step>, DataStep, Option<u8>)) -> Sim {
    let mut sim = Sim::new();
    let sems: Arc<[Semaphore; 2]> =
        Arc::new([Semaphore::strong("s0", 1), Semaphore::strong("s1", 1)]);
    let program = w.0.clone();
    let psems = Arc::clone(&sems);
    sim.spawn("p0", move |ctx| {
        for op in program {
            exec_step(ctx, &psems, 0, op);
        }
    });
    let data = w.1;
    sim.spawn("chooser", move |ctx| {
        ctx.yield_now();
        match data {
            DataStep::Pick(n) => {
                let v = ctx.choose_value("pick", 0..n);
                ctx.emit("pick", &[v.get()]);
            }
            DataStep::Guard { sem, threshold } => {
                let v = ctx.choose_value("load", 1..=3);
                if v.gt(threshold) {
                    sems[sem].p(ctx);
                    ctx.emit(&format!("enter:c{sem}"), &[]);
                    ctx.yield_now();
                    ctx.emit(&format!("exit:c{sem}"), &[]);
                    sems[sem].v(ctx);
                } else {
                    ctx.emit("light", &[]);
                }
            }
        }
    });
    if let Some(tag) = w.2 {
        sim.spawn("p2", move |ctx| ctx.emit(&format!("note:2:{tag}"), &[]));
    }
    sim
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The symbolic collapse against brute force: the revisit engine's
    /// behavior set over a workload with data decisions must equal the
    /// plain DFS enumeration of every concrete value, its accounting must
    /// balance, and (when the data step only *compares* the value) it
    /// must get there in strictly fewer runs. Journals and statistics
    /// stay byte-identical across one inline worker and 1/2/4/8 worker
    /// threads.
    #[test]
    fn symbolic_exploration_matches_brute_force(w in data_workload()) {
        let (brute_journal, brute_stats) = ExploreConfig::new(BUDGET)
            .run(|| build_data_sim(&w), |_, result| line(result));
        prop_assert!(brute_stats.complete, "workload exceeds the budget");
        let brute: BTreeSet<String> =
            brute_journal.into_iter().map(|r| r.value).collect();

        let revisit = ExploreConfig::new(BUDGET).mode(PruneMode::Revisit);
        let (reference, ref_stats) =
            revisit.run(|| build_data_sim(&w), |_, result| line(result));
        prop_assert!(ref_stats.complete);
        ref_stats.assert_consistent();
        prop_assert!(
            ref_stats.sym_grants > 0,
            "a 2+-value domain always grants at least one value sibling"
        );
        let symbolic: BTreeSet<String> =
            reference.iter().map(|r| r.value.clone()).collect();
        prop_assert_eq!(
            &symbolic, &brute,
            "symbolic behavior set must equal brute-force enumeration \
             (schedules: {} symbolic vs {} brute)",
            ref_stats.schedules, brute_stats.schedules,
        );
        prop_assert!(
            ref_stats.schedules <= brute_stats.schedules,
            "the symbolic engine never runs more than brute force \
             ({} > {})",
            ref_stats.schedules,
            brute_stats.schedules,
        );
        if matches!(w.1, DataStep::Guard { .. }) {
            prop_assert!(
                ref_stats.schedules < brute_stats.schedules,
                "comparison-only observation must collapse the two-member \
                 class ({} vs {})",
                ref_stats.schedules,
                brute_stats.schedules,
            );
        }

        for threads in [1, 2, 4, 8] {
            let (records, stats) = revisit
                .clone()
                .threads(threads)
                .run(|| build_data_sim(&w), |_, result| line(result));
            prop_assert!(stats.complete);
            stats.assert_consistent();
            prop_assert_eq!(stats.schedules, ref_stats.schedules);
            prop_assert_eq!(stats.pruned, ref_stats.pruned);
            prop_assert_eq!(stats.revisits, ref_stats.revisits);
            prop_assert_eq!(stats.sym_requests, ref_stats.sym_requests);
            prop_assert_eq!(stats.sym_grants, ref_stats.sym_grants);
            prop_assert_eq!(
                &records, &reference,
                "{} threads: symbolic journal diverged from one worker",
                threads,
            );
        }
    }
}
