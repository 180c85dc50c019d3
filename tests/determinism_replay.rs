//! Cross-crate determinism and replay guarantees.
//!
//! Every behavioral claim in this reproduction rests on the simulator
//! being deterministic: same policy → same trace, recorded decisions →
//! identical replay. These tests exercise that over full problem
//! workloads (not just toy processes).

#![deny(deprecated)]

use bloom_core::events::extract;
use bloom_core::MechanismId;
use bloom_problems::drivers::{run, rw_sim};
use bloom_problems::rw::{self, RwVariant};
use bloom_sim::prelude::*;
use std::sync::Arc;

fn signature(report: &SimReport) -> Vec<String> {
    extract(&report.trace)
        .iter()
        .map(|e| format!("{}:{}:{:?}:{:?}", e.seq, e.pid, e.phase, e.op))
        .collect()
}

#[test]
fn identical_seeds_produce_identical_traces() {
    for mech in rw::MECHANISMS {
        let a = run(rw_sim(mech, RwVariant::Fcfs, 4, 2, 3), Some(12345)).expect("clean run");
        let b = run(rw_sim(mech, RwVariant::Fcfs, 4, 2, 3), Some(12345)).expect("clean run");
        assert_eq!(
            signature(&a),
            signature(&b),
            "{mech}: same seed, same trace"
        );
    }
}

#[test]
fn different_seeds_usually_differ() {
    // At least one pair of seeds must differ for a contended workload —
    // otherwise the policy is not actually consulted.
    let mut distinct = std::collections::BTreeSet::new();
    for seed in 0..5 {
        let r = run(
            rw_sim(MechanismId::Monitor, RwVariant::ReadersPriority, 4, 2, 3),
            Some(seed),
        )
        .expect("clean run");
        distinct.insert(signature(&r));
    }
    assert!(
        distinct.len() > 1,
        "five seeds produced identical schedules"
    );
}

#[test]
fn recorded_decisions_replay_full_problem_runs() {
    let build = || {
        let mut sim = Sim::new();
        let db = rw::make(MechanismId::Serializer, RwVariant::WritersPriority);
        for i in 0..3 {
            let db = Arc::clone(&db);
            sim.spawn(&format!("reader{i}"), move |ctx| {
                for _ in 0..3 {
                    db.read(ctx, &mut || ctx.yield_now());
                }
            });
        }
        for i in 0..2 {
            let db = Arc::clone(&db);
            sim.spawn(&format!("writer{i}"), move |ctx| {
                for _ in 0..3 {
                    db.write(ctx, &mut || ctx.yield_now());
                }
            });
        }
        sim
    };
    let mut original = build();
    original.set_policy(RandomPolicy::new(777));
    let report = original.run().expect("clean run");
    let script: Vec<u32> = report.decisions.iter().map(|d| d.chosen).collect();

    let mut replayed = build();
    replayed.set_policy(ReplayPolicy::new(script));
    let replay_report = replayed.run().expect("replay runs");
    assert_eq!(signature(&report), signature(&replay_report));
    assert_eq!(report.final_time, replay_report.final_time);
    assert_eq!(report.steps, replay_report.steps);
}

#[test]
fn virtual_time_is_stable_across_runs() {
    let a = run(rw_sim(MechanismId::PathV1, RwVariant::Fcfs, 3, 2, 2), None).expect("clean run");
    let b = run(rw_sim(MechanismId::PathV1, RwVariant::Fcfs, 3, 2, 2), None).expect("clean run");
    let times_a: Vec<u64> = a.trace.events().iter().map(|e| e.time.0).collect();
    let times_b: Vec<u64> = b.trace.events().iter().map(|e| e.time.0).collect();
    assert_eq!(times_a, times_b);
}
