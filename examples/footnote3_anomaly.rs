//! The paper's footnote 3, live: Figure 1's readers-priority path
//! expression lets a second writer overtake a waiting reader.
//!
//! ```text
//! cargo run --example footnote3_anomaly
//! ```
//!
//! Part 1 replays Bloom's hand-traced interleaving deterministically and
//! prints the annotated event trace. Part 2 upgrades the argument with
//! the schedule explorer: *every* interleaving of the scenario is
//! executed, counting how many violate readers priority — for Figure 1
//! and for the monitor solution (which never does).

use bloom_core::checks::check_priority_over;
use bloom_core::events::extract;
use bloom_core::{MechanismId, Phase};
use bloom_problems::rw::{self, PathFig1ReadersPriority, ReadersWriters, RwVariant};
use bloom_sim::prelude::*;
use std::sync::Arc;

fn main() {
    println!("== Footnote 3: the Figure-1 readers-priority anomaly ==\n");
    println!("Figure 1 (Campbell & Habermann, as reproduced by Bloom):");
    println!("    path writeattempt end");
    println!("    path {{ requestread }} , requestwrite end");
    println!("    path {{ read }} , (openwrite ; write) end\n");

    // ---- Part 1: the deterministic replay -------------------------------
    let mut sim = Sim::new();
    let db = Arc::new(PathFig1ReadersPriority::new());
    let d1 = Arc::clone(&db);
    sim.spawn("writer-1", move |ctx| {
        d1.write(ctx, &mut || {
            for _ in 0..6 {
                ctx.yield_now(); // a long write
            }
        });
    });
    let d2 = Arc::clone(&db);
    sim.spawn("writer-2", move |ctx| {
        ctx.yield_now(); // arrives while writer-1 writes
        d2.write(ctx, &mut || {});
    });
    let d3 = Arc::clone(&db);
    sim.spawn("reader", move |ctx| {
        ctx.yield_now();
        ctx.yield_now(); // arrives after writer-2, still during the write
        d3.read(ctx, &mut || {});
    });
    let report = sim.run().expect("no deadlock");
    let events = extract(&report.trace);

    println!("Scripted replay (writer-1 writing; writer-2 then reader arrive):");
    for e in &events {
        let who = report.name_of(e.pid);
        let phase = match e.phase {
            Phase::Request => "requests",
            Phase::Enter => "ENTERS",
            Phase::Exit => "exits",
        };
        println!("    [seq {:>3}] {who:<9} {phase} {}", e.seq, e.op);
    }
    let violations = check_priority_over(&events, "read", "write");
    println!();
    for v in &violations {
        println!("  VIOLATION {v}");
    }
    assert!(
        !violations.is_empty(),
        "the scripted anomaly must reproduce"
    );
    println!(
        "\n  \"The second writer will therefore gain access to the resource before\n   \
         the reader, though readers should have priority.\"  — footnote 3\n"
    );

    // ---- Part 2: exhaustive exploration ---------------------------------
    println!("Exhaustive check (two writers, one reader, every interleaving):\n");
    for mech in [
        MechanismId::PathV1,
        MechanismId::PathV3,
        MechanismId::Monitor,
        MechanismId::Serializer,
    ] {
        let (journal, stats) = ExploreConfig::new(500_000).threads(4).run(
            || {
                let mut sim = Sim::new();
                let db = rw::make(mech, RwVariant::ReadersPriority);
                for i in 0..2 {
                    let db = Arc::clone(&db);
                    sim.spawn(&format!("writer{i}"), move |ctx| {
                        db.write(ctx, &mut || ctx.yield_now());
                    });
                }
                let db = Arc::clone(&db);
                sim.spawn("reader", move |ctx| {
                    db.read(ctx, &mut || ctx.yield_now());
                });
                sim
            },
            |_, result| {
                result.as_ref().is_ok_and(|report| {
                    !check_priority_over(&extract(&report.trace), "read", "write").is_empty()
                })
            },
        );
        assert!(stats.complete);
        let schedules = journal.len();
        let violating = journal.iter().filter(|r| r.value).count();
        let verdict = if violating > 0 {
            "ANOMALOUS"
        } else {
            "correct "
        };
        println!(
            "    {:<14} {verdict}   {violating:>3} of {schedules:>3} schedules violate \
             readers priority",
            mech.to_string()
        );
    }
    println!(
        "\nThe anomaly is a property of Figure 1, not of the scenario: the monitor and\n\
         serializer solutions are clean across the entire schedule tree — and so is\n\
         path-expr v3, where a single Andler predicate (blocked(read) == 0 on write)\n\
         states readers priority directly, exactly the fix the paper's history of the\n\
         mechanism predicts."
    );
}
