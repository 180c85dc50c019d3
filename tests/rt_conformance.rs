//! R4: the differential conformance suite — real-thread executions of
//! the five mechanisms must stay inside the simulator's exhaustively
//! explored verdict envelope, and injected mid-protocol panics must
//! classify as contained or poisoned, never wedged.
//!
//! Iteration count: `RT_CONFORMANCE_ITERS` (default 100 per scenario).
//! These tests are *inherently nondeterministic* (real OS scheduling
//! under seeded jitter) and therefore assert only envelope containment,
//! never timing or specific interleavings; they are quarantined from
//! every golden/byte-identity test in the repo.

#![deny(deprecated)]

use bloom_bench::rt_conformance::{
    crash_scenarios, rt_crash_run, rt_verdict, scenarios, sim_crash_envelope, sim_envelope,
    stress_iters,
};
use bloom_core::CrashOutcome;

/// Seed base: arbitrary, fixed so failures report a reproducible seed
/// (reproducible in *intent* — the OS schedule under a seed is still
/// nondeterministic; the seed pins the jitter stream, not the run).
const SEED_BASE: u64 = 0xB100_0004;

#[test]
fn rt_verdicts_fall_inside_the_sim_envelope() {
    let iters = stress_iters();
    for s in scenarios() {
        let envelope = sim_envelope(&s);
        assert!(
            !envelope.is_empty(),
            "scenario {}: empty envelope cannot contain anything",
            s.name
        );
        for i in 0..iters {
            let seed = SEED_BASE.wrapping_add(i as u64);
            let verdict = rt_verdict(&s, seed);
            assert!(
                envelope.contains(&verdict),
                "scenario {} ({}), iteration {i} (jitter seed {seed:#x}): real-thread \
                 verdict {verdict:?} is outside the simulator envelope {envelope:?}",
                s.name,
                s.mechanism,
            );
        }
    }
}

#[test]
fn every_scenario_is_law_clean_in_some_schedule() {
    // Sanity on the suite itself: an envelope of pure violations would
    // make containment meaningless (a broken mechanism conforming to a
    // broken envelope). Every scenario must have at least one law-clean
    // verdict on the simulator side.
    for s in scenarios() {
        let envelope = sim_envelope(&s);
        assert!(
            envelope.iter().any(|v| v.starts_with("law-clean")),
            "scenario {}: no law-clean verdict in {envelope:?}",
            s.name
        );
    }
}

/// Every crash scenario's real-thread outcomes stay inside its simulator
/// envelope and never wedge, on a busy host too. Load recipe (the CI
/// step "Crash conformance under CPU load" runs it; 20 of 20 runs must
/// pass with three CPU hogs on two vCPUs):
///
/// ```text
/// cargo test -q -p bloom-bench --test rt_conformance --no-run
/// hogs=(); for i in 1 2 3; do yes > /dev/null & hogs+=($!); done
/// for i in $(seq 20); do
///   cargo test -q -p bloom-bench --test rt_conformance \
///     injected_panics_never_wedge_on_either_backend || break
/// done
/// kill "${hogs[@]}"
/// ```
///
/// Two things keep real time from deciding the outcome: `RtSim::run`
/// starts no body before every thread is live, and in `channel-crash`
/// both rendezvous sides wait with a budget, so a descheduled victim
/// misses the offer instead of waiting forever for it.
#[test]
fn injected_panics_never_wedge_on_either_backend() {
    let iters = stress_iters();
    for c in crash_scenarios() {
        let envelope = sim_crash_envelope(&c);
        assert!(
            !envelope.contains(&CrashOutcome::Wedged),
            "crash scenario {}: the simulator sweep itself wedges ({envelope:?}) — \
             the scenario is not built from poisoning/withdrawing forms",
            c.name
        );
        for i in 0..iters {
            let seed = SEED_BASE.wrapping_add(0x1000 + i as u64);
            // Cycle the sweep so every kill point gets iters/max_points
            // jittered samples.
            let point = 1 + (i as u64 % c.max_points);
            let run = rt_crash_run(&c, point, seed);
            assert_ne!(
                run.outcome,
                CrashOutcome::Wedged,
                "crash scenario {} ({}), kill point {point}, iteration {i} (seed \
                 {seed:#x}): a mid-protocol panic wedged the real-thread run",
                c.name,
                c.mechanism,
            );
            assert!(
                envelope.contains(&run.outcome),
                "crash scenario {}, kill point {point}, iteration {i}: real outcome \
                 {:?} is outside the simulator envelope {envelope:?}",
                c.name,
                run.outcome,
            );
            assert!(
                run.protocol.is_empty(),
                "crash scenario {}, kill point {point}, iteration {i}: the real trace \
                 violates the poison protocol: {:?}",
                c.name,
                run.protocol,
            );
        }
    }
}
