//! Exploration baselines: the default engine (one worker, inline on the
//! caller's thread — the "serial" column) vs 1/2/4/8 pooled workers over
//! two real schedule trees (E1, throughput), the full tree vs the revisit
//! prune (E2/E4) on the same trees plus a stutter-heavy dining scenario
//! (schedule counts), and the kernel's hand-off counts per run on a
//! pruned tree, a recovering tree and a kill-point sweep (E3). Writes
//! `BENCH_explore.json` at the repo root (archived in EXPERIMENTS.md
//! §E1/§E2/§E3); the CI explore job gates on it.
//!
//! ```text
//! cargo run --release -p bloom-bench --bin bench_explore            # E1/E2
//! cargo run --release -p bloom-bench --bin bench_explore -- --sample --symbolic
//! ```
//!
//! With `--sample`, a third section measures the R3 *samplers* (PCT and
//! random walk) on the scaled starvation scenario: sampled schedules
//! per second at 1/2/4/8 workers, plus the deterministic violation
//! counts the throughput was bought with. With `--symbolic`, a fourth
//! section records the E5 symbolic-vs-concrete schedule counts for the
//! two `choose_value` scenarios (the CI explore job gates
//! `symbolic <= concrete` on it). Without a flag its section is an
//! empty array, so the JSON shape is stable either way.
//!
//! Wall-clock measurement is deliberately confined to this binary — the
//! deterministic report (`report.rs`) must stay machine-independent; this
//! artifact, like `BENCH_realthread.json`, is a measurement and says so.
//! The prune *counts*, by contrast, are deterministic, and this binary
//! asserts their soundness while measuring: the pruned tree observes the
//! full tree's behavior set, and it is byte-identical across 1/2/4/8
//! worker threads.

use bloom_core::MechanismId;
use bloom_problems::drivers::{anomaly_background_sim, footnote3_sim};
use bloom_problems::extra::dining::stutter_sim;
use bloom_problems::faults::{crash_sim, CrashMechanism, CrashProblem, VICTIM};
use bloom_problems::liveness::{deadlock_recovery_sim, LiveMechanism};
use bloom_problems::r3::{starvation_at_scale, starvation_laws};
use bloom_problems::rw::RwVariant;
use bloom_problems::symbolic::{compare_andler, compare_csp, SymbolicComparison};
use bloom_problems::workload::{Arrival, Think, WorkloadSpec};
use bloom_sim::prelude::*;
use bloom_sim::PhaseTimes;
use std::collections::BTreeSet;
use std::time::Instant;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct Measurement {
    schedules: usize,
    secs: f64,
}

fn time_serial(iters: usize, setup: impl Fn() -> Sim + Sync) -> Measurement {
    let start = Instant::now();
    let mut schedules = 0;
    for _ in 0..iters {
        let (journal, stats) =
            ExploreConfig::new(usize::MAX).run(&setup, |_, result| result.is_err());
        assert!(stats.complete);
        std::hint::black_box(journal.iter().filter(|r| r.value).count());
        schedules = stats.schedules;
    }
    Measurement {
        schedules,
        secs: start.elapsed().as_secs_f64() / iters as f64,
    }
}

fn time_parallel(iters: usize, threads: usize, setup: impl Fn() -> Sim + Sync) -> Measurement {
    let start = Instant::now();
    let mut schedules = 0;
    for _ in 0..iters {
        let (journal, stats) = ExploreConfig::new(usize::MAX)
            .threads(threads)
            .run(&setup, |_, result| result.is_err());
        assert!(stats.complete);
        std::hint::black_box(journal.iter().filter(|r| r.value).count());
        schedules = journal.len();
    }
    Measurement {
        schedules,
        secs: start.elapsed().as_secs_f64() / iters as f64,
    }
}

fn bench_tree(name: &str, iters: usize, setup: impl Fn() -> Sim + Sync) -> String {
    let serial = time_serial(iters, &setup);
    eprintln!(
        "{name}: serial {} schedules in {:.3}s ({:.0}/s)",
        serial.schedules,
        serial.secs,
        serial.schedules as f64 / serial.secs
    );
    let mut parallel_entries = Vec::new();
    for &threads in &THREAD_COUNTS {
        let m = time_parallel(iters, threads, &setup);
        assert_eq!(
            m.schedules, serial.schedules,
            "{name}: parallel schedule count diverged at {threads} threads"
        );
        let speedup = serial.secs / m.secs;
        eprintln!(
            "{name}: {threads} thread(s) {:.3}s ({:.0}/s, {speedup:.2}x)",
            m.secs,
            m.schedules as f64 / m.secs
        );
        parallel_entries.push(format!(
            "{{ \"threads\": {threads}, \"schedules\": {}, \"secs\": {:.6}, \
             \"schedules_per_sec\": {:.0}, \"speedup\": {speedup:.2} }}",
            m.schedules,
            m.secs,
            m.schedules as f64 / m.secs
        ));
    }
    format!(
        "{{\n      \"name\": \"{name}\",\n      \"schedules\": {},\n      \
         \"serial\": {{ \"secs\": {:.6}, \"schedules_per_sec\": {:.0} }},\n      \
         \"parallel\": [\n        {}\n      ]\n    }}",
        serial.schedules,
        serial.secs,
        serial.schedules as f64 / serial.secs,
        parallel_entries.join(",\n        ")
    )
}

/// Canonical behavior of one schedule: liveness verdict, recovery
/// victims, and the ordered user-event journal. Timestamps are excluded
/// on purpose — commuting two quanta shifts the timestamps between them,
/// and that is exactly the unobservable difference the prune collapses.
fn behavior(result: &Result<SimReport, SimError>) -> String {
    let report = match result {
        Ok(report) => report,
        Err(err) => &err.report,
    };
    let events: Vec<String> = report
        .trace
        .user_events()
        .map(|(e, label, params)| format!("{}:{label}:{params:?}", e.pid))
        .collect();
    format!(
        "ok={} recovered={:?} {}",
        result.is_ok(),
        report.recovered,
        events.join(",")
    )
}

/// One exploration under `config` on the default inline worker,
/// returning the full (decision-vector, behavior) journal alongside the
/// stats and its wall-clock seconds. The journal is sorted by decision
/// vector, so it is directly comparable to any other worker count's.
fn explore_serial(
    config: &ExploreConfig,
    setup: impl Fn() -> Sim + Sync,
) -> (Vec<(Vec<u32>, String)>, ExploreStats, f64) {
    let start = Instant::now();
    let (journal, stats) = config.run(&setup, |_, result| behavior(result));
    let secs = start.elapsed().as_secs_f64();
    assert!(stats.complete, "tree exceeds the budget");
    (
        journal.into_iter().map(|r| (r.choices, r.value)).collect(),
        stats,
        secs,
    )
}

/// An exploration's phase durations ([`ExploreStats::phases`]) as a JSON
/// object of seconds.
fn phases_json(phases: &PhaseTimes) -> String {
    let parts = [
        ("setup", phases.setup),
        ("run", phases.run),
        ("plan", phases.plan),
        ("grant", phases.grant),
        ("map", phases.map),
        ("merge", phases.merge),
    ]
    .map(|(name, d)| format!("\"{name}\": {:.6}", d.as_secs_f64()));
    format!("{{ {} }}", parts.join(", "))
}

/// E2: the full tree vs the revisit prune (DESIGN.md §2.14) on one tree.
/// Asserts, while counting: both observe the identical behavior set, the
/// prune visits strictly fewer schedules, its accounting invariant
/// holds, and the pruned tree is byte-identical across 1/2/4/8 worker
/// threads. Records each mode's one-worker seconds and where they went
/// by phase ([`ExploreStats::phases`]).
fn compare_prunes(name: &str, setup: impl Fn() -> Sim + Sync) -> String {
    let budget = ExploreConfig::new(usize::MAX);
    let revisit_config = budget.clone().mode(PruneMode::Revisit);
    let (full_journal, full_stats, full_secs) = explore_serial(&budget, &setup);
    let (revisit_journal, revisit_stats, revisit_secs) = explore_serial(&revisit_config, &setup);

    // Soundness while we measure: pruning may only skip schedules whose
    // behavior an explored schedule already exhibits.
    let behaviors = |journal: &[(Vec<u32>, String)]| -> BTreeSet<String> {
        journal.iter().map(|(_, b)| b.clone()).collect()
    };
    assert_eq!(
        behaviors(&revisit_journal),
        behaviors(&full_journal),
        "{name}: revisit prune changed the behavior set"
    );
    assert!(
        revisit_stats.schedules < full_stats.schedules,
        "{name}: the revisit prune must cut the full tree ({} vs {} schedules)",
        revisit_stats.schedules,
        full_stats.schedules
    );
    revisit_stats.assert_consistent();
    assert_eq!(
        revisit_stats.schedules,
        revisit_stats.revisits as usize + 1,
        "{name}: every revisit schedule past the root run is a grant"
    );

    // Worker-count invariance: the pruned tree merges to the inline
    // worker's journal byte-for-byte at every worker count.
    for &threads in &THREAD_COUNTS {
        let (journal, stats) = revisit_config
            .clone()
            .threads(threads)
            .run(&setup, |_, result| behavior(result));
        let merged: Vec<(Vec<u32>, String)> =
            journal.into_iter().map(|r| (r.choices, r.value)).collect();
        assert_eq!(
            merged, revisit_journal,
            "{name}: pruned journal diverged at {threads} threads"
        );
        assert_eq!(stats.schedules, revisit_stats.schedules);
        assert_eq!(stats.pruned, revisit_stats.pruned);
        assert_eq!(stats.conflicts, revisit_stats.conflicts);
        assert_eq!(stats.revisit_requests, revisit_stats.revisit_requests);
        assert_eq!(stats.revisits, revisit_stats.revisits);
    }

    let races: u64 = revisit_stats.conflicts.values().sum();
    eprintln!(
        "pruning({name}): {} full in {full_secs:.3}s, {} revisit in {revisit_secs:.3}s \
         ({} races, {} requests, {} grants)",
        full_stats.schedules,
        revisit_stats.schedules,
        races,
        revisit_stats.revisit_requests,
        revisit_stats.revisits
    );
    format!(
        "{{\n      \"tree\": \"{name}\",\n      \"full_schedules\": {},\n      \
         \"revisit_schedules\": {},\n      \"revisit_pruned\": {},\n      \
         \"revisit_races\": {},\n      \"revisit_requests\": {},\n      \
         \"revisit_grants\": {},\n      \"full_secs\": {full_secs:.6},\n      \
         \"revisit_secs\": {revisit_secs:.6},\n      \"full_phases\": {},\n      \
         \"revisit_phases\": {}\n    }}",
        full_stats.schedules,
        revisit_stats.schedules,
        revisit_stats.pruned,
        races,
        revisit_stats.revisit_requests,
        revisit_stats.revisits,
        phases_json(&full_stats.phases),
        phases_json(&revisit_stats.phases)
    )
}

/// Kill points swept by E3's `kill-sweep` row; the sweep stops at the
/// first point the victim never reaches.
const KILL_POINTS: u64 = 64;

/// E3: the kernel's one dispatch protocol on three trees, each explored
/// whole, with its host-protocol and footprint counts per run (see
/// [`HandoffCounts`]), which CI gates exactly:
///
/// * `pooled-replay` — the anomaly+background tree under revisit (148
///   schedules), replaying each schedule's whole prefix; the only row
///   whose runs record footprints;
/// * `recovery` — the R2 dining tree (492 schedules), where deadlock
///   recovery aborts a victim on most schedules;
/// * `kill-sweep` — every schedule at every kill point of the monitor
///   readers/writers crash scenario (R1), each killed victim unwinding
///   from its own stop.
fn bench_kernel() -> Vec<String> {
    // Warm the host pool so its one-time thread spawns don't bill the
    // first-measured row.
    anomaly_background_sim().run().expect("warmup run is clean");
    let explore = |config: ExploreConfig, setup: fn() -> Sim| {
        let (journal, stats) = config.run(setup, |_, result| HandoffCounts::of(result));
        assert!(stats.complete);
        let counts = HandoffCounts::sum(journal.iter().map(|r| &r.value));
        (stats.schedules, stats.pruned, counts)
    };
    let revisit = ExploreConfig::new(usize::MAX).mode(PruneMode::Revisit);
    vec![
        kernel_row("pooled-replay", "anomaly+background", 5, || {
            explore(revisit.clone(), anomaly_background_sim)
        }),
        kernel_row("recovery", "liveness-recovery", 20, || {
            explore(ExploreConfig::new(usize::MAX), || {
                deadlock_recovery_sim(LiveMechanism::SemaphoreStrong)
            })
        }),
        kernel_row("kill-sweep", "monitor-rw-crash", 2, || {
            let (journal, stats) = ExploreConfig::new(usize::MAX).run_kill_points(
                VICTIM,
                KILL_POINTS,
                || crash_sim(CrashMechanism::Monitor, CrashProblem::ReadersWriters),
                |_, _, result| HandoffCounts::of(result),
            );
            assert!(stats.complete);
            let counts = HandoffCounts::sum(journal.iter().map(|(_, r)| &r.value));
            (stats.schedules, stats.pruned, counts)
        }),
    ]
}

/// Times `iters` explorations of one E3 row, each returning its schedule
/// and prune counts and its summed hand-off counts, and renders the row.
fn kernel_row(
    name: &str,
    tree: &str,
    iters: usize,
    explore: impl Fn() -> (usize, usize, HandoffCounts),
) -> String {
    let start = Instant::now();
    let mut last = explore();
    for _ in 1..iters {
        last = explore();
    }
    let secs = start.elapsed().as_secs_f64() / iters as f64;
    let (schedules, pruned, counts) = last;
    let per_sec = schedules as f64 / secs;
    eprintln!("kernel({name}): {schedules} schedules in {secs:.3}s ({per_sec:.0}/s)");
    format!(
        "{{ \"row\": \"{name}\", \"tree\": \"{tree}\", \"schedules\": {schedules}, \
         \"pruned\": {pruned}, \"secs\": {secs:.6}, \"schedules_per_sec\": {per_sec:.0}, {} }}",
        counts.per_run_json(schedules)
    )
}

/// Host-protocol counts summed over a journal's runs: dispatches and how
/// many of them ran on the thread that made the pick
/// (`SimMetrics::self_resumes`); plus the footprint records the runs kept
/// (`SimReport::quanta`), which only the prune mode asks for. OS
/// hand-offs per run are `dispatches - self_resumes + 1`; unlike seconds,
/// these counts do not depend on the host, so CI can gate them exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct HandoffCounts {
    dispatches: u64,
    self_resumes: u64,
    quanta: u64,
}

impl HandoffCounts {
    fn of(result: &Result<SimReport, SimError>) -> Self {
        let report = match result {
            Ok(report) => report,
            Err(err) => &err.report,
        };
        let m = &report.metrics;
        HandoffCounts {
            dispatches: m.dispatches,
            self_resumes: m.self_resumes,
            quanta: report.quanta.len() as u64,
        }
    }

    fn sum<'a>(runs: impl Iterator<Item = &'a HandoffCounts>) -> Self {
        runs.fold(HandoffCounts::default(), |acc, c| HandoffCounts {
            dispatches: acc.dispatches + c.dispatches,
            self_resumes: acc.self_resumes + c.self_resumes,
            quanta: acc.quanta + c.quanta,
        })
    }

    /// The three per-run averages as JSON members.
    fn per_run_json(&self, runs: usize) -> String {
        let per_run = |total: u64| total as f64 / runs as f64;
        format!(
            "\"dispatches_per_run\": {:.4}, \"self_resumes_per_run\": {:.4}, \
             \"quanta_per_run\": {:.4}",
            per_run(self.dispatches),
            per_run(self.self_resumes),
            per_run(self.quanta)
        )
    }
}

/// `--sample`: throughput of the R3 samplers on one scaled starvation
/// tree. Violation counts are deterministic (seeded, worker-count
/// independent — asserted here across every worker count), and so are
/// the per-run hand-off counts; the schedules-per-second figures are
/// measurements.
fn bench_samplers() -> Vec<String> {
    let spec = WorkloadSpec::new(0xB5A)
        .clients(24)
        .ops(4)
        .arrival(Arrival::Together)
        .think(Think::None);
    let laws = starvation_laws();
    let mut entries = Vec::new();
    for (name, strategy) in [
        (
            "pct-weak-24",
            SampleStrategy::Pct {
                change_points: 4,
                depth_hint: 2048,
            },
        ),
        ("walk-weak-24", SampleStrategy::Walk),
    ] {
        let iterations = 40;
        let mut baseline: Option<(Vec<Vec<u32>>, u64, HandoffCounts)> = None;
        let mut entry_parts = Vec::new();
        for &threads in &THREAD_COUNTS {
            let start = Instant::now();
            let (journal, stats) = ExploreConfig::new(0).threads(threads).sample(
                strategy,
                iterations,
                0xB5A,
                || starvation_at_scale(LiveMechanism::SemaphoreWeak, &spec),
                |_, result| (HandoffCounts::of(result), laws.violated(result)),
            );
            let secs = start.elapsed().as_secs_f64();
            let sampling = stats.sampling.expect("sampler stats");
            let hits = sampling
                .violations
                .get("starvation-free")
                .copied()
                .unwrap_or(0);
            let counts = HandoffCounts::sum(journal.iter().map(|r| &r.value));
            let choices: Vec<Vec<u32>> = journal.into_iter().map(|r| r.choices).collect();
            match &baseline {
                None => baseline = Some((choices, hits, counts)),
                Some((expect_choices, expect_hits, expect_counts)) => {
                    assert_eq!(
                        &choices, expect_choices,
                        "{name}: sampled journal diverged at {threads} threads"
                    );
                    assert_eq!(hits, *expect_hits);
                    assert_eq!(counts, *expect_counts);
                }
            }
            eprintln!(
                "sampling({name}): {threads} thread(s) {iterations} runs in {secs:.3}s \
                 ({:.0}/s), {hits} starvation hits",
                iterations as f64 / secs
            );
            entry_parts.push(format!(
                "{{ \"threads\": {threads}, \"runs\": {iterations}, \"secs\": {secs:.6}, \
                 \"runs_per_sec\": {:.0} }}",
                iterations as f64 / secs
            ));
        }
        let (_, hits, counts) = baseline.expect("at least one worker count");
        entries.push(format!(
            "{{\n      \"name\": \"{name}\",\n      \"iterations\": 40,\n      \
             \"violations\": {hits},\n      {},\n      \"workers\": [\n        {}\n      ]\n    }}",
            counts.per_run_json(iterations),
            entry_parts.join(",\n        ")
        ));
    }
    entries
}

/// `--symbolic`: E5 — symbolic data-nondeterminism collapse vs concrete
/// enumeration on the two `choose_value` scenarios (see
/// `bloom_problems::symbolic`). All counts are deterministic; the
/// wall-clock column is the only measurement. Asserts while measuring:
/// the symbolic behavior set equals the concrete union, every symbolic
/// schedule passes its scenario check, and the symbolic schedule count
/// is strictly below concrete enumeration — the CI explore job re-gates
/// `symbolic <= concrete` from the JSON.
type SymbolicScenario = (&'static str, fn(usize) -> SymbolicComparison);

fn bench_symbolic() -> Vec<String> {
    let scenarios: [SymbolicScenario; 2] = [
        ("andler-burst", compare_andler),
        ("csp-capacity", compare_csp),
    ];
    let mut entries = Vec::new();
    for (name, run) in scenarios {
        let start = Instant::now();
        let c = run(500_000);
        let secs = start.elapsed().as_secs_f64();
        assert!(c.behaviors_match, "{name}: symbolic != concrete behaviors");
        assert!(c.clean, "{name}: a symbolic schedule failed its check");
        assert!(
            c.symbolic_schedules < c.concrete_schedules,
            "{name}: symbolic collapse bought nothing"
        );
        eprintln!(
            "symbolic({name}): domain {} -> {} concrete vs {} symbolic schedules \
             ({} class grants) in {secs:.3}s",
            c.domain, c.concrete_schedules, c.symbolic_schedules, c.sym_grants
        );
        entries.push(format!(
            "{{\n      \"tree\": \"{name}\",\n      \"domain\": {},\n      \
             \"concrete_schedules\": {},\n      \"symbolic_schedules\": {},\n      \
             \"sym_requests\": {},\n      \"sym_grants\": {},\n      \
             \"behaviors_match\": {},\n      \"clean\": {},\n      \
             \"secs\": {secs:.6}\n    }}",
            c.domain,
            c.concrete_schedules,
            c.symbolic_schedules,
            c.sym_requests,
            c.sym_grants,
            c.behaviors_match,
            c.clean
        ));
    }
    entries
}

fn main() {
    let sample = std::env::args().any(|a| a == "--sample");
    let symbolic = std::env::args().any(|a| a == "--symbolic");
    let meta = bloom_bench::hostmeta::json_fields();
    eprintln!(
        "host: {} core(s) available",
        bloom_bench::hostmeta::host_cores()
    );
    let recovery = || deadlock_recovery_sim(LiveMechanism::SemaphoreStrong);
    let trees = [
        bench_tree("liveness-recovery", 20, recovery),
        bench_tree("anomaly", 100, || {
            footnote3_sim(MechanismId::PathV1, RwVariant::ReadersPriority, 2, 1)
        }),
    ];
    let pruning = [
        compare_prunes("liveness-recovery", recovery),
        compare_prunes("anomaly+background", anomaly_background_sim),
        compare_prunes("dining-strong-3", || stutter_sim(3)),
    ];
    let kernel = bench_kernel();
    let sampling = if sample { bench_samplers() } else { Vec::new() };
    let symbolic = if symbolic {
        bench_symbolic()
    } else {
        Vec::new()
    };

    let json = format!(
        "{{\n  {meta},\n  \"trees\": [\n    {}\n  ],\n  \
         \"pruning\": [\n    {}\n  ],\n  \"kernel\": [\n    {}\n  ],\n  \
         \"sampling\": [{}],\n  \"symbolic\": [{}]\n}}\n",
        trees.join(",\n    "),
        pruning.join(",\n    "),
        kernel.join(",\n    "),
        if sampling.is_empty() {
            String::new()
        } else {
            format!("\n    {}\n  ", sampling.join(",\n    "))
        },
        if symbolic.is_empty() {
            String::new()
        } else {
            format!("\n    {}\n  ", symbolic.join(",\n    "))
        }
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_explore.json");
    std::fs::write(path, &json).expect("write BENCH_explore.json");
    println!("{json}");
}
