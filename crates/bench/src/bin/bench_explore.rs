//! Exploration baselines: the default engine (one worker, inline on the
//! caller's thread — the "serial" column) vs 1/2/4/8 pooled workers over
//! two real schedule trees (E1, throughput), the full tree vs the
//! object-granular sleep-set prune vs the reads-from revisit mode (E2/E4)
//! on the same trees plus a stutter-heavy dining scenario (schedule
//! counts), and the two exploration kernels — legacy spawn-per-run vs
//! the pooled host kernel — on the pruned anomaly+background tree (E3,
//! throughput, with schedule/prune counts asserted identical across
//! kernels). Writes `BENCH_explore.json` at the repo root (archived in
//! EXPERIMENTS.md §E1/§E2/§E3); the CI explore job gates on it.
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
//! artifact, like the criterion benches, is a measurement and says so.
//! The prune *counts*, by contrast, are deterministic, and this binary
//! asserts their soundness while measuring: every prune mode observes
//! the identical behavior set, and every pruned tree is byte-identical
//! across 1/2/4/8 worker threads.

use bloom_core::MechanismId;
use bloom_problems::liveness::{deadlock_recovery_sim, LiveMechanism};
use bloom_problems::r3::{starvation_at_scale, starvation_laws};
use bloom_problems::rw::{self, RwVariant};
use bloom_problems::symbolic::{compare_andler, compare_csp, SymbolicComparison};
use bloom_problems::workload::{Arrival, Think, WorkloadSpec};
use bloom_sim::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The experiment-R2 dining-philosophers recovery tree: contested forks,
/// deadlock detection, and kernel victim-abort on many schedules.
fn recovery_tree() -> Sim {
    deadlock_recovery_sim(LiveMechanism::SemaphoreStrong)
}

/// The footnote-3 anomaly tree (two writers, one reader, Figure-1 paths):
/// the F1a report section's workload. `reuse_hosts: false` selects the
/// legacy spawn-per-run kernel for the E3 baseline; everything else uses
/// the pooled default.
fn anomaly_tree_on(reuse_hosts: bool) -> Sim {
    let mut sim = Sim::with_config(SimConfig {
        reuse_hosts,
        ..SimConfig::default()
    });
    let db = rw::make(MechanismId::PathV1, RwVariant::ReadersPriority);
    for i in 0..2 {
        let db = Arc::clone(&db);
        sim.spawn(&format!("writer{i}"), move |ctx| {
            db.write(ctx, &mut || ctx.yield_now());
        });
    }
    let db2 = Arc::clone(&db);
    sim.spawn("reader", move |ctx| {
        db2.read(ctx, &mut || ctx.yield_now());
    });
    sim
}

fn anomaly_tree() -> Sim {
    anomaly_tree_on(true)
}

/// The footnote-3 tree as explored for the prune comparison: the
/// Figure-1 scenario of [`anomaly_tree`] plus one background process
/// working a private semaphore. Every quantum of the bare scenario
/// touches the single shared path machine, so the object-granular layer
/// cannot improve on the pure-stutter prune there (both leave all 44
/// schedules); the background worker is the minimal independent load
/// that separates the two layers — its semaphore quanta conflict with
/// nothing the anomaly processes touch, which only per-object footprints
/// can see. This is also the representative case: exploring a subsystem
/// embedded in a larger program.
fn anomaly_bg_tree_on(reuse_hosts: bool) -> Sim {
    let mut sim = anomaly_tree_on(reuse_hosts);
    let side = Arc::new(bloom_semaphore::Semaphore::strong("side", 1));
    sim.spawn("background", move |ctx| {
        side.p(ctx);
        ctx.yield_now();
        side.v(ctx);
    });
    sim
}

fn anomaly_bg_tree() -> Sim {
    anomaly_bg_tree_on(true)
}

/// Stutter-heavy dining scenario for the prune measurement: extra bare
/// yields between fork operations create pure quanta whose sibling
/// subtrees the sleep-set prune can discard.
fn dining_tree(n: usize) -> Sim {
    let mut sim = Sim::new();
    let forks: Vec<Arc<bloom_semaphore::Semaphore>> = (0..n)
        .map(|i| Arc::new(bloom_semaphore::Semaphore::strong(&format!("fork{i}"), 1)))
        .collect();
    for i in 0..n {
        let (a, b) = (i, (i + 1) % n);
        let (a, b) = (a.min(b), a.max(b));
        let first = Arc::clone(&forks[a]);
        let second = Arc::clone(&forks[b]);
        sim.spawn(&format!("philosopher{i}"), move |ctx| {
            first.p(ctx);
            ctx.yield_now();
            ctx.yield_now();
            second.p(ctx);
            second.v(ctx);
            first.v(ctx);
        });
    }
    sim
}

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
/// on purpose — commuting a pure quantum shifts every later timestamp,
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
/// stats. The journal is sorted by decision vector, so it is directly
/// comparable to any other worker count's.
fn explore_serial(
    config: &ExploreConfig,
    setup: impl Fn() -> Sim + Sync,
) -> (Vec<(Vec<u32>, String)>, ExploreStats) {
    let (journal, stats) = config.run(&setup, |_, result| behavior(result));
    assert!(stats.complete, "tree exceeds the budget");
    (
        journal.into_iter().map(|r| (r.choices, r.value)).collect(),
        stats,
    )
}

/// E2: full tree vs the object-granular sleep-set prune vs the
/// reads-from revisit mode (DESIGN.md §2.14) on one tree. Asserts, while
/// counting: all three modes observe the identical behavior set, each
/// prune mode visits strictly fewer schedules than the one before it
/// (granular < full, revisit < granular), the revisit accounting
/// invariant holds, and every pruned tree is byte-identical across
/// 1/2/4/8 worker threads.
fn compare_prunes(name: &str, setup: impl Fn() -> Sim + Sync) -> String {
    let budget = ExploreConfig::new(usize::MAX);
    let granular_config = budget.clone().mode(PruneMode::Granular);
    let revisit_config = budget.clone().mode(PruneMode::Revisit);
    let (full_journal, full_stats) = explore_serial(&budget, &setup);
    let (granular_journal, granular_stats) = explore_serial(&granular_config, &setup);
    let (revisit_journal, revisit_stats) = explore_serial(&revisit_config, &setup);

    // Soundness while we measure: pruning may only skip schedules whose
    // behavior an explored schedule already exhibits.
    let behaviors = |journal: &[(Vec<u32>, String)]| -> BTreeSet<String> {
        journal.iter().map(|(_, b)| b.clone()).collect()
    };
    let full_set = behaviors(&full_journal);
    assert_eq!(
        behaviors(&granular_journal),
        full_set,
        "{name}: granular prune changed the behavior set"
    );
    assert_eq!(
        behaviors(&revisit_journal),
        full_set,
        "{name}: revisit prune changed the behavior set"
    );
    assert!(
        granular_stats.schedules < full_stats.schedules,
        "{name}: the object-granular prune must cut the full tree \
         ({} vs {} schedules)",
        granular_stats.schedules,
        full_stats.schedules
    );
    assert!(
        revisit_stats.schedules < granular_stats.schedules,
        "{name}: revisit mode must beat the sleep-set prune \
         ({} vs {} schedules)",
        revisit_stats.schedules,
        granular_stats.schedules
    );
    revisit_stats.assert_consistent();
    assert_eq!(
        revisit_stats.schedules,
        revisit_stats.revisits as usize + 1,
        "{name}: every revisit schedule past the root run is a grant"
    );

    // Worker-count invariance: every pruned tree merges to the inline
    // worker's journal byte-for-byte at every worker count.
    for (config, serial_journal, serial_stats) in [
        (&granular_config, &granular_journal, &granular_stats),
        (&revisit_config, &revisit_journal, &revisit_stats),
    ] {
        for &threads in &THREAD_COUNTS {
            let (journal, stats) = config
                .clone()
                .threads(threads)
                .run(&setup, |_, result| behavior(result));
            let merged: Vec<(Vec<u32>, String)> =
                journal.into_iter().map(|r| (r.choices, r.value)).collect();
            assert_eq!(
                &merged, serial_journal,
                "{name}: pruned journal diverged at {threads} threads"
            );
            assert_eq!(stats.schedules, serial_stats.schedules);
            assert_eq!(stats.pruned, serial_stats.pruned);
            assert_eq!(stats.conflicts, serial_stats.conflicts);
            assert_eq!(stats.revisit_requests, serial_stats.revisit_requests);
            assert_eq!(stats.revisits, serial_stats.revisits);
        }
    }

    let evictions: u64 = granular_stats.conflicts.values().sum();
    let races: u64 = revisit_stats.conflicts.values().sum();
    eprintln!(
        "pruning({name}): {} full, {} granular ({} subtrees cut, \
         {} conflict evictions), {} revisit ({} races, {} requests, \
         {} grants)",
        full_stats.schedules,
        granular_stats.schedules,
        granular_stats.pruned,
        evictions,
        revisit_stats.schedules,
        races,
        revisit_stats.revisit_requests,
        revisit_stats.revisits
    );
    format!(
        "{{\n      \"tree\": \"{name}\",\n      \"full_schedules\": {},\n      \
         \"granular_schedules\": {},\n      \"granular_pruned\": {},\n      \
         \"conflict_evictions\": {},\n      \
         \"revisit_schedules\": {},\n      \"revisit_pruned\": {},\n      \
         \"revisit_races\": {},\n      \"revisit_requests\": {},\n      \
         \"revisit_grants\": {}\n    }}",
        full_stats.schedules,
        granular_stats.schedules,
        granular_stats.pruned,
        evictions,
        revisit_stats.schedules,
        revisit_stats.pruned,
        races,
        revisit_stats.revisit_requests,
        revisit_stats.revisits
    )
}

/// E3: the two exploration kernels on the pruned anomaly+background tree
/// (1112 granular schedules), both replaying each schedule's whole
/// prefix:
///
/// * `legacy-replay` — spawn-per-run kernel (`reuse_hosts: false`): the
///   pre-pool baseline every ratio is against;
/// * `pooled-replay` — host-pool kernel: the default.
///
/// Soundness while measuring: both modes must report identical schedule
/// and prune counts — the CI explore job re-asserts this from the JSON,
/// plus a throughput-ratio floor for the pooled kernel. Each mode also
/// records its host-protocol counts per run (see [`HandoffCounts`]),
/// which CI gates exactly.
fn bench_kernel() -> String {
    // Warm the host pool so its one-time thread spawns don't bill the
    // first-measured mode.
    anomaly_bg_tree().run().expect("warmup run is clean");
    let modes = [("legacy-replay", false), ("pooled-replay", true)];
    let iters = 5;
    let mut baseline: Option<(usize, usize, f64)> = None;
    let mut entries = Vec::new();
    let config = ExploreConfig::new(usize::MAX).mode(PruneMode::Granular);
    for (name, reuse_hosts) in modes {
        let start = Instant::now();
        let mut stats = ExploreStats::default();
        let mut counts = HandoffCounts::default();
        for _ in 0..iters {
            let (journal, s) = config.run(
                || anomaly_bg_tree_on(reuse_hosts),
                |_, result| (result.is_err(), HandoffCounts::of(result)),
            );
            stats = s;
            assert!(stats.complete);
            std::hint::black_box(journal.iter().filter(|r| r.value.0).count());
            counts = HandoffCounts::sum(journal.iter().map(|r| &r.value.1));
        }
        let secs = start.elapsed().as_secs_f64() / iters as f64;
        let per_sec = stats.schedules as f64 / secs;
        let speedup = match &baseline {
            None => {
                baseline = Some((stats.schedules, stats.pruned, secs));
                1.0
            }
            Some((schedules, pruned, legacy_secs)) => {
                assert_eq!(
                    stats.schedules, *schedules,
                    "{name}: kernel mode changed the schedule count"
                );
                assert_eq!(
                    stats.pruned, *pruned,
                    "{name}: kernel mode changed the prune count"
                );
                legacy_secs / secs
            }
        };
        eprintln!(
            "kernel({name}): {} schedules in {secs:.3}s ({per_sec:.0}/s, {speedup:.2}x legacy)",
            stats.schedules
        );
        entries.push(format!(
            "{{ \"mode\": \"{name}\", \"schedules\": {}, \"pruned\": {}, \
             \"secs\": {secs:.6}, \"schedules_per_sec\": {per_sec:.0}, \
             \"speedup_vs_legacy\": {speedup:.2}, {} }}",
            stats.schedules,
            stats.pruned,
            counts.per_run_json(stats.schedules)
        ));
    }
    format!(
        "{{\n      \"tree\": \"anomaly+background\",\n      \"modes\": [\n        {}\n      ]\n    }}",
        entries.join(",\n        ")
    )
}

/// Host-protocol counts summed over a journal's runs: dispatches, and how
/// many of them stayed on the stopping thread or woke the scheduler loop
/// (`SimMetrics::self_resumes`/`loop_wakes`). OS hand-offs per run are
/// `dispatches - self_resumes + loop_wakes`; unlike seconds, these counts
/// do not depend on the host, so CI can gate them exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct HandoffCounts {
    dispatches: u64,
    self_resumes: u64,
    loop_wakes: u64,
}

impl HandoffCounts {
    fn of(result: &Result<SimReport, SimError>) -> Self {
        let m = match result {
            Ok(report) => &report.metrics,
            Err(err) => &err.report.metrics,
        };
        HandoffCounts {
            dispatches: m.dispatches,
            self_resumes: m.self_resumes,
            loop_wakes: m.loop_wakes,
        }
    }

    fn sum<'a>(runs: impl Iterator<Item = &'a HandoffCounts>) -> Self {
        runs.fold(HandoffCounts::default(), |acc, c| HandoffCounts {
            dispatches: acc.dispatches + c.dispatches,
            self_resumes: acc.self_resumes + c.self_resumes,
            loop_wakes: acc.loop_wakes + c.loop_wakes,
        })
    }

    /// The three per-run averages as JSON members.
    fn per_run_json(&self, runs: usize) -> String {
        let per_run = |total: u64| total as f64 / runs as f64;
        format!(
            "\"dispatches_per_run\": {:.4}, \"self_resumes_per_run\": {:.4}, \
             \"loop_wakes_per_run\": {:.4}",
            per_run(self.dispatches),
            per_run(self.self_resumes),
            per_run(self.loop_wakes)
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
    let trees = [
        bench_tree("liveness-recovery", 20, recovery_tree),
        bench_tree("anomaly", 100, anomaly_tree),
    ];
    let pruning = [
        compare_prunes("liveness-recovery", recovery_tree),
        compare_prunes("anomaly+background", anomaly_bg_tree),
        compare_prunes("dining-strong-3", || dining_tree(3)),
    ];
    let kernel = [bench_kernel()];
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
