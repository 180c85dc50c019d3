//! `sample-r3`: seeded sampling of the R3 scenarios, every run judged by
//! its law set.
//!
//! Three rows on one sampler worker: the scaled weak-semaphore starvation
//! scenario (24 clients × 4 operations) under PCT and under random walk,
//! and random walks of the nested-monitor race among 100 clients.
//!
//! The sampler and workload-DSL seeds come from `--seed`. At the archived
//! seed ([`ARCHIVED_SEED`], the default) the rows use the seeds the
//! repository's archived figures were taken at and their violation counts
//! are pinned; at any other seed the check is that the journal is the same
//! at one and at two sampler workers, so a claim can be re-checked on a
//! held-out seed.

use crate::clock::Clock;
use crate::spans::{span, Tracer, NO_RUN};
use crate::{report_of, Checks, Tally, Workload};
use bloom_core::laws::LawSet;
use bloom_problems::liveness::LiveMechanism;
use bloom_problems::r3::{
    nested_monitor_at_scale, nested_monitor_laws, starvation_at_scale, starvation_laws,
};
use bloom_problems::workload::{Arrival, Think, WorkloadSpec};
use bloom_sim::{ExploreConfig, ExploreStats, ReplayPolicy, SampleStrategy, Sim};

/// The seed the archived sampler figures were taken at (`0xB5A`).
pub const ARCHIVED_SEED: u64 = 0xB5A;

#[derive(Debug, Clone, Copy)]
enum Scenario {
    StarvationWeak,
    NestedMonitor,
}

struct Row {
    name: &'static str,
    scenario: Scenario,
    strategy: SampleStrategy,
    iterations: usize,
    spec: WorkloadSpec,
    seed: u64,
    laws: LawSet,
    /// Violating runs at the archived seeds.
    archived_violations: u64,
}

impl Row {
    fn build(&self) -> Sim {
        match self.scenario {
            Scenario::StarvationWeak => {
                starvation_at_scale(LiveMechanism::SemaphoreWeak, &self.spec)
            }
            Scenario::NestedMonitor => nested_monitor_at_scale(&self.spec),
        }
    }
}

/// What the map closure keeps per sampled run.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Verdict {
    violated: Vec<String>,
    run: u32,
}

type Journal = Vec<(u64, Vec<u32>, Verdict)>;

pub struct SampleR3 {
    archived: bool,
    rows: Vec<Row>,
    last: Vec<(Journal, ExploreStats)>,
}

fn spec(seed: u64, clients: usize, ops: usize) -> WorkloadSpec {
    WorkloadSpec::new(seed)
        .clients(clients)
        .ops(ops)
        .arrival(Arrival::Together)
        .think(Think::None)
}

impl SampleR3 {
    /// Builds the three rows and warms up with one sampled run of each,
    /// which grows the host pool to the 102 processes of the largest row.
    pub fn new(seed: u64, checks: &mut Checks) -> Self {
        let archived = seed == ARCHIVED_SEED;
        // The archived nested-monitor row is the R3 report's: DSL seed
        // 0xB100, sampler seed 0xB100E.
        let (nested_dsl, nested_sampler) = if archived {
            (0xB100, 0xB_100E)
        } else {
            (seed, seed)
        };
        let mut rows = vec![
            Row {
                name: "pct-weak-24",
                scenario: Scenario::StarvationWeak,
                strategy: SampleStrategy::Pct {
                    change_points: 4,
                    depth_hint: 2048,
                },
                iterations: 8,
                spec: spec(seed, 24, 4),
                seed,
                laws: starvation_laws(),
                archived_violations: 7,
            },
            Row {
                name: "walk-weak-24",
                scenario: Scenario::StarvationWeak,
                strategy: SampleStrategy::Walk,
                iterations: 6,
                spec: spec(seed, 24, 4),
                seed,
                laws: starvation_laws(),
                archived_violations: 4,
            },
            Row {
                name: "nested-monitor-100",
                scenario: Scenario::NestedMonitor,
                strategy: SampleStrategy::Walk,
                iterations: 20,
                spec: spec(nested_dsl, 100, 3),
                seed: nested_sampler,
                laws: nested_monitor_laws(),
                archived_violations: 14,
            },
        ];
        crate::explore::shuffle(&mut rows, seed);
        for row in &rows {
            let (journal, _) = ExploreConfig::new(0).threads(1).sample(
                row.strategy,
                1,
                row.seed,
                || row.build(),
                |_, _| ((), Vec::new()),
            );
            checks.expect_eq(&format!("{}: warm-up run", row.name), journal.len(), 1);
        }
        SampleR3 {
            archived,
            last: vec![(Vec::new(), ExploreStats::default()); rows.len()],
            rows,
        }
    }

    fn sample(
        &self,
        item: usize,
        threads: usize,
        tracer: Option<&Tracer>,
        clock: Option<&Clock>,
    ) -> (Journal, ExploreStats) {
        let row = &self.rows[item];
        let item = item as u32;
        let (journal, stats) = span(tracer, "sample", item, NO_RUN, || {
            ExploreConfig::new(0).threads(threads).sample(
                row.strategy,
                row.iterations,
                row.seed,
                || {
                    let run = tracer.map_or(NO_RUN, Tracer::next_run);
                    span(tracer, "setup", item, run, || row.build())
                },
                |_, result| {
                    if let Some(clock) = clock {
                        clock.tick();
                    }
                    let run = tracer.map_or(NO_RUN, Tracer::current_run);
                    span(tracer, "map", item, run, || {
                        if let Some(t) = tracer {
                            t.note(report_of(result));
                        }
                        let violated =
                            span(tracer, "check", item, run, || row.laws.violated(result));
                        (
                            Verdict {
                                violated: violated.clone(),
                                run,
                            },
                            violated,
                        )
                    })
                },
            )
        });
        let journal = journal
            .into_iter()
            .map(|r| (r.iteration, r.choices, r.value))
            .collect();
        (journal, stats)
    }
}

impl Workload for SampleR3 {
    fn items(&self) -> Vec<(String, u64)> {
        self.rows
            .iter()
            .map(|r| (r.name.to_string(), r.iterations as u64))
            .collect()
    }

    fn run_item(
        &mut self,
        item: usize,
        tracer: Option<&Tracer>,
        clock: &Clock,
        checks: &mut Checks,
    ) -> Tally {
        let (journal, stats) = self.sample(item, 1, tracer, Some(clock));
        let row = &self.rows[item];
        let violating = journal.iter().filter(|r| !r.2.violated.is_empty()).count() as u64;
        checks.expect_eq(
            &format!("{}: sampled runs", row.name),
            stats.schedules,
            row.iterations,
        );
        if self.archived {
            checks.expect_eq(
                &format!("{}: violating runs at the archived seed", row.name),
                violating,
                row.archived_violations,
            );
        }
        let consistent = stats.clone();
        checks.expect_no_panic(
            &format!("{}: ExploreStats::assert_consistent", row.name),
            move || consistent.assert_consistent(),
        );
        self.last[item] = (journal, stats);
        Tally {
            violations: violating,
            ..Tally::default()
        }
    }

    fn replay(&self, tracer: &Tracer, checks: &mut Checks) {
        for (item, row) in self.rows.iter().enumerate() {
            let mut diverged = 0usize;
            for (_, choices, verdict) in &self.last[item].0 {
                span(Some(tracer), "replay", item as u32, verdict.run, || {
                    // `replay_exact`, with the kernel span around the run alone.
                    let mut sim = row.build();
                    sim.set_policy(ReplayPolicy::new(choices.clone()));
                    let result = span(Some(tracer), "kernel", item as u32, verdict.run, || {
                        sim.run()
                    });
                    let report = report_of(&result);
                    let taken: Vec<u32> = report.decisions.iter().map(|d| d.chosen).collect();
                    if taken != *choices || report.metrics.replay.diverged() {
                        diverged += 1;
                    }
                });
            }
            checks.expect_eq(
                &format!("{}: replayed vectors that diverged", row.name),
                diverged,
                0,
            );
        }
    }

    fn self_check(&self, checks: &mut Checks) {
        for (item, row) in self.rows.iter().enumerate() {
            let (journal, stats) = self.sample(item, 2, None, None);
            let (serial, serial_stats) = &self.last[item];
            let key = |j: &Journal| -> Vec<(u64, Vec<u32>, Vec<String>)> {
                j.iter()
                    .map(|(i, c, v)| (*i, c.clone(), v.violated.clone()))
                    .collect()
            };
            checks.expect(
                &format!("{}: sampled journal identical at 2 workers", row.name),
                key(&journal) == key(serial),
            );
            checks.expect_eq(
                &format!("{}: sampling stats identical at 2 workers", row.name),
                &stats.sampling,
                &serial_stats.sampling,
            );
        }
    }
}
