//! `dfs-full` and `dpor-revisit`: exhaustive exploration to a verdict.
//!
//! Both workloads explore the six F1a readers-priority trees (two writers
//! and one reader per mechanism), the R2 liveness-recovery tree, the
//! anomaly+background tree and the stutter-heavy dining tree; `dpor-revisit`
//! adds E5's two symbolic-data trees. `dfs-full` explores unpruned,
//! `dpor-revisit` under [`PruneMode::Revisit`]; both use
//! `ExploreConfig`'s default engine on the caller's thread.
//!
//! Every tree's schedule count, violating count and behaviour-set digest
//! are pinned. The digests are shared by both workloads: pruning may drop
//! schedules but never a behaviour (the E2/E4 soundness oracle).

use crate::clock::Clock;
use crate::spans::{span, Tracer, NO_RUN};
use crate::{report_of, Checks, Tally, Workload};
use bloom_core::checks::{check_exclusion, check_priority_over};
use bloom_core::events::extract;
use bloom_core::{MechanismId, Phase};
use bloom_problems::events::{READ, REMOVE, WRITE};
use bloom_problems::liveness::{deadlock_recovery_sim, LiveMechanism};
use bloom_problems::rw::{self, RwVariant};
use bloom_problems::symbolic::{andler_burst_sim, csp_capacity_sim};
use bloom_sim::Sim;
use bloom_sim::{
    ExploreConfig, ExploreStats, PruneMode, ReplayPolicy, SimError, SimReport, SplitMix64,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Schedule budget per tree; every tree completes far below it.
const BUDGET: usize = 1_000_000;

#[derive(Debug, Clone, Copy)]
enum Scenario {
    /// F1a: `rw::make(mech, ReadersPriority)`, two writers, one reader.
    F1a(MechanismId),
    /// R2: `deadlock_recovery_sim(SemaphoreStrong)`.
    Recovery,
    /// The F1a path-v1 tree plus one process working a private semaphore.
    AnomalyBackground,
    /// Three philosophers on strong semaphores, extra yields between forks.
    Dining3,
    /// E5: `andler_burst_sim(None)`.
    AndlerBurst,
    /// E5: `csp_capacity_sim(None)`.
    CspCapacity,
}

fn f1a_sim(mech: MechanismId) -> Sim {
    let mut sim = Sim::new();
    let db = rw::make(mech, RwVariant::ReadersPriority);
    for i in 0..2 {
        let db = Arc::clone(&db);
        sim.spawn(&format!("writer{i}"), move |ctx| {
            db.write(ctx, &mut || ctx.yield_now());
        });
    }
    sim.spawn("reader", move |ctx| {
        db.read(ctx, &mut || ctx.yield_now());
    });
    sim
}

fn dining_sim(n: usize) -> Sim {
    let mut sim = Sim::new();
    let forks: Vec<Arc<bloom_semaphore::Semaphore>> = (0..n)
        .map(|i| Arc::new(bloom_semaphore::Semaphore::strong(&format!("fork{i}"), 1)))
        .collect();
    for i in 0..n {
        let (a, b) = (i.min((i + 1) % n), i.max((i + 1) % n));
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

impl Scenario {
    fn build(self) -> Sim {
        match self {
            Scenario::F1a(mech) => f1a_sim(mech),
            Scenario::Recovery => deadlock_recovery_sim(LiveMechanism::SemaphoreStrong),
            Scenario::AnomalyBackground => {
                let mut sim = f1a_sim(MechanismId::PathV1);
                let side = Arc::new(bloom_semaphore::Semaphore::strong("side", 1));
                sim.spawn("background", move |ctx| {
                    side.p(ctx);
                    ctx.yield_now();
                    side.v(ctx);
                });
                sim
            }
            Scenario::Dining3 => dining_sim(3),
            Scenario::AndlerBurst => andler_burst_sim(None),
            Scenario::CspCapacity => csp_capacity_sim(None),
        }
    }

    /// The scenario's verdict on one run: whether it violated the
    /// scenario's constraint. A failed run always violates.
    fn violates(self, result: &Result<SimReport, SimError>) -> bool {
        let Ok(report) = result else {
            return true;
        };
        match self {
            Scenario::F1a(_) | Scenario::AnomalyBackground => {
                !check_priority_over(&extract(&report.trace), READ, WRITE).is_empty()
            }
            Scenario::AndlerBurst => {
                let events = extract(&report.trace);
                !check_priority_over(&events, READ, WRITE).is_empty()
                    || !check_exclusion(&events, &[(READ, WRITE), (WRITE, WRITE)]).is_empty()
            }
            Scenario::CspCapacity => {
                let removed: Vec<i64> = extract(&report.trace)
                    .iter()
                    .filter(|e| e.op == REMOVE && e.phase == Phase::Exit)
                    .map(|e| e.params[0])
                    .collect();
                removed != [1, 2]
            }
            Scenario::Recovery | Scenario::Dining3 => false,
        }
    }
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

/// Hash of one run's observable behaviour: success, recovery victims and
/// the ordered user events (pid, label, parameters). Timestamps are left
/// out, since commuting a pure quantum shifts them without changing what
/// any process can observe.
fn behaviour(result: &Result<SimReport, SimError>) -> u64 {
    let report = report_of(result);
    let mut h = Fnv::new();
    h.u64(u64::from(result.is_ok()));
    for pid in &report.recovered {
        h.u64(u64::from(pid.0));
    }
    h.u64(u64::MAX);
    for (event, label, params) in report.trace.user_events() {
        h.u64(u64::from(event.pid.0));
        h.bytes(label.as_bytes());
        h.u64(params.len() as u64);
        for &p in params {
            h.u64(p as u64);
        }
    }
    h.0
}

/// Digest of a tree's behaviour set.
fn set_digest(behaviours: impl Iterator<Item = u64>) -> u64 {
    let set: BTreeSet<u64> = behaviours.collect();
    let mut h = Fnv::new();
    for b in set {
        h.u64(b);
    }
    h.0
}

/// One tree and its known answers.
struct Tree {
    name: &'static str,
    scenario: Scenario,
    /// Behaviour-set digest, the same in both modes.
    digest: u64,
    /// Unpruned (schedules, violating); `None` for trees only `dpor-revisit` runs.
    full: Option<(usize, usize)>,
    /// Revisit-mode (schedules, violating, symbolic grants).
    revisit: (usize, usize, u64),
}

const TREES: [Tree; 11] = [
    Tree {
        name: "f1a-path-v1",
        scenario: Scenario::F1a(MechanismId::PathV1),
        digest: 0x448c_595f_f4f3_6b57,
        full: Some((44, 4)),
        revisit: (44, 4, 0),
    },
    Tree {
        name: "f1a-path-v3",
        scenario: Scenario::F1a(MechanismId::PathV3),
        digest: 0x6c34_c78b_2b30_0c35,
        full: Some((36, 0)),
        revisit: (36, 0, 0),
    },
    Tree {
        name: "f1a-semaphore",
        scenario: Scenario::F1a(MechanismId::Semaphore),
        digest: 0x11ea_0478_9529_61ef,
        full: Some((36, 0)),
        revisit: (36, 0, 0),
    },
    Tree {
        name: "f1a-monitor",
        scenario: Scenario::F1a(MechanismId::Monitor),
        digest: 0x11ea_0478_9529_61ef,
        full: Some((150, 0)),
        revisit: (150, 0, 0),
    },
    Tree {
        name: "f1a-serializer",
        scenario: Scenario::F1a(MechanismId::Serializer),
        digest: 0x11ea_0478_9529_61ef,
        full: Some((42, 0)),
        revisit: (42, 0, 0),
    },
    Tree {
        name: "f1a-csp",
        scenario: Scenario::F1a(MechanismId::Csp),
        digest: 0x1f10_5c4f_4e7e_5327,
        full: Some((20_358, 0)),
        revisit: (2_394, 0, 0),
    },
    Tree {
        name: "liveness-recovery",
        scenario: Scenario::Recovery,
        digest: 0xc985_ea2f_c21b_b45e,
        full: Some((492, 0)),
        revisit: (243, 0, 0),
    },
    Tree {
        name: "anomaly+background",
        scenario: Scenario::AnomalyBackground,
        digest: 0x448c_595f_f4f3_6b57,
        full: Some((1_850, 200)),
        revisit: (148, 20, 0),
    },
    Tree {
        name: "dining-strong-3",
        scenario: Scenario::Dining3,
        digest: 0xad12_1827_22d0_15eb,
        full: Some((492, 0)),
        revisit: (99, 0, 0),
    },
    Tree {
        name: "andler-burst",
        scenario: Scenario::AndlerBurst,
        digest: 0xc6a0_b938_b875_d74d,
        full: None,
        revisit: (280, 0, 6),
    },
    Tree {
        name: "csp-capacity",
        scenario: Scenario::CspCapacity,
        digest: 0x8171_ab68_bf03_7376,
        full: None,
        revisit: (27, 0, 5),
    },
];

/// What the map closure keeps per schedule.
#[derive(Debug, Clone, Copy)]
struct Verdict {
    behaviour: u64,
    violating: bool,
    run: u32,
}

type Journal = Vec<(Vec<u32>, Verdict)>;

/// An explorer workload: the trees it runs, in seed order, and each
/// tree's journal from the last pass.
pub struct Explore {
    revisit: bool,
    trees: Vec<&'static Tree>,
    last: Vec<(Journal, ExploreStats)>,
}

impl Explore {
    /// Expands the plan and warms up with one run of every scenario.
    pub fn new(revisit: bool, seed: u64, checks: &mut Checks) -> Self {
        let mut trees: Vec<&'static Tree> = TREES
            .iter()
            .filter(|t| revisit || t.full.is_some())
            .collect();
        shuffle(&mut trees, seed);
        for tree in &trees {
            let clean = tree.scenario.build().run().is_ok();
            checks.expect(&format!("{}: warm-up run is clean", tree.name), clean);
        }
        Explore {
            revisit,
            last: vec![(Vec::new(), ExploreStats::default()); trees.len()],
            trees,
        }
    }

    fn config(&self) -> ExploreConfig {
        let config = ExploreConfig::new(BUDGET);
        if self.revisit {
            config.mode(PruneMode::Revisit)
        } else {
            config
        }
    }

    /// Explores one tree; the map closure checks every schedule.
    fn explore(
        &self,
        config: &ExploreConfig,
        item: usize,
        tracer: Option<&Tracer>,
        clock: Option<&Clock>,
    ) -> (Journal, ExploreStats) {
        let scenario = self.trees[item].scenario;
        let item = item as u32;
        let (journal, stats) = span(tracer, "explore", item, NO_RUN, || {
            config.run(
                || {
                    let run = tracer.map_or(NO_RUN, Tracer::next_run);
                    span(tracer, "setup", item, run, || scenario.build())
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
                        span(tracer, "check", item, run, || Verdict {
                            behaviour: behaviour(result),
                            violating: scenario.violates(result),
                            run,
                        })
                    })
                },
            )
        });
        let journal = journal.into_iter().map(|r| (r.choices, r.value)).collect();
        (journal, stats)
    }

    /// Checks one exploration against the tree's known answers.
    fn check_tree(
        &self,
        tree: &Tree,
        journal: &Journal,
        stats: &ExploreStats,
        checks: &mut Checks,
    ) {
        let name = tree.name;
        let (schedules, violating) = if self.revisit {
            (tree.revisit.0, tree.revisit.1)
        } else {
            tree.full
                .expect("dfs-full runs only trees with full-mode answers")
        };
        checks.expect(&format!("{name}: exploration complete"), stats.complete);
        checks.expect_eq(&format!("{name}: schedules"), stats.schedules, schedules);
        checks.expect_eq(
            &format!("{name}: violating schedules"),
            journal.iter().filter(|r| r.1.violating).count(),
            violating,
        );
        checks.expect_eq(
            &format!("{name}: behaviour-set digest"),
            set_digest(journal.iter().map(|r| r.1.behaviour)),
            tree.digest,
        );
        if self.revisit {
            checks.expect_eq(
                &format!("{name}: symbolic grants"),
                stats.sym_grants,
                tree.revisit.2,
            );
        }
        let stats = stats.clone();
        checks.expect_no_panic(
            &format!("{name}: ExploreStats::assert_consistent"),
            move || stats.assert_consistent(),
        );
    }
}

/// Seeded Fisher–Yates shuffle: the seed fixes the order of the fixed
/// work within a pass, so an order artefact cannot hide behind one seed.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

impl Workload for Explore {
    fn items(&self) -> Vec<(String, u64)> {
        self.trees.iter().map(|t| (t.name.to_string(), 1)).collect()
    }

    fn run_item(
        &mut self,
        item: usize,
        tracer: Option<&Tracer>,
        clock: &Clock,
        checks: &mut Checks,
    ) -> Tally {
        let (journal, stats) = self.explore(&self.config(), item, tracer, Some(clock));
        self.check_tree(self.trees[item], &journal, &stats, checks);
        let tally = Tally {
            pruned: stats.pruned as u64,
            revisit_requests: stats.revisit_requests,
            revisit_grants: stats.revisits,
            sym_grants: stats.sym_grants,
            violations: journal.iter().filter(|r| r.1.violating).count() as u64,
        };
        self.last[item] = (journal, stats);
        tally
    }

    fn replay(&self, tracer: &Tracer, checks: &mut Checks) {
        for (item, tree) in self.trees.iter().enumerate() {
            let mut diverged = 0usize;
            for (choices, verdict) in &self.last[item].0 {
                span(Some(tracer), "replay", item as u32, verdict.run, || {
                    let mut sim = tree.scenario.build();
                    sim.set_policy(ReplayPolicy::prefix(choices.clone()));
                    if self.revisit {
                        sim.set_record_quanta(true);
                    }
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
                &format!("{}: replayed vectors that diverged", tree.name),
                diverged,
                0,
            );
        }
    }

    fn self_check(&self, checks: &mut Checks) {
        let config = self.config().threads(2);
        for (item, tree) in self.trees.iter().enumerate() {
            let (journal, stats) = self.explore(&config, item, None, None);
            let (serial, serial_stats) = &self.last[item];
            let key = |j: &Journal| -> Vec<(Vec<u32>, u64, bool)> {
                j.iter()
                    .map(|(c, v)| (c.clone(), v.behaviour, v.violating))
                    .collect()
            };
            checks.expect(
                &format!("{}: journal identical under .threads(2)", tree.name),
                key(&journal) == key(serial),
            );
            checks.expect_eq(
                &format!("{}: stats identical under .threads(2)", tree.name),
                (
                    stats.schedules,
                    stats.pruned,
                    stats.revisit_requests,
                    stats.revisits,
                    stats.sym_grants,
                ),
                (
                    serial_stats.schedules,
                    serial_stats.pruned,
                    serial_stats.revisit_requests,
                    serial_stats.revisits,
                    serial_stats.sym_grants,
                ),
            );
        }
    }
}
