//! Independent class counter for the revisit prune.
//!
//! Each tree is explored unpruned with the footprint log on, and each run
//! is fingerprinted by its footprints, each labelled by `(pid, index
//! within pid)`, plus the set of ordered conflicting pairs across pids.
//! Equal fingerprints are one Mazurkiewicz class under the repository's
//! conflict relation (reads commute, a write conflicts with any access
//! to its object, the conservative footprint with anything non-empty).
//! The conflict check below is this file's own: it shares no code with
//! the race planner or with the log's conflict helper.
//!
//! For every tree the oracle asserts two things:
//!
//! * the revisit prune's runs hit every class of the full tree, so no
//!   behaviour class is lost to the prune;
//! * no class has two behaviours (ordered user events plus error kind),
//!   so the footprints record every dependency a behaviour can see.
//!
//! One tree breaks the first: revisit misses 294 of F1a CSP's 1 026
//! classes. The cell's test pins that count as a finding rather than
//! dropping the tree (see its doc comment). The class count is what an
//! optimal DPOR explores; the gap to the revisit count is what ROADMAP
//! item 2 wants closed (EXPERIMENTS E4 records both).

#![deny(deprecated)]

use bloom_core::MechanismId;
use bloom_problems::drivers::footnote3_sim;
use bloom_problems::liveness::{deadlock_recovery_sim, LiveMechanism};
use bloom_problems::rw::RwVariant;
use bloom_semaphore::Semaphore;
use bloom_sim::prelude::*;
use bloom_sim::{Access, QuantumLog};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

const BUDGET: usize = 100_000;

/// One quantum's footprint as the counter sees it: `None` is the
/// conservative "touches everything" footprint, otherwise each object's
/// name with whether the quantum wrote it.
type Footprint = Option<BTreeMap<String, bool>>;

/// The counter's conflict relation, from the definition: two footprints
/// conflict when they share an object at least one of them writes; the
/// conservative footprint conflicts with every non-empty one.
fn conflict(a: &Footprint, b: &Footprint) -> bool {
    match (a, b) {
        (None, None) => true,
        (None, Some(objs)) | (Some(objs), None) => !objs.is_empty(),
        (Some(a), Some(b)) => a
            .iter()
            .any(|(obj, &wrote)| b.get(obj).is_some_and(|&other| wrote || other)),
    }
}

/// A 128-bit digest of a run's class: its labelled footprints and its
/// ordered cross-pid conflicting pairs. (Digests, not the fingerprints
/// themselves, so the 20 358-run CSP tree fits in a test's memory.)
fn class_of(log: &QuantumLog) -> (u64, u64) {
    let mut index: BTreeMap<u32, usize> = BTreeMap::new();
    let labelled: Vec<((u32, usize), Footprint)> = log
        .iter()
        .map(|q| {
            let pid = q.pid().0;
            let next = index.entry(pid).or_insert(0);
            let label = (pid, *next);
            *next += 1;
            let footprint = (!q.is_all()).then(|| {
                q.accesses()
                    .map(|(obj, access)| (obj.as_str().to_string(), access == Access::Write))
                    .collect()
            });
            (label, footprint)
        })
        .collect();
    let mut pairs = BTreeSet::new();
    for (i, (a, fa)) in labelled.iter().enumerate() {
        for (b, fb) in &labelled[i + 1..] {
            if a.0 != b.0 && conflict(fa, fb) {
                pairs.insert((*a, *b));
            }
        }
    }
    let footprints: BTreeMap<_, _> = labelled.into_iter().collect();
    let digest = |salt: u8| {
        let mut h = DefaultHasher::new();
        salt.hash(&mut h);
        footprints.hash(&mut h);
        pairs.hash(&mut h);
        h.finish()
    };
    (digest(0), digest(1))
}

/// A run's behaviour: its ordered user events plus its error kind.
fn behaviour(result: &Result<SimReport, SimError>) -> String {
    let (report, error) = match result {
        Ok(report) => (report, String::new()),
        Err(err) => {
            let kind = format!("{:?}", err.kind);
            let kind = kind
                .split([' ', '{', '('])
                .next()
                .unwrap_or_default()
                .to_string();
            (&*err.report, kind)
        }
    };
    let events: Vec<String> = report
        .trace
        .user_events()
        .map(|(e, label, params)| format!("{}:{label}:{params:?}", e.pid))
        .collect();
    format!("{error} {}", events.join(","))
}

fn report_of(result: &Result<SimReport, SimError>) -> &SimReport {
    match result {
        Ok(report) => report,
        Err(err) => &err.report,
    }
}

/// What one tree measured: schedules of the full tree, its classes, the
/// revisit prune's schedules, and how many classes those missed.
#[derive(Debug, PartialEq, Eq)]
struct Counts {
    full: usize,
    classes: usize,
    revisit: usize,
    missed: usize,
}

/// Counts the classes of one tree, asserts that no class has two
/// behaviours and that the prune keeps every behaviour, and counts the
/// classes the prune missed.
fn count_classes(name: &str, setup: impl Fn() -> Sim + Sync) -> Counts {
    let recorded = || {
        let mut sim = setup();
        sim.set_record_quanta(true);
        sim
    };
    let (full, stats) = ExploreConfig::new(BUDGET).run(recorded, |_, result| {
        (class_of(&report_of(result).quanta), behaviour(result))
    });
    assert!(stats.complete, "{name}: the full tree exceeds the budget");
    let mut classes: BTreeMap<(u64, u64), BTreeSet<String>> = BTreeMap::new();
    for record in &full {
        let (class, behaviour) = &record.value;
        classes.entry(*class).or_default().insert(behaviour.clone());
    }
    for behaviours in classes.values() {
        assert_eq!(
            behaviours.len(),
            1,
            "{name}: one class has two behaviours: {behaviours:?}"
        );
    }
    let (revisit, stats) = ExploreConfig::new(BUDGET)
        .mode(PruneMode::Revisit)
        .run(&setup, |_, result| {
            (class_of(&report_of(result).quanta), behaviour(result))
        });
    assert!(
        stats.complete,
        "{name}: the revisit tree exceeds the budget"
    );
    let hit: BTreeSet<(u64, u64)> = revisit.iter().map(|r| r.value.0).collect();
    let kept: BTreeSet<&String> = revisit.iter().map(|r| &r.value.1).collect();
    let all: BTreeSet<&String> = classes.values().flatten().collect();
    assert_eq!(kept, all, "{name}: the prune lost a behaviour");
    let counts = Counts {
        full: full.len(),
        classes: classes.len(),
        revisit: revisit.len(),
        missed: classes.keys().filter(|class| !hit.contains(class)).count(),
    };
    eprintln!("{name}: {counts:?}");
    counts
}

/// [`count_classes`], asserting that the prune hit every class.
fn check_tree(name: &str, setup: impl Fn() -> Sim + Sync) -> Counts {
    let counts = count_classes(name, setup);
    assert_eq!(
        counts.missed, 0,
        "{name}: revisit misses {} of {} classes",
        counts.missed, counts.classes
    );
    counts
}

/// The footnote-3 scenario plus one background process working a private
/// semaphore (the anomaly+background tree of `bench_explore`).
fn anomaly_bg_tree() -> Sim {
    let mut sim = footnote3_sim(MechanismId::PathV1, RwVariant::ReadersPriority, 2, 1);
    let side = Arc::new(Semaphore::strong("side", 1));
    sim.spawn("background", move |ctx| {
        side.p(ctx);
        ctx.yield_now();
        side.v(ctx);
    });
    sim
}

/// Three dining philosophers on strong semaphores, with stutters between
/// fork operations (the dining-strong-3 tree of `bench_explore`).
fn dining_tree() -> Sim {
    let n = 3;
    let mut sim = Sim::new();
    let forks: Vec<Arc<Semaphore>> = (0..n)
        .map(|i| Arc::new(Semaphore::strong(&format!("fork{i}"), 1)))
        .collect();
    for i in 0..n {
        let (a, b) = (i.min((i + 1) % n), i.max((i + 1) % n));
        let (first, second) = (Arc::clone(&forks[a]), Arc::clone(&forks[b]));
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

fn f1a(mech: MechanismId) -> impl Fn() -> Sim + Sync {
    move || footnote3_sim(mech, RwVariant::ReadersPriority, 2, 1)
}

/// The three `bench_explore` trees: revisit runs more schedules than
/// there are classes on each (243/231, 148/44, 99/17).
#[test]
fn revisit_hits_every_class_of_the_bench_explore_trees() {
    let recovery = check_tree("liveness-recovery", || {
        deadlock_recovery_sim(LiveMechanism::SemaphoreStrong)
    });
    let anomaly = check_tree("anomaly+background", anomaly_bg_tree);
    let dining = check_tree("dining-strong-3", dining_tree);
    for counts in [&recovery, &anomaly, &dining] {
        assert!(counts.classes <= counts.revisit && counts.revisit < counts.full);
    }
    assert_eq!(
        [recovery.revisit, anomaly.revisit, dining.revisit],
        [243, 148, 99]
    );
}

/// The five small F1a cells: every quantum touches the one shared
/// mechanism object or the trace, so no reduction can help there.
#[test]
fn revisit_hits_every_class_of_the_small_f1a_cells() {
    for mech in [
        MechanismId::PathV1,
        MechanismId::PathV3,
        MechanismId::Semaphore,
        MechanismId::Monitor,
        MechanismId::Serializer,
    ] {
        let counts = check_tree(&format!("F1a {}", mech.label()), f1a(mech));
        assert!(counts.classes <= counts.revisit && counts.revisit <= counts.full);
    }
}

/// The F1a CSP cell, 20 358 schedules unpruned (about 11 s in a debug
/// build).
///
/// A finding, pinned: revisit's 2 394 runs hit only 732 of the cell's
/// 1 026 classes. The cell's server is a daemon, and a run ends when the
/// last non-daemon finishes, so whether the server's next quantum runs
/// at all depends on its order against a client's last quantum, whose
/// footprint may be empty. No footprint names that dependency, so no
/// race reverses it. Here the missed classes differ only in server
/// quanta that emit nothing, so every behaviour is still kept (asserted
/// in [`count_classes`]); a daemon that emits in such a quantum loses a
/// behaviour (ROADMAP item 2).
#[test]
fn revisit_misses_294_classes_of_the_f1a_csp_cell() {
    let counts = count_classes("F1a csp channels", f1a(MechanismId::Csp));
    assert_eq!(
        counts,
        Counts {
            full: 20_358,
            classes: 1_026,
            revisit: 2_394,
            missed: 294,
        }
    );
}

/// One step of a generated process program (the workload family of
/// `prune_soundness`).
#[derive(Debug, Clone, Copy)]
enum Step {
    /// A critical section on semaphore `k` with a yield inside.
    Crit(usize),
    /// A nonblocking attempt on semaphore `k`: the critical section on a
    /// hit, an observable miss otherwise.
    TryCrit(usize),
    /// A user event with no synchronization.
    Note(u8),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0usize..2).prop_map(Step::Crit),
        (0usize..2).prop_map(Step::TryCrit),
        (0u8..3).prop_map(Step::Note),
    ]
}

type Workload = (Vec<Step>, Vec<Step>, Option<u8>);

fn workload() -> impl Strategy<Value = Workload> {
    (
        prop::collection::vec(step(), 1..3),
        prop::collection::vec(step(), 1..3),
        prop_oneof![Just(None), (0u8..3).prop_map(Some)],
    )
}

fn build_sim(workload: &Workload) -> Sim {
    let mut sim = Sim::new();
    let sems: Arc<[Semaphore; 2]> =
        Arc::new([Semaphore::strong("s0", 1), Semaphore::strong("s1", 1)]);
    for (i, program) in [workload.0.clone(), workload.1.clone()]
        .into_iter()
        .enumerate()
    {
        let sems = Arc::clone(&sems);
        sim.spawn(&format!("p{i}"), move |ctx| {
            for op in program {
                match op {
                    Step::Crit(k) => {
                        sems[k].p(ctx);
                        ctx.emit(&format!("enter:c{k}"), &[]);
                        ctx.yield_now();
                        ctx.emit(&format!("exit:c{k}"), &[]);
                        sems[k].v(ctx);
                    }
                    Step::TryCrit(k) => {
                        if sems[k].try_p_ctx(ctx) {
                            ctx.emit(&format!("enter:c{k}"), &[]);
                            ctx.yield_now();
                            ctx.emit(&format!("exit:c{k}"), &[]);
                            sems[k].v(ctx);
                        } else {
                            ctx.emit(&format!("miss:{k}"), &[]);
                        }
                    }
                    Step::Note(tag) => ctx.emit(&format!("note:{i}:{tag}"), &[]),
                }
            }
        });
    }
    if let Some(tag) = workload.2 {
        sim.spawn("p2", move |ctx| ctx.emit(&format!("note:2:{tag}"), &[]));
    }
    sim
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn revisit_hits_every_class_of_random_workloads(w in workload()) {
        let counts = check_tree(&format!("{w:?}"), || build_sim(&w));
        prop_assert!(counts.classes <= counts.revisit && counts.revisit <= counts.full);
    }
}
