//! The exploration engine: a frontier of branch prefixes and the workers
//! that drain it.
//!
//! [`ExploreConfig::run`] and [`ExploreConfig::run_kill_points`] both end
//! up here, in every prune mode and at every worker count. The tree is
//! split at prefix boundaries:
//!
//! * A shared frontier holds unexplored branch prefixes, seeded with the
//!   empty prefix (the canonical first schedule), ordered by prefix.
//! * A worker pops the lexicographically least prefix, runs the scenario
//!   under a [`ReplayPolicy`] for it (decisions past the prefix take the
//!   canonical choice 0), and for every decision point the run
//!   *discovered* — indices at or beyond the prefix length — pushes each
//!   sibling branch `decisions[..i] ⧺ [c]`, `c ∈ 1..arity`, back onto the
//!   frontier. Each leaf is generated exactly once: by the prefix that
//!   ends at its last non-zero choice. Under [`PruneMode::Revisit`] a
//!   run pushes only the fresh branches its races and symbolic value
//!   classes request, at any index.
//! * The run's outcome is mapped to a journal entry on the spot (outcomes
//!   are never buffered whole — a 300k-schedule tree of full
//!   [`SimReport`]s would not fit in memory) and appended to the worker's
//!   own journal.
//!
//! **One worker is the serial order.** With one worker — the default —
//! the engine runs inline on the caller's thread. Unpruned, every prefix a
//! run pushes extends the run's own decision vector, so the least prefix
//! on the frontier is always the next leaf in depth-first order, and a
//! budget of `k` runs exactly the first `k` schedules of that order. The
//! revisit mode drains its worklist least-prefix-first; a race whose
//! earlier quantum lies inside a run's prefix can request a branch that
//! sorts before that run, so a budget cut there runs *some* `k`
//! schedules, not necessarily the first `k` of the complete journal.
//!
//! Determinism is load-bearing in this repository, so the merge is
//! canonical: per-worker journals are concatenated and sorted by the full
//! decision vector of each schedule. Schedule counts, journals, stats, and
//! any report text derived from them are byte-identical for every worker
//! count (verified by the `parallel_explore` integration test).
//!
//! The budget is deterministic too: workers claim budget slots from an
//! atomic counter before running, so exactly `min(budget, tree)` schedules
//! execute regardless of interleaving. With more than one worker, *which*
//! schedules run under an exhausted budget is scheduling-dependent, so
//! only `schedules` and `complete` (not the journal) are stable for
//! budget-cut explorations. All exhaustive call sites in this repository
//! are budgeted above their tree size.

use crate::error::SimError;
use crate::explore::{
    bump_depth, merge_conflicts, ExploreConfig, ExploreError, ExploreStats, PhaseTimes, PruneMode,
};
use crate::kernel::SimReport;
use crate::policy::ReplayPolicy;
use crate::revisit::Planner;
use crate::sim::Sim;
use crate::trace::Decision;
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One schedule's entry in a merged exploration journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleRecord<T> {
    /// The schedule's decision vector (its replay coordinates).
    pub choices: Vec<u32>,
    /// Whatever the map closure produced for this schedule.
    pub value: T,
}

/// Shared frontier of unexplored branch prefixes.
struct Frontier {
    /// Ordered by prefix, so `pop_first` takes the least one.
    pending: BTreeSet<Vec<u32>>,
    /// Workers currently expanding a popped prefix (may push more work).
    active: usize,
    /// Workers blocked in [`Coordinator::pop`]: the only ones a change to
    /// the frontier has to wake.
    waiting: usize,
    /// Raised on budget exhaustion or worker panic: drain and exit.
    stop: bool,
}

struct Coordinator {
    frontier: Mutex<Frontier>,
    available: Condvar,
}

impl Coordinator {
    fn new() -> Self {
        Coordinator {
            frontier: Mutex::new(Frontier {
                pending: BTreeSet::from([Vec::new()]),
                active: 0,
                waiting: 0,
                stop: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Pops the least prefix and counts its worker active; `None` once
    /// `stop` is raised, or once no work exists and nobody is expanding
    /// (an active worker may still push more).
    fn pop(&self) -> Option<Vec<u32>> {
        let mut f = self.frontier.lock();
        loop {
            if f.stop {
                return None;
            }
            if let Some(prefix) = f.pending.pop_first() {
                f.active += 1;
                return Some(prefix);
            }
            if f.active == 0 {
                return None;
            }
            f.waiting += 1;
            self.available.wait(&mut f);
            f.waiting -= 1;
        }
    }

    /// Applies `change` to the frontier, then wakes the waiting workers —
    /// after unlocking (see `vendor/README.md`), and only if one waits.
    fn update(&self, change: impl FnOnce(&mut Frontier)) {
        let mut f = self.frontier.lock();
        change(&mut f);
        let wake = f.waiting > 0;
        drop(f);
        if wake {
            self.available.notify_all();
        }
    }
}

/// Decrements `active` when an expansion ends — including by panic, where
/// it also raises `stop` so sibling workers exit instead of waiting forever
/// on a frontier that will never drain.
struct ActiveGuard<'a> {
    sync: &'a Coordinator,
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        let panicking = std::thread::panicking();
        self.sync.update(|f| {
            f.active -= 1;
            f.stop |= panicking;
        });
    }
}

/// Exploration state every worker reads and writes: the budget counter
/// and, in the revisit mode, the grant set.
struct Shared {
    claimed: AtomicUsize,
    budget_hit: AtomicBool,
    /// Revisit-mode grant state; `None` in the other modes.
    revisit: Option<Mutex<RevisitShared>>,
}

/// The set of branch prefixes ever scheduled, as a prefix trie in one
/// arena: node `n` stands for one prefix, its children for that prefix
/// extended by one choice. Registering a node or granting a branch walks
/// the run's own decision vector once and allocates nothing beyond the
/// arena's growth.
struct PrefixTrie {
    nodes: Vec<TrieNode>,
}

#[derive(Clone, Copy)]
struct TrieNode {
    /// The last choice of this node's prefix.
    choice: u32,
    first_child: u32,
    next_sibling: u32,
    scheduled: bool,
}

/// No node: the end of a child list.
const NO_NODE: u32 = u32::MAX;

impl PrefixTrie {
    /// The trie of the empty prefix (the root schedule), scheduled.
    fn new() -> Self {
        PrefixTrie {
            nodes: vec![TrieNode {
                choice: 0,
                first_child: NO_NODE,
                next_sibling: NO_NODE,
                scheduled: true,
            }],
        }
    }

    /// The root node, the empty prefix.
    const ROOT: u32 = 0;

    /// The node of `node`'s prefix extended by `choice`, created
    /// unscheduled if the trie has none yet.
    fn child(&mut self, node: u32, choice: u32) -> u32 {
        let mut at = self.nodes[node as usize].first_child;
        while at != NO_NODE {
            let n = &self.nodes[at as usize];
            if n.choice == choice {
                return at;
            }
            at = n.next_sibling;
        }
        let new = self.nodes.len() as u32;
        self.nodes.push(TrieNode {
            choice,
            first_child: NO_NODE,
            next_sibling: self.nodes[node as usize].first_child,
            scheduled: false,
        });
        self.nodes[node as usize].first_child = new;
        new
    }

    /// Marks a node's prefix scheduled; whether it was not already.
    fn schedule(&mut self, node: u32) -> bool {
        !std::mem::replace(&mut self.nodes[node as usize].scheduled, true)
    }

    /// `path[i]` becomes the node of `choices[..i]`, for every `i` up to
    /// `choices.len()`.
    fn walk(&mut self, choices: &[u32], path: &mut Vec<u32>) {
        path.clear();
        path.push(Self::ROOT);
        for (i, &c) in choices.iter().enumerate() {
            let next = self.child(path[i], c);
            path.push(next);
        }
    }
}

/// The shared fixed-point state of a revisit-mode exploration: which
/// branch prefixes were ever scheduled (so a request is granted exactly
/// once, no matter which worker makes it first), plus the per-depth
/// sibling-capacity and grant histograms whose difference is the prune
/// histogram. A worker registers a run's discovered nodes and grants its
/// requests under one lock acquisition, *before* pushing the granted
/// branches to the frontier — so any run that can request a branch at a
/// node always finds the node's canonical marker already present.
struct RevisitShared {
    scheduled: PrefixTrie,
    potential: Vec<usize>,
    granted: Vec<usize>,
    /// Value-sibling capacity and grants of discovered `Data`-kind
    /// decisions, kept apart from the race-revisit pair so the symbolic
    /// collapse is separately reportable (see
    /// [`ExploreStats::sym_grants`]).
    data_potential: Vec<usize>,
    data_granted: Vec<usize>,
}

/// What one worker counted besides its journal. Every field merges
/// order-independently (elementwise and additive sums, a lexicographic
/// minimum), which is what keeps the final [`ExploreStats`] identical
/// across worker counts.
#[derive(Default)]
struct Tally {
    conflicts: BTreeMap<String, u64>,
    /// Race-derived branch requests, including already-scheduled
    /// duplicates (see [`ExploreStats::revisit_requests`]).
    revisit_requests: u64,
    /// Symbolic value requests, including duplicates (see
    /// [`ExploreStats::sym_requests`]).
    sym_requests: u64,
    first_error: Option<ExploreError>,
    /// Wall-clock phase durations (non-authoritative).
    phases: PhaseTimes,
}

impl Tally {
    /// Keeps the failure whose decision vector is least in canonical
    /// depth-first order — the same winner regardless of which worker
    /// found which failure first.
    fn offer_error(&mut self, candidate: ExploreError) {
        match &self.first_error {
            Some(cur) if cur.choices <= candidate.choices => {}
            _ => self.first_error = Some(candidate),
        }
    }

    fn merge(&mut self, other: Tally) {
        merge_conflicts(&mut self.conflicts, &other.conflicts);
        self.revisit_requests += other.revisit_requests;
        self.sym_requests += other.sym_requests;
        self.phases.add(&other.phases);
        if let Some(error) = other.first_error {
            self.offer_error(error);
        }
    }
}

/// Explores the scenario produced by `setup` under `config`, mapping every
/// schedule to a journal entry via `map`, and returns the journal merged
/// in canonical (depth-first) order together with the stats.
pub(crate) fn explore<S, M, T>(
    config: &ExploreConfig,
    setup: &S,
    map: &M,
) -> (Vec<ScheduleRecord<T>>, ExploreStats)
where
    S: Fn() -> Sim + Sync,
    M: Fn(&[Decision], &Result<SimReport, SimError>) -> T + Sync,
    T: Send,
{
    let sync = Coordinator::new();
    let shared = Shared {
        claimed: AtomicUsize::new(0),
        budget_hit: AtomicBool::new(false),
        revisit: (config.mode == Some(PruneMode::Revisit)).then(|| {
            Mutex::new(RevisitShared {
                scheduled: PrefixTrie::new(),
                potential: Vec::new(),
                granted: Vec::new(),
                data_potential: Vec::new(),
                data_granted: Vec::new(),
            })
        }),
    };
    let threads = config.threads.unwrap_or(1);
    let (mut journal, mut tally) = if threads == 1 {
        worker(config, &sync, &shared, setup, map)
    } else {
        let outputs = Mutex::new(Vec::with_capacity(threads));
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let output = worker(config, &sync, &shared, setup, map);
                    outputs.lock().push(output);
                });
            }
        });
        let mut journal = Vec::new();
        let mut tally = Tally::default();
        for (part, counts) in outputs.into_inner() {
            journal.extend(part);
            tally.merge(counts);
        }
        (journal, tally)
    };
    let merge_start = Instant::now();
    journal.sort_unstable_by(|a, b| a.choices.cmp(&b.choices));
    // The schedule depth histogram is derived from the merged journal
    // (one record per executed schedule), so it is canonical by
    // construction.
    let mut depth_schedules = Vec::new();
    for r in &journal {
        bump_depth(&mut depth_schedules, r.choices.len(), 1);
    }
    // In revisit mode the prune histogram is settled now: every sibling of
    // every discovered contested node that was never granted is a pruned
    // branch at that node's depth. (A granted-but-unexecuted branch under
    // a budget cut is neither executed nor pruned.) Unpruned, nothing is.
    let (depth_pruned, revisits, sym_grants) = match shared.revisit {
        Some(revisit) => {
            let rs = revisit.into_inner();
            let mut depth_pruned = Vec::new();
            let mut revisits = 0u64;
            for (depth, &cap) in rs.potential.iter().enumerate() {
                let taken = rs.granted.get(depth).copied().unwrap_or(0);
                debug_assert!(taken <= cap, "granted more siblings than exist");
                if cap > taken {
                    bump_depth(&mut depth_pruned, depth, cap - taken);
                }
                revisits += taken as u64;
            }
            let mut sym_grants = 0u64;
            for (depth, &cap) in rs.data_potential.iter().enumerate() {
                let taken = rs.data_granted.get(depth).copied().unwrap_or(0);
                debug_assert!(taken <= cap, "granted more value siblings than exist");
                if cap > taken {
                    bump_depth(&mut depth_pruned, depth, cap - taken);
                }
                sym_grants += taken as u64;
            }
            (depth_pruned, revisits, sym_grants)
        }
        None => (Vec::new(), 0, 0),
    };
    tally.phases.merge = merge_start.elapsed();
    let stats = ExploreStats {
        schedules: journal.len(),
        complete: !shared.budget_hit.load(Ordering::Relaxed),
        pruned: depth_pruned.iter().sum(),
        depth_schedules,
        depth_pruned,
        conflicts: tally.conflicts,
        revisit_requests: tally.revisit_requests,
        revisits,
        sym_requests: tally.sym_requests,
        sym_grants,
        first_error: tally.first_error,
        sampling: None,
        per_point: Vec::new(),
        phases: tally.phases,
    };
    #[cfg(debug_assertions)]
    stats.assert_consistent();
    (journal, stats)
}

/// One worker: pop a prefix, run it, expand its discovered siblings,
/// journal the outcome; exit when the frontier drains or `stop` rises.
fn worker<S, M, T>(
    config: &ExploreConfig,
    sync: &Coordinator,
    shared: &Shared,
    setup: &S,
    map: &M,
) -> (Vec<ScheduleRecord<T>>, Tally)
where
    S: Fn() -> Sim + Sync,
    M: Fn(&[Decision], &Result<SimReport, SimError>) -> T + Sync,
    T: Send,
{
    let mut journal = Vec::new();
    let mut tally = Tally::default();
    let mut fresh: Vec<Vec<u32>> = Vec::new();
    // Revisit-mode scratch, reused from run to run.
    let mut planner = Planner::default();
    let mut path: Vec<u32> = Vec::new();
    let mut lap = Lap::start();
    while let Some(prefix) = sync.pop() {
        let _guard = ActiveGuard { sync };
        // Claim a budget slot *before* running: exactly
        // min(budget, tree) schedules execute, deterministically.
        let claim = shared.claimed.fetch_add(1, Ordering::Relaxed);
        if claim >= config.budget {
            shared.budget_hit.store(true, Ordering::Relaxed);
            sync.update(|f| f.stop = true);
            break;
        }

        let mut sim = setup();
        sim.set_policy(ReplayPolicy::prefix(prefix.clone()));
        if shared.revisit.is_some() {
            // The race analysis reads the footprint log.
            sim.set_record_quanta(true);
        }
        tally.phases.setup += lap.lap();
        let result = sim.run();
        tally.phases.run += lap.lap();
        let report = match &result {
            Ok(report) => report,
            Err(err) => &err.report,
        };
        let decisions = &report.decisions[..];
        let choices: Vec<u32> = decisions.iter().map(|d| d.chosen).collect();
        // An exhaustive walk replays only prefixes of vectors the tree
        // itself produced, so any divergence means the scenario is not a
        // function of its decisions.
        debug_assert!(
            !report.metrics.replay.diverged(),
            "replay diverged ({:?}) during exploration: scenario is nondeterministic",
            report.metrics.replay
        );
        for (i, want) in prefix.iter().enumerate() {
            assert!(
                choices.get(i) == Some(want),
                "replay prefix diverged at decision {i}: scenario is nondeterministic"
            );
        }
        if let Err(err) = &result {
            tally.offer_error(ExploreError {
                choices: choices.clone(),
                error: err.clone(),
            });
        }
        // Expand the decision points this run discovered. Points below
        // the prefix length were expanded by the run that discovered the
        // prefix; the rest are seen here first, with the canonical choice
        // 0.
        if let Some(revisit) = &shared.revisit {
            // Race-driven expansion: analyse this run for reversible
            // races, register the nodes it discovered, and schedule
            // only the fresh race-derived requests. All of it under
            // one lock acquisition, before the frontier push, so a
            // node's canonical marker is always visible before any
            // descendant run can request choice 0 there.
            planner.plan(decisions, &report.quanta, prefix.len());
            tally.phases.plan += lap.lap();
            tally.revisit_requests += planner.requests().len() as u64;
            let mut rs = revisit.lock();
            let rs = &mut *rs;
            rs.scheduled.walk(&choices, &mut path);
            for (i, d) in decisions.iter().enumerate().skip(prefix.len()) {
                debug_assert_eq!(d.chosen, 0, "past-prefix replay takes choice 0");
                if d.arity > 1 {
                    if d.is_sched() {
                        bump_depth(&mut rs.potential, i, d.arity as usize - 1);
                    } else {
                        bump_depth(&mut rs.data_potential, i, d.arity as usize - 1);
                    }
                    rs.scheduled.schedule(path[i + 1]);
                }
            }
            for &(i, c) in planner.requests() {
                let node = rs.scheduled.child(path[i], c);
                if rs.scheduled.schedule(node) {
                    bump_depth(&mut rs.granted, i, 1);
                    fresh.push(sibling(&choices, i, c));
                }
            }
            // Symbolic collapse over the run's data decisions: each
            // [`crate::DataChoice`] partitions its domain by the
            // constraint outcomes this run recorded, and one
            // representative of every class the chosen value does not
            // cover is requested. Constraints recorded *after* the
            // branch point can split classes at earlier slots, so
            // every slot is re-examined on every run — requests stay
            // a pure function of the run, and grants are fresh
            // insertions, preserving the order-independent fixed
            // point.
            let mut slot = 0usize;
            for (i, d) in decisions.iter().enumerate() {
                if !d.is_data() {
                    continue;
                }
                let requests = report.data_choices[slot].collapse_requests();
                slot += 1;
                tally.sym_requests += requests.len() as u64;
                for c in requests {
                    let node = rs.scheduled.child(path[i], c);
                    if rs.scheduled.schedule(node) {
                        bump_depth(&mut rs.data_granted, i, 1);
                        fresh.push(sibling(&choices, i, c));
                    }
                }
            }
            debug_assert_eq!(
                slot,
                report.data_choices.len(),
                "data decision/choice drift"
            );
        } else {
            for (i, d) in decisions.iter().enumerate().skip(prefix.len()) {
                debug_assert_eq!(d.chosen, 0, "past-prefix replay takes choice 0");
                for c in 1..d.arity {
                    fresh.push(sibling(&choices, i, c));
                }
            }
        }
        if !fresh.is_empty() {
            sync.update(|f| {
                for branch in fresh.drain(..) {
                    let fresh = f.pending.insert(branch);
                    debug_assert!(fresh, "a branch was pushed twice");
                }
            });
        }
        tally.phases.grant += lap.lap();
        journal.push(ScheduleRecord {
            value: map(decisions, &result),
            choices,
        });
        tally.phases.map += lap.lap();
    }
    planner.drain_tally(&mut tally.conflicts);
    (journal, tally)
}

/// A stopwatch that hands out the time since its last lap: one clock
/// read per phase boundary.
struct Lap(Instant);

impl Lap {
    fn start() -> Self {
        Lap(Instant::now())
    }

    fn lap(&mut self) -> Duration {
        let now = Instant::now();
        now.duration_since(std::mem::replace(&mut self.0, now))
    }
}

/// The branch that takes choice `c` at decision `i` of the run whose
/// decision vector is `choices`.
fn sibling(choices: &[u32], i: usize, c: u32) -> Vec<u32> {
    let mut branch = Vec::with_capacity(i + 1);
    branch.extend_from_slice(&choices[..i]);
    branch.push(c);
    branch
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn three_emitters() -> Sim {
        let mut sim = Sim::new();
        for i in 0..3 {
            sim.spawn(&format!("p{i}"), move |ctx| ctx.emit("go", &[i]));
        }
        sim
    }

    /// The ordered user-event labels of a run (empty for a failed run).
    fn trace_of(result: &Result<SimReport, SimError>) -> Vec<String> {
        result
            .as_ref()
            .map(|report| {
                report
                    .trace
                    .user_events()
                    .map(|(_, l, _)| l.to_string())
                    .collect()
            })
            .unwrap_or_default()
    }

    #[test]
    fn matches_serial_explorer_for_every_thread_count() {
        let params = |_: &[Decision], result: &Result<SimReport, SimError>| {
            let Ok(report) = result else {
                return Vec::new();
            };
            report
                .trace
                .user_events()
                .map(|(_, _, params)| params[0])
                .collect::<Vec<i64>>()
        };
        let config = ExploreConfig::new(10_000);
        let (serial, serial_stats) = config.run(three_emitters, params);
        assert_eq!(serial_stats.schedules, 6, "3! = 6 schedules");
        for threads in [1, 2, 4, 8] {
            let (journal, stats) = config.clone().threads(threads).run(three_emitters, params);
            assert_eq!(stats.schedules, serial_stats.schedules);
            assert!(stats.complete);
            assert_eq!(stats.depth_schedules, serial_stats.depth_schedules);
            assert_eq!(stats.depth_pruned, serial_stats.depth_pruned);
            assert!(stats.first_error.is_none());
            assert_eq!(journal, serial, "journal must match the one-worker order");
        }
    }

    #[test]
    fn budget_claims_are_deterministic() {
        for threads in [1, 2, 4, 8] {
            let (journal, stats) = ExploreConfig::new(2)
                .threads(threads)
                .run(three_emitters, |_, _| ());
            assert_eq!(stats.schedules, 2);
            assert_eq!(journal.len(), 2);
            assert!(!stats.complete);
        }
    }

    #[test]
    fn exact_budget_reports_complete() {
        // 3 one-emit processes: 3! = 6 schedules exactly.
        let (_, stats) = ExploreConfig::new(6)
            .threads(4)
            .run(three_emitters, |_, _| ());
        assert_eq!(stats.schedules, 6);
        assert!(stats.complete, "budget == tree size must be complete");
    }

    #[test]
    fn pruning_matches_serial_and_preserves_behaviors() {
        let scenario = || {
            let mut sim = Sim::new();
            sim.spawn("a", |ctx| {
                ctx.emit("a1", &[]);
                ctx.yield_now();
                ctx.yield_now();
                ctx.emit("a2", &[]);
            });
            sim.spawn("b", |ctx| {
                ctx.emit("b1", &[]);
                ctx.yield_now();
                ctx.emit("b2", &[]);
            });
            sim
        };
        let config = ExploreConfig::new(100_000).mode(PruneMode::Revisit);
        let (serial, serial_stats) = config.run(scenario, |_, result| trace_of(result));
        assert!(serial_stats.pruned > 0, "scenario must actually prune");
        let (full, _) = ExploreConfig::new(100_000).run(scenario, |_, result| trace_of(result));
        let behaviors = |journal: &[ScheduleRecord<Vec<String>>]| -> BTreeSet<Vec<String>> {
            journal.iter().map(|r| r.value.clone()).collect()
        };
        assert_eq!(
            behaviors(&serial),
            behaviors(&full),
            "prune must be behavior-preserving"
        );
        for threads in [1, 4] {
            let (journal, stats) = config
                .clone()
                .threads(threads)
                .run(scenario, |_, result| trace_of(result));
            assert_eq!(stats.schedules, serial_stats.schedules);
            assert_eq!(stats.pruned, serial_stats.pruned);
            assert_eq!(stats.conflicts, serial_stats.conflicts);
            assert_eq!(journal, serial, "pruned trees must be identical");
        }
    }

    /// Work on disjoint queues: the footprints commute, the emits race.
    fn disjoint_queues() -> Sim {
        let mut sim = Sim::new();
        let qa = Arc::new(crate::waitq::WaitQueue::new("qa"));
        let qb = Arc::new(crate::waitq::WaitQueue::new("qb"));
        sim.spawn("a", move |ctx| {
            qa.wake_one(ctx);
            ctx.yield_now();
            qa.wake_one(ctx);
            ctx.yield_now();
            ctx.emit("a", &[]);
        });
        sim.spawn("b", move |ctx| {
            qb.wake_one(ctx);
            ctx.yield_now();
            qb.wake_one(ctx);
            ctx.yield_now();
            ctx.emit("b", &[]);
        });
        sim
    }

    /// A shared queue beside a private one: the shared queue races.
    fn shared_queue() -> Sim {
        let mut sim = Sim::new();
        let shared = Arc::new(crate::waitq::WaitQueue::new("shared"));
        let qa = Arc::new(crate::waitq::WaitQueue::new("qa"));
        let s1 = Arc::clone(&shared);
        sim.spawn("a", move |ctx| {
            qa.wake_one(ctx);
            ctx.yield_now();
            s1.wake_one(ctx);
            ctx.emit("a", &[]);
        });
        let s2 = Arc::clone(&shared);
        sim.spawn("b", move |ctx| {
            s2.wake_one(ctx);
            ctx.yield_now();
            ctx.emit("b", &[]);
        });
        sim
    }

    /// The revisit mode's executed set is a fixed point of the race
    /// analysis, so every thread count must produce the identical journal
    /// and identical stats.
    fn assert_revisit_matches_serial(scenario: fn() -> Sim) {
        let config = ExploreConfig::new(100_000).mode(PruneMode::Revisit);
        let (serial, serial_stats) = config.run(scenario, |_, result| trace_of(result));
        assert!(serial_stats.pruned > 0, "the prune must skip something");
        assert!(serial_stats.revisits > 0, "the emits must race");
        for threads in [1, 2, 4, 8] {
            let (journal, stats) = config
                .clone()
                .threads(threads)
                .run(scenario, |_, result| trace_of(result));
            assert_eq!(stats.schedules, serial_stats.schedules);
            assert_eq!(stats.pruned, serial_stats.pruned);
            assert_eq!(stats.depth_pruned, serial_stats.depth_pruned);
            assert_eq!(stats.conflicts, serial_stats.conflicts);
            assert_eq!(stats.revisit_requests, serial_stats.revisit_requests);
            assert_eq!(stats.revisits, serial_stats.revisits);
            assert_eq!(journal, serial, "revisit trees must be identical");
        }
    }

    #[test]
    fn revisit_matches_serial_for_every_thread_count() {
        assert_revisit_matches_serial(shared_queue);
    }

    #[test]
    fn disjoint_work_prune_matches_serial_for_every_thread_count() {
        assert_revisit_matches_serial(disjoint_queues);
    }

    /// A schedule-dependent deadlock must not panic the workers; the
    /// canonical-first failure must match the one worker's for every
    /// thread count.
    #[test]
    fn first_error_matches_serial_for_every_thread_count() {
        let scenario = || {
            let mut sim = Sim::new();
            let q = Arc::new(crate::waitq::WaitQueue::new("gate"));
            let q2 = Arc::clone(&q);
            sim.spawn("waiter", move |ctx| q2.wait(ctx));
            let q3 = Arc::clone(&q);
            sim.spawn("waker", move |ctx| {
                q3.wake_one(ctx);
            });
            sim
        };
        let config = ExploreConfig::new(1000);
        let (_, serial_stats) = config.run(scenario, |_, _| ());
        let serial_first = serial_stats.first_error.expect("some schedule deadlocks");
        for threads in [1, 2, 4, 8] {
            let (journal, stats) = config
                .clone()
                .threads(threads)
                .run(scenario, |_, result| result.is_ok());
            assert!(stats.complete, "failures must not cut the walk short");
            assert_eq!(stats.schedules, serial_stats.schedules);
            assert!(journal.iter().any(|r| !r.value), "failures are journaled");
            let first = stats.first_error.expect("failure is propagated");
            assert_eq!(first.choices, serial_first.choices);
            assert!(first.error.is_deadlock());
        }
    }

    /// One worker runs inline: `map` sees the caller's thread, with the
    /// worker count unset and with `threads(1)`.
    #[test]
    fn one_worker_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        for config in [ExploreConfig::new(100), ExploreConfig::new(100).threads(1)] {
            let (journal, stats) = config.run(three_emitters, |_, _| std::thread::current().id());
            assert!(stats.complete);
            assert!(journal.iter().all(|r| r.value == caller), "{config:?}");
        }
    }

    /// The replay-prefix check: builds that differ — here, only the first
    /// one spawns a third process — make a branch prefix unreplayable, and
    /// the worker refuses to go on.
    #[test]
    #[should_panic(expected = "scenario is nondeterministic")]
    fn nondeterministic_scenario_panics_at_one_worker() {
        let builds = AtomicUsize::new(0);
        ExploreConfig::new(100).run(
            || {
                let mut sim = Sim::new();
                let count = if builds.fetch_add(1, Ordering::Relaxed) == 0 {
                    3
                } else {
                    2
                };
                for i in 0..count {
                    sim.spawn(&format!("p{i}"), move |ctx| ctx.emit("go", &[i]));
                }
                sim
            },
            |_, _| (),
        );
    }
}
