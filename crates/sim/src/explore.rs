//! Bounded exhaustive schedule exploration.
//!
//! Every contested scheduling decision in a run is recorded as a
//! [`Decision`]. [`ExploreConfig::run`] walks the tree of such decisions:
//! it reruns the scenario with a [`crate::ReplayPolicy`] prefix, reads back
//! the full decision vector, and branches at every decision that still has
//! unexplored siblings. For scenarios with a few processes and a few
//! operations each, this *proves* properties over all interleavings —
//! which is exactly what Bloom's footnote-3 argument about the Figure-1
//! path-expression solution requires.
//!
//! One engine does the walking: the frontier worker of `parallel.rs`. One
//! worker, run inline on the caller's thread, visits the tree depth-first;
//! [`ExploreConfig::threads`] adds workers with byte-identical results.
//!
//! # The equivalence prune
//!
//! [`PruneMode::Revisit`] is the one reduction: race-driven *revisits*
//! (classical happens-before DPOR over the footprint log — see
//! [`crate::revisit`] and `DESIGN.md` §2.14). Each executed run carries a
//! log ([`crate::SimReport::quanta`]) of which objects every quantum read
//! or wrote, and a sibling branch is scheduled only when some executed run
//! detects a reversible race that dispatching it would reverse. Siblings
//! never requested are counted in [`ExploreStats::pruned`] without being
//! run. The explored set is a least fixed point of the per-run request
//! function, so every worker count executes the identical schedule set;
//! one worker drains the worklist least-prefix-first rather than
//! depth-first.
//!
//! The run-level `prune_safe` gate still applies: timers, faults, clock
//! reads and the starvation watchdog widen every footprint of the run to
//! the conservative one ([`crate::Quantum::is_all`]), so the race
//! analysis requests every sibling of such a run. Pruning is off by
//! default because exact schedule counts are themselves findings in this
//! repository's reports.

use crate::error::SimError;
use crate::fault::FaultPlan;
use crate::kernel::{ProcessStatus, SimReport};
use crate::parallel::{explore, ScheduleRecord};
use crate::sample::{SampleRecord, SampleStrategy, Sampler};
use crate::sim::Sim;
use crate::trace::Decision;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which reduction [`ExploreConfig::mode`] applies.
///
/// The reduction preserves the set of distinct user-event traces while
/// executing fewer schedules; [`ExploreStats::conflicts`] tallies the
/// races it found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneMode {
    /// Race-driven revisits (classical happens-before DPOR, `DESIGN.md`
    /// §2.14): a sibling is only ever *scheduled* when a detected race
    /// requests it. Not optimal: it can run more than one schedule per
    /// Mazurkiewicz class (`DESIGN.md` §2.14). One worker drains the
    /// worklist least-prefix-first, not depth-first (the executed *set*
    /// is the same at every worker count).
    Revisit,
}

/// The first failed schedule of an exploration, with enough context to
/// replay it: the full decision vector that produced the failure and the
/// failure itself (whose report carries the partial trace and metrics).
///
/// "First" is deterministic regardless of prune mode or worker count: it
/// is the failing schedule whose decision vector comes first in canonical
/// depth-first order — the order the journal is sorted in.
#[derive(Debug, Clone)]
pub struct ExploreError {
    /// The decision vector (one chosen index per contested decision) of
    /// the failing schedule; feed it to [`crate::ReplayPolicy::new`] to rerun it.
    pub choices: Vec<u32>,
    /// The failure.
    pub error: SimError,
}

/// Result summary of an exploration.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct ExploreStats {
    /// How many distinct schedules were executed.
    pub schedules: usize,
    /// Whether the entire schedule tree was covered (no budget cut-off).
    /// Pruned branches count as covered: their behaviors are represented.
    pub complete: bool,
    /// How many branches (whole subtrees, not schedules) the equivalence
    /// prune skipped: siblings of discovered decisions that no race and no
    /// symbolic value class requested. Always 0 unless pruning was
    /// enabled.
    pub pruned: usize,
    /// Schedule histogram by depth: `depth_schedules[d]` counts executed
    /// schedules whose decision vector had exactly `d` contested
    /// decisions. Sums to `schedules`.
    pub depth_schedules: Vec<usize>,
    /// Prune histogram by depth: `depth_pruned[d]` counts sibling branches
    /// skipped at decision index `d`. Sums to `pruned`.
    pub depth_pruned: Vec<usize>,
    /// Per-object race tally of the prune, keyed by the conflicting
    /// object's full name (`"*"` when both sides were conservative
    /// footprints, [`crate::Quantum::is_all`]): how many reversible races
    /// were detected
    /// on the object. Summed over every executed run; deterministic and
    /// identical across thread counts for complete explorations. Empty
    /// unless pruning was enabled. A hot object here is the object whose
    /// contention limits the reduction.
    pub conflicts: BTreeMap<String, u64>,
    /// [`PruneMode::Revisit`] only: total race-derived branch requests
    /// generated across all executed runs, *including* requests whose
    /// branch was already scheduled (each run's requests are a pure
    /// function of that run, so the sum is order-independent). Always
    /// 0 unpruned.
    pub revisit_requests: u64,
    /// [`PruneMode::Revisit`] only: how many requested branches were
    /// fresh and actually scheduled. Every executed schedule except the
    /// root is a granted revisit or a granted symbolic value request, so
    /// a complete revisit exploration has
    /// `schedules == revisits + sym_grants + 1`. Always 0 unpruned.
    pub revisits: u64,
    /// [`PruneMode::Revisit`] only: total value-sibling branch requests
    /// produced by the symbolic collapse over [`crate::Ctx::choose_value`]
    /// decisions, *including* requests whose branch was already scheduled
    /// (each run's requests are a pure function of that run). Value
    /// siblings in the same constraint class as an executed value are
    /// never requested — that is the collapse. Always 0 unpruned: the
    /// full tree enumerates every domain value concretely.
    pub sym_requests: u64,
    /// [`PruneMode::Revisit`] only: how many symbolic value requests were
    /// fresh and actually scheduled. Collapsed value siblings (discovered
    /// minus granted) are counted in [`ExploreStats::pruned`] at the
    /// decision's depth, next to the race-revisit tallies. Always 0
    /// unpruned.
    pub sym_grants: u64,
    /// The first failed schedule in canonical depth-first order, if any
    /// schedule failed. Exploration does not stop at a failure — the rest
    /// of the tree is still covered — but the canonical-first failure is
    /// kept for replay and is identical across worker counts.
    pub first_error: Option<ExploreError>,
    /// Bug-finding statistics when the schedules were *sampled* rather
    /// than enumerated ([`crate::Sampler`]); `None` for exhaustive
    /// exploration. A sampling run never proves absence — `complete` then
    /// means only "every requested iteration ran".
    pub sampling: Option<crate::sample::SampleStats>,
    /// Where the exploration's wall-clock time went, by phase, summed
    /// over workers. Non-authoritative: a measurement, never part of a
    /// journal, an export, the report or an equality check (its `Debug`
    /// prints no values). Zero for sampled runs.
    pub phases: PhaseTimes,
}

/// Wall-clock durations of an exhaustive exploration's phases, summed over
/// workers ([`ExploreStats::phases`]). Every run passes through the first
/// five in order, one clock read per boundary; `merge` is paid once.
///
/// Non-authoritative by design: two explorations of one tree explore the
/// same schedules in different times, so `Debug` prints no values and
/// nothing deterministic reads these fields.
#[derive(Clone, Copy, Default)]
#[non_exhaustive]
pub struct PhaseTimes {
    /// Claiming the next branch prefix and building its scenario.
    pub setup: Duration,
    /// Driving the run to its end ([`Sim::run`]).
    pub run: Duration,
    /// Race planning over the run's footprint log (revisit mode only).
    pub plan: Duration,
    /// Expansion: registering the run's discovered nodes, granting its
    /// requests and pushing fresh branches to the frontier.
    pub grant: Duration,
    /// The caller's map closure and the journal append.
    pub map: Duration,
    /// The final merge: sorting the journal and settling the histograms.
    pub merge: Duration,
}

impl PhaseTimes {
    /// Adds another worker's durations.
    pub(crate) fn add(&mut self, other: &PhaseTimes) {
        self.setup += other.setup;
        self.run += other.run;
        self.plan += other.plan;
        self.grant += other.grant;
        self.map += other.map;
        self.merge += other.merge;
    }
}

impl std::fmt::Debug for PhaseTimes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PhaseTimes { .. }")
    }
}

impl ExploreStats {
    /// Asserts the accounting invariants that hold pruned or not and at
    /// every worker count: the per-depth histograms are exact
    /// decompositions of their totals (no drift, no trailing empty
    /// buckets) and the revisit tallies are mutually consistent. The
    /// engine runs this under `debug_assertions` on every stats value it
    /// returns; tests call it directly on release builds.
    ///
    /// # Panics
    ///
    /// Panics if any tally has drifted from its histogram.
    pub fn assert_consistent(&self) {
        assert_eq!(
            self.depth_schedules.iter().sum::<usize>(),
            self.schedules,
            "depth_schedules must decompose schedules exactly"
        );
        assert_eq!(
            self.depth_pruned.iter().sum::<usize>(),
            self.pruned,
            "depth_pruned must decompose pruned exactly"
        );
        assert_ne!(
            self.depth_schedules.last(),
            Some(&0),
            "depth_schedules must not have trailing empty buckets"
        );
        assert_ne!(
            self.depth_pruned.last(),
            Some(&0),
            "depth_pruned must not have trailing empty buckets"
        );
        assert!(
            self.revisits <= self.revisit_requests,
            "every granted revisit was first requested ({} > {})",
            self.revisits,
            self.revisit_requests
        );
        assert!(
            self.sym_grants <= self.sym_requests,
            "every granted symbolic value was first requested ({} > {})",
            self.sym_grants,
            self.sym_requests
        );
        if (self.revisits > 0 || self.sym_grants > 0) && self.complete {
            assert_eq!(
                self.schedules,
                self.revisits as usize + self.sym_grants as usize + 1,
                "in revisit mode every non-root schedule is a granted revisit \
                 or a granted symbolic value"
            );
        }
    }
}

/// Adds `by` to `hist[depth]`, growing the histogram as needed.
pub(crate) fn bump_depth(hist: &mut Vec<usize>, depth: usize, by: usize) {
    if hist.len() <= depth {
        hist.resize(depth + 1, 0);
    }
    hist[depth] += by;
}

/// Elementwise-adds `src` into `dst` (histogram merge).
pub(crate) fn merge_depth(dst: &mut Vec<usize>, src: &[usize]) {
    for (depth, &by) in src.iter().enumerate() {
        if by > 0 {
            bump_depth(dst, depth, by);
        }
    }
}

/// Additively merges a per-object conflict tally into `dst`.
pub(crate) fn merge_conflicts(dst: &mut BTreeMap<String, u64>, src: &BTreeMap<String, u64>) {
    for (obj, &by) in src {
        *dst.entry(obj.clone()).or_insert(0) += by;
    }
}

/// Result summary of a kill-point sweep
/// ([`ExploreConfig::run_kill_points`]).
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct KillPointStats {
    /// Total schedules executed across all explored kill points.
    pub schedules: usize,
    /// Whether every explored kill point covered its whole tree.
    pub complete: bool,
    /// Total sibling branches skipped by the equivalence prune.
    pub pruned: usize,
    /// Per-kill-point counts, in sweep order. Points past the victim's
    /// maximum observed scheduling-point count are not explored (they can
    /// never fire), so this may be shorter than `max_points`.
    pub per_point: Vec<KillPointCount>,
    /// Schedule histogram by depth, merged across kill points (see
    /// [`ExploreStats::depth_schedules`]).
    pub depth_schedules: Vec<usize>,
    /// Prune histogram by depth, merged across kill points.
    pub depth_pruned: Vec<usize>,
    /// Per-object conflict tally, merged across kill points (see
    /// [`ExploreStats::conflicts`]).
    pub conflicts: BTreeMap<String, u64>,
    /// Race-derived branch requests, merged across kill points (see
    /// [`ExploreStats::revisit_requests`]).
    pub revisit_requests: u64,
    /// Granted revisits, merged across kill points (see
    /// [`ExploreStats::revisits`]).
    pub revisits: u64,
    /// Symbolic value requests, merged across kill points (see
    /// [`ExploreStats::sym_requests`]).
    pub sym_requests: u64,
    /// Granted symbolic values, merged across kill points (see
    /// [`ExploreStats::sym_grants`]).
    pub sym_grants: u64,
    /// The first failed schedule: the canonical-first failure of the
    /// earliest kill point that had one (points are swept in order, so
    /// this too is deterministic across worker counts).
    pub first_error: Option<ExploreError>,
}

impl KillPointStats {
    /// Asserts the accounting invariants of a kill-point sweep: the depth
    /// histograms decompose the totals and the per-point counts sum to
    /// the schedule total (see [`ExploreStats::assert_consistent`]).
    ///
    /// # Panics
    ///
    /// Panics if any tally has drifted from its histogram.
    pub fn assert_consistent(&self) {
        assert_eq!(
            self.depth_schedules.iter().sum::<usize>(),
            self.schedules,
            "depth_schedules must decompose schedules exactly"
        );
        assert_eq!(
            self.depth_pruned.iter().sum::<usize>(),
            self.pruned,
            "depth_pruned must decompose pruned exactly"
        );
        assert_eq!(
            self.per_point.iter().map(|p| p.schedules).sum::<usize>(),
            self.schedules,
            "per-point schedule counts must sum to the total"
        );
        assert!(
            self.per_point.iter().all(|p| p.kills <= p.schedules),
            "a kill fires at most once per schedule"
        );
        assert!(
            self.revisits <= self.revisit_requests,
            "every granted revisit was first requested"
        );
        assert!(
            self.sym_grants <= self.sym_requests,
            "every granted symbolic value was first requested"
        );
    }
}

/// Exploration counts for one kill point of a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillPointCount {
    /// The kill point (the victim's Nth scheduling point, 1-based).
    pub point: u64,
    /// Schedules executed with the kill armed at this point.
    pub schedules: usize,
    /// Schedules in which the kill actually fired (the victim died).
    pub kills: usize,
}

/// An optional progress callback, newtyped so the builders that hold one
/// can `#[derive(Debug)]` over *all* their fields instead of maintaining a
/// hand-written impl that silently goes stale when a field is added:
/// closures have no useful `Debug`, so this prints only whether a callback
/// is installed.
#[derive(Clone, Default)]
pub(crate) struct ProgressCallback(pub(crate) Option<Arc<dyn Fn(usize) + Send + Sync>>);

impl std::fmt::Debug for ProgressCallback {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() { "Some(..)" } else { "None" })
    }
}

/// The front door for exploration: one builder, one visitor signature,
/// three verbs.
///
/// Collects the knobs — budget, prune mode, worker count, progress
/// callback — once, then runs the campaign with [`ExploreConfig::run`]
/// (exhaustive), [`ExploreConfig::run_kill_points`] (exhaustive × fault
/// sweep), or [`ExploreConfig::sample`] (seeded sampling for trees too big
/// to enumerate). All three verbs share the `(setup, map)` shape: `setup`
/// builds a fresh [`Sim`] per run, `map` sees each run's decision vector
/// and outcome, and the journal of mapped values comes back sorted — so
/// results are identical whatever the worker count:
///
/// ```
/// use bloom_sim::{ExploreConfig, PruneMode};
/// let config = ExploreConfig::new(10_000).mode(PruneMode::Revisit);
/// let (one_worker, _) = config.run(
///     || {
///         let mut sim = bloom_sim::Sim::new();
///         sim.spawn("a", |ctx| ctx.emit("a", &[]));
///         sim.spawn("b", |ctx| ctx.emit("b", &[]));
///         sim
///     },
///     |decisions, _| decisions.len(),
/// );
/// let (four_workers, _) = config.clone().threads(4).run(
///     || {
///         let mut sim = bloom_sim::Sim::new();
///         sim.spawn("a", |ctx| ctx.emit("a", &[]));
///         sim.spawn("b", |ctx| ctx.emit("b", &[]));
///         sim
///     },
///     |decisions, _| decisions.len(),
/// );
/// assert_eq!(one_worker, four_workers);
/// ```
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    pub(crate) budget: usize,
    pub(crate) mode: Option<PruneMode>,
    pub(crate) threads: Option<usize>,
    pub(crate) progress_every: usize,
    pub(crate) progress: ProgressCallback,
}

impl ExploreConfig {
    /// Creates a configuration with the given schedule budget: unpruned,
    /// worker count unset, no progress callback.
    pub fn new(budget: usize) -> Self {
        ExploreConfig {
            budget,
            mode: None,
            threads: None,
            progress_every: 0,
            progress: ProgressCallback::default(),
        }
    }

    /// Selects a prune mode (see [`PruneMode`]). Unset, every schedule
    /// runs.
    pub fn mode(mut self, mode: PruneMode) -> Self {
        self.mode = Some(mode);
        self
    }

    /// Sets the worker count (min 1). Unset, [`ExploreConfig::run`] and
    /// [`ExploreConfig::run_kill_points`] run one worker inline on the
    /// caller's thread, and [`ExploreConfig::sample`] uses the sampler's
    /// per-core default. Results are identical for every count; this only
    /// tunes throughput.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Installs a progress callback fired at *virtual* milestones — once
    /// for every `every`-th schedule claimed from the budget, with the
    /// running claim count as argument — never on wall-clock time, so
    /// observing progress cannot perturb determinism. For an exhaustive
    /// exploration the set of milestones is a pure function of the tree;
    /// only the thread a callback runs on varies. `every == 0` disables
    /// the callback.
    pub fn progress<F>(mut self, every: usize, callback: F) -> Self
    where
        F: Fn(usize) + Send + Sync + 'static,
    {
        self.progress_every = every;
        self.progress = ProgressCallback(Some(Arc::new(callback)));
        self
    }

    /// Explores every schedule (up to the budget) and returns the journal
    /// of mapped values plus the campaign statistics.
    ///
    /// `setup` must build an identical simulation each time it is called
    /// (the engine overrides the policy). `map` is invoked once per
    /// executed schedule with the decision vector taken and the run
    /// outcome; with more than one worker, both run concurrently on worker
    /// threads. The journal is sorted by decision vector (canonical
    /// depth-first order), so it is identical across worker counts.
    ///
    /// A failed schedule (deadlock, panic, step-budget overrun) does not
    /// abort the exploration: the failure is still passed to `map`, the
    /// rest of the tree is covered, and the canonical-first failure is
    /// returned in [`ExploreStats::first_error`].
    ///
    /// # Panics
    ///
    /// Panics if `setup` produces runs whose decision structure is not a
    /// function of prior decisions (a nondeterministic scenario), which
    /// shows as a replay prefix mismatch. A panic in `setup` or `map`
    /// stops the exploration and propagates.
    pub fn run<S, M, T>(&self, setup: S, map: M) -> (Vec<ScheduleRecord<T>>, ExploreStats)
    where
        S: Fn() -> Sim + Sync,
        M: Fn(&[Decision], &Result<SimReport, SimError>) -> T + Sync,
        T: Send,
    {
        explore(self, &setup, &map)
    }

    /// Explores the (schedule × kill-point) space of a scenario: for each
    /// kill point `k` in `1..=max_points`, every schedule is run with
    /// `victim` killed at its `k`-th scheduling point. `map` additionally
    /// receives the kill point; the journal is sorted by
    /// `(point, decision vector)`.
    ///
    /// The sweep stops early once a kill point never fires in any
    /// schedule: the victim's scheduling-point count is then below `k` in
    /// every interleaving, and an armed-but-idle kill plan leaves the tree
    /// identical to the unfaulted one, so no later point can fire either.
    /// `max_points` may therefore be a loose upper bound at no cost. The
    /// schedule budget applies to each kill point separately; `schedules`
    /// in the returned stats is the total.
    pub fn run_kill_points<S, M, T>(
        &self,
        victim: &str,
        max_points: u64,
        setup: S,
        map: M,
    ) -> (Vec<(u64, ScheduleRecord<T>)>, KillPointStats)
    where
        S: Fn() -> Sim + Sync,
        M: Fn(u64, &[Decision], &Result<SimReport, SimError>) -> T + Sync,
        T: Send,
    {
        let mut journal = Vec::new();
        let mut stats = KillPointStats {
            complete: true,
            ..KillPointStats::default()
        };
        for point in 1..=max_points {
            let kills = AtomicUsize::new(0);
            let (point_journal, point_stats) = self.run(
                || {
                    let mut sim = setup();
                    sim.set_fault_plan(FaultPlan::new().kill(victim, point));
                    sim
                },
                |decisions, result| {
                    if victim_killed(victim, result) {
                        kills.fetch_add(1, Ordering::Relaxed);
                    }
                    map(point, decisions, result)
                },
            );
            let kills = kills.into_inner();
            stats.schedules += point_stats.schedules;
            stats.complete &= point_stats.complete;
            stats.pruned += point_stats.pruned;
            merge_depth(&mut stats.depth_schedules, &point_stats.depth_schedules);
            merge_depth(&mut stats.depth_pruned, &point_stats.depth_pruned);
            merge_conflicts(&mut stats.conflicts, &point_stats.conflicts);
            stats.revisit_requests += point_stats.revisit_requests;
            stats.revisits += point_stats.revisits;
            stats.sym_requests += point_stats.sym_requests;
            stats.sym_grants += point_stats.sym_grants;
            if stats.first_error.is_none() {
                stats.first_error = point_stats.first_error;
            }
            stats.per_point.push(KillPointCount {
                point,
                schedules: point_stats.schedules,
                kills,
            });
            journal.extend(point_journal.into_iter().map(|r| (point, r)));
            if kills == 0 && point_stats.complete {
                break; // the victim never reaches `point` scheduling points
            }
        }
        #[cfg(debug_assertions)]
        stats.assert_consistent();
        (journal, stats)
    }

    /// Samples `iterations` seeded schedules instead of enumerating (see
    /// [`crate::Sampler`]). The schedule budget and prune mode do not
    /// apply — `iterations` *is* the budget, and sampling proves nothing
    /// exhaustively — but the worker count does.
    ///
    /// Same visitor shape as [`ExploreConfig::run`], except `map` also
    /// returns the *law keys* the run violated (empty when clean), which
    /// feed [`ExploreStats::sampling`]. The journal is sorted by
    /// iteration index.
    pub fn sample<S, M, T>(
        &self,
        strategy: SampleStrategy,
        iterations: usize,
        seed: u64,
        setup: S,
        map: M,
    ) -> (Vec<SampleRecord<T>>, ExploreStats)
    where
        S: Fn() -> Sim + Sync,
        M: Fn(&[Decision], &Result<SimReport, SimError>) -> (T, Vec<String>) + Sync,
        T: Send,
    {
        let mut sampler = Sampler::walk(iterations, seed).strategy(strategy);
        if let Some(threads) = self.threads {
            sampler = sampler.threads(threads);
        }
        sampler.run(setup, map)
    }
}

/// Whether the named victim ended the run killed by the fault plan.
fn victim_killed(victim: &str, result: &Result<SimReport, SimError>) -> bool {
    let report = match result {
        Ok(report) => report,
        Err(err) => &err.report,
    };
    report
        .processes
        .iter()
        .any(|p| p.name == victim && p.status == ProcessStatus::Killed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::collections::BTreeSet;

    /// The ordered user-event labels of a run that cannot fail.
    fn labels(result: &Result<SimReport, SimError>) -> Vec<String> {
        let report = result.as_ref().expect("no failure possible");
        report
            .trace
            .user_events()
            .map(|(_, l, _)| l.to_string())
            .collect()
    }

    /// The set of distinct values in a journal.
    fn behaviors<T: Clone + Ord>(journal: &[ScheduleRecord<T>]) -> BTreeSet<T> {
        journal.iter().map(|r| r.value.clone()).collect()
    }

    /// Two processes emitting one event each: exactly 2 interleavings at the
    /// first decision point... but yields create more decision points, so we
    /// just check that both orders are observed and exploration terminates.
    #[test]
    fn explores_both_orders_of_two_processes() {
        let (journal, stats) = ExploreConfig::new(1000).run(
            || {
                let mut sim = Sim::new();
                sim.spawn("a", |ctx| ctx.emit("a", &[]));
                sim.spawn("b", |ctx| ctx.emit("b", &[]));
                sim
            },
            |_, result| labels(result),
        );
        assert!(stats.complete, "tiny scenario must be fully explored");
        let seen = behaviors(&journal);
        assert!(seen.contains(&vec!["a".to_string(), "b".to_string()]));
        assert!(seen.contains(&vec!["b".to_string(), "a".to_string()]));
    }

    /// Exploration must cover n! orderings of n independent one-shot
    /// processes (each schedule is one permutation).
    #[test]
    fn covers_all_permutations_of_three() {
        let (journal, stats) = ExploreConfig::new(10_000).run(
            || {
                let mut sim = Sim::new();
                for i in 0..3 {
                    sim.spawn(&format!("p{i}"), move |ctx| ctx.emit("go", &[i]));
                }
                sim
            },
            |_, result| {
                let Ok(report) = result else {
                    return Vec::new();
                };
                report
                    .trace
                    .user_events()
                    .map(|(_, _, params)| params[0])
                    .collect::<Vec<i64>>()
            },
        );
        assert!(stats.complete);
        assert_eq!(behaviors(&journal).len(), 6, "3! = 6 distinct orders");
    }

    /// The depth histograms are exact decompositions of the totals.
    #[test]
    fn depth_histograms_sum_to_totals() {
        let (_, stats) = ExploreConfig::new(10_000).run(
            || {
                let mut sim = Sim::new();
                for i in 0..3 {
                    sim.spawn(&format!("p{i}"), move |ctx| ctx.emit("go", &[i]));
                }
                sim
            },
            |_, _| (),
        );
        assert_eq!(stats.depth_schedules.iter().sum::<usize>(), stats.schedules);
        assert_eq!(stats.depth_pruned.iter().sum::<usize>(), stats.pruned);
        assert!(
            stats.depth_schedules.last().copied().unwrap_or(0) > 0,
            "histogram must not have trailing empty buckets"
        );
    }

    /// A schedule-dependent deadlock (wake-before-wait loses the wakeup)
    /// must not abort exploration: the whole tree is still covered, both
    /// outcomes are visited, and the canonical-first failing decision
    /// vector is reported in `first_error`.
    #[test]
    fn failed_schedules_are_reported_not_fatal() {
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
        let (outcomes, stats) = ExploreConfig::new(1000).run(scenario, |_, result| result.is_ok());
        assert!(stats.complete, "a failure must not cut the walk short");
        assert!(outcomes.iter().any(|r| r.value), "some schedule succeeds");
        assert!(outcomes.iter().any(|r| !r.value), "some schedule deadlocks");
        let first = stats.first_error.as_ref().expect("failure is propagated");
        assert!(first.error.is_deadlock());
        let canonical_first_failure = outcomes.iter().find(|r| !r.value).unwrap();
        assert_eq!(
            first.choices, canonical_first_failure.choices,
            "first error is the first failure in depth-first order"
        );
    }

    #[test]
    fn budget_cutoff_reports_incomplete() {
        let (_, stats) = ExploreConfig::new(2).run(
            || {
                let mut sim = Sim::new();
                for i in 0..4 {
                    sim.spawn(&format!("p{i}"), move |ctx| ctx.emit("go", &[i]));
                }
                sim
            },
            |_, _| (),
        );
        assert_eq!(stats.schedules, 2);
        assert!(!stats.complete);
    }

    /// Regression: a budget of exactly the tree size must still prove
    /// completeness — an empty frontier is checked before the budget. Two
    /// one-emit processes have exactly 2 schedules.
    #[test]
    fn exact_budget_still_reports_complete() {
        let (_, stats) = ExploreConfig::new(2).run(
            || {
                let mut sim = Sim::new();
                sim.spawn("a", |ctx| ctx.emit("a", &[]));
                sim.spawn("b", |ctx| ctx.emit("b", &[]));
                sim
            },
            |_, _| (),
        );
        assert_eq!(stats.schedules, 2);
        assert!(
            stats.complete,
            "budget == tree size must report complete: true"
        );
    }

    /// Bare yields between emits touch nothing, so they race with nothing;
    /// the pruned exploration must visit strictly fewer schedules but the
    /// identical set of user-event traces.
    #[test]
    fn pruning_preserves_observable_behaviors() {
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
                ctx.yield_now();
                ctx.emit("b2", &[]);
            });
            sim
        };
        let config = ExploreConfig::new(100_000);
        let (full_journal, full) = config.run(scenario, |_, result| labels(result));
        let (pruned_journal, pruned) = config
            .clone()
            .mode(PruneMode::Revisit)
            .run(scenario, |_, result| labels(result));
        assert!(full.complete && pruned.complete);
        assert_eq!(full.pruned, 0);
        assert!(pruned.pruned > 0, "the stutter yields must prune something");
        assert!(
            pruned.schedules < full.schedules,
            "pruning must cut schedules: {} vs {}",
            pruned.schedules,
            full.schedules
        );
        assert_eq!(
            behaviors(&pruned_journal),
            behaviors(&full_journal),
            "pruning must preserve the set of observable behaviors"
        );
    }

    /// Two processes working disjoint objects: every quantum is a real
    /// synchronization operation, and only the object-granular footprints
    /// show that the processes commute.
    #[test]
    fn revisit_prunes_disjoint_objects() {
        let scenario = || {
            let mut sim = Sim::new();
            let qa = Arc::new(crate::waitq::WaitQueue::new("qa"));
            let qb = Arc::new(crate::waitq::WaitQueue::new("qb"));
            sim.spawn("a", move |ctx| {
                qa.wake_one(ctx);
                ctx.yield_now();
                qa.wake_one(ctx);
            });
            sim.spawn("b", move |ctx| {
                qb.wake_one(ctx);
                ctx.yield_now();
                qb.wake_one(ctx);
            });
            sim
        };
        let config = ExploreConfig::new(100_000);
        let (_, full) = config.run(scenario, |_, _| ());
        let (_, pruned) = config
            .clone()
            .mode(PruneMode::Revisit)
            .run(scenario, |_, _| ());
        assert!(full.complete && pruned.complete);
        assert_eq!(full.pruned, 0);
        assert!(
            pruned.schedules < full.schedules,
            "disjoint footprints must prune: {} vs {}",
            pruned.schedules,
            full.schedules
        );
        assert!(pruned.pruned > 0, "unrequested siblings must be counted");
    }

    /// Pruning with observable events: the per-process events conflict on
    /// the trace object, so event orderings are preserved while the
    /// disjoint queue operations commute away.
    #[test]
    fn disjoint_work_prune_preserves_observable_behaviors() {
        let scenario = || {
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
        };
        let config = ExploreConfig::new(100_000);
        let (full_journal, full) = config.run(scenario, |_, result| labels(result));
        let (pruned_journal, pruned) = config
            .clone()
            .mode(PruneMode::Revisit)
            .run(scenario, |_, result| labels(result));
        assert!(full.complete && pruned.complete);
        let full_traces = behaviors(&full_journal);
        assert!(
            full_traces.contains(&vec!["a".to_string(), "b".to_string()])
                && full_traces.contains(&vec!["b".to_string(), "a".to_string()]),
            "both event orders are real behaviors"
        );
        assert_eq!(
            behaviors(&pruned_journal),
            full_traces,
            "the prune must preserve the set of observable behaviors"
        );
        assert!(
            pruned.schedules < full.schedules,
            "the prune must cut schedules: {} vs {}",
            pruned.schedules,
            full.schedules
        );
    }

    /// The race tally names the contended object: two writers of one
    /// queue race exactly there.
    #[test]
    fn conflicts_tally_names_the_contended_object() {
        let scenario = || {
            let mut sim = Sim::new();
            let q = Arc::new(crate::waitq::WaitQueue::new("gate"));
            let q2 = Arc::clone(&q);
            sim.spawn("a", move |ctx| {
                q2.wake_one(ctx);
            });
            let q3 = Arc::clone(&q);
            sim.spawn("b", move |ctx| {
                q3.wake_one(ctx);
            });
            sim
        };
        let config = ExploreConfig::new(1000);
        let (_, stats) = config
            .clone()
            .mode(PruneMode::Revisit)
            .run(scenario, |_, _| ());
        assert!(stats.complete);
        assert!(
            stats.conflicts.get("queue:gate").copied().unwrap_or(0) > 0,
            "the contended queue must appear in the tally: {:?}",
            stats.conflicts
        );
        let (_, unpruned) = config.run(scenario, |_, _| ());
        assert!(unpruned.conflicts.is_empty(), "tally requires pruning");
    }

    /// One `ExploreConfig` drives both ways of running the engine — one
    /// inline worker and a pool of workers — with the same knobs; the
    /// inline worker's progress milestones fire every `every` schedules.
    #[test]
    fn explore_config_builds_both_strategies() {
        let three = || {
            let mut sim = Sim::new();
            for i in 0..3 {
                sim.spawn(&format!("p{i}"), move |ctx| ctx.emit("go", &[i]));
            }
            sim
        };
        let ticks = Arc::new(Mutex::new(Vec::new()));
        let ticks2 = Arc::clone(&ticks);
        let config = ExploreConfig::new(10_000)
            .mode(PruneMode::Revisit)
            .progress(2, move |n| ticks2.lock().push(n));
        let (_, inline) = config.run(three, |_, _| ());
        let inline_ticks = std::mem::take(&mut *ticks.lock());
        assert_eq!(
            inline_ticks,
            (1..=inline.schedules / 2)
                .map(|i| i * 2)
                .collect::<Vec<_>>(),
            "inline milestones fire every 2 schedules, in order"
        );
        let (_, pooled) = config.threads(2).run(three, |_, _| ());
        assert_eq!(pooled.schedules, inline.schedules);
        assert_eq!(pooled.pruned, inline.pruned);
        assert_eq!(pooled.conflicts, inline.conflicts);
        assert_eq!(pooled.depth_schedules, inline.depth_schedules);
    }

    /// A scenario with both real conflicts (a shared queue) and commuting
    /// work (disjoint queues, pure stutters) for the revisit tests.
    fn mixed_conflict_scenario() -> Sim {
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

    /// The revisit mode observes exactly the behaviors of the full
    /// exploration, in fewer schedules, and its accounting invariant
    /// holds: every schedule past the canonical root run is a granted
    /// revisit.
    #[test]
    fn revisit_preserves_behaviors_and_accounts_every_schedule() {
        let traces = |config: ExploreConfig| {
            let (journal, stats) = config.run(mixed_conflict_scenario, |_, result| labels(result));
            assert!(stats.complete);
            (behaviors(&journal), stats)
        };
        let config = ExploreConfig::new(100_000);
        let (full_traces, full) = traces(config.clone());
        let (revisit_traces, revisit) = traces(config.mode(PruneMode::Revisit));
        assert_eq!(
            revisit_traces, full_traces,
            "revisit mode must preserve the set of observable behaviors"
        );
        assert!(
            revisit.schedules < full.schedules,
            "the commuting work must prune something"
        );
        assert!(revisit.revisits > 0, "the shared queue must force revisits");
        assert_eq!(
            revisit.schedules,
            revisit.revisits as usize + 1,
            "every schedule past the root run is a granted revisit"
        );
        assert!(revisit.revisits <= revisit.revisit_requests);
        assert!(
            revisit.conflicts.contains_key("queue:shared"),
            "the race tally must name the contended queue: {:?}",
            revisit.conflicts
        );
        revisit.assert_consistent();
    }

    /// Revisit mode composes with the kill-point sweep: the sweep stops at
    /// the same point as the unpruned one, fires the same points, and its
    /// merged accounting stays consistent. (Fault-injected runs are not
    /// prune-safe, so their race analysis degrades to exhaustive sibling
    /// requests — coverage, not optimality, is what is promised here.)
    #[test]
    fn revisit_kill_point_sweep_fires_the_same_points() {
        let scenario = || {
            let mut sim = Sim::new();
            let q = Arc::new(crate::waitq::WaitQueue::new("gate"));
            let q2 = Arc::clone(&q);
            sim.spawn("victim", move |ctx| {
                q2.wake_one(ctx);
                ctx.yield_now();
                ctx.emit("done", &[]);
            });
            let q3 = Arc::clone(&q);
            sim.spawn("peer", move |ctx| {
                q3.wake_one(ctx);
            });
            sim
        };
        let sweep = |config: ExploreConfig| {
            config
                .run_kill_points("victim", 8, scenario, |_, _, _| ())
                .1
        };
        let full = sweep(ExploreConfig::new(10_000));
        let revisit = sweep(ExploreConfig::new(10_000).mode(PruneMode::Revisit));
        assert!(full.complete && revisit.complete);
        revisit.assert_consistent();
        let fired = |stats: &KillPointStats| {
            stats
                .per_point
                .iter()
                .map(|p| (p.point, p.kills > 0))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            fired(&revisit),
            fired(&full),
            "revisit must observe the same set of live kill points"
        );
    }

    /// A data choice raced against a peer: revisit mode collapses the
    /// `{2,3}` constraint class, so the symbolic tree is strictly smaller
    /// than concrete enumeration.
    fn chooser_scenario() -> Sim {
        let mut sim = Sim::new();
        sim.spawn("chooser", |ctx| {
            ctx.yield_now();
            let v = ctx.choose_value("n", 1..=3);
            if v.gt(1) {
                ctx.emit("big", &[]);
            }
        });
        sim.spawn("peer", |ctx| {
            ctx.yield_now();
            ctx.emit("peer", &[]);
        });
        sim
    }

    /// The unified verbs return byte-identical journals and statistics
    /// however the engine runs — one inline worker or a pool of 1, 2 or 4
    /// — including symbolic data decisions.
    #[test]
    fn unified_run_is_engine_independent() {
        let vector = |d: &[Decision]| d.iter().map(|x| x.chosen).collect::<Vec<u32>>();
        let config = ExploreConfig::new(100_000).mode(PruneMode::Revisit);
        let (reference, ref_stats) = config.run(chooser_scenario, |d, _| vector(d));
        assert!(ref_stats.complete);
        assert!(
            ref_stats.sym_grants > 0,
            "the guarded branch must grant value siblings"
        );
        assert!(
            ref_stats.pruned > 0,
            "the {{2,3}} class must collapse to one representative"
        );
        for threads in [1, 2, 4] {
            let (journal, stats) = config
                .clone()
                .threads(threads)
                .run(chooser_scenario, |d, _| vector(d));
            assert_eq!(journal, reference, "journal at {threads} workers");
            assert_eq!(stats.schedules, ref_stats.schedules);
            assert_eq!(stats.depth_schedules, ref_stats.depth_schedules);
            assert_eq!(stats.depth_pruned, ref_stats.depth_pruned);
            assert_eq!(stats.sym_requests, ref_stats.sym_requests);
            assert_eq!(stats.sym_grants, ref_stats.sym_grants);
            assert_eq!(stats.revisits, ref_stats.revisits);
        }
    }

    /// The unified kill-point sweep agrees across worker counts too.
    #[test]
    fn unified_kill_points_are_engine_independent() {
        let scenario = || {
            let mut sim = Sim::new();
            sim.spawn("victim", |ctx| {
                ctx.yield_now();
                ctx.emit("done", &[]);
            });
            sim.spawn("peer", |ctx| ctx.emit("peer", &[]));
            sim
        };
        let config = ExploreConfig::new(10_000).mode(PruneMode::Revisit);
        let (reference, ref_stats) =
            config.run_kill_points("victim", 4, scenario, |point, d, _| (point, d.len()));
        let (journal, stats) =
            config
                .clone()
                .threads(2)
                .run_kill_points("victim", 4, scenario, |point, d, _| (point, d.len()));
        assert_eq!(journal, reference);
        assert_eq!(stats.schedules, ref_stats.schedules);
        assert_eq!(stats.per_point, ref_stats.per_point);
    }

    /// The sampling verb drives the sampler through the same config.
    #[test]
    fn unified_sample_smoke() {
        let (journal, stats) = ExploreConfig::new(0).threads(2).sample(
            crate::sample::SampleStrategy::Walk,
            12,
            7,
            chooser_scenario,
            |_, result| (result.is_ok(), Vec::new()),
        );
        assert_eq!(journal.len(), 12);
        let sampling = stats.sampling.expect("sampler stats present");
        assert_eq!(sampling.runs, 12);
        assert!(journal.iter().all(|r| r.value));
    }
}
