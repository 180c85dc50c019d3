//! Seeded schedule *sampling* for trees too big to enumerate.
//!
//! [`crate::ExploreConfig::run`] proves properties by visiting every
//! schedule; past a few processes the tree is astronomically larger than
//! any budget, and exhaustive walks stop meaning anything. [`Sampler`] is
//! the third exploration mode: draw schedules at random — but *seeded*
//! random, so every run is a pure function of `(scenario, seed)` — and
//! search for counterexamples to declared laws instead of proving their
//! absence. A sampling run that finds nothing proves nothing; what it
//! finds, however, arrives as a concrete decision vector that replays
//! exactly, shrinks to a minimal prefix, and can be handed to the strict
//! [`ReplayPolicy`] forever after.
//!
//! Two strategies:
//!
//! * [`SampleStrategy::Pct`] — probabilistic concurrency testing: each
//!   iteration assigns every process a random high priority, always runs
//!   the highest-priority runnable process, and at `change_points`
//!   pre-sampled decision depths demotes the running process below all
//!   others. PCT's guarantee is that a bug of depth *d* is found with
//!   probability ≥ 1/(n·k^(d-1)) per iteration — the change points are
//!   exactly where the sampler "spends" its depth budget, so the
//!   per-change-depth histogram ([`SampleStats::change_depths`]) shows
//!   where the budget went.
//! * [`SampleStrategy::Walk`] — swarm of independent random walks: each
//!   iteration runs under [`RandomPolicy`] with a per-iteration seed
//!   derived from the master seed. No structure, maximal diversity; the
//!   swarm complements PCT the way fuzzing complements directed search.
//!
//! Iterations are independent, so the sampler runs them on a pool of
//! worker threads that claim iteration indices from an atomic counter.
//! Every per-iteration quantity (policy seed, schedule, journal entry,
//! violation keys) is a function of the iteration index alone, and the
//! merged journal is sorted by that index — results are byte-identical
//! for every worker count, exactly like the exploration engine's.
//!
//! Each claimed iteration executes its processes on the shared host pool
//! (DESIGN.md §2.13): `setup()` builds the [`Sim`] with the default
//! `reuse_hosts: true`, so every PCT/walk run borrows pooled host
//! threads instead of spawning one OS thread per process per iteration —
//! the same hot path the explorers use. Thread identity is unobservable
//! to the simulation, so the journals are unchanged.
//!
//! # Replay is load-bearing
//!
//! Every sampled schedule is replayable through the existing
//! decision-vector machinery: the run's [`Decision`] list fed to
//! [`ReplayPolicy::new`] reproduces it event-for-event. Unlike the
//! explorers' `debug_assert`, the sampler-side replay helpers
//! ([`replay_exact`], [`shrink_prefix`]) treat divergence as a **hard
//! error**: a counterexample that does not replay is a corrupted or stale
//! vector, and silently clamping it would report a bug that nobody can
//! ever look at. See `DESIGN.md` §2.11 for the contract.

use crate::error::SimError;
use crate::explore::{bump_depth, ExploreError, ExploreStats};
use crate::kernel::SimReport;
use crate::policy::{RandomPolicy, ReplayPolicy, SchedPolicy, SplitMix64};
use crate::sim::Sim;
use crate::trace::Decision;
use crate::types::Pid;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// How one [`Sampler`] iteration picks its schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleStrategy {
    /// Probabilistic concurrency testing: random priorities plus
    /// `change_points` priority demotions at depths sampled uniformly
    /// below `depth_hint` (an estimate of the run's contested-decision
    /// count; depths past the actual run length simply never fire).
    Pct {
        /// Priority-change points per iteration (PCT's *d − 1*).
        change_points: usize,
        /// Upper bound for sampled change depths.
        depth_hint: usize,
    },
    /// Independent seeded random walks ([`RandomPolicy`] per iteration).
    Walk,
}

/// PCT scheduling policy for one iteration (see the module docs).
///
/// Priorities are lazily assigned from the iteration's own seeded stream
/// the first time a process appears in a contested ready set — encounter
/// order is deterministic, so the whole run is. All initial priorities
/// have the top bit set; change points demote to `1, 2, …`, so a demoted
/// process ranks below every undemoted one, and earlier demotions rank
/// below later ones (the PCT ordering).
pub struct PctPolicy {
    rng: SplitMix64,
    priorities: BTreeMap<Pid, u64>,
    /// Sorted, deduplicated contested-decision depths at which to demote.
    change_at: Vec<usize>,
    next_change: usize,
    decisions: usize,
    demotions: u64,
    /// Shared per-depth histogram of fired change points (merged across
    /// a sampler's iterations; elementwise adds commute, so the merged
    /// histogram is independent of worker scheduling).
    fired: Arc<Mutex<Vec<usize>>>,
    name: String,
}

impl PctPolicy {
    /// Creates a PCT policy with its own seed and change-point budget,
    /// folding fired change depths into `fired`.
    pub fn new(
        seed: u64,
        change_points: usize,
        depth_hint: usize,
        fired: Arc<Mutex<Vec<usize>>>,
    ) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut change_at: Vec<usize> = (0..change_points)
            .map(|_| rng.next_below(depth_hint.max(1) as u64) as usize)
            .collect();
        change_at.sort_unstable();
        change_at.dedup();
        PctPolicy {
            rng,
            priorities: BTreeMap::new(),
            change_at,
            next_change: 0,
            decisions: 0,
            demotions: 0,
            fired,
            name: format!("pct(seed={seed},d={change_points})"),
        }
    }
}

impl SchedPolicy for PctPolicy {
    fn choose(&mut self, ready: &[Pid], _step: u64) -> usize {
        if ready.len() <= 1 {
            return 0;
        }
        let depth = self.decisions;
        self.decisions += 1;
        let mut best = 0usize;
        let mut best_priority = 0u64;
        for (i, pid) in ready.iter().enumerate() {
            let rng = &mut self.rng;
            let priority = *self
                .priorities
                .entry(*pid)
                .or_insert_with(|| rng.next_u64() | (1 << 63));
            if i == 0 || priority > best_priority {
                best = i;
                best_priority = priority;
            }
        }
        if self
            .change_at
            .get(self.next_change)
            .is_some_and(|&at| at == depth)
        {
            self.next_change += 1;
            self.demotions += 1;
            self.priorities.insert(ready[best], self.demotions);
            let mut fired = self.fired.lock();
            if fired.len() <= depth {
                fired.resize(depth + 1, 0);
            }
            fired[depth] += 1;
        }
        best
    }

    fn choose_data(&mut self, arity: u32, _step: u64) -> u32 {
        // Data decisions ([`crate::Ctx::choose_value`]) draw uniformly
        // from the iteration's own stream — the same source as the
        // priorities, so the whole run stays a pure function of the
        // iteration seed. Demotion depths count contested *scheduler*
        // decisions only, exactly like the explorers' revisit plan.
        if arity <= 1 {
            return 0;
        }
        self.rng.next_below(arity as u64) as u32
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// One sampled schedule's entry in the merged journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleRecord<T> {
    /// The iteration that produced this schedule (the journal is sorted
    /// by it, which is what makes the merge worker-count-independent).
    pub iteration: u64,
    /// The schedule's full decision vector (its replay coordinates).
    pub choices: Vec<u32>,
    /// Whatever the map closure produced for this schedule.
    pub value: T,
}

/// Bug-finding statistics of one sampling campaign, folded into
/// [`ExploreStats::sampling`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SampleStats {
    /// Iterations executed (equals [`ExploreStats::schedules`]).
    pub runs: usize,
    /// Violating runs per law key: how many sampled schedules violated
    /// each law at least once. `violations.len()` is the number of
    /// *distinct* violations found.
    pub violations: BTreeMap<String, u64>,
    /// First-hit iteration per law key (the lowest iteration index whose
    /// run violated the law).
    pub first_hits: BTreeMap<String, u64>,
    /// Per-depth histogram of fired PCT priority-change points:
    /// `change_depths[d]` counts demotions at contested decision `d`
    /// across all iterations. Empty for [`SampleStrategy::Walk`].
    pub change_depths: Vec<usize>,
}

impl SampleStats {
    /// Number of distinct law keys violated.
    pub fn distinct_violations(&self) -> usize {
        self.violations.len()
    }

    /// The earliest iteration that violated any law, if any did.
    pub fn first_hit(&self) -> Option<u64> {
        self.first_hits.values().copied().min()
    }

    /// Violating-run fraction for one law key.
    pub fn rate(&self, key: &str) -> f64 {
        if self.runs == 0 {
            return 0.0;
        }
        self.violations.get(key).copied().unwrap_or(0) as f64 / self.runs as f64
    }
}

/// Seeded schedule sampler: the exploration mode beside the exhaustive
/// engine of [`crate::ExploreConfig::run`] (see the module docs).
#[derive(Debug, Clone)]
pub struct Sampler {
    iterations: usize,
    seed: u64,
    strategy: SampleStrategy,
    threads: usize,
}

impl Sampler {
    /// Creates a PCT sampler with the default budget (3 change points,
    /// depth hint 1024) and one worker per available core (capped at 8).
    pub fn pct(iterations: usize, seed: u64) -> Self {
        Sampler {
            iterations,
            seed,
            strategy: SampleStrategy::Pct {
                change_points: 3,
                depth_hint: 1024,
            },
            threads: default_threads(),
        }
    }

    /// Creates a swarm/random-walk sampler.
    pub fn walk(iterations: usize, seed: u64) -> Self {
        Sampler {
            iterations,
            seed,
            strategy: SampleStrategy::Walk,
            threads: default_threads(),
        }
    }

    /// Overrides the strategy wholesale.
    pub fn strategy(mut self, strategy: SampleStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the PCT change-point budget (no effect on a walk sampler).
    pub fn change_points(mut self, change_points: usize) -> Self {
        if let SampleStrategy::Pct {
            depth_hint: hint, ..
        } = self.strategy
        {
            self.strategy = SampleStrategy::Pct {
                change_points,
                depth_hint: hint,
            };
        }
        self
    }

    /// Sets the PCT depth hint (no effect on a walk sampler).
    pub fn depth_hint(mut self, depth_hint: usize) -> Self {
        if let SampleStrategy::Pct { change_points, .. } = self.strategy {
            self.strategy = SampleStrategy::Pct {
                change_points,
                depth_hint,
            };
        }
        self
    }

    /// Sets the worker count (min 1). Results are identical for every
    /// worker count; this only tunes throughput.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The policy seed iteration `i` runs under: a SplitMix64-mixed
    /// function of the master seed and the index, so iterations are
    /// independent streams yet the whole campaign is one seed.
    pub fn iteration_seed(&self, iteration: u64) -> u64 {
        SplitMix64::new(
            self.seed
                .wrapping_add(iteration.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        )
        .next_u64()
    }

    /// Samples `iterations` schedules of the scenario produced by `setup`.
    ///
    /// `map` is invoked once per run with the decision vector taken and
    /// the outcome; it returns the journal value plus the *law keys* this
    /// run violated (empty when clean — see `bloom-core`'s law layer for
    /// the canonical producer). Violation keys feed the bug-finding
    /// statistics in [`ExploreStats::sampling`].
    ///
    /// Returns the journal sorted by iteration index together with the
    /// stats. `first_error` is the failing run with the lowest iteration
    /// index. Both are byte-identical across worker counts.
    pub fn run<S, M, T>(&self, setup: S, map: M) -> (Vec<SampleRecord<T>>, ExploreStats)
    where
        S: Fn() -> Sim + Sync,
        M: Fn(&[Decision], &Result<SimReport, SimError>) -> (T, Vec<String>) + Sync,
        T: Send,
    {
        let next = AtomicUsize::new(0);
        let fired: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let violations: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());
        let first_hits: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());
        let first_error: Mutex<Option<(u64, ExploreError)>> = Mutex::new(None);
        let journals: Mutex<Vec<Vec<SampleRecord<T>>>> = Mutex::new(Vec::new());

        std::thread::scope(|scope| {
            for _ in 0..self.threads {
                scope.spawn(|| {
                    let mut journal = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= self.iterations {
                            break;
                        }
                        let iteration = i as u64;
                        let mut sim = setup();
                        let iter_seed = self.iteration_seed(iteration);
                        match self.strategy {
                            SampleStrategy::Pct {
                                change_points,
                                depth_hint,
                            } => {
                                sim.set_policy(PctPolicy::new(
                                    iter_seed,
                                    change_points,
                                    depth_hint,
                                    Arc::clone(&fired),
                                ));
                            }
                            SampleStrategy::Walk => {
                                sim.set_policy(RandomPolicy::new(iter_seed));
                            }
                        }
                        let result = sim.run();
                        let decisions: &[Decision] = match &result {
                            Ok(report) => &report.decisions,
                            Err(err) => &err.report.decisions,
                        };
                        let (value, keys) = map(decisions, &result);
                        if !keys.is_empty() {
                            let mut v = violations.lock();
                            let mut f = first_hits.lock();
                            for key in &keys {
                                *v.entry(key.clone()).or_insert(0) += 1;
                                f.entry(key.clone())
                                    .and_modify(|first| *first = (*first).min(iteration))
                                    .or_insert(iteration);
                            }
                        }
                        if let Err(err) = &result {
                            let candidate = ExploreError {
                                choices: decisions.iter().map(|d| d.chosen).collect(),
                                error: err.clone(),
                            };
                            let mut slot = first_error.lock();
                            match &*slot {
                                Some((first, _)) if *first <= iteration => {}
                                _ => *slot = Some((iteration, candidate)),
                            }
                        }
                        journal.push(SampleRecord {
                            iteration,
                            choices: decisions.iter().map(|d| d.chosen).collect(),
                            value,
                        });
                    }
                    journals.lock().push(journal);
                });
            }
        });

        let mut journal: Vec<SampleRecord<T>> =
            journals.into_inner().into_iter().flatten().collect();
        journal.sort_unstable_by_key(|r| r.iteration);
        let mut depth_schedules = Vec::new();
        for r in &journal {
            bump_depth(&mut depth_schedules, r.choices.len(), 1);
        }
        let sampling = SampleStats {
            runs: journal.len(),
            violations: violations.into_inner(),
            first_hits: first_hits.into_inner(),
            change_depths: Arc::try_unwrap(fired).expect("workers joined").into_inner(),
        };
        let stats = ExploreStats {
            schedules: journal.len(),
            complete: true, // every requested iteration ran; nothing is "covered"
            depth_schedules,
            first_error: first_error.into_inner().map(|(_, e)| e),
            sampling: Some(sampling),
            ..ExploreStats::default()
        };
        (journal, stats)
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Replays a sampled decision vector **strictly** and returns the run.
///
/// Divergence — a clamped entry or a script underrun — is a **hard
/// error** (panic), not a silent fallback: a sampler counterexample that
/// no longer matches its tree is stale or corrupted, and a clamped
/// "replay" of it would exhibit some other schedule entirely. This is the
/// sampler-side mirror of the explorers' nondeterminism `debug_assert`,
/// promoted to a release-mode check because sampled vectors cross API
/// boundaries (reports, shrunk counterexamples, archived repros) where a
/// debug assert would never fire.
pub fn replay_exact(setup: impl FnOnce() -> Sim, choices: &[u32]) -> Result<SimReport, SimError> {
    let mut sim = setup();
    sim.set_policy(ReplayPolicy::new(choices.to_vec()));
    let result = sim.run();
    let metrics = match &result {
        Ok(report) => &report.metrics,
        Err(err) => &err.report.metrics,
    };
    assert!(
        !metrics.replay.diverged(),
        "sampled decision vector diverged on strict re-run ({:?}): the vector is stale \
         or the scenario is nondeterministic",
        metrics.replay
    );
    result
}

/// Replays a decision-vector *prefix* (canonical choice 0 past it) with
/// the same hard-error contract as [`replay_exact`]: clamping — the only
/// divergence a prefix replay can exhibit — panics instead of silently
/// rerouting the schedule.
pub fn replay_prefix(setup: impl FnOnce() -> Sim, prefix: &[u32]) -> Result<SimReport, SimError> {
    let mut sim = setup();
    sim.set_policy(ReplayPolicy::prefix(prefix.to_vec()));
    let result = sim.run();
    let metrics = match &result {
        Ok(report) => &report.metrics,
        Err(err) => &err.report.metrics,
    };
    assert!(
        !metrics.replay.diverged(),
        "decision-vector prefix diverged on re-run ({:?}): the vector is stale or the \
         scenario is nondeterministic",
        metrics.replay
    );
    result
}

/// Shrinks a sampled counterexample to a minimal decision-vector prefix.
///
/// `fails` is the oracle: it must return `true` for the outcome of the
/// full vector (asserted), and the shrinker searches for the shortest
/// prefix whose replay (canonical choice 0 past the prefix, via
/// [`replay_prefix`] — hard error on divergence) still fails it. The
/// result is minimal in the shrink order: it fails, and dropping its last
/// decision no longer fails — the property-testing notion of a local
/// minimum. Trailing canonical zeros are always dropped first (a prefix
/// replay supplies them anyway), then a bisection finds the failure
/// boundary and a downward walk certifies minimality.
pub fn shrink_prefix<S, F>(mut setup: S, choices: &[u32], mut fails: F) -> Vec<u32>
where
    S: FnMut() -> Sim,
    F: FnMut(&Result<SimReport, SimError>) -> bool,
{
    let mut probe =
        |setup: &mut S, prefix: &[u32]| -> bool { fails(&replay_prefix(&mut *setup, prefix)) };
    let mut vector = choices.to_vec();
    while vector.last() == Some(&0) {
        vector.pop();
    }
    assert!(
        probe(&mut setup, &vector),
        "counterexample does not reproduce under prefix replay; nothing to shrink"
    );
    // Bisect on prefix length, maintaining "hi fails". Failure need not be
    // monotone in the prefix length, so the bisection only localises a
    // boundary; the downward walk below establishes the local minimum.
    let (mut lo, mut hi) = (0usize, vector.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if probe(&mut setup, &vector[..mid]) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let mut len = hi;
    while len > 0 && probe(&mut setup, &vector[..len - 1]) {
        len -= 1;
    }
    vector.truncate(len);
    debug_assert!(probe(&mut setup, &vector));
    vector
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waitq::WaitQueue;
    use std::collections::BTreeSet;

    fn three_emitters() -> Sim {
        let mut sim = Sim::new();
        for i in 0..3 {
            sim.spawn(&format!("p{i}"), move |ctx| {
                ctx.yield_now();
                ctx.emit("go", &[i]);
            });
        }
        sim
    }

    /// Wake-before-wait loses the wakeup: some schedules deadlock.
    fn racy_gate() -> Sim {
        let mut sim = Sim::new();
        let q = Arc::new(WaitQueue::new("gate"));
        let q2 = Arc::clone(&q);
        sim.spawn("waiter", move |ctx| q2.wait(ctx));
        let q3 = Arc::clone(&q);
        sim.spawn("waker", move |ctx| {
            q3.wake_one(ctx);
        });
        sim
    }

    fn journal_of(sampler: &Sampler) -> (Vec<SampleRecord<Vec<i64>>>, ExploreStats) {
        sampler.run(three_emitters, |_, result| {
            let Ok(report) = result else {
                return (Vec::new(), vec!["failed".into()]);
            };
            (
                report
                    .trace
                    .user_events()
                    .map(|(_, _, params)| params[0])
                    .collect(),
                Vec::new(),
            )
        })
    }

    #[test]
    fn same_seed_same_journal_across_worker_counts() {
        for strategy in [
            SampleStrategy::Pct {
                change_points: 2,
                depth_hint: 16,
            },
            SampleStrategy::Walk,
        ] {
            let base = Sampler::walk(40, 7).strategy(strategy).threads(1);
            let (reference, ref_stats) = journal_of(&base);
            assert_eq!(reference.len(), 40);
            for threads in [2, 4, 8] {
                let (journal, stats) = journal_of(&base.clone().threads(threads));
                assert_eq!(
                    journal, reference,
                    "{strategy:?} journal at {threads} workers"
                );
                assert_eq!(stats.schedules, ref_stats.schedules);
                assert_eq!(stats.depth_schedules, ref_stats.depth_schedules);
                assert_eq!(stats.sampling, ref_stats.sampling);
            }
        }
    }

    #[test]
    fn different_seeds_sample_different_schedules() {
        let (a, _) = journal_of(&Sampler::walk(30, 1).threads(2));
        let (b, _) = journal_of(&Sampler::walk(30, 2).threads(2));
        assert_ne!(
            a.iter().map(|r| &r.choices).collect::<Vec<_>>(),
            b.iter().map(|r| &r.choices).collect::<Vec<_>>(),
        );
        let distinct: BTreeSet<&Vec<i64>> = a.iter().map(|r| &r.value).collect();
        assert!(distinct.len() > 1, "a swarm must not sample one schedule");
    }

    #[test]
    fn violations_first_hits_and_first_error_are_recorded() {
        let (journal, stats) = Sampler::walk(50, 11)
            .threads(4)
            .run(racy_gate, |_, result| {
                let keys = if result.is_err() {
                    vec!["no-deadlock".to_string()]
                } else {
                    Vec::new()
                };
                (result.is_ok(), keys)
            });
        let sampling = stats.sampling.as_ref().expect("sampler stats present");
        assert_eq!(sampling.runs, 50);
        let hits = sampling.violations.get("no-deadlock").copied().unwrap_or(0);
        assert!(hits > 0, "the lost-wakeup deadlock must be sampled");
        assert!(hits < 50, "some schedules must succeed");
        let first = sampling.first_hits["no-deadlock"];
        assert_eq!(Some(first), sampling.first_hit());
        let first_failing = journal
            .iter()
            .find(|r| !r.value)
            .expect("a failing run is journaled");
        assert_eq!(first_failing.iteration, first);
        let err = stats.first_error.expect("failure propagated");
        assert_eq!(err.choices, first_failing.choices);
        assert!(err.error.is_deadlock());
        assert!(sampling.rate("no-deadlock") > 0.0);
    }

    #[test]
    fn pct_change_depth_histogram_is_populated() {
        let (_, stats) = Sampler::pct(20, 3)
            .change_points(2)
            .depth_hint(4)
            .run(three_emitters, |_, _| ((), Vec::new()));
        let sampling = stats.sampling.expect("pct stats");
        assert!(
            sampling.change_depths.iter().sum::<usize>() > 0,
            "with depth hint 4 on a deeper tree, change points must fire"
        );
        assert!(sampling.change_depths.len() <= 4, "depths bounded by hint");
    }

    #[test]
    fn sampled_schedules_replay_exactly() {
        let (journal, _) = Sampler::pct(10, 5).run(three_emitters, |_, result| {
            let report = result.as_ref().expect("no failure possible");
            (
                report
                    .trace
                    .user_events()
                    .map(|(_, _, p)| p[0])
                    .collect::<Vec<i64>>(),
                Vec::new(),
            )
        });
        for record in &journal {
            let report = replay_exact(three_emitters, &record.choices).expect("clean replay");
            let order: Vec<i64> = report.trace.user_events().map(|(_, _, p)| p[0]).collect();
            assert_eq!(order, record.value, "replay must reproduce the schedule");
        }
    }

    /// One process races a data choice against an emitter: vectors mix
    /// `Sched` and `Data` decisions.
    fn chooser_pair() -> Sim {
        let mut sim = Sim::new();
        sim.spawn("chooser", |ctx| {
            ctx.yield_now();
            let v = ctx.choose_value("v", 0..4);
            ctx.emit("chose", &[v.get()]);
        });
        sim.spawn("other", |ctx| {
            ctx.yield_now();
            ctx.emit("other", &[]);
        });
        sim
    }

    #[test]
    fn samplers_draw_data_choices_and_replay_them() {
        for sampler in [Sampler::pct(30, 9).depth_hint(4), Sampler::walk(30, 9)] {
            let (journal, _) = sampler.run(chooser_pair, |_, result| {
                let report = result.as_ref().expect("no failure possible");
                let value = report
                    .trace
                    .user_events()
                    .find(|(_, label, _)| *label == "chose")
                    .map(|(_, _, p)| p[0])
                    .expect("chooser ran");
                (value, Vec::new())
            });
            let distinct: BTreeSet<i64> = journal.iter().map(|r| r.value).collect();
            assert!(
                distinct.len() > 1,
                "{} iterations must sample more than one data value",
                journal.len()
            );
            for record in &journal {
                let report = replay_exact(chooser_pair, &record.choices).expect("clean replay");
                let replayed = report
                    .trace
                    .user_events()
                    .find(|(_, label, _)| *label == "chose")
                    .map(|(_, _, p)| p[0]);
                assert_eq!(replayed, Some(record.value), "replay reproduces the value");
            }
        }
    }

    #[test]
    #[should_panic(expected = "diverged on strict re-run")]
    fn stale_vector_is_a_hard_error() {
        // 9 can never be a valid choice in a 3-process scenario: strict
        // replay must fail loudly, not clamp.
        let _ = replay_exact(three_emitters, &[9, 9, 9]);
    }

    #[test]
    fn shrink_finds_a_locally_minimal_failing_prefix() {
        // Find a failing schedule by sampling, then shrink it.
        let (_, stats) = Sampler::walk(50, 11).run(racy_gate, |_, result| {
            (
                (),
                if result.is_err() {
                    vec!["dl".into()]
                } else {
                    vec![]
                },
            )
        });
        let full = stats.first_error.expect("deadlock sampled").choices;
        let shrunk = shrink_prefix(racy_gate, &full, |r| r.is_err());
        assert!(shrunk.len() <= full.len());
        assert!(
            replay_prefix(racy_gate, &shrunk).is_err(),
            "shrunk prefix must still deadlock"
        );
        if !shrunk.is_empty() {
            assert!(
                replay_prefix(racy_gate, &shrunk[..shrunk.len() - 1]).is_ok(),
                "dropping the last decision must lose the failure (local minimum)"
            );
        }
    }

    #[test]
    #[should_panic(expected = "does not reproduce")]
    fn shrink_rejects_a_vector_that_does_not_fail() {
        // The canonical schedule of the gate scenario succeeds (waiter
        // parks first), so an all-zero "counterexample" reproduces nothing.
        let _ = shrink_prefix(racy_gate, &[0, 0, 0], |r| r.is_err());
    }
}
