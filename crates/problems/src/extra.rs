//! Beyond footnote 2: the other "standard synchronization problems" the
//! paper's opening paragraph alludes to, used here to show the
//! methodology generalizes past its own test suite.
//!
//! * [`dining`] — Dijkstra's dining philosophers. The naive
//!   fork-as-semaphore solution deadlocks (the simulator detects and
//!   names the cycle); resource ordering and a monitor-based state
//!   solution both fix it. In the taxonomy the avoidance constraint is an
//!   *exclusion* constraint over **synchronization state** (which forks
//!   are held / which neighbors are eating).
//! * [`smokers`] — Patil's cigarette smokers, historically an
//!   *expressiveness* argument: with the agent fixed and no conditionals
//!   around semaphore operations, plain semaphores cannot solve it (the
//!   famous limitation), so the semaphore solution needs helper
//!   "pusher" processes — a process-level synchronization procedure,
//!   exactly the workaround shape §5.1 describes for paths — while a
//!   monitor states the condition directly.

pub mod dining {
    //! Dining philosophers: deadlock, and two cures.

    use bloom_semaphore::Semaphore;
    use bloom_sim::{Sim, SimError};
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// Runs `n` naive philosophers (left fork, then right fork). Returns
    /// the simulation error — which must be a deadlock for some schedule.
    ///
    /// Each philosopher yields between picking up the forks, so the
    /// circular-wait interleaving is reachable under FIFO scheduling.
    pub fn naive_run(n: usize) -> Result<(), SimError> {
        let mut sim = Sim::new();
        let forks: Vec<Arc<Semaphore>> = (0..n)
            .map(|i| Arc::new(Semaphore::strong(&format!("fork{i}"), 1)))
            .collect();
        for i in 0..n {
            let left = Arc::clone(&forks[i]);
            let right = Arc::clone(&forks[(i + 1) % n]);
            sim.spawn(&format!("philosopher{i}"), move |ctx| {
                left.p(ctx);
                ctx.yield_now(); // everyone holds their left fork…
                right.p(ctx); // …and waits forever for the right one
                ctx.emit("ate", &[i as i64]);
                right.v(ctx);
                left.v(ctx);
            });
        }
        sim.run().map(|_| ())
    }

    /// The resource-ordering cure: the last philosopher picks forks in the
    /// opposite order, breaking the circular wait. Everyone eats `meals`
    /// times; returns the eat count.
    pub fn ordered_run(n: usize, meals: usize) -> usize {
        let mut sim = Sim::new();
        let forks: Vec<Arc<Semaphore>> = (0..n)
            .map(|i| Arc::new(Semaphore::strong(&format!("fork{i}"), 1)))
            .collect();
        let eaten = Arc::new(Mutex::new(0usize));
        for i in 0..n {
            let (a, b) = {
                let left = i;
                let right = (i + 1) % n;
                // Always acquire the lower-numbered fork first.
                (left.min(right), left.max(right))
            };
            let first = Arc::clone(&forks[a]);
            let second = Arc::clone(&forks[b]);
            let eaten = Arc::clone(&eaten);
            sim.spawn(&format!("philosopher{i}"), move |ctx| {
                for _ in 0..meals {
                    first.p(ctx);
                    ctx.yield_now();
                    second.p(ctx);
                    *eaten.lock() += 1;
                    ctx.yield_now();
                    second.v(ctx);
                    first.v(ctx);
                }
            });
        }
        sim.run().expect("ordered acquisition cannot deadlock");
        let n = *eaten.lock();
        n
    }

    /// Dijkstra's state-based cure as a monitor: a philosopher eats only
    /// when neither neighbor is eating; putting forks down re-tests the
    /// neighbors. Returns the eat count and the maximum number of
    /// simultaneously eating neighbors pairs observed (must be zero).
    pub fn monitor_run(n: usize, meals: usize) -> (usize, usize) {
        use bloom_monitor::{Cond, Monitor};

        let mut sim = Sim::new();
        let monitor = Arc::new(Monitor::hoare("table", vec![false; n]));
        let conds: Vec<Arc<Cond>> = (0..n)
            .map(|i| Arc::new(Cond::new(&format!("may_eat{i}"))))
            .collect();
        let eaten = Arc::new(Mutex::new(0usize));
        let neighbor_violations = Arc::new(Mutex::new(0usize));
        for i in 0..n {
            let monitor = Arc::clone(&monitor);
            let conds: Vec<Arc<Cond>> = conds.iter().map(Arc::clone).collect();
            let eaten = Arc::clone(&eaten);
            let violations = Arc::clone(&neighbor_violations);
            sim.spawn(&format!("philosopher{i}"), move |ctx| {
                let left = (i + n - 1) % n;
                let right = (i + 1) % n;
                for _ in 0..meals {
                    monitor.enter(ctx, |mc| {
                        while mc.state(|eating| eating[left] || eating[right]) {
                            mc.wait(&conds[i]);
                        }
                        mc.state(|eating| eating[i] = true);
                    });
                    {
                        // Eat (outside the monitor, §2 structure).
                        let bad = monitor
                            .enter(ctx, |mc| mc.state(|eating| eating[left] || eating[right]));
                        if bad {
                            *violations.lock() += 1;
                        }
                        ctx.yield_now();
                        *eaten.lock() += 1;
                    }
                    monitor.enter(ctx, |mc| {
                        mc.state(|eating| eating[i] = false);
                        // Re-test both neighbors.
                        mc.signal(&conds[left]);
                        mc.signal(&conds[right]);
                    });
                }
            });
        }
        sim.run().expect("state-based solution cannot deadlock");
        let e = *eaten.lock();
        let v = *neighbor_violations.lock();
        (e, v)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn naive_philosophers_deadlock_and_the_report_names_a_fork() {
            let err = naive_run(5).expect_err("must deadlock under FIFO");
            let err_text = err.to_string();
            assert!(err_text.contains("deadlock"), "{err_text}");
            assert!(
                err_text.contains("fork"),
                "diagnostic names the cycle: {err_text}"
            );
        }

        /// Exhaustive exploration quantifies the hazard: some—but not
        /// all—schedules of the naive solution deadlock, and *no* schedule
        /// of the ordered solution does.
        #[test]
        fn exhaustive_exploration_quantifies_the_deadlock() {
            use bloom_sim::ExploreConfig;

            let naive = |n: usize| {
                move || {
                    let mut sim = Sim::new();
                    let forks: Vec<Arc<Semaphore>> = (0..n)
                        .map(|i| Arc::new(Semaphore::strong(&format!("fork{i}"), 1)))
                        .collect();
                    for i in 0..n {
                        let left = Arc::clone(&forks[i]);
                        let right = Arc::clone(&forks[(i + 1) % n]);
                        sim.spawn(&format!("philosopher{i}"), move |ctx| {
                            left.p(ctx);
                            ctx.yield_now();
                            right.p(ctx);
                            right.v(ctx);
                            left.v(ctx);
                        });
                    }
                    sim
                }
            };
            let (journal, stats) = ExploreConfig::new(300_000)
                .threads(4)
                .run(naive(3), |_, result| result.is_err());
            let schedules = journal.len();
            let deadlocks = journal.iter().filter(|r| r.value).count();
            assert!(stats.complete, "3-philosopher tree fully explored");
            assert!(deadlocks > 0, "the circular wait is reachable");
            assert!(
                deadlocks < schedules,
                "and yet most schedules complete: {deadlocks}/{schedules}"
            );

            // The ordered variant never deadlocks, over the same tree size.
            let ordered = || {
                let mut sim = Sim::new();
                let n = 3;
                let forks: Vec<Arc<Semaphore>> = (0..n)
                    .map(|i| Arc::new(Semaphore::strong(&format!("fork{i}"), 1)))
                    .collect();
                for i in 0..n {
                    let (a, b) = {
                        let left = i;
                        let right = (i + 1) % n;
                        (left.min(right), left.max(right))
                    };
                    let first = Arc::clone(&forks[a]);
                    let second = Arc::clone(&forks[b]);
                    sim.spawn(&format!("philosopher{i}"), move |ctx| {
                        first.p(ctx);
                        ctx.yield_now();
                        second.p(ctx);
                        second.v(ctx);
                        first.v(ctx);
                    });
                }
                sim
            };
            let (journal, stats) = ExploreConfig::new(300_000)
                .threads(4)
                .run(ordered, |_, result| result.is_err());
            let ordered_deadlocks = journal.iter().filter(|r| r.value).count();
            assert!(stats.complete);
            assert_eq!(
                ordered_deadlocks, 0,
                "resource ordering: zero deadlocking schedules"
            );
        }

        #[test]
        fn resource_ordering_fixes_the_deadlock() {
            assert_eq!(ordered_run(5, 3), 15);
        }

        #[test]
        fn monitor_state_solution_is_safe_and_live() {
            let (eaten, violations) = monitor_run(5, 3);
            assert_eq!(eaten, 15);
            assert_eq!(
                violations, 0,
                "no philosopher ate beside an eating neighbor"
            );
        }

        #[test]
        fn two_philosophers_also_work() {
            assert_eq!(ordered_run(2, 4), 8);
            let (eaten, violations) = monitor_run(2, 4);
            assert_eq!((eaten, violations), (8, 0));
        }
    }
}

pub mod smokers {
    //! Patil's cigarette smokers.
    //!
    //! An agent repeatedly places two of the three ingredients (tobacco,
    //! paper, matches) on the table; the smoker holding the third must
    //! pick them up and smoke. Patil proved the problem unsolvable with
    //! semaphores alone if the agent cannot be modified and no
    //! conditionals are allowed — making it a canonical *expressive power*
    //! benchmark in exactly Bloom's sense: the condition "both of MY
    //! ingredients are on the table" needs information semaphores cannot
    //! carry.

    use bloom_monitor::{Cond, Monitor};
    use bloom_semaphore::Semaphore;
    use bloom_sim::Sim;
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// Ingredient indices: 0 = tobacco, 1 = paper, 2 = matches. Smoker
    /// `i` owns ingredient `i` and needs the other two.
    pub const INGREDIENTS: [&str; 3] = ["tobacco", "paper", "matches"];

    /// Semaphore solution *with helper pushers* (the classical fix): each
    /// placed ingredient wakes a pusher that records it and, when a pair
    /// is complete, wakes the right smoker. Returns how many times each
    /// smoker smoked.
    pub fn pushers_run(rounds: usize, agent_seed: u64) -> [usize; 3] {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut sim = Sim::new();
        let ingredient_sems: Vec<Arc<Semaphore>> = INGREDIENTS
            .iter()
            .map(|n| Arc::new(Semaphore::strong(&format!("on_table.{n}"), 0)))
            .collect();
        let smoker_sems: Vec<Arc<Semaphore>> = INGREDIENTS
            .iter()
            .map(|n| Arc::new(Semaphore::strong(&format!("smoker.{n}"), 0)))
            .collect();
        let agent_again = Arc::new(Semaphore::strong("agent.again", 0));
        // Pusher shared state: which ingredients are on the table.
        let table = Arc::new(Mutex::new([false; 3]));
        let smoked = Arc::new(Mutex::new([0usize; 3]));

        // The agent: places two random ingredients, waits for the smoke.
        {
            let sems: Vec<Arc<Semaphore>> = ingredient_sems.iter().map(Arc::clone).collect();
            let again = Arc::clone(&agent_again);
            sim.spawn("agent", move |ctx| {
                let mut rng = StdRng::seed_from_u64(agent_seed);
                for _ in 0..rounds {
                    let skip = rng.gen_range(0..3usize);
                    for (i, sem) in sems.iter().enumerate() {
                        if i != skip {
                            sem.v(ctx);
                        }
                    }
                    again.p(ctx);
                }
            });
        }
        // Three pushers: the helper processes that give semaphores the
        // missing conditional. This is the workaround — compare the
        // monitor solution, which needs none of it.
        for i in 0..3 {
            let my_sem = Arc::clone(&ingredient_sems[i]);
            let table = Arc::clone(&table);
            let smoker_sems: Vec<Arc<Semaphore>> = smoker_sems.iter().map(Arc::clone).collect();
            sim.spawn_daemon(&format!("pusher.{}", INGREDIENTS[i]), move |ctx| loop {
                my_sem.p(ctx);
                let mut t = table.lock();
                // Which other ingredient is already on the table?
                let other = (0..3).find(|&j| j != i && t[j]);
                match other {
                    Some(j) => {
                        t[i] = false;
                        t[j] = false;
                        // Ingredients i and j are down: smoker owning the
                        // third gets both.
                        let third = 3 - i - j;
                        drop(t);
                        smoker_sems[third].v(ctx);
                    }
                    None => t[i] = true,
                }
            });
        }
        for i in 0..3 {
            let my_turn = Arc::clone(&smoker_sems[i]);
            let again = Arc::clone(&agent_again);
            let smoked = Arc::clone(&smoked);
            sim.spawn_daemon(&format!("smoker.{}", INGREDIENTS[i]), move |ctx| loop {
                my_turn.p(ctx);
                smoked.lock()[i] += 1;
                ctx.yield_now(); // smoke
                again.v(ctx);
            });
        }
        sim.run().expect("pushers solution is deadlock-free");
        let s = *smoked.lock();
        s
    }

    /// Monitor solution: one condition per smoker and a direct test of
    /// "are both of my ingredients down?" — the conditional that
    /// semaphores lack, stated in one line of monitor code.
    pub fn monitor_run(rounds: usize, agent_seed: u64) -> [usize; 3] {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut sim = Sim::new();
        let monitor = Arc::new(Monitor::hoare("table", [false; 3]));
        let may_smoke: Vec<Arc<Cond>> = INGREDIENTS
            .iter()
            .map(|n| Arc::new(Cond::new(&format!("may_smoke.{n}"))))
            .collect();
        let done = Arc::new(Cond::new("table.cleared"));
        let smoked = Arc::new(Mutex::new([0usize; 3]));

        {
            let monitor = Arc::clone(&monitor);
            let may_smoke: Vec<Arc<Cond>> = may_smoke.iter().map(Arc::clone).collect();
            let done = Arc::clone(&done);
            sim.spawn("agent", move |ctx| {
                let mut rng = StdRng::seed_from_u64(agent_seed);
                for _ in 0..rounds {
                    let skip = rng.gen_range(0..3usize);
                    monitor.enter(ctx, |mc| {
                        mc.state(|t| {
                            for (i, slot) in t.iter_mut().enumerate() {
                                *slot = i != skip;
                            }
                        });
                        // Wake exactly the smoker whose ingredients are down.
                        mc.signal(&may_smoke[skip]);
                        // Wait for the table to clear before the next round.
                        while mc.state(|t| t.iter().any(|&x| x)) {
                            mc.wait(&done);
                        }
                    });
                }
            });
        }
        for i in 0..3 {
            let monitor = Arc::clone(&monitor);
            let my_cond = Arc::clone(&may_smoke[i]);
            let done = Arc::clone(&done);
            let smoked = Arc::clone(&smoked);
            sim.spawn_daemon(&format!("smoker.{}", INGREDIENTS[i]), move |ctx| loop {
                monitor.enter(ctx, |mc| {
                    // "Both of my ingredients are on the table": a direct
                    // boolean over local state.
                    while !mc.state(|t| (0..3).all(|j| j == i || t[j])) {
                        mc.wait(&my_cond);
                    }
                    mc.state(|t| t.fill(false));
                    // Count before signalling: under Hoare semantics the
                    // signal hands control to the agent, which may be the
                    // last non-daemon and end the run before this daemon
                    // is scheduled again.
                    smoked.lock()[i] += 1;
                    mc.signal(&done);
                });
                ctx.yield_now(); // smoke outside the monitor
            });
        }
        sim.run().expect("monitor solution is deadlock-free");
        let s = *smoked.lock();
        s
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn pushers_solution_smokes_every_round() {
            for seed in [1, 2, 3] {
                let counts = pushers_run(12, seed);
                assert_eq!(counts.iter().sum::<usize>(), 12, "seed {seed}: {counts:?}");
            }
        }

        #[test]
        fn monitor_solution_smokes_every_round() {
            for seed in [1, 2, 3] {
                let counts = monitor_run(12, seed);
                assert_eq!(counts.iter().sum::<usize>(), 12, "seed {seed}: {counts:?}");
            }
        }

        #[test]
        fn both_solutions_agree_on_who_smokes() {
            // Same agent schedule → the same smoker must smoke each round,
            // regardless of mechanism.
            for seed in [7, 8] {
                assert_eq!(pushers_run(10, seed), monitor_run(10, seed), "seed {seed}");
            }
        }

        #[test]
        fn the_right_smoker_smokes() {
            // With a single round and a deterministic agent seed, exactly
            // one smoker smokes and it is the owner of the skipped
            // ingredient. (Derive the skip from the same RNG the agent uses.)
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            for seed in 0..5 {
                let skip = StdRng::seed_from_u64(seed).gen_range(0..3usize);
                let counts = monitor_run(1, seed);
                let expected = {
                    let mut c = [0usize; 3];
                    c[skip] = 1;
                    c
                };
                assert_eq!(counts, expected, "seed {seed}");
            }
        }
    }
}
