//! R3 scenarios: the paper's failure stories under generated load.
//!
//! R2 established *that* the weak semaphore starves a writer and *that*
//! the nested monitor deadlocks — on populations of three. This module
//! rebuilds those two scenarios on top of the [`crate::workload`] DSL so
//! the question becomes *at what rate* they manifest across sampled
//! schedules of populations up to ~1000 processes, where the schedule
//! tree is far beyond the DFS explorers. The scenarios are designed for
//! the sampler ([`bloom_sim::Sampler`]) plus the law layer
//! ([`bloom_core::laws`]); each has a companion `*_laws()` set naming
//! exactly the invariants the R3 report measures.
//!
//! Two design rules keep thousand-process trees tractable and honest:
//!
//! * **Pollers spin briefly, then sleep.** A failed `try_p` is retried
//!   through [`SPIN_POLLS`] yields — staying runnable is what lets a
//!   barger outrace the woken writer at a release point, the §5.1
//!   dynamic under study — and then backs off with `sleep(1)`. The
//!   bounded spin is load-bearing twice over: sleeping pollers leave
//!   the ready set, so the permit holder always gets dispatched within
//!   a bounded number of steps even when a PCT change point demotes it
//!   (an unbounded spin would turn the demotion into a livelock, an
//!   artifact of the harness rather than a bug of the mechanism), and
//!   it keeps a burst's step cost proportional to the burst size, not
//!   the population size.
//! * **Contention windows scale with the active set.** The writer's
//!   patience schedule and the kernel watchdog bound are derived from
//!   the workload's expected concurrently-active client count
//!   ([`active_hint`]), preserving R2's calibration logic: the bound
//!   sits far above any wait a FIFO discipline can produce, far below
//!   the barge-forever horizon.
//!
//! Holders *sleep inside the critical section*. A holder that merely
//! yields is redispatched immediately under a priority sampler (it is
//! still the best ready process), so no other process ever observes the
//! permit held and the run serializes into zero contention. Sleeping
//! forces the holder off the CPU for a tick, which is what creates the
//! release-point races the scenario exists to measure.
//!
//! Under the strong semaphore the writer still structurally cannot
//! starve: it is the only *queued* waiter (pollers never enqueue),
//! queued waiters make `try_p` fail, and `V` is a direct hand-off — the
//! first release after the writer enqueues transfers the permit to it
//! no matter which barger is runnable. Giving up would need the whole
//! 15×base retry budget to elapse with no release at all, impossible
//! while readers still cycle the permit. The measured strong-semaphore
//! violation rate is therefore exactly 0, and the weak rate is pure
//! barging probability — the paper's §5.1 distinction, now
//! quantitative.

use crate::events::{READ, USE, WRITE};
use crate::liveness::LiveMechanism;
use crate::workload::WorkloadSpec;
use bloom_core::events::{enter, exit, request};
use bloom_core::laws::{no_failure, starvation_free, LawSet};
use bloom_monitor::{Cond, Monitor};
use bloom_semaphore::{Semaphore, TryResult};
use bloom_sim::{Sim, SimConfig};
use std::sync::Arc;

/// Expected concurrently-active client count of a workload: the burst
/// size for bursty arrivals, the whole population when everybody arrives
/// together, and a small constant for trickle arrivals. The contention
/// calibration below scales with this, not with the population.
pub fn active_hint(spec: &WorkloadSpec) -> usize {
    use crate::workload::Arrival;
    match spec.arrival_pattern() {
        Arrival::Together => spec.client_count(),
        Arrival::Bursts { size, .. } => size.min(spec.client_count()),
        Arrival::Staggered { .. } | Arrival::Poisson { .. } => 8.min(spec.client_count().max(1)),
    }
}

/// Failed polls a reader retries while staying runnable before backing
/// off with `sleep(1)` (see the module docs for why the spin must be
/// bounded and why it must exist at all).
pub const SPIN_POLLS: u32 = 6;

/// One honest service interval for a workload's active set, the unit
/// the patience schedule and watchdog bound are calibrated in. Timers
/// fire only when the ready set drains, and the ready set drains once
/// per critical section — after every active poller has burned its
/// [`SPIN_POLLS`] spin budget — so the shortest wait a *served* writer
/// experiences is about `(SPIN_POLLS + 1) × active` ticks, plus slack
/// for the holder's own steps. A patience below this misreads FIFO
/// hand-off latency as starvation (the strong semaphore would "time
/// out" while being served in order); everything below sits above it.
fn service_interval(spec: &WorkloadSpec) -> u64 {
    (SPIN_POLLS as u64 + 2) * active_hint(spec) as u64 + 16
}

/// The writer's patience schedule for a workload: four exponentially
/// growing attempts starting at one `service_interval` — R2's
/// `ATTEMPTS = [4, 8, 16, 32]` re-derived for populations where a
/// single hand-off costs the active set's whole spin budget.
pub fn writer_attempts(spec: &WorkloadSpec) -> [u64; 4] {
    let base = service_interval(spec);
    [base, 2 * base, 4 * base, 8 * base]
}

/// The kernel starvation-watchdog bound for a workload: 6× the patience
/// base, preserving R2's calibration ratio — several service intervals
/// above any wait a FIFO hand-off can produce (one interval, two when a
/// priority sampler demotes the holder), below the writer's total retry
/// budget (15× base).
pub fn starvation_bound(spec: &WorkloadSpec) -> u64 {
    6 * service_interval(spec)
}

fn scale_config(spec: &WorkloadSpec) -> SimConfig {
    SimConfig {
        // Room for a thousand-client population's polling; the default
        // budget is calibrated for the R1/R2 miniatures.
        max_steps: 4_000_000 + 4_000 * spec.client_count() as u64,
        // Scheduler events and footprint quanta are exploration/debug
        // aids; at 1000 clients they dominate memory for no R3 benefit.
        record_sched_events: false,
        ..SimConfig::default()
    }
}

/// Builds the scaled weak/strong-semaphore starvation scenario: the
/// population of readers described by `spec` cycles a one-permit
/// semaphore as polling bargers (sleep-backoff, see the module docs)
/// while a single writer runs the [`writer_attempts`] retry schedule
/// under a [`starvation_bound`] watchdog, emitting `retry:res` per
/// timeout and `gave-up:res` when the budget runs dry.
///
/// Check it against [`starvation_laws`].
pub fn starvation_at_scale(mech: LiveMechanism, spec: &WorkloadSpec) -> Sim {
    let mut sim = Sim::with_config(scale_config(spec));
    sim.set_record_quanta(false);
    sim.set_starvation_bound(starvation_bound(spec));
    let sem = Arc::new(match mech {
        LiveMechanism::SemaphoreWeak => Semaphore::weak("res", 1),
        _ => Semaphore::strong("res", 1),
    });
    for plan in spec.plans() {
        let s = Arc::clone(&sem);
        sim.spawn(&format!("reader{}", plan.index), move |ctx| {
            if plan.start > 0 {
                ctx.sleep(plan.start);
            }
            for (round, &think) in plan.thinks.iter().enumerate() {
                request(ctx, READ, &[round as i64]);
                // A polling barger: spin a bounded number of yields (so a
                // release point can be outraced), then back off with a
                // sleep (so a demoted holder can still run).
                let mut failed = 0u32;
                while !s.try_p() {
                    failed += 1;
                    if failed.is_multiple_of(SPIN_POLLS) {
                        ctx.sleep(1);
                    } else {
                        ctx.yield_now();
                    }
                }
                enter(ctx, READ, &[round as i64]);
                // Hold across a *sleep*, not a yield: the holder must
                // leave the CPU so contenders can observe the permit
                // held (see the module docs).
                ctx.sleep(1);
                exit(ctx, READ, &[round as i64]);
                s.v(ctx);
                if think > 0 {
                    ctx.sleep(think);
                } else {
                    ctx.yield_now();
                }
            }
        });
    }
    let s = Arc::clone(&sem);
    let attempts = writer_attempts(spec);
    sim.spawn("writer", move |ctx| {
        // Request under *steady-state* contention, not during the
        // cold-start transient. When a burst of fresh clients activates
        // under a priority sampler, each newly scheduled client burns
        // its spin budget and sleeps while a fresh ready client always
        // remains, so no timer drain occurs until the whole burst has
        // activated — a one-off hand-off latency of the whole
        // activation chain that is startup cost, not starvation.
        // Sleeping here parks the writer until the first drain, which
        // is exactly the end of that transient.
        ctx.sleep(1);
        request(ctx, WRITE, &[]);
        for (attempt, &patience) in attempts.iter().enumerate() {
            match s.p_by(ctx, patience) {
                TryResult::Acquired => {
                    enter(ctx, WRITE, &[]);
                    ctx.yield_now();
                    exit(ctx, WRITE, &[]);
                    s.v(ctx);
                    return;
                }
                TryResult::TimedOut => {
                    ctx.emit("retry:res", &[attempt as i64 + 1]);
                }
            }
        }
        ctx.emit("gave-up:res", &[]);
    });
    sim
}

/// The invariants the starvation scenario is sampled against:
/// starvation-freedom (watchdog flags, `gave-up:`) and run success.
pub fn starvation_laws() -> LawSet {
    LawSet::new().with(starvation_free()).with(no_failure())
}

/// Builds the scaled nested-monitor scenario: Lister's nester/helper
/// race from R2. If the nester takes the outer monitor first, it waits
/// on the inner condition *while keeping outer possession* and the
/// helper blocks behind it on outer entry — the signal that would free
/// the nester can never be delivered, and the cycle is closed. If the
/// helper wins the race it sets the flag first and both complete. The
/// race is embedded in a `spec`-shaped population of bystander workers,
/// with **deadlock recovery off** so a closed cycle reports
/// [`bloom_sim::SimErrorKind::Deadlock`]; the sampled no-deadlock
/// violation rate is the probability the nester wins the race, measured
/// across the population's schedule noise.
///
/// Check it against [`nested_monitor_laws`].
pub fn nested_monitor_at_scale(spec: &WorkloadSpec) -> Sim {
    let mut sim = Sim::with_config(scale_config(spec));
    sim.set_record_quanta(false);
    let outer = Arc::new(Monitor::mesa("outer", ()));
    let inner = Arc::new(Monitor::mesa("inner", false));
    let ready = Arc::new(Cond::new("ready"));
    inner.register_cond(&ready);
    let (o, i, c) = (Arc::clone(&outer), Arc::clone(&inner), Arc::clone(&ready));
    sim.spawn("nester", move |ctx| {
        request(ctx, USE, &[0]);
        o.enter(ctx, |_| {
            i.enter(ctx, |ic| {
                while !ic.state(|b| *b) {
                    ic.wait(&c);
                }
            });
            enter(ctx, USE, &[0]);
            exit(ctx, USE, &[0]);
        });
    });
    let (o, i, c) = (Arc::clone(&outer), Arc::clone(&inner), Arc::clone(&ready));
    sim.spawn("helper", move |ctx| {
        ctx.yield_now();
        let _ = o.try_enter(ctx, |_| {
            i.enter(ctx, |ic| {
                ic.state(|b| *b = true);
                ic.signal(&c);
            });
        });
    });
    // The population: bystander workers whose arrival and think noise is
    // what perturbs the nester/helper race at scale.
    for plan in spec.plans() {
        sim.spawn(&format!("worker{}", plan.index), move |ctx| {
            if plan.start > 0 {
                ctx.sleep(plan.start);
            }
            for &think in &plan.thinks {
                ctx.yield_now();
                if think > 0 {
                    ctx.sleep(think);
                }
            }
        });
    }
    sim
}

/// The invariant the nested-monitor scenario is sampled against: the
/// run must not deadlock.
pub fn nested_monitor_laws() -> LawSet {
    LawSet::new().with(no_failure())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Arrival, Think};
    use bloom_sim::{replay_exact, ExploreConfig, SampleStrategy};

    fn small_spec() -> WorkloadSpec {
        // Back-to-back operations (no think time) keep the released
        // reader runnable at the very release points the writer races.
        WorkloadSpec::new(21)
            .clients(6)
            .ops(8)
            .arrival(Arrival::Together)
            .think(Think::None)
    }

    #[test]
    fn strong_semaphore_never_violates_at_small_scale() {
        let spec = small_spec();
        let laws = starvation_laws();
        let (_, stats) = ExploreConfig::new(0).sample(
            SampleStrategy::Walk,
            20,
            77,
            || starvation_at_scale(LiveMechanism::SemaphoreStrong, &spec),
            |_, result| ((), laws.violated(result)),
        );
        let sampling = stats.sampling.expect("sampler stats");
        assert_eq!(sampling.runs, 20);
        assert_eq!(
            sampling.distinct_violations(),
            0,
            "strong hand-off must defeat every sampled barging schedule: {:?}",
            sampling.violations
        );
    }

    #[test]
    fn weak_semaphore_starves_under_some_sampled_schedule() {
        let spec = small_spec();
        let laws = starvation_laws();
        let (journal, stats) = ExploreConfig::new(0).sample(
            SampleStrategy::Pct {
                change_points: 4,
                depth_hint: 256,
            },
            40,
            1,
            || starvation_at_scale(LiveMechanism::SemaphoreWeak, &spec),
            |_, result| ((), laws.violated(result)),
        );
        let sampling = stats.sampling.expect("sampler stats");
        let hits = sampling
            .violations
            .get("starvation-free")
            .copied()
            .unwrap_or(0);
        assert!(
            hits > 0,
            "PCT must find writer starvation; got {:?}",
            sampling.violations
        );
        // Every journaled schedule replays exactly (hard-error contract).
        for record in journal.iter().take(3) {
            replay_exact(
                || starvation_at_scale(LiveMechanism::SemaphoreWeak, &spec),
                &record.choices,
            )
            .expect("scenario completes");
        }
    }

    #[test]
    fn nested_monitor_race_deadlocks_at_a_sampled_rate() {
        let spec = WorkloadSpec::new(5)
            .clients(4)
            .ops(2)
            .think(Think::Fixed(2));
        let laws = nested_monitor_laws();
        let (_, stats) = ExploreConfig::new(0).sample(
            SampleStrategy::Walk,
            40,
            3,
            || nested_monitor_at_scale(&spec),
            |_, result| ((), laws.violated(result)),
        );
        let sampling = stats.sampling.expect("sampler stats");
        let hits = sampling.violations.get("no-deadlock").copied().unwrap_or(0);
        assert!(hits > 0, "the race must close in some sampled schedule");
        assert!(
            hits < sampling.runs as u64,
            "and stay open in others ({hits}/{})",
            sampling.runs
        );
    }

    #[test]
    fn calibration_scales_with_the_active_set_not_the_population() {
        let burst = WorkloadSpec::new(1)
            .clients(1000)
            .arrival(Arrival::Bursts { size: 16, gap: 500 });
        assert_eq!(active_hint(&burst), 16);
        let together = WorkloadSpec::new(1).clients(100);
        assert_eq!(active_hint(&together), 100);
        assert!(writer_attempts(&burst)[0] < writer_attempts(&together)[0]);
        assert!(starvation_bound(&burst) > writer_attempts(&burst)[1]);
        assert!(starvation_bound(&burst) < writer_attempts(&burst).iter().sum::<u64>());
    }
}
