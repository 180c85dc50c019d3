//! Property-based tests over the whole stack.
//!
//! proptest generates random seeds, workload shapes and path expressions;
//! the safety invariants must hold for every generated case (failures
//! shrink to a minimal seed/shape).

#![deny(deprecated)]

use bloom_core::checks::{
    check_buffer_bounds, check_elevator, check_exclusion, check_fifo, expect_clean,
};
use bloom_core::events::extract;
use bloom_core::MechanismId;
use bloom_pathexpr::{parse_path, Path, PathExpr};
use bloom_problems::drivers::{buffer_sim, buffer_transfers, disk_sim, fcfs_sim, run, rw_sim};
use bloom_problems::rw::RwVariant;
use proptest::prelude::*;

fn mechanisms() -> impl Strategy<Value = MechanismId> {
    prop_oneof![
        Just(MechanismId::Semaphore),
        Just(MechanismId::Monitor),
        Just(MechanismId::Serializer),
        Just(MechanismId::PathV1),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Readers/writers exclusion holds for every mechanism, variant and
    /// random schedule proptest can find.
    #[test]
    fn rw_exclusion_is_inviolable(
        mech in mechanisms(),
        variant in prop_oneof![
            Just(RwVariant::ReadersPriority),
            Just(RwVariant::WritersPriority),
            Just(RwVariant::Fcfs),
        ],
        readers in 1usize..5,
        writers in 1usize..4,
        ops in 1usize..4,
        seed in any::<u64>(),
    ) {
        let report = run(rw_sim(mech, variant, readers, writers, ops), Some(seed))
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let events = extract(&report.trace);
        expect_clean(
            &check_exclusion(&events, &[("read", "write"), ("write", "write")]),
            &format!("{mech}/{variant:?} seed {seed}"),
        );
    }

    /// Buffer capacity and value conservation hold under random shapes.
    #[test]
    fn buffer_never_overflows(
        mech in prop_oneof![
            Just(MechanismId::Semaphore),
            Just(MechanismId::Monitor),
            Just(MechanismId::Serializer),
            Just(MechanismId::PathV2),
        ],
        capacity in 1usize..6,
        producers in 1usize..4,
        per_producer in 1usize..5,
        seed in any::<u64>(),
    ) {
        let total = producers * per_producer;
        // One consumer takes everything: always evenly divisible.
        let report = run(buffer_sim(mech, capacity, producers, 1, per_producer), Some(seed))
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let (mut sent, mut received) = buffer_transfers(&report.trace);
        let events = extract(&report.trace);
        expect_clean(
            &check_buffer_bounds(&events, "deposit", "remove", capacity as i64),
            &format!("{mech} cap {capacity} seed {seed}"),
        );
        sent.sort_unstable();
        received.sort_unstable();
        prop_assert_eq!(sent.len(), total);
        prop_assert_eq!(sent, received);
    }

    /// FCFS order is exact for every mechanism under random schedules.
    #[test]
    fn fcfs_order_is_exact(
        mech in mechanisms(),
        workers in 2usize..7,
        uses in 1usize..4,
        seed in any::<u64>(),
    ) {
        let report = run(fcfs_sim(mech, workers, uses), Some(seed))
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let events = extract(&report.trace);
        expect_clean(&check_fifo(&events, &["use"]), &format!("{mech} seed {seed}"));
    }

    /// The disk never violates elevator order, whatever the workload.
    #[test]
    fn elevator_order_is_exact(
        mech in mechanisms(),
        processes in 1usize..5,
        seeks in 1usize..5,
        workload in any::<u64>(),
        sched in any::<u64>(),
    ) {
        let report = run(disk_sim(mech, processes, seeks, workload), Some(sched))
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let events = extract(&report.trace);
        expect_clean(
            &check_elevator(&events, "seek"),
            &format!("{mech} workload {workload} sched {sched}"),
        );
    }
}

// ---------------------------------------------------------------------------
// Path expression structural properties
// ---------------------------------------------------------------------------

/// Random path-expression ASTs (bounded depth).
fn path_expr(depth: u32) -> BoxedStrategy<PathExpr> {
    let leaf = "[a-e]{1,3}".prop_map(PathExpr::Op).boxed();
    leaf.prop_recursive(depth, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(PathExpr::Seq),
            prop::collection::vec(inner.clone(), 2..4).prop_map(PathExpr::Sel),
            inner.clone().prop_map(|e| PathExpr::Burst(Box::new(e))),
            (1u32..5, inner).prop_map(|(n, e)| PathExpr::Bounded(n, Box::new(e))),
        ]
    })
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Pretty-printing then re-parsing reaches a fixed point after one
    /// round (nested `Seq`/`Sel` flatten associatively on the first print,
    /// after which print∘parse is the identity) and preserves semantics
    /// observable through the alphabet.
    #[test]
    fn path_display_parse_round_trip(body in path_expr(3)) {
        let path = Path::new(body);
        let printed = path.to_string();
        let reparsed = parse_path(&printed)
            .unwrap_or_else(|e| panic!("failed to reparse {printed:?}: {e}"));
        prop_assert_eq!(path.alphabet(), reparsed.alphabet());
        let reprinted = reparsed.to_string();
        prop_assert_eq!(&printed, &reprinted, "print is stable after one round trip");
        let reparsed2 = parse_path(&reprinted).expect("stable text reparses");
        prop_assert_eq!(reparsed, reparsed2);
    }

    /// The alphabet of a path is exactly the set of ops in its display.
    #[test]
    fn alphabet_matches_display(body in path_expr(3)) {
        let path = Path::new(body);
        let printed = path.to_string();
        for op in path.alphabet() {
            prop_assert!(printed.contains(&op), "{op} missing from {printed}");
        }
    }
}

// ---------------------------------------------------------------------------
// Single-op path resources behave like FIFO mutexes for any op multiset
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn single_op_path_is_a_fifo_mutex(
        procs in 2usize..6,
        ops in 1usize..5,
        seed in any::<u64>(),
    ) {
        use bloom_pathexpr::PathResource;
        use bloom_sim::prelude::*;
        use std::sync::Arc;

        let mut sim = Sim::new();
        sim.set_policy(RandomPolicy::new(seed));
        let r = Arc::new(PathResource::parse("m", "path a end").unwrap());
        let occupancy = Arc::new(parking_lot::Mutex::new((0u32, 0u32)));
        for i in 0..procs {
            let r = Arc::clone(&r);
            let occupancy = Arc::clone(&occupancy);
            sim.spawn(&format!("p{i}"), move |ctx| {
                for _ in 0..ops {
                    r.perform(ctx, "a", || {
                        {
                            let mut o = occupancy.lock();
                            o.0 += 1;
                            o.1 = o.1.max(o.0);
                        }
                        ctx.yield_now();
                        occupancy.lock().0 -= 1;
                    });
                }
            });
        }
        sim.run().map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(occupancy.lock().1, 1);
    }
}

// ---------------------------------------------------------------------------
// Timed acquisition (R2): withdrawal leaves the primitives consistent
// ---------------------------------------------------------------------------

/// A blocking operation with an untimed and a timed form.
#[derive(Debug, Clone, Copy)]
enum Blocking {
    SemaphoreStrong,
    SemaphoreWeak,
    MonitorHoare,
    MonitorMesa,
    Serializer,
    PathExpr,
    ChannelSend,
}

impl Blocking {
    const ALL: [Blocking; 7] = [
        Blocking::SemaphoreStrong,
        Blocking::SemaphoreWeak,
        Blocking::MonitorHoare,
        Blocking::MonitorMesa,
        Blocking::Serializer,
        Blocking::PathExpr,
        Blocking::ChannelSend,
    ];
}

/// A budget no run of [`blocking_loop`] comes near.
const NEVER: u64 = 1 << 40;

/// `procs` processes each pass `ops` times through one critical section
/// guarded by `form`, emitting `cs` inside and yielding there so the
/// others block; for the channel, `procs` senders and one receiver that
/// emits each value. `timed` swaps every wait for its timed form at a
/// deadline of [`NEVER`] ticks.
fn blocking_loop(form: Blocking, timed: bool, procs: usize, ops: usize) -> bloom_sim::Sim {
    use bloom_channel::Channel;
    use bloom_monitor::{Cond, Monitor, Signaling};
    use bloom_pathexpr::PathResource;
    use bloom_semaphore::{Semaphore, TryResult};
    use bloom_serializer::Serializer;
    use bloom_sim::Ctx;
    use std::sync::Arc;

    type Pass = Arc<dyn Fn(&Ctx, i64) + Send + Sync>;
    let mut sim = bloom_sim::Sim::new();
    let pass: Pass = match form {
        Blocking::SemaphoreStrong | Blocking::SemaphoreWeak => {
            let sem = Arc::new(if matches!(form, Blocking::SemaphoreStrong) {
                Semaphore::strong("s", 1)
            } else {
                Semaphore::weak("s", 1)
            });
            Arc::new(move |ctx, i| {
                if timed {
                    assert_eq!(sem.p_by(ctx, NEVER), TryResult::Acquired);
                } else {
                    sem.p(ctx);
                }
                ctx.emit("cs", &[i]);
                ctx.yield_now();
                sem.v(ctx);
            })
        }
        Blocking::MonitorHoare | Blocking::MonitorMesa => {
            let signaling = if matches!(form, Blocking::MonitorHoare) {
                Signaling::Hoare
            } else {
                Signaling::SignalAndContinue
            };
            let m = Arc::new(Monitor::new("m", signaling, false));
            let free = Cond::new("free");
            Arc::new(move |ctx, i| {
                m.enter(ctx, |mc| {
                    while mc.state(|busy| *busy) {
                        if timed {
                            assert!(mc.wait_by(&free, NEVER));
                        } else {
                            mc.wait(&free);
                        }
                    }
                    mc.state(|busy| *busy = true);
                });
                ctx.emit("cs", &[i]);
                ctx.yield_now();
                m.enter(ctx, |mc| {
                    mc.state(|busy| *busy = false);
                    mc.signal(&free);
                });
            })
        }
        Blocking::Serializer => {
            let s = Arc::new(Serializer::new("s", false));
            let q = s.queue("q");
            Arc::new(move |ctx, i| {
                s.enter(ctx, |sc| {
                    if timed {
                        assert!(sc.enqueue_by(q, NEVER, |v| !*v.state()));
                    } else {
                        sc.enqueue(q, |v| !*v.state());
                    }
                    sc.state(|busy| *busy = true);
                });
                ctx.emit("cs", &[i]);
                ctx.yield_now();
                s.enter(ctx, |sc| sc.state(|busy| *busy = false));
            })
        }
        Blocking::PathExpr => {
            let r = Arc::new(PathResource::parse("r", "path op end").expect("static path"));
            Arc::new(move |ctx, i| {
                let body = || {
                    ctx.emit("cs", &[i]);
                    ctx.yield_now();
                };
                if timed {
                    assert!(r.perform_by(ctx, "op", NEVER, body).is_some());
                } else {
                    r.perform(ctx, "op", body);
                }
            })
        }
        Blocking::ChannelSend => {
            let ch = Arc::new(Channel::<i64>::new("ch"));
            let rx = Arc::clone(&ch);
            let total = procs * ops;
            sim.spawn("receiver", move |ctx| {
                for _ in 0..total {
                    let v = rx.recv(ctx);
                    ctx.emit("got", &[v]);
                }
            });
            Arc::new(move |ctx, i| {
                if timed {
                    assert!(ch.send_by(ctx, i, NEVER).is_ok());
                } else {
                    ch.send(ctx, i);
                }
            })
        }
    };
    for i in 0..procs {
        let pass = Arc::clone(&pass);
        sim.spawn(&format!("w{i}"), move |ctx| {
            for _ in 0..ops {
                pass(ctx, i as i64);
            }
        });
    }
    sim
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Every timed form is its untimed form when its deadline never
    /// fires: under FIFO and a random schedule, each mechanism's
    /// contended loop takes the same decisions and emits the same user
    /// events either way.
    #[test]
    fn timed_forms_agree_with_untimed_when_the_deadline_never_fires(
        procs in 2usize..5,
        ops in 1usize..4,
        seed in any::<u64>(),
    ) {
        use bloom_sim::EventKind;

        for form in Blocking::ALL {
            for policy in [None, Some(seed)] {
                let [untimed, timed] = [false, true].map(|timed| {
                    run(blocking_loop(form, timed, procs, ops), policy)
                        .unwrap_or_else(|e| panic!("{form:?} (timed: {timed}): {e}"))
                });
                let user = |report: &bloom_sim::SimReport| -> Vec<bloom_sim::Event> {
                    report
                        .trace
                        .events()
                        .iter()
                        .filter(|e| matches!(e.kind, EventKind::User { .. }))
                        .cloned()
                        .collect()
                };
                prop_assert_eq!(&untimed.decisions, &timed.decisions, "{:?} {:?}", form, policy);
                prop_assert_eq!(user(&untimed), user(&timed), "{:?} {:?}", form, policy);
            }
        }
    }

    /// Whatever the schedule, fairness, patience and retry budget, a
    /// timed-out P withdraws without consuming or leaking anything:
    /// mutual exclusion holds throughout and the permit survives the run.
    #[test]
    fn timed_semaphore_survives_withdrawals(
        strong in any::<bool>(),
        contenders in 2usize..6,
        patience in 1u64..8,
        attempts in 1usize..5,
        seed in any::<u64>(),
    ) {
        use bloom_semaphore::{Fairness, Semaphore, TryResult};
        use bloom_sim::prelude::*;
        use std::sync::Arc;

        let fairness = if strong { Fairness::Strong } else { Fairness::Weak };
        let mut sim = Sim::new();
        sim.set_policy(RandomPolicy::new(seed));
        let sem = Arc::new(Semaphore::new("res", 1, fairness));
        // (current holders, max holders, total served)
        let occupancy = Arc::new(parking_lot::Mutex::new((0u32, 0u32, 0u32)));
        for i in 0..contenders {
            let sem = Arc::clone(&sem);
            let occupancy = Arc::clone(&occupancy);
            sim.spawn(&format!("c{i}"), move |ctx| {
                for _ in 0..attempts {
                    if sem.p_by(ctx, patience) == TryResult::Acquired {
                        {
                            let mut o = occupancy.lock();
                            o.0 += 1;
                            o.1 = o.1.max(o.0);
                            o.2 += 1;
                        }
                        ctx.yield_now();
                        occupancy.lock().0 -= 1;
                        sem.v(ctx);
                        return;
                    }
                }
            });
        }
        sim.run().map_err(|e| TestCaseError::fail(e.to_string()))?;
        let (current, max, served) = *occupancy.lock();
        prop_assert_eq!(current, 0);
        prop_assert!(max <= 1, "exclusion violated");
        prop_assert!(served >= 1, "the first contender finds the permit free");
        prop_assert!(sem.try_p(), "a withdrawal leaked the permit");
    }

    /// Whatever the schedule, signalling discipline and patience, timed
    /// condition waits withdraw cleanly: each timeout re-acquires
    /// possession before returning, the busy-flag protocol never admits
    /// two holders, and the flag ends clear.
    #[test]
    fn timed_monitor_wait_survives_withdrawals(
        hoare in any::<bool>(),
        contenders in 2usize..6,
        patience in 1u64..8,
        attempts in 1usize..5,
        seed in any::<u64>(),
    ) {
        use bloom_monitor::{Cond, Monitor, Signaling};
        use bloom_sim::prelude::*;
        use std::sync::Arc;

        let signaling = if hoare { Signaling::Hoare } else { Signaling::SignalAndContinue };
        let mut sim = Sim::new();
        sim.set_policy(RandomPolicy::new(seed));
        let mon = Arc::new(Monitor::new("m", signaling, false));
        let free = Arc::new(Cond::new("free"));
        let occupancy = Arc::new(parking_lot::Mutex::new((0u32, 0u32, 0u32)));
        for i in 0..contenders {
            let mon = Arc::clone(&mon);
            let free = Arc::clone(&free);
            let occupancy = Arc::clone(&occupancy);
            sim.spawn(&format!("c{i}"), move |ctx| {
                let claimed = mon.enter(ctx, |mc| {
                    let mut budget = attempts;
                    while mc.state(|busy| *busy) {
                        if budget == 0 {
                            return false;
                        }
                        budget -= 1;
                        // A `false` return means the wait timed out; either
                        // way possession is ours again here.
                        let _ = mc.wait_by(&free, patience);
                    }
                    mc.state(|busy| *busy = true);
                    true
                });
                if claimed {
                    {
                        let mut o = occupancy.lock();
                        o.0 += 1;
                        o.1 = o.1.max(o.0);
                        o.2 += 1;
                    }
                    ctx.yield_now();
                    occupancy.lock().0 -= 1;
                    mon.enter(ctx, |mc| {
                        mc.state(|busy| *busy = false);
                        mc.signal(&free);
                    });
                }
            });
        }
        sim.run().map_err(|e| TestCaseError::fail(e.to_string()))?;
        let (current, max, served) = *occupancy.lock();
        prop_assert_eq!(current, 0);
        prop_assert!(max <= 1, "exclusion violated");
        prop_assert!(served >= 1, "the first contender finds the flag clear");
        // The flag ends clear: a fresh probe claims it without waiting.
        let mut probe = Sim::new();
        let mon2 = Arc::clone(&mon);
        probe.spawn("probe", move |ctx| {
            mon2.enter(ctx, |mc| assert!(mc.state(|busy| !*busy), "flag left set"));
        });
        probe.run().map_err(|e| TestCaseError::fail(e.to_string()))?;
    }
}

// ---------------------------------------------------------------------------
// CSP channel properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Rendezvous conservation: every value sent is received exactly once,
    /// in per-sender order, whatever the schedule.
    #[test]
    fn channel_conserves_messages(
        senders in 1usize..5,
        msgs in 1usize..6,
        seed in any::<u64>(),
    ) {
        use bloom_channel::Channel;
        use bloom_sim::prelude::*;
        use std::sync::Arc;

        let mut sim = Sim::new();
        sim.set_policy(RandomPolicy::new(seed));
        let ch = Arc::new(Channel::new("ch"));
        for s in 0..senders {
            let ch = Arc::clone(&ch);
            sim.spawn(&format!("s{s}"), move |ctx| {
                for m in 0..msgs {
                    ch.send(ctx, (s * 100 + m) as i64);
                }
            });
        }
        let ch2 = Arc::clone(&ch);
        let got = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        sim.spawn("receiver", move |ctx| {
            for _ in 0..senders * msgs {
                g.lock().push(ch2.recv(ctx));
            }
        });
        sim.run().map_err(|e| TestCaseError::fail(e.to_string()))?;
        let got = got.lock();
        prop_assert_eq!(got.len(), senders * msgs);
        for s in 0..senders as i64 {
            let per: Vec<i64> =
                got.iter().copied().filter(|v| v / 100 == s).map(|v| v % 100).collect();
            let expected: Vec<i64> = (0..msgs as i64).collect();
            prop_assert_eq!(per, expected, "per-sender FIFO order");
        }
    }

    /// Guarded select over a server loop never loses or duplicates
    /// requests, whatever the guard pattern the bounded buffer induces.
    #[test]
    fn csp_buffer_conserves_under_random_shapes(
        capacity in 1usize..5,
        producers in 1usize..4,
        per in 1usize..5,
        seed in any::<u64>(),
    ) {
        let report = run(buffer_sim(MechanismId::Csp, capacity, producers, 1, per), Some(seed))
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let (mut sent, mut received) = buffer_transfers(&report.trace);
        sent.sort_unstable();
        received.sort_unstable();
        prop_assert_eq!(sent, received);
    }
}

// ---------------------------------------------------------------------------
// Path token-machine conservation
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// For any single-path cyclic spec over a two-op sequence with a
    /// numeric bound, in-flight cycles never exceed the bound and the
    /// machine returns to its initial state.
    #[test]
    fn bounded_cycles_conserve_tokens(
        bound in 1u32..5,
        workers in 1usize..4,
        rounds in 1usize..4,
        seed in any::<u64>(),
    ) {
        use bloom_pathexpr::PathResource;
        use bloom_sim::prelude::*;
        use std::sync::Arc;

        let mut sim = Sim::new();
        sim.set_policy(RandomPolicy::new(seed));
        let r = Arc::new(
            PathResource::parse("p", &format!("path {bound} : (a ; b) end")).unwrap(),
        );
        let inflight = Arc::new(parking_lot::Mutex::new((0i64, 0i64)));
        for w in 0..workers {
            let r = Arc::clone(&r);
            let inflight = Arc::clone(&inflight);
            sim.spawn(&format!("w{w}"), move |ctx| {
                for _ in 0..rounds {
                    r.perform(ctx, "a", || {
                        let mut f = inflight.lock();
                        f.0 += 1;
                        f.1 = f.1.max(f.0);
                    });
                    ctx.yield_now();
                    r.perform(ctx, "b", || inflight.lock().0 -= 1);
                }
            });
        }
        sim.run().map_err(|e| TestCaseError::fail(e.to_string()))?;
        let (current, max) = *inflight.lock();
        prop_assert_eq!(current, 0);
        prop_assert!(max <= bound as i64);
        // Machine back at rest: a new cycle can start, b cannot.
        let r2 = Arc::clone(&r);
        let mut sim = Sim::new();
        sim.spawn("probe", move |ctx| {
            let _ = ctx;
            assert!(r2.can_start("a"));
            assert!(!r2.can_start("b"));
        });
        sim.run().unwrap();
    }
}
