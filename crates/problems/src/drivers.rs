//! Scenario builders: each spawns a workload against a solution and
//! returns the unrun [`Sim`]; [`run`] runs one under a chosen policy.
//!
//! Every builder is deterministic given its arguments, and [`run`] is
//! deterministic given its seed: `None` keeps the FIFO policy, `Some(s)`
//! installs the seeded random policy. [`crate::suite`] fixes the shape and
//! the runs each T1 cell is checked under; tests and benches pick their
//! own.

use crate::events::DEPOSIT;
use crate::{alarm, buffer, disk, fcfs, oneslot, rw};
use bloom_core::MechanismId;
use bloom_sim::{RandomPolicy, Sim, SimError, SimReport, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// User event a buffer consumer emits with each value `remove` returned
/// (see [`buffer_transfers`]).
pub const REMOVED: &str = "removed";

/// Runs `sim` under the FIFO policy (`seed = None`) or the seeded random
/// policy.
pub fn run(mut sim: Sim, seed: Option<u64>) -> Result<SimReport, SimError> {
    if let Some(s) = seed {
        sim.set_policy(RandomPolicy::new(s));
    }
    sim.run()
}

/// One producer deposits `0..n_values`, one consumer removes them all.
pub fn oneslot_sim(mech: MechanismId, n_values: i64) -> Sim {
    let mut sim = Sim::new();
    let buf = oneslot::make(mech);
    let b = Arc::clone(&buf);
    sim.spawn("consumer", move |ctx| {
        for _ in 0..n_values {
            b.remove(ctx);
            ctx.yield_now();
        }
    });
    let b = Arc::clone(&buf);
    sim.spawn("producer", move |ctx| {
        for v in 0..n_values {
            b.deposit(ctx, v);
            ctx.yield_now();
        }
    });
    sim
}

/// `producers`×`per_producer` deposits against matching removes over a
/// buffer of `capacity`. Each consumer emits every value it removed as a
/// [`REMOVED`] event (`Ctx::emit` is not a scheduling point, so the
/// schedule is unchanged); [`buffer_transfers`] reads the values back.
pub fn buffer_sim(
    mech: MechanismId,
    capacity: usize,
    producers: usize,
    consumers: usize,
    per_producer: usize,
) -> Sim {
    assert_eq!(
        producers * per_producer % consumers,
        0,
        "consumers must evenly divide total items"
    );
    let mut sim = Sim::new();
    let buf = buffer::make(mech, capacity);
    for p in 0..producers {
        let b = Arc::clone(&buf);
        sim.spawn(&format!("producer{p}"), move |ctx| {
            for i in 0..per_producer {
                b.deposit(ctx, (p * per_producer + i) as i64);
                ctx.yield_now();
            }
        });
    }
    let per_consumer = producers * per_producer / consumers;
    for c in 0..consumers {
        let b = Arc::clone(&buf);
        sim.spawn(&format!("consumer{c}"), move |ctx| {
            for _ in 0..per_consumer {
                let v = b.remove(ctx);
                ctx.emit(REMOVED, &[v]);
                ctx.yield_now();
            }
        });
    }
    sim
}

/// The values a [`buffer_sim`] run moved, each in trace order: the
/// deposited ones (the `req:deposit` params) and the ones consumers
/// received from `remove` ([`REMOVED`] events). The received side is what
/// the client got back, not what the solution logged as `exit:remove`.
pub fn buffer_transfers(trace: &Trace) -> (Vec<i64>, Vec<i64>) {
    let mut deposited = Vec::new();
    let mut removed = Vec::new();
    for (_, label, params) in trace.user_events() {
        if label == REMOVED {
            removed.push(params[0]);
        } else if label.strip_prefix("req:") == Some(DEPOSIT) {
            deposited.push(params[0]);
        }
    }
    (deposited, removed)
}

/// `n_workers` each use the FCFS resource `uses_each` times with varying
/// think times.
pub fn fcfs_sim(mech: MechanismId, n_workers: usize, uses_each: usize) -> Sim {
    let mut sim = Sim::new();
    let res = fcfs::make(mech);
    for w in 0..n_workers {
        let r = Arc::clone(&res);
        sim.spawn(&format!("worker{w}"), move |ctx| {
            for _ in 0..uses_each {
                r.with_resource(ctx, &mut || {
                    ctx.yield_now(); // hold the resource across a quantum
                });
                for _ in 0..(w % 3) {
                    ctx.yield_now(); // staggered think time
                }
            }
        });
    }
    sim
}

/// Mixed readers/writers workload against a given variant's solution.
pub fn rw_sim(
    mech: MechanismId,
    variant: rw::RwVariant,
    readers: usize,
    writers: usize,
    ops_each: usize,
) -> Sim {
    let mut sim = Sim::new();
    let db = rw::make(mech, variant);
    for r in 0..readers {
        let db = Arc::clone(&db);
        sim.spawn(&format!("reader{r}"), move |ctx| {
            for _ in 0..ops_each {
                db.read(ctx, &mut || ctx.yield_now());
                for _ in 0..(r % 2) {
                    ctx.yield_now();
                }
            }
        });
    }
    for w in 0..writers {
        let db = Arc::clone(&db);
        sim.spawn(&format!("writer{w}"), move |ctx| {
            for _ in 0..ops_each {
                db.write(ctx, &mut || ctx.yield_now());
                ctx.yield_now();
            }
        });
    }
    sim
}

/// Footnote 3's scenario: `writers` writers, then `readers` readers, one
/// operation each with no think time (explorers cover every interleaving,
/// so no yield steers the schedule). A lone reader is named `reader`, as
/// in the F1a traces.
pub fn footnote3_sim(
    mech: MechanismId,
    variant: rw::RwVariant,
    writers: usize,
    readers: usize,
) -> Sim {
    let mut sim = Sim::new();
    let db = rw::make(mech, variant);
    for i in 0..writers {
        let db = Arc::clone(&db);
        sim.spawn(&format!("writer{i}"), move |ctx| {
            db.write(ctx, &mut || ctx.yield_now());
        });
    }
    for i in 0..readers {
        let db = Arc::clone(&db);
        let name = if readers == 1 {
            "reader".to_string()
        } else {
            format!("reader{i}")
        };
        sim.spawn(&name, move |ctx| {
            db.read(ctx, &mut || ctx.yield_now());
        });
    }
    sim
}

/// The anomaly+background tree of the prune measurements: F1a's path-v1
/// scenario ([`footnote3_sim`] with two writers and one reader) plus one
/// `background` process working a private semaphore. Every quantum of the
/// bare scenario touches the one shared path machine, so no reduction can
/// help there; the background worker is the minimal independent load,
/// whose quanta conflict with nothing the anomaly processes touch.
pub fn anomaly_background_sim() -> Sim {
    let mut sim = footnote3_sim(MechanismId::PathV1, rw::RwVariant::ReadersPriority, 2, 1);
    let side = Arc::new(bloom_semaphore::Semaphore::strong("side", 1));
    sim.spawn("background", move |ctx| {
        side.p(ctx);
        ctx.yield_now();
        side.v(ctx);
    });
    sim
}

/// `n_processes` clients each issue `seeks_each` seeks at tracks drawn from
/// `workload_seed`, with random pauses, against the disk scheduler.
pub fn disk_sim(
    mech: MechanismId,
    n_processes: usize,
    seeks_each: usize,
    workload_seed: u64,
) -> Sim {
    let mut sim = Sim::new();
    let disk = disk::make(mech);
    for p in 0..n_processes {
        let d = Arc::clone(&disk);
        let mut rng = StdRng::seed_from_u64(workload_seed.wrapping_add(p as u64));
        sim.spawn(&format!("client{p}"), move |ctx| {
            for _ in 0..seeks_each {
                let track = rng.gen_range(0..200);
                d.seek(ctx, track, &mut || {});
                let pause = rng.gen_range(0..3);
                for _ in 0..pause {
                    ctx.yield_now();
                }
            }
        });
    }
    sim
}

/// Sleepers request wake-up delays drawn from `workload_seed` while a
/// ticker advances the logical clock.
pub fn alarm_sim(mech: MechanismId, n_sleepers: usize, workload_seed: u64) -> Sim {
    let mut sim = Sim::new();
    let clock = alarm::make(mech);
    let mut rng = StdRng::seed_from_u64(workload_seed);
    for s in 0..n_sleepers {
        let c = Arc::clone(&clock);
        let delay = rng.gen_range(1..30i64);
        sim.spawn(&format!("sleeper{s}"), move |ctx| {
            c.wake_me(ctx, delay);
        });
    }
    let c = Arc::clone(&clock);
    sim.spawn_daemon("ticker", move |ctx| loop {
        ctx.sleep(2);
        c.tick(ctx);
    });
    sim
}
