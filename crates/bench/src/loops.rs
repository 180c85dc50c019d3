//! The five mechanism loops that the throughput harnesses time: semaphore
//! p/v, monitor enter, serializer enter, path-expression perform and
//! channel send/receive, each built for the simulator ([`sim_loop`]) and
//! for real threads ([`rt_loop`]).
//!
//! Both twins share one shape. `procs` processes `w0`, `w1`, … each do
//! `ops` operations; the channel adds one `server` that receives all
//! `procs · ops` messages. With more than one process, each yields inside
//! the critical section (`Ctx::yield_now` on the simulator, a thread yield
//! on real threads), so the others really find it held and block. On real
//! threads every process starts at once: `RtSim::run` releases no body
//! before every thread is live.
//!
//! Each builder returns the unrun runtime and a [`Readback`] of the final
//! state that the run must leave. Under FIFO the simulator's parks are
//! exact: none for an uncontended non-channel loop, `procs · ops − 1` for
//! a contended one (every operation but the first finds the critical
//! section held), and `procs · ops` for the channel (one per message: a
//! rendezvous always leaves one side waiting for the other).

use bloom_channel::Channel;
use bloom_monitor::Monitor;
use bloom_pathexpr::PathResource;
use bloom_rt::{
    RtChannel, RtConfig, RtCtx, RtMonitor, RtPathResource, RtSemaphore, RtSerializer, RtSim,
};
use bloom_semaphore::Semaphore;
use bloom_serializer::Serializer;
use bloom_sim::{Ctx, Sim};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

/// The mechanism a loop exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopMech {
    /// `p`, then `v`, on one strong semaphore of one permit.
    Semaphore,
    /// One Hoare-monitor entry that bumps the protected counter.
    Monitor,
    /// One serializer entry that bumps the protected counter.
    Serializer,
    /// One `perform` of `op` under `path op end`.
    PathExpr,
    /// One rendezvous send to the server.
    Channel,
}

impl LoopMech {
    /// Every mechanism, in the archive's row order.
    pub const ALL: [LoopMech; 5] = [
        LoopMech::Semaphore,
        LoopMech::Monitor,
        LoopMech::Serializer,
        LoopMech::PathExpr,
        LoopMech::Channel,
    ];

    /// The mechanism's name in `BENCH_realthread.json`.
    pub fn name(self) -> &'static str {
        match self {
            LoopMech::Semaphore => "semaphore",
            LoopMech::Monitor => "monitor",
            LoopMech::Serializer => "serializer",
            LoopMech::PathExpr => "pathexpr",
            LoopMech::Channel => "channel",
        }
    }
}

/// Reads a loop's final state after its run: `(what, got, want)` triples.
pub type Readback = Box<dyn Fn() -> Vec<(&'static str, u64, u64)>>;

type SimBody = Box<dyn FnOnce(&Ctx) + Send>;
type RtBody = Box<dyn FnOnce(&RtCtx) + Send>;

/// Counts one operation from inside a critical section with a plain load
/// and store, so a broken exclusion would lose updates.
fn bump(count: &AtomicU64) {
    count.store(count.load(Relaxed) + 1, Relaxed);
}

/// The simulator loop of `mech`: `procs` processes of `ops` operations.
pub fn sim_loop(mech: LoopMech, procs: usize, ops: usize) -> (Sim, Readback) {
    let mut sim = Sim::new();
    let (total, contended) = ((procs * ops) as u64, procs > 1);
    let seen = Arc::new(AtomicU64::new(0));
    let spawn_each = |sim: &mut Sim, body: &dyn Fn() -> SimBody| {
        for i in 0..procs {
            sim.spawn(&format!("w{i}"), body());
        }
    };
    let readback: Readback = match mech {
        LoopMech::Semaphore => {
            let sem = Arc::new(Semaphore::strong("s", 1));
            spawn_each(&mut sim, &|| {
                let (s, seen) = (Arc::clone(&sem), Arc::clone(&seen));
                Box::new(move |ctx| {
                    for _ in 0..ops {
                        s.p(ctx);
                        bump(&seen);
                        if contended {
                            ctx.yield_now();
                        }
                        s.v(ctx);
                    }
                })
            });
            Box::new(move || {
                vec![
                    ("critical sections", seen.load(Relaxed), total),
                    ("permits", sem.value(), 1),
                ]
            })
        }
        LoopMech::Monitor => {
            let m = Arc::new(Monitor::hoare("m", 0u64));
            spawn_each(&mut sim, &|| {
                let (m, seen) = (Arc::clone(&m), Arc::clone(&seen));
                Box::new(move |ctx| {
                    for _ in 0..ops {
                        m.enter(ctx, |mc| {
                            mc.state(|v| {
                                *v += 1;
                                seen.store(*v, Relaxed);
                            });
                            if contended {
                                ctx.yield_now();
                            }
                        });
                    }
                })
            });
            Box::new(move || vec![("monitor state", seen.load(Relaxed), total)])
        }
        LoopMech::Serializer => {
            let s = Arc::new(Serializer::new("s", 0u64));
            spawn_each(&mut sim, &|| {
                let (s, seen) = (Arc::clone(&s), Arc::clone(&seen));
                Box::new(move |ctx| {
                    for _ in 0..ops {
                        s.enter(ctx, |sc| {
                            sc.state(|v| {
                                *v += 1;
                                seen.store(*v, Relaxed);
                            });
                            if contended {
                                ctx.yield_now();
                            }
                        });
                    }
                })
            });
            Box::new(move || vec![("serializer state", seen.load(Relaxed), total)])
        }
        LoopMech::PathExpr => {
            let r = Arc::new(PathResource::parse("r", "path op end").expect("static path"));
            spawn_each(&mut sim, &|| {
                let (r, seen) = (Arc::clone(&r), Arc::clone(&seen));
                Box::new(move |ctx| {
                    for _ in 0..ops {
                        r.perform(ctx, "op", || {
                            bump(&seen);
                            if contended {
                                ctx.yield_now();
                            }
                        });
                    }
                })
            });
            Box::new(move || {
                vec![
                    ("operation bodies", seen.load(Relaxed), total),
                    ("completed operations", r.completed_count("op"), total),
                ]
            })
        }
        LoopMech::Channel => {
            let ch = Arc::new(Channel::<u64>::new("ch"));
            spawn_each(&mut sim, &|| {
                let ch = Arc::clone(&ch);
                Box::new(move |ctx| {
                    for _ in 0..ops {
                        ch.send(ctx, 1);
                    }
                })
            });
            let received = Arc::clone(&seen);
            sim.spawn("server", move |ctx| {
                let sum: u64 = (0..total).map(|_| ch.recv(ctx)).sum();
                received.store(sum, Relaxed);
            });
            Box::new(move || vec![("received", seen.load(Relaxed), total)])
        }
    };
    (sim, readback)
}

/// An empty real-thread runtime whose watchdog suits long straight-line
/// runs rather than the short conformance scenarios its default is sized
/// for.
pub fn rt_sim() -> RtSim {
    RtSim::with_config(RtConfig {
        watchdog: Duration::from_secs(120),
        ..RtConfig::default()
    })
}

/// The real-thread loop of `mech`: [`sim_loop`]'s shape on OS threads.
pub fn rt_loop(mech: LoopMech, procs: usize, ops: usize) -> (RtSim, Readback) {
    let mut rt = rt_sim();
    let (total, contended) = ((procs * ops) as u64, procs > 1);
    // Giving up the CPU inside the critical section makes another thread
    // find it held, as the simulator loop's `yield_now` does.
    let hold = move || {
        if contended {
            std::thread::yield_now();
        }
    };
    let seen = Arc::new(AtomicU64::new(0));
    let spawn_each = |rt: &mut RtSim, body: &dyn Fn() -> RtBody| {
        for i in 0..procs {
            rt.spawn(&format!("w{i}"), body());
        }
    };
    let readback: Readback = match mech {
        LoopMech::Semaphore => {
            let sem = Arc::new(RtSemaphore::strong("s", 1));
            spawn_each(&mut rt, &|| {
                let (s, seen) = (Arc::clone(&sem), Arc::clone(&seen));
                Box::new(move |ctx| {
                    for _ in 0..ops {
                        s.p(ctx);
                        bump(&seen);
                        hold();
                        s.v(ctx);
                    }
                })
            });
            Box::new(move || {
                vec![
                    ("critical sections", seen.load(Relaxed), total),
                    ("permits", sem.value(), 1),
                ]
            })
        }
        LoopMech::Monitor => {
            let m = Arc::new(RtMonitor::hoare("m", 0u64));
            spawn_each(&mut rt, &|| {
                let (m, seen) = (Arc::clone(&m), Arc::clone(&seen));
                Box::new(move |ctx| {
                    for _ in 0..ops {
                        m.enter(ctx, |mc| {
                            mc.state(|v| {
                                *v += 1;
                                seen.store(*v, Relaxed);
                            });
                            hold();
                        });
                    }
                })
            });
            Box::new(move || vec![("monitor state", seen.load(Relaxed), total)])
        }
        LoopMech::Serializer => {
            let s = Arc::new(RtSerializer::new("s", 0u64));
            spawn_each(&mut rt, &|| {
                let (s, seen) = (Arc::clone(&s), Arc::clone(&seen));
                Box::new(move |ctx| {
                    for _ in 0..ops {
                        s.enter(ctx, |sc| {
                            sc.state(|v| {
                                *v += 1;
                                seen.store(*v, Relaxed);
                            });
                            hold();
                        });
                    }
                })
            });
            Box::new(move || vec![("serializer state", seen.load(Relaxed), total)])
        }
        LoopMech::PathExpr => {
            let r = Arc::new(RtPathResource::parse("r", "path op end").expect("static path"));
            spawn_each(&mut rt, &|| {
                let (r, seen) = (Arc::clone(&r), Arc::clone(&seen));
                Box::new(move |ctx| {
                    for _ in 0..ops {
                        r.perform(ctx, "op", || {
                            bump(&seen);
                            hold();
                        });
                    }
                })
            });
            Box::new(move || {
                vec![
                    ("operation bodies", seen.load(Relaxed), total),
                    ("completed operations", r.completed_count("op"), total),
                ]
            })
        }
        LoopMech::Channel => {
            let ch = Arc::new(RtChannel::<u64>::new("ch"));
            spawn_each(&mut rt, &|| {
                let ch = Arc::clone(&ch);
                Box::new(move |ctx| {
                    for _ in 0..ops {
                        ch.send(ctx, 1);
                    }
                })
            });
            let received = Arc::clone(&seen);
            rt.spawn("server", move |ctx| {
                let sum: u64 = (0..total).map(|_| ch.recv(ctx)).sum();
                received.store(sum, Relaxed);
            });
            Box::new(move || vec![("received", seen.load(Relaxed), total)])
        }
    };
    (rt, readback)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_readback(readback: Readback, cell: &str) {
        for (what, got, want) in readback() {
            assert_eq!(got, want, "{cell}: {what}");
        }
    }

    /// Every loop at 1, 2 and 4 processes of 64 operations leaves the
    /// final state its operations imply on both backends, and parks
    /// exactly as often on the simulator as the module doc says: a
    /// contended loop really contends.
    #[test]
    fn every_loop_reads_back_its_final_state_on_both_backends() {
        const OPS: usize = 64;
        for mech in LoopMech::ALL {
            for procs in [1, 2, 4] {
                let cell = format!("{} x{procs}", mech.name());
                let (sim, readback) = sim_loop(mech, procs, OPS);
                let report = sim.run().expect("simulator loop is clean");
                assert_readback(readback, &format!("{cell} sim"));
                let parks = match (mech, procs) {
                    (LoopMech::Channel, _) => procs * OPS,
                    (_, 1) => 0,
                    _ => procs * OPS - 1,
                };
                assert_eq!(
                    report.metrics.total_parks(),
                    parks as u64,
                    "{cell} sim parks"
                );
                let (rt, readback) = rt_loop(mech, procs, OPS);
                rt.run().expect("real-thread loop is clean");
                assert_readback(readback, &format!("{cell} rt"));
            }
        }
    }
}
