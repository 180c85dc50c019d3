//! `mech-ops`: straight-line loops of each mechanism, on the simulator
//! (`Sim::run`, FIFO) and on real threads (`RtSim::run`).
//!
//! The shapes are `bench_realthread`'s: semaphore p/v, monitor enter,
//! serializer enter, path-expression perform, channel send/recv. Each
//! mechanism runs uncontended (one process) and contended (two processes;
//! channels add their receiving server to both). A contended simulator
//! cell yields inside the critical section, so the other process really
//! finds it held and parks; the benchmark checks that it did.
//!
//! Operation counts are fixed per cell and sized so that cells take
//! comparable time, so no mechanism's cells dominate `wall_s`.

use crate::clock::Clock;
use crate::spans::{span, Tracer, NO_RUN};
use crate::{Checks, Tally, Workload};
use bloom_channel::Channel;
use bloom_monitor::Monitor;
use bloom_pathexpr::PathResource;
use bloom_rt::{RtChannel, RtConfig, RtMonitor, RtPathResource, RtSemaphore, RtSerializer, RtSim};
use bloom_semaphore::Semaphore;
use bloom_serializer::Serializer;
use bloom_sim::{Sim, SimError, SimReport};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Barrier};
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mech {
    Semaphore,
    Monitor,
    Serializer,
    PathExpr,
    Channel,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    Sim,
    Rt,
}

/// One cell: a mechanism on a backend, with `procs` processes each doing
/// `ops` operations.
#[derive(Debug, Clone, Copy)]
struct Cell {
    mech: Mech,
    backend: Backend,
    procs: usize,
    ops: usize,
}

impl Cell {
    fn contended(&self) -> bool {
        self.procs > 1
    }

    fn name(&self) -> String {
        let mech = match self.mech {
            Mech::Semaphore => "semaphore",
            Mech::Monitor => "monitor",
            Mech::Serializer => "serializer",
            Mech::PathExpr => "pathexpr",
            Mech::Channel => "channel",
        };
        let backend = match self.backend {
            Backend::Sim => "sim",
            Backend::Rt => "rt",
        };
        let mode = if self.contended() {
            "contended"
        } else {
            "uncontended"
        };
        format!("{mech}.{backend}.{mode}")
    }

    fn total(&self) -> u64 {
        (self.procs * self.ops) as u64
    }
}

/// Operations per process of each cell: (mechanism, backend,
/// uncontended, contended).
const OPS: [(Mech, Backend, usize, usize); 10] = [
    (Mech::Semaphore, Backend::Sim, 240_000, 3_000),
    (Mech::Semaphore, Backend::Rt, 1_100_000, 3_000),
    (Mech::Monitor, Backend::Sim, 75_000, 2_500),
    (Mech::Monitor, Backend::Rt, 700_000, 3_000),
    (Mech::Serializer, Backend::Sim, 90_000, 2_500),
    (Mech::Serializer, Backend::Rt, 530_000, 3_000),
    (Mech::PathExpr, Backend::Sim, 94_000, 2_100),
    (Mech::PathExpr, Backend::Rt, 170_000, 2_800),
    (Mech::Channel, Backend::Sim, 6_000, 3_700),
    (Mech::Channel, Backend::Rt, 8_700, 7_300),
];

/// Operations per process of a warm-up run.
const WARM_UP_OPS: usize = 64;

/// A built cell, ready to run.
enum Runner {
    Sim(Sim),
    Rt(RtSim),
}

type SimBody = Box<dyn FnOnce(&bloom_sim::Ctx) + Send>;
type RtBody = Box<dyn FnOnce(&bloom_rt::RtCtx) + Send>;

/// Reads the mechanism's final state after a run: (what, got, want).
type FinalState = Box<dyn Fn() -> Vec<(&'static str, u64, u64)>>;

/// Counts one operation from inside a critical section with a plain load
/// and store, so a broken exclusion would lose updates.
fn bump(count: &AtomicU64) {
    count.store(count.load(Relaxed) + 1, Relaxed);
}

fn sim_cell(cell: Cell) -> (Runner, FinalState) {
    let mut sim = Sim::new();
    let (procs, ops, total, contended) = (cell.procs, cell.ops, cell.total(), cell.contended());
    let seen = Arc::new(AtomicU64::new(0));
    let spawn_each = |sim: &mut Sim, body: &dyn Fn() -> SimBody| {
        for i in 0..procs {
            sim.spawn(&format!("w{i}"), body());
        }
    };
    let state: FinalState = match cell.mech {
        Mech::Semaphore => {
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
        Mech::Monitor => {
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
        Mech::Serializer => {
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
        Mech::PathExpr => {
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
        Mech::Channel => {
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
    (Runner::Sim(sim), state)
}

fn rt_cell(cell: Cell) -> (Runner, FinalState) {
    let mut rt = RtSim::with_config(RtConfig {
        watchdog: Duration::from_secs(30),
        ..RtConfig::default()
    });
    let (procs, ops, total, contended) = (cell.procs, cell.ops, cell.total(), cell.contended());
    // Giving up the CPU inside the critical section makes the other
    // thread find it held, as the simulator cells' `yield_now` does.
    let hold = move || {
        if contended {
            std::thread::yield_now();
        }
    };
    let seen = Arc::new(AtomicU64::new(0));
    // The processes start together, so a contended cell contends from its
    // first operation instead of one thread finishing before the other
    // is scheduled.
    let start = Arc::new(Barrier::new(procs));
    let spawn_each = |rt: &mut RtSim, body: &dyn Fn() -> RtBody| {
        for i in 0..procs {
            let (body, start) = (body(), Arc::clone(&start));
            rt.spawn(&format!("w{i}"), move |ctx| {
                start.wait();
                body(ctx);
            });
        }
    };
    let state: FinalState = match cell.mech {
        Mech::Semaphore => {
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
        Mech::Monitor => {
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
        Mech::Serializer => {
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
        Mech::PathExpr => {
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
        Mech::Channel => {
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
    (Runner::Rt(rt), state)
}

fn build(cell: Cell) -> (Runner, FinalState) {
    match cell.backend {
        Backend::Sim => sim_cell(cell),
        Backend::Rt => rt_cell(cell),
    }
}

pub struct MechOps {
    cells: Vec<Cell>,
}

impl MechOps {
    /// Lays out the twenty cells in seed order and warms each up with a
    /// short run.
    pub fn new(seed: u64, checks: &mut Checks) -> Self {
        let mut cells = Vec::new();
        for (mech, backend, uncontended, contended) in OPS {
            cells.push(Cell {
                mech,
                backend,
                procs: 1,
                ops: uncontended,
            });
            cells.push(Cell {
                mech,
                backend,
                procs: 2,
                ops: contended,
            });
        }
        crate::explore::shuffle(&mut cells, seed);
        let ops = MechOps { cells };
        for (item, &cell) in ops.cells.iter().enumerate() {
            ops.run_cell(
                Cell {
                    ops: WARM_UP_OPS,
                    ..cell
                },
                item,
                None,
                checks,
            );
        }
        ops
    }

    /// Builds, runs and checks one cell.
    fn run_cell(&self, cell: Cell, item: usize, tracer: Option<&Tracer>, checks: &mut Checks) {
        let item = item as u32;
        let name = cell.name();
        span(tracer, "cell", item, NO_RUN, || {
            let run = tracer.map_or(NO_RUN, Tracer::next_run);
            let (runner, state) = span(tracer, "setup", item, run, || build(cell));
            let result: Result<SimReport, SimError> = match runner {
                Runner::Sim(sim) => span(tracer, "kernel", item, run, || sim.run()),
                Runner::Rt(rt) => span(tracer, "rt", item, run, || rt.run()),
            };
            span(tracer, "check", item, run, || {
                checks.expect(&format!("{name}: run is clean"), result.is_ok());
                for (what, got, want) in state() {
                    checks.expect_eq(&format!("{name}: {what}"), got, want);
                }
                if let Ok(report) = &result {
                    if cell.backend == Backend::Sim {
                        if let Some(t) = tracer {
                            t.note(report);
                        }
                        if cell.contended() {
                            checks.expect(
                                &format!("{name}: processes parked (the cell contends)"),
                                report.metrics.total_parks() > 0,
                            );
                        }
                    }
                }
            });
        });
    }
}

impl Workload for MechOps {
    fn items(&self) -> Vec<(String, u64)> {
        self.cells.iter().map(|c| (c.name(), c.total())).collect()
    }

    /// Cells are short: the clock measures the reference between them.
    fn run_item(
        &mut self,
        item: usize,
        tracer: Option<&Tracer>,
        _clock: &Clock,
        checks: &mut Checks,
    ) -> Tally {
        self.run_cell(self.cells[item], item, tracer, checks);
        Tally::default()
    }

    /// Cells run `Sim::run` directly under their own `kernel` spans, so
    /// there is nothing to replay.
    fn replay(&self, _tracer: &Tracer, _checks: &mut Checks) {}

    /// Straight-line FIFO runs have a single schedule; the determinism
    /// self-check is that a repeated simulator cell dispatches identically.
    fn self_check(&self, checks: &mut Checks) {
        for cell in self.cells.iter().filter(|c| c.backend == Backend::Sim) {
            let run = |cell: Cell| match build(cell).0 {
                Runner::Sim(sim) => sim
                    .run()
                    .ok()
                    .map(|r| (r.metrics.dispatches, r.metrics.total_parks())),
                Runner::Rt(_) => None,
            };
            let small = Cell {
                ops: WARM_UP_OPS,
                ..*cell
            };
            let (a, b) = (run(small), run(small));
            checks.expect(
                &format!("{}: repeated run dispatches identically", cell.name()),
                a.is_some() && a == b,
            );
        }
    }
}
