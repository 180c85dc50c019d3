//! Real-thread measurement companion to the R4 conformance suite:
//! wall-clock throughput of the five mechanisms on OS threads
//! (`bloom-rt`) next to the simulator executing the *identical* shape.
//! Writes `BENCH_realthread.json` at the repo root (archived in
//! EXPERIMENTS.md §R4).
//!
//! ```text
//! taskset -c 0 cargo run --release -p bloom-bench --bin bench_realthread
//! ```
//!
//! The mechanism rows time [`bloom_bench::loops`] uncontended (one
//! process of 20 000 operations) and contended (four of 5 000, each
//! yielding inside the critical section). Every cell runs five times; the
//! archive keeps the median `secs` with `min_secs` and `max_secs`, and
//! each simulator cell's `parks` and `sync_ops` (the counted mechanism
//! operations per kind), which FIFO makes exact: a contended row that
//! never parked did not contend, and CI pins every cell's counts so that
//! cheaper counting cannot change what is counted.
//!
//! Like `bench_explore`, wall-clock time is confined to the measurement
//! binaries — the deterministic report (`report.rs`) stays
//! machine-independent, and nothing here feeds `docs/report.txt`. The
//! numbers answer the paper-era question the simulator cannot: what the
//! five disciplines *cost* on metal, uncontended and contended, and what
//! the simulator's one-running-process execution model costs relative to
//! free-running threads on the same workload. Correctness on real
//! threads is the conformance suite's job (`tests/rt_conformance.rs`);
//! this binary only asserts that every run was clean and left the final
//! state its loop's readback wants.

use bloom_bench::loops::{rt_loop, rt_sim, sim_loop, LoopMech, Readback};
use bloom_monitor::Monitor;
use bloom_rt::{RtMonitor, RtSerializer, RtSim};
use bloom_serializer::Serializer;
use bloom_sim::Sim;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Operations per uncontended cell (one process, back to back).
const OPS: usize = 20_000;
/// Processes in the contended cells; each performs `OPS / CONTENDERS` ops.
const CONTENDERS: usize = 4;
/// Timed runs per cell; the archive keeps their median and extremes.
const RUNS: usize = 5;

/// A built cell, ready to run.
enum Runner {
    Sim(Sim),
    Rt(RtSim),
}

/// `RUNS` timed runs of one cell on one backend.
struct Timing {
    /// Each run's seconds, sorted.
    secs: Vec<f64>,
    /// The simulator's parks and counted operations per kind, per run
    /// (FIFO makes them the same every run); `None` on real threads.
    counts: Option<(u64, BTreeMap<String, u64>)>,
}

/// Builds and runs a cell `RUNS` times, timing only the runs, and asserts
/// after each that the run was clean and left the final state its
/// readback wants.
fn time_cell(name: &str, build: impl Fn() -> (Runner, Readback)) -> Timing {
    let mut secs = Vec::with_capacity(RUNS);
    let mut counts = None;
    for _ in 0..RUNS {
        let (runner, readback) = build();
        let start = Instant::now();
        let (result, on_sim) = match runner {
            Runner::Sim(sim) => (sim.run(), true),
            Runner::Rt(rt) => (rt.run(), false),
        };
        secs.push(start.elapsed().as_secs_f64());
        let report = result.unwrap_or_else(|err| panic!("{name}: bench run failed: {err}"));
        for (what, got, want) in readback() {
            assert_eq!(got, want, "{name}: {what}");
        }
        if on_sim {
            let run = (report.metrics.total_parks(), report.metrics.sync_ops);
            if let Some(counts) = &counts {
                assert_eq!(counts, &run, "{name}: FIFO runs count alike");
            }
            counts = Some(run);
        }
    }
    secs.sort_by(f64::total_cmp);
    Timing { secs, counts }
}

impl Timing {
    fn median(&self) -> f64 {
        self.secs[self.secs.len() / 2]
    }

    fn ops_per_sec(&self, ops: usize) -> f64 {
        ops as f64 / self.median()
    }

    fn json(&self, ops: usize) -> String {
        let counts = self.counts.as_ref().map_or(String::new(), |(parks, sync)| {
            let sync: Vec<String> = sync.iter().map(|(k, n)| format!("\"{k}\": {n}")).collect();
            format!(
                ", \"parks\": {parks}, \"sync_ops\": {{ {} }}",
                sync.join(", ")
            )
        });
        format!(
            "{{ \"secs\": {:.6}, \"min_secs\": {:.6}, \"max_secs\": {:.6}, \
             \"ops_per_sec\": {:.0}{counts} }}",
            self.median(),
            self.secs[0],
            self.secs[self.secs.len() - 1],
            self.ops_per_sec(ops)
        )
    }
}

/// Times one problem row on both backends from its two spawn functions.
/// The row has no readback: its run only has to be clean.
fn time_problem(
    name: &str,
    build_sim: impl Fn(&mut Sim),
    build_real: impl Fn(&mut RtSim),
) -> (Timing, Timing) {
    let no_readback = || -> Readback { Box::new(Vec::new) };
    let sim = time_cell(&format!("{name} sim"), || {
        let mut sim = Sim::new();
        build_sim(&mut sim);
        (Runner::Sim(sim), no_readback())
    });
    let real = time_cell(&format!("{name} real"), || {
        let mut rt = rt_sim();
        build_real(&mut rt);
        (Runner::Rt(rt), no_readback())
    });
    (sim, real)
}

fn acquire_entry(mech: LoopMech, mode: &str, procs: usize, ops: usize) -> String {
    let total = procs * ops;
    let name = format!("{} ({mode})", mech.name());
    let sim = time_cell(&format!("{name} sim"), || {
        let (sim, readback) = sim_loop(mech, procs, ops);
        (Runner::Sim(sim), readback)
    });
    let real = time_cell(&format!("{name} real"), || {
        let (rt, readback) = rt_loop(mech, procs, ops);
        (Runner::Rt(rt), readback)
    });
    eprintln!(
        "{name}: sim {:.0} ops/s, real {:.0} ops/s",
        sim.ops_per_sec(total),
        real.ops_per_sec(total)
    );
    format!(
        "{{\n      \"mechanism\": \"{}\",\n      \"mode\": \"{mode}\",\n      \
         \"threads\": {procs},\n      \"ops\": {total},\n      \
         \"sim\": {},\n      \"real\": {}\n    }}",
        mech.name(),
        sim.json(total),
        real.json(total)
    )
}

/// One-slot buffer on the Hoare monitor (the R4 conformance scenario's
/// shape, scaled to `items` hand-offs): producer and consumer alternate
/// through `notfull`/`notempty`.
fn oneslot(items: usize) -> (String, String) {
    let build_sim = |sim: &mut Sim| {
        let m = Arc::new(Monitor::hoare("buf", None::<i64>));
        let notfull = Arc::new(bloom_monitor::Cond::new("notfull"));
        let notempty = Arc::new(bloom_monitor::Cond::new("notempty"));
        m.register_cond(&notfull);
        m.register_cond(&notempty);
        let (m1, nf1, ne1) = (Arc::clone(&m), Arc::clone(&notfull), Arc::clone(&notempty));
        sim.spawn("producer", move |ctx| {
            for i in 0..items {
                m1.enter(ctx, |mc| {
                    while mc.state(|s| s.is_some()) {
                        mc.wait(&nf1);
                    }
                    mc.state(|s| *s = Some(i as i64));
                    mc.signal(&ne1);
                });
            }
        });
        let (m2, nf2, ne2) = (m, notfull, notempty);
        sim.spawn("consumer", move |ctx| {
            for _ in 0..items {
                m2.enter(ctx, |mc| {
                    while mc.state(|s| s.is_none()) {
                        mc.wait(&ne2);
                    }
                    mc.state(|s| *s = None);
                    mc.signal(&nf2);
                });
            }
        });
    };
    let build_real = |rt: &mut RtSim| {
        let m = Arc::new(RtMonitor::hoare("buf", None::<i64>));
        let notfull = Arc::new(bloom_rt::RtCond::new("notfull"));
        let notempty = Arc::new(bloom_rt::RtCond::new("notempty"));
        m.register_cond(&notfull);
        m.register_cond(&notempty);
        let (m1, nf1, ne1) = (Arc::clone(&m), Arc::clone(&notfull), Arc::clone(&notempty));
        rt.spawn("producer", move |ctx| {
            for i in 0..items {
                m1.enter(ctx, |mc| {
                    while mc.state(|s| s.is_some()) {
                        mc.wait(&nf1);
                    }
                    mc.state(|s| *s = Some(i as i64));
                    mc.signal(&ne1);
                });
            }
        });
        let (m2, nf2, ne2) = (m, notfull, notempty);
        rt.spawn("consumer", move |ctx| {
            for _ in 0..items {
                m2.enter(ctx, |mc| {
                    while mc.state(|s| s.is_none()) {
                        mc.wait(&ne2);
                    }
                    mc.state(|s| *s = None);
                    mc.signal(&nf2);
                });
            }
        });
    };
    let (sim, real) = time_problem("one-slot-buffer", build_sim, build_real);
    eprintln!(
        "one-slot-buffer: sim {:.0} items/s, real {:.0} items/s",
        sim.ops_per_sec(items),
        real.ops_per_sec(items)
    );
    (sim.json(items), real.json(items))
}

/// Readers/writers on the serializer (crowds for readers, exclusive
/// writer), `rounds` operations per process.
fn readers_writers(rounds: usize) -> (String, String) {
    let build_sim = |sim: &mut Sim| {
        let s = Arc::new(Serializer::new("db", ()));
        let readers = s.crowd("readers");
        let writers = s.crowd("writers");
        let q = s.queue("main");
        for name in ["reader1", "reader2"] {
            let s = Arc::clone(&s);
            sim.spawn(name, move |ctx| {
                for _ in 0..rounds {
                    s.enter(ctx, |sc| {
                        sc.enqueue(q, move |g| g.crowd_is_empty(writers));
                        sc.join_crowd(readers, || ());
                    });
                }
            });
        }
        let s2 = Arc::clone(&s);
        sim.spawn("writer", move |ctx| {
            for _ in 0..rounds {
                s2.enter(ctx, |sc| {
                    sc.enqueue(q, move |g| {
                        g.crowd_is_empty(readers) && g.crowd_is_empty(writers)
                    });
                    sc.join_crowd(writers, || ());
                });
            }
        });
    };
    let build_real = |rt: &mut RtSim| {
        let s = Arc::new(RtSerializer::new("db", ()));
        let readers = s.crowd("readers");
        let writers = s.crowd("writers");
        let q = s.queue("main");
        for name in ["reader1", "reader2"] {
            let s = Arc::clone(&s);
            rt.spawn(name, move |ctx| {
                for _ in 0..rounds {
                    s.enter(ctx, |sc| {
                        sc.enqueue(q, move |g| g.crowd_is_empty(writers));
                        sc.join_crowd(readers, || ());
                    });
                }
            });
        }
        let s2 = Arc::clone(&s);
        rt.spawn("writer", move |ctx| {
            for _ in 0..rounds {
                s2.enter(ctx, |sc| {
                    sc.enqueue(q, move |g| {
                        g.crowd_is_empty(readers) && g.crowd_is_empty(writers)
                    });
                    sc.join_crowd(writers, || ());
                });
            }
        });
    };
    let total = rounds * 3;
    let (sim, real) = time_problem("readers-writers", build_sim, build_real);
    eprintln!(
        "readers-writers: sim {:.0} ops/s, real {:.0} ops/s",
        sim.ops_per_sec(total),
        real.ops_per_sec(total)
    );
    (sim.json(total), real.json(total))
}

fn main() {
    let meta = bloom_bench::hostmeta::json_fields();
    eprintln!(
        "host: {} core(s) available",
        bloom_bench::hostmeta::host_cores()
    );

    let mut acquire_entries = Vec::new();
    for mech in LoopMech::ALL {
        for (mode, procs) in [("uncontended", 1), ("contended", CONTENDERS)] {
            acquire_entries.push(acquire_entry(mech, mode, procs, OPS / procs));
        }
    }

    let (oneslot_sim, oneslot_real) = oneslot(10_000);
    let (rw_sim, rw_real) = readers_writers(3_000);
    let problems = [
        format!(
            "{{\n      \"problem\": \"one-slot-buffer\",\n      \"mechanism\": \"monitor\",\n      \
             \"ops\": 10000,\n      \"sim\": {oneslot_sim},\n      \"real\": {oneslot_real}\n    }}"
        ),
        format!(
            "{{\n      \"problem\": \"readers-writers\",\n      \"mechanism\": \"serializer\",\n      \
             \"ops\": 9000,\n      \"sim\": {rw_sim},\n      \"real\": {rw_real}\n    }}"
        ),
    ];

    let json = format!(
        "{{\n  {meta},\n  \"tick_micros\": 200,\n  \"runs_per_cell\": {RUNS},\n  \
         \"acquire\": [\n    {}\n  ],\n  \"problems\": [\n    {}\n  ]\n}}\n",
        acquire_entries.join(",\n    "),
        problems.join(",\n    ")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_realthread.json");
    std::fs::write(path, &json).expect("write BENCH_realthread.json");
    println!("{json}");
}
