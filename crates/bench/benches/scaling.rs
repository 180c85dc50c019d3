//! B1c: substrate scaling — simulator and mechanism cost as the process
//! count grows.
//!
//! Fixed total work (process count × operations is constant) over a
//! contended FCFS resource, per mechanism: shows how each mechanism's
//! wake-up machinery scales with the number of waiters, plus the
//! simulator's own scheduling cost as a baseline.

use bloom_problems::drivers::{fcfs_sim, run};
use bloom_problems::fcfs;
use bloom_sim::{Sim, SimConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const TOTAL_OPS: usize = 96;

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler_baseline");
    group.sample_size(12);
    for procs in [2usize, 8, 24] {
        group.bench_with_input(BenchmarkId::from_parameter(procs), &procs, |b, &procs| {
            b.iter(|| {
                let mut sim = Sim::with_config(SimConfig {
                    max_steps: 500_000,
                    record_sched_events: false,
                    ..SimConfig::default()
                });
                let per = TOTAL_OPS / procs;
                for i in 0..procs {
                    sim.spawn(&format!("p{i}"), move |ctx| {
                        for _ in 0..per {
                            ctx.yield_now();
                        }
                    });
                }
                sim.run().unwrap();
            })
        });
    }
    group.finish();

    for mech in fcfs::MECHANISMS {
        let mut group = c.benchmark_group(format!("fcfs_scaling_{mech}"));
        group.sample_size(12);
        for procs in [2usize, 8, 24] {
            group.bench_with_input(BenchmarkId::from_parameter(procs), &procs, |b, &procs| {
                let per = TOTAL_OPS / procs;
                b.iter(|| run(fcfs_sim(mech, procs, per), None).unwrap());
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
