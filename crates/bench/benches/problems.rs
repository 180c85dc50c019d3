//! B1b: whole-problem throughput, mechanism vs mechanism.
//!
//! One benchmark per canonical problem, identical workload across
//! mechanisms. The interesting output is the *ordering and ratios*
//! between mechanisms on the same problem (who pays for what machinery),
//! not absolute wall-clock numbers (which include the deterministic
//! simulator's hand-off costs).

use bloom_core::MechanismId;
use bloom_problems::drivers::{
    alarm_sim, buffer_sim, disk_sim, fcfs_sim, oneslot_sim, run, rw_sim,
};
use bloom_problems::rw::RwVariant;
use bloom_problems::{alarm, buffer, disk, fcfs, oneslot, rw};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_problems(c: &mut Criterion) {
    let mut group = c.benchmark_group("oneslot");
    group.sample_size(15);
    for mech in oneslot::MECHANISMS {
        group.bench_with_input(BenchmarkId::from_parameter(mech), &mech, |b, &mech| {
            b.iter(|| run(oneslot_sim(mech, 25), None).unwrap());
        });
    }
    group.finish();

    let mut group = c.benchmark_group("bounded_buffer");
    group.sample_size(15);
    for mech in buffer::MECHANISMS {
        group.bench_with_input(BenchmarkId::from_parameter(mech), &mech, |b, &mech| {
            b.iter(|| run(buffer_sim(mech, 4, 2, 2, 10), None).unwrap());
        });
    }
    group.finish();

    let mut group = c.benchmark_group("fcfs_resource");
    group.sample_size(15);
    for mech in fcfs::MECHANISMS {
        group.bench_with_input(BenchmarkId::from_parameter(mech), &mech, |b, &mech| {
            b.iter(|| run(fcfs_sim(mech, 5, 6), None).unwrap());
        });
    }
    group.finish();

    for variant in [RwVariant::ReadersPriority, RwVariant::Fcfs] {
        let mut group = c.benchmark_group(format!("rw_{variant:?}"));
        group.sample_size(15);
        for mech in rw::MECHANISMS {
            group.bench_with_input(BenchmarkId::from_parameter(mech), &mech, |b, &mech| {
                b.iter(|| run(rw_sim(mech, variant, 4, 2, 4), None).unwrap());
            });
        }
        group.finish();
    }

    let mut group = c.benchmark_group("disk_scheduler");
    group.sample_size(15);
    for mech in disk::MECHANISMS {
        group.bench_with_input(BenchmarkId::from_parameter(mech), &mech, |b, &mech| {
            b.iter(|| run(disk_sim(mech, 4, 5, 7), None).unwrap());
        });
    }
    group.finish();

    let mut group = c.benchmark_group("alarm_clock");
    group.sample_size(15);
    for mech in alarm::MECHANISMS {
        group.bench_with_input(BenchmarkId::from_parameter(mech), &mech, |b, &mech| {
            b.iter(|| run(alarm_sim(mech, 6, 5), None).unwrap());
        });
    }
    group.finish();

    // The evaluation-methodology hot paths themselves.
    let mut group = c.benchmark_group("methodology");
    group.sample_size(20);
    group.bench_function("minimal_cover", |b| {
        let cat = bloom_core::catalog();
        let target = bloom_core::full_target(&cat);
        b.iter(|| bloom_core::minimal_cover(&cat, &target));
    });
    group.bench_function("independence_rw_family", |b| {
        let rp = rw::make(MechanismId::Monitor, RwVariant::ReadersPriority).desc();
        let wp = rw::make(MechanismId::Monitor, RwVariant::WritersPriority).desc();
        b.iter(|| bloom_core::independence(&rp, &wp));
    });
    group.finish();
}

criterion_group!(benches, bench_problems);
criterion_main!(benches);
