//! Simulator-engine throughput: how fast the discrete-event LogP machine
//! itself runs (events/second), across representative workloads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use logp_algos::remap::{run_remap, RemapSchedule, RemapSpec};
use logp_bench::{AllToAll, PingPong};
use logp_core::LogP;
use logp_sim::{Ctx, Data, Sim, SimConfig};

fn bench_hot_loop(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine/hot_loop");
    g.sample_size(15);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.warm_up_time(std::time::Duration::from_secs(1));
    let pair = LogP::new(6, 2, 4, 2).unwrap();
    let rounds = 10_000u64;
    g.throughput(Throughput::Elements(rounds + 1)); // messages per run
    g.bench_function("ping_pong", |b| {
        b.iter(|| {
            let mut sim = Sim::new(pair, SimConfig::default());
            sim.set_all(|_| Box::new(PingPong { rounds }));
            sim.run().expect("terminates")
        })
    });
    let m = LogP::new(6, 2, 4, 16).unwrap();
    let a2a_rounds = 40u64;
    g.throughput(Throughput::Elements(a2a_rounds * 16 * 15));
    g.bench_function("all_to_all", |b| {
        b.iter(|| {
            let mut sim = Sim::new(m, SimConfig::default());
            sim.set_all(|_| Box::new(AllToAll::new(a2a_rounds, false)));
            sim.run().expect("terminates")
        })
    });
    g.finish();
}

fn bench_broadcast_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine/broadcast");
    g.sample_size(15);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.warm_up_time(std::time::Duration::from_secs(1));
    for p in [16u32, 64, 256] {
        let m = LogP::new(60, 20, 40, p).unwrap();
        g.throughput(Throughput::Elements(p as u64));
        g.bench_with_input(BenchmarkId::from_parameter(p), &m, |b, m| {
            b.iter(|| logp_algos::broadcast::run_optimal_broadcast(m, SimConfig::default()))
        });
    }
    g.finish();
}

fn bench_remap_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine/remap");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.warm_up_time(std::time::Duration::from_secs(1));
    for (p, elems) in [(16u32, 32u64), (32, 32), (64, 16)] {
        let m = LogP::new(60, 20, 40, p).unwrap();
        let msgs = (p as u64) * (p as u64 - 1) * elems;
        g.throughput(Throughput::Elements(msgs));
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("P{p}x{elems}")),
            &(m, elems),
            |b, (m, elems)| {
                b.iter(|| {
                    run_remap(
                        m,
                        &RemapSpec {
                            elems_per_pair: *elems,
                            local_cost: 10,
                            schedule: RemapSchedule::Staggered,
                        },
                        SimConfig::default(),
                    )
                })
            },
        );
    }
    g.finish();
}

fn bench_hot_spot_engine(c: &mut Criterion) {
    // Capacity-stall handling is the engine's most contended path.
    let mut g = c.benchmark_group("engine/hot_spot");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.warm_up_time(std::time::Duration::from_secs(1));
    for p in [16u32, 64] {
        let m = LogP::new(60, 20, 40, p).unwrap();
        g.bench_with_input(BenchmarkId::from_parameter(p), &m, |b, m| {
            b.iter(|| {
                let mut sim = Sim::new(*m, SimConfig::default());
                sim.set_all(|me| {
                    Box::new(logp_sim::process::StartFn(move |ctx: &mut Ctx<'_>| {
                        if me != 0 {
                            for _ in 0..32 {
                                ctx.send(0, 0, Data::Empty);
                            }
                        }
                    }))
                });
                sim.run().expect("terminates")
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_hot_loop,
    bench_broadcast_engine,
    bench_remap_engine,
    bench_hot_spot_engine
);
criterion_main!(benches);
