//! The lane engine (`logp_sim::engine::shard`) at scale: pins for
//! dispatch, lane-count invariance and classic agreement, and a
//! streaming-observability run at up to P = 1M.
//!
//! The run is one 8-lane optimal broadcast at `P = --p N` (default
//! 100,000) with the streaming observability stack live; see [`run`].
//! Wall-clock lane speedups are the ledger's `sim.shard.*_speedup_*`
//! (`bash benchmark/run.sh`); the wall time the run prints on stderr is
//! for humans.
//!
//! The check: `shards == 1` is bit-identical to the legacy engine on the
//! ping-pong and hot-spot all-to-all workloads, lane counts {2, 4, 8}
//! are bit-identical to each other (capacity on and off, observed and
//! bare), the classic and lane engines agree on the workload projection
//! when both are uncapped, and the P = 1M broadcast/all-reduce agree
//! between the classic engine and 2/8 lanes.

use std::time::Instant;

use logp_algos::allreduce::run_allreduce_reduce_bcast;
use logp_algos::broadcast::run_optimal_broadcast;
use logp_bench::{all_to_all_sim, ping_pong_sim, Args, Flag};
use logp_core::LogP;
use logp_sim::{SimConfig, SimResult};

/// The engine-independent outcome two engines must agree on.
fn projection(r: &SimResult) -> (u64, u64, u64, Vec<(u64, u64)>) {
    (
        r.stats.completion,
        r.stats.total_msgs,
        r.stats.msgs_dropped,
        r.stats
            .procs
            .iter()
            .map(|p| (p.msgs_sent, p.msgs_recvd))
            .collect(),
    )
}

/// Correctness pins: dispatch, lane-count invariance, classic agreement,
/// and the P = 1M scale target.
pub fn check(_: &Args) {
    let m16 = LogP::new(6, 2, 4, 16).expect("valid model");

    // 1-shard ≡ legacy engine, bit for bit, on the ping-pong and hot-spot
    // workloads (`shards: 1` must dispatch to the classic engine).
    for config in [SimConfig::default(), SimConfig::observed()] {
        let legacy = ping_pong_sim(config.clone(), 100_000).run().unwrap();
        let one = ping_pong_sim(config.clone().with_shards(1), 100_000)
            .run()
            .unwrap();
        assert_eq!(legacy, one, "ping_pong: 1-shard diverged from legacy");
        let legacy = all_to_all_sim(m16, config.clone(), 400, false)
            .run()
            .unwrap();
        let one = all_to_all_sim(m16, config.clone().with_shards(1), 400, false)
            .run()
            .unwrap();
        assert_eq!(legacy, one, "all_to_all: 1-shard diverged from legacy");
    }
    eprintln!("check: 1-shard ≡ legacy engine on hotloop workloads ... ok");

    // Lane counts {2, 4, 8} are bit-identical, capacity on and off,
    // observed and bare, on both blast orders (the convoying
    // destination-0-first order and the staggered schedule).
    let m256 = LogP::new(6, 2, 4, 256).expect("valid model");
    for (observed, capacity, stagger) in [
        (false, true, false),
        (false, true, true),
        (true, true, true),
        (false, false, true),
    ] {
        let base = if observed {
            SimConfig::observed()
        } else {
            SimConfig::default()
        };
        let mut config = base;
        config.enforce_capacity = capacity;
        let run = |n: u32| {
            all_to_all_sim(m256, config.clone().with_shards(n), 2, stagger)
                .run()
                .unwrap()
        };
        let r2 = run(2);
        assert_eq!(r2, run(4), "2 vs 4 lanes diverged (obs={observed})");
        assert_eq!(r2, run(8), "2 vs 8 lanes diverged (obs={observed})");
        // Uncapped, both engines enforce no admission at all and agree
        // exactly on the workload outcome.
        if !capacity {
            let classic = all_to_all_sim(m256, config.clone(), 2, stagger)
                .run()
                .unwrap();
            assert_eq!(
                projection(&classic),
                projection(&r2),
                "classic vs lanes diverged uncapped"
            );
        }
    }
    eprintln!("check: lane counts 2/4/8 bit-identical on all_to_all ... ok");

    // The P = 1M scale target: broadcast and all-reduce complete and
    // agree between the classic engine and 2/8 lanes.
    let m1m = LogP::new(60, 4, 8, 1_000_000).expect("valid model");
    let classic = run_optimal_broadcast(&m1m, SimConfig::default());
    for shards in [2u32, 8] {
        let lanes = run_optimal_broadcast(&m1m, SimConfig::default().with_shards(shards));
        assert_eq!(
            projection(&classic.result),
            projection(&lanes.result),
            "P=1M broadcast diverged at {shards} lanes"
        );
    }
    eprintln!("check: P=1M broadcast classic ≡ 2/8 lanes ... ok");

    let values: Vec<f64> = (0..m1m.p).map(|q| (q % 31) as f64).collect();
    let c = run_allreduce_reduce_bcast(&m1m, &values, SimConfig::default());
    let s = run_allreduce_reduce_bcast(&m1m, &values, SimConfig::default().with_shards(8));
    assert_eq!(c.value, s.value, "P=1M all-reduce value diverged");
    assert_eq!(
        c.completion, s.completion,
        "P=1M all-reduce completion diverged"
    );
    assert_eq!(c.messages, s.messages, "P=1M all-reduce messages diverged");
    eprintln!("check: P=1M all-reduce classic ≡ 8 lanes ... ok");

    println!("shard_scale --check: all pins hold");
}

/// The flags `shard_scale` declares.
pub const FLAGS: &[Flag] = &[Flag::Int("--p")];

/// One sharded broadcast at `P = --p` with the streaming
/// observability stack live — `PerfettoSink` if `--stream --trace-out`
/// was given (aggregation-only otherwise), engine vitals always — and
/// the invariants that make the artifacts trustworthy asserted inline.
/// Memory stays bounded by in-flight messages, which is the point: this
/// is the configuration that exports traces at scales where retaining
/// the log would not fit.
pub fn run(args: &Args) {
    let (obs, p) = (&args.obs, args.int("--p").unwrap_or(100_000));
    let m = LogP::new(60, 4, 8, p).expect("valid model");
    let label = format!("bcast{p}");
    let config = obs
        .apply_for(&label, SimConfig::default().with_shards(8))
        .with_aggregate(true);
    let t0 = Instant::now();
    let run = run_optimal_broadcast(&m, config);
    let secs = t0.elapsed().as_secs_f64();
    let res = &run.result;
    assert!(res.obs.is_empty(), "streaming must retain no records");
    let agg = res.aggregate.as_ref().expect("aggregate maintained");
    assert_eq!(agg.delivered, u64::from(p) - 1, "every processor reached");
    assert_eq!(
        agg.critical_total, run.completion,
        "online critical path must land on the last arrival"
    );
    let v = &res.vitals;
    assert_eq!(v.engine, "sharded");
    assert_eq!(v.lane_events.iter().sum::<u64>(), v.events);
    obs.write(&label, res);
    eprintln!(
        "shard_scale: P={p} broadcast, completion {}, {} delivered, {:.2}s wall, \
         {:.0} events/sec, {} lanes, {} windows, {} fast-forwards",
        run.completion,
        agg.delivered,
        secs,
        v.events_per_sec(),
        v.lanes,
        v.windows,
        v.fast_forwards
    );
    println!("shard_scale: ok");
}
