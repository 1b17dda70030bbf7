//! Shard-scale benchmark: wall-clock throughput of one simulation run
//! versus lane count on the sharded engine (`logp_sim::engine::shard`).
//!
//! Workloads:
//!
//! * `all_to_all` — P = 1024 processors exchanging a full round of
//!   P−1 sends each under the ⌈L/g⌉ source window, destinations walked
//!   in the staggered `(me + k) % P` order (the standard hot-spot-free
//!   schedule); the heap-pressure worst case (every processor has
//!   events in flight at all times).
//! * `broadcast_1m` / `allreduce_1m` — the optimal single-datum
//!   broadcast and the reduce-broadcast all-reduce at P = 1,000,000:
//!   the scale target the sharded engine exists for.
//!
//! Throughput is reported in **legacy-equivalent events/sec**: the
//! numerator is always the *classic* engine's event count for the
//! workload, whatever lane count actually ran. The sharded engine
//! replaces per-message `Release` bookkeeping events with source rings
//! and relaxes destination-side admission (see `DESIGN.md`), so its own
//! event count is smaller by design; holding the numerator fixed makes
//! the column a pure wall-clock ratio on identical workloads.
//!
//! `--check` runs the correctness pins instead of timing sweeps:
//! `shards == 1` is bit-identical to the legacy engine on the ping-pong
//! and hot-spot all-to-all workloads, lane counts {2, 4, 8} are
//! bit-identical to each other (capacity on and off, observed and bare), the classic
//! and lane engines agree on the workload projection when both are
//! uncapped, and the P = 1M broadcast/all-reduce agree between the
//! classic engine and 2/8 lanes.
//!
//! Prints one JSON object to stdout (`--json PATH` writes it to a file
//! instead); the table on stderr is for humans. `--reps N` overrides
//! the repetition count for the all_to_all sweep.

use std::time::Instant;

use logp_algos::allreduce::run_allreduce_reduce_bcast;
use logp_algos::broadcast::run_optimal_broadcast;
use logp_bench::{AllToAll, ObsArgs, PingPong};
use logp_core::LogP;
use logp_sim::{Sim, SimConfig, SimResult};

fn all_to_all_sim(m: LogP, config: SimConfig, rounds: u64, stagger: bool) -> Sim {
    let mut sim = Sim::new(m, config);
    sim.set_all(move |_| Box::new(AllToAll::new(rounds, stagger)));
    sim
}

fn ping_pong_sim(config: SimConfig, rounds: u64) -> Sim {
    let pair = LogP::new(6, 2, 4, 2).expect("valid model");
    let mut sim = Sim::new(pair, config);
    sim.set_all(move |_| Box::new(PingPong { rounds }));
    sim
}

/// Wall time of the fastest repetition plus the (deterministic) result
/// of the reference run.
fn time_best(reps: u32, run: impl Fn() -> SimResult) -> (f64, SimResult) {
    let reference = run();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = run();
        best = best.min(t0.elapsed().as_secs_f64());
        assert_eq!(
            r.stats.completion, reference.stats.completion,
            "benchmark runs must be deterministic across reps"
        );
    }
    (best, reference)
}

struct LanePoint {
    shards: u32,
    best_secs: f64,
    own_events: u64,
}

struct Sweep {
    name: &'static str,
    p: u32,
    legacy_events: u64,
    msgs: u64,
    completion: u64,
    reps: u32,
    points: Vec<LanePoint>,
}

impl Sweep {
    fn json(&self) -> String {
        let base = self.points[0].best_secs;
        let pts: Vec<String> = self
            .points
            .iter()
            .map(|pt| {
                format!(
                    "{{\"shards\":{},\"best_secs\":{:.6},\"own_events\":{},\"legacy_events_per_sec\":{:.0},\"speedup\":{:.3}}}",
                    pt.shards,
                    pt.best_secs,
                    pt.own_events,
                    self.legacy_events as f64 / pt.best_secs,
                    base / pt.best_secs
                )
            })
            .collect();
        format!(
            "{{\"name\":\"{}\",\"host_cores\":{},\"p\":{},\"legacy_events\":{},\"msgs\":{},\"completion\":{},\"reps\":{},\"points\":[{}]}}",
            self.name,
            host_cores(),
            self.p,
            self.legacy_events,
            self.msgs,
            self.completion,
            self.reps,
            pts.join(",")
        )
    }

    fn print(&self) {
        eprintln!(
            "\n{} (P = {}, {} msgs, {} legacy events, completion {}):",
            self.name, self.p, self.msgs, self.legacy_events, self.completion
        );
        eprintln!(
            "{:>8} {:>12} {:>12} {:>20} {:>9}",
            "shards", "best_secs", "own_events", "legacy events/sec", "speedup"
        );
        let base = self.points[0].best_secs;
        for pt in &self.points {
            eprintln!(
                "{:>8} {:>12.4} {:>12} {:>20.0} {:>8.2}x",
                pt.shards,
                pt.best_secs,
                pt.own_events,
                self.legacy_events as f64 / pt.best_secs,
                base / pt.best_secs
            );
        }
    }
}

/// Time one workload across shard counts. `shards == 1` dispatches to
/// the classic engine and anchors both the speedup baseline and the
/// legacy event count.
fn sweep(
    name: &'static str,
    p: u32,
    reps: u32,
    shard_counts: &[u32],
    run: impl Fn(u32) -> SimResult,
) -> Sweep {
    let mut legacy = None;
    let mut points = Vec::new();
    for &s in shard_counts {
        let (best, r) = time_best(reps, || run(s));
        if s <= 1 {
            legacy = Some((r.stats.events, r.stats.total_msgs, r.stats.completion));
        }
        points.push(LanePoint {
            shards: s,
            best_secs: best,
            own_events: r.stats.events,
        });
    }
    let (legacy_events, msgs, completion) =
        legacy.expect("shard sweep must include the 1-shard baseline");
    Sweep {
        name,
        p,
        legacy_events,
        msgs,
        completion,
        reps,
        points,
    }
}

/// Logical cores visible to this process. Recorded in *every* JSON
/// section, not just the envelope: sections are routinely copy-pasted
/// into comparisons on their own, and timings are meaningless without
/// the host attached. See EXPERIMENTS.md.
fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0)
}

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

/// Correctness pins for CI: `--check` exercises dispatch, lane-count
/// invariance, classic agreement, and the P = 1M scale target, then
/// exits without timing anything.
fn check() {
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

/// `--obs-smoke`: one sharded broadcast at `P = p` with the streaming
/// observability stack live — `PerfettoSink` if `--stream --trace-out`
/// was given (aggregation-only otherwise), engine vitals always — and
/// the invariants that make the artifacts trustworthy asserted inline.
/// Memory stays bounded by in-flight messages, which is the point: this
/// is the configuration that exports traces at scales where retaining
/// the log would not fit.
fn obs_smoke(obs: &ObsArgs, p: u32) {
    let m = LogP::new(60, 4, 8, p).expect("valid model");
    let label = format!("bcast{p}");
    let mut config = obs.apply_for(&label, SimConfig::default().with_shards(8));
    if !config.aggregate {
        config = config.with_aggregate(true);
    }
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
        "obs-smoke: P={p} broadcast, completion {}, {} delivered, {:.2}s wall, \
         {:.0} events/sec, {} lanes, {} windows, {} fast-forwards",
        run.completion,
        agg.delivered,
        secs,
        v.events_per_sec(),
        v.lanes,
        v.windows,
        v.fast_forwards
    );
    println!("shard_scale --obs-smoke: ok");
}

fn main() {
    let mut reps: u32 = 3;
    let mut json_path: Option<String> = None;
    let mut run_check = false;
    let mut run_obs_smoke = false;
    let mut smoke_p: u32 = 100_000;
    let obs = ObsArgs::from_args();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--reps" => {
                reps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--reps takes a positive integer");
            }
            "--json" => {
                json_path = Some(args.next().expect("--json takes a file path"));
            }
            "--check" => run_check = true,
            "--obs-smoke" => run_obs_smoke = true,
            "--p" => {
                smoke_p = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--p takes a processor count");
            }
            // Parsed by ObsArgs::from_args.
            "--trace-out" | "--metrics-out" | "--vitals-out" => {
                args.next();
            }
            "--stream" => {}
            other => {
                panic!(
                    "unknown argument {other:?} (expected --reps N | --json PATH | --check | \
                     --obs-smoke [--p N] | --stream | \
                     --trace-out/--metrics-out/--vitals-out PREFIX)"
                )
            }
        }
    }

    if run_check {
        check();
        return;
    }
    if run_obs_smoke {
        obs_smoke(&obs, smoke_p);
        return;
    }

    let shard_counts = [1u32, 2, 4, 8];

    // The heap-pressure workload: P = 1024, one full exchange round.
    let m1k = LogP::new(6, 2, 4, 1024).expect("valid model");
    let a2a = sweep("all_to_all", m1k.p, reps, &shard_counts, |s| {
        all_to_all_sim(m1k, SimConfig::default().with_shards(s), 1, true)
            .run()
            .unwrap()
    });
    a2a.print();

    // The scale target: collectives at P = 1M, one timed run each (the
    // runs are seconds long; rep noise is negligible at that scale).
    let m1m = LogP::new(60, 4, 8, 1_000_000).expect("valid model");
    let bcast = sweep("broadcast_1m", m1m.p, 1, &shard_counts, |s| {
        run_optimal_broadcast(&m1m, SimConfig::default().with_shards(s)).result
    });
    bcast.print();

    let values: Vec<f64> = (0..m1m.p).map(|q| (q % 31) as f64).collect();
    let ared = sweep("allreduce_1m", m1m.p, 1, &[1, 8], |s| {
        let run = run_allreduce_reduce_bcast(&m1m, &values, SimConfig::default().with_shards(s));
        run.result
    });
    ared.print();

    // 1-shard parity on the ping-pong and all-to-all workloads: `shards: 1` must
    // dispatch to the classic engine and pay nothing for the sharding
    // feature. Classic and 1-shard repetitions are interleaved in this
    // same process so both sides see identical machine conditions
    // (absolute numbers from another session were recorded under
    // different co-tenant load; the same-session classic run is the
    // anchor for the ±1% claim). The workloads keep the hotloop shapes
    // but run ~4× longer, lifting each repetition well above the
    // timer-noise floor of a shared 1-core box.
    let parity = |build: &dyn Fn(SimConfig) -> Sim| {
        let reference = build(SimConfig::default()).run().unwrap();
        let mut best_c = f64::INFINITY;
        let mut best_s = f64::INFINITY;
        for _ in 0..30 {
            let t0 = Instant::now();
            build(SimConfig::default()).run().unwrap();
            best_c = best_c.min(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            build(SimConfig::default().with_shards(1)).run().unwrap();
            best_s = best_s.min(t0.elapsed().as_secs_f64());
        }
        (reference.stats.events, best_c, best_s)
    };
    let (pp_events, pp_c, pp_s) = parity(&|c| ping_pong_sim(c, 400_000));
    let (aa_events, aa_c, aa_s) = parity(&|c| all_to_all_sim(m1k.with_p(16), c, 1600, false));
    eprintln!("\n1-shard hotloop parity (classic vs with_shards(1), interleaved):");
    eprintln!(
        "{:>12} {:>12} {:>14} {:>14} {:>8}",
        "workload", "events", "classic ev/s", "1-shard ev/s", "delta"
    );
    let mut parity_items = Vec::new();
    for (name, events, best_c, best_s) in [
        ("ping_pong", pp_events, pp_c, pp_s),
        ("all_to_all", aa_events, aa_c, aa_s),
    ] {
        let delta_pct = (best_c / best_s - 1.0) * 100.0;
        eprintln!(
            "{:>12} {:>12} {:>14.0} {:>14.0} {:>+7.2}%",
            name,
            events,
            events as f64 / best_c,
            events as f64 / best_s,
            delta_pct
        );
        parity_items.push(format!(
            "{{\"name\":\"{}\",\"host_cores\":{},\"events\":{},\"classic_best_secs\":{:.6},\"one_shard_best_secs\":{:.6},\"classic_events_per_sec\":{:.0},\"one_shard_events_per_sec\":{:.0},\"delta_pct\":{:.2}}}",
            name,
            host_cores(),
            events,
            best_c,
            best_s,
            events as f64 / best_c,
            events as f64 / best_s,
            delta_pct
        ));
    }

    let json = format!(
        "{{\"bench\":\"shard_scale\",\"host_cores\":{},\"sweeps\":[{},{},{}],\"hotloop_parity\":[{}]}}",
        host_cores(),
        a2a.json(),
        bcast.json(),
        ared.json(),
        parity_items.join(","),
    );
    match json_path {
        Some(path) => std::fs::write(&path, format!("{json}\n")).expect("write --json file"),
        None => println!("{json}"),
    }
}
