//! Determinism and correctness properties of the fault-injection layer
//! (see `docs/FAILURE_MODEL.md`): seeded fault plans replay
//! bit-identically on any worker count, fault decisions are monotone in
//! the configured rate, and the reliable collectives complete correctly
//! under a 5% drop rate on every machine preset.

use logp::algos::allreduce::run_reliable_allreduce;
use logp::algos::broadcast::{run_reliable_broadcast, run_survivor_broadcast};
use logp::algos::reduce::run_reliable_sum;
use logp::algos::resilient::ResilientError;
use logp::core::rng::CounterRng;
use logp::prelude::*;
use logp::sim::reliable::{Endpoint, RetryConfig};
use logp::sim::runner::{sweep_map, Threads};
use logp::sim::{Cause, FaultPlan};

#[path = "common/cases.rs"]
mod cases;
use cases::{check, check_machines, draw};

const DROP_PPM: [u32; 3] = [0, 50_000, 150_000];

/// A small random machine (modest parameters keep the loops fast).
fn machine(rng: &mut CounterRng) -> LogP {
    let (l, o, g) = (draw(rng, 1..=20), draw(rng, 0..=8), draw(rng, 1..=10));
    LogP::new(l, o, g, draw(rng, 2..=16) as u32).expect("generated parameters are valid")
}

fn retry_for(m: &LogP) -> RetryConfig {
    RetryConfig::for_tree(m, m.p).with_max_retries(16)
}

/// One measured sweep row, compared bit-for-bit across thread counts.
fn sweep_rows(m: &LogP, seed: u64, threads: Threads) -> Vec<(u64, u64, u64, u64)> {
    sweep_map(threads, &DROP_PPM, |&ppm| {
        let plan = FaultPlan::new(seed).with_drop_ppm(ppm);
        let run = run_reliable_broadcast(m, &plan, retry_for(m), SimConfig::default())
            .expect("no crashes");
        (
            run.completion,
            run.retries,
            run.result.stats.msgs_dropped,
            run.result.stats.total_msgs,
        )
    })
}

/// P0 sends one reliable message to P1; records the delivery instant.
struct ReliablePing {
    ep: Endpoint,
    got: SharedCell<Vec<u64>>,
}

impl Process for ReliablePing {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.me() == 0 {
            self.ep.send(ctx, 1, 7, Data::U64(1));
        }
    }
    fn on_message(&mut self, msg: &Message, ctx: &mut Ctx<'_>) {
        if self.ep.on_message(msg, ctx).is_some() {
            let now = ctx.now();
            self.got.with(|v| v.push(now));
        }
    }
    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        self.ep.on_timer(tag, ctx);
    }
}

/// Delivery time of a single reliable message under `drop_ppm`.
fn reliable_ping_delivery(m: &LogP, seed: u64, drop_ppm: u32) -> u64 {
    let plan = FaultPlan::new(seed).with_drop_ppm(drop_ppm);
    let got: SharedCell<Vec<u64>> = SharedCell::new();
    let retry = retry_for(m);
    let mut sim = Sim::new(m.with_p(2), SimConfig::default().with_faults(plan));
    let g = got.clone();
    sim.set_all(move |_| {
        Box::new(ReliablePing {
            ep: Endpoint::new(retry.clone()),
            got: g.clone(),
        })
    });
    sim.run().unwrap();
    let got = got.get();
    assert_eq!(got.len(), 1, "the message must eventually deliver");
    got[0]
}

/// A seeded fault plan replays bit-identically on 1, 4, and 8 worker
/// threads: the whole measured sweep row must match.
#[test]
fn fault_sweep_is_thread_count_invariant() {
    check_machines(
        "fault_sweep_is_thread_count_invariant",
        32,
        machine,
        |m, rng| {
            let seed = draw(rng, 0..=9_999);
            let rows1 = sweep_rows(&m, seed, Threads::Fixed(1));
            assert_eq!(rows1, sweep_rows(&m, seed, Threads::Fixed(4)));
            assert_eq!(rows1, sweep_rows(&m, seed, Threads::Fixed(8)));
        },
    );
}

/// Fault decisions are pure and monotone in the configured rate: a
/// message dropped at rate lo is also dropped at any rate hi >= lo.
#[test]
fn drop_decisions_are_monotone_in_rate() {
    check("drop_decisions_are_monotone_in_rate", 32, |rng| {
        let seed = draw(rng, 0..=u64::MAX - 1);
        let (src, dst) = (draw(rng, 0..=63) as u32, draw(rng, 0..=63) as u32);
        let (ident, attempt) = (draw(rng, 0..=999_999), draw(rng, 0..=7));
        let lo = draw(rng, 0..=1_000_000) as u32;
        let hi = lo
            .saturating_add(draw(rng, 0..=1_000_000) as u32)
            .min(1_000_000);
        let plo = FaultPlan::new(seed).with_drop_ppm(lo);
        let phi = FaultPlan::new(seed).with_drop_ppm(hi);
        // Purity: same inputs, same decision.
        assert_eq!(
            plo.decide(src, dst, ident, attempt),
            plo.decide(src, dst, ident, attempt)
        );
        if plo.decide(src, dst, ident, attempt).drop {
            assert!(phi.decide(src, dst, ident, attempt).drop);
        }
    });
}

/// On a single reliable channel with drop-only faults, the delivery
/// time is monotone non-decreasing in the drop rate: raising the
/// rate only grows the set of dropped attempts, and the retransmit
/// schedule (exponential backoff, seeded jitter) is fixed per
/// attempt, so delivery can only move to a later attempt.
#[test]
fn single_channel_delivery_is_monotone_in_drop_rate() {
    check_machines(
        "single_channel_delivery_is_monotone_in_drop_rate",
        32,
        machine,
        |m, rng| {
            let seed = draw(rng, 0..=9_999);
            let mut last = 0u64;
            for ppm in [0u32, 25_000, 100_000, 250_000] {
                let t = reliable_ping_delivery(&m, seed, ppm);
                assert!(
                    t >= last,
                    "delivery at rho={ppm} ({t} cycles) earlier than at the lower rate ({last})"
                );
                last = t;
            }
        },
    );
}

/// The sharded lane engine is lane-count invariant on random
/// machines: lane counts 2, 3, and 8 produce bit-identical
/// `SimResult`s whatever the jitter, observability, and fault-plan
/// combination — and the classic engine, which draws the same jitter,
/// agrees on the workload-level projection. The classic comparison
/// runs uncapped: destination
/// admission is exactly what the sharded engine relaxes, so capped
/// hot-spot traffic may legally complete earlier on lanes.
#[test]
fn sharded_runs_are_lane_count_invariant() {
    check_machines(
        "sharded_runs_are_lane_count_invariant",
        32,
        machine,
        |m, rng| {
            let (seed, jitter) = (draw(rng, 0..=9_999), draw(rng, 0..=8));
            let (observed, faulty) = (rng.next_bool(0.5), rng.next_bool(0.5));
            let base = if observed {
                SimConfig::observed()
            } else {
                SimConfig::default()
            };
            let mut config = base.with_jitter(jitter);
            if faulty {
                config = config.with_faults(FaultPlan::new(seed).with_drop_ppm(50_000));
            }
            let run = |config: &SimConfig, n: u32| {
                let mut sim = Sim::new(m, config.clone().with_shards(n));
                sim.set_all(|_| Box::new(ScatterStorm { rounds: 3 }));
                sim.run()
                    .expect("scatter terminates without waiting on receptions")
            };
            let r2 = run(&config, 2);
            assert_eq!(r2, run(&config, 3));
            assert_eq!(r2, run(&config, 8));
            let mut uncapped = config.clone();
            uncapped.enforce_capacity = false;
            let classic = run(&uncapped, 0);
            let lanes = run(&uncapped, 2);
            assert_eq!(workload_projection(&classic), workload_projection(&lanes));
        },
    );
}

/// Fire-and-forget traffic for the shard invariance property: timers,
/// compute, and pseudo-random fan-out, with termination independent of
/// receptions (so drop plans cannot deadlock it).
struct ScatterStorm {
    rounds: u64,
}

impl Process for ScatterStorm {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.compute(u64::from(ctx.me() % 5) * 3, 0);
        ctx.timer(1 + u64::from(ctx.me() % 3), 0);
    }
    fn on_timer(&mut self, round: u64, ctx: &mut Ctx<'_>) {
        let p = u64::from(ctx.procs());
        let me = u64::from(ctx.me());
        for k in 0..2u64 {
            let dst = (me + 1 + (me * 7 + round * 13 + k * 5) % (p - 1)) % p;
            if dst != me {
                ctx.send(dst as u32, round as u32, Data::U64(me * 100 + round));
            }
        }
        if round + 1 < self.rounds {
            ctx.timer(2 + (me + round) % 4, round + 1);
        }
    }
}

/// The engine-independent outcome of a run: completion, message counts,
/// and per-processor send/receive tallies. Event counts are engine
/// vocabulary (the classic engine's `Release` bookkeeping events have no
/// sharded counterpart) and stay out.
fn workload_projection(r: &logp::sim::SimResult) -> (u64, u64, u64, Vec<(u64, u64)>) {
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

/// The acceptance sweep: on every built-in machine preset, a seeded 5%
/// drop rate leaves broadcast, summation, and all-reduce correct, with
/// the retransmissions visible as `Cause::Retry` edges in the causal
/// DAG — and the runs replay bit-identically on 1, 4, and 8 threads.
#[test]
fn reliable_collectives_survive_5pct_drops_on_all_presets() {
    for preset in MachinePreset::all() {
        let m = preset.logp;
        let plan = FaultPlan::new(0x5EED_FA17).with_drop_ppm(50_000);
        let retry = retry_for(&m);
        let config = SimConfig::default().with_msg_log(true);

        let b = run_reliable_broadcast(&m, &plan, retry.clone(), config.clone()).unwrap();
        assert_eq!(b.arrivals.len(), m.p as usize, "{}", preset.name);

        let s = run_reliable_sum(&m, 256, &plan, retry.clone(), config.clone()).unwrap();
        assert_eq!(
            s.total,
            (0..256).map(|v| v as f64).sum::<f64>(),
            "{}",
            preset.name
        );

        let values: Vec<f64> = (0..m.p).map(|i| i as f64).collect();
        let a = run_reliable_allreduce(&m, &values, &plan, retry.clone(), config).unwrap();
        assert_eq!(a.value, values.iter().sum::<f64>(), "{}", preset.name);

        // Retries happened and are visible in the causal DAG.
        assert!(
            b.retries > 0,
            "{}: 5% drops must force retries",
            preset.name
        );
        let retry_edges = b
            .result
            .obs
            .msgs
            .iter()
            .filter(|r| matches!(r.cause, Cause::Retry(_)))
            .count();
        assert!(retry_edges > 0, "{}: no Cause::Retry edges", preset.name);

        // Bit-identical across worker counts.
        let rows1 = sweep_rows(&m, 0x5EED_FA17, Threads::Fixed(1));
        let rows4 = sweep_rows(&m, 0x5EED_FA17, Threads::Fixed(4));
        let rows8 = sweep_rows(&m, 0x5EED_FA17, Threads::Fixed(8));
        assert_eq!(rows1, rows4, "{}", preset.name);
        assert_eq!(rows1, rows8, "{}", preset.name);
    }
}

/// Differential testing over random workload DAGs (`logp-wl`): any
/// generated program completes bit-identically on the classic
/// engine and the sharded engine at 2 and 4 lanes — with and without a
/// (delay + duplicate) fault plan. The machine keeps capacity slack
/// (⌈L/g⌉ = 64) so the classic engine's capacity stall, which the
/// sharded engine intentionally relaxes, never engages; drops are
/// excluded because a dropped delivery leaves a DAG recv permanently
/// unsatisfied (by design — `run_workload` reports it as `Incomplete`).
#[test]
fn fuzz_dags_are_engine_invariant_under_faults() {
    use logp::wl::{gen_workload, run_workload, FuzzConfig};
    check("fuzz_dags_are_engine_invariant_under_faults", 24, |rng| {
        let (seed, faulty) = (draw(rng, 0..=9_999), rng.next_bool(0.5));
        let m = LogP::new(64, 2, 1, 8).expect("valid model");
        let wl = gen_workload(seed, &FuzzConfig::default());
        let base = if faulty {
            SimConfig::default().with_faults(
                FaultPlan::new(seed ^ 0xFA17)
                    .with_delay(120_000, 9)
                    .with_dup_ppm(60_000),
            )
        } else {
            SimConfig::default()
        };
        let fingerprint = |cfg: SimConfig| {
            let run = run_workload(&wl, &m, cfg).expect("fault-free-or-delayed DAG completes");
            (
                run.completion,
                run.node_times.clone(),
                run.unmatched,
                run.result.stats.completion,
                run.result.stats.total_msgs,
                run.result.stats.procs.clone(),
            )
        };
        let classic = fingerprint(base.clone());
        assert_eq!(classic, fingerprint(base.clone().with_shards(2)));
        assert_eq!(classic, fingerprint(base.with_shards(4)));
    });
}

/// A crashed root re-roots the broadcast on the lowest survivor; a plan
/// that crashes everyone errors cleanly instead of hanging.
#[test]
fn crashed_root_re_roots_or_errors_cleanly() {
    let m = LogP::new(6, 2, 4, 8).unwrap();
    let plan = FaultPlan::new(1).with_crash(0, 0);
    let run = run_survivor_broadcast(&m, &plan, SimConfig::default()).unwrap();
    assert_eq!(run.arrivals.len(), 7);
    assert!(run.arrivals.contains(&(1, 0)), "P1 takes over as root");

    let mut all = FaultPlan::new(2);
    for q in 0..m.p {
        all = all.with_crash(q, 0);
    }
    assert_eq!(
        run_survivor_broadcast(&m, &all, SimConfig::default()).unwrap_err(),
        ResilientError::AllCrashed
    );
}

/// A network that beats the delivery guarantee is a typed error on every
/// resilient runner: three of these calls used to panic in three
/// different asserts, the reliable sum returned `Ok` with `total = 0.0`,
/// and the survivor broadcast panicked on its first duplicate.
#[test]
fn a_network_that_beats_the_guarantee_is_a_typed_error() {
    use logp::algos::kbroadcast::run_reliable_kbroadcast;
    let m = LogP::new(6, 2, 4, 8).unwrap();
    let cfg = SimConfig::default;
    let retry = || RetryConfig::for_model(&m).with_max_retries(2);
    // 95 % loss against two retries; plain sends against 50 % loss or
    // 50 % duplication.
    let lossy = FaultPlan::new(3).with_drop_ppm(950_000);
    let half_lost = FaultPlan::new(3).with_drop_ppm(500_000);
    let half_dup = FaultPlan::new(3).with_dup_ppm(500_000);
    let values = vec![1.0; 8];
    let table: [(&str, Result<(), ResilientError>); 6] = [
        (
            "reliable broadcast",
            run_reliable_broadcast(&m, &lossy, retry(), cfg()).map(drop),
        ),
        (
            "reliable all-reduce",
            run_reliable_allreduce(&m, &values, &lossy, retry(), cfg()).map(drop),
        ),
        (
            "reliable k-item broadcast",
            run_reliable_kbroadcast(&m, &[1, 2, 3], &lossy, retry(), cfg()).map(drop),
        ),
        (
            "reliable sum",
            run_reliable_sum(&m, 64, &lossy, retry(), cfg()).map(drop),
        ),
        (
            "survivor broadcast, drops",
            run_survivor_broadcast(&m, &half_lost, cfg()).map(drop),
        ),
        (
            "survivor broadcast, duplicates",
            run_survivor_broadcast(&m, &half_dup, cfg()).map(drop),
        ),
    ];
    for (what, outcome) in table {
        match outcome {
            Err(ResilientError::Incomplete {
                finished,
                survivors: 8,
            }) => {
                let more = what.ends_with("duplicates");
                assert_eq!(finished > 8, more, "{what}: finished {finished} times");
                assert_eq!(finished < 8, !more, "{what}: finished {finished} times");
            }
            other => panic!("{what}: expected Incomplete, got {other:?}"),
        }
    }
}
