//! Observability overhead microbenchmark: the engine's events/second on
//! `PingPong` and hot-spot `AllToAll` under each observability mode, so
//! the "off by default is actually free" claim is a measured number, not
//! a promise.
//!
//! Modes:
//!
//! * `disabled`   — `SimConfig::default()`: the PR-1 hot path; the obs
//!   state is never constructed and the per-event hooks are a single
//!   `Option` test.
//! * `trace`      — activity spans only (`with_trace(true)`), the
//!   pre-existing gantt/conservation machinery.
//! * `msg_log`    — full message-lifecycle log + causal DAG
//!   (`with_msg_log(true)`).
//! * `full`       — lifecycle log + metrics registry with a sampling
//!   grid (`SimConfig::observed().with_metrics_grid(64)`).
//! * `aggregate`  — online critical-path aggregation only
//!   (`with_aggregate(true)`); nothing retained, nothing written.
//! * `sampled`    — streaming JSONL sink under a seeded reservoir
//!   (`k = 64`); bounded output, bounded memory.
//! * `stream`     — full streaming JSONL sink plus online aggregation;
//!   the bounded-memory configuration used for large-`P` exports.
//!
//! `--engine sharded` runs the same sweep on the sharded calendar engine
//! (4 lanes); the `full` mode is classic-only because a metrics sampling
//! grid pins dispatch to the classic engine.
//!
//! Prints one JSON object to stdout (diffable; the tracked numbers are
//! the ledger's `sim.obs.slowdown_*` on `obs_stream`, from
//! `bash benchmark/run.sh`); the stderr table is for humans. `--reps N` overrides repetitions. `--check` runs a fast
//! correctness mode instead of a timing mode: every mode must finish
//! with identical completion times and event counts (observability must
//! never perturb the simulation), and the observed modes must actually
//! populate their logs / sinks / aggregates.

use std::path::PathBuf;
use std::time::Instant;

use logp_bench::{AllToAll, PingPong};
use logp_core::LogP;
use logp_sim::{replay_jsonl, ObsSampling, Sim, SimConfig, SinkSpec};

const MODES: [&str; 7] = [
    "disabled",
    "trace",
    "msg_log",
    "full",
    "aggregate",
    "sampled",
    "stream",
];

/// `full` needs a metrics sampling grid, which pins dispatch to the
/// classic engine; every other mode runs on both.
fn modes_for(engine: &str) -> Vec<&'static str> {
    MODES
        .iter()
        .copied()
        .filter(|m| engine == "classic" || *m != "full")
        .collect()
}

/// Scratch file for the streaming modes (overwritten every run; the
/// sweep measures sink throughput, not artifact management).
fn scratch(mode: &str) -> PathBuf {
    std::env::temp_dir().join(format!("logp_trace_overhead_{mode}.jsonl"))
}

fn mode_config(mode: &str, engine: &str) -> SimConfig {
    let base = match engine {
        "classic" => SimConfig::default(),
        "sharded" => SimConfig::default().with_shards(4),
        other => panic!("unknown engine {other:?} (expected classic | sharded)"),
    };
    match mode {
        "disabled" => base,
        "trace" => base.with_trace(true),
        "msg_log" => base.with_msg_log(true),
        "full" => SimConfig::observed().with_metrics_grid(64),
        "aggregate" => base.with_aggregate(true),
        "sampled" => base
            .with_sink(SinkSpec::Jsonl(scratch("sampled")))
            .with_sampling(ObsSampling::Reservoir { k: 64, seed: 0xB0B }),
        "stream" => base
            .with_sink(SinkSpec::Jsonl(scratch("stream")))
            .with_aggregate(true),
        other => panic!("unknown mode {other:?}"),
    }
}

fn build(workload: &str, mode: &str, engine: &str, rounds: u64) -> Sim {
    let cfg = mode_config(mode, engine);
    match workload {
        "ping_pong" => {
            let mut sim = Sim::new(LogP::new(6, 2, 4, 2).unwrap(), cfg);
            sim.set_all(move |_| Box::new(PingPong { rounds }));
            sim
        }
        "all_to_all" => {
            let mut sim = Sim::new(LogP::new(6, 2, 4, 16).unwrap(), cfg);
            sim.set_all(move |_| Box::new(AllToAll::new(rounds, false)));
            sim
        }
        other => panic!("unknown workload {other:?}"),
    }
}

struct Measurement {
    workload: &'static str,
    mode: &'static str,
    events: u64,
    best_secs: f64,
}

impl Measurement {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.best_secs
    }
}

fn measure(
    workload: &'static str,
    mode: &'static str,
    engine: &str,
    rounds: u64,
    reps: u32,
) -> Measurement {
    let reference = build(workload, mode, engine, rounds)
        .run()
        .expect("completes");
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = build(workload, mode, engine, rounds)
            .run()
            .expect("completes");
        best = best.min(t0.elapsed().as_secs_f64());
        assert_eq!(r.stats.events, reference.stats.events);
    }
    Measurement {
        workload,
        mode,
        events: reference.stats.events,
        best_secs: best,
    }
}

/// `--check`: observability must be an observer — identical completion
/// and event counts in every mode, and the observed modes must actually
/// record what they promise.
fn check(engine: &str) {
    for (workload, rounds) in [("ping_pong", 2_000u64), ("all_to_all", 20u64)] {
        let baseline = build(workload, "disabled", engine, rounds)
            .run()
            .expect("completes");
        for mode in modes_for(engine) {
            let r = build(workload, mode, engine, rounds)
                .run()
                .expect("completes");
            assert_eq!(
                r.stats.completion, baseline.stats.completion,
                "{workload}/{mode}: completion must not change under observation"
            );
            assert_eq!(
                r.stats.events, baseline.stats.events,
                "{workload}/{mode}: event count must not change under observation"
            );
            assert_eq!(
                r.stats.total_msgs, baseline.stats.total_msgs,
                "{workload}/{mode}: message count must not change under observation"
            );
            match mode {
                "disabled" => {
                    assert!(r.trace.spans.is_empty() && r.obs.is_empty());
                    assert!(r.metrics.to_csv().lines().count() <= 1);
                }
                "trace" => assert!(!r.trace.spans.is_empty()),
                "msg_log" => {
                    assert_eq!(r.obs.msgs.len() as u64, r.stats.total_msgs);
                    assert!(r.obs.delivered().count() as u64 == r.stats.total_msgs);
                }
                "full" => {
                    assert_eq!(r.obs.msgs.len() as u64, r.stats.total_msgs);
                    assert_eq!(
                        r.metrics.counter_value("messages_delivered"),
                        Some(r.stats.total_msgs)
                    );
                    assert!(!r.metrics.gauges().is_empty());
                }
                "aggregate" | "stream" => {
                    assert!(r.obs.is_empty(), "streaming modes retain nothing");
                    let agg = r
                        .aggregate
                        .as_ref()
                        .expect("online aggregate must be maintained");
                    assert_eq!(
                        agg.delivered, r.stats.total_msgs,
                        "{workload}/{mode}: aggregate must count every delivery"
                    );
                    assert!(
                        agg.critical_total > 0 && agg.critical_total <= r.stats.completion,
                        "{workload}/{mode}: online critical path must be plausible"
                    );
                    if mode == "stream" {
                        let text = std::fs::read_to_string(scratch(mode)).expect("sink wrote");
                        let replay = replay_jsonl(&text).expect("sink output replays");
                        assert_eq!(replay.msgs.len() as u64, r.stats.total_msgs);
                    }
                }
                "sampled" => {
                    assert!(r.obs.is_empty(), "sampling retains nothing");
                    let text = std::fs::read_to_string(scratch(mode)).expect("sink wrote");
                    let replay = replay_jsonl(&text).expect("sink output replays");
                    assert_eq!(
                        replay.msgs.len() as u64,
                        r.stats.total_msgs.min(64),
                        "{workload}/{mode}: reservoir must keep exactly min(k, n) messages"
                    );
                }
                _ => unreachable!(),
            }
        }
        println!("{workload}: all modes agree on {engine} (completion/events/msgs identical)");
    }
    println!("trace_overhead --check: OK ({engine})");
}

fn main() {
    let mut reps: u32 = 5;
    let mut engine = "classic".to_string();
    let mut run_check = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--reps" => {
                reps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--reps takes a positive integer");
            }
            "--engine" => {
                engine = args
                    .next()
                    .expect("--engine takes `classic` or `sharded`");
            }
            "--check" => run_check = true,
            other => panic!(
                "unknown argument {other:?} (expected --reps N | --engine classic|sharded | --check)"
            ),
        }
    }
    assert!(
        engine == "classic" || engine == "sharded",
        "--engine takes `classic` or `sharded`, got {engine:?}"
    );

    if run_check {
        check(&engine);
        return;
    }

    let workloads: [(&str, u64); 2] = [("ping_pong", 100_000), ("all_to_all", 400)];
    let modes = modes_for(&engine);

    eprintln!(
        "{:>12} {:>9} {:>12} {:>14} {:>10}",
        "workload", "mode", "events", "events/sec", "vs off"
    );
    let mut items = Vec::new();
    for (workload, rounds) in workloads {
        let mut base = 0.0f64;
        for mode in &modes {
            let m = measure(workload, mode, &engine, rounds, reps);
            if *mode == "disabled" {
                base = m.events_per_sec();
            }
            let rel = m.events_per_sec() / base;
            eprintln!(
                "{:>12} {:>9} {:>12} {:>14.0} {:>9.3}x",
                m.workload,
                m.mode,
                m.events,
                m.events_per_sec(),
                rel
            );
            items.push(format!(
                "{{\"workload\":\"{}\",\"mode\":\"{}\",\"events\":{},\"best_secs\":{:.6},\"events_per_sec\":{:.0},\"vs_disabled\":{:.4}}}",
                m.workload,
                m.mode,
                m.events,
                m.best_secs,
                m.events_per_sec(),
                rel
            ));
        }
    }
    println!(
        "{{\"bench\":\"trace_overhead\",\"engine\":\"{}\",\"modes\":{},\"runs\":[{}]}}",
        engine,
        modes.len(),
        items.join(",")
    );
}
