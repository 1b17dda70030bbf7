//! Observability is an observer: the engine under every observability
//! mode finishes with the completion time, event count and message count
//! of the unobserved run, on both engines, and each observed mode
//! records what it promises. A check only; what each mode costs is the
//! ledger's `sim.obs.slowdown_*` on `obs_stream` (`bash benchmark/run.sh`).
//!
//! Modes:
//!
//! * `disabled`   — `SimConfig::default()`: the obs state is never
//!   constructed and the per-event hooks are a single `Option` test.
//! * `trace`      — activity spans only (`with_trace(true)`).
//! * `msg_log`    — full message-lifecycle log + causal DAG
//!   (`with_msg_log(true)`).
//! * `full`       — lifecycle log + metrics registry with a sampling
//!   grid (`SimConfig::observed().with_metrics_grid(64)`); classic only,
//!   because a metrics sampling grid pins dispatch to the classic engine.
//! * `aggregate`  — online critical-path aggregation only
//!   (`with_aggregate(true)`); nothing retained, nothing written.
//! * `sampled`    — streaming JSONL sink under a seeded reservoir
//!   (`k = 64`); bounded output, bounded memory.
//! * `stream`     — full streaming JSONL sink plus online aggregation;
//!   the bounded-memory configuration used for large-`P` exports.

use std::path::PathBuf;

use logp_bench::{all_to_all_sim, ping_pong_sim, Args};
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

/// Scratch file for the streaming modes, overwritten every run.
fn scratch(mode: &str) -> PathBuf {
    std::env::temp_dir().join(format!("logp_trace_overhead_{mode}.jsonl"))
}

fn mode_config(mode: &str, engine: &str) -> SimConfig {
    let base = match engine {
        "classic" => SimConfig::default(),
        _ => SimConfig::default().with_shards(4),
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
        "ping_pong" => ping_pong_sim(cfg, rounds),
        "all_to_all" => all_to_all_sim(LogP::new(6, 2, 4, 16).unwrap(), cfg, rounds, false),
        other => panic!("unknown workload {other:?}"),
    }
}

/// Observability must be an observer on both engines.
pub fn check(_: &Args) {
    check_on("classic");
    check_on("sharded");
}

/// Identical completion and event counts in every mode, and the
/// observed modes must actually record what they promise.
fn check_on(engine: &str) {
    for (workload, rounds) in [("ping_pong", 2_000u64), ("all_to_all", 20u64)] {
        let baseline = build(workload, "disabled", engine, rounds)
            .run()
            .expect("completes");
        // `full` needs a metrics sampling grid, which pins dispatch to the
        // classic engine; every other mode runs on both.
        for mode in MODES
            .into_iter()
            .filter(|&m| engine == "classic" || m != "full")
        {
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
