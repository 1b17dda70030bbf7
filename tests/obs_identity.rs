//! The artifacts a run keeps of itself, pinned to a commit byte for byte.
//!
//! The other corpora hash what a run *computed*; the retained log is in
//! those hashes, the files a sink writes are not.
//! `tests/data/obs_identity.txt` holds one line per (preset of
//! `tests/engine_queue.rs`) × (classic engine, four lanes) × (fault-free,
//! a lossy network under `Reliable`, the same with two crash-stops) with a
//! hash of each artifact of one program: `Debug` of the retained `SimResult`, `perfetto_trace_json`'s
//! bytes, the `JsonlSink` file, the `PerfettoSink` file, `Debug` of
//! `replay_jsonl` of the JSONL file, and the `ObsAggregate`; then one line
//! per `ObsSampling` policy and engine with the sampled JSONL file. The
//! file was recorded at the parent of the PR that made the retained log a
//! sink behind the one record pipeline; the library must reproduce every
//! line. Five rows' `aggregate` fields were re-recorded since, when a
//! timer window that closes inside a barrier wait or stall came to count
//! it as `critical_path` does (the test after the corpus check).

use logp::core::rng::{mix, CounterRng};
use logp::core::{LogP, ProcId};
use logp::sim::reliable::{Reliable, RetryConfig};
use logp::sim::{
    perfetto_trace_json, replay_jsonl, Ctx, Data, FaultPlan, Message, ObsSampling, Process,
    SharedCell, Sim, SimConfig, SimResult, SinkSpec,
};
use std::path::{Path, PathBuf};

const IDENTITY_FILE: &str = "tests/data/obs_identity.txt";
/// Lane counts the corpus runs on (`0` = the classic engine).
const ENGINES: [u32; 2] = [0, 4];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The presets of `tests/engine_queue.rs`.
fn presets() -> [LogP; 6] {
    [
        LogP::fig3(),
        LogP::fig4(),
        LogP::new(60, 20, 40, 16).unwrap(),
        LogP::new(200, 4, 8, 32).unwrap(),
        LogP::new(2, 1, 12, 24).unwrap(),
        LogP::new(5, 0, 3, 12).unwrap(),
    ]
}

/// Seeded traffic of every record kind that needs no message to arrive
/// (the `Chatter` of `tests/engine_queue.rs`, fixed shape): sends, bulk
/// sends, computes and timers with durations down to 0, forwarding chains
/// and two barrier rounds.
struct Tour {
    seed: u64,
    rounds: u32,
}

impl Tour {
    fn send(&self, ctx: &mut Ctx<'_>, salt: u64, v: u64) {
        let me = ctx.me();
        let r = mix(&[self.seed, u64::from(me), salt, ctx.now()]);
        let dst: ProcId = (me + 1 + (r % u64::from(ctx.procs() - 1)) as u32) % ctx.procs();
        if salt.is_multiple_of(5) {
            ctx.send_bulk(dst, salt as u32, Data::U64(v), 1 + salt % 4);
        } else {
            ctx.send(dst, salt as u32, Data::U64(v));
        }
    }
}

impl Process for Tour {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let mut rng = CounterRng::new(mix(&[self.seed, u64::from(ctx.me())]));
        for k in 0..4 {
            match rng.next_in(3) {
                0 => ctx.compute(rng.next_in(6), k),
                1 => ctx.timer(rng.next_in(40), k),
                _ => {}
            }
            self.send(ctx, k, 3);
        }
        ctx.barrier();
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Ctx<'_>) {
        let v = msg.data.as_u64();
        if v > 0 {
            if v.is_multiple_of(3) {
                ctx.compute(0, 100 + v);
            }
            self.send(ctx, 7 * v + u64::from(msg.src), v - 1);
        }
    }

    fn on_compute_done(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        if tag.is_multiple_of(2) {
            self.send(ctx, 1000 + tag, 0);
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        self.send(ctx, 2000 + tag, 1);
        if tag == 0 {
            ctx.timer(0, 9);
        }
    }

    fn on_barrier_release(&mut self, ctx: &mut Ctx<'_>) {
        self.rounds -= 1;
        self.send(ctx, 3000 + u64::from(self.rounds), 2);
        if self.rounds > 0 {
            ctx.barrier();
        }
    }
}

/// The networks the tour runs on.
const PLANS: [&str; 3] = ["clean", "lossy", "crash"];

/// Drops, duplicates and delays; under `"crash"` also a processor dead
/// from the start and one that dies mid-run, so messages are lost at a
/// dead interface and records are left incomplete.
fn faults(plan: &str, p: u32) -> Option<FaultPlan> {
    let lossy = FaultPlan::new(0x0B5E)
        .with_drop_ppm(120_000)
        .with_dup_ppm(60_000)
        .with_delay(100_000, 9);
    match plan {
        "lossy" => Some(lossy),
        "crash" => Some(lossy.with_crash(1, 0).with_crash(p - 2, 37)),
        _ => None,
    }
}

/// One run of the tour on `m`: raw on a fault-free network, wrapped in
/// `Reliable` (so retransmission timers and `Cause::Retry` sends occur)
/// on a faulty one.
fn tour(m: &LogP, lanes: u32, plan: &str, config: SimConfig) -> SimResult {
    let mut config = config.with_seed(0x0B5).with_shards(lanes).with_big_g(2);
    // A processor waiting in a barrier receives nothing; keep its NI
    // buffer from filling and wedging the senders.
    config.ni_buffer = Some(1 << 20);
    let faulty = plan != "clean";
    if let Some(plan) = faults(plan, m.p) {
        config = config.with_faults(plan);
    }
    let retry = RetryConfig::for_model(m).with_max_retries(6);
    let retries = SharedCell::new();
    let mut sim = Sim::new(*m, config);
    sim.set_all(|_| {
        let tour = Tour {
            seed: 0x7012,
            rounds: 2,
        };
        if faulty {
            Box::new(Reliable::new(tour, retry.clone(), retries.clone()))
        } else {
            Box::new(tour)
        }
    });
    let mut res = sim.run().expect("the tour completes");
    // Vitals measure the host and the build profile.
    res.vitals = Default::default();
    res
}

fn scratch(who: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("logp_obs_identity_{who}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn file_hash(path: &Path) -> u64 {
    fnv1a(&std::fs::read(path).expect("the sink wrote its file"))
}

fn artifact_line(dir: &Path, m: &LogP, lanes: u32, plan: &str) -> String {
    let base = SimConfig::default();
    // Gauge sampling runs on the classic engine whatever `shards` says.
    let retained_cfg = if lanes == 0 {
        base.clone().with_msg_log(true).with_metrics_grid(7)
    } else {
        base.clone().with_msg_log(true).with_metrics(true)
    };
    let retained = tour(m, lanes, plan, retained_cfg);
    assert!(!retained.obs.is_empty() && !retained.trace.spans.is_empty());

    let jsonl = dir.join("tour.jsonl");
    let streamed = tour(
        m,
        lanes,
        plan,
        base.clone()
            .with_sink(SinkSpec::Jsonl(jsonl.clone()))
            .with_aggregate(true),
    );
    assert!(streamed.obs.is_empty() && streamed.trace.spans.is_empty());
    let text = std::fs::read_to_string(&jsonl).expect("the sink wrote its file");
    let replayed = replay_jsonl(&text).expect("the sink's output replays");

    // The aggregate alone (a `NullSink` behind it) is the same aggregate.
    let aggregated = tour(m, lanes, plan, base.clone().with_aggregate(true));
    assert!(aggregated.obs.is_empty() && aggregated.trace.spans.is_empty());
    assert_eq!(aggregated.aggregate, streamed.aggregate);

    let perfetto = dir.join("tour.trace.json");
    let sunk = tour(
        m,
        lanes,
        plan,
        base.with_sink(SinkSpec::Perfetto(perfetto.clone())),
    );
    assert!(sunk.obs.is_empty() && sunk.aggregate.is_none());

    format!(
        "tour {m} s{lanes} {plan} completion={} retained={:016x} perfetto_json={:016x} \
         jsonl={:016x} perfetto_sink={:016x} replay={:016x} aggregate={:016x}",
        retained.stats.completion,
        fnv1a(format!("{retained:?}").as_bytes()),
        fnv1a(perfetto_trace_json(&retained).as_bytes()),
        fnv1a(text.as_bytes()),
        file_hash(&perfetto),
        fnv1a(format!("{replayed:?}").as_bytes()),
        fnv1a(format!("{:?}", streamed.aggregate).as_bytes()),
    )
}

fn sampled_line(dir: &Path, m: &LogP, lanes: u32, policy: ObsSampling) -> String {
    let jsonl = dir.join("sampled.jsonl");
    let config = SimConfig::default()
        .with_sink(SinkSpec::Jsonl(jsonl.clone()))
        .with_sampling(policy.clone());
    tour(m, lanes, "crash", config);
    let text = std::fs::read_to_string(&jsonl).expect("the sink wrote its file");
    format!(
        "sampled {policy:?} s{lanes} lines={} jsonl={:016x}",
        text.lines().count(),
        fnv1a(text.as_bytes())
    )
}

fn identity_lines(who: &str) -> Vec<String> {
    let dir = scratch(who);
    let mut lines = Vec::new();
    for m in presets() {
        for lanes in ENGINES {
            for plan in PLANS {
                lines.push(artifact_line(&dir, &m, lanes, plan));
            }
        }
    }
    let m = LogP::new(60, 20, 40, 16).unwrap();
    for policy in [
        ObsSampling::All,
        ObsSampling::Stride(3),
        ObsSampling::ProcSet(vec![0, 5, 13]),
        ObsSampling::HeadTail(2),
        ObsSampling::Reservoir { k: 9, seed: 0x5EED },
    ] {
        for lanes in ENGINES {
            lines.push(sampled_line(&dir, &m, lanes, policy.clone()));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    lines
}

#[test]
fn artifacts_reproduce_the_recorded_corpus() {
    let now = identity_lines("check");
    let recorded = std::fs::read_to_string(IDENTITY_FILE).expect(IDENTITY_FILE);
    let recorded: Vec<&str> = recorded.lines().collect();
    assert_eq!(recorded.len(), now.len(), "{IDENTITY_FILE}: line count");
    let bad: Vec<String> = recorded
        .iter()
        .zip(&now)
        .filter(|(r, n)| r != n)
        .map(|(r, n)| format!("recorded: {r}\n     now: {n}"))
        .collect();
    assert!(
        bad.is_empty(),
        "{IDENTITY_FILE}: {} of {} lines changed:\n{}",
        bad.len(),
        now.len(),
        bad.join("\n")
    );
}

/// The online aggregate's critical path equals `critical_path` of the same
/// run's retained log — total and every component — on every tour run:
/// timers that fire inside a barrier or a capacity stall still open, and
/// on the lanes barrier releases applied after later arrivals.
#[test]
fn online_aggregate_equals_the_walk_on_every_tour_run() {
    let mut bad = Vec::new();
    for m in presets() {
        for lanes in ENGINES {
            for plan in PLANS {
                let retained = tour(&m, lanes, plan, SimConfig::default().with_msg_log(true));
                let cp = logp::sim::critical_path(&retained).expect("a tour has a path");
                let streamed = tour(&m, lanes, plan, SimConfig::default().with_aggregate(true));
                let agg = streamed.aggregate.expect("aggregate maintained");
                if (agg.critical_total, agg.critical) != (cp.total, cp.components) {
                    bad.push(format!(
                        "{m} s{lanes} {plan}: aggregate {} {:?}, walk {} {:?}",
                        agg.critical_total, agg.critical, cp.total, cp.components
                    ));
                }
            }
        }
    }
    assert!(
        bad.is_empty(),
        "{} of 36 runs differ:\n{}",
        bad.len(),
        bad.join("\n")
    );
}

/// Rewrites the corpus from the library in the tree (run at the parent of
/// the PR that made the retained log a sink); running it again pins
/// whatever the library does now, so do that only for a declared change
/// of an artifact's bytes.
#[test]
#[ignore = "rewrites tests/data/obs_identity.txt"]
fn regenerate_identity_file() {
    std::fs::write(IDENTITY_FILE, identity_lines("record").join("\n") + "\n").expect(IDENTITY_FILE);
}
