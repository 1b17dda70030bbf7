//! `obs_stream`: the staggered all-to-all with a JSONL sink and the
//! online aggregate, then what a user does with the artifact — read it,
//! replay it, walk the critical path. The same engine layer as
//! `p2p_dense` used differently (the `OBS = true` monomorph), so
//! observability gains show here and must not move `p2p_dense`.

use super::p2p::all_to_all;
use super::{probe_loops, ratio, run_sim, secs, SEED_SIM, SEED_TRAFFIC};
use crate::job::{hash_procs, Job};
use crate::programs::Order;
use logp_core::LogP;
use logp_sim::{
    critical_path, replay_jsonl, ObsSampling, SimConfig, SimResult, SimStats, SinkSpec,
};
use logp_wl::workload_from_obslog;
use std::path::PathBuf;
use std::time::Instant;

pub struct ObsStream {
    model: LogP,
    rounds: u32,
    order: Order,
    config: SimConfig,
    /// The streamed artifact (inside the job's output directory).
    jsonl: PathBuf,
}

pub fn gen(job: &Job) -> ObsStream {
    let p: u32 = job.scale.pick(64, 256, 256);
    ObsStream {
        model: LogP::new(6, 2, 4, p).expect("valid model"),
        rounds: job.scale.pick(1, 2, 8),
        order: Order::Stagger {
            offset: (job.derive(SEED_TRAFFIC) % p as u64) as u32,
        },
        config: SimConfig::default().with_seed(job.derive(SEED_SIM)),
        jsonl: job
            .out_dir
            .join(format!("obs_stream-{}.jsonl", std::process::id())),
    }
}

pub fn run(job: &mut Job, w: &ObsStream) {
    let p = w.model.p as u64;
    let streaming = w
        .config
        .clone()
        .with_sink(SinkSpec::Jsonl(w.jsonl.clone()))
        .with_aggregate(true);
    let out = run_sim(job, "sim.obs.stream", || {
        all_to_all(w.model, streaming, w.order, w.rounds)
    });
    let msgs = p * (p - 1) * w.rounds as u64;
    job.check("obs.msgs", out.stats.total_msgs == msgs);
    let agg = out
        .aggregate
        .expect("with_aggregate(true) returns the aggregate");
    job.check("obs.aggregate.delivered", agg.delivered == msgs);

    // The artifact round trip: file → text → ObsLog → critical path.
    let ((text, lines), _) = job.span("sim.obs.read", |_| {
        let text = std::fs::read_to_string(&w.jsonl).expect("the sink wrote its file");
        let lines = text.lines().count() as u64;
        (text, lines)
    });
    let bytes = text.len() as u64;
    let (log, replay_ns) = job.span("sim.obs.replay", |_| replay_jsonl(&text));
    let log = log.expect("the sink's output replays");
    let ((), _) = job.span("sim.obs.drop", |_| drop(text));
    let records =
        (log.msgs.len() + log.computes.len() + log.barriers.len() + log.timers.len()) as u64;
    job.check("obs.replay.msgs", log.msgs.len() as u64 == msgs);
    job.check("obs.replay.records", records == agg.emitted);

    // The walk needs only the log and the processor count; wait windows
    // are classed without activity spans (replay skips span lines), so
    // the total — not the per-class split — is what must agree.
    let replayed = SimResult {
        stats: SimStats {
            procs: vec![Default::default(); p as usize],
            ..Default::default()
        },
        obs: log,
        ..Default::default()
    };
    let (path, walk_ns) = job.span("sim.critpath.walk", |_| critical_path(&replayed));
    let path = path.expect("a non-empty log has a critical path");
    job.check("obs.critpath.total", path.total == agg.critical_total);
    job.check(
        "obs.critpath.is_completion",
        path.total == out.stats.completion,
    );
    job.check("obs.critpath.sums", path.components.sum() == path.total);
    let steps = path.steps.len();
    let ((), _) = job.span("sim.obs.drop", |_| {
        drop((replayed, path));
        let _ = std::fs::remove_file(&w.jsonl);
    });

    job.fp("completion", out.stats.completion);
    job.fp("msgs", out.stats.total_msgs);
    job.fp("procs_hash", hash_procs(&out.stats.procs));
    job.fp("jsonl_records", records);
    job.fp("jsonl_lines", lines);
    job.fp("critical_total", agg.critical_total);

    if job.traced {
        let mb = bytes as f64 / 1e6;
        job.set("sim.obs.stream_loop_s", secs(out.loop_ns));
        job.set("sim.obs.bytes", bytes as f64);
        job.set("sim.obs.records", lines as f64);
        job.set("sim.obs.bytes_per_msg", ratio(bytes as f64, msgs as f64));
        job.set("sim.obs.sink_mb_per_s", ratio(mb, secs(out.loop_ns)));
        job.set("sim.obs.replay_s", secs(replay_ns));
        job.set("sim.obs.replay_mb_per_s", ratio(mb, secs(replay_ns)));
        job.set("sim.critpath.walk_s", secs(walk_ns));
        job.set("sim.critpath.steps", steps as f64);
    }
}

/// Each observability mode's loop ÷ the disabled loop (≥ 1) on one round
/// of identical traffic, the Perfetto sink's throughput, and whether the
/// online aggregate's decomposition equals the backward walk's.
pub fn probes(job: &mut Job, w: &ObsStream) {
    let scratch = |name: &str| {
        job.out_dir
            .join(format!("probe-{name}-{}", std::process::id()))
    };
    let (sampled, stream, perfetto) = (scratch("sampled"), scratch("stream"), scratch("perfetto"));
    let base = w.config.clone();
    let configs = [
        base.clone(),
        base.clone().with_trace(true),
        base.clone().with_msg_log(true),
        base.clone().with_aggregate(true),
        base.clone()
            .with_sink(SinkSpec::Jsonl(sampled.clone()))
            .with_sampling(ObsSampling::Reservoir { k: 64, seed: 0xB0B }),
        base.clone()
            .with_sink(SinkSpec::Jsonl(stream.clone()))
            .with_aggregate(true),
        base.clone().with_sink(SinkSpec::Perfetto(perfetto.clone())),
    ];
    let mut completions = vec![0u64; configs.len()];
    let mut retained: Option<SimResult> = None;
    let mut aggregated: Option<SimResult> = None;
    let loops = probe_loops(2, configs.len(), |i| {
        let r = all_to_all(w.model, configs[i].clone(), w.order, 1)
            .run()
            .expect("probe completes");
        completions[i] = r.stats.completion;
        match i {
            2 if retained.is_none() => retained = Some(r.clone()),
            3 if aggregated.is_none() => aggregated = Some(r.clone()),
            _ => {}
        }
        r
    });
    // Observability must never perturb the simulation.
    job.check(
        "obs.modes_agree",
        completions.iter().all(|&c| c == completions[0]),
    );
    for (i, name) in [
        "sim.obs.slowdown_trace",
        "sim.obs.slowdown_msg_log",
        "sim.obs.slowdown_aggregate",
        "sim.obs.slowdown_sampled",
        "sim.obs.slowdown_stream",
    ]
    .into_iter()
    .enumerate()
    {
        job.set(name, ratio(loops[i + 1], loops[0]));
    }
    let perfetto_mb = std::fs::metadata(&perfetto).map_or(0.0, |m| m.len() as f64 / 1e6);
    job.set("sim.perfetto.stream_mb_per_s", ratio(perfetto_mb, loops[6]));
    for f in [sampled, stream, perfetto] {
        let _ = std::fs::remove_file(f);
    }

    // Log → DAG, the other consumer of a recorded run.
    let p = w.model.p as u64;
    let t0 = Instant::now();
    let dag = retained
        .as_ref()
        .map(|r| workload_from_obslog(&r.obs, w.model.p, "replayed"));
    job.set("wl.replay.from_log_s", t0.elapsed().as_secs_f64());
    job.check(
        "obs.log_to_workload",
        dag.is_some_and(|d| d.is_ok_and(|d| d.nodes.len() as u64 == 2 * p * (p - 1))),
    );

    let walk = retained.as_ref().and_then(critical_path);
    let agg = aggregated.and_then(|r| r.aggregate);
    let equal = match (&walk, &agg) {
        (Some(cp), Some(a)) => cp.total == a.critical_total && cp.components == a.critical,
        _ => false,
    };
    job.check("obs.aggregate_equals_walk", equal);
    job.set("sim.critpath.agg_equals_walk", f64::from(u8::from(equal)));
}
