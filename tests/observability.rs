//! Cross-crate observability tests: the critical-path analyzer against
//! the paper's closed forms, the Perfetto export's structure, and the
//! metrics registry's accounting — the analytic formulas of `logp-core`
//! and the instrumented simulator must agree cycle-exactly.

use logp::algos::broadcast::run_optimal_broadcast;
use logp::algos::reduce::run_optimal_sum;
use logp::core::broadcast::optimal_broadcast_time;
use logp::core::rng::mix;
use logp::core::summation::sum_capacity_bounded;
use logp::prelude::*;
use logp::sim::critpath::StepKind;
use logp::sim::reliable::{Endpoint, RetryConfig};
use logp::sim::{
    critical_path, perfetto_trace_json, replay_jsonl, Activity, BarrierRecord, Cause,
    ComputeRecord, FaultPlan, JsonlSink, MsgRecord, ObsLog, ObsSampling, ObsSink, SimStats,
    SinkSpec, Span, TimerRecord,
};
use std::fmt::Write as _;

/// Three machine presets plus the paper's Figure-3/Figure-4 machines.
fn presets() -> Vec<LogP> {
    vec![
        LogP::fig3(),                       // L=6, o=2, g=4, P=8
        LogP::fig4(),                       // L=5, o=2, g=4, P=8
        LogP::new(60, 20, 40, 16).unwrap(), // CM-5-like (§5)
        LogP::new(200, 4, 8, 32).unwrap(),  // latency-dominated
        LogP::new(2, 1, 12, 24).unwrap(),   // gap-dominated
    ]
}

/// The critical path of the optimal broadcast telescopes to exactly the
/// closed-form completion on every preset, and its component breakdown
/// accounts for every cycle.
#[test]
fn broadcast_critical_path_matches_closed_form() {
    for m in presets() {
        let run = run_optimal_broadcast(&m, SimConfig::default().with_msg_log(true));
        let cp = critical_path(&run.result).expect("msg log recorded");
        assert_eq!(
            cp.total,
            optimal_broadcast_time(&m),
            "critical path vs closed form on {m}"
        );
        assert_eq!(
            cp.total, run.completion,
            "critical path vs simulation on {m}"
        );
        assert_eq!(
            cp.components.sum(),
            cp.total,
            "components must tile the path on {m}"
        );
        // A broadcast path is pure communication: o, L, and gap/wait.
        assert_eq!(cp.components.compute, 0, "no compute on {m}");
        assert!(cp.components.o > 0, "overhead on the path on {m}");
        assert!(cp.components.l > 0, "latency on the path on {m}");
        // Every step abuts the next (no holes, no overlap).
        for w in cp.steps.windows(2) {
            assert_eq!(w[0].end, w[1].start, "path steps must tile on {m}");
        }
        assert_eq!(cp.steps.first().unwrap().start, 0);
        assert_eq!(cp.steps.last().unwrap().end, cp.total);
    }
}

/// The optimal summation completes exactly at its deadline `T`, and the
/// critical path reproduces `T` with compute attributed on the path.
#[test]
fn summation_critical_path_matches_closed_form() {
    for m in presets() {
        for t in [18u64, 28, 40] {
            if sum_capacity_bounded(&m, t, m.p) < 2 {
                continue; // degenerate budget: nothing to communicate
            }
            let run = run_optimal_sum(&m, t, SimConfig::default().with_msg_log(true));
            assert_eq!(run.completion, t, "summation deadline on {m}");
            let cp = critical_path(&run.result).expect("msg log recorded");
            assert_eq!(cp.total, t, "critical path vs deadline on {m}, T={t}");
            assert_eq!(cp.components.sum(), cp.total);
            assert!(
                cp.components.compute > 0,
                "summation path carries compute on {m}, T={t}"
            );
            for w in cp.steps.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        }
    }
}

/// The rendered report states the total, the nonzero components, and
/// the step sequence.
#[test]
fn critical_path_report_is_complete() {
    let m = LogP::fig3();
    let run = run_optimal_broadcast(&m, SimConfig::observed());
    let cp = critical_path(&run.result).unwrap();
    let report = cp.render();
    assert!(report.contains("critical path: 24 cycles"));
    assert!(report.contains("steps (start..end"));
    for kind in [StepKind::O, StepKind::L] {
        assert!(
            report.contains(kind.label()),
            "report must mention {:?}",
            kind
        );
    }
    assert!(report.lines().count() >= 2 + cp.steps.len());
}

/// Perfetto export of a traced broadcast: per-processor thread tracks,
/// slices, and one flow pair per delivered message.
#[test]
fn perfetto_export_has_tracks_and_flows() {
    let m = LogP::fig3();
    let run = run_optimal_broadcast(&m, SimConfig::observed().with_metrics_grid(4));
    let json = perfetto_trace_json(&run.result);
    for p in 0..m.p {
        assert!(
            json.contains(&format!("\"name\":\"P{p}\"")),
            "track for processor {p}"
        );
    }
    let flows_out = json.matches("\"ph\":\"s\"").count();
    let flows_in = json.matches("\"ph\":\"f\"").count();
    assert_eq!(flows_out as u64, run.result.stats.total_msgs);
    assert_eq!(flows_in as u64, run.result.stats.total_msgs);
    assert!(json.matches("\"ph\":\"X\"").count() >= run.result.trace.spans.len());
    assert!(json.contains("\"ph\":\"C\""), "gauge counter samples");
}

/// The metrics registry accounts for the run: message counters match the
/// engine totals, the latency histogram holds every delivery, and the
/// gauge grid covers the run.
#[test]
fn metrics_registry_accounts_for_the_run() {
    let m = LogP::fig4();
    let run = run_optimal_sum(&m, 28, SimConfig::observed().with_metrics_grid(4));
    let res = &run.result;
    let msgs = res.stats.total_msgs;
    assert_eq!(res.metrics.counter_value("messages_injected"), Some(msgs));
    assert_eq!(res.metrics.counter_value("messages_delivered"), Some(msgs));
    let h = res.metrics.histogram_named("msg_latency_cycles").unwrap();
    assert_eq!(h.count, msgs);
    // Every message latency is at least the point-to-point minimum 2o+L.
    assert!(h.min >= m.point_to_point());
    let (name, samples) = {
        let g = &res.metrics.gauges()[0];
        (g.name.clone(), g.samples.len() as u64)
    };
    assert!(
        samples >= res.stats.completion / 4,
        "gauge {name} must cover the run"
    );
    // Exports are consistent with the registry contents.
    let json = res.metrics.to_json();
    assert!(json.contains("messages_delivered"));
    assert!(json.contains("msg_latency_cycles"));
    let csv = res.metrics.to_csv();
    assert!(csv
        .lines()
        .any(|l| l.starts_with("counter,messages_delivered")));
}

/// Causal ancestry: every message in a broadcast chains back to a
/// `Cause::Start` root through `Cause::Msg` parents, and the messages
/// sent by the root carry `Cause::Start` directly.
#[test]
fn broadcast_ancestry_reaches_the_root() {
    let m = LogP::fig3();
    let run = run_optimal_broadcast(&m, SimConfig::default().with_msg_log(true));
    let obs = &run.result.obs;
    assert_eq!(obs.msgs.len() as u64, m.p as u64 - 1);
    for rec in &obs.msgs {
        let chain = obs.ancestry(rec.id);
        assert_eq!(chain.last().copied(), Some(logp::sim::Cause::Start));
        for link in &chain[..chain.len() - 1] {
            assert!(
                matches!(link, logp::sim::Cause::Msg(_)),
                "a broadcast chain is pure message causality"
            );
        }
        if rec.src == 0 {
            assert_eq!(chain, vec![logp::sim::Cause::Start]);
        } else {
            assert!(chain.len() >= 2, "non-root senders were themselves caused");
        }
    }
}

/// The online aggregate reproduces the retained critical-path analysis
/// cycle-exactly on every preset: the terminal instant and the full
/// o/g/L/compute/... decomposition, without retaining a single record.
#[test]
fn online_aggregate_matches_critical_path() {
    for m in presets() {
        let retained = run_optimal_broadcast(&m, SimConfig::default().with_msg_log(true));
        let cp = critical_path(&retained.result).expect("msg log recorded");
        let streamed = run_optimal_broadcast(&m, SimConfig::default().with_aggregate(true));
        let agg = streamed
            .result
            .aggregate
            .as_ref()
            .expect("aggregate maintained");
        assert!(
            streamed.result.obs.is_empty(),
            "streaming retains no records on {m}"
        );
        assert_eq!(streamed.completion, retained.completion);
        assert_eq!(agg.critical_total, cp.total, "terminal instant on {m}");
        assert_eq!(agg.critical, cp.components, "decomposition on {m}");
        assert_eq!(agg.delivered, retained.result.stats.total_msgs);
        assert_eq!(agg.msgs, retained.result.stats.total_msgs);
        // The global activity totals are the retained trace, re-summed.
        let mut o = 0;
        let mut compute = 0;
        for sp in &retained.result.trace.spans {
            match sp.activity {
                Activity::SendOverhead | Activity::RecvOverhead => o += sp.end - sp.start,
                Activity::Compute => compute += sp.end - sp.start,
                _ => {}
            }
        }
        assert_eq!(agg.global.o, o, "global o total on {m}");
        assert_eq!(agg.global.compute, compute, "global compute total on {m}");
        assert_eq!(
            agg.per_proc.iter().map(|c| c.o).sum::<u64>(),
            o,
            "per-proc o totals tile the global on {m}"
        );
    }
    // Summation puts compute segments on the path; the deadline `T` is
    // the closed form the aggregate must land on.
    for m in presets() {
        for t in [18u64, 28, 40] {
            if sum_capacity_bounded(&m, t, m.p) < 2 {
                continue;
            }
            let retained = run_optimal_sum(&m, t, SimConfig::default().with_msg_log(true));
            let cp = critical_path(&retained.result).expect("msg log recorded");
            let streamed = run_optimal_sum(&m, t, SimConfig::default().with_aggregate(true));
            let agg = streamed.result.aggregate.as_ref().unwrap();
            assert_eq!(agg.critical_total, cp.total, "summation on {m}, T={t}");
            assert_eq!(agg.critical, cp.components, "summation on {m}, T={t}");
        }
    }
}

/// Time-binned aggregation: the bins tile the global totals exactly,
/// whatever the grid.
#[test]
fn aggregate_bins_tile_the_totals() {
    let m = LogP::fig3();
    for grid in [1u64, 4, 7, 64] {
        let run = run_optimal_broadcast(&m, SimConfig::default().with_agg_grid(grid));
        let agg = run.result.aggregate.as_ref().unwrap();
        assert_eq!(agg.grid, grid);
        let mut from_bins = 0u64;
        for b in &agg.bins {
            from_bins += b.o + b.compute + b.stall + b.barrier;
        }
        assert_eq!(
            from_bins,
            agg.global.o + agg.global.compute + agg.global.stall + agg.global.barrier,
            "bins must tile the span totals at grid={grid}"
        );
    }
}

/// A JSONL streaming sink's replay reconstructs the retained `ObsLog`
/// exactly on every preset — on the classic engine verbatim, on the
/// sharded engine after canonical renumbering of the structured ids.
#[test]
fn streaming_replay_reconstructs_the_retained_log() {
    let dir = std::env::temp_dir().join("logp_obs_replay_test");
    std::fs::create_dir_all(&dir).unwrap();
    for (i, m) in presets().into_iter().enumerate() {
        let retained = run_optimal_broadcast(&m, SimConfig::default().with_msg_log(true));
        let path = dir.join(format!("classic_{i}.jsonl"));
        let streamed = run_optimal_broadcast(
            &m,
            SimConfig::default().with_sink(SinkSpec::Jsonl(path.clone())),
        );
        assert!(streamed.result.obs.is_empty());
        let log = replay_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(log, retained.result.obs, "classic replay on {m}");

        let spath = dir.join(format!("sharded_{i}.jsonl"));
        let sretained =
            run_optimal_broadcast(&m, SimConfig::default().with_msg_log(true).with_shards(4));
        let sstreamed = run_optimal_broadcast(
            &m,
            SimConfig::default()
                .with_shards(4)
                .with_sink(SinkSpec::Jsonl(spath.clone())),
        );
        assert!(sstreamed.result.obs.is_empty());
        let mut slog = replay_jsonl(&std::fs::read_to_string(&spath).unwrap()).unwrap();
        slog.canonicalize();
        assert_eq!(slog, sretained.result.obs, "sharded replay on {m}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn assert_balanced_json(json: &str, what: &str) {
    let (mut depth, mut min_depth) = (0i64, 0i64);
    for b in json.bytes() {
        match b {
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth -= 1,
            _ => {}
        }
        min_depth = min_depth.min(depth);
    }
    assert_eq!(depth, 0, "{what}: unbalanced JSON");
    assert_eq!(min_depth, 0, "{what}: negative bracket depth");
}

fn flow_ids(json: &str, ph: char) -> Vec<u64> {
    let pat = format!("\"ph\":\"{ph}\",");
    let mut ids = Vec::new();
    for (at, _) in json.match_indices(&pat) {
        let rest = &json[at + pat.len()..];
        if let Some(idx) = rest.find("\"id\":") {
            let digits: String = rest[idx + 5..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect();
            ids.push(digits.parse().unwrap());
        }
    }
    ids.sort_unstable();
    ids
}

/// Fire-and-forget scatter whose termination never depends on
/// receptions, so it survives arbitrary drop/crash plans (the optimal
/// broadcast helpers assert full delivery and cannot run faulted).
struct FaultyScatter;

impl Process for FaultyScatter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.compute(u64::from(ctx.me() % 4) * 2, 0);
        ctx.timer(1 + u64::from(ctx.me() % 3), 0);
    }
    fn on_timer(&mut self, round: u64, ctx: &mut Ctx<'_>) {
        let p = u64::from(ctx.procs());
        let me = u64::from(ctx.me());
        for k in 0..2u64 {
            let dst = (me + 1 + (me * 7 + round * 13 + k * 5) % (p - 1)) % p;
            ctx.send(dst as u32, round as u32, Data::U64(me * 100 + round));
        }
        if round < 3 {
            ctx.timer(2 + (me + round) % 4, round + 1);
        }
    }
}

fn run_scatter(m: &LogP, config: SimConfig) -> logp::sim::SimResult {
    let mut sim = Sim::new(*m, config);
    sim.set_all(|_| Box::new(FaultyScatter));
    sim.run().expect("scatter terminates under any fault plan")
}

/// On crashed and faulted runs the Perfetto export must stay valid and
/// every flow id must appear exactly once as a start and once as an end
/// (no dangling arrows), for both the batch exporter and the streaming
/// sink — and the two must agree on the flow set.
#[test]
fn perfetto_flows_stay_bound_on_faulted_runs() {
    let dir = std::env::temp_dir().join("logp_perfetto_fault_test");
    std::fs::create_dir_all(&dir).unwrap();
    let m = LogP::fig3();
    let plans = [
        FaultPlan::new(0xFEED).with_drop_ppm(200_000),
        FaultPlan::new(0xBEEF)
            .with_dup_ppm(150_000)
            .with_delay(100_000, 9),
        FaultPlan::new(0xC0DE)
            .with_drop_ppm(80_000)
            .with_crash(m.p - 1, 12),
    ];
    for (i, plan) in plans.into_iter().enumerate() {
        let res = run_scatter(&m, SimConfig::observed().with_faults(plan.clone()));
        let json = perfetto_trace_json(&res);
        assert_balanced_json(&json, "batch export");
        let outs = flow_ids(&json, 's');
        let ins = flow_ids(&json, 'f');
        assert_eq!(outs, ins, "every flow start needs a matching end");
        let mut uniq = outs.clone();
        uniq.dedup();
        assert_eq!(uniq.len(), outs.len(), "flow ids must be unique");

        // The streaming writer produces the same flow set (classic
        // streaming ids are the retained dense ids).
        let path = dir.join(format!("fault_{i}.trace.json"));
        let sres = run_scatter(
            &m,
            SimConfig::default()
                .with_faults(plan)
                .with_sink(SinkSpec::Perfetto(path.clone())),
        );
        assert_eq!(sres.stats.completion, res.stats.completion);
        let sjson = std::fs::read_to_string(&path).unwrap();
        assert_balanced_json(&sjson, "streaming export");
        assert_eq!(flow_ids(&sjson, 's'), outs, "streaming flow set");
        assert_eq!(flow_ids(&sjson, 'f'), ins, "streaming flow ends");
    }
    // A zero-overhead machine has zero-width overhead slices: flows
    // cannot bind, so none may be emitted.
    let m0 = LogP::new(4, 0, 1, 16).unwrap();
    let run = run_optimal_broadcast(&m0, SimConfig::observed());
    let json = perfetto_trace_json(&run.result);
    assert_balanced_json(&json, "o=0 export");
    assert!(flow_ids(&json, 's').is_empty(), "no flows at o=0");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Engine vitals describe the run without participating in result
/// equality: lane event counts tile the total, windows advance, and
/// two identical runs compare equal despite different wall clocks.
#[test]
fn engine_vitals_describe_the_run() {
    let m = LogP::new(14, 3, 5, 27).unwrap();
    let classic = run_optimal_broadcast(&m, SimConfig::default());
    let v = &classic.result.vitals;
    assert_eq!(v.engine, "classic");
    assert_eq!(v.lanes, 1);
    assert_eq!(v.events, classic.result.stats.events);
    assert!(v.lane_events.is_empty());

    let sharded = run_optimal_broadcast(&m, SimConfig::default().with_shards(4));
    let sv = &sharded.result.vitals;
    assert_eq!(sv.engine, "sharded");
    assert!(sv.lanes >= 2);
    assert_eq!(sv.lane_events.len(), sv.lanes as usize);
    assert_eq!(
        sv.lane_events.iter().sum::<u64>(),
        sv.events,
        "lane events must tile the total"
    );
    assert!(sv.windows > 0, "at least one lookahead window ran");
    assert!(sv.bucket_depth_max >= 1);
    let json = sv.to_json();
    for key in [
        "\"engine\": \"sharded\"",
        "\"events\":",
        "\"lane_events\": [",
        "\"windows\":",
        "\"fast_forwards\":",
        "\"far_spills\":",
        "\"lane_imbalance\":",
    ] {
        assert!(json.contains(key), "vitals JSON must carry {key}");
    }
    // Vitals are diagnostics, not results: reruns compare equal.
    let again = run_optimal_broadcast(&m, SimConfig::default().with_shards(4));
    assert_eq!(sharded.result, again.result);
}

/// Observability off is really off: identical stats to an observed run,
/// empty logs, and no metrics.
#[test]
fn disabled_observability_changes_nothing() {
    let m = LogP::new(60, 20, 40, 16).unwrap();
    let plain = run_optimal_broadcast(&m, SimConfig::default());
    let observed = run_optimal_broadcast(&m, SimConfig::observed().with_metrics_grid(8));
    assert_eq!(plain.completion, observed.completion);
    assert_eq!(
        plain.result.stats.events, observed.result.stats.events,
        "observation must not perturb the event schedule"
    );
    assert!(plain.result.obs.is_empty());
    assert!(plain.result.trace.spans.is_empty());
    assert!(plain.result.metrics.gauges().is_empty());
}

// ---------------------------------------------------------------------------
// The JSONL artifact: encoder bytes, replay round trip, hostile input
// ---------------------------------------------------------------------------

const UNSET: u64 = u64::MAX;

fn cause_parts(c: Cause) -> (u8, u64) {
    match c {
        Cause::Start => (0, 0),
        Cause::Msg(id) => (1, id),
        Cause::Compute(id) => (2, id),
        Cause::Barrier(id) => (3, id),
        Cause::Retry(id) => (4, id),
    }
}

/// The format as first written — `fmt::write!` per line — kept as the
/// oracle the sink's hand-rolled encoder must match byte for byte.
fn oracle_jsonl(log: &ObsLog, spans: &[Span]) -> String {
    let mut s = String::new();
    for m in &log.msgs {
        let (cs, ci) = cause_parts(m.cause);
        let _ = writeln!(
            s,
            "{{\"k\":\"m\",\"id\":{},\"src\":{},\"dst\":{},\"tag\":{},\"words\":{},\"cs\":{cs},\"ci\":{ci},\
             \"submit\":{},\"gate\":{},\"inject\":{},\"sent\":{},\"arrive\":{},\"rgate\":{},\"rstart\":{},\"deliver\":{}}}",
            m.id, m.src, m.dst, m.tag, m.words, m.submit, m.send_gate, m.inject, m.sent, m.arrive,
            m.recv_gate, m.recv_start, m.deliver
        );
    }
    for c in &log.computes {
        let (cs, ci) = cause_parts(c.cause);
        let _ = writeln!(
            s,
            "{{\"k\":\"c\",\"id\":{},\"proc\":{},\"tag\":{},\"cs\":{cs},\"ci\":{ci},\"submit\":{},\"start\":{},\"end\":{}}}",
            c.id, c.proc, c.tag, c.submit, c.start, c.end
        );
    }
    for b in &log.barriers {
        let (cs, ci) = cause_parts(b.cause);
        let _ = writeln!(
            s,
            "{{\"k\":\"b\",\"id\":{},\"proc\":{},\"cs\":{cs},\"ci\":{ci},\"submit\":{},\"enter\":{},\"release\":{}}}",
            b.id, b.last_proc, b.submit, b.enter, b.release
        );
    }
    for t in &log.timers {
        let (cs, ci) = cause_parts(t.cause);
        let _ = writeln!(
            s,
            "{{\"k\":\"t\",\"id\":{},\"proc\":{},\"tag\":{},\"cs\":{cs},\"ci\":{ci},\"submit\":{},\"armed\":{},\"fire\":{}}}",
            t.id, t.proc, t.tag, t.submit, t.armed, t.fire
        );
    }
    for sp in spans {
        let _ = writeln!(
            s,
            "{{\"k\":\"s\",\"proc\":{},\"start\":{},\"end\":{},\"act\":{}}}",
            sp.proc, sp.start, sp.end, sp.activity as u8
        );
    }
    s
}

/// Records of every kind, ids ascending per kind, cycling through every
/// `Cause` variant and the extremes of every field width (`0`, one- to
/// twenty-digit values, `UNSET`/`u64::MAX`, `u32::MAX`) — enough lines
/// to push the sink through several buffer flushes.
fn artifact_records() -> (ObsLog, Vec<Span>) {
    let edge = |i: u64| match i % 7 {
        0 => 0,
        1 => 9,
        2 => 10,
        3 => 99_999,
        4 => mix(&[0xA27, i]),
        5 => u64::MAX - 1,
        _ => UNSET,
    };
    let cause = |i: u64| match i % 5 {
        0 => Cause::Start,
        1 => Cause::Msg(edge(i)),
        2 => Cause::Compute(edge(i + 1)),
        3 => Cause::Barrier(edge(i + 2)),
        _ => Cause::Retry(edge(i + 3)),
    };
    let narrow = |i: u64| {
        if i.is_multiple_of(3) {
            u32::MAX
        } else {
            edge(i) as u32
        }
    };
    let mut log = ObsLog::default();
    let mut spans = Vec::new();
    for i in 0..700u64 {
        log.msgs.push(MsgRecord {
            id: i,
            src: narrow(i),
            dst: narrow(i + 1),
            tag: narrow(i + 2),
            words: edge(i + 3),
            cause: cause(i),
            submit: edge(i),
            send_gate: edge(i + 1),
            inject: edge(i + 2),
            sent: edge(i + 3),
            arrive: edge(i + 4),
            recv_gate: edge(i + 5),
            recv_start: edge(i + 6),
            deliver: if i.is_multiple_of(2) { UNSET } else { edge(i) },
        });
        log.computes.push(ComputeRecord {
            id: i,
            proc: narrow(i),
            tag: edge(i + 1),
            cause: cause(i + 1),
            submit: edge(i + 2),
            start: edge(i + 3),
            end: edge(i + 4),
        });
        log.barriers.push(BarrierRecord {
            id: i,
            last_proc: narrow(i + 1),
            submit: edge(i),
            enter: edge(i + 1),
            release: edge(i + 2),
            cause: cause(i + 2),
        });
        log.timers.push(TimerRecord {
            id: i,
            proc: narrow(i + 2),
            tag: edge(i + 6),
            cause: cause(i + 3),
            submit: edge(i + 4),
            armed: edge(i + 5),
            fire: edge(i + 6),
        });
        spans.push(Span {
            proc: narrow(i),
            start: edge(i),
            end: edge(i + 1),
            activity: [
                Activity::SendOverhead,
                Activity::RecvOverhead,
                Activity::Compute,
                Activity::Stall,
                Activity::Barrier,
            ][(i % 5) as usize],
        });
    }
    (log, spans)
}

/// What `JsonlSink` writes for `log` + `spans`, in `oracle_jsonl`'s order.
fn sink_jsonl(log: &ObsLog, spans: &[Span], name: &str) -> String {
    let path = std::env::temp_dir().join(format!("logp_{name}_{}.jsonl", std::process::id()));
    let mut sink = JsonlSink::create(&path);
    log.msgs.iter().for_each(|m| sink.on_msg(m));
    log.computes.iter().for_each(|c| sink.on_compute(c));
    log.barriers.iter().for_each(|b| sink.on_barrier(b));
    log.timers.iter().for_each(|t| sink.on_timer(t));
    spans.iter().for_each(|sp| sink.on_span(sp));
    sink.finish().expect("temp file writes");
    let text = std::fs::read_to_string(&path).expect("the sink wrote its file");
    let _ = std::fs::remove_file(&path);
    text
}

/// The sink's bytes are the original `write!` encoder's bytes, and they
/// replay to exactly the records that went in (spans are not log
/// records and drop out).
#[test]
fn jsonl_sink_matches_the_format_oracle_and_round_trips() {
    let (log, spans) = artifact_records();
    let text = sink_jsonl(&log, &spans, "oracle");
    assert!(text.len() > 4 * (1 << 16), "must cross several flushes");
    assert_eq!(text, oracle_jsonl(&log, &spans));
    assert_eq!(replay_jsonl(&text).expect("own output replays"), log);
}

/// Replayed text is input we do not control: a record line missing its
/// cause, a number past `u64`, a processor id past `u32`, a cut-off or
/// repeated field are all errors that name the field and quote the
/// line; span lines are skipped whatever they hold.
#[test]
fn replay_rejects_incomplete_and_out_of_range_records() {
    let good = "{\"k\":\"c\",\"id\":0,\"proc\":1,\"tag\":2,\"cs\":1,\"ci\":7,\"submit\":3,\"start\":4,\"end\":5}";
    let log = replay_jsonl(good).unwrap();
    assert_eq!(log.computes[0].cause, Cause::Msg(7));
    // Field order is free and unknown keys are ignored.
    let shuffled = "{\"k\":\"c\",\"end\":5,\"x\":9,\"ci\":7,\"cs\":1,\"id\":0,\"proc\":1,\"tag\":2,\"submit\":3,\"start\":4}";
    assert_eq!(replay_jsonl(shuffled).unwrap(), log);
    assert!(replay_jsonl("\n{\"k\":\"s\",\"proc\":garbage\n\n")
        .unwrap()
        .is_empty());

    let err_of = |line: &str| replay_jsonl(line).expect_err(line);
    for (key, cut) in [
        ("cs", "\"cs\":1,"),
        ("ci", "\"ci\":7,"),
        ("end", ",\"end\":5"),
    ] {
        let line = good.replace(cut, "");
        let err = err_of(&line);
        assert!(
            err.contains(&format!("missing field {key:?}")) && err.contains(&format!("{line:?}")),
            "{err}"
        );
    }
    let kinds = [
        "{\"k\":\"m\",\"id\":0,\"src\":0,\"dst\":1,\"tag\":0,\"words\":1,\"submit\":0,\"gate\":0,\"inject\":0,\"sent\":2,\"arrive\":8,\"rgate\":0,\"rstart\":8,\"deliver\":10}",
        "{\"k\":\"b\",\"id\":0,\"proc\":1,\"submit\":3,\"enter\":4,\"release\":5}",
        "{\"k\":\"t\",\"id\":0,\"proc\":1,\"tag\":2,\"submit\":3,\"armed\":4,\"fire\":5}",
    ];
    for line in kinds {
        assert!(err_of(line).contains("missing field \"cs\""), "{line}");
    }
    let cases = [
        (
            good.replace("\"id\":0", "\"id\":18446744073709551616"),
            "bad \"id\"",
        ),
        (
            good.replace("\"proc\":1", "\"proc\":4294967296"),
            "bad \"proc\"",
        ),
        (good.replace("\"cs\":1", "\"cs\":5"), "bad \"cs\""),
        (good.replace("\"tag\":2", "\"tag\":x"), "bad \"tag\""),
        (
            good.replace("\"tag\":2", "\"tag\":2,\"tag\":2"),
            "duplicate field \"tag\"",
        ),
        (good[..good.len() - 3].to_string(), "malformed record line"),
        (
            good.replace("\"k\":\"c\"", "\"k\":\"q\""),
            "unknown record kind",
        ),
        (good.replacen('{', "", 1), "missing kind"),
    ];
    for (line, what) in cases {
        let err = err_of(&line);
        assert!(
            err.contains(what) && err.contains(&format!("{line:?}")),
            "{err}"
        );
    }
}

/// A replayed log as `critical_path` and `ancestry` must take it: as
/// input we do not control. Each row is a stream for a machine of four
/// processors, the message whose ancestry to ask for (one link in every
/// row), and the path total expected (`None`: the chain from the last
/// event cannot be followed).
#[test]
fn critical_path_and_ancestry_survive_sampled_and_damaged_logs() {
    let msg = |id: u64, src: u32, dst: u32, (cs, ci): (u8, u64)| {
        format!(
            "{{\"k\":\"m\",\"id\":{id},\"src\":{src},\"dst\":{dst},\"tag\":0,\"words\":1,\
             \"cs\":{cs},\"ci\":{ci},\"submit\":0,\"gate\":0,\"inject\":0,\"sent\":2,\
             \"arrive\":8,\"rgate\":0,\"rstart\":8,\"deliver\":10}}"
        )
    };
    let compute = "{\"k\":\"c\",\"id\":0,\"proc\":9,\"tag\":0,\"cs\":0,\"ci\":0,\"submit\":0,\"start\":0,\"end\":99}";
    let table = [
        // What a reservoir of one writes: a record whose id is not its index.
        ("sparse id", vec![msg(7, 0, 1, (0, 0))], 7, Some(10)),
        ("cause not in the log", vec![msg(7, 0, 1, (1, 3))], 7, None),
        ("src past P", vec![msg(0, 5, 1, (0, 0))], 0, None),
        ("dst past P", vec![msg(0, 0, 4, (0, 0))], 0, None),
        (
            "proc past P",
            vec![msg(0, 0, 1, (0, 0)), compute.to_string()],
            0,
            None,
        ),
        ("cites itself", vec![msg(0, 0, 1, (1, 0))], 0, None),
    ];
    for (what, lines, id, total) in table {
        let log = replay_jsonl(&lines.join("\n")).expect(what);
        assert_eq!(log.ancestry(id).len(), 1, "{what}");
        let replayed = logp::sim::SimResult {
            stats: SimStats {
                procs: vec![Default::default(); 4],
                ..Default::default()
            },
            obs: log,
            ..Default::default()
        };
        let path = critical_path(&replayed);
        assert_eq!(path.as_ref().map(|p| p.total), total, "{what}");
        assert!(path.is_none_or(|p| p.components.sum() == p.total), "{what}");
    }
    // A cycle of two is cut at the log's own length.
    let pair = [msg(0, 0, 1, (1, 1)), msg(1, 1, 0, (1, 0))].join("\n");
    let log = replay_jsonl(&pair).unwrap();
    assert_eq!(log.ancestry(0), vec![Cause::Msg(1), Cause::Msg(0)]);

    // Well-formed sampled streams of a real run: whatever subset the
    // policy kept, the walk answers — the run's own path when the chain
    // is whole, `None` when the sample cut it.
    let m = LogP::fig3();
    let dir = std::env::temp_dir().join(format!("logp_obs_sampled_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (i, policy) in [
        ObsSampling::All,
        ObsSampling::Stride(3),
        ObsSampling::HeadTail(1),
        ObsSampling::Reservoir { k: 1, seed: 7 },
        ObsSampling::Reservoir { k: 4, seed: 7 },
    ]
    .into_iter()
    .enumerate()
    {
        let path = dir.join(format!("{i}.jsonl"));
        let config = SimConfig::default()
            .with_sink(SinkSpec::Jsonl(path.clone()))
            .with_sampling(policy.clone());
        let run = run_optimal_broadcast(&m, config);
        let log = replay_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(!log.msgs.is_empty(), "{policy:?} samples something");
        for rec in &log.msgs {
            assert!(log.ancestry(rec.id).len() <= log.msgs.len(), "{policy:?}");
        }
        let replayed = logp::sim::SimResult {
            stats: run.result.stats.clone(),
            obs: log,
            ..Default::default()
        };
        let whole = policy == ObsSampling::All;
        match critical_path(&replayed) {
            Some(cp) => {
                assert_eq!(cp.components.sum(), cp.total, "{policy:?}");
                assert!(!whole || cp.total == run.completion);
            }
            None => assert!(!whole, "the full stream has its path"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Passes a token round the ring for `hops` hops: every send is caused by
/// the delivery before it, one causal chain as long as the run.
struct Relay {
    hops: u64,
}

impl Process for Relay {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.me() == 0 {
            ctx.send(1, 0, Data::U64(1));
        }
    }
    fn on_message(&mut self, msg: &Message, ctx: &mut Ctx<'_>) {
        let hop = msg.data.as_u64();
        if hop < self.hops {
            ctx.send((ctx.me() + 1) % ctx.procs(), 0, Data::U64(hop + 1));
        }
    }
}

/// A sampled lane log, replayed and canonicalized: every other record is
/// missing, so causes name records the log does not hold. They renumber
/// to an id nothing carries, and the walks stop there.
#[test]
fn a_sampled_replay_canonicalizes() {
    let m = LogP::fig3();
    let path = std::env::temp_dir().join(format!("logp_obs_relay_{}.jsonl", std::process::id()));
    let config = SimConfig::default()
        .with_shards(2)
        .with_sink(SinkSpec::Jsonl(path.clone()))
        .with_sampling(ObsSampling::Stride(2));
    let mut sim = Sim::new(m, config);
    sim.set_all(|_| Box::new(Relay { hops: 20 }));
    sim.run().expect("the relay completes");
    let mut log = replay_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let _ = std::fs::remove_file(&path);
    let kept = log.msgs.len();
    assert!((1..20).contains(&kept), "{kept} of 20 messages sampled");
    log.canonicalize();
    for (i, rec) in log.msgs.iter().enumerate() {
        assert_eq!(rec.id, i as u64);
        match rec.cause {
            Cause::Start => assert_eq!(i, 0),
            Cause::Msg(id) => assert!(id == UNSET || id < i as u64, "{:?}", rec.cause),
            other => panic!("a relay hop caused by {other:?}"),
        }
        assert!(log.ancestry(rec.id).len() <= 1);
    }
    let replayed = logp::sim::SimResult {
        stats: SimStats {
            procs: vec![Default::default(); m.p as usize],
            ..Default::default()
        },
        obs: log,
        ..Default::default()
    };
    assert!(critical_path(&replayed).is_none_or(|cp| cp.components.sum() == cp.total));
}

/// Seeded byte-mutation and truncation fuzz over real sink output:
/// `replay_jsonl` answers `Ok` or `Err` on every mutant, never a panic
/// (an overflowing index or slice would abort the test), and so does the
/// next consumer of what it accepts, `workload_from_obslog` + `validate`.
/// Two streams take turns: the extreme-valued records above, which the
/// converter mostly refuses, and the log of a real run (`tour.wl`: every
/// record kind on four processors), whose mutants reach deep into it.
#[test]
fn replay_survives_mutated_and_truncated_streams() {
    let (mut log, spans) = artifact_records();
    log.msgs.truncate(12);
    log.computes.truncate(6);
    log.barriers.truncate(6);
    log.timers.truncate(6);
    let tour = std::fs::read_to_string("examples/workloads/tour.wl").expect("tour.wl");
    let tour = logp::wl::load_workload(&tour).expect("tour.wl loads");
    let run = logp::wl::run_workload(
        &tour,
        &LogP::fig3(),
        SimConfig::default().with_msg_log(true),
    );
    let real = run.expect("tour.wl runs").result.obs;
    let texts = [
        sink_jsonl(&log, &spans[..6], "fuzz").into_bytes(),
        sink_jsonl(&real, &[], "fuzz_real").into_bytes(),
    ];
    let alphabet = b"{}\":,0123456789kmcbtsx \n\xff\xc3";
    let (mut ok, mut err) = (0u32, 0u32);
    let (mut replayed, mut refused) = (0u32, 0u32);
    for i in 0..12_000u64 {
        let mut bytes = texts[(i % 2) as usize].clone();
        for j in 0..1 + mix(&[i, 1]) % 3 {
            if bytes.is_empty() {
                break;
            }
            let at = (mix(&[i, 2, j]) % bytes.len() as u64) as usize;
            match mix(&[i, 3, j]) % 4 {
                0 => bytes[at] = alphabet[(mix(&[i, 4, j]) % alphabet.len() as u64) as usize],
                1 => bytes[at] ^= 1 << (mix(&[i, 5, j]) % 8),
                2 => drop(bytes.remove(at)),
                _ => bytes.truncate(at),
            }
        }
        // The API takes `&str`; bytes that are no longer UTF-8 are cut
        // at the first bad one, as a reader would have failed there.
        let valid = match std::str::from_utf8(&bytes) {
            Ok(s) => s,
            Err(e) => std::str::from_utf8(&bytes[..e.valid_up_to()]).unwrap(),
        };
        match replay_jsonl(valid) {
            Ok(log) => {
                ok += 1;
                let dag = logp::wl::workload_from_obslog(&log, tour.procs, "mutant");
                match dag.and_then(|wl| wl.validate()) {
                    Ok(()) => replayed += 1,
                    Err(_) => refused += 1,
                }
            }
            Err(_) => err += 1,
        }
    }
    assert!(
        ok > 100 && err > 1_000,
        "both outcomes exercised: {ok} ok, {err} err"
    );
    assert!(
        replayed > 100 && refused > 100,
        "both outcomes exercised: {replayed} replayed, {refused} refused"
    );
}

// ---------------------------------------------------------------------------
// Deep backlog: the online aggregate against the backward walk
// ---------------------------------------------------------------------------

/// Everyone computes and meets in a barrier; on the release processor 0
/// queues `k` reliable sends (each with its retransmission timer) and a
/// compute every 16th from ONE handler, so every one of those commands
/// waits in a window that opens at the release and spans all the
/// activity before it. Receivers compute per message; once every send is
/// acknowledged the root's long closing compute is the run's unique last
/// event.
struct Backlog {
    k: u32,
    ep: Endpoint,
    closed: bool,
}

impl Process for Backlog {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.compute(3 + u64::from(ctx.me()), 0);
        ctx.barrier();
    }
    fn on_barrier_release(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.me() == 0 {
            for i in 0..self.k {
                if i % 16 == 0 {
                    ctx.compute(2, 1);
                }
                let dst = 1 + i % (ctx.procs() - 1);
                self.ep.send(ctx, dst, 1, Data::U64(u64::from(i)));
            }
        }
    }
    fn on_message(&mut self, msg: &Message, ctx: &mut Ctx<'_>) {
        if self.ep.on_message(msg, ctx).is_some() {
            ctx.compute(1, 2);
        }
        if ctx.me() == 0 && self.ep.idle() && !self.closed {
            self.closed = true;
            ctx.compute(200, 3);
        }
    }
    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        self.ep.on_timer(tag, ctx);
    }
}

/// Most span-buffer entries one wait window may read, whatever the
/// backlog: window starts are snapshots, so only a gap gate inside the
/// window is looked up, a few spans back from the newest.
const WINDOW_PROBES_MAX: u64 = 8;

/// The online aggregate equals `critical_path` on the retained log —
/// total and every component — when one handler's backlog is 1, 65 or
/// 300 commands deep, with computes, a barrier, retransmission timers and
/// a drop/dup/delay plan in play (every class but `stall` lands on some
/// path), on the classic engine and on 2 and 8 lanes. The spans read per
/// wait window stay under one constant however deep the backlog.
#[test]
fn online_aggregate_matches_critical_path_under_deep_backlog() {
    let m = LogP::new(12, 2, 3, 12).unwrap();
    let plan = FaultPlan::new(0xBAC7106)
        .with_drop_ppm(30_000)
        .with_dup_ppm(10_000)
        .with_delay(20_000, 5);
    for k in [1u32, 65, 300] {
        let run = |config: SimConfig| {
            let mut sim = Sim::new(m, config.with_faults(plan.clone()));
            sim.set_all(|_| {
                Box::new(Backlog {
                    k,
                    ep: Endpoint::new(RetryConfig::for_model(&m)),
                    closed: false,
                })
            });
            sim.run().expect("every reliable send is acknowledged")
        };
        for lanes in [0u32, 2, 8] {
            let base = SimConfig {
                barrier_cost: 5,
                ..SimConfig::default()
            }
            .with_shards(lanes);
            let what = format!("k={k}, {lanes} lanes");
            let retained = run(base.clone().with_msg_log(true));
            let cp = critical_path(&retained).expect("msg log recorded");
            let streamed = run(base.with_aggregate(true));
            let agg = streamed.aggregate.as_ref().expect("aggregate maintained");
            assert_eq!(streamed.stats, retained.stats, "{what}");
            assert_eq!(agg.critical_total, cp.total, "terminal instant, {what}");
            assert_eq!(agg.critical_total, retained.stats.completion, "{what}");
            assert_eq!(agg.critical, cp.components, "decomposition, {what}");
            assert_eq!(agg.timers as usize, retained.obs.timers.len(), "{what}");
            let c = &cp.components;
            assert!(
                c.o > 0 && c.l > 0 && c.compute >= 200 && c.barrier >= 5,
                "{what}"
            );
            if cfg!(debug_assertions) {
                let probes = streamed.vitals.agg_window_probes_max;
                assert!(
                    (1..=WINDOW_PROBES_MAX).contains(&probes),
                    "{probes} spans read, {what}"
                );
            }
        }
    }
}

/// All-to-all in the §4.1.4 convoy order: every sender walks the
/// destinations in the same order, so each round converges on one
/// destination at a time and senders stall on its capacity while their
/// own arrivals queue up.
struct HotSpot {
    rounds: u32,
    got: u32,
}

impl HotSpot {
    fn blast(ctx: &mut Ctx<'_>) {
        let me = ctx.me();
        for dst in (0..ctx.procs()).filter(|&d| d != me) {
            ctx.send(dst, 0, Data::Empty);
        }
    }
}

impl Process for HotSpot {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        HotSpot::blast(ctx);
    }
    fn on_message(&mut self, _msg: &Message, ctx: &mut Ctx<'_>) {
        self.got += 1;
        if self.got == ctx.procs() - 1 {
            self.got = 0;
            self.rounds -= 1;
            if self.rounds > 0 {
                HotSpot::blast(ctx);
            }
        }
    }
}

/// Reception windows that open inside capacity stalls: the online
/// aggregate equals `critical_path` on the retained log of a hot-spot
/// all-to-all, total and every component, on the classic engine (where
/// 144 cycles of the path are stalls) and on 2 and 8 lanes (which relax
/// destination capacity, so nothing stalls).
#[test]
fn online_aggregate_matches_critical_path_through_capacity_stalls() {
    let m = LogP::new(6, 2, 4, 64).unwrap();
    let run = |config: SimConfig| {
        let mut sim = Sim::new(m, config);
        sim.set_all(|_| Box::new(HotSpot { rounds: 2, got: 0 }));
        sim.run().expect("the convoy drains")
    };
    for lanes in [0u32, 2, 8] {
        let base = SimConfig::default().with_shards(lanes);
        let retained = run(base.clone().with_msg_log(true));
        let cp = critical_path(&retained).expect("msg log recorded");
        let streamed = run(base.with_aggregate(true));
        let agg = streamed.aggregate.as_ref().expect("aggregate maintained");
        assert_eq!(streamed.stats, retained.stats, "{lanes} lanes");
        assert_eq!(agg.critical_total, cp.total, "{lanes} lanes");
        assert_eq!(agg.critical, cp.components, "{lanes} lanes");
        assert_eq!(cp.components.stall > 0, lanes == 0, "{lanes} lanes");
    }
}
