//! The ledger's vocabulary: every workload and metric name, with its unit,
//! direction and (for end-to-end metrics) regression bound. `BENCHMARK.json`
//! at the repository root is generated from these tables (`logp-perf
//! manifest`) and a test pins the two together.

use crate::json::Json;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "p2p_chain",
        why: "two processors ping-pong, queue depth 1: the per-event floor a calendar-queue or lane design can lose on",
    },
    Workload {
        name: "p2p_dense",
        why: "P=1024 all-to-all, staggered then hot-spot rounds: deep heap and capacity stalls; engine loop is >99% of the run",
    },
    Workload {
        name: "coll_512k",
        why: "optimal broadcast + all-reduce on the 8-lane engine at large P: set-up, memory and a sparse queue dominate",
    },
    Workload {
        name: "hier_faulted",
        why: "3-level hierarchy collectives == closed forms, then reliable collectives under drop/dup/delay: the only FAULTS and hierarchy paths",
    },
    Workload {
        name: "wl_text",
        why: "a generated .wl program loaded from text then interpreted: loader + validator + interpreter compile dominate, engine little",
    },
    Workload {
        name: "obs_stream",
        why: "staggered traffic with JSONL sink + online aggregate, then replay and critical path: the OBS monomorph and sink I/O",
    },
    Workload {
        name: "sweep_small",
        why: "sweep_map over a seeded machine grid with closed form == simulation per point, plus the core DPs: per-run build cost",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Host time (or a rate over it): co-tenant noise only ever makes it
    /// worse, so the gate reports the run's best job, not the median.
    pub timing: bool,
}

/// `fail_ratio` is not here: the gate requires metrics that are never 0
/// and carries failed/attempted checks in every result line instead.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        timing: true,
    },
    EndToEnd {
        name: "msgs_per_s",
        unit: "msg/s",
        better: Better::Higher,
        bound: 0.25,
        timing: true,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        timing: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        // Exact to 0.1 % on the large workloads, but `sweep_small`'s 9 MiB
        // moves 3–6 % with the seed (DP memo tables cross a doubling).
        bound: 0.15,
        timing: false,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Repeats bit-for-bit on one commit; compared for equality, never by
    /// a bound.
    pub exact: bool,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: false,
    }
}

/// An exact (†) count. Direction is nominal: `compare` only asks whether
/// it is identical.
const fn x(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher as H, Lower as L};

pub const PER_LAYER: [Layer; 88] = [
    // sim.engine — every workload.
    m("sim.engine.loop_s", "s", L),
    m("sim.engine.build_s", "s", L),
    x("sim.engine.events", "count", L),
    x("sim.engine.msgs", "count", H),
    m("sim.engine.ns_per_event", "ns", L),
    m("sim.engine.ns_per_msg", "ns", L),
    x("sim.engine.stall_cycles", "cycles", L),
    x("sim.engine.max_inflight_dst", "count", L),
    m("sim.engine.stagger_loop_s", "s", L),
    m("sim.engine.hotspot_loop_s", "s", L),
    m("sim.engine.stagger_ns_per_msg", "ns", L),
    m("sim.engine.hotspot_ns_per_msg", "ns", L),
    m("sim.engine.rss_bytes_per_proc", "bytes", L),
    // sim.shard — coll_512k path; speed-up probes on p2p traffic.
    m("sim.shard.loop_s", "s", L),
    x("sim.shard.windows", "count", L),
    x("sim.shard.fast_forwards", "count", H),
    x("sim.shard.bucket_depth_max", "count", L),
    x("sim.shard.far_spills", "count", L),
    m("sim.shard.lane_imbalance", "ratio", L),
    x("sim.shard.capacity_relaxed", "count", L),
    m("sim.shard.dense_speedup_l2", "ratio", H),
    m("sim.shard.dense_speedup_l8", "ratio", H),
    m("sim.shard.chain_speedup_l2", "ratio", H),
    // sim.plane — probes only.
    m("sim.plane.dense_speedup_w2", "ratio", H),
    m("sim.plane.coll_speedup_w2", "ratio", H),
    m("sim.plane.barrier_wait_share", "ratio", L),
    // sim.obs / sim.critpath / sim.perfetto — obs_stream.
    m("sim.obs.stream_loop_s", "s", L),
    x("sim.obs.bytes", "bytes", L),
    x("sim.obs.records", "count", L),
    m("sim.obs.bytes_per_msg", "bytes", L),
    m("sim.obs.sink_mb_per_s", "MB/s", H),
    m("sim.obs.replay_s", "s", L),
    m("sim.obs.replay_mb_per_s", "MB/s", H),
    m("sim.obs.slowdown_trace", "ratio", L),
    m("sim.obs.slowdown_msg_log", "ratio", L),
    m("sim.obs.slowdown_aggregate", "ratio", L),
    m("sim.obs.slowdown_sampled", "ratio", L),
    m("sim.obs.slowdown_stream", "ratio", L),
    m("sim.critpath.walk_s", "s", L),
    x("sim.critpath.steps", "count", L),
    x("sim.critpath.agg_equals_walk", "count", H),
    m("sim.perfetto.stream_mb_per_s", "MB/s", H),
    // sim.faults / sim.reliable / core.hier / algos.hier — hier_faulted.
    m("sim.faults.loop_s", "s", L),
    m("sim.faults.ns_per_msg", "ns", L),
    x("sim.faults.dropped", "count", L),
    x("sim.faults.duplicated", "count", L),
    x("sim.faults.delayed", "count", L),
    x("sim.reliable.retries", "count", L),
    m("algos.hier.call_s", "s", L),
    m("algos.hier.loop_s", "s", L),
    m("core.hier.eval_s", "s", L),
    m("sim.faults.zero_plan_overhead", "ratio", L),
    m("core.hier.flat_overhead", "ratio", L),
    // algos / core.broadcast — coll_512k.
    m("algos.broadcast.call_s", "s", L),
    m("algos.allreduce.call_s", "s", L),
    m("core.broadcast.tree_s", "s", L),
    m("algos.broadcast.build_share", "ratio", L),
    // wl — wl_text (replay.from_log_s on obs_stream).
    x("wl.nodes", "count", H),
    x("wl.text_bytes", "bytes", L),
    m("wl.parse.s", "s", L),
    m("wl.parse.mb_per_s", "MB/s", H),
    m("wl.parse.ns_per_node", "ns", L),
    m("wl.parse.scaling_x8", "ratio", L),
    m("wl.ir.validate_s", "s", L),
    m("wl.ir.validate_ns_per_node", "ns", L),
    m("wl.interp.build_s", "s", L),
    m("wl.interp.loop_s", "s", L),
    m("wl.interp.ns_per_node", "ns", L),
    x("wl.interp.unmatched", "count", L),
    m("wl.replay.from_log_s", "s", L),
    // sim.runner / core.summation / core.broadcast — sweep_small.
    x("sim.runner.points", "count", H),
    m("sim.runner.sim_phase_s", "s", L),
    m("sim.runner.point_us_p50", "us", L),
    m("sim.runner.point_us_p95", "us", L),
    m("sim.runner.build_share", "ratio", L),
    m("sim.runner.speedup_t2", "ratio", H),
    m("core.summation.min_time_s", "s", L),
    m("core.summation.point_ms_max", "ms", L),
    m("core.summation.schedule_s", "s", L),
    m("core.broadcast.time_s", "s", L),
    m("core.broadcast.tree_sweep_s", "s", L),
    x("core.closed_form_checks", "count", H),
    // bench — every workload.
    m("bench.trace_overhead_ratio", "ratio", L),
    m("bench.unexplained_share", "ratio", L),
    m("bench.gen_s", "s", L),
    m("bench.run_spread", "ratio", L),
    x("bench.checks_attempted", "count", H),
    x("bench.checks_failed", "count", L),
];

pub fn layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|l| l.name == name)
}

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

/// How long one gated run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::from(*s)).collect());
    let mut root = Json::obj();
    root.put("command", strs(&["bash", "benchmark/run.sh"]))
        .put("paths", strs(&["benchmark"]))
        .put("run_seconds", RUN_SECONDS)
        .put(
            "workloads",
            WORKLOADS
                .iter()
                .map(|w| {
                    let mut o = Json::obj();
                    o.put("name", w.name).put("why", w.why);
                    o
                })
                .collect::<Vec<_>>(),
        )
        .put(
            "end_to_end",
            END_TO_END
                .iter()
                .map(|e| {
                    let mut o = Json::obj();
                    o.put("name", e.name)
                        .put("unit", e.unit)
                        .put("better", e.better.as_str())
                        .put("bound", e.bound);
                    o
                })
                .collect::<Vec<_>>(),
        )
        .put(
            "per_layer",
            PER_LAYER
                .iter()
                .map(|l| {
                    let mut o = Json::obj();
                    o.put("name", l.name)
                        .put("unit", l.unit)
                        .put("better", l.better.as_str());
                    o
                })
                .collect::<Vec<_>>(),
        );
    root.to_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_meet_the_manifest_rules_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for e in &END_TO_END {
            assert!(name_ok(e.name) && unit_ok(e.unit), "{}", e.name);
            assert!(e.bound > 0.0 && e.bound <= 0.25, "{}", e.name);
            assert!(seen.insert(e.name), "duplicate {}", e.name);
        }
        for l in &PER_LAYER {
            assert!(name_ok(l.name) && unit_ok(l.unit), "{}", l.name);
            assert!(seen.insert(l.name), "duplicate {}", l.name);
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|e| e.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|e| e.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_at_the_root_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `logp-perf manifest > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
