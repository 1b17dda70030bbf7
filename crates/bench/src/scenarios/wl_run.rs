//! wl_run: load, validate, and execute workload DSL programs
//! (`logp-wl`) from the command line.
//!
//! Modes:
//!
//! * default — run the golden corpus (`examples/workloads/*.wl`) on the
//!   preset each file declares and print one JSON object per program.
//! * `--file PATH [--preset NAME]` — run one program. The machine
//!   defaults to the file's `preset` directive (fig3 if absent);
//!   `--preset` overrides. `--shards N` selects the sharded engine.
//! * `--fuzz N [--seed S]` — generate N random valid DAGs (seed `S`, a
//!   `u32`) and run each differentially: classic vs lanes {2, 4},
//!   asserting bit-identical completion, per-node finish times, and
//!   workload projection.
//! * the check (`logp-bench checks wl_run`) — the CI pins: every corpus
//!   file byte-matches its emitter and its run matches the built-in
//!   `Process` implementation cycle-exactly on its preset; a malformed
//!   probe is rejected with the pinned span; a 64-seed fuzz smoke passes
//!   the differential; and a JSONL → DAG → run replay round-trip
//!   reproduces the original completion. `--full` deepens the fuzz smoke
//!   to 256 seeds.
//! * `--emit-corpus` — regenerate the emitter-derived corpus files in
//!   `examples/workloads/` (the hand-written `tour.wl` is left alone).
//!
//! Observability passthrough: `--trace-out/--vitals-out/--metrics-out
//! PREFIX` and `--stream` work as in the other scenarios.

use logp_algos::allreduce::run_allreduce_reduce_bcast;
use logp_algos::broadcast::run_optimal_broadcast;
use logp_algos::reduce::run_sum_schedule;
use logp_bench::{Args, Flag};
use logp_core::summation::optimal_sum_schedule;
use logp_core::{Cycles, LogP};
use logp_sim::{replay_jsonl, SimConfig, SinkSpec};
use logp_wl::{
    allreduce_workload, broadcast_workload, gen_workload, load_workload, preset, projection,
    run_workload, summation_workload, to_text, workload_from_obslog, FuzzConfig, WlRun, Workload,
    UNSET,
};

const CORPUS_DIR: &str = "examples/workloads";

/// The emitter-derived corpus: `(file, workload-with-preset-hint,
/// built-in completion oracle)`.
fn corpus() -> Vec<(&'static str, Workload, Cycles)> {
    let fig3 = LogP::fig3();
    let fig4 = LogP::fig4();
    let mut bcast = broadcast_workload(&fig3);
    bcast.preset = Some("fig3".into());
    let bc = run_optimal_broadcast(&fig3, SimConfig::default()).completion;
    let mut sum = summation_workload(&fig4, 28);
    sum.preset = Some("fig4".into());
    let sc = run_sum_schedule(&optimal_sum_schedule(&fig4, 28), SimConfig::default()).completion;
    let mut ared = allreduce_workload(&fig3);
    ared.preset = Some("fig3".into());
    let values: Vec<f64> = (0..fig3.p).map(f64::from).collect();
    let ac = run_allreduce_reduce_bcast(&fig3, &values, SimConfig::default()).completion;
    vec![
        ("broadcast_fig3.wl", bcast, bc),
        ("summation_fig4.wl", sum, sc),
        ("allreduce_fig3.wl", ared, ac),
    ]
}

fn machine_for(wl: &Workload, cli_preset: Option<&str>) -> LogP {
    let name = cli_preset
        .map(str::to_string)
        .or_else(|| wl.preset.clone())
        .unwrap_or_else(|| "fig3".into());
    preset(&name)
        .unwrap_or_else(|| {
            panic!(
                "unknown preset `{name}` (valid: {:?})",
                logp_wl::PRESET_NAMES
            )
        })
        .with_p(wl.procs)
}

fn json_line(name: &str, m: &LogP, run: &WlRun) -> String {
    let (completion, msgs, dropped, _) = projection(&run.result);
    let finished = run.node_times.iter().filter(|&&t| t != UNSET).count();
    format!(
        "{{\"workload\":\"{}\",\"l\":{},\"o\":{},\"g\":{},\"p\":{},\"completion\":{},\
         \"msgs\":{},\"dropped\":{},\"nodes\":{},\"unmatched\":{}}}",
        name, m.l, m.o, m.g, m.p, completion, msgs, dropped, finished, run.unmatched
    )
}

/// Classic vs lanes {2, 4}: bit-identical completion, node finish
/// times, and workload projection. The machine keeps capacity slack
/// (⌈L/g⌉ = 64) so the classic engine's capacity stall never engages —
/// the one knob the sharded engine intentionally relaxes.
fn fuzz_differential(count: u64, seed: u64) {
    let m = LogP::new(64, 2, 1, 8).expect("valid model");
    let cfg = FuzzConfig::default();
    for i in 0..count {
        let wl = gen_workload(seed ^ i, &cfg);
        wl.validate()
            .unwrap_or_else(|e| panic!("seed {}: invalid DAG: {e}", seed ^ i));
        let classic = run_workload(&wl, &m, SimConfig::default())
            .unwrap_or_else(|e| panic!("seed {}: classic: {e}", seed ^ i));
        for lanes in [2u32, 4] {
            let sharded = run_workload(&wl, &m, SimConfig::default().with_shards(lanes))
                .unwrap_or_else(|e| panic!("seed {}: lanes{lanes}: {e}", seed ^ i));
            assert_eq!(classic.completion, sharded.completion, "seed {}", seed ^ i);
            assert_eq!(classic.node_times, sharded.node_times, "seed {}", seed ^ i);
            assert_eq!(
                projection(&classic.result),
                projection(&sharded.result),
                "seed {}",
                seed ^ i
            );
        }
    }
    eprintln!("fuzz: {count} DAGs bit-identical across classic and lanes 2/4");
}

pub fn check(args: &Args) {
    for (file, wl, oracle) in corpus() {
        let path = format!("{CORPUS_DIR}/{file}");
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("{path}: {e} (regenerate with `logp-bench wl_run --emit-corpus`)")
        });
        assert_eq!(
            text,
            to_text(&wl),
            "{path} drifted from its emitter; regenerate with `logp-bench wl_run --emit-corpus`"
        );
        let loaded = load_workload(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        let m = machine_for(&loaded, None);
        let run = run_workload(&loaded, &m, SimConfig::default())
            .unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(run.completion, oracle, "{path}: built-in parity");
        for lanes in [2u32, 4, 8] {
            let s = run_workload(&loaded, &m, SimConfig::default().with_shards(lanes))
                .unwrap_or_else(|e| panic!("{path}: lanes{lanes}: {e}"));
            assert_eq!(s.completion, oracle, "{path}: lanes{lanes} parity");
        }
        eprintln!("check: {file} ≡ built-in (completion {oracle}) on classic and lanes ... ok");
    }

    // Loader rejection carries a span (one pinned probe; the full
    // snapshot matrix lives in tests/workloads.rs).
    let err = load_workload("workload t\nprocs 2\na: send 0 -> 9\n")
        .expect_err("out-of-range send must be rejected");
    assert_eq!((err.line, err.col), (3, 1), "rejection span drifted");
    eprintln!("check: loader rejects with line/column spans ... ok");

    fuzz_differential(args.pick(64, 256), 0x5eed);

    // JSONL → DAG → run replay round-trip.
    let m = LogP::fig3();
    let wl = broadcast_workload(&m);
    let path = std::env::temp_dir().join("wl_run_check.obs.jsonl");
    let original = run_workload(
        &wl,
        &m,
        SimConfig::default().with_sink(SinkSpec::Jsonl(path.clone())),
    )
    .expect("streamed run");
    let log = replay_jsonl(&std::fs::read_to_string(&path).expect("jsonl written"))
        .expect("jsonl parses");
    let replay = workload_from_obslog(&log, m.p, "replay").expect("replayable");
    let rerun = run_workload(&replay, &m, SimConfig::default()).expect("replay runs");
    assert_eq!(rerun.completion, original.completion, "replay round-trip");
    let _ = std::fs::remove_file(&path);
    eprintln!("check: JSONL → DAG → run replay round-trip ... ok");

    println!("wl_run --check: all pins hold");
}

fn emit_corpus() {
    std::fs::create_dir_all(CORPUS_DIR).expect("create corpus dir");
    for (file, wl, _) in corpus() {
        let path = format!("{CORPUS_DIR}/{file}");
        std::fs::write(&path, to_text(&wl)).unwrap_or_else(|e| panic!("{path}: {e}"));
        eprintln!("wrote {path} ({} nodes)", wl.nodes.len());
    }
}

/// The flags `wl_run` declares.
pub const FLAGS: &[Flag] = &[
    Flag::Text("--file", "PATH"),
    Flag::Text("--preset", "NAME"),
    Flag::Int("--shards"),
    Flag::Int("--fuzz"),
    Flag::Int("--seed"),
    Flag::Switch("--emit-corpus"),
];

pub fn run(args: &Args) {
    if args.switch("--emit-corpus") {
        emit_corpus();
        return;
    }
    if let Some(n) = args.int("--fuzz") {
        fuzz_differential(n.into(), args.int("--seed").map_or(0x5eed, u64::from));
        println!("wl_run --fuzz {n}: ok");
        return;
    }

    let obs = &args.obs;
    let cli_preset = args.text("--preset");
    let mut config = SimConfig::default();
    if let Some(shards) = args.int("--shards").filter(|&s| s > 0) {
        config = config.with_shards(shards);
    }

    match args.text("--file") {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
            let wl = load_workload(&text).unwrap_or_else(|e| {
                eprintln!("{path}:{e}");
                std::process::exit(1);
            });
            let m = machine_for(&wl, cli_preset);
            let cfg = obs.apply_for(&wl.name, config);
            let run = run_workload(&wl, &m, cfg).unwrap_or_else(|e| panic!("{path}: {e}"));
            obs.write(&wl.name, &run.result);
            eprintln!(
                "{}: {} nodes on P = {}, completion {}",
                wl.name,
                wl.nodes.len(),
                wl.procs,
                run.completion
            );
            println!("{}", json_line(&wl.name, &m, &run));
        }
        None => {
            // No arguments: run the golden corpus as a demo sweep.
            let mut lines = Vec::new();
            for (file, wl, _) in corpus() {
                let m = machine_for(&wl, cli_preset);
                let cfg = obs.apply_for(&wl.name, config.clone());
                let run = run_workload(&wl, &m, cfg).unwrap_or_else(|e| panic!("{file}: {e}"));
                obs.write(&wl.name, &run.result);
                eprintln!(
                    "{:<22} P = {:>2}  nodes = {:>3}  completion = {}",
                    file,
                    wl.procs,
                    wl.nodes.len(),
                    run.completion
                );
                lines.push(json_line(&wl.name, &m, &run));
            }
            println!("{{\"bench\":\"wl_run\",\"runs\":[{}]}}", lines.join(","));
        }
    }
}
