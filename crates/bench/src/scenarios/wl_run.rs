//! wl_run: load, validate, and execute workload DSL programs
//! (`logp-wl`) from the command line.
//!
//! Modes:
//!
//! * default — run the corpus files that mirror built-in runners
//!   (`examples/workloads/{broadcast_fig3,summation_fig4,allreduce_fig3}.wl`)
//!   on the preset each file declares and print one JSON object per
//!   program.
//! * `--file PATH [--preset NAME]` — run one program. The machine
//!   defaults to the file's `preset` directive (fig3 if absent);
//!   `--preset` overrides. `--shards N` selects the sharded engine.
//! * `--fuzz N [--seed S]` — generate N random valid DAGs (seed `S`, a
//!   `u32`) and run each differentially: classic vs lanes {2, 4},
//!   asserting bit-identical completion, per-node finish times, and
//!   workload projection.
//! * the check (`logp-bench checks wl_run`) — the CI pins: every mirrored
//!   corpus file runs to its built-in runner's completion and
//!   per-processor stats on its preset (and to the same completion on
//!   lanes 2, 4 and 8); a malformed probe is rejected with the pinned
//!   span; a 64-seed fuzz smoke passes the differential; and a built-in
//!   broadcast streamed to JSONL, replayed to a DAG and run reproduces
//!   the original completion. `--full` deepens the fuzz smoke to 256
//!   seeds.
//!
//! Observability passthrough: `--trace-out/--vitals-out/--metrics-out
//! PREFIX` and `--stream` work as in the other scenarios.

use logp_algos::allreduce::run_allreduce_reduce_bcast;
use logp_algos::broadcast::run_optimal_broadcast;
use logp_algos::reduce::run_sum_schedule;
use logp_bench::{Args, Flag};
use logp_core::summation::optimal_sum_schedule;
use logp_core::LogP;
use logp_sim::{replay_jsonl, SimConfig, SimResult, SinkSpec};
use logp_wl::{
    gen_workload, load_workload, preset, projection, run_workload, workload_from_obslog,
    FuzzConfig, WlRun, Workload, UNSET,
};

const CORPUS_DIR: &str = "examples/workloads";

/// A corpus file that mirrors a built-in runner, and that runner's run on
/// the file's preset.
type Mirror = (&'static str, fn() -> SimResult);

/// The corpus files that mirror a built-in runner.
const MIRRORS: [Mirror; 3] = [
    ("broadcast_fig3.wl", || {
        run_optimal_broadcast(&LogP::fig3(), SimConfig::default()).result
    }),
    ("summation_fig4.wl", || {
        let sched = optimal_sum_schedule(&LogP::fig4(), 28);
        run_sum_schedule(&sched, SimConfig::default()).result
    }),
    ("allreduce_fig3.wl", || {
        let values: Vec<f64> = (0..LogP::fig3().p).map(f64::from).collect();
        run_allreduce_reduce_bcast(&LogP::fig3(), &values, SimConfig::default()).result
    }),
];

/// A mirrored corpus file, loaded.
fn load_mirror(file: &str) -> Workload {
    let path = format!("{CORPUS_DIR}/{file}");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    load_workload(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
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
    for (file, builtin) in MIRRORS {
        let wl = load_mirror(file);
        let m = machine_for(&wl, None);
        let run =
            run_workload(&wl, &m, SimConfig::default()).unwrap_or_else(|e| panic!("{file}: {e}"));
        let want = builtin();
        let oracle = want.stats.completion;
        assert_eq!(
            projection(&run.result),
            projection(&want),
            "{file}: built-in parity (completion and per-processor stats)"
        );
        for lanes in [2u32, 4, 8] {
            let s = run_workload(&wl, &m, SimConfig::default().with_shards(lanes))
                .unwrap_or_else(|e| panic!("{file}: lanes{lanes}: {e}"));
            assert_eq!(s.completion, oracle, "{file}: lanes{lanes} parity");
        }
        eprintln!(
            "check: {file} ≡ built-in (completion {oracle}, per-processor stats) on classic \
             and lanes ... ok"
        );
    }

    // Loader rejection carries a span (one pinned probe; the full
    // snapshot matrix lives in tests/workloads.rs).
    let err = load_workload("workload t\nprocs 2\na: send 0 -> 9\n")
        .expect_err("out-of-range send must be rejected");
    assert_eq!((err.line, err.col), (3, 1), "rejection span drifted");
    eprintln!("check: loader rejects with line/column spans ... ok");

    fuzz_differential(args.pick(64, 256), 0x5eed);

    // Built-in run → JSONL → DAG → run replay round-trip.
    let m = LogP::fig3();
    let path = std::env::temp_dir().join("wl_run_check.obs.jsonl");
    let original = run_optimal_broadcast(
        &m,
        SimConfig::default().with_sink(SinkSpec::Jsonl(path.clone())),
    );
    let log = replay_jsonl(&std::fs::read_to_string(&path).expect("jsonl written"))
        .expect("jsonl parses");
    let replay = workload_from_obslog(&log, m.p, "replay").expect("replayable");
    let rerun = run_workload(&replay, &m, SimConfig::default()).expect("replay runs");
    assert_eq!(rerun.completion, original.completion, "replay round-trip");
    let _ = std::fs::remove_file(&path);
    eprintln!("check: built-in → JSONL → DAG → run replay round-trip ... ok");

    println!("wl_run --check: all pins hold");
}

/// The flags `wl_run` declares.
pub const FLAGS: &[Flag] = &[
    Flag::Text("--file", "PATH"),
    Flag::Text("--preset", "NAME"),
    Flag::Int("--shards"),
    Flag::Int("--fuzz"),
    Flag::Int("--seed"),
];

pub fn run(args: &Args) {
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
            // No arguments: run the mirrored corpus as a demo sweep.
            let mut lines = Vec::new();
            for (file, _) in MIRRORS {
                let wl = load_mirror(file);
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
