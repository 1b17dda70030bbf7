//! The `.wl` front end and interpreter, pinned to a commit rather than to
//! each other.
//!
//! `tests/data/wl_identity.txt` holds, for every program of a fixed
//! corpus — the files under `examples/workloads/`, the replays of the
//! three built-in runners the mirrored files reproduce (optimal
//! broadcast, optimal summation, reduce-then-broadcast all-reduce) on the
//! five presets, 64 `gen_workload` seeds and the `workload_from_obslog`
//! of a recorded all-to-all — one hash per line
//! over: `to_text`; the rendering of `tests/common` (every node, label,
//! operation, dependency and source position), of the program itself and
//! of its text loaded back; the whole `WlRun` (`node_times`, `unmatched`,
//! the `SimResult` under `SimConfig::observed()`) on the classic engine
//! and on four lanes; and `run_workload_hier` on a three-level hierarchy
//! shaped to the program's `procs`. The file was recorded at the parent
//! of the PR that moved the IR into one arena and handed the checked plan
//! from the loader to the interpreter; the `broadcast.*`, `summation.*`
//! and `allreduce.*` lines were re-recorded, with every `completion=`
//! unchanged, when those programs became replays of the built-in runs
//! instead of hand-written mirrors of them. Every line must reproduce.

mod common;
#[path = "common/presets.rs"]
mod presets;

use common::{fnv1a, render};
use logp::algos::allreduce::run_allreduce_reduce_bcast;
use logp::algos::broadcast::run_optimal_broadcast;
use logp::algos::reduce::run_sum_schedule;
use logp::core::hier::{Hierarchy, Level};
use logp::core::summation::optimal_sum_schedule;
use logp::core::LogP;
use logp::sim::process::StartFn;
use logp::sim::{Data, ObsLog, Sim, SimConfig};
use logp::wl::{
    gen_workload, load_workload, preset, run_workload, run_workload_hier, to_text,
    workload_from_obslog, FuzzConfig, WlRun, Workload,
};

const IDENTITY_FILE: &str = "tests/data/wl_identity.txt";

/// `(label, program, machine it runs on)`.
fn corpus() -> Vec<(String, Workload, LogP)> {
    let mut v = Vec::new();
    let mut files: Vec<_> = std::fs::read_dir("examples/workloads")
        .expect("examples/workloads")
        .map(|e| e.expect("directory entry").path())
        .collect();
    files.sort();
    for path in files {
        let text = std::fs::read_to_string(&path).expect("corpus file");
        let wl = load_workload(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let m = wl.preset.as_deref().and_then(preset);
        let name = path.file_name().expect("file name").to_string_lossy();
        v.push((format!("file.{name}"), wl, m.unwrap_or(LogP::fig3())));
    }
    // The built-in runs, each replayed from its lifecycle log.
    let cfg = || SimConfig::default().with_msg_log(true);
    let replay = |log: &ObsLog, procs, name| workload_from_obslog(log, procs, name).unwrap();
    for (name, m, t) in presets::presets() {
        let sched = optimal_sum_schedule(&m, t);
        let values: Vec<f64> = (0..m.p).map(f64::from).collect();
        let bcast = run_optimal_broadcast(&m, cfg()).result.obs;
        let sum = run_sum_schedule(&sched, cfg()).result.obs;
        let ared = run_allreduce_reduce_bcast(&m, &values, cfg()).result.obs;
        let sum = replay(&sum, sched.procs().max(1), "optimal_summation");
        v.push((
            format!("broadcast.{name}"),
            replay(&bcast, m.p, "optimal_broadcast"),
            m,
        ));
        v.push((format!("summation.{name}"), sum, m));
        let ared = replay(&ared, m.p, "allreduce_reduce_bcast");
        v.push((format!("allreduce.{name}"), ared, m));
    }
    for seed in 0..64 {
        let wl = gen_workload(seed, &FuzzConfig::default());
        v.push((format!("fuzz.{seed}"), wl, LogP::fig3()));
    }
    // Everyone sends everyone else a word, staggered; the recorded log,
    // turned back into a program.
    let m = LogP::fig3();
    let mut sim = Sim::new(m, SimConfig::default().with_msg_log(true));
    sim.set_all(|_| {
        Box::new(StartFn(|ctx| {
            for k in 1..ctx.procs() {
                let dst = (ctx.me() + k) % ctx.procs();
                ctx.send(dst, k % 3, Data::U64(u64::from(k)));
            }
        }))
    });
    let recorded = sim.run().expect("all-to-all runs");
    let wl = workload_from_obslog(&recorded.obs, m.p, "all_to_all").expect("replayable");
    v.push(("replay.all_to_all".to_string(), wl, m));
    v
}

/// Socket / node / cluster levels whose arities multiply to `procs`: its
/// two smallest prime factors, then what is left.
fn three_levels(procs: u32) -> Hierarchy {
    let mut left = procs;
    let mut factor = || {
        let f = (2..=left).find(|&f| left.is_multiple_of(f)).unwrap_or(1);
        left /= f;
        f
    };
    let (socket, node) = (factor(), factor());
    Hierarchy::new(vec![
        Level::new(4, 1, 2, socket).unwrap(),
        Level::new(20, 4, 6, node).unwrap(),
        Level::new(300, 12, 16, left).unwrap(),
    ])
    .unwrap()
}

/// Hash of a run's `Debug`, with the vitals (which measure the host and
/// the build profile) reset.
fn run_line(label: &str, engine: &str, mut run: WlRun) -> String {
    run.result.vitals = Default::default();
    let (done, hash) = (run.completion, fnv1a(&format!("{run:?}")));
    format!("{label} {engine} completion={done} {hash:016x}")
}

fn identity_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (label, wl, m) in corpus() {
        let text = to_text(&wl);
        let nodes = wl.nodes.len();
        lines.push(format!("{label} text nodes={nodes} {:016x}", fnv1a(&text)));
        lines.push(format!("{label} ir {:016x}", fnv1a(&render(&wl))));
        let loaded = load_workload(&text).unwrap_or_else(|e| panic!("{label}: {e}"));
        lines.push(format!("{label} loaded {:016x}", fnv1a(&render(&loaded))));
        let cfg = SimConfig::observed().with_seed(0x1D);
        for lanes in [0, 4] {
            let run = run_workload(&wl, &m, cfg.clone().with_shards(lanes))
                .unwrap_or_else(|e| panic!("{label} s{lanes}: {e}"));
            lines.push(run_line(&label, &format!("s{lanes}"), run));
        }
        let run = run_workload_hier(&wl, &three_levels(wl.procs), cfg)
            .unwrap_or_else(|e| panic!("{label} hier: {e}"));
        lines.push(run_line(&label, "hier", run));
    }
    lines
}

#[test]
fn workloads_reproduce_the_recorded_corpus() {
    let now = identity_lines();
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
        bad[..bad.len().min(20)].join("\n")
    );
}

/// Rewrites the corpus from the crate in the tree (run at the parent of
/// the arena PR, on unmodified library code); running it again pins
/// whatever the front end and the interpreter do now, so do that only for
/// a deliberate change of behaviour.
#[test]
#[ignore = "rewrites tests/data/wl_identity.txt"]
fn regenerate_wl_identity() {
    std::fs::write(IDENTITY_FILE, identity_lines().join("\n") + "\n").expect(IDENTITY_FILE);
}
