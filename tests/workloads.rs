//! Workload DSL end-to-end tests: the built-in runners replayed as
//! programs (cycle-exact against the built-ins on the five presets and an
//! `o = 0` and an `o > g` machine, identical across lane counts), the
//! corpus files that mirror them, loader error-message snapshots (every
//! rejection path asserts its span and message), text round-trips,
//! trace-replay round-trips, and the replayed-JSONL canonicalization pin.

mod oracle;
#[path = "common/presets.rs"]
mod presets;

use logp::algos::allreduce::run_allreduce_reduce_bcast;
use logp::algos::broadcast::run_optimal_broadcast;
use logp::algos::reduce::run_sum_schedule;
use logp::core::summation::optimal_sum_schedule;
use logp::prelude::*;
use logp::sim::{replay_jsonl, SimResult, SinkSpec};
use logp::wl::{
    gen_workload, load_workload, parse_workload, projection, run_workload, to_text,
    workload_from_obslog, FuzzConfig, WlRun,
};
use presets::presets;

/// Every engine configuration the acceptance bar names: classic
/// (lane count 1) and sharded lanes {2, 4, 8}.
///
/// All configs relax the finite-capacity stall (the sharded engine
/// never enforces it), so cross-engine bit-identity is defined on the
/// capacity-relaxed semantics. The capacity-enforced classic engine is
/// still compared against the built-ins separately in the parity test.
fn engines() -> Vec<(String, SimConfig)> {
    let relax = |mut c: SimConfig| {
        c.enforce_capacity = false;
        c
    };
    let mut v = vec![("lanes1".to_string(), relax(SimConfig::default()))];
    for lanes in [2u32, 4, 8] {
        v.push((
            format!("lanes{lanes}"),
            relax(SimConfig::default().with_shards(lanes)),
        ));
    }
    v
}

type Projection = (Cycles, u64, u64, Vec<ProcStats>);

fn fingerprint(run: &WlRun) -> (Cycles, Vec<Cycles>, Projection) {
    (
        run.completion,
        run.node_times.clone(),
        projection(&run.result),
    )
}

use logp::sim::ProcStats;

/// The built-in runners the corpus files mirror.
#[derive(Clone, Copy, Debug)]
enum Builtin {
    /// `run_optimal_broadcast`.
    Broadcast,
    /// `run_sum_schedule` of the optimal schedule for a deadline.
    Summation,
    /// `run_allreduce_reduce_bcast` of the values `0..P`.
    AllReduce,
}

impl Builtin {
    /// The run on `m` (summation deadline `t`) under `cfg`, and the
    /// processors it ran on.
    fn run(self, m: &LogP, t: Cycles, cfg: SimConfig) -> (SimResult, u32) {
        match self {
            Builtin::Broadcast => (run_optimal_broadcast(m, cfg).result, m.p),
            Builtin::Summation => {
                let sched = optimal_sum_schedule(m, t);
                (run_sum_schedule(&sched, cfg).result, sched.procs().max(1))
            }
            Builtin::AllReduce => {
                let values: Vec<f64> = (0..m.p).map(f64::from).collect();
                (run_allreduce_reduce_bcast(m, &values, cfg).result, m.p)
            }
        }
    }

    /// The program the run on `m` executed: its lifecycle log, replayed.
    fn replayed(self, m: &LogP, t: Cycles) -> Workload {
        let (run, procs) = self.run(m, t, SimConfig::default().with_msg_log(true));
        let name = format!("{self:?}");
        workload_from_obslog(&run.obs, procs, &name).expect("a fault-free run replays")
    }
}

// ---------------------------------------------------------------------
// Built-in parity: a runner's replay == the runner, cycle-exactly, on
// every machine and every engine configuration.
// ---------------------------------------------------------------------

/// One runner's rows of the runner × machine table: the capacity-enforced
/// classic engine runs the replay to the built-in's completion and
/// projection, and the capacity-relaxed lanes {1, 2, 4, 8} run it to the
/// built-in's under the same config and identically to each other
/// (completion, node times, projection). The machines are the five presets
/// plus an `o = 0` and an `o > g` one.
fn assert_replay_matches_builtin(builtin: Builtin) {
    let mut machines = presets();
    machines.push(("o=0", LogP::new(6, 0, 4, 8).unwrap(), 40));
    machines.push(("o>g", LogP::new(6, 5, 2, 8).unwrap(), 60));
    for (name, m, t) in machines {
        let label = format!("{builtin:?} on {name}");
        let wl = builtin.replayed(&m, t);
        assert!(
            wl.procs >= 2,
            "{label}: must engage more than one processor"
        );
        let strict =
            run_workload(&wl, &m, SimConfig::default()).unwrap_or_else(|e| panic!("{label}: {e}"));
        let (want, _) = builtin.run(&m, t, SimConfig::default());
        assert_eq!(strict.completion, want.stats.completion, "{label}: strict");
        assert_eq!(
            projection(&strict.result),
            projection(&want),
            "{label}: strict projection"
        );
        let mut baseline = None;
        for (eng, cfg) in engines() {
            let run =
                run_workload(&wl, &m, cfg.clone()).unwrap_or_else(|e| panic!("{label}/{eng}: {e}"));
            let (want, _) = builtin.run(&m, t, cfg);
            assert_eq!(
                run.completion, want.stats.completion,
                "{label}/{eng}: completion"
            );
            assert_eq!(
                projection(&run.result),
                projection(&want),
                "{label}/{eng}: projection vs built-in"
            );
            let fp = fingerprint(&run);
            match &baseline {
                None => baseline = Some(fp),
                Some(b) => assert_eq!(*b, fp, "{label}/{eng}: engine invariance"),
            }
        }
    }
}

#[test]
fn dsl_broadcast_matches_builtin_on_all_presets_and_engines() {
    assert_replay_matches_builtin(Builtin::Broadcast);
}

#[test]
fn dsl_summation_matches_builtin_on_all_presets_and_engines() {
    assert_replay_matches_builtin(Builtin::Summation);
}

#[test]
fn dsl_allreduce_matches_builtin_on_all_presets_and_engines() {
    assert_replay_matches_builtin(Builtin::AllReduce);
}

// ---------------------------------------------------------------------
// The corpus files: the mirrored ones run to their built-in, and agree
// with the LogP oracle.
// ---------------------------------------------------------------------

#[test]
fn corpus_files_run_to_their_builtins_and_the_oracle() {
    let cases = [
        ("broadcast_fig3", Builtin::Broadcast),
        ("summation_fig4", Builtin::Summation),
        ("allreduce_fig3", Builtin::AllReduce),
    ];
    for (file, builtin) in cases {
        let path = format!("examples/workloads/{file}.wl");
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let wl = load_workload(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        let name = wl
            .preset
            .as_deref()
            .expect("a mirrored file names its preset");
        let (_, m, t) = presets().into_iter().find(|p| p.0 == name).unwrap();
        let run =
            run_workload(&wl, &m, SimConfig::default()).unwrap_or_else(|e| panic!("{path}: {e}"));
        let (want, _) = builtin.run(&m, t, SimConfig::default());
        assert_eq!(
            projection(&run.result),
            projection(&want),
            "{path}: completion and per-processor stats vs the built-in"
        );
        let o = oracle::run(&wl, &m, oracle::Noise::default());
        let stats = &run.result.stats.procs;
        assert_eq!(o.completion, run.completion, "{path}: oracle completion");
        assert_eq!(o.node_times, run.node_times, "{path}: oracle node times");
        let busy: Vec<Cycles> = stats.iter().map(ProcStats::busy).collect();
        let stall: Vec<Cycles> = stats.iter().map(|s| s.stall).collect();
        assert_eq!((o.busy, o.stall), (busy, stall), "{path}: oracle stats");
    }
    // The hand-written tour exercises every statement kind and loads.
    let tour = std::fs::read_to_string("examples/workloads/tour.wl").expect("tour.wl");
    let wl = load_workload(&tour).expect("tour.wl loads");
    assert!(wl
        .nodes
        .iter()
        .any(|n| matches!(n.op, logp::wl::Op::Barrier)));
    assert!(wl
        .nodes
        .iter()
        .any(|n| matches!(n.op, logp::wl::Op::Timer { .. })));
    run_workload(&wl, &LogP::fig3(), SimConfig::default()).expect("tour.wl runs");
}

// ---------------------------------------------------------------------
// Text round-trips.
// ---------------------------------------------------------------------

#[test]
fn to_text_round_trips_structurally() {
    let mut cases = vec![
        Builtin::Broadcast.replayed(&LogP::fig3(), 0),
        Builtin::Summation.replayed(&LogP::fig4(), 28),
        Builtin::AllReduce.replayed(&LogP::new(60, 20, 40, 16).unwrap(), 0),
    ];
    for seed in 0..64 {
        cases.push(gen_workload(seed, &FuzzConfig::default()));
    }
    for wl in cases {
        let text = to_text(&wl);
        let back = parse_workload(&text)
            .unwrap_or_else(|e| panic!("{}: round-trip parse failed: {e}\n{text}", wl.name));
        assert_eq!(back, wl, "round-trip changed `{}`", wl.name);
    }
}

#[test]
fn fuzz_generator_only_emits_validator_accepted_programs() {
    for seed in 0..256 {
        let wl = gen_workload(seed, &FuzzConfig::default());
        wl.validate()
            .unwrap_or_else(|e| panic!("seed {seed}: generator emitted invalid DAG: {e}"));
        // And the loaded text form agrees.
        let back = load_workload(&to_text(&wl)).expect("text form validates");
        assert_eq!(back, wl);
    }
}

#[test]
fn fuzz_workloads_complete_identically_on_both_engines() {
    let m = LogP::new(64, 2, 1, 8).unwrap(); // capacity 64: never binds
    for seed in 0..32 {
        let wl = gen_workload(seed, &FuzzConfig::default());
        let classic = run_workload(&wl, &m, SimConfig::default())
            .unwrap_or_else(|e| panic!("seed {seed} classic: {e}"));
        for lanes in [2u32, 4] {
            let sharded = run_workload(&wl, &m, SimConfig::default().with_shards(lanes))
                .unwrap_or_else(|e| panic!("seed {seed} lanes{lanes}: {e}"));
            assert_eq!(
                fingerprint(&classic),
                fingerprint(&sharded),
                "seed {seed} lanes{lanes}"
            );
        }
    }
}

/// Back-to-back global barrier rounds with no other work: every
/// processor enters round 0 straight from `on_start` (so the quorum
/// completes with no event scheduled anywhere) and re-enters each next
/// round inside `on_barrier_release` (so the entry deltas are pushed
/// during the release itself). Both shapes used to deadlock or panic
/// the sharded window driver; this pins the fix on every engine.
#[test]
fn barrier_only_programs_run_on_every_engine() {
    let mut src = String::from("workload rounds\nprocs 4\n");
    for round in 0..3 {
        for q in 0..4 {
            src.push_str(&format!("b{round}_{q}: barrier @{q}\n"));
        }
    }
    let wl = load_workload(&src).expect("valid");
    let m = LogP::fig3().with_p(4);
    let mut baseline = None;
    for (eng, cfg) in engines() {
        let run = run_workload(&wl, &m, cfg).unwrap_or_else(|e| panic!("{eng}: {e}"));
        let fp = fingerprint(&run);
        match &baseline {
            None => baseline = Some(fp),
            Some(b) => assert_eq!(*b, fp, "{eng}"),
        }
    }
}

// ---------------------------------------------------------------------
// Trace replay: ObsLog -> DAG -> run reproduces the original timing.
// ---------------------------------------------------------------------

#[test]
fn replayed_broadcast_reproduces_the_original_run() {
    for (name, m, _) in presets() {
        let cfg = SimConfig::default().with_msg_log(true);
        let original = run_optimal_broadcast(&m, cfg.clone());
        let wl = workload_from_obslog(&original.result.obs, m.p, "replay").expect("replayable");
        wl.validate().expect("replay output validates");
        let run = run_workload(&wl, &m, cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(run.completion, original.completion, "{name}: completion");
        assert_eq!(
            projection(&run.result),
            projection(&original.result),
            "{name}: projection"
        );
    }
}

#[test]
fn replayed_workload_with_barriers_and_timers_reproduces_itself() {
    let tour = std::fs::read_to_string("examples/workloads/tour.wl").expect("tour.wl");
    let wl = load_workload(&tour).expect("loads");
    let m = LogP::fig3();
    let cfg = SimConfig::default().with_msg_log(true);
    let original = run_workload(&wl, &m, cfg.clone()).expect("runs");
    let replay =
        workload_from_obslog(&original.result.obs, wl.procs, "tour_replay").expect("replayable");
    let rerun = run_workload(&replay, &m, cfg).expect("replay runs");
    assert_eq!(rerun.completion, original.completion);
    assert_eq!(projection(&rerun.result), projection(&original.result));
}

#[test]
fn jsonl_to_dag_round_trip() {
    let m = LogP::fig3();
    let wl = Builtin::Broadcast.replayed(&m, 0);
    let path = std::env::temp_dir().join("logp_wl_roundtrip.obs.jsonl");
    let cfg = SimConfig::default().with_sink(SinkSpec::Jsonl(path.clone()));
    let original = run_workload(&wl, &m, cfg).expect("streamed run");
    let text = std::fs::read_to_string(&path).expect("jsonl written");
    let log = replay_jsonl(&text).expect("jsonl parses");
    let replay = workload_from_obslog(&log, m.p, "replay").expect("replayable");
    let rerun = run_workload(&replay, &m, SimConfig::default()).expect("replay runs");
    assert_eq!(rerun.completion, original.completion);
    let _ = std::fs::remove_file(&path);
}

/// A replayed log is outside input: every record a workload cannot hold
/// is a typed error naming the record, in debug and in release builds
/// alike (these used to index out of bounds, underflow, truncate `words`
/// to 32 bits, or allocate by an unchecked `procs`).
#[test]
fn unreplayable_logs_are_typed_errors() {
    let compute = |proc: u32, start: u64, end: u64| {
        format!(
            r#"{{"k":"c","id":3,"proc":{proc},"tag":0,"cs":0,"ci":0,"submit":0,"start":{start},"end":{end}}}"#
        )
    };
    let timer = |proc: u32, armed: u64, fire: u64| {
        format!(
            r#"{{"k":"t","id":4,"proc":{proc},"tag":0,"cs":0,"ci":0,"submit":0,"armed":{armed},"fire":{fire}}}"#
        )
    };
    let msg = |words: u64| {
        format!(
            r#"{{"k":"m","id":5,"src":0,"dst":1,"tag":0,"words":{words},"cs":0,"ci":0,"submit":0,"gate":0,"inject":0,"sent":2,"arrive":8,"rgate":8,"rstart":8,"deliver":10}}"#
        )
    };
    let barrier = r#"{"k":"b","id":0,"proc":1,"cs":0,"ci":0,"submit":0,"enter":0,"release":1}"#;
    let many_barriers = format!("{barrier}\n").repeat(4_096);
    let cases: [(&str, u32, &str); 10] = [
        (
            &compute(7, 0, 1),
            2,
            "compute 3 has `proc` 7 but the replay declares procs 2",
        ),
        (
            &timer(7, 0, 1),
            2,
            "timer 4 has `proc` 7 but the replay declares procs 2",
        ),
        (
            &compute(0, 9, 5),
            2,
            "compute 3 has `end` 5 before its `start` 9",
        ),
        (
            &timer(0, 5, 3),
            2,
            "timer 4 has `fire` 3 before its `armed` 5",
        ),
        (
            &msg(4_294_967_301),
            2,
            "message 5 has `words` 4294967301; a block holds at most 1048576",
        ),
        (
            &msg(1_048_577),
            2,
            "message 5 has `words` 1048577; a block holds at most 1048576",
        ),
        (
            &compute(0, 0, 1),
            u32::MAX,
            "the replay declares procs 4294967295; need 1..=1048576",
        ),
        (
            &compute(0, 0, 1),
            1 << 21,
            "the replay declares procs 2097152; need 1..=1048576",
        ),
        ("", 0, "the replay declares procs 0; need 1..=1048576"),
        // 4,096 × 2²⁰ = 2³² nodes out of 300 KB of text.
        (
            &many_barriers,
            1 << 20,
            "the log replays to 4294967296 nodes (4096 barriers on each of 1048576",
        ),
    ];
    for (text, procs, want) in cases {
        let log =
            replay_jsonl(text).unwrap_or_else(|e| panic!("{want}: the log itself reads: {e}"));
        let e = workload_from_obslog(&log, procs, "x").expect_err(want);
        assert!(e.msg.contains(want), "wanted `{want}`, got `{e}`");
        assert_eq!((e.line, e.col), (0, 0), "{want}");
    }
    // The limits themselves replay.
    let log = replay_jsonl(&format!(
        "{}\n{}\n{}",
        compute(1, 5, 5),
        timer(1, 3, 3),
        msg(1 << 20)
    ));
    let wl = workload_from_obslog(&log.expect("reads"), 2, "x").expect("replays");
    wl.validate().expect("and validates");
    assert_eq!(wl.nodes.len(), 4);
}

/// The small fix pinned while wiring the converter: a *replayed* JSONL
/// log re-canonicalizes to exactly the ids of the retained log, under
/// shards (structured per-processor ids) at every lane count.
#[test]
fn replayed_jsonl_log_recanonicalizes_identically_under_shards() {
    let m = LogP::fig3();
    let wl = Builtin::Broadcast.replayed(&m, 0);
    let mut canonical: Option<logp::sim::ObsLog> = None;
    for lanes in [2u32, 4] {
        // Retained in-memory log.
        let retained = run_workload(
            &wl,
            &m,
            SimConfig::default().with_shards(lanes).with_msg_log(true),
        )
        .expect("retained run");
        // Streamed to JSONL and replayed back.
        let path = std::env::temp_dir().join(format!("logp_wl_canon_{lanes}.obs.jsonl"));
        run_workload(
            &wl,
            &m,
            SimConfig::default()
                .with_shards(lanes)
                .with_sink(SinkSpec::Jsonl(path.clone())),
        )
        .expect("streamed run");
        let text = std::fs::read_to_string(&path).expect("jsonl written");
        let mut replayed = replay_jsonl(&text).expect("jsonl parses");
        let mut kept = retained.result.obs.clone();
        // Streamed records use structured sharded ids; the retained log
        // and the replayed log must canonicalize to the same dense ids.
        kept.canonicalize();
        replayed.canonicalize();
        assert_eq!(kept, replayed, "lanes{lanes}: canonical logs differ");
        // Canonicalization is idempotent on a replayed log.
        let mut again = replayed.clone();
        again.canonicalize();
        assert_eq!(again, replayed, "lanes{lanes}: canonicalize not idempotent");
        match &canonical {
            None => canonical = Some(replayed),
            Some(c) => assert_eq!(*c, replayed, "lanes{lanes}: lane-count variance"),
        }
        let _ = std::fs::remove_file(&path);
    }
}

// ---------------------------------------------------------------------
// Loader error snapshots: every rejection path, with exact span,
// message, and help text.
// ---------------------------------------------------------------------

/// Load `src`, expect rejection, return `(line, col, msg, help)`.
fn reject(src: &str) -> (u32, u32, String, Option<String>) {
    match load_workload(src) {
        Ok(_) => panic!("program unexpectedly accepted:\n{src}"),
        Err(e) => (e.line, e.col, e.msg, e.help),
    }
}

fn snap(src: &str, line: u32, col: u32, msg: &str, help: Option<&str>) {
    let got = reject(src);
    assert_eq!(
        got,
        (line, col, msg.to_string(), help.map(str::to_string)),
        "for program:\n{src}"
    );
}

const HDR: &str = "workload t\nprocs 4\n";

#[test]
fn snapshot_header_errors() {
    snap(
        "",
        1,
        1,
        "missing `workload <name>` header (it must be the first statement)",
        None,
    );
    snap(
        "workload t\n",
        1,
        1,
        "missing `procs <N>` header (declare the processor count)",
        None,
    );
    snap(
        "a: compute 1 @0\n",
        1,
        1,
        "missing `workload <name>` header (it must come before the first node)",
        None,
    );
    snap(
        "workload t\na: compute 1 @0\n",
        2,
        1,
        "missing `procs <N>` header (it must come before the first node)",
        None,
    );
    snap(
        "workload t\nworkload u\n",
        2,
        1,
        "duplicate `workload` directive",
        None,
    );
    snap(
        "workload 0bad\n",
        1,
        10,
        "invalid workload name `0bad` (use [A-Za-z_][A-Za-z0-9_]*)",
        None,
    );
    snap(
        "workload t\nprocs 0\n",
        2,
        7,
        "procs must be at least 1",
        None,
    );
    snap(
        "workload t\nprocs many\n",
        2,
        7,
        "expected the processor count (a number), got `many`",
        None,
    );
    snap(
        "workload t\nprocs 2\nprocs 3\n",
        3,
        1,
        "duplicate `procs` directive",
        None,
    );
    snap(
        "workload t\nprocs 2\npreset fig3\npreset fig4\n",
        4,
        1,
        "duplicate `preset` directive",
        None,
    );
    snap(
        "workload t extra\n",
        1,
        12,
        "unexpected token `extra` after `workload <a name>`",
        None,
    );
    snap(
        "wrkload t\n",
        1,
        1,
        "expected `label:` to open the statement, got `wrkload`",
        Some("did you mean the directive `workload`?"),
    );
}

#[test]
fn snapshot_statement_errors() {
    snap(
        &format!("{HDR}send 0 -> 1\n"),
        3,
        1,
        "expected `label:` to open the statement, got `send`",
        Some("statements are labeled; try `n0: send ...`"),
    );
    snap(
        &format!("{HDR}0a: compute 1 @0\n"),
        3,
        1,
        "invalid label `0a` (labels are [A-Za-z_][A-Za-z0-9_]*)",
        None,
    );
    snap(
        &format!("{HDR}a:\n"),
        3,
        1,
        "label `a` has no operation; expected one of [\"send\", \"recv\", \"compute\", \
         \"barrier\", \"timer\"]",
        None,
    );
    snap(
        &format!("{HDR}a: snd 0 -> 1\n"),
        3,
        4,
        "unknown operation `snd`",
        Some("did you mean `send`?"),
    );
    snap(
        &format!("{HDR}a: send 0 1\n"),
        3,
        4,
        "`send` needs `<src> -> <dst>`",
        None,
    );
    snap(
        &format!("{HDR}a: send 0 to 1\n"),
        3,
        11,
        "expected `->` after the source processor, got `to`",
        None,
    );
    snap(
        &format!("{HDR}a: send\n"),
        3,
        4,
        "`send` needs `<src> -> <dst>`",
        None,
    );
    snap(
        &format!("{HDR}a: send x -> 1\n"),
        3,
        9,
        "expected the source processor (a number), got `x`",
        None,
    );
    snap(
        &format!("{HDR}a: send 0 -> 1 tga=3\nb: recv 0 -> 1\n"),
        3,
        16,
        "unknown option `tga=` on `send`",
        Some("did you mean `tag=`?"),
    );
    snap(
        &format!("{HDR}a: send 1 -> 0\nb: recv 1 -> 0 data=4\n"),
        4,
        16,
        "`data=` is only valid on `send`, not `recv`",
        None,
    );
    snap(
        &format!("{HDR}a: send 0 -> 1 tag=x\n"),
        3,
        20,
        "expected a value for `tag=` (a number), got `x`",
        None,
    );
    snap(
        &format!("{HDR}a: send 0 -> 1 tag=5000000000\n"),
        3,
        16,
        "tag 5000000000 does not fit 32 bits",
        None,
    );
    snap(
        &format!("{HDR}a: compute 5\n"),
        3,
        4,
        "`compute` needs a `@<proc>` processor assignment",
        None,
    );
    snap(
        &format!("{HDR}a: compute 5 p2\n"),
        3,
        14,
        "expected `@<proc>` after the cycle count, got `p2`",
        None,
    );
    snap(
        &format!("{HDR}a: barrier\n"),
        3,
        4,
        "`barrier` needs a `@<proc>` processor assignment",
        None,
    );
    snap(
        &format!("{HDR}a: compute 1 @0\nb: compute 5 @0 after a\n"),
        4,
        17,
        "unexpected token `after` at end of `compute` statement",
        Some("did you mean `after:` (with the colon)?"),
    );
    snap(
        &format!("{HDR}a: compute 1 @0\nb: compute 5 @0 after:\n"),
        4,
        17,
        "`after:` needs at least one dependency label",
        None,
    );
    snap(
        &format!("{HDR}a: compute 1 @0\nb: compute 5 @0 after: , a\n"),
        4,
        24,
        "expected a dependency label, got `,`",
        None,
    );
    snap(
        &format!("{HDR}a: compute 1 @0\nb: compute 5 @0 after: a,\n"),
        4,
        25,
        "trailing `,` in `after:` list (expected another label)",
        None,
    );
    snap(
        &format!("{HDR}aa: compute 1 @0\nb: compute 5 @0 after: ax\n"),
        4,
        24,
        "unknown dependency `ax`",
        Some("did you mean `aa`?"),
    );
    snap(
        &format!("{HDR}a: compute 1 @0\na: compute 2 @0\n"),
        4,
        1,
        "duplicate label `a` (first defined at line 3)",
        None,
    );
    snap(
        &format!("{HDR}a: compute 1 @0 $\n"),
        3,
        17,
        "unexpected character `$`",
        None,
    );
}

/// Edit distance by the whole table, for the suggestion tests below.
fn levenshtein(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1; b.len() + 1];
        for (j, cb) in b.iter().enumerate() {
            cur[j + 1] = (prev[j] + usize::from(ca != cb))
                .min(prev[j + 1] + 1)
                .min(cur[j] + 1);
        }
        prev = cur;
    }
    prev[b.len()]
}

/// "Did you mean" names the closest label within two edits (and closer
/// than it is long), the earliest declared among equally close ones:
/// checked against the whole edit-distance table on 2,000 seeded programs
/// of short, alike labels.
#[test]
fn a_suggestion_is_the_closest_earliest_label_within_two_edits() {
    let mut rng = logp::core::rng::CounterRng::new(0x5355_4747);
    let mut word = || -> String {
        let len = 1 + rng.next_in(4);
        (0..len)
            .map(|_| ['a', 'b', '_'][rng.next_in(2) as usize])
            .collect()
    };
    let mut suggested = 0;
    for case in 0..2_000 {
        let mut labels: Vec<String> = Vec::new();
        while labels.len() < 6 {
            let w = word();
            if !labels.contains(&w) {
                labels.push(w);
            }
        }
        let dep = word();
        if labels.contains(&dep) {
            continue;
        }
        let mut text = String::from("workload s\nprocs 1\n");
        for l in &labels {
            text += &format!("{l}: compute 1 @0\n");
        }
        text += &format!("t: compute 1 @0 after: {dep}\n");
        labels.push("t".into());
        let closest = (labels.iter())
            .map(|l| (levenshtein(&dep, l), l))
            .filter(|&(d, l)| d <= 2 && d < l.len())
            .min_by_key(|&(d, _)| d);
        let e = parse_workload(&text).expect_err(&text);
        assert_eq!(e.msg, format!("unknown dependency `{dep}`"), "case {case}");
        let want = closest.map(|(_, l)| format!("did you mean `{l}`?"));
        assert_eq!(e.help, want, "case {case}:\n{text}");
        suggested += usize::from(e.help.is_some());
    }
    assert!(suggested > 500, "only {suggested} suggestions");
}

/// An unknown dependency of 8,000 characters among 50 labels of that
/// length, alike but for their last two: the whole edit-distance table is
/// 64 M cells a label, seconds for the 50, where the band the search fills
/// is linear in the label.
#[test]
fn a_long_unknown_dependency_is_rejected_in_linear_time() {
    use std::time::{Duration, Instant};
    let stem = "x".repeat(7_998);
    let mut text = String::from("workload long\nprocs 1\n");
    for k in 0..50 {
        text += &format!("{stem}{k:02}: compute 1 @0\n");
    }
    // Two edits from every label, so the earliest; and three from all.
    for (tail, help) in [("zz", Some("00")), ("zzz", None)] {
        let src = format!("{text}t: compute 1 @0 after: {stem}{tail}\n");
        let t0 = Instant::now();
        let e = parse_workload(&src).expect_err("an unknown dependency");
        let took = t0.elapsed();
        assert_eq!(e.msg, format!("unknown dependency `{stem}{tail}`"));
        assert_eq!(e.help, help.map(|h| format!("did you mean `{stem}{h}`?")));
        assert!(took < Duration::from_secs(1), "rejected in {took:?}");
    }
}

#[test]
fn snapshot_validator_errors() {
    snap(
        &format!("{HDR}a: compute 1 @9\n"),
        3,
        1,
        "node `a` runs on processor 9 but the workload declares procs 4 (valid: 0..=3)",
        None,
    );
    snap(
        &format!("{HDR}a: send 0 -> 9\n"),
        3,
        1,
        "send `a` targets processor 9 but the workload declares procs 4 (valid: 0..=3)",
        None,
    );
    snap(
        &format!("{HDR}a: send 2 -> 2\n"),
        3,
        1,
        "send `a` sends processor 2 a message to itself; the LogP network has no self-loop",
        None,
    );
    snap(
        &format!("{HDR}a: recv 3 -> 3\n"),
        3,
        1,
        "recv `a` expects a message from its own processor 3; the LogP network has no self-loop",
        None,
    );
    snap(
        &format!("{HDR}a: compute 1 @0\nb: compute 1 @1 after: a\n"),
        4,
        24,
        "node `b` (processor 1) depends on `a` (processor 0); `after:` edges must stay on \
         one processor",
        Some("cross-processor ordering is carried by a send/recv pair on a shared tag"),
    );
    snap(
        &format!("{HDR}a: compute 1 @0\nb: compute 1 @0 after: a, a\n"),
        4,
        27,
        "node `b` lists dependency `a` twice",
        None,
    );
    snap(
        &format!("{HDR}a: compute 1 @0 after: a\n"),
        3,
        24,
        "node `a` depends on itself",
        None,
    );
    snap(
        &format!("{HDR}a: send 0 -> 1\n"),
        3,
        1,
        "send `a` has no matching recv: channel 0 -> 1 tag=0 has 1 send(s) but 0 recv(s)",
        Some(
            "every send needs exactly one recv on the same (src, dst, tag) channel; the \
             i-th send pairs with the i-th recv in declaration order",
        ),
    );
    snap(
        &format!("{HDR}a: recv 0 -> 1\n"),
        3,
        1,
        "recv `a` has no matching send: channel 0 -> 1 tag=0 has 0 send(s) but 1 recv(s)",
        Some(
            "every send needs exactly one recv on the same (src, dst, tag) channel; the \
             i-th send pairs with the i-th recv in declaration order",
        ),
    );
    // Same channel, mismatched tags count as unmatched too.
    snap(
        &format!("{HDR}a: send 0 -> 1 tag=1\nb: recv 0 -> 1 tag=2\n"),
        3,
        1,
        "send `a` has no matching recv: channel 0 -> 1 tag=1 has 1 send(s) but 0 recv(s)",
        Some(
            "every send needs exactly one recv on the same (src, dst, tag) channel; the \
             i-th send pairs with the i-th recv in declaration order",
        ),
    );
    snap(
        &format!("{HDR}a: barrier @0\nb: barrier @0\nc: barrier @1\n"),
        3,
        1,
        "uneven barrier participation: processor 0 enters 2 barrier(s) but processor 1 \
         enters 1; the global barrier would never release",
        Some("give every processor the same number of barrier statements"),
    );
    snap(
        &format!("{HDR}a: compute 1 @0 after: b\nb: compute 1 @0 after: a\n"),
        3,
        1,
        "dependency cycle: `a` -> `b` -> `a`",
        Some(
            "a node cannot (transitively) wait on itself; check `after:` lists, send/recv \
             pairing order, and barrier rounds",
        ),
    );
}

/// Sizes are checked where they are declared, before anything is
/// allocated for them: `procs 4294967295` used to abort the process
/// with a 17 GB allocation.
#[test]
fn snapshot_size_limit_errors() {
    snap(
        "workload x\nprocs 4294967295\nn0: compute 1 @0\n",
        2,
        7,
        "procs 4294967295 is more than the engines address (at most 1048576)",
        None,
    );
    snap(
        "workload x\nprocs 1048577\n",
        2,
        7,
        "procs 1048577 is more than the engines address (at most 1048576)",
        None,
    );
    load_workload("workload x\nprocs 1048576\nn0: compute 1 @1048575\n").expect("the limit itself");
    snap(
        &format!("{HDR}a: send 0 -> 1 words=1048577\nb: recv 0 -> 1\n"),
        3,
        16,
        "payload size 1048577 words is too large (at most 1048576)",
        None,
    );
    snap(
        &format!("{HDR}a: send 0 -> 1 words=4294967296\nb: recv 0 -> 1\n"),
        3,
        16,
        "payload size 4294967296 words is too large (at most 1048576)",
        None,
    );
}

#[test]
fn snapshot_non_ascii_and_crlf() {
    // The character itself, at its character column (it used to print
    // the first byte of its encoding, `Ã`).
    snap(
        &format!("{HDR}n0: compute 1 @0 é\n"),
        3,
        18,
        "unexpected character `é`",
        None,
    );
    snap(
        &format!("{HDR}n0: compute 1 @0 # ünïcödé in a comment is fine\nn1: → \n"),
        4,
        5,
        "unexpected character `→`",
        None,
    );
    // `\r\n` line ends: accepted, and columns are those of the `\n` file.
    let unix =
        "workload t\nprocs 2\na: send 0 -> 1 tag=3\nb: recv 0 -> 1 tag=3 after: c\nc: timer 2 @1\n";
    let dos = unix.replace('\n', "\r\n");
    let (a, b) = (
        load_workload(unix).expect("loads"),
        load_workload(&dos).expect("loads"),
    );
    assert_eq!(a, b);
    let spans = |wl: &logp::wl::Workload| {
        let mut v = Vec::new();
        for n in wl.nodes.iter() {
            v.push(wl.nodes.span(n.id));
            v.extend((0..n.deps.len()).map(|k| wl.nodes.dep_span(n.id, k)));
        }
        v
    };
    assert_eq!(spans(&a), spans(&b));
    assert_eq!(spans(&a).len(), 4, "three labels and one `after:` entry");
    snap(
        "workload t\r\nprocs 2\r\na: compute 1 @0 $\r\n",
        3,
        17,
        "unexpected character `$`",
        None,
    );
    snap(
        "workload t\r\nprocs 2\r\na: compute 1\r\n",
        3,
        4,
        "`compute` needs a `@<proc>` processor assignment",
        None,
    );
}

/// A node that waits on a cycle without being on it is the first vertex
/// the toposort leaves over; reporting the cycle used to panic there.
#[test]
fn snapshot_cycle_with_a_downstream_node() {
    snap(
        &format!(
            "{HDR}c: compute 1 @0 after: a\na: compute 1 @0 after: b\nb: compute 1 @0 after: a\n"
        ),
        4,
        1,
        "dependency cycle: `a` -> `b` -> `a`",
        Some(
            "a node cannot (transitively) wait on itself; check `after:` lists, send/recv \
             pairing order, and barrier rounds",
        ),
    );
}

// ---------------------------------------------------------------------
// Interpreter diagnostics are errors, not panics.
// ---------------------------------------------------------------------

/// There is no way to the interpreter around the checks. A workload built
/// by hand is checked by the run itself; a loaded one carries the plan its
/// load made (the arena's seal), and nothing a caller can do to it — an
/// append, a new `procs`, another workload's nodes — runs on a plan that
/// was made of something else.
#[test]
fn run_workload_checks_hand_built_and_edited_workloads() {
    use logp::wl::{NodeId, Op, Payload, WlRunError, Workload};
    let m = LogP::fig3();
    let invalid = |wl: &Workload| match run_workload(wl, &m, SimConfig::default()) {
        Err(WlRunError::Invalid(e)) => e.to_string(),
        other => panic!("expected an invalid-workload error, got {other:?}"),
    };
    let mut huge = Workload::new("huge", u32::MAX);
    huge.node("n0", 0, Op::Compute { cycles: 1 }, &[]);
    assert_eq!(
        invalid(&huge),
        "0:0: workload `huge` declares procs 4294967295; need 1..=1048576 (what the engines address)"
    );
    assert_eq!(huge.validate().unwrap_err().to_string(), invalid(&huge));
    let mut block = Workload::new("block", 2);
    let payload = Payload::Block(u32::MAX);
    block.node(
        "tx",
        0,
        Op::Send {
            dst: 1,
            tag: 0,
            payload,
        },
        &[],
    );
    block.node("rx", 1, Op::Recv { src: 0, tag: 0 }, &[]);
    assert_eq!(
        invalid(&block),
        "0:0: send `tx` declares a payload over 1048576 words"
    );

    // One good program, and six hand-built ones a rule away from it.
    struct Stmt {
        label: &'static str,
        proc: u32,
        op: Op,
        deps: Vec<NodeId>,
    }
    type Breaks = fn(&mut [Stmt]);
    let one = Op::Compute { cycles: 1 };
    let stmts = || {
        let (tag, payload) = (0, Payload::Empty);
        let send = Op::Send {
            dst: 1,
            tag,
            payload,
        };
        [
            ("a", 0, one),
            ("b", 1, one),
            ("c", 0, send),
            ("d", 1, Op::Recv { src: 0, tag }),
        ]
        .map(|(label, proc, op)| Stmt {
            label,
            proc,
            op,
            deps: vec![],
        })
    };
    let build = |procs: u32, stmts: &[Stmt]| {
        let mut wl = Workload::new("t", procs);
        for s in stmts {
            wl.node(s.label, s.proc, s.op, &s.deps);
        }
        wl
    };
    run_workload(&build(4, &stmts()), &m, SimConfig::default()).expect("the good one runs");
    let broken: [(Breaks, &str); 5] = [
        (
            |s| s[1].deps.push(0),
            "`after:` edges must stay on one processor",
        ),
        (|s| s[0].deps.push(9), "depends on unknown node id 9"),
        (|s| s[1].label = "a", "duplicate label `a`"),
        (
            |s| s[3].op = Op::Compute { cycles: 1 },
            "send `c` has no matching recv",
        ),
        (|s| s[0].deps.push(0), "node `a` depends on itself"),
    ];
    for (breaks, msg) in broken {
        let mut s = stmts();
        breaks(&mut s);
        assert!(invalid(&build(4, &s)).contains(msg), "{msg}");
    }
    assert!(invalid(&build(1, &stmts())).contains("node `b` runs on processor 1"));

    // The same program loaded (which seals it) and run (from the seal).
    let text = format!("{HDR}a: compute 1 @0\nb: compute 1 @1\nc: send 0 -> 1\nd: recv 0 -> 1\n");
    let good = load_workload(&text).expect("loads");
    let outcome = |wl: &Workload| {
        let run = run_workload(wl, &m, SimConfig::observed()).expect("runs");
        (run.completion, run.node_times, run.unmatched, run.result)
    };
    let first = outcome(&good);
    assert_eq!(first.1.len(), 4);
    assert_eq!(outcome(&good.clone()), first, "an untouched clone");
    // An append that keeps the rules is run; the plan covers the new node.
    let mut edited = good.clone();
    edited.node("e", 1, one, &[1, 3]);
    let grown = outcome(&edited);
    assert_eq!(grown.1.len(), 5);
    assert_eq!(grown.1[..4], first.1[..]);
    assert!(grown.1[4] > first.1[3], "`e` runs after `d`");
    // One that breaks a rule is caught, also after an earlier good run.
    edited.node("f", 0, one, &[4]);
    assert!(invalid(&edited).contains("node `f` (processor 0) depends on `e` (processor 1)"));
    let mut edited = good.clone();
    edited.node("a", 2, one, &[]);
    assert!(invalid(&edited).contains("duplicate label `a`"));
    let mut edited = good.clone();
    edited.procs = 1;
    assert!(invalid(&edited).contains("node `b` runs on processor 1"));
    edited.procs = 4;
    assert_eq!(outcome(&edited), first, "and back");
    // Another workload's nodes bring their own plan along, and it is only
    // used where `procs` is what it was made for.
    let other = load_workload("workload o\nprocs 2\nx: send 1 -> 0 data=3\ny: recv 1 -> 0\n");
    let other = other.expect("loads");
    let mut edited = good.clone();
    edited.nodes = other.nodes.clone();
    assert_eq!(edited.nodes.len(), 2);
    assert_eq!(outcome(&edited).1, outcome(&other).1);
    edited.procs = 1;
    assert!(invalid(&edited).contains("node `x` runs on processor 1"));
    // Four-processor nodes that also fit two: lowered again for two.
    let mut edited = other.clone();
    edited.nodes = good.nodes.clone();
    assert_eq!(outcome(&edited).1, first.1);

    // Two threads on one `&Workload`, neither sealed beforehand.
    let shared = parse_workload(&text).expect("parses");
    let (x, y) = std::thread::scope(|s| {
        let (x, y) = (s.spawn(|| outcome(&shared)), s.spawn(|| outcome(&shared)));
        (x.join().expect("runs"), y.join().expect("runs"))
    });
    assert_eq!(x, y);
    assert_eq!(x, first);
}

#[test]
fn dropped_message_reports_incomplete_not_panic() {
    let wl = load_workload(
        "workload drop\nprocs 2\n\
         tx: send 0 -> 1\n\
         rx: recv 0 -> 1\n",
    )
    .expect("valid");
    let m = LogP::fig3().with_p(2);
    // A plan that drops everything: the recv can never complete.
    let plan = logp::sim::FaultPlan::new(7).with_drop_ppm(1_000_000);
    let err = run_workload(&wl, &m, SimConfig::default().with_faults(plan))
        .expect_err("dropped message must surface");
    let msg = err.to_string();
    assert!(
        msg.contains("`rx`") && msg.contains("1/2"),
        "unexpected diagnostic: {msg}"
    );
}
