//! The classic engine held to the LogP oracle of `tests/oracle/`: on the
//! `examples/workloads/` files, on the replays of the built-in runners
//! (every flat runner of `tests/collective_identity.rs`, scatter and
//! gather, the §4 applications, §3.2's multithreading and shared-memory
//! veneer, and the `Reliable<P>` runners under a zero-rate plan) on
//! the five presets, and on `gen_workload` programs on the presets and on
//! an `o > g` and an `o = 0` machine, noise-free and under latency jitter,
//! compute drift and skew. Each case compares completion, every node's
//! finish time, and per-processor busy and stall totals.
//!
//! A replay keeps the command order production chose (`workload_from_obslog`),
//! so these cases judge the timing of that order against the model: the o
//! / g / L accounting, both capacity windows, NI backpressure and polling.
//! A disagreement is an engine bug or a gap in DESIGN.md's normative
//! semantics, which the oracle is written from.

mod oracle;
#[path = "common/presets.rs"]
mod presets;

use logp::algos::allreduce::{
    run_allreduce_doubling, run_allreduce_reduce_bcast, run_reliable_allreduce,
};
use logp::algos::am::{run_two_node, AmClient, AmCtx};
use logp::algos::broadcast::{
    run_optimal_broadcast, run_reliable_broadcast, run_shape_broadcast, run_survivor_broadcast,
    run_tree_broadcast,
};
use logp::algos::cc::{run_cc, Graph};
use logp::algos::fft::run_parallel_fft;
use logp::algos::gather::{run_allgather_ring, run_gather, run_scatter};
use logp::algos::hier::{
    flat_tree, hier_tree, run_flat_allreduce_on, run_flat_broadcast_on, run_flat_sum_on,
    run_hier_allreduce, run_hier_broadcast, run_hier_sum, run_tree_allreduce_on,
    run_tree_broadcast_on, run_tree_reduce_on,
};
use logp::algos::kbroadcast::{
    run_kbcast_binomial, run_kbcast_optimal_tree, run_kbcast_scatter_gather,
    run_reliable_kbroadcast,
};
use logp::algos::lu::{run_lu_column_cyclic, run_lu_column_cyclic_synchronized, Matrix};
use logp::algos::matmul::run_summa;
use logp::algos::multithread::{masking_throughput, saturation_threads};
use logp::algos::radix::run_radix_sort;
use logp::algos::reduce::{run_binomial_sum, run_optimal_sum, run_reliable_sum, run_sum_schedule};
use logp::algos::remap::run_remap;
use logp::algos::scan::run_scan;
use logp::algos::sort::{run_bitonic_sort, run_splitter_sort};
use logp::algos::stencil::run_jacobi;
use logp::algos::stencil2d::run_jacobi2d;
use logp::core::broadcast::{shape_children, TreeShape};
use logp::core::hier::Hierarchy;
use logp::core::summation::{min_sum_time, optimal_sum_schedule};
use logp::prelude::*;
use logp::sim::reliable::RetryConfig;
use logp::sim::{replay_jsonl, FaultPlan, SinkSpec};
use logp::wl::{gen_workload, preset, workload_from_obslog, FuzzConfig, Op, WlRun};
use oracle::Noise;
use std::time::Instant;

/// The engine's side of a comparison: completion, node finish times, and
/// per-processor busy and stall totals.
fn engine_side(run: &WlRun) -> (Cycles, Vec<Cycles>, Vec<Cycles>, Vec<Cycles>) {
    let procs = &run.result.stats.procs;
    (
        run.completion,
        run.node_times.clone(),
        procs.iter().map(|s| s.busy()).collect(),
        procs.iter().map(|s| s.stall).collect(),
    )
}

/// Classic engine == oracle on `wl` over `m`.
fn agree(label: &str, wl: &Workload, m: &LogP) {
    agree_under(label, wl, m, Noise::default());
}

/// Classic engine == oracle on `wl` over `m` with `noise` drawn; the
/// completion they agree on.
fn agree_under(label: &str, wl: &Workload, m: &LogP, noise: Noise) -> Cycles {
    let config = SimConfig::default()
        .with_seed(noise.seed)
        .with_jitter(noise.jitter)
        .with_drift(noise.drift_ppk as u32)
        .with_skew(noise.skew_ppk as u32);
    let run = run_workload(wl, m, config).unwrap_or_else(|e| panic!("{label}: {e}"));
    let o = oracle::run(wl, m, noise);
    let want = (o.completion, o.node_times, o.busy, o.stall);
    assert_eq!(engine_side(&run), want, "{label}: engine != oracle");
    run.completion
}

/// The program a built-in run executed: run it with a JSONL lifecycle
/// log on `procs` processors, read the log back and replay it.
fn replay(label: &str, procs: u32, run: impl FnOnce(SimConfig)) -> Workload {
    let file = format!("logp_oracle_{}_{label}.obs.jsonl", std::process::id());
    let path = std::env::temp_dir().join(file.replace(['/', ' '], "_"));
    run(SimConfig::default().with_sink(SinkSpec::Jsonl(path.clone())));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{label}: {e}"));
    let _ = std::fs::remove_file(&path);
    let log = replay_jsonl(&text).unwrap_or_else(|e| panic!("{label}: {e}"));
    workload_from_obslog(&log, procs, "replay").unwrap_or_else(|e| panic!("{label}: {e}"))
}

/// Call `case` with every built-in runner on `m`: its name, the machine
/// it runs on (cut to a power of two or a square where it needs one), and
/// a run of it under a given config. `deadline` is the summation deadline
/// the `.wl` corpora run `m` at.
fn for_each_runner(
    m: LogP,
    deadline: Cycles,
    mut case: impl FnMut(&str, LogP, &dyn Fn(SimConfig)),
) {
    let p = m.p;
    let pow2 = m.with_p(1 << p.ilog2());
    let side = p.isqrt();
    let square = m.with_p(side * side);
    let v: Vec<f64> = (0..p).map(|q| f64::from(q % 7) + 0.5).collect();
    let items: Vec<u64> = (0..7).map(|k| k * 7 + 1).collect();
    let words: Vec<u64> = (0..3 * u64::from(p)).map(|i| (i * 37 + 11) % 101).collect();
    let keys: Vec<u64> = (0..4 * u64::from(p)).map(|i| (i * 7919) % 4093).collect();
    let pow2_keys = &keys[..4 * pow2.p as usize];
    let t = min_sum_time(&m, 3 * u64::from(p) + 5, p);
    let retry = || RetryConfig::for_tree(&m, p).with_max_retries(16);
    let zero = FaultPlan::new(0xC011);
    let h = Hierarchy::flat(&m);
    let (ht, ft) = (hier_tree(&h), flat_tree(&h));
    let n = 3 * side as usize;
    let grid: Vec<Vec<f64>> = (0..n)
        .map(|r| (0..n).map(|k| ((r * n + k) as f64 * 0.13).cos()).collect())
        .collect();
    let (a, b) = (
        Matrix::test_matrix(2 * side as usize, 3),
        Matrix::test_matrix(2 * side as usize, 4),
    );
    let lu = Matrix::test_matrix(2 * p as usize, 1993);
    // Sixteen vertices: from 32 up, the naive variant deadlocks on `gap`
    // (a one-message window, so a ring of senders each stalled on a full
    // interface whose owner is stalled too), and a run that never ends
    // has no log to replay.
    let graph = Graph::random(16, 48, 5);
    let fft = FftRunSpec {
        n: u64::from(pow2.p * pow2.p).max(64),
        schedule: RemapSchedule::Staggered,
        local_cost: 10,
        compute: Some(ComputeModel::cm5()),
    };
    let signal: Vec<Cplx> = (0..fft.n)
        .map(|i| Cplx::new((i as f64 * 0.05).cos(), 0.25))
        .collect();
    let remap = |schedule| RemapSpec {
        elems_per_pair: 2,
        local_cost: 3,
        schedule,
    };

    let binary = shape_children(TreeShape::Binary, p);
    case("broadcast.tree", m, &|c| {
        run_tree_broadcast(&m, &binary, c);
    });
    case("broadcast.optimal", m, &|c| {
        run_optimal_broadcast(&m, c);
    });
    for shape in [
        TreeShape::Flat,
        TreeShape::Linear,
        TreeShape::Binary,
        TreeShape::Binomial,
    ] {
        case(&format!("broadcast.shape.{shape:?}"), m, &|c| {
            run_shape_broadcast(&m, shape, c);
        });
    }
    case("allreduce.reduce_bcast", m, &|c| {
        run_allreduce_reduce_bcast(&m, &v, c);
    });
    case("allreduce.doubling", pow2, &|c| {
        run_allreduce_doubling(&pow2, &v[..pow2.p as usize], c);
    });
    case("reduce.optimal", m, &|c| {
        run_optimal_sum(&m, t, c);
    });
    case("reduce.schedule", m, &|c| {
        run_sum_schedule(&optimal_sum_schedule(&m, t + 3), c);
    });
    case("reduce.schedule.corpus", m, &|c| {
        run_sum_schedule(&optimal_sum_schedule(&m, deadline), c);
    });
    case("reduce.binomial", m, &|c| {
        run_binomial_sum(&m, 100, c);
    });
    case("kbroadcast.optimal_tree", m, &|c| {
        run_kbcast_optimal_tree(&m, &items, c);
    });
    case("kbroadcast.binomial", m, &|c| {
        run_kbcast_binomial(&m, &items, c);
    });
    case("kbroadcast.scatter_gather", m, &|c| {
        run_kbcast_scatter_gather(&m, &items, c);
    });
    // The fault-tolerant runners, under a plan that injects nothing.
    case("broadcast.survivor", m, &|c| {
        run_survivor_broadcast(&m, &zero, c).unwrap();
    });
    case("broadcast.reliable", m, &|c| {
        run_reliable_broadcast(&m, &zero, retry(), c).unwrap();
    });
    case("allreduce.reliable", m, &|c| {
        run_reliable_allreduce(&m, &v, &zero, retry(), c).unwrap();
    });
    case("reduce.reliable", m, &|c| {
        run_reliable_sum(&m, 100, &zero, retry(), c).unwrap();
    });
    case("kbroadcast.reliable", m, &|c| {
        run_reliable_kbroadcast(&m, &items, &zero, retry(), c).unwrap();
    });
    // The level-aware runners on the one-level hierarchy of `m`.
    case("hier.tree_broadcast_on", m, &|c| {
        run_tree_broadcast_on(&h, &ft, 7.5, c);
    });
    case("hier.tree_reduce_on", m, &|c| {
        run_tree_reduce_on(&h, &ft, &v, c);
    });
    case("hier.tree_allreduce_on", m, &|c| {
        run_tree_allreduce_on(&h, &ht, &ft, &v, c);
    });
    case("hier.hier_broadcast", m, &|c| {
        run_hier_broadcast(&h, 7.5, c);
    });
    case("hier.flat_broadcast_on", m, &|c| {
        run_flat_broadcast_on(&h, 7.5, c);
    });
    case("hier.hier_sum", m, &|c| {
        run_hier_sum(&h, &v, c);
    });
    case("hier.flat_sum_on", m, &|c| {
        run_flat_sum_on(&h, &v, c);
    });
    case("hier.hier_allreduce", m, &|c| {
        run_hier_allreduce(&h, &v, c);
    });
    case("hier.flat_allreduce_on", m, &|c| {
        run_flat_allreduce_on(&h, &v, c);
    });
    // The round-structured applications.
    case("app.scan", m, &|c| {
        run_scan(&m, &words, c);
    });
    case("app.allgather_ring", m, &|c| {
        run_allgather_ring(&m, &words[..p as usize], c);
    });
    case("scatter", m, &|c| {
        run_scatter(&m, &words[..p as usize], c);
    });
    case("gather", m, &|c| {
        run_gather(&m, &words[..p as usize], c);
    });
    case("app.bitonic_sort", pow2, &|c| {
        run_bitonic_sort(&pow2, pow2_keys, c);
    });
    case("app.jacobi", m, &|c| {
        run_jacobi(
            &m,
            &words.iter().map(|&w| w as f64).collect::<Vec<_>>(),
            3,
            c,
        );
    });
    case("app.jacobi2d", square, &|c| {
        run_jacobi2d(&square, &grid, 2, c);
    });
    case("app.summa", square, &|c| {
        run_summa(&square, &a, &b, c);
    });
    // The §4 applications.
    case("app.splitter_sort", pow2, &|c| {
        run_splitter_sort(&pow2, pow2_keys, c);
    });
    case("app.radix_sort", m, &|c| {
        run_radix_sort(&m, &keys, 6, 12, c);
    });
    for combining in [false, true] {
        case(&format!("app.cc.combining={combining}"), pow2, &|c| {
            run_cc(&pow2, &graph, combining, c);
        });
    }
    case("app.lu", m, &|c| {
        run_lu_column_cyclic(&m, &lu, c);
    });
    case("app.lu.synchronized", m, &|c| {
        run_lu_column_cyclic_synchronized(&m, &lu, c);
    });
    case("app.fft", pow2, &|c| {
        run_parallel_fft(&pow2, &signal, &fft, c);
    });
    case("app.fft.StaggeredBarrier", pow2, &|c| {
        let spec = FftRunSpec {
            schedule: RemapSchedule::StaggeredBarrier,
            ..fft
        };
        run_parallel_fft(&pow2, &signal, &spec, c);
    });
    case("app.masking", m, &|c| {
        masking_throughput(&m, saturation_threads(&m), 40, c);
    });
    case("app.am.two_node", m, &|c| {
        run_two_node(&m, vec![1.0, 2.0], Mixed, c);
    });
    for schedule in [
        RemapSchedule::Naive,
        RemapSchedule::Staggered,
        RemapSchedule::StaggeredBarrier,
    ] {
        case(&format!("app.remap.{schedule:?}"), m, &|c| {
            run_remap(&m, &remap(schedule), c);
        });
    }
}

/// A `run_two_node` client that reads, writes and fetch-adds, and on
/// each of its first two answers fetch-adds and reads again.
struct Mixed;

impl AmClient for Mixed {
    fn on_start(&mut self, am: &mut AmCtx<'_, '_>) {
        am.read(1, 1);
        am.write(1, 0, 10.0);
        am.fetch_add(1, 0, 5.0);
    }

    fn on_value(&mut self, req: u64, value: f64, am: &mut AmCtx<'_, '_>) {
        if req < 2 {
            am.fetch_add(1, 1, value);
            am.read(1, 0);
        }
    }
}

/// The `o > g` and `o = 0` machines the fuzz cases add to the presets.
fn corner_machines() -> [(&'static str, LogP); 2] {
    [
        ("o>g", LogP::new(6, 5, 2, 8).unwrap()),
        ("o=0", LogP::new(6, 0, 4, 8).unwrap()),
    ]
}

#[test]
fn the_example_files_agree() {
    let mut files: Vec<_> = std::fs::read_dir("examples/workloads")
        .expect("examples/workloads")
        .map(|e| e.expect("directory entry").path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 4);
    for path in files {
        let text = std::fs::read_to_string(&path).expect("a corpus file");
        let wl = load_workload(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let m = wl
            .preset
            .as_deref()
            .and_then(preset)
            .unwrap_or(LogP::fig3());
        agree(&path.display().to_string(), &wl, &m);
    }
}

#[test]
fn replays_of_every_runner_agree_on_the_presets() {
    let mut cases = 0;
    for (name, m, deadline) in presets::presets() {
        for_each_runner(m, deadline, |runner, on, run| {
            let label = format!("{runner}.{name}");
            agree(&label, &replay(&label, on.p, run), &on);
            cases += 1;
        });
    }
    assert_eq!(cases, 5 * 50);
}

/// Every fuzz program on every machine, noise-free and under jitter,
/// jitter with drift, and drift with skew, each drawn from the program's
/// seed.
#[test]
fn fuzz_programs_agree_on_the_presets_and_the_corner_machines() {
    let presets = presets::presets().into_iter().map(|(name, m, _)| (name, m));
    let machines: Vec<_> = presets.chain(corner_machines()).collect();
    // (name, jitter, drift, skew), and how many cases each moved off the
    // noise-free completion.
    let noises = [
        ("quiet", 0, 0, 0),
        ("jitter", 3, 0, 0),
        ("jitter+drift", 3, 64, 0),
        ("drift+skew", 0, 64, 64),
    ];
    let mut moved = [0; 4];
    for seed in 0..64 {
        let wl = gen_workload(seed, &FuzzConfig::default());
        for (name, m) in &machines {
            let mut quiet = None;
            for (i, &(noise_name, jitter, drift_ppk, skew_ppk)) in noises.iter().enumerate() {
                let noise = Noise {
                    seed,
                    jitter,
                    drift_ppk,
                    skew_ppk,
                };
                let label = format!("seed {seed} on {name}, {noise_name}");
                let completion = agree_under(&label, &wl, m, noise);
                moved[i] += usize::from(*quiet.get_or_insert(completion) != completion);
            }
        }
    }
    assert!(moved[1..].iter().all(|&n| n > 0), "noise moved {moved:?}");
}

/// Three processors send to a fourth at once on a machine whose window is
/// ⌈L/g⌉ = 2: the third sender stalls until the first message's flight
/// ends. The classic engine holds that, as the oracle does; four lanes
/// relax destination capacity (`vitals.capacity_relaxed = 1`) and run the
/// third send unstalled. ROADMAP item 3(c) is the change that flips the
/// lane half: it deletes the lanes, or makes their destination admission
/// exact, so that no engine differs from the oracle here.
#[test]
fn a_hot_spot_holds_capacity_on_the_classic_engine_but_not_on_lanes() {
    let mut wl = Workload::new("hot_spot", 4);
    let (tag, payload) = (0, logp::wl::Payload::Empty);
    for src in 1..4 {
        let send = Op::Send {
            dst: 0,
            tag,
            payload,
        };
        wl.node(format!("tx{src}"), src, send, &[]);
        wl.node(format!("rx{src}"), 0, Op::Recv { src, tag }, &[]);
    }
    let m = LogP::fig3().with_p(4);
    agree("hot spot", &wl, &m);
    let o = oracle::run(&wl, &m, Noise::default());
    assert!(o.stall.iter().any(|&s| s > 0), "the witness must stall");
    let lanes = run_workload(&wl, &m, SimConfig::default().with_shards(4)).unwrap();
    assert_eq!(lanes.result.vitals.capacity_relaxed, 1);
    let want = (o.completion, o.node_times, o.busy, o.stall);
    assert_ne!(
        engine_side(&lanes),
        want,
        "4 lanes kept destination capacity"
    );
}

/// Programs shaped like three ledger workloads at smoke scale: a
/// two-processor ping-pong (`p2p_chain`), a staggered then a hot-spot
/// all-to-all round on 128 processors (`p2p_dense`), and a generated
/// program over 32 processors with barriers (`wl_text`).
fn race_programs() -> Vec<(&'static str, Workload, LogP)> {
    let m = LogP::new(6, 2, 4, 2).unwrap();
    let (payload, tag) = (logp::wl::Payload::Empty, 0);
    let mut chain = Workload::new("chain", 2);
    let mut last = [vec![], vec![]];
    for r in 0..400_000u32 {
        let (a, b) = (r % 2, 1 - r % 2);
        let send = Op::Send {
            dst: b,
            tag,
            payload,
        };
        let tx = chain.node(format!("tx{r}"), a, send, &last[a as usize]);
        let recv = Op::Recv { src: a, tag };
        let rx = chain.node(format!("rx{r}"), b, recv, &last[b as usize]);
        (last[a as usize], last[b as usize]) = (vec![tx], vec![rx]);
    }
    let p = 128;
    let mut dense = Workload::new("dense", p);
    let mut joined = vec![None; p as usize];
    for (round, hot) in [(0, false), (1, true)] {
        let mut joins = Vec::new();
        for q in 0..p {
            let rx: Vec<_> = (1..p)
                .map(|k| {
                    let src = (q + p - k) % p;
                    dense.node(format!("r{round}_{q}_{src}"), q, Op::Recv { src, tag }, &[])
                })
                .collect();
            let join = Op::Compute { cycles: 0 };
            joins.push(Some(dense.node(format!("j{round}_{q}"), q, join, &rx)));
        }
        for q in 0..p {
            let after = joined[q as usize].as_slice().to_vec();
            for k in 1..p {
                // Hot: everyone walks 0, 1, 2, ... (skipping itself).
                let dst = if hot {
                    k - 1 + u32::from(k > q)
                } else {
                    (q + k) % p
                };
                let send = Op::Send { dst, tag, payload };
                dense.node(format!("s{round}_{q}_{dst}"), q, send, &after);
            }
        }
        joined = joins;
    }
    let cfg = FuzzConfig {
        min_procs: 32,
        max_procs: 32,
        max_steps: 2_400,
        ..FuzzConfig::default()
    };
    vec![
        ("p2p_chain", chain, m),
        ("p2p_dense", dense, m.with_p(p)),
        ("wl_text", gen_workload(1, &cfg), m.with_p(32)),
    ]
}

/// The oracle's speed beside the engine's. Run with `cargo test --release
/// --test logp_oracle -- --ignored --nocapture`; DESIGN.md keeps one
/// table of it.
#[test]
#[ignore = "prints wall-clock timings"]
fn race_the_oracle() {
    println!("program     nodes  engine events  ns/event  oracle tasks  ns/task  ratio");
    for (name, wl, m) in race_programs() {
        wl.validate().expect("a valid program");
        let t = Instant::now();
        let run = run_workload(&wl, &m, SimConfig::default()).expect("runs");
        let engine = t.elapsed().as_nanos() as f64 / run.result.stats.events as f64;
        let t = Instant::now();
        let o = oracle::run(&wl, &m, Noise::default());
        let oracle = t.elapsed().as_nanos() as f64 / o.tasks as f64;
        assert_eq!(
            (run.completion, &run.node_times),
            (o.completion, &o.node_times)
        );
        println!(
            "{name:<9} {:>7} {:>14} {engine:>9.1} {:>13} {oracle:>8.1} {:>6.1}",
            wl.nodes.len(),
            run.result.stats.events,
            o.tasks,
            oracle / engine
        );
    }
}
