//! The collectives of `logp-algos`, pinned to a commit rather than to each
//! other.
//!
//! `tests/data/collective_identity.txt` holds one line per (public runner
//! of `broadcast` / `hier` / `allreduce` / `reduce` / `kbroadcast`) ×
//! (machine) × (fault plan, for the resilient runners) × (classic engine,
//! four lanes): a hash over everything the runner returns — `Debug` of the
//! result struct, so arrival / final order, `retries`, `messages` and the
//! whole `SimResult` under `SimConfig::observed()` (every span, every
//! message record with its tag, every counter) are in it. The file was
//! recorded at the parent of the PR that folded the eight hand-copied
//! collective programs into one tree program and a `Reliable<P>` wrapper;
//! the runners must reproduce every line.
//!
//! Machines are the six presets of `tests/engine_queue.rs`; `hier` also
//! runs that file's `three_levels` hierarchies and `Hierarchy::flat` of
//! each preset. `run_survivor_broadcast` is left out of the lossy plan:
//! it sends unreliably, so it cannot complete there.
//!
//! The lines after the collectives' pin the round-structured applications
//! — `run_scan`, `run_allgather_ring`, `run_bitonic_sort`,
//! `run_splitter_sort`, `run_radix_sort`, `run_jacobi`, `run_jacobi2d`,
//! `run_summa` — on each preset cut down to a power of two or a square
//! where the runner needs one, once as configured and once with latency
//! jitter and compute drift, so that messages run ahead of the step their
//! receiver is in. Their results hold no `SimResult`; the hash covers
//! outputs, completion and message counts. They were recorded at the
//! parent of the PR that made these programs descriptions run by one step
//! driver; the two sorts' rows were added, and recorded, at the parent of
//! the PR that moved them onto that driver. The rows of connected
//! components (naive and combining, on the power-of-two cut) and of LU
//! (pipelined and barrier per step, `n = P + 3`) were added, and recorded,
//! at the parent of the change that moved them onto that driver, which
//! kept the LU rows and re-recorded the components' (pushes now wait for
//! their round's counts; labels and message counts unchanged). Their hash
//! covers the labels or factors and permutation, completion and message
//! counts (and, for components, the hot-spot load and stalls).

use logp::algos::allreduce::{
    run_allreduce_doubling, run_allreduce_reduce_bcast, run_reliable_allreduce,
};
use logp::algos::broadcast::{
    run_optimal_broadcast, run_reliable_broadcast, run_shape_broadcast, run_survivor_broadcast,
    run_tree_broadcast,
};
use logp::algos::cc::{run_cc, Graph};
use logp::algos::gather::run_allgather_ring;
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
use logp::algos::radix::run_radix_sort;
use logp::algos::reduce::{run_binomial_sum, run_optimal_sum, run_reliable_sum, run_sum_schedule};
use logp::algos::scan::run_scan;
use logp::algos::sort::{run_bitonic_sort, run_splitter_sort};
use logp::algos::stencil::run_jacobi;
use logp::algos::stencil2d::run_jacobi2d;
use logp::core::broadcast::{shape_children, TreeShape};
use logp::core::hier::{Hierarchy, Level};
use logp::core::summation::{min_sum_time, optimal_sum_schedule};
use logp::core::{Cycles, LogP};
use logp::sim::reliable::RetryConfig;
use logp::sim::{FaultPlan, SimConfig};

const IDENTITY_FILE: &str = "tests/data/collective_identity.txt";
/// Lane counts the corpus runs on (`0` = the classic engine).
const ENGINES: [u32; 2] = [0, 4];

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
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

/// `three_levels` of `tests/engine_queue.rs`: socket / node / cluster,
/// the node level with `o < g` or `o > g`.
fn three_levels(node_o: u64) -> Hierarchy {
    Hierarchy::new(vec![
        Level::new(4, 1, 2, 2).unwrap(),
        Level::new(20, node_o, 6, 2).unwrap(),
        Level::new(300, 12, 16, 3).unwrap(),
    ])
    .unwrap()
}

/// The fault plans of the resilient runners: none (a zero-rate plan),
/// crash-only with the root among the crashed, and a lossy network.
fn plans(p: u32) -> [(&'static str, FaultPlan); 3] {
    [
        ("none", FaultPlan::new(0xC011)),
        (
            "crash",
            FaultPlan::new(0xC011).with_crash(0, 0).with_crash(p - 2, 7),
        ),
        (
            "lossy",
            FaultPlan::new(0xC011)
                .with_drop_ppm(50_000)
                .with_dup_ppm(20_000)
                .with_delay(100_000, 9),
        ),
    ]
}

/// The lines recorded so far, and the engine + machine the next ones run on.
struct Corpus {
    lines: Vec<String>,
    lanes: u32,
    machine: String,
}

impl Corpus {
    fn cfg(&self) -> SimConfig {
        SimConfig::observed()
            .with_seed(0x1D)
            .with_shards(self.lanes)
    }
}

/// One corpus line: the label, then a hash over the run's `Debug`.
fn push(c: &mut Corpus, label: impl std::fmt::Display, done: Cycles, run: &impl std::fmt::Debug) {
    let hash = fnv1a(&format!("{run:?}"));
    let line = format!(
        "{label} {} s{} completion={done} {hash:016x}",
        c.machine, c.lanes
    );
    c.lines.push(line);
}

/// [`push`] for a run that holds a `SimResult`, with its vitals (which
/// measure the host and the build profile) reset.
macro_rules! pin {
    ($c:expr, $label:expr, $run:expr) => {{
        let mut run = $run;
        run.result.vitals = Default::default();
        push($c, $label, run.completion, &run);
    }};
}

fn flat_lines(c: &mut Corpus, m: &LogP) {
    let p = m.p;
    let retry = RetryConfig::for_tree(m, p).with_max_retries(16);
    let values: Vec<f64> = (0..p).map(|q| f64::from(q % 7) + 0.5).collect();
    let items: Vec<u64> = (0..7).map(|k| k * 7 + 1).collect();

    let binary = shape_children(TreeShape::Binary, p);
    pin!(c, "broadcast.tree", run_tree_broadcast(m, &binary, c.cfg()));
    pin!(c, "broadcast.optimal", run_optimal_broadcast(m, c.cfg()));
    for shape in [
        TreeShape::Flat,
        TreeShape::Linear,
        TreeShape::Binary,
        TreeShape::Binomial,
    ] {
        let label = format!("broadcast.shape.{shape:?}");
        pin!(c, label, run_shape_broadcast(m, shape, c.cfg()));
    }

    let run = run_allreduce_reduce_bcast(m, &values, c.cfg());
    pin!(c, "allreduce.reduce_bcast", run);
    let pow2 = m.with_p(1 << p.ilog2());
    let run = run_allreduce_doubling(&pow2, &values[..pow2.p as usize], c.cfg());
    pin!(c, "allreduce.doubling", run);

    let t = min_sum_time(m, 3 * u64::from(p) + 5, p);
    pin!(c, "reduce.optimal", run_optimal_sum(m, t, c.cfg()));
    let sched = optimal_sum_schedule(m, t + 3);
    pin!(c, "reduce.schedule", run_sum_schedule(&sched, c.cfg()));
    pin!(c, "reduce.binomial", run_binomial_sum(m, 100, c.cfg()));

    let run = run_kbcast_optimal_tree(m, &items, c.cfg());
    pin!(c, "kbroadcast.optimal_tree", run);
    pin!(
        c,
        "kbroadcast.binomial",
        run_kbcast_binomial(m, &items, c.cfg())
    );
    let run = run_kbcast_scatter_gather(m, &items, c.cfg());
    pin!(c, "kbroadcast.scatter_gather", run);

    for (name, plan) in plans(p) {
        if name != "lossy" {
            let run = run_survivor_broadcast(m, &plan, c.cfg()).unwrap();
            pin!(c, format!("broadcast.survivor.{name}"), run);
        }
        let run = run_reliable_broadcast(m, &plan, retry.clone(), c.cfg()).unwrap();
        pin!(c, format!("broadcast.reliable.{name}"), run);
        let run = run_reliable_allreduce(m, &values, &plan, retry.clone(), c.cfg()).unwrap();
        pin!(c, format!("allreduce.reliable.{name}"), run);
        let run = run_reliable_sum(m, 100, &plan, retry.clone(), c.cfg()).unwrap();
        pin!(c, format!("reduce.reliable.{name}"), run);
        let run = run_reliable_kbroadcast(m, &items, &plan, retry.clone(), c.cfg()).unwrap();
        pin!(c, format!("kbroadcast.reliable.{name}"), run);
    }
}

fn hier_lines(c: &mut Corpus, h: &Hierarchy) {
    let values: Vec<f64> = (0..h.p()).map(|q| f64::from(q % 7) + 0.5).collect();
    let v = &values;
    let (ht, ft) = (hier_tree(h), flat_tree(h));
    let run = run_tree_broadcast_on(h, &ft, 7.5, c.cfg());
    pin!(c, "hier.tree_broadcast_on", run);
    pin!(
        c,
        "hier.tree_reduce_on",
        run_tree_reduce_on(h, &ft, v, c.cfg())
    );
    let run = run_tree_allreduce_on(h, &ht, &ft, v, c.cfg());
    pin!(c, "hier.tree_allreduce_on", run);
    pin!(
        c,
        "hier.hier_broadcast",
        run_hier_broadcast(h, 7.5, c.cfg())
    );
    let run = run_flat_broadcast_on(h, 7.5, c.cfg());
    pin!(c, "hier.flat_broadcast_on", run);
    pin!(c, "hier.hier_sum", run_hier_sum(h, v, c.cfg()));
    pin!(c, "hier.flat_sum_on", run_flat_sum_on(h, v, c.cfg()));
    pin!(c, "hier.hier_allreduce", run_hier_allreduce(h, v, c.cfg()));
    let run = run_flat_allreduce_on(h, v, c.cfg());
    pin!(c, "hier.flat_allreduce_on", run);
}

/// The round-structured applications on `m`, run with `cfg`.
fn app_lines(c: &mut Corpus, m: &LogP, how: &str, cfg: &SimConfig) {
    let p = m.p as usize;
    let pow2 = m.with_p(1 << m.p.ilog2());
    let side = m.p.isqrt();
    let square = m.with_p(side * side);
    let side = side as usize;

    let words: Vec<u64> = (0..3 * p as u64).map(|i| (i * 37 + 11) % 101).collect();
    let run = run_scan(m, &words, cfg.clone());
    push(c, format!("app.scan.{how}"), run.completion, &run);
    let run = run_allgather_ring(m, &words[..p], cfg.clone());
    push(c, format!("app.allgather_ring.{how}"), run.completion, &run);
    let keys: Vec<u64> = (0..4 * pow2.p as u64).map(|i| (i * 7919) % 1009).collect();
    let run = run_bitonic_sort(&pow2, &keys, cfg.clone());
    push(c, format!("app.bitonic_sort.{how}"), run.completion, &run);
    let run = run_splitter_sort(&pow2, &keys, cfg.clone());
    push(c, format!("app.splitter_sort.{how}"), run.completion, &run);
    let wide: Vec<u64> = (0..3 * p as u64).map(|i| (i * 7919 + 13) % 4093).collect();
    let run = run_radix_sort(m, &wide, 6, 12, cfg.clone());
    push(c, format!("app.radix_sort.{how}"), run.completion, &run);

    let field: Vec<f64> = (0..4 * p).map(|i| (i as f64 * 0.37).sin()).collect();
    let run = run_jacobi(m, &field, 3, cfg.clone());
    push(c, format!("app.jacobi.{how}"), run.completion, &run);
    let n = 3 * side;
    let grid: Vec<Vec<f64>> = (0..n)
        .map(|r| (0..n).map(|k| ((r * n + k) as f64 * 0.13).cos()).collect())
        .collect();
    let run = run_jacobi2d(&square, &grid, 2, cfg.clone());
    push(c, format!("app.jacobi2d.{how}"), run.completion, &run);
    let (a, b) = (
        Matrix::test_matrix(2 * side, 3),
        Matrix::test_matrix(2 * side, 4),
    );
    let run = run_summa(&square, &a, &b, cfg.clone());
    push(c, format!("app.summa.{how}"), run.completion, &run);

    let graph = Graph::random(16, 48, 5);
    for (variant, combining) in [("naive", false), ("combining", true)] {
        let run = run_cc(&pow2, &graph, combining, cfg.clone());
        let pinned = (
            &run.labels,
            run.completion,
            run.messages,
            run.max_recv,
            run.total_stall,
        );
        push(
            c,
            format!("app.cc.{variant}.{how}"),
            run.completion,
            &pinned,
        );
    }
    let a = Matrix::test_matrix(p + 3, 1993);
    let run = run_lu_column_cyclic(m, &a, cfg.clone());
    push(c, format!("app.lu.{how}"), run.completion, &run);
    let run = run_lu_column_cyclic_synchronized(m, &a, cfg.clone());
    push(
        c,
        format!("app.lu.synchronized.{how}"),
        run.completion,
        &run,
    );
}

fn identity_lines() -> Vec<String> {
    let mut c = Corpus {
        lines: Vec::new(),
        lanes: 0,
        machine: String::new(),
    };
    for lanes in ENGINES {
        c.lanes = lanes;
        for (i, m) in presets().iter().enumerate() {
            c.machine = format!("m{i}");
            flat_lines(&mut c, m);
            hier_lines(&mut c, &Hierarchy::flat(m));
        }
        for node_o in [4, 9] {
            c.machine = format!("three_levels.o{node_o}");
            hier_lines(&mut c, &three_levels(node_o));
        }
    }
    for lanes in ENGINES {
        c.lanes = lanes;
        for (i, m) in presets().iter().enumerate() {
            c.machine = format!("m{i}");
            let cfg = c.cfg();
            app_lines(&mut c, m, "plain", &cfg);
            let skewed = cfg.with_jitter(m.l).with_drift(40);
            app_lines(&mut c, m, "jittered", &skewed);
        }
    }
    c.lines
}

#[test]
fn collectives_reproduce_the_recorded_corpus() {
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

/// Rewrites the corpus from the runners in the tree (run at the parent of
/// the PR that wrote every collective once); running it again pins
/// whatever the runners do now, so do that only for a deliberate change
/// of behaviour.
#[test]
#[ignore = "rewrites tests/data/collective_identity.txt"]
fn regenerate_collective_identity() {
    std::fs::write(IDENTITY_FILE, identity_lines().join("\n") + "\n").expect(IDENTITY_FILE);
}
