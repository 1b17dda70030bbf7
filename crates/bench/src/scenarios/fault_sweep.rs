//! Completion time of the reliable collectives as a function of the
//! message drop rate ρ (see `docs/FAILURE_MODEL.md`).
//!
//! Each row injects drops at a parts-per-million rate through a seeded
//! [`FaultPlan`] and runs the fault-tolerant broadcast, summation,
//! all-reduce, and k-item broadcast over reliable endpoints
//! (ack / timeout / retransmit). Every cell is deterministic — same
//! seed, same cycle counts, on any `--threads` count — so the measured
//! degradation curve is reproducible bit-for-bit.
//!
//! The check verifies the layer's identity guarantees instead of
//! sweeping:
//!
//! * the ρ = 0 column is **cycle-identical** to the fault-free oracle:
//!   a plan with all rates zero runs the `FAULTS = true` engine path
//!   yet produces the same `SimResult` as `faults: None`;
//! * the sweep's rows are bit-identical on 1 and 4 worker threads;
//! * a 5% drop run completes correctly and its retransmissions surface
//!   as `Cause::Retry` edges in the causal DAG.

use logp_algos::allreduce::run_reliable_allreduce;
use logp_algos::broadcast::{
    run_optimal_broadcast, run_reliable_broadcast, run_survivor_broadcast,
};
use logp_algos::kbroadcast::run_reliable_kbroadcast;
use logp_algos::reduce::run_reliable_sum;
use logp_bench::{Args, Table};
use logp_core::LogP;
use logp_sim::reliable::RetryConfig;
use logp_sim::runner::{sweep_map, Threads};
use logp_sim::{Cause, FaultPlan, SimConfig};

const PLAN_SEED: u64 = 0xFA_5EED;
const DROP_PPM: [u32; 6] = [0, 10_000, 25_000, 50_000, 100_000, 200_000];

/// One sweep row: completions (cycles) and the broadcast's retry count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Row {
    ppm: u32,
    bcast: u64,
    bcast_retries: u64,
    sum: u64,
    allreduce: u64,
    kbcast: u64,
}

fn retry_for(m: &LogP) -> RetryConfig {
    // A generous budget: at ρ = 20% a logical message still succeeds
    // deterministically well within 16 attempts.
    RetryConfig::for_tree(m, m.p).with_max_retries(16)
}

fn sweep(m: &LogP, n_inputs: u64, k_items: usize, threads: Threads) -> Vec<Row> {
    let retry = retry_for(m);
    let items: Vec<u64> = (0..k_items as u64).map(|i| i * 7 + 1).collect();
    let values: Vec<f64> = (0..m.p).map(|i| i as f64 + 1.0).collect();
    sweep_map(threads, &DROP_PPM, |&ppm| {
        let plan = FaultPlan::new(PLAN_SEED).with_drop_ppm(ppm);
        let config = SimConfig::default();
        let b = run_reliable_broadcast(m, &plan, retry.clone(), config.clone())
            .expect("no crashes in the plan");
        let s = run_reliable_sum(m, n_inputs, &plan, retry.clone(), config.clone())
            .expect("no crashes in the plan");
        let a = run_reliable_allreduce(m, &values, &plan, retry.clone(), config.clone())
            .expect("no crashes in the plan");
        let k = run_reliable_kbroadcast(m, &items, &plan, retry.clone(), config)
            .expect("no crashes in the plan");
        Row {
            ppm,
            bcast: b.completion,
            bcast_retries: b.retries,
            sum: s.completion,
            allreduce: a.completion,
            kbcast: k.completion,
        }
    })
}

/// The machine, summation inputs and broadcast items at `args`' scale.
fn shape(args: &Args) -> (LogP, u64, usize) {
    let m = LogP::new(12, 3, 4, args.pick(16, 64)).unwrap();
    (m, args.pick(64, 512), args.pick(8, 64))
}

pub fn check(args: &Args) {
    let (m, n_inputs, k_items) = shape(args);
    let m = &m;
    // 1. ρ = 0 is cycle-identical to the fault-free oracle: the zero
    //    plan exercises the FAULTS = true engine monomorphization, the
    //    oracle runs with faults: None; the whole SimResult must match.
    let zero = FaultPlan::new(PLAN_SEED);
    assert!(zero.is_noop());
    let with_plan = run_survivor_broadcast(m, &zero, SimConfig::default()).unwrap();
    let oracle = run_optimal_broadcast(m, SimConfig::default());
    assert_eq!(
        with_plan.result, oracle.result,
        "zero fault plan must be cycle-identical to faults: None"
    );
    assert_eq!(with_plan.completion, oracle.completion);
    assert_eq!(with_plan.arrivals, oracle.arrivals);
    println!("rho=0 column: cycle-identical to the fault-free oracle");

    // 2. The sweep is bit-identical across worker counts.
    let rows1 = sweep(m, n_inputs, k_items, Threads::Fixed(1));
    let rows4 = sweep(m, n_inputs, k_items, Threads::Fixed(4));
    assert_eq!(rows1, rows4, "sweep must not depend on thread count");
    println!("sweep rows: bit-identical on 1 and 4 threads");

    // 3. Retries happen under drops and surface in the causal DAG.
    let plan = FaultPlan::new(PLAN_SEED).with_drop_ppm(50_000);
    let run = run_reliable_broadcast(
        m,
        &plan,
        retry_for(m),
        SimConfig::default().with_msg_log(true),
    )
    .unwrap();
    assert!(run.retries > 0, "5% drops must force retransmissions");
    assert!(run.result.stats.msgs_dropped > 0);
    let retry_edges = run
        .result
        .obs
        .msgs
        .iter()
        .filter(|r| matches!(r.cause, Cause::Retry(_)))
        .count();
    assert!(
        retry_edges > 0,
        "retransmissions must appear as Cause::Retry edges"
    );
    println!(
        "5% drops: {} retries, {} Cause::Retry edges in the DAG",
        run.retries, retry_edges
    );
    println!("fault_sweep --check: OK");
}

pub fn run(args: &Args) {
    let (m, n_inputs, k_items) = shape(args);

    println!(
        "reliable collectives vs drop rate on {m} ({n_inputs} summation inputs, {k_items} broadcast items)"
    );
    let mut table = Table::new(&[
        "drop_ppm",
        "rho",
        "bcast",
        "retries",
        "sum",
        "allreduce",
        "kbcast",
    ]);
    let rows = sweep(&m, n_inputs, k_items, args.threads);
    let base = rows[0];
    for r in &rows {
        table.row(&[
            r.ppm.to_string(),
            format!("{:.1}%", r.ppm as f64 / 10_000.0),
            r.bcast.to_string(),
            r.bcast_retries.to_string(),
            r.sum.to_string(),
            r.allreduce.to_string(),
            r.kbcast.to_string(),
        ]);
    }
    table.print();
    let last = rows.last().unwrap();
    println!(
        "degradation at rho=20%: bcast {:.2}x, sum {:.2}x, allreduce {:.2}x, kbcast {:.2}x",
        last.bcast as f64 / base.bcast as f64,
        last.sum as f64 / base.sum as f64,
        last.allreduce as f64 / base.allreduce as f64,
        last.kbcast as f64 / base.kbcast as f64,
    );
}
