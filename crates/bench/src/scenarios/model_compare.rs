//! E16 — §6: the model gap. The same problems under PRAM (executable and
//! closed-form), BSP, and LogP (closed-form and simulated) — the paper's
//! motivation that PRAM-style analysis "does not reveal important
//! performance bottlenecks".

use logp_algos::broadcast::run_optimal_broadcast;
use logp_algos::reduce::run_optimal_sum;
use logp_baselines::pram::{pram_broadcast, pram_sum};
use logp_baselines::{bsp_broadcast, bsp_sum, BspMachine};
use logp_bench::{f1, Args, Table};
use logp_core::broadcast::optimal_broadcast_time;
use logp_core::models::{Bsp, Pram, PramVariant};
use logp_core::summation::min_sum_time;
use logp_core::LogP;
use logp_sim::SimConfig;

pub fn run(_: &Args) {
    // CM-5-like machine in 0.1 µs cycles.
    let m = LogP::new(60, 20, 40, 64).unwrap();
    let bsp = Bsp::from_logp(&m);
    let bsp_machine = BspMachine::from_model(&bsp);
    let n = 4096u64;

    let logp_sum = min_sum_time(&m, n, m.p);
    let sim_bcast = run_optimal_broadcast(&m, SimConfig::default()).completion;
    let sim_sum = run_optimal_sum(&m, logp_sum, SimConfig::default()).completion;

    println!("§6 — predicted/executed time for the same problems under each model");
    println!("machine: {m} (CM-5 calibration, 1 cycle = 0.1 µs)\n");

    let mut t = Table::new(&["problem", "model", "time (cycles)", "vs LogP"]);

    // Broadcast.
    let logp_bcast = optimal_broadcast_time(&m);
    let pram_crew = Pram::new(m.p, PramVariant::Crew).broadcast_time();
    let pram_erew = Pram::new(m.p, PramVariant::Erew).broadcast_time();
    let pram_exec = pram_broadcast(m.p, PramVariant::Erew, 1.0)
        .expect("legal")
        .steps;
    let (bsp_run, _) = bsp_broadcast(&bsp_machine, 1.0);
    for (model, time) in [
        ("PRAM CREW (closed form)", pram_crew),
        ("PRAM EREW (closed form)", pram_erew),
        ("PRAM EREW (executed steps)", pram_exec),
        ("BSP (executed, charged)", bsp_run.cost),
        ("LogP (closed form)", logp_bcast),
        ("LogP (simulated)", sim_bcast),
    ] {
        t.row(&[
            "broadcast".to_string(),
            model.to_string(),
            time.to_string(),
            f1(time as f64 / logp_bcast as f64),
        ]);
    }

    // Summation of n values.
    let pram_sum_pred = Pram::new(m.p, PramVariant::Erew).sum_time(n);
    let values: Vec<f64> = (0..n).map(|v| v as f64).collect();
    let pram_sum_exec = pram_sum(m.p, PramVariant::Erew, &values)
        .expect("legal")
        .steps;
    let (bsp_sum_run, bsp_total) = bsp_sum(&bsp_machine, &values);
    assert_eq!(bsp_total, values.iter().sum::<f64>());
    for (model, time) in [
        ("PRAM EREW (closed form)", pram_sum_pred),
        ("PRAM EREW (executed steps)", pram_sum_exec),
        ("BSP (executed, charged)", bsp_sum_run.cost),
        ("LogP (closed form)", logp_sum),
        ("LogP (simulated)", sim_sum),
    ] {
        t.row(&[
            format!("sum n={n}"),
            model.to_string(),
            time.to_string(),
            f1(time as f64 / logp_sum as f64),
        ]);
    }
    t.print();

    println!(
        "\nthe PRAM charges nothing for communication (its \"steps\" are free of\n\
         L, o, g); BSP charges a full barrier every superstep. LogP sits in\n\
         between — and its closed forms match its own simulation exactly."
    );
}
