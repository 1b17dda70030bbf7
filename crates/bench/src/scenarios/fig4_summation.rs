//! E2 — Figure 4: the optimal summation schedule for
//! `T = 28, P = 8, L = 5, g = 4, o = 2`, executed on the simulator, plus
//! optimal-vs-binomial comparisons.

use logp_algos::reduce::{run_binomial_sum, run_optimal_sum};
use logp_bench::{Args, Table};
use logp_core::summation::{min_sum_time, optimal_sum_schedule, sum_capacity_bounded};
use logp_core::LogP;
use logp_sim::{critical_path, SimConfig};

pub fn run(args: &Args) {
    let m = LogP::fig4();
    println!("Figure 4 — optimal summation on {m}, T = 28\n");

    let sched = optimal_sum_schedule(&m, 28);
    println!("communication tree (node: completes@, local inputs, children):");
    for node in &sched.nodes {
        let ch: Vec<String> = node
            .children
            .iter()
            .map(|(c, t)| format!("P{c}@{t}"))
            .collect();
        println!(
            "  P{}: completes@{}, {} local inputs{}{}",
            node.proc,
            node.complete_at,
            node.local_inputs,
            if ch.is_empty() { "" } else { ", children: " },
            ch.join(" ")
        );
    }
    println!(
        "\ncapacity: {} inputs with {} processors (paper's tree: root children at 18, 14, 10, 6)",
        sched.total_inputs,
        sched.procs()
    );

    let run = run_optimal_sum(&m, 28, SimConfig::observed().with_metrics_grid(2));
    println!(
        "simulated: total = {} over {} inputs, root done at cycle {} (deadline 28)",
        run.total, run.inputs, run.completion
    );

    let cp = critical_path(&run.result).expect("observed run has a lifecycle log");
    println!("\ncritical path (latest delivery, walked back to t = 0):");
    print!("{}", cp.render());

    args.obs.write("fig4_summation", &run.result);

    println!("\noptimal vs binomial-tree reduction (same input count):");
    let mut t = Table::new(&["n", "optimal T", "binomial T", "ratio"]);
    for n in [50u64, 79, 150, 300, 1000] {
        let opt = min_sum_time(&m, n, m.p);
        let bin = run_binomial_sum(&m, n, SimConfig::default()).completion;
        t.row(&[
            n.to_string(),
            opt.to_string(),
            bin.to_string(),
            format!("{:.2}", bin as f64 / opt as f64),
        ]);
    }
    t.print();

    println!("\nsummation capacity C(T) for {m}:");
    let mut t2 = Table::new(&["T", "C(T, P=8)", "C(T, unbounded)"]);
    for t_budget in [10u64, 16, 22, 28, 34, 40] {
        t2.row(&[
            t_budget.to_string(),
            sum_capacity_bounded(&m, t_budget, m.p).to_string(),
            logp_core::summation::sum_capacity(&m, t_budget).to_string(),
        ]);
    }
    t2.print();
}
