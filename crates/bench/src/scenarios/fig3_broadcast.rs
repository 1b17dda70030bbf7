//! E1 — Figure 3: the optimal single-datum broadcast for
//! `P = 8, L = 6, g = 4, o = 2`, with the per-processor activity
//! timeline and the critical-path breakdown, plus baseline tree shapes
//! for comparison.
//!
//! `--trace-out PREFIX` / `--metrics-out PREFIX` export the observed
//! run's Perfetto trace and metrics JSON.

use logp_algos::broadcast::{run_optimal_broadcast, run_shape_broadcast};
use logp_bench::{Args, Table};
use logp_core::broadcast::{
    optimal_broadcast_time, optimal_broadcast_tree, shape_broadcast_time, TreeShape,
};
use logp_core::LogP;
use logp_sim::{critical_path, SimConfig};

pub fn run(args: &Args) {
    let m = LogP::fig3();
    println!("Figure 3 — optimal broadcast on {m}\n");

    let tree = optimal_broadcast_tree(&m);
    let children = tree.children();
    println!("tree (processor: children, numbered in arrival order):");
    for (p, ch) in children.iter().enumerate() {
        if !ch.is_empty() {
            let times: Vec<String> = ch
                .iter()
                .map(|&c| format!("P{}@{}", c, tree.ready[c as usize]))
                .collect();
            println!("  P{p} -> {}", times.join(", "));
        }
    }
    println!("\nper-processor ready times: {:?}", tree.ready);
    println!(
        "analytic completion: {} cycles (paper: 24)",
        tree.completion()
    );

    // One fully-observed run: the returned `SimResult` carries the
    // trace, lifecycle log, and metrics, so the measured run is also the
    // rendered one (no second simulation).
    let run = run_optimal_broadcast(&m, SimConfig::observed().with_metrics_grid(2));
    println!("simulated completion: {} cycles", run.completion);
    assert_eq!(run.completion, optimal_broadcast_time(&m));

    println!("\nactivity (1 column = 1 cycle):");
    print!(
        "{}",
        run.result.trace.gantt(m.p, run.result.stats.completion, 1)
    );

    let cp = critical_path(&run.result).expect("observed run has a lifecycle log");
    println!("\ncritical path (latest delivery, walked back to t = 0):");
    print!("{}", cp.render());
    assert_eq!(cp.total, run.completion);

    args.obs.write("fig3_broadcast", &run.result);

    println!("\nbaseline tree shapes on the same machine:");
    let mut t = Table::new(&["shape", "analytic", "simulated"]);
    for (name, shape) in [
        ("optimal", None),
        ("binomial", Some(TreeShape::Binomial)),
        ("binary", Some(TreeShape::Binary)),
        ("flat", Some(TreeShape::Flat)),
        ("linear", Some(TreeShape::Linear)),
    ] {
        let (analytic, simulated) = match shape {
            None => (optimal_broadcast_time(&m), run.completion),
            Some(s) => (
                shape_broadcast_time(&m, s),
                run_shape_broadcast(&m, s, SimConfig::default()).completion,
            ),
        };
        t.row(&[
            name.to_string(),
            analytic.to_string(),
            simulated.to_string(),
        ]);
    }
    t.print();
}
