//! E21 — §3.3 extended: broadcasting k items. The optimal single-item
//! tree, pipelined, against the bandwidth-optimal scatter+all-gather —
//! with the machine-dependent crossover the paper's methodology predicts.

use logp_algos::kbroadcast::{
    run_kbcast_binomial, run_kbcast_optimal_tree, run_kbcast_scatter_gather,
};
use logp_bench::{Args, Table};
use logp_core::LogP;
use logp_sim::runner::sweep_map;
use logp_sim::SimConfig;

pub fn run(args: &Args) {
    let obs = &args.obs;
    for m in [
        LogP::new(60, 20, 40, 16).unwrap(), // CM-5-like
        LogP::new(200, 4, 8, 16).unwrap(),  // latency-dominated
    ] {
        println!("\nk-item broadcast on {m}\n");
        let mut t = Table::new(&[
            "k",
            "optimal tree",
            "binomial tree",
            "scatter+allgather",
            "winner",
        ]);
        let mut crossover = None;
        let ks = [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512];
        // 30 independent simulations (10 payloads x 3 schedules); the
        // crossover scan below needs them back in k order, which
        // sweep_map guarantees at any thread count.
        let cfg = obs.apply(SimConfig::default());
        let runs = sweep_map(args.threads, &ks, |&k| {
            let items: Vec<u64> = (0..k as u64).collect();
            (
                run_kbcast_optimal_tree(&m, &items, cfg.clone()),
                run_kbcast_binomial(&m, &items, cfg.clone()),
                run_kbcast_scatter_gather(&m, &items, cfg.clone()),
            )
        });
        let tag = format!("L{}o{}g{}P{}", m.l, m.o, m.g, m.p);
        for (&k, (tree, bino, sg)) in ks.iter().zip(&runs) {
            // Per-spec artifacts: one file per (machine, strategy, k) point.
            obs.write(&format!("{tag}_tree_k{k}"), &tree.result);
            obs.write(&format!("{tag}_binomial_k{k}"), &bino.result);
            obs.write(&format!("{tag}_sg_k{k}"), &sg.result);
            let winner = if sg.completion < tree.completion.min(bino.completion) {
                if crossover.is_none() {
                    crossover = Some(k);
                }
                "scatter+ag"
            } else if tree.completion <= bino.completion {
                "opt tree"
            } else {
                "binomial"
            };
            t.row(&[
                k.to_string(),
                tree.completion.to_string(),
                bino.completion.to_string(),
                sg.completion.to_string(),
                winner.to_string(),
            ]);
        }
        t.print();
        match crossover {
            Some(k) => {
                println!("scatter+all-gather overtakes the trees at k ~ {k} on this machine")
            }
            None => println!("the trees win throughout this range"),
        }
    }
    println!(
        "\nthe lesson of §3.3/§7: the right broadcast algorithm is a function\n\
         of (L, o, g, P) *and* the payload — a portable program picks at runtime."
    );
}
