//! E10 — §5.3: latency vs offered load in a packet-level router
//! simulation — "typically a saturation point at which the latency
//! increases sharply; below the saturation point the latency is fairly
//! insensitive to the load."

use logp_bench::{f2, f3, Args, Table};
use logp_net::{knee, simulate_load, Network, PacketSimConfig, Topology};
use logp_sim::runner::sweep_map;

pub fn run(args: &Args) {
    let p = args.pick(64u64, 256);
    let cfg = PacketSimConfig {
        warmup_cycles: args.pick(250, 1000),
        measure_cycles: args.pick(1000, 5000),
        drain_cycles: args.pick(1500, 6000),
        seed: 0xBEEF,
    };
    let loads = [0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8];

    for topo in [
        Topology::Torus2D,
        Topology::Hypercube,
        Topology::Mesh2D,
        Topology::FatTree4,
    ] {
        let net = Network::build(topo, p);
        println!(
            "\nsaturation on {} (P = {p}, uniform random traffic)\n",
            topo.name()
        );
        // Each offered-load point is an independent packet simulation;
        // fan the sweep across the pool (`load_sweep` is the serial form).
        let pts = sweep_map(args.threads, &loads, |&l| simulate_load(&net, l, &cfg));
        let mut t = Table::new(&["offered load", "avg latency", "throughput", "backlog"]);
        for pt in &pts {
            t.row(&[
                f3(pt.offered),
                f2(pt.avg_latency),
                f3(pt.throughput),
                pt.backlog.to_string(),
            ]);
        }
        t.print();
        match knee(&pts, 2.0) {
            Some(k) => println!("knee (2x zero-load latency) at offered load ~{k}"),
            None => println!("no knee within the sweep (network sustains all loads)"),
        }
    }
}
