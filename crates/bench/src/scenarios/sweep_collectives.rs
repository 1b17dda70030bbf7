//! E12 — §3.3/§7: broadcast and summation across the 4-dimensional
//! machine parameter space — where the optimal schedule's advantage over
//! fixed shapes grows and where shapes cross over.

use logp_bench::{f2, Args, Table};
use logp_core::broadcast::{optimal_broadcast_time, shape_broadcast_time, TreeShape};
use logp_core::summation::min_sum_time;
use logp_core::sweep::{crossover, sweep, Axis, Grid, Param};
use logp_core::LogP;

pub fn run(_: &Args) {
    println!("§3.3/§7 — collectives across the (L, o, g, P) machine space\n");

    println!("broadcast times (cycles): optimal vs fixed shapes");
    let mut t = Table::new(&[
        "machine",
        "optimal",
        "binomial",
        "binary",
        "flat",
        "linear",
        "binom/opt",
    ]);
    let grid = Grid {
        l: Axis::list([2u64, 6, 20, 60]),
        o: Axis::list([1u64, 2, 20]),
        g: Axis::list([4u64, 40]),
        p: Axis::list([64u64]),
    };
    let pts = sweep(
        &grid,
        &[
            ("optimal", &|m: &LogP| optimal_broadcast_time(m)),
            ("binomial", &|m: &LogP| {
                shape_broadcast_time(m, TreeShape::Binomial)
            }),
            ("binary", &|m: &LogP| {
                shape_broadcast_time(m, TreeShape::Binary)
            }),
            ("flat", &|m: &LogP| shape_broadcast_time(m, TreeShape::Flat)),
            ("linear", &|m: &LogP| {
                shape_broadcast_time(m, TreeShape::Linear)
            }),
        ],
    );
    for p in &pts {
        let v: Vec<u64> = p.metrics.iter().map(|m| m.1).collect();
        t.row(&[
            p.machine.to_string(),
            v[0].to_string(),
            v[1].to_string(),
            v[2].to_string(),
            v[3].to_string(),
            v[4].to_string(),
            f2(v[1] as f64 / v[0] as f64),
        ]);
    }
    t.print();

    // Crossover: as L grows, the flat tree overtakes the chain.
    let base = LogP::new(1, 1, 8, 16).unwrap();
    let x = crossover(
        &base,
        Param::L,
        &Axis::linear(1, 200, 1),
        &|m| shape_broadcast_time(m, TreeShape::Linear),
        &|m| shape_broadcast_time(m, TreeShape::Flat),
    );
    println!(
        "\ncrossover on {base}: flat broadcast overtakes the linear chain at L = {}",
        x.map_or("never".to_string(), |v| v.to_string())
    );

    println!("\noptimal summation time for n = 1024 values:");
    let mut t2 = Table::new(&["machine", "T_opt(1024)"]);
    let sum_grid = Grid {
        l: Axis::list([6u64, 60]),
        o: Axis::list([2u64, 20]),
        g: Axis::list([4u64, 40]),
        p: Axis::list([8u64, 64]),
    };
    for machine in sum_grid.machines() {
        t2.row(&[
            machine.to_string(),
            min_sum_time(&machine, 1024, machine.p).to_string(),
        ]);
    }
    t2.print();
}
