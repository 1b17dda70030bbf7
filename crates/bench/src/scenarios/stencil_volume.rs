//! E18 — §6.4: the surface-to-volume argument. Jacobi halo exchange on
//! the simulated CM-5: the communication fraction of each iteration
//! vanishes as the per-processor block grows.

use logp_algos::stencil::{comm_fraction, jacobi_sequential, run_jacobi};
use logp_algos::stencil2d::{comm_fraction_2d, jacobi2d_sequential, run_jacobi2d};
use logp_bench::{f3, max_abs_diff, Args, Table};
use logp_core::LogP;
use logp_sim::SimConfig;

pub fn run(args: &Args) {
    let m = LogP::new(60, 20, 40, 8).unwrap();
    let iters = 10;
    let blocks: Vec<usize> = args.pick(vec![8, 32, 128, 512], vec![8, 64, 512, 4096, 32768]);

    println!("§6.4 — 1D Jacobi with halo exchange on {m}, {iters} iterations\n");
    let mut t = Table::new(&[
        "block/proc",
        "cycles/iter",
        "comm fraction (measured)",
        "comm fraction (analytic)",
    ]);
    for &b in &blocks {
        let field: Vec<f64> = (0..8 * b).map(|i| (i as f64 * 0.05).sin()).collect();
        let run = run_jacobi(&m, &field, iters, SimConfig::default());
        // Verify numerics while we're here.
        let seq = jacobi_sequential(&field, iters);
        let err = max_abs_diff(&run.field, &seq);
        assert!(err < 1e-10, "block {b}: stencil numerics drifted ({err})");
        t.row(&[
            b.to_string(),
            (run.completion / iters).to_string(),
            f3(run.comm_fraction),
            f3(comm_fraction(&m, b as u64)),
        ]);
    }
    t.print();
    // The 2D version: 4b surface against b² volume on a 2x2 grid.
    let m2 = LogP::new(60, 20, 40, 4).unwrap();
    println!("\n2D 5-point Jacobi on {m2} (b×b tiles, 4b halo values/iter)\n");
    let mut t2 = Table::new(&[
        "tile b",
        "cycles/iter",
        "comm fraction (measured)",
        "comm fraction (analytic)",
    ]);
    for &b in &args.pick(vec![4usize, 16, 64], vec![4, 16, 64, 256]) {
        let n = 2 * b;
        let field: Vec<Vec<f64>> = (0..n)
            .map(|r| (0..n).map(|c| ((r * n + c) as f64 * 0.07).sin()).collect())
            .collect();
        let run = run_jacobi2d(&m2, &field, iters, SimConfig::default());
        let seq = jacobi2d_sequential(&field, iters);
        let err = max_abs_diff(&run.field, &seq);
        assert!(err < 1e-10, "b={b}: stencil numerics drifted ({err})");
        t2.row(&[
            b.to_string(),
            (run.completion / iters).to_string(),
            f3(run.comm_fraction),
            f3(comm_fraction_2d(&m2, b as u64)),
        ]);
    }
    t2.print();
    println!(
        "\npaper: \"the interprocessor communication diminishes like the surface\n\
         to volume ratio and with large enough problem sizes, the cost of\n\
         communication becomes trivial\" — in 1D the halo is constant; in 2D\n\
         it grows like the perimeter while compute grows like the area."
    );
}
