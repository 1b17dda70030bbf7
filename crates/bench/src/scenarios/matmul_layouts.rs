//! E19 — §6.6: matrix multiplication layouts. The 2D grid's √P
//! communication gain (the same structure as LU's grid layout), with the
//! SUMMA algorithm verified data-correct on the simulator.

use logp_algos::lu::Matrix;
use logp_algos::matmul::{matmul_1d_time, matmul_2d_time, matmul_sequential, run_summa};
use logp_bench::{f2, max_abs_diff, Args, Table};
use logp_core::LogP;
use logp_sim::SimConfig;

pub fn run(args: &Args) {
    let m = LogP::new(60, 20, 40, 16).unwrap();

    println!("§6.6 — matrix multiply layouts on {m} (cost model)\n");
    let mut t = Table::new(&["n", "1D row layout", "2D grid (SUMMA)", "1D/2D"]);
    for n in [64u64, 128, 256, 512, 1024] {
        let one = matmul_1d_time(&m, n);
        let two = matmul_2d_time(&m, n);
        t.row(&[
            n.to_string(),
            one.to_string(),
            two.to_string(),
            f2(one as f64 / two as f64),
        ]);
    }
    t.print();

    // Data-correct SUMMA run.
    let n = args.pick(16usize, 64);
    let a = Matrix::test_matrix(n, 21);
    let b = Matrix::test_matrix(n, 22);
    let run = run_summa(&m, &a, &b, SimConfig::default());
    let seq = matmul_sequential(&a, &b);
    let err = max_abs_diff(&run.c.data, &seq.data);
    println!(
        "\nSUMMA on a 4x4 grid, n = {n}: {} cycles, {} messages, max error {err:.2e}",
        run.completion, run.messages
    );
    assert!(err < 1e-10);
    println!(
        "\npaper's argument (via LU, §4.2.1): the grid layout reduces each\n\
         processor's communication by √P; the ratio above approaches √P/2 = 2\n\
         in the communication-bound regime and falls as n³ compute dominates."
    );
}
