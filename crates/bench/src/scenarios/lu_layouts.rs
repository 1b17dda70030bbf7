//! E11 — §4.2.1: LU decomposition layouts. Communication volume (bad vs
//! column vs grid) and load balance (blocked vs scattered), plus a
//! data-correct distributed run validating against the sequential
//! factorization.

use logp_algos::lu::{lu_layout_time, lu_sequential, run_lu_column_cyclic, LuLayout, Matrix};
use logp_bench::{f2, max_abs_diff, Args, Table};
use logp_core::LogP;
use logp_sim::SimConfig;

pub fn run(args: &Args) {
    let m = LogP::new(60, 20, 40, 16).unwrap();
    let sizes: Vec<u64> = args.pick(vec![128, 256, 512], vec![256, 512, 1024, 2048]);

    println!("§4.2.1 — LU layout comparison on {m} (step-level cost model)\n");
    let mut t = Table::new(&[
        "n",
        "bad",
        "column blocked",
        "column scattered",
        "grid blocked",
        "grid scattered",
        "bad/grid-scat",
    ]);
    for &n in &sizes {
        let time = |l| lu_layout_time(&m, n, l) as f64;
        let bad = time(LuLayout::Bad);
        let gs = time(LuLayout::GridScattered);
        t.row(&[
            n.to_string(),
            format!("{:.2e}", bad),
            format!("{:.2e}", time(LuLayout::ColumnBlocked)),
            format!("{:.2e}", time(LuLayout::ColumnScattered)),
            format!("{:.2e}", time(LuLayout::GridBlocked)),
            format!("{:.2e}", gs),
            f2(bad / gs),
        ]);
    }
    t.print();
    println!(
        "\npaper: grid gains ~√P in communication over bad layout; scattered\n\
         assignment keeps all processors busy (\"the fastest Linpack benchmark\n\
         programs actually employ a scattered grid layout\").\n"
    );

    // Data-correct distributed factorization.
    let n = args.pick(32usize, 96);
    let a = Matrix::test_matrix(n, 2026);
    let dm = LogP::new(6, 2, 4, 4).unwrap();
    let run = run_lu_column_cyclic(&dm, &a, SimConfig::default());
    let seq = lu_sequential(&a);
    let worst = max_abs_diff(&run.factors.lu.data, &seq.lu.data);
    println!(
        "distributed column-cyclic LU, n = {n}, P = 4: completed in {} cycles,\n\
         {} messages, max |distributed - sequential| = {:.2e}, residual = {:.2e}",
        run.completion,
        run.messages,
        worst,
        run.factors.residual(&a)
    );
}
