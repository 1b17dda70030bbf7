//! E11 — §4.2.1: LU decomposition layouts. Communication volume (bad vs
//! column vs grid) and load balance (blocked vs scattered), plus a
//! data-correct distributed run validating against the sequential
//! factorization, pipelined (footnote 8) and with a barrier per step.

use logp_algos::lu::{
    lu_layout_time, lu_sequential, run_lu_column_cyclic, run_lu_column_cyclic_synchronized,
    LuFactors, LuLayout, LuRun, Matrix,
};
use logp_bench::{f2, max_abs_diff, Args, Table};
use logp_core::LogP;
use logp_sim::SimConfig;

const LAYOUTS: [LuLayout; 5] = [
    LuLayout::Bad,
    LuLayout::ColumnBlocked,
    LuLayout::ColumnScattered,
    LuLayout::GridBlocked,
    LuLayout::GridScattered,
];

/// The layout model's machine and sizes, and each size's time per layout
/// in [`LAYOUTS`] order.
fn layouts(args: &Args) -> (LogP, Vec<(u64, [u64; 5])>) {
    let m = LogP::new(60, 20, 40, 16).unwrap();
    let sizes: Vec<u64> = args.pick(vec![128, 256, 512], vec![256, 512, 1024, 2048]);
    let times = sizes
        .into_iter()
        .map(|n| (n, LAYOUTS.map(|l| lu_layout_time(&m, n, l))))
        .collect();
    (m, times)
}

/// The distributed factorization, pipelined and with a barrier per step,
/// and the sequential one.
fn distributed(args: &Args) -> (LogP, Matrix, LuRun, LuRun, LuFactors) {
    let n = args.pick(32usize, 96);
    let a = Matrix::test_matrix(n, 2026);
    let m = LogP::new(6, 2, 4, 4).unwrap();
    let run = run_lu_column_cyclic(&m, &a, SimConfig::default());
    let synced = run_lu_column_cyclic_synchronized(&m, &a, SimConfig::default());
    let seq = lu_sequential(&a);
    (m, a, run, synced, seq)
}

/// Grid-scattered < column-scattered < bad and scattered < blocked in
/// both families at every size; the distributed LU picks the sequential
/// pivots with residual < 1e-9; and pipelining finishes before the
/// barrier per step with identical factors.
pub fn check(args: &Args) {
    let (_, times) = layouts(args);
    for (n, [bad, colb, cols, gridb, grids]) in times {
        assert!(
            grids < cols && cols < bad,
            "n = {n}: grid-scattered {grids}, column-scattered {cols}, bad {bad}"
        );
        assert!(
            grids < gridb && cols < colb,
            "n = {n}: grid scattered {grids} vs blocked {gridb}, column {cols} vs {colb}"
        );
    }
    let (_, a, run, synced, seq) = distributed(args);
    assert_eq!(run.factors.perm, seq.perm, "the sequential pivots");
    let worst = max_abs_diff(&run.factors.lu.data, &seq.lu.data);
    assert!(worst < 1e-9, "max |distributed - sequential| = {worst:e}");
    let residual = run.factors.residual(&a);
    assert!(residual < 1e-9, "residual {residual:e}");
    assert_eq!(
        synced.factors, run.factors,
        "a barrier per step moved a factor"
    );
    assert!(
        run.completion < synced.completion,
        "pipelined {} cycles, barrier per step {}",
        run.completion,
        synced.completion
    );
    println!("lu_layouts --check: all pins hold");
}

pub fn run(args: &Args) {
    let (m, times) = layouts(args);
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
    for (n, row) in &times {
        let mut cells = vec![n.to_string()];
        cells.extend(row.iter().map(|&c| format!("{:.2e}", c as f64)));
        cells.push(f2(row[0] as f64 / row[4] as f64));
        t.row(&cells);
    }
    t.print();
    println!(
        "\npaper: grid gains ~√P in communication over bad layout; scattered\n\
         assignment keeps all processors busy (\"the fastest Linpack benchmark\n\
         programs actually employ a scattered grid layout\").\n"
    );

    // Data-correct distributed factorization.
    let (m, a, run, synced, seq) = distributed(args);
    let worst = max_abs_diff(&run.factors.lu.data, &seq.lu.data);
    println!(
        "distributed column-cyclic LU, n = {}, P = {}: completed in {} cycles,\n\
         {} messages, max |distributed - sequential| = {:.2e}, residual = {:.2e};\n\
         a barrier per step (no pipelining, footnote 8) takes {} cycles",
        a.n,
        m.p,
        run.completion,
        run.messages,
        worst,
        run.factors.residual(&a),
        synced.completion
    );
}
