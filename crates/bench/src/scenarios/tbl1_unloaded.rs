//! E8 — Table 1: unloaded one-way message time
//! `T(M,H) = Tsnd + ⌈M/w⌉ + H·r + Trcv` for the paper's seven machine
//! rows at M = 160 bits.

use logp_bench::{f1, Args, Table};
use logp_net::table1;

pub fn run(_: &Args) {
    println!("Table 1 — network timing parameters, one-way message without contention\n");
    let mut t = Table::new(&[
        "machine",
        "network",
        "cycle ns",
        "w bits",
        "Tsnd+Trcv",
        "r",
        "avg H (1024)",
        "T(M=160)",
        "overhead %",
    ]);
    for row in table1() {
        t.row(&[
            row.machine.to_string(),
            row.network.to_string(),
            f1(row.cycle_ns),
            row.w.to_string(),
            row.tsnd_plus_trcv.to_string(),
            row.r.to_string(),
            f1(row.avg_h_1024),
            row.t_160().to_string(),
            format!("{:.0}", row.overhead_fraction(160) * 100.0),
        ]);
    }
    t.print();
    println!(
        "\npaper column T(M=160): 6760, 3714, 53, 60, 30, 1360, 246.\n\
         Send/receive overheads dominate the commercial layers; Active\n\
         Messages reduce them by an order of magnitude."
    );
}
