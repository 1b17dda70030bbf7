//! E7 — §5.1 table: average network distance for seven topologies, the
//! asymptotic formula evaluated at P = 1024 vs exact BFS on explicit
//! graphs.

use logp_bench::{f2, Args, Table};
use logp_net::avg_distance_table;

pub fn run(_: &Args) {
    println!("§5.1 — average distance between processors\n");
    let mut t = Table::new(&[
        "network",
        "formula @1024 (paper)",
        "exact (BFS)",
        "measured P",
    ]);
    for row in avg_distance_table() {
        t.row(&[
            row.topology.name().to_string(),
            f2(row.formula_at_1024),
            f2(row.measured),
            row.measured_p.to_string(),
        ]);
    }
    t.print();
    println!(
        "\npaper values: 5, 10, 9.33, 7.5, 10, 16, 21 — \"for configurations of\n\
         practical interest the difference between topologies is a factor of two,\n\
         except for very primitive networks\"."
    );
}
