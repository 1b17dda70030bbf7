//! E3 — Figure 5: butterfly layouts. Prints the figure's 8-input/P=2
//! hybrid assignment and the communication structure of cyclic, blocked
//! and hybrid layouts across sizes.

use logp_algos::fft::layout::{figure5_assignment, ButterflyLayout, Layout};
use logp_bench::{Args, Table};

pub fn run(_: &Args) {
    println!(
        "Figure 5 — 8-input butterfly, P = 2, hybrid layout (remap between columns 2 and 3)\n"
    );
    for q in 0..2u32 {
        let cols = figure5_assignment(q);
        println!("processor {q} owns, per column:");
        for (c, rows) in cols.iter().enumerate() {
            println!("  column {c}: rows {rows:?}");
        }
    }

    println!(
        "\ncommunication structure (remote column transitions and remote refs per processor):"
    );
    let mut t = Table::new(&["n", "P", "layout", "remote columns", "remote refs/proc"]);
    for (n, p) in [(1u64 << 10, 16u32), (1 << 14, 16), (1 << 16, 64)] {
        let logp = (p as u64).trailing_zeros();
        for (name, layout) in [
            ("cyclic", Layout::Cyclic),
            ("blocked", Layout::Blocked),
            ("hybrid", Layout::Hybrid { remap_at: logp }),
        ] {
            let bl = ButterflyLayout::new(n, p, layout);
            t.row(&[
                n.to_string(),
                p.to_string(),
                name.to_string(),
                bl.remote_columns().to_string(),
                bl.remote_refs_per_proc().to_string(),
            ]);
        }
    }
    t.print();
    println!("\nhybrid cuts communication by a factor of log P (paper §4.1.1).");
}
