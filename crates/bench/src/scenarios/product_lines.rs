//! E22 — §7: "The product line offered by a particular vendor may be
//! identified with a curve in this space, characterizing the system
//! scalability." Four vendor curves evaluated on three workloads.

use logp_bench::{f1, Args, Table};
use logp_core::broadcast::optimal_broadcast_time;
use logp_core::cost::staggered_remap_time;
use logp_core::product_line::ProductLine;
use logp_core::{Cycles, LogP};

pub fn run(_: &Args) {
    let lines = [
        ProductLine::fat_tree_cm5(),
        ProductLine::mesh_2d(),
        ProductLine::hypercube_ncube(),
        ProductLine::shared_bus(),
    ];
    let counts = [32u32, 128, 512, 2048];

    println!("§7 — vendor product lines: the machine each ships at P processors\n");
    let mut t = Table::new(&["product line", "P", "L", "o", "g", "capacity"]);
    for line in &lines {
        for &p in &counts {
            let m = line.at(p);
            t.row(&[
                line.name.to_string(),
                p.to_string(),
                m.l.to_string(),
                m.o.to_string(),
                m.g.to_string(),
                m.capacity().to_string(),
            ]);
        }
    }
    t.print();

    println!(
        "\nworkloads along each curve (cycles; the remap is strong-scaled at\n\
         256k total elements; remote read is the §3.2 shared-memory cost):\n"
    );
    type Workload = (&'static str, fn(&LogP) -> Cycles);
    let workloads: [Workload; 3] = [
        ("broadcast", |m| optimal_broadcast_time(m)),
        ("remote read", |m| m.remote_read()),
        ("remap 256k", |m| {
            staggered_remap_time(m, 262_144 / m.p as u64, 10)
        }),
    ];
    let mut t2 = Table::new(&[
        "product line",
        "workload",
        "P=32",
        "P=128",
        "P=512",
        "P=2048",
        "512->2048 speedup",
    ]);
    for line in &lines {
        for (wname, cost) in &workloads {
            let pts = line.evaluate(&counts, cost);
            t2.row(&[
                line.name.to_string(),
                wname.to_string(),
                pts[0].2.to_string(),
                pts[1].2.to_string(),
                pts[2].2.to_string(),
                pts[3].2.to_string(),
                f1(pts[2].2 as f64 / pts[3].2 as f64),
            ]);
        }
    }
    t2.print();
    println!(
        "\nreading the curves: the fat tree keeps gaining on every workload\n\
         (only log-L growth); the 2D mesh's sqrt(P) gap erodes bandwidth-bound\n\
         scaling; the bus stops scaling as soon as g(P) crosses the per-element\n\
         overhead. \"Such a summary can focus the efforts of machine designers\n\
         toward architectural improvements that can be measured in terms of\n\
         these parameters.\""
    );
}
