//! E13 — §3.2: multithreading as latency masking. Remote-read throughput
//! vs virtual processors; the curve saturates once the round trip is
//! covered, and the ⌈L/g⌉ capacity constraint caps each direction.

use logp_algos::multithread::{masking_sweep, saturation_threads};
use logp_bench::{f2, Args, Table};
use logp_core::LogP;
use logp_sim::SimConfig;

pub fn run(args: &Args) {
    for m in [
        LogP::new(32, 1, 4, 2).unwrap(),
        LogP::new(60, 20, 40, 2).unwrap(), // CM-5-like
    ] {
        let vstar = saturation_threads(&m);
        println!(
            "\nremote-read throughput vs virtual processors on {m}\n\
             (capacity/direction = {}, saturation predicted at v* = RTT/g = {vstar})\n",
            m.capacity()
        );
        let mut t = Table::new(&["v", "completion", "ops/kcycle", "vs saturated"]);
        let pts = masking_sweep(&m, 2 * vstar, 300, SimConfig::default(), args.threads);
        let sat = pts.last().expect("nonempty").throughput_kops;
        for pt in pts.iter().filter(|p| {
            p.virtual_procs <= 4 || p.virtual_procs % 2 == 0 || p.virtual_procs == vstar
        }) {
            let marker = if pt.virtual_procs == vstar {
                " <- v*"
            } else {
                ""
            };
            t.row(&[
                format!("{}{}", pt.virtual_procs, marker),
                pt.completion.to_string(),
                f2(pt.throughput_kops),
                format!("{:.0}%", pt.throughput_kops / sat * 100.0),
            ]);
        }
        t.print();
    }
    println!(
        "\npaper (§3.2): \"the capacity constraint allows multithreading to be\n\
         employed only up to a limit of L/g virtual processors\" — beyond the\n\
         pipeline-covering point, extra virtual processors buy nothing."
    );
}
