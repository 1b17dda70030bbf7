//! E17 — §7: parameter determination. The paper closes by calling for
//! "refining the process of parameter determination and evaluating a
//! large number of machines"; this experiment runs the classic
//! micro-benchmarks (ping-pong, spaced sends, flooding) against simulated
//! machines treated as black boxes and recovers their (L, o, g), reported
//! in the shared estimate vocabulary (`logp_core::estimate`) by the one
//! calibrator, `logp-calib`; the `calibrate` experiment reports its
//! uncertainty bands and regime flags.

use logp_bench::{Args, Table};
use logp_calib::{calibrate_sim_sweep, CalibConfig};
use logp_core::{LogP, MachinePreset};
use logp_sim::SimConfig;

pub fn run(args: &Args) {
    println!("§7 — LogP parameter extraction by micro-benchmark\n");
    let mut t = Table::new(&[
        "machine",
        "true (L, o, max(g,o))",
        "extracted L",
        "extracted o",
        "extracted interval",
        "worst err %",
    ]);
    let mut machines: Vec<(String, LogP)> = MachinePreset::all()
        .into_iter()
        .map(|p| (p.name.to_string(), p.logp.with_p(2)))
        .collect();
    machines.push(("fig3 toy".into(), LogP::fig3().with_p(2)));
    machines.push(("o-dominated".into(), LogP::new(10, 30, 4, 2).unwrap()));
    // One extraction per machine, fanned across the worker pool — the
    // "large number of machines" evaluation §7 calls for.
    let models: Vec<LogP> = machines.iter().map(|(_, m)| *m).collect();
    let extracted = calibrate_sim_sweep(
        &models,
        &SimConfig::default(),
        &CalibConfig::default(),
        args.threads,
    );
    for ((name, m), cal) in machines.into_iter().zip(extracted) {
        t.row(&[
            name,
            format!("({}, {}, {})", m.l, m.o, m.send_interval()),
            cal.logp.l.to_string(),
            cal.logp.o.to_string(),
            cal.interval.to_string(),
            format!("{:.2}", cal.worst_relative_error(&m) * 100.0),
        ]);
    }
    t.print();
    println!(
        "\nmethod: RTT/2 = 2o + L from ping-pong; o from sends spaced by\n\
         local work > g; max(g, o) from flooding; L by subtraction. The\n\
         extraction closes the loop: measured parameters match the\n\
         configured machine to well under 1% (and under latency jitter the\n\
         extracted L lands inside the jitter band, as it must)."
    );
}
