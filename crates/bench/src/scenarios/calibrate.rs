//! E23 — the calibration loop (§4.1.4, §7): measure (L, o, g) of a
//! black-box machine by micro-benchmark, check the sim backend
//! round-trips its configuration cycle-exactly, and cross-check the
//! packet-network backend against Table 1 — including the measured
//! `g(ρ)` saturation curve of §5.3.
//!
//! Flags: `--full` for longer series, `--threads N` for the sweep pool.
//! The check is the same run, exiting nonzero unless every oracle holds.

use logp_bench::{f1, Args, Table};
use logp_calib::{calibrate, calibrate_sim_sweep, g_knee, g_of_load, CalibConfig, PacketMachine};
use logp_core::{LogP, MachinePreset};
use logp_net::{table1, Topology};
use logp_sim::SimConfig;

fn preset_models() -> Vec<(String, LogP)> {
    let mut v: Vec<(String, LogP)> = MachinePreset::all()
        .into_iter()
        .map(|p| (p.name.to_string(), p.logp))
        .collect();
    v.push(("fig3 toy".into(), LogP::fig3()));
    v
}

pub fn run(args: &Args) {
    calibrate_all(args, false);
}

/// Exits nonzero unless every oracle holds.
pub fn check(args: &Args) {
    calibrate_all(args, true);
}

fn calibrate_all(args: &Args, check: bool) {
    let cfg = args.pick(CalibConfig::quick(), CalibConfig::default());
    let mut failures = 0usize;

    println!("§4.1.4 / §7 — calibrating black-box machines\n");
    println!("sim backend: the engine configured with known (L, o, g, P) must");
    println!("round-trip — measured integers equal to configured ones.\n");

    let models: Vec<(String, LogP)> = preset_models();
    let machines: Vec<LogP> = models.iter().map(|(_, m)| *m).collect();
    let cals = calibrate_sim_sweep(&machines, &SimConfig::default(), &cfg, args.threads);

    let mut t = Table::new(&[
        "machine",
        "true (L, o, g)",
        "measured L",
        "measured o",
        "measured g",
        "cap",
        "regime",
        "round-trip",
    ]);
    for ((name, truth), cal) in models.iter().zip(&cals) {
        let ok = cal.model() == *truth;
        failures += usize::from(!ok);
        let regime = if cal.overhead_bound {
            "o-bound (g <= o)"
        } else if cal.gap_limited {
            "gap-limited"
        } else {
            "tight"
        };
        t.row(&[
            name.clone(),
            format!("({}, {}, {})", truth.l, truth.o, truth.g),
            cal.logp.l.to_string(),
            cal.logp.o.to_string(),
            cal.logp.g.to_string(),
            cal.capacity.to_string(),
            regime.into(),
            if ok {
                "exact".into()
            } else {
                "MISMATCH".into()
            },
        ]);
    }
    t.print();
    println!(
        "\nOn o >= g machines the flood interval pins only max(g, o): the\n\
         measured g is an upper bound (full-width band) that still rounds\n\
         to the configured value."
    );

    println!("\npacket backend: Monsoon (Table 1) endpoints on a 64-way butterfly.");
    println!("The datasheet predicts o = 5, g = serialize(160 b / 16 b) = 10.\n");
    let monsoon = table1()[4].clone();
    let base = PacketMachine::from_timing(&monsoon, Topology::Butterfly, 64, 160);
    let probe = CalibConfig::quick().with_endpoints(0, 40);
    let cal = calibrate(&mut base.clone(), &probe);
    let derived = base.derived_g() as f64;
    let o_ok = cal.logp.o.within(base.overhead as f64, 0.1);
    let g_ok = cal.logp.g.within(derived, 0.1);
    failures += usize::from(!o_ok) + usize::from(!g_ok);
    println!(
        "  measured o = {}   (datasheet {}, within 10%: {})",
        cal.logp.o, base.overhead, o_ok
    );
    println!(
        "  measured g = {}   (datasheet {derived}, within 10%: {})",
        cal.logp.g, g_ok
    );
    println!(
        "  measured L = {}   (route + serialization pipeline)",
        cal.logp.l
    );

    let loads = args.pick(
        vec![0.0, 0.3, 0.6, 0.9],
        vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
    );
    let curve = g_of_load(&base, &loads, &probe);
    let knee = g_knee(&curve, 1.3);
    println!("\nmeasured g(rho) under background load (S5.3's saturation):\n");
    let mut t = Table::new(&["offered load rho", "measured g", "vs unloaded"]);
    let g0 = curve[0].1.value;
    for (rho, g) in &curve {
        t.row(&[
            format!("{rho:.2}"),
            g.to_string(),
            format!("{}x", f1(g.value / g0)),
        ]);
    }
    t.print();
    match knee {
        Some(rho) => println!("\nknee (first load with g > 1.3x unloaded): rho = {rho:.2}"),
        None => println!("\nno knee below rho = {:.2}", loads.last().unwrap()),
    }
    let rises = curve
        .last()
        .map(|(_, g)| g.value > 1.3 * g0)
        .unwrap_or(false);
    failures += usize::from(!rises);

    println!(
        "\nmethod: flood slope = max(g, o); ping-pong slope = 2(2o + L);\n\
         spaced-send slope - spacing = o; L by subtraction; every slope a\n\
         Theil-Sen fit over series, so startup transients cancel and the\n\
         +/-band reports measurement spread."
    );

    if check {
        if failures > 0 {
            eprintln!("\n--check: {failures} oracle(s) FAILED");
            std::process::exit(1);
        }
        println!("\n--check: all calibration oracles hold");
    }
}
