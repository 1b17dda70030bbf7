//! E6 — Figure 8: remap communication rates (MB/s per processor) across
//! schedules, with processor drift enabled.
//!
//! Paper shape: the staggered schedule approaches the predicted
//! `16 B / max(1µs + 2o, g)` = 3.2 MB/s but droops at large sizes as
//! asynchronous drift re-introduces contention; a periodic barrier
//! ("Synchronized") removes the droop; doubling the network ("Double
//! Net", g/2) buys only ~15% because overhead dominates; the naive
//! schedule is an order of magnitude worse.

use logp_algos::fft::{fft_phases, ComputeModel};
use logp_algos::remap::RemapSchedule;
use logp_bench::{f2, Args, Table};
use logp_core::{LogP, MachinePreset};
use logp_sim::SimConfig;

pub fn run(args: &Args) {
    let preset = MachinePreset::cm5();
    let p = args.pick(16u32, 64);
    let m = preset.logp.with_p(p);
    let cm = ComputeModel::cm5();
    let local = preset.local_elem_cost;
    // Per-processor speed skew of ~2% plus 2% i.i.d. noise models the
    // asynchronous execution of §4.1.4: the skew accumulates, so senders
    // gradually drift out of the contention-free alignment.
    let drift = || {
        SimConfig::default()
            .with_drift(20)
            .with_skew(20)
            .with_seed(42)
    };
    let sizes: Vec<u64> = args.pick(12..=17, 14..=21).map(|e| 1u64 << e).collect();

    println!("Figure 8 — remap bandwidth, MB/s per processor (P = {p}, 2% skew + noise)\n");
    let mut t = Table::new(&[
        "n",
        "naive",
        "staggered",
        "synchronized",
        "double net",
        "predicted",
    ]);
    for &n in &sizes {
        let naive = fft_phases(&m, &cm, local, n, RemapSchedule::Naive, drift());
        let stag = fft_phases(&m, &cm, local, n, RemapSchedule::Staggered, drift());
        let sync = fft_phases(&m, &cm, local, n, RemapSchedule::StaggeredBarrier, drift());
        let dbl_model: LogP = m.double_network();
        let dbl = fft_phases(&dbl_model, &cm, local, n, RemapSchedule::Staggered, drift());
        t.row(&[
            n.to_string(),
            f2(naive.remap_mb_per_s(&preset)),
            f2(stag.remap_mb_per_s(&preset)),
            f2(sync.remap_mb_per_s(&preset)),
            f2(dbl.remap_mb_per_s(&preset)),
            f2(stag.predicted_mb_per_s(&preset)),
        ]);
    }
    t.print();
    println!(
        "\npaper: predicted asymptote 3.2 MB/s; staggered droops under drift;\n\
         synchronized holds; double net gains only ~15% (overhead-limited)."
    );
}
