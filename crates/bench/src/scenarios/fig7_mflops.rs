//! E5 — Figure 7: per-processor computation rates of the two FFT phases.
//!
//! Paper shape: ~2.8 Mflops while the local FFT fits the 64 KB cache,
//! dropping to ~2.2 beyond it, with Phase I (one large local FFT)
//! suffering more than Phase III (many small ones).

use logp_algos::fft::ComputeModel;
use logp_bench::{f1, Args, Table};
use logp_core::MachinePreset;

pub fn run(_: &Args) {
    let preset = MachinePreset::cm5();
    let p = 128u64;
    let cm = ComputeModel::cm5();
    println!("Figure 7 — per-processor Mflops for FFT phases (P = {p}, 64 KB cache)\n");
    let mut t = Table::new(&[
        "n",
        "n/P points",
        "KB/proc",
        "phase I Mflops",
        "phase III Mflops",
    ]);
    for e in 14..=24u32 {
        let n = 1u64 << e;
        let n1 = n / p;
        let block = n1 / p;
        t.row(&[
            n.to_string(),
            n1.to_string(),
            f1((n1 * 16) as f64 / 1024.0),
            f1(cm.phase_mflops(n1, 1)),
            f1(cm.phase_mflops(p, block.max(1))),
        ]);
    }
    t.print();
    println!(
        "\nknee: the phase-I rate drops 2.8 -> 2.2 once 16·n/P bytes exceed the {} KB cache\n\
         (paper: drop occurs when local FFT size exceeds cache capacity;\n\
         phase III's many small FFTs degrade only to the streaming rate)",
        preset.cache_bytes / 1024
    );
}
