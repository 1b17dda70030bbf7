//! The five oracle presets of `logp_wl::preset`, each with the summation
//! deadline the `.wl` tests run it at: the one table of
//! `tests/workloads.rs`, `tests/wl_identity.rs` and `tests/logp_oracle.rs`.

use logp::core::{Cycles, LogP};
use logp::wl::{preset, PRESET_NAMES};

/// `(name, machine, summation deadline)` in [`PRESET_NAMES`] order:
/// `fig3` (L=6, o=2, g=4, P=8), `fig4` (L=5, o=2, g=4, P=8), `cm5`
/// (CM-5-like, §5), `latency` (latency-dominated) and `gap`
/// (gap-dominated). Every deadline engages more than one processor.
pub(crate) fn presets() -> Vec<(&'static str, LogP, Cycles)> {
    let deadlines = [40, 28, 200, 250, 40];
    let machine = |name| preset(name).expect("a preset name");
    PRESET_NAMES
        .iter()
        .zip(deadlines)
        .map(|(&name, t)| (name, machine(name), t))
        .collect()
}
