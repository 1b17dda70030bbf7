//! The machine presets the `.wl` corpus runs on, by name.
//!
//! The programs of `examples/workloads/` that mirror built-in runners
//! (`broadcast_fig3`, `summation_fig4`, `allreduce_fig3`) each declare one
//! of these with `preset`. A caller that wants such a program for another
//! machine records the built-in's run with `SimConfig::with_msg_log` and
//! replays it with [`crate::workload_from_obslog`].

use logp_core::LogP;

/// The five machine presets used across the repo's oracle tests, by
/// name — `fig3`, `fig4`, `cm5`, `latency`, `gap`.
pub fn preset(name: &str) -> Option<LogP> {
    let m = match name {
        "fig3" => LogP::fig3(),
        "fig4" => LogP::fig4(),
        "cm5" => LogP::new(60, 20, 40, 16).expect("valid preset"),
        "latency" => LogP::new(200, 4, 8, 32).expect("valid preset"),
        "gap" => LogP::new(2, 1, 12, 24).expect("valid preset"),
        _ => return None,
    };
    Some(m)
}

/// Names accepted by [`preset`], in canonical order.
pub const PRESET_NAMES: [&str; 5] = ["fig3", "fig4", "cm5", "latency", "gap"];
