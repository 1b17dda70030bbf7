//! Calibrated machine presets.
//!
//! The paper calibrates the CM-5 in §4.1.4 (`o = 2 µs`, `L = 6 µs`,
//! `g = 4 µs`, one "cycle" = 4.5 µs butterfly step) and gives raw network
//! interface timings for several 1992-era machines in Table 1 (those live in
//! `logp-net::machines`; here we keep the LogP-level quadruples).
//!
//! Our simulator works in integer cycles. Presets pick a cycle granularity
//! fine enough that every paper constant is an integer: **1 cycle =
//! 0.1 µs** for the CM-5 preset, recorded in
//! [`MachinePreset::cycles_per_us`].

use crate::params::{Cycles, LogP};

/// A named, calibrated machine description at LogP level.
#[derive(Debug, Clone, PartialEq)]
pub struct MachinePreset {
    /// Human-readable machine name.
    pub name: &'static str,
    /// The LogP quadruple, in simulator cycles.
    pub logp: LogP,
    /// Simulator cycles per microsecond of real machine time.
    pub cycles_per_us: u64,
    /// Local per-element load/store cost used by the paper's FFT remap
    /// analysis ("roughly 1 µs of local computation per data point to
    /// load/store values to/from memory", §4.1.4), in cycles.
    pub local_elem_cost: Cycles,
    /// Cost of one FFT butterfly (10 flops; 4.5 µs at 2.2 Mflops on the
    /// CM-5), in cycles. This is the paper's "cycle" unit for the FFT.
    pub butterfly_cost: Cycles,
    /// Bytes of payload per small message (CM-5: 16 bytes of data + 4 of
    /// address; the data payload is 16 bytes — two complex-double halves).
    pub msg_payload_bytes: u64,
    /// Data cache capacity in bytes (CM-5 SPARC node: 64 KB direct-mapped
    /// write-through), for the Figure 7 compute-rate model.
    pub cache_bytes: u64,
}

impl MachinePreset {
    /// The 128-processor CM-5 of §4.1.4, at 0.1 µs cycle granularity:
    /// `o = 2 µs → 20`, `L = 6 µs → 60`, `g = 4 µs → 40`.
    pub fn cm5() -> Self {
        MachinePreset {
            name: "CM-5 (Active Messages)",
            logp: LogP {
                l: 60,
                o: 20,
                g: 40,
                p: 128,
            },
            cycles_per_us: 10,
            local_elem_cost: 10, // 1 µs
            butterfly_cost: 45,  // 4.5 µs
            msg_payload_bytes: 16,
            cache_bytes: 64 * 1024,
        }
    }

    /// CM-5 with the vendor's synchronous send/receive layer instead of
    /// Active Messages. Table 1: `Tsnd + Trcv = 3600` 25 ns ticks = 90 µs,
    /// so `o ≈ 45 µs`; the network itself is unchanged.
    pub fn cm5_vendor() -> Self {
        MachinePreset {
            name: "CM-5 (vendor send/receive)",
            logp: LogP {
                l: 60,
                o: 450,
                g: 450,
                p: 128,
            },
            cycles_per_us: 10,
            local_elem_cost: 10,
            butterfly_cost: 45,
            msg_payload_bytes: 16,
            cache_bytes: 64 * 1024,
        }
    }

    /// nCUBE/2 with Active Messages. Table 1: `Tsnd + Trcv = 1000` cycles at
    /// 25 ns = 25 µs, so `o ≈ 12.5 µs`; hop delay 40 cycles × ~5 hops + 160
    /// serialization ⇒ `L ≈ 9 µs`. 1 cycle = 0.1 µs granularity.
    pub fn ncube2_am() -> Self {
        MachinePreset {
            name: "nCUBE/2 (Active Messages)",
            logp: LogP {
                l: 90,
                o: 125,
                g: 125,
                p: 1024,
            },
            cycles_per_us: 10,
            local_elem_cost: 10,
            butterfly_cost: 60,
            msg_payload_bytes: 16,
            cache_bytes: 0, // no data cache on the nCUBE/2 node
        }
    }

    /// A hypothetical near-future machine in the spirit of §4.1.5: the
    /// network interface has been integrated so `o ≪ g`, rewarding
    /// overlap of communication and computation.
    pub fn low_overhead_future() -> Self {
        MachinePreset {
            name: "future (o << g)",
            logp: LogP {
                l: 60,
                o: 2,
                g: 40,
                p: 128,
            },
            cycles_per_us: 10,
            local_elem_cost: 10,
            butterfly_cost: 45,
            msg_payload_bytes: 16,
            cache_bytes: 256 * 1024,
        }
    }

    /// All built-in presets.
    pub fn all() -> Vec<MachinePreset> {
        vec![
            Self::cm5(),
            Self::cm5_vendor(),
            Self::ncube2_am(),
            Self::low_overhead_future(),
        ]
    }

    /// Convert cycles to microseconds of real machine time.
    pub fn cycles_to_us(&self, c: Cycles) -> f64 {
        c as f64 / self.cycles_per_us as f64
    }

    /// Convert microseconds to (rounded) cycles.
    pub fn us_to_cycles(&self, us: f64) -> Cycles {
        (us * self.cycles_per_us as f64).round() as Cycles
    }

    /// Per-processor communication bandwidth in MB/s implied by `g` for
    /// this preset's message payload: one message per `g` cycles.
    pub fn peak_bandwidth_mb_s(&self) -> f64 {
        let g_us = self.logp.g as f64 / self.cycles_per_us as f64;
        self.msg_payload_bytes as f64 / g_us // bytes/µs == MB/s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cm5_matches_paper_calibration() {
        let m = MachinePreset::cm5();
        assert_eq!(m.cycles_to_us(m.logp.o), 2.0);
        assert_eq!(m.cycles_to_us(m.logp.l), 6.0);
        assert_eq!(m.cycles_to_us(m.logp.g), 4.0);
        assert_eq!(m.logp.p, 128);
        // §4.1.4: "the bisection bandwidth is 5 MB/s per processor for
        // messages of 16 bytes of data ... so we take g to be 4 µs" —
        // 16 B / 4 µs = 4 MB/s peak through the model's gap.
        assert_eq!(m.peak_bandwidth_mb_s(), 4.0);
    }

    #[test]
    fn unit_conversions_round_trip() {
        let m = MachinePreset::cm5();
        assert_eq!(m.us_to_cycles(2.0), 20);
        assert_eq!(m.us_to_cycles(4.5), 45);
        assert_eq!(m.cycles_to_us(45), 4.5);
    }

    #[test]
    fn vendor_layer_has_much_larger_overhead() {
        // Table 1: vendor send/receive costs ~27x the Active Message layer
        // on the CM-5 (3600 vs 132 ticks); our presets keep that ordering.
        assert!(MachinePreset::cm5_vendor().logp.o > 10 * MachinePreset::cm5().logp.o);
    }

    #[test]
    fn all_presets_have_valid_parameters() {
        for m in MachinePreset::all() {
            assert!(
                LogP::new(m.logp.l, m.logp.o, m.logp.g, m.logp.p).is_ok(),
                "{}",
                m.name
            );
            assert!(m.cycles_per_us > 0);
        }
    }
}
