//! Unloaded message time and the Table 1 machine database (§5.2).
//!
//! `T(M, H) = Tsnd + ⌈M/w⌉ + H·r + Trcv` — send overhead, channel
//! serialization of an M-bit message over w-bit links, H hops of router
//! delay r, receive overhead; all in machine cycles.
//!
//! Table 1 lists seven machine rows (five vendor/research machines plus
//! the two Active-Message rows); we embed the published constants and
//! regenerate the `T(M=160)` column exactly.

use logp_core::hier::{HierError, Hierarchy};
use logp_core::{LogPEstimate, ParamEstimate};

/// One machine's network timing constants (one Table 1 row).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineTiming {
    pub machine: &'static str,
    pub network: &'static str,
    /// Cycle time in nanoseconds.
    pub cycle_ns: f64,
    /// Channel width in bits.
    pub w: u64,
    /// Combined send + receive overhead, cycles.
    pub tsnd_plus_trcv: u64,
    /// Per-hop router delay, cycles.
    pub r: u64,
    /// Average route length at 1024 processors.
    pub avg_h_1024: f64,
}

impl MachineTiming {
    /// Channel occupancy of an `m_bits` message: `⌈M/w⌉` cycles. This is
    /// the serialization-limited per-message interval — the datasheet's
    /// lower bound on `g`.
    pub fn serialization_cycles(&self, m_bits: u64) -> u64 {
        m_bits.div_ceil(self.w)
    }

    /// Unloaded transmission time of an `m_bits` message over `h` hops,
    /// in cycles.
    pub fn unloaded_time(&self, m_bits: u64, h: f64) -> f64 {
        self.tsnd_plus_trcv as f64 + self.serialization_cycles(m_bits) as f64 + h * self.r as f64
    }

    /// The Table 1 column: `T(M=160)` at the 1024-processor average
    /// distance, truncated to whole cycles as printed in the paper.
    pub fn t_160(&self) -> u64 {
        self.unloaded_time(160, self.avg_h_1024) as u64
    }

    /// Fraction of the unloaded time spent in the endpoints (send +
    /// receive overhead) rather than the network.
    pub fn overhead_fraction(&self, m_bits: u64) -> f64 {
        self.tsnd_plus_trcv as f64 / self.unloaded_time(m_bits, self.avg_h_1024)
    }

    /// Suggested LogP parameters per §5.2: `o = (Tsnd+Trcv)/2`,
    /// `L = H·r + ⌈M/w⌉` with H the max route distance approximated by
    /// the average here.
    pub fn suggested_logp_o(&self) -> f64 {
        self.tsnd_plus_trcv as f64 / 2.0
    }

    pub fn suggested_logp_l(&self, m_bits: u64) -> f64 {
        self.avg_h_1024 * self.r as f64 + self.serialization_cycles(m_bits) as f64
    }

    /// [`suggested_logp_o`](Self::suggested_logp_o) in the workspace-wide
    /// estimation vocabulary. Datasheet arithmetic is exact by
    /// construction, so the estimate carries zero `ci`/`residual`.
    pub fn o_estimate(&self) -> ParamEstimate {
        ParamEstimate::exact(self.suggested_logp_o())
    }

    /// [`suggested_logp_l`](Self::suggested_logp_l) as a [`ParamEstimate`].
    pub fn l_estimate(&self, m_bits: u64) -> ParamEstimate {
        ParamEstimate::exact(self.suggested_logp_l(m_bits))
    }

    /// The serialization-limited gap `⌈M/w⌉` as a [`ParamEstimate`]. A
    /// real machine's `g` is the *larger* of this channel occupancy and
    /// the endpoint overhead; the packet-level calibration in `logp-calib`
    /// measures which one binds.
    pub fn g_estimate(&self, m_bits: u64) -> ParamEstimate {
        ParamEstimate::exact(self.serialization_cycles(m_bits) as f64)
    }

    /// The full datasheet-derived quadruple as a [`LogPEstimate`], for an
    /// `m_bits` message on a `p`-processor configuration.
    pub fn logp_estimate(&self, m_bits: u64, p: u32) -> LogPEstimate {
        LogPEstimate {
            l: self.l_estimate(m_bits),
            o: self.o_estimate(),
            g: self.g_estimate(m_bits),
            p,
        }
    }

    /// Datasheet-derived *hierarchical* machine: one level per
    /// `(hops, arity)` pair, innermost first. Endpoint costs (`o`, the
    /// serialization-limited `g`) come from this row's constants at
    /// every level — the NIC is the NIC wherever the message goes —
    /// while each level's `L` uses its own route distance,
    /// `L_k = hops_k · r + ⌈M/w⌉`. This is the datasheet analogue of
    /// the measured per-level structure `logp-calib` recovers by
    /// clustered probing.
    ///
    /// ```
    /// use logp_net::table1;
    /// let cm5 = &table1()[1]; // CM-5 row
    /// // 16-rank nodes one hop apart, 8 nodes across a 6-hop fabric.
    /// let h = cm5.hierarchy_estimate(160, &[(1.0, 16), (6.0, 8)]).unwrap();
    /// assert_eq!(h.p(), 128);
    /// assert!(h.level(1).l > h.level(0).l);
    /// assert_eq!(h.level(0).o, h.level(1).o);
    /// ```
    pub fn hierarchy_estimate(
        &self,
        m_bits: u64,
        levels: &[(f64, u32)],
    ) -> Result<Hierarchy, HierError> {
        let ests: Vec<(LogPEstimate, u32)> = levels
            .iter()
            .map(|&(hops, arity)| {
                let l = ParamEstimate::exact(
                    hops * self.r as f64 + self.serialization_cycles(m_bits) as f64,
                );
                (
                    LogPEstimate {
                        l,
                        o: self.o_estimate(),
                        g: self.g_estimate(m_bits),
                        p: arity,
                    },
                    arity,
                )
            })
            .collect();
        Hierarchy::from_estimates(&ests)
    }
}

/// The seven rows of Table 1, with the paper's published constants.
///
/// ```
/// use logp_net::table1;
/// let t160: Vec<u64> = table1().iter().map(|r| r.t_160()).collect();
/// assert_eq!(t160, vec![6760, 3714, 53, 60, 30, 1360, 246]); // the paper's column
/// ```
pub fn table1() -> Vec<MachineTiming> {
    vec![
        MachineTiming {
            machine: "nCUBE/2",
            network: "Hypercube",
            cycle_ns: 25.0,
            w: 1,
            tsnd_plus_trcv: 6400,
            r: 40,
            avg_h_1024: 5.0,
        },
        MachineTiming {
            machine: "CM-5",
            network: "Fattree",
            cycle_ns: 25.0,
            w: 4,
            tsnd_plus_trcv: 3600,
            r: 8,
            avg_h_1024: 9.3,
        },
        MachineTiming {
            machine: "Dash",
            network: "Torus",
            cycle_ns: 30.0,
            w: 16,
            tsnd_plus_trcv: 30,
            r: 2,
            avg_h_1024: 6.8,
        },
        MachineTiming {
            machine: "J-Machine",
            network: "3d Mesh",
            cycle_ns: 31.0,
            w: 8,
            tsnd_plus_trcv: 16,
            r: 2,
            avg_h_1024: 12.1,
        },
        MachineTiming {
            machine: "Monsoon",
            network: "Butterfly",
            cycle_ns: 20.0,
            w: 16,
            tsnd_plus_trcv: 10,
            r: 2,
            avg_h_1024: 5.0,
        },
        MachineTiming {
            machine: "nCUBE/2 (AM)",
            network: "Hypercube",
            cycle_ns: 25.0,
            w: 1,
            tsnd_plus_trcv: 1000,
            r: 40,
            avg_h_1024: 5.0,
        },
        MachineTiming {
            machine: "CM-5 (AM)",
            network: "Fattree",
            cycle_ns: 25.0,
            w: 4,
            tsnd_plus_trcv: 132,
            r: 8,
            avg_h_1024: 9.3,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden test: every `T(M=160)` value of Table 1.
    #[test]
    fn table1_t160_matches_paper() {
        let expect = [6760u64, 3714, 53, 60, 30, 1360, 246];
        for (row, want) in table1().iter().zip(expect.iter()) {
            assert_eq!(row.t_160(), *want, "{}: T(160) mismatch", row.machine);
        }
    }

    #[test]
    fn commercial_layers_are_overhead_dominated() {
        // §5.2: "message communication time through a lightly loaded
        // network is dominated by the send and receive overheads".
        let rows = table1();
        let ncube = &rows[0];
        let cm5 = &rows[1];
        assert!(ncube.overhead_fraction(160) > 0.9);
        assert!(cm5.overhead_fraction(160) > 0.9);
    }

    #[test]
    fn research_machines_balance_endpoint_and_network() {
        let rows = table1();
        for m in &rows[2..5] {
            let f = m.overhead_fraction(160);
            assert!(
                (0.2..0.7).contains(&f),
                "{}: overhead fraction {f}",
                m.machine
            );
        }
    }

    #[test]
    fn active_messages_reduce_overhead_dramatically() {
        let rows = table1();
        // nCUBE/2: 6400 → 1000; CM-5: 3600 → 132.
        assert!(rows[0].tsnd_plus_trcv / rows[5].tsnd_plus_trcv >= 6);
        assert!(rows[1].tsnd_plus_trcv / rows[6].tsnd_plus_trcv >= 27);
        assert!(rows[5].t_160() < rows[0].t_160() / 4);
        assert!(rows[6].t_160() < rows[1].t_160() / 15);
    }

    #[test]
    fn serialization_matters_for_narrow_channels() {
        // The nCUBE/2's 1-bit channels serialize 160 bits in 160 cycles;
        // Dash's 16-bit channels in 10.
        let rows = table1();
        assert_eq!(
            rows[0].unloaded_time(160, 0.0) as u64 - rows[0].tsnd_plus_trcv,
            160
        );
        assert_eq!(
            rows[2].unloaded_time(160, 0.0) as u64 - rows[2].tsnd_plus_trcv,
            10
        );
    }

    #[test]
    fn suggested_logp_parameters_are_consistent() {
        let cm5_am = &table1()[6];
        assert_eq!(cm5_am.suggested_logp_o(), 66.0);
        // L = 9.3 · 8 + 40 = 114.4 cycles ≈ 2.9 µs at 25 ns — the same
        // order as the paper's L = 6 µs calibration under load.
        let l = cm5_am.suggested_logp_l(160);
        assert!((l - 114.4).abs() < 1e-9);
    }

    #[test]
    fn estimates_forward_the_datasheet_arithmetic() {
        let monsoon = &table1()[4];
        let est = monsoon.logp_estimate(160, 256);
        // Exact by construction: zero uncertainty, values equal to the
        // plain free functions.
        assert_eq!(est.o, ParamEstimate::exact(monsoon.suggested_logp_o()));
        assert_eq!(est.l, ParamEstimate::exact(monsoon.suggested_logp_l(160)));
        assert_eq!(est.g.value, 10.0); // ⌈160/16⌉
        assert_eq!(est.p, 256);
        assert!(est.o.recovers_exactly(5));
        let m = est.to_logp().expect("valid model");
        assert_eq!((m.o, m.g, m.p), (5, 10, 256));
    }

    #[test]
    fn message_size_rounds_up_to_channel_width() {
        let dash = &table1()[2];
        assert_eq!(dash.unloaded_time(1, 0.0), 30.0 + 1.0);
        assert_eq!(dash.unloaded_time(17, 0.0), 30.0 + 2.0);
    }
}
