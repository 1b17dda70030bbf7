//! The calibration pipeline: from timed experiments to a
//! [`LogPEstimate`].
//!
//! The derivation chain (§4.1.4's methodology, made explicit):
//!
//! 1. **interval** — flood slope = `max(g, o)`, the steady-state
//!    per-message cost;
//! 2. **RTT** — ping-pong slope = `2(2o + L)` per exchange (or
//!    `max(RTT, g)` on a gap-limited machine, which the pipeline
//!    detects by the exchange collapsing onto the interval);
//! 3. **o** — spaced-send slope minus the spacing, with the spacing
//!    chosen above any plausible gap (`⌈max(RTT, interval)⌉ + 1`);
//! 4. **L** — `RTT/2 − 2o`, with uncertainty propagated linearly;
//! 5. **g** — the interval itself. When the interval exceeds `o` the
//!    gap is pinned exactly; when `interval ≈ o` the machine is
//!    overhead-bound and `g` is only *bounded above* by the interval
//!    (any `g ≤ o` produces identical endpoint behavior), which the
//!    pipeline reports as a full-width confidence band;
//! 6. **P** — read off the machine, the one parameter never benchmarked.

use crate::experiments::{flood_series, ping_pong_series, spaced_series};
use crate::fit::theil_sen;
use crate::machine::Machine;
use logp_core::{LogP, LogPEstimate, ParamEstimate};

/// Experiment plan: which sizes to run and between which processors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CalibConfig {
    /// Exchange/message counts for the series fits (at least two).
    pub ks: Vec<u64>,
    /// Probe source processor.
    pub src: u32,
    /// Probe destination processor.
    pub dst: u32,
}

impl Default for CalibConfig {
    fn default() -> Self {
        CalibConfig {
            ks: vec![8, 16, 32, 64, 128],
            src: 0,
            dst: 1,
        }
    }
}

impl CalibConfig {
    /// A short plan for CI and smoke tests: fewer, smaller series.
    pub fn quick() -> Self {
        CalibConfig {
            ks: vec![4, 8, 16, 32],
            ..Self::default()
        }
    }

    /// Probe between specific processors (for network backends where
    /// endpoint placement decides the route under test).
    pub fn with_endpoints(mut self, src: u32, dst: u32) -> Self {
        self.src = src;
        self.dst = dst;
        self
    }
}

/// The calibrator's full report: raw measured slopes, the derived
/// parameter estimates, and the regime flags that qualify them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Measured round trip per exchange (`2(2o+L)`, or `g` if
    /// gap-limited).
    pub rtt: ParamEstimate,
    /// Measured steady-state per-message interval (`max(g, o)`).
    pub interval: ParamEstimate,
    /// The derived (L, o, g, P) estimates.
    pub logp: LogPEstimate,
    /// Capacity bound `⌈L/g⌉` of the rounded model.
    pub capacity: u64,
    /// The ping-pong was gated by the injection gap (`g ≳ RTT`): `L`
    /// cannot be separated from `g` and carries a full-width band.
    pub gap_limited: bool,
    /// The send interval equals the overhead (`o ≥ g`): `g` is only an
    /// upper bound — any smaller gap is observationally identical.
    pub overhead_bound: bool,
}

impl Calibration {
    /// Worst relative error of what was measured — (RTT, o, interval, L)
    /// — against a machine whose parameters are known.
    pub fn worst_relative_error(&self, m: &LogP) -> f64 {
        [
            self.rtt.relative_error(2.0 * m.point_to_point() as f64),
            self.logp.o.relative_error(m.o as f64),
            self.interval.relative_error(m.send_interval() as f64),
            self.logp.l.relative_error(m.l as f64),
        ]
        .into_iter()
        .fold(0.0, f64::max)
    }

    /// The rounded integer-cycle machine the estimates describe.
    pub fn model(&self) -> LogP {
        self.logp
            .to_logp()
            .expect("calibration clamps estimates into validity")
    }
}

/// Run the full pipeline against a black-box machine.
pub fn calibrate(m: &mut dyn Machine, cfg: &CalibConfig) -> Calibration {
    assert!(cfg.ks.len() >= 2, "series fits need at least two sizes");
    let p = m.procs();
    assert!(
        cfg.src < p && cfg.dst < p && cfg.src != cfg.dst,
        "probe endpoints must be two distinct processors"
    );

    let interval = theil_sen(&flood_series(m, cfg.src, cfg.dst, &cfg.ks, 1)).slope_estimate();
    let rtt = theil_sen(&ping_pong_series(m, cfg.src, cfg.dst, &cfg.ks)).slope_estimate();
    let gap_limited = rtt.value <= interval.value + 0.5;

    // Spacing strictly above any plausible gap: the gap is at most the
    // send interval, and at most the measured exchange time.
    let spacing = rtt.value.max(interval.value).ceil() as u64 + 1;
    let spaced = theil_sen(&spaced_series(m, cfg.src, cfg.dst, &cfg.ks, spacing)).slope_estimate();
    let o = ParamEstimate::new(spaced.value - spacing as f64, spaced.ci, spaced.residual);

    let l_value = rtt.value / 2.0 - 2.0 * o.value;
    let l = if gap_limited {
        // The exchange measured the gap, not the flight time: all we
        // know is L ≤ RTT/2 − 2o. Report the bound with itself as the
        // uncertainty.
        ParamEstimate::new(l_value, l_value.abs().max(1.0), rtt.residual)
    } else {
        ParamEstimate::new(
            l_value,
            rtt.ci / 2.0 + 2.0 * o.ci,
            rtt.residual / 2.0 + 2.0 * o.residual,
        )
    };

    let overhead_bound = interval.value <= o.value + 0.5;
    let g = if overhead_bound {
        // interval = max(g, o) = o: the gap hides below the overhead,
        // so the value is an upper bound with a band down to zero.
        ParamEstimate::new(interval.value, interval.value, interval.residual)
    } else {
        interval
    };

    let logp = LogPEstimate { l, o, g, p };
    let capacity = logp
        .to_logp()
        .expect("calibration clamps estimates into validity")
        .capacity();
    Calibration {
        rtt,
        interval,
        logp,
        capacity,
        gap_limited,
        overhead_bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::script::{Op, Script};

    /// An ideal closed-form LogP endpoint: scripts are costed exactly by
    /// the model laws, with a constant startup offset to prove slope
    /// fits ignore intercepts. Independent of the simulator — this pins
    /// the pipeline's arithmetic, the sim backend pins the engine.
    struct IdealLogP {
        m: LogP,
        startup: u64,
    }

    impl Machine for IdealLogP {
        fn procs(&self) -> u32 {
            self.m.p
        }
        fn run(&mut self, programs: &[(u32, Script)]) -> Vec<u64> {
            programs
                .iter()
                .map(|(_, s)| {
                    let sends = s.sends();
                    let recvs = s.recvs();
                    let compute: u64 = s
                        .ops
                        .iter()
                        .map(|op| match op {
                            Op::Compute(c) => *c,
                            _ => 0,
                        })
                        .sum();
                    // Ping side / spaced sender: sends and computes
                    // serialize with the replies; flood sink: paced by
                    // the peer's interval.
                    let t = if sends > 0 && recvs > 0 && compute == 0 {
                        // ping: k round trips
                        sends * 2 * self.m.point_to_point()
                    } else if sends > 0 && compute > 0 {
                        // spaced sender: k·(o + spacing), spacing > g
                        sends * self.m.o + compute
                    } else if recvs > 0 {
                        // sink: k deliveries at the send interval
                        recvs * self.m.send_interval() + self.m.point_to_point()
                    } else {
                        sends * self.m.send_interval()
                    };
                    self.startup + t
                })
                .collect()
        }
    }

    #[test]
    fn pipeline_recovers_an_ideal_machine_exactly() {
        let truth = LogP::new(60, 20, 40, 8).unwrap();
        let mut m = IdealLogP {
            m: truth,
            startup: 137,
        };
        let cal = calibrate(&mut m, &CalibConfig::default());
        assert!(!cal.gap_limited);
        assert!(!cal.overhead_bound);
        assert!(cal.logp.recovers_exactly(&truth), "{:?}", cal.logp);
        assert_eq!(cal.model(), truth);
        assert_eq!(cal.capacity, 2);
    }

    #[test]
    fn overhead_bound_machines_report_g_as_an_upper_bound() {
        let truth = LogP::new(50, 30, 4, 2).unwrap(); // o ≫ g
        let mut m = IdealLogP {
            m: truth,
            startup: 0,
        };
        let cal = calibrate(&mut m, &CalibConfig::quick());
        assert!(cal.overhead_bound);
        // The reported g is the observable bound max(g, o) = o, with a
        // band wide enough to contain the true (hidden) gap.
        assert_eq!(cal.logp.g.value, 30.0);
        assert!(cal.logp.g.value - cal.logp.g.ci <= truth.g as f64);
        // o and L are still exact.
        assert!(cal.logp.o.recovers_exactly(truth.o));
        assert!(cal.logp.l.recovers_exactly(truth.l));
    }

    #[test]
    fn endpoint_validation_rejects_bad_probes() {
        let truth = LogP::new(6, 2, 4, 2).unwrap();
        let mut m = IdealLogP {
            m: truth,
            startup: 0,
        };
        let bad = CalibConfig::default().with_endpoints(0, 0);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            calibrate(&mut m, &bad)
        }))
        .is_err());
    }
}
