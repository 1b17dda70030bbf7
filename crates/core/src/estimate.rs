//! The parameter-estimation vocabulary: measured values with
//! uncertainty.
//!
//! The paper's methodology is a loop — *measure* a machine to obtain
//! (L, o, g, P), then design algorithms against the measured parameters
//! (§4.1.4 calibrates the CM-5 to `o = 2 µs, L = 6 µs, g = 4 µs`; §7
//! calls for "refining the process of parameter determination"). Every
//! estimation path in this workspace — the datasheet arithmetic in
//! `logp-net::timing`, the bisection calibration of
//! `logp-net::bisection` and the black-box calibrator in `logp-calib` —
//! reports its
//! results as [`ParamEstimate`]s, so downstream code consumes one
//! vocabulary regardless of where a number came from.

use crate::params::{Cycles, LogP, ParamError};

/// One estimated model parameter: a point value with a confidence
/// half-width and a fit residual.
///
/// * `value` — the point estimate, in cycles (or whatever unit the
///   producer documents);
/// * `ci` — a half-width around `value` within which the producer
///   believes the true parameter lies (`0` for values that are exact by
///   construction, e.g. datasheet constants);
/// * `residual` — how badly the measurements disagree with the fitted
///   value (median absolute residual for regression-based estimates,
///   `0` for closed-form ones). A small `ci` with a large `residual`
///   means the experiment was precise but the model did not fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamEstimate {
    pub value: f64,
    pub ci: f64,
    pub residual: f64,
}

impl ParamEstimate {
    /// An estimate with explicit uncertainty.
    pub fn new(value: f64, ci: f64, residual: f64) -> Self {
        ParamEstimate {
            value,
            ci: ci.abs(),
            residual: residual.abs(),
        }
    }

    /// A value exact by construction (datasheet constant, closed form).
    pub fn exact(value: f64) -> Self {
        ParamEstimate {
            value,
            ci: 0.0,
            residual: 0.0,
        }
    }

    /// The estimate rounded to whole cycles (negative values clamp to 0).
    pub fn rounded(&self) -> Cycles {
        self.value.max(0.0).round() as Cycles
    }

    /// Whether the estimate recovers `truth` cycle-exactly: it rounds to
    /// `truth` and the measurements actually support that value
    /// (`ci` and `residual` both under half a cycle).
    pub fn recovers_exactly(&self, truth: Cycles) -> bool {
        self.rounded() == truth && self.ci < 0.5 && self.residual < 0.5
    }

    /// Relative error against a known true value (absolute error when the
    /// truth is zero).
    pub fn relative_error(&self, truth: f64) -> f64 {
        if truth == 0.0 {
            self.value.abs()
        } else {
            (self.value - truth).abs() / truth.abs()
        }
    }

    /// Whether the estimate lands within `rel_tol` of `truth`.
    pub fn within(&self, truth: f64, rel_tol: f64) -> bool {
        self.relative_error(truth) <= rel_tol
    }

    /// Map the point value and widths through a linear scale (e.g. cycle
    /// granularity or unit conversion).
    pub fn scaled(&self, factor: f64) -> Self {
        ParamEstimate {
            value: self.value * factor,
            ci: self.ci * factor.abs(),
            residual: self.residual * factor.abs(),
        }
    }
}

impl std::fmt::Display for ParamEstimate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.ci == 0.0 && self.residual == 0.0 {
            write!(f, "{:.1}", self.value)
        } else {
            write!(f, "{:.1}±{:.1}", self.value, self.ci)
        }
    }
}

/// A full estimated LogP quadruple: `L`, `o`, `g` as [`ParamEstimate`]s
/// plus the (exactly known) processor count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogPEstimate {
    pub l: ParamEstimate,
    pub o: ParamEstimate,
    pub g: ParamEstimate,
    pub p: u32,
}

impl LogPEstimate {
    /// Round the estimates to a validated integer-cycle [`LogP`].
    /// `L` and `g` are clamped to the model's minimum of one cycle
    /// (`o = 0` stays legal, as in the paper's footnote 3).
    pub fn to_logp(&self) -> Result<LogP, ParamError> {
        LogP::new(
            self.l.rounded().max(1),
            self.o.rounded(),
            self.g.rounded().max(1),
            self.p,
        )
    }

    /// Whether every parameter recovers `truth` cycle-exactly (the
    /// round-trip oracle: calibrating a simulated machine must return
    /// the configured quadruple).
    pub fn recovers_exactly(&self, truth: &LogP) -> bool {
        self.l.recovers_exactly(truth.l)
            && self.o.recovers_exactly(truth.o)
            && self.g.recovers_exactly(truth.g)
            && self.p == truth.p
    }

    /// Worst relative error over (L, o, g) against a known machine.
    pub fn worst_relative_error(&self, truth: &LogP) -> f64 {
        [
            self.l.relative_error(truth.l as f64),
            self.o.relative_error(truth.o as f64),
            self.g.relative_error(truth.g as f64),
        ]
        .into_iter()
        .fold(0.0, f64::max)
    }
}

impl std::fmt::Display for LogPEstimate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LogP(L={}, o={}, g={}, P={})",
            self.l, self.o, self.g, self.p
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_estimates_round_trip() {
        let e = ParamEstimate::exact(40.0);
        assert_eq!(e.rounded(), 40);
        assert!(e.recovers_exactly(40));
        assert!(!e.recovers_exactly(41));
        assert_eq!(e.to_string(), "40.0");
    }

    #[test]
    fn uncertainty_blocks_exact_recovery() {
        let wide = ParamEstimate::new(40.0, 3.0, 0.0);
        assert_eq!(wide.rounded(), 40);
        assert!(!wide.recovers_exactly(40), "ci too wide to claim exact");
        let misfit = ParamEstimate::new(40.0, 0.1, 2.0);
        assert!(!misfit.recovers_exactly(40), "residual betrays a misfit");
        assert_eq!(wide.to_string(), "40.0±3.0");
    }

    #[test]
    fn relative_error_handles_zero_truth() {
        assert_eq!(ParamEstimate::exact(0.25).relative_error(0.0), 0.25);
        assert_eq!(ParamEstimate::exact(44.0).relative_error(40.0), 0.1);
        assert!(ParamEstimate::exact(44.0).within(40.0, 0.1));
        assert!(!ParamEstimate::exact(44.1).within(40.0, 0.1));
    }

    #[test]
    fn scaling_maps_value_and_widths() {
        let e = ParamEstimate::new(4.0, 0.5, 0.25).scaled(10.0);
        assert_eq!(e, ParamEstimate::new(40.0, 5.0, 2.5));
    }

    #[test]
    fn logp_estimate_rounds_to_valid_model() {
        let est = LogPEstimate {
            l: ParamEstimate::exact(59.7),
            o: ParamEstimate::exact(0.2),
            g: ParamEstimate::exact(40.2),
            p: 128,
        };
        let m = est.to_logp().expect("valid");
        assert_eq!((m.l, m.o, m.g, m.p), (60, 0, 40, 128));
        // Degenerate estimates clamp to the model's minimums.
        let tiny = LogPEstimate {
            l: ParamEstimate::exact(0.1),
            o: ParamEstimate::exact(0.0),
            g: ParamEstimate::exact(0.3),
            p: 2,
        };
        let m = tiny.to_logp().expect("clamped to validity");
        assert_eq!((m.l, m.g), (1, 1));
    }

    #[test]
    fn round_trip_oracle_predicate() {
        let truth = LogP::new(60, 20, 40, 128).unwrap();
        let est = LogPEstimate {
            l: ParamEstimate::new(60.0, 0.0, 0.0),
            o: ParamEstimate::new(20.2, 0.3, 0.1),
            g: ParamEstimate::new(40.0, 0.0, 0.0),
            p: 128,
        };
        assert!(est.recovers_exactly(&truth));
        assert!(est.worst_relative_error(&truth) < 0.02);
        let wrong_p = LogPEstimate { p: 64, ..est };
        assert!(!wrong_p.recovers_exactly(&truth));
    }
}
