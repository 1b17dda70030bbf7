//! Figure 2: "Performance of state-of-the-art microprocessors over time."
//!
//! The figure plots SPEC performance (relative to the VAX-11/780) of six
//! machines, 1987–1992, and observes that "the floating point SPEC
//! benchmarks improved at about 97% per year since 1987, and integer SPEC
//! benchmarks improved at about 54% per year". We embed the figure's data
//! points and reproduce the growth-rate fit.

/// One machine from Figure 2.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroprocessorSample {
    pub name: &'static str,
    pub year: u32,
    /// Integer SPEC performance, ×VAX-11/780.
    pub spec_int: f64,
    /// Floating-point SPEC performance, ×VAX-11/780.
    pub spec_fp: f64,
}

/// The six machines named in Figure 2, with performance read off the
/// figure's axes (values are approximate by nature of the source).
pub fn figure2_data() -> Vec<MicroprocessorSample> {
    vec![
        MicroprocessorSample {
            name: "Sun 4/260",
            year: 1987,
            spec_int: 9.0,
            spec_fp: 6.0,
        },
        MicroprocessorSample {
            name: "MIPS M/120",
            year: 1988,
            spec_int: 13.0,
            spec_fp: 10.0,
        },
        MicroprocessorSample {
            name: "MIPS M2000",
            year: 1989,
            spec_int: 18.0,
            spec_fp: 19.0,
        },
        MicroprocessorSample {
            name: "IBM RS6000/540",
            year: 1990,
            spec_int: 24.0,
            spec_fp: 44.0,
        },
        MicroprocessorSample {
            name: "HP 9000/750",
            year: 1991,
            spec_int: 51.0,
            spec_fp: 75.0,
        },
        MicroprocessorSample {
            name: "DEC alpha",
            year: 1992,
            spec_int: 80.0,
            spec_fp: 140.0,
        },
    ]
}

/// Result of fitting `perf = a · (1 + rate)^(year - year0)` by least
/// squares on log-performance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrowthFit {
    /// Annual improvement rate (0.97 ≙ 97%/year).
    pub annual_rate: f64,
    /// Fitted performance at the first year.
    pub base: f64,
    /// First year of the data.
    pub year0: u32,
}

impl GrowthFit {
    /// Predicted performance in `year`.
    pub fn predict(&self, year: u32) -> f64 {
        self.base * (1.0 + self.annual_rate).powi(year as i32 - self.year0 as i32)
    }
}

/// Least-squares exponential fit over `(year, value)` pairs.
pub fn fit_growth(points: &[(u32, f64)]) -> GrowthFit {
    assert!(points.len() >= 2, "need at least two points to fit a rate");
    let year0 = points.iter().map(|p| p.0).min().expect("nonempty");
    let n = points.len() as f64;
    let xs: Vec<f64> = points.iter().map(|p| (p.0 - year0) as f64).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.1.ln()).collect();
    let sx: f64 = xs.iter().sum();
    let sy: f64 = ys.iter().sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| x * y).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let intercept = (sy - slope * sx) / n;
    GrowthFit {
        annual_rate: slope.exp() - 1.0,
        base: intercept.exp(),
        year0,
    }
}

/// Fit the integer series of Figure 2.
pub fn integer_growth() -> GrowthFit {
    let pts: Vec<(u32, f64)> = figure2_data()
        .iter()
        .map(|s| (s.year, s.spec_int))
        .collect();
    fit_growth(&pts)
}

/// Fit the floating-point series of Figure 2.
pub fn fp_growth() -> GrowthFit {
    let pts: Vec<(u32, f64)> = figure2_data().iter().map(|s| (s.year, s.spec_fp)).collect();
    fit_growth(&pts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp_growth_is_about_97_percent_per_year() {
        let fit = fp_growth();
        assert!(
            (0.85..=1.10).contains(&fit.annual_rate),
            "paper reports ~97%/yr FP growth, fit gave {:.0}%",
            fit.annual_rate * 100.0
        );
    }

    #[test]
    fn integer_growth_is_about_54_percent_per_year() {
        let fit = integer_growth();
        assert!(
            (0.45..=0.65).contains(&fit.annual_rate),
            "paper reports ~54%/yr integer growth, fit gave {:.0}%",
            fit.annual_rate * 100.0
        );
    }

    #[test]
    fn fp_outpaces_integer() {
        assert!(fp_growth().annual_rate > integer_growth().annual_rate);
    }

    #[test]
    fn exact_exponential_is_recovered() {
        // perf doubling every year from 4.0.
        let pts: Vec<(u32, f64)> = (0..6)
            .map(|i| (1990 + i, 4.0 * 2f64.powi(i as i32)))
            .collect();
        let fit = fit_growth(&pts);
        assert!((fit.annual_rate - 1.0).abs() < 1e-9);
        assert!((fit.base - 4.0).abs() < 1e-9);
        assert!((fit.predict(1995) - 128.0).abs() < 1e-6);
    }

    #[test]
    fn data_is_chronological_and_positive() {
        let data = figure2_data();
        for w in data.windows(2) {
            assert!(w[0].year < w[1].year);
        }
        for s in &data {
            assert!(s.spec_int > 0.0 && s.spec_fp > 0.0);
        }
    }
}
