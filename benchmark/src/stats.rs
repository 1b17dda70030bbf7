//! Order statistics for small samples. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the default "exclusive" method),
//! because that is the rule the benchmark's acceptance check applies to
//! this harness's own output; using another interpolation here would make
//! `bench.run_spread` disagree with the number the gate computes.

/// Summary of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Inter-quartile range as a share of the median (0 when the median
    /// is 0, so an all-zero count does not divide by zero).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `n`-quantile cut point `i` of sorted data, exclusive method.
fn cut(data: &[f64], i: usize, n: usize) -> f64 {
    let ld = data.len();
    if ld == 1 {
        return data[0];
    }
    let m = ld + 1;
    let j = (i * m / n).clamp(1, ld - 1);
    let delta = (i * m) as f64 - (j * n) as f64;
    (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
}

/// Min, quartiles and max of a non-empty sample.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summarize needs at least one sample");
    let v = sorted(values);
    Summary {
        n: v.len(),
        min: v[0],
        q1: cut(&v, 1, 4),
        median: cut(&v, 2, 4),
        q3: cut(&v, 3, 4),
        max: v[v.len() - 1],
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Nearest-rank percentile (`p` in 0..=100) of a non-empty sample: the
/// smallest value with at least `p` % of the sample at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile needs at least one sample");
    let v = sorted(values);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // >>> statistics.quantiles([1, 2, 3, 4, 5], n=4)  -> [1.5, 3.0, 4.5]
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        assert_eq!((s.min, s.max, s.n), (1.0, 5.0, 5));
        // >>> statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) -> [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // >>> statistics.quantiles([10, 20], n=4) -> [7.5, 15.0, 22.5]
        let s = summarize(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
        // >>> statistics.quantiles([3, 1, 2], n=4) -> [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn single_sample_is_its_own_summary() {
        let s = summarize(&[7.0]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (7.0, 7.0, 7.0, 7.0, 7.0)
        );
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.spread(), 1.0);
        assert_eq!(summarize(&[0.0, 0.0, 0.0]).spread(), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[4.0, 9.0], 95.0), 9.0);
        assert_eq!(median(&[4.0, 9.0]), 6.5);
    }
}
