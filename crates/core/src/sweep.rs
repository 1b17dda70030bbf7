//! Parameter-space exploration (§7): "the model defines a four dimensional
//! parameter space of potential machines... The model provides a new
//! framework for classifying algorithms and identifying which are most
//! attractive in various regions of the machine parameter space."
//!
//! This module provides grid sweeps over `(L, o, g, P)` and a crossover
//! finder that locates, along one parameter axis, where one algorithm
//! overtakes another.

use crate::params::{Cycles, LogP};

/// An inclusive geometric or arithmetic range of parameter values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Axis {
    values: Vec<u64>,
}

impl Axis {
    /// Explicit list of values.
    pub fn list(values: impl Into<Vec<u64>>) -> Self {
        Axis {
            values: values.into(),
        }
    }

    /// `start, start+step, …, <= end`.
    pub fn linear(start: u64, end: u64, step: u64) -> Self {
        assert!(step > 0, "step must be positive");
        Axis {
            values: (start..=end).step_by(step as usize).collect(),
        }
    }

    /// `start, start·factor, …, <= end`.
    pub fn geometric(start: u64, end: u64, factor: u64) -> Self {
        assert!(factor > 1, "factor must exceed 1");
        assert!(start > 0, "geometric axis must start above zero");
        let mut values = Vec::new();
        let mut v = start;
        while v <= end {
            values.push(v);
            v = v.saturating_mul(factor);
        }
        Axis { values }
    }

    /// A single fixed value.
    pub fn fixed(v: u64) -> Self {
        Axis { values: vec![v] }
    }

    pub fn values(&self) -> &[u64] {
        &self.values
    }
}

/// A grid over the four LogP parameters.
#[derive(Debug, Clone)]
pub struct Grid {
    pub l: Axis,
    pub o: Axis,
    pub g: Axis,
    pub p: Axis,
}

impl Grid {
    /// Enumerate all valid parameter combinations in row-major
    /// (L-major) order, skipping combinations that fail validation.
    pub fn machines(&self) -> Vec<LogP> {
        let mut out = Vec::new();
        for &l in self.l.values() {
            for &o in self.o.values() {
                for &g in self.g.values() {
                    for &p in self.p.values() {
                        if let Ok(m) = LogP::new(l, o, g, p as u32) {
                            out.push(m);
                        }
                    }
                }
            }
        }
        out
    }
}

/// One sample of a sweep: the machine and the metric values of each
/// competing algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    pub machine: LogP,
    pub metrics: Vec<(&'static str, Cycles)>,
}

impl SweepPoint {
    /// Name of the algorithm with the smallest metric (ties go to the
    /// earliest listed).
    pub fn winner(&self) -> &'static str {
        self.metrics
            .iter()
            .min_by_key(|(_, v)| *v)
            .map(|(n, _)| *n)
            .expect("sweep points carry at least one metric")
    }
}

/// A named cost function over machines.
pub type NamedCost<'a> = (&'static str, &'a dyn Fn(&LogP) -> Cycles);

/// Run a set of named cost functions over every machine in the grid.
pub fn sweep(grid: &Grid, algos: &[NamedCost<'_>]) -> Vec<SweepPoint> {
    grid.machines()
        .into_iter()
        .map(|machine| SweepPoint {
            machine,
            metrics: algos.iter().map(|(n, f)| (*n, f(&machine))).collect(),
        })
        .collect()
}

/// Along a single axis (holding the other parameters of `base` fixed),
/// find the smallest axis value at which `challenger` becomes no worse
/// than `incumbent`. Returns `None` if it never does within the axis.
pub fn crossover(
    base: &LogP,
    axis: Param,
    values: &Axis,
    incumbent: &dyn Fn(&LogP) -> Cycles,
    challenger: &dyn Fn(&LogP) -> Cycles,
) -> Option<u64> {
    for &v in values.values() {
        let m = axis.apply(base, v)?;
        if challenger(&m) <= incumbent(&m) {
            return Some(v);
        }
    }
    None
}

/// Which LogP parameter an operation varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Param {
    L,
    O,
    G,
    P,
}

impl Param {
    /// Produce a machine with this parameter set to `v` (None if invalid).
    pub fn apply(&self, base: &LogP, v: u64) -> Option<LogP> {
        let m = match self {
            Param::L => LogP::new(v, base.o, base.g, base.p),
            Param::O => LogP::new(base.l, v, base.g, base.p),
            Param::G => LogP::new(base.l, base.o, v, base.p),
            Param::P => LogP::new(base.l, base.o, base.g, u32::try_from(v).ok()?),
        };
        m.ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broadcast::{optimal_broadcast_time, shape_broadcast_time, TreeShape};

    #[test]
    fn axes_generate_expected_values() {
        assert_eq!(Axis::linear(1, 7, 2).values(), &[1, 3, 5, 7]);
        assert_eq!(Axis::geometric(1, 16, 2).values(), &[1, 2, 4, 8, 16]);
        assert_eq!(Axis::fixed(42).values(), &[42]);
    }

    #[test]
    #[should_panic(expected = "factor must exceed 1")]
    fn geometric_rejects_unit_factor() {
        Axis::geometric(1, 8, 1);
    }

    #[test]
    fn grid_skips_invalid_machines() {
        let grid = Grid {
            l: Axis::list([0, 4]), // L = 0 invalid
            o: Axis::fixed(2),
            g: Axis::fixed(4),
            p: Axis::fixed(8),
        };
        assert_eq!(grid.machines().len(), 1);
    }

    #[test]
    fn sweep_records_winners() {
        let grid = Grid {
            l: Axis::geometric(1, 64, 4),
            o: Axis::fixed(1),
            g: Axis::fixed(2),
            p: Axis::fixed(32),
        };
        let pts = sweep(
            &grid,
            &[
                ("optimal", &|m: &LogP| optimal_broadcast_time(m)),
                ("binomial", &|m: &LogP| {
                    shape_broadcast_time(m, TreeShape::Binomial)
                }),
            ],
        );
        assert_eq!(pts.len(), 4);
        for p in &pts {
            assert_eq!(p.winner(), "optimal", "optimal can never lose");
        }
    }

    #[test]
    fn crossover_aborts_on_the_first_invalid_machine() {
        // At P = 4 the chain beats the flat tree, but a P above u32::MAX
        // ahead of it makes `apply` bail first.
        let base = LogP::new(1, 1, 8, 16).unwrap();
        let linear = |m: &LogP| shape_broadcast_time(m, TreeShape::Linear);
        let flat = |m: &LogP| shape_broadcast_time(m, TreeShape::Flat);
        let at = |values: &[u64]| crossover(&base, Param::P, &Axis::list(values), &flat, &linear);
        assert_eq!(at(&[4]), Some(4));
        assert_eq!(at(&[u64::MAX, 4]), None);
    }

    #[test]
    fn crossover_finds_flat_overtaking_linear() {
        // With tiny L, a chain (P-1 hops of 2o+L) beats the flat tree's
        // serialized sends; as L grows, flat (one hop) wins.
        let base = LogP::new(1, 1, 8, 16).unwrap();
        let linear = |m: &LogP| shape_broadcast_time(m, TreeShape::Linear);
        let flat = |m: &LogP| shape_broadcast_time(m, TreeShape::Flat);
        // At L = 1 linear costs 15·3 = 45; flat costs 14·8 + 3 = 115.
        assert!(linear(&base) < flat(&base));
        let x = crossover(&base, Param::L, &Axis::linear(1, 100, 1), &linear, &flat);
        let x = x.expect("flat must eventually win as L grows");
        // Verify it is a genuine crossover point.
        let before = Param::L.apply(&base, x - 1).unwrap();
        let at = Param::L.apply(&base, x).unwrap();
        assert!(flat(&before) > linear(&before));
        assert!(flat(&at) <= linear(&at));
    }
}
