//! Vendor product lines as curves in the machine space (§7).
//!
//! "In effect, the model defines a four dimensional parameter space of
//! potential machines. The product line offered by a particular vendor
//! may be identified with a curve in this space, characterizing the
//! system scalability."
//!
//! A [`ProductLine`] maps a processor count to a full machine point:
//! `L(P)` grows with the network diameter of the vendor's topology, and
//! `g(P)` with the inverse of its per-processor bisection bandwidth,
//! while `o` (a node/interface property) stays flat. Evaluating an
//! algorithm along the curve answers the §7 question directly: *how does
//! this vendor's line scale on this computation?*

use crate::params::{Cycles, LogP};

/// How each parameter scales with P along a vendor's line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scaling {
    /// Independent of P.
    Flat,
    /// Proportional to `log2 P` (hypercubes, fat trees, butterflies).
    Logarithmic,
    /// Proportional to `P^(1/2)` (2D meshes/tori).
    SquareRoot,
    /// Proportional to `P^(1/3)` (3D meshes/tori).
    CubeRoot,
    /// Proportional to `P` (a bus, or a single shared link).
    Linear,
}

impl Scaling {
    /// The dimensionless growth factor at `p`, normalized to 1 at the
    /// anchor `p0`.
    pub fn factor(&self, p: u32, p0: u32) -> f64 {
        let (p, p0) = (p.max(1) as f64, p0.max(1) as f64);
        match self {
            Scaling::Flat => 1.0,
            Scaling::Logarithmic => (p.log2().max(1.0)) / (p0.log2().max(1.0)),
            Scaling::SquareRoot => (p / p0).sqrt(),
            Scaling::CubeRoot => (p / p0).cbrt(),
            Scaling::Linear => p / p0,
        }
    }
}

/// A vendor's product line: an anchor machine plus scaling laws.
#[derive(Debug, Clone, PartialEq)]
pub struct ProductLine {
    pub name: &'static str,
    /// The calibrated machine at the anchor processor count.
    pub anchor: LogP,
    /// How latency grows with P (network diameter term).
    pub l_scaling: Scaling,
    /// How the gap grows with P (inverse per-processor bisection
    /// bandwidth).
    pub g_scaling: Scaling,
}

impl ProductLine {
    /// The machine this vendor ships at `p` processors.
    pub fn at(&self, p: u32) -> LogP {
        let l = (self.anchor.l as f64 * self.l_scaling.factor(p, self.anchor.p))
            .round()
            .max(1.0) as Cycles;
        let g = (self.anchor.g as f64 * self.g_scaling.factor(p, self.anchor.p))
            .round()
            .max(1.0) as Cycles;
        LogP {
            l,
            o: self.anchor.o,
            g,
            p,
        }
    }

    /// A CM-5-style line: fat tree — logarithmic latency, flat gap (full
    /// bisection by construction), anchored at the paper's calibration.
    pub fn fat_tree_cm5() -> Self {
        ProductLine {
            name: "fat tree (CM-5-like)",
            anchor: LogP {
                l: 60,
                o: 20,
                g: 40,
                p: 128,
            },
            l_scaling: Scaling::Logarithmic,
            g_scaling: Scaling::Flat,
        }
    }

    /// A 2D-mesh line: √P latency growth and √P gap growth (bisection
    /// width √P shared by P processors).
    pub fn mesh_2d() -> Self {
        ProductLine {
            name: "2D mesh",
            anchor: LogP {
                l: 60,
                o: 20,
                g: 40,
                p: 128,
            },
            l_scaling: Scaling::SquareRoot,
            g_scaling: Scaling::SquareRoot,
        }
    }

    /// A hypercube line: logarithmic latency, flat gap, but a pricier
    /// interface (the nCUBE/2's heavier o, Active Messages variant).
    pub fn hypercube_ncube() -> Self {
        ProductLine {
            name: "hypercube (nCUBE/2-like)",
            anchor: LogP {
                l: 90,
                o: 125,
                g: 125,
                p: 1024,
            },
            l_scaling: Scaling::Logarithmic,
            g_scaling: Scaling::Flat,
        }
    }

    /// A bus-based line: flat latency but linearly degrading bandwidth —
    /// the curve that falls off the cliff first.
    pub fn shared_bus() -> Self {
        ProductLine {
            name: "shared bus",
            anchor: LogP {
                l: 20,
                o: 10,
                g: 10,
                p: 8,
            },
            l_scaling: Scaling::Flat,
            g_scaling: Scaling::Linear,
        }
    }

    /// Evaluate a cost function along the curve at the given processor
    /// counts; returns `(P, machine, cost)` triples.
    pub fn evaluate<F>(&self, counts: &[u32], cost: F) -> Vec<(u32, LogP, Cycles)>
    where
        F: Fn(&LogP) -> Cycles,
    {
        counts
            .iter()
            .map(|&p| {
                let m = self.at(p);
                let c = cost(&m);
                (p, m, c)
            })
            .collect()
    }

    /// Parallel speedup of a workload along the curve: `T(p0·work)` on
    /// one anchor-speed processor divided by the measured time at `p`.
    pub fn speedup(total_work: Cycles, time_at_p: Cycles) -> f64 {
        total_work as f64 / time_at_p.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broadcast::optimal_broadcast_time;
    use crate::cost::staggered_remap_time;

    #[test]
    fn anchor_is_reproduced_exactly() {
        for line in [
            ProductLine::fat_tree_cm5(),
            ProductLine::mesh_2d(),
            ProductLine::hypercube_ncube(),
            ProductLine::shared_bus(),
        ] {
            assert_eq!(line.at(line.anchor.p), line.anchor, "{}", line.name);
        }
    }

    #[test]
    fn scaling_factors_are_monotone() {
        for s in [
            Scaling::Flat,
            Scaling::Logarithmic,
            Scaling::SquareRoot,
            Scaling::CubeRoot,
            Scaling::Linear,
        ] {
            let mut prev = 0.0;
            for p in [16u32, 64, 256, 1024, 4096] {
                let f = s.factor(p, 16);
                assert!(f >= prev, "{s:?} must not shrink with P");
                prev = f;
            }
        }
        assert_eq!(Scaling::Linear.factor(64, 16), 4.0);
        assert_eq!(Scaling::SquareRoot.factor(64, 16), 2.0);
    }

    #[test]
    fn fat_tree_broadcast_scales_gently_mesh_does_not() {
        // The §7 comparison: on a broadcast, the fat tree's log-growing L
        // costs little; the mesh's √P-growing L and g cost a lot.
        let counts = [128u32, 512, 2048];
        let fat = ProductLine::fat_tree_cm5().evaluate(&counts, optimal_broadcast_time);
        let mesh = ProductLine::mesh_2d().evaluate(&counts, optimal_broadcast_time);
        // Same anchor cost...
        assert_eq!(fat[0].2, mesh[0].2);
        // ...different growth.
        let fat_growth = fat[2].2 as f64 / fat[0].2 as f64;
        let mesh_growth = mesh[2].2 as f64 / mesh[0].2 as f64;
        assert!(
            mesh_growth > 1.5 * fat_growth,
            "mesh growth {mesh_growth} vs fat tree {fat_growth}"
        );
    }

    #[test]
    fn bus_line_stops_scaling_on_bandwidth_bound_work() {
        // A fixed-size remap (bandwidth-bound): along the bus's line the
        // per-processor gap grows linearly, so total time stops improving
        // almost immediately.
        let line = ProductLine::shared_bus();
        let n = 1u64 << 16;
        let t = |m: &LogP| staggered_remap_time(m, n / m.p as u64, 1);
        let pts = line.evaluate(&[8, 16, 32, 64, 128], t);
        // Once g(P) overtakes the per-element overhead (P >= 32 here),
        // doubling processors halves the elements but doubles g: flat.
        let p32 = pts[2].2 as f64;
        let p128 = pts[4].2 as f64;
        assert!(
            (p128 / p32) > 0.9,
            "the bus must stop scaling past saturation: {p32} -> {p128}"
        );
        // Whereas the fat tree keeps gaining.
        let fat = ProductLine::fat_tree_cm5().evaluate(&[128, 256, 512, 1024], t);
        assert!(fat[3].2 < fat[0].2 / 3);
    }

    #[test]
    fn speedup_helper() {
        assert_eq!(ProductLine::speedup(1000, 100), 10.0);
        assert_eq!(ProductLine::speedup(1000, 0), 1000.0); // clamped divisor
    }
}
