//! Interconnection topologies and average distance (§5.1).
//!
//! "A significant segment of the parallel computing literature assumes
//! that the number of network links traversed by a message... is the
//! primary component of the communication time." The paper's table shows
//! that for practical configurations (P = 1024) the difference between
//! topologies is a factor of two (four for primitive meshes) — small
//! compared to overhead — justifying folding the network into `L`.
//!
//! Every topology here is built as an explicit graph; average distances
//! are computed *exactly* by BFS and compared against the paper's
//! asymptotic formulas.

use std::collections::VecDeque;

/// The topologies of the §5.1 table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// `log2 p`-dimensional hypercube.
    Hypercube,
    /// Indirect butterfly: every route traverses all `log2 p` stages.
    Butterfly,
    /// Complete 4-ary fat tree with processors at the leaves.
    FatTree4,
    /// 3D torus (wrap-around links).
    Torus3D,
    /// 3D mesh.
    Mesh3D,
    /// 2D torus.
    Torus2D,
    /// 2D mesh.
    Mesh2D,
}

impl Topology {
    /// All topologies in the paper's table order.
    pub fn table_order() -> [Topology; 7] {
        [
            Topology::Hypercube,
            Topology::Butterfly,
            Topology::FatTree4,
            Topology::Torus3D,
            Topology::Mesh3D,
            Topology::Torus2D,
            Topology::Mesh2D,
        ]
    }

    /// The paper's asymptotic average-distance formula.
    pub fn asymptotic_avg_distance(&self, p: f64) -> f64 {
        match self {
            Topology::Hypercube => p.log2() / 2.0,
            Topology::Butterfly => p.log2(),
            Topology::FatTree4 => 2.0 * p.log(4.0) - 2.0 / 3.0,
            Topology::Torus3D => 0.75 * p.cbrt(),
            Topology::Mesh3D => p.cbrt(),
            Topology::Torus2D => 0.5 * p.sqrt(),
            Topology::Mesh2D => 2.0 / 3.0 * p.sqrt(),
        }
    }

    /// Display name matching the paper's table.
    pub fn name(&self) -> &'static str {
        match self {
            Topology::Hypercube => "Hypercube",
            Topology::Butterfly => "Butterfly",
            Topology::FatTree4 => "4deg Fat Tree",
            Topology::Torus3D => "3D Torus",
            Topology::Mesh3D => "3D Mesh",
            Topology::Torus2D => "2D Torus",
            Topology::Mesh2D => "2D Mesh",
        }
    }
}

/// An explicit network: `nodes` vertices, adjacency lists, and the subset
/// of vertices hosting processors (for indirect networks the internal
/// switches are not endpoints).
#[derive(Debug, Clone)]
pub struct Network {
    pub adj: Vec<Vec<u32>>,
    /// Per-link capacity in packets/cycle, aligned with `adj` (most
    /// topologies use unit links; the *fat* tree's links widen toward the
    /// root — that is what makes it fat).
    pub cap: Vec<Vec<u32>>,
    /// Indices of processor endpoints.
    pub endpoints: Vec<u32>,
    pub topology: Topology,
}

/// Unit capacities matching an adjacency structure.
fn unit_caps(adj: &[Vec<u32>]) -> Vec<Vec<u32>> {
    adj.iter().map(|n| vec![1; n.len()]).collect()
}

impl Network {
    /// Build a topology instance for (at least) `p` processors. `p` must
    /// suit the topology: a power of two for hypercube/butterfly/fat
    /// tree (power of 4 for the fat tree), a perfect square for 2D, a
    /// perfect cube for 3D.
    pub fn build(topology: Topology, p: u64) -> Network {
        match topology {
            Topology::Hypercube => Self::hypercube(p),
            Topology::Butterfly => Self::butterfly(p),
            Topology::FatTree4 => Self::fat_tree4(p),
            Topology::Torus2D => Self::grid2(p, true),
            Topology::Mesh2D => Self::grid2(p, false),
            Topology::Torus3D => Self::grid3(p, true),
            Topology::Mesh3D => Self::grid3(p, false),
        }
    }

    fn hypercube(p: u64) -> Network {
        assert!(p.is_power_of_two(), "hypercube needs a power-of-two size");
        let d = p.trailing_zeros();
        let adj: Vec<Vec<u32>> = (0..p)
            .map(|i| (0..d).map(|b| (i ^ (1 << b)) as u32).collect())
            .collect();
        Network {
            cap: unit_caps(&adj),
            adj,
            endpoints: (0..p as u32).collect(),
            topology: Topology::Hypercube,
        }
    }

    /// Indirect butterfly with `k = log2 p` stages: node (stage, row);
    /// processors attach at stage 0; a route to any destination exits at
    /// stage k. Stage s row r connects to stage s+1 rows r and
    /// r ^ 2^s. Distances between endpoints are measured to the
    /// destination's *output* port, i.e. always `k` hops — matching the
    /// table's `log p`.
    fn butterfly(p: u64) -> Network {
        assert!(p.is_power_of_two());
        let k = p.trailing_zeros() as u64;
        let id = |stage: u64, row: u64| (stage * p + row) as u32;
        let mut adj = vec![Vec::new(); ((k + 1) * p) as usize];
        for s in 0..k {
            for r in 0..p {
                for nxt in [r, r ^ (1 << s)] {
                    adj[id(s, r) as usize].push(id(s + 1, nxt));
                    adj[id(s + 1, nxt) as usize].push(id(s, r));
                }
            }
        }
        Network {
            cap: unit_caps(&adj),
            adj,
            endpoints: (0..p).map(|r| id(0, r)).collect(),
            topology: Topology::Butterfly,
        }
    }

    /// Complete 4-ary tree with processors at the leaves. (The fat-tree's
    /// *capacity* grows toward the root; its *distances* equal the plain
    /// tree's, which is what the table reports.)
    fn fat_tree4(p: u64) -> Network {
        let mut h = 0u32;
        while 4u64.pow(h) < p {
            h += 1;
        }
        assert_eq!(4u64.pow(h), p, "4-ary fat tree needs a power-of-4 size");
        // Level 0 = root (1 node) ... level h = leaves (p nodes).
        let level_base: Vec<u64> = (0..=h)
            .scan(0u64, |acc, l| {
                let b = *acc;
                *acc += 4u64.pow(l);
                Some(b)
            })
            .collect();
        let total: u64 = (0..=h).map(|l| 4u64.pow(l)).sum();
        let mut adj = vec![Vec::new(); total as usize];
        let mut cap = vec![Vec::new(); total as usize];
        for l in 1..=h {
            // An edge between level l-1 and level l carries the full
            // bandwidth of the child's subtree: 4^(h-l) leaf links.
            let width = 4u64.pow(h - l) as u32;
            for i in 0..4u64.pow(l) {
                let me = level_base[l as usize] + i;
                let parent = level_base[l as usize - 1] + i / 4;
                adj[me as usize].push(parent as u32);
                cap[me as usize].push(width);
                adj[parent as usize].push(me as u32);
                cap[parent as usize].push(width);
            }
        }
        Network {
            adj,
            cap,
            endpoints: (0..p)
                .map(|i| (level_base[h as usize] + i) as u32)
                .collect(),
            topology: Topology::FatTree4,
        }
    }

    fn grid2(p: u64, wrap: bool) -> Network {
        let side = (p as f64).sqrt().round() as u64;
        assert_eq!(side * side, p, "2D grid needs a perfect square size");
        let id = |x: u64, y: u64| (y * side + x) as u32;
        let mut adj = vec![Vec::new(); p as usize];
        for y in 0..side {
            for x in 0..side {
                let mut push = |nx: u64, ny: u64| adj[id(x, y) as usize].push(id(nx, ny));
                if x + 1 < side {
                    push(x + 1, y);
                } else if wrap && side > 1 {
                    push(0, y);
                }
                if x > 0 {
                    push(x - 1, y);
                } else if wrap && side > 1 {
                    push(side - 1, y);
                }
                if y + 1 < side {
                    push(x, y + 1);
                } else if wrap && side > 1 {
                    push(x, 0);
                }
                if y > 0 {
                    push(x, y - 1);
                } else if wrap && side > 1 {
                    push(x, side - 1);
                }
            }
        }
        Network {
            cap: unit_caps(&adj),
            adj,
            endpoints: (0..p as u32).collect(),
            topology: if wrap {
                Topology::Torus2D
            } else {
                Topology::Mesh2D
            },
        }
    }

    fn grid3(p: u64, wrap: bool) -> Network {
        let side = (p as f64).cbrt().round() as u64;
        assert_eq!(side * side * side, p, "3D grid needs a perfect cube size");
        let id = |x: u64, y: u64, z: u64| (z * side * side + y * side + x) as u32;
        let mut adj = vec![Vec::new(); p as usize];
        let step = |v: u64, dir: i64| -> Option<u64> {
            if dir > 0 {
                if v + 1 < side {
                    Some(v + 1)
                } else if wrap && side > 1 {
                    Some(0)
                } else {
                    None
                }
            } else if v > 0 {
                Some(v - 1)
            } else if wrap && side > 1 {
                Some(side - 1)
            } else {
                None
            }
        };
        for z in 0..side {
            for y in 0..side {
                for x in 0..side {
                    for dir in [1i64, -1] {
                        if let Some(nx) = step(x, dir) {
                            adj[id(x, y, z) as usize].push(id(nx, y, z));
                        }
                        if let Some(ny) = step(y, dir) {
                            adj[id(x, y, z) as usize].push(id(x, ny, z));
                        }
                        if let Some(nz) = step(z, dir) {
                            adj[id(x, y, z) as usize].push(id(x, y, nz));
                        }
                    }
                }
            }
        }
        Network {
            cap: unit_caps(&adj),
            adj,
            endpoints: (0..p as u32).collect(),
            topology: if wrap {
                Topology::Torus3D
            } else {
                Topology::Mesh3D
            },
        }
    }

    /// Widen every link by an integer `factor` (packets per cycle).
    /// Distances are unchanged; only saturation moves — a `factor`-wide
    /// network sustains `factor`× the offered load before its knee, which
    /// `saturation_knee_moves_up_with_link_bandwidth` asserts monotonically.
    pub fn scale_link_capacity(&mut self, factor: u32) {
        assert!(factor >= 1, "a link carries at least one packet per cycle");
        for caps in &mut self.cap {
            for c in caps {
                *c *= factor;
            }
        }
    }

    /// Single-source BFS distances.
    pub fn bfs(&self, src: u32) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.adj.len()];
        dist[src as usize] = 0;
        let mut q = VecDeque::from([src]);
        while let Some(v) = q.pop_front() {
            let d = dist[v as usize];
            for &w in &self.adj[v as usize] {
                if dist[w as usize] == u32::MAX {
                    dist[w as usize] = d + 1;
                    q.push_back(w);
                }
            }
        }
        dist
    }

    /// Exact average distance between distinct processor endpoints.
    ///
    /// For the butterfly, the meaningful "distance" is the route length
    /// source-input → destination-output, which is `log2 p` stages for
    /// every pair; BFS on the undirected graph would find backward
    /// shortcuts, so the butterfly returns its constant directly.
    pub fn avg_endpoint_distance(&self) -> f64 {
        if self.topology == Topology::Butterfly {
            return (self.endpoints.len() as f64).log2();
        }
        let n = self.endpoints.len();
        // Vertex-transitive topologies: one BFS suffices by symmetry.
        let transitive = matches!(
            self.topology,
            Topology::Hypercube | Topology::Torus2D | Topology::Torus3D
        );
        let sources: &[u32] = if transitive {
            &self.endpoints[..1]
        } else {
            &self.endpoints
        };
        let mut total: u64 = 0;
        for &e in sources {
            let dist = self.bfs(e);
            for &f in &self.endpoints {
                if f != e {
                    total += dist[f as usize] as u64;
                }
            }
        }
        total as f64 / (sources.len() as f64 * (n as f64 - 1.0))
    }

    /// Network diameter over processor endpoints.
    pub fn endpoint_diameter(&self) -> u32 {
        if self.topology == Topology::Butterfly {
            return (self.endpoints.len() as f64).log2() as u32;
        }
        let mut worst = 0;
        for &e in &self.endpoints {
            let dist = self.bfs(e);
            for &f in &self.endpoints {
                if f != e {
                    worst = worst.max(dist[f as usize]);
                }
            }
        }
        worst
    }
}

/// One row of the §5.1 table: asymptotic value, paper's printed value at
/// P = 1024, and the size at which we can build/measure exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct AvgDistanceRow {
    pub topology: Topology,
    /// The formula evaluated at P = 1024 (the paper's right column).
    pub formula_at_1024: f64,
    /// Exact measured average distance on a buildable size.
    pub measured: f64,
    /// The size used for the measurement.
    pub measured_p: u64,
}

/// Reproduce the §5.1 table. 3D networks are measured at 1000 = 10³
/// (1024 is not a cube); everything else at 1024.
pub fn avg_distance_table() -> Vec<AvgDistanceRow> {
    Topology::table_order()
        .into_iter()
        .map(|t| {
            let p = match t {
                Topology::Torus3D | Topology::Mesh3D => 1000,
                _ => 1024,
            };
            let net = Network::build(t, p);
            AvgDistanceRow {
                topology: t,
                formula_at_1024: t.asymptotic_avg_distance(1024.0),
                measured: net.avg_endpoint_distance(),
                measured_p: p,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_values_at_1024() {
        // §5.1 table, right column.
        let vals: Vec<(Topology, f64)> = Topology::table_order()
            .into_iter()
            .map(|t| (t, t.asymptotic_avg_distance(1024.0)))
            .collect();
        let expect = [
            (Topology::Hypercube, 5.0),
            (Topology::Butterfly, 10.0),
            (Topology::FatTree4, 9.33),
            (Topology::Torus3D, 7.5),
            (Topology::Mesh3D, 10.0),
            (Topology::Torus2D, 16.0),
            (Topology::Mesh2D, 21.33),
        ];
        for ((t, got), (te, want)) in vals.iter().zip(expect.iter()) {
            assert_eq!(t, te);
            // The paper prints rounded values (e.g. 7.5 for 0.75·1024^⅓ =
            // 7.56); allow 1.5% relative.
            assert!(
                (got - want).abs() / want < 0.015,
                "{}: formula {got} vs paper {want}",
                t.name()
            );
        }
    }

    #[test]
    fn hypercube_exact_matches_formula() {
        for p in [16u64, 64, 256] {
            let net = Network::build(Topology::Hypercube, p);
            let exact = net.avg_endpoint_distance();
            // Exact: (log2 p / 2) · p/(p-1).
            let expect = (p as f64).log2() / 2.0 * p as f64 / (p as f64 - 1.0);
            assert!((exact - expect).abs() < 1e-9, "p={p}: {exact} vs {expect}");
        }
    }

    #[test]
    fn torus_2d_exact_matches_formula() {
        // Even side s: average distance = s/2 · s²/(s²-1).
        let net = Network::build(Topology::Torus2D, 256);
        let exact = net.avg_endpoint_distance();
        let s = 16.0f64;
        let expect = (s / 2.0) * s * s / (s * s - 1.0);
        assert!((exact - expect).abs() < 1e-9, "{exact} vs {expect}");
    }

    #[test]
    fn mesh_2d_close_to_two_thirds_sqrt_p() {
        let net = Network::build(Topology::Mesh2D, 1024);
        let exact = net.avg_endpoint_distance();
        let formula = Topology::Mesh2D.asymptotic_avg_distance(1024.0);
        assert!(
            (exact - formula).abs() / formula < 0.05,
            "exact {exact} vs formula {formula}"
        );
    }

    #[test]
    fn fat_tree_measured_matches_closed_form() {
        // 4-ary tree of height h: avg = Σ 2ℓ·3·4^{ℓ-1}/(p-…) — checked
        // against the paper's 9.33 at p = 1024.
        let net = Network::build(Topology::FatTree4, 1024);
        let exact = net.avg_endpoint_distance();
        assert!(
            (exact - 9.33).abs() < 0.05,
            "fat tree exact {exact} vs paper 9.33"
        );
    }

    #[test]
    fn butterfly_distance_is_log_p() {
        let net = Network::build(Topology::Butterfly, 1024);
        assert_eq!(net.avg_endpoint_distance(), 10.0);
    }

    #[test]
    fn mesh3d_and_torus3d_measured_at_1000() {
        let mesh = Network::build(Topology::Mesh3D, 1000);
        let torus = Network::build(Topology::Torus3D, 1000);
        let dm = mesh.avg_endpoint_distance();
        let dt = torus.avg_endpoint_distance();
        // Formulas: p^(1/3) = 10 and 0.75·p^(1/3) = 7.5 at p = 1000.
        assert!((dm - 10.0).abs() < 0.25, "3D mesh {dm}");
        assert!((dt - 7.5).abs() < 0.25, "3D torus {dt}");
        assert!(dt < dm, "wrap links shorten paths");
    }

    #[test]
    fn table_reproduces_within_tolerance() {
        for row in avg_distance_table() {
            let rel = (row.measured - row.formula_at_1024).abs() / row.formula_at_1024;
            assert!(
                rel < 0.12,
                "{}: measured {} vs formula {} (P={})",
                row.topology.name(),
                row.measured,
                row.formula_at_1024,
                row.measured_p
            );
        }
    }

    #[test]
    fn practical_spread_is_about_a_factor_of_four() {
        // The paper's point: topological spread at P = 1024 is ≤ 2× for
        // rich networks, ~4× including primitive meshes.
        let rows = avg_distance_table();
        let min = rows
            .iter()
            .map(|r| r.formula_at_1024)
            .fold(f64::MAX, f64::min);
        let max = rows.iter().map(|r| r.formula_at_1024).fold(0.0, f64::max);
        assert!(max / min < 4.5, "spread {max}/{min}");
    }

    #[test]
    fn diameters_are_sane() {
        assert_eq!(
            Network::build(Topology::Hypercube, 64).endpoint_diameter(),
            6
        );
        assert_eq!(Network::build(Topology::Torus2D, 64).endpoint_diameter(), 8);
        assert_eq!(Network::build(Topology::Mesh2D, 64).endpoint_diameter(), 14);
        assert_eq!(
            Network::build(Topology::FatTree4, 64).endpoint_diameter(),
            6
        );
    }

    #[test]
    #[should_panic(expected = "perfect square")]
    fn grid_validates_size() {
        Network::build(Topology::Mesh2D, 37);
    }

    #[test]
    fn capacity_scaling_widens_links_uniformly() {
        let mut net = Network::build(Topology::FatTree4, 64);
        let before: Vec<Vec<u32>> = net.cap.clone();
        net.scale_link_capacity(3);
        for (a, b) in net.cap.iter().zip(before.iter()) {
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(*x, 3 * *y);
            }
        }
        // Structure untouched.
        assert_eq!(net.avg_endpoint_distance(), {
            let fresh = Network::build(Topology::FatTree4, 64);
            fresh.avg_endpoint_distance()
        });
    }
}
