//! Two-dimensional stencil computation on a processor grid (§6.4).
//!
//! The 1D Jacobi in [`crate::stencil`] shows the constant-halo argument;
//! the 2D version is the paper's actual geometry: "wherever problems have
//! a local, regular communication pattern, such as stencil calculation on
//! a grid, it is easy to lay the data out so that only a diminishing
//! fraction of the communication is external to the processor ... the
//! interprocessor communication diminishes like the surface to volume
//! ratio."
//!
//! A √P×√P processor grid owns b×b tiles of a periodic field; each
//! iteration exchanges four edge halos (4b values — the *surface*) and
//! updates b² points (the *volume*) with a 5-point stencil. Verified
//! against a sequential sweep, including under latency jitter.

use crate::step::{run_steps, Arrival, Out, Steps};
use logp_core::{Cycles, LogP, ProcId};
use logp_sim::{Sim, SimConfig};

const TAG_HALO: u32 = 0xB2; // an edge value, indexed by side and position

/// Flops per 5-point update (4 adds + 1 multiply at unit cost).
pub const POINT_COST_2D: Cycles = 5;

/// Sides of a tile, in the halo index.
const NORTH: usize = 0;
const SOUTH: usize = 1;
const WEST: usize = 2;
const EAST: usize = 3;

/// Per-iteration analytic time for a b×b tile: `b²` updates plus four
/// halo exchanges of `b` values each — surface 4b against volume b².
pub fn jacobi2d_iteration_time(m: &LogP, b: u64) -> Cycles {
    let halo_msgs = 4 * b;
    b * b * POINT_COST_2D + halo_msgs * m.send_interval() + m.point_to_point()
}

/// Analytic communication fraction of an iteration.
pub fn comm_fraction_2d(m: &LogP, b: u64) -> f64 {
    let total = jacobi2d_iteration_time(m, b) as f64;
    (total - (b * b * POINT_COST_2D) as f64) / total
}

/// One rank of the grid: at each step it sends its four edges to its
/// neighbours, one message a value, takes theirs into its ghost ring and
/// sweeps its tile.
struct Jacobi2d {
    sweeps: u32,
    /// North, south, west and east neighbours.
    nbr: [ProcId; 4],
    b: usize,
    /// Tile with a one-cell ghost ring: (b+2)×(b+2), row-major.
    u: Vec<f64>,
    scratch: Vec<f64>,
}

impl Jacobi2d {
    fn at(&self, r: usize, c: usize) -> f64 {
        self.u[r * (self.b + 2) + c]
    }
}

impl Steps for Jacobi2d {
    type Final = Vec<f64>;

    fn send(&mut self, _: u32, out: &mut Out<'_, '_>) {
        // My north edge row goes to my north neighbour's south ghost, and
        // symmetrically; a value is indexed by the side it fills there.
        let b = self.b;
        let idx = |side: usize, i: usize| side * b + i;
        for i in 0..b {
            out.send_f64(self.nbr[0], TAG_HALO, idx(SOUTH, i), self.at(1, i + 1));
            out.send_f64(self.nbr[1], TAG_HALO, idx(NORTH, i), self.at(b, i + 1));
            out.send_f64(self.nbr[2], TAG_HALO, idx(EAST, i), self.at(i + 1, 1));
            out.send_f64(self.nbr[3], TAG_HALO, idx(WEST, i), self.at(i + 1, b));
        }
    }

    fn expect(&self, _: u32) -> usize {
        4 * self.b
    }

    fn fold(&mut self, _: u32, halos: &[Arrival]) -> Cycles {
        let (b, w) = (self.b, self.b + 2);
        for h in halos {
            let (side, i) = (h.idx() / b, h.idx() % b);
            let ghost = match side {
                NORTH => i + 1,
                SOUTH => (b + 1) * w + i + 1,
                WEST => (i + 1) * w,
                _ => (i + 1) * w + b + 1, // EAST
            };
            self.u[ghost] = h.value();
        }
        // 5-point sweep into scratch.
        for r in 1..=b {
            for c in 1..=b {
                let v = 0.5 * self.at(r, c)
                    + 0.125
                        * (self.at(r - 1, c)
                            + self.at(r + 1, c)
                            + self.at(r, c - 1)
                            + self.at(r, c + 1));
                self.scratch[r * w + c] = v;
            }
        }
        std::mem::swap(&mut self.u, &mut self.scratch);
        (b * b) as u64 * POINT_COST_2D
    }

    fn finish(&mut self) -> Vec<f64> {
        let b = self.b;
        (1..=b)
            .flat_map(|r| (1..=b).map(move |c| (r, c)))
            .map(|(r, c)| self.at(r, c))
            .collect()
    }

    fn steps(&self) -> u32 {
        self.sweeps
    }
}

/// Result of a 2D Jacobi run.
#[derive(Debug, Clone)]
pub struct Jacobi2dRun {
    /// The field after `iters` sweeps, row-major n×n.
    pub field: Vec<f64>,
    pub completion: Cycles,
    pub messages: u64,
    /// Processor 0's communication-overhead fraction of busy time.
    pub comm_fraction: f64,
}

/// Run `iters` sweeps of the periodic 5-point Jacobi stencil over an
/// n×n field on a √P×√P processor grid (`n` divisible by `√P`).
pub fn run_jacobi2d(m: &LogP, field: &[Vec<f64>], iters: u64, config: SimConfig) -> Jacobi2dRun {
    let grid = (m.p as f64).sqrt().round() as u32;
    assert_eq!(grid * grid, m.p, "needs a square processor grid");
    assert!(grid >= 2, "halo exchange needs distinct neighbors");
    let n = field.len();
    assert!(field.iter().all(|r| r.len() == n), "field must be square");
    assert_eq!(n % grid as usize, 0, "n must divide by the grid side");
    let b = n / grid as usize;
    let sweeps = u32::try_from(iters).expect("one step an iteration");
    let run = run_steps(Sim::new(*m, config), 0..m.p, None, |q| {
        let (x, y) = (q % grid, q / grid);
        let mut u = vec![0.0; (b + 2) * (b + 2)];
        for r in 0..b {
            for c in 0..b {
                u[(r + 1) * (b + 2) + c + 1] = field[y as usize * b + r][x as usize * b + c];
            }
        }
        let g = grid;
        Jacobi2d {
            sweeps,
            nbr: [
                (y + g - 1) % g * g + x,
                (y + 1) % g * g + x,
                y * g + (x + g - 1) % g,
                y * g + (x + 1) % g,
            ],
            b,
            scratch: u.clone(),
            u,
        }
    })
    .expect("every rank folds its last step once");
    let result = run.result;
    let mut out_field = vec![0.0; n * n];
    for (q, tile, _) in run.finals {
        let (gx, gy) = ((q % grid) as usize, (q / grid) as usize);
        for r in 0..b {
            for c in 0..b {
                out_field[(gy * b + r) * n + gx * b + c] = tile[r * b + c];
            }
        }
    }
    let st = &result.stats.procs[0];
    let busy = st.busy() as f64;
    Jacobi2dRun {
        field: out_field,
        completion: result.stats.completion,
        messages: result.stats.total_msgs,
        comm_fraction: if busy == 0.0 {
            0.0
        } else {
            (st.send_overhead + st.recv_overhead) as f64 / busy
        },
    }
}

/// Sequential oracle: periodic 5-point sweeps.
pub fn jacobi2d_sequential(field: &[Vec<f64>], iters: u64) -> Vec<f64> {
    let n = field.len();
    let mut u: Vec<f64> = field.iter().flatten().copied().collect();
    let mut next = vec![0.0; n * n];
    for _ in 0..iters {
        for r in 0..n {
            for c in 0..n {
                let up = u[(r + n - 1) % n * n + c];
                let down = u[(r + 1) % n * n + c];
                let left = u[r * n + (c + n - 1) % n];
                let right = u[r * n + (c + 1) % n];
                next[r * n + c] = 0.5 * u[r * n + c] + 0.125 * (up + down + left + right);
            }
        }
        std::mem::swap(&mut u, &mut next);
    }
    u
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|r| (0..n).map(|c| ((r * n + c) as f64 * 0.13).sin()).collect())
            .collect()
    }

    fn worst_err(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn matches_sequential() {
        let m = LogP::new(6, 2, 4, 4).unwrap(); // 2x2 grid
        let f = field(12);
        for iters in [1u64, 4, 9] {
            let run = run_jacobi2d(&m, &f, iters, SimConfig::default());
            let seq = jacobi2d_sequential(&f, iters);
            assert!(worst_err(&run.field, &seq) < 1e-12, "iters={iters}");
        }
    }

    #[test]
    fn matches_sequential_on_3x3_grid() {
        let m = LogP::new(10, 2, 3, 9).unwrap();
        let f = field(18);
        let run = run_jacobi2d(&m, &f, 5, SimConfig::default());
        let seq = jacobi2d_sequential(&f, 5);
        assert!(worst_err(&run.field, &seq) < 1e-12);
    }

    #[test]
    fn correct_under_jitter() {
        let m = LogP::new(12, 2, 3, 4).unwrap();
        let f = field(8);
        let seq = jacobi2d_sequential(&f, 6);
        for seed in 0..3 {
            let cfg = SimConfig::default().with_jitter(10).with_seed(seed);
            let run = run_jacobi2d(&m, &f, 6, cfg);
            assert!(worst_err(&run.field, &seq) < 1e-12, "seed {seed}");
        }
    }

    #[test]
    fn surface_to_volume_in_two_dimensions() {
        // 2D: surface 4b vs volume b² — the comm fraction falls like 1/b.
        let m = LogP::new(60, 20, 40, 4).unwrap();
        let small = run_jacobi2d(&m, &field(8), 6, SimConfig::default());
        let large = run_jacobi2d(&m, &field(256), 6, SimConfig::default());
        assert!(
            large.comm_fraction < small.comm_fraction / 2.0,
            "fraction must fall: {} -> {}",
            small.comm_fraction,
            large.comm_fraction
        );
        // Analytic ratio: fraction ~ 4/(b·POINT_COST/interval + 4).
        assert!(comm_fraction_2d(&m, 128) < comm_fraction_2d(&m, 4) / 2.0);
    }

    #[test]
    fn message_count_is_four_halos_per_proc_per_iter() {
        let m = LogP::new(6, 2, 4, 4).unwrap();
        let b = 6; // 12x12 field on 2x2 grid
        let run = run_jacobi2d(&m, &field(12), 3, SimConfig::default());
        assert_eq!(run.messages, 4 * b * 4 * 3); // 4 procs × 4 sides × b × iters
    }

    #[test]
    fn tiles_wider_than_256_points_match_sequential() {
        // A halo value's index is side·b + position, with no field of
        // its own to overflow.
        let m = LogP::new(6, 2, 4, 4).unwrap();
        let f = field(2 * 300);
        let run = run_jacobi2d(&m, &f, 1, SimConfig::default());
        assert!(worst_err(&run.field, &jacobi2d_sequential(&f, 1)) < 1e-12);
        assert_eq!(run.messages, 4 * 300 * 4);
    }

    #[test]
    #[should_panic(expected = "square processor grid")]
    fn requires_square_grid() {
        let m = LogP::new(6, 2, 4, 8).unwrap();
        run_jacobi2d(&m, &field(8), 1, SimConfig::default());
    }
}
