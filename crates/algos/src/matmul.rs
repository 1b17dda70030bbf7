//! Distributed dense matrix multiplication (§6.6 lists it with LU and
//! sorting among the computations whose communication "is seen to be
//! built around a small set of communication primitives such as
//! broadcast, reduction or permutation" once layout is addressed).
//!
//! Two layouts, mirroring the paper's LU discussion:
//!
//! * **1D row layout**: processor q owns a row block of A and of C; it
//!   needs *all of B* — communication `n²` values per processor
//!   (all-gather of B), compute `n³/P`;
//! * **2D grid (SUMMA-style)**: a √P×√P grid owns tiles; at step k the
//!   owners broadcast an A-column-panel along rows and a B-row-panel
//!   along columns — communication `2n²/√P` per processor, the same √P
//!   gain the paper derives for LU's grid layout.
//!
//! The 2D algorithm runs data-correct on the simulator (verified against
//! a sequential product, including under latency jitter); both layouts
//! have closed-form cost models for the comparison experiment.

use crate::lu::Matrix;
use crate::step::{run_steps, Arrival, Out, Steps};
use logp_core::{Cycles, LogP};
use logp_sim::{Sim, SimConfig};

const TAG_A: u32 = 0xC0; // a panel value, indexed as in `Summa::panels`
const TAG_B: u32 = 0xC1;

/// Flop cost of one multiply-add at unit cost.
pub const MADD_COST: Cycles = 2;

/// Closed-form per-processor time of the 1D row layout: all-gather B
/// (`n²` values through one processor's interface) + local compute.
pub fn matmul_1d_time(m: &LogP, n: u64) -> Cycles {
    let p = m.p as u64;
    let comm = n * n * m.send_interval() + m.l;
    let compute = n * n * n / p * MADD_COST;
    comm + compute
}

/// Closed-form per-processor time of the 2D SUMMA layout: √P panel
/// broadcasts of `n²/P` values each, i.e. `2n²/√P` values through each
/// interface, + local compute.
pub fn matmul_2d_time(m: &LogP, n: u64) -> Cycles {
    let p = m.p as u64;
    let sqrt_p = (p as f64).sqrt().round() as u64;
    let comm = 2 * n * n / sqrt_p.max(1) * m.send_interval() + sqrt_p * m.l;
    let compute = n * n * n / p * MADD_COST;
    comm + compute
}

/// One processor of the √P×√P SUMMA grid, owning `t×t` tiles
/// (`t = n/√P`, row-major). At step `k`, the grid column `k` owners
/// broadcast their A tile along their row; the grid row `k` owners
/// broadcast their B tile along their column; everyone multiplies the
/// two panels into its C tile.
struct Summa {
    row: u32,
    col: u32,
    sqrt_p: u32,
    t: usize,
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    /// The panels received this step: A at index `i`, B at `t² + i`.
    panels: Vec<f64>,
}

impl Steps for Summa {
    type Final = Vec<f64>;

    fn send(&mut self, k: u32, out: &mut Out<'_, '_>) {
        let (sp, t2) = (self.sqrt_p, self.t * self.t);
        if self.col == k {
            for dst in (0..sp).filter(|&gc| gc != k).map(|gc| self.row * sp + gc) {
                for (i, &v) in self.a.iter().enumerate() {
                    out.send_f64(dst, TAG_A, i, v);
                }
            }
        }
        if self.row == k {
            for dst in (0..sp).filter(|&gr| gr != k).map(|gr| gr * sp + self.col) {
                for (i, &v) in self.b.iter().enumerate() {
                    out.send_f64(dst, TAG_B, t2 + i, v);
                }
            }
        }
    }

    fn expect(&self, k: u32) -> usize {
        self.t * self.t * (usize::from(self.col != k) + usize::from(self.row != k))
    }

    fn fold(&mut self, k: u32, msgs: &[Arrival]) -> Cycles {
        let (t, t2) = (self.t, self.t * self.t);
        for m in msgs {
            self.panels[m.idx()] = m.value();
        }
        let (pa, pb) = self.panels.split_at(t2);
        let pa = if self.col == k { &self.a } else { pa };
        let pb = if self.row == k { &self.b } else { pb };
        // C += A · B.
        for i in 0..t {
            for kk in 0..t {
                let a = pa[i * t + kk];
                for j in 0..t {
                    self.c[i * t + j] += a * pb[kk * t + j];
                }
            }
        }
        (t2 * t) as u64 * MADD_COST
    }

    fn finish(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.c)
    }

    fn steps(&self) -> u32 {
        self.sqrt_p
    }
}

/// Result of a distributed matrix multiplication.
#[derive(Debug, Clone)]
pub struct MatmulRun {
    pub c: Matrix,
    pub completion: Cycles,
    pub messages: u64,
}

/// Multiply `a · b` on a √P×√P SUMMA grid (requires `P` a perfect square
/// and `n` divisible by `√P`).
pub fn run_summa(m: &LogP, a: &Matrix, b: &Matrix, config: SimConfig) -> MatmulRun {
    let n = a.n;
    assert_eq!(b.n, n);
    let sqrt_p = (m.p as f64).sqrt().round() as u32;
    assert_eq!(sqrt_p * sqrt_p, m.p, "SUMMA needs a square processor grid");
    assert_eq!(n % sqrt_p as usize, 0, "n must divide by √P");
    let t = n / sqrt_p as usize;
    let tile = |src: &Matrix, gr: u32, gc: u32| -> Vec<f64> {
        let (r0, c0) = (gr as usize * t, gc as usize * t);
        let mut v = Vec::with_capacity(t * t);
        for i in 0..t {
            for j in 0..t {
                v.push(src.get(r0 + i, c0 + j));
            }
        }
        v
    };
    let run = run_steps(Sim::new(*m, config), 0..m.p, None, |q| {
        let (row, col) = (q / sqrt_p, q % sqrt_p);
        Summa {
            row,
            col,
            sqrt_p,
            t,
            a: tile(a, row, col),
            b: tile(b, row, col),
            c: vec![0.0; t * t],
            panels: vec![0.0; 2 * t * t],
        }
    })
    .expect("every rank folds its last step once");
    let mut c = Matrix::zero(n);
    for (q, tile, _) in run.finals {
        let (gr, gc) = (q / sqrt_p, q % sqrt_p);
        let (r0, c0) = (gr as usize * t, gc as usize * t);
        for i in 0..t {
            for j in 0..t {
                c.set(r0 + i, c0 + j, tile[i * t + j]);
            }
        }
    }
    MatmulRun {
        c,
        completion: run.result.stats.completion,
        messages: run.result.stats.total_msgs,
    }
}

/// Sequential oracle.
pub fn matmul_sequential(a: &Matrix, b: &Matrix) -> Matrix {
    let n = a.n;
    let mut c = Matrix::zero(n);
    for i in 0..n {
        for k in 0..n {
            let av = a.get(i, k);
            for j in 0..n {
                c.set(i, j, c.get(i, j) + av * b.get(k, j));
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worst_err(x: &Matrix, y: &Matrix) -> f64 {
        x.data
            .iter()
            .zip(&y.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn summa_matches_sequential() {
        let m = LogP::new(6, 2, 4, 4).unwrap();
        let n = 16;
        let a = Matrix::test_matrix(n, 1);
        let b = Matrix::test_matrix(n, 2);
        let run = run_summa(&m, &a, &b, SimConfig::default());
        let seq = matmul_sequential(&a, &b);
        assert!(worst_err(&run.c, &seq) < 1e-12);
    }

    #[test]
    fn summa_on_a_3x3_grid() {
        let m = LogP::new(10, 2, 3, 9).unwrap();
        let n = 12;
        let a = Matrix::test_matrix(n, 5);
        let b = Matrix::test_matrix(n, 6);
        let run = run_summa(&m, &a, &b, SimConfig::default());
        assert!(worst_err(&run.c, &matmul_sequential(&a, &b)) < 1e-12);
        // Per step: √P A-owners and √P B-owners each send their t² tile
        // to √P−1 peers; √P steps total.
        let t2 = ((n / 3) * (n / 3)) as u64;
        assert_eq!(run.messages, 3 * (2 * 3 * 2 * t2));
    }

    #[test]
    fn summa_correct_under_jitter() {
        let m = LogP::new(12, 2, 3, 4).unwrap();
        let n = 8;
        let a = Matrix::test_matrix(n, 7);
        let b = Matrix::test_matrix(n, 8);
        let seq = matmul_sequential(&a, &b);
        for seed in 0..3 {
            let cfg = SimConfig::default().with_jitter(10).with_seed(seed);
            let run = run_summa(&m, &a, &b, cfg);
            assert!(worst_err(&run.c, &seq) < 1e-12, "seed {seed}");
        }
    }

    #[test]
    fn grid_layout_gains_sqrt_p_in_the_model() {
        let m = LogP::new(60, 20, 40, 64).unwrap();
        let n = 256;
        let one_d = matmul_1d_time(&m, n);
        let two_d = matmul_2d_time(&m, n);
        assert!(two_d < one_d);
        // Communication-dominated regime: ratio approaches √P/2 = 4.
        let comm_1d = (n * n) as f64 * m.send_interval() as f64;
        let comm_2d = (2 * n * n / 8) as f64 * m.send_interval() as f64;
        assert!((comm_1d / comm_2d - 4.0).abs() < 0.1);
    }

    #[test]
    fn compute_dominates_for_large_n() {
        // n³/P swamps n² communication eventually — the same
        // large-blocks argument as everywhere in the paper.
        let m = LogP::new(60, 20, 40, 16).unwrap();
        let frac = |n: u64| {
            let total = matmul_2d_time(&m, n) as f64;
            let compute = (n * n * n / 16 * MADD_COST) as f64;
            (total - compute) / total
        };
        assert!(frac(64) > 0.4);
        assert!(frac(2048) < 0.1);
    }

    #[test]
    #[should_panic(expected = "square processor grid")]
    fn summa_requires_square_grid() {
        let m = LogP::new(6, 2, 4, 8).unwrap();
        let a = Matrix::test_matrix(8, 1);
        run_summa(&m, &a, &a, SimConfig::default());
    }
}
