//! LU decomposition with partial pivoting (§4.2.1).
//!
//! The paper's points, reproduced here:
//!
//! * **communication volume** per elimination step depends on layout — a
//!   bad layout ships the whole pivot row and multiplier column to
//!   everyone (`2(n-k)` values), a column layout halves that (only
//!   multipliers move), a grid layout gains another `√P`;
//! * **load balance** depends on blocked vs scattered assignment: with a
//!   blocked grid, processors fall idle as elimination shrinks the active
//!   submatrix; with a scattered (cyclic) assignment all stay busy until
//!   the last `√P` steps — "the fastest Linpack benchmark programs
//!   actually employ a scattered grid layout, a scheme whose benefits are
//!   obvious from our model."
//!
//! Two artifacts: a *data-correct* distributed LU (column-cyclic layout)
//! that runs on the simulator and is verified against a sequential
//! factorization, and a *step-level cost model* comparing all five
//! layouts.

use crate::step::{run_steps, Arrival, Out, Steps};
use logp_core::{Cycles, LogP, ProcId};
use logp_sim::{Sim, SimConfig};

/// Dense column-major matrix (column-major because the algorithm and the
/// layouts are column-oriented).
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    pub n: usize,
    /// `data[j * n + i]` = element (i, j).
    pub data: Vec<f64>,
}

impl Matrix {
    pub fn zero(n: usize) -> Self {
        Matrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zero(n);
        for j in 0..n {
            for i in 0..n {
                m.data[j * n + i] = f(i, j);
            }
        }
        m
    }

    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[j * self.n + i]
    }

    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[j * self.n + i] = v;
    }

    /// A well-conditioned pseudo-random test matrix (diagonally bumped).
    pub fn test_matrix(n: usize, seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        Matrix::from_fn(n, |i, j| next() + if i == j { 2.0 } else { 0.0 })
    }
}

/// Result of a (sequential or distributed) factorization: `P·A = L·U`
/// stored compactly in `lu` (unit lower diagonal implicit), with the row
/// permutation `perm` (`perm[i]` = original row now in position i).
#[derive(Debug, Clone, PartialEq)]
pub struct LuFactors {
    pub lu: Matrix,
    pub perm: Vec<usize>,
}

impl LuFactors {
    /// Reconstruct `L·U` and compare against the permuted original;
    /// returns the max absolute error.
    pub fn residual(&self, a: &Matrix) -> f64 {
        let n = a.n;
        let mut worst = 0.0f64;
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..=i.min(j) {
                    let l = if k == i { 1.0 } else { self.lu.get(i, k) };
                    let u = self.lu.get(k, j);
                    if k < i {
                        s += self.lu.get(i, k) * u;
                    } else {
                        s += l * u;
                    }
                }
                let orig = a.get(self.perm[i], j);
                worst = worst.max((s - orig).abs());
            }
        }
        worst
    }
}

/// Sequential LU with partial pivoting — the verification oracle.
pub fn lu_sequential(a: &Matrix) -> LuFactors {
    let n = a.n;
    let mut m = a.clone();
    let mut perm: Vec<usize> = (0..n).collect();
    for k in 0..n {
        // Pivot: largest |A[i][k]|, i >= k.
        let (piv, _) = (k..n)
            .map(|i| (i, m.get(i, k).abs()))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN in test matrices"))
            .expect("non-empty column");
        if piv != k {
            perm.swap(k, piv);
            for j in 0..n {
                let (x, y) = (m.get(k, j), m.get(piv, j));
                m.set(k, j, y);
                m.set(piv, j, x);
            }
        }
        let d = m.get(k, k);
        assert!(
            d.abs() > 1e-12,
            "matrix is numerically singular at step {k}"
        );
        for i in k + 1..n {
            let mult = m.get(i, k) / d;
            m.set(i, k, mult);
            for j in k + 1..n {
                m.set(i, j, m.get(i, j) - mult * m.get(k, j));
            }
        }
    }
    LuFactors { lu: m, perm }
}

// ---------------------------------------------------------------------
// Distributed column-cyclic LU on the simulator.
// ---------------------------------------------------------------------

/// Tag of a step's train: the pivot row at index `k`, then each row
/// `i > k`'s multiplier at index `i`.
const TAG_TRAIN: u32 = 0x10;

/// What a rank reports when done: its `(j, column)`s and its row
/// permutation.
type Report = (Vec<(usize, Vec<f64>)>, Vec<usize>);

/// One rank of the column-cyclic LU. Step `k` is elimination step `k`:
/// its owner (`k mod P`) searches column `k` for the pivot, charged before
/// anything leaves, swaps and scales, and sends the pivot row and the
/// multipliers down the binomial tree rooted at itself; the other ranks
/// relay each as it arrives, so step `k + 1`'s owner starts as soon as its
/// own update is done (footnote 8's pipelining). The fold applies the swap
/// and updates the rank's columns `j > k`.
struct Lu {
    me: ProcId,
    n: usize,
    /// Columns this rank owns (`j ≡ me mod P`), each whole, under the row
    /// swaps applied so far.
    cols: Vec<(usize, Vec<f64>)>,
    /// Row permutation applied so far (identical on every rank).
    perm: Vec<usize>,
    /// This rank's children in the binomial tree rooted at each rank (one
    /// list a rank, so there are P): at each power-of-two distance past
    /// its own rank relative to the root, the rank that distance further
    /// on, while there is one.
    kids: Vec<Vec<ProcId>>,
    /// A barrier after every step (turns the pipelining off).
    synchronized: bool,
}

impl Lu {
    fn owner(&self, k: usize) -> ProcId {
        (k % self.kids.len()) as ProcId
    }

    fn swap(&mut self, k: usize, piv: usize) {
        self.perm.swap(k, piv);
        for (_, col) in &mut self.cols {
            col.swap(k, piv);
        }
    }
}

impl Steps for Lu {
    type Final = Report;

    fn send(&mut self, s: u32, out: &mut Out<'_, '_>) {
        let (k, n) = (s as usize, self.n);
        if self.owner(k) != self.me {
            return;
        }
        // Column `k` is the owner's `k / P`-th.
        let at = k / self.kids.len();
        let col = &self.cols[at].1;
        let piv = (k..n)
            .max_by(|&a, &b| col[a].abs().partial_cmp(&col[b].abs()).expect("no NaN"))
            .expect("non-empty");
        // The pivot search and the scaling: (n-k) compares plus (n-k-1)
        // divisions.
        out.compute(2 * (n - k) as u64);
        self.swap(k, piv);
        let col = &mut self.cols[at].1;
        let d = col[k];
        assert!(d.abs() > 1e-12, "singular at step {k}");
        col[k + 1..].iter_mut().for_each(|v| *v /= d);
        let (col, kids) = (&self.cols[at].1, self.relay(s));
        for &c in kids {
            out.send(c, TAG_TRAIN, k, piv as u64);
        }
        for (i, &v) in col.iter().enumerate().skip(k + 1) {
            for &c in kids {
                out.send_f64(c, TAG_TRAIN, i, v);
            }
        }
    }

    fn expect(&self, s: u32) -> usize {
        let k = s as usize;
        if self.owner(k) == self.me {
            0
        } else {
            self.n - k
        }
    }

    fn fold(&mut self, s: u32, train: &[Arrival]) -> Cycles {
        let k = s as usize;
        let mults: Vec<(usize, f64)> = if self.owner(k) == self.me {
            let col = &self.cols[k / self.kids.len()].1;
            (k + 1..self.n).map(|i| (i, col[i])).collect()
        } else {
            let piv = train.iter().find(|a| a.idx() == k);
            self.swap(k, piv.expect("a train carries its pivot row").word as usize);
            let mults = train.iter().filter(|a| a.idx() != k);
            mults.map(|a| (a.idx(), a.value())).collect()
        };
        let mut updates = 0u64;
        for (_, col) in self.cols.iter_mut().filter(|c| c.0 > k) {
            let pivot = col[k];
            for &(i, m) in &mults {
                col[i] -= m * pivot;
            }
            updates += mults.len() as u64;
        }
        // Two flops per element update at unit flop cost.
        2 * updates
    }

    fn finish(&mut self) -> Report {
        (
            std::mem::take(&mut self.cols),
            std::mem::take(&mut self.perm),
        )
    }

    fn steps(&self) -> u32 {
        self.n as u32
    }

    fn relay(&self, s: u32) -> &[ProcId] {
        &self.kids[self.owner(s as usize) as usize]
    }

    fn barrier(&self, _: u32) -> bool {
        self.synchronized
    }
}

/// Result of a distributed LU run.
#[derive(Debug, Clone)]
pub struct LuRun {
    pub factors: LuFactors,
    pub completion: Cycles,
    pub messages: u64,
}

/// Run the column-cyclic distributed LU on the simulator (pipelined:
/// each processor starts its next elimination step as soon as its own
/// update finishes — footnote 8's overlap).
pub fn run_lu_column_cyclic(m: &LogP, a: &Matrix, config: SimConfig) -> LuRun {
    run_lu_column_cyclic_with(m, a, false, config)
}

/// The de-pipelined variant: a global barrier between elimination steps,
/// so every step's broadcast waits for the slowest updater. The paper's
/// footnote 8 argues the column layout makes pipelining these steps easy;
/// comparing the two quantifies what that buys.
pub fn run_lu_column_cyclic_synchronized(m: &LogP, a: &Matrix, config: SimConfig) -> LuRun {
    run_lu_column_cyclic_with(m, a, true, config)
}

fn run_lu_column_cyclic_with(m: &LogP, a: &Matrix, synchronized: bool, config: SimConfig) -> LuRun {
    let (n, p) = (a.n, m.p);
    assert!(n >= p as usize, "need at least one column per processor");
    let kids = |root: ProcId, q: ProcId| -> Vec<ProcId> {
        let rel = (q + p - root) % p;
        std::iter::successors(Some(1u32), |d| d.checked_mul(2))
            .take_while(|&d| d < p)
            .filter(|&d| rel < d && rel + d < p)
            .map(|d| (rel + d + root) % p)
            .collect()
    };
    let run = run_steps(Sim::new(*m, config), 0..p, None, |q| Lu {
        me: q,
        n,
        cols: (q as usize..n)
            .step_by(p as usize)
            .map(|j| (j, a.data[j * n..(j + 1) * n].to_vec()))
            .collect(),
        perm: (0..n).collect(),
        kids: (0..p).map(|root| kids(root, q)).collect(),
        synchronized,
    })
    .expect("every rank folds its last step once");
    let perm = run.finals[0].1 .1.clone();
    assert!(
        run.finals.iter().all(|f| f.1 .1 == perm),
        "every rank applies the same row swaps"
    );
    let mut lu = Matrix::zero(n);
    for (j, col) in run.finals.iter().flat_map(|f| &f.1 .0) {
        lu.data[j * n..(j + 1) * n].copy_from_slice(col);
    }
    LuRun {
        factors: LuFactors { lu, perm },
        completion: run.result.stats.completion,
        messages: run.result.stats.total_msgs,
    }
}

// ---------------------------------------------------------------------
// Step-level layout cost model (E11).
// ---------------------------------------------------------------------

/// The five layouts of §4.2.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LuLayout {
    /// Worst case: every processor fetches the whole pivot row and
    /// multiplier column.
    Bad,
    /// Columns blocked: processor q owns columns `[q·n/P, (q+1)·n/P)`.
    ColumnBlocked,
    /// Columns scattered (cyclic): processor q owns columns ≡ q (mod P).
    ColumnScattered,
    /// √P×√P grid, blocked in both dimensions.
    GridBlocked,
    /// √P×√P grid, scattered in both dimensions.
    GridScattered,
}

/// Per-step and total cost of LU under a layout: communication charged by
/// the paper's per-step formulas, computation charged as the *maximum*
/// per-processor update work (which is where blocked layouts lose).
pub fn lu_layout_time(m: &LogP, n: u64, layout: LuLayout) -> Cycles {
    let p = m.p as u64;
    let sqrt_p = (m.p as f64).sqrt().round() as u64;
    let mut total = 0u64;
    for k in 0..n.saturating_sub(1) {
        let r = n - k - 1; // active submatrix side
        let comm = match layout {
            LuLayout::Bad => 2 * r * m.g + m.l,
            LuLayout::ColumnBlocked | LuLayout::ColumnScattered => r * m.g + m.l,
            LuLayout::GridBlocked | LuLayout::GridScattered => 2 * r / sqrt_p.max(1) * m.g + m.l,
        };
        // Max update elements on one processor.
        let max_share = match layout {
            // Scattered assignments spread the r² update evenly (up to
            // rounding).
            LuLayout::Bad | LuLayout::ColumnScattered | LuLayout::GridScattered => {
                (r * r).div_ceil(p.max(1))
            }
            LuLayout::ColumnBlocked => {
                // Owner of the trailing block does ~ r·min(r, n/P) of it.
                r * r.min(n / p)
            }
            LuLayout::GridBlocked => {
                // The lower-right corner processor updates min(r, n/√P)².
                let side = r.min(n / sqrt_p.max(1));
                side * side
            }
        };
        total += comm + 2 * max_share; // 2 flops per element
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_lu_factors_correctly() {
        for n in [1usize, 2, 5, 16, 33] {
            let a = Matrix::test_matrix(n, 42);
            let f = lu_sequential(&a);
            let res = f.residual(&a);
            assert!(res < 1e-9, "n={n} residual {res}");
        }
    }

    #[test]
    fn distributed_lu_matches_sequential() {
        let n = 24;
        let a = Matrix::test_matrix(n, 7);
        let m = LogP::new(6, 2, 4, 4).unwrap();
        let run = run_lu_column_cyclic(&m, &a, SimConfig::default());
        let seq = lu_sequential(&a);
        for j in 0..n {
            for i in 0..n {
                let d = (run.factors.lu.get(i, j) - seq.lu.get(i, j)).abs();
                assert!(d < 1e-9, "mismatch at ({i},{j}): {d}");
            }
        }
        assert_eq!(run.factors.perm, seq.perm);
        assert!(run.factors.residual(&a) < 1e-9);
    }

    #[test]
    fn distributed_lu_correct_under_jitter() {
        let n = 16;
        let a = Matrix::test_matrix(n, 3);
        let m = LogP::new(9, 1, 3, 4).unwrap();
        for seed in 0..3 {
            let cfg = SimConfig::default().with_jitter(8).with_seed(seed);
            let run = run_lu_column_cyclic(&m, &a, cfg);
            assert!(run.factors.residual(&a) < 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn pipelining_beats_step_barriers() {
        // Footnote 8: "pipelining successive elimination steps appears
        // easier to organize with column layout ... allowing it to
        // initiate the (k+1)-st elimination step while the update for the
        // previous step is still under way." The pipelined run must beat
        // the barrier-per-step run while producing identical factors.
        let n = 24;
        let a = Matrix::test_matrix(n, 11);
        let m = LogP::new(60, 20, 40, 4).unwrap();
        let piped = run_lu_column_cyclic(&m, &a, SimConfig::default());
        let synced = run_lu_column_cyclic_synchronized(&m, &a, SimConfig::default());
        for j in 0..n {
            for i in 0..n {
                assert!((piped.factors.lu.get(i, j) - synced.factors.lu.get(i, j)).abs() < 1e-12);
            }
        }
        assert!(
            piped.completion < synced.completion,
            "pipelining must pay: {} vs {}",
            piped.completion,
            synced.completion
        );
    }

    #[test]
    fn layout_ordering_matches_the_paper() {
        // Grid < column < bad on communication; scattered < blocked on
        // balance — so GridScattered is fastest overall, Bad slowest.
        let m = LogP::new(60, 20, 40, 16).unwrap();
        let n = 512;
        let bad = lu_layout_time(&m, n, LuLayout::Bad);
        let colb = lu_layout_time(&m, n, LuLayout::ColumnBlocked);
        let cols = lu_layout_time(&m, n, LuLayout::ColumnScattered);
        let gridb = lu_layout_time(&m, n, LuLayout::GridBlocked);
        let grids = lu_layout_time(&m, n, LuLayout::GridScattered);
        assert!(
            grids < cols,
            "grid-scattered {grids} < column-scattered {cols}"
        );
        assert!(cols < bad, "column-scattered {cols} < bad {bad}");
        assert!(grids < gridb, "scattered {grids} beats blocked {gridb}");
        assert!(cols < colb, "scattered {cols} beats blocked {colb}");
    }

    #[test]
    fn scattered_advantage_grows_with_p() {
        let n = 1024;
        let mk = |p| LogP::new(60, 20, 40, p).unwrap();
        let ratio = |p: u32| {
            lu_layout_time(&mk(p), n, LuLayout::GridBlocked) as f64
                / lu_layout_time(&mk(p), n, LuLayout::GridScattered) as f64
        };
        assert!(ratio(64) > ratio(4), "imbalance penalty grows with P");
    }

    #[test]
    fn residual_detects_corruption() {
        let a = Matrix::test_matrix(8, 1);
        let mut f = lu_sequential(&a);
        f.lu.set(3, 3, f.lu.get(3, 3) + 1.0);
        assert!(f.residual(&a) > 0.5);
    }
}
