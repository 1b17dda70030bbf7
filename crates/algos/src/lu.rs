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

use logp_core::{Cycles, LogP, ProcId};
use logp_sim::{Ctx, Data, Message, Process, SharedCell, Sim, SimConfig};

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

/// Tags: pivot/multiplier broadcast elements. Multiplier messages pack
/// the elimination step into the high half of the index so that
/// pipelined steps cannot be confused even when latency jitter reorders
/// arrivals.
const TAG_MULT: u32 = 0x10;
const TAG_PIVROW: u32 = 0x11;
const TAG_UPDATE_DONE: u64 = 1;
const TAG_SCALE_DONE: u64 = 2;

/// Broadcast state buffered per elimination step.
#[derive(Debug, Default)]
struct StepData {
    piv: Option<usize>,
    mults: Vec<(usize, f64)>,
}

/// What a rank reports when done: its `(j, column)`s and its row
/// permutation.
type Report = (Vec<(usize, Vec<f64>)>, Vec<usize>);

struct LuProc {
    n: usize,
    /// Synchronize all processors between elimination steps (disables the
    /// pipelining of footnote 8; for the pipelining-benefit experiment).
    barrier_between_steps: bool,
    /// Columns this processor owns (j with j % P == me), each a full
    /// column vector, under the currently applied row swaps.
    cols: Vec<(usize, Vec<f64>)>,
    /// Current elimination step this processor works on.
    k: usize,
    /// Buffered broadcasts, keyed by step (pipelining: later steps'
    /// traffic arrives while this processor still updates an earlier
    /// one).
    pending: std::collections::HashMap<usize, StepData>,
    /// An update compute is in flight.
    updating: bool,
    my_index: ProcId,
    p: u32,
    out: SharedCell<Vec<Report>>,
    /// Row permutation applied so far (identical on every processor).
    perm: Vec<usize>,
    done: bool,
    /// Owner-side scratch: the pivot row chosen during the scale compute.
    chosen_piv: usize,
}

impl LuProc {
    fn owner_of_step(&self, k: usize) -> ProcId {
        (k % self.p as usize) as ProcId
    }

    /// Children of `me` in a binomial broadcast rooted at `root`: at
    /// each power-of-two step past its own rank relative to the root, the
    /// rank that step further on, while there is one.
    fn bcast_children(&self, root: ProcId) -> impl Iterator<Item = ProcId> {
        let p = self.p;
        let rel = (self.my_index + p - root) % p;
        std::iter::successors(Some(1u32), |step| step.checked_mul(2))
            .take_while(move |&step| step < p)
            .filter(move |&step| rel < step && rel + step < p)
            .map(move |step| (rel + step + root) % p)
    }

    fn column_mut(&mut self, j: usize) -> Option<&mut Vec<f64>> {
        self.cols
            .iter_mut()
            .find(|(cj, _)| *cj == j)
            .map(|(_, c)| c)
    }

    /// Step k begins for this processor.
    fn begin_step(&mut self, ctx: &mut Ctx<'_>) {
        let n = self.n;
        if self.k >= n {
            self.finish(ctx);
            return;
        }
        let k = self.k;
        if self.owner_of_step(k) == self.my_index {
            // Pivot search on the owned column k (full column is local
            // and fully updated — a processor only reaches step k after
            // finishing its step-(k-1) update).
            let col = self
                .cols
                .iter()
                .find(|(j, _)| *j == k)
                .map(|(_, c)| c.clone())
                .expect("step owner holds column k");
            let (piv, _) = col
                .iter()
                .enumerate()
                .skip(k)
                .map(|(i, v)| (i, v.abs()))
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"))
                .expect("non-empty");
            self.chosen_piv = piv;
            // Charge the pivot search + scaling: (n-k) compares plus
            // (n-k-1) divisions.
            ctx.compute(2 * (n - k) as u64, TAG_SCALE_DONE);
        } else {
            self.try_apply_pending(ctx);
        }
    }

    /// Owner-side: after the pivot/scale compute, apply and broadcast.
    fn scale_and_broadcast(&mut self, ctx: &mut Ctx<'_>) {
        let k = self.k;
        let piv = self.chosen_piv;
        self.apply_swap(k, piv);
        let n = self.n;
        let scaled = {
            let col = self.column_mut(k).expect("owner holds column k");
            let d = col[k];
            assert!(d.abs() > 1e-12, "singular at step {k}");
            for v in col.iter_mut().skip(k + 1) {
                *v /= d;
            }
            col.clone()
        };
        // Broadcast pivot row index, then each multiplier, down the
        // binomial tree (a pipelined message train).
        let root = self.my_index;
        for c in self.bcast_children(root) {
            ctx.send(c, TAG_PIVROW, Data::Pair(k as u64, piv as u64));
        }
        for (i, &v) in scaled.iter().enumerate().skip(k + 1) {
            let packed = (k as u64) << 32 | i as u64;
            for c in self.bcast_children(root) {
                ctx.send(c, TAG_MULT, Data::IdxF64(packed, v));
            }
        }
        let mults: Vec<(usize, f64)> = (k + 1..n).map(|i| (i, scaled[i])).collect();
        self.update_owned(&mults, ctx);
    }

    fn apply_swap(&mut self, k: usize, piv: usize) {
        if piv != k {
            self.perm.swap(k, piv);
            for (_, col) in &mut self.cols {
                col.swap(k, piv);
            }
        }
    }

    /// All multipliers for step k are in: update owned columns j > k.
    fn update_owned(&mut self, mults: &[(usize, f64)], ctx: &mut Ctx<'_>) {
        let k = self.k;
        let mut updates = 0u64;
        for (j, col) in &mut self.cols {
            if *j <= k {
                continue;
            }
            let pivot_elem = col[k];
            for &(i, m) in mults {
                col[i] -= m * pivot_elem;
                updates += 1;
            }
        }
        self.updating = true;
        // Two flops per element update at unit flop cost.
        ctx.compute(2 * updates, TAG_UPDATE_DONE);
    }

    /// Non-owner: if the current step's broadcast is fully buffered and no
    /// update is in flight, consume it.
    fn try_apply_pending(&mut self, ctx: &mut Ctx<'_>) {
        if self.updating || self.done || self.k >= self.n {
            return;
        }
        let k = self.k;
        if self.owner_of_step(k) == self.my_index {
            return; // owner drives itself through compute callbacks
        }
        let expected = self.n - k - 1;
        let ready = self
            .pending
            .get(&k)
            .is_some_and(|sd| sd.piv.is_some() && sd.mults.len() == expected);
        if !ready {
            return;
        }
        let sd = self.pending.remove(&k).expect("checked above");
        self.apply_swap(k, sd.piv.expect("checked above"));
        self.update_owned(&sd.mults, ctx);
    }

    fn finish(&mut self, ctx: &mut Ctx<'_>) {
        if self.done {
            return;
        }
        self.done = true;
        let report = (
            std::mem::take(&mut self.cols),
            std::mem::take(&mut self.perm),
        );
        self.out.with(|o| o.push(report));
        ctx.halt();
    }
}

impl Process for LuProc {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.begin_step(ctx);
    }

    fn on_barrier_release(&mut self, ctx: &mut Ctx<'_>) {
        self.begin_step(ctx);
    }

    fn on_compute_done(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        match tag {
            TAG_SCALE_DONE => self.scale_and_broadcast(ctx),
            TAG_UPDATE_DONE => {
                self.updating = false;
                self.k += 1;
                if self.barrier_between_steps && self.k < self.n {
                    ctx.barrier();
                } else {
                    self.begin_step(ctx);
                }
            }
            other => unreachable!("unknown tag {other}"),
        }
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Ctx<'_>) {
        // Forward broadcast traffic down the step's tree, then buffer.
        match msg.tag {
            TAG_PIVROW => {
                let (k, piv) = msg.data.as_pair();
                let root = self.owner_of_step(k as usize);
                for c in self.bcast_children(root) {
                    ctx.send(c, TAG_PIVROW, msg.data.clone());
                }
                self.pending.entry(k as usize).or_default().piv = Some(piv as usize);
                self.try_apply_pending(ctx);
            }
            TAG_MULT => {
                let (packed, v) = msg.data.as_idx_f64();
                let k = (packed >> 32) as usize;
                let i = (packed & 0xFFFF_FFFF) as usize;
                let root = self.owner_of_step(k);
                for c in self.bcast_children(root) {
                    ctx.send(c, TAG_MULT, msg.data.clone());
                }
                self.pending.entry(k).or_default().mults.push((i, v));
                self.try_apply_pending(ctx);
            }
            other => unreachable!("unknown message tag {other}"),
        }
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

fn run_lu_column_cyclic_with(
    m: &LogP,
    a: &Matrix,
    barrier_between_steps: bool,
    config: SimConfig,
) -> LuRun {
    let n = a.n;
    let p = m.p;
    assert!(n >= p as usize, "need at least one column per processor");
    let out: SharedCell<Vec<Report>> = SharedCell::new();
    let mut sim = Sim::new(*m, config);
    for q in 0..p {
        let cols: Vec<(usize, Vec<f64>)> = (0..n)
            .filter(|j| j % p as usize == q as usize)
            .map(|j| (j, (0..n).map(|i| a.get(i, j)).collect()))
            .collect();
        sim.set_process(
            q,
            Box::new(LuProc {
                n,
                barrier_between_steps,
                cols,
                k: 0,
                pending: std::collections::HashMap::new(),
                updating: false,
                my_index: q,
                p,
                out: out.clone(),
                perm: (0..n).collect(),
                done: false,
                chosen_piv: 0,
            }),
        );
    }
    let result = sim.run().expect("LU terminates");
    let reports = out.get();
    let perm = reports[0].1.clone();
    assert!(
        reports.iter().all(|r| r.1 == perm),
        "every rank applies the same row swaps"
    );
    let mut lu = Matrix::zero(n);
    for (j, col) in reports.iter().flat_map(|r| &r.0) {
        for (i, v) in col.iter().enumerate() {
            lu.set(i, *j, *v);
        }
    }
    LuRun {
        factors: LuFactors { lu, perm },
        completion: result.stats.completion,
        messages: result.stats.total_msgs,
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
