//! Optimal summation under LogP (§3.3, Figure 4; Karp, Sahay, Santos &
//! Schauser, UCB/CSD 92/721).
//!
//! The problem: sum as many input values as possible within a fixed time
//! budget `T` (one addition per cycle, inputs resident where the schedule
//! places them). The communication pattern forms a tree with the same shape
//! as an optimal broadcast tree. Working backwards from the root:
//!
//! * if `T` is too small to receive anything, the best is a single
//!   processor summing `T + 1` values;
//! * otherwise the root's last cycle combines a received partial sum, the
//!   remote child must have completed at `T - (2o + L + 1)`, and further
//!   children complete `s = max(g, o + 1)` apart (the root needs `o`
//!   cycles to receive plus 1 to combine, so receptions cannot usefully be
//!   closer than `o + 1` even when `g` is smaller);
//! * between receptions the root performs `s - o - 1` additions of local
//!   inputs, and a transmitted partial sum must represent at least `o`
//!   additions (otherwise the sender should have shipped raw values).
//!
//! The inputs are deliberately *not* equally distributed over processors.
//!
//! Every answer is read from one table filled bottom-up in `T` (a child's
//! deadline is below its parent's). Row `T` holds the unbounded capacity,
//! [`procs_needed`], and the capacity `f(T, q)` on at most `q` processors
//! for `q` in `2..min(P + 1, procs_needed(T))`; from `procs_needed(T)` on,
//! `f(T, q)` is the unbounded capacity. A row's bounded columns are one
//! knapsack handing processors to the root's children: its entry for `q − 1`
//! processors does not depend on the size it was built for, so one pass
//! over a row gives every processor count.

use crate::params::{Cycles, LogP, ProcId};

/// Spacing between consecutive combine steps at a receiving processor.
fn spacing(m: &LogP) -> Cycles {
    m.g.max(m.o + 1)
}

/// Smallest budget at which receiving a partial sum pays: the child must
/// complete at `T - (2o + L + 1) >= o` (at least `o` additions).
fn recv_threshold(m: &LogP) -> Cycles {
    3 * m.o + m.l + 1
}

/// The most children a node with budget `t` can receive from: each must
/// allow `>= o` additions, and the node keeps non-negative local work.
fn max_children(m: &LogP, t: Cycles) -> u64 {
    if t < recv_threshold(m) {
        return 0;
    }
    let k_deadline = (t - recv_threshold(m)) / spacing(m) + 1;
    k_deadline.min(t / (m.o + 1))
}

/// Deadline of child `j` of a node with budget `t`.
fn child_deadline(m: &LogP, t: Cycles, j: u64) -> Cycles {
    t - (2 * m.o + m.l + 1) - j * spacing(m)
}

/// Row `t`: the unbounded capacity and processor count (both saturating),
/// and where the row's bounded columns start once filled.
#[derive(Clone, Copy)]
struct Row {
    unb: u64,
    needed: u64,
    start: usize,
}

/// The recurrences for budgets `0..rows.len()` and processor counts `<= p`.
struct Table {
    m: LogP,
    p: u32,
    rows: Vec<Row>,
    /// Rows below `filled` have their bounded columns in `bounded`: row
    /// `t` holds `f(t, q)` for `q` in `2..=min(p, needed - 1)`.
    filled: usize,
    bounded: Vec<u64>,
    /// The knapsack of the row being filled.
    knap: Vec<u64>,
}

impl Table {
    fn new(m: &LogP, p: u32) -> Self {
        Table {
            m: *m,
            p: p.max(1),
            rows: Vec::new(),
            filled: 0,
            bounded: Vec::new(),
            knap: Vec::new(),
        }
    }

    /// Push the next row; the unbounded schedule takes every child, and a
    /// row after a saturated one is saturated (see [`unbounded`]).
    fn push(&mut self) -> Row {
        let (m, t) = (&self.m, self.rows.len() as Cycles);
        let (mut unb, mut needed) = (u64::MAX, u64::MAX);
        if self.rows.last().is_none_or(|last| last.needed < u64::MAX) {
            let k = max_children(m, t);
            (unb, needed) = (t - k * (m.o + 1) + 1, 1);
            for j in 0..k {
                let child = self.rows[child_deadline(m, t, j) as usize];
                unb = unb.saturating_add(child.unb);
                needed = needed.saturating_add(child.needed);
            }
        }
        let row = Row {
            unb,
            needed,
            start: 0,
        };
        self.rows.push(row);
        row
    }

    /// `f(t, q)` for `q <= p`, from a pushed row, filled if `q` is below
    /// the row's processor count.
    fn cap(&self, t: Cycles, q: usize) -> u64 {
        let row = &self.rows[t as usize];
        if q <= 1 {
            t + 1
        } else if q as u64 >= row.needed {
            row.unb
        } else {
            self.bounded[row.start + q - 2]
        }
    }

    /// `f(t, p)`, pushing and filling the rows it reads.
    fn capacity(&mut self, t: Cycles) -> u64 {
        while self.rows.len() as u64 <= t {
            self.push();
        }
        if u64::from(self.p) < self.rows[t as usize].needed {
            self.fill(t);
        }
        self.cap(t, self.p as usize)
    }

    /// Fill the bounded columns of rows `filled..=t`: `knap[b]` is the best
    /// the first children reach on at most `b` processors, so `f(t, b + 1)`
    /// is the best over `k` of the root's local inputs plus `knap[b]`.
    fn fill(&mut self, t: Cycles) {
        let mut knap = std::mem::take(&mut self.knap);
        while self.filled as Cycles <= t {
            let (r, start) = (self.filled as Cycles, self.bounded.len());
            // The largest processor count the row stores.
            let top = u64::from(self.p).min(self.rows[self.filled].needed - 1) as usize;
            self.rows[self.filled].start = start;
            if top >= 2 {
                self.bounded.resize(start + top - 1, r + 1);
                knap.clear();
                knap.resize(top, 0);
                for j in 0..max_children(&self.m, r).min(top as u64 - 1) {
                    self.add_child(&mut knap, j as usize, child_deadline(&self.m, r, j));
                    let local = r - (j + 1) * (self.m.o + 1) + 1;
                    let row = &mut self.bounded[start + j as usize..];
                    for (f, v) in row.iter_mut().zip(&knap[j as usize + 1..]) {
                        *f = (*f).max(local + v);
                    }
                }
            }
            self.filled += 1;
        }
        self.knap = knap;
    }

    /// Fold child `j` (deadline `tj`) into a knapsack over children
    /// `0..j`: `knap[b]` becomes the best total of children `0..=j` on at
    /// most `b` processors, each child on at least one. Only `b > j` is
    /// feasible; `knap[..=j]` is left as it was.
    fn add_child(&self, knap: &mut [u64], j: usize, tj: Cycles) {
        let child = self.rows[tj as usize];
        let stored = &self.bounded[child.start..];
        for b in (j + 1..knap.len()).rev() {
            // Child j takes `give` of at most `b - j` processors: 1, the
            // stored columns, or the unbounded schedule's count.
            let most = b - j;
            let mid = (most as u64).min(child.needed - 1) as usize;
            let mut best = tj + 1 + knap[b - 1];
            if mid >= 2 {
                let rest = knap[b - mid..b - 1].iter().rev();
                best = stored[..mid - 1]
                    .iter()
                    .zip(rest)
                    .fold(best, |acc, (v, k)| acc.max(v + k));
            }
            if child.needed <= most as u64 {
                best = best.max(child.unb + knap[b - child.needed as usize]);
            }
            knap[b] = best;
        }
    }

    /// The optimum of `f(t, p)` taken apart as the recursion this table
    /// replaced took it: the most children first, children `k - 1` down to
    /// 0, each on the fewest processors that keep the optimum. Returns the
    /// node's local inputs and each child's processors.
    fn split(&self, t: Cycles, p: usize, layers: &mut Vec<u64>) -> (u64, Vec<usize>) {
        let m = &self.m;
        if p <= 1 || t < recv_threshold(m) {
            return (t + 1, Vec::new());
        }
        let target = self.cap(t, p);
        // Layer `j` is the knapsack over children `0..j` on `0..p`
        // processors.
        let k_max = max_children(m, t).min(p as u64 - 1) as usize;
        layers.clear();
        layers.resize(p, 0);
        for j in 0..k_max {
            let tj = child_deadline(m, t, j as u64);
            layers.extend_from_within(j * p..(j + 1) * p);
            self.add_child(&mut layers[(j + 1) * p..], j, tj);
        }
        for k in (1..=k_max).rev() {
            let local = t - k as u64 * (m.o + 1) + 1;
            if layers[k * p + p - 1] != target - local {
                continue;
            }
            let mut gives = vec![0; k];
            let mut q = p - 1;
            for j in (0..k).rev() {
                let tj = child_deadline(m, t, j as u64);
                let want = layers[(j + 1) * p + q];
                gives[j] = (1..=q - j)
                    .find(|&give| self.cap(tj, give) + layers[j * p + q - give] == want)
                    .expect("argmax path is feasible");
                q -= gives[j];
            }
            return (local, gives);
        }
        assert_eq!(target, t + 1, "the optimum must be reproducible");
        (t + 1, Vec::new())
    }
}

/// Maximum number of values summable by time `T` with *unbounded*
/// processors.
pub fn sum_capacity(m: &LogP, t: Cycles) -> u64 {
    unbounded(m, t).unb
}

/// Number of processors the *unbounded* optimal schedule for budget `t`
/// uses. Beyond this, additional processors cannot help, which lets the
/// bounded dynamic program short-circuit.
pub fn procs_needed(m: &LogP, t: Cycles) -> u64 {
    unbounded(m, t).needed
}

/// Row `t` of the unbounded recurrences. Both are non-decreasing in `t`
/// and saturate, so the rows stop at the first saturated one, which every
/// later row equals.
fn unbounded(m: &LogP, t: Cycles) -> Row {
    let mut table = Table::new(m, 1);
    loop {
        let row = table.push();
        if row.needed == u64::MAX || table.rows.len() as Cycles > t {
            return row;
        }
    }
}

/// Maximum number of values summable by time `T` with at most `p`
/// processors (the paper: "easily extended to handle the limitation of
/// `p` processors by pruning the communication tree").
///
/// ```
/// use logp_core::LogP;
/// use logp_core::summation::sum_capacity_bounded;
/// // Figure 4's instance: 79 inputs on 8 processors by T = 28.
/// assert_eq!(sum_capacity_bounded(&LogP::fig4(), 28, 8), 79);
/// ```
pub fn sum_capacity_bounded(m: &LogP, t: Cycles, p: u32) -> u64 {
    Table::new(m, p).capacity(t)
}

/// Minimum time to sum `n` values with at most `p` processors: the first
/// budget whose bounded capacity reaches `n`, found by filling rows in
/// order. The capacity is monotone in `T` — one more cycle is one more
/// local addition at the root — so the first such row is the answer a
/// search over `T` finds, and the scan never reads a row past it (nor
/// past `n - 1`, where one processor alone suffices).
pub fn min_sum_time(m: &LogP, n: u64, p: u32) -> Cycles {
    let mut table = Table::new(m, p);
    let mut t = 0;
    while t + 1 < n && table.capacity(t) < n {
        t += 1;
    }
    t
}

/// One processor's role in an optimal summation schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SumNode {
    /// This processor's id.
    pub proc: ProcId,
    /// Parent in the communication tree (`None` for the root).
    pub parent: Option<ProcId>,
    /// Number of original input values assigned to this processor.
    pub local_inputs: u64,
    /// Time at which this processor's partial sum is complete.
    pub complete_at: Cycles,
    /// Children, latest-completing first, with their completion times; the
    /// child completing at `complete_at - (2o+L+1) - j*s` is `children[j]`.
    pub children: Vec<(ProcId, Cycles)>,
}

/// An executable optimal summation schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SumSchedule {
    /// Per-processor roles, indexed by processor id; node 0 is the root.
    pub nodes: Vec<SumNode>,
    /// The time budget the schedule was built for.
    pub deadline: Cycles,
    /// Total input values summed.
    pub total_inputs: u64,
    /// The model the schedule was built for.
    pub model: LogP,
}

impl SumSchedule {
    /// Number of processors used.
    pub fn procs(&self) -> u32 {
        self.nodes.len() as u32
    }
}

/// Build the optimal bounded-processor summation schedule for budget `t`.
///
/// The schedule realizes `sum_capacity_bounded(m, t, m.p)` input values
/// and is directly executable on the simulator (see
/// `logp-algos::reduce`).
pub fn optimal_sum_schedule(m: &LogP, t: Cycles) -> SumSchedule {
    let mut table = Table::new(m, m.p);
    let total = table.capacity(t);
    table.fill(t);
    let (mut nodes, mut layers) = (Vec::<SumNode>::new(), Vec::new());
    // Depth first, child 0 first: processor ids in preorder.
    let mut stack = vec![(t, m.p as usize, None)];
    while let Some((t, p, parent)) = stack.pop() {
        let id = nodes.len() as ProcId;
        if let Some(pid) = parent {
            nodes[pid as usize].children.push((id, t));
        }
        let (local_inputs, gives) = table.split(t, p, &mut layers);
        for (j, &give) in gives.iter().enumerate().rev() {
            stack.push((child_deadline(m, t, j as u64), give, Some(id)));
        }
        nodes.push(SumNode {
            proc: id,
            parent,
            local_inputs,
            complete_at: t,
            children: Vec::with_capacity(gives.len()),
        });
    }
    debug_assert_eq!(nodes.iter().map(|n| n.local_inputs).sum::<u64>(), total);
    SumSchedule {
        nodes,
        deadline: t,
        total_inputs: total,
        model: *m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 4 golden test: T = 28, P = 8, L = 5, g = 4, o = 2.
    /// The figure's communication tree: root with children completing at
    /// 18, 14, 10, 6; the 18-child has children at 8 and 4; the 14-child
    /// has one child at 4. Eight processors in total.
    #[test]
    fn figure4_schedule_matches_paper() {
        let m = LogP::fig4();
        let sched = optimal_sum_schedule(&m, 28);
        assert_eq!(sched.procs(), 8, "paper uses exactly 8 processors");
        let root = &sched.nodes[0];
        let child_times: Vec<Cycles> = root.children.iter().map(|c| c.1).collect();
        assert_eq!(child_times, vec![18, 14, 10, 6]);
        // Root: k = 4 receptions, local = T - k(o+1) + 1 = 28 - 12 + 1 = 17.
        assert_eq!(root.local_inputs, 17);
        // Child completing at 18 has two children (at 8 and 4).
        let c18 = root.children[0].0;
        let times18: Vec<Cycles> = sched.nodes[c18 as usize]
            .children
            .iter()
            .map(|c| c.1)
            .collect();
        assert_eq!(times18, vec![8, 4]);
        // Child completing at 14 has one child (at 4).
        let c14 = root.children[1].0;
        let times14: Vec<Cycles> = sched.nodes[c14 as usize]
            .children
            .iter()
            .map(|c| c.1)
            .collect();
        assert_eq!(times14, vec![4]);
        // Children at 10 and 6 are leaves.
        assert!(sched.nodes[root.children[2].0 as usize].children.is_empty());
        assert!(sched.nodes[root.children[3].0 as usize].children.is_empty());
    }

    #[test]
    fn small_budget_is_single_processor() {
        let m = LogP::fig4();
        // T <= L + 2o: "sum T+1 values on a single processor".
        for t in 0..=(m.l + 2 * m.o) {
            assert_eq!(sum_capacity(&m, t), t + 1);
            assert_eq!(sum_capacity_bounded(&m, t, 8), t + 1);
        }
    }

    #[test]
    fn unbounded_capacity_dominates_bounded() {
        let m = LogP::fig4();
        for t in [10, 20, 28, 40, 60] {
            let unb = sum_capacity(&m, t);
            let mut prev = 0;
            for p in [1, 2, 4, 8, 16, 64] {
                let b = sum_capacity_bounded(&m, t, p);
                assert!(b >= prev, "capacity must not decrease with more processors");
                assert!(b <= unb);
                prev = b;
            }
        }
    }

    #[test]
    fn bounded_capacity_converges_to_unbounded() {
        let m = LogP::fig4();
        // For T = 28 only 8 processors are ever useful... the unbounded
        // optimum for this small budget uses a bounded number of procs.
        let unb = sum_capacity(&m, 28);
        assert_eq!(sum_capacity_bounded(&m, 28, 1024), unb);
    }

    #[test]
    fn schedule_totals_match_capacity() {
        for (l, o, g, p, t) in [
            (5, 2, 4, 8, 28),
            (6, 2, 4, 16, 40),
            (3, 1, 2, 8, 20),
            (10, 0, 2, 32, 35),
        ] {
            let m = LogP::new(l, o, g, p).unwrap();
            let sched = optimal_sum_schedule(&m, t);
            assert_eq!(sched.total_inputs, sum_capacity_bounded(&m, t, p));
            assert!(sched.procs() <= p);
            let total: u64 = sched.nodes.iter().map(|n| n.local_inputs).sum();
            assert_eq!(total, sched.total_inputs);
        }
    }

    #[test]
    fn schedule_children_respect_deadlines() {
        let m = LogP::fig4();
        let sched = optimal_sum_schedule(&m, 28);
        let s = spacing(&m);
        let lead = 2 * m.o + m.l + 1;
        for node in &sched.nodes {
            for (j, (cid, ct)) in node.children.iter().enumerate() {
                assert_eq!(*ct, node.complete_at - lead - j as u64 * s);
                assert_eq!(sched.nodes[*cid as usize].complete_at, *ct);
                // Transmitted partial sums represent at least o additions.
                assert!(
                    sched.nodes[*cid as usize].local_inputs >= 1,
                    "child must hold at least one input"
                );
                let subtree_adds = subtree_inputs(&sched, *cid) - 1;
                assert!(subtree_adds >= m.o, "child must represent >= o additions");
            }
        }
    }

    fn subtree_inputs(sched: &SumSchedule, id: ProcId) -> u64 {
        let n = &sched.nodes[id as usize];
        n.local_inputs
            + n.children
                .iter()
                .map(|(c, _)| subtree_inputs(sched, *c))
                .sum::<u64>()
    }

    #[test]
    fn min_sum_time_is_inverse_of_capacity() {
        let m = LogP::fig4();
        for n in [1u64, 2, 10, 29, 50, 79, 100] {
            let t = min_sum_time(&m, n, m.p);
            assert!(sum_capacity_bounded(&m, t, m.p) >= n);
            if t > 0 {
                assert!(sum_capacity_bounded(&m, t - 1, m.p) < n);
            }
        }
    }

    #[test]
    fn capacity_is_monotone_in_time() {
        let m = LogP::new(7, 3, 5, 16).unwrap();
        let mut prev = 0;
        for t in 0..80 {
            let c = sum_capacity_bounded(&m, t, 16);
            assert!(c >= prev, "capacity must be monotone, broke at t={t}");
            prev = c;
        }
    }

    #[test]
    fn inputs_are_unequally_distributed() {
        // Paper: "Notice that the inputs are not equally distributed over
        // processors."
        let sched = optimal_sum_schedule(&LogP::fig4(), 28);
        let counts: Vec<u64> = sched.nodes.iter().map(|n| n.local_inputs).collect();
        assert!(counts.iter().any(|&c| c != counts[0]));
    }
}
