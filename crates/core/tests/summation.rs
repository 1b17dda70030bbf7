//! The memoized recursions the summation table replaced, kept here as the
//! reference and held equal to it: `sum_capacity`, `procs_needed`,
//! `sum_capacity_bounded`, `min_sum_time` and `optimal_sum_schedule`
//! node for node, on corner machines, the presets, seeded machines and
//! the `sweep_small` grid. Also: the unbounded recurrences answer at any
//! budget, and `min_sum_time` allocates a bounded number of times.

#[path = "../../../tests/common/counting.rs"]
mod counting;

#[global_allocator]
static GLOBAL: counting::Counting = counting::Counting;

use logp_core::rng::{mix, CounterRng};
use logp_core::summation::{
    min_sum_time, optimal_sum_schedule, procs_needed, sum_capacity, sum_capacity_bounded, SumNode,
    SumSchedule,
};
use logp_core::{Cycles, LogP, ProcId};
use std::collections::HashMap;

/// `logp_core::summation` as it was: three memoized top-down recursions,
/// one knapsack over the children rebuilt for every `(t, p)` visited. One
/// `Reference` shares its memos across queries on one machine, which
/// changes no value.
struct Reference {
    m: LogP,
    cap: HashMap<(Cycles, u32), u64>,
    needed: HashMap<Cycles, u64>,
    unbounded: HashMap<Cycles, u64>,
}

impl Reference {
    fn new(m: &LogP) -> Self {
        Reference {
            m: *m,
            cap: HashMap::new(),
            needed: HashMap::new(),
            unbounded: HashMap::new(),
        }
    }

    fn spacing(&self) -> Cycles {
        self.m.g.max(self.m.o + 1)
    }

    fn recv_threshold(&self) -> Cycles {
        3 * self.m.o + self.m.l + 1
    }

    fn lead(&self) -> Cycles {
        2 * self.m.o + self.m.l + 1
    }

    fn k(&self, t: Cycles) -> u64 {
        let k_deadline = (t - self.recv_threshold()) / self.spacing() + 1;
        k_deadline.min(t / (self.m.o + 1))
    }

    fn capacity_rec(&mut self, t: Cycles) -> u64 {
        if t < self.recv_threshold() {
            return t + 1;
        }
        if let Some(&v) = self.unbounded.get(&t) {
            return v;
        }
        let k = self.k(t);
        let mut total = t - k * (self.m.o + 1) + 1;
        for j in 0..k {
            let tj = t - self.lead() - j * self.spacing();
            total = total.saturating_add(self.capacity_rec(tj));
        }
        self.unbounded.insert(t, total);
        total
    }

    fn procs_needed_rec(&mut self, t: Cycles) -> u64 {
        if t < self.recv_threshold() {
            return 1;
        }
        if let Some(&v) = self.needed.get(&t) {
            return v;
        }
        let mut total = 1u64;
        for j in 0..self.k(t) {
            let tj = t - self.lead() - j * self.spacing();
            total = total.saturating_add(self.procs_needed_rec(tj));
        }
        self.needed.insert(t, total);
        total
    }

    fn bounded_rec(&mut self, t: Cycles, p: u32) -> u64 {
        if p <= 1 || t < self.recv_threshold() {
            return t + 1;
        }
        if p as u64 >= self.procs_needed_rec(t) {
            return self.capacity_rec(t);
        }
        if let Some(&v) = self.cap.get(&(t, p)) {
            return v;
        }
        let k_max = self.k(t).min((p - 1) as u64);
        let mut best = t + 1;
        let tables = self.child_alloc_tables(t, p, k_max);
        for k in 1..=k_max {
            let local = t - k * (self.m.o + 1) + 1;
            if let Some(v) = tables[k as usize][(p - 1) as usize] {
                best = best.max(local + v);
            }
        }
        self.cap.insert((t, p), best);
        best
    }

    fn child_alloc_tables(&mut self, t: Cycles, p: u32, k: u64) -> Vec<Vec<Option<u64>>> {
        let budget = (p - 1) as usize;
        let mut tables: Vec<Vec<Option<u64>>> = Vec::with_capacity(k as usize + 1);
        tables.push(vec![Some(0); budget + 1]);
        for j in 0..k {
            let tj = t - self.lead() - j * self.spacing();
            let cap_j = self.procs_needed_rec(tj).min(budget as u64) as usize;
            let prev = tables.last().expect("table list starts non-empty");
            let mut next: Vec<Option<u64>> = vec![None; budget + 1];
            for q in 1..=budget {
                let mut b: Option<u64> = None;
                for give in 1..=q.min(cap_j) {
                    if let Some(base) = prev[q - give] {
                        let v = self.bounded_rec(tj, give as u32) + base;
                        if b.is_none_or(|cur| v > cur) {
                            b = Some(v);
                        }
                    }
                }
                next[q] = b;
            }
            tables.push(next);
        }
        tables
    }

    /// Exponential search from below, then bisection.
    fn min_sum_time(&mut self, n: u64, p: u32) -> Cycles {
        if n <= 1 {
            return 0;
        }
        let p = p.max(1);
        let mut hi = 1u64;
        while hi < n - 1 && self.bounded_rec(hi, p) < n {
            hi = (hi * 2).min(n - 1);
        }
        let mut lo = hi / 2;
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if self.bounded_rec(mid, p) >= n {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    fn optimal_sum_schedule(&mut self, t: Cycles) -> SumSchedule {
        let total = self.bounded_rec(t, self.m.p);
        let mut nodes = Vec::new();
        self.build_node(t, self.m.p, None, &mut nodes);
        SumSchedule {
            nodes,
            deadline: t,
            total_inputs: total,
            model: self.m,
        }
    }

    fn build_node(
        &mut self,
        t: Cycles,
        p: u32,
        parent: Option<ProcId>,
        nodes: &mut Vec<SumNode>,
    ) -> ProcId {
        let id = nodes.len() as ProcId;
        let leaf = |local_inputs| SumNode {
            proc: id,
            parent,
            local_inputs,
            complete_at: t,
            children: Vec::new(),
        };
        if p <= 1 || t < self.recv_threshold() {
            nodes.push(leaf(t + 1));
            return id;
        }
        let target = self.bounded_rec(t, p);
        let k_max = self.k(t).min((p - 1) as u64);
        let budget = (p - 1) as usize;
        let tables = self.child_alloc_tables(t, p, k_max);
        for k in (0..=k_max).rev() {
            let local = t - k * (self.m.o + 1) + 1;
            if k == 0 {
                assert_eq!(local, target, "bounded_rec value must be reproducible");
                nodes.push(leaf(local));
                return id;
            }
            if tables[k as usize][budget] != Some(target - local) {
                continue;
            }
            nodes.push(leaf(local));
            let mut gives = vec![0usize; k as usize];
            let mut q = budget;
            for j in (0..k as usize).rev() {
                let tj = t - self.lead() - j as u64 * self.spacing();
                let want = tables[j + 1][q].expect("argmax path is feasible");
                let give = (1..=q)
                    .find(|&give| {
                        tables[j][q - give]
                            .is_some_and(|base| self.bounded_rec(tj, give as u32) + base == want)
                    })
                    .expect("DP extraction must succeed");
                gives[j] = give;
                q -= give;
            }
            let mut children = Vec::with_capacity(k as usize);
            for (j, &give) in gives.iter().enumerate() {
                let tj = t - self.lead() - j as u64 * self.spacing();
                children.push((self.build_node(tj, give as u32, Some(id), nodes), tj));
            }
            nodes[id as usize].children = children;
            return id;
        }
        unreachable!("k = 0 returns");
    }
}

/// `(L, o, g, P)` of the five presets: `fig3`, `fig4`, `cm5`, `latency`,
/// `gap`.
const PRESETS: [(Cycles, Cycles, Cycles, u32); 5] = [
    (6, 2, 4, 8),
    (5, 2, 4, 8),
    (60, 20, 40, 16),
    (200, 4, 8, 32),
    (2, 1, 12, 24),
];

/// The corners: a free overhead, a one-cycle gap, no latency (only a
/// struct literal builds it), a gap below `o + 1`, an overhead above the
/// gap; each at P = 1, 2, 3 and one larger P.
fn corners() -> Vec<LogP> {
    let shapes = [
        (9, 0, 4),
        (12, 3, 1),
        (0, 2, 4),
        (0, 0, 1),
        (7, 4, 2),
        (10, 7, 3),
    ];
    let mut machines = Vec::new();
    for (l, o, g) in shapes {
        for p in [1, 2, 3, 9] {
            machines.push(LogP { l, o, g, p });
        }
    }
    machines
}

fn presets() -> Vec<LogP> {
    let mut machines = vec![LogP::fig4()];
    machines.extend(
        PRESETS
            .into_iter()
            .map(|(l, o, g, p)| LogP::new(l, o, g, p).expect("a valid preset")),
    );
    machines
}

/// 200 seeded machines, small enough for the exhaustive comparison.
fn seeded() -> Vec<LogP> {
    let mut rng = CounterRng::new(0x53_554D);
    (0..200)
        .map(|_| {
            let (l, o, g) = (1 + rng.next_in(40), rng.next_in(6), 1 + rng.next_in(10));
            LogP::new(l, o, g, 1 + rng.next_in(7) as u32).expect("a valid machine")
        })
        .collect()
}

/// Unoptimized, a fresh table per `(t, q)` and the recursion's searches
/// for n = 5000 take minutes: a debug build compares every 10th budget up
/// to 400 and the searches up to n = 1024; a release build, everything.
const DEBUG: bool = cfg!(debug_assertions);

fn budgets() -> impl Iterator<Item = Cycles> {
    (0..=400).step_by(if DEBUG { 10 } else { 1 })
}

fn inputs() -> &'static [u64] {
    &SUM_INPUTS[..SUM_INPUTS.len() - usize::from(DEBUG)]
}

/// The `sweep_small` grid at `std` scale (`benchmark/src/workloads/
/// sweep.rs`): 320 machines, P = 8 … 1024, L and g nudged by the seed.
fn grid(seed: u64) -> Vec<LogP> {
    let mut grid = CounterRng::new(0x4752_4944);
    let mut nudge = CounterRng::new(mix(&[seed, 6]));
    (0..320)
        .map(|i| {
            let l = 2 + grid.next_in(196) + nudge.next_in(2);
            let o = 1 + grid.next_in(19);
            let g = 2 + grid.next_in(37) + nudge.next_in(1);
            LogP::new(l, o, g, 8u32 << (i % 8)).expect("valid model")
        })
        .collect()
}

const SUM_INPUTS: [u64; 6] = [1, 2, 3, 64, 1024, 5000];

/// `min_sum_time` for every `n` of [`SUM_INPUTS`], and the schedule at
/// each deadline, node for node.
fn same_searches_and_schedules(m: &LogP, reference: &mut Reference) {
    for &n in inputs() {
        let t = min_sum_time(m, n, m.p);
        assert_eq!(t, reference.min_sum_time(n, m.p), "min_sum_time {m} n={n}");
        assert_eq!(
            optimal_sum_schedule(m, t),
            reference.optimal_sum_schedule(t),
            "schedule {m} T={t}"
        );
    }
}

#[test]
fn the_table_is_the_recursion_at_every_budget_and_processor_count() {
    let mut machines = 0;
    for m in corners().into_iter().chain(presets()).chain(seeded()) {
        let mut reference = Reference::new(&m);
        for t in budgets() {
            assert_eq!(sum_capacity(&m, t), reference.capacity_rec(t), "{m} t={t}");
            assert_eq!(
                procs_needed(&m, t),
                reference.procs_needed_rec(t),
                "{m} t={t}"
            );
            for q in 1..=m.p {
                assert_eq!(
                    sum_capacity_bounded(&m, t, q),
                    reference.bounded_rec(t, q),
                    "{m} t={t} q={q}"
                );
            }
        }
        same_searches_and_schedules(&m, &mut reference);
        machines += 1;
    }
    assert_eq!(machines, 24 + 6 + 200);
}

#[test]
fn the_table_is_the_recursion_on_the_sweep_grid() {
    let mut machines = 0;
    for seed in [1, 2] {
        for m in grid(seed).iter().filter(|m| m.p <= 64) {
            let mut reference = Reference::new(m);
            for t in budgets() {
                assert_eq!(sum_capacity(m, t), reference.capacity_rec(t), "{m} t={t}");
                assert_eq!(
                    procs_needed(m, t),
                    reference.procs_needed_rec(t),
                    "{m} t={t}"
                );
            }
            // Every processor count at each deadline and the budget below.
            let t = min_sum_time(m, 1024, m.p);
            for t in [t - 1, t] {
                for q in 1..=m.p {
                    assert_eq!(
                        sum_capacity_bounded(m, t, q),
                        reference.bounded_rec(t, q),
                        "{m} t={t} q={q}"
                    );
                }
            }
            same_searches_and_schedules(m, &mut reference);
            machines += 1;
        }
    }
    assert_eq!(machines, 2 * 160);
}

/// The harness stops its summation half at P = 64; the table alone goes to
/// P = 1024.
#[test]
fn min_sum_time_is_the_first_sufficient_budget_on_the_whole_grid() {
    for seed in [1, 2] {
        for m in grid(seed) {
            let t = min_sum_time(&m, 1024, m.p);
            assert!(sum_capacity_bounded(&m, t, m.p) >= 1024, "{m}");
            assert!(sum_capacity_bounded(&m, t - 1, m.p) < 1024, "{m}");
        }
    }
}

/// The recursions overflowed the stack at `t = 10^8` and ran for minutes
/// at `10^6`; both answers saturate by `t = 500` on `fig4`.
#[test]
fn the_unbounded_recurrences_saturate_instead_of_recursing() {
    let m = LogP::fig4();
    assert_eq!(sum_capacity(&m, 500), u64::MAX);
    assert_eq!(procs_needed(&m, 500), u64::MAX);
    for t in [1_000, 1_000_000, 100_000_000] {
        assert_eq!(sum_capacity(&m, t), u64::MAX, "t={t}");
        assert_eq!(procs_needed(&m, t), u64::MAX, "t={t}");
    }
    for m in presets() {
        assert_eq!(sum_capacity(&m, 1 << 40), u64::MAX, "{m}");
        assert_eq!(procs_needed(&m, 1 << 40), u64::MAX, "{m}");
    }
}

/// `min_sum_time(m, 1024, P)` on the grid's P <= 64 machines at seed 1:
/// the recursion made 110,843 allocator calls and 24.3 MB (5,511 calls on
/// `LogP(23,10,4,64)`), its schedules 10,496 calls; the table grows a few
/// vectors.
#[test]
fn a_search_allocates_a_few_vectors() {
    let (mut calls, mut bytes, mut most, mut schedule_calls) = (0, 0, 0, 0);
    for m in grid(1).iter().filter(|m| m.p <= 64) {
        let (t, spent) = counting::allocs(|| min_sum_time(m, 1024, m.p));
        assert!(spent.calls <= 64, "{m}: {} calls", spent.calls);
        (calls, bytes, most) = (
            calls + spent.calls,
            bytes + spent.bytes,
            most.max(spent.calls),
        );
        schedule_calls += counting::allocs(|| optimal_sum_schedule(m, t)).1.calls;
    }
    println!(
        "min_sum_time: {calls} calls ({most} at most), {bytes} bytes; \
         optimal_sum_schedule: {schedule_calls} calls"
    );
}
