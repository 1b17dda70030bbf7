//! The two mechanisms `Tree` and the two-cursor builder replaced, kept
//! here as references and held equal to what replaced them:
//!
//! * the priority-queue builder of the optimal broadcast tree, against
//!   `optimal_broadcast_tree` — `parent`, `ready` and `send_start` equal on
//!   a grid of machines;
//! * child lists (`Vec<Vec<ProcId>>`), against `Tree` — the same lists
//!   through `iter()`, the same vectors out of every evaluator through
//!   either view;
//! * the hierarchical tree built with one optimal tree per *group*,
//!   against `hier_broadcast_children`, which builds one per level;
//! * the table of reach by cycle `optimal_broadcast_time` filled up to
//!   its answer, against the count of send rounds that replaced it.

use logp_core::broadcast::{
    binomial_children, optimal_broadcast_time, optimal_broadcast_tree, shape_children,
    tree_broadcast_times, BroadcastTree, TreeShape,
};
use logp_core::hier::{
    eval_allreduce, eval_broadcast, eval_reduce, hier_broadcast_children, Hierarchy, Level,
};
use logp_core::rng::CounterRng;
use logp_core::{Cycles, LogP, ProcId, Tree};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The builder `optimal_broadcast_tree` was: a priority queue of
/// `(next possible injection start, processor)`; pop the earliest, create
/// the next recipient with `ready = start + 2o + L`, and re-insert both
/// the sender (at `start + max(g, o)`) and the recipient (at its `ready`).
fn heap_broadcast_tree(m: &LogP) -> BroadcastTree {
    let p = m.p as usize;
    let mut parent = vec![None; p];
    let mut ready = vec![0; p];
    let mut send_start = vec![0; p];
    let gp = m.g.max(m.o);
    let p2p = m.point_to_point();

    // Min-heap ordered by (time, proc-id) for determinism.
    let mut heap: BinaryHeap<Reverse<(Cycles, ProcId)>> = BinaryHeap::new();
    heap.push(Reverse((0, 0)));
    let mut next_id: ProcId = 1;
    while (next_id as usize) < p {
        let Reverse((s, sender)) = heap.pop().expect("heap never empties while work remains");
        let child = next_id;
        next_id += 1;
        parent[child as usize] = Some(sender);
        send_start[child as usize] = s;
        ready[child as usize] = s + p2p;
        heap.push(Reverse((s + gp, sender)));
        heap.push(Reverse((ready[child as usize], child)));
    }
    BroadcastTree {
        parent,
        ready,
        send_start,
        model: *m,
    }
}

/// `(L, o, g, P)` of the five presets the oracle tests share: `fig3`,
/// `fig4`, `cm5`, `latency`, `gap`.
const PRESETS: [(Cycles, Cycles, Cycles, u32); 5] = [
    (6, 2, 4, 8),
    (5, 2, 4, 8),
    (60, 20, 40, 16),
    (200, 4, 8, 32),
    (2, 1, 12, 24),
];

fn presets() -> impl Iterator<Item = LogP> {
    PRESETS
        .into_iter()
        .map(|(l, o, g, p)| LogP::new(l, o, g, p).expect("a valid preset"))
}

#[test]
fn two_cursor_builder_is_the_heap_builder_node_for_node() {
    // The corners the merge could get wrong: the overhead or the gap
    // setting the re-send interval, a free overhead, re-sends every
    // cycle, a gap longer than the flight — and ties everywhere (g = 1,
    // L = 1), where only the id breaks them.
    let corners = [
        (6, 2, 4),  // Figure 3
        (10, 7, 3), // o > g
        (9, 0, 4),  // o = 0
        (1, 0, 1),  // the postal model: every instant is a tie
        (12, 3, 1), // g = 1
        (2, 1, 40), // L < g, and g > 2o + L
        (3, 5, 5),  // o = g
        (60, 4, 8), // the ledger's machine
    ];
    let mut rng = CounterRng::new(0x7EE5);
    let mut grid = corners.to_vec();
    grid.extend((0..24).map(|_| (1 + rng.next_in(80), rng.next_in(12), 1 + rng.next_in(16))));
    let mut machines = 0;
    for (l, o, g) in grid {
        for p in [1, 2, 3, 8, 1000, 1 << 17] {
            let m = LogP::new(l, o, g, p).expect("a valid machine");
            // `BroadcastTree: Eq` compares parent, ready and send_start.
            assert!(
                optimal_broadcast_tree(&m) == heap_broadcast_tree(&m),
                "the builders differ on {m}"
            );
            machines += 1;
        }
    }
    for m in presets() {
        assert_eq!(optimal_broadcast_tree(&m), heap_broadcast_tree(&m), "{m}");
        machines += 1;
    }
    assert_eq!(machines, 32 * 6 + 5);
}

/// What `optimal_broadcast_time` was: the reach `N(t) = N(t - g') +
/// N(t - 2o - L)` tabled cycle by cycle, from `N(t) = 1` below `2o + L`,
/// up to the first `t` that reaches `P` — one `u64` a cycle of the answer.
fn table_broadcast_time(m: &LogP) -> Cycles {
    if m.p <= 1 {
        return 0;
    }
    let gp = m.g.max(m.o);
    let p2p = m.point_to_point();
    let mut t = p2p;
    let mut table: Vec<u64> = Vec::new();
    table.resize(p2p as usize, 1);
    loop {
        let i = t as usize;
        if table.len() <= i {
            table.resize(i + 1, 1);
        }
        let a = if i >= gp as usize {
            table[i - gp as usize]
        } else {
            1
        };
        let b = table[i - p2p as usize];
        table[i] = a.saturating_add(b);
        if table[i] >= m.p as u64 {
            return t;
        }
        t += 1;
    }
}

/// The count of send rounds is the cycle table on the presets, the
/// builder's corners at six sizes, and 240 seeded machines; and, where
/// the table would fill 10^8 cycles, the tree's completion.
#[test]
fn the_broadcast_count_is_the_cycle_table() {
    let corners = [
        (6, 2, 4),
        (10, 7, 3),
        (9, 0, 4),
        (1, 0, 1),
        (12, 3, 1),
        (2, 1, 40),
        (3, 5, 5),
        (60, 4, 8),
        (1_000, 1, 1),
    ];
    let mut machines: Vec<LogP> = presets().collect();
    for (l, o, g) in corners {
        for p in [1, 2, 3, 8, 1000, 1 << 17] {
            machines.push(LogP::new(l, o, g, p).expect("a valid machine"));
        }
    }
    let mut rng = CounterRng::new(0xB0AD);
    machines.extend((0..240).map(|_| {
        let (l, o, g) = (1 + rng.next_in(400), rng.next_in(40), 1 + rng.next_in(60));
        LogP::new(l, o, g, 1 + rng.next_in(1 << 14) as u32).expect("a valid machine")
    }));
    for m in &machines {
        assert_eq!(optimal_broadcast_time(m), table_broadcast_time(m), "{m}");
    }
    for (l, o, g, p) in [(100_000_000, 1, 1, 8), (100_000_000, 3, 7, 1 << 12)] {
        let m = LogP::new(l, o, g, p).expect("a valid machine");
        let t = optimal_broadcast_time(&m);
        assert_eq!(t, optimal_broadcast_tree(&m).completion(), "{m}");
        if p == 8 {
            assert_eq!(t, 100_000_008);
        }
    }
}

/// The child lists `BroadcastTree::children` used to return.
fn lists_of(parent: &[Option<ProcId>]) -> Vec<Vec<ProcId>> {
    let mut ch = vec![Vec::new(); parent.len()];
    for (i, p) in parent.iter().enumerate() {
        if let Some(p) = p {
            ch[*p as usize].push(i as ProcId);
        }
    }
    ch
}

fn as_lists(t: &Tree) -> Vec<Vec<ProcId>> {
    t.iter().map(<[_]>::to_vec).collect()
}

#[test]
fn a_tree_is_its_child_lists() {
    for m in presets().chain([LogP::new(60, 4, 8, 1000).expect("valid")]) {
        let built = optimal_broadcast_tree(&m);
        let (tree, lists) = (built.children(), lists_of(&built.parent));
        assert_eq!(as_lists(&tree), lists, "{m}");
        assert_eq!(Tree::try_from_lists(&lists).as_ref(), Ok(&tree), "{m}");
        assert_eq!(Tree::try_from_lists(&tree).as_ref(), Ok(&tree), "{m}");
        assert_eq!(Tree::from_parents(&built.parent).as_ref(), Ok(&tree), "{m}");
        assert_eq!(tree.len(), m.p as usize);
        for (i, kids) in lists.iter().enumerate() {
            assert_eq!(tree[i], kids[..]);
        }
    }
    for p in [1u32, 2, 3, 7, 8, 9, 33, 100, 1 << 10] {
        let binomial = Tree::binomial(p);
        for i in 0..p {
            assert_eq!(binomial[i as usize], binomial_children(i, p)[..], "P={p}");
        }
        for shape in [
            TreeShape::Flat,
            TreeShape::Linear,
            TreeShape::Binary,
            TreeShape::Binomial,
        ] {
            let tree = shape_children(shape, p);
            assert_eq!(tree, Tree::try_from_lists(&as_lists(&tree)).unwrap());
        }
    }
}

/// Seeded 2- and 3-level hierarchies, small enough to evaluate often.
fn seeded_hierarchies() -> Vec<Hierarchy> {
    let mut rng = CounterRng::new(0x41E2);
    (0..12)
        .map(|i| {
            let depth = 2 + i % 2;
            let levels = (0..depth as u64)
                .map(|k| {
                    // Costs grow outwards, as on a real machine.
                    let scale = 6u64.pow(k as u32);
                    let (l, o, g) = (
                        scale * (2 + rng.next_in(6)),
                        scale * rng.next_in(3),
                        scale * (1 + rng.next_in(4)),
                    );
                    Level::new(l, o, g, 1 + rng.next_in(6) as u32).expect("a valid level")
                })
                .collect();
            Hierarchy::new(levels).expect("a valid hierarchy")
        })
        .collect()
}

#[test]
fn evaluators_price_a_tree_and_its_lists_alike() {
    let flat = presets().map(|m| Hierarchy::flat(&m));
    for h in flat.chain(seeded_hierarchies()) {
        let hier = hier_broadcast_children(&h);
        let oblivious = optimal_broadcast_tree(&h.flat_projection()).children();
        let binomial = Tree::binomial(h.p());
        for tree in [&hier, &oblivious, &binomial] {
            let lists = as_lists(tree);
            assert_eq!(eval_broadcast(&h, tree), eval_broadcast(&h, &lists), "{h}");
            assert_eq!(eval_broadcast(&h, tree), eval_broadcast(&h, &lists[..]));
            assert_eq!(eval_reduce(&h, tree), eval_reduce(&h, &lists), "{h}");
            // Either view in either seat.
            let both = eval_allreduce(&h, &binomial, tree);
            assert_eq!(
                both,
                eval_allreduce(&h, &as_lists(&binomial), &lists),
                "{h}"
            );
            assert_eq!(both, eval_allreduce(&h, &binomial, &lists), "{h}");
            assert_eq!(both, eval_allreduce(&h, &as_lists(&binomial), tree), "{h}");
        }
        if h.depth() == 1 {
            let m = h.flat_projection();
            let lists = as_lists(&oblivious);
            assert_eq!(
                tree_broadcast_times(&m, &oblivious),
                tree_broadcast_times(&m, &lists)
            );
            assert_eq!(
                tree_broadcast_times(&m, &oblivious),
                eval_broadcast(&h, &lists)
            );
        }
    }
}

/// `hier_broadcast_children` as it was: one optimal tree per group, built
/// inside the group walk.
fn hier_children_per_group(h: &Hierarchy) -> Vec<Vec<ProcId>> {
    let p = h.p() as usize;
    let mut children = vec![Vec::new(); p];
    // Stack of (level, group base rank); groups split outermost-in so a
    // leader's outer-level sends are appended before its inner ones.
    let top = h.depth() - 1;
    let mut stack = vec![(top, 0u64)];
    while let Some((k, base)) = stack.pop() {
        let lv = h.level(k);
        let sub = if k == 0 { 1 } else { h.group_size(k - 1) };
        if lv.arity > 1 {
            let m = LogP {
                l: lv.l,
                o: lv.o,
                g: lv.g,
                p: lv.arity,
            };
            let tree = heap_broadcast_tree(&m);
            for (j, parent) in tree.parent.iter().enumerate() {
                if let Some(pi) = parent {
                    let from = (base + *pi as u64 * sub) as ProcId;
                    let to = (base + j as u64 * sub) as ProcId;
                    children[from as usize].push(to);
                }
            }
        }
        if k > 0 {
            // Push in reverse so sub-groups recurse in rank order.
            for j in (0..lv.arity as u64).rev() {
                stack.push((k - 1, base + j * sub));
            }
        }
    }
    children
}

#[test]
fn one_tree_a_level_lays_out_the_tree_of_one_a_group() {
    let ledger = Hierarchy::new(vec![
        Level::new(6, 2, 4, 8).unwrap(),
        Level::new(40, 6, 10, 16).unwrap(),
        Level::new(300, 20, 30, 12).unwrap(),
    ])
    .unwrap();
    let flat = presets().map(|m| Hierarchy::flat(&m));
    for h in flat.chain(seeded_hierarchies()).chain([ledger]) {
        assert_eq!(
            as_lists(&hier_broadcast_children(&h)),
            hier_children_per_group(&h),
            "{h}"
        );
    }
}
