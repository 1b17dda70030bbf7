//! Optimal single-datum broadcast under LogP (§3.3, Figure 3).
//!
//! "The main idea is simple: all processors that have received the datum
//! transmit it as quickly as possible, while ensuring that no processor
//! receives more than one message." A processor that learns the datum at
//! time `t` can inject copies at `t, t+g', t+2g', …` (where `g' =
//! max(g, o)` since each injection also occupies the processor for `o`
//! cycles), and each copy is usable by its recipient `2o + L` cycles after
//! injection begins.
//!
//! The optimal tree is *unbalanced*, with fan-out determined by the
//! relative values of `L`, `o` and `g`; this module builds it greedily
//! (provably optimal: the multiset of arrival times it generates is the
//! `P-1` smallest achievable arrival times) and also evaluates arbitrary
//! fixed tree shapes (linear, flat, binary, binomial) as baselines.
//!
//! # The greedy rule without a queue
//!
//! The greedy rule is "the holder that can inject earliest sends next,
//! lowest id on a tie", and the obvious way to run it is a priority queue
//! holding one `(next injection start, holder)` entry per holder. The
//! queue is not needed, because its entries come in two kinds and each
//! kind is born already sorted. Injection starts never decrease from one
//! send to the next (a send at `s` only adds entries at `s + g'` and
//! `s + 2o + L`), and new holders are numbered in creation order, so
//!
//! * the holders that have *not yet sent*, `(ready[f], f)`, ascend in
//!   `(time, id)` as `f` does, and
//! * the holders due to send *again*, `(send_start[c] + g', parent[c])`
//!   — one per send already made, `c` being the child that send created —
//!   ascend in `(time, id)` as `c` does.
//!
//! Both sequences can be read off the arrays the builder is filling, with
//! one cursor each; the next sender is the smaller of the two fronts,
//! which is exactly the entry a min-heap ordered by `(time, id)` would
//! pop. [`optimal_broadcast_tree`] is that two-cursor merge: the heap's
//! tree node for node, in `O(P)` and three allocations (the reference
//! heap builder lives on in `crates/core/tests/`, where a differential
//! test holds the two equal).

use crate::params::{Cycles, LogP, ProcId};
use crate::tree::{parent_edges, Children, Tree};

/// A broadcast tree annotated with the time each processor first holds the
/// datum. Processor ids are assigned in arrival order: processor 0 is the
/// source, processor `i` is the `i`-th to learn the datum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastTree {
    /// `parent[i]` is the processor that sent to `i` (`None` for the root).
    pub parent: Vec<Option<ProcId>>,
    /// `ready[i]`: time at which processor `i` holds the datum and may
    /// begin retransmitting (root: 0).
    pub ready: Vec<Cycles>,
    /// `send_start[i]`: time at which `parent[i]` began injecting the
    /// message to `i` (root: 0, unused).
    pub send_start: Vec<Cycles>,
    /// The model the tree was built for.
    pub model: LogP,
}

impl BroadcastTree {
    /// Completion time: the last processor's `ready` time.
    pub fn completion(&self) -> Cycles {
        self.ready.iter().copied().max().unwrap_or(0)
    }

    /// Children of each node, in the order the parent sends to them.
    pub fn children(&self) -> Tree {
        // Processors are numbered in arrival order: a parent precedes its
        // children (so the parents are a tree rooted at 0) and sends to
        // them in id order.
        let arrival_order = |(a, i): (&Option<ProcId>, ProcId)| a.map_or(i == 0, |a| a < i);
        assert!(
            self.parent.iter().zip(0..).all(arrival_order),
            "a processor's parent holds the datum before it does"
        );
        Tree::group(self.parent.len(), 0, parent_edges(&self.parent))
    }

    /// Fan-out of the root.
    pub fn root_fanout(&self) -> usize {
        self.parent.iter().filter(|p| **p == Some(0)).count()
    }
}

/// Number of processors that can hold the datum within `t` cycles,
/// starting from one informed processor (unbounded `P`).
///
/// Recurrence: within `t`, the source's first transmission creates an
/// independent broadcast with budget `t - (2o + L)`, and the source itself
/// continues with budget `t - g'`:
/// `N(t) = 1` for `t < 2o + L`, else `N(t) = N(t - g') + N(t - 2o - L)`,
/// with `g' = max(g, o)`. (Footnote 3: with `o = 0, g = 1` this is the
/// postal-model recurrence of Bar-Noy & Kipnis.)
pub fn broadcast_reach(m: &LogP, t: Cycles) -> u64 {
    let gp = m.g.max(m.o);
    let p2p = m.point_to_point();
    if t < p2p {
        return 1;
    }
    // Iterative table up to t. When the budget is too small for the
    // source to transmit again (i < g'), the source contributes only
    // itself.
    let tt = t as usize;
    let mut n = vec![1u64; tt + 1];
    for i in p2p as usize..=tt {
        let a = if i >= gp as usize {
            n[i - gp as usize]
        } else {
            1
        };
        let b = n[i - p2p as usize];
        n[i] = a.saturating_add(b);
    }
    n[tt]
}

/// Minimum time to broadcast one datum to all `P` processors: the smallest
/// `t` with `broadcast_reach(t) >= P`, and the completion of
/// [`optimal_broadcast_tree`], counted without building the tree.
///
/// The builder's send starts, ascending, are the merge of two sequences
/// read back from themselves: each holder's first send at its ready time
/// (the source at 0, each recipient `2o + L` after its send starts) and
/// each sender's next, `g'` after its last. Only how many sends start at
/// each instant matters to the count, so the merge runs on *rounds*, an
/// instant and the sends that start then: one step a distinct start, never
/// more than the `P - 1` sends nor than the cycles to the answer, and
/// `O(P)` time and memory whatever `L`.
///
/// ```
/// use logp_core::LogP;
/// use logp_core::broadcast::optimal_broadcast_time;
/// // The paper's Figure 3: P = 8, L = 6, g = 4, o = 2 completes at 24.
/// assert_eq!(optimal_broadcast_time(&LogP::fig3()), 24);
/// ```
pub fn optimal_broadcast_time(m: &LogP) -> Cycles {
    if m.p <= 1 {
        return 0;
    }
    let gp = m.g.max(m.o);
    let p2p = m.point_to_point();
    let sends = u64::from(m.p - 1);
    // Until its first recipient holds the datum the source sends alone,
    // a round every `g'`. `fresh`: the round whose recipients send first
    // next; `again`: the round whose senders send next again. Each step
    // reads at most one round of each and appends one, so both cursors
    // stay behind the end.
    let alone = p2p.div_ceil(gp).min(sends);
    let mut rounds: Vec<(Cycles, u64)> = (0..alone).map(|k| (k * gp, 1)).collect();
    let (mut fresh, mut again, mut sent) = (0, rounds.len() - 1, alone);
    while sent < sends {
        let first = rounds[fresh].0.saturating_add(p2p);
        let next = rounds[again].0.saturating_add(gp);
        let at = first.min(next);
        let mut n = 0;
        if first == at {
            n += rounds[fresh].1;
            fresh += 1;
        }
        if next == at {
            n += rounds[again].1;
            again += 1;
        }
        rounds.push((at, n));
        sent += n;
    }
    rounds[rounds.len() - 1].0.saturating_add(p2p)
}

/// Build the optimal broadcast tree greedily.
///
/// Whoever can start an injection earliest (lowest id on a tie) sends
/// next; the recipient holds the datum `2o + L` later and the sender may
/// inject again `max(g, o)` later. This realizes the smallest `P-1`
/// arrival times, hence the optimal completion. The next sender is the
/// smaller front of two sequences that are sorted as they are made — see
/// the module documentation.
pub fn optimal_broadcast_tree(m: &LogP) -> BroadcastTree {
    let p = m.p as usize;
    let mut parent = vec![None; p];
    let mut ready = vec![0; p];
    let mut send_start = vec![0; p];
    let gp = m.g.max(m.o);
    let p2p = m.point_to_point();

    // `fresh`: the lowest-numbered holder that has not sent yet. `again`:
    // the child made by the oldest send whose sender has not been taken
    // for its next one. Every holder is in exactly one of the two
    // sequences, so they are never both empty.
    let (mut fresh, mut again) = (0, 1);
    for child in 1..p {
        let resend = |c: usize| {
            let sender: ProcId = parent[c].expect("every processor but the source has a parent");
            (send_start[c] + gp, sender)
        };
        let first_send =
            again == child || (fresh < child && (ready[fresh], fresh as ProcId) < resend(again));
        let (s, sender) = if first_send {
            fresh += 1;
            (ready[fresh - 1], (fresh - 1) as ProcId)
        } else {
            again += 1;
            resend(again - 1)
        };
        parent[child] = Some(sender);
        send_start[child] = s;
        ready[child] = s + p2p;
    }
    BroadcastTree {
        parent,
        ready,
        send_start,
        model: *m,
    }
}

/// Evaluate the completion time of broadcasting along a *fixed* tree:
/// `children[i]` lists the recipients processor `i` sends to, in order.
/// Returns per-processor ready times (root = processor 0, ready at 0).
///
/// # Panics
///
/// With the [`crate::TreeError`]'s message, before anything is walked,
/// when `children` is not a tree that spans its ranks from processor 0.
pub fn tree_broadcast_times<C: Children + ?Sized>(m: &LogP, children: &C) -> Vec<Cycles> {
    children.check(0).unwrap_or_else(|e| panic!("{e}"));
    let gp = m.g.max(m.o);
    let p2p = m.point_to_point();
    let mut ready = vec![0; children.ranks()];
    // A parent is resolved before its children are visited.
    let mut stack = vec![0usize];
    while let Some(node) = stack.pop() {
        for (slot, &c) in children.of(node).iter().enumerate() {
            ready[c as usize] = ready[node] + slot as Cycles * gp + p2p;
            stack.push(c as usize);
        }
    }
    ready
}

/// Children of `i` in the canonical binomial tree rooted at 0
/// (trailing-zeros convention): `i + 2^j` for `j` below the index of
/// `i`'s lowest set bit (all `j` for the root), clipped to `< p`. The
/// same tree serves broadcasts (root to leaves) and reductions (leaves
/// to root); [`binomial_parent`] is its inverse.
pub fn binomial_children(i: ProcId, p: u32) -> Vec<ProcId> {
    let tz = if i == 0 { 32 } else { i.trailing_zeros() };
    let mut ch = Vec::new();
    for j in 0..tz.min(31) {
        let c = i as u64 + (1u64 << j);
        if c < p as u64 {
            ch.push(c as ProcId);
        } else {
            break;
        }
    }
    ch
}

/// Parent of non-root `i` in the canonical binomial tree: `i` with its
/// lowest set bit cleared.
pub fn binomial_parent(i: ProcId) -> ProcId {
    assert!(i != 0, "the root has no parent");
    i - (1 << i.trailing_zeros())
}

/// Shapes of baseline broadcast trees, for comparison with the optimal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TreeShape {
    /// Root sends to every other processor directly.
    Flat,
    /// Each processor forwards to exactly one other (a chain).
    Linear,
    /// Complete binary tree in level order.
    Binary,
    /// Binomial tree (the hypercube / recursive-doubling pattern).
    Binomial,
}

/// Build a baseline tree over `p` processors. In all four shapes a
/// processor sends to its children in id order, so a shape is its parent
/// function.
pub fn shape_children(shape: TreeShape, p: u32) -> Tree {
    match shape {
        TreeShape::Flat => Tree::rooted_at_zero(p, |_| 0),
        TreeShape::Linear => Tree::rooted_at_zero(p, |c| c - 1),
        TreeShape::Binary => Tree::rooted_at_zero(p, |c| (c - 1) / 2),
        // The recursive-doubling pattern: in round j every informed node
        // i < 2^j sends to i + 2^j, so c's parent is c without its top bit.
        TreeShape::Binomial => Tree::rooted_at_zero(p, |c| c - (1 << c.ilog2())),
    }
}

/// Completion time of a baseline shape.
pub fn shape_broadcast_time(m: &LogP, shape: TreeShape) -> Cycles {
    if m.p <= 1 {
        return 0;
    }
    tree_broadcast_times(m, &shape_children(shape, m.p))
        .into_iter()
        .max()
        .expect("P >= 2 here, so at least one ready time exists")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 3 golden test: P = 8, L = 6, g = 4, o = 2 ⇒ last value
    /// received at time 24, and the arrival times are exactly those in the
    /// figure: {0, 10, 14, 18, 20, 22, 24, 24}.
    #[test]
    fn figure3_tree_matches_paper() {
        let m = LogP::fig3();
        let tree = optimal_broadcast_tree(&m);
        assert_eq!(tree.completion(), 24);
        let mut times = tree.ready.clone();
        times.sort_unstable();
        assert_eq!(times, vec![0, 10, 14, 18, 20, 22, 24, 24]);
        // Figure 3's tree: the root transmits 4 times (at 0, 4, 8, 12).
        assert_eq!(tree.root_fanout(), 4);
        assert_eq!(optimal_broadcast_time(&m), 24);
    }

    #[test]
    fn figure3_reach_curve() {
        let m = LogP::fig3();
        assert_eq!(broadcast_reach(&m, 9), 1);
        assert_eq!(broadcast_reach(&m, 10), 2);
        assert_eq!(broadcast_reach(&m, 14), 3);
        assert_eq!(broadcast_reach(&m, 18), 4);
        assert_eq!(broadcast_reach(&m, 22), 6);
        assert_eq!(broadcast_reach(&m, 23), 6);
        assert_eq!(broadcast_reach(&m, 24), 8);
    }

    #[test]
    fn greedy_tree_matches_reach_based_optimum() {
        for (l, o, g, p) in [
            (6, 2, 4, 8),
            (5, 2, 4, 8),
            (10, 1, 3, 37),
            (2, 1, 1, 64),
            (20, 5, 5, 100),
        ] {
            let m = LogP::new(l, o, g, p).unwrap();
            let tree = optimal_broadcast_tree(&m);
            assert_eq!(
                tree.completion(),
                optimal_broadcast_time(&m),
                "mismatch for {m}"
            );
        }
    }

    #[test]
    fn optimal_never_loses_to_baselines() {
        for (l, o, g, p) in [(6, 2, 4, 8), (6, 2, 4, 64), (1, 1, 1, 16), (30, 2, 3, 128)] {
            let m = LogP::new(l, o, g, p).unwrap();
            let opt = optimal_broadcast_time(&m);
            for shape in [
                TreeShape::Flat,
                TreeShape::Linear,
                TreeShape::Binary,
                TreeShape::Binomial,
            ] {
                assert!(
                    opt <= shape_broadcast_time(&m, shape),
                    "optimal {opt} beaten by {shape:?} on {m}"
                );
            }
        }
    }

    #[test]
    fn flat_broadcast_time_formula() {
        // Flat: root injects at 0, g', 2g', ...; last of P-1 messages
        // arrives at (P-2)·g' + 2o + L.
        let m = LogP::new(6, 2, 4, 8).unwrap();
        let gp = m.g.max(m.o);
        assert_eq!(
            shape_broadcast_time(&m, TreeShape::Flat),
            (m.p as u64 - 2) * gp + m.point_to_point()
        );
    }

    #[test]
    fn linear_broadcast_time_formula() {
        let m = LogP::new(6, 2, 4, 8).unwrap();
        assert_eq!(
            shape_broadcast_time(&m, TreeShape::Linear),
            (m.p as u64 - 1) * m.point_to_point()
        );
    }

    #[test]
    fn binomial_shape_is_a_valid_tree() {
        for p in [1u32, 2, 3, 7, 8, 9, 16, 33] {
            let ch = shape_children(TreeShape::Binomial, p);
            let mut covered = vec![false; p as usize];
            covered[0] = true;
            let mut cnt = 1;
            let mut q = std::collections::VecDeque::from([0usize]);
            while let Some(x) = q.pop_front() {
                for &c in &ch[x] {
                    assert!(!covered[c as usize]);
                    covered[c as usize] = true;
                    cnt += 1;
                    q.push_back(c as usize);
                }
            }
            assert_eq!(cnt, p, "binomial tree must span all {p} processors");
        }
    }

    #[test]
    fn single_processor_broadcast_is_free() {
        let m = LogP::new(6, 2, 4, 1).unwrap();
        assert_eq!(optimal_broadcast_time(&m), 0);
        assert_eq!(optimal_broadcast_tree(&m).completion(), 0);
    }

    #[test]
    fn children_lists_are_in_send_order() {
        let tree = optimal_broadcast_tree(&LogP::fig3());
        let ch = tree.children();
        // Root's children were created in increasing send-start order.
        let starts: Vec<_> = ch[0].iter().map(|&c| tree.send_start[c as usize]).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }

    #[test]
    fn huge_gap_machines_do_not_underflow() {
        // g > 2o + L: the source can inject its second message only after
        // a full gap exceeding the point-to-point time.
        let m = LogP::new(2, 1, 40, 8).unwrap();
        let t = optimal_broadcast_time(&m);
        assert_eq!(broadcast_reach(&m, t), 8);
        assert!(broadcast_reach(&m, t - 1) < 8);
        // And the greedy tree agrees.
        assert_eq!(optimal_broadcast_tree(&m).completion(), t);
    }

    #[test]
    fn binomial_helpers_are_mutually_consistent() {
        for p in [1u32, 2, 3, 7, 8, 16, 33, 100] {
            let mut recv = vec![0u32; p as usize];
            for i in 1..p {
                recv[binomial_parent(i) as usize] += 1;
            }
            let mut covered = 1u32;
            for i in 0..p {
                let ch = binomial_children(i, p);
                assert_eq!(ch.len() as u32, recv[i as usize], "P={p} node={i}");
                covered += ch.len() as u32;
            }
            assert_eq!(covered, p, "the tree must span all {p} nodes");
        }
    }

    #[test]
    fn postal_model_special_case() {
        // Footnote 3: with o = 0 and g = 1 the algorithm reduces to the
        // postal model; with L = 1 as well, reach doubles every cycle.
        let m = LogP::new(1, 0, 1, 1024).unwrap();
        assert_eq!(broadcast_reach(&m, 1), 2);
        assert_eq!(broadcast_reach(&m, 2), 4);
        assert_eq!(broadcast_reach(&m, 10), 1024);
        assert_eq!(optimal_broadcast_time(&m), 10);
    }
}
