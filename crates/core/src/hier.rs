//! Hierarchical LogP: nested levels of (L, o, g) for clusters of
//! multi-core machines.
//!
//! The paper's model is flat — one (L, o, g) for every processor pair —
//! but the machines it describes are now clusters of multi-core nodes
//! where intra-socket, intra-node and inter-node costs differ by orders
//! of magnitude. "A Model for Communication in Clusters of Multi-core
//! Machines" (arXiv:0810.2150) extends LogP with exactly this: a
//! distinct parameter set per topology level. This module provides:
//!
//! * [`Hierarchy`] — a validated machine description of nested
//!   [`Level`]s, innermost first (e.g. socket → node → cluster), with a
//!   `rank → path` topology map, the *lowest common level* parameter
//!   rule ([`Hierarchy::common_level`] / [`Hierarchy::params_between`]),
//!   per-level capacity constraints, and a flat-model projection for
//!   backward compatibility ([`Hierarchy::flat_projection`]);
//! * [`hier_broadcast_children`] — the hierarchical broadcast tree:
//!   leader election per level (the leader of a group is its lowest
//!   rank), then the flat-optimal tree of
//!   [`crate::broadcast::optimal_broadcast_tree`] *within* each level,
//!   recursing outermost-in so long-haul messages leave first;
//! * [`eval_broadcast`] / [`eval_reduce`] / [`eval_allreduce`] —
//!   closed-form per-pair cost evaluation of arbitrary tree schedules
//!   under the hierarchy, mirroring the `logp-sim` engine's timing laws
//!   cycle-exactly (the same laws
//!   [`crate::broadcast::tree_broadcast_times`] encodes for the flat
//!   model), so hierarchical-vs-flat crossovers are analytic and
//!   verified by simulation.
//!
//! Executable counterparts of the schedules live in `logp_algos::hier`;
//! the engine-side per-message parameter selection lives in `logp-sim`
//! (`Sim::new_hier`). The normative handbook is `docs/HIERARCHY.md`.

use crate::broadcast::optimal_broadcast_tree;
use crate::estimate::LogPEstimate;
use crate::params::{Cycles, LogP, ParamError, ProcId};
use crate::tree::{parent_edges, Children, Tree};

/// One topology level: its own (L, o, g) plus the `arity` — how many
/// units of the level below (ranks, for the innermost level) one group
/// at this level contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Level {
    /// Latency upper bound for messages whose lowest common level is
    /// this one, in cycles.
    pub l: Cycles,
    /// Per-message overhead at this level, in cycles.
    pub o: Cycles,
    /// Gap (minimum injection interval) at this level, in cycles.
    pub g: Cycles,
    /// Sub-units per group: ranks per group for the innermost level,
    /// level-(k-1) groups per level-k group above it.
    pub arity: u32,
}

impl Level {
    /// Construct a level; same parameter laws as [`LogP::new`] plus
    /// `arity >= 1`.
    pub fn new(l: Cycles, o: Cycles, g: Cycles, arity: u32) -> Result<Self, HierError> {
        if arity == 0 {
            return Err(HierError::ZeroArity);
        }
        LogP::new(l, o, g, 1).map_err(HierError::Param)?;
        Ok(Level { l, o, g, arity })
    }

    /// Network capacity of this level: `⌈L/g⌉` (§3's law, per level).
    pub fn capacity(&self) -> u64 {
        self.l.div_ceil(self.g)
    }

    /// End-to-end small-message time at this level: `2o + L`.
    pub fn point_to_point(&self) -> Cycles {
        2 * self.o + self.l
    }
}

/// Errors raised constructing a [`Hierarchy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HierError {
    /// A hierarchy needs at least one level.
    NoLevels,
    /// Every level must contain at least one sub-unit.
    ZeroArity,
    /// The total processor count overflows `u32`.
    TooManyProcessors,
    /// A level's (L, o, g) violates the flat model's parameter laws.
    Param(ParamError),
}

impl std::fmt::Display for HierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HierError::NoLevels => write!(f, "a hierarchy requires at least one level"),
            HierError::ZeroArity => write!(f, "every level must have arity >= 1"),
            HierError::TooManyProcessors => {
                write!(f, "total processor count exceeds u32::MAX")
            }
            HierError::Param(e) => write!(f, "invalid level parameters: {e}"),
        }
    }
}

impl std::error::Error for HierError {}

/// A multi-level machine description: nested levels, innermost first.
///
/// Rank `r`'s level-`k` group is `r / group_size(k)` (groups are
/// contiguous rank ranges); the *leader* of a group is its lowest rank.
/// A message between ranks `a != b` uses the parameters of their lowest
/// common level — the innermost level whose groups contain both.
///
/// ```
/// use logp_core::hier::{Hierarchy, Level};
/// // 4 nodes of 8 cores: cheap intra-node links, a 10x-latency fabric.
/// let h = Hierarchy::new(vec![
///     Level::new(6, 2, 4, 8).unwrap(),    // intra-node
///     Level::new(60, 10, 12, 4).unwrap(), // inter-node
/// ])
/// .unwrap();
/// assert_eq!(h.p(), 32);
/// assert_eq!(h.common_level(0, 7), 0);  // same node
/// assert_eq!(h.common_level(0, 8), 1);  // across nodes
/// assert_eq!(h.params_between(3, 5).l, 6);
/// assert_eq!(h.params_between(3, 29).l, 60);
/// // The flat projection is the outermost level over all ranks.
/// assert_eq!(h.flat_projection(), logp_core::LogP::new(60, 10, 12, 32).unwrap());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hierarchy {
    levels: Vec<Level>,
    /// `gsize[k]`: ranks per level-`k` group (cumulative arity product).
    gsize: Vec<u64>,
}

impl Hierarchy {
    /// Construct a validated hierarchy from levels listed innermost
    /// first. The total processor count is the product of all arities
    /// and must fit `u32`.
    pub fn new(levels: Vec<Level>) -> Result<Self, HierError> {
        if levels.is_empty() {
            return Err(HierError::NoLevels);
        }
        let mut gsize = Vec::with_capacity(levels.len());
        let mut prod: u64 = 1;
        for lv in &levels {
            if lv.arity == 0 {
                return Err(HierError::ZeroArity);
            }
            LogP::new(lv.l, lv.o, lv.g, 1).map_err(HierError::Param)?;
            prod = prod
                .checked_mul(lv.arity as u64)
                .ok_or(HierError::TooManyProcessors)?;
            if prod > u32::MAX as u64 {
                return Err(HierError::TooManyProcessors);
            }
            gsize.push(prod);
        }
        Ok(Hierarchy { levels, gsize })
    }

    /// A one-level hierarchy equivalent to the flat model `m`: its flat
    /// projection is `m` again, and every pair uses `m`'s parameters.
    ///
    /// ```
    /// use logp_core::{hier::Hierarchy, LogP};
    /// let h = Hierarchy::flat(&LogP::fig3());
    /// assert_eq!(h.depth(), 1);
    /// assert_eq!(h.flat_projection(), LogP::fig3());
    /// ```
    pub fn flat(m: &LogP) -> Self {
        Hierarchy {
            levels: vec![Level {
                l: m.l,
                o: m.o,
                g: m.g,
                arity: m.p,
            }],
            gsize: vec![m.p as u64],
        }
    }

    /// The common two-level shape: `nodes` nodes of `node_size` ranks,
    /// with `inner` (l, o, g) inside a node and `outer` between nodes.
    pub fn two_level(
        inner: (Cycles, Cycles, Cycles),
        node_size: u32,
        outer: (Cycles, Cycles, Cycles),
        nodes: u32,
    ) -> Result<Self, HierError> {
        Hierarchy::new(vec![
            Level::new(inner.0, inner.1, inner.2, node_size)?,
            Level::new(outer.0, outer.1, outer.2, nodes)?,
        ])
    }

    /// Build a hierarchy from per-level calibration results: measured
    /// [`LogPEstimate`]s (rounded to integer cycles) plus each level's
    /// arity — the shape `logp-calib`'s clustered probing recovers.
    pub fn from_estimates(levels: &[(LogPEstimate, u32)]) -> Result<Self, HierError> {
        Hierarchy::new(
            levels
                .iter()
                .map(|(est, arity)| {
                    let m = est.to_logp().map_err(HierError::Param)?;
                    Level::new(m.l, m.o, m.g, *arity)
                })
                .collect::<Result<Vec<_>, _>>()?,
        )
    }

    /// Number of levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The levels, innermost first.
    pub fn levels(&self) -> &[Level] {
        &self.levels
    }

    /// Level `k`'s parameters.
    pub fn level(&self, k: usize) -> &Level {
        &self.levels[k]
    }

    /// Total processor count (product of all arities).
    pub fn p(&self) -> u32 {
        self.gsize[self.levels.len() - 1] as u32
    }

    /// Ranks per level-`k` group.
    pub fn group_size(&self, k: usize) -> u64 {
        self.gsize[k]
    }

    /// Rank `r`'s topology path: `path(r)[k]` is the index of the
    /// level-`k` group containing `r` (innermost first; the outermost
    /// entry is always 0 — one machine).
    ///
    /// ```
    /// use logp_core::hier::{Hierarchy, Level};
    /// let h = Hierarchy::new(vec![
    ///     Level::new(6, 2, 4, 4).unwrap(),
    ///     Level::new(60, 10, 12, 3).unwrap(),
    /// ])
    /// .unwrap();
    /// assert_eq!(h.path(9), vec![2, 0]); // rank 9 = node 2, cluster 0
    /// ```
    pub fn path(&self, rank: ProcId) -> Vec<u32> {
        self.gsize
            .iter()
            .map(|&gs| (rank as u64 / gs) as u32)
            .collect()
    }

    /// The lowest common level of two ranks: the innermost level whose
    /// groups contain both. `common_level(a, a)` is 0.
    #[inline]
    pub fn common_level(&self, a: ProcId, b: ProcId) -> usize {
        let (a, b) = (a as u64, b as u64);
        for (k, &gs) in self.gsize.iter().enumerate() {
            if a / gs == b / gs {
                return k;
            }
        }
        unreachable!("the outermost group spans every rank")
    }

    /// The parameter selection rule: a message between `a` and `b` pays
    /// the (L, o, g) of their lowest common level.
    #[inline]
    pub fn params_between(&self, a: ProcId, b: ProcId) -> &Level {
        &self.levels[self.common_level(a, b)]
    }

    /// The flat-model projection: the outermost level's (L, o, g) over
    /// the total processor count. A 1-level hierarchy projects back to
    /// exactly the model it was built from, which is the backward-
    /// compatibility contract the engine identity tests pin.
    pub fn flat_projection(&self) -> LogP {
        let top = self.levels[self.levels.len() - 1];
        LogP {
            l: top.l,
            o: top.o,
            g: top.g,
            p: self.p(),
        }
    }

    /// Level `k`'s capacity constraint `⌈L_k/g_k⌉`.
    pub fn level_capacity(&self, k: usize) -> u64 {
        self.levels[k].capacity()
    }

    /// The loosest per-endpoint capacity window over all levels
    /// (`max_k ⌈L_k/g_k⌉`) — the single-window bound the sharded engine
    /// enforces (the classic engine enforces each level separately; see
    /// `docs/HIERARCHY.md`).
    pub fn capacity(&self) -> u64 {
        self.levels.iter().map(Level::capacity).max().unwrap_or(1)
    }

    /// The leader of rank `r`'s level-`k` group: its lowest rank (the
    /// leader-election convention every hierarchical collective uses).
    pub fn leader_of(&self, k: usize, rank: ProcId) -> ProcId {
        let gs = self.gsize[k];
        ((rank as u64 / gs) * gs) as ProcId
    }

    /// The ranks of rank `r`'s level-`k` group (a contiguous range).
    pub fn group_members(&self, k: usize, rank: ProcId) -> std::ops::Range<ProcId> {
        let lead = self.leader_of(k, rank) as u64;
        let gs = self.gsize[k];
        (lead as ProcId)..((lead + gs).min(self.p() as u64) as ProcId)
    }

    /// The conservative cross-processor lookahead under jitter `j`: the
    /// minimum over levels of `o_k + (L_k - min(j, L_k - 1))`. No send
    /// can cause an arrival sooner than this, whichever level it uses —
    /// the sharded engine's window bound.
    pub fn min_lookahead(&self, jitter: Cycles) -> Cycles {
        self.levels
            .iter()
            .map(|lv| lv.o + (lv.l - jitter.min(lv.l.saturating_sub(1))))
            .min()
            .expect("at least one level")
    }

    /// The furthest an arrival can land past its send start:
    /// `max_k (o_k + L_k)` (sizes the sharded engine's calendar ring).
    pub fn max_reach(&self) -> Cycles {
        self.levels
            .iter()
            .map(|lv| lv.o + lv.l)
            .max()
            .expect("at least one level")
    }

    /// Round a contiguous lane width up to a multiple of the largest
    /// level-group size that fits within it, so lane boundaries align
    /// with topology boundaries and intra-group traffic stays
    /// lane-local. Widths smaller than the innermost group are returned
    /// unchanged.
    pub fn align_lane(&self, per: usize) -> usize {
        let mut best = None;
        for &gs in &self.gsize {
            if gs as usize <= per {
                best = Some(gs as usize);
            }
        }
        match best {
            Some(gs) => per.div_ceil(gs) * gs,
            None => per,
        }
    }
}

impl std::fmt::Display for Hierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Hierarchy(P={}", self.p())?;
        for (k, lv) in self.levels.iter().enumerate() {
            write!(f, ", L{k}: L={} o={} g={} x{}", lv.l, lv.o, lv.g, lv.arity)?;
        }
        write!(f, ")")
    }
}

// ---------------------------------------------------------------------
// Analytic schedule evaluation
// ---------------------------------------------------------------------

/// Per-processor timing state threaded through the evaluators — exactly
/// the three clocks the `logp-sim` engine keeps per processor.
#[derive(Debug, Clone, Copy, Default)]
struct PState {
    /// The processor is occupied (overhead or compute) until this time.
    busy: Cycles,
    /// Earliest start of the next injection (gap law).
    send_slot: Cycles,
    /// Earliest start of the next reception (gap law).
    recv_slot: Cycles,
}

/// Build the hierarchical broadcast tree rooted at rank 0: per-level
/// leader election (lowest rank), then the flat-optimal tree of
/// [`optimal_broadcast_tree`] over each group's sub-leaders with that
/// level's parameters, recursing outermost-in. Each sender's child list
/// is ordered outermost level first, so the long-latency messages leave
/// before the cheap local ones.
///
/// Returns the [`Tree`] of who sends to whom, in send order — what
/// [`eval_broadcast`] prices and `logp_algos::hier` runs. Every group of
/// a level has the same `(L, o, g, arity)`, so one optimal tree is built
/// per *level* and laid over each of the level's groups.
///
/// ```
/// use logp_core::hier::{hier_broadcast_children, Hierarchy, Level};
/// let h = Hierarchy::new(vec![
///     Level::new(6, 2, 4, 4).unwrap(),
///     Level::new(60, 10, 12, 2).unwrap(),
/// ])
/// .unwrap();
/// let ch = hier_broadcast_children(&h);
/// // Rank 0 reaches the other node's leader (rank 4) directly …
/// assert!(ch[0].contains(&4));
/// // … and only leaders ever cross the node boundary.
/// for (i, kids) in ch.iter().enumerate() {
///     for &c in kids {
///         if h.common_level(i as u32, c) == 1 {
///             assert_eq!(i as u32 % 4, 0);
///             assert_eq!(c % 4, 0);
///         }
///     }
/// }
/// ```
pub fn hier_broadcast_children(h: &Hierarchy) -> Tree {
    let p = h.p() as u64;
    // Level k's optimal tree, over the node numbers 0..arity: node j
    // stands for a group's j-th sub-leader (node 0 for its leader), and
    // the tree numbers nodes in arrival order.
    let level_parents: Vec<Vec<Option<ProcId>>> = h
        .levels()
        .iter()
        .map(|lv| {
            let m = LogP {
                l: lv.l,
                o: lv.o,
                g: lv.g,
                p: lv.arity,
            };
            optimal_broadcast_tree(&m).parent
        })
        .collect();
    // Outermost level first: grouping keeps each sender's edges in the
    // order they are listed, so its long-haul sends come before its local
    // ones, and within a level in the optimal tree's order.
    let edges = (0..h.depth()).rev().flat_map(|k| {
        let sub = if k == 0 { 1 } else { h.group_size(k - 1) };
        let tree = &level_parents[k];
        (0..p)
            .step_by(h.group_size(k) as usize)
            .flat_map(move |base| {
                let rank = move |node: ProcId| (base + node as u64 * sub) as ProcId;
                parent_edges(tree).map(move |(from, to)| (rank(from), rank(to)))
            })
    });
    Tree::group(p as usize, 0, edges)
}

/// Evaluate a broadcast along a fixed tree on the hierarchical machine:
/// `children[i]` lists the ranks `i` sends to, in order; every message
/// pays its pair's lowest-common-level (L, o, g). Returns per-rank
/// ready times (root = rank 0, ready at 0).
///
/// On a 1-level hierarchy this reproduces
/// [`crate::broadcast::tree_broadcast_times`] exactly:
///
/// ```
/// use logp_core::broadcast::{optimal_broadcast_tree, tree_broadcast_times};
/// use logp_core::hier::{eval_broadcast, Hierarchy};
/// use logp_core::LogP;
/// let m = LogP::fig3();
/// let ch = optimal_broadcast_tree(&m).children();
/// assert_eq!(eval_broadcast(&Hierarchy::flat(&m), &ch), tree_broadcast_times(&m, &ch));
/// ```
///
/// # Panics
///
/// This and the other two evaluators panic with the
/// [`crate::TreeError`]'s message, before they walk anything, when a tree
/// they are given does not span the machine's ranks from rank 0.
pub fn eval_broadcast<C: Children + ?Sized>(h: &Hierarchy, children: &C) -> Vec<Cycles> {
    must_span(h, children);
    let mut st = vec![PState::default(); h.p() as usize];
    eval_bcast_phase(h, children, &mut st, 0, 0)
}

/// The evaluators' one look at a tree before they walk it.
fn must_span<C: Children + ?Sized>(h: &Hierarchy, tree: &C) {
    assert_eq!(
        tree.ranks(),
        h.p() as usize,
        "a tree lists every rank's children"
    );
    tree.check(0).unwrap_or_else(|e| panic!("{e}"));
}

/// One broadcast phase over existing per-processor clocks (the all-
/// reduce's down phase reuses the up phase's state).
fn eval_bcast_phase<C: Children + ?Sized>(
    h: &Hierarchy,
    children: &C,
    st: &mut [PState],
    root: ProcId,
    t0: Cycles,
) -> Vec<Cycles> {
    let mut ready = vec![0; children.ranks()];
    ready[root as usize] = t0;
    let mut queue = std::collections::VecDeque::from([root as usize]);
    while let Some(node) = queue.pop_front() {
        for &c in children.of(node) {
            let lv = h.params_between(node as ProcId, c);
            // Injection: earliest start respecting the sender's
            // occupancy and gap; occupies `o`, re-arms the gap at `g`.
            let s = st[node].busy.max(st[node].send_slot);
            st[node].busy = s + lv.o;
            st[node].send_slot = s + lv.g;
            // Flight, then reception start gated by the receiver's
            // occupancy and receive gap; the datum is usable (and the
            // receiver may retransmit) after the receive overhead.
            let arrival = s + lv.o + lv.l;
            let ci = c as usize;
            let r = arrival.max(st[ci].busy).max(st[ci].recv_slot);
            st[ci].busy = r + lv.o;
            st[ci].recv_slot = r + lv.g;
            ready[ci] = r + lv.o;
            queue.push_back(ci);
        }
    }
    ready
}

/// Evaluate a reduction along the *reverse* of a fixed tree: leaves
/// send up immediately, each interior rank receives its children's
/// partials in arrival order, pays one combine cycle per partial
/// (`compute(1)`, as the executable programs do), and forwards to its
/// parent once all children are in. Returns per-rank done times (the
/// instant a rank's partial is complete); the root's entry is the
/// reduction's completion.
pub fn eval_reduce<C: Children + ?Sized>(h: &Hierarchy, children: &C) -> Vec<Cycles> {
    must_span(h, children);
    let mut st = vec![PState::default(); h.p() as usize];
    eval_reduce_phase(h, children, &mut st, 0)
}

fn eval_reduce_phase<C: Children + ?Sized>(
    h: &Hierarchy,
    children: &C,
    st: &mut [PState],
    root: ProcId,
) -> Vec<Cycles> {
    let p = children.ranks();
    // Post-order: children strictly before parents.
    let mut order = Vec::with_capacity(p);
    let mut stack = vec![(root as usize, false)];
    while let Some((node, expanded)) = stack.pop() {
        if expanded {
            order.push(node);
        } else {
            stack.push((node, true));
            for &c in children.of(node) {
                stack.push((c as usize, false));
            }
        }
    }
    let mut done = vec![0; p];
    for &node in &order {
        if children.of(node).is_empty() {
            continue; // leaf: partial ready at 0
        }
        // Each child sends its finished partial up; the message leaves
        // as soon as the child is free (its combine pipeline drains).
        let mut inbound: Vec<(Cycles, Cycles, usize)> = children
            .of(node)
            .iter()
            .map(|&c| {
                let ci = c as usize;
                let lv = h.params_between(node as ProcId, c);
                let s = st[ci].busy.max(st[ci].send_slot).max(done[ci]);
                st[ci].busy = s + lv.o;
                st[ci].send_slot = s + lv.g;
                (s + lv.o + lv.l, s, ci)
            })
            .collect();
        // Receptions happen in arrival order (engine inbox order; ties
        // resolve by send start, matching the classic engine's
        // injection-ordered sequence numbers).
        inbound.sort_unstable_by_key(|&(a, s, _)| (a, s));
        for (arrival, _, ci) in inbound {
            let lv = h.params_between(node as ProcId, ci as ProcId);
            let r = arrival.max(st[node].busy).max(st[node].recv_slot);
            st[node].recv_slot = r + lv.g;
            // Receive overhead, then the one-cycle combine.
            st[node].busy = r + lv.o + 1;
        }
        done[node] = st[node].busy;
    }
    done
}

/// Per-rank result times of an all-reduce: reduce up the reverse of
/// `up`, then broadcast the total down `down`, with every rank's
/// occupancy and gap clocks carried across the two phases. Both trees
/// must be rooted at rank 0. Returns the time each rank holds the final
/// value; the maximum is the completion.
pub fn eval_allreduce<U, D>(h: &Hierarchy, up: &U, down: &D) -> Vec<Cycles>
where
    U: Children + ?Sized,
    D: Children + ?Sized,
{
    must_span(h, up);
    must_span(h, down);
    let mut st = vec![PState::default(); h.p() as usize];
    let done = eval_reduce_phase(h, up, &mut st, 0);
    let mut ready = eval_bcast_phase(h, down, &mut st, 0, done[0]);
    ready[0] = done[0];
    ready
}

/// Completion time of the hierarchical broadcast
/// ([`hier_broadcast_children`] evaluated by [`eval_broadcast`]).
pub fn hier_broadcast_time(h: &Hierarchy) -> Cycles {
    if h.p() <= 1 {
        return 0;
    }
    eval_broadcast(h, &hier_broadcast_children(h))
        .into_iter()
        .max()
        .expect("P >= 2")
}

/// Completion time of the topology-*oblivious* comparator: the flat-
/// optimal broadcast tree built from [`Hierarchy::flat_projection`],
/// executed on the hierarchical machine (same network, same laws —
/// only the schedule ignores the topology).
pub fn flat_broadcast_time_on(h: &Hierarchy) -> Cycles {
    if h.p() <= 1 {
        return 0;
    }
    let ch = optimal_broadcast_tree(&h.flat_projection()).children();
    eval_broadcast(h, &ch).into_iter().max().expect("P >= 2")
}

/// Completion time of the hierarchical all-reduce (reduce and broadcast
/// both along the hierarchical tree).
pub fn hier_allreduce_time(h: &Hierarchy) -> Cycles {
    if h.p() <= 1 {
        return 0;
    }
    let ch = hier_broadcast_children(h);
    eval_allreduce(h, &ch, &ch)
        .into_iter()
        .max()
        .expect("P >= 2")
}

/// Completion time of the flat all-reduce comparator on the
/// hierarchical machine (reduce and broadcast along the flat-optimal
/// tree of the projection).
pub fn flat_allreduce_time_on(h: &Hierarchy) -> Cycles {
    if h.p() <= 1 {
        return 0;
    }
    let ch = optimal_broadcast_tree(&h.flat_projection()).children();
    eval_allreduce(h, &ch, &ch)
        .into_iter()
        .max()
        .expect("P >= 2")
}

/// Completion time of the hierarchical reduction (summation to rank 0).
pub fn hier_sum_time(h: &Hierarchy) -> Cycles {
    eval_reduce(h, &hier_broadcast_children(h))[0]
}

/// Completion time of the flat reduction comparator on the hierarchical
/// machine.
pub fn flat_sum_time_on(h: &Hierarchy) -> Cycles {
    let ch = optimal_broadcast_tree(&h.flat_projection()).children();
    eval_reduce(h, &ch)[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broadcast::{optimal_broadcast_tree, tree_broadcast_times};
    use crate::machines::MachinePreset;

    fn two_level() -> Hierarchy {
        Hierarchy::two_level((6, 2, 4), 8, (60, 10, 12), 4).unwrap()
    }

    #[test]
    fn validation_rejects_degenerate_hierarchies() {
        assert_eq!(Hierarchy::new(vec![]), Err(HierError::NoLevels));
        assert_eq!(Level::new(6, 2, 4, 0), Err(HierError::ZeroArity));
        assert_eq!(
            Level::new(6, 2, 0, 4),
            Err(HierError::Param(ParamError::ZeroGap))
        );
        assert_eq!(
            Level::new(0, 2, 4, 4),
            Err(HierError::Param(ParamError::ZeroLatency))
        );
        let huge = Level::new(1, 0, 1, u32::MAX).unwrap();
        assert_eq!(
            Hierarchy::new(vec![huge, huge]),
            Err(HierError::TooManyProcessors)
        );
    }

    #[test]
    fn topology_map_and_leaders() {
        let h = two_level();
        assert_eq!(h.p(), 32);
        assert_eq!(h.group_size(0), 8);
        assert_eq!(h.group_size(1), 32);
        assert_eq!(h.path(0), vec![0, 0]);
        assert_eq!(h.path(13), vec![1, 0]);
        assert_eq!(h.leader_of(0, 13), 8);
        assert_eq!(h.leader_of(1, 13), 0);
        assert_eq!(h.group_members(0, 13), 8..16);
        assert_eq!(h.common_level(13, 13), 0);
        assert_eq!(h.common_level(8, 15), 0);
        assert_eq!(h.common_level(7, 8), 1);
        assert_eq!(h.params_between(7, 8).l, 60);
    }

    #[test]
    fn one_level_projects_back_to_its_flat_model() {
        for preset in MachinePreset::all() {
            let m = preset.logp;
            let h = Hierarchy::flat(&m);
            assert_eq!(h.flat_projection(), m);
            assert_eq!(h.capacity(), m.capacity());
            assert_eq!(h.common_level(0, m.p - 1), 0);
        }
    }

    #[test]
    fn one_level_eval_matches_flat_tree_times() {
        for m in [
            LogP::fig3(),
            LogP::fig4(),
            LogP::new(60, 20, 40, 16).unwrap(),
        ] {
            let h = Hierarchy::flat(&m);
            let ch = optimal_broadcast_tree(&m).children();
            assert_eq!(eval_broadcast(&h, &ch), tree_broadcast_times(&m, &ch));
        }
    }

    #[test]
    fn hier_tree_spans_every_rank_once() {
        for h in [
            two_level(),
            Hierarchy::two_level((2, 1, 1), 3, (50, 8, 9), 5).unwrap(),
            Hierarchy::new(vec![
                Level::new(2, 1, 1, 4).unwrap(),
                Level::new(20, 4, 6, 3).unwrap(),
                Level::new(200, 30, 40, 2).unwrap(),
            ])
            .unwrap(),
        ] {
            let ch = hier_broadcast_children(&h);
            let times = eval_broadcast(&h, &ch); // panics on double coverage
            assert_eq!(times.len(), h.p() as usize);
            assert_eq!(times[0], 0);
        }
    }

    #[test]
    fn hier_broadcast_beats_flat_when_levels_diverge() {
        // A steep two-level machine: local links are ~10x cheaper than
        // the fabric, so reaching each node once and fanning out
        // locally beats the topology-oblivious optimal tree.
        let h = Hierarchy::two_level((6, 2, 4), 16, (200, 20, 30), 8).unwrap();
        assert!(
            hier_broadcast_time(&h) < flat_broadcast_time_on(&h),
            "hier {} !< flat {}",
            hier_broadcast_time(&h),
            flat_broadcast_time_on(&h)
        );
        assert!(hier_allreduce_time(&h) < flat_allreduce_time_on(&h));
        assert!(hier_sum_time(&h) < flat_sum_time_on(&h));
    }

    #[test]
    fn flat_wins_when_the_hierarchy_is_degenerate() {
        // Identical parameters at both levels: the "hierarchy" is just
        // a flat machine, and the flat-optimal tree is optimal by
        // construction — the hierarchical schedule cannot beat it.
        let h = Hierarchy::two_level((6, 2, 4), 8, (6, 2, 4), 4).unwrap();
        assert!(hier_broadcast_time(&h) >= flat_broadcast_time_on(&h));
    }

    #[test]
    fn lookahead_and_reach_bounds() {
        let h = two_level();
        assert_eq!(h.min_lookahead(0), 2 + 6);
        assert_eq!(h.min_lookahead(3), 2 + 3);
        assert_eq!(h.max_reach(), 70);
        assert_eq!(h.capacity(), 5); // max(ceil(6/4)=2, ceil(60/12)=5)
        assert_eq!(h.level_capacity(0), 2);
    }

    #[test]
    fn lane_alignment_rounds_to_group_boundaries() {
        let h = two_level(); // groups of 8
        assert_eq!(h.align_lane(8), 8);
        assert_eq!(h.align_lane(9), 16);
        assert_eq!(h.align_lane(16), 16);
        assert_eq!(h.align_lane(3), 3); // below the innermost group
    }

    #[test]
    fn from_estimates_round_trips_exact_levels() {
        use crate::estimate::ParamEstimate;
        let est = |l: f64, o: f64, g: f64, p: u32| LogPEstimate {
            l: ParamEstimate::exact(l),
            o: ParamEstimate::exact(o),
            g: ParamEstimate::exact(g),
            p,
        };
        let h = Hierarchy::from_estimates(&[
            (est(6.0, 2.0, 4.0, 8), 8),
            (est(60.0, 10.0, 12.0, 32), 4),
        ])
        .unwrap();
        assert_eq!(h, two_level());
    }

    #[test]
    fn display_is_informative() {
        let h = two_level();
        assert_eq!(
            h.to_string(),
            "Hierarchy(P=32, L0: L=6 o=2 g=4 x8, L1: L=60 o=10 g=12 x4)"
        );
    }
}
