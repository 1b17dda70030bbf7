//! The one tree object: who sends to whom, in what order, stored once.
//!
//! Every tree collective of the workspace — the optimal broadcast of
//! §3.3, the baseline shapes, the binomial reduction, the hierarchical
//! tree, the survivor trees of a fault plan — is a rooted tree over
//! processor ids in which each rank's children are ordered (the order it
//! sends to them). [`Tree`] stores that as two flat arrays (compressed
//! sparse rows: 8 bytes a rank, two allocations a tree) and is what every
//! builder of the library returns; the evaluators of
//! [`crate::hier`] price it and the runners of `logp-algos` execute it,
//! the same object.
//!
//! A tree somebody else wrote down — child lists, a parent array — is
//! outside input: [`Tree::try_from_lists`] and [`Tree::from_parents`]
//! check it once, in `O(P)`, and say what is wrong with a
//! [`TreeError`]. The functions that price or run a tree take it through
//! the [`Children`] view, which child lists implement too, and run the
//! same check on lists before they walk them; a [`Tree`] was checked when
//! it was made.

use crate::params::ProcId;

/// A rooted tree over the ranks `0..len()`, each rank's children in the
/// order it sends to them. Ranks the tree does not reach (the crashed
/// processors of a survivor tree) have no children and no parent.
///
/// ```
/// use logp_core::{Tree, TreeError};
/// let t = Tree::try_from_lists(&vec![vec![1, 2], vec![3], vec![], vec![]]).unwrap();
/// assert_eq!(t.len(), 4);
/// assert_eq!(t[0], [1, 2]);
/// assert!(t[2].is_empty());
/// assert_eq!(t.iter().map(<[_]>::len).sum::<usize>(), 3);
/// // A cycle hangs below no root.
/// let cycle = Tree::try_from_lists(&vec![vec![1], vec![0]]);
/// assert_eq!(cycle, Err(TreeError::Unreached { rank: 0 }));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tree {
    /// Rank `i`'s children are `kids[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    kids: Vec<ProcId>,
    /// The rank every rank with a parent hangs below.
    root: ProcId,
}

/// What is wrong with child lists or a parent array that are not a tree
/// spanning their ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeError {
    /// `rank` appears in the tree but the tree has only `p` ranks.
    OutOfRange { rank: ProcId, p: usize },
    /// `rank` is in two child lists, or twice in one.
    TwoParents { rank: ProcId },
    /// Nothing that starts at the root gets to `rank`: it is in no child
    /// list, or its ancestors close a cycle (a root that is itself
    /// somebody's child is on one).
    Unreached { rank: ProcId },
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            TreeError::OutOfRange { rank, p } => {
                write!(f, "rank {rank} is not one of the tree's {p} ranks")
            }
            TreeError::TwoParents { rank } => write!(f, "rank {rank} has two parents"),
            TreeError::Unreached { rank } => {
                write!(f, "rank {rank} is never reached from the root")
            }
        }
    }
}

impl std::error::Error for TreeError {}

/// Per-rank ordered child lists, however they are stored: what the
/// evaluators and runners read a tree through. Implemented by [`Tree`]
/// and, so that a tree written down by hand can be priced and run as it
/// stands, by `[Vec<ProcId>]` and `Vec<Vec<ProcId>>`.
pub trait Children {
    /// How many ranks the lists are indexed by.
    fn ranks(&self) -> usize;

    /// Whom `rank` sends to, in send order.
    fn of(&self, rank: usize) -> &[ProcId];

    /// `Ok` when the lists are a tree rooted at `root` that reaches every
    /// rank exactly once; otherwise the first thing wrong with them.
    /// `O(ranks)` time and memory whatever the lists hold.
    fn check(&self, root: ProcId) -> Result<(), TreeError> {
        check_lists(self, root)
    }
}

impl Children for [Vec<ProcId>] {
    fn ranks(&self) -> usize {
        self.len()
    }

    fn of(&self, rank: usize) -> &[ProcId] {
        &self[rank]
    }
}

impl Children for Vec<Vec<ProcId>> {
    fn ranks(&self) -> usize {
        self.len()
    }

    fn of(&self, rank: usize) -> &[ProcId] {
        &self[rank]
    }
}

impl Children for Tree {
    fn ranks(&self) -> usize {
        self.len()
    }

    fn of(&self, rank: usize) -> &[ProcId] {
        &self[rank]
    }

    /// A `Tree` was checked when it was made: it spans its ranks from
    /// `root` if that is its root and every other rank has a parent.
    fn check(&self, root: ProcId) -> Result<(), TreeError> {
        if root == self.root && self.kids.len() + 1 == self.len() {
            return Ok(());
        }
        check_lists(self, root)
    }
}

/// The check behind [`Children::check`]: every child in range, nobody
/// under two parents, then one walk from the root. Because no rank has
/// two parents the walk enters each rank at most once — a cycle cannot be
/// entered at all — so it ends within `ranks` steps on any input.
fn check_lists<C: Children + ?Sized>(lists: &C, root: ProcId) -> Result<(), TreeError> {
    const HAS_PARENT: u8 = 1;
    const REACHED: u8 = 2;
    let p = lists.ranks();
    let in_range = |rank: ProcId| match rank as usize {
        r if r < p => Ok(r),
        _ => Err(TreeError::OutOfRange { rank, p }),
    };
    let root = in_range(root)?;
    let mut state = vec![0u8; p];
    for i in 0..p {
        for &rank in lists.of(i) {
            let k = in_range(rank)?;
            if state[k] == HAS_PARENT {
                return Err(TreeError::TwoParents { rank });
            }
            state[k] = HAS_PARENT;
        }
    }
    if state[root] == HAS_PARENT {
        return Err(TreeError::Unreached {
            rank: root as ProcId,
        });
    }
    state[root] = REACHED;
    let mut stack = vec![root];
    while let Some(i) = stack.pop() {
        for &k in lists.of(i) {
            state[k as usize] = REACHED;
            stack.push(k as usize);
        }
    }
    match state.iter().position(|&s| s != REACHED) {
        Some(rank) => Err(TreeError::Unreached {
            rank: rank as ProcId,
        }),
        None => Ok(()),
    }
}

impl Tree {
    /// Number of ranks the tree is indexed by.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the tree has no ranks at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every rank's children, in rank order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[ProcId]> + '_ {
        self.offsets
            .windows(2)
            .map(|w| &self.kids[w[0] as usize..w[1] as usize])
    }

    /// Group `(parent, child)` edges by parent in one counting pass, each
    /// parent's children in the order the edges list them. The edges must
    /// be those of a tree hanging from `root`: the library's own builders
    /// call this, outside input goes through the checked constructors.
    pub(crate) fn group(
        p: usize,
        root: ProcId,
        edges: impl Iterator<Item = (ProcId, ProcId)> + Clone,
    ) -> Tree {
        // Counted two places up, `offsets[i + 1]` is where rank `i`'s
        // children start once summed, and where they end once filled —
        // which is where rank `i + 1`'s start.
        let mut offsets = vec![0u32; p + 2];
        for (from, _) in edges.clone() {
            offsets[from as usize + 2] += 1;
        }
        for i in 2..p + 2 {
            offsets[i] += offsets[i - 1];
        }
        let mut kids = vec![0; offsets[p + 1] as usize];
        for (from, to) in edges {
            let slot = &mut offsets[from as usize + 1];
            kids[*slot as usize] = to;
            *slot += 1;
        }
        offsets.truncate(p + 1);
        Tree {
            offsets,
            kids,
            root,
        }
    }

    /// The tree rooted at rank 0 in which `c`'s parent is `parent(c)` and
    /// every rank sends to its children in id order.
    pub(crate) fn rooted_at_zero(p: u32, parent: impl Fn(ProcId) -> ProcId + Clone) -> Tree {
        Tree::group(p as usize, 0, (1..p).map(|c| (parent(c), c)))
    }

    /// The tree of child lists that span their ranks from rank 0, or what
    /// is wrong with them.
    pub fn try_from_lists<C: Children + ?Sized>(lists: &C) -> Result<Tree, TreeError> {
        lists.check(0)?;
        let p = lists.ranks();
        let mut offsets = Vec::with_capacity(p + 1);
        let mut kids = Vec::with_capacity(p - 1);
        offsets.push(0);
        for i in 0..p {
            kids.extend_from_slice(lists.of(i));
            offsets.push(kids.len() as u32);
        }
        Ok(Tree {
            offsets,
            kids,
            root: 0,
        })
    }

    /// The tree of a parent array — `parent[i]` sent to `i`, the root's
    /// entry is `None` — every rank's children in id order, or what is
    /// wrong with the array: a parent out of range, a second rank without
    /// a parent, a cycle.
    pub fn from_parents(parent: &[Option<ProcId>]) -> Result<Tree, TreeError> {
        let p = parent.len();
        if let Some(&rank) = parent.iter().flatten().find(|&&a| a as usize >= p) {
            return Err(TreeError::OutOfRange { rank, p });
        }
        // No rank without a parent: every rank is on a cycle or below one.
        let root = parent
            .iter()
            .position(Option::is_none)
            .ok_or(TreeError::Unreached { rank: 0 })? as ProcId;
        let tree = Tree::group(p, root, parent_edges(parent));
        check_lists(&tree, root)?;
        Ok(tree)
    }

    /// The canonical binomial tree over `p` ranks, rooted at 0
    /// (trailing-zeros convention): `tree[i]` is
    /// [`crate::broadcast::binomial_children`]`(i, p)`.
    pub fn binomial(p: u32) -> Tree {
        Tree::rooted_at_zero(p, crate::broadcast::binomial_parent)
    }

    /// The same tree on a machine of `p` processors, its rank `r` renamed
    /// `ids[r]`; the processors `ids` leaves out are in no child list and
    /// have none. `ids` must ascend (as a fault plan's survivors do), so
    /// the renamed lists are the old ones in the old order.
    pub fn relabel(&self, p: u32, ids: &[ProcId]) -> Tree {
        assert_eq!(ids.len(), self.len(), "one id for every rank");
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]) && ids.last().is_none_or(|&id| id < p),
            "ids ascend and name processors of the machine"
        );
        // A renamed rank's children end where they did; a processor `ids`
        // leaves out has none, so its end is its predecessor's.
        let mut offsets = vec![0; p as usize + 1];
        for (&end, &id) in self.offsets[1..].iter().zip(ids) {
            offsets[id as usize + 1] = end;
        }
        for i in 1..offsets.len() {
            offsets[i] = offsets[i].max(offsets[i - 1]);
        }
        Tree {
            offsets,
            kids: self.kids.iter().map(|&k| ids[k as usize]).collect(),
            root: ids.get(self.root as usize).copied().unwrap_or(0),
        }
    }
}

/// The `(parent, child)` edges of a parent array, in child order.
pub(crate) fn parent_edges(
    parent: &[Option<ProcId>],
) -> impl Iterator<Item = (ProcId, ProcId)> + Clone + '_ {
    parent.iter().zip(0..).filter_map(|(a, c)| Some(((*a)?, c)))
}

impl std::ops::Index<usize> for Tree {
    type Output = [ProcId];

    fn index(&self, rank: usize) -> &[ProcId] {
        &self.kids[self.offsets[rank] as usize..self.offsets[rank + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouping_keeps_each_parents_edge_order() {
        // Rank 0 sends to 3 before 1: edge order, not id order.
        let t = Tree::group(4, 0, [(0, 3), (3, 2), (0, 1)].into_iter());
        assert_eq!(t.iter().collect::<Vec<_>>(), [&[3, 1][..], &[], &[], &[2]]);
        assert_eq!(t.root, 0);
        assert_eq!(t.check(0), Ok(()));
    }

    #[test]
    fn relabelled_trees_skip_the_missing_processors() {
        let t = Tree::try_from_lists(&vec![vec![2, 1], vec![], vec![3], vec![]]).unwrap();
        let on8 = t.relabel(8, &[1, 2, 5, 7]);
        assert_eq!(on8.len(), 8);
        assert_eq!(on8.root, 1);
        assert_eq!(on8[1], [5, 2]);
        assert_eq!(on8[5], [7]);
        for crashed in [0, 3, 4, 6] {
            assert!(on8[crashed].is_empty());
        }
        // It spans the survivors, not the machine.
        assert_eq!(on8.check(1), Err(TreeError::Unreached { rank: 0 }));
    }

    #[test]
    fn a_single_rank_is_a_tree() {
        let t = Tree::try_from_lists(&vec![vec![]]).unwrap();
        assert_eq!((t.len(), t.is_empty()), (1, false));
        assert_eq!(Tree::binomial(1), t);
        assert_eq!(Tree::from_parents(&[None]), Ok(t));
    }
}
