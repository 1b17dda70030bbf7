//! Shared machinery for fault-tolerant collectives: survivor remapping.
//!
//! The paper's schedules assume all `P` processors participate. When a
//! [`logp_sim::FaultPlan`] crash-stops some of them, the collectives in
//! [`crate::broadcast`], [`crate::reduce`], [`crate::allreduce`] and
//! [`crate::kbroadcast`] degrade gracefully instead: they rebuild their
//! communication trees over the `k` survivors — re-rooting if the root
//! itself crashed — and run the same optimal schedule on the induced
//! `k`-processor machine. [`SurvivorMap`] is the rank translation that
//! makes this mechanical: contiguous *ranks* `0..k` (which the
//! `logp-core` tree constructions understand) on one side, the surviving
//! physical processor ids on the other.

use logp_core::broadcast::optimal_broadcast_tree;
use logp_core::{LogP, ProcId, Tree};
use logp_sim::{FaultPlan, SimError};

/// Why a resilient collective could not run, or could not finish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResilientError {
    /// Every processor is scheduled to crash — there is no survivor to
    /// re-root on.
    AllCrashed,
    /// The network beat the delivery guarantee: not every survivor
    /// finished exactly once. `finished` counts completions — below
    /// `survivors` when a message was lost for good (plain sends, or a
    /// retry budget spent), above it when an unreliable collective took a
    /// duplicate for news.
    Incomplete { finished: usize, survivors: usize },
    /// The engine refused the run or gave it up: the fault plan crashes a
    /// processor the machine lacks, the event budget ran out, ...
    Engine(SimError),
}

impl std::fmt::Display for ResilientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResilientError::AllCrashed => write!(f, "all processors crash in the fault plan"),
            ResilientError::Incomplete {
                finished,
                survivors,
            } => write!(
                f,
                "the collective finished {finished} times on {survivors} survivors"
            ),
            ResilientError::Engine(e) => write!(f, "the engine stopped the collective: {e}"),
        }
    }
}

impl std::error::Error for ResilientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResilientError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

/// Bijection between survivor *ranks* `0..k` and physical processor ids.
///
/// Rank 0 — the lowest-numbered survivor — is the root of every rebuilt
/// tree, so a crashed physical root transparently re-roots the
/// collective.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SurvivorMap {
    survivors: Vec<ProcId>,
    rank: Vec<Option<u32>>,
}

impl SurvivorMap {
    /// Build the map for a `p`-processor machine under `plan`. Any
    /// processor with a scheduled crash — at whatever cycle — is
    /// excluded; a collective must not route through a processor that
    /// dies mid-run. Errors when nobody survives.
    pub fn new(p: u32, plan: &FaultPlan) -> Result<Self, ResilientError> {
        let survivors = plan.survivors(p);
        if survivors.is_empty() {
            return Err(ResilientError::AllCrashed);
        }
        let mut rank = vec![None; p as usize];
        for (r, &id) in survivors.iter().enumerate() {
            rank[id as usize] = Some(r as u32);
        }
        Ok(SurvivorMap { survivors, rank })
    }

    /// Number of survivors `k`.
    pub fn k(&self) -> u32 {
        self.survivors.len() as u32
    }

    /// Surviving physical ids, ascending (index = rank).
    pub fn survivors(&self) -> &[ProcId] {
        &self.survivors
    }

    /// The root every rebuilt tree hangs from: the rank-0 survivor.
    pub fn root(&self) -> ProcId {
        self.survivors[0]
    }

    /// Rank of physical processor `id`, or `None` if it crashes.
    pub fn rank_of(&self, id: ProcId) -> Option<u32> {
        self.rank[id as usize]
    }

    /// Physical id of rank `r`.
    pub fn id_of(&self, r: u32) -> ProcId {
        self.survivors[r as usize]
    }

    /// Whether `id` survives the plan.
    pub fn is_survivor(&self, id: ProcId) -> bool {
        self.rank[id as usize].is_some()
    }

    /// The machine the survivors form: `m` with `P` replaced by `k`.
    pub fn sub_model(&self, m: &LogP) -> LogP {
        m.with_p(self.k())
    }
}

/// The optimal single-item broadcast tree over the survivors, indexed by
/// *physical* id over the whole machine (`m.p` ranks) and hanging from
/// [`SurvivorMap::root`]. Crashed processors have no children and
/// receive nothing.
pub fn survivor_tree_children(m: &LogP, map: &SurvivorMap) -> Tree {
    let by_rank = optimal_broadcast_tree(&map.sub_model(m)).children();
    by_rank.relabel(m.p, map.survivors())
}

/// The same for the canonical binomial tree over survivor ranks, which
/// the resilient reductions combine up the reverse of.
pub(crate) fn survivor_binomial_children(p: u32, map: &SurvivorMap) -> Tree {
    Tree::binomial(map.k()).relabel(p, map.survivors())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_is_a_bijection_over_survivors() {
        let plan = FaultPlan::new(1).with_crash(0, 0).with_crash(5, 10);
        let map = SurvivorMap::new(8, &plan).unwrap();
        assert_eq!(map.k(), 6);
        assert_eq!(map.survivors(), &[1, 2, 3, 4, 6, 7]);
        assert_eq!(map.root(), 1, "crashed root 0 re-roots to survivor 1");
        assert_eq!(map.rank_of(0), None);
        assert_eq!(map.rank_of(6), Some(4));
        assert_eq!(map.id_of(4), 6);
        assert!(!map.is_survivor(5));
        for r in 0..map.k() {
            assert_eq!(map.rank_of(map.id_of(r)), Some(r));
        }
    }

    #[test]
    fn all_crashed_is_an_error() {
        let plan = FaultPlan::new(1).with_crash(0, 0).with_crash(1, 0);
        assert_eq!(SurvivorMap::new(2, &plan), Err(ResilientError::AllCrashed));
        assert_eq!(
            ResilientError::AllCrashed.to_string(),
            "all processors crash in the fault plan"
        );
    }

    #[test]
    fn survivor_tree_covers_exactly_the_survivors() {
        let m = LogP::new(6, 2, 4, 8).unwrap();
        let plan = FaultPlan::new(2).with_crash(0, 0).with_crash(3, 0);
        let map = SurvivorMap::new(m.p, &plan).unwrap();
        let children = survivor_tree_children(&m, &map);
        assert!(children[0].is_empty() && children[3].is_empty());
        let mut reached = vec![false; m.p as usize];
        reached[map.root() as usize] = true;
        let mut frontier = vec![map.root()];
        while let Some(q) = frontier.pop() {
            for &c in &children[q as usize] {
                assert!(map.is_survivor(c), "tree must not route through a crash");
                assert!(!reached[c as usize], "each survivor reached once");
                reached[c as usize] = true;
                frontier.push(c);
            }
        }
        for q in 0..m.p {
            assert_eq!(reached[q as usize], map.is_survivor(q));
        }
    }

    #[test]
    fn binomial_children_form_a_tree_over_survivors() {
        let plan = FaultPlan::new(3).with_crash(2, 0);
        let map = SurvivorMap::new(8, &plan).unwrap();
        let children = survivor_binomial_children(8, &map);
        assert!(children[2].is_empty());
        let mut parents = vec![0u32; 8];
        for &c in children.iter().flatten() {
            parents[c as usize] += 1;
        }
        // Everyone but the root and the crashed has exactly one parent.
        assert_eq!(parents, [0, 1, 0, 1, 1, 1, 1, 1]);
        // Rank 1 (id 1) is a leaf; rank 2 (id 3) has rank 3 (id 4) below.
        assert!(children[1].is_empty());
        assert_eq!(children[3], [4]);
    }
}
