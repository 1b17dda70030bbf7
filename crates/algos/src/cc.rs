//! Connected components (§4.2.3).
//!
//! The paper's observation: PRAM-style component algorithms funnel
//! ever-more queries at the processors owning component representatives —
//! "this leads to high contention, which the CRCW PRAM ignores, but LogP
//! makes apparent" — and careful combining "considerably mitigates" it.
//!
//! We implement distributed min-label propagation over a vertex-cyclic
//! partition, in synchronous rounds:
//!
//! * **naive**: every local vertex pushes its label to the owner of every
//!   neighbor, one message per (vertex, neighbor) incidence — a hub
//!   vertex's owner becomes a hot spot, exactly the paper's pathology;
//! * **combining**: per round each processor combines pushes to the same
//!   target vertex into one minimum — the software analogue of the
//!   combining trees of \[31\].
//!
//! Rounds are delimited by per-round message counts (jitter-safe) and a
//! global OR-reduction of "any label changed" decides termination.
//! Results are verified against a sequential union-find.

use crate::step::{run_steps, Arrival, Out, Steps};
use logp_core::broadcast::{binomial_children, binomial_parent};
use logp_core::{Cycles, LogP, ProcId};
use logp_sim::{Sim, SimConfig, SimResult};
use std::collections::HashMap;

/// An undirected graph on vertices `0..n`.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    pub n: u64,
    pub edges: Vec<(u64, u64)>,
}

impl Graph {
    pub fn new(n: u64, edges: Vec<(u64, u64)>) -> Self {
        for &(a, b) in &edges {
            assert!(a < n && b < n, "edge ({a},{b}) out of range");
        }
        Graph { n, edges }
    }

    /// A star: vertex 0 is the hub — the contention pathology.
    pub fn star(n: u64) -> Self {
        Graph::new(n, (1..n).map(|v| (0, v)).collect())
    }

    /// A simple path 0-1-2-…-(n-1).
    pub fn path(n: u64) -> Self {
        Graph::new(n, (1..n).map(|v| (v - 1, v)).collect())
    }

    /// Disjoint cliques of size `k` (dense components).
    pub fn cliques(count: u64, k: u64) -> Self {
        let mut edges = Vec::new();
        for c in 0..count {
            let base = c * k;
            for i in 0..k {
                for j in i + 1..k {
                    edges.push((base + i, base + j));
                }
            }
        }
        Graph::new(count * k, edges)
    }

    /// Pseudo-random graph with `m` edges.
    pub fn random(n: u64, m: u64, seed: u64) -> Self {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let edges = (0..m)
            .map(|_| (next() % n, next() % n))
            .filter(|(a, b)| a != b)
            .collect();
        Graph::new(n, edges)
    }
}

/// Sequential union-find — the verification oracle. Returns the min
/// vertex id of each vertex's component.
pub fn cc_sequential(g: &Graph) -> Vec<u64> {
    let n = g.n as usize;
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut r = x;
        while parent[r] != r {
            r = parent[r];
        }
        let mut c = x;
        while parent[c] != r {
            let nxt = parent[c];
            parent[c] = r;
            c = nxt;
        }
        r
    }
    for &(a, b) in &g.edges {
        let (ra, rb) = (find(&mut parent, a as usize), find(&mut parent, b as usize));
        if ra != rb {
            parent[ra.max(rb)] = ra.min(rb);
        }
    }
    let mut min_of_root: HashMap<usize, u64> = HashMap::new();
    for v in 0..n {
        let r = find(&mut parent, v);
        let e = min_of_root.entry(r).or_insert(v as u64);
        *e = (*e).min(v as u64);
    }
    (0..n).map(|v| min_of_root[&find(&mut parent, v)]).collect()
}

const TAG_COUNT: u32 = 0x61; // how many pushes the receiver gets this round
const TAG_PUSH: u32 = 0x60; // a label, indexed by its target vertex
const TAG_VOTE: u32 = 0x62; // "a label changed", up the binomial tree
const TAG_VERDICT: u32 = 0x63; // "go on", down the binomial tree

/// One rank of min-label propagation over the vertices `v ≡ me (mod P)`.
/// A round is `levels + 3` steps: the counts of the pushes each rank
/// will get, the pushes (one cycle of work per push applied), the
/// "changed" vote up the binomial tree one level a step, and the verdict
/// relayed down it in one step. A verdict to go on adds a round.
struct Cc {
    me: ProcId,
    p: u32,
    combining: bool,
    /// `labels[i]` is vertex `i·P + me`'s.
    labels: Vec<u64>,
    /// Each local vertex's neighbours.
    neighbors: Vec<Vec<u64>>,
    /// This rank's binomial children; child `j` votes at level `j`.
    kids: Vec<ProcId>,
    /// Vote levels: `⌈log₂ P⌉`, at steps `2..levels + 2` of a round.
    levels: u32,
    /// Rounds begun.
    rounds: u32,
    /// This round's `(target, label)` pushes, by destination.
    pushes: Vec<Vec<(u64, u64)>>,
    /// Pushes this round brings in.
    incoming: usize,
    /// A label moved this round, here or (once voted) in the subtree.
    changed: bool,
}

impl Cc {
    /// The step of a round that carries the verdict, its last.
    fn verdict(&self) -> u32 {
        self.levels + 2
    }

    /// Destinations other than this rank, staggered from `me + 1` so that
    /// ranks do not all start on the same one.
    fn others(&self) -> impl Iterator<Item = ProcId> {
        let (me, p) = (self.me, self.p);
        (1..p).map(move |b| (me + b) % p)
    }

    /// Apply `label` to local vertex `v`.
    fn lower(&mut self, v: u64, label: u64) {
        let at = (v / u64::from(self.p)) as usize;
        if label < self.labels[at] {
            self.labels[at] = label;
            self.changed = true;
        }
    }
}

impl Steps for Cc {
    type Final = Vec<u64>;

    fn send(&mut self, s: u32, out: &mut Out<'_, '_>) {
        let (p, me) = (u64::from(self.p), self.me);
        match s % (self.verdict() + 1) {
            0 => {
                // Gather this round's pushes; a local neighbour is lowered
                // at once, for free.
                self.changed = false;
                for li in 0..self.labels.len() {
                    let label = self.labels[li];
                    for k in 0..self.neighbors[li].len() {
                        let u = self.neighbors[li][k];
                        match (u % p) as ProcId {
                            o if o == me => self.lower(u, label),
                            o => self.pushes[o as usize].push((u, label)),
                        }
                    }
                }
                if self.combining {
                    // One push per distinct target vertex: the minimum.
                    for pushes in &mut self.pushes {
                        pushes.sort_unstable();
                        pushes.dedup_by_key(|push| push.0);
                    }
                }
                for d in self.others() {
                    out.send(d, TAG_COUNT, 0, self.pushes[d as usize].len() as u64);
                }
            }
            1 => {
                for d in self.others() {
                    for (u, label) in std::mem::take(&mut self.pushes[d as usize]) {
                        out.send(d, TAG_PUSH, u as usize, label);
                    }
                }
            }
            r if r == self.verdict() => {
                if me == 0 {
                    for &c in &self.kids {
                        out.send(c, TAG_VERDICT, 0, u64::from(self.changed));
                    }
                }
            }
            vote => {
                if me != 0 && me.trailing_zeros() == vote - 2 {
                    out.send(binomial_parent(me), TAG_VOTE, 0, u64::from(self.changed));
                }
            }
        }
    }

    fn expect(&self, s: u32) -> usize {
        match s % (self.verdict() + 1) {
            0 => self.p as usize - 1,
            1 => self.incoming,
            r if r == self.verdict() => usize::from(self.me != 0),
            vote => usize::from(((vote - 2) as usize) < self.kids.len()),
        }
    }

    fn fold(&mut self, s: u32, msgs: &[Arrival]) -> Cycles {
        match s % (self.verdict() + 1) {
            0 => self.incoming = msgs.iter().map(|a| a.word as usize).sum(),
            1 => {
                for a in msgs {
                    self.lower(a.idx() as u64, a.word);
                }
                return (msgs.len() as Cycles).max(1);
            }
            r if r == self.verdict() => {
                if msgs.first().map_or(self.changed, |a| a.word != 0) {
                    self.rounds += 1;
                }
            }
            _ => self.changed |= msgs.iter().any(|a| a.word != 0),
        }
        0
    }

    fn finish(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.labels)
    }

    fn steps(&self) -> u32 {
        self.rounds * (self.verdict() + 1)
    }

    fn relay(&self, s: u32) -> &[ProcId] {
        if s % (self.verdict() + 1) == self.verdict() {
            &self.kids
        } else {
            &[]
        }
    }
}

/// Result of a distributed CC run.
#[derive(Debug, Clone)]
pub struct CcRun {
    /// Component label (min vertex id) per vertex.
    pub labels: Vec<u64>,
    pub completion: Cycles,
    pub messages: u64,
    /// Aggregate capacity-stall cycles (hot-spot indicator).
    pub total_stall: Cycles,
    /// Maximum messages received by any one processor.
    pub max_recv: u64,
    /// Full result of the single measured run (trace/log/metrics as
    /// enabled by `config`), so callers never re-run for a trace.
    pub result: SimResult,
}

/// Run distributed min-label CC. `combining` selects the mitigated
/// variant.
pub fn run_cc(m: &LogP, g: &Graph, combining: bool, config: SimConfig) -> CcRun {
    let p = m.p;
    let mut adj: Vec<Vec<u64>> = vec![Vec::new(); g.n as usize];
    for &(a, b) in &g.edges {
        adj[a as usize].push(b);
        adj[b as usize].push(a);
    }
    let run = run_steps(Sim::new(*m, config), 0..p, None, |q| {
        let verts = (u64::from(q)..g.n).step_by(p as usize);
        Cc {
            me: q,
            p,
            combining,
            labels: verts.clone().collect(),
            neighbors: verts.map(|v| adj[v as usize].clone()).collect(),
            kids: binomial_children(q, p),
            levels: p.next_power_of_two().trailing_zeros(),
            rounds: 1,
            pushes: vec![Vec::new(); p as usize],
            incoming: 0,
            changed: false,
        }
    })
    .expect("every rank folds its last step once");
    let mut labels = vec![0u64; g.n as usize];
    for (q, local, _) in &run.finals {
        for (li, &label) in local.iter().enumerate() {
            labels[li * p as usize + *q as usize] = label;
        }
    }
    let result = run.result;
    CcRun {
        labels,
        completion: result.stats.completion,
        messages: result.stats.total_msgs,
        total_stall: result.stats.procs.iter().map(|s| s.stall).sum(),
        max_recv: result
            .stats
            .procs
            .iter()
            .map(|s| s.msgs_recvd)
            .max()
            .unwrap_or(0),
        result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(p: u32) -> LogP {
        LogP::new(12, 2, 4, p).unwrap()
    }

    #[test]
    fn sequential_oracle_is_sane() {
        let g = Graph::cliques(3, 4);
        let labels = cc_sequential(&g);
        assert_eq!(labels[..4], [0, 0, 0, 0]);
        assert_eq!(labels[4..8], [4, 4, 4, 4]);
        assert_eq!(labels[8..12], [8, 8, 8, 8]);
    }

    #[test]
    fn distributed_cc_matches_sequential() {
        for g in [
            Graph::star(33),
            Graph::path(40),
            Graph::cliques(4, 8),
            Graph::random(64, 120, 9),
        ] {
            // The binomial vote and verdict span any P, not only powers
            // of two.
            for p in [4, 6, 12, 24] {
                for combining in [false, true] {
                    let run = run_cc(&model(p), &g, combining, SimConfig::default());
                    assert_eq!(
                        run.labels,
                        cc_sequential(&g),
                        "P={p} combining={combining} n={}",
                        g.n
                    );
                }
            }
        }
    }

    #[test]
    fn cc_correct_under_jitter() {
        let g = Graph::random(48, 100, 4);
        for p in [6, 8, 12, 24] {
            for seed in 0..3 {
                let cfg = SimConfig::default().with_jitter(11).with_seed(seed);
                let run = run_cc(&model(p), &g, true, cfg);
                assert_eq!(run.labels, cc_sequential(&g), "P={p} seed {seed}");
            }
        }
    }

    #[test]
    fn combining_mitigates_the_star_hot_spot() {
        // The hub's owner receives deg(hub) pushes per round without
        // combining, but at most P-1 with it.
        let g = Graph::star(256);
        let m = model(8);
        let naive = run_cc(&m, &g, false, SimConfig::default());
        let comb = run_cc(&m, &g, true, SimConfig::default());
        assert_eq!(naive.labels, comb.labels);
        assert!(
            naive.messages as f64 > 1.5 * comb.messages as f64,
            "naive {} vs combining {}",
            naive.messages,
            comb.messages
        );
        // The decisive signal is locality: without combining, the hub's
        // owner absorbs ~deg(hub) messages per round.
        assert!(
            naive.max_recv > 3 * comb.max_recv,
            "hub owner load: naive {} vs combining {}",
            naive.max_recv,
            comb.max_recv
        );
        assert!(
            naive.completion > comb.completion,
            "hot spot must cost time: naive {} vs combining {}",
            naive.completion,
            comb.completion
        );
    }

    #[test]
    fn isolated_vertices_label_themselves() {
        let g = Graph::new(16, vec![]);
        let run = run_cc(&model(4), &g, true, SimConfig::default());
        assert_eq!(run.labels, (0..16).collect::<Vec<u64>>());
    }
}
