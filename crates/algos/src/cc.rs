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

use logp_core::broadcast::{binomial_children, binomial_parent};
use logp_core::{Cycles, LogP, ProcId};
use logp_sim::{Ctx, Data, Message, Process, SharedCell, Sim, SimConfig, SimResult};
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

const TAG_PUSH: u32 = 0x60; // Pair(round<<32|target_vertex, label)
const TAG_CNT: u32 = 0x61; // Pair(round, count)
const TAG_CHANGED: u32 = 0x62; // Pair(round, 0/1) — OR-reduce to proc 0
const TAG_VERDICT: u32 = 0x63; // Pair(round, continue?) — broadcast

const STEP_ROUND_WORK: u64 = 1;

#[derive(Debug, Default)]
struct RoundBuf {
    counts: HashMap<ProcId, u64>,
    pushes: Vec<(u64, u64)>,
    changed_votes: u32,
    changed_any: bool,
}

struct CcProc {
    p: u32,
    combining: bool,
    /// label[local index] for vertices v ≡ me (mod P).
    labels: Vec<u64>,
    /// Remote adjacency: for each local vertex, its neighbors.
    neighbors: Vec<Vec<u64>>,
    round: usize,
    bufs: HashMap<usize, RoundBuf>,
    processing: bool,
    out: SharedCell<Vec<(u64, u64)>>,
    done: bool,
}

impl CcProc {
    fn owner(&self, v: u64) -> ProcId {
        (v % self.p as u64) as ProcId
    }

    fn local_index(&self, v: u64) -> usize {
        (v / self.p as u64) as usize
    }

    /// Send this round's pushes (then counts), tagged with the round.
    fn send_round(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.me();
        let round = self.round as u64;
        // Gather (target vertex, label) pairs per destination processor.
        let mut per_dest: HashMap<ProcId, Vec<(u64, u64)>> = HashMap::new();
        for (li, nbrs) in self.neighbors.iter().enumerate() {
            let label = self.labels[li];
            for &u in nbrs {
                let o = self.owner(u);
                if o == me {
                    // Local neighbor: apply directly (free).
                    let idx = self.local_index(u);
                    if label < self.labels[idx] {
                        self.labels[idx] = label;
                        self.bufs.entry(self.round).or_default().changed_any = true;
                    }
                } else {
                    per_dest.entry(o).or_default().push((u, label));
                }
            }
        }
        if self.combining {
            for pushes in per_dest.values_mut() {
                // One message per distinct target vertex: the minimum.
                pushes.sort_unstable();
                pushes.dedup_by(|a, b| {
                    if a.0 == b.0 {
                        b.1 = b.1.min(a.1);
                        true
                    } else {
                        false
                    }
                });
            }
        }
        // Stagger destinations to avoid self-inflicted schedule contention.
        let p = self.p;
        for b in 0..p {
            let d = (me + 1 + b) % p;
            if d == me {
                continue;
            }
            let pushes = per_dest.remove(&d).unwrap_or_default();
            ctx.send(d, TAG_CNT, Data::Pair(round, pushes.len() as u64));
            for (u, label) in pushes {
                ctx.send(d, TAG_PUSH, Data::Pair(round << 32 | u, label));
            }
        }
    }

    /// If this round's traffic is complete, fold it in and vote.
    fn maybe_finish_round(&mut self, ctx: &mut Ctx<'_>) {
        if self.processing || self.done {
            return;
        }
        let p = self.p;
        let me = ctx.me();
        let buf = self.bufs.entry(self.round).or_default();
        if buf.counts.len() != p as usize - 1 {
            return;
        }
        let expected: u64 = buf.counts.values().sum();
        if (buf.pushes.len() as u64) < expected {
            return;
        }
        debug_assert_eq!(buf.pushes.len() as u64, expected);
        let pushes = std::mem::take(&mut buf.pushes);
        let mut changed = buf.changed_any;
        let work = (pushes.len() as u64).max(1);
        for (u, label) in pushes {
            let idx = self.local_index(u);
            if label < self.labels[idx] {
                self.labels[idx] = label;
                changed = true;
            }
        }
        self.bufs.entry(self.round).or_default().changed_any = changed;
        self.processing = true;
        // Charge one cycle per applied push.
        ctx.compute(work, STEP_ROUND_WORK);
        let _ = me;
    }

    /// After the local work: OR-reduce `changed` along the binomial
    /// tree toward processor 0. Every processor's tally includes its own
    /// vote plus one per binomial child, so a processor never reports
    /// upward before its own round work is folded in.
    fn vote(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.me();
        let round = self.round as u64;
        self.bufs.entry(self.round).or_default().changed_votes += 1; // own vote
        if me == 0 {
            self.try_verdict(ctx);
        } else {
            self.try_report_up(ctx, round);
        }
    }

    fn try_report_up(&mut self, ctx: &mut Ctx<'_>, round: u64) {
        let me = ctx.me();
        let expected = binomial_children(me, self.p).len() as u32 + 1;
        let buf = self.bufs.entry(self.round).or_default();
        if buf.changed_votes == expected {
            let flag = buf.changed_any as u64;
            ctx.send(binomial_parent(me), TAG_CHANGED, Data::Pair(round, flag));
            buf.changed_votes = u32::MAX; // sent
        }
    }

    fn try_verdict(&mut self, ctx: &mut Ctx<'_>) {
        let p = self.p;
        let expected = binomial_children(0, p).len() as u32 + 1;
        let buf = self.bufs.entry(self.round).or_default();
        if buf.changed_votes == expected {
            let verdict = buf.changed_any;
            let round = self.round as u64;
            for c in binomial_children(0, p) {
                ctx.send(c, TAG_VERDICT, Data::Pair(round, verdict as u64));
            }
            self.apply_verdict(verdict, ctx);
        }
    }

    fn apply_verdict(&mut self, go_on: bool, ctx: &mut Ctx<'_>) {
        self.bufs.remove(&self.round);
        self.processing = false;
        if go_on {
            self.round += 1;
            self.send_round(ctx);
            self.maybe_finish_round(ctx);
        } else {
            self.done = true;
            let me = ctx.me();
            let p = self.p as u64;
            let labels = self.labels.clone();
            self.out.with(|o| {
                for (li, &label) in labels.iter().enumerate() {
                    o.push((li as u64 * p + me as u64, label));
                }
            });
            ctx.halt();
        }
    }
}

impl Process for CcProc {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.send_round(ctx);
        self.maybe_finish_round(ctx);
    }

    fn on_compute_done(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        debug_assert_eq!(tag, STEP_ROUND_WORK);
        self.vote(ctx);
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Ctx<'_>) {
        match msg.tag {
            TAG_PUSH => {
                let (packed, label) = msg.data.as_pair();
                let round = (packed >> 32) as usize;
                let u = packed & 0xFFFF_FFFF;
                self.bufs.entry(round).or_default().pushes.push((u, label));
                if round == self.round {
                    self.maybe_finish_round(ctx);
                }
            }
            TAG_CNT => {
                let (round, count) = msg.data.as_pair();
                self.bufs
                    .entry(round as usize)
                    .or_default()
                    .counts
                    .insert(msg.src, count);
                if round as usize == self.round {
                    self.maybe_finish_round(ctx);
                }
            }
            TAG_CHANGED => {
                let (round, flag) = msg.data.as_pair();
                debug_assert_eq!(round as usize, self.round, "votes are synchronous");
                let buf = self.bufs.entry(round as usize).or_default();
                buf.changed_any |= flag != 0;
                buf.changed_votes = buf.changed_votes.wrapping_add(1);
                if ctx.me() == 0 {
                    self.try_verdict(ctx);
                } else {
                    self.try_report_up(ctx, round);
                }
            }
            TAG_VERDICT => {
                let (round, go_on) = msg.data.as_pair();
                debug_assert_eq!(round as usize, self.round);
                for c in binomial_children(ctx.me(), self.p) {
                    ctx.send(c, TAG_VERDICT, msg.data.clone());
                }
                self.apply_verdict(go_on != 0, ctx);
            }
            other => unreachable!("unknown tag {other}"),
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
    assert!(
        (p as u64).is_power_of_two(),
        "binomial reduce assumes power-of-two P"
    );
    let out: SharedCell<Vec<(u64, u64)>> = SharedCell::new();
    let mut sim = Sim::new(*m, config);
    // Build per-processor vertex lists and adjacency.
    let mut adj: Vec<Vec<u64>> = vec![Vec::new(); g.n as usize];
    for &(a, b) in &g.edges {
        adj[a as usize].push(b);
        adj[b as usize].push(a);
    }
    for q in 0..p {
        let verts: Vec<u64> = (q as u64..g.n).step_by(p as usize).collect();
        let labels: Vec<u64> = verts.clone();
        let neighbors: Vec<Vec<u64>> = verts.iter().map(|&v| adj[v as usize].clone()).collect();
        sim.set_process(
            q,
            Box::new(CcProc {
                p,
                combining,
                labels,
                neighbors,
                round: 0,
                bufs: HashMap::new(),
                processing: false,
                out: out.clone(),
                done: false,
            }),
        );
    }
    let result = sim.run().expect("CC terminates");
    let collected = out.get();
    assert_eq!(collected.len() as u64, g.n, "every vertex must be labeled");
    let mut labels = vec![0u64; g.n as usize];
    for (v, l) in collected {
        labels[v as usize] = l;
    }
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
            let m = model(4);
            for combining in [false, true] {
                let run = run_cc(&m, &g, combining, SimConfig::default());
                assert_eq!(
                    run.labels,
                    cc_sequential(&g),
                    "combining={combining} n={}",
                    g.n
                );
            }
        }
    }

    #[test]
    fn cc_correct_under_jitter() {
        let g = Graph::random(48, 100, 4);
        let m = model(8);
        for seed in 0..3 {
            let cfg = SimConfig::default().with_jitter(11).with_seed(seed);
            let run = run_cc(&m, &g, true, cfg);
            assert_eq!(run.labels, cc_sequential(&g), "seed {seed}");
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
