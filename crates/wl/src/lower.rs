//! Check-and-lower: the one function between a [`Workload`] and the
//! interpreter. [`lower`] either rejects the program with the first
//! error — per-node checks in declaration order, then channel pairing,
//! then barrier participation, then cycles — or returns the [`Plan`] the
//! interpreter runs. Its one caller is `Workload::plan`, which keeps the
//! plan as the seal of the node arena it was made of (`ir.rs`), so a plan
//! only ever describes a program that was checked, and the arena it rides
//! in cannot change without dropping it.
//!
//! Everything is linear in the program and lives in flat arrays: nodes
//! are grouped by processor with a counting sort, channels are paired by
//! sorting the sends and the recvs on `(dst, src, tag, id)`, and one edge
//! enumeration fills both the global ordering graph (for the cycle
//! check) and the per-processor successor lists (for the interpreter) in
//! compressed-row form.

use crate::ir::{bail, Node, NodeId, Op, Payload, Span, WlError, Workload};
use logp_core::ProcId;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasher, Hasher, RandomState};

/// Most processors a workload may declare: the engines pack `proc + 1`
/// into 20 bits of their sequence keys.
pub(crate) const MAX_PROCS: u32 = 1 << 20;
/// Largest `words=` block (8 MiB of payload, allocated when the send
/// fires).
pub(crate) const MAX_BLOCK_WORDS: u32 = 1 << 20;
/// `round` entry of a node that is not a barrier.
const NO_ROUND: u32 = u32::MAX;
const NO_LOOP: &str = "the LogP network has no self-loop";

/// Label → node id. A std map with a cheap hash in place of SipHash; the
/// hash is keyed per table, so labels crafted against one run do not
/// collide in the next.
pub(crate) type Labels<'k> = HashMap<&'k str, NodeId, Keyed>;

pub(crate) struct Keyed(u64);

impl Default for Keyed {
    fn default() -> Self {
        Keyed(RandomState::new().build_hasher().finish())
    }
}

impl BuildHasher for Keyed {
    type Hasher = FoldHasher;
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher(self.0, self.0 | 1)
    }
}

/// Folded-multiply hash: `(state, key)`.
pub(crate) struct FoldHasher(u64, u64);

impl Hasher for FoldHasher {
    /// Whole 8-byte words first; the tail is read as one overlapping word
    /// (or two half words, or three bytes), so every byte is covered
    /// without a byte loop.
    fn write(&mut self, s: &[u8]) {
        let fold = |a: u64, b: u64| {
            let m = u128::from(a) * u128::from(b);
            (m as u64) ^ (m >> 64) as u64
        };
        let n = s.len();
        let word = |at: usize| u64::from_le_bytes(s[at..at + 8].try_into().expect("8 bytes"));
        let half = |at: usize| u32::from_le_bytes(s[at..at + 4].try_into().expect("4 bytes"));
        let mut h = self.0 ^ n as u64;
        for at in (0..n.saturating_sub(8)).step_by(8) {
            h = fold(h ^ word(at), 0x9e37_79b9_7f4a_7c15);
        }
        let tail = match n {
            0 => 0,
            1..=3 => u64::from(s[0]) << 16 | u64::from(s[n / 2]) << 8 | u64::from(s[n - 1]),
            4..=7 => u64::from(half(0)) << 32 | u64::from(half(n - 4)),
            _ => word(n - 8),
        };
        self.0 = fold(h ^ tail, self.1);
    }

    /// `str` ends its bytes with a marker, which one `write` of the whole
    /// label (length mixed in) has no use for.
    fn write_u8(&mut self, _: u8) {}

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A checked workload, lowered for the interpreter. Nodes are grouped by
/// processor into "slots", in declaration order within each processor.
#[derive(Debug)]
pub(crate) struct Plan {
    /// The `Workload::procs` this plan was lowered for.
    pub(crate) procs: u32,
    /// Processor `p` owns slots `proc_start[p]..proc_start[p + 1]`.
    pub(crate) proc_start: Vec<u32>,
    /// Node id of each slot.
    pub(crate) global: Vec<NodeId>,
    /// Operation of each slot.
    pub(crate) ops: Vec<Op>,
    /// In-degree of each slot: explicit dependencies plus the barrier
    /// fences (channel pairing is tracked by delivery, not counted).
    pub(crate) indeg: Vec<u32>,
    /// Slot `s`'s successors, all on its processor, are the slots
    /// `succs[succ_start[s]..succ_start[s + 1]]`.
    pub(crate) succ_start: Vec<u32>,
    pub(crate) succs: Vec<u32>,
    /// This processor's recvs, sorted by `(src, tag)` and then declaration
    /// order, are `recv_key` and `recv_slot` at
    /// `recv_start[p]..recv_start[p + 1]`: the i-th delivery on a channel
    /// satisfies the channel's i-th entry.
    pub(crate) recv_start: Vec<u32>,
    pub(crate) recv_key: Vec<(ProcId, u32)>,
    pub(crate) recv_slot: Vec<u32>,
}

/// Exclusive prefix sums in place: counts become start offsets, with the
/// total in the last element.
fn prefix_sums(counts: &mut [u32]) {
    let mut sum = 0;
    for c in counts {
        sum += std::mem::replace(c, sum);
    }
}

/// Every ordering edge, as `f(from, stands_in, to)`. `from` is a node, or
/// `n + r` for the release of barrier round `r`, and `to` likewise.
/// `stands_in` is the node on `to`'s processor whose completion carries
/// the edge there (a release is carried by the processor's own barrier of
/// that round); it is `None` for the two kinds of edge only the cycle
/// check sees, a barrier entering its round and a send reaching its recv.
///
/// The order of the edges leaving one vertex decides which cycle a
/// rejection prints, so it is fixed: dependency and round edges in
/// declaration order, then the fence edges, then the channel pairs.
///
/// `round[i]` is node `i`'s barrier round ([`NO_ROUND`] for the rest: a
/// processor's k-th barrier takes part in global round k); `proc_start`
/// and `global` are as in [`Plan`].
fn edges(
    wl: &Workload,
    round: &[u32],
    proc_start: &[u32],
    global: &[NodeId],
    pairs: impl Iterator<Item = (NodeId, NodeId)>,
    mut f: impl FnMut(u32, Option<NodeId>, u32),
) {
    let (n, procs) = (wl.nodes.len() as u32, wl.procs as usize);
    // A processor's latest barrier so far.
    let mut last_barrier = vec![NodeId::MAX; procs];
    for (i, node) in (0..).zip(wl.nodes.iter()) {
        for &d in node.deps {
            // Depending on a barrier means "after that round releases".
            match round[d as usize] {
                NO_ROUND => f(d, Some(d), i),
                r => f(n + r, Some(d), i),
            }
        }
        let r = round[i as usize];
        if r != NO_ROUND {
            // Entering round r contributes to its release, and a
            // processor reaches round r only once round r-1 released.
            f(i, None, n + r);
            let prev = std::mem::replace(&mut last_barrier[node.proc as usize], i);
            if r > 0 {
                f(n + r - 1, Some(prev), i);
            }
        }
    }
    // A barrier is a full fence on its processor: every earlier node
    // completes before it is entered (otherwise a later-ready send could
    // queue up behind the barrier command and starve another processor
    // into deadlock), and every later node waits for the release.
    last_barrier.fill(NodeId::MAX);
    // Per processor: the next slot to visit, the open segment's first.
    let mut cursor: Vec<(u32, u32)> = proc_start[..procs].iter().map(|&s| (s, s)).collect();
    for (i, node) in (0..).zip(wl.nodes.iter()) {
        let q = node.proc as usize;
        let (slot, segment) = &mut cursor[q];
        if round[i as usize] != NO_ROUND {
            for &s in &global[*segment as usize..*slot as usize] {
                f(s, Some(s), i);
            }
            *segment = *slot + 1;
            last_barrier[q] = i;
        } else if last_barrier[q] != NodeId::MAX {
            let b = last_barrier[q];
            f(n + round[b as usize], Some(b), i);
        }
        *slot += 1;
    }
    // The i-th send on a channel precedes the i-th recv.
    for (send, recv) in pairs {
        f(send, None, recv);
    }
}

/// Check `wl` and lower it; see the module docs for the order of checks.
pub(crate) fn lower(wl: &Workload) -> Result<Plan, WlError> {
    let (n, procs) = (wl.nodes.len(), wl.procs as usize);
    if !(1..=MAX_PROCS).contains(&wl.procs) {
        bail!(
            Span::NONE,
            "workload `{}` declares procs {}; need 1..={MAX_PROCS} (what the engines address)",
            wl.name,
            wl.procs
        );
    }

    // Per-node checks, collecting the shape of the program on the way.
    // A program straight from the loader comes with its labels already
    // shown distinct, and needs no second table of them.
    let mut labels = (!wl.nodes.labels_distinct())
        .then(|| Labels::with_capacity_and_hasher(n, Keyed::default()));
    let mut listed_by = vec![NodeId::MAX; n];
    let mut round = vec![NO_ROUND; n];
    let mut proc_start = vec![0u32; procs + 1];
    let mut barriers = vec![0u32; procs];
    // Channel endpoints as `[dst, src, tag, id]`.
    let (mut sends, mut recvs) = (Vec::new(), Vec::new());
    // At most `deps + 3` ordering edges leave a node.
    let mut edge_bound = 1usize;
    for (id, node) in (0..).zip(wl.nodes.iter()) {
        // Spans are looked up only on the way out with an error.
        let (at, name) = (|| wl.nodes.span(id), node.label);
        if let Some(labels) = &mut labels {
            match labels.entry(name) {
                Entry::Vacant(free) => free.insert(id),
                Entry::Occupied(first) => bail!(
                    at(),
                    "duplicate label `{name}` (first defined at line {})",
                    wl.nodes.span(*first.get()).line
                ),
            };
        }
        let declares = format_args!(
            "the workload declares procs {procs} (valid: 0..={})",
            procs - 1
        );
        if node.proc >= wl.procs {
            bail!(
                at(),
                "node `{name}` runs on processor {} but {declares}",
                node.proc
            );
        }
        match node.op {
            Op::Send { dst, tag, payload } => {
                if dst >= wl.procs {
                    bail!(at(), "send `{name}` targets processor {dst} but {declares}");
                }
                if dst == node.proc {
                    bail!(
                        at(),
                        "send `{name}` sends processor {dst} a message to itself; {NO_LOOP}"
                    );
                }
                if matches!(payload, Payload::Block(w) if w > MAX_BLOCK_WORDS) {
                    bail!(
                        at(),
                        "send `{name}` declares a payload over {MAX_BLOCK_WORDS} words"
                    );
                }
                sends.push([dst, node.proc, tag, id]);
            }
            Op::Recv { src, tag } => {
                if src >= wl.procs {
                    bail!(
                        at(),
                        "recv `{name}` expects a message from processor {src} but {declares}"
                    );
                }
                if src == node.proc {
                    bail!(
                        at(),
                        "recv `{name}` expects a message from its own processor {src}; {NO_LOOP}"
                    );
                }
                recvs.push([node.proc, src, tag, id]);
            }
            Op::Barrier => {
                round[id as usize] = barriers[node.proc as usize];
                barriers[node.proc as usize] += 1;
            }
            Op::Compute { .. } | Op::Timer { .. } => {}
        }
        for (k, &d) in node.deps.iter().enumerate() {
            let at = || wl.nodes.dep_span(id, k);
            let Some(dep) = wl.nodes.get(d as usize) else {
                bail!(
                    at(),
                    "node `{name}` depends on unknown node id {d} (the workload has {n} nodes)"
                );
            };
            if d == id {
                bail!(at(), "node `{name}` depends on itself");
            }
            if std::mem::replace(&mut listed_by[d as usize], id) == id {
                bail!(at(), "node `{name}` lists dependency `{}` twice", dep.label);
            }
            if dep.proc != node.proc {
                let msg = format!(
                    "node `{name}` (processor {}) depends on `{}` (processor {}); \
                     `after:` edges must stay on one processor",
                    node.proc, dep.label, dep.proc
                );
                return Err(WlError::at(at(), msg).with_help(
                    "cross-processor ordering is carried by a send/recv pair on a shared tag",
                ));
            }
        }
        proc_start[node.proc as usize] += 1;
        edge_bound += node.deps.len() + 3;
    }
    // Returned before the graphs below take their place.
    drop((labels, listed_by));
    if u32::try_from(edge_bound).is_err() {
        bail!(
            Span::NONE,
            "workload `{}` is too large: node ids and edge offsets are 32 bits",
            wl.name
        );
    }

    // Every `(src, dst, tag)` channel must pair sends and recvs 1:1; the
    // i-th send pairs with the i-th recv, which sorting lines up.
    sends.sort_unstable();
    recvs.sort_unstable();
    check_channels(wl, &sends, &recvs)?;
    check_barriers(wl, &barriers)?;
    let rounds = barriers[0] as usize;

    // Group the nodes by processor.
    prefix_sums(&mut proc_start);
    let mut next_slot = proc_start.clone();
    let mut global = vec![0; n];
    let mut slot_of = vec![0u32; n];
    for (i, node) in wl.nodes.iter().enumerate() {
        let slot = &mut next_slot[node.proc as usize];
        (global[*slot as usize], slot_of[i]) = (i as NodeId, *slot);
        *slot += 1;
    }
    let id_of = |end: &[u32; 4]| end[3];
    let pairs = || sends.iter().map(id_of).zip(recvs.iter().map(id_of));

    // Count, then fill, both graphs from the same enumeration. The
    // ordering graph has a vertex per node and one per barrier round.
    let mut order_start = vec![0u32; n + rounds + 1];
    let mut waits_on = vec![0u32; n + rounds];
    let mut succ_start = vec![0u32; n + 1];
    let mut indeg = vec![0u32; n];
    edges(
        wl,
        &round,
        &proc_start,
        &global,
        pairs(),
        |from, stands_in, to| {
            order_start[from as usize] += 1;
            waits_on[to as usize] += 1;
            if let Some(local) = stands_in {
                succ_start[slot_of[local as usize] as usize] += 1;
                indeg[slot_of[to as usize] as usize] += 1;
            }
        },
    );
    prefix_sums(&mut order_start);
    prefix_sums(&mut succ_start);
    let mut order = vec![0u32; order_start[n + rounds] as usize];
    let mut succs = vec![0u32; succ_start[n] as usize];
    // Filling advances each vertex's start to its end, which is the next
    // vertex's start; shifting by one afterwards restores the offsets.
    edges(
        wl,
        &round,
        &proc_start,
        &global,
        pairs(),
        |from, stands_in, to| {
            let at = &mut order_start[from as usize];
            order[*at as usize] = to;
            *at += 1;
            if let Some(local) = stands_in {
                let at = &mut succ_start[slot_of[local as usize] as usize];
                succs[*at as usize] = slot_of[to as usize];
                *at += 1;
            }
        },
    );
    order_start.copy_within(..n + rounds, 1);
    order_start[0] = 0;
    succ_start.copy_within(..n, 1);
    succ_start[0] = 0;
    check_acyclic(wl, &order_start, &order, waits_on)?;
    drop((order_start, order));

    // The sorted recvs are the interpreter's channel table as they are.
    let mut recv_start = vec![0u32; procs + 1];
    for &[dst, ..] in &recvs {
        recv_start[dst as usize] += 1;
    }
    prefix_sums(&mut recv_start);
    let op_of = |&i: &NodeId| wl.nodes.at(i as usize).op;
    Ok(Plan {
        procs: wl.procs,
        ops: global.iter().map(op_of).collect(),
        proc_start,
        global,
        indeg,
        succ_start,
        succs,
        recv_start,
        recv_key: recvs.iter().map(|&[_, src, tag, _]| (src, tag)).collect(),
        recv_slot: recvs.iter().map(|end| slot_of[end[3] as usize]).collect(),
    })
}

/// Compare the sorted sends and recvs channel by channel; report the
/// first offending node in declaration order, across both surplus
/// directions.
fn check_channels(wl: &Workload, sends: &[[u32; 4]], recvs: &[[u32; 4]]) -> Result<(), WlError> {
    let chan = |end: &[u32; 4]| [end[0], end[1], end[2]];
    let run = |side: &[[u32; 4]], at: usize, c: [u32; 3]| {
        side[at..].iter().take_while(|end| chan(end) == c).count()
    };
    let mut worst: Option<(NodeId, String)> = None;
    let (mut s, mut r) = (0, 0);
    while s < sends.len() || r < recvs.len() {
        let c = match (sends.get(s), recvs.get(r)) {
            (Some(a), Some(b)) => chan(a).min(chan(b)),
            (Some(k), None) | (None, Some(k)) => chan(k),
            (None, None) => unreachable!("loop condition"),
        };
        let (ns, nr) = (run(sends, s, c), run(recvs, r, c));
        if ns != nr {
            // The first send (recv) past the last one with a partner.
            let (kind, other, id) = if ns > nr {
                ("send", "recv", sends[s + nr][3])
            } else {
                ("recv", "send", recvs[r + ns][3])
            };
            if worst.as_ref().is_none_or(|(w, _)| id < *w) {
                let [dst, src, tag] = c;
                let msg = format!(
                    "{kind} `{}` has no matching {other}: channel {src} -> {dst} tag={tag} has \
                     {ns} send(s) but {nr} recv(s)",
                    wl.nodes.at(id as usize).label
                );
                worst = Some((id, msg));
            }
        }
        (s, r) = (s + ns, r + nr);
    }
    match worst {
        Some((id, msg)) => Err(WlError::at(wl.nodes.span(id), msg).with_help(
            "every send needs exactly one recv on the same (src, dst, tag) channel; \
             the i-th send pairs with the i-th recv in declaration order",
        )),
        None => Ok(()),
    }
}

/// The global barrier releases only when every processor enters, so
/// every processor must declare the same number of barrier nodes.
fn check_barriers(wl: &Workload, count: &[u32]) -> Result<(), WlError> {
    let max = *count.iter().max().expect("procs >= 1");
    let Some(short) = count.iter().position(|&c| c < max) else {
        return Ok(());
    };
    // Point at the first barrier of a processor with the most rounds.
    let most = |nd: Node<'_>| matches!(nd.op, Op::Barrier) && count[nd.proc as usize] == max;
    let id = wl
        .nodes
        .iter()
        .position(most)
        .expect("some processor has `max`");
    let msg = format!(
        "uneven barrier participation: processor {} enters {max} barrier(s) but \
         processor {short} enters {}; the global barrier would never release",
        wl.nodes.at(id).proc,
        count[short]
    );
    Err(WlError::at(wl.nodes.span(id as NodeId), msg)
        .with_help("give every processor the same number of barrier statements"))
}

/// Kahn's toposort over the ordering graph; leftover vertices hold a
/// cycle, which is walked and reported by label.
fn check_acyclic(
    wl: &Workload,
    start: &[u32],
    succs: &[u32],
    mut waits_on: Vec<u32>,
) -> Result<(), WlError> {
    let (n, total) = (wl.nodes.len(), waits_on.len());
    let mut ready: Vec<usize> = (0..total).filter(|&v| waits_on[v] == 0).collect();
    let mut done = 0;
    while let Some(v) = ready.pop() {
        done += 1;
        for &s in &succs[start[v] as usize..start[v + 1] as usize] {
            waits_on[s as usize] -= 1;
            if waits_on[s as usize] == 0 {
                ready.push(s as usize);
            }
        }
    }
    if done == total {
        return Ok(());
    }
    // Depth-first from the first leftover vertex, always into the first
    // leftover successor; a leftover vertex downstream of every cycle is
    // a dead end, and the walk backs out of it.
    let (fresh, on_path, dead_end) = (0u8, 1, 2);
    let mut state = vec![fresh; total];
    let mut path: Vec<(usize, u32)> = Vec::new();
    let cycle = 'walk: {
        for first in (0..total).filter(|&v| waits_on[v] > 0) {
            if state[first] == fresh {
                state[first] = on_path;
                path.push((first, start[first]));
            }
            while let Some((v, next)) = path.last_mut() {
                if *next == start[*v + 1] {
                    state[*v] = dead_end;
                    path.pop();
                    continue;
                }
                let s = succs[*next as usize] as usize;
                *next += 1;
                if state[s] == on_path {
                    let from = path.iter().position(|&(x, _)| x == s).expect("on path");
                    break 'walk &path[from..];
                }
                if waits_on[s] > 0 && state[s] == fresh {
                    state[s] = on_path;
                    path.push((s, start[s]));
                }
            }
        }
        unreachable!("leftover vertices of a toposort contain a cycle")
    };
    let name = |&(v, _): &(usize, u32)| match wl.nodes.get(v) {
        Some(node) => format!("`{}`", node.label),
        None => format!("barrier round {}", v - n),
    };
    let mut labels: Vec<String> = cycle.iter().map(name).collect();
    labels.push(name(&cycle[0]));
    let anchor = cycle.iter().map(|&(v, _)| v).find(|&v| v < n);
    let span = anchor.map_or(Span::NONE, |v| wl.nodes.span(v as NodeId));
    Err(
        WlError::at(span, format!("dependency cycle: {}", labels.join(" -> "))).with_help(
            "a node cannot (transitively) wait on itself; check `after:` lists, \
             send/recv pairing order, and barrier rounds",
        ),
    )
}
