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
//! are grouped by processor with a counting sort that also writes each
//! slot's operation, channels are paired by sorting the sends and the
//! recvs on `(dst, src, tag, id)`, and one pass over the nodes, run twice
//! (count, then fill), puts the edges a processor's own completions carry
//! into its successor lists, in compressed-row form.
//!
//! The cycle check is a dry run of that plan: Kahn's toposort over the
//! successor lists, with each send releasing its paired recv and each
//! barrier round releasing once every processor entered it. The global
//! ordering graph — a vertex per node and one per barrier round — is
//! enumerated only after the dry run stalls, to name the cycle it proved.

use crate::ir::{bail, Node, NodeId, Nodes, Op, Payload, Span, WlError, Workload};
use logp_core::ProcId;
use std::hash::{BuildHasher, Hasher, RandomState};

/// Most processors a workload may declare: the engines pack `proc + 1`
/// into 20 bits of their sequence keys.
pub(crate) const MAX_PROCS: u32 = 1 << 20;
/// Largest `words=` block (8 MiB of payload, allocated when the send
/// fires).
pub(crate) const MAX_BLOCK_WORDS: u32 = 1 << 20;
/// `round` entry of a node that is not a barrier.
const NO_ROUND: u32 = u32::MAX;
/// `partner` entries of the slots that are not sends: of a barrier, and
/// of the rest.
const BARRIER: u32 = u32::MAX - 1;
const NO_PARTNER: u32 = u32::MAX;
/// `left` entry of a slot the dry run completed.
const DONE: u32 = u32::MAX;
const NO_LOOP: &str = "the LogP network has no self-loop";

/// Label → node id, over the labels of a [`Nodes`] arena: open
/// addressing on a byte a slot, 7 bits of the label's hash with the high
/// bit set (0 is a free slot), beside the slot's node id. A match is
/// confirmed against the arena's label bytes, so a search reads a byte
/// array a 24th the size of a std map of `&str` keys, which stays in
/// cache where wider slots missed it on every insert of a load. The hash
/// is keyed per table, so labels crafted against one run do not collide
/// in the next.
pub(crate) struct Labels {
    tags: Vec<u8>,
    ids: Vec<NodeId>,
    key: u64,
}

/// Room for no label: a placeholder (the loader's `Parser::default()`)
/// until a table sized for the program replaces it.
impl Default for Labels {
    fn default() -> Self {
        Labels::with_capacity(0)
    }
}

impl Labels {
    /// Room for `n` labels, and at most `n` are ever inserted: the table
    /// stays at most three quarters full, so every search ends on a free
    /// slot.
    pub(crate) fn with_capacity(n: usize) -> Self {
        let slots = (n + n / 3 + 1).next_power_of_two();
        let key = RandomState::new().build_hasher().finish();
        Labels {
            tags: vec![0; slots],
            ids: vec![0; slots],
            key,
        }
    }

    /// A folded-multiply hash of `label`, 8 bytes at a time.
    fn hash(&self, label: &str) -> u64 {
        let fold = |h: u64, w: u64| {
            let m = u128::from(h ^ w) * 0x9e37_79b9_7f4a_7c15;
            (m as u64) ^ (m >> 64) as u64
        };
        let word = |h, c: &[u8]| fold(h, c.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b)));
        let h = label
            .as_bytes()
            .chunks(8)
            .fold(self.key ^ label.len() as u64, word);
        fold(h, self.key)
    }

    /// The node named `label`, or the free slot the search for it ended
    /// on, with the tag that goes there.
    pub(crate) fn find(&self, label: &str, nodes: &Nodes) -> Result<NodeId, (usize, u8)> {
        let (h, mask) = (self.hash(label), self.tags.len() - 1);
        let (tag, mut at) = ((h >> 57) as u8 | 0x80, h as usize & mask);
        loop {
            match self.tags[at] {
                0 => return Err((at, tag)),
                t if t == tag && nodes.at(self.ids[at] as usize).label == label => {
                    return Ok(self.ids[at])
                }
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Name node `id` by `label`, unless a node of `nodes` has that label
    /// already: then that node.
    pub(crate) fn insert(&mut self, label: &str, id: NodeId, nodes: &Nodes) -> Option<NodeId> {
        // A free slot takes the label; a match is the first node of that name.
        let found = self.find(label, nodes);
        found
            .map_err(|(at, tag)| (self.tags[at], self.ids[at]) = (tag, id))
            .ok()
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

/// Every ordering edge but the channel pairs, in one pass over the
/// nodes, as `f(from, stands_in, to, fence)`. `from` is a node, or `n + r`
/// for the release of barrier round `r`, and `to` likewise. `stands_in`
/// is the node on `to`'s processor whose completion carries the edge
/// there (a release is carried by the processor's own barrier of that
/// round); it is `None` for a barrier entering its round, an edge only the
/// cycle check sees. `fence` marks the edges of a barrier's fence.
///
/// The order of the edges leaving one vertex decides which cycle a
/// rejection prints: dependency and round edges in declaration order, then
/// the fence edges in declaration order, then the channel pairs.
///
/// `round[i]` is node `i`'s barrier round ([`NO_ROUND`] for the rest: a
/// processor's k-th barrier takes part in global round k); `proc_start`
/// and `global` are as in [`Plan`].
fn edges(
    wl: &Workload,
    round: &[u32],
    proc_start: &[u32],
    global: &[NodeId],
    mut f: impl FnMut(u32, Option<NodeId>, u32, bool),
) {
    let (n, procs) = (wl.nodes.len() as u32, wl.procs as usize);
    // Per processor: its latest barrier so far, the next slot to visit,
    // and the first slot of the open segment (the nodes since that barrier).
    let mut last = vec![NodeId::MAX; procs];
    let mut cursor: Vec<(u32, u32)> = proc_start[..procs].iter().map(|&s| (s, s)).collect();
    for (i, node) in (0..).zip(wl.nodes.iter()) {
        for &d in node.deps {
            // Depending on a barrier means "after that round releases".
            match round[d as usize] {
                NO_ROUND => f(d, Some(d), i, false),
                r => f(n + r, Some(d), i, false),
            }
        }
        let q = node.proc as usize;
        let (slot, segment) = &mut cursor[q];
        // A barrier is a full fence on its processor: every earlier node
        // completes before it is entered (otherwise a later-ready send
        // could queue up behind the barrier command and starve another
        // processor into deadlock), and every later node waits for the
        // release.
        let r = round[i as usize];
        if r != NO_ROUND {
            // Entering round r contributes to its release, and a
            // processor reaches round r only once round r-1 released.
            f(i, None, n + r, false);
            if r > 0 {
                f(n + r - 1, Some(last[q]), i, false);
            }
            for &s in &global[*segment as usize..*slot as usize] {
                f(s, Some(s), i, true);
            }
            (*segment, last[q]) = (*slot + 1, i);
        } else if last[q] != NodeId::MAX {
            f(n + round[last[q] as usize], Some(last[q]), i, true);
        }
        *slot += 1;
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
    let mut labels = (!wl.nodes.labels_distinct()).then(|| Labels::with_capacity(n));
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
        if let Some(first) = labels.as_mut().and_then(|l| l.insert(name, id, &wl.nodes)) {
            bail!(
                at(),
                "duplicate label `{name}` (first defined at line {})",
                wl.nodes.span(first).line
            );
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
    // i-th send pairs with the i-th recv, which sorting lines up (on the
    // four fields as one 128-bit key).
    let key = |end: &[u32; 4]| end.iter().fold(0u128, |k, &x| k << 32 | u128::from(x));
    sends.sort_unstable_by_key(key);
    recvs.sort_unstable_by_key(key);
    check_channels(wl, &sends, &recvs)?;
    check_barriers(wl, &barriers)?;

    // Group the nodes by processor, each slot with its node and operation.
    prefix_sums(&mut proc_start);
    let mut next_slot = proc_start.clone();
    let (mut global, mut ops) = (vec![0; n], vec![Op::Barrier; n]);
    let (mut slot_of, mut partner) = (vec![0u32; n], vec![NO_PARTNER; n]);
    for (i, node) in wl.nodes.iter().enumerate() {
        let slot = &mut next_slot[node.proc as usize];
        (global[*slot as usize], ops[*slot as usize]) = (i as NodeId, node.op);
        if matches!(node.op, Op::Barrier) {
            partner[*slot as usize] = BARRIER;
        }
        slot_of[i] = *slot;
        *slot += 1;
    }

    // The i-th send on a channel pairs with the i-th recv, and the sorted
    // recvs are the interpreter's channel table as they are.
    for (send, recv) in sends.iter().zip(&recvs) {
        partner[slot_of[send[3] as usize] as usize] = slot_of[recv[3] as usize];
    }
    let mut recv_start = vec![0u32; procs + 1];
    for &[dst, ..] in &recvs {
        recv_start[dst as usize] += 1;
    }
    prefix_sums(&mut recv_start);
    let recv_key = recvs.iter().map(|&[_, src, tag, _]| (src, tag)).collect();
    let recv_slot = recvs.iter().map(|end| slot_of[end[3] as usize]).collect();
    drop((sends, recvs));

    // Count, then fill, the per-processor successor lists from the edges a
    // processor's own completions carry; the rest (a barrier entering its
    // round, a send reaching its recv) are the dry run's to follow. Filling
    // advances each slot's start to its end, which is the next slot's
    // start; shifting by one afterwards restores the offsets.
    let local = |f: &mut dyn FnMut(usize, usize)| {
        edges(wl, &round, &proc_start, &global, |_, stands_in, to, _| {
            if let Some(s) = stands_in {
                f(slot_of[s as usize] as usize, slot_of[to as usize] as usize);
            }
        });
    };
    let mut succ_start = vec![0u32; n + 1];
    let mut indeg = vec![0u32; n];
    local(&mut |from, to| {
        succ_start[from] += 1;
        indeg[to] += 1;
    });
    prefix_sums(&mut succ_start);
    let mut succs = vec![0u32; succ_start[n] as usize];
    local(&mut |from, to| {
        succs[succ_start[from] as usize] = to as u32;
        succ_start[from] += 1;
    });
    succ_start.copy_within(..n, 1);
    succ_start[0] = 0;
    drop(slot_of);
    let plan = Plan {
        procs: wl.procs,
        ops,
        proc_start,
        global,
        indeg,
        succ_start,
        succs,
        recv_start,
        recv_key,
        recv_slot,
    };
    check_acyclic(wl, &round, &plan, &partner)?;
    Ok(plan)
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

/// The cycle check, a dry run of `plan`: a slot completes once its
/// in-degree drains (a recv also once the send it `pairs` with did), and a
/// barrier round releases once every processor entered it. That is
/// Kahn's toposort of the ordering graph ([`edges`] and the channel
/// pairs) with each round's vertex folded into its barriers, so only a
/// program with a cycle stalls. Only then is the graph enumerated, to
/// walk the vertices left over and name a cycle.
fn check_acyclic(wl: &Workload, round: &[u32], plan: &Plan, pairs: &[u32]) -> Result<(), WlError> {
    let (n, global) = (wl.nodes.len(), &plan.global);
    let mut left = plan.indeg.clone();
    for &r in pairs.iter().filter(|&&r| r < BARRIER) {
        left[r as usize] += 1;
    }
    let mut ready: Vec<u32> = (0..n as u32).filter(|&s| left[s as usize] == 0).collect();
    // Barriers entered in the open round; a processor enters its round
    // r + 1 only once round r released.
    let (mut entered, mut released) = (Vec::new(), 0);
    while let Some(s) = ready.pop() {
        // A barrier's own vertex is done once entered; its successors
        // wait for the round to release.
        left[s as usize] = DONE;
        let barrier = pairs[s as usize] == BARRIER;
        if barrier {
            entered.push(s);
            if entered.len() < wl.procs as usize {
                continue;
            }
            released += 1;
        }
        let one = [s];
        for &f in if barrier { &entered[..] } else { &one } {
            let f = f as usize;
            let paired = Some(&pairs[f]).filter(|&&r| r < BARRIER);
            let succs = &plan.succs[plan.succ_start[f] as usize..plan.succ_start[f + 1] as usize];
            for &t in succs.iter().chain(paired) {
                left[t as usize] -= 1;
                if left[t as usize] == 0 {
                    ready.push(t);
                }
            }
        }
        if barrier {
            entered.clear();
        }
    }
    // Every barrier entered means every round released.
    if left.iter().all(|&l| l == DONE) {
        return Ok(());
    }
    // Enumerate the ordering graph: in each vertex's list the fence edges
    // follow the others, and a send's channel pair comes last.
    let rounds = round.iter().filter(|&&r| r != NO_ROUND).count() / wl.procs as usize;
    let total = n + rounds;
    let (mut succs, mut fences) = (vec![Vec::new(); total], vec![Vec::new(); total]);
    edges(wl, round, &plan.proc_start, global, |from, _, to, fence| {
        let order = if fence { &mut fences } else { &mut succs };
        order[from as usize].push(to);
    });
    // Walk the vertices left over, nodes by id and then rounds: depth
    // first from the first of them, always into the first leftover
    // successor. They hold a cycle; a leftover vertex downstream of every
    // cycle is a dead end, and the walk backs out of it.
    let (fresh, on_path, dead_end) = (0u8, 1, 2);
    let mut state = vec![fresh; total];
    state[n..n + released].fill(dead_end);
    for (s, &id) in global.iter().enumerate() {
        if left[s] == DONE {
            state[id as usize] = dead_end;
        }
        if let Some(&r) = pairs.get(s).filter(|&&r| r < BARRIER) {
            fences[id as usize].push(global[r as usize]);
        }
    }
    for (order, fences) in succs.iter_mut().zip(fences) {
        order.extend(fences);
    }
    let mut path: Vec<(usize, usize)> = Vec::new();
    let cycle = 'walk: {
        for first in 0..total {
            if state[first] == fresh {
                state[first] = on_path;
                path.push((first, 0));
            }
            while let Some((v, next)) = path.last_mut() {
                let Some(&s) = succs[*v].get(*next) else {
                    state[*v] = dead_end;
                    path.pop();
                    continue;
                };
                let s = s as usize;
                *next += 1;
                if state[s] == on_path {
                    let from = path.iter().position(|&(x, _)| x == s).expect("on path");
                    break 'walk &path[from..];
                }
                if state[s] == fresh {
                    state[s] = on_path;
                    path.push((s, 0));
                }
            }
        }
        unreachable!("the vertices a dry run leaves over contain a cycle")
    };
    let name = |&(v, _): &(usize, usize)| match wl.nodes.get(v) {
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
