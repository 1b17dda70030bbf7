//! The workload schedule IR: a validated DAG of `send` / `recv` /
//! `compute` / `barrier` / `timer` nodes with per-node processor
//! assignment, payload sizes, and dependency edges.
//!
//! A [`Workload`] is machine-independent in the network-oblivious sense:
//! it names processors `0..procs` and cycle counts, but carries no
//! L/o/g — the same DAG can be interpreted on any [`logp_core::LogP`]
//! quadruple with enough processors (see [`crate::interp::run_workload`]).
//!
//! Construction paths: the text loader ([`crate::parse`]), trace replay
//! ([`crate::replay`]), the fuzz generator ([`crate::fuzz`]), or the
//! [`Workload::node`] builder directly. Every path funnels through the
//! same check ([`Workload::validate`], or the interpreter's own call of
//! it) before a node runs.
//!
//! The nodes live in one arena, [`Nodes`]: a fixed 48-byte record per node
//! over three shared buffers (label bytes, dependency ids, dependency
//! spans), read through borrowed [`Node`] views. It is append-only —
//! [`Workload::node`] is the one public writer and nothing edits a node in
//! place — which is what lets it carry its own *seal*: the plan that
//! check-and-lower (`lower.rs`) made of exactly these nodes, kept by
//! [`Workload::validate`], shared by every run, and dropped by an append.

use crate::lower::{lower, Plan};
use logp_core::{Cycles, ProcId};
use logp_sim::Data;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Index of a node within [`Workload::nodes`] (also its `id` field).
pub type NodeId = u32;

/// Source position of a token in the text form, 1-based. Programmatic
/// builders leave it at `Span::NONE` (0:0).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// 1-based line number (0 = not from text).
    pub line: u32,
    /// 1-based column number (0 = not from text).
    pub col: u32,
}

impl Span {
    /// The span of nodes built programmatically (not loaded from text).
    pub const NONE: Span = Span { line: 0, col: 0 };

    /// Construct a 1-based source position.
    pub fn new(line: u32, col: u32) -> Self {
        Span { line, col }
    }
}

/// Payload carried by a DSL `send`. The model treats every message as
/// small; `Block` exists so a workload can declare a payload *size* that
/// shows up in word-count statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// No payload beyond the tag.
    Empty,
    /// One unsigned word (`data=N`).
    Word(u64),
    /// A zero-filled block of `N` words (`words=N`) — declares payload
    /// size for statistics without inventing contents.
    Block(u32),
}

impl Payload {
    /// Lower to the engine's message payload.
    pub fn to_data(self) -> Data {
        match self {
            Payload::Empty => Data::Empty,
            Payload::Word(v) => Data::U64(v),
            Payload::Block(n) => Data::Block(Arc::new(vec![0; n as usize])),
        }
    }
}

/// One schedule operation, assigned to the processor named by
/// [`Node::proc`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Inject a message to `dst`. The node completes when the send
    /// command is issued (the sender may proceed after its overhead `o`,
    /// which the engine charges; completion here is issue time so
    /// back-to-back sends pipeline at the gap `g` exactly like a
    /// hand-written `Process`).
    Send {
        /// Destination processor.
        dst: ProcId,
        /// Message tag; pairs this send with a `recv` on the same
        /// `(src, dst, tag)` channel.
        tag: u32,
        /// Declared payload.
        payload: Payload,
    },
    /// Wait for the matching message from `src`. The i-th `recv` on a
    /// `(src, dst, tag)` channel (in declaration order) completes when
    /// the i-th message on that channel is delivered.
    Recv {
        /// Source processor.
        src: ProcId,
        /// Message tag (must match the paired send).
        tag: u32,
    },
    /// Busy the processor for `cycles` cycles.
    Compute {
        /// Cycle cost.
        cycles: Cycles,
    },
    /// Enter the global barrier; completes when the barrier releases.
    Barrier,
    /// Arm a timer; completes `cycles` after it is armed. Arming is
    /// free and does not block later commands.
    Timer {
        /// Delay before the timer fires.
        cycles: Cycles,
    },
}

/// One node of the schedule DAG, as read out of [`Nodes`]: a view whose
/// label and dependency list borrow from the arena.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Node<'a> {
    /// Index of this node in [`Workload::nodes`].
    pub id: NodeId,
    /// Unique label (the `name:` prefix in the text form).
    pub label: &'a str,
    /// Processor this node executes on. For `send` this is the source;
    /// for `recv`, the destination.
    pub proc: ProcId,
    /// The operation.
    pub op: Op,
    /// Explicit dependencies (`after:`): this node fires only once every
    /// listed node has completed. Must all be on the same processor —
    /// cross-processor ordering is carried by send/recv pairs.
    pub deps: &'a [NodeId],
}

/// The fixed-size part of a node. Its label and its dependencies are the
/// stretches of the shared buffers from the previous record's ends to its
/// own.
#[derive(Clone, Copy)]
struct Record {
    proc: ProcId,
    op: Op,
    label_end: u32,
    deps_end: u32,
    /// Position of the label token.
    span: Span,
}

/// The nodes of a [`Workload`], in declaration order: an append-only arena
/// read through [`Node`] views. Equality is structural — source positions
/// (formatting) are ignored, so a text round-trip compares equal to the
/// original.
#[derive(Clone, Default)]
pub struct Nodes {
    records: Vec<Record>,
    labels: String,
    deps: Vec<NodeId>,
    /// Position of each `after:` label the loader read: parallel to a
    /// prefix of `deps` ([`Workload::node`] records none).
    dep_spans: Vec<Span>,
    /// The loader's own proof that no two labels are equal.
    distinct_labels: bool,
    /// The plan `lower` made of exactly these nodes, for `Plan::procs`
    /// processors. Every writer below empties it.
    seal: OnceLock<Arc<Plan>>,
}

impl Nodes {
    /// An empty arena with room for `nodes` typical statements.
    pub(crate) fn with_capacity(nodes: usize) -> Self {
        Nodes {
            records: Vec::with_capacity(nodes),
            labels: String::with_capacity(8 * nodes),
            deps: Vec::with_capacity(nodes),
            dep_spans: Vec::with_capacity(nodes),
            ..Nodes::default()
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// No nodes at all.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Where record `i`'s label and dependencies lie in their buffers.
    fn stretches(&self, i: usize) -> (Range<usize>, Range<usize>) {
        let (label_from, deps_from) = match i.checked_sub(1) {
            Some(prev) => (self.records[prev].label_end, self.records[prev].deps_end),
            None => (0, 0),
        };
        let r = &self.records[i];
        (
            label_from as usize..r.label_end as usize,
            deps_from as usize..r.deps_end as usize,
        )
    }

    /// Node `i`. Panics past the end, as indexing a slice does.
    pub fn at(&self, i: usize) -> Node<'_> {
        let (label, deps) = self.stretches(i);
        Node {
            id: i as NodeId,
            label: &self.labels[label],
            proc: self.records[i].proc,
            op: self.records[i].op,
            deps: &self.deps[deps],
        }
    }

    /// Node `i`, if there is one.
    pub fn get(&self, i: usize) -> Option<Node<'_>> {
        (i < self.len()).then(|| self.at(i))
    }

    /// Every node, in declaration order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Node<'_>> + DoubleEndedIterator + '_ {
        (0..self.len()).map(|i| self.at(i))
    }

    /// Source position of node `id`'s label ([`Span::NONE`] unless the node
    /// was loaded from text).
    pub fn span(&self, id: NodeId) -> Span {
        self.records.get(id as usize).map_or(Span::NONE, |r| r.span)
    }

    /// Source position of node `id`'s `k`-th `after:` label ([`Span::NONE`]
    /// unless the node was loaded from text).
    pub fn dep_span(&self, id: NodeId, k: usize) -> Span {
        if id as usize >= self.len() {
            return Span::NONE;
        }
        let at = self.stretches(id as usize).1.nth(k);
        let span = at.and_then(|at| self.dep_spans.get(at));
        span.copied().unwrap_or(Span::NONE)
    }

    /// Add a dependency, read at `span`, to the node the next
    /// [`Nodes::push`] closes.
    pub(crate) fn push_dep(&mut self, dep: NodeId, span: Span) {
        self.deps.push(dep);
        self.dep_spans.push(span);
    }

    /// Append a node whose dependencies are the ones added since the last
    /// node; returns its id. An append is an edit: whatever was proven of
    /// the nodes so far no longer covers them all.
    pub(crate) fn push(&mut self, label: &str, proc: ProcId, op: Op, span: Span) -> NodeId {
        let offset = |len: usize| u32::try_from(len).expect("arena offsets are 32 bits");
        let id = offset(self.records.len());
        self.labels.push_str(label);
        self.records.push(Record {
            proc,
            op,
            label_end: offset(self.labels.len()),
            deps_end: offset(self.deps.len()),
            span,
        });
        self.distinct_labels = false;
        self.seal = OnceLock::new();
        id
    }

    /// Point node `id`'s `k`-th dependency at `dep`: how the loader
    /// resolves an `after:` label defined further down the file.
    pub(crate) fn set_dep(&mut self, id: NodeId, k: usize, dep: NodeId) {
        let (_, deps) = self.stretches(id as usize);
        self.deps[deps][k] = dep;
        self.seal = OnceLock::new();
    }

    /// The loader's word that it found no two labels equal; the next
    /// append withdraws it.
    pub(crate) fn mark_labels_distinct(&mut self) {
        self.distinct_labels = true;
    }

    pub(crate) fn labels_distinct(&self) -> bool {
        self.distinct_labels
    }
}

impl PartialEq for Nodes {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for Nodes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A loaded workload: name, processor count, optional preset hint, and
/// the schedule DAG.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Workload {
    /// Workload name (`workload <name>`).
    pub name: String,
    /// Number of processors the schedule addresses (`procs <N>`). The
    /// interpreter runs on exactly this many.
    pub procs: u32,
    /// Optional machine-preset hint (`preset <name>`); purely advisory —
    /// the interpreter runs on whatever machine the caller supplies.
    pub preset: Option<String>,
    /// The DAG, in declaration order. Ready nodes on one processor fire
    /// in declaration order, so this order is part of program semantics.
    pub nodes: Nodes,
}

/// A loader or validator rejection, carrying the source position of the
/// offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WlError {
    /// 1-based line (0 when the workload was built programmatically).
    pub line: u32,
    /// 1-based column (0 when the workload was built programmatically).
    pub col: u32,
    /// What is wrong, mentioning the offending token.
    pub msg: String,
    /// Optional suggestion ("did you mean ...").
    pub help: Option<String>,
}

/// Return a [`WlError`] at a span, with a formatted message.
macro_rules! bail {
    ($span:expr, $($msg:tt)+) => {
        return Err(WlError::at($span, format!($($msg)+)))
    };
}
pub(crate) use bail;

impl WlError {
    pub(crate) fn at(span: Span, msg: impl Into<String>) -> Self {
        WlError {
            line: span.line,
            col: span.col,
            msg: msg.into(),
            help: None,
        }
    }

    pub(crate) fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }
}

impl std::fmt::Display for WlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.msg)?;
        if let Some(h) = &self.help {
            write!(f, "\n  help: {h}")?;
        }
        Ok(())
    }
}

impl std::error::Error for WlError {}

impl Workload {
    /// Empty workload over `procs` processors.
    pub fn new(name: impl Into<String>, procs: u32) -> Self {
        Workload {
            name: name.into(),
            procs,
            ..Workload::default()
        }
    }

    /// Append a node and return its id. Dependencies must name already
    /// appended nodes (forward references exist only in the text form,
    /// where the parser resolves them). This is the one way to write a
    /// node; the next [`Workload::validate`] or run checks the whole
    /// program again.
    pub fn node(
        &mut self,
        label: impl AsRef<str>,
        proc: ProcId,
        op: Op,
        deps: &[NodeId],
    ) -> NodeId {
        self.nodes.deps.extend_from_slice(deps);
        self.nodes.push(label.as_ref(), proc, op, Span::NONE)
    }

    /// The checked plan of this program on `self.procs` processors: the
    /// one the arena is sealed with when there is one, else a fresh
    /// `lower`, kept as the seal for the next caller. `procs` is a public
    /// field, so a seal made for another count does not answer; the nodes
    /// are covered by construction — only [`Nodes`]' own writers change
    /// them, and each empties the seal.
    pub(crate) fn plan(&self) -> Result<Arc<Plan>, WlError> {
        if let Some(plan) = self.nodes.seal.get().filter(|p| p.procs == self.procs) {
            return Ok(plan.clone());
        }
        let plan = Arc::new(lower(self)?);
        // Lost to another thread's equal plan, or to one for another
        // `procs`: either way the one in hand is right for this call.
        let _ = self.nodes.seal.set(plan.clone());
        Ok(plan)
    }

    /// Reject every malformed program: duplicate labels, out-of-range
    /// processors, self-sends, dangling or cross-processor dependencies,
    /// unmatched send/recv pairs, uneven barrier participation, cycles
    /// (through explicit edges, channel order, and barrier rounds), and
    /// sizes past the limits in `docs/WORKLOADS.md`. Never panics; every
    /// rejection carries the span of the offending token. A node is known
    /// by its index in [`Workload::nodes`].
    ///
    /// This is the interpreter's check-and-lower, and it keeps what it
    /// made: [`crate::interp::run_workload`] on a validated (so on a
    /// loaded) workload starts from the same plan instead of checking
    /// again, until a node is appended or `procs` changes.
    pub fn validate(&self) -> Result<(), WlError> {
        self.plan().map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a node costs beyond its label bytes and dependency ids; the
    /// schedules of ROADMAP item 3 (P = 2¹⁹) are sized by it.
    #[test]
    fn a_node_record_is_at_most_48_bytes() {
        assert!(std::mem::size_of::<Record>() <= 48);
        assert!(std::mem::size_of::<Op>() <= 24);
    }
}
