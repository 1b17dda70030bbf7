//! The workload schedule IR: a validated DAG of `send` / `recv` /
//! `compute` / `barrier` / `timer` nodes with per-node processor
//! assignment, payload sizes, and dependency edges.
//!
//! A [`Workload`] is machine-independent in the network-oblivious sense:
//! it names processors `0..procs` and cycle counts, but carries no
//! L/o/g — the same DAG can be interpreted on any [`logp_core::LogP`]
//! quadruple with enough processors (see [`crate::interp::run_workload`]).
//!
//! Construction paths: the text loader ([`crate::parse`]), the corpus
//! emitters ([`crate::corpus`]), trace replay ([`crate::replay`]), the
//! fuzz generator ([`crate::fuzz`]), or the [`Workload::node`] builder
//! directly. Every path funnels through the same check ([`Workload::validate`],
//! or the interpreter's own call of it) before a node runs.

use logp_core::{Cycles, ProcId};
use logp_sim::Data;
use std::sync::Arc;

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
#[derive(Debug, Clone, PartialEq)]
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

impl Op {
    /// Statement keyword, as written in the text form.
    pub fn keyword(&self) -> &'static str {
        match self {
            Op::Send { .. } => "send",
            Op::Recv { .. } => "recv",
            Op::Compute { .. } => "compute",
            Op::Barrier => "barrier",
            Op::Timer { .. } => "timer",
        }
    }
}

/// One node of the schedule DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Index of this node in [`Workload::nodes`].
    pub id: NodeId,
    /// Unique label (the `name:` prefix in the text form).
    pub label: String,
    /// Processor this node executes on. For `send` this is the source;
    /// for `recv`, the destination.
    pub proc: ProcId,
    /// The operation.
    pub op: Op,
    /// Explicit dependencies (`after:`): this node fires only once every
    /// listed node has completed. Must all be on the same processor —
    /// cross-processor ordering is carried by send/recv pairs.
    pub deps: Vec<NodeId>,
}

/// Source positions for a node and each of its `after:` entries, kept
/// out of [`Node`] so structural equality ignores formatting.
#[derive(Debug, Clone, Default)]
pub struct NodeSpans {
    /// Position of the node's label token.
    pub node: Span,
    /// Position of each `after:` label, parallel to [`Node::deps`].
    pub deps: Vec<Span>,
}

/// A loaded workload: name, processor count, optional preset hint, and
/// the schedule DAG.
#[derive(Debug, Clone, Default)]
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
    pub nodes: Vec<Node>,
    /// Source positions, parallel to `nodes` (empty spans when built
    /// programmatically).
    pub spans: Vec<NodeSpans>,
}

impl PartialEq for Workload {
    /// Structural equality: spans (formatting) are ignored, so a
    /// text round-trip compares equal to the original.
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.procs == other.procs
            && self.preset == other.preset
            && self.nodes == other.nodes
    }
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
    /// where the parser resolves them).
    pub fn node(
        &mut self,
        label: impl Into<String>,
        proc: ProcId,
        op: Op,
        deps: &[NodeId],
    ) -> NodeId {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(Node {
            id,
            label: label.into(),
            proc,
            op,
            deps: deps.to_vec(),
        });
        self.spans.push(NodeSpans::default());
        id
    }

    pub(crate) fn span_of(&self, id: NodeId) -> Span {
        self.spans.get(id as usize).map_or(Span::NONE, |s| s.node)
    }

    pub(crate) fn dep_span(&self, id: NodeId, k: usize) -> Span {
        self.spans
            .get(id as usize)
            .and_then(|s| s.deps.get(k).copied())
            .unwrap_or(Span::NONE)
    }

    /// Reject every malformed program: duplicate labels, out-of-range
    /// processors, self-sends, dangling or cross-processor dependencies,
    /// unmatched send/recv pairs, uneven barrier participation, cycles
    /// (through explicit edges, channel order, and barrier rounds), and
    /// sizes past the limits in `docs/WORKLOADS.md`. Never panics; every
    /// rejection carries the span of the offending token. A node is known
    /// by its index in [`Workload::nodes`]; the `id` field is not read.
    ///
    /// This is the interpreter's check-and-lower with the lowered plan
    /// dropped: [`crate::interp::run_workload`] runs the same function
    /// once and keeps the plan.
    pub fn validate(&self) -> Result<(), WlError> {
        crate::lower::lower(self).map(drop)
    }
}
