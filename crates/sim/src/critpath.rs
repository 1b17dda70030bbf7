//! Critical-path analysis over the causal event DAG.
//!
//! Figure 3 of the paper argues the optimal broadcast's completion time
//! by walking the chain of sends that ends at the last processor and
//! attributing every cycle on it to `o`, `g`, or `L`. [`critical_path`]
//! mechanizes that argument for *any* run with the lifecycle log enabled
//! (`SimConfig::record_msg_log`): starting from the latest delivery,
//! compute completion, or barrier release, it follows each record's
//! [`Cause`] backward to time 0 and classifies every cycle in between.
//!
//! Because each node on the path covers exactly the interval from its
//! cause's completion (when its command was submitted) to its own
//! completion, the classified segments tile `[0, completion]` of the
//! terminal event with no gaps — so the component cycles always sum to
//! the path total, and for the paper's optimal broadcast and summation
//! schedules the total reproduces the closed forms in `logp-core`
//! cycle-exactly (pinned in `tests/observability.rs`).
//!
//! Attribution rules:
//! * a message's send/receive overhead windows are `o`; its network
//!   flight is `L` (for LogGP bulk messages the `(words-1)·G` stream is
//!   folded into the flight segment);
//! * within a wait window (command submitted but not started), time the
//!   processor spent busy takes that activity's class (`o` for other
//!   messages' overheads, compute, capacity stall, barrier), idle time
//!   before the recorded gap gate is `g`, and residual idle time is
//!   `wait`.

use crate::engine::SimResult;
use crate::obs::{BarrierRecord, Cause, ComputeRecord, MsgRecord, TimerRecord};
use crate::trace::{Activity, Span};
use logp_core::{Cycles, ProcId};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Classification of one critical-path segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepKind {
    /// Send or receive overhead.
    O,
    /// Waiting for an injection/reception gap slot.
    G,
    /// Network flight.
    L,
    /// Local computation.
    Compute,
    /// Capacity-constraint stall.
    Stall,
    /// Barrier cost or barrier wait.
    Barrier,
    /// Idle time not explained by the gap gate (e.g. a handler waiting
    /// for its processor to finish unrelated work).
    Wait,
    /// Time spent waiting on a retransmission timer — the protocol cost
    /// a reliable-delivery layer pays when a fault plan drops messages
    /// (the window between arming a [`crate::obs::TimerRecord`]'s timer
    /// and its fire, minus any busy activity inside it).
    Retry,
}

impl StepKind {
    /// Short label used in rendered reports ("o", "g", "L", ...).
    pub fn label(&self) -> &'static str {
        match self {
            StepKind::O => "o",
            StepKind::G => "g",
            StepKind::L => "L",
            StepKind::Compute => "compute",
            StepKind::Stall => "stall",
            StepKind::Barrier => "barrier",
            StepKind::Wait => "wait",
            StepKind::Retry => "retry",
        }
    }

    pub(crate) fn from_activity(a: Activity) -> StepKind {
        match a {
            Activity::SendOverhead | Activity::RecvOverhead => StepKind::O,
            Activity::Compute => StepKind::Compute,
            Activity::Stall => StepKind::Stall,
            Activity::Barrier => StepKind::Barrier,
        }
    }
}

/// One contiguous classified segment `[start, end)` of the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathStep {
    pub kind: StepKind,
    /// The processor the cycles were spent on (the sender for flight
    /// segments).
    pub proc: ProcId,
    pub start: Cycles,
    pub end: Cycles,
}

impl PathStep {
    pub fn cycles(&self) -> Cycles {
        self.end - self.start
    }
}

/// Cycle totals of the path by class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Components {
    pub o: Cycles,
    pub g: Cycles,
    pub l: Cycles,
    pub compute: Cycles,
    pub stall: Cycles,
    pub barrier: Cycles,
    pub wait: Cycles,
    pub retry: Cycles,
}

impl Components {
    /// Sum of all classes — always equals [`CritPath::total`].
    pub fn sum(&self) -> Cycles {
        self.o + self.g + self.l + self.compute + self.stall + self.barrier + self.wait + self.retry
    }

    pub(crate) fn add(&mut self, kind: StepKind, cycles: Cycles) {
        match kind {
            StepKind::O => self.o += cycles,
            StepKind::G => self.g += cycles,
            StepKind::L => self.l += cycles,
            StepKind::Compute => self.compute += cycles,
            StepKind::Stall => self.stall += cycles,
            StepKind::Barrier => self.barrier += cycles,
            StepKind::Wait => self.wait += cycles,
            StepKind::Retry => self.retry += cycles,
        }
    }
}

/// The analyzed critical path of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CritPath {
    /// Completion time of the terminal event (= `components.sum()`).
    pub total: Cycles,
    pub components: Components,
    /// The path's segments in time order, tiling `[0, total)`.
    pub steps: Vec<PathStep>,
}

impl CritPath {
    /// Human-readable report: component table plus the step sequence.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "critical path: {} cycles, {} steps",
            self.total,
            self.steps.len()
        );
        let c = &self.components;
        for (label, v) in [
            ("o", c.o),
            ("g", c.g),
            ("L", c.l),
            ("compute", c.compute),
            ("stall", c.stall),
            ("barrier", c.barrier),
            ("wait", c.wait),
            ("retry", c.retry),
        ] {
            if v > 0 {
                let pct = 100.0 * v as f64 / self.total.max(1) as f64;
                let _ = writeln!(s, "  {label:<8} {v:>8}  ({pct:5.1}%)");
            }
        }
        let _ = writeln!(s, "steps (start..end  proc  class):");
        for st in &self.steps {
            let _ = writeln!(
                s,
                "  {:>8}..{:<8} P{:<4} {}",
                st.start,
                st.end,
                st.proc,
                st.kind.label()
            );
        }
        s
    }
}

/// Classify the wait window `[from, to)` on `proc`, whose start-ordered
/// spans are `spans[proc]`: busy spans keep their activity class; idle
/// cycles before `gate` are `g`, after it `wait`. `None` if `spans` has no
/// such processor.
fn attribute_window(
    spans: &[Vec<Span>],
    proc: ProcId,
    [from, to, gate]: [Cycles; 3],
    out: &mut Vec<PathStep>,
) -> Option<()> {
    let spans = spans.get(proc as usize)?;
    if to <= from {
        return Some(());
    }
    let idle = |a: Cycles, b: Cycles, out: &mut Vec<PathStep>| {
        let mid = gate.clamp(a, b);
        if mid > a {
            out.push(PathStep {
                kind: StepKind::G,
                proc,
                start: a,
                end: mid,
            });
        }
        if b > mid {
            out.push(PathStep {
                kind: StepKind::Wait,
                proc,
                start: mid,
                end: b,
            });
        }
    };
    let mut t = from;
    for s in spans {
        if s.end <= t {
            continue;
        }
        if s.start >= to {
            break;
        }
        let a = s.start.max(t);
        if a > t {
            idle(t, a, out);
        }
        let b = s.end.min(to);
        out.push(PathStep {
            kind: StepKind::from_activity(s.activity),
            proc,
            start: a,
            end: b,
        });
        t = b;
        if t >= to {
            break;
        }
    }
    if t < to {
        idle(t, to, out);
    }
    Some(())
}

/// Walk the causal DAG backward from the run's last event and classify
/// every cycle on the chain. Returns `None` when the lifecycle log is
/// empty (observability was off, or nothing happened) — and, the log
/// being possibly a sampled or replayed one, when the chain cannot be
/// followed to a root: it cites a record the log does not hold or a
/// processor the machine does not have, runs longer than the log (a
/// record that cites itself, a cycle), or its segments do not tile
/// `[0, total)`.
pub fn critical_path(res: &SimResult) -> Option<CritPath> {
    let log = &res.obs;
    // Terminal node: the latest-completing delivery / compute / barrier,
    // with a deterministic (kind, id) tie-break.
    let msgs = log.delivered().map(|m| (m.deliver, 0, m.id));
    let computes = log.computes.iter().map(|c| (c.end, 1, c.id));
    let barriers = log.barriers.iter().map(|b| (b.release, 2, b.id));
    let (total, kind, id) = msgs.chain(computes).chain(barriers).max()?;
    let mut node = match kind {
        0 => Cause::Msg(id),
        1 => Cause::Compute(id),
        _ => Cause::Barrier(id),
    };

    // Per-processor spans in start order, for wait-window attribution.
    let nprocs = res.stats.procs.len();
    let mut spans: Vec<Vec<Span>> = vec![Vec::new(); nprocs];
    for s in &res.trace.spans {
        spans.get_mut(s.proc as usize)?.push(*s);
    }
    for v in &mut spans {
        v.sort_by_key(|s| s.start);
    }

    // Walk backward, collecting each node's (time-ordered) steps; a
    // chain through distinct records is no longer than the log.
    let mut rev_nodes: Vec<Vec<PathStep>> = Vec::new();
    for _ in 0..log.records() {
        let mut seg = Vec::new();
        let cause = match node {
            Cause::Start => break,
            Cause::Msg(id) => {
                let m = log.msg(id)?;
                attribute_window(&spans, m.src, [m.submit, m.inject, m.send_gate], &mut seg)?;
                if m.sent > m.inject {
                    seg.push(PathStep {
                        kind: StepKind::O,
                        proc: m.src,
                        start: m.inject,
                        end: m.sent,
                    });
                }
                if m.arrive > m.sent {
                    seg.push(PathStep {
                        kind: StepKind::L,
                        proc: m.src,
                        start: m.sent,
                        end: m.arrive,
                    });
                }
                attribute_window(
                    &spans,
                    m.dst,
                    [m.arrive, m.recv_start, m.recv_gate],
                    &mut seg,
                )?;
                if m.deliver > m.recv_start {
                    seg.push(PathStep {
                        kind: StepKind::O,
                        proc: m.dst,
                        start: m.recv_start,
                        end: m.deliver,
                    });
                }
                m.cause
            }
            Cause::Compute(id) => {
                let c = log.compute(id)?;
                attribute_window(&spans, c.proc, [c.submit, c.start, c.submit], &mut seg)?;
                if c.end > c.start {
                    seg.push(PathStep {
                        kind: StepKind::Compute,
                        proc: c.proc,
                        start: c.start,
                        end: c.end,
                    });
                }
                c.cause
            }
            Cause::Barrier(id) => {
                let b = log.barrier(id)?;
                attribute_window(&spans, b.last_proc, [b.submit, b.enter, b.submit], &mut seg)?;
                if b.release > b.enter {
                    seg.push(PathStep {
                        kind: StepKind::Barrier,
                        proc: b.last_proc,
                        start: b.enter,
                        end: b.release,
                    });
                }
                b.cause
            }
            Cause::Retry(id) => {
                let t = log.timer(id)?;
                attribute_window(&spans, t.proc, [t.submit, t.fire, t.submit], &mut seg)?;
                // Idle cycles inside the timer window are protocol cost
                // (waiting out a retransmission timeout), not g or
                // unexplained wait.
                for st in &mut seg {
                    if matches!(st.kind, StepKind::Wait | StepKind::G) {
                        st.kind = StepKind::Retry;
                    }
                }
                t.cause
            }
        };
        rev_nodes.push(seg);
        node = cause;
    }
    if node != Cause::Start {
        return None;
    }

    // Time order, merging contiguous same-class segments on one proc.
    let mut steps: Vec<PathStep> = Vec::new();
    let mut components = Components::default();
    let mut covered: Cycles = 0;
    for step in rev_nodes.into_iter().rev().flatten() {
        covered = covered.checked_add(step.cycles()).filter(|&c| c <= total)?;
        components.add(step.kind, step.cycles());
        match steps.last_mut() {
            Some(last)
                if last.kind == step.kind && last.proc == step.proc && last.end == step.start =>
            {
                last.end = step.end;
            }
            _ => steps.push(step),
        }
    }
    // The engine's own logs always tile (pinned in
    // `tests/observability.rs`); a damaged one that does not has no path.
    if covered != total {
        return None;
    }
    Some(CritPath {
        total,
        components,
        steps,
    })
}

// ---------------------------------------------------------------------------
// Online aggregation (streaming observability)
// ---------------------------------------------------------------------------

/// Incremental o/g/L/compute/stall/retry accounting maintained while
/// lifecycle records stream out of the engine (`SimConfig::aggregate`) —
/// the paper's Fig 3/Fig 4-style decomposition for runs too large to
/// retain an [`crate::obs::ObsLog`].
///
/// Two views coexist:
///
/// * **activity totals** — `global`, `per_proc`, and the time-binned
///   `bins` accumulate every activity span by class (`o`, `compute`,
///   `stall`, `barrier`); `global.l` additionally accumulates the network
///   flight of every delivered message. These are order-independent, so
///   they are identical for every lane count of the sharded engine.
/// * **the critical path** — `critical_total`/`critical` reproduce
///   [`critical_path`]'s decomposition of the terminal event's causal
///   chain, computed forward (each record's cumulative components are its
///   cause's plus its own wait-window attribution) instead of backward.
///   It matches [`critical_path`] cycle-exactly; docs/OBSERVABILITY.md
///   says where that is pinned, and names the one lanes-only window the
///   forward pass cannot attribute exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsAggregate {
    /// Activity totals by class across the whole machine (plus `l` =
    /// total delivered flight cycles).
    pub global: Components,
    /// Activity totals per processor.
    pub per_proc: Vec<Components>,
    /// Bin width of `bins` in cycles (`0` = time-binning off).
    pub grid: Cycles,
    /// Activity totals per `grid`-cycle time bin (spans split exactly at
    /// bin boundaries).
    pub bins: Vec<Components>,
    /// Message records created (including fault-dropped sends).
    pub msgs: u64,
    /// Messages delivered.
    pub delivered: u64,
    pub computes: u64,
    pub barriers: u64,
    /// Timers armed.
    pub timers: u64,
    /// Records handed to the sink after sampling.
    pub emitted: u64,
    /// Completion instant of the terminal event (= `critical.sum()`).
    pub critical_total: Cycles,
    /// Critical-path decomposition of the terminal event's causal chain.
    pub critical: Components,
}

/// Busy cycles of one processor by the classes an activity span can
/// carry: `o`, compute, stall, barrier.
pub(crate) type Busy = [Cycles; 4];

/// The capacity stall or barrier wait a processor is in, as `(start,
/// activity)`: its span is recorded only when it ends.
pub(crate) type OpenSpan = Option<(Cycles, Activity)>;

/// The classes of [`Busy`], in order.
const BUSY: [StepKind; 4] = [
    StepKind::O,
    StepKind::Compute,
    StepKind::Stall,
    StepKind::Barrier,
];

/// A processor's activity totals in [`Busy`] order.
fn busy_total(c: &Components) -> Busy {
    [c.o, c.compute, c.stall, c.barrier]
}

/// Where a wait window starts: the cumulative path components it
/// continues, and its processor's busy totals when it opened — so its
/// busy cycles per class are one subtraction when it closes.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WindowStart {
    cum: Components,
    busy: Busy,
}

/// One buffered activity span, reduced to what a gap-gate lookup reads.
#[derive(Debug, Clone, Copy)]
struct SpanSum {
    start: Cycles,
    /// Busy cycles by class over every earlier span of this processor
    /// (pruned ones included). The span's own class and length are the
    /// one difference to the next entry's `before` (or, for the newest
    /// span, to the processor's running total).
    before: Busy,
}

/// What a processor's gap-gate lookups need of its span buffer. A send
/// gate is never before the processor's last injection, nor a reception
/// gate before its last reception start, so the buffer reaches back that
/// far while a window of that kind is open, and otherwise to its newest
/// span.
#[derive(Debug, Clone, Copy, Default)]
struct Gates {
    inject: Cycles,
    recv: Cycles,
    /// Arrivals waiting for their reception to start.
    arrived: u32,
    /// Windows open with a [`LAZY`] start, and the earliest of those
    /// starts since `held` was last 0.
    held: u32,
    hold: Cycles,
}

/// The start of a window that opened inside a barrier wait. On the lanes
/// a release can be applied after later events of its processors: the
/// barrier then ended before the window opened, and the spans after it
/// are recorded after the window opened. Such a start is read from the
/// span buffer when the window closes.
const LAZY: Busy = [Cycles::MAX; 4];

/// The engine-side state behind [`ObsAggregate`]. Every per-record step
/// is an array index, a deque end, or a short scan back from a span
/// buffer's newest entry — no hashing, no ordered maps, no search:
///
/// * a wait window's start is a [`WindowStart`] snapshot that travels
///   with what already travels with the window: the per-invocation
///   `bases` entry of a queued command (in lockstep with the engine's
///   command queue), the in-flight record at a message's slab slot, an
///   armed timer's entry, a barrier entrant;
/// * per-processor span buffers with running busy totals ([`SpanSum`])
///   answer only gap-gate lookups, so they hold a handful of spans
///   (see [`Gates`]).
///
/// A window that opens or closes inside a stall or barrier span not yet
/// recorded counts that span from its start up to the window's edge.
/// Memory is the in-flight population plus a few spans a processor.
pub(crate) struct OnlineAgg {
    pub(crate) agg: ObsAggregate,
    /// Per-processor activity spans, start-ordered and disjoint, pruned
    /// as [`Gates`] allows. Their running totals are `agg.per_proc`.
    spans: Vec<VecDeque<SpanSum>>,
    gates: Vec<Gates>,
    /// Per processor, `(start, commands left)` for every handler
    /// invocation with commands still queued, oldest first: they share
    /// the triggering record's components and the submit instant.
    bases: Vec<VecDeque<(WindowStart, u32)>>,
    /// Cumulative components of the record whose handler runs next: a
    /// delivery, a timer fire or a barrier release, each followed by its
    /// handler(s) before any other such record completes.
    handler_cum: Components,
    /// Cumulative components of each processor's compute in flight (its
    /// handler runs at the compute's end, with other records between).
    compute_cum: Vec<Components>,
    /// The start of the most recently dequeued command, and its processor
    /// (whose send gate stays live until that command's window closes).
    pending: (WindowStart, usize),
    /// `(proc, cumulative components at entry)` of every barrier entrant.
    entrants: Vec<(ProcId, Components)>,
    /// Best terminal candidate: `(completion, kind-rank, id)` max, with
    /// its cumulative components captured at completion time.
    best: Option<(Cycles, u8, u64, Components)>,
    /// Most buffer entries read for one wait window (debug builds only).
    probes_max: u64,
}

impl OnlineAgg {
    pub(crate) fn new(p: usize, grid: Cycles) -> Self {
        OnlineAgg {
            agg: ObsAggregate {
                per_proc: vec![Components::default(); p],
                grid,
                ..Default::default()
            },
            spans: vec![VecDeque::new(); p],
            gates: vec![Gates::default(); p],
            bases: vec![VecDeque::new(); p],
            handler_cum: Components::default(),
            compute_cum: vec![Components::default(); p],
            pending: (WindowStart::default(), usize::MAX),
            entrants: Vec::new(),
            best: None,
            probes_max: 0,
        }
    }

    /// Busy cycles by class on processor index `p` strictly before `t`,
    /// from its span buffer and running totals, plus the part before `t`
    /// of the span it is `open` in. The buffer must still hold the last
    /// span starting before `t`, or that span must end by `t`. Adds the
    /// entries read to `probes`.
    fn busy(&self, p: usize, t: Cycles, open: OpenSpan, probes: &mut u64) -> Busy {
        // Scan back from the newest span: `t` is the current instant or a
        // gap gate shortly before it.
        let mut busy = busy_total(&self.agg.per_proc[p]);
        for s in self.spans[p].iter().rev() {
            *probes += 1;
            if s.start < t {
                // Less the part of this span at or after `t` (only its own
                // class differs from `before`).
                busy = std::array::from_fn(|c| busy[c].min(s.before[c] + (t - s.start)));
                break;
            }
            busy = s.before;
        }
        if let Some((since, a)) = open {
            let class = BUSY.iter().position(|&k| k == StepKind::from_activity(a));
            busy[class.unwrap_or(0)] += t.saturating_sub(since);
        }
        busy
    }

    /// `n` windows open on `p` at `now`, inside the span `open` if any:
    /// snapshot their busy totals, or hold the buffer back to `now` if
    /// the span is a barrier wait ([`LAZY`]).
    fn open(&mut self, p: ProcId, now: Cycles, open: OpenSpan, n: u32) -> Busy {
        let i = p as usize;
        if !matches!(open, Some((_, Activity::Barrier))) {
            return self.busy(i, now, open, &mut 0);
        }
        let g = &mut self.gates[i];
        g.hold = if g.held == 0 { now } else { g.hold.min(now) };
        g.held += n;
        LAZY
    }

    /// A handler triggered by `cause` queued `n` commands on `p` at
    /// time `now`, inside the span `open` if any: they start from the
    /// triggering record's components and `p`'s busy totals now.
    pub(crate) fn on_push(&mut self, p: ProcId, cause: Cause, now: Cycles, n: u32, open: OpenSpan) {
        let i = p as usize;
        let cum = match cause {
            Cause::Start => Components::default(),
            Cause::Compute(_) => self.compute_cum[i],
            Cause::Msg(_) | Cause::Barrier(_) | Cause::Retry(_) => self.handler_cum,
        };
        let busy = self.open(p, now, open, n);
        self.bases[i].push_back((WindowStart { cum, busy }, n));
    }

    /// The oldest queued command of `p` was dequeued: capture its start.
    pub(crate) fn on_pop(&mut self, p: ProcId) {
        let i = p as usize;
        let q = &mut self.bases[i];
        let Some((start, left)) = q.front_mut() else {
            debug_assert!(false, "bases track cmds in lockstep");
            return;
        };
        self.pending = (*start, i);
        *left -= 1;
        if *left == 0 {
            q.pop_front();
        }
    }

    /// `p` crashed: its queued commands and inbox are abandoned.
    pub(crate) fn on_crash(&mut self, p: ProcId) {
        self.bases[p as usize].clear();
        self.gates[p as usize] = Gates::default();
    }

    /// Record one activity span into the totals and the window buffer.
    pub(crate) fn on_span(&mut self, sp: &Span) {
        let kind = StepKind::from_activity(sp.activity);
        let len = sp.end - sp.start;
        self.agg.global.add(kind, len);
        let p = sp.proc as usize;
        // `per_proc` is the running per-class busy total.
        let before = busy_total(&self.agg.per_proc[p]);
        debug_assert!(
            self.spans[p].back().is_none_or(|s| {
                let len: Cycles = before.iter().zip(s.before).map(|(b, a)| b - a).sum();
                s.start + len <= sp.start
            }),
            "a processor's spans arrive in start order and never overlap"
        );
        self.agg.per_proc[p].add(kind, len);
        if self.agg.grid > 0 {
            // Split exactly at bin boundaries so binning is independent
            // of emission order.
            let g = self.agg.grid;
            let mut cur = sp.start;
            while cur < sp.end {
                let bin = (cur / g) as usize;
                if self.agg.bins.len() <= bin {
                    self.agg.bins.resize(bin + 1, Components::default());
                }
                let seg = sp.end.min((cur / g + 1) * g);
                self.agg.bins[bin].add(kind, seg - cur);
                cur = seg;
            }
        }
        // Keep the last span starting before the earliest gate a lookup
        // may still ask for, and everything after it.
        let g = self.gates[p];
        let sending = !self.bases[p].is_empty() || self.pending.1 == p;
        let live = |on: bool, t: Cycles| if on { t } else { Cycles::MAX };
        let floor = live(sending, g.inject).min(live(g.arrived > 0, g.recv));
        let floor = floor.min(live(g.held > 0, g.hold));
        let spans = &mut self.spans[p];
        spans.push_back(SpanSum {
            start: sp.start,
            before,
        });
        while spans.get(1).is_some_and(|s| s.start < floor) {
            spans.pop_front();
        }
    }

    /// Classify the wait window `[from, to)` on `proc` into a copy of
    /// `start`'s components ([`attribute_window`] semantics: busy spans
    /// keep their class, idle cycles before `gate` are `g`, after it
    /// `wait`; `retry` remaps idle to [`StepKind::Retry`] as the backward
    /// walk does for timer windows). `open` is the span `proc` is in at
    /// `to`, if any.
    fn window(
        &mut self,
        proc: ProcId,
        start: WindowStart,
        [from, to, gate]: [Cycles; 3],
        open: OpenSpan,
        retry: bool,
    ) -> Components {
        let p = proc as usize;
        let mut probes = 0;
        let at_from = if start.busy == LAZY {
            let g = &mut self.gates[p];
            g.held = g.held.saturating_sub(1);
            self.busy(p, from, open, &mut probes)
        } else {
            start.busy
        };
        let mut cum = start.cum;
        if to <= from {
            return cum;
        }
        let at_to = self.busy(p, to, open, &mut probes);
        let mid = gate.clamp(from, to);
        let at_mid = match mid {
            _ if mid == from => at_from,
            _ if mid == to => at_to,
            _ => self.busy(p, mid, open, &mut probes),
        };
        for (c, kind) in BUSY.into_iter().enumerate() {
            cum.add(kind, at_to[c] - at_from[c]);
        }
        let busy = |a: Busy, b: Busy| -> Cycles { (0..4).map(|c| b[c] - a[c]).sum() };
        let idle_head = (mid - from) - busy(at_from, at_mid);
        let idle_tail = (to - mid) - busy(at_mid, at_to);
        if retry {
            cum.add(StepKind::Retry, idle_head + idle_tail);
        } else {
            cum.add(StepKind::G, idle_head);
            cum.add(StepKind::Wait, idle_tail);
        }
        if cfg!(debug_assertions) {
            self.probes_max = self.probes_max.max(probes);
        }
        cum
    }

    fn consider(&mut self, t: Cycles, kind: u8, id: u64, cum: &Components) {
        let key = (t, kind, id);
        if self.best.is_none_or(|(bt, bk, bi, _)| key > (bt, bk, bi)) {
            self.best = Some((t, kind, id, *cum));
        }
    }

    /// A message committed its injection: attribute the source-side wait
    /// window plus the send overhead and flight, and return the start of
    /// its reception window-to-be, to ride with the in-flight record.
    /// `dup` marks the fault layer's trailing duplicate, which shares its
    /// original's submit window.
    pub(crate) fn on_send(&mut self, m: &MsgRecord, dup: bool) -> WindowStart {
        if !dup {
            // The duplicate, injected next, reads the attribution from here.
            let window = [m.submit, m.inject, m.send_gate];
            self.pending.0.cum = self.window(m.src, self.pending.0, window, None, false);
            self.gates[m.src as usize].inject = m.inject;
        }
        let mut cum = self.pending.0.cum;
        cum.add(StepKind::O, m.sent - m.inject);
        cum.add(StepKind::L, m.arrive - m.sent);
        self.agg.msgs += 1;
        WindowStart { cum, busy: [0; 4] }
    }

    /// The fault layer dropped a send in flight: account the record.
    pub(crate) fn on_lost(&mut self) {
        self.agg.msgs += 1;
    }

    /// A message reached its destination's interface at `now`, inside the
    /// span `open` if any: its reception wait window opens.
    pub(crate) fn on_arrival(
        &mut self,
        p: ProcId,
        now: Cycles,
        open: OpenSpan,
        start: &mut WindowStart,
    ) {
        start.busy = self.open(p, now, open, 1);
        self.gates[p as usize].arrived += 1;
    }

    /// Reception began: attribute the destination-side wait window.
    pub(crate) fn on_reception(&mut self, m: &MsgRecord, start: &mut WindowStart) {
        let window = [m.arrive, m.recv_start, m.recv_gate];
        start.cum = self.window(m.dst, *start, window, None, false);
        let gates = &mut self.gates[m.dst as usize];
        gates.recv = m.recv_start;
        gates.arrived = gates.arrived.saturating_sub(1);
    }

    /// Delivery completed: close the record's components, publish them
    /// for the handler's commands, and consider it as the terminal.
    pub(crate) fn on_delivery(&mut self, m: &MsgRecord, start: WindowStart) {
        let mut cum = start.cum;
        cum.add(StepKind::O, m.deliver - m.recv_start);
        self.agg.global.add(StepKind::L, m.arrive - m.sent);
        self.consider(m.deliver, 0, m.id, &cum);
        self.handler_cum = cum;
        self.agg.delivered += 1;
    }

    /// A compute committed: its record is complete at creation (the end
    /// is scheduled), so everything happens here.
    pub(crate) fn on_compute(&mut self, c: &ComputeRecord) {
        let window = [c.submit, c.start, c.submit];
        let mut cum = self.window(c.proc, self.pending.0, window, None, false);
        cum.add(StepKind::Compute, c.end - c.start);
        self.consider(c.end, 1, c.id, &cum);
        self.compute_cum[c.proc as usize] = cum;
        self.agg.computes += 1;
    }

    /// `p` entered the barrier at `now`: attribute its wait window and
    /// park the result until release decides the binding entrant.
    pub(crate) fn on_barrier_enter(&mut self, p: ProcId, submit: Cycles, now: Cycles) {
        let cum = self.window(p, self.pending.0, [submit, now, submit], None, false);
        self.entrants.push((p, cum));
    }

    /// The barrier released: add the barrier cost to the binding
    /// entrant's components.
    pub(crate) fn on_barrier_release(&mut self, b: &BarrierRecord) {
        let entrant = self.entrants.iter().find(|e| e.0 == b.last_proc);
        let mut cum = entrant.map_or_else(Components::default, |e| e.1);
        cum.add(StepKind::Barrier, b.release - b.enter);
        self.consider(b.release, 2, b.id, &cum);
        self.handler_cum = cum;
        self.entrants.clear();
        self.agg.barriers += 1;
    }

    /// A timer was armed: account it and return its window's start, to
    /// keep with it until the fire.
    pub(crate) fn on_timer_armed(&mut self) -> WindowStart {
        self.agg.timers += 1;
        self.pending.0
    }

    /// A timer fired, inside the span `open` if any: attribute its arming
    /// window with idle remapped to `retry`, and publish the cumulative
    /// components for its handler.
    pub(crate) fn on_timer_fire(&mut self, t: &TimerRecord, start: WindowStart, open: OpenSpan) {
        let window = [t.submit, t.fire, t.submit];
        self.handler_cum = self.window(t.proc, start, window, open, true);
    }

    /// Close the aggregate: capture the terminal candidate's path. Also
    /// returns the most span-buffer entries any one wait window read
    /// (debug builds; 0 in release).
    pub(crate) fn finish(mut self, emitted: u64) -> (ObsAggregate, u64) {
        if let Some((t, _, _, cum)) = self.best.take() {
            self.agg.critical_total = t;
            self.agg.critical = cum;
        }
        self.agg.emitted = emitted;
        (self.agg, self.probes_max)
    }
}

impl Components {
    fn json(&self) -> String {
        format!(
            "{{\"o\":{},\"g\":{},\"l\":{},\"compute\":{},\"stall\":{},\"barrier\":{},\"wait\":{},\"retry\":{}}}",
            self.o, self.g, self.l, self.compute, self.stall, self.barrier, self.wait, self.retry
        )
    }
}

impl ObsAggregate {
    /// Render the aggregate as JSON: record counts, the global activity
    /// totals, the critical-path decomposition, and the time bins.
    /// `per_proc` is deliberately omitted — at `P = 10^6` it would be
    /// the one unbounded part of an otherwise bounded artifact.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = write!(
            s,
            "  \"msgs\": {},\n  \"delivered\": {},\n  \"computes\": {},\n  \"barriers\": {},\n  \"timers\": {},\n  \"emitted\": {},\n",
            self.msgs, self.delivered, self.computes, self.barriers, self.timers, self.emitted
        );
        let _ = writeln!(s, "  \"global\": {},", self.global.json());
        let _ = writeln!(s, "  \"critical_total\": {},", self.critical_total);
        let _ = writeln!(s, "  \"critical\": {},", self.critical.json());
        let _ = writeln!(s, "  \"grid\": {},", self.grid);
        s.push_str("  \"bins\": [");
        for (i, b) in self.bins.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&b.json());
        }
        s.push_str("]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::Sim;
    use crate::message::Data;
    use crate::process::{Ctx, Process, StartFn};
    use logp_core::LogP;

    #[test]
    fn empty_log_has_no_path() {
        assert!(critical_path(&SimResult::default()).is_none());
    }

    #[test]
    fn single_ping_is_o_l_o() {
        let model = LogP::new(6, 2, 4, 2).unwrap();
        let mut sim = Sim::new(model, SimConfig::default().with_msg_log(true));
        sim.set_process(
            0,
            Box::new(StartFn(|ctx: &mut Ctx<'_>| {
                ctx.send(1, 0, Data::U64(1));
            })),
        );
        let res = sim.run().unwrap();
        let cp = critical_path(&res).expect("one message on the path");
        assert_eq!(cp.total, model.point_to_point());
        assert_eq!(cp.components.o, 2 * model.o);
        assert_eq!(cp.components.l, model.l);
        assert_eq!(cp.components.sum(), cp.total);
        // o [0,2), L [2,8), o [8,10).
        assert_eq!(cp.steps.len(), 3);
        assert_eq!(cp.steps[1].kind, StepKind::L);
        assert!(cp.render().contains("critical path: 10 cycles"));
    }

    #[test]
    fn gap_limited_sends_show_g() {
        // P0 sends two messages to P1 back-to-back: the second waits for
        // the gap. Terminal is the second delivery at o + g + L + o... or
        // rather inject at g (g > o), so total = g + o + L + o.
        let model = LogP::new(6, 2, 4, 2).unwrap();
        let mut sim = Sim::new(model, SimConfig::default().with_msg_log(true));
        sim.set_process(
            0,
            Box::new(StartFn(|ctx: &mut Ctx<'_>| {
                ctx.send(1, 0, Data::Empty);
                ctx.send(1, 1, Data::Empty);
            })),
        );
        let res = sim.run().unwrap();
        let cp = critical_path(&res).unwrap();
        assert_eq!(cp.total, model.g + model.o + model.l + model.o);
        // The [o, g) idle slice of the wait window is attributed to g.
        assert_eq!(cp.components.g, model.g - model.o);
        assert_eq!(cp.components.sum(), cp.total);
    }

    #[test]
    fn compute_chains_through_causes() {
        struct ComputeThenSend;
        impl Process for ComputeThenSend {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                if ctx.me() == 0 {
                    ctx.compute(50, 7);
                }
            }
            fn on_compute_done(&mut self, _tag: u64, ctx: &mut Ctx<'_>) {
                ctx.send(1, 0, Data::Empty);
            }
        }
        let model = LogP::new(6, 2, 4, 2).unwrap();
        let mut sim = Sim::new(model, SimConfig::default().with_msg_log(true));
        sim.set_all(|_| Box::new(ComputeThenSend));
        let res = sim.run().unwrap();
        let cp = critical_path(&res).unwrap();
        assert_eq!(cp.total, 50 + model.point_to_point());
        assert_eq!(cp.components.compute, 50);
        assert_eq!(cp.components.o, 2 * model.o);
        assert_eq!(cp.components.l, model.l);
    }

    #[test]
    fn barrier_appears_on_path() {
        struct BarrierThenSend;
        impl Process for BarrierThenSend {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                if ctx.me() == 0 {
                    ctx.compute(10, 0);
                } else {
                    ctx.barrier();
                }
            }
            fn on_compute_done(&mut self, _tag: u64, ctx: &mut Ctx<'_>) {
                ctx.barrier();
            }
            fn on_barrier_release(&mut self, ctx: &mut Ctx<'_>) {
                if ctx.me() == 0 {
                    ctx.send(1, 0, Data::Empty);
                }
            }
        }
        let model = LogP::new(6, 2, 4, 2).unwrap();
        let config = SimConfig {
            barrier_cost: 5,
            ..SimConfig::default()
        }
        .with_msg_log(true);
        let mut sim = Sim::new(model, config);
        sim.set_all(|_| Box::new(BarrierThenSend));
        let res = sim.run().unwrap();
        let cp = critical_path(&res).unwrap();
        // compute 10, barrier cost 5, then 2o + L.
        assert_eq!(cp.total, 10 + 5 + model.point_to_point());
        assert_eq!(cp.components.barrier, 5);
        assert_eq!(cp.components.compute, 10);
        assert_eq!(cp.components.sum(), cp.total);
    }
}
