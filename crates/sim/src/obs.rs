//! Message-lifecycle observability: what every message (and compute, and
//! barrier) experienced, with causal links.
//!
//! The LogP paper's methodology is *accounting* — Figure 3 argues
//! optimality by attributing every cycle on the critical path to `o`, `g`
//! or `L`. [`ObsLog`] is the simulator's raw material for that style of
//! argument: when `SimConfig::record_msg_log` is on, the engine records
//! one [`MsgRecord`] per message with its full lifecycle timestamps
//! (submit → capacity-stall → inject → flight → arrival → reception →
//! delivery) and a causal [`Cause`] linking the send back to the handler
//! invocation that issued it. Compute commands and barriers get the same
//! treatment, so the causal graph is complete and
//! [`crate::critpath::critical_path`] can walk it backward from the last
//! event of a run.
//!
//! There is one record pipeline: the engine hands each record, once, when
//! it completes, to the run's [`ObsSink`] — the [`RetainSink`] that keeps
//! the log for `SimResult`, a [`JsonlSink`] or
//! [`crate::perfetto::PerfettoSink`] that writes a file, or the
//! [`NullSink`] behind an aggregate-only run.
//!
//! Everything here is *off by default*: with observability disabled the
//! engine never touches these structures and the hot path stays
//! allocation-free (see the `trace_overhead` bench).

use crate::trace::{Span, Trace};
use logp_core::{Cycles, ProcId};
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Identifier of a [`MsgRecord`] within an [`ObsLog`] (index into `msgs`
/// of a retained log). The records a sink sees on the sharded engine
/// carry *structured* ids (`(proc + 1) << 40 | seq`) rather than dense
/// ones; [`ObsLog::canonicalize`] renumbers either form into the
/// canonical dense order.
pub type MsgId = u64;

/// Sentinel for a lifecycle timestamp that never happened (e.g. a message
/// still in flight when the run ended).
pub const UNSET: Cycles = Cycles::MAX;

/// What triggered the handler that issued a command — the causal parent
/// edge of the simulation's event DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Cause {
    /// The `on_start` handler at time 0 (roots of the DAG).
    #[default]
    Start,
    /// Delivery of the message with this [`MsgId`] (`on_message`).
    Msg(MsgId),
    /// Completion of the compute record with this id (`on_compute_done`).
    Compute(u64),
    /// Release of the barrier record with this id (`on_barrier_release`).
    Barrier(u64),
    /// Firing of the timer record with this id (`on_timer`) — the
    /// retransmission edge of the reliable-delivery layer. A send caused
    /// by a retry carries this edge, so timeout waits are attributable on
    /// the critical path just like `o`, `g` and `L`.
    Retry(u64),
}

/// Full lifecycle of one message.
///
/// Invariants for a delivered message (no jitter):
/// `submit <= inject`, `sent = inject + o`, `arrive = sent + L'`
/// (`L - jitter <= L' <= L`; bulk sends add the `(words-1)·G` stream),
/// `recv_start >= arrive`, `deliver = recv_start + o`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgRecord {
    /// This record's id (its index in [`ObsLog::msgs`]).
    pub id: MsgId,
    pub src: ProcId,
    pub dst: ProcId,
    /// Application tag.
    pub tag: u32,
    /// Payload words (`1` for small messages, the declared length for
    /// LogGP bulk sends).
    pub words: u64,
    /// What triggered the handler that issued this send.
    pub cause: Cause,
    /// Time the `send` command was issued by its handler.
    pub submit: Cycles,
    /// The sender's `next_send_slot` when the send committed — the gap
    /// gate. Waiting attributable to `g` ends here.
    pub send_gate: Cycles,
    /// Time the send overhead began (submit + queueing + gap + stall).
    pub inject: Cycles,
    /// Time the message entered the network (`inject + o`).
    pub sent: Cycles,
    /// Time the message reached the destination's interface ([`UNSET`]
    /// until it happens).
    pub arrive: Cycles,
    /// The receiver's `next_recv_slot` when reception began — the
    /// reception gap gate.
    pub recv_gate: Cycles,
    /// Time reception overhead began ([`UNSET`] until it happens).
    pub recv_start: Cycles,
    /// Time the program observed the message (`recv_start + o`;
    /// [`UNSET`] until it happens).
    pub deliver: Cycles,
}

impl MsgRecord {
    /// End-to-end latency (submit → deliver), if delivered.
    pub fn latency(&self) -> Option<Cycles> {
        (self.deliver != UNSET).then(|| self.deliver - self.submit)
    }

    /// Network flight time (sent → arrive), if arrived.
    pub fn flight(&self) -> Option<Cycles> {
        (self.arrive != UNSET).then(|| self.arrive - self.sent)
    }
}

/// Lifecycle of one `compute` command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComputeRecord {
    /// This record's id (its index in [`ObsLog::computes`]).
    pub id: u64,
    pub proc: ProcId,
    /// The program's tag.
    pub tag: u64,
    /// What triggered the handler that issued this compute.
    pub cause: Cause,
    /// Time the command was issued.
    pub submit: Cycles,
    /// Time execution began.
    pub start: Cycles,
    /// Time execution finished (perturbed duration included).
    pub end: Cycles,
}

/// One global barrier episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierRecord {
    /// This record's id (its index in [`ObsLog::barriers`]).
    pub id: u64,
    /// The last processor to enter (the one that released everyone).
    pub last_proc: ProcId,
    /// When that processor's barrier command was issued.
    pub submit: Cycles,
    /// When it entered the barrier.
    pub enter: Cycles,
    /// When the barrier released (`enter + barrier_cost`).
    pub release: Cycles,
    /// What triggered the handler that issued the binding barrier entry.
    pub cause: Cause,
}

/// Lifecycle of one armed timer ([`crate::process::Ctx::timer`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerRecord {
    /// This record's id (its index in [`ObsLog::timers`]).
    pub id: u64,
    /// The processor that armed it.
    pub proc: ProcId,
    /// The program's token (for the reliable layer, the in-flight
    /// sequence number with the timer-namespace bit set).
    pub tag: u64,
    /// What triggered the handler that armed this timer.
    pub cause: Cause,
    /// Time the timer command was issued by its handler.
    pub submit: Cycles,
    /// Time the command was dequeued and the countdown started.
    pub armed: Cycles,
    /// Scheduled fire time (`armed + cycles`). Crashed or halted
    /// processors never observe the fire, but the schedule is recorded.
    pub fire: Cycles,
}

/// The complete causal event log of a run. Empty unless
/// `SimConfig::record_msg_log` was set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsLog {
    pub msgs: Vec<MsgRecord>,
    pub computes: Vec<ComputeRecord>,
    pub barriers: Vec<BarrierRecord>,
    pub timers: Vec<TimerRecord>,
}

impl ObsLog {
    /// True when nothing was recorded (observability disabled, or the run
    /// genuinely produced no commands).
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
            && self.computes.is_empty()
            && self.barriers.is_empty()
            && self.timers.is_empty()
    }

    /// Messages delivered before the run ended.
    pub fn delivered(&self) -> impl Iterator<Item = &MsgRecord> {
        self.msgs.iter().filter(|m| m.deliver != UNSET)
    }

    /// The message record with this id, if the log holds it. Lookups
    /// are by id, not position: a log the engine retained is dense
    /// (`id == index`), a sampled or replayed one is sorted by id but may
    /// have gaps, and an unsorted one simply misses.
    pub(crate) fn msg(&self, id: MsgId) -> Option<&MsgRecord> {
        by_id(&self.msgs, id)
    }

    /// The compute record with this id, if the log holds it.
    pub(crate) fn compute(&self, id: u64) -> Option<&ComputeRecord> {
        by_id(&self.computes, id)
    }

    /// The barrier record with this id, if the log holds it.
    pub(crate) fn barrier(&self, id: u64) -> Option<&BarrierRecord> {
        by_id(&self.barriers, id)
    }

    /// The timer record with this id, if the log holds it.
    pub(crate) fn timer(&self, id: u64) -> Option<&TimerRecord> {
        by_id(&self.timers, id)
    }

    /// How many records, of every kind: the longest a causal chain can be.
    pub(crate) fn records(&self) -> usize {
        self.msgs.len() + self.computes.len() + self.barriers.len() + self.timers.len()
    }

    /// The [`Cause`] the record `cause` names was issued under; `None`
    /// for a root, or a record the log does not hold.
    pub(crate) fn cause_of(&self, cause: Cause) -> Option<Cause> {
        match cause {
            Cause::Start => None,
            Cause::Msg(m) => self.msg(m).map(|r| r.cause),
            Cause::Compute(c) => self.compute(c).map(|r| r.cause),
            Cause::Barrier(b) => self.barrier(b).map(|r| r.cause),
            Cause::Retry(t) => self.timer(t).map(|r| r.cause),
        }
    }

    /// Causal ancestry of a message: the chain of [`Cause`]s from `id`
    /// back to a [`Cause::Start`] root, nearest first. On a sampled or
    /// damaged log the chain ends where it names a record the log does
    /// not hold, and never runs longer than the log (a record that cites
    /// itself, or a cycle, is cut there).
    pub fn ancestry(&self, id: MsgId) -> Vec<Cause> {
        let first = self.msg(id).map(|m| m.cause);
        std::iter::successors(first, |&c| self.cause_of(c))
            .take(self.records())
            .collect()
    }

    /// Renumber the log into canonical order: messages by
    /// `(inject, src)`, computes by `(start, proc)`, timers by
    /// `(armed, proc)` (all stable on the previous id, which preserves
    /// per-processor issue order), ids re-assigned densely and every
    /// [`Cause`] remapped. Barriers are already globally ordered by
    /// release and stay put. The [`RetainSink`] of a sharded run applies
    /// this, and replayed logs of one apply it so both presentations of
    /// the same run compare equal. A cause naming a record the log does
    /// not hold — a sampled or damaged replay — is renumbered to
    /// [`UNSET`], an id no record carries, so walks still stop there.
    pub fn canonicalize(&mut self) {
        fn sort_remap<T, K: Ord>(v: &mut [T], key: impl Fn(&T) -> K) -> HashMap<u64, u64>
        where
            T: HasId,
        {
            v.sort_by_key(|r| (key(r), r.id()));
            let mut map = HashMap::with_capacity(v.len());
            for (i, r) in v.iter_mut().enumerate() {
                map.insert(r.id(), i as u64);
                r.set_id(i as u64);
            }
            map
        }
        let mmap = sort_remap(&mut self.msgs, |m| (m.inject, m.src));
        let cmap = sort_remap(&mut self.computes, |c| (c.start, c.proc));
        let tmap = sort_remap(&mut self.timers, |t| (t.armed, t.proc));
        let renumber = |map: &HashMap<u64, u64>, id| map.get(&id).copied().unwrap_or(UNSET);
        let fix = |c: &mut Cause| match *c {
            Cause::Msg(id) => *c = Cause::Msg(renumber(&mmap, id)),
            Cause::Compute(id) => *c = Cause::Compute(renumber(&cmap, id)),
            Cause::Retry(id) => *c = Cause::Retry(renumber(&tmap, id)),
            Cause::Start | Cause::Barrier(_) => {}
        };
        for m in &mut self.msgs {
            fix(&mut m.cause);
        }
        for c in &mut self.computes {
            fix(&mut c.cause);
        }
        for b in &mut self.barriers {
            fix(&mut b.cause);
        }
        for t in &mut self.timers {
            fix(&mut t.cause);
        }
    }
}

/// The record of `v` — sorted by id — that carries `id`: at index `id`
/// in a dense log, by bisection otherwise.
fn by_id<T: HasId>(v: &[T], id: u64) -> Option<&T> {
    let dense = usize::try_from(id).ok().and_then(|i| v.get(i));
    match dense {
        Some(r) if r.id() == id => Some(r),
        _ => v.binary_search_by_key(&id, HasId::id).ok().map(|i| &v[i]),
    }
}

/// Record types that carry a rewritable id (lookup and canonicalization
/// plumbing).
trait HasId {
    fn id(&self) -> u64;
    fn set_id(&mut self, id: u64);
}

macro_rules! has_id {
    ($($t:ty),*) => {$(
        impl HasId for $t {
            fn id(&self) -> u64 {
                self.id
            }
            fn set_id(&mut self, id: u64) {
                self.id = id;
            }
        }
    )*};
}
has_id!(MsgRecord, ComputeRecord, BarrierRecord, TimerRecord);

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Where a run's lifecycle records go instead of into `SimResult`.
/// Carried by `SimConfig`, so it must be cheap to clone and comparable
/// (the sink itself is built by the engine at run start).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SinkSpec {
    /// Discard records (useful with `SimConfig::aggregate`: the online
    /// aggregate is maintained and nothing is retained or written).
    Null,
    /// One JSON object per line per record, written incrementally.
    /// [`replay_jsonl`] parses the file back into an [`ObsLog`].
    Jsonl(PathBuf),
    /// A Perfetto `trace_event` JSON written incrementally (bounded
    /// memory: slices and flows stream out as they complete).
    Perfetto(PathBuf),
}

impl SinkSpec {
    /// Construct the sink this spec describes. File-creation errors are
    /// latched inside the sink and surface from [`ObsSink::finish`] (as
    /// the run's `SimError::Sink`).
    pub fn build(&self) -> Box<dyn ObsSink> {
        match self {
            SinkSpec::Null => Box::new(NullSink),
            SinkSpec::Jsonl(p) => Box::new(JsonlSink::create(p)),
            SinkSpec::Perfetto(p) => Box::new(crate::perfetto::PerfettoSink::create(p)),
        }
    }
}

/// The consumer of a run's lifecycle records: each record arrives here
/// once, the moment it completes. A run with the lifecycle log on and no
/// [`SinkSpec`] gets the [`RetainSink`], whose log and trace become
/// `SimResult::obs` / `SimResult::trace`; with any other sink those stay
/// empty and memory stays bounded by the number of *in-flight* messages,
/// not the total sent.
///
/// Calls arrive in engine order (deterministic for a fixed config, but on
/// the sharded engine dependent on the lane count; canonicalize replayed
/// logs before comparing across lane counts).
///
/// Sinks must be `Send`, so a configured machine can move to another
/// thread; a sink is only ever *called* from the thread running the
/// simulation, so implementations need no internal synchronization.
pub trait ObsSink: Send {
    fn on_msg(&mut self, _m: &MsgRecord) {}
    fn on_compute(&mut self, _c: &ComputeRecord) {}
    fn on_barrier(&mut self, _b: &BarrierRecord) {}
    fn on_timer(&mut self, _t: &TimerRecord) {}
    fn on_span(&mut self, _s: &Span) {}
    /// Flush and close. Deferred I/O errors surface here (as the run's
    /// `SimError::Sink`).
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// What the sink kept for the run's `SimResult`, taken after
    /// [`ObsSink::finish`]: nothing, unless it is the [`RetainSink`].
    fn retained(&mut self) -> (ObsLog, Trace) {
        Default::default()
    }
}

/// A sink that drops everything (the aggregation-only configuration).
#[derive(Debug, Default)]
pub struct NullSink;

impl ObsSink for NullSink {}

/// The sink that keeps everything in memory: the retained [`ObsLog`] and
/// activity [`Trace`] of a run, and what [`replay_jsonl`] fills. Records
/// arrive in completion order; `finish` puts each kind in id order — the
/// order the engine issued them in — and, for a lane-engine run, whose
/// ids are structured, renumbers them canonically.
#[derive(Debug, Default)]
pub struct RetainSink {
    log: ObsLog,
    trace: Trace,
    canonicalize: bool,
}

impl RetainSink {
    /// A sink that finishes with [`ObsLog::canonicalize`] if asked to.
    pub fn new(canonicalize: bool) -> Self {
        RetainSink {
            canonicalize,
            ..Default::default()
        }
    }
}

impl ObsSink for RetainSink {
    fn on_msg(&mut self, m: &MsgRecord) {
        self.log.msgs.push(*m);
    }
    fn on_compute(&mut self, c: &ComputeRecord) {
        self.log.computes.push(*c);
    }
    fn on_barrier(&mut self, b: &BarrierRecord) {
        self.log.barriers.push(*b);
    }
    fn on_timer(&mut self, t: &TimerRecord) {
        self.log.timers.push(*t);
    }
    fn on_span(&mut self, s: &Span) {
        self.trace.push(*s);
    }
    fn finish(&mut self) -> Result<(), String> {
        // Stable, and each record moves once: they are large, and arrive
        // in completion order, far from issue order.
        self.log.msgs.sort_by_cached_key(|m| m.id);
        self.log.computes.sort_by_cached_key(|c| c.id);
        self.log.barriers.sort_by_cached_key(|b| b.id);
        self.log.timers.sort_by_cached_key(|t| t.id);
        if self.canonicalize {
            self.log.canonicalize();
        }
        Ok(())
    }
    fn retained(&mut self) -> (ObsLog, Trace) {
        (
            std::mem::take(&mut self.log),
            std::mem::take(&mut self.trace),
        )
    }
}

/// One field of a record kind's schema: its key, and the `,"key":` bytes
/// that precede its value on a line — zero-padded to [`PREFIX`] bytes so
/// the writer copies them whole — with their unpadded length. One table
/// per kind serves both directions: [`JsonlSink`] writes `{"k":"<kind>"`
/// then each prefix and its value, [`replay_jsonl`] expects the same
/// prefixes in the same order and fills the same slots back.
#[derive(Clone, Copy)]
struct Field {
    key: &'static str,
    prefix: [u8; PREFIX],
    len: usize,
}

/// Width of a padded `,"key":` prefix.
const PREFIX: usize = 16;

/// Digits of the widest value, `u64::MAX`.
const DIGITS: usize = 20;

/// The field `key`.
const fn field(key: &'static str) -> Field {
    let (k, len) = (key.as_bytes(), key.len() + 4);
    // The padded prefix fits, and a copy of it never runs past the value
    // and the line end that follow it.
    assert!(len <= PREFIX && PREFIX <= len + DIGITS + 2);
    let mut prefix = [0; PREFIX];
    (prefix[0], prefix[1], prefix[len - 2], prefix[len - 1]) = (b',', b'"', b'"', b':');
    // `prefix[2..len - 2] = k`, without the range indexing a `const fn`
    // cannot use.
    let (_, tail) = prefix.split_at_mut(2);
    tail.split_at_mut(k.len()).0.copy_from_slice(k);
    Field { key, prefix, len }
}

/// The schema of `keys`, in line order.
const fn schema<const N: usize>(keys: [&'static str; N]) -> [Field; N] {
    let mut out = [field(""); N];
    let mut i = 0;
    while i < N {
        out[i] = field(keys[i]);
        i += 1;
    }
    out
}

const MSG: [Field; 15] = schema([
    "id", "src", "dst", "tag", "words", "cs", "ci", "submit", "gate", "inject", "sent", "arrive",
    "rgate", "rstart", "deliver",
]);
const COMPUTE: [Field; 8] = schema(["id", "proc", "tag", "cs", "ci", "submit", "start", "end"]);
const BARRIER: [Field; 7] = schema(["id", "proc", "cs", "ci", "submit", "enter", "release"]);
const TIMER: [Field; 8] = schema(["id", "proc", "tag", "cs", "ci", "submit", "armed", "fire"]);
const SPAN: [Field; 4] = schema(["proc", "start", "end", "act"]);

/// What every line starts with, up to the one-byte kind.
const LINE_HEAD: &str = "{\"k\":\"";

/// The longest line of a kind: its head, every prefix followed by a
/// 20-digit value, and `}\n`.
const fn longest(fields: &[Field]) -> usize {
    match fields {
        [f, rest @ ..] => f.len + DIGITS + longest(rest),
        [] => LINE_HEAD.len() + 4,
    }
}

/// [`JsonlSink`]'s line buffer: a message line is the longest, which the
/// build checks.
const LINE_CAP: usize = longest(&MSG);
const _: () = assert!(fits(&COMPUTE) && fits(&BARRIER) && fits(&TIMER) && fits(&SPAN));

/// Whether every line of a kind fits the line buffer.
const fn fits(fields: &[Field]) -> bool {
    longest(fields) <= LINE_CAP
}

/// The decimal digit pairs `00` to `99`.
const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Streaming JSONL writer: one record per line, kinds `m` (message), `c`
/// (compute), `b` (barrier), `t` (timer), `s` (activity span). Timestamps
/// print as raw `u64` (so [`UNSET`] round-trips exactly). Each line is
/// built on the stack and appended to one reusable buffer that goes to
/// the file in 64 KiB writes.
pub struct JsonlSink {
    out: Option<std::fs::File>,
    err: Option<String>,
    buf: Vec<u8>,
}

impl JsonlSink {
    /// Buffered bytes that trigger a write.
    const FLUSH_AT: usize = 1 << 16;

    pub fn create(path: &Path) -> Self {
        let (out, err) = match std::fs::File::create(path) {
            Ok(f) => (Some(f), None),
            Err(e) => (None, Some(format!("create {}: {e}", path.display()))),
        };
        JsonlSink {
            out,
            err,
            buf: Vec::with_capacity(Self::FLUSH_AT + LINE_CAP),
        }
    }

    /// Append one line: the kind, then `vals` under `fields`. The line is
    /// built in a fixed buffer — each padded prefix copied whole, each
    /// value's digits written in place, two per division — and appended
    /// in one call.
    fn line<const N: usize>(&mut self, kind: u8, fields: &[Field; N], vals: [u64; N]) {
        let mut line = [0u8; LINE_CAP];
        let mut at = LINE_HEAD.len() + 2;
        line[..at - 2].copy_from_slice(LINE_HEAD.as_bytes());
        line[at - 2..at].copy_from_slice(&[kind, b'"']);
        for (f, mut v) in fields.iter().zip(vals) {
            line[at..at + PREFIX].copy_from_slice(&f.prefix);
            let digits = at + f.len;
            at = digits + v.checked_ilog10().map_or(1, |d| d as usize + 1);
            let mut i = at;
            while v >= 10 {
                let pair = (v % 100) as usize * 2;
                v /= 100;
                i -= 2;
                line[i..i + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
            }
            // An odd count of digits leaves the leading one.
            if i > digits {
                line[digits] = b'0' + v as u8;
            }
        }
        line[at..at + 2].copy_from_slice(b"}\n");
        self.buf.extend_from_slice(&line[..at + 2]);
        if self.buf.len() >= Self::FLUSH_AT {
            self.flush_buf();
        }
    }

    /// Hand the buffered lines to the file; the first I/O error is
    /// latched for [`ObsSink::finish`] and later lines are discarded.
    fn flush_buf(&mut self) {
        if let Some(out) = self.out.as_mut() {
            if let Err(e) = out.write_all(&self.buf) {
                self.err.get_or_insert_with(|| format!("write: {e}"));
                self.out = None;
            }
        }
        self.buf.clear();
    }
}

/// A run that ends in an error never reaches `finish`; what it streamed
/// so far still lands in the file.
impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush_buf();
    }
}

impl ObsSink for JsonlSink {
    fn on_msg(&mut self, m: &MsgRecord) {
        let (cs, ci) = cause_parts(m.cause);
        self.line(
            b'm',
            &MSG,
            [
                m.id,
                m.src as u64,
                m.dst as u64,
                m.tag as u64,
                m.words,
                cs,
                ci,
                m.submit,
                m.send_gate,
                m.inject,
                m.sent,
                m.arrive,
                m.recv_gate,
                m.recv_start,
                m.deliver,
            ],
        );
    }
    fn on_compute(&mut self, c: &ComputeRecord) {
        let (cs, ci) = cause_parts(c.cause);
        let vals = [c.id, c.proc as u64, c.tag, cs, ci, c.submit, c.start, c.end];
        self.line(b'c', &COMPUTE, vals);
    }
    fn on_barrier(&mut self, b: &BarrierRecord) {
        let (cs, ci) = cause_parts(b.cause);
        let vals = [
            b.id,
            b.last_proc as u64,
            cs,
            ci,
            b.submit,
            b.enter,
            b.release,
        ];
        self.line(b'b', &BARRIER, vals);
    }
    fn on_timer(&mut self, t: &TimerRecord) {
        let (cs, ci) = cause_parts(t.cause);
        let vals = [
            t.id,
            t.proc as u64,
            t.tag,
            cs,
            ci,
            t.submit,
            t.armed,
            t.fire,
        ];
        self.line(b't', &TIMER, vals);
    }
    fn on_span(&mut self, s: &Span) {
        let vals = [s.proc as u64, s.start, s.end, s.activity as u64];
        self.line(b's', &SPAN, vals);
    }
    fn finish(&mut self) -> Result<(), String> {
        self.flush_buf();
        match self.err.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

fn cause_parts(c: Cause) -> (u64, u64) {
    match c {
        Cause::Start => (0, 0),
        Cause::Msg(id) => (1, id),
        Cause::Compute(id) => (2, id),
        Cause::Barrier(id) => (3, id),
        Cause::Retry(id) => (4, id),
    }
}

fn cause_from_parts(cs: u64, ci: u64, line: &str) -> Result<Cause, String> {
    Ok(match cs {
        0 => Cause::Start,
        1 => Cause::Msg(ci),
        2 => Cause::Compute(ci),
        3 => Cause::Barrier(ci),
        4 => Cause::Retry(ci),
        _ => return Err(format!("bad \"cs\" in {line:?}: unknown cause tag {cs}")),
    })
}

/// The `,"key":digits` pairs of one record line (everything after its
/// `{"k":"x"` head) parsed into `fields`' slots in one left-to-right
/// pass. Fields normally come in schema order, which costs one prefix
/// comparison per field; any order is accepted (a key is then searched
/// for) and unknown keys are skipped. Every key of `fields` is required
/// exactly once and every value must fit a `u64`.
fn parse_fields<const N: usize>(line: &str, fields: &[Field; N]) -> Result<[u64; N], String> {
    let malformed = || format!("malformed record line {line:?}");
    let b = line.as_bytes();
    let mut vals = [0u64; N];
    let mut seen = 0u32;
    let mut next = 0;
    let mut at = LINE_HEAD.len() + 2;
    loop {
        let (key, slot) = match fields.get(next) {
            Some(f) if b[at..].starts_with(&f.prefix[..f.len]) => {
                at += f.len;
                (f.key, Some(next))
            }
            _ => {
                match b.get(at) {
                    Some(b',') if b.get(at + 1) == Some(&b'"') => at += 2,
                    Some(b'}') if at + 1 == b.len() => break,
                    _ => return Err(malformed()),
                }
                let len = b[at..]
                    .iter()
                    .position(|&c| c == b'"')
                    .ok_or_else(malformed)?;
                // Both cuts sit on ASCII quotes, so the slice is on char
                // boundaries.
                let key = &line[at..at + len];
                at += len + 1;
                if b.get(at) != Some(&b':') {
                    return Err(malformed());
                }
                at += 1;
                (key, fields.iter().position(|f| f.key == key))
            }
        };
        let digits = at;
        let mut v = 0u64;
        // Nineteen digits cannot overflow a `u64`; only more are checked.
        let unchecked = b.len().min(at + 19);
        while at < unchecked && b[at].is_ascii_digit() {
            v = v * 10 + u64::from(b[at] - b'0');
            at += 1;
        }
        while let Some(d) = b.get(at).filter(|c| c.is_ascii_digit()) {
            v = v
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(d - b'0')))
                .ok_or_else(|| format!("bad {key:?} in {line:?}: exceeds u64"))?;
            at += 1;
        }
        if at == digits {
            return Err(format!("bad {key:?} in {line:?}: not a number"));
        }
        let Some(slot) = slot else {
            continue;
        };
        if seen & (1 << slot) != 0 {
            return Err(format!("duplicate field {key:?} in {line:?}"));
        }
        seen |= 1 << slot;
        vals[slot] = v;
        next = slot + 1;
    }
    // The lowest slot not seen, if any: every bit above `N` is clear.
    match fields.get(seen.trailing_ones() as usize) {
        Some(f) => Err(format!("missing field {:?} in {line:?}", f.key)),
        None => Ok(vals),
    }
}

/// A processor id or tag field: must fit the record's `u32`.
fn narrow(v: u64, key: &str, line: &str) -> Result<u32, String> {
    u32::try_from(v).map_err(|_| format!("bad {key:?} in {line:?}: exceeds u32"))
}

/// Parse a [`JsonlSink`] stream back into an [`ObsLog`], through the
/// [`RetainSink`] a retained run fills: records sort by id per kind. Span
/// lines (`"k":"s"`) are activity-trace material, not log records, and
/// are skipped unread. On the classic engine the result is the retained
/// log verbatim; on the sharded engine apply [`ObsLog::canonicalize`]
/// before comparing.
///
/// The text is untrusted: a line that is not a complete record — no
/// `{"k":"<kind>"` head, an unknown kind, a missing, repeated or
/// non-numeric field (the cause fields `cs`/`ci` included), a value past
/// `u64` (or `u32` for processor ids and message tags) — is an `Err`
/// naming the field and quoting the line, never a panic.
pub fn replay_jsonl(text: &str) -> Result<ObsLog, String> {
    let mut sink = RetainSink::default();
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let kind = match line.strip_prefix(LINE_HEAD).map(str::as_bytes) {
            Some([kind, b'"', ..]) => *kind,
            _ => return Err(format!("missing kind in {line:?}")),
        };
        match kind {
            b's' => {}
            b'm' => {
                let [id, src, dst, tag, words, cs, ci, submit, send_gate, inject, sent, arrive, recv_gate, recv_start, deliver] =
                    parse_fields(line, &MSG)?;
                sink.on_msg(&MsgRecord {
                    id,
                    src: narrow(src, "src", line)?,
                    dst: narrow(dst, "dst", line)?,
                    tag: narrow(tag, "tag", line)?,
                    words,
                    cause: cause_from_parts(cs, ci, line)?,
                    submit,
                    send_gate,
                    inject,
                    sent,
                    arrive,
                    recv_gate,
                    recv_start,
                    deliver,
                });
            }
            b'c' => {
                let [id, proc, tag, cs, ci, submit, start, end] = parse_fields(line, &COMPUTE)?;
                sink.on_compute(&ComputeRecord {
                    id,
                    proc: narrow(proc, "proc", line)?,
                    tag,
                    cause: cause_from_parts(cs, ci, line)?,
                    submit,
                    start,
                    end,
                });
            }
            b'b' => {
                let [id, proc, cs, ci, submit, enter, release] = parse_fields(line, &BARRIER)?;
                sink.on_barrier(&BarrierRecord {
                    id,
                    last_proc: narrow(proc, "proc", line)?,
                    submit,
                    enter,
                    release,
                    cause: cause_from_parts(cs, ci, line)?,
                });
            }
            b't' => {
                let [id, proc, tag, cs, ci, submit, armed, fire] = parse_fields(line, &TIMER)?;
                sink.on_timer(&TimerRecord {
                    id,
                    proc: narrow(proc, "proc", line)?,
                    tag,
                    cause: cause_from_parts(cs, ci, line)?,
                    submit,
                    armed,
                    fire,
                });
            }
            _ => {
                let kind = line[LINE_HEAD.len()..].chars().next();
                return Err(format!("unknown record kind {kind:?} in {line:?}"));
            }
        }
    }
    sink.finish()?;
    Ok(sink.retained().0)
}

// ---------------------------------------------------------------------------
// Sampling
// ---------------------------------------------------------------------------

/// Which lifecycle records a configured sink sees (a retained log keeps
/// every record). Every policy is a pure
/// function of record identity (never of engine internals), so the
/// sampled *set* is identical across lane and thread counts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ObsSampling {
    /// Every record.
    #[default]
    All,
    /// Records (and spans) of processors with `p % n == 0`.
    Stride(u32),
    /// Records (and spans) of an explicit processor set.
    ProcSet(Vec<ProcId>),
    /// The first and last `k` messages of each source (by per-source
    /// issue order). Message records are buffered and emitted in id order
    /// at the end of the run; spans are suppressed.
    HeadTail(u32),
    /// A seeded bottom-k reservoir over all messages: each message is
    /// ranked by a pure hash of `(seed, src, per-source seq)` and the `k`
    /// lowest ranks survive. Emitted in id order at the end of the run;
    /// spans are suppressed.
    Reservoir { k: u32, seed: u64 },
}

/// Reservoir entry ordered by rank (max-heap keeps the k lowest ranks).
struct ResEntry {
    rank: (u64, u64),
    rec: MsgRecord,
}

impl PartialEq for ResEntry {
    fn eq(&self, other: &Self) -> bool {
        self.rank == other.rank
    }
}
impl Eq for ResEntry {}
impl PartialOrd for ResEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ResEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank.cmp(&other.rank)
    }
}

/// Applies an [`ObsSampling`] policy to the record stream.
pub(crate) struct Sampler {
    policy: ObsSampling,
    /// Messages offered so far per source, indexed by processor — the
    /// head/tail and reservoir identity. The other policies never read
    /// it, so they never count.
    seq: Vec<u64>,
    /// Head-k and tail-k buffers per source.
    head: HashMap<ProcId, Vec<MsgRecord>>,
    tail: HashMap<ProcId, VecDeque<MsgRecord>>,
    /// Bottom-k reservoir.
    res: BinaryHeap<ResEntry>,
}

impl Sampler {
    pub(crate) fn new(policy: ObsSampling) -> Self {
        Sampler {
            policy,
            seq: Vec::new(),
            head: HashMap::new(),
            tail: HashMap::new(),
            res: BinaryHeap::new(),
        }
    }

    /// Whether processor `p`'s non-message records (computes, timers,
    /// barrier last-entrant) and spans pass the policy.
    pub(crate) fn pass_proc(&self, p: ProcId) -> bool {
        match &self.policy {
            ObsSampling::All => true,
            ObsSampling::Stride(n) => *n <= 1 || p.is_multiple_of(*n),
            ObsSampling::ProcSet(set) => set.contains(&p),
            // Message-shaped policies keep the full causal skeleton:
            // non-message records pass, spans are suppressed separately.
            ObsSampling::HeadTail(_) | ObsSampling::Reservoir { .. } => true,
        }
    }

    /// Whether activity spans stream at all under this policy.
    pub(crate) fn spans_enabled(&self) -> bool {
        !matches!(
            self.policy,
            ObsSampling::HeadTail(_) | ObsSampling::Reservoir { .. }
        )
    }

    /// Offer a completed message record. `true` means emit it now;
    /// `false` means it was dropped or deferred until [`Sampler::drain`].
    pub(crate) fn offer_msg(&mut self, rec: &MsgRecord) -> bool {
        let (k, seed) = match &self.policy {
            ObsSampling::All => return true,
            ObsSampling::Stride(_) | ObsSampling::ProcSet(_) => return self.pass_proc(rec.src),
            ObsSampling::HeadTail(k) => (*k as usize, None),
            ObsSampling::Reservoir { k, seed } => (*k as usize, Some(*seed)),
        };
        let src = rec.src as usize;
        if self.seq.len() <= src {
            self.seq.resize(src + 1, 0);
        }
        let ordinal = self.seq[src];
        self.seq[src] += 1;
        match seed {
            None if ordinal < k as u64 => self.head.entry(rec.src).or_default().push(*rec),
            None => {
                let ring = self.tail.entry(rec.src).or_default();
                if ring.len() == k {
                    ring.pop_front();
                }
                if k > 0 {
                    ring.push_back(*rec);
                }
            }
            Some(seed) => {
                let rank = (
                    logp_core::rng::mix(&[seed, 0x5245_5356, rec.src as u64, ordinal]),
                    ((rec.src as u64) << 40) | ordinal,
                );
                self.res.push(ResEntry { rank, rec: *rec });
                if self.res.len() > k {
                    self.res.pop();
                }
            }
        }
        false
    }

    /// Deferred records (head/tail, reservoir), sorted by id so the
    /// emission order — and therefore the artifact bytes — are identical
    /// for every lane count.
    pub(crate) fn drain(&mut self) -> Vec<MsgRecord> {
        let mut out: Vec<MsgRecord> = Vec::new();
        for (_, v) in std::mem::take(&mut self.head) {
            out.extend(v);
        }
        for (_, v) in std::mem::take(&mut self.tail) {
            out.extend(v);
        }
        out.extend(std::mem::take(&mut self.res).into_iter().map(|e| e.rec));
        out.sort_by_key(|m| m.id);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: MsgId, cause: Cause) -> MsgRecord {
        MsgRecord {
            id,
            src: 0,
            dst: 1,
            tag: 0,
            words: 1,
            cause,
            submit: 0,
            send_gate: 0,
            inject: 0,
            sent: 2,
            arrive: 8,
            recv_gate: 0,
            recv_start: 8,
            deliver: 10,
        }
    }

    #[test]
    fn latency_and_flight_require_delivery() {
        let mut m = rec(0, Cause::Start);
        assert_eq!(m.latency(), Some(10));
        assert_eq!(m.flight(), Some(6));
        m.deliver = UNSET;
        m.arrive = UNSET;
        assert_eq!(m.latency(), None);
        assert_eq!(m.flight(), None);
    }

    #[test]
    fn ancestry_walks_to_start() {
        let log = ObsLog {
            msgs: vec![rec(0, Cause::Start), rec(1, Cause::Msg(0))],
            ..Default::default()
        };
        assert_eq!(log.ancestry(1), vec![Cause::Msg(0), Cause::Start]);
        assert_eq!(log.ancestry(0), vec![Cause::Start]);
        assert!(log.ancestry(7).is_empty());
    }

    #[test]
    fn empty_log_reports_empty() {
        assert!(ObsLog::default().is_empty());
    }
}
