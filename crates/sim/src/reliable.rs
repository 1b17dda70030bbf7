//! Reliable delivery over a faulty network: ack / timeout / retransmit
//! with exponential backoff and at-most-once duplicate suppression.
//!
//! The LogP paper assumes the communication layer masks network failures
//! (the CM-5's active-message layer does this in software). This module is
//! that layer for the simulator. An [`Endpoint`] wraps outgoing payloads in
//! sequence numbers ([`crate::Data::Seq`]), acknowledges every received
//! copy, retransmits unacknowledged messages on a backoff schedule driven
//! by [`crate::process::Ctx::timer`], and delivers each logical message to
//! the application at most once. [`Reliable`] puts an endpoint around any
//! [`Process`], so a program is written once, against plain sends, and
//! made reliable by wrapping it; a program that wants to see the protocol
//! (count failures, mix reliable and raw traffic) embeds an [`Endpoint`]
//! and forwards `on_message` / `on_timer` to it itself.
//!
//! Cost model: each reliable message adds one ack (`o` at both ends plus
//! `L` of flight, contending for the same gap `g` slots as data), and each
//! loss adds at least one timeout of `timeout · 2^attempt` before the
//! retransmission pays the usual `2o + L`. Retries surface in the
//! observability layer as [`crate::Cause::Retry`] edges, so the
//! critical-path analyzer prices timeout waits alongside `o`, `g`, and `L`
//! (see `docs/FAILURE_MODEL.md`).
//!
//! # Example: one reliable message across a lossless link
//!
//! ```
//! use logp_core::LogP;
//! use logp_sim::process::{Ctx, Process};
//! use logp_sim::reliable::{Reliable, RetryConfig};
//! use logp_sim::{Data, Message, SharedCell, Sim, SimConfig};
//!
//! /// Written against plain sends; knows nothing of acks or timers.
//! struct Node(SharedCell<Vec<u64>>);
//!
//! impl Process for Node {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
//!         if ctx.me() == 0 {
//!             ctx.send(1, 7, Data::U64(42));
//!         }
//!     }
//!     fn on_message(&mut self, msg: &Message, _: &mut Ctx<'_>) {
//!         self.0.with(|v| v.push(msg.data.as_u64()));
//!     }
//! }
//!
//! let m = LogP::new(6, 2, 4, 2).unwrap();
//! let retry = RetryConfig::for_model(&m);
//! let (got, retries) = (SharedCell::new(), SharedCell::new());
//! let mut sim = Sim::new(m, SimConfig::default());
//! sim.set_all(|_| {
//!     let node = Node(got.clone());
//!     Box::new(Reliable::new(node, retry.clone(), retries.clone()))
//! });
//! sim.run().unwrap();
//! // Delivered exactly once, with zero retransmissions needed.
//! assert_eq!(got.get(), vec![42]);
//! assert_eq!(retries.get(), 0);
//! ```

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use logp_core::{Cycles, LogP, ProcId};

use crate::faults::SplitMix;
use crate::message::{Data, Message};
use crate::process::{Command, Ctx, Process};
use crate::SharedCell;
use logp_core::rng::splitmix64;

/// Wire tag reserved for acknowledgements. Application protocols must not
/// use it for data.
pub const TAG_ACK: u32 = 0xFFFF_FFFE;

/// High bit of the timer-token namespace claimed by [`Endpoint`]s; the
/// low bits carry the sequence number being timed. Programs that arm
/// their own timers alongside an endpoint must keep this bit clear.
pub const TIMER_NAMESPACE: u64 = 1 << 63;

/// Retransmission policy of an [`Endpoint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryConfig {
    /// Base retransmission timeout in cycles, doubled on every retry of
    /// the same message (exponential backoff).
    pub timeout: Cycles,
    /// Retransmissions attempted before the message is abandoned and
    /// recorded in [`Endpoint::failed`].
    pub max_retries: u32,
    /// Maximum deterministic jitter added to each timeout, in cycles, to
    /// de-synchronize retry bursts. The actual jitter is a SplitMix64
    /// hash of `(seed, seq, attempt)` in `0..=jitter`.
    pub jitter: Cycles,
    /// Seed of the jitter hash.
    pub seed: u64,
}

impl RetryConfig {
    /// A policy matched to a machine: the timeout covers a full
    /// data + ack round trip (`2·(2o + L)`) plus a gap of slack per
    /// direction, with jitter of one gap.
    pub fn for_model(m: &LogP) -> Self {
        RetryConfig {
            timeout: 2 * (2 * m.o + m.l) + 2 * m.g,
            max_retries: 8,
            jitter: m.g,
            seed: 0xFA417,
        }
    }

    /// The same policy stretched for a node that fans out to `fanout`
    /// children: sends are spaced by `max(g, o)` and the last child's ack
    /// contends behind the whole burst, so the base timeout grows by one
    /// slot per child. Keeps spurious (early) retransmissions rare
    /// without affecting correctness — duplicates are suppressed anyway.
    pub fn for_tree(m: &LogP, fanout: u32) -> Self {
        let mut cfg = Self::for_model(m);
        cfg.timeout += fanout as u64 * m.g.max(m.o);
        cfg
    }

    /// Override the base timeout.
    pub fn with_timeout(mut self, timeout: Cycles) -> Self {
        self.timeout = timeout;
        self
    }

    /// Override the retry budget.
    pub fn with_max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// The timeout before attempt `attempt + 1` of message `seq`:
    /// exponential backoff on the base timeout plus deterministic
    /// per-(seq, attempt) jitter. Saturates, so a policy too long for the
    /// clock reaches the engine as one huge timer (a typed
    /// `SimError::TimeOverflow`) and never wraps round to a short one.
    fn backoff(&self, seq: u64, attempt: u32) -> Cycles {
        let base = self.timeout.saturating_mul(1 << attempt.min(12));
        let jitter = if self.jitter == 0 {
            0
        } else {
            splitmix64(self.seed ^ seq.rotate_left(17) ^ attempt as u64)
                % self.jitter.saturating_add(1)
        };
        base.saturating_add(jitter)
    }
}

/// Delivery counters of one endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EndpointStats {
    /// Retransmissions performed.
    pub retries: u64,
    /// Acks transmitted (one per received copy, duplicates included).
    pub acks_sent: u64,
    /// Received copies suppressed as duplicates.
    pub dups_suppressed: u64,
    /// Messages abandoned after exhausting the retry budget.
    pub failed: u64,
}

#[derive(Debug, Clone)]
struct Pending {
    dst: ProcId,
    tag: u32,
    data: Data,
    attempt: u32,
}

/// An endpoint's unacknowledged sends, one slot a number (see
/// [`Endpoint`]). A rank that sends once holds its slot in place; a second
/// number spills the ring to a `VecDeque`, whose buffer goes back when the
/// ring drains.
#[derive(Debug, Clone, Default)]
enum Unacked {
    #[default]
    Empty,
    One(Option<Pending>),
    Spilled(VecDeque<Option<Pending>>),
}

impl Unacked {
    fn len(&self) -> usize {
        match self {
            Unacked::Empty => 0,
            Unacked::One(_) => 1,
            Unacked::Spilled(q) => q.len(),
        }
    }

    fn get_mut(&mut self, at: usize) -> Option<&mut Option<Pending>> {
        match self {
            Unacked::One(slot) if at == 0 => Some(slot),
            Unacked::Spilled(q) => q.get_mut(at),
            _ => None,
        }
    }

    /// Append `n` empty slots. A first buffer is exactly what the ring
    /// has to hold, not the growth policy's minimum.
    fn grow(&mut self, n: usize) {
        match self {
            _ if n == 0 => {}
            Unacked::Empty if n == 1 => *self = Unacked::One(None),
            Unacked::Spilled(q) => q.resize_with(q.len() + n, || None),
            Unacked::Empty | Unacked::One(_) => {
                let mut q = VecDeque::new();
                q.reserve_exact(self.len() + n);
                if let Unacked::One(slot) = std::mem::take(self) {
                    q.push_back(slot);
                }
                q.resize_with(q.len() + n, || None);
                *self = Unacked::Spilled(q);
            }
        }
    }

    /// Pop the settled slots off the front.
    fn trim(&mut self) {
        match self {
            Unacked::One(None) => *self = Unacked::Empty,
            Unacked::Spilled(q) => {
                while let Some(None) = q.front() {
                    q.pop_front();
                }
                if q.is_empty() {
                    *self = Unacked::Empty;
                }
            }
            _ => {}
        }
    }

    /// Occupied slots (a walk over a spilled ring).
    fn waiting(&self) -> usize {
        match self {
            Unacked::Empty => 0,
            Unacked::One(slot) => usize::from(slot.is_some()),
            Unacked::Spilled(q) => q.iter().filter(|slot| slot.is_some()).count(),
        }
    }
}

/// The `(src, seq)` an endpoint has delivered upward. Two sit in place —
/// a leaf of a tree hears only from its parent, a rank with one child
/// from two peers — and a third spills the set to a table.
#[derive(Debug, Clone)]
enum Delivered {
    Few(u8, [(ProcId, u64); 2]),
    Spilled(HashSet<(ProcId, u64), SplitMix>),
}

impl Delivered {
    /// Add `key`; `false` if it was already delivered.
    fn insert(&mut self, key: (ProcId, u64)) -> bool {
        match self {
            Delivered::Spilled(set) => set.insert(key),
            Delivered::Few(n, at) => {
                if at[..*n as usize].contains(&key) {
                    return false;
                }
                if let Some(free) = at.get_mut(*n as usize) {
                    *free = key;
                    *n += 1;
                } else {
                    let set = at.iter().copied().chain([key]).collect();
                    *self = Delivered::Spilled(set);
                }
                true
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            Delivered::Few(n, _) => *n as usize,
            Delivered::Spilled(set) => set.len(),
        }
    }
}

/// What went wrong on an endpoint's wire, kept from the first time
/// anything did: most endpoints never retransmit or see a duplicate.
#[derive(Debug, Clone, Default)]
struct Incidents {
    retries: u64,
    dups_suppressed: u64,
    /// `(dst, seq)` of the messages abandoned after `max_retries`.
    failed: Vec<(ProcId, u64)>,
}

/// A reliable-delivery endpoint: sequence numbers out, acks back,
/// timeout-driven retransmission, at-most-once delivery in.
///
/// Owns no engine state — it is plain data a [`crate::process::Process`]
/// embeds, translating between the application's sends and the faulty
/// wire. The owning process must forward `on_message` and `on_timer` to
/// it (see the module example). The unacknowledged sends are a ring
/// indexed by sequence number and the delivered set is looked up by a fixed
/// hash and never iterated, so endpoint behavior is deterministic.
#[derive(Debug, Clone)]
pub struct Endpoint {
    /// The policy, shared by every endpoint of a run built from one.
    cfg: Arc<RetryConfig>,
    next_seq: u64,
    /// Unacknowledged outbound messages: a ring over the newest issued
    /// numbers, slot `i` for number `next_seq - pending.len() + i`, emptied
    /// when that message is acked or abandoned. A settled front is popped,
    /// so the ring spans oldest-unacked to newest, is empty exactly when
    /// nothing waits, and never shifts.
    pending: Unacked,
    /// `(src, seq)` of every message already delivered upward.
    seen: Delivered,
    /// Retransmissions, duplicates and abandoned messages; `None` while
    /// there are none.
    incidents: Option<Box<Incidents>>,
}

impl Endpoint {
    /// A fresh endpoint with the given retransmission policy: a
    /// [`RetryConfig`], or an `Arc` of one that endpoints share.
    pub fn new(cfg: impl Into<Arc<RetryConfig>>) -> Self {
        Endpoint {
            cfg: cfg.into(),
            next_seq: 0,
            pending: Unacked::Empty,
            seen: Delivered::Few(0, [(0, 0); 2]),
            incidents: None,
        }
    }

    /// Delivery counters. Every received copy is acked, so acks sent are
    /// the messages delivered plus the duplicates suppressed.
    pub fn stats(&self) -> EndpointStats {
        let inc = self.incidents.as_deref();
        let dups_suppressed = inc.map_or(0, |i| i.dups_suppressed);
        EndpointStats {
            retries: self.retries(),
            acks_sent: self.seen.len() as u64 + dups_suppressed,
            dups_suppressed,
            failed: inc.map_or(0, |i| i.failed.len() as u64),
        }
    }

    /// Retransmissions so far.
    fn retries(&self) -> u64 {
        self.incidents.as_deref().map_or(0, |i| i.retries)
    }

    /// `(dst, seq)` of the messages abandoned after `max_retries`, in the
    /// order they were given up.
    pub fn failed(&self) -> &[(ProcId, u64)] {
        self.incidents.as_deref().map_or(&[], |i| &i.failed)
    }

    fn incidents(&mut self) -> &mut Incidents {
        self.incidents.get_or_insert_default()
    }

    /// Send `data` reliably to `dst` under the application tag `tag`.
    /// Returns the sequence number assigned to the message.
    pub fn send(&mut self, ctx: &mut Ctx<'_>, dst: ProcId, tag: u32, data: Data) -> u64 {
        ctx.check_dst(dst);
        let seq = self.issue(1);
        ctx.commands.extend(self.enroll(seq, dst, tag, data));
        seq
    }

    /// Issue the next `n` sequence numbers and return the first; the ring
    /// grows by an empty slot for each, which [`Endpoint::enroll`] fills.
    fn issue(&mut self, n: usize) -> u64 {
        self.pending.grow(n);
        let first = self.next_seq;
        self.next_seq += n as u64;
        first
    }

    /// The ring slot of `seq`; `None` for a number below the ring (settled
    /// and popped) or never issued.
    fn slot(&mut self, seq: u64) -> Option<&mut Option<Pending>> {
        let floor = self.next_seq - self.pending.len() as u64;
        let at = usize::try_from(seq.checked_sub(floor)?).ok()?;
        self.pending.get_mut(at)
    }

    /// Stop waiting on `seq` — acked or abandoned — and pop the settled
    /// front of the ring. Does nothing if nothing waited under that number.
    fn settle(&mut self, seq: u64) {
        if self.slot(seq).and_then(Option::take).is_some() {
            self.pending.trim();
        }
    }

    /// Hold `data` under the issued number `seq` until it is acknowledged;
    /// returns the wire send and the retransmission timer that carry its
    /// first attempt.
    fn enroll(&mut self, seq: u64, dst: ProcId, tag: u32, data: Data) -> [Command; 2] {
        let wire = Data::Seq {
            seq,
            inner: Box::new(data.clone()),
        };
        let pend = Pending {
            dst,
            tag,
            data,
            attempt: 0,
        };
        let slot = self.slot(seq).expect("enrolled under an issued number");
        debug_assert!(slot.is_none(), "#{seq} enrolled twice");
        *slot = Some(pend);
        [
            Command::Send {
                dst,
                tag,
                data: wire,
            },
            Command::Timer {
                cycles: self.cfg.backoff(seq, 0),
                tag: TIMER_NAMESPACE | seq,
            },
        ]
    }

    /// Process an incoming wire message. Returns the inner payload the
    /// first time each logical message is seen (`None` for acks,
    /// duplicates, and non-sequenced traffic the endpoint ignores —
    /// unwrapped messages pass through untouched by returning `None`, so
    /// route only sequenced protocols here).
    ///
    /// Every received copy is (re-)acknowledged, including duplicates:
    /// the earlier ack may itself have been lost.
    pub fn on_message(&mut self, msg: &Message, ctx: &mut Ctx<'_>) -> Option<Data> {
        let Data::Seq { seq, inner } = &msg.data else {
            return None;
        };
        if msg.tag == TAG_ACK {
            self.settle(*seq);
            return None;
        }
        ctx.send(
            msg.src,
            TAG_ACK,
            Data::Seq {
                seq: *seq,
                inner: Box::new(Data::Empty),
            },
        );
        if self.seen.insert((msg.src, *seq)) {
            Some((**inner).clone())
        } else {
            self.incidents().dups_suppressed += 1;
            None
        }
    }

    /// Process a timer fire. Returns `true` if the token belonged to this
    /// endpoint (callers multiplexing their own timers should check).
    /// Retransmits the timed message if it is still unacknowledged,
    /// abandoning it once the retry budget is spent.
    pub fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) -> bool {
        if token & TIMER_NAMESPACE == 0 {
            return false;
        }
        let seq = token & !TIMER_NAMESPACE;
        let max_retries = self.cfg.max_retries;
        let Some(pend) = self.slot(seq).and_then(Option::as_mut) else {
            return true; // acked since: a stale fire.
        };
        if pend.attempt >= max_retries {
            let dst = pend.dst;
            self.settle(seq);
            self.incidents().failed.push((dst, seq));
            return true;
        }
        pend.attempt += 1;
        let (dst, tag, data, attempt) = (pend.dst, pend.tag, pend.data.clone(), pend.attempt);
        ctx.send(
            dst,
            tag,
            Data::Seq {
                seq,
                inner: Box::new(data),
            },
        );
        ctx.timer(self.cfg.backoff(seq, attempt), token);
        self.incidents().retries += 1;
        true
    }

    /// True when nothing is awaiting an ack.
    pub fn idle(&self) -> bool {
        matches!(self.pending, Unacked::Empty)
    }

    /// Number of messages still awaiting acknowledgement.
    pub fn pending_count(&self) -> usize {
        self.pending.waiting()
    }
}

/// Reliable delivery as a wrapper: `P`, written against plain sends, run
/// over an [`Endpoint`].
///
/// Every [`Command::Send`] a handler of `P` queues goes out sequenced and
/// timed for retransmission; inbound copies are acknowledged and
/// de-duplicated, and `P` is handed the unwrapped message, once. All else
/// passes through untouched: other commands (a [`Command::SendBulk`]
/// stays a raw, unreliable message, and a raw message that arrives is
/// delivered as it is), computes, barriers, and every timer whose token
/// keeps [`TIMER_NAMESPACE`] clear — `P` must leave that bit to the
/// endpoint.
pub struct Reliable<P> {
    inner: P,
    ep: Endpoint,
    retries: SharedCell<u64>,
}

impl<P: Process> Reliable<P> {
    /// Wrap `inner`. Every retransmission adds one to `retries`, which the
    /// processors of a run share (programs are owned by the engine, so a
    /// count must leave through a cell); so may the policy, as an `Arc`.
    pub fn new(inner: P, cfg: impl Into<Arc<RetryConfig>>, retries: SharedCell<u64>) -> Self {
        Reliable {
            inner,
            ep: Endpoint::new(cfg),
            retries,
        }
    }

    /// Run one handler of `inner`, then hand the sends it queued to the
    /// endpoint. Each becomes two commands (wire send, timer), so the tail
    /// of the handler's own command list is expanded in place, back to
    /// front: no command moves twice and nothing is buffered per processor.
    fn run(&mut self, ctx: &mut Ctx<'_>, handler: impl FnOnce(&mut P, &mut Ctx<'_>)) {
        let start = ctx.commands.len();
        handler(&mut self.inner, ctx);
        let cmds = &mut *ctx.commands;
        let queued = cmds[start..].iter();
        let sends = queued.filter(|c| matches!(c, Command::Send { .. })).count();
        let mut read = cmds.len();
        cmds.resize(read + sends, Command::Halt);
        let mut write = cmds.len();
        // Sequence numbers count up in queue order, so down from the end.
        let mut seq = self.ep.issue(sends) + sends as u64;
        while write > read {
            read -= 1;
            match std::mem::replace(&mut cmds[read], Command::Halt) {
                Command::Send { dst, tag, data } => {
                    seq -= 1;
                    write -= 2;
                    let [wire, timer] = self.ep.enroll(seq, dst, tag, data);
                    cmds[write] = wire;
                    cmds[write + 1] = timer;
                }
                other => {
                    write -= 1;
                    cmds[write] = other;
                }
            }
        }
    }
}

impl<P: Process> Process for Reliable<P> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.run(ctx, |p, ctx| p.on_start(ctx));
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Ctx<'_>) {
        if msg.data.seq().is_none() {
            return self.run(ctx, |p, ctx| p.on_message(msg, ctx));
        }
        // The ack is queued first, ahead of whatever `inner` sends.
        if let Some(data) = self.ep.on_message(msg, ctx) {
            let msg = Message { data, ..*msg };
            self.run(ctx, |p, ctx| p.on_message(&msg, ctx));
        }
    }

    fn on_compute_done(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        self.run(ctx, |p, ctx| p.on_compute_done(tag, ctx));
    }

    fn on_barrier_release(&mut self, ctx: &mut Ctx<'_>) {
        self.run(ctx, |p, ctx| p.on_barrier_release(ctx));
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        if token & TIMER_NAMESPACE == 0 {
            return self.run(ctx, |p, ctx| p.on_timer(token, ctx));
        }
        let before = self.ep.retries();
        self.ep.on_timer(token, ctx);
        if self.ep.retries() > before {
            self.retries.with(|r| *r += 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Bulk;
    use crate::{FaultPlan, Sim, SimConfig};
    use logp_core::rng::CounterRng;
    use std::collections::{BTreeMap, BTreeSet};

    fn ctx_cmds() -> Vec<Command> {
        Vec::new()
    }

    #[test]
    fn send_wraps_and_arms_timer() {
        let mut cmds = ctx_cmds();
        let mut ctx = Ctx::new(0, 0, 2, &mut cmds);
        let mut ep = Endpoint::new(RetryConfig::for_model(&LogP::new(6, 2, 4, 2).unwrap()));
        let seq = ep.send(&mut ctx, 1, 9, Data::U64(5));
        assert_eq!(seq, 0);
        assert_eq!(ep.pending_count(), 1);
        assert!(matches!(
            &cmds[0],
            Command::Send {
                dst: 1,
                tag: 9,
                data: Data::Seq { seq: 0, .. }
            }
        ));
        assert!(matches!(&cmds[1], Command::Timer { tag, .. } if tag & TIMER_NAMESPACE != 0));
    }

    #[test]
    fn receive_acks_and_dedups() {
        let mut ep = Endpoint::new(RetryConfig::for_model(&LogP::new(6, 2, 4, 2).unwrap()));
        let msg = Message {
            src: 1,
            dst: 0,
            tag: 9,
            data: Data::Seq {
                seq: 3,
                inner: Box::new(Data::U64(7)),
            },
        };
        let mut cmds = ctx_cmds();
        let mut ctx = Ctx::new(0, 0, 2, &mut cmds);
        assert_eq!(ep.on_message(&msg, &mut ctx), Some(Data::U64(7)));
        assert_eq!(ep.on_message(&msg, &mut ctx), None); // duplicate
        assert_eq!(ep.stats().dups_suppressed, 1);
        // Both copies were acked.
        let acks = cmds
            .iter()
            .filter(|c| matches!(c, Command::Send { tag: TAG_ACK, .. }))
            .count();
        assert_eq!(acks, 2);
    }

    #[test]
    fn ack_clears_pending() {
        let m = LogP::new(6, 2, 4, 2).unwrap();
        let mut ep = Endpoint::new(RetryConfig::for_model(&m));
        let mut cmds = ctx_cmds();
        let seq = {
            let mut ctx = Ctx::new(0, 0, 2, &mut cmds);
            let seq = ep.send(&mut ctx, 1, 9, Data::Empty);
            let ack = Message {
                src: 1,
                dst: 0,
                tag: TAG_ACK,
                data: Data::Seq {
                    seq,
                    inner: Box::new(Data::Empty),
                },
            };
            assert_eq!(ep.on_message(&ack, &mut ctx), None);
            assert!(ep.idle());
            seq
        };
        // A later (stale) timer fire does nothing.
        let before = cmds.len();
        {
            let mut ctx = Ctx::new(0, 0, 2, &mut cmds);
            assert!(ep.on_timer(TIMER_NAMESPACE | seq, &mut ctx));
        }
        assert_eq!(cmds.len(), before);
        assert_eq!(ep.stats().retries, 0);
    }

    #[test]
    fn timeout_retransmits_then_gives_up() {
        let m = LogP::new(6, 2, 4, 2).unwrap();
        let mut ep = Endpoint::new(RetryConfig::for_model(&m).with_max_retries(2));
        let mut cmds = ctx_cmds();
        let mut ctx = Ctx::new(0, 0, 2, &mut cmds);
        let seq = ep.send(&mut ctx, 1, 9, Data::U64(1));
        let token = TIMER_NAMESPACE | seq;
        assert!(ep.on_timer(token, &mut ctx));
        assert!(ep.on_timer(token, &mut ctx));
        assert_eq!(ep.stats().retries, 2);
        assert!(!ep.idle());
        // Third fire exhausts the budget.
        assert!(ep.on_timer(token, &mut ctx));
        assert!(ep.idle());
        assert_eq!(ep.failed(), [(1, seq)]);
        assert_eq!(ep.stats().failed, 1);
    }

    #[test]
    fn foreign_tokens_are_not_consumed() {
        let m = LogP::new(6, 2, 4, 2).unwrap();
        let mut ep = Endpoint::new(RetryConfig::for_model(&m));
        let mut cmds = ctx_cmds();
        let mut ctx = Ctx::new(0, 0, 2, &mut cmds);
        assert!(!ep.on_timer(41, &mut ctx));
    }

    #[test]
    fn backoff_grows_exponentially() {
        let m = LogP::new(6, 2, 4, 2).unwrap();
        let mut cfg = RetryConfig::for_model(&m);
        cfg.jitter = 0;
        assert_eq!(cfg.backoff(0, 0), cfg.timeout);
        assert_eq!(cfg.backoff(0, 3), cfg.timeout << 3);
    }

    /// The shift saturates: a base timeout with high bits set backs off to
    /// the longest wait there is, not round to a short one (`1 << 60` used
    /// to reach 0 at attempt 4), and no policy overflows the addition.
    #[test]
    fn backoff_never_decreases_with_the_attempt() {
        let mut cfg = RetryConfig::for_model(&LogP::new(6, 2, 4, 2).unwrap());
        cfg.jitter = 0;
        for timeout in [0, 1, 20, 1 << 51, (1 << 52) + 1, 1 << 60, u64::MAX] {
            let cfg = cfg.clone().with_timeout(timeout);
            let waits: Vec<Cycles> = (0..40).map(|a| cfg.backoff(7, a)).collect();
            assert!(waits.is_sorted(), "timeout {timeout}: {waits:?}");
            assert_eq!(waits[0], timeout);
        }
        // Jitter rides on top of the base and saturates with it.
        for jitter in [1, 4, u64::MAX - 1, u64::MAX] {
            cfg.jitter = jitter;
            for timeout in [20, 1 << 60, u64::MAX] {
                let cfg = cfg.clone().with_timeout(timeout);
                for attempt in 0..20 {
                    let base = timeout.saturating_mul(1 << attempt.min(12));
                    let wait = cfg.backoff(3, attempt);
                    assert!(base <= wait && wait - base <= jitter);
                }
            }
        }
    }

    /// Inline, an endpoint is a shared policy, one ring slot, two delivered
    /// identities and a pointer to its incidents; a rank that sends once
    /// and hears from two peers allocates nothing beyond that.
    #[test]
    fn an_endpoint_stays_small_and_a_single_send_holds_one_slot() {
        use std::mem::size_of;
        assert!(size_of::<Endpoint>() <= 104);
        assert_eq!(size_of::<Unacked>(), 40);
        assert_eq!(size_of::<Option<Pending>>(), 40);
        let mut ep = Endpoint::new(RetryConfig::for_model(&LogP::new(6, 2, 4, 2).unwrap()));
        let mut cmds = ctx_cmds();
        let mut ctx = Ctx::new(0, 0, 3, &mut cmds);
        ep.send(&mut ctx, 1, 9, Data::U64(5));
        assert!(matches!(ep.pending, Unacked::One(Some(_))));
        for src in [1, 2] {
            ep.on_message(&sequenced(src, 9, 0, Data::Empty), &mut ctx);
        }
        assert!(matches!(ep.seen, Delivered::Few(2, _)));
        assert!(ep.incidents.is_none());
        // A second number spills the ring, and its buffer goes back once
        // both are acked.
        ep.send(&mut ctx, 2, 9, Data::U64(6));
        assert!(matches!(&ep.pending, Unacked::Spilled(q) if q.len() == 2));
        for seq in [1, 0] {
            ep.on_message(&sequenced(1, TAG_ACK, seq, Data::Empty), &mut ctx);
        }
        assert!(matches!(ep.pending, Unacked::Empty) && ep.idle());
    }

    /// What the wrapped test program saw: `(src, tag, payload)` per
    /// message, and every timer token.
    #[derive(Debug, Default, Clone, PartialEq)]
    struct Seen {
        msgs: Vec<(ProcId, u32, Data)>,
        timers: Vec<u64>,
    }

    /// Plain-send program: a scripted `on_start`, and on every message a
    /// reply to its sender.
    struct Script(SharedCell<Seen>);

    impl Process for Script {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.compute(3, 1);
            ctx.send(1, 9, Data::U64(5));
            ctx.barrier();
            ctx.send(2, 8, Data::U64(6));
            ctx.timer(4, 7);
            ctx.send_bulk(1, 9, Data::Empty, 3);
            ctx.halt();
        }
        fn on_message(&mut self, msg: &Message, ctx: &mut Ctx<'_>) {
            self.0
                .with(|s| s.msgs.push((msg.src, msg.tag, msg.data.clone())));
            ctx.send(msg.src, msg.tag + 1, Data::Empty);
        }
        fn on_timer(&mut self, token: u64, _: &mut Ctx<'_>) {
            self.0.with(|s| s.timers.push(token));
        }
    }

    fn scripted() -> (Reliable<Script>, SharedCell<Seen>, SharedCell<u64>) {
        let (seen, retries) = (SharedCell::new(), SharedCell::new());
        let cfg = RetryConfig::for_model(&LogP::new(6, 2, 4, 4).unwrap());
        let wrapped = Reliable::new(Script(seen.clone()), cfg, retries.clone());
        (wrapped, seen, retries)
    }

    fn sequenced(src: ProcId, tag: u32, seq: u64, inner: Data) -> Message {
        let inner = Box::new(inner);
        Message {
            src,
            dst: 0,
            tag,
            data: Data::Seq { seq, inner },
        }
    }

    #[test]
    fn wrapper_rewrites_sends_and_keeps_everything_else_in_place() {
        let (mut wrapped, _, _) = scripted();
        // A command already queued (as an ack would be) is not the
        // handler's, and stays as it is.
        let mut cmds = vec![Command::Send {
            dst: 3,
            tag: 1,
            data: Data::Empty,
        }];
        wrapped.on_start(&mut Ctx::new(0, 0, 4, &mut cmds));
        let shape: Vec<String> = cmds
            .iter()
            .map(|c| match c {
                Command::Send { dst, tag, data } => match data.seq() {
                    Some(seq) => format!("send {dst} {tag} #{seq} {:?}", data.as_seq().1),
                    None => format!("send {dst} {tag} raw"),
                },
                Command::Timer { tag, .. } if tag & TIMER_NAMESPACE != 0 => {
                    format!("retry-timer #{}", tag & !TIMER_NAMESPACE)
                }
                Command::Timer { tag, .. } => format!("timer {tag}"),
                other => other.name().to_string(),
            })
            .collect();
        assert_eq!(
            shape,
            [
                "send 3 1 raw",
                "compute",
                "send 1 9 #0 U64(5)",
                "retry-timer #0",
                "barrier",
                "send 2 8 #1 U64(6)",
                "retry-timer #1",
                "timer 7",
                "send_bulk",
                "halt",
            ]
        );
        assert_eq!(wrapped.ep.pending_count(), 2);
    }

    #[test]
    fn wrapper_routes_timers_by_namespace() {
        let (mut wrapped, seen, retries) = scripted();
        let mut cmds = Vec::new();
        let mut ctx = Ctx::new(0, 0, 4, &mut cmds);
        wrapped.on_start(&mut ctx);
        // The program's own token reaches it ...
        wrapped.on_timer(7, &mut ctx);
        assert_eq!(seen.get().timers, [7]);
        // ... an endpoint token does not: it retransmits message #1.
        let before = ctx.commands.len();
        wrapped.on_timer(TIMER_NAMESPACE | 1, &mut ctx);
        assert_eq!(seen.get().timers, [7]);
        assert_eq!(retries.get(), 1);
        assert!(matches!(
            &cmds[before..],
            [Command::Send { dst: 2, tag: 8, .. }, Command::Timer { .. }]
        ));
    }

    #[test]
    fn wrapper_acks_a_duplicate_but_delivers_once() {
        let (mut wrapped, seen, _) = scripted();
        let mut cmds = Vec::new();
        let mut ctx = Ctx::new(0, 0, 4, &mut cmds);
        let msg = sequenced(2, 30, 5, Data::U64(77));
        wrapped.on_message(&msg, &mut ctx);
        wrapped.on_message(&msg, &mut ctx);
        // The program saw the unwrapped message, once, and replied once.
        assert_eq!(seen.get().msgs, [(2, 30, Data::U64(77))]);
        let tags: Vec<u32> = ctx
            .commands
            .iter()
            .filter_map(|c| match c {
                Command::Send { tag, .. } => Some(*tag),
                _ => None,
            })
            .collect();
        assert_eq!(tags, [TAG_ACK, 31, TAG_ACK]);
        assert_eq!(wrapped.ep.stats().dups_suppressed, 1);
        // An ack for the reply settles it; the program never sees acks.
        wrapped.on_message(&sequenced(2, TAG_ACK, 0, Data::Empty), &mut ctx);
        assert!(wrapped.ep.idle());
        assert_eq!(seen.get().msgs.len(), 1);
    }

    /// A token walks the ring for three laps, growing by one per hop and
    /// alternating tags; every processor logs what it receives.
    struct Ring(SharedCell<Vec<Seen>>);

    impl Process for Ring {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if ctx.me() == 0 {
                ctx.send(1, 0, Data::U64(1));
            }
        }
        fn on_message(&mut self, msg: &Message, ctx: &mut Ctx<'_>) {
            let me = ctx.me() as usize;
            self.0
                .with(|s| s[me].msgs.push((msg.src, msg.tag, msg.data.clone())));
            let v = msg.data.as_u64();
            if v < 3 * u64::from(ctx.procs()) {
                let next = (ctx.me() + 1) % ctx.procs();
                ctx.send(next, (v % 2) as u32, Data::U64(v + 1));
            }
        }
    }

    #[test]
    fn wrapped_program_sees_the_bare_message_sequence_on_a_clean_network() {
        let m = LogP::new(6, 2, 4, 5).unwrap();
        let retries: SharedCell<u64> = SharedCell::new();
        let run = |wrap: bool| {
            let seen = SharedCell::of(vec![Seen::default(); m.p as usize]);
            // A zero-rate plan: the fault path is live and does nothing.
            let mut sim = Sim::new(m, SimConfig::default().with_faults(FaultPlan::new(9)));
            sim.set_all(|_| {
                let ring = Ring(seen.clone());
                if wrap {
                    let cfg = RetryConfig::for_model(&m);
                    Box::new(Reliable::new(ring, cfg, retries.clone()))
                } else {
                    Box::new(ring)
                }
            });
            let result = sim.run().unwrap();
            (seen.get(), result.stats.total_msgs)
        };
        let (bare, bare_msgs) = run(false);
        let (wrapped, wrapped_msgs) = run(true);
        assert_eq!(bare_msgs, 15);
        assert_eq!(wrapped, bare);
        // One ack per message, and nothing was ever retransmitted.
        assert_eq!(wrapped_msgs, 2 * bare_msgs);
        assert_eq!(retries.get(), 0);
    }

    /// The endpoint this one replaced, kept as the model: an ordered map of
    /// unacked sends `(dst, tag, data, attempt)` and an ordered set of
    /// delivered `(src, seq)`.
    struct Model {
        cfg: RetryConfig,
        next_seq: u64,
        pending: BTreeMap<u64, (ProcId, u32, Data, u32)>,
        seen: BTreeSet<(ProcId, u64)>,
        failed: Vec<(ProcId, u64)>,
        stats: EndpointStats,
    }

    fn wire(dst: ProcId, tag: u32, seq: u64, inner: Data) -> Command {
        let inner = Box::new(inner);
        let data = Data::Seq { seq, inner };
        Command::Send { dst, tag, data }
    }

    impl Model {
        /// A handler's commands, its sends made reliable in queue order.
        fn run(&mut self, batch: &[Command], out: &mut Vec<Command>) {
            for command in batch {
                let Command::Send { dst, tag, data } = command.clone() else {
                    out.push(command.clone());
                    continue;
                };
                let seq = self.next_seq;
                self.next_seq += 1;
                out.push(wire(dst, tag, seq, data.clone()));
                self.pending.insert(seq, (dst, tag, data, 0));
                let (cycles, tag) = (self.cfg.backoff(seq, 0), TIMER_NAMESPACE | seq);
                out.push(Command::Timer { cycles, tag });
            }
        }

        fn on_message(&mut self, msg: &Message, out: &mut Vec<Command>) -> Option<Data> {
            let Data::Seq { seq, inner } = &msg.data else {
                return None;
            };
            if msg.tag == TAG_ACK {
                self.pending.remove(seq);
                return None;
            }
            out.push(wire(msg.src, TAG_ACK, *seq, Data::Empty));
            self.stats.acks_sent += 1;
            if self.seen.insert((msg.src, *seq)) {
                return Some((**inner).clone());
            }
            self.stats.dups_suppressed += 1;
            None
        }

        fn on_timer(&mut self, token: u64, out: &mut Vec<Command>) -> bool {
            if token & TIMER_NAMESPACE == 0 {
                return false;
            }
            let seq = token & !TIMER_NAMESPACE;
            let Some((dst, tag, data, attempt)) = self.pending.get_mut(&seq) else {
                return true;
            };
            if *attempt >= self.cfg.max_retries {
                self.failed.push((*dst, seq));
                self.stats.failed += 1;
                self.pending.remove(&seq);
                return true;
            }
            *attempt += 1;
            out.push(wire(*dst, *tag, seq, data.clone()));
            let cycles = self.cfg.backoff(seq, *attempt);
            out.push(Command::Timer { cycles, tag: token });
            self.stats.retries += 1;
            true
        }
    }

    /// Queues whatever commands it was handed, as one handler's output.
    struct Batch(Vec<Command>);

    impl Process for Batch {
        fn on_compute_done(&mut self, _: u64, ctx: &mut Ctx<'_>) {
            ctx.commands.append(&mut self.0);
        }
    }

    enum Step {
        Send(ProcId, u32, Data),
        Batch(Vec<Command>),
        Msg(Message),
        Timer(u64),
    }

    fn ack(seq: u64) -> Step {
        Step::Msg(sequenced(1, TAG_ACK, seq, Data::Empty))
    }

    fn copy(src: ProcId, seq: u64) -> Step {
        Step::Msg(sequenced(src, 5, seq, Data::U64(seq ^ u64::from(src))))
    }

    /// The endpoint — inside a [`Reliable`], so that a batch goes through
    /// `run` — and the model, taken through the same steps.
    struct Pair {
        new: Reliable<Batch>,
        old: Model,
        /// Steps that left the ring longer than what waits in it.
        with_holes: u64,
    }

    impl Pair {
        const PROCS: u32 = 1 << 16;

        fn new(cfg: RetryConfig) -> Self {
            let old = Model {
                cfg: cfg.clone(),
                next_seq: 0,
                pending: BTreeMap::new(),
                seen: BTreeSet::new(),
                failed: Vec::new(),
                stats: EndpointStats::default(),
            };
            Pair {
                new: Reliable::new(Batch(Vec::new()), cfg, SharedCell::new()),
                old,
                with_holes: 0,
            }
        }

        /// One step through both, then everything observable compared.
        fn step(&mut self, step: Step) {
            let (mut new_cmds, mut old_cmds) = (Vec::new(), Vec::new());
            let ctx = &mut Ctx::new(0, 0, Self::PROCS, &mut new_cmds);
            let (new, old) = (&mut self.new, &mut self.old);
            match step {
                Step::Send(dst, tag, data) => {
                    let seq = new.ep.send(ctx, dst, tag, data.clone());
                    assert_eq!(seq, old.next_seq);
                    old.run(&[Command::Send { dst, tag, data }], &mut old_cmds);
                }
                Step::Batch(batch) => {
                    old.run(&batch, &mut old_cmds);
                    new.inner.0 = batch;
                    new.on_compute_done(0, ctx);
                }
                Step::Msg(msg) => assert_eq!(
                    new.ep.on_message(&msg, ctx),
                    old.on_message(&msg, &mut old_cmds)
                ),
                Step::Timer(token) => assert_eq!(
                    new.ep.on_timer(token, ctx),
                    old.on_timer(token, &mut old_cmds)
                ),
            }
            let ep = &new.ep;
            assert_eq!(new_cmds, old_cmds);
            assert_eq!(
                (ep.failed(), ep.stats(), ep.next_seq),
                (&old.failed[..], old.stats, old.next_seq)
            );
            assert_eq!(
                (ep.idle(), ep.pending_count()),
                (old.pending.is_empty(), old.pending.len())
            );
            // The ring starts at the oldest number still waiting — so when
            // none waits it is empty, not merely unoccupied.
            let floor = ep.next_seq - ep.pending.len() as u64;
            let oldest = old.pending.keys().next();
            assert_eq!(floor, oldest.copied().unwrap_or(old.next_seq));
            self.with_holes += u64::from(ep.pending.len() > ep.pending_count());
        }
    }

    /// 1–40 sends with other commands among them.
    fn batch(rng: &mut CounterRng) -> Vec<Command> {
        let mut out = Vec::new();
        for _ in 0..=rng.next_in(39) {
            match rng.next_in(5) {
                0 => out.push(Command::Compute { cycles: 3, tag: 1 }),
                1 => out.push(Command::Timer { cycles: 4, tag: 7 }),
                2 => out.push(Command::SendBulk(Box::new(Bulk {
                    dst: 2,
                    tag: 9,
                    data: Data::Empty,
                    words: 3,
                }))),
                _ => {}
            }
            let (dst, tag) = (1 + rng.next_in(7) as ProcId, rng.next_in(3) as u32);
            let data = Data::U64(rng.next_u64());
            out.push(Command::Send { dst, tag, data });
        }
        if rng.next_in(1) == 0 {
            out.push(Command::Barrier);
        }
        out
    }

    #[test]
    fn endpoint_matches_the_model_on_seeded_scripts() {
        let m = LogP::new(6, 2, 4, 2).unwrap();
        let (mut total, mut with_holes) = (EndpointStats::default(), 0);
        for seed in 0..120 {
            let mut rng = CounterRng::new(seed);
            let budget = rng.next_in(3) as u32;
            let mut pair = Pair::new(RetryConfig::for_model(&m).with_max_retries(budget));
            for _ in 0..200 {
                let live: Vec<u64> = pair.old.pending.keys().copied().collect();
                let issued = pair.old.next_seq;
                let any = |of: &[u64], rng: &mut CounterRng| match of.len() as u64 {
                    0 => issued,
                    n => of[rng.next_in(n - 1) as usize],
                };
                match rng.next_in(11) {
                    0 | 1 => {
                        let (dst, tag) = (1 + rng.next_in(7) as ProcId, rng.next_in(3) as u32);
                        pair.step(Step::Send(dst, tag, Data::U64(rng.next_u64())));
                    }
                    2 => pair.step(Step::Batch(batch(&mut rng))),
                    // Acks: of one waiting number; of every waiting number —
                    // in order, reversed or shuffled, some twice; of any
                    // number up to the next one (waiting, settled inside the
                    // ring, below it, not yet issued); of one far ahead.
                    3 | 4 => pair.step(ack(any(&live, &mut rng))),
                    5 => {
                        let mut order = live;
                        match rng.next_in(2) {
                            0 => {}
                            1 => order.reverse(),
                            _ => (1..order.len()).rev().for_each(|i| {
                                order.swap(i, rng.next_in(i as u64) as usize);
                            }),
                        }
                        for seq in order {
                            for _ in 0..=rng.next_in(3) / 3 {
                                pair.step(ack(seq));
                            }
                        }
                    }
                    6 => pair.step(ack(rng.next_in(issued))),
                    7 => pair.step(ack([issued + 40, u64::MAX][rng.next_in(1) as usize])),
                    // Data copies from 1–8 peers over few numbers: repeats.
                    8 => pair.step(copy(1 + rng.next_in(7) as ProcId, rng.next_in(5))),
                    // Timers: a waiting number's, again and again until its
                    // budget is spent; any number's; another program's.
                    9 => {
                        let seq = any(&live, &mut rng);
                        for _ in 0..=rng.next_in(u64::from(budget) + 1) {
                            pair.step(Step::Timer(TIMER_NAMESPACE | seq));
                        }
                    }
                    10 => pair.step(Step::Timer(TIMER_NAMESPACE | rng.next_in(issued + 3))),
                    _ => pair.step(Step::Timer(rng.next_in(issued + 3))),
                }
            }
            let s = pair.new.ep.stats();
            total.retries += s.retries;
            total.dups_suppressed += s.dups_suppressed;
            total.failed += s.failed;
            with_holes += pair.with_holes;
        }
        // The scripts reached what they are for.
        assert!(total.retries > 100 && total.dups_suppressed > 100 && total.failed > 100);
        assert!(
            with_holes > 1_000,
            "{with_holes} steps with a gap in the ring"
        );
    }

    /// The fan-in no runner produces and a sorted container pays for: one
    /// copy from each of 2^15 peers, highest id first, then some of them
    /// again.
    #[test]
    fn endpoint_matches_the_model_on_a_descending_fan_in() {
        let cfg = RetryConfig::for_model(&LogP::new(6, 2, 4, 2).unwrap());
        let mut pair = Pair::new(cfg);
        for src in (1..=1 << 15).rev() {
            pair.step(copy(src, u64::from(src % 3)));
            if src % 1_000 == 0 {
                pair.step(Step::Send(src, 0, Data::Empty));
            }
        }
        for src in (1..=1 << 15).rev().step_by(7) {
            pair.step(copy(src, u64::from(src % 3)));
        }
        let stats = pair.new.ep.stats();
        assert_eq!(stats.acks_sent, (1 << 15) + stats.dups_suppressed);
        assert_eq!(stats.dups_suppressed, (1u64 << 15).div_ceil(7));
        assert_eq!(pair.new.ep.pending_count(), 32);
    }
}
