//! Deterministic fault injection: seeded message drops, duplicates, delays,
//! and scheduled crash-stop processor failures.
//!
//! LogP deliberately assumes a reliable network, but the paper itself notes
//! that real machines drop and reorder packets and that the messaging layer
//! must mask this (the CM-5's active-message layer does exactly that). A
//! [`FaultPlan`] gives the simulator a *repeatable* failure axis on which to
//! study that masking: every per-message decision is a pure SplitMix64 hash
//! of `(plan seed, channel, message identity, attempt, lane)` — independent
//! of the engine's own RNG stream and of wall-clock scheduling — so
//!
//! * a plan with all rates zero and no crashes is **cycle-identical** to
//!   running with no plan at all (decisions never perturb the engine's
//!   jitter/skew draws, and the fault branches are monomorphized away when
//!   [`crate::SimConfig::faults`] is `None`);
//! * the same plan replays **bit-identically** at any sweep thread count
//!   (like [`crate::runner::derive_seed`], decisions depend only on hashed
//!   identities, never on execution order);
//! * raising a rate only **grows** the affected set: a message dropped at
//!   `drop_ppm = r` is also dropped at every rate above `r`, because the
//!   hash is compared against the threshold and does not itself depend on
//!   the threshold.
//!
//! Reordering is not a separate fault kind: delaying one message past its
//! successors already reorders the channel, and the network's latency
//! jitter ([`crate::SimConfig::with_jitter`]) does the same. The handbook in
//! `docs/FAILURE_MODEL.md` spells out the exact semantics of each fault
//! kind and how retry cost composes with `o`, `g`, and `L`.
//!
//! # Example: a plan that drops everything
//!
//! ```
//! use logp_core::LogP;
//! use logp_sim::process::StartFn;
//! use logp_sim::{Data, FaultPlan, Sim, SimConfig};
//!
//! let m = LogP::new(6, 2, 4, 2).unwrap();
//! let plan = FaultPlan::new(1).with_drop_ppm(1_000_000); // drop every message
//! let mut sim = Sim::new(m, SimConfig::default().with_faults(plan));
//! sim.set_all(|_| {
//!     Box::new(StartFn(|ctx| {
//!         if ctx.me() == 0 {
//!             ctx.send(1, 7, Data::U64(42));
//!         }
//!         ctx.halt();
//!     }))
//! });
//! let res = sim.run().unwrap();
//! assert_eq!(res.stats.msgs_dropped, 1); // consumed the NI, never arrived
//! assert_eq!(res.stats.total_msgs, 0);
//! ```

use logp_core::rng::splitmix64;
use logp_core::{Cycles, ProcId};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use crate::message::Data;

/// Parts-per-million denominator for all fault rates.
const PPM: u64 = 1_000_000;

/// Message identity used for unsequenced (raw) messages: each `(src, dst)`
/// channel keeps an injection counter and hashes it through the *attempt*
/// slot instead. Sequenced messages ([`Data::Seq`]) number from 0, so in
/// practice never reach this sentinel; one that does hashes alike but
/// keeps its own attempt counter.
const IDENT_CHANNEL: u64 = u64::MAX;

/// What the fault layer decided for one injected message. Produced by
/// [`FaultPlan::decide`]; a plan with all rates zero always returns the
/// identity decision (no drop, no duplicate, zero delays).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultDecision {
    /// The message is silently discarded: it consumes the sender's network
    /// window for its flight time but the destination NI never sees it.
    pub drop: bool,
    /// A second copy of the message is injected (never in place of the
    /// original — a dropped message is not also duplicated).
    pub duplicate: bool,
    /// Extra in-flight delay added to the message's latency, in cycles.
    pub delay: Cycles,
    /// Additional delay (beyond `delay`) applied to the duplicate copy, so
    /// the copy always trails the original by at least one cycle.
    pub dup_delay: Cycles,
}

/// A seeded, deterministic plan of message and processor faults.
///
/// Rates are in parts per million (`ppm`), so `50_000` means 5%. Crash-stop
/// failures are scheduled at absolute cycles: from that cycle on, the
/// processor runs no handlers and its network interface discards every
/// arriving message. Attach a plan to a run with
/// [`crate::SimConfig::with_faults`].
///
/// Decisions are *pure*: [`FaultPlan::decide`] is a function of the plan and
/// the message identity only, so any two runs (at any thread count) that
/// inject the same logical messages see the same faults.
///
/// ```
/// use logp_sim::FaultPlan;
///
/// let plan = FaultPlan::new(7).with_drop_ppm(50_000).with_crash(3, 100);
/// assert_eq!(plan.survivors(8), vec![0, 1, 2, 4, 5, 6, 7]);
/// assert!(plan.is_crashed(3));
///
/// // Decisions are pure and repeatable…
/// let d = plan.decide(0, 1, 42, 0);
/// assert_eq!(d, plan.decide(0, 1, 42, 0));
///
/// // …and monotone in the rate: everything dropped at 5% is still
/// // dropped at 20%.
/// let heavier = FaultPlan::new(7).with_drop_ppm(200_000);
/// for ident in 0..512u64 {
///     if plan.decide(0, 1, ident, 0).drop {
///         assert!(heavier.decide(0, 1, ident, 0).drop);
///     }
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Base seed hashed into every decision.
    pub seed: u64,
    /// Probability of dropping a message, in parts per million.
    pub drop_ppm: u32,
    /// Probability of duplicating a message, in parts per million.
    pub dup_ppm: u32,
    /// Probability of delaying a message, in parts per million.
    pub delay_ppm: u32,
    /// Maximum extra delay in cycles; actual delays are uniform in
    /// `1..=max_delay`. Also bounds the duplicate copy's extra lag.
    pub max_delay: Cycles,
    /// Crash-stop schedule: `(processor, cycle)` pairs. A cycle of 0 means
    /// the processor is dead from the start (its `on_start` never runs).
    pub crashes: Vec<(ProcId, Cycles)>,
}

impl FaultPlan {
    /// A no-fault plan with the given decision seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Set the message drop rate in parts per million.
    pub fn with_drop_ppm(mut self, ppm: u32) -> Self {
        self.drop_ppm = ppm;
        self
    }

    /// Set the message duplication rate in parts per million.
    pub fn with_dup_ppm(mut self, ppm: u32) -> Self {
        self.dup_ppm = ppm;
        self
    }

    /// Set the message delay rate (ppm) and the maximum delay in cycles.
    pub fn with_delay(mut self, ppm: u32, max_delay: Cycles) -> Self {
        self.delay_ppm = ppm;
        self.max_delay = max_delay;
        self
    }

    /// Schedule a crash-stop failure of `proc` at the given cycle.
    pub fn with_crash(mut self, proc: ProcId, at: Cycles) -> Self {
        self.crashes.push((proc, at));
        self
    }

    /// True if the plan injects no faults at all — such a plan is
    /// guaranteed cycle-identical to running without one.
    pub fn is_noop(&self) -> bool {
        self.zero_rates() && self.crashes.is_empty()
    }

    /// True if drop, duplicate and delay rates are all zero: every
    /// decision is then the identity, whatever the attempt.
    fn zero_rates(&self) -> bool {
        self.drop_ppm == 0 && self.dup_ppm == 0 && self.delay_ppm == 0
    }

    /// True if `proc` crashes at any point under this plan.
    pub fn is_crashed(&self, proc: ProcId) -> bool {
        self.crashes.iter().any(|&(p, _)| p == proc)
    }

    /// The processors of a `p`-machine that never crash, in ascending
    /// order. Resilient collectives rebuild their trees over this set.
    pub fn survivors(&self, p: u32) -> Vec<ProcId> {
        (0..p).filter(|&i| !self.is_crashed(i)).collect()
    }

    /// The pure per-message fault decision.
    ///
    /// `ident` is the message's logical identity on the `(src, dst)`
    /// channel — the sequence number for [`Data::Seq`]-wrapped traffic, a
    /// per-channel injection counter otherwise — and `attempt` counts
    /// injections of that identity (retransmissions). The same
    /// `(src, dst, ident, attempt)` always gets the same decision, and each
    /// fault kind's affected set grows monotonically with its rate.
    pub fn decide(&self, src: ProcId, dst: ProcId, ident: u64, attempt: u64) -> FaultDecision {
        let chan = splitmix64(self.seed ^ (((src as u64) << 32) | dst as u64));
        let id = splitmix64(chan ^ ident);
        let key = splitmix64(id ^ attempt);
        let lane = |l: u64| splitmix64(key ^ l);

        let drop = (lane(0) % PPM) < self.drop_ppm as u64;
        let duplicate = !drop && (lane(1) % PPM) < self.dup_ppm as u64;
        let delayed = self.max_delay > 0 && (lane(2) % PPM) < self.delay_ppm as u64;
        let delay = if delayed {
            1 + lane(3) % self.max_delay
        } else {
            0
        };
        let dup_delay = if duplicate {
            1 + lane(4) % self.max_delay.max(1)
        } else {
            0
        };
        FaultDecision {
            drop,
            duplicate,
            delay,
            dup_delay,
        }
    }
}

/// The fixed hash of the tables keyed by processor ids and sequence
/// numbers: [`splitmix64`] folded over the key's words. Unkeyed on purpose
/// — a deterministic engine takes no seed from the OS, and the keys are the
/// simulator's own counters, not outside input. The tables that use it are
/// never iterated, so their order cannot reach behaviour.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SplitMix;

impl BuildHasher for SplitMix {
    type Hasher = SplitMixHasher;
    fn build_hasher(&self) -> SplitMixHasher {
        SplitMixHasher(0)
    }
}

pub(crate) struct SplitMixHasher(u64);

impl Hasher for SplitMixHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = splitmix64(self.0 ^ word);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// How many sequenced identities a source counts in its own [`Row`]. A
/// leaf of a reliable all-reduce needs two — the partial it sends up and
/// the ack it returns for the total coming down — so only a tree's wider
/// ranks spill into [`FaultState::attempts`].
const ROW_SLOTS: usize = 4;

/// A [`Slot`] count that says the identity outgrew `u32` and its count
/// lives in [`FaultState::attempts`].
const SPILLED: u32 = u32::MAX;

/// The attempts of one sequenced identity `(src, dst, seq)` of the row's
/// source: 16 bytes. `count == 0` marks a free slot — a claimed slot has
/// counted at least its first injection — and a row's free slots are its
/// suffix, because a slot is never given back.
#[derive(Clone, Copy, Default)]
struct Slot {
    seq: u64,
    dst: ProcId,
    count: u32,
}

/// One source's slots: 64 bytes, one cache line.
#[derive(Clone, Copy, Default)]
#[repr(align(64))]
struct Row([Slot; ROW_SLOTS]);

/// Mutable engine-side fault state: the plan plus the identity counters
/// that track message attempts, and the set of processors that have
/// actually crashed so far in this run. A plan with zero drop, duplicate
/// and delay rates never touches the counters, so none is allocated.
pub(crate) struct FaultState {
    pub(crate) plan: FaultPlan,
    /// Per-`(src, dst)` injection counters for unsequenced messages.
    /// Keyed sparsely: a dense `p * p` table would be 8 TB at P = 10^6,
    /// while real traffic touches only the channels programs actually use.
    chan_seq: HashMap<(ProcId, ProcId), u64, SplitMix>,
    /// The attempt counters of each source's first [`ROW_SLOTS`]
    /// sequenced identities, one [`Row`] a processor; empty until the
    /// first sequenced decision.
    rows: Vec<Row>,
    /// Attempt counters of the identities past their source's row, and
    /// of the row slots that outgrew `u32`, keyed by `(src, dst, seq)`.
    attempts: HashMap<(ProcId, ProcId, u64), u64, SplitMix>,
    /// Which processors have crashed so far (dead NI, no handlers).
    pub(crate) crashed: Vec<bool>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, p: usize) -> Self {
        FaultState {
            plan,
            chan_seq: HashMap::default(),
            rows: Vec::new(),
            attempts: HashMap::default(),
            crashed: vec![false; p],
        }
    }

    /// Decide the fate of a message about to be injected, advancing the
    /// identity counters. Sequenced payloads are keyed by their sequence
    /// number so every retransmission of the same logical message gets its
    /// own stable decision; raw payloads are keyed by injection order.
    pub(crate) fn decide(&mut self, src: ProcId, dst: ProcId, data: &Data) -> FaultDecision {
        if self.plan.zero_rates() {
            return FaultDecision::default();
        }
        let (ident, attempt) = match data.seq() {
            Some(seq) => (seq, self.attempt(src, dst, seq)),
            None => {
                let c = self.chan_seq.entry((src, dst)).or_insert(0);
                let n = *c;
                *c += 1;
                (IDENT_CHANNEL, n)
            }
        };
        self.plan.decide(src, dst, ident, attempt)
    }

    /// Count one injection of the sequenced identity `(src, dst, seq)`
    /// and return how many came before it: from the source's row if the
    /// identity has a slot there or a free one is left, from `attempts`
    /// otherwise.
    fn attempt(&mut self, src: ProcId, dst: ProcId, seq: u64) -> u64 {
        if self.rows.is_empty() {
            self.rows = vec![Row::default(); self.crashed.len()];
        }
        for slot in &mut self.rows[src as usize].0 {
            if slot.count == 0 {
                *slot = Slot { seq, dst, count: 1 };
                return 0;
            }
            if slot.seq == seq && slot.dst == dst {
                if slot.count == SPILLED {
                    break;
                }
                let attempt = slot.count;
                slot.count += 1;
                if slot.count == SPILLED {
                    self.attempts.insert((src, dst, seq), u64::from(SPILLED));
                }
                return u64::from(attempt);
            }
        }
        let a = self.attempts.entry((src, dst, seq)).or_insert(0);
        let attempt = *a;
        *a += 1;
        attempt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logp_core::rng::CounterRng;

    #[test]
    fn decisions_are_pure() {
        let plan = FaultPlan::new(99)
            .with_drop_ppm(100_000)
            .with_dup_ppm(50_000)
            .with_delay(200_000, 8);
        for src in 0..4 {
            for ident in 0..64 {
                let a = plan.decide(src, 1, ident, 0);
                let b = plan.decide(src, 1, ident, 0);
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn drop_set_grows_with_rate() {
        let seeds = [1u64, 42, 0xDEAD];
        for seed in seeds {
            let lo = FaultPlan::new(seed).with_drop_ppm(20_000);
            let hi = FaultPlan::new(seed).with_drop_ppm(300_000);
            for ident in 0..2048u64 {
                if lo.decide(2, 3, ident, 1).drop {
                    assert!(hi.decide(2, 3, ident, 1).drop);
                }
            }
        }
    }

    #[test]
    fn drop_rate_is_roughly_calibrated() {
        let plan = FaultPlan::new(7).with_drop_ppm(100_000); // 10%
        let n = 20_000;
        let dropped = (0..n).filter(|&i| plan.decide(0, 1, i, 0).drop).count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.10).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn dropped_is_never_duplicated() {
        let plan = FaultPlan::new(3)
            .with_drop_ppm(500_000)
            .with_dup_ppm(500_000);
        for ident in 0..4096u64 {
            let d = plan.decide(1, 0, ident, 0);
            assert!(!(d.drop && d.duplicate));
        }
    }

    #[test]
    fn survivors_excludes_crashed() {
        let plan = FaultPlan::new(0).with_crash(0, 0).with_crash(5, 30);
        assert_eq!(plan.survivors(6), vec![1, 2, 3, 4]);
        assert!(plan.is_crashed(0) && plan.is_crashed(5));
        assert!(!plan.is_noop());
        assert!(FaultPlan::new(9).is_noop());
    }

    #[test]
    fn state_keys_sequenced_messages_by_seq() {
        let plan = FaultPlan::new(11).with_drop_ppm(300_000);
        let mut st = FaultState::new(plan.clone(), 2);
        let payload = seq(4, Data::U64(1));
        // First and second injection of the same logical message are
        // attempts 0 and 1 of identity 4 — exactly the pure decisions.
        let first = st.decide(0, 1, &payload);
        let second = st.decide(0, 1, &payload);
        assert_eq!(first, plan.decide(0, 1, 4, 0));
        assert_eq!(second, plan.decide(0, 1, 4, 1));
        // The largest sequence number hashes like the raw channel's
        // identity but keeps its own counter.
        let (raw, last) = (Data::U64(1), seq(u64::MAX, Data::Empty));
        assert_eq!(st.decide(0, 1, &raw), plan.decide(0, 1, IDENT_CHANNEL, 0));
        assert_eq!(st.decide(0, 1, &last), plan.decide(0, 1, u64::MAX, 0));
        assert_eq!(st.decide(0, 1, &raw), plan.decide(0, 1, IDENT_CHANNEL, 1));
        assert_eq!(st.decide(0, 1, &last), plan.decide(0, 1, u64::MAX, 1));
    }

    fn seq(seq: u64, inner: Data) -> Data {
        Data::Seq {
            seq,
            inner: Box::new(inner),
        }
    }

    /// The two maps `FaultState` kept before sequenced identities moved
    /// into their source's row: the reference the rows are held to.
    #[derive(Default)]
    struct Maps {
        chan_seq: HashMap<(ProcId, ProcId), u64>,
        attempts: HashMap<(ProcId, ProcId, u64), u64>,
    }

    impl Maps {
        fn decide(
            &mut self,
            plan: &FaultPlan,
            src: ProcId,
            dst: ProcId,
            data: &Data,
        ) -> FaultDecision {
            let (ident, counter) = match data.seq() {
                Some(seq) => (seq, self.attempts.entry((src, dst, seq)).or_insert(0)),
                None => (IDENT_CHANNEL, self.chan_seq.entry((src, dst)).or_insert(0)),
            };
            let attempt = *counter;
            *counter += 1;
            plan.decide(src, dst, ident, attempt)
        }
    }

    /// Seeded streams of 1–64 sources with 0–12 sequenced identities each
    /// (so rows fill and spill), retransmissions interleaved, acks and data
    /// sharing an identity, raw traffic on the same channels and sequence
    /// number `u64::MAX`: the rows decide exactly as the maps did, and a
    /// zero-rate plan decides the identity and keeps no identity state.
    #[test]
    fn rows_decide_as_the_maps_they_replaced() {
        let live = FaultPlan::new(5)
            .with_drop_ppm(300_000)
            .with_dup_ppm(200_000)
            .with_delay(250_000, 9);
        let zero = FaultPlan::new(5).with_crash(0, 7);
        let (mut spilled, mut fit) = (0, 0);
        for case in 0..300 {
            let mut rng = CounterRng::new(case);
            let p = 1 + rng.next_in(63) as ProcId;
            let most = rng.next_in(12);
            let mut idents = Vec::new();
            for src in 0..p {
                // Numbers repeat across destinations, as a rank's acks
                // carry the numbers of the peers they answer.
                let (first, n) = (idents.len(), rng.next_in(most) as usize);
                while idents.len() - first < n {
                    let dst = rng.next_in(u64::from(p) - 1) as ProcId;
                    let last = rng.next_in(7) == 0;
                    let id = (src, dst, if last { u64::MAX } else { rng.next_in(most) });
                    if !idents[first..].contains(&id) {
                        idents.push(id);
                    }
                }
            }
            let stream: Vec<_> = (0..4 * idents.len() + 8)
                .map(|_| {
                    let pick = rng.next_in(idents.len().max(1) as u64 - 1) as usize;
                    let (src, dst, s) = idents.get(pick).copied().unwrap_or((0, 0, 0));
                    let data = match rng.next_in(7) {
                        0 => Data::U64(s),
                        1..=3 => seq(s, Data::Empty),
                        _ => seq(s, Data::U64(s)),
                    };
                    (src, dst, data)
                })
                .collect();
            for plan in [&live, &zero] {
                let (mut st, mut maps) =
                    (FaultState::new(plan.clone(), p as usize), Maps::default());
                for (src, dst, data) in &stream {
                    let d = st.decide(*src, *dst, data);
                    assert_eq!(d, maps.decide(plan, *src, *dst, data), "case {case}");
                    if plan == &zero {
                        assert_eq!(d, FaultDecision::default());
                    }
                }
                if plan == &zero {
                    let held = st.rows.capacity() + st.attempts.capacity() + st.chan_seq.capacity();
                    assert_eq!(
                        held, 0,
                        "case {case}: a zero-rate plan keeps identity state"
                    );
                } else if st.attempts.is_empty() {
                    fit += 1;
                } else {
                    spilled += 1;
                }
            }
        }
        assert!(spilled > 0 && fit > 0, "{spilled} cases spilled, {fit} fit");
    }

    /// A row slot that reaches `u32::MAX` hands its count to the map, and
    /// counting goes on exactly there while the row keeps its other slots.
    #[test]
    fn a_count_past_u32_max_stays_exact() {
        let plan = FaultPlan::new(8)
            .with_drop_ppm(500_000)
            .with_delay(500_000, 4);
        let mut st = FaultState::new(plan.clone(), 1);
        let msg = seq(3, Data::U64(0));
        st.decide(0, 0, &msg);
        st.rows[0].0[0].count = SPILLED - 2;
        let start = u64::from(SPILLED) - 2;
        for attempt in start..start + 5 {
            assert_eq!(st.decide(0, 0, &msg), plan.decide(0, 0, 3, attempt));
        }
        assert_eq!(st.rows[0].0[0].count, SPILLED);
        assert_eq!(st.attempts[&(0, 0, 3)], start + 5);
        let next = seq(4, Data::Empty);
        assert_eq!(st.decide(0, 0, &next), plan.decide(0, 0, 4, 0));
        assert_eq!((st.rows[0].0[1].seq, st.attempts.len()), (4, 1));
    }
}
