//! The sharded lane engine: per-shard event lanes synchronized by
//! conservative `L`-lookahead windows.
//!
//! # Why lanes are legal
//!
//! The LogP network is the *only* channel between processors, and it has
//! a hard lower bound: a message injected at time `s` costs `o` cycles of
//! send overhead and at least `L - jitter` cycles of flight, so no
//! arrival it causes can land before `s + W` where
//!
//! ```text
//! W = o + (L - min(jitter, L - 1))        (always >= 1)
//! ```
//!
//! Partition the processors into contiguous *lanes*, each with its own
//! event queue (a [`super::calendar::Calendar`]) and message slab. Within
//! a half-open window `[T, T + W)`
//! the lanes are causally independent: any cross-processor influence
//! created inside the window (an arrival) lands at or after `T + W`, i.e.
//! in a later window. Each lane can therefore drain its own queue
//! event-by-event through the window with no global ordering at all, and
//! cross-lane arrivals are pushed directly into the destination's lane
//! queue for a future window. The next window starts at the earliest
//! pending event across all lanes — empty stretches are skipped in one
//! step (quiescence fast-forward), so a mostly-idle machine costs nothing
//! per idle cycle.
//!
//! # Why results are lane-count-invariant
//!
//! Bit-identical results across lane counts require that nothing
//! observable depends on *which* lane processed an event first:
//!
//! * **Canonical keys.** Every event's same-cycle tiebreak is
//!   `(proc + 1) << 36 | ctr` with `ctr` a per-processor issuance
//!   counter, so same-cycle ordering inside any one queue is a pure
//!   function of processor-local execution order — identical however the
//!   processors are grouped. Arrivals carry their *source's* counter and
//!   reuse it as the destination inbox tiebreak.
//! * **Counter-mode randomness.** Latency jitter and compute drift are
//!   drawn as `mix(seed, tag, proc, ctr)` ([`logp_core::rng`]) — a pure
//!   function of the drawing processor's identity and progress, not of
//!   global event interleaving.
//! * **Source rings instead of `Release` events.** The classic engine's
//!   per-message `Release` bookkeeping events would demand global time
//!   order. Each source instead keeps a sorted ring of its in-flight
//!   messages' network-release instants; admission pops expired entries
//!   and compares the ring length against `⌈L/g⌉`. A stalled sender
//!   schedules its own `Wake` at the ring head — the exact instant the
//!   classic engine would have woken it.
//! * **Barrier deltas.** Barrier entry/halt/crash events append
//!   `(t, proc, Δcount, Δalive)` deltas during the pass; the window
//!   driver replays them in `(t, proc)` order to find the first instant
//!   the quorum completes. Completion is *stable* (once every live
//!   processor is in the barrier, later deltas can only remove matched
//!   pairs), so the end-of-cycle completion predicate is replay-order
//!   invariant and the release instant is exact.
//! * **Canonical finalize.** Lifecycle records are appended in lane-pass
//!   order, so at the end of the run they are stably re-sorted by
//!   canonical keys — messages by `(inject, src)`, computes by
//!   `(start, proc)`, timers by `(armed, proc)` — ids renumbered, and
//!   causal references remapped. Activity spans re-sort by processor.
//!   Metrics counters and histograms are commutative sums and need no
//!   treatment.
//!
//! # What the sharded engine relaxes
//!
//! Destination-side admission (the `⌈L/g⌉` per-destination window plus
//! the NI buffer) is zero-lookahead coupling: a sender's admission at `t`
//! would depend on the destination's reception progress at `t`, which is
//! exactly what windowed execution gives up. The sharded engine enforces
//! the *source* window only; `SimStats::max_inflight_per_dst` reads 0 on
//! this path. Runs that need receiver backpressure (hot-spot studies) or
//! gauge sampling (`metrics_grid > 0`) use the classic engine — the
//! dispatch in [`Sim::run`] routes them there automatically.
//!
//! Because the classic engine draws jitter and drift from a sequential
//! generator in global event order, the two engines sample different
//! (equally legitimate) streams; they coincide exactly when
//! `latency_jitter == 0` and `drift_ppk == 0`. Lane counts `>= 2` are
//! bit-identical to each other in all configurations, including under
//! observability and fault plans.

use super::{event_ord, ord_seq, EventKind, InboxItem, Lane, Sim, SimError};
use crate::obs::Cause;
use crate::trace::Activity;
use logp_core::Cycles;
use std::cmp::Reverse;
use std::collections::VecDeque;

impl Sim {
    /// Partition the processors into contiguous lanes and build the
    /// sharded engine's state (lane queues and slabs, canonical counters,
    /// source rings). Arenas are pre-sized so steady-state collectives
    /// never reallocate (pinned by the debug realloc counter).
    pub(super) fn setup_lanes(&mut self) {
        let p = self.model.p as usize;
        let want = (self.config.shards as usize).min(p);
        let per = self.lane_width(want);
        let n = p.div_ceil(per);
        let b = self.ring_span();
        self.lane_of = super::Off::from(vec![0; p]);
        self.lanes = Vec::with_capacity(n);
        for li in 0..n {
            let first = li * per;
            let last = ((li + 1) * per).min(p) - 1;
            for q in first..=last {
                self.lane_of[q] = li as u32;
            }
            self.lanes.push(Lane::new(b, last - first + 1));
        }
        self.pctr = super::Off::from(vec![0; p]);
        self.rings = super::Off::from(vec![VecDeque::new(); p]);
        self.v_lane_events = vec![0; n];
    }

    /// The lane width for `want` requested lanes: processors per
    /// contiguous lane, rounded up to a topology-group boundary on
    /// hierarchical machines so intra-group traffic stays lane-local
    /// (results are lane-count invariant either way; alignment only
    /// moves the cut points). Shared by the serial sharded driver and
    /// the parallel executor so their partitions cannot drift apart.
    pub(super) fn lane_width(&self, want: usize) -> usize {
        let p = self.model.p as usize;
        let per = p.div_ceil(want.max(1));
        match self.hierarchy() {
            Some(h) => h.align_lane(per),
            None => per,
        }
    }

    /// The model's conservative lookahead: no send inside `[T, T + W)`
    /// can cause an arrival before `T + W` where `W = o + (L - jitter)`.
    /// On hierarchical machines the bound must hold whichever level a
    /// message uses, so it is the minimum over levels.
    pub(super) fn model_lookahead(&self) -> Cycles {
        match self.hierarchy() {
            Some(h) => h.min_lookahead(self.config.latency_jitter),
            None => {
                let jclamp = self
                    .config
                    .latency_jitter
                    .min(self.model.l.saturating_sub(1));
                self.model.o + (self.model.l - jclamp)
            }
        }
    }

    /// The furthest an arrival can land past its send start: `o + L`
    /// (the *loosest* level's on hierarchical machines — the ring must
    /// cover the slowest message, where the lookahead tracks the
    /// fastest).
    fn max_reach(&self) -> Cycles {
        match self.hierarchy() {
            Some(h) => h.max_reach(),
            None => self.model.o + self.model.l,
        }
    }

    /// Calendar-ring span, for every engine: a power of two covering one
    /// full window plus the arrival horizon (`o + L` past the window
    /// start), so every plain-send arrival inserts O(1). Capped so absurd
    /// `L` cannot balloon the ring — beyond-horizon events wait in the
    /// calendar's overflow heap, so the cap costs time, never correctness.
    pub(super) fn ring_span(&self) -> Cycles {
        self.model_lookahead()
            .saturating_add(self.max_reach())
            .saturating_add(2)
            .clamp(16, 8192)
            .next_power_of_two()
    }

    /// Effective window width: the model lookahead, narrowed if the
    /// capped ring cannot cover it (windows narrower than the lookahead
    /// are always legal — lanes just resynchronize more often).
    pub(super) fn window_width(&self) -> Cycles {
        self.model_lookahead().min(self.ring_span() / 2)
    }

    /// Drain one lane's calendar through the cycles before `t_end`, in
    /// exactly the order a per-lane heap would have popped. Returns the
    /// timestamp of the last event processed, or `None` if the lane had
    /// nothing due.
    pub(super) fn pump_lane<const OBS: bool, const FAULTS: bool>(
        &mut self,
        li: usize,
        t_end: Cycles,
    ) -> Result<Option<Cycles>, SimError> {
        let mut n_ev = 0u64;
        while let Some((t, ord, kind)) = self.lanes[li].cal.pop::<false>(t_end - 1) {
            // Time is monotone per pass; the global clock rewinds when
            // the driver switches lanes, which is exactly the reordering
            // the window bound licenses.
            self.now = t;
            self.process_event::<OBS, FAULTS>(ord, kind)?;
            n_ev += 1;
        }
        self.v_lane_events[li] += n_ev;
        Ok((n_ev > 0).then_some(self.now))
    }

    /// Dispatch one sharded event: the lane-engine counterpart of the
    /// classic drive loop's match, sharing `advance` and every handler
    /// path with it.
    fn process_event<const OBS: bool, const FAULTS: bool>(
        &mut self,
        ord: u64,
        kind: EventKind,
    ) -> Result<(), SimError> {
        self.stats.events += 1;
        if self.stats.events > self.config.max_events {
            return Err(self.budget_error());
        }
        match kind {
            EventKind::Arrive(slot) => {
                let msg = self.unstash_msg_sharded(slot);
                let dst = msg.dst;
                if FAULTS && self.is_crashed(dst) {
                    // Dead interface: the message is lost. (No NI
                    // occupancy to release — the sharded engine does
                    // not track destination admission.)
                    self.stats.msgs_dropped += 1;
                    return Ok(());
                }
                self.stats.total_msgs += 1;
                // The source-canonical event tiebreak doubles as the
                // inbox tiebreak, so same-cycle arrival order at a
                // destination is lane-count-invariant.
                let ikey = InboxItem::key(self.now, ord_seq(ord));
                if OBS {
                    self.note_arrival(dst, slot, ikey);
                }
                self.procs[dst as usize]
                    .inbox
                    .push(Reverse(InboxItem { key: ikey, msg }));
                self.advance::<OBS, FAULTS, true>(dst);
            }
            EventKind::SendDone(p) => {
                self.procs[p as usize].engaged = false;
                self.advance::<OBS, FAULTS, true>(p);
            }
            EventKind::ComputeDone(p, tag) => {
                if FAULTS && self.is_crashed(p) {
                    return Ok(());
                }
                self.procs[p as usize].engaged = false;
                let cause = if OBS {
                    match self.obs.as_deref() {
                        Some(o) if o.msg_log => Cause::Compute(o.cur_compute[p as usize]),
                        _ => Cause::Start,
                    }
                } else {
                    Cause::Start
                };
                self.run_handler::<OBS, _>(p, cause, |prog, ctx| prog.on_compute_done(tag, ctx));
                self.advance::<OBS, FAULTS, true>(p);
            }
            EventKind::RecvDone(p) => {
                if FAULTS && self.is_crashed(p) {
                    return Ok(());
                }
                let st = &mut self.procs[p as usize];
                st.engaged = false;
                st.stats.msgs_recvd += 1;
                let msg = st.receiving.take().expect("a reception was in progress");
                let cause = if OBS {
                    self.record_delivery(p)
                } else {
                    Cause::Start
                };
                self.run_handler::<OBS, _>(p, cause, |prog, ctx| prog.on_message(&msg, ctx));
                self.advance::<OBS, FAULTS, true>(p);
            }
            EventKind::TimerFire(p, tag) => {
                if self.procs[p as usize].halted {
                    return Ok(());
                }
                let cause = if OBS {
                    self.timer_cause(p, ord_seq(ord))
                } else {
                    Cause::Start
                };
                self.run_handler::<OBS, _>(p, cause, |prog, ctx| prog.on_timer(tag, ctx));
                self.advance::<OBS, FAULTS, true>(p);
            }
            EventKind::Crash(p) => {
                debug_assert!(FAULTS, "crash events only exist under a fault plan");
                self.apply_crash::<OBS, true>(p);
            }
            EventKind::Wake(p) => {
                // Self-scheduled at the source ring head: the slot is
                // free now, so the retried send re-polls the network
                // first (the classic `Release` arm's wake semantics).
                self.procs[p as usize].waiting_on_src = false;
                self.advance::<OBS, FAULTS, true>(p);
            }
            EventKind::Release { .. } | EventKind::BarrierRelease => {
                unreachable!("classic-only event on the sharded path")
            }
        }
        Ok(())
    }

    /// Replay the logged barrier deltas in canonical `(t, proc)` order to
    /// find the instant the quorum completed, and return the release
    /// instant `t_done + barrier_cost`. Also repairs `barrier_last` —
    /// lane passes update it in pass order, but the record belongs to the
    /// canonically last entrant.
    pub(super) fn barrier_release_time(&mut self, alive_base: i64) -> Cycles {
        self.bdeltas.sort_unstable_by_key(|d| (d.t, d.proc));
        let mut count = 0i64;
        let mut alive = alive_base;
        let mut t_done = None;
        let mut last_enter: Option<usize> = None;
        for (i, d) in self.bdeltas.iter().enumerate() {
            count += d.dcount as i64;
            alive += d.dalive as i64;
            if d.dcount > 0 {
                last_enter = Some(i);
            }
            if t_done.is_none() && alive > 0 && count == alive {
                t_done = Some(d.t);
            }
        }
        let t_done = t_done.expect("live quorum implies the replay completes");
        if let Some(i) = last_enter {
            let d = &self.bdeltas[i];
            let (proc, t) = (d.proc, d.t);
            let (cause, submit) = d.meta.expect("barrier entries carry their metadata");
            if let Some(obs) = self.obs.as_deref_mut() {
                if obs.msg_log {
                    obs.barrier_last = (proc, submit, t, cause);
                }
            }
        }
        t_done + self.config.barrier_cost
    }

    /// Release the barrier at `t_rel`: the classic `BarrierRelease` arm,
    /// re-run against the canonical release instant. Split into three
    /// per-processor phases so the parallel executor (`engine::plane`)
    /// can run each phase lane-by-lane in processor order — reproducing
    /// this exact serial sequence — with the lifecycle record written
    /// once by the coordinator between phases.
    fn apply_barrier_release<const OBS: bool, const FAULTS: bool>(&mut self, t_rel: Cycles) {
        self.now = t_rel;
        let bcause = if OBS {
            self.record_barrier_release()
        } else {
            Cause::Start
        };
        self.barrier_release_collect(t_rel);
        self.barrier_release_handlers::<OBS>(bcause);
        self.barrier_release_advance::<OBS, FAULTS>();
    }

    /// Phase 1: collect this Sim's released processors into
    /// `released_scratch` (kept there across the three phases) and close
    /// their barrier state and spans.
    pub(super) fn barrier_release_collect(&mut self, t_rel: Cycles) {
        self.now = t_rel;
        self.barrier_count = 0;
        let mut released = std::mem::take(&mut self.released_scratch);
        released.extend(
            self.proc_range()
                .map(|p| p as logp_core::ProcId)
                .filter(|&p| self.procs[p as usize].in_barrier),
        );
        for &p in &released {
            let st = &mut self.procs[p as usize];
            st.in_barrier = false;
            st.engaged = false;
            st.busy_until = t_rel;
            let entered = st.barrier_entered_at;
            st.stats.barrier_wait += t_rel - entered;
            self.span(p, entered, t_rel, Activity::Barrier);
        }
        self.released_scratch = released;
    }

    /// Phase 2: run the released processors' `on_barrier_release`
    /// handlers (no sink emissions — handler metadata is aggregate-only).
    pub(super) fn barrier_release_handlers<const OBS: bool>(&mut self, bcause: Cause) {
        let released = std::mem::take(&mut self.released_scratch);
        for &p in &released {
            self.run_handler::<OBS, _>(p, bcause, |prog, ctx| prog.on_barrier_release(ctx));
        }
        self.released_scratch = released;
    }

    /// Phase 3: advance the released processors, consuming the scratch.
    pub(super) fn barrier_release_advance<const OBS: bool, const FAULTS: bool>(&mut self) {
        let mut released = std::mem::take(&mut self.released_scratch);
        for &p in &released {
            self.advance::<OBS, FAULTS, true>(p);
        }
        released.clear();
        self.released_scratch = released;
    }

    /// Re-sort the observability log and activity trace into canonical
    /// order and rewrite causal references ([`crate::obs::ObsLog::canonicalize`]
    /// — the same renumbering a replayed streaming trace gets). Lane
    /// passes append records in pass order; the canonical order is the
    /// per-record primary timestamp with the owning processor as
    /// tiebreak (both lane-count-invariant).
    pub(super) fn canonicalize_results(&mut self) {
        if self.config.record_trace {
            self.trace.spans.sort_by_key(|s| s.proc);
        }
        let Some(obs) = self.obs.as_deref_mut() else {
            return;
        };
        if !obs.msg_log {
            return;
        }
        obs.log.canonicalize();
    }

    /// The windowed lane driver. Mirrors [`Sim::drive`]'s prologue and
    /// event semantics, replacing the single globally ordered queue with
    /// per-lane queues drained window-by-window.
    #[inline(never)]
    pub(crate) fn drive_sharded<const OBS: bool, const FAULTS: bool>(
        &mut self,
    ) -> Result<(), SimError> {
        self.setup_lanes();
        let w = self.window_width();
        // `alive` before any delta below is the replay baseline.
        let mut alive_base = self.alive as i64;
        if FAULTS {
            // One crash per processor (the earliest wins — a processor
            // cannot die twice), keyed canonically below every
            // counter-derived key of its cycle.
            let mut crashes = self
                .faults
                .as_deref()
                .expect("FAULTS implies a fault plan")
                .plan
                .crashes
                .clone();
            crashes.sort_unstable_by_key(|&(p, t)| (p, t));
            crashes.dedup_by_key(|&mut (p, _)| p);
            for (p, t) in crashes {
                if t == 0 {
                    self.apply_crash::<OBS, true>(p);
                } else {
                    self.push_lane(p, t, event_ord(0, p as u64), EventKind::Crash(p));
                }
            }
        }
        for p in 0..self.model.p {
            if FAULTS && self.procs[p as usize].halted {
                continue;
            }
            self.run_handler::<OBS, _>(p, Cause::Start, |prog, ctx| prog.on_start(ctx));
        }
        for p in 0..self.model.p {
            self.advance::<OBS, FAULTS, true>(p);
        }
        let mut pending_release: Option<Cycles> = None;
        let mut completion: Cycles = 0;
        let mut prev_end: Option<Cycles> = None;
        loop {
            // The quorum may already be complete before any window runs:
            // if every processor enters a barrier straight from
            // `on_start` (or from a release handler), no event is
            // scheduled anywhere and the release instant is the only
            // pending instant.
            if pending_release.is_none() && self.alive > 0 && self.barrier_count == self.alive {
                pending_release = Some(self.barrier_release_time(alive_base));
            }
            // Next window start: the earliest pending instant anywhere.
            // Jumping straight to it is the quiescence fast-forward — a
            // machine with nothing due until cycle 10^9 costs one probe,
            // not 10^9 window steps.
            let mut t0 = pending_release;
            for lane in &self.lanes {
                if let Some(t) = lane.cal.next_time() {
                    if t0.is_none_or(|b| t < b) {
                        t0 = Some(t);
                    }
                }
            }
            let Some(t0) = t0 else {
                break;
            };
            self.v_windows += 1;
            if prev_end.is_some_and(|e| t0 > e) {
                self.v_fast_forwards += 1;
            }
            for lane in &mut self.lanes {
                lane.cal.advance_to(t0);
            }
            let t_end = t0.saturating_add(w);
            prev_end = Some(t_end);
            // Drain the window to a fixed point: a barrier release inside
            // the window re-arms processors across every lane, so lanes
            // are re-pumped (same bound) until nothing is due before
            // `t_end`.
            loop {
                let mut progressed = false;
                for li in 0..self.lanes.len() {
                    if let Some(t) = self.pump_lane::<OBS, FAULTS>(li, t_end)? {
                        completion = completion.max(t);
                        progressed = true;
                    }
                }
                if pending_release.is_none() && self.alive > 0 && self.barrier_count == self.alive {
                    pending_release = Some(self.barrier_release_time(alive_base));
                }
                if let Some(t_rel) = pending_release {
                    if t_rel < t_end {
                        let consumed = self.bdeltas.len();
                        self.apply_barrier_release::<OBS, FAULTS>(t_rel);
                        completion = completion.max(t_rel);
                        // Deltas before the release are consumed; the
                        // next quorum replays from the post-release
                        // state. Entries pushed by the release handlers
                        // themselves (a processor can re-enter the next
                        // round, or halt, inside `on_barrier_release`)
                        // belong to the next round and are kept, with
                        // the replay baseline backed out of their
                        // alive-deltas.
                        self.bdeltas.drain(..consumed);
                        alive_base = self.alive as i64
                            - self.bdeltas.iter().map(|d| d.dalive as i64).sum::<i64>();
                        pending_release = None;
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
            }
        }
        // The classic engine's clock ends at the last event popped —
        // which includes the per-message `Release` bookkeeping events, so
        // its completion covers the network fully draining (a dropped
        // message's release, or `g > L` windows, can trail the last
        // delivery). The sharded equivalent is the latest release
        // instant still parked in any source ring: rings evict an entry
        // only while processing an event at or after it, so the maximum
        // below matches the classic engine's final `Release` exactly.
        for ring in self.rings.iter() {
            if let Some(&r) = ring.back() {
                completion = completion.max(r);
            }
        }
        self.now = completion;
        self.canonicalize_results();
        Ok(())
    }
}
