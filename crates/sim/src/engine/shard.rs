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
//!   processors are grouped. Arrivals carry their *source's* counter, so
//!   same-cycle arrivals chain into a destination's inbox in that order.
//! * **Counter-mode randomness.** Latency jitter, compute drift and skew
//!   are drawn by [`logp_core::rng::noise`] — a pure function of the
//!   drawing processor and its draw count, not of global event
//!   interleaving — on this engine and the classic one alike.
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
//! * **Canonical finalize.** Lifecycle records complete in lane-pass
//!   order under ids that depend only on their processor's own progress
//!   (`(proc + 1) << 40 | seq`); the sink that retains a log re-sorts it
//!   by canonical keys — messages by `(inject, src)`, computes by
//!   `(start, proc)`, timers by `(armed, proc)` — renumbers the ids and
//!   remaps the causal references ([`crate::obs::ObsLog::canonicalize`]).
//!   Activity spans re-sort by processor. Metrics counters and histograms
//!   are commutative sums and need no treatment.
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
//! Lane counts `>= 2` are bit-identical to each other in all
//! configurations, including under observability and fault plans.

use super::{Lane, Sim, SimError, SrcRing};
use crate::obs::Cause;
use crate::trace::Activity;
use logp_core::{Cycles, ProcId};

/// The window bookkeeping of one lane-engine run: which window is open,
/// whether a completed barrier quorum awaits its release, and how far the
/// run got.
struct Windows {
    /// Window width (see [`Sim::window_width`]).
    width: Cycles,
    /// End of the previous window (a later start is a fast-forward).
    prev_end: Option<Cycles>,
    /// Release instant of a barrier whose quorum has completed, until
    /// the release is applied.
    pending_release: Option<Cycles>,
    /// `alive` before any barrier delta still logged: the baseline of
    /// the next quorum replay.
    alive_base: i64,
    /// Latest instant anything happened.
    completion: Cycles,
}

impl Sim {
    /// Build the lane engine's state: contiguous lanes `per` processors
    /// wide, each with its queue and the slab of the messages bound for
    /// its processors, plus the canonical counters and source rings.
    /// Arenas are pre-sized so the standard collectives never reallocate
    /// with every slot held from injection to delivery (pinned by the
    /// debug realloc counter).
    pub(super) fn setup_lanes(&mut self, per: usize) {
        let p = self.model.p as usize;
        let span = self.ring_span();
        self.lanes = (0..p)
            .step_by(per)
            .map(|lo| Lane::new(span, per.min(p - lo)))
            .collect();
        self.lane_of = (0..p).map(|i| (i / per) as u32).collect();
        self.pctr = vec![0; p];
        self.rings = vec![SrcRing::default(); p];
        self.vitals.lane_events = vec![0; self.lanes.len()];
    }

    /// Processors per contiguous lane. The width is rounded up to a
    /// topology-group boundary on hierarchical machines so intra-group
    /// traffic stays lane-local (results are lane-count invariant either
    /// way; alignment only moves the cut points).
    fn lane_width(&self) -> usize {
        let p = self.model.p as usize;
        let want = (self.config.shards as usize).clamp(1, p);
        match self.hierarchy() {
            Some(h) => h.align_lane(p.div_ceil(want)),
            None => p.div_ceil(want),
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
    fn pump_lane<const OBS: bool, const FAULTS: bool>(
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
            self.count_event()?;
            self.process_event::<OBS, FAULTS, true>(ord, kind);
            n_ev += 1;
        }
        self.vitals.lane_events[li] += n_ev;
        Ok((n_ev > 0).then_some(self.now))
    }

    /// Replay the logged barrier deltas in canonical `(t, proc)` order to
    /// find the instant the quorum completed, and return the release
    /// instant `t_done + barrier_cost`. Also repairs `barrier_last` —
    /// lane passes update it in pass order, but the record belongs to the
    /// canonically last entrant.
    fn barrier_release_time(&mut self, alive_base: i64) -> Cycles {
        self.bdeltas.sort_unstable_by_key(|d| (d.t, d.proc));
        let mut count = 0i64;
        let mut alive = alive_base;
        let mut t_done = None;
        let mut last_enter = None;
        for d in &self.bdeltas {
            count += d.dcount as i64;
            alive += d.dalive as i64;
            // Entries, and only entries, carry their metadata.
            if let Some((cause, submit)) = d.meta {
                last_enter = Some((d.proc, submit, d.t, cause));
            }
            if t_done.is_none() && alive > 0 && count == alive {
                t_done = Some(d.t);
            }
        }
        // A live quorum implies the replay completes. Were it ever not to,
        // the replay still ends in that quorum, so its last delta's instant
        // stands in.
        debug_assert!(t_done.is_some(), "live quorum implies the replay completes");
        let t_done = t_done.unwrap_or_else(|| self.bdeltas.last().map_or(self.now, |d| d.t));
        if let (Some(last), Some(st)) = (last_enter, self.records()) {
            st.barrier_last = last;
        }
        t_done + self.config.barrier_cost
    }

    /// Release the barrier at `t_rel`: the instant of the classic
    /// engine's `BarrierRelease` event, or the one the lane driver
    /// replayed. Every released processor's barrier state and span close
    /// before any `on_barrier_release` handler runs, and every handler
    /// runs before any processor advances.
    pub(super) fn apply_barrier_release<
        const OBS: bool,
        const FAULTS: bool,
        const SHARDED: bool,
    >(
        &mut self,
        t_rel: Cycles,
    ) {
        self.now = t_rel;
        let bcause = if OBS {
            self.record_barrier_release()
        } else {
            Cause::Start
        };
        self.barrier_count = 0;
        let mut released = std::mem::take(&mut self.released_scratch);
        released.extend((0..self.model.p).filter(|&p| self.procs[p as usize].in_barrier));
        for &p in &released {
            let st = &mut self.procs[p as usize];
            st.in_barrier = false;
            st.engaged = false;
            st.busy_until = t_rel;
            let entered = st.barrier_entered_at;
            self.stats.procs[p as usize].barrier_wait += t_rel - entered;
            self.span(p, entered, t_rel, Activity::Barrier);
        }
        for &p in &released {
            self.run_handler::<OBS, _>(p, bcause, |prog, ctx| prog.on_barrier_release(ctx));
        }
        for &p in &released {
            self.advance::<OBS, FAULTS, SHARDED>(p);
        }
        released.clear();
        self.released_scratch = released;
    }

    /// The fault plan's crash-stops as the lane engine takes them: one
    /// per processor (the earliest wins — a processor cannot die twice),
    /// to be planted with [`Sim::plant_crash`] in the owner's lane.
    fn lane_crashes(&self) -> Vec<(ProcId, Cycles)> {
        let mut crashes = self.crash_schedule();
        crashes.sort_unstable_by_key(|&(p, t)| (p, t));
        crashes.dedup_by_key(|&mut (p, _)| p);
        crashes
    }

    /// Fresh window bookkeeping; `self.alive` before any delta is the
    /// first replay baseline.
    fn windows(&self) -> Windows {
        Windows {
            width: self.window_width(),
            prev_end: None,
            pending_release: None,
            alive_base: self.alive as i64,
            completion: 0,
        }
    }

    /// Note a completed barrier quorum: every live processor waits in the
    /// barrier. The quorum may be complete before any window runs — if
    /// every processor enters a barrier straight from `on_start` (or from
    /// a release handler), no event is scheduled anywhere and the release
    /// instant is the only pending instant.
    fn check_quorum(&mut self, win: &mut Windows) {
        if win.pending_release.is_none() && self.alive > 0 && self.barrier_count == self.alive {
            win.pending_release = Some(self.barrier_release_time(win.alive_base));
        }
    }

    /// Open the next window `[t0, t_end)` at the earliest pending instant
    /// anywhere — `next_event` over the lane queues, or a pending barrier
    /// release — or return `None` at quiescence. Jumping straight there
    /// is the quiescence fast-forward: a machine with nothing due until
    /// cycle 10^9 costs one probe, not 10^9 window steps.
    fn open_window(
        &mut self,
        win: &mut Windows,
        next_event: Option<Cycles>,
    ) -> Option<(Cycles, Cycles)> {
        let t0 = match (win.pending_release, next_event) {
            (Some(r), Some(e)) => r.min(e),
            (r, e) => r.or(e)?,
        };
        self.vitals.windows += 1;
        if win.prev_end.is_some_and(|e| t0 > e) {
            self.vitals.fast_forwards += 1;
        }
        let t_end = t0.saturating_add(win.width);
        win.prev_end = Some(t_end);
        Some((t0, t_end))
    }

    /// `alive` less the alive-deltas still logged in `self.bdeltas`: the
    /// next replay baseline.
    fn alive_baseline(&self) -> i64 {
        self.alive as i64 - self.bdeltas.iter().map(|d| d.dalive as i64).sum::<i64>()
    }

    /// The latest network-release instant still parked in a source ring.
    /// The classic engine's clock ends at the last event popped — which
    /// includes the per-message `Release` bookkeeping events, so its
    /// completion covers the network fully draining (a dropped message's
    /// release, or `g > L` windows, can trail the last delivery). Rings
    /// evict an entry only while processing an event at or after it, so
    /// this maximum matches the classic engine's final `Release` exactly.
    fn last_ring_release(&self) -> Cycles {
        let backs = self.rings.iter().filter_map(SrcRing::back);
        backs.max().unwrap_or(0)
    }

    /// The windowed lane driver. Mirrors [`Sim::drive`]'s prologue and
    /// event semantics, replacing the single globally ordered queue with
    /// per-lane queues drained window-by-window.
    #[inline(never)]
    pub(crate) fn drive_sharded<const OBS: bool, const FAULTS: bool>(
        &mut self,
    ) -> Result<(), SimError> {
        self.setup_lanes(self.lane_width());
        let mut win = self.windows();
        if FAULTS {
            for (p, t) in self.lane_crashes() {
                self.plant_crash::<OBS, true>(p, t);
            }
        }
        self.start_all::<OBS, FAULTS, true>();
        loop {
            self.check_quorum(&mut win);
            let next_event = self.lanes.iter().filter_map(|l| l.cal.next_time()).min();
            let Some((t0, t_end)) = self.open_window(&mut win, next_event) else {
                break;
            };
            for lane in &mut self.lanes {
                lane.cal.advance_to(t0);
            }
            // Drain the window to a fixed point: a barrier release inside
            // the window re-arms processors across every lane, so lanes
            // are re-pumped (same bound) until nothing is due before
            // `t_end`.
            loop {
                let mut progressed = false;
                for li in 0..self.lanes.len() {
                    if let Some(t) = self.pump_lane::<OBS, FAULTS>(li, t_end)? {
                        win.completion = win.completion.max(t);
                        progressed = true;
                    }
                }
                self.check_quorum(&mut win);
                if let Some(t_rel) = win.release_due(t_end) {
                    let consumed = self.bdeltas.len();
                    self.apply_barrier_release::<OBS, FAULTS, true>(t_rel);
                    // Deltas before the release are consumed; the next
                    // quorum replays from the post-release state. Entries
                    // pushed by the release handlers themselves (a
                    // processor can re-enter the next round, or halt,
                    // inside `on_barrier_release`) belong to the next
                    // round and are kept, with the replay baseline backed
                    // out of their alive-deltas.
                    self.bdeltas.drain(..consumed);
                    win.released(t_rel, self.alive_baseline());
                    progressed = true;
                }
                if !progressed {
                    break;
                }
            }
        }
        self.now = win.completion.max(self.last_ring_release());
        Ok(())
    }
}

impl Windows {
    /// The pending barrier release, if it falls inside the window ending
    /// at `t_end`.
    fn release_due(&self, t_end: Cycles) -> Option<Cycles> {
        self.pending_release.filter(|&t_rel| t_rel < t_end)
    }

    /// The release at `t_rel` has been applied; `alive_base` is the
    /// machine's [`Sim::alive_baseline`] after it.
    fn released(&mut self, t_rel: Cycles, alive_base: i64) {
        self.completion = self.completion.max(t_rel);
        self.alive_base = alive_base;
        self.pending_release = None;
    }
}
