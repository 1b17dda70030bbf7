//! The one step program, and the one way step-shaped programs are run.
//!
//! Recursive doubling, rings, pipelines, votes, and halo or panel
//! exchanges are the paper's "alternating phases of local computation and
//! general communication" (§4.2.2): at step `s` a rank sends, waits for
//! the messages of step `s`, folds them into its data and charges the work
//! that took. What differs between one such program and another is a
//! [`Steps`] description; the loop around it — the step counter, the
//! send-once guard, the buffer of messages that ran ahead of their step,
//! relaying, installing the ranks and requiring each rank's final exactly
//! once — is [`StepProc`] and [`run_steps`], written here once.
//!
//! Three rules time every program:
//! * when step `s`'s messages are all in, the fold's compute is charged
//!   and step `s + 1`'s sends are issued in the same handler, queued
//!   behind that compute;
//! * an arrival of a step whose description names ranks to relay it to
//!   ([`Steps::relay`]) is re-sent to them as it came, tag and payload, in
//!   the handler that received it and before it is filed, so no item of a
//!   pipeline waits for an earlier one;
//! * the run is as long as [`Steps::steps`] says after each fold, so a
//!   fold that reads a vote ends the run or adds a round; a step may end
//!   in the engine barrier ([`Steps::barrier`]), and the next one starts
//!   at its release.

use crate::resilient::ResilientError;
use crate::tree::{execute, Finals, Run};
use logp_core::{Cycles, ProcId};
use logp_sim::reliable::RetryConfig;
use logp_sim::{Ctx, Data, Message, Process, SharedCell, Sim};

/// One message of a step: the index its sender gave it and one word.
#[derive(Clone, Copy)]
pub(crate) struct Arrival {
    step: u32,
    idx: u32,
    pub word: u64,
}

impl Arrival {
    pub fn idx(&self) -> usize {
        self.idx as usize
    }

    /// The word as the float a sender passed through [`Out::send_f64`].
    pub fn value(&self) -> f64 {
        f64::from_bits(self.word)
    }
}

/// Where a step's sends go. The step rides on the wire beside the
/// sender's index, so a receiver files a message under its step whatever
/// order the network delivers in.
pub(crate) struct Out<'a, 'c> {
    ctx: &'a mut Ctx<'c>,
    step: u32,
}

impl Out<'_, '_> {
    pub fn send(&mut self, dst: ProcId, tag: u32, idx: usize, word: u64) {
        let idx = u32::try_from(idx).expect("a step indexes its messages in 32 bits");
        let key = u64::from(self.step) << 32 | u64::from(idx);
        self.ctx.send(dst, tag, Data::Pair(key, word));
    }

    pub fn send_f64(&mut self, dst: ProcId, tag: u32, idx: usize, v: f64) {
        self.send(dst, tag, idx, v.to_bits());
    }

    /// Charge `cycles` of work behind the sends issued so far.
    pub fn compute(&mut self, cycles: Cycles) {
        self.ctx.compute(cycles, 0);
    }
}

/// What one rank of a step program does; the driver calls it.
pub(crate) trait Steps: Send + 'static {
    /// What the rank reports when its last step is folded.
    type Final: Send + 'static;
    /// Issue step `s`'s sends.
    fn send(&mut self, s: u32, out: &mut Out<'_, '_>);
    /// How many messages the rank receives at step `s`.
    fn expect(&self, s: u32) -> usize;
    /// Fold step `s`'s messages, in arrival order, into the rank's data;
    /// returns the cycles that took (`0` charges nothing).
    fn fold(&mut self, s: u32, msgs: &[Arrival]) -> Cycles;
    /// What the rank holds at the end.
    fn finish(&mut self) -> Self::Final;
    /// How many steps the rank runs; read after every fold.
    fn steps(&self) -> u32;
    /// The ranks each arrival of step `s` goes on to, in send order.
    fn relay(&self, _s: u32) -> &[ProcId] {
        &[]
    }
    /// Step `s` ends in the engine barrier (unless it is the last).
    fn barrier(&self, _s: u32) -> bool {
        false
    }
}

/// One rank running its description.
struct StepProc<D: Steps> {
    desc: D,
    step: u32,
    /// Step `step`'s sends are issued.
    sent: bool,
    /// In the barrier that ends step `step - 1`.
    held: bool,
    /// Messages not yet folded, by step; a step's in arrival order.
    early: Vec<Arrival>,
    out: SharedCell<Finals<D::Final>>,
}

impl<D: Steps> StepProc<D> {
    fn advance(&mut self, ctx: &mut Ctx<'_>) {
        while self.step < self.desc.steps() {
            let s = self.step;
            if !self.sent {
                self.sent = true;
                self.desc.send(s, &mut Out { ctx, step: s });
            }
            let n = self.early.partition_point(|a| a.step == s);
            if n < self.desc.expect(s) {
                return;
            }
            let cycles = self.desc.fold(s, &self.early[..n]);
            self.early.drain(..n);
            if cycles > 0 {
                ctx.compute(cycles, 0);
            }
            self.step += 1;
            self.sent = false;
            if self.desc.barrier(s) && self.step < self.desc.steps() {
                self.held = true;
                ctx.barrier();
                return;
            }
        }
        let rec = (ctx.me(), self.desc.finish(), ctx.now());
        self.out.with(|o| o.push(rec));
    }
}

impl<D: Steps> Process for StepProc<D> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.advance(ctx);
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Ctx<'_>) {
        let (key, word) = msg.data.as_pair();
        let a = Arrival {
            step: (key >> 32) as u32,
            idx: key as u32,
            word,
        };
        debug_assert!(self.step <= a.step, "a message out of step");
        for &q in self.desc.relay(a.step) {
            ctx.send(q, msg.tag, msg.data.clone());
        }
        let at = self.early.partition_point(|b| b.step <= a.step);
        self.early.insert(at, a);
        if a.step == self.step && !self.held {
            self.advance(ctx);
        }
    }

    fn on_barrier_release(&mut self, ctx: &mut Ctx<'_>) {
        self.held = false;
        self.advance(ctx);
    }
}

/// Run `desc(rank)` on every rank of `ranks` — behind a reliable endpoint
/// when `retry` is given; each rank's final is what [`Steps::finish`]
/// returns, stamped with the time of the handler that folded its last
/// step.
pub(crate) fn run_steps<D: Steps>(
    sim: Sim,
    ranks: impl Iterator<Item = ProcId>,
    retry: Option<RetryConfig>,
    mut desc: impl FnMut(ProcId) -> D,
) -> Result<Run<D::Final>, ResilientError> {
    execute(sim, ranks, retry, |q, out| StepProc {
        desc: desc(q),
        step: 0,
        sent: false,
        held: false,
        early: Vec::new(),
        out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use logp_core::LogP;
    use logp_sim::{Cause, SimConfig};

    /// A one-step pipeline down the binary tree: rank 0 sends `k` items to
    /// its children, every other rank relays each one on and reports the
    /// indices in the order they arrived.
    struct Binary {
        me: ProcId,
        k: usize,
        kids: Vec<ProcId>,
        order: Vec<usize>,
    }

    impl Steps for Binary {
        type Final = Vec<usize>;

        fn send(&mut self, _: u32, out: &mut Out<'_, '_>) {
            if self.me == 0 {
                for i in 0..self.k {
                    for &c in &self.kids {
                        out.send(c, 7, i, i as u64);
                    }
                }
            }
        }

        fn expect(&self, _: u32) -> usize {
            if self.me == 0 {
                0
            } else {
                self.k
            }
        }

        fn fold(&mut self, _: u32, msgs: &[Arrival]) -> Cycles {
            self.order = msgs.iter().map(Arrival::idx).collect();
            0
        }

        fn finish(&mut self) -> Vec<usize> {
            std::mem::take(&mut self.order)
        }

        fn steps(&self) -> u32 {
            1
        }

        fn relay(&self, _: u32) -> &[ProcId] {
            &self.kids
        }
    }

    /// Jitter reorders the items; every relaying rank still forwards each
    /// arrival to all its children in the handler that received it, in
    /// arrival order, holding none back for an earlier index.
    #[test]
    fn a_relay_forwards_each_arrival_in_its_own_handler() {
        let (m, k) = (LogP::new(40, 2, 3, 7).unwrap(), 24);
        let mut reordered = 0;
        for seed in 0..4 {
            let cfg = SimConfig::observed().with_jitter(39).with_seed(seed);
            let run = run_steps(Sim::new(m, cfg), 0..m.p, None, |q| Binary {
                me: q,
                k,
                kids: [2 * q + 1, 2 * q + 2]
                    .into_iter()
                    .filter(|&c| c < m.p)
                    .collect(),
                order: Vec::new(),
            })
            .unwrap();
            for (q, order, _) in &run.finals {
                assert_eq!(order.len(), if *q == 0 { 0 } else { k });
                reordered += usize::from(order.windows(2).any(|w| w[0] > w[1]));
            }
            let log = &run.result.obs.msgs;
            for r in 1..3 {
                let mut arrivals: Vec<_> = log.iter().filter(|a| a.dst == r).collect();
                arrivals.sort_by_key(|a| a.deliver);
                let sent: Vec<_> = log.iter().filter(|f| f.src == r).collect();
                let mut forwards = sent.iter();
                for a in &arrivals {
                    for c in [2 * r + 1, 2 * r + 2] {
                        let f = forwards.next().expect("every arrival is forwarded");
                        assert_eq!((f.dst, f.tag), (c, a.tag), "seed {seed}, rank {r}");
                        assert_eq!(f.cause, Cause::Msg(a.id), "seed {seed}, rank {r}");
                    }
                }
                assert!(forwards.next().is_none(), "seed {seed}, rank {r}");
            }
        }
        assert!(reordered > 0, "jitter reordered no rank's items");
    }
}
