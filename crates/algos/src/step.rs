//! The one step program, and the one way step-shaped programs are run.
//!
//! Recursive doubling, rings, and halo or panel exchanges are the paper's
//! "alternating phases of local computation and general communication"
//! (§4.2.2): at step `s` a rank sends, waits for the messages of step `s`,
//! folds them into its data and charges the work that took. What differs
//! between one such program and another is a [`Steps`] description; the
//! loop around it — the step counter, the send-once guard, the buffer of
//! messages that ran ahead of their step, installing the ranks and
//! requiring each rank's final exactly once — is [`StepProc`] and
//! [`run_steps`], written here once.
//!
//! One rule times every program: when step `s`'s messages are all in,
//! the fold's compute is charged and step `s + 1`'s sends are issued in
//! the same handler, queued behind that compute.

use crate::tree::{execute, Finals, Run};
use logp_core::{Cycles, ProcId};
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
}

/// One rank running its description for `steps` steps.
struct StepProc<D: Steps> {
    desc: D,
    step: u32,
    steps: u32,
    /// Step `step`'s sends are issued.
    sent: bool,
    /// Messages not yet folded, by step; a step's in arrival order.
    early: Vec<Arrival>,
    out: SharedCell<Finals<D::Final>>,
}

impl<D: Steps> StepProc<D> {
    fn advance(&mut self, ctx: &mut Ctx<'_>) {
        while self.step < self.steps {
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
        debug_assert!(
            self.step <= a.step && a.step < self.steps,
            "a message out of step"
        );
        let at = self.early.partition_point(|b| b.step <= a.step);
        self.early.insert(at, a);
        if a.step == self.step {
            self.advance(ctx);
        }
    }
}

/// Run `steps` steps of `desc(rank)` on every processor of `sim`; each
/// rank's final is what [`Steps::finish`] returns, stamped with the time
/// of the handler that folded its last step.
pub(crate) fn run_steps<D: Steps>(
    sim: Sim,
    steps: u32,
    mut desc: impl FnMut(ProcId) -> D,
) -> Run<D::Final> {
    let p = sim.model().p;
    let prog = |q, out| StepProc {
        desc: desc(q),
        step: 0,
        steps,
        sent: false,
        early: Vec::new(),
        out,
    };
    execute(sim, 0..p, None, prog).expect("every rank folds its last step once")
}
