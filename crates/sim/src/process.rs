//! The program-facing API: a `Process` runs on each simulated processor
//! and reacts to events through a command context.
//!
//! Handlers execute in zero simulated time; anything that costs cycles is
//! expressed as a command — `send` (overhead `o`, gap `g`, capacity
//! stalling), `compute` (explicit local work), `barrier`. Commands issued
//! by one handler execute in order before any later event is delivered to
//! the processor; receptions happen only while the command queue is empty
//! (a busy or stalled processor cannot service the network — exactly the
//! model's single-threaded processor).

use crate::message::{Data, Message};
use logp_core::{Cycles, ProcId};

/// Commands a handler can issue. Collected by [`Ctx`] and executed by the
/// engine in FIFO order.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Transmit a small message.
    Send { dst: ProcId, tag: u32, data: Data },
    /// Transmit a LogGP long message of [`Bulk::words`] words: the sender
    /// pays `o` of overhead, its interface then streams `(words-1)·G`,
    /// and the whole payload is delivered as one message `L` later.
    /// Requires `SimConfig::loggp_big_g`. The fields sit behind one
    /// [`Box`] — an allocation a long message amortises by definition —
    /// so that [`Command::Send`] is the largest variant and a command is
    /// 32 bytes; [`Ctx::send_bulk`] builds it. (Queued behind a
    /// processor's first command, a command takes only its fields.)
    SendBulk(Box<Bulk>),
    /// Perform `cycles` of local computation, then receive
    /// `on_compute_done(tag)`.
    Compute { cycles: Cycles, tag: u64 },
    /// Enter the global barrier; `on_barrier_release` fires when every
    /// non-halted processor has entered.
    Barrier,
    /// Arm a local timer: `on_timer(tag)` fires `cycles` after this
    /// command is dequeued. Arming is free (no overhead, no gap) and does
    /// not block later commands. There is no cancellation — a fire the
    /// program no longer cares about is simply ignored by its handler —
    /// and a halted or crashed processor's pending timers never fire.
    Timer { cycles: Cycles, tag: u64 },
    /// Stop participating; a processor with no pending work and a halted
    /// program is skipped by the scheduler.
    Halt,
}

/// What a [`Command::SendBulk`] transmits: a [`Command::Send`]'s fields
/// and the word count the interface streams.
#[derive(Debug, Clone, PartialEq)]
pub struct Bulk {
    pub dst: ProcId,
    pub tag: u32,
    pub data: Data,
    /// Words streamed, at least one.
    pub words: u64,
}

impl Command {
    /// The command's name as programs spell it (for error messages).
    pub fn name(&self) -> &'static str {
        match self {
            Command::Send { .. } => "send",
            Command::SendBulk(_) => "send_bulk",
            Command::Compute { .. } => "compute",
            Command::Barrier => "barrier",
            Command::Timer { .. } => "timer",
            Command::Halt => "halt",
        }
    }
}

/// Execution context passed to every handler.
pub struct Ctx<'a> {
    now: Cycles,
    me: ProcId,
    p: u32,
    pub(crate) commands: &'a mut Vec<Command>,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(now: Cycles, me: ProcId, p: u32, commands: &'a mut Vec<Command>) -> Self {
        Ctx {
            now,
            me,
            p,
            commands,
        }
    }

    /// Current simulated time (the moment the triggering event completed).
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// This processor's id.
    pub fn me(&self) -> ProcId {
        self.me
    }

    /// Number of processors in the machine.
    pub fn procs(&self) -> u32 {
        self.p
    }

    /// A message may go to any *other* processor of the machine.
    pub(crate) fn check_dst(&self, dst: ProcId) {
        assert!(
            dst < self.p,
            "destination {dst} out of range (P = {})",
            self.p
        );
        assert_ne!(dst, self.me, "a processor does not message itself");
    }

    /// Queue a small-message send to `dst`.
    pub fn send(&mut self, dst: ProcId, tag: u32, data: Data) {
        self.check_dst(dst);
        self.commands.push(Command::Send { dst, tag, data });
    }

    /// Queue a LogGP long-message send (see [`Command::SendBulk`]).
    pub fn send_bulk(&mut self, dst: ProcId, tag: u32, data: Data, words: u64) {
        self.check_dst(dst);
        assert!(words >= 1, "a bulk message carries at least one word");
        self.commands.push(Command::SendBulk(Box::new(Bulk {
            dst,
            tag,
            data,
            words,
        })));
    }

    /// Queue `cycles` of local computation; `on_compute_done(tag)` fires
    /// when it finishes. `compute(0, tag)` is a same-time callback after
    /// earlier commands complete.
    pub fn compute(&mut self, cycles: Cycles, tag: u64) {
        self.commands.push(Command::Compute { cycles, tag });
    }

    /// Queue entry into the global barrier.
    pub fn barrier(&mut self) {
        self.commands.push(Command::Barrier);
    }

    /// Arm a local timer firing `on_timer(tag)` after `cycles` (see
    /// [`Command::Timer`]). The reliable-delivery layer builds its
    /// retransmission timeouts from this.
    pub fn timer(&mut self, cycles: Cycles, tag: u64) {
        self.commands.push(Command::Timer { cycles, tag });
    }

    /// Queue a halt.
    pub fn halt(&mut self) {
        self.commands.push(Command::Halt);
    }
}

/// A program running on one simulated processor.
///
/// All handlers default to "do nothing", so programs implement only what
/// they react to. A processor whose handlers never issue commands simply
/// receives messages as they arrive (paying `o` per reception).
///
/// Processes must be `Send`, so a loaded machine can move to another
/// thread. Handlers run one at a time, and all shared state in this crate
/// ([`crate::SharedCell`], message payloads) already satisfies the bound.
pub trait Process: Send {
    /// Called once at time 0, in processor-id order.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A message has been received (its `o` reception overhead has been
    /// paid; `ctx.now()` is the completion of that overhead).
    fn on_message(&mut self, _msg: &Message, _ctx: &mut Ctx<'_>) {}

    /// A `compute` command finished.
    fn on_compute_done(&mut self, _tag: u64, _ctx: &mut Ctx<'_>) {}

    /// The global barrier released.
    fn on_barrier_release(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A [`Ctx::timer`] armed by this processor elapsed. Fires are
    /// best-effort notifications: a timer armed before a halt or crash
    /// never fires, and stale fires (for work that has since completed)
    /// should be ignored.
    fn on_timer(&mut self, _tag: u64, _ctx: &mut Ctx<'_>) {}
}

/// A no-op process: passively receives messages and never halts on its
/// own. Useful as filler for processors not participating in a pattern.
#[derive(Debug, Default, Clone, Copy)]
pub struct Passive;

impl Process for Passive {}

/// Adapter turning a closure into an `on_start`-only process, for compact
/// test programs.
pub struct StartFn<F: FnMut(&mut Ctx<'_>) + Send>(pub F);

impl<F: FnMut(&mut Ctx<'_>) + Send> Process for StartFn<F> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        (self.0)(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_collects_commands_in_order() {
        let mut cmds = Vec::new();
        let mut ctx = Ctx::new(5, 1, 4, &mut cmds);
        assert_eq!(ctx.now(), 5);
        assert_eq!(ctx.me(), 1);
        assert_eq!(ctx.procs(), 4);
        ctx.send(2, 9, Data::U64(42));
        ctx.compute(10, 1);
        ctx.barrier();
        ctx.halt();
        assert_eq!(cmds.len(), 4);
        assert!(matches!(cmds[0], Command::Send { dst: 2, tag: 9, .. }));
        assert!(matches!(cmds[1], Command::Compute { cycles: 10, tag: 1 }));
        assert!(matches!(cmds[2], Command::Barrier));
        assert!(matches!(cmds[3], Command::Halt));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_checks_destination_range() {
        let mut cmds = Vec::new();
        let mut ctx = Ctx::new(0, 0, 4, &mut cmds);
        ctx.send(4, 0, Data::Empty);
    }

    #[test]
    #[should_panic(expected = "does not message itself")]
    fn send_rejects_self() {
        let mut cmds = Vec::new();
        let mut ctx = Ctx::new(0, 3, 4, &mut cmds);
        ctx.send(3, 0, Data::Empty);
    }
}
