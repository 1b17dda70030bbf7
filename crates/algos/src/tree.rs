//! The one tree collective (§3.3), and the one way collectives are run.
//!
//! Broadcast, reduction and all-reduce are the same program: partial
//! values combine up the reverse of one tree, then the result fans down
//! another, and a rank takes part in whichever of the two phases the
//! collective has. The trees are the child lists
//! `logp_core::hier::eval_{broadcast,reduce,allreduce}` price; the machine
//! is whatever [`Sim`] the caller built (`Sim::new`, `Sim::new_hier`); the
//! ranks are all of them or a fault plan's survivors; delivery is plain
//! sends or, given a [`RetryConfig`], the same program inside
//! [`Reliable`]. What the modules' collectives do *not* share is a
//! [`Wire`].

use crate::resilient::ResilientError;
use logp_core::{Cycles, ProcId};
use logp_sim::reliable::{Reliable, RetryConfig};
use logp_sim::{Ctx, Data, Message, Process, SharedCell, Sim, SimResult};

/// The two things that differ between one module's tree collectives and
/// another's: the tags on the wire, and what a combine costs. A module
/// whose collectives lack a phase leaves that phase's tag `0`.
pub(crate) struct Wire {
    /// Tag of a partial travelling up.
    pub up: u32,
    /// Tag of the result travelling down.
    pub down: u32,
    /// Cycles charged per partial combined (`0`: combined on receipt).
    pub combine: Cycles,
}

/// `(rank, what it ended up holding, when)`, in finishing order.
pub(crate) type Finals<T> = Vec<(ProcId, T, Cycles)>;

/// What a collective run hands back to its public runner.
pub(crate) struct Run<T> {
    pub finals: Finals<T>,
    /// Retransmissions across all ranks (`0` on plain sends).
    pub retries: u64,
    pub result: SimResult,
}

/// Install `program(rank, out)` on every rank of `ranks` — behind a
/// reliable endpoint when `retry` is given — run the machine, and require
/// every rank to have pushed its final to `out` exactly once.
pub(crate) fn execute<T, P: Process + 'static>(
    mut sim: Sim,
    ranks: impl Iterator<Item = ProcId>,
    retry: Option<RetryConfig>,
    mut program: impl FnMut(ProcId, SharedCell<Finals<T>>) -> P,
) -> Result<Run<T>, ResilientError> {
    let out: SharedCell<Finals<T>> = SharedCell::new();
    let retries: SharedCell<u64> = SharedCell::new();
    let mut survivors = 0;
    for q in ranks {
        survivors += 1;
        let prog = program(q, out.clone());
        let prog: Box<dyn Process> = match &retry {
            Some(cfg) => Box::new(Reliable::new(prog, cfg.clone(), retries.clone())),
            None => Box::new(prog),
        };
        sim.set_process(q, prog);
    }
    // Every installed rank reports once: one allocation, not doubling
    // growth copied inside the run's memory peak.
    out.with(|o| o.reserve_exact(survivors));
    let p = sim.model().p as usize;
    let result = sim.run().map_err(ResilientError::Engine)?;
    let finals = out.replace(Vec::new());
    let mut once = vec![false; p];
    let exact = finals.len() == survivors
        && finals
            .iter()
            .all(|f| !std::mem::replace(&mut once[f.0 as usize], true));
    if !exact {
        return Err(ResilientError::Incomplete {
            finished: finals.len(),
            survivors,
        });
    }
    Ok(Run {
        finals,
        retries: retries.get(),
        result,
    })
}

/// One rank of the tree collective.
struct TreeProc {
    wire: &'static Wire,
    value: f64,
    root: bool,
    /// The collective has an up phase / a down phase.
    up: bool,
    down: bool,
    /// Where this rank's partial goes (non-root ranks of an up phase).
    parent: ProcId,
    /// Children's partials not yet combined into `value`.
    awaiting: u32,
    /// Whom this rank hands the result down to, in send order.
    kids: Box<[ProcId]>,
    out: SharedCell<Finals<f64>>,
}

impl TreeProc {
    /// This rank's part is over: report what it holds, and when.
    fn finish(&self, ctx: &Ctx<'_>) {
        let rec = (ctx.me(), self.value, ctx.now());
        self.out.with(|o| o.push(rec));
    }

    fn fan_out(&self, ctx: &mut Ctx<'_>) {
        for &c in self.kids.iter() {
            ctx.send(c, self.wire.down, Data::F64(self.value));
        }
        self.finish(ctx);
    }

    /// Once every child's partial is in, pass the combined value up; the
    /// root has the total, and turns around if there is a down phase.
    fn try_up(&self, ctx: &mut Ctx<'_>) {
        if self.awaiting > 0 {
            return;
        }
        if !self.root {
            ctx.send(self.parent, self.wire.up, Data::F64(self.value));
        }
        if !self.down {
            self.finish(ctx);
        } else if self.root {
            self.fan_out(ctx);
        }
    }
}

impl Process for TreeProc {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.up {
            self.try_up(ctx);
        } else if self.root {
            self.fan_out(ctx);
        }
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Ctx<'_>) {
        let v = msg.data.as_f64();
        if msg.tag == self.wire.down {
            self.value = v;
            self.fan_out(ctx);
        } else {
            debug_assert_eq!(msg.tag, self.wire.up);
            self.value += v;
            self.awaiting -= 1;
            if self.wire.combine > 0 {
                ctx.compute(self.wire.combine, 0);
            } else {
                self.try_up(ctx);
            }
        }
    }

    fn on_compute_done(&mut self, _tag: u64, ctx: &mut Ctx<'_>) {
        self.try_up(ctx);
    }
}

/// Child lists indexed by processor id, over the whole machine.
pub(crate) type Tree = [Vec<ProcId>];

/// Which phases a collective has, and the tree each runs on.
#[derive(Clone, Copy)]
pub(crate) enum Phases<'a> {
    /// Broadcast: the root's value fans down the tree.
    Down(&'a Tree),
    /// Reduction: values combine up the reverse of the tree.
    Up(&'a Tree),
    /// All-reduce: up the reverse of the first, down the second.
    UpDown(&'a Tree, &'a Tree),
}

impl<'a> Phases<'a> {
    fn up(self) -> Option<&'a Tree> {
        match self {
            Phases::Up(t) | Phases::UpDown(t, _) => Some(t),
            Phases::Down(_) => None,
        }
    }

    fn down(self) -> Option<&'a Tree> {
        match self {
            Phases::Down(t) | Phases::UpDown(_, t) => Some(t),
            Phases::Up(_) => None,
        }
    }
}

/// Run the tree collective rooted at `root` over `ranks`, each starting
/// from `value(rank)`. A rank's final is what it holds when its part
/// ends: the datum (broadcast), its finished partial (reduction; the
/// root's is the total), or the total (all-reduce).
pub(crate) fn run_tree(
    sim: Sim,
    wire: &'static Wire,
    root: ProcId,
    ranks: impl Iterator<Item = ProcId>,
    phases: Phases<'_>,
    value: impl Fn(ProcId) -> f64,
    retry: Option<RetryConfig>,
) -> Result<Run<f64>, ResilientError> {
    let (up, down) = (phases.up(), phases.down());
    for tree in [up, down].into_iter().flatten() {
        let p = sim.model().p as usize;
        assert_eq!(tree.len(), p, "a tree lists every processor's children");
    }
    let mut parent = vec![root; up.map_or(0, <[_]>::len)];
    for (q, kids) in up.into_iter().flatten().enumerate() {
        for &c in kids {
            parent[c as usize] = q as ProcId;
        }
    }
    execute(sim, ranks, retry, |q, out| TreeProc {
        wire,
        value: value(q),
        root: q == root,
        up: up.is_some(),
        down: down.is_some(),
        parent: up.map_or(root, |_| parent[q as usize]),
        awaiting: up.map_or(0, |t| t[q as usize].len() as u32),
        kids: down.map_or_else(Box::default, |t| t[q as usize].as_slice().into()),
        out,
    })
}
