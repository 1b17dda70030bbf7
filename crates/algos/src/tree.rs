//! The one tree collective (§3.3), and the one way collectives are run.
//!
//! Broadcast, reduction and all-reduce are the same program: partial
//! values combine up the reverse of one tree, then the result fans down
//! another, and a rank takes part in whichever of the two phases the
//! collective has. The trees are the [`Tree`]s
//! `logp_core::hier::eval_{broadcast,reduce,allreduce}` price; the machine
//! is whatever [`Sim`] the caller built (`Sim::new`, `Sim::new_hier`); the
//! ranks are all of them or a fault plan's survivors; delivery is plain
//! sends or, given a [`RetryConfig`], the same program inside
//! [`Reliable`]. What the modules' collectives do *not* share is a
//! [`Wire`]. The ranks of one run share the down tree: each reads its own
//! children out of it when it fans out, none keeps a copy.

use crate::resilient::ResilientError;
use logp_core::{Children, Cycles, ProcId, Tree};
use logp_sim::reliable::{Reliable, RetryConfig};
use logp_sim::{Ctx, Data, Message, Process, SharedCell, Sim, SimResult};
use std::sync::Arc;

/// What differs between one run's tree collective and another's, beside
/// the trees: the tags on the wire, and the local work a rank charges. A
/// module whose collectives lack a phase leaves that phase's tag `0`.
/// Only a timed reduction — §3.3's summation schedule and its binomial
/// baseline — charges work beside its combines; the others leave
/// `before` empty and `between` `0`.
#[derive(Clone)]
pub(crate) struct Wire {
    /// Tag of a partial travelling up.
    pub up: u32,
    /// Tag of the result travelling down.
    pub down: u32,
    /// Cycles charged per partial combined (`0`: combined on receipt).
    pub combine: Cycles,
    /// Cycles each rank computes before its part of an up phase starts,
    /// by processor; empty: a rank starts at once. A rank given its
    /// share is charged it, `0` included.
    pub before: Vec<Cycles>,
    /// Cycles charged beside the combine after every partial but a
    /// rank's last.
    pub between: Cycles,
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
    // One policy for the run, which every rank's endpoint shares.
    let retry = retry.map(Arc::new);
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

/// What the ranks of one run have in common.
struct Shared {
    wire: Wire,
    /// The collective has an up phase.
    up: bool,
    /// Whom each rank hands the result down to, in send order; `None`
    /// when the collective has no down phase.
    down: Option<Tree>,
}

/// One rank of the tree collective.
struct TreeProc {
    run: Arc<Shared>,
    value: f64,
    root: bool,
    /// Where this rank's partial goes (non-root ranks of an up phase).
    parent: ProcId,
    /// Children's partials not yet combined into `value`.
    awaiting: u32,
    /// Computes charged and not yet done. Receptions can run ahead of
    /// the combines they queue (`o ≥ g`), so a rank acts at the end of
    /// its last compute, not of the one that saw its last partial come in.
    computing: u32,
    out: SharedCell<Finals<f64>>,
}

impl TreeProc {
    /// This rank's part is over: report what it holds, and when.
    fn finish(&self, ctx: &Ctx<'_>) {
        let rec = (ctx.me(), self.value, ctx.now());
        self.out.with(|o| o.push(rec));
    }

    fn fan_out(&self, ctx: &mut Ctx<'_>) {
        let down = self.run.down.as_ref().expect("only a down phase fans out");
        for &c in &down[ctx.me() as usize] {
            ctx.send(c, self.run.wire.down, Data::F64(self.value));
        }
        self.finish(ctx);
    }

    /// Once every child's partial is in and combined, pass the value up;
    /// the root has the total, and turns around if there is a down phase.
    fn try_up(&self, ctx: &mut Ctx<'_>) {
        if self.awaiting > 0 || self.computing > 0 {
            return;
        }
        if !self.root {
            ctx.send(self.parent, self.run.wire.up, Data::F64(self.value));
        }
        if self.run.down.is_none() {
            self.finish(ctx);
        } else if self.root {
            self.fan_out(ctx);
        }
    }

    /// Charge local work; the rank looks again when it ends.
    fn charge(&mut self, cycles: Cycles, ctx: &mut Ctx<'_>) {
        self.computing += 1;
        ctx.compute(cycles, 0);
    }
}

impl Process for TreeProc {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(&cycles) = self.run.wire.before.get(ctx.me() as usize) {
            // The rank's part starts when this ends.
            self.charge(cycles, ctx);
        } else if self.run.up {
            self.try_up(ctx);
        } else if self.root {
            self.fan_out(ctx);
        }
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Ctx<'_>) {
        let v = msg.data.as_f64();
        let wire = &self.run.wire;
        if msg.tag == wire.down {
            self.value = v;
            self.fan_out(ctx);
        } else {
            debug_assert_eq!(msg.tag, wire.up);
            self.value += v;
            self.awaiting -= 1;
            let cycles = wire.combine + if self.awaiting > 0 { wire.between } else { 0 };
            if cycles > 0 {
                self.charge(cycles, ctx);
            } else {
                self.try_up(ctx);
            }
        }
    }

    fn on_compute_done(&mut self, _tag: u64, ctx: &mut Ctx<'_>) {
        self.computing -= 1;
        self.try_up(ctx);
    }
}

/// Which phases a collective has, and the tree each runs on. The down
/// tree is handed over: the ranks keep it for the length of the run.
pub(crate) enum Phases<'a> {
    /// Broadcast: the root's value fans down the tree.
    Down(Tree),
    /// Reduction: values combine up the reverse of the tree.
    Up(&'a Tree),
    /// All-reduce: up the reverse of the first, down the second.
    UpDown(&'a Tree, Tree),
}

/// A caller's tree, checked and stored as the runners take it: a copy of
/// a [`Tree`], the [`Tree`] of child lists that span the machine from
/// rank 0.
///
/// # Panics
///
/// With the [`logp_core::TreeError`]'s message when the lists are not
/// such a tree — before any simulation starts.
pub(crate) fn owned<C: Children + ?Sized>(children: &C) -> Tree {
    Tree::try_from_lists(children).unwrap_or_else(|e| panic!("{e}"))
}

/// Run the tree collective rooted at `root` over `ranks`, each starting
/// from `value(rank)`. A rank's final is what it holds when its part
/// ends: the datum (broadcast), its finished partial (reduction; the
/// root's is the total), or the total (all-reduce). The trees hang from
/// `root` and span `ranks`.
pub(crate) fn run_tree(
    sim: Sim,
    wire: &Wire,
    root: ProcId,
    ranks: impl Iterator<Item = ProcId>,
    phases: Phases<'_>,
    value: impl Fn(ProcId) -> f64,
    retry: Option<RetryConfig>,
) -> Result<Run<f64>, ResilientError> {
    let (up, down) = match phases {
        Phases::Down(down) => (None, Some(down)),
        Phases::Up(up) => (Some(up), None),
        Phases::UpDown(up, down) => (Some(up), Some(down)),
    };
    for tree in [up, down.as_ref()].into_iter().flatten() {
        let p = sim.model().p as usize;
        assert_eq!(tree.len(), p, "a tree lists every processor's children");
    }
    let mut parent = vec![root; up.map_or(0, Tree::len)];
    for (q, kids) in up.into_iter().flat_map(Tree::iter).enumerate() {
        for &c in kids {
            parent[c as usize] = q as ProcId;
        }
    }
    let run = Arc::new(Shared {
        wire: wire.clone(),
        up: up.is_some(),
        down,
    });
    execute(sim, ranks, retry, |q, out| TreeProc {
        run: run.clone(),
        value: value(q),
        root: q == root,
        parent: up.map_or(root, |_| parent[q as usize]),
        awaiting: up.map_or(0, |t| t[q as usize].len() as u32),
        computing: 0,
        out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use logp_core::broadcast::{shape_children, TreeShape};
    use logp_core::LogP;
    use logp_sim::SimConfig;

    /// With `o > g` a flat fan-in's receptions run back to back, ahead of
    /// the combines each queues: the root receives 7 partials in
    /// `[11, 46)`, then combines them in `[46, 53)`, and reports once.
    #[test]
    fn a_rank_acts_after_its_last_combine() {
        let m = LogP::new(6, 5, 2, 8).unwrap();
        let wire = Wire {
            up: 1,
            down: 0,
            combine: 1,
            before: Vec::new(),
            between: 0,
        };
        let flat = owned(&shape_children(TreeShape::Flat, 8));
        let sim = Sim::new(m, SimConfig::default());
        let run = run_tree(sim, &wire, 0, 0..8, Phases::Up(&flat), f64::from, None).unwrap();
        let root = run.finals.iter().find(|f| f.0 == 0);
        assert_eq!(root, Some(&(0, 28.0, 53)));
    }

    /// Beside the message-path pins of `logp-sim`: a rank's program is
    /// boxed once a processor, and 40 bytes keep the box out of the
    /// allocator's 64-byte class.
    #[test]
    fn a_rank_of_the_tree_collective_stays_small() {
        assert!(std::mem::size_of::<TreeProc>() <= 40);
    }

    /// The same rank made reliable is one box too: the program, an
    /// endpoint that holds one unacked send and two delivered identities
    /// in place, and the run's retry counter: one 160-byte allocator chunk.
    #[test]
    fn a_rank_of_the_tree_collective_stays_small_made_reliable() {
        assert!(std::mem::size_of::<Reliable<TreeProc>>() <= 152);
    }
}
