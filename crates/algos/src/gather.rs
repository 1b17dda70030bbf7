//! Scatter, gather, and all-gather — the h-relation workhorses.
//!
//! §6.6: "with appropriate data layout the communication pattern for many
//! algorithms is seen to be built around a small set of communication
//! primitives such as broadcast, reduction or permutation." These three
//! complete the set used by the suite (the LU and splitter-sort codes
//! gather/scatter implicitly; here they are first-class and analyzed).
//!
//! * **scatter**: the root streams one distinct word to every processor —
//!   a pipelined stream, `(P-2)·max(g,o) + 2o + L`;
//! * **gather**: the inverse; the root's *reception* gap dominates:
//!   `(P-2)·max(g,o) + 2o + L` again (receptions pipeline);
//! * **all-gather**: ring algorithm, `P-1` rounds of neighbor exchange —
//!   every processor ends with every block; rounds are paced by the
//!   larger of the injection interval and the data dependency (see
//!   [`allgather_ring_time`]).

use crate::step::{run_steps, Arrival, Out, Steps};
use logp_core::cost::stream_time;
use logp_core::{Cycles, LogP, ProcId};
use logp_sim::{Ctx, Data, Message, Process, SharedCell, Sim, SimConfig};

const TAG_SCATTER: u32 = 0xD0;
const TAG_GATHER: u32 = 0xD1;
const TAG_RING: u32 = 0xD2; // a block, indexed by its origin

/// Analytic scatter/gather time: a stream of `P-1` messages through the
/// root's interface.
pub fn scatter_time(m: &LogP) -> Cycles {
    stream_time(m, m.p as u64 - 1)
}

/// Analytic ring all-gather time: `P-1` store-and-forward rounds. Round
/// `r+1`'s send waits on both the injection gap and the data dependency
/// (round `r`'s reception), so sends are spaced `max(g', 2o+L)` apart and
/// the last message still takes a full `2o+L`:
/// `(P-2)·max(max(g,o), 2o+L) + 2o+L`.
pub fn allgather_ring_time(m: &LogP) -> Cycles {
    if m.p <= 1 {
        return 0;
    }
    (m.p as u64 - 2) * m.send_interval().max(m.point_to_point()) + m.point_to_point()
}

// ---------------------------------------------------------------------
// Scatter.
// ---------------------------------------------------------------------

struct ScatterRoot {
    values: Vec<u64>,
}

impl Process for ScatterRoot {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for d in 1..ctx.procs() {
            ctx.send(d, TAG_SCATTER, Data::U64(self.values[d as usize]));
        }
    }
}

struct ScatterLeaf {
    out: SharedCell<Vec<(ProcId, u64, Cycles)>>,
}

impl Process for ScatterLeaf {
    fn on_message(&mut self, msg: &Message, ctx: &mut Ctx<'_>) {
        let rec = (ctx.me(), msg.data.as_u64(), ctx.now());
        self.out.with(|o| o.push(rec));
    }
}

/// Result of a scatter/gather run.
#[derive(Debug, Clone)]
pub struct CollectiveRun {
    /// (processor, value, time) triples in arrival order.
    pub received: Vec<(ProcId, u64, Cycles)>,
    pub completion: Cycles,
}

/// Scatter `values[d]` to processor `d` from processor 0.
pub fn run_scatter(m: &LogP, values: &[u64], config: SimConfig) -> CollectiveRun {
    assert_eq!(values.len(), m.p as usize);
    let out: SharedCell<Vec<(ProcId, u64, Cycles)>> = SharedCell::new();
    let mut sim = Sim::new(*m, config);
    sim.set_process(
        0,
        Box::new(ScatterRoot {
            values: values.to_vec(),
        }),
    );
    for d in 1..m.p {
        sim.set_process(d, Box::new(ScatterLeaf { out: out.clone() }));
    }
    let r = sim.run().expect("scatter terminates");
    let received = out.get();
    assert_eq!(received.len(), m.p as usize - 1);
    CollectiveRun {
        received,
        completion: r.stats.completion,
    }
}

// ---------------------------------------------------------------------
// Gather.
// ---------------------------------------------------------------------

struct GatherLeaf {
    value: u64,
}

impl Process for GatherLeaf {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send(0, TAG_GATHER, Data::Pair(ctx.me() as u64, self.value));
    }
}

struct GatherRoot {
    got: Vec<(ProcId, u64, Cycles)>,
    out: SharedCell<Vec<(ProcId, u64, Cycles)>>,
}

impl Process for GatherRoot {
    fn on_message(&mut self, msg: &Message, ctx: &mut Ctx<'_>) {
        let (src, v) = msg.data.as_pair();
        self.got.push((src as ProcId, v, ctx.now()));
        if self.got.len() == ctx.procs() as usize - 1 {
            let got = std::mem::take(&mut self.got);
            self.out.with(|o| *o = got);
        }
    }
}

/// Gather one word from every processor at processor 0.
pub fn run_gather(m: &LogP, values: &[u64], config: SimConfig) -> CollectiveRun {
    assert_eq!(values.len(), m.p as usize);
    let out: SharedCell<Vec<(ProcId, u64, Cycles)>> = SharedCell::new();
    let mut sim = Sim::new(*m, config);
    sim.set_process(
        0,
        Box::new(GatherRoot {
            got: Vec::new(),
            out: out.clone(),
        }),
    );
    for d in 1..m.p {
        sim.set_process(
            d,
            Box::new(GatherLeaf {
                value: values[d as usize],
            }),
        );
    }
    let r = sim.run().expect("gather terminates");
    let received = out.get();
    assert_eq!(received.len(), m.p as usize - 1);
    CollectiveRun {
        received,
        completion: r.stats.completion,
    }
}

// ---------------------------------------------------------------------
// Ring all-gather.
// ---------------------------------------------------------------------

/// One rank of the ring: at step `r` it passes right the block that
/// started `r` hops upstream (step 0: its own), and keeps the one that
/// arrives from the left.
struct Ring {
    me: ProcId,
    p: u32,
    /// `blocks[origin]`, once it has come by.
    blocks: Vec<u64>,
}

impl Steps for Ring {
    type Final = Vec<u64>;

    fn send(&mut self, r: u32, out: &mut Out<'_, '_>) {
        let (me, p) = (self.me, self.p);
        let origin = ((me + p - r) % p) as usize;
        out.send((me + 1) % p, TAG_RING, origin, self.blocks[origin]);
    }

    fn expect(&self, _: u32) -> usize {
        1
    }

    fn fold(&mut self, _: u32, msgs: &[Arrival]) -> Cycles {
        self.blocks[msgs[0].idx()] = msgs[0].word;
        0
    }

    fn finish(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.blocks)
    }
}

/// Result of an all-gather.
#[derive(Debug, Clone)]
pub struct AllGatherRun {
    /// Every processor's assembled vector (identical, asserted).
    pub blocks: Vec<u64>,
    pub completion: Cycles,
    pub messages: u64,
}

/// Ring all-gather of one word per processor.
pub fn run_allgather_ring(m: &LogP, values: &[u64], config: SimConfig) -> AllGatherRun {
    let p = m.p;
    assert_eq!(values.len(), p as usize);
    assert!(p >= 2);
    let run = run_steps(Sim::new(*m, config), p - 1, |q| {
        let mut blocks = vec![0; p as usize];
        blocks[q as usize] = values[q as usize];
        Ring { me: q, p, blocks }
    });
    let reference = &run.finals[0].1;
    for (q, blocks, _) in &run.finals {
        assert_eq!(
            blocks, reference,
            "processor {q} assembled a different vector"
        );
    }
    AllGatherRun {
        blocks: reference.clone(),
        completion: run.finals.iter().map(|f| f.2).max().unwrap_or(0),
        messages: run.result.stats.total_msgs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(p: u32) -> Vec<u64> {
        (0..p as u64).map(|i| i * 11 + 3).collect()
    }

    #[test]
    fn scatter_delivers_distinct_values_on_schedule() {
        let m = LogP::new(6, 2, 4, 8).unwrap();
        let run = run_scatter(&m, &vals(8), SimConfig::default());
        for (d, v, _) in &run.received {
            assert_eq!(*v, *d as u64 * 11 + 3);
        }
        assert_eq!(run.completion, scatter_time(&m));
    }

    #[test]
    fn gather_collects_everything() {
        let m = LogP::new(6, 2, 4, 8).unwrap();
        let run = run_gather(&m, &vals(8), SimConfig::default());
        let mut got: Vec<(ProcId, u64)> = run.received.iter().map(|(d, v, _)| (*d, *v)).collect();
        got.sort_unstable();
        assert_eq!(
            got,
            (1..8)
                .map(|d| (d as ProcId, d as u64 * 11 + 3))
                .collect::<Vec<_>>()
        );
        // The root's reception pipeline matches the stream bound.
        assert_eq!(run.completion, scatter_time(&m));
    }

    #[test]
    fn allgather_assembles_identical_vectors() {
        let m = LogP::new(6, 2, 4, 8).unwrap();
        let run = run_allgather_ring(&m, &vals(8), SimConfig::default());
        assert_eq!(run.blocks, vals(8));
        assert_eq!(run.messages, 8 * 7);
        assert_eq!(run.completion, allgather_ring_time(&m));
    }

    #[test]
    fn allgather_correct_under_jitter() {
        let m = LogP::new(10, 2, 3, 8).unwrap();
        for seed in 0..4 {
            let cfg = SimConfig::default().with_jitter(9).with_seed(seed);
            let run = run_allgather_ring(&m, &vals(8), cfg);
            assert_eq!(run.blocks, vals(8), "seed {seed}");
            assert!(run.completion <= allgather_ring_time(&m));
        }
    }

    #[test]
    fn gather_correct_under_jitter() {
        let m = LogP::new(10, 2, 3, 16).unwrap();
        for seed in 0..3 {
            let cfg = SimConfig::default().with_jitter(8).with_seed(seed);
            let run = run_gather(&m, &vals(16), cfg);
            assert_eq!(run.received.len(), 15, "seed {seed}");
        }
    }

    #[test]
    fn analytic_times_are_ordered_sanely() {
        // All-gather moves P-1 blocks through every interface; scatter one
        // block through one interface: all-gather costs more when latency
        // is visible per hop.
        let m = LogP::new(60, 20, 40, 32).unwrap();
        assert!(allgather_ring_time(&m) > scatter_time(&m));
    }
}
