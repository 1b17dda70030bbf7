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
//!
//! All three are step programs (`crate::step`); scatter and gather are
//! a single step of point-to-point sends.

use crate::step::{run_steps, Arrival, Out, Steps};
use logp_core::cost::stream_time;
use logp_core::{Cycles, LogP, ProcId};
use logp_sim::{Sim, SimConfig};

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
// Scatter and gather.
// ---------------------------------------------------------------------

/// One rank of a scatter or a gather: a single step in which it sends
/// every `(destination, owner, word)` of `sends` and keeps the `expect`
/// words it receives, each filed under the rank that owns it.
struct Round {
    tag: u32,
    sends: Vec<(ProcId, ProcId, u64)>,
    expect: usize,
    got: Vec<(ProcId, u64)>,
}

impl Steps for Round {
    type Final = Vec<(ProcId, u64)>;

    fn send(&mut self, _: u32, out: &mut Out<'_, '_>) {
        for &(dst, owner, word) in &self.sends {
            out.send(dst, self.tag, owner as usize, word);
        }
    }

    fn expect(&self, _: u32) -> usize {
        self.expect
    }

    fn fold(&mut self, _: u32, msgs: &[Arrival]) -> Cycles {
        self.got = msgs.iter().map(|a| (a.idx() as ProcId, a.word)).collect();
        0
    }

    fn finish(&mut self) -> Vec<(ProcId, u64)> {
        std::mem::take(&mut self.got)
    }

    fn steps(&self) -> u32 {
        1
    }
}

/// Result of a scatter/gather run.
#[derive(Debug, Clone)]
pub struct CollectiveRun {
    /// (processor, value, time) triples in arrival order: a scatter's
    /// leaf and the time its word arrived, or a gather's leaf and the
    /// time the root held every word.
    pub received: Vec<(ProcId, u64, Cycles)>,
    pub completion: Cycles,
}

/// Run one round of `rank(q) = (sends, expect)` on every processor.
fn run_round(
    m: &LogP,
    config: SimConfig,
    tag: u32,
    rank: impl Fn(ProcId) -> (Vec<(ProcId, ProcId, u64)>, usize),
) -> CollectiveRun {
    let run = run_steps(Sim::new(*m, config), 0..m.p, None, |q| {
        let (sends, expect) = rank(q);
        Round {
            tag,
            sends,
            expect,
            got: Vec::new(),
        }
    })
    .expect("every rank folds its last step once");
    let received: Vec<_> = run
        .finals
        .into_iter()
        .flat_map(|(_, got, t)| got.into_iter().map(move |(q, v)| (q, v, t)))
        .collect();
    assert_eq!(received.len(), m.p as usize - 1);
    CollectiveRun {
        received,
        completion: run.result.stats.completion,
    }
}

/// Scatter `values[d]` to processor `d` from processor 0.
pub fn run_scatter(m: &LogP, values: &[u64], config: SimConfig) -> CollectiveRun {
    assert_eq!(values.len(), m.p as usize);
    run_round(m, config, TAG_SCATTER, |q| match q {
        0 => ((1..m.p).map(|d| (d, d, values[d as usize])).collect(), 0),
        _ => (Vec::new(), 1),
    })
}

/// Gather one word from every processor at processor 0.
pub fn run_gather(m: &LogP, values: &[u64], config: SimConfig) -> CollectiveRun {
    assert_eq!(values.len(), m.p as usize);
    run_round(m, config, TAG_GATHER, |q| match q {
        0 => (Vec::new(), m.p as usize - 1),
        _ => (vec![(0, q, values[q as usize])], 0),
    })
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

    fn steps(&self) -> u32 {
        self.p - 1
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
    let run = run_steps(Sim::new(*m, config), 0..m.p, None, |q| {
        let mut blocks = vec![0; p as usize];
        blocks[q as usize] = values[q as usize];
        Ring { me: q, p, blocks }
    })
    .expect("every rank folds its last step once");
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
