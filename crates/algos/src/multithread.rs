//! Multithreading as latency masking, bounded by the capacity constraint
//! (§3.2).
//!
//! "The technique of multithreading is often suggested as a way of
//! masking latency... the capacity constraint allows multithreading to be
//! employed only up to a limit of L/g virtual processors."
//!
//! The experiment: one client processor simulates `v` virtual processors,
//! each repeatedly issuing a remote read (request + reply, `2L + 4o`
//! round trip) against a memory processor. Each virtual processor has one
//! outstanding request. Throughput grows with `v` while requests pipeline
//! into the round-trip window and saturates at one operation per `g`.
//!
//! Note on the paper's `L/g` figure: the capacity constraint bounds
//! *one-way in-flight* messages per endpoint at `⌈L/g⌉`, which is what
//! caps each direction of this pipeline. A full remote read spans the
//! request flight, the reply flight and four overheads, so the number of
//! virtual processors needed to saturate is the round trip over the gap,
//! [`saturation_threads`] = `⌈(2L + 4o)/g⌉` — beyond it extra threads
//! buy nothing, exactly the plateau the paper predicts.
//!
//! The client is an [`AmClient`] of the [`crate::am`] veneer and the
//! memory processor is that veneer's memory node: every operation is an
//! [`AmCtx::read`] of cell 0 on processor 1.

use crate::am::{run_two_node, AmClient, AmCtx};
use logp_core::{Cycles, LogP};
use logp_sim::runner::{sweep_map, Threads};
use logp_sim::{SharedCell, SimConfig};

/// `virtual_procs` virtual processors, each with one remote read
/// outstanding until `total_ops` have been issued.
struct Client {
    virtual_procs: u64,
    remaining_to_issue: u64,
    completed: u64,
    total_ops: u64,
    finished_at: SharedCell<Cycles>,
}

impl AmClient for Client {
    fn on_start(&mut self, am: &mut AmCtx<'_, '_>) {
        // Launch one outstanding request per virtual processor.
        let initial = self.virtual_procs.min(self.remaining_to_issue);
        for _ in 0..initial {
            am.read(1, 0);
        }
        self.remaining_to_issue -= initial;
    }

    fn on_value(&mut self, _req: u64, _value: f64, am: &mut AmCtx<'_, '_>) {
        self.completed += 1;
        if self.remaining_to_issue > 0 {
            self.remaining_to_issue -= 1;
            am.read(1, 0);
        } else if self.completed == self.total_ops {
            let now = am.now();
            self.finished_at.with(|t| *t = now);
        }
    }
}

/// Result of one (v, ops) configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaskingPoint {
    pub virtual_procs: u64,
    /// Completed remote reads.
    pub ops: u64,
    /// Total simulated time.
    pub completion: Cycles,
    /// Remote reads per 1000 cycles.
    pub throughput_kops: f64,
}

/// Measure remote-read throughput with `v` virtual processors.
pub fn masking_throughput(m: &LogP, v: u64, ops: u64, config: SimConfig) -> MaskingPoint {
    assert!(m.p >= 2, "needs a client and a memory processor");
    let finished: SharedCell<Cycles> = SharedCell::new();
    let client = Client {
        virtual_procs: v,
        remaining_to_issue: ops,
        completed: 0,
        total_ops: ops,
        finished_at: finished.clone(),
    };
    let (_, end) = run_two_node(m, vec![0.0], client, config);
    let completion = finished.get().max(end);
    MaskingPoint {
        virtual_procs: v,
        ops,
        completion,
        throughput_kops: ops as f64 / completion as f64 * 1000.0,
    }
}

/// Number of virtual processors at which remote-read throughput
/// saturates: the round trip divided by the gap.
pub fn saturation_threads(m: &LogP) -> u64 {
    m.remote_read().div_ceil(m.g).max(1)
}

/// Sweep v = 1..=max_v, producing the saturation curve of §3.2. Each
/// point is an independent simulation, so the sweep fans across
/// `threads` workers; points come back in `v` order regardless of the
/// thread count.
pub fn masking_sweep(
    m: &LogP,
    max_v: u64,
    ops: u64,
    config: SimConfig,
    threads: Threads,
) -> Vec<MaskingPoint> {
    let vs: Vec<u64> = (1..=max_v).collect();
    sweep_map(threads, &vs, |&v| {
        masking_throughput(m, v, ops, config.clone())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_throughput_is_round_trip_bound() {
        // v = 1: each op takes the full round trip 2(2o + L).
        let m = LogP::new(20, 2, 2, 2).unwrap();
        let ops = 50;
        let pt = masking_throughput(&m, 1, ops, SimConfig::default());
        let rtt = 2 * m.point_to_point();
        assert!(
            pt.completion >= ops * rtt && pt.completion <= ops * rtt + rtt,
            "completion {} vs {} expected",
            pt.completion,
            ops * rtt
        );
    }

    #[test]
    fn throughput_grows_then_saturates() {
        let m = LogP::new(32, 1, 4, 2).unwrap();
        let limit = saturation_threads(&m); // (64 + 4)/4 = 17
        let pts = masking_sweep(&m, 2 * limit, 400, SimConfig::default(), Threads::Fixed(2));
        // Strictly improving in the unsaturated regime...
        for w in pts[..(limit / 2) as usize].windows(2) {
            assert!(
                w[1].throughput_kops > w[0].throughput_kops * 1.05,
                "throughput should grow below the limit: {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
        // ...and flat beyond the saturation point.
        let at_limit = pts[limit as usize - 1].throughput_kops;
        let beyond = pts.last().expect("nonempty").throughput_kops;
        assert!(
            (beyond - at_limit).abs() / at_limit < 0.10,
            "beyond the saturation limit extra threads must not help: {at_limit} vs {beyond}"
        );
    }

    #[test]
    fn sweep_is_thread_count_independent() {
        let m = LogP::new(16, 1, 4, 2).unwrap();
        let serial = masking_sweep(&m, 6, 60, SimConfig::default(), Threads::Fixed(1));
        let parallel = masking_sweep(&m, 6, 60, SimConfig::default(), Threads::Fixed(4));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn saturated_throughput_is_one_op_per_gap() {
        // At saturation the client issues one request per g (the
        // reception of replies shares the same processor, so the bound is
        // one op per max(g, 2o + ...) — with tiny o, per g... each op
        // costs the client one send (o) + one receive (o) with gap g
        // between sends: ops per max(g, 2o).
        let m = LogP::new(64, 1, 4, 2).unwrap();
        let pt = masking_throughput(&m, 32, 500, SimConfig::default());
        let per_op = m.g.max(2 * m.o);
        let ideal = 1000.0 / per_op as f64;
        assert!(
            pt.throughput_kops > 0.8 * ideal && pt.throughput_kops <= ideal * 1.02,
            "throughput {} vs ideal {}",
            pt.throughput_kops,
            ideal
        );
    }
}
