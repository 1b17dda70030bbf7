//! Grid (stencil) computation and the surface-to-volume argument (§6.4).
//!
//! "Wherever problems have a local, regular communication pattern, such
//! as stencil calculation on a grid, it is easy to lay the data out so
//! that only a diminishing fraction of the communication is external to
//! the processor. Basically, the interprocessor communication diminishes
//! like the surface to volume ratio and with large enough problem sizes,
//! the cost of communication becomes trivial."
//!
//! We implement a 1D-decomposed Jacobi iteration on a ring of processors
//! with halo exchange, data-correct on the simulator (verified against a
//! sequential sweep), plus the analytic surface-to-volume cost model the
//! section argues from.

use crate::step::{run_steps, Arrival, Out, Steps};
use logp_core::{Cycles, LogP, ProcId};
use logp_sim::{Sim, SimConfig};

const TAG_HALO: u32 = 0xB0; // an edge value, indexed by the ghost it fills

/// Cost of updating one interior point (3-point stencil: 2 adds + 1 mul
/// at unit flop cost).
pub const POINT_COST: Cycles = 3;

/// Per-iteration analytic time for a block of `b` points per processor:
/// compute `b·POINT_COST` plus two halo messages each way — the
/// communication term is *constant* in `b`, hence the vanishing fraction.
pub fn jacobi_iteration_time(m: &LogP, block: u64) -> Cycles {
    block * POINT_COST + m.point_to_point() + 2 * m.o.max(m.g)
}

/// Fraction of an iteration spent communicating, analytically.
pub fn comm_fraction(m: &LogP, block: u64) -> f64 {
    let total = jacobi_iteration_time(m, block) as f64;
    (total - (block * POINT_COST) as f64) / total
}

/// One rank of the ring: at each step it sends its edge values to its
/// neighbours, takes theirs into its ghost cells and sweeps its block.
struct Jacobi {
    sweeps: u32,
    left: ProcId,
    right: ProcId,
    /// The block between two ghost cells: `u[0]` and `u[b + 1]`.
    u: Vec<f64>,
    scratch: Vec<f64>,
}

impl Steps for Jacobi {
    type Final = Vec<f64>;

    fn send(&mut self, _: u32, out: &mut Out<'_, '_>) {
        // My left edge goes to my left neighbour's right ghost (index 1),
        // my right edge to my right neighbour's left ghost (index 0).
        let b = self.u.len() - 2;
        out.send_f64(self.left, TAG_HALO, 1, self.u[1]);
        out.send_f64(self.right, TAG_HALO, 0, self.u[b]);
    }

    fn expect(&self, _: u32) -> usize {
        2
    }

    fn fold(&mut self, _: u32, halos: &[Arrival]) -> Cycles {
        let b = self.u.len() - 2;
        for h in halos {
            self.u[if h.idx() == 0 { 0 } else { b + 1 }] = h.value();
        }
        for i in 1..=b {
            self.scratch[i] = 0.5 * self.u[i] + 0.25 * (self.u[i - 1] + self.u[i + 1]);
        }
        std::mem::swap(&mut self.u, &mut self.scratch);
        b as u64 * POINT_COST
    }

    fn finish(&mut self) -> Vec<f64> {
        self.u[1..self.u.len() - 1].to_vec()
    }

    fn steps(&self) -> u32 {
        self.sweeps
    }
}

/// Result of a distributed Jacobi run.
#[derive(Debug, Clone)]
pub struct JacobiRun {
    /// The field after `iters` sweeps, concatenated in processor order.
    pub field: Vec<f64>,
    pub completion: Cycles,
    pub messages: u64,
    /// Measured fraction of processor-0's busy time spent on
    /// communication overheads (send + receive).
    pub comm_fraction: f64,
}

/// Run `iters` Jacobi sweeps over a periodic 1D field distributed in
/// blocks of `field.len() / P`.
pub fn run_jacobi(m: &LogP, field: &[f64], iters: u64, config: SimConfig) -> JacobiRun {
    let p = m.p;
    assert!(p >= 2, "halo exchange needs neighbors");
    assert_eq!(field.len() % p as usize, 0, "field must split evenly");
    let block = field.len() / p as usize;
    assert!(block >= 1);
    let sweeps = u32::try_from(iters).expect("one step an iteration");
    let mut run = run_steps(Sim::new(*m, config), 0..m.p, None, |q| {
        let mut u = vec![0.0; block + 2];
        u[1..=block].copy_from_slice(&field[q as usize * block..(q as usize + 1) * block]);
        Jacobi {
            sweeps,
            left: (q + p - 1) % p,
            right: (q + 1) % p,
            scratch: u.clone(),
            u,
        }
    })
    .expect("every rank folds its last step once");
    run.finals.sort_by_key(|f| f.0);
    let result = run.result;
    let st = &result.stats.procs[0];
    let busy = st.busy() as f64;
    JacobiRun {
        field: run.finals.into_iter().flat_map(|f| f.1).collect(),
        completion: result.stats.completion,
        messages: result.stats.total_msgs,
        comm_fraction: if busy == 0.0 {
            0.0
        } else {
            (st.send_overhead + st.recv_overhead) as f64 / busy
        },
    }
}

/// Sequential oracle: `iters` sweeps of the same periodic stencil.
pub fn jacobi_sequential(field: &[f64], iters: u64) -> Vec<f64> {
    let n = field.len();
    let mut u = field.to_vec();
    let mut next = vec![0.0; n];
    for _ in 0..iters {
        for i in 0..n {
            let l = u[(i + n - 1) % n];
            let r = u[(i + 1) % n];
            next[i] = 0.5 * u[i] + 0.25 * (l + r);
        }
        std::mem::swap(&mut u, &mut next);
    }
    u
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.13).sin()).collect()
    }

    #[test]
    fn distributed_jacobi_matches_sequential() {
        let m = LogP::new(6, 2, 4, 4).unwrap();
        let f = field(64);
        for iters in [1u64, 3, 10] {
            let run = run_jacobi(&m, &f, iters, SimConfig::default());
            let seq = jacobi_sequential(&f, iters);
            let err = run
                .field
                .iter()
                .zip(&seq)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(err < 1e-12, "iters={iters}: err {err}");
        }
    }

    #[test]
    fn correct_under_jitter() {
        let m = LogP::new(12, 2, 3, 8).unwrap();
        let f = field(96);
        let seq = jacobi_sequential(&f, 5);
        for seed in 0..3 {
            let cfg = SimConfig::default().with_jitter(10).with_seed(seed);
            let run = run_jacobi(&m, &f, 5, cfg);
            let err = run
                .field
                .iter()
                .zip(&seq)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(err < 1e-12, "seed {seed}");
        }
    }

    #[test]
    fn communication_fraction_vanishes_with_block_size() {
        // §6.4: surface/volume — the measured comm fraction falls as the
        // per-processor block grows.
        let m = LogP::new(60, 20, 40, 4).unwrap();
        let small = run_jacobi(&m, &field(4 * 8), 10, SimConfig::default());
        let large = run_jacobi(&m, &field(4 * 512), 10, SimConfig::default());
        assert!(
            large.comm_fraction < small.comm_fraction / 4.0,
            "comm fraction must fall: {} -> {}",
            small.comm_fraction,
            large.comm_fraction
        );
        assert!(
            large.comm_fraction < 0.05,
            "large blocks must be compute-bound"
        );
    }

    #[test]
    fn analytic_fraction_matches_measured_shape() {
        let m = LogP::new(60, 20, 40, 4).unwrap();
        for block in [8u64, 64, 512] {
            let f = field(4 * block as usize);
            let run = run_jacobi(&m, &f, 10, SimConfig::default());
            let analytic = comm_fraction(&m, block);
            // The measured fraction counts only processor overhead (not
            // latency waiting), so it is bounded by the analytic one.
            assert!(
                run.comm_fraction <= analytic + 0.05,
                "block {block}: measured {} vs analytic {analytic}",
                run.comm_fraction
            );
        }
    }

    #[test]
    fn message_count_is_two_per_proc_per_iter() {
        let m = LogP::new(6, 2, 4, 4).unwrap();
        let run = run_jacobi(&m, &field(32), 7, SimConfig::default());
        assert_eq!(run.messages, 2 * 4 * 7);
    }

    #[test]
    fn iteration_time_formula_is_sane() {
        let m = LogP::new(60, 20, 40, 4).unwrap();
        assert!(jacobi_iteration_time(&m, 1000) > 3000);
        assert!(comm_fraction(&m, 10_000) < 0.01);
        assert!(comm_fraction(&m, 8) > 0.5);
    }
}
