//! The hybrid-layout parallel FFT, executed with real data (§4.1).
//!
//! The hybrid layout — cyclic phase, one all-to-all remap, blocked phase —
//! is the distributed Cooley–Tukey factorization `n = n1 · n2` with
//! `n1 = n/P`, `n2 = P`:
//!
//! 1. **Phase I** (cyclic, fully local): processor `j2` holds
//!    `x[P·j1 + j2]` and computes one `n/P`-point FFT over `j1`, then
//!    scales by the twiddles `ω_n^{j2·k1}`.
//! 2. **Remap**: element `(k1, j2)` moves to the processor owning the
//!    block of `k1` — every processor sends `n/P²` elements to every
//!    other processor (Figure 5's `remap`).
//! 3. **Phase III** (blocked, fully local): for each owned `k1`, a
//!    `P`-point FFT over `j2` produces `X[k1 + (n/P)·k2]`.
//!
//! The remap is [`crate::remap`]'s one program, so the FFT honours every
//! [`RemapSchedule`], barriers included. Phase I runs on a rank's rows
//! before the simulation starts and phase III when the rank is done;
//! with a [`ComputeModel`] their cycles are charged before the rank's
//! first element and after it is done.
//!
//! Outputs are checked against a sequential FFT of the whole input, and
//! correctness must hold under latency jitter (message reordering) — the
//! paper's correctness criterion for LogP algorithms.

use super::compute_model::ComputeModel;
use super::kernel::{fft_in_place, Cplx};
use crate::remap::{remap, Elements, RemapSchedule, RemapSpec};
use logp_core::{Cycles, LogP, ProcId};
use logp_sim::{Data, Sim, SimConfig};

/// One rank's FFT elements: the twiddled phase-I outputs `Y'[k1]` it
/// sends, and the phase-III rows it stages.
struct Rows {
    me: u64,
    p: u64,
    /// `k1` values a rank owns in phase III, `n/P²`.
    block: u64,
    y: Vec<Cplx>,
    /// Phase-III staging: `staging[(k1 - me·block) · P + j2]`.
    staging: Vec<Cplx>,
}

impl Rows {
    /// Phase I on the cyclic rows of `me` (`x[P·j1 + me]` in `j1`
    /// order): an `n/P`-point FFT scaled by `ω_n^{me·k1}`, with the
    /// rank's own block staged at once.
    fn phase1(input: &[Cplx], me: u64, p: u64) -> Rows {
        let n = input.len() as u64;
        let block = n / p / p;
        let mut y: Vec<Cplx> = (0..n / p).map(|j1| input[(j1 * p + me) as usize]).collect();
        fft_in_place(&mut y);
        for (k1, v) in y.iter_mut().enumerate() {
            *v = v.mul(Cplx::omega(me * k1 as u64, n));
        }
        let mut staging = vec![Cplx::ZERO; (block * p) as usize];
        for b in 0..block {
            staging[(b * p + me) as usize] = y[(me * block + b) as usize];
        }
        Rows {
            me,
            p,
            block,
            y,
            staging,
        }
    }
}

impl Elements for Rows {
    /// The rank's `P`-point phase-III transforms, row after row.
    type Final = Vec<Cplx>;

    /// Element `i` is `k1 = dst·block + i mod block`: a destination's
    /// block is sent in `k1` order.
    fn element(&mut self, i: u64, dst: ProcId) -> Data {
        let k1 = dst as u64 * self.block + i % self.block;
        let v = self.y[k1 as usize];
        Data::Cplx {
            idx: u32::try_from(k1).expect("run_parallel_fft checked n <= 2^32"),
            re: v.re,
            im: v.im,
        }
    }

    fn receive(&mut self, src: ProcId, data: &Data) {
        let (k1, re, im) = data.as_cplx();
        let slot = (k1 - self.me * self.block) * self.p + src as u64;
        self.staging[slot as usize] = Cplx::new(re, im);
    }

    fn finish(&mut self) -> Vec<Cplx> {
        let mut rows = std::mem::take(&mut self.staging);
        for row in rows.chunks_mut(self.p as usize) {
            fft_in_place(row);
        }
        rows
    }
}

/// Parameters of a parallel FFT run.
#[derive(Debug, Clone, Copy)]
pub struct FftRunSpec {
    /// Transform size (power of two, `>= P²`).
    pub n: u64,
    /// Remap communication schedule.
    pub schedule: RemapSchedule,
    /// Per-element load/store cost during the remap, cycles.
    pub local_cost: Cycles,
    /// Charge phase computation at this model's rates (None: zero-cost
    /// compute phases, for pure-communication studies).
    pub compute: Option<ComputeModel>,
}

/// Result of a data-carrying parallel FFT run.
#[derive(Debug, Clone)]
pub struct FftRun {
    /// The transform output in natural index order.
    pub output: Vec<Cplx>,
    /// Simulated completion time.
    pub completion: Cycles,
    /// Messages exchanged (must be `n - n/P`).
    pub messages: u64,
    /// Aggregate capacity-stall cycles (contention indicator).
    pub total_stall: Cycles,
}

/// Run the hybrid-layout FFT on the simulator with real data and verify
/// nothing structurally (callers verify against a reference).
pub fn run_parallel_fft(m: &LogP, input: &[Cplx], spec: &FftRunSpec, config: SimConfig) -> FftRun {
    let p = m.p as u64;
    let n = spec.n;
    assert_eq!(input.len() as u64, n);
    assert!(n.is_power_of_two() && p.is_power_of_two());
    assert!(
        n <= 1 << 32,
        "a remap element carries a 32-bit index: n = {n} exceeds 2^32"
    );
    assert!(n >= p * p, "hybrid layout requires n >= P² (n={n}, P={p})");
    let (n1, block) = (n / p, n / p / p);
    let work = spec.compute.map_or((0, 0), |c| {
        (c.phase_cycles(n1, 1), c.phase_cycles(p, block))
    });
    let remap_spec = RemapSpec {
        elems_per_pair: block,
        local_cost: spec.local_cost,
        schedule: spec.schedule,
    };
    let run = remap(Sim::new(*m, config), &remap_spec, Some(work), |q| {
        Rows::phase1(input, q as u64, p)
    });
    // Rank q's row b holds X[k1 + n1·k2] for k1 = q·block + b.
    let mut output = vec![Cplx::ZERO; n as usize];
    for (q, rows, _) in &run.finals {
        for (i, &v) in rows.iter().enumerate() {
            let (b, k2) = (i as u64 / p, i as u64 % p);
            output[(*q as u64 * block + b + n1 * k2) as usize] = v;
        }
    }
    FftRun {
        output,
        completion: run.result.stats.completion,
        messages: run.result.stats.total_msgs,
        total_stall: run.result.stats.procs.iter().map(|s| s.stall).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::kernel::{dft_naive, max_error};

    fn signal(n: u64) -> Vec<Cplx> {
        (0..n)
            .map(|i| Cplx::new((i as f64 * 0.137).sin(), (i as f64 * 0.291).cos() * 0.5))
            .collect()
    }

    fn spec(n: u64, schedule: RemapSchedule) -> FftRunSpec {
        FftRunSpec {
            n,
            schedule,
            local_cost: 1,
            compute: None,
        }
    }

    #[test]
    fn parallel_fft_matches_naive_dft() {
        let n = 64;
        let m = LogP::new(6, 2, 4, 4).unwrap();
        let input = signal(n);
        let run = run_parallel_fft(
            &m,
            &input,
            &spec(n, RemapSchedule::Staggered),
            SimConfig::default(),
        );
        let reference = dft_naive(&input);
        let err = max_error(&run.output, &reference);
        assert!(err < 1e-9, "parallel FFT error {err}");
        assert_eq!(run.messages, n - n / 4);
    }

    #[test]
    fn parallel_fft_matches_sequential_fft_larger() {
        let n = 4096;
        let m = LogP::new(60, 20, 40, 16).unwrap();
        let input = signal(n);
        let run = run_parallel_fft(
            &m,
            &input,
            &spec(n, RemapSchedule::Staggered),
            SimConfig::default(),
        );
        let mut reference = input.clone();
        fft_in_place(&mut reference);
        let err = max_error(&run.output, &reference);
        assert!(err < 1e-7, "parallel FFT error {err}");
    }

    #[test]
    fn correct_under_jitter_and_any_schedule() {
        let n = 256;
        let m = LogP::new(12, 2, 3, 8).unwrap();
        let input = signal(n);
        let mut reference = input.clone();
        fft_in_place(&mut reference);
        for schedule in [
            RemapSchedule::Naive,
            RemapSchedule::Staggered,
            RemapSchedule::StaggeredBarrier,
        ] {
            for seed in [3u64, 17] {
                let cfg = SimConfig::default().with_jitter(11).with_seed(seed);
                let run = run_parallel_fft(&m, &input, &spec(n, schedule), cfg);
                let err = max_error(&run.output, &reference);
                assert!(err < 1e-8, "{schedule:?} seed {seed}: error {err}");
            }
        }
    }

    #[test]
    fn naive_schedule_stalls_more_than_staggered() {
        let n = 1 << 12;
        let m = LogP::new(60, 20, 40, 16).unwrap();
        let input = signal(n);
        let naive = run_parallel_fft(
            &m,
            &input,
            &FftRunSpec {
                n,
                schedule: RemapSchedule::Naive,
                local_cost: 10,
                compute: None,
            },
            SimConfig::default(),
        );
        let stag = run_parallel_fft(
            &m,
            &input,
            &FftRunSpec {
                n,
                schedule: RemapSchedule::Staggered,
                local_cost: 10,
                compute: None,
            },
            SimConfig::default(),
        );
        assert!(
            naive.total_stall > 2 * stag.total_stall,
            "naive {} vs staggered {}",
            naive.total_stall,
            stag.total_stall
        );
        assert!(naive.completion > stag.completion);
        assert_eq!(naive.output.len(), stag.output.len());
    }

    #[test]
    fn barrier_schedule_bounds_drift_contention() {
        // The FFT's remap is the remap program, so its barrier schedule
        // holds drifting processors in step as `run_remap`'s does.
        let n = 1024;
        let m = LogP::new(60, 20, 40, 8).unwrap();
        let input = signal(n);
        let run = |schedule| {
            let spec = FftRunSpec {
                n,
                schedule,
                local_cost: 10,
                compute: None,
            };
            let cfg = SimConfig::default().with_drift(150).with_seed(11);
            run_parallel_fft(&m, &input, &spec, cfg)
        };
        let stag = run(RemapSchedule::Staggered);
        let sync = run(RemapSchedule::StaggeredBarrier);
        assert!(
            sync.total_stall < stag.total_stall,
            "barriers must bound drift contention: sync {} vs stag {}",
            sync.total_stall,
            stag.total_stall
        );
        assert!(max_error(&sync.output, &stag.output) < 1e-12);
    }

    #[test]
    fn compute_phases_add_time_but_not_errors() {
        let n = 1024;
        let m = LogP::new(60, 20, 40, 8).unwrap();
        let input = signal(n);
        let without = run_parallel_fft(
            &m,
            &input,
            &spec(n, RemapSchedule::Staggered),
            SimConfig::default(),
        );
        let with = run_parallel_fft(
            &m,
            &input,
            &FftRunSpec {
                n,
                schedule: RemapSchedule::Staggered,
                local_cost: 10,
                compute: Some(ComputeModel::cm5()),
            },
            SimConfig::default(),
        );
        assert!(with.completion > without.completion);
        assert!(max_error(&with.output, &without.output) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "requires n >= P²")]
    fn rejects_too_small_transforms() {
        let m = LogP::new(6, 2, 4, 16).unwrap();
        run_parallel_fft(
            &m,
            &signal(64),
            &spec(64, RemapSchedule::Staggered),
            SimConfig::default(),
        );
    }
}
