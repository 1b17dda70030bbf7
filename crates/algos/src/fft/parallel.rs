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
//! Outputs are checked against a sequential FFT of the whole input, and
//! correctness must hold under latency jitter (message reordering) — the
//! paper's correctness criterion for LogP algorithms.

use super::compute_model::ComputeModel;
use super::kernel::{fft_in_place, Cplx};
use crate::remap::RemapSchedule;
use logp_core::{Cycles, LogP, ProcId};
use logp_sim::{Ctx, Data, Message, Process, SharedCell, Sim, SimConfig};

/// Tag for remapped FFT elements.
pub const TAG_FFT_ELEM: u32 = 0xFF7;

const TAG_PHASE1: u64 = 1;
const TAG_LOAD: u64 = 2;
const TAG_PHASE3: u64 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Compute1,
    Exchange,
    Compute3,
    Done,
}

struct FftProc {
    n: u64,
    /// Phase-I input in `j1` order (this processor's cyclic rows).
    local: Vec<Cplx>,
    /// Twiddled phase-I output `Y'[k1]`, awaiting transmission.
    y: Vec<Cplx>,
    /// Phase-III staging: `staging[k1_local * P + j2]`.
    staging: Vec<Cplx>,
    /// Flattened send order: (dst, k1) pairs.
    sends: Vec<(ProcId, u64)>,
    next_send: usize,
    expect_msgs: u64,
    received: u64,
    phase: Phase,
    /// Per-element local memory cost during the exchange.
    local_cost: Cycles,
    phase1_cycles: Cycles,
    phase3_cycles: Cycles,
    out: SharedCell<Vec<(u64, f64, f64)>>,
}

impl FftProc {
    fn k1_block(&self, p: u64) -> u64 {
        // Number of k1 values per processor.
        (self.n / p) / p
    }

    fn do_phase1(&mut self, ctx: &mut Ctx<'_>) {
        let p = ctx.procs() as u64;
        let me = ctx.me() as u64;
        let n1 = self.n / p;
        let mut y = std::mem::take(&mut self.local);
        fft_in_place(&mut y);
        for (k1, v) in y.iter_mut().enumerate() {
            *v = v.mul(Cplx::omega(me * k1 as u64, self.n));
        }
        // Stage own block directly.
        let block = self.k1_block(p);
        let my_lo = me * block;
        for k1 in my_lo..my_lo + block {
            let slot = ((k1 - my_lo) * p + me) as usize;
            self.staging[slot] = y[k1 as usize];
        }
        self.y = y;
        debug_assert_eq!(self.sends.len() as u64, n1 - block);
    }

    fn step_exchange(&mut self, ctx: &mut Ctx<'_>) {
        if self.next_send < self.sends.len() {
            ctx.compute(self.local_cost, TAG_LOAD);
        } else {
            self.maybe_start_phase3(ctx);
        }
    }

    fn maybe_start_phase3(&mut self, ctx: &mut Ctx<'_>) {
        if self.phase == Phase::Exchange
            && self.next_send >= self.sends.len()
            && self.received == self.expect_msgs
        {
            self.phase = Phase::Compute3;
            ctx.compute(self.phase3_cycles, TAG_PHASE3);
        }
    }

    fn do_phase3(&mut self, ctx: &mut Ctx<'_>) {
        let p = ctx.procs() as u64;
        let me = ctx.me() as u64;
        let n1 = self.n / p;
        let block = self.k1_block(p);
        let my_lo = me * block;
        let mut results = Vec::with_capacity((block * p) as usize);
        for b in 0..block {
            let k1 = my_lo + b;
            let mut row: Vec<Cplx> =
                self.staging[(b * p) as usize..((b + 1) * p) as usize].to_vec();
            fft_in_place(&mut row);
            for (k2, v) in row.iter().enumerate() {
                let global = k1 + n1 * k2 as u64;
                results.push((global, v.re, v.im));
            }
        }
        self.out.with(|o| o.extend_from_slice(&results));
        self.phase = Phase::Done;
    }
}

impl Process for FftProc {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.compute(self.phase1_cycles, TAG_PHASE1);
    }

    fn on_compute_done(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        match tag {
            TAG_PHASE1 => {
                self.do_phase1(ctx);
                self.phase = Phase::Exchange;
                self.step_exchange(ctx);
            }
            TAG_LOAD => {
                let (dst, k1) = self.sends[self.next_send];
                self.next_send += 1;
                let v = self.y[k1 as usize];
                ctx.send(
                    dst,
                    TAG_FFT_ELEM,
                    Data::Cplx {
                        idx: u32::try_from(k1).expect("run_parallel_fft checked n <= 2^32"),
                        re: v.re,
                        im: v.im,
                    },
                );
                self.step_exchange(ctx);
            }
            TAG_PHASE3 => self.do_phase3(ctx),
            other => unreachable!("unknown compute tag {other}"),
        }
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Ctx<'_>) {
        debug_assert_eq!(msg.tag, TAG_FFT_ELEM);
        let p = ctx.procs() as u64;
        let me = ctx.me() as u64;
        let (k1, re, im) = msg.data.as_cplx();
        let block = self.k1_block(p);
        let b = k1 - me * block;
        let slot = (b * p + msg.src as u64) as usize;
        self.staging[slot] = Cplx::new(re, im);
        self.received += 1;
        self.maybe_start_phase3(ctx);
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

/// Build the staggered/naive send order for one processor: destination
/// blocks of `k1` values, starting block chosen per schedule.
fn send_order(me: ProcId, p: u32, n: u64, schedule: RemapSchedule) -> Vec<(ProcId, u64)> {
    let block = (n / p as u64) / p as u64;
    let start = match schedule {
        RemapSchedule::Naive => 0,
        RemapSchedule::Staggered | RemapSchedule::StaggeredBarrier => me + 1,
    };
    let mut order = Vec::with_capacity(((p as u64 - 1) * block) as usize);
    for bi in 0..p {
        let dst = (start + bi) % p;
        if dst == me {
            continue;
        }
        let lo = dst as u64 * block;
        for k1 in lo..lo + block {
            order.push((dst, k1));
        }
    }
    order
}

/// Run the hybrid-layout FFT on the simulator with real data and verify
/// nothing structurally (callers verify against a reference).
pub fn run_parallel_fft(m: &LogP, input: &[Cplx], spec: &FftRunSpec, config: SimConfig) -> FftRun {
    let p = m.p;
    let n = spec.n;
    assert_eq!(input.len() as u64, n);
    assert!(n.is_power_of_two() && (p as u64).is_power_of_two());
    assert!(
        n <= 1 << 32,
        "a remap element carries a 32-bit index: n = {n} exceeds 2^32"
    );
    assert!(
        n >= (p as u64) * (p as u64),
        "hybrid layout requires n >= P² (n={n}, P={p})"
    );
    let n1 = n / p as u64;
    let block = n1 / p as u64;
    let cm = spec.compute;
    let phase1_cycles = cm.map_or(0, |c| c.phase_cycles(n1, 1));
    let phase3_cycles = cm.map_or(0, |c| c.phase_cycles(p as u64, block));

    let out: SharedCell<Vec<(u64, f64, f64)>> = SharedCell::new();
    let mut sim = Sim::new(*m, config);
    for q in 0..p {
        // Cyclic rows of processor q, in j1 order.
        let local: Vec<Cplx> = (0..n1)
            .map(|j1| input[(j1 * p as u64 + q as u64) as usize])
            .collect();
        sim.set_process(
            q,
            Box::new(FftProc {
                n,
                local,
                y: Vec::new(),
                staging: vec![Cplx::ZERO; (block * p as u64) as usize],
                sends: send_order(q, p, n, spec.schedule),
                next_send: 0,
                expect_msgs: (p as u64 - 1) * block,
                received: 0,
                phase: Phase::Compute1,
                local_cost: spec.local_cost,
                phase1_cycles,
                phase3_cycles,
                out: out.clone(),
            }),
        );
    }
    let result = sim.run().expect("FFT terminates");
    let collected = out.get();
    assert_eq!(
        collected.len() as u64,
        n,
        "every output index must be produced"
    );
    let mut output = vec![Cplx::ZERO; n as usize];
    for (idx, re, im) in collected {
        output[idx as usize] = Cplx::new(re, im);
    }
    FftRun {
        output,
        completion: result.stats.completion,
        messages: result.stats.total_msgs,
        total_stall: result.stats.procs.iter().map(|s| s.stall).sum(),
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
        for schedule in [RemapSchedule::Naive, RemapSchedule::Staggered] {
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
