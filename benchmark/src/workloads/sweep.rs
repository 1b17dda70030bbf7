//! `sweep_small`: how the toolkit is actually driven — `sweep_map` over a
//! grid of machines (fixed; the seed nudges L and g), four collectives per
//! point with closed form ≡
//! simulation asserted, then the analytic half (`core::summation`,
//! `core::broadcast`). Each event loop is microseconds; per-run build
//! cost, the DPs and the runner do the work.

use super::{ratio, secs, SEED_GRID, SEED_SIM};
use crate::job::{hash_u64s, Job};
use crate::stats;
use logp_algos::allreduce::{run_allreduce_doubling, run_allreduce_reduce_bcast};
use logp_algos::broadcast::{run_optimal_broadcast, run_shape_broadcast};
use logp_core::broadcast::{
    binomial_children, optimal_broadcast_time, optimal_broadcast_tree, shape_broadcast_time,
    TreeShape,
};
use logp_core::hier::{eval_allreduce, Hierarchy};
use logp_core::rng::CounterRng;
use logp_core::summation::{min_sum_time, optimal_sum_schedule};
use logp_core::LogP;
use logp_sim::{sweep_map, SimConfig, SimResult, Threads};
use std::time::Instant;

/// Values summed by the analytic half.
const SUM_INPUTS: u64 = 1024;
/// The summation recurrence is super-linear in P (24 s at P = 256 in
/// sizing), so the analytic half stops here on purpose.
const SUM_MAX_P: u32 = 64;

pub struct Sweep {
    machines: Vec<LogP>,
    /// log2 of the largest broadcast tree built.
    tree_log: u32,
    config: SimConfig,
}

pub fn gen(job: &Job) -> Sweep {
    let n = job.scale.pick(8, 320, 640);
    // The grid is the same for every seed — the cost of a point (the
    // summation DP above all) swings several-fold with (L, o, g, P), and a
    // grid redrawn per seed made runs with different seeds incomparable
    // (IQR ÷ median of 17 % on `wall_s`, 48 % on `setup_s`). The seed only
    // nudges L and g, enough to move every simulated outcome.
    let mut grid = CounterRng::new(0x4752_4944); // "GRID"
    let mut nudge = CounterRng::new(job.derive(SEED_GRID));
    let machines = (0..n)
        .map(|i| {
            let l = 2 + grid.next_in(196) + nudge.next_in(2);
            let o = 1 + grid.next_in(19);
            let g = 2 + grid.next_in(37) + nudge.next_in(1);
            // Powers of two (recursive doubling needs them), each size
            // equally often.
            let p = 8u32 << (i % 8);
            LogP::new(l, o, g, p).expect("valid model")
        })
        .collect();
    Sweep {
        machines,
        tree_log: job.scale.pick(10, 16, 18),
        config: SimConfig::default().with_seed(job.derive(SEED_SIM)),
    }
}

/// What one grid point hands back across the (possibly threaded) map.
#[derive(Default, Clone)]
struct Point {
    attempted: u32,
    failed: u32,
    loop_ns: u64,
    msgs: u64,
    events: u64,
    stall_cycles: u64,
    max_inflight_dst: u64,
    /// Hash of the four completion times.
    signature: u64,
    micros: f64,
}

impl Point {
    fn tally(&mut self, r: &SimResult) {
        self.loop_ns += r.vitals.wall_ns;
        self.msgs += r.stats.total_msgs;
        self.events += r.stats.events;
        self.stall_cycles += r.stats.procs.iter().map(|p| p.stall).sum::<u64>();
        self.max_inflight_dst = self.max_inflight_dst.max(r.stats.max_inflight_per_dst);
    }

    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u32::from(!ok);
    }
}

fn point(m: &LogP, config: &SimConfig) -> Point {
    let t0 = Instant::now();
    let mut pt = Point::default();
    let p = m.p;
    let values: Vec<f64> = (0..p).map(|i| (i % 7) as f64).collect();
    let sum: f64 = values.iter().sum();

    let opt = run_optimal_broadcast(m, config.clone());
    pt.tally(&opt.result);
    pt.check(opt.completion == optimal_broadcast_time(m));

    let bin = run_shape_broadcast(m, TreeShape::Binomial, config.clone());
    pt.tally(&bin.result);
    pt.check(bin.completion == shape_broadcast_time(m, TreeShape::Binomial));

    // Reduce up the binomial tree, broadcast down the optimal one: the
    // flat machine is a depth-1 hierarchy to the tree evaluator.
    let rb = run_allreduce_reduce_bcast(m, &values, config.clone());
    pt.tally(&rb.result);
    let up: Vec<_> = (0..p).map(|q| binomial_children(q, p)).collect();
    let down = optimal_broadcast_tree(m).children();
    let want = eval_allreduce(&Hierarchy::flat(m), &up, &down);
    pt.check(rb.value == sum && Some(rb.completion) == want.into_iter().max());

    let dbl = run_allreduce_doubling(m, &values, config.clone());
    pt.tally(&dbl.result);
    pt.check(dbl.value == sum && dbl.messages == p as u64 * p.trailing_zeros() as u64);

    pt.signature = hash_u64s([
        opt.completion,
        bin.completion,
        rb.completion,
        dbl.completion,
    ]);
    drop((opt, bin, rb, dbl));
    pt.micros = t0.elapsed().as_secs_f64() * 1e6;
    pt
}

fn sim_phase(w: &Sweep, threads: usize) -> (Vec<Point>, f64) {
    let t0 = Instant::now();
    let points = sweep_map(Threads::Fixed(threads), &w.machines, |m| {
        point(m, &w.config)
    });
    (points, t0.elapsed().as_secs_f64())
}

pub fn run(job: &mut Job, w: &Sweep) {
    // One thread for the gated number: two-thread phases on a shared
    // 2-core host varied by more than a tenth. The 2-thread run is a
    // probe.
    let ((points, _), phase_ns) = job.span("sim.runner.sweep_map", |_| sim_phase(w, 1));
    let mut closed_form_checks = 0u64;
    let mut phase_loop_ns = 0u64;
    for pt in &points {
        phase_loop_ns += pt.loop_ns;
        job.msgs += pt.msgs;
        job.events += pt.events;
        job.stall_cycles += pt.stall_cycles;
        job.max_inflight_dst = job.max_inflight_dst.max(pt.max_inflight_dst);
        closed_form_checks += pt.attempted as u64;
    }
    job.loop_ns += phase_loop_ns;
    job.build_ns += phase_ns.saturating_sub(phase_loop_ns);
    // One check per grid point and collective; a failure names its
    // machine.
    for (m, pt) in w.machines.iter().zip(&points) {
        let name = if pt.failed > 0 {
            format!("sweep.closed_form@{m}")
        } else {
            String::new()
        };
        for k in 0..pt.attempted {
            job.check(&name, k >= pt.failed);
        }
    }
    job.fp("points", points.len() as u64);
    job.fp("msgs", job.msgs);
    job.fp("signature", hash_u64s(points.iter().map(|pt| pt.signature)));

    // The analytic half.
    let small: Vec<&LogP> = w.machines.iter().filter(|m| m.p <= SUM_MAX_P).collect();
    let mut point_ms_max = 0.0f64;
    let (deadlines, min_time_ns) = job.span("core.summation.min_time", |_| {
        small
            .iter()
            .map(|m| {
                let t0 = Instant::now();
                let t = min_sum_time(m, SUM_INPUTS, m.p);
                point_ms_max = point_ms_max.max(t0.elapsed().as_secs_f64() * 1e3);
                t
            })
            .collect::<Vec<_>>()
    });
    let (covered, schedule_ns) = job.span("core.summation.schedule", |_| {
        small
            .iter()
            .zip(&deadlines)
            .map(|(m, &t)| {
                let s = optimal_sum_schedule(m, t);
                s.deadline == t && s.total_inputs >= SUM_INPUTS && s.procs() <= m.p
            })
            .collect::<Vec<_>>()
    });
    for ok in covered {
        job.check("sweep.sum_schedule_meets_deadline", ok);
        closed_form_checks += 1;
    }
    job.fp("sum_deadlines_hash", hash_u64s(deadlines.iter().copied()));

    let (times, time_ns) = job.span("core.broadcast.time", |_| {
        w.machines
            .iter()
            .map(optimal_broadcast_time)
            .collect::<Vec<_>>()
    });
    job.fp("bcast_times_hash", hash_u64s(times.iter().copied()));
    // Trees at P = 2^10 … 2^tree_log on the grid's first machines.
    let (trees_ok, tree_ns) = job.span("core.broadcast.tree_sweep", |_| {
        (10..=w.tree_log)
            .zip(w.machines.iter().cycle())
            .map(|(log_p, m)| {
                let big = m.with_p(1 << log_p);
                let tree = optimal_broadcast_tree(&big);
                tree.completion() == optimal_broadcast_time(&big)
                    && tree.parent.len() == big.p as usize
            })
            .collect::<Vec<_>>()
    });
    for ok in trees_ok {
        job.check("sweep.tree_meets_closed_form", ok);
        closed_form_checks += 1;
    }

    if job.traced {
        let micros: Vec<f64> = points.iter().map(|pt| pt.micros).collect();
        job.set("sim.runner.points", points.len() as f64);
        job.set("sim.runner.sim_phase_s", secs(phase_ns));
        job.set("sim.runner.point_us_p50", stats::median(&micros));
        job.set("sim.runner.point_us_p95", stats::percentile(&micros, 95.0));
        job.set(
            "sim.runner.build_share",
            1.0 - ratio(phase_loop_ns as f64, phase_ns as f64),
        );
        job.set("core.summation.min_time_s", secs(min_time_ns));
        job.set("core.summation.point_ms_max", point_ms_max);
        job.set("core.summation.schedule_s", secs(schedule_ns));
        job.set("core.broadcast.time_s", secs(time_ns));
        job.set("core.broadcast.tree_sweep_s", secs(tree_ns));
        job.set("core.closed_form_checks", closed_form_checks as f64);
    }
}

/// The simulation phase on one thread ÷ on two (base = one thread), with
/// the per-point results required to be identical.
pub fn probes(job: &mut Job, w: &Sweep) {
    // Fastest of two per thread count: host noise only ever adds.
    let (mut one, mut two) = (f64::INFINITY, f64::INFINITY);
    let mut same = true;
    for _ in 0..2 {
        let (a, ta) = sim_phase(w, 1);
        let (b, tb) = sim_phase(w, 2);
        same &= a.iter().zip(&b).all(|(x, y)| x.signature == y.signature);
        one = one.min(ta);
        two = two.min(tb);
    }
    job.check("sweep.thread_count_invariant", same);
    job.set("sim.runner.speedup_t2", ratio(one, two));
}
