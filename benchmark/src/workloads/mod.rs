//! The seven workloads. Each is three functions: `gen` makes the inputs
//! from the job's seed (off the clock), `run` is the user-visible run the
//! end-to-end metrics time (inputs in hand → results checked), and
//! `probes` — traced jobs only, after `run` — measures the alternate
//! configurations whose ratios predict what a later design change costs.

pub mod coll;
pub mod hier;
pub mod obs;
pub mod p2p;
pub mod sweep;
pub mod wl;

use crate::job::Job;
use crate::trace;
use logp_sim::{ObsAggregate, Sim, SimResult, SimStats};
use std::time::Instant;

// Purposes for `Job::derive`.
pub const SEED_SIM: u64 = 1;
pub const SEED_TRAFFIC: u64 = 2;
pub const SEED_VALUES: u64 = 3;
pub const SEED_FAULTS: u64 = 4;
pub const SEED_WL: u64 = 5;
pub const SEED_GRID: u64 = 6;
pub const SEED_MACHINE: u64 = 7;

/// What is kept of one simulation once its bulky parts are dropped.
pub struct SimOut {
    pub stats: SimStats,
    pub aggregate: Option<ObsAggregate>,
    pub loop_ns: u64,
}

/// Build a simulator with `build`, run it, tally it: the
/// `Sim::new`/`set_all`/`run` layer, timed as one simulation call with
/// construction and the event loop as child spans.
pub fn run_sim(job: &mut Job, name: &'static str, build: impl FnOnce() -> Sim) -> SimOut {
    let (out, _, loop_ns) = job.sim_call(name, |j| {
        let (sim, _) = j.span("sim.engine.new", |_| build());
        let (res, _) = j.span("sim.engine.run", |_| {
            sim.run().expect("benchmark workloads run to completion")
        });
        j.tally(&res);
        let SimResult {
            stats, aggregate, ..
        } = res;
        (stats, aggregate)
    });
    SimOut {
        stats: out.0,
        aggregate: out.1,
        loop_ns,
    }
}

/// Event-loop time of each configuration, for a probe ratio: every
/// configuration runs `reps` times, interleaved so drift hits all alike,
/// and the fastest loop time (s) is kept (host noise only ever adds).
/// Probe runs are not tallied into the job's totals. `run(i)` returns
/// configuration `i`'s result.
pub fn probe_loops(
    reps: usize,
    configs: usize,
    mut run: impl FnMut(usize) -> SimResult,
) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; configs];
    for _ in 0..reps {
        for (i, b) in best.iter_mut().enumerate() {
            *b = b.min(run(i).vitals.wall_ns as f64 / 1e9);
        }
    }
    best
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Run one job of `workload`; returns `(gen_ns, run_ns)`, or `None` for
/// an unknown name.
pub fn execute(workload: &str, job: &mut Job) -> Option<(u64, u64)> {
    Some(match workload {
        "p2p_chain" => drive(job, p2p::chain_gen, p2p::chain_run, p2p::chain_probes),
        "p2p_dense" => drive(job, p2p::dense_gen, p2p::dense_run, p2p::dense_probes),
        "coll_512k" => drive(job, coll::gen, coll::run, coll::probes),
        "hier_faulted" => drive(job, hier::gen, hier::run, |_, _| {}),
        "wl_text" => drive(job, wl::gen, wl::run, wl::probes),
        "obs_stream" => drive(job, obs::gen, obs::run, obs::probes),
        "sweep_small" => drive(job, sweep::gen, sweep::run, sweep::probes),
        _ => return None,
    })
}

fn drive<I>(
    job: &mut Job,
    gen: impl FnOnce(&Job) -> I,
    run: impl FnOnce(&mut Job, &I),
    probes: impl FnOnce(&mut Job, &I),
) -> (u64, u64) {
    let t0 = Instant::now();
    let input = gen(job);
    let gen_ns = t0.elapsed().as_nanos() as u64;
    let ((), run_ns) = job.span("run", |j| run(j, &input));
    if job.traced {
        // The ROADMAP residual: the share of the run no layer span
        // accounts for. Large means a layer nobody is timing.
        let explained = trace::leaf_self_ns(job.tracer.spans());
        job.set(
            "bench.unexplained_share",
            1.0 - ratio(explained as f64, run_ns as f64),
        );
        job.set("bench.gen_s", secs(gen_ns));
        engine_layer(job);
        let ((), _) = job.span("probes", |j| probes(j, &input));
    }
    (gen_ns, run_ns)
}

/// The `sim.engine.*` metrics every workload reports, from the tallies.
fn engine_layer(job: &mut Job) {
    let (loop_ns, build_ns) = (job.loop_ns as f64, job.build_ns as f64);
    job.set("sim.engine.loop_s", loop_ns / 1e9);
    job.set("sim.engine.build_s", build_ns / 1e9);
    job.set("sim.engine.events", job.events as f64);
    job.set("sim.engine.msgs", job.msgs as f64);
    job.set("sim.engine.ns_per_event", ratio(loop_ns, job.events as f64));
    job.set("sim.engine.ns_per_msg", ratio(loop_ns, job.msgs as f64));
    job.set("sim.engine.stall_cycles", job.stall_cycles as f64);
    job.set("sim.engine.max_inflight_dst", job.max_inflight_dst as f64);
}
