//! `coll_512k`: optimal broadcast + reduce-broadcast all-reduce on the
//! 8-lane engine at large P. Construction, first-touch memory and teardown
//! outweigh the (sparse-queue) event loop, so this is the workload set-up
//! and memory changes show on.

use super::{probe_loops, ratio, secs, SEED_SIM, SEED_VALUES};
use crate::job::{hash_procs, hash_u64s, Job};
use logp_algos::allreduce::run_allreduce_reduce_bcast;
use logp_algos::broadcast::run_tree_broadcast;
use logp_core::broadcast::{optimal_broadcast_time, optimal_broadcast_tree};
use logp_core::rng::CounterRng;
use logp_core::LogP;
use logp_sim::{EngineVitals, SimConfig};

pub struct Coll {
    model: LogP,
    /// One small integer per processor, so the f64 sum is exact in any
    /// association order.
    values: Vec<f64>,
    expect_sum: f64,
    config: SimConfig,
}

pub fn gen(job: &Job) -> Coll {
    let p: u32 = job.scale.pick(1 << 12, 1 << 17, 1 << 19);
    let mut rng = CounterRng::new(job.derive(SEED_VALUES));
    let values: Vec<f64> = (0..p).map(|_| rng.next_in(999) as f64).collect();
    Coll {
        model: LogP::new(60, 4, 8, p).expect("valid model"),
        expect_sum: values.iter().sum(),
        values,
        config: SimConfig::default()
            .with_shards(8)
            .with_seed(job.derive(SEED_SIM)),
    }
}

/// Lane-engine vitals summed (counts) or maxed (depths) over the run.
#[derive(Default)]
struct ShardTotals {
    windows: u64,
    fast_forwards: u64,
    bucket_depth_max: u64,
    far_spills: u64,
    capacity_relaxed: u64,
    imbalance: f64,
}

impl ShardTotals {
    fn add(&mut self, v: &EngineVitals) {
        self.windows += v.windows;
        self.fast_forwards += v.fast_forwards;
        self.bucket_depth_max = self.bucket_depth_max.max(v.bucket_depth_max);
        self.far_spills += v.far_spills;
        self.capacity_relaxed += v.capacity_relaxed;
        self.imbalance = self.imbalance.max(v.imbalance());
    }
}

pub fn run(job: &mut Job, c: &Coll) {
    let p = c.model.p as u64;
    let mut shard = ShardTotals::default();

    // `run_optimal_broadcast` is exactly these two calls; split so the
    // tree construction (`core.broadcast`) is timed apart from the
    // simulation call (`algos.broadcast`).
    let ((tree, children), tree_ns) = job.span("core.broadcast.tree", |_| {
        let tree = optimal_broadcast_tree(&c.model);
        let children = tree.children();
        (tree, children)
    });
    let (bcast_sharded, bcast_call, bcast_loop) = job.sim_call("algos.broadcast", |j| {
        let run = run_tree_broadcast(&c.model, &children, c.config.clone());
        j.tally(&run.result);
        shard.add(&run.result.vitals);
        j.check("coll.bcast.msgs", run.messages == p - 1);
        j.check(
            "coll.bcast.closed_form",
            run.completion == optimal_broadcast_time(&c.model),
        );
        j.check(
            "coll.bcast.tree_agrees",
            run.completion == tree.completion(),
        );
        j.fp("bcast.completion", run.completion);
        j.fp("bcast.msgs", run.messages);
        j.fp("bcast.procs_hash", hash_procs(&run.result.stats.procs));
        j.fp(
            "bcast.arrivals_hash",
            hash_u64s(run.arrivals.iter().flat_map(|&(q, t)| [q as u64, t])),
        );
        run.result.vitals.engine == "sharded"
    });
    job.check("coll.bcast.on_lane_engine", bcast_sharded);
    drop((tree, children));

    let ((), ar_call, ar_loop) = job.sim_call("algos.allreduce", |j| {
        let run = run_allreduce_reduce_bcast(&c.model, &c.values, c.config.clone());
        j.tally(&run.result);
        shard.add(&run.result.vitals);
        j.check("coll.allreduce.value", run.value == c.expect_sum);
        j.check("coll.allreduce.msgs", run.messages == 2 * (p - 1));
        j.fp("allreduce.completion", run.completion);
        j.fp("allreduce.value_bits", run.value.to_bits());
        j.fp("allreduce.procs_hash", hash_procs(&run.result.stats.procs));
    });

    if job.traced {
        job.set("core.broadcast.tree_s", secs(tree_ns));
        job.set("algos.broadcast.call_s", secs(bcast_call));
        job.set("algos.allreduce.call_s", secs(ar_call));
        job.set(
            "algos.broadcast.build_share",
            ratio(
                (bcast_call - bcast_loop.min(bcast_call)) as f64,
                bcast_call as f64,
            ),
        );
        job.set("sim.shard.loop_s", secs(bcast_loop + ar_loop));
        job.set("sim.shard.windows", shard.windows as f64);
        job.set("sim.shard.fast_forwards", shard.fast_forwards as f64);
        job.set("sim.shard.bucket_depth_max", shard.bucket_depth_max as f64);
        job.set("sim.shard.far_spills", shard.far_spills as f64);
        job.set("sim.shard.capacity_relaxed", shard.capacity_relaxed as f64);
        job.set("sim.shard.lane_imbalance", shard.imbalance);
        job.set(
            "sim.engine.rss_bytes_per_proc",
            ratio(crate::host::peak_rss_kb() as f64 * 1024.0, p as f64),
        );
    }
}

/// ROADMAP's "re-run `worker_scale` on ≥2 real cores": the broadcast on
/// 8 lanes serial ÷ 8 lanes on 2 workers, plus the share of the parallel
/// loop its coordinator spent waiting at window barriers.
pub fn probes(job: &mut Job, c: &Coll) {
    let children = optimal_broadcast_tree(&c.model).children();
    let configs = [c.config.clone(), c.config.clone().with_workers(2)];
    let mut completions = [0u64; 2];
    let mut barrier_share = 0.0;
    let loops = probe_loops(2, 2, |i| {
        let run = run_tree_broadcast(&c.model, &children, configs[i].clone());
        completions[i] = run.completion;
        if i == 1 {
            let v = &run.result.vitals;
            barrier_share = ratio(v.barrier_wait_ns as f64, v.wall_ns as f64);
        }
        run.result
    });
    job.check("coll.workers_identity", completions[0] == completions[1]);
    job.set("sim.plane.coll_speedup_w2", ratio(loops[0], loops[1]));
    job.set("sim.plane.barrier_wait_share", barrier_share);
}
