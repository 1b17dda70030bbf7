//! `hier_faulted`: the two paths the default configuration monomorphizes
//! away. Phase A runs level-aware collectives on a 3-level hierarchy
//! (per-pair pricing, per-level capacity) and checks them `==` the
//! `core::hier` closed forms per processor. Phase B runs the reliable
//! collectives under a seeded drop/dup/delay plan (`FAULTS = true`). A
//! change that speeds the default path at their cost shows here.

use super::{ratio, secs, SEED_FAULTS, SEED_MACHINE, SEED_SIM, SEED_VALUES};
use crate::job::{hash_procs, hash_u64s, Job};
use logp_algos::allreduce::run_reliable_allreduce;
use logp_algos::broadcast::run_reliable_broadcast;
use logp_algos::hier::{run_hier_allreduce, run_hier_broadcast};
use logp_core::hier::{eval_allreduce, eval_broadcast, hier_broadcast_children, Hierarchy, Level};
use logp_core::rng::CounterRng;
use logp_core::LogP;
use logp_sim::{FaultPlan, RetryConfig, SimConfig};

pub struct HierFaulted {
    hierarchy: Hierarchy,
    hier_values: Vec<f64>,
    flat: LogP,
    flat_values: Vec<f64>,
    plan: FaultPlan,
    retry: RetryConfig,
    config: SimConfig,
}

fn small_ints(seed: u64, n: u32) -> Vec<f64> {
    let mut rng = CounterRng::new(seed);
    (0..n).map(|_| rng.next_in(999) as f64).collect()
}

pub fn gen(job: &Job) -> HierFaulted {
    // Innermost first: cores × nodes × racks.
    let arity: [u32; 3] = job.scale.pick([4, 8, 16], [8, 64, 128], [16, 64, 256]);
    // The seed nudges each level's latency; shape and size stay fixed.
    let mut rng = CounterRng::new(job.derive(SEED_MACHINE));
    let level = |l: u64, o, g, a, rng: &mut CounterRng| {
        Level::new(l + rng.next_in(l / 4), o, g, a).expect("valid level")
    };
    let hierarchy = Hierarchy::new(vec![
        level(4, 1, 2, arity[0], &mut rng),
        level(40, 4, 8, arity[1], &mut rng),
        level(400, 12, 24, arity[2], &mut rng),
    ])
    .expect("valid hierarchy");
    let flat_p: u32 = job.scale.pick(1 << 10, 1 << 16, 1 << 17);
    let flat = LogP::new(60, 4, 8, flat_p).expect("valid model");
    HierFaulted {
        hier_values: small_ints(job.derive(SEED_VALUES), hierarchy.p()),
        hierarchy,
        flat_values: small_ints(job.derive(SEED_VALUES) ^ 1, flat_p),
        flat,
        // Drop 2 %, duplicate 1 %, delay 2 % by up to 2L.
        plan: FaultPlan::new(job.derive(SEED_FAULTS))
            .with_drop_ppm(20_000)
            .with_dup_ppm(10_000)
            .with_delay(20_000, 2 * flat.l),
        // The stretched policy the fault-determinism suite uses: spurious
        // early retransmissions stay rare behind a wide fan-out.
        retry: RetryConfig::for_tree(&flat, 64).with_max_retries(16),
        config: SimConfig::default().with_seed(job.derive(SEED_SIM)),
    }
}

pub fn run(job: &mut Job, w: &HierFaulted) {
    let h = &w.hierarchy;

    // Phase A — closed forms first, then the simulations they predict.
    let ((want_ar, want_bc), eval_ns) = job.span("core.hier.eval", |_| {
        let tree = hier_broadcast_children(h);
        (eval_allreduce(h, &tree, &tree), eval_broadcast(h, &tree))
    });
    let hier_sum: f64 = w.hier_values.iter().sum();
    let ((), ar_call, ar_loop) = job.sim_call("algos.hier.allreduce", |j| {
        let run = run_hier_allreduce(h, &w.hier_values, w.config.clone());
        j.tally(&run.result);
        j.check("hier.allreduce.value", run.value == hier_sum);
        j.check("hier.allreduce.closed_form", run.per_proc == want_ar);
        j.fp("hier.allreduce.completion", run.completion);
        j.fp(
            "hier.allreduce.procs_hash",
            hash_procs(&run.result.stats.procs),
        );
    });
    let ((), bc_call, bc_loop) = job.sim_call("algos.hier.broadcast", |j| {
        let run = run_hier_broadcast(h, 42.0, w.config.clone());
        j.tally(&run.result);
        j.check("hier.broadcast.closed_form", run.per_proc == want_bc);
        j.check("hier.broadcast.msgs", run.messages == h.p() as u64 - 1);
        j.fp("hier.broadcast.completion", run.completion);
        j.fp(
            "hier.broadcast.per_proc_hash",
            hash_u64s(run.per_proc.iter().copied()),
        );
    });
    drop((want_ar, want_bc));

    // Phase B — reliable collectives under the fault plan.
    let mut faults = [0u64; 3]; // dropped, duplicated, delayed
    let mut fault_msgs = 0u64;
    let (retries, _, rb_loop) = job.sim_call("algos.broadcast.reliable", |j| {
        let run = run_reliable_broadcast(&w.flat, &w.plan, w.retry.clone(), w.config.clone())
            .expect("no crashes in the plan");
        j.tally(&run.result);
        let s = &run.result.stats;
        faults = [s.msgs_dropped, s.msgs_duplicated, s.msgs_delayed];
        fault_msgs = s.total_msgs;
        // Every survivor received the datum exactly once (asserted by
        // the runner) — here: everyone survived.
        j.check(
            "faulted.bcast.everyone",
            run.arrivals.len() == w.flat.p as usize,
        );
        j.check(
            "faulted.bcast.faults_fired",
            s.msgs_dropped > 0 && run.retries > 0,
        );
        j.fp("faulted.bcast.completion", run.completion);
        j.fp("faulted.bcast.delivered", s.total_msgs);
        j.fp("faulted.bcast.dropped", s.msgs_dropped);
        j.fp("faulted.bcast.procs_hash", hash_procs(&s.procs));
        run.retries
    });
    let flat_sum: f64 = w.flat_values.iter().sum();
    let ((), _, ra_loop) = job.sim_call("algos.allreduce.reliable", |j| {
        let run = run_reliable_allreduce(
            &w.flat,
            &w.flat_values,
            &w.plan,
            w.retry.clone(),
            w.config.clone(),
        )
        .expect("no crashes in the plan");
        j.tally(&run.result);
        let s = &run.result.stats;
        for (total, one) in
            faults
                .iter_mut()
                .zip([s.msgs_dropped, s.msgs_duplicated, s.msgs_delayed])
        {
            *total += one;
        }
        fault_msgs += s.total_msgs;
        j.check("faulted.allreduce.value", run.value == flat_sum);
        j.fp("faulted.allreduce.completion", run.completion);
        j.fp("faulted.allreduce.delivered", s.total_msgs);
        j.fp("faulted.allreduce.dropped", s.msgs_dropped);
        j.fp("faulted.allreduce.procs_hash", hash_procs(&s.procs));
    });

    if job.traced {
        job.set("core.hier.eval_s", secs(eval_ns));
        job.set("algos.hier.call_s", secs(ar_call + bc_call));
        job.set("algos.hier.loop_s", secs(ar_loop + bc_loop));
        let fault_loop = rb_loop + ra_loop;
        job.set("sim.faults.loop_s", secs(fault_loop));
        job.set(
            "sim.faults.ns_per_msg",
            ratio(fault_loop as f64, fault_msgs as f64),
        );
        job.set("sim.faults.dropped", faults[0] as f64);
        job.set("sim.faults.duplicated", faults[1] as f64);
        job.set("sim.faults.delayed", faults[2] as f64);
        job.set("sim.reliable.retries", retries as f64);
    }
}
