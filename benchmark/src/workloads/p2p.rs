//! `p2p_chain` and `p2p_dense`: the engine loop with nothing else on the
//! clock (`wl`, `obs`, `core` idle), at queue depth 1 and at depth ~P².

use super::{probe_loops, ratio, run_sim, SEED_SIM, SEED_TRAFFIC};
use crate::job::{hash_procs, Job};
use crate::programs::{AllToAll, Order, PingPong};
use logp_core::hier::Hierarchy;
use logp_core::LogP;
use logp_sim::{FaultPlan, Sim, SimConfig, SimResult};

// ---------------------------------------------------------------- chain

pub struct Chain {
    model: LogP,
    rounds: u64,
    config: SimConfig,
}

pub fn chain_gen(job: &Job) -> Chain {
    Chain {
        model: LogP::new(6, 2, 4, 2).expect("valid model"),
        rounds: job.scale.pick(400_000, 6_000_000, 40_000_000),
        config: SimConfig::default().with_seed(job.derive(SEED_SIM)),
    }
}

fn chain_sim(c: &Chain, config: SimConfig, rounds: u64) -> Sim {
    let mut sim = Sim::new(c.model, config);
    sim.set_all(|_| Box::new(PingPong { rounds }));
    sim
}

pub fn chain_run(job: &mut Job, c: &Chain) {
    let out = run_sim(job, "sim.engine", || {
        chain_sim(c, c.config.clone(), c.rounds)
    });
    // rounds + 1 messages, each usable 2o + L after the previous.
    let msgs = c.rounds + 1;
    job.check("chain.msgs", out.stats.total_msgs == msgs);
    job.check(
        "chain.closed_form",
        out.stats.completion == msgs * c.model.point_to_point(),
    );
    job.check(
        "chain.no_stall",
        out.stats.procs.iter().all(|p| p.stall == 0),
    );
    job.fp("completion", out.stats.completion);
    job.fp("msgs", out.stats.total_msgs);
    job.fp("dropped", out.stats.msgs_dropped);
    job.fp("procs_hash", hash_procs(&out.stats.procs));
}

/// Classic loop ÷ 2-lane loop on the chain traffic (base = classic):
/// what making the lane engine the default does to this workload.
pub fn chain_probes(job: &mut Job, c: &Chain) {
    let rounds = c.rounds / 4;
    let configs = [c.config.clone(), c.config.clone().with_shards(2)];
    let mut completions = [0u64; 2];
    let loops = probe_loops(3, 2, |i| {
        let r = chain_sim(c, configs[i].clone(), rounds)
            .run()
            .expect("probe completes");
        completions[i] = r.stats.completion;
        r
    });
    job.check("chain.classic_eq_lanes", completions[0] == completions[1]);
    job.set("sim.shard.chain_speedup_l2", ratio(loops[0], loops[1]));
}

// ---------------------------------------------------------------- dense

pub struct Dense {
    model: LogP,
    stagger_rounds: u32,
    hotspot_rounds: u32,
    /// Rotation of the stagger sequence / first hot spot, from the seed.
    offset: u32,
    config: SimConfig,
}

pub fn dense_gen(job: &Job) -> Dense {
    let p = job.scale.pick(128, 1024, 1024);
    Dense {
        model: LogP::new(6, 2, 4, p).expect("valid model"),
        stagger_rounds: job.scale.pick(1, 1, 4),
        hotspot_rounds: job.scale.pick(1, 1, 4),
        offset: (job.derive(SEED_TRAFFIC) % p as u64) as u32,
        config: SimConfig::default().with_seed(job.derive(SEED_SIM)),
    }
}

pub fn all_to_all(model: LogP, config: SimConfig, order: Order, rounds: u32) -> Sim {
    let mut sim = Sim::new(model, config);
    sim.set_all(|_| Box::new(AllToAll::new(order, rounds)));
    sim
}

pub fn dense_run(job: &mut Job, d: &Dense) {
    let p = d.model.p as u64;
    let stagger = Order::Stagger { offset: d.offset };
    let hotspot = Order::HotSpot { start: d.offset };

    let s = run_sim(job, "sim.engine.stagger", || {
        all_to_all(d.model, d.config.clone(), stagger, d.stagger_rounds)
    });
    job.check(
        "dense.stagger.msgs",
        s.stats.total_msgs == p * (p - 1) * d.stagger_rounds as u64,
    );
    // Every step is a permutation, so the capacity limit never binds.
    job.check(
        "dense.stagger.no_stall",
        s.stats.procs.iter().all(|q| q.stall == 0),
    );

    let h = run_sim(job, "sim.engine.hotspot", || {
        all_to_all(d.model, d.config.clone(), hotspot, d.hotspot_rounds)
    });
    job.check(
        "dense.hotspot.msgs",
        h.stats.total_msgs == p * (p - 1) * d.hotspot_rounds as u64,
    );
    job.check(
        "dense.hotspot.stalls",
        h.stats.procs.iter().any(|q| q.stall > 0),
    );

    for (phase, out) in [("stagger", &s), ("hotspot", &h)] {
        job.fp(&format!("{phase}.completion"), out.stats.completion);
        job.fp(&format!("{phase}.msgs"), out.stats.total_msgs);
        job.fp(&format!("{phase}.procs_hash"), hash_procs(&out.stats.procs));
    }
    if job.traced {
        let (sl, hl) = (s.loop_ns as f64, h.loop_ns as f64);
        job.set("sim.engine.stagger_loop_s", sl / 1e9);
        job.set("sim.engine.hotspot_loop_s", hl / 1e9);
        job.set(
            "sim.engine.stagger_ns_per_msg",
            ratio(sl, s.stats.total_msgs as f64),
        );
        job.set(
            "sim.engine.hotspot_ns_per_msg",
            ratio(hl, h.stats.total_msgs as f64),
        );
    }
}

/// One round of the stagger traffic under six configurations. Ratios are
/// loop ÷ loop with the classic default as the base.
pub fn dense_probes(job: &mut Job, d: &Dense) {
    let order = Order::Stagger { offset: d.offset };
    let base = d.config.clone();
    let flat = Hierarchy::flat(&d.model);
    let zero_plan = FaultPlan::new(job.derive(super::SEED_FAULTS));
    let configs = [
        base.clone(),
        base.clone().with_shards(2),
        base.clone().with_shards(8),
        base.clone().with_shards(8).with_workers(2),
        base.clone().with_faults(zero_plan),
        base.clone(), // on `Sim::new_hier(flat)`
    ];
    let mut first: Vec<Option<SimResult>> = vec![None; configs.len()];
    let loops = probe_loops(2, configs.len(), |i| {
        let mut sim = if i == 5 {
            Sim::new_hier(&flat, configs[i].clone())
        } else {
            Sim::new(d.model, configs[i].clone())
        };
        sim.set_all(|_| Box::new(AllToAll::new(order, 1)));
        let r = sim.run().expect("probe completes");
        first[i].get_or_insert_with(|| r.clone());
        r
    });
    let stats = |i: usize| &first[i].as_ref().expect("every config ran").stats;
    // Stall-free traffic: destination-side admission never binds, so the
    // lane engine is pinned to the classic outcome here.
    let proj = |i: usize| (stats(i).completion, stats(i).total_msgs, &stats(i).procs);
    job.check("dense.classic_eq_lanes", (1..4).all(|i| proj(i) == proj(0)));
    job.check("dense.zero_plan_identity", stats(4) == stats(0));
    job.check("dense.flat_hier_identity", stats(5) == stats(0));

    job.set("sim.shard.dense_speedup_l2", ratio(loops[0], loops[1]));
    job.set("sim.shard.dense_speedup_l8", ratio(loops[0], loops[2]));
    // 8 lanes serial ÷ 8 lanes on 2 workers.
    job.set("sim.plane.dense_speedup_w2", ratio(loops[2], loops[3]));
    job.set("sim.faults.zero_plan_overhead", ratio(loops[4], loops[0]));
    job.set("core.hier.flat_overhead", ratio(loops[5], loops[0]));
}
