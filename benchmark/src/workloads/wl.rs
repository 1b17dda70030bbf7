//! `wl_text`: a generated `.wl` program, handed over as text. Loader,
//! validator and the interpreter's compile step are most of the run; the
//! engine little.

use super::{ratio, secs, SEED_SIM, SEED_WL};
use crate::job::{hash_procs, hash_u64s, Job};
use crate::wlgen::{generate, GenSpec};
use logp_core::LogP;
use logp_sim::SimConfig;
use logp_wl::{load_workload, parse_workload, run_workload};
use std::time::Instant;

pub struct WlText {
    spec: GenSpec,
    text: String,
    model: LogP,
    config: SimConfig,
}

pub fn gen(job: &Job) -> WlText {
    let spec = GenSpec {
        procs: job.scale.pick(32, 256, 256),
        nodes: job.scale.pick(7_500, 300_000, 750_000),
        barrier_every: job.scale.pick(2_000, 20_000, 50_000),
    };
    WlText {
        text: generate(job.derive(SEED_WL), &spec),
        model: LogP::new(6, 2, 4, spec.procs).expect("valid model"),
        spec,
        config: SimConfig::default().with_seed(job.derive(SEED_SIM)),
    }
}

pub fn run(job: &mut Job, w: &WlText) {
    // A traced job splits `load_workload` into its two halves (the same
    // work) so the loader and the validator get a span each.
    let (wl, parse_ns, validate_ns) = if job.traced {
        let (wl, parse_ns) = job.span("wl.parse", |_| parse_workload(&w.text));
        let wl = wl.expect("generated text parses");
        let (ok, validate_ns) = job.span("wl.ir.validate", |_| wl.validate());
        ok.expect("generated program validates");
        (wl, parse_ns, validate_ns)
    } else {
        let (wl, _) = job.span("wl.load", |_| load_workload(&w.text));
        (wl.expect("generated text loads"), 0, 0)
    };
    let nodes = wl.nodes.len() as u64;
    job.check("wl.node_count", nodes == w.spec.nodes);
    job.check("wl.procs", wl.procs == w.spec.procs);

    let (unmatched, call_ns, loop_ns) = job.sim_call("wl.interp", |j| {
        let run = run_workload(&wl, &w.model, w.config.clone()).expect("deadlock-free");
        j.tally(&run.result);
        j.check("wl.all_nodes_ran", run.node_times.len() as u64 == nodes);
        j.check(
            "wl.completion_covers_nodes",
            run.node_times.iter().all(|&t| t <= run.completion),
        );
        j.check("wl.unmatched", run.unmatched == 0);
        j.fp("completion", run.completion);
        j.fp("msgs", run.result.stats.total_msgs);
        j.fp("node_times_hash", hash_u64s(run.node_times.iter().copied()));
        j.fp("procs_hash", hash_procs(&run.result.stats.procs));
        run.unmatched
    });
    let ((), _) = job.span("wl.drop", |_| drop(wl));

    if job.traced {
        let n = nodes as f64;
        job.set("wl.nodes", n);
        job.set("wl.text_bytes", w.text.len() as f64);
        job.set("wl.parse.s", secs(parse_ns));
        job.set(
            "wl.parse.mb_per_s",
            ratio(w.text.len() as f64 / 1e6, secs(parse_ns)),
        );
        job.set("wl.parse.ns_per_node", parse_ns as f64 / n);
        job.set("wl.ir.validate_s", secs(validate_ns));
        job.set("wl.ir.validate_ns_per_node", validate_ns as f64 / n);
        // `run_workload` validates once more before compiling.
        let build_ns = call_ns.saturating_sub(loop_ns).saturating_sub(validate_ns);
        job.set("wl.interp.build_s", secs(build_ns));
        job.set("wl.interp.loop_s", secs(loop_ns));
        job.set("wl.interp.ns_per_node", call_ns as f64 / n);
        job.set("wl.interp.unmatched", unmatched as f64);
    }
}

/// `wl.parse.scaling_x8`: t(N) ÷ 8·t(N/8); 1.0 means the loader is
/// linear in program size.
pub fn probes(job: &mut Job, w: &WlText) {
    let small = generate(
        job.derive(SEED_WL),
        &GenSpec {
            procs: w.spec.procs,
            nodes: w.spec.nodes / 8,
            barrier_every: w.spec.barrier_every,
        },
    );
    // Fastest of three: host noise only ever adds.
    let time = |text: &str| {
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                let wl = parse_workload(text).expect("generated text parses");
                let dt = t0.elapsed().as_secs_f64();
                drop(wl);
                dt
            })
            .fold(f64::INFINITY, f64::min)
    };
    let (t_small, t_full) = (time(&small), time(&w.text));
    job.set("wl.parse.scaling_x8", ratio(t_full, 8.0 * t_small));
}
