//! Engine hot-loop microbenchmark: events/second on the two message
//! patterns that dominate the simulator's inner loop.
//!
//! * `ping_pong` — two processors bouncing one word back and forth; every
//!   event carries a handler dispatch, so this measures raw per-event
//!   overhead (queue pop, handler swap, command drain).
//! * `all_to_all` — P processors each streaming rounds of P−1 sends under
//!   the ⌈L/g⌉ capacity constraint; this saturates the stall/release
//!   bookkeeping (`Release`, waiter wakeups) that a naive engine spends
//!   its time allocating for.
//!
//! Prints one JSON object to stdout so results can be diffed across
//! engine revisions (the tracked numbers are the ledger's `p2p_chain` and
//! `p2p_dense` `msgs_per_s` and `sim.engine.ns_per_event`, from
//! `bash benchmark/run.sh`); `--json PATH` writes the object to a file
//! instead. The table on
//! stderr is for humans. `--reps N` overrides the repetition count.

use std::time::Instant;

use logp_bench::ObsArgs;
use logp_core::LogP;
use logp_sim::process::{Ctx, Process};
use logp_sim::{Data, Message, Sim, SimConfig};

/// P0 and P1 exchange a decrementing counter until it hits zero.
struct PingPong {
    rounds: u64,
}

impl Process for PingPong {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.me() == 0 {
            ctx.send(1, 0, Data::U64(self.rounds));
        }
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Ctx<'_>) {
        let r = msg.data.as_u64();
        if r > 0 {
            let peer = 1 - ctx.me();
            ctx.send(peer, 0, Data::U64(r - 1));
        }
    }
}

/// Every processor sends one word to every other processor, `rounds`
/// times; a new round starts once the previous round's P−1 messages have
/// been counted in. Under `enforce_capacity` this keeps every endpoint at
/// its ⌈L/g⌉ limit, so senders continually stall and release.
struct AllToAll {
    rounds: u64,
    done: u64,
    got: u32,
}

impl AllToAll {
    fn blast(ctx: &mut Ctx<'_>) {
        for dst in 0..ctx.procs() {
            if dst != ctx.me() {
                ctx.send(dst, 0, Data::Empty);
            }
        }
    }
}

impl Process for AllToAll {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        Self::blast(ctx);
    }

    fn on_message(&mut self, _msg: &Message, ctx: &mut Ctx<'_>) {
        self.got += 1;
        if self.got == ctx.procs() - 1 {
            self.got = 0;
            self.done += 1;
            if self.done < self.rounds {
                Self::blast(ctx);
            }
        }
    }
}

struct Measurement {
    name: &'static str,
    events: u64,
    msgs: u64,
    completion: u64,
    reps: u32,
    /// Wall time of the fastest repetition — robust to scheduler noise
    /// from co-tenants, which is what matters when diffing engine
    /// revisions on a shared machine.
    best_secs: f64,
    total_secs: f64,
}

impl Measurement {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.best_secs
    }

    fn msgs_per_sec(&self) -> f64 {
        self.msgs as f64 / self.best_secs
    }
}

fn measure(
    name: &'static str,
    reps: u32,
    obs: &ObsArgs,
    build: impl Fn(SimConfig) -> Sim,
) -> Measurement {
    // One untimed run to warm caches and learn the event count.
    let reference = build(SimConfig::default())
        .run()
        .expect("benchmark workload must complete");
    let mut best = f64::INFINITY;
    let mut total = 0.0;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = build(SimConfig::default())
            .run()
            .expect("benchmark workload must complete");
        let dt = t0.elapsed().as_secs_f64();
        best = best.min(dt);
        total += dt;
        assert_eq!(
            r.stats.events, reference.stats.events,
            "{name}: event count must be deterministic across reps"
        );
    }
    // Artifacts come from one extra instrumented run so the timed reps
    // above stay on the zero-overhead disabled path.
    if obs.active() {
        let r = build(obs.apply_for(name, SimConfig::default()))
            .run()
            .expect("benchmark workload must complete");
        assert_eq!(r.stats.events, reference.stats.events);
        obs.write(name, &r);
    }
    Measurement {
        name,
        events: reference.stats.events,
        msgs: reference.stats.total_msgs,
        completion: reference.stats.completion,
        reps,
        best_secs: best,
        total_secs: total,
    }
}

fn main() {
    let mut reps: u32 = 5;
    let mut json_path: Option<String> = None;
    let obs = ObsArgs::from_args();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--reps" => {
                reps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--reps takes a positive integer");
            }
            "--json" => {
                json_path = Some(args.next().expect("--json takes a file path"));
            }
            // Parsed by ObsArgs::from_args.
            "--trace-out" | "--metrics-out" | "--vitals-out" => {
                args.next();
            }
            "--stream" => {}
            other => panic!(
                "unknown argument {other:?} (expected --reps N | --json PATH | --stream | \
                 --trace-out/--metrics-out/--vitals-out PREFIX)"
            ),
        }
    }

    let model = LogP::new(6, 2, 4, 16).expect("valid model");
    let pair = LogP::new(6, 2, 4, 2).expect("valid model");

    let results = [
        measure("ping_pong", reps, &obs, |config| {
            let mut sim = Sim::new(pair, config);
            sim.set_all(|_| Box::new(PingPong { rounds: 100_000 }));
            sim
        }),
        measure("all_to_all", reps, &obs, |config| {
            let mut sim = Sim::new(model, config);
            sim.set_all(|_| {
                Box::new(AllToAll {
                    rounds: 400,
                    done: 0,
                    got: 0,
                })
            });
            sim
        }),
    ];

    eprintln!(
        "{:>12} {:>12} {:>9} {:>12} {:>6} {:>14} {:>12}",
        "workload", "events", "msgs", "completion", "reps", "events/sec", "msgs/sec"
    );
    let mut items = Vec::new();
    for m in &results {
        eprintln!(
            "{:>12} {:>12} {:>9} {:>12} {:>6} {:>14.0} {:>12.0}",
            m.name,
            m.events,
            m.msgs,
            m.completion,
            m.reps,
            m.events_per_sec(),
            m.msgs_per_sec()
        );
        items.push(format!(
            "{{\"name\":\"{}\",\"events\":{},\"msgs\":{},\"completion\":{},\"reps\":{},\"best_secs\":{:.6},\"total_secs\":{:.6},\"events_per_sec\":{:.0},\"msgs_per_sec\":{:.0}}}",
            m.name,
            m.events,
            m.msgs,
            m.completion,
            m.reps,
            m.best_secs,
            m.total_secs,
            m.events_per_sec(),
            m.msgs_per_sec()
        ));
    }
    let json = format!(
        "{{\"bench\":\"engine_hotloop\",\"workloads\":[{}]}}",
        items.join(",")
    );
    match json_path {
        Some(path) => std::fs::write(&path, format!("{json}\n")).expect("write --json file"),
        None => println!("{json}"),
    }
}
