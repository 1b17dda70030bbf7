//! Quickstart: define a LogP machine, analyze a collective, execute it on
//! the simulator, and write your own process.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use logp::core::broadcast::{optimal_broadcast_time, optimal_broadcast_tree};
use logp::core::summation::min_sum_time;
use logp::prelude::*;

/// A tiny custom program: a token ring. Processor 0 starts the token; each
/// processor forwards it to its right neighbor; processor 0 measures the
/// lap time.
struct RingHop {
    laps_left: u32,
    lap_started: Cycles,
    lap_times: SharedCell<Vec<Cycles>>,
}

impl Process for RingHop {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.me() == 0 {
            self.lap_started = ctx.now();
            ctx.send(1 % ctx.procs(), 0, Data::U64(1));
        }
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Ctx<'_>) {
        let token = msg.data.as_u64();
        if ctx.me() == 0 {
            let now = ctx.now();
            let lap = now - self.lap_started;
            self.lap_times.with(|v| v.push(lap));
            self.lap_started = now;
            self.laps_left -= 1;
            if self.laps_left == 0 {
                return;
            }
        }
        ctx.send((ctx.me() + 1) % ctx.procs(), 0, Data::U64(token + 1));
    }
}

fn main() {
    // 1. A machine is four numbers. This is the paper's Figure 3 machine.
    let m = LogP::fig3();
    println!("machine: {m}");
    println!(
        "  point-to-point message: {} cycles (2o + L)",
        m.point_to_point()
    );
    println!(
        "  remote read:            {} cycles (2L + 4o)",
        m.remote_read()
    );
    println!(
        "  network capacity:       {} messages/endpoint (⌈L/g⌉)",
        m.capacity()
    );

    // 2. Closed-form analysis: the optimal broadcast and summation.
    println!(
        "\noptimal broadcast of one datum to all {}: {} cycles",
        m.p,
        optimal_broadcast_time(&m)
    );
    let tree = optimal_broadcast_tree(&m);
    println!(
        "  root fan-out {} (the tree is unbalanced by design)",
        tree.root_fanout()
    );
    println!(
        "optimal summation of 1000 values: {} cycles",
        min_sum_time(&m, 1000, m.p)
    );

    // 3. Execute a custom program on the simulated machine. At large P,
    //    swap `SimConfig::default()` for `.with_shards(8)` (per-lane
    //    calendar queues) — results stay bit-identical; see `examples/
    //    workload_dsl.rs` and the `shard_scale` bench.
    let lap_times: SharedCell<Vec<Cycles>> = SharedCell::new();
    let mut sim = Sim::new(m, SimConfig::default());
    for p in 0..m.p {
        sim.set_process(
            p,
            Box::new(RingHop {
                laps_left: 3,
                lap_started: 0,
                lap_times: lap_times.clone(),
            }),
        );
    }
    let result = sim.run().expect("ring terminates");
    let laps = lap_times.get();
    println!("\ntoken ring, 3 laps over {} processors:", m.p);
    for (i, lap) in laps.iter().enumerate() {
        println!(
            "  lap {}: {} cycles ({} hops x (2o + L) = {})",
            i + 1,
            lap,
            m.p,
            m.p as u64 * m.point_to_point()
        );
    }
    println!(
        "total simulated time: {} cycles, {} messages",
        result.stats.completion, result.stats.total_msgs
    );

    // 4. Calibrated machines: the paper's CM-5.
    let cm5 = MachinePreset::cm5();
    println!(
        "\nCM-5 preset: {} — o = {} µs, L = {} µs, g = {} µs, peak {} MB/s/proc",
        cm5.logp,
        cm5.cycles_to_us(cm5.logp.o),
        cm5.cycles_to_us(cm5.logp.l),
        cm5.cycles_to_us(cm5.logp.g),
        cm5.peak_bandwidth_mb_s()
    );
}
