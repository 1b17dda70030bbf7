//! Golden tests pinning the simulator's LogP semantics against the timing
//! rules spelled out in the paper (and DESIGN.md).

use logp_core::LogP;
use logp_sim::message::Data;
use logp_sim::process::{Ctx, Process, StartFn};
use logp_sim::{Sim, SimConfig};

fn fig3() -> LogP {
    LogP::fig3() // L=6, o=2, g=4, P=8
}

/// P0 sends one message to P1; the datum is usable at 2o + L.
#[test]
fn point_to_point_takes_2o_plus_l() {
    let mut sim = Sim::new(LogP::new(6, 2, 4, 2).unwrap(), SimConfig::default());
    sim.set_process(
        0,
        Box::new(StartFn(|ctx: &mut Ctx<'_>| ctx.send(1, 0, Data::U64(1)))),
    );
    let r = sim.run().unwrap();
    assert_eq!(r.stats.completion, 10);
    assert_eq!(r.stats.total_msgs, 1);
    assert_eq!(r.stats.procs[0].send_overhead, 2);
    assert_eq!(r.stats.procs[1].recv_overhead, 2);
}

/// Consecutive sends are spaced by g: injections at 0, 4, 8, ...
#[test]
fn send_gap_is_respected() {
    let mut sim = Sim::new(LogP::new(6, 2, 4, 2).unwrap(), SimConfig::traced());
    sim.set_process(
        0,
        Box::new(StartFn(|ctx: &mut Ctx<'_>| {
            for _ in 0..3 {
                ctx.send(1, 0, Data::Empty);
            }
        })),
    );
    let r = sim.run().unwrap();
    let spans = r.trace.for_proc(0);
    let starts: Vec<u64> = spans
        .iter()
        .filter(|s| s.activity == logp_sim::Activity::SendOverhead)
        .map(|s| s.start)
        .collect();
    assert_eq!(starts, vec![0, 4, 8]);
    // Third message injected at 8, usable at 8 + 2o + L = 18... but the
    // receiver's gap also spaces receptions: arrivals at 8, 12, 16;
    // receptions start at 8, 12, 16 (gap 4 >= o); last done at 18.
    assert_eq!(r.stats.completion, 18);
}

/// When o > g, the processor itself limits injection: sends at 0, o, 2o.
#[test]
fn overhead_limits_injection_when_o_exceeds_g() {
    let mut sim = Sim::new(LogP::new(6, 5, 2, 2).unwrap(), SimConfig::traced());
    sim.set_process(
        0,
        Box::new(StartFn(|ctx: &mut Ctx<'_>| {
            for _ in 0..3 {
                ctx.send(1, 0, Data::Empty);
            }
        })),
    );
    let r = sim.run().unwrap();
    let starts: Vec<u64> = r
        .trace
        .for_proc(0)
        .iter()
        .filter(|s| s.activity == logp_sim::Activity::SendOverhead)
        .map(|s| s.start)
        .collect();
    assert_eq!(starts, vec![0, 5, 10]);
}

/// A single full-rate sender occupies exactly the capacity window and
/// never stalls: the ⌈L/g⌉ limit is calibrated to a g-spaced stream.
#[test]
fn single_sender_never_stalls() {
    let model = LogP::new(8, 1, 2, 2).unwrap();
    assert_eq!(model.capacity(), 4);
    let mut sim = Sim::new(model, SimConfig::default());
    sim.set_process(
        0,
        Box::new(StartFn(|ctx: &mut Ctx<'_>| {
            for _ in 0..20 {
                ctx.send(1, 0, Data::Empty);
            }
        })),
    );
    let r = sim.run().unwrap();
    assert!(r.stats.max_inflight_per_dst <= 4, "capacity violated");
    assert_eq!(
        r.stats.procs[0].stall, 0,
        "a lone g-spaced stream fits the window"
    );
}

/// The capacity constraint stalls senders once a destination's aggregate
/// injection rate exceeds one message per g.
#[test]
fn capacity_constraint_stalls_competing_senders() {
    let model = LogP::new(8, 1, 2, 3).unwrap();
    let burst = |ctx: &mut Ctx<'_>| {
        for _ in 0..20 {
            ctx.send(2, 0, Data::Empty);
        }
    };
    let mut sim = Sim::new(model, SimConfig::default());
    sim.set_process(0, Box::new(StartFn(burst)));
    sim.set_process(1, Box::new(StartFn(burst)));
    let r = sim.run().unwrap();
    assert!(r.stats.max_inflight_per_dst <= 4, "capacity violated");
    let stalls = r.stats.procs[0].stall + r.stats.procs[1].stall;
    assert!(
        stalls > 0,
        "two full-rate senders into one destination must stall"
    );
}

/// Ablation: with the constraint disabled the same contention never stalls
/// and the window overfills.
#[test]
fn capacity_ablation_removes_stalls() {
    let model = LogP::new(8, 1, 2, 3).unwrap();
    let cfg = SimConfig {
        enforce_capacity: false,
        ..Default::default()
    };
    let burst = |ctx: &mut Ctx<'_>| {
        for _ in 0..20 {
            ctx.send(2, 0, Data::Empty);
        }
    };
    let mut sim = Sim::new(model, cfg);
    sim.set_process(0, Box::new(StartFn(burst)));
    sim.set_process(1, Box::new(StartFn(burst)));
    let r = sim.run().unwrap();
    assert_eq!(r.stats.procs[0].stall + r.stats.procs[1].stall, 0);
    assert!(r.stats.max_inflight_per_dst > 4);
}

/// Hot spot: many senders to one destination are throttled to roughly one
/// injection per g by the destination's capacity window.
#[test]
fn hot_spot_serializes_at_the_destination() {
    let model = LogP::new(8, 1, 2, 9).unwrap();
    let mut sim = Sim::new(model, SimConfig::default());
    let msgs_per_sender = 10u64;
    sim.set_all(|p| {
        Box::new(StartFn(move |ctx: &mut Ctx<'_>| {
            if p != 0 {
                for _ in 0..msgs_per_sender {
                    ctx.send(0, 0, Data::Empty);
                }
            }
        }))
    });
    let r = sim.run().unwrap();
    let total = msgs_per_sender * 8;
    // Aggregate throughput into one destination is bounded by one message
    // per g once the pipe fills: completion >= total * g (up to startup).
    assert!(
        r.stats.completion >= total * model.g,
        "completion {} should reflect per-destination serialization",
        r.stats.completion
    );
    assert!(r.stats.max_inflight_per_dst <= model.capacity());
    assert_eq!(r.stats.total_msgs, total);
}

/// Compute costs exactly the requested cycles and fires the callback.
#[test]
fn compute_accounts_exact_cycles() {
    struct Worker {
        done_at: u64,
    }
    impl Process for Worker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.compute(37, 1);
            ctx.compute(5, 2);
        }
        fn on_compute_done(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
            if tag == 2 {
                self.done_at = ctx.now();
            }
        }
    }
    let mut sim = Sim::new(LogP::new(1, 1, 1, 1).unwrap(), SimConfig::default());
    sim.set_process(0, Box::new(Worker { done_at: 0 }));
    let r = sim.run().unwrap();
    assert_eq!(r.stats.completion, 42);
    assert_eq!(r.stats.procs[0].compute, 42);
}

/// Receptions respect the gap: two messages arriving together are
/// received g apart.
#[test]
fn reception_gap_is_respected() {
    // Two senders inject at time 0 to the same destination; both arrive at
    // o + L = 8. Receptions start at 8 and 12 (g = 4).
    let model = LogP::new(6, 2, 4, 3).unwrap();
    let mut sim = Sim::new(model, SimConfig::traced());
    for s in [0u32, 1] {
        sim.set_process(
            s,
            Box::new(StartFn(move |ctx: &mut Ctx<'_>| {
                ctx.send(2, 0, Data::Empty)
            })),
        );
    }
    let r = sim.run().unwrap();
    let starts: Vec<u64> = r
        .trace
        .for_proc(2)
        .iter()
        .filter(|s| s.activity == logp_sim::Activity::RecvOverhead)
        .map(|s| s.start)
        .collect();
    assert_eq!(starts, vec![8, 12]);
}

/// The full Figure 3 broadcast: executing the optimal tree on the
/// simulator completes at exactly 24 cycles.
#[test]
fn figure3_broadcast_runs_in_24_cycles() {
    use logp_core::broadcast::optimal_broadcast_tree;
    let m = fig3();
    let tree = optimal_broadcast_tree(&m);
    let children = tree.children();

    struct Bcast {
        children: Vec<u32>,
        root: bool,
    }
    impl Bcast {
        fn fan_out(&self, ctx: &mut Ctx<'_>) {
            for &c in &self.children {
                ctx.send(c, 0, Data::U64(42));
            }
        }
    }
    impl Process for Bcast {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if self.root {
                self.fan_out(ctx);
            }
        }
        fn on_message(&mut self, _msg: &logp_sim::Message, ctx: &mut Ctx<'_>) {
            self.fan_out(ctx);
        }
    }

    let mut sim = Sim::new(m, SimConfig::default());
    sim.set_all(|p| {
        Box::new(Bcast {
            children: children[p as usize].to_vec(),
            root: p == 0,
        })
    });
    let r = sim.run().unwrap();
    assert_eq!(
        r.stats.completion, 24,
        "Figure 3's broadcast finishes at 24"
    );
    assert_eq!(r.stats.total_msgs, 7);
}

/// Barrier synchronizes all processors at the max entry time.
#[test]
fn barrier_releases_everyone_together() {
    struct B {
        cycles: u64,
        released_at: logp_sim::SharedCell<Vec<u64>>,
    }
    impl Process for B {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.compute(self.cycles, 0);
            ctx.barrier();
        }
        fn on_barrier_release(&mut self, ctx: &mut Ctx<'_>) {
            let now = ctx.now();
            self.released_at.with(|v| v.push(now));
        }
    }
    let cell = logp_sim::SharedCell::<Vec<u64>>::new();
    let mut sim = Sim::new(LogP::new(2, 1, 1, 4).unwrap(), SimConfig::default());
    for p in 0..4 {
        sim.set_process(
            p,
            Box::new(B {
                cycles: (p as u64 + 1) * 10,
                released_at: cell.clone(),
            }),
        );
    }
    let r = sim.run().unwrap();
    assert_eq!(cell.get(), vec![40, 40, 40, 40]);
    assert_eq!(r.stats.procs[0].barrier_wait, 30);
    assert_eq!(r.stats.procs[3].barrier_wait, 0);
}

/// Jitter keeps latency within (0, L] and the run remains deterministic
/// for a fixed seed.
#[test]
fn jitter_is_bounded_and_deterministic() {
    let model = LogP::new(10, 1, 2, 2).unwrap();
    let run = |seed: u64| {
        let cfg = SimConfig::default().with_jitter(9).with_seed(seed);
        let mut sim = Sim::new(model, cfg);
        sim.set_process(
            0,
            Box::new(StartFn(|ctx: &mut Ctx<'_>| {
                for _ in 0..50 {
                    ctx.send(1, 0, Data::Empty);
                }
            })),
        );
        sim.run().unwrap().stats.completion
    };
    let a = run(7);
    let b = run(7);
    let c = run(8);
    assert_eq!(a, b, "same seed must reproduce bit-identically");
    //

    // Different seeds usually give different completions under jitter;
    // don't assert it strictly (they could collide), but latency bounds
    // must hold: completion <= the no-jitter run.
    let no_jitter = {
        let mut sim = Sim::new(model, SimConfig::default());
        sim.set_process(
            0,
            Box::new(StartFn(|ctx: &mut Ctx<'_>| {
                for _ in 0..50 {
                    ctx.send(1, 0, Data::Empty);
                }
            })),
        );
        sim.run().unwrap().stats.completion
    };
    assert!(a <= no_jitter);
    assert!(c <= no_jitter);
}

/// Drift perturbs compute times but stays within the configured band.
#[test]
fn drift_stays_within_band() {
    let cfg = SimConfig::default().with_drift(102); // ~10%
    let mut sim = Sim::new(LogP::new(1, 1, 1, 1).unwrap(), cfg);
    sim.set_process(
        0,
        Box::new(StartFn(|ctx: &mut Ctx<'_>| ctx.compute(10_000, 0))),
    );
    let r = sim.run().unwrap();
    let c = r.stats.procs[0].compute;
    assert!(
        (9_000..=11_000).contains(&c),
        "10% drift band violated: {c}"
    );
}

/// A halted processor stops participating; the run still terminates.
#[test]
fn halt_terminates_cleanly() {
    let mut sim = Sim::new(LogP::new(2, 1, 1, 2).unwrap(), SimConfig::default());
    sim.set_all(|_| {
        Box::new(StartFn(|ctx: &mut Ctx<'_>| {
            ctx.compute(5, 0);
            ctx.halt();
        }))
    });
    let r = sim.run().unwrap();
    assert_eq!(r.stats.completion, 5);
}

/// Determinism: the full Figure-3 broadcast yields identical stats on
/// repeated runs.
#[test]
fn runs_are_reproducible() {
    let run = || {
        let mut sim = Sim::new(fig3(), SimConfig::default());
        sim.set_all(|p| {
            Box::new(StartFn(move |ctx: &mut Ctx<'_>| {
                if p == 0 {
                    for d in 1..ctx.procs() {
                        ctx.send(d, 0, Data::Empty);
                    }
                }
            }))
        });
        let r = sim.run().unwrap();
        (r.stats.completion, r.stats.total_msgs, r.stats.events)
    };
    assert_eq!(run(), run());
}

/// The event budget catches runaway programs.
#[test]
fn event_budget_is_enforced() {
    struct Forever;
    impl Process for Forever {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.compute(1, 0);
        }
        fn on_compute_done(&mut self, _tag: u64, ctx: &mut Ctx<'_>) {
            ctx.compute(1, 0); // never stops
        }
    }
    let cfg = SimConfig {
        max_events: 100,
        ..Default::default()
    };
    let mut sim = Sim::new(LogP::new(1, 1, 1, 1).unwrap(), cfg);
    sim.set_process(0, Box::new(Forever));
    assert!(matches!(
        sim.run(),
        Err(logp_sim::SimError::MaxEventsExceeded { limit: 100 })
    ));
}

/// LogGP long messages: end-to-end time is 2o + (k-1)·G + L, and the
/// sender's processor is free after only o.
#[test]
fn loggp_bulk_send_semantics() {
    use logp_core::extensions::LogGP;
    let model = LogP::new(60, 5, 10, 2).unwrap();
    let big_g = 2u64;
    let words = 100u64;
    let cfg = SimConfig::default().with_big_g(big_g);
    let mut sim = Sim::new(model, cfg);
    sim.set_process(
        0,
        Box::new(StartFn(move |ctx: &mut Ctx<'_>| {
            ctx.send_bulk(1, 0, Data::U64(7), words);
        })),
    );
    let r = sim.run().unwrap();
    let expect = LogGP::new(model, big_g).long_message_time(words);
    assert_eq!(
        r.stats.completion, expect,
        "bulk time must match the LogGP formula"
    );
    // Sender paid only o of overhead.
    assert_eq!(r.stats.procs[0].send_overhead, model.o);
}

/// Bulk vs train: the simulator reproduces the analytic break-even of the
/// LogGP extension.
#[test]
fn bulk_beats_train_beyond_break_even() {
    use logp_core::extensions::LogGP;
    let model = LogP::new(60, 5, 10, 2).unwrap();
    let loggp = LogGP::new(model, 2);
    let words = 64u64;
    let bulk = {
        let mut sim = Sim::new(model, SimConfig::default().with_big_g(2));
        sim.set_process(
            0,
            Box::new(StartFn(move |ctx: &mut Ctx<'_>| {
                ctx.send_bulk(1, 0, Data::Empty, words)
            })),
        );
        sim.run().unwrap().stats.completion
    };
    let train = {
        let mut sim = Sim::new(model, SimConfig::default());
        sim.set_process(
            0,
            Box::new(StartFn(move |ctx: &mut Ctx<'_>| {
                for _ in 0..words {
                    ctx.send(1, 0, Data::Empty);
                }
            })),
        );
        sim.run().unwrap().stats.completion
    };
    assert!(bulk < train, "bulk {bulk} vs train {train}");
    assert_eq!(bulk, loggp.long_message_time(words));
    // The train's last word is *usable* at the stream bound; the receiver
    // keeps paying o per message afterwards, so completion >= the bound.
    assert!(train >= loggp.small_message_time(words));
}

/// A processor can overlap computation with its interface streaming a
/// long message (the §5.4 "DMA" effect).
#[test]
fn bulk_streaming_overlaps_compute() {
    let model = LogP::new(20, 5, 10, 2).unwrap();
    let cfg = SimConfig::default().with_big_g(4);
    let mut sim = Sim::new(model, cfg);
    sim.set_process(
        0,
        Box::new(StartFn(|ctx: &mut Ctx<'_>| {
            ctx.send_bulk(1, 0, Data::Empty, 50); // streams (49)*4 = 196 cycles
            ctx.compute(100, 0); // fits inside the streaming window
        })),
    );
    let r = sim.run().unwrap();
    // Compute starts right after the o overhead, not after streaming.
    assert_eq!(r.stats.procs[0].compute, 100);
    let compute_end = model.o + 100;
    assert!(compute_end < model.o + 49 * 4, "compute fits in the window");
    // Completion is the message delivery, unaffected by the compute.
    assert_eq!(r.stats.completion, 2 * model.o + 49 * 4 + model.l);
}

/// Per-processor skew is systematic: the same processor is consistently
/// fast or slow across calls, and runs are seed-deterministic.
#[test]
fn skew_is_systematic_and_deterministic() {
    let run = |seed: u64| {
        let cfg = SimConfig::default().with_skew(100).with_seed(seed);
        let mut sim = Sim::new(LogP::new(1, 1, 1, 4).unwrap(), cfg);
        sim.set_all(|_| {
            Box::new(StartFn(|ctx: &mut Ctx<'_>| {
                for _ in 0..4 {
                    ctx.compute(1000, 0);
                }
            }))
        });
        let r = sim.run().unwrap();
        r.stats.procs.iter().map(|p| p.compute).collect::<Vec<_>>()
    };
    let a = run(5);
    let b = run(5);
    assert_eq!(a, b, "same seed, same skews");
    // Each processor's four computes scale identically (systematic, not
    // noise): total must be 4x a per-call value within rounding.
    for &total in &a {
        assert_eq!(total % 4, 0, "four identical perturbed calls: {total}");
    }
    // ~10% band.
    for &total in &a {
        assert!((3600..=4400).contains(&total), "skew outside band: {total}");
    }
    // Different processors generally differ.
    assert!(a.iter().any(|&t| t != a[0]) || a[0] == 4000);
}

/// Barrier cost is charged after the last arrival.
#[test]
fn barrier_cost_delays_release() {
    let cfg = SimConfig {
        barrier_cost: 25,
        ..Default::default()
    };
    let mut sim = Sim::new(LogP::new(2, 1, 1, 2).unwrap(), cfg);
    struct B;
    impl Process for B {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.compute(10, 0);
            ctx.barrier();
        }
    }
    sim.set_all(|_| Box::new(B));
    let r = sim.run().unwrap();
    assert_eq!(r.stats.completion, 10 + 25);
}
