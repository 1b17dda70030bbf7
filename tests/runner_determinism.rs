//! The sweep runner's headline guarantee: batches are bit-identical
//! regardless of thread count and across repeated invocations.
//!
//! Each run's RNG stream is a function of its spec's base seed and its
//! *index* in the batch (`derive_seed`), never of worker scheduling —
//! so a jittered, drifting, capacity-stalling workload must produce the
//! exact same statistics and traces whether executed on 1, 2, or 8
//! workers, or twice in a row.

use logp_core::sweep::{Axis, Grid};
use logp_core::LogP;
use logp_sim::runner::{derive_seed, run_batch, run_sweep, RunSpec, Threads};
use logp_sim::{Ctx, Data, Message, Process, SimConfig, SimStats, Trace};

/// An irregular workload: every processor scatters to all peers with
/// interleaved compute, so jitter and drift shape both event order and
/// stall accounting.
struct Scatter {
    rounds: u64,
    done: u64,
    got: u32,
}

impl Process for Scatter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for dst in 0..ctx.procs() {
            if dst != ctx.me() {
                ctx.send(dst, 0, Data::U64(self.done));
            }
        }
        ctx.compute(3, 0);
    }

    fn on_message(&mut self, _msg: &Message, ctx: &mut Ctx<'_>) {
        self.got += 1;
        if self.got == ctx.procs() - 1 {
            self.got = 0;
            self.done += 1;
            if self.done < self.rounds {
                for dst in 0..ctx.procs() {
                    if dst != ctx.me() {
                        ctx.send(dst, 0, Data::U64(self.done));
                    }
                }
                ctx.compute(3, 0);
            }
        }
    }
}

/// A jittered/drifting config so the RNG actually matters.
fn noisy_config() -> SimConfig {
    SimConfig::traced()
        .with_jitter(3)
        .with_drift(8)
        .with_seed(0xBADC_0FFE)
}

fn grid() -> Grid {
    Grid {
        l: Axis::list([4, 8, 16]),
        o: Axis::list([1, 2]),
        g: Axis::fixed(4),
        p: Axis::list([2, 4]),
    }
}

fn batch_outcome(threads: Threads) -> Vec<(SimStats, Trace)> {
    let specs: Vec<RunSpec> = grid()
        .machines()
        .into_iter()
        .map(|m| {
            RunSpec::new(m, noisy_config(), |_| {
                Box::new(Scatter {
                    rounds: 20,
                    done: 0,
                    got: 0,
                })
            })
        })
        .collect();
    run_batch(&specs, threads)
        .into_iter()
        .map(|r| {
            let r = r.expect("scatter terminates");
            (r.stats, r.trace)
        })
        .collect()
}

#[test]
fn batches_are_bit_identical_across_thread_counts() {
    let one = batch_outcome(Threads::Fixed(1));
    assert_eq!(one.len(), 12, "grid enumerates 3*2*1*2 machines");
    for threads in [Threads::Fixed(2), Threads::Fixed(8), Threads::Auto] {
        let other = batch_outcome(threads);
        assert_eq!(one, other, "results must not depend on {threads:?}");
    }
}

#[test]
fn repeated_batches_are_bit_identical() {
    assert_eq!(
        batch_outcome(Threads::Fixed(4)),
        batch_outcome(Threads::Fixed(4))
    );
}

#[test]
fn batch_runs_differ_from_each_other_but_not_from_their_seed() {
    // Two specs with the same base seed get *different* streams (their
    // indices differ) — the decorrelation half of the seed contract...
    let mk = || {
        RunSpec::new(LogP::new(8, 1, 4, 4).unwrap(), noisy_config(), |_| {
            Box::new(Scatter {
                rounds: 20,
                done: 0,
                got: 0,
            })
        })
    };
    let results = run_batch(&[mk(), mk()], Threads::Fixed(2));
    let stats: Vec<&SimStats> = results.iter().map(|r| &r.as_ref().unwrap().stats).collect();
    assert_ne!(
        stats[0], stats[1],
        "same spec at different batch indices must draw different jitter"
    );

    // ...and each run is reproducible standalone via derive_seed — the
    // reproducibility half.
    for (i, want) in stats.iter().enumerate() {
        let spec = mk();
        let mut config = noisy_config();
        config.seed = derive_seed(config.seed, i as u64);
        let standalone = RunSpec::new(spec.model, config, |_| {
            Box::new(Scatter {
                rounds: 20,
                done: 0,
                got: 0,
            })
        })
        .run()
        .unwrap();
        assert_eq!(&&standalone.stats, want, "batch index {i} must replay");
    }
}

#[test]
fn run_sweep_is_thread_count_independent() {
    let sweep_at = |threads| {
        run_sweep(&grid(), &noisy_config(), threads, |_| {
            Box::new(Scatter {
                rounds: 10,
                done: 0,
                got: 0,
            })
        })
        .into_iter()
        .map(|(m, r)| (m, r.unwrap().stats))
        .collect::<Vec<_>>()
    };
    assert_eq!(sweep_at(Threads::Fixed(1)), sweep_at(Threads::Fixed(8)));
}

#[test]
fn sweep_map_preserves_order_and_thread_independence() {
    // The generic fan-out used by calibration sweeps (`logp-calib`):
    // results come back in input order, bit-identical at any worker
    // count, even when each item runs a full simulation internally.
    use logp_sim::runner::sweep_map;
    use logp_sim::Sim;

    let grid = grid();
    let machines = grid.machines();
    let measure = |m: &LogP| -> (LogP, SimStats) {
        let mut sim = Sim::new(*m, noisy_config());
        for p in 0..m.p {
            sim.set_process(
                p,
                Box::new(Scatter {
                    rounds: 5,
                    done: 0,
                    got: 0,
                }),
            );
        }
        (*m, sim.run().expect("scatter terminates").stats)
    };
    let serial = sweep_map(Threads::Fixed(1), &machines, measure);
    assert_eq!(
        serial.iter().map(|(m, _)| *m).collect::<Vec<_>>(),
        machines,
        "sweep_map must preserve input order"
    );
    for threads in [Threads::Fixed(2), Threads::Fixed(8), Threads::Auto] {
        assert_eq!(serial, sweep_map(threads, &machines, measure));
    }
}
