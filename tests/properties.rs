//! Property tests over the model, the simulator, and the algorithms — the
//! invariants that must hold for *every* machine in the 4-dimensional
//! parameter space, not just the paper's examples. Each property is a
//! seeded loop (`common/cases.rs`); the ones that draw a machine run the
//! corner machines first.

use logp::algos::broadcast::run_optimal_broadcast;
use logp::algos::reduce::run_optimal_sum;
use logp::algos::scan::run_scan;
use logp::algos::sort::run_splitter_sort;
use logp::core::broadcast::{
    broadcast_reach, optimal_broadcast_time, optimal_broadcast_tree, shape_broadcast_time,
    TreeShape,
};
use logp::core::rng::CounterRng;
use logp::core::summation::{min_sum_time, procs_needed, sum_capacity, sum_capacity_bounded};
use logp::prelude::*;
use std::ops::RangeInclusive;

#[path = "common/cases.rs"]
mod cases;
use cases::{check, check_machines, draw};

/// A small random machine. Keeps parameters modest so simulations stay
/// fast over many cases.
fn machine(rng: &mut CounterRng) -> LogP {
    let (l, o, g) = (draw(rng, 1..=20), draw(rng, 0..=8), draw(rng, 1..=10));
    LogP::new(l, o, g, draw(rng, 2..=24) as u32).expect("generated parameters are valid")
}

/// A vector of `len` values (length drawn first), each from `each`.
fn values(rng: &mut CounterRng, each: RangeInclusive<u64>, len: RangeInclusive<u64>) -> Vec<u64> {
    (0..draw(rng, len))
        .map(|_| draw(rng, each.clone()))
        .collect()
}

/// The greedy broadcast tree always matches the reach-based optimum,
/// and the simulator reproduces it cycle-exactly.
#[test]
fn broadcast_analytic_equals_simulated() {
    check_machines(
        "broadcast_analytic_equals_simulated",
        48,
        machine,
        |m, _| {
            let t = optimal_broadcast_time(&m);
            assert_eq!(optimal_broadcast_tree(&m).completion(), t);
            let run = run_optimal_broadcast(&m, SimConfig::default());
            assert_eq!(run.completion, t);
            assert_eq!(run.messages, m.p as u64 - 1);
        },
    );
}

/// No fixed tree shape ever beats the optimal broadcast.
#[test]
fn optimal_broadcast_is_optimal() {
    check_machines("optimal_broadcast_is_optimal", 48, machine, |m, _| {
        let t = optimal_broadcast_time(&m);
        for shape in [
            TreeShape::Flat,
            TreeShape::Linear,
            TreeShape::Binary,
            TreeShape::Binomial,
        ] {
            assert!(t <= shape_broadcast_time(&m, shape));
        }
    });
}

/// Reach is monotone in time and hits P at the optimal time.
#[test]
fn reach_is_monotone() {
    check_machines("reach_is_monotone", 48, machine, |m, _| {
        let t = optimal_broadcast_time(&m);
        let mut prev = 0;
        for tt in (0..=t).step_by(1 + (t as usize / 50)) {
            let r = broadcast_reach(&m, tt);
            assert!(r >= prev);
            prev = r;
        }
        assert!(broadcast_reach(&m, t) >= m.p as u64);
        if t > 0 {
            assert!(broadcast_reach(&m, t - 1) < m.p as u64);
        }
    });
}

/// Jitter can only improve the broadcast, and the result stays a
/// complete broadcast.
#[test]
fn jitter_never_slows_broadcast() {
    check_machines("jitter_never_slows_broadcast", 48, machine, |m, rng| {
        let seed = draw(rng, 0..=999);
        let bound = optimal_broadcast_time(&m);
        let cfg = SimConfig::default()
            .with_jitter(m.l.saturating_sub(1))
            .with_seed(seed);
        let run = run_optimal_broadcast(&m, cfg);
        assert!(run.completion <= bound);
        assert_eq!(run.arrivals.len(), m.p as usize);
    });
}

/// Summation capacity is monotone in both time and processors, the
/// bounded value never exceeds the unbounded one, and beyond
/// `procs_needed` the bound is immaterial.
#[test]
fn summation_capacity_laws() {
    check_machines("summation_capacity_laws", 48, machine, |m, rng| {
        let t = draw(rng, 0..=79);
        let unb = sum_capacity(&m, t);
        let mut prev = 0;
        for p in [1u32, 2, 4, 8, 32] {
            let c = sum_capacity_bounded(&m, t, p);
            assert!(c >= prev);
            assert!(c <= unb);
            prev = c;
        }
        assert!(sum_capacity_bounded(&m, t + 1, 8) >= sum_capacity_bounded(&m, t, 8));
        let needed = procs_needed(&m, t);
        if needed <= 1_000 {
            assert_eq!(sum_capacity_bounded(&m, t, needed as u32), unb);
        }
    });
}

/// The executable optimal summation completes exactly at its deadline
/// with the correct total, for arbitrary machines and budgets, and is
/// timed as Figure 4 is: every partial's reception starts the moment it
/// arrives, and the root is busy for all `T` cycles.
#[test]
fn summation_schedule_is_exact() {
    check_machines("summation_schedule_is_exact", 48, machine, |m, rng| {
        let t = draw(rng, 1..=59);
        let run = run_optimal_sum(&m, t, SimConfig::default().with_msg_log(true));
        assert_eq!(run.completion, t);
        assert_eq!(run.inputs, sum_capacity_bounded(&m, t, m.p));
        let expected: f64 = (0..run.inputs).map(|v| v as f64).sum();
        assert_eq!(run.total, expected);
        for msg in &run.result.obs.msgs {
            assert_eq!(msg.recv_start, msg.arrive, "{m} T={t}: {msg:?} waited");
        }
        assert_eq!(run.result.stats.procs[0].busy(), t, "{m} T={t}: root idle");
    });
}

/// `min_sum_time` is the exact inverse of bounded capacity.
#[test]
fn min_sum_time_inverts_capacity() {
    check_machines("min_sum_time_inverts_capacity", 48, machine, |m, rng| {
        let n = draw(rng, 1..=399);
        let t = min_sum_time(&m, n, m.p);
        assert!(sum_capacity_bounded(&m, t, m.p) >= n);
        if t > 0 {
            assert!(sum_capacity_bounded(&m, t - 1, m.p) < n);
        }
    });
}

/// The scan is correct for arbitrary inputs, processor counts and
/// jitter seeds (message reordering must not matter).
#[test]
fn scan_correct_under_jitter() {
    check_machines("scan_correct_under_jitter", 48, machine, |m, rng| {
        let mut vals = values(rng, 0..=999, 1..=59);
        let seed = draw(rng, 0..=99);
        // Pad to a multiple of P.
        vals.resize(vals.len().div_ceil(m.p as usize) * m.p as usize, 0);
        let cfg = SimConfig::default().with_jitter(m.l / 2).with_seed(seed);
        let run = run_scan(&m, &vals, cfg);
        let expect: Vec<u64> = vals
            .iter()
            .scan(0u64, |acc, &v| {
                *acc += v;
                Some(*acc)
            })
            .collect();
        assert_eq!(run.prefix, expect);
    });
}

/// Splitter sort produces the sorted permutation for arbitrary keys
/// under jitter (power-of-two P required by the broadcast stage).
#[test]
fn splitter_sort_correct_under_jitter() {
    check("splitter_sort_correct_under_jitter", 48, |rng| {
        let keys = values(rng, 0..=9_999, 16..=199);
        let seed = draw(rng, 0..=49);
        let m = LogP::new(8, 2, 3, 4).unwrap();
        let cfg = SimConfig::default().with_jitter(5).with_seed(seed);
        let run = run_splitter_sort(&m, &keys, cfg);
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(run.output, expect);
    });
}

/// Simulator conservation laws under random all-to-all traffic:
/// capacity never exceeded, all messages delivered, identical stats
/// on a re-run (determinism).
#[test]
fn engine_conservation_laws() {
    check_machines("engine_conservation_laws", 48, machine, |m, rng| {
        let (msgs_per, seed) = (draw(rng, 1..=5), draw(rng, 0..=99));
        let cfg = SimConfig::default().with_jitter(m.l / 3).with_seed(seed);
        let run = |cfg: SimConfig| {
            let mut sim = Sim::new(m, cfg);
            sim.set_all(|me| {
                Box::new(logp::sim::process::StartFn(move |ctx: &mut Ctx<'_>| {
                    for i in 0..msgs_per {
                        let dst = (me + 1 + (i as u32 % (ctx.procs() - 1))) % ctx.procs();
                        ctx.send(dst, 0, Data::U64(i));
                    }
                }))
            });
            sim.run().expect("terminates")
        };
        let a = run(cfg.clone());
        assert_eq!(a.stats.total_msgs, msgs_per * m.p as u64);
        assert!(a.stats.max_inflight_per_dst <= m.capacity());
        assert!(a.stats.max_inflight_per_src <= m.capacity());
        let b = run(cfg);
        assert_eq!(a.stats.completion, b.stats.completion);
        assert_eq!(a.stats.events, b.stats.events);
    });
}

/// Accounting closes: busy time never exceeds completion time for any
/// processor.
#[test]
fn accounting_is_bounded() {
    check_machines("accounting_is_bounded", 48, machine, |m, rng| {
        let msgs_per = draw(rng, 1..=4);
        let mut sim = Sim::new(m, SimConfig::default());
        sim.set_all(move |me| {
            Box::new(logp::sim::process::StartFn(move |ctx: &mut Ctx<'_>| {
                ctx.compute(7, 0);
                for _ in 0..msgs_per {
                    ctx.send((me + 1) % ctx.procs(), 0, Data::Empty);
                }
            }))
        });
        let r = sim.run().expect("terminates");
        for st in &r.stats.procs {
            assert!(st.busy() <= r.stats.completion);
        }
    });
}

/// All-gather assembles identical vectors on arbitrary machines and
/// completes at its analytic ring bound (without jitter).
#[test]
fn allgather_matches_ring_bound() {
    use logp::algos::gather::{allgather_ring_time, run_allgather_ring};
    check_machines("allgather_matches_ring_bound", 32, machine, |m, rng| {
        let seed = draw(rng, 0..=39);
        let values: Vec<u64> = (0..m.p as u64).map(|i| i * 3 + seed).collect();
        let run = run_allgather_ring(&m, &values, SimConfig::default());
        assert_eq!(&run.blocks, &values);
        if m.p >= 2 {
            assert_eq!(run.completion, allgather_ring_time(&m));
        }
    });
}

/// Parameter extraction recovers any generated machine to within 5%,
/// outside the gap-limited regime the method itself documents (a case
/// inside it is skipped, and still counts).
#[test]
fn extraction_recovers_random_machines() {
    use logp::calib::{calibrate, CalibConfig, SimMachine};
    check_machines(
        "extraction_recovers_random_machines",
        32,
        machine,
        |m, _| {
            let two = m.with_p(2);
            if 2 * two.point_to_point() <= two.send_interval() + 1 {
                return;
            }
            let cal = calibrate(&mut SimMachine::new(two), &CalibConfig::default());
            assert!(
                !cal.gap_limited && cal.worst_relative_error(&two) < 0.05,
                "extraction failed on {}: {:?}",
                two,
                cal
            );
        },
    );
}

/// LogGP bulk sends always match the closed-form long-message time.
#[test]
fn bulk_send_matches_loggp_formula() {
    use logp::core::extensions::LogGP;
    check_machines("bulk_send_matches_loggp_formula", 32, machine, |m, rng| {
        let (big_g, words) = (draw(rng, 1..=7), draw(rng, 1..=199));
        let two = m.with_p(2);
        let cfg = SimConfig::default().with_big_g(big_g);
        let mut sim = Sim::new(two, cfg);
        sim.set_all(move |me| {
            Box::new(logp::sim::process::StartFn(move |ctx: &mut Ctx<'_>| {
                if me == 0 {
                    ctx.send_bulk(1, 0, Data::Empty, words);
                }
            }))
        });
        let r = sim.run().expect("terminates");
        assert_eq!(
            r.stats.completion,
            LogGP::new(two, big_g).long_message_time(words)
        );
    });
}

/// The Jacobi stencil matches its sequential oracle for random fields,
/// machine points and iteration counts.
#[test]
fn stencil_matches_oracle() {
    use logp::algos::stencil::{jacobi_sequential, run_jacobi};
    check_machines("stencil_matches_oracle", 32, machine, |m, rng| {
        let iters = draw(rng, 0..=5);
        let block = draw(rng, 1..=11) as usize;
        let seed = draw(rng, 0..=49);
        let n = m.p as usize * block;
        let field: Vec<f64> = (0..n).map(|i| ((i as u64 ^ seed) % 17) as f64).collect();
        let cfg = SimConfig::default().with_jitter(m.l / 2).with_seed(seed);
        let run = run_jacobi(&m, &field, iters, cfg);
        let expect = jacobi_sequential(&field, iters);
        for (a, b) in run.field.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-9);
        }
    });
}

/// Radix sort equals the sorted input for random keys under jitter.
#[test]
fn radix_sorts_random_keys() {
    use logp::algos::radix::run_radix_sort;
    check("radix_sorts_random_keys", 32, |rng| {
        let mut padded = values(rng, 0..=(1 << 12) - 1, 16..=119);
        let seed = draw(rng, 0..=29);
        let m = LogP::new(8, 2, 3, 4).unwrap();
        padded.resize(padded.len().div_ceil(4) * 4, 0);
        let cfg = SimConfig::default().with_jitter(5).with_seed(seed);
        let run = run_radix_sort(&m, &padded, 6, 12, cfg);
        let mut expect = padded.clone();
        expect.sort_unstable();
        assert_eq!(run.output, expect);
    });
}

/// SUMMA multiplies random matrices correctly on 2x2 and 3x3 grids.
#[test]
fn summa_multiplies_random_matrices() {
    use logp::algos::lu::Matrix;
    use logp::algos::matmul::{matmul_sequential, run_summa};
    check("summa_multiplies_random_matrices", 32, |rng| {
        let seed = draw(rng, 0..=199);
        let grid = draw(rng, 2..=3) as u32;
        let tiles = draw(rng, 1..=3) as usize;
        let n = grid as usize * tiles;
        let m = LogP::new(9, 2, 3, grid * grid).unwrap();
        let a = Matrix::test_matrix(n, seed);
        let b = Matrix::test_matrix(n, seed ^ 0xFFFF);
        let run = run_summa(&m, &a, &b, SimConfig::default());
        let expect = matmul_sequential(&a, &b);
        for (x, y) in run.c.data.iter().zip(&expect.data) {
            assert!((x - y).abs() < 1e-9);
        }
    });
}

/// k-item broadcast strategies all deliver the complete vector under
/// jitter, for random machines and payload sizes.
#[test]
fn kbroadcast_strategies_deliver() {
    use logp::algos::kbroadcast::{
        run_kbcast_binomial, run_kbcast_optimal_tree, run_kbcast_scatter_gather,
    };
    check_machines("kbroadcast_strategies_deliver", 24, machine, |m, rng| {
        let (k, seed) = (draw(rng, 1..=23), draw(rng, 0..=29));
        let items: Vec<u64> = (0..k).map(|i| i * 13 + 5).collect();
        let cfg = SimConfig::default().with_jitter(m.l / 2).with_seed(seed);
        // Delivery correctness is asserted inside each runner.
        let a = run_kbcast_optimal_tree(&m, &items, cfg.clone());
        let b = run_kbcast_binomial(&m, &items, cfg.clone());
        let c = run_kbcast_scatter_gather(&m, &items, cfg);
        assert!(a.completion > 0 && b.completion > 0 && c.completion > 0);
        // Tree strategies deliver exactly (P-1)·k messages.
        assert_eq!(a.messages, (m.p as u64 - 1) * k);
        assert_eq!(b.messages, (m.p as u64 - 1) * k);
    });
}

/// The scatter stream bound holds exactly on arbitrary machines.
#[test]
fn scatter_matches_stream_bound() {
    use logp::algos::gather::{run_scatter, scatter_time};
    check_machines("scatter_matches_stream_bound", 24, machine, |m, _| {
        let values: Vec<u64> = (0..m.p as u64).collect();
        let run = run_scatter(&m, &values, SimConfig::default());
        assert_eq!(run.completion, scatter_time(&m));
    });
}

/// CC labels match union-find on random graphs for both variants.
#[test]
fn cc_matches_union_find() {
    use logp::algos::cc::{cc_sequential, run_cc, Graph};
    check("cc_matches_union_find", 24, |rng| {
        let (n, edge_factor) = (draw(rng, 8..=47), draw(rng, 1..=3));
        let (seed, combining) = (draw(rng, 0..=49), rng.next_bool(0.5));
        let g = Graph::random(n, n * edge_factor, seed | 1);
        let m = LogP::new(10, 2, 4, 8).unwrap();
        let run = run_cc(&m, &g, combining, SimConfig::default());
        assert_eq!(run.labels, cc_sequential(&g));
    });
}

/// Trace/stats conservation: for a traced run, the cycles in each
/// processor's activity spans must sum exactly to the corresponding
/// `ProcStats` accumulator — the trace and the counters are two views of
/// the same execution and may never drift apart.
fn assert_span_stats_conservation(r: &logp::sim::SimResult) {
    use logp::sim::Activity;
    let p = r.stats.procs.len();
    let mut sums = vec![[0u64; 5]; p];
    for sp in &r.trace.spans {
        let slot = match sp.activity {
            Activity::SendOverhead => 0,
            Activity::RecvOverhead => 1,
            Activity::Compute => 2,
            Activity::Stall => 3,
            Activity::Barrier => 4,
        };
        sums[sp.proc as usize][slot] += sp.end - sp.start;
    }
    for (q, st) in r.stats.procs.iter().enumerate() {
        assert_eq!(sums[q][0], st.send_overhead, "P{q} send overhead");
        assert_eq!(sums[q][1], st.recv_overhead, "P{q} recv overhead");
        assert_eq!(sums[q][2], st.compute, "P{q} compute");
        assert_eq!(sums[q][3], st.stall, "P{q} stall");
        assert_eq!(sums[q][4], st.barrier_wait, "P{q} barrier wait");
    }
}

/// Span/stats conservation holds for broadcast on arbitrary machines.
#[test]
fn trace_conserves_stats_broadcast() {
    check_machines("trace_conserves_stats_broadcast", 32, machine, |m, _| {
        let run = run_optimal_broadcast(&m, SimConfig::default().with_trace(true));
        assert_span_stats_conservation(&run.result);
    });
}

/// Span/stats conservation holds for capacity-stalled all-to-all
/// traffic (stall spans included).
#[test]
fn trace_conserves_stats_all_to_all() {
    check_machines("trace_conserves_stats_all_to_all", 32, machine, |m, rng| {
        let msgs_per = draw(rng, 1..=5);
        let mut sim = Sim::new(m, SimConfig::default().with_trace(true));
        sim.set_all(move |me| {
            Box::new(logp::sim::process::StartFn(move |ctx: &mut Ctx<'_>| {
                ctx.compute(3, 0);
                for i in 0..msgs_per {
                    let dst = (me + 1 + (i as u32 % (ctx.procs() - 1))) % ctx.procs();
                    ctx.send(dst, 0, Data::U64(i));
                }
            }))
        });
        let r = sim.run().expect("terminates");
        assert_span_stats_conservation(&r);
    });
}

/// Span/stats conservation holds for the optimal summation (compute
/// spans included), and full observation does not disturb it.
#[test]
fn trace_conserves_stats_summation() {
    check_machines("trace_conserves_stats_summation", 32, machine, |m, rng| {
        let t = draw(rng, 1..=39);
        let run = run_optimal_sum(&m, t, SimConfig::observed().with_metrics_grid(8));
        assert_span_stats_conservation(&run.result);
    });
}

/// The 2D stencil matches its sequential oracle on random fields and
/// grids, under jitter.
#[test]
fn stencil2d_matches_oracle() {
    use logp::algos::stencil2d::{jacobi2d_sequential, run_jacobi2d};
    check("stencil2d_matches_oracle", 16, |rng| {
        let grid = draw(rng, 2..=3) as u32;
        let tiles = draw(rng, 2..=4) as usize;
        let (iters, seed) = (draw(rng, 0..=3), draw(rng, 0..=39));
        let n = grid as usize * tiles;
        let m = LogP::new(9, 2, 3, grid * grid).unwrap();
        let field: Vec<Vec<f64>> = (0..n)
            .map(|r| {
                (0..n)
                    .map(|c| (((r * n + c) as u64 ^ seed) % 23) as f64)
                    .collect()
            })
            .collect();
        let cfg = SimConfig::default().with_jitter(4).with_seed(seed);
        let run = run_jacobi2d(&m, &field, iters, cfg);
        let expect = jacobi2d_sequential(&field, iters);
        for (a, b) in run.field.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-9);
        }
    });
}

/// Widening every link of the packet machine can only push the
/// saturation knee of the measured `g(ρ)` curve to higher offered
/// load: more bandwidth, later breakdown. (`None` = the curve never
/// left the flat region, treated as a knee beyond every probed load.)
#[test]
fn saturation_knee_moves_up_with_link_bandwidth() {
    use logp::calib::{g_knee, g_of_load, CalibConfig, PacketMachine};
    use logp::net::{Network, Topology};
    check("saturation_knee_moves_up_with_link_bandwidth", 4, |rng| {
        let (seed, widen) = (draw(rng, 0..=999), draw(rng, 2..=4) as u32);
        let loads = [0.0, 0.2, 0.4, 0.6, 0.8];
        let cfg = CalibConfig::quick().with_endpoints(0, 15);
        let knee_at = |factor: u32| {
            let mut m = PacketMachine::new(Network::build(Topology::Mesh2D, 16), 2, 4);
            m.seed = seed;
            m.net.scale_link_capacity(factor);
            let curve = g_of_load(&m, &loads, &cfg);
            g_knee(&curve, 1.3).unwrap_or(1.0)
        };
        assert!(knee_at(widen) >= knee_at(1));
    });
}
