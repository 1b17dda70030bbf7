//! Property-based tests (proptest) over the model, the simulator, and the
//! algorithms — the invariants that must hold for *every* machine in the
//! 4-dimensional parameter space, not just the paper's examples.

use logp::algos::broadcast::run_optimal_broadcast;
use logp::algos::reduce::run_optimal_sum;
use logp::algos::scan::run_scan;
use logp::algos::sort::run_splitter_sort;
use logp::core::broadcast::{
    broadcast_reach, optimal_broadcast_time, optimal_broadcast_tree, shape_broadcast_time,
    TreeShape,
};
use logp::core::summation::{min_sum_time, procs_needed, sum_capacity, sum_capacity_bounded};
use logp::prelude::*;
use proptest::prelude::*;

/// A small random machine. Keeps parameters modest so simulations stay
/// fast under proptest's many cases.
fn machine() -> impl Strategy<Value = LogP> {
    (1u64..=20, 0u64..=8, 1u64..=10, 2u32..=24)
        .prop_map(|(l, o, g, p)| LogP::new(l, o, g, p).expect("generated parameters are valid"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The greedy broadcast tree always matches the reach-based optimum,
    /// and the simulator reproduces it cycle-exactly.
    #[test]
    fn broadcast_analytic_equals_simulated(m in machine()) {
        let t = optimal_broadcast_time(&m);
        prop_assert_eq!(optimal_broadcast_tree(&m).completion(), t);
        let run = run_optimal_broadcast(&m, SimConfig::default());
        prop_assert_eq!(run.completion, t);
        prop_assert_eq!(run.messages, m.p as u64 - 1);
    }

    /// No fixed tree shape ever beats the optimal broadcast.
    #[test]
    fn optimal_broadcast_is_optimal(m in machine()) {
        let t = optimal_broadcast_time(&m);
        for shape in [TreeShape::Flat, TreeShape::Linear, TreeShape::Binary, TreeShape::Binomial] {
            prop_assert!(t <= shape_broadcast_time(&m, shape));
        }
    }

    /// Reach is monotone in time and hits P at the optimal time.
    #[test]
    fn reach_is_monotone(m in machine()) {
        let t = optimal_broadcast_time(&m);
        let mut prev = 0;
        for tt in (0..=t).step_by(1 + (t as usize / 50)) {
            let r = broadcast_reach(&m, tt);
            prop_assert!(r >= prev);
            prev = r;
        }
        prop_assert!(broadcast_reach(&m, t) >= m.p as u64);
        if t > 0 {
            prop_assert!(broadcast_reach(&m, t - 1) < m.p as u64);
        }
    }

    /// Jitter can only improve the broadcast, and the result stays a
    /// complete broadcast.
    #[test]
    fn jitter_never_slows_broadcast(m in machine(), seed in 0u64..1000) {
        let bound = optimal_broadcast_time(&m);
        let cfg = SimConfig::default().with_jitter(m.l.saturating_sub(1)).with_seed(seed);
        let run = run_optimal_broadcast(&m, cfg);
        prop_assert!(run.completion <= bound);
        prop_assert_eq!(run.arrivals.len(), m.p as usize);
    }

    /// Summation capacity is monotone in both time and processors, the
    /// bounded value never exceeds the unbounded one, and beyond
    /// `procs_needed` the bound is immaterial.
    #[test]
    fn summation_capacity_laws(m in machine(), t in 0u64..80) {
        let unb = sum_capacity(&m, t);
        let mut prev = 0;
        for p in [1u32, 2, 4, 8, 32] {
            let c = sum_capacity_bounded(&m, t, p);
            prop_assert!(c >= prev);
            prop_assert!(c <= unb);
            prev = c;
        }
        prop_assert!(sum_capacity_bounded(&m, t + 1, 8) >= sum_capacity_bounded(&m, t, 8));
        let needed = procs_needed(&m, t);
        if needed <= 1_000 {
            prop_assert_eq!(sum_capacity_bounded(&m, t, needed as u32), unb);
        }
    }

    /// The executable optimal summation completes exactly at its deadline
    /// with the correct total, for arbitrary machines and budgets.
    #[test]
    fn summation_schedule_is_exact(m in machine(), t in 1u64..60) {
        let run = run_optimal_sum(&m, t, SimConfig::default());
        prop_assert_eq!(run.completion, t);
        prop_assert_eq!(run.inputs, sum_capacity_bounded(&m, t, m.p));
        let expected: f64 = (0..run.inputs).map(|v| v as f64).sum();
        prop_assert_eq!(run.total, expected);
    }

    /// `min_sum_time` is the exact inverse of bounded capacity.
    #[test]
    fn min_sum_time_inverts_capacity(m in machine(), n in 1u64..400) {
        let t = min_sum_time(&m, n, m.p);
        prop_assert!(sum_capacity_bounded(&m, t, m.p) >= n);
        if t > 0 {
            prop_assert!(sum_capacity_bounded(&m, t - 1, m.p) < n);
        }
    }

    /// The scan is correct for arbitrary inputs, processor counts and
    /// jitter seeds (message reordering must not matter).
    #[test]
    fn scan_correct_under_jitter(
        m in machine(),
        values in proptest::collection::vec(0u64..1000, 1..60),
        seed in 0u64..100,
    ) {
        // Pad to a multiple of P.
        let p = m.p as usize;
        let mut vals = values;
        while vals.len() % p != 0 {
            vals.push(0);
        }
        let cfg = SimConfig::default().with_jitter(m.l / 2).with_seed(seed);
        let run = run_scan(&m, &vals, cfg);
        let expect: Vec<u64> = vals
            .iter()
            .scan(0u64, |acc, &v| {
                *acc += v;
                Some(*acc)
            })
            .collect();
        prop_assert_eq!(run.prefix, expect);
    }

    /// Splitter sort produces the sorted permutation for arbitrary keys
    /// under jitter (power-of-two P required by the broadcast stage).
    #[test]
    fn splitter_sort_correct_under_jitter(
        keys in proptest::collection::vec(0u64..10_000, 16..200),
        seed in 0u64..50,
    ) {
        let m = LogP::new(8, 2, 3, 4).unwrap();
        let cfg = SimConfig::default().with_jitter(5).with_seed(seed);
        let run = run_splitter_sort(&m, &keys, cfg);
        let mut expect = keys.clone();
        expect.sort_unstable();
        prop_assert_eq!(run.output, expect);
    }

    /// Simulator conservation laws under random all-to-all traffic:
    /// capacity never exceeded, all messages delivered, identical stats
    /// on a re-run (determinism).
    #[test]
    fn engine_conservation_laws(m in machine(), msgs_per in 1u64..6, seed in 0u64..100) {
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
        prop_assert_eq!(a.stats.total_msgs, msgs_per * m.p as u64);
        prop_assert!(a.stats.max_inflight_per_dst <= m.capacity());
        prop_assert!(a.stats.max_inflight_per_src <= m.capacity());
        let b = run(cfg);
        prop_assert_eq!(a.stats.completion, b.stats.completion);
        prop_assert_eq!(a.stats.events, b.stats.events);
    }

    /// Accounting closes: busy time never exceeds completion time for any
    /// processor.
    #[test]
    fn accounting_is_bounded(m in machine(), msgs_per in 1u64..5) {
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
            prop_assert!(st.busy() <= r.stats.completion);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// All-gather assembles identical vectors on arbitrary machines and
    /// completes at its analytic ring bound (without jitter).
    #[test]
    fn allgather_matches_ring_bound(m in machine(), seed in 0u64..40) {
        use logp::algos::gather::{allgather_ring_time, run_allgather_ring};
        let values: Vec<u64> = (0..m.p as u64).map(|i| i * 3 + seed).collect();
        let run = run_allgather_ring(&m, &values, SimConfig::default());
        prop_assert_eq!(&run.blocks, &values);
        if m.p >= 2 {
            prop_assert_eq!(run.completion, allgather_ring_time(&m));
        }
    }

    /// Parameter extraction recovers any generated machine to within 5%,
    /// outside the gap-limited regime the method itself documents.
    #[test]
    fn extraction_recovers_random_machines(m in machine()) {
        use logp::calib::{calibrate, CalibConfig, SimMachine};
        let two = m.with_p(2);
        prop_assume!(2 * two.point_to_point() > two.send_interval() + 1);
        let cal = calibrate(&mut SimMachine::new(two), &CalibConfig::default());
        prop_assert!(
            !cal.gap_limited && cal.worst_relative_error(&two) < 0.05,
            "extraction failed on {}: {:?}", two, cal
        );
    }

    /// LogGP bulk sends always match the closed-form long-message time.
    #[test]
    fn bulk_send_matches_loggp_formula(
        m in machine(),
        big_g in 1u64..8,
        words in 1u64..200,
    ) {
        use logp::core::extensions::LogGP;
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
        prop_assert_eq!(
            r.stats.completion,
            LogGP::new(two, big_g).long_message_time(words)
        );
    }

    /// The Jacobi stencil matches its sequential oracle for random fields,
    /// machine points and iteration counts.
    #[test]
    fn stencil_matches_oracle(
        m in machine(),
        iters in 0u64..6,
        block in 1usize..12,
        seed in 0u64..50,
    ) {
        use logp::algos::stencil::{jacobi_sequential, run_jacobi};
        prop_assume!(m.p >= 2);
        let n = m.p as usize * block;
        let field: Vec<f64> = (0..n).map(|i| ((i as u64 ^ seed) % 17) as f64).collect();
        let cfg = SimConfig::default().with_jitter(m.l / 2).with_seed(seed);
        let run = run_jacobi(&m, &field, iters, cfg);
        let expect = jacobi_sequential(&field, iters);
        for (a, b) in run.field.iter().zip(&expect) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// Radix sort equals the sorted input for random keys under jitter.
    #[test]
    fn radix_sorts_random_keys(
        keys in proptest::collection::vec(0u64..(1 << 12), 16..120),
        seed in 0u64..30,
    ) {
        use logp::algos::radix::run_radix_sort;
        let m = LogP::new(8, 2, 3, 4).unwrap();
        let mut padded = keys;
        while padded.len() % 4 != 0 {
            padded.push(0);
        }
        let cfg = SimConfig::default().with_jitter(5).with_seed(seed);
        let run = run_radix_sort(&m, &padded, 6, 12, cfg);
        let mut expect = padded.clone();
        expect.sort_unstable();
        prop_assert_eq!(run.output, expect);
    }

    /// SUMMA multiplies random matrices correctly on 2x2 and 3x3 grids.
    #[test]
    fn summa_multiplies_random_matrices(
        seed in 0u64..200,
        grid in 2u32..4,
        tiles in 1usize..4,
    ) {
        use logp::algos::lu::Matrix;
        use logp::algos::matmul::{matmul_sequential, run_summa};
        let n = grid as usize * tiles;
        let m = LogP::new(9, 2, 3, grid * grid).unwrap();
        let a = Matrix::test_matrix(n, seed);
        let b = Matrix::test_matrix(n, seed ^ 0xFFFF);
        let run = run_summa(&m, &a, &b, SimConfig::default());
        let expect = matmul_sequential(&a, &b);
        for (x, y) in run.c.data.iter().zip(&expect.data) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// k-item broadcast strategies all deliver the complete vector under
    /// jitter, for random machines and payload sizes.
    #[test]
    fn kbroadcast_strategies_deliver(
        m in machine(),
        k in 1usize..24,
        seed in 0u64..30,
    ) {
        use logp::algos::kbroadcast::{
            run_kbcast_binomial, run_kbcast_optimal_tree, run_kbcast_scatter_gather,
        };
        let items: Vec<u64> = (0..k as u64).map(|i| i * 13 + 5).collect();
        let cfg = SimConfig::default().with_jitter(m.l / 2).with_seed(seed);
        // Delivery correctness is asserted inside each runner.
        let a = run_kbcast_optimal_tree(&m, &items, cfg.clone());
        let b = run_kbcast_binomial(&m, &items, cfg.clone());
        let c = run_kbcast_scatter_gather(&m, &items, cfg);
        prop_assert!(a.completion > 0 && b.completion > 0 && c.completion > 0);
        // Tree strategies deliver exactly (P-1)·k messages.
        prop_assert_eq!(a.messages, (m.p as u64 - 1) * k as u64);
        prop_assert_eq!(b.messages, (m.p as u64 - 1) * k as u64);
    }

    /// The scatter stream bound holds exactly on arbitrary machines.
    #[test]
    fn scatter_matches_stream_bound(m in machine()) {
        use logp::algos::gather::{run_scatter, scatter_time};
        let values: Vec<u64> = (0..m.p as u64).collect();
        let run = run_scatter(&m, &values, SimConfig::default());
        prop_assert_eq!(run.completion, scatter_time(&m));
    }

    /// CC labels match union-find on random graphs for both variants.
    #[test]
    fn cc_matches_union_find(
        n in 8u64..48,
        edge_factor in 1u64..4,
        seed in 0u64..50,
        combining in proptest::bool::ANY,
    ) {
        use logp::algos::cc::{cc_sequential, run_cc, Graph};
        let g = Graph::random(n, n * edge_factor, seed | 1);
        let m = LogP::new(10, 2, 4, 8).unwrap();
        let run = run_cc(&m, &g, combining, SimConfig::default());
        prop_assert_eq!(run.labels, cc_sequential(&g));
    }
}

/// Trace/stats conservation: for a traced run, the cycles in each
/// processor's activity spans must sum exactly to the corresponding
/// `ProcStats` accumulator — the trace and the counters are two views of
/// the same execution and may never drift apart.
fn assert_span_stats_conservation(r: &logp::sim::SimResult) -> Result<(), TestCaseError> {
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
        prop_assert_eq!(sums[q][0], st.send_overhead, "P{} send overhead", q);
        prop_assert_eq!(sums[q][1], st.recv_overhead, "P{} recv overhead", q);
        prop_assert_eq!(sums[q][2], st.compute, "P{} compute", q);
        prop_assert_eq!(sums[q][3], st.stall, "P{} stall", q);
        prop_assert_eq!(sums[q][4], st.barrier_wait, "P{} barrier wait", q);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Span/stats conservation holds for broadcast on arbitrary machines.
    #[test]
    fn trace_conserves_stats_broadcast(m in machine()) {
        let run = run_optimal_broadcast(&m, SimConfig::default().with_trace(true));
        assert_span_stats_conservation(&run.result)?;
    }

    /// Span/stats conservation holds for capacity-stalled all-to-all
    /// traffic (stall spans included).
    #[test]
    fn trace_conserves_stats_all_to_all(m in machine(), msgs_per in 1u64..6) {
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
        assert_span_stats_conservation(&r)?;
    }

    /// Span/stats conservation holds for the optimal summation (compute
    /// spans included), and full observation does not disturb it.
    #[test]
    fn trace_conserves_stats_summation(m in machine(), t in 1u64..40) {
        let run = run_optimal_sum(&m, t, SimConfig::observed().with_metrics_grid(8));
        assert_span_stats_conservation(&run.result)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The 2D stencil matches its sequential oracle on random fields and
    /// grids, under jitter.
    #[test]
    fn stencil2d_matches_oracle(
        grid in 2u32..4,
        tiles in 2usize..5,
        iters in 0u64..4,
        seed in 0u64..40,
    ) {
        use logp::algos::stencil2d::{jacobi2d_sequential, run_jacobi2d};
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
            prop_assert!((a - b).abs() < 1e-9);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Widening every link of the packet machine can only push the
    /// saturation knee of the measured `g(ρ)` curve to higher offered
    /// load: more bandwidth, later breakdown. (`None` = the curve never
    /// left the flat region, treated as a knee beyond every probed load.)
    #[test]
    fn saturation_knee_moves_up_with_link_bandwidth(
        seed in 0u64..1_000,
        widen in 2u32..=4,
    ) {
        use logp::calib::{g_knee, g_of_load, CalibConfig, PacketMachine};
        use logp::net::{Network, Topology};

        let loads = [0.0, 0.2, 0.4, 0.6, 0.8];
        let cfg = CalibConfig::quick().with_endpoints(0, 15);
        let knee_at = |factor: u32| {
            let mut m = PacketMachine::new(Network::build(Topology::Mesh2D, 16), 2, 4);
            m.seed = seed;
            m.net.scale_link_capacity(factor);
            let curve = g_of_load(&m, &loads, &cfg);
            g_knee(&curve, 1.3).unwrap_or(1.0)
        };
        prop_assert!(knee_at(widen) >= knee_at(1));
    }
}
