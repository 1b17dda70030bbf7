//! Integration tests spanning the workspace crates through the `logp`
//! facade: closed-form analysis (logp-core) vs execution (logp-sim +
//! logp-algos), network-derived model parameters (logp-net) feeding
//! algorithm analysis, and baseline models (logp-baselines) agreeing with
//! their closed forms.

use logp::algos::broadcast::{run_optimal_broadcast, run_shape_broadcast};
use logp::algos::fft::kernel::{fft_in_place, max_error};
use logp::algos::fft::run_parallel_fft;
use logp::algos::reduce::run_optimal_sum;
use logp::baselines::{bsp_sum, BspMachine};
use logp::core::broadcast::{optimal_broadcast_time, shape_broadcast_time, TreeShape};
use logp::core::extensions::Pattern;
use logp::core::models::Bsp;
use logp::core::summation::{min_sum_time, sum_capacity_bounded};
use logp::net::patterns::{derive_multi_gap, hypercube_ecube_congestion, Permutation};
use logp::net::{table1, Network, Topology};
use logp::prelude::*;

/// Every machine preset: analytic collective times equal simulated ones.
#[test]
fn presets_analytic_equals_simulated() {
    for preset in MachinePreset::all() {
        let m = preset.logp.with_p(32);
        let run = run_optimal_broadcast(&m, SimConfig::default());
        assert_eq!(
            run.completion,
            optimal_broadcast_time(&m),
            "broadcast mismatch on {}",
            preset.name
        );
        for shape in [TreeShape::Binomial, TreeShape::Binary] {
            let run = run_shape_broadcast(&m, shape, SimConfig::default());
            assert_eq!(
                run.completion,
                shape_broadcast_time(&m, shape),
                "{}",
                preset.name
            );
        }
    }
}

/// The optimal summation executes exactly at its analytic deadline on the
/// CM-5 preset.
#[test]
fn cm5_summation_meets_deadline() {
    let m = MachinePreset::cm5().logp.with_p(16);
    let n = 2000;
    let t = min_sum_time(&m, n, m.p);
    assert!(sum_capacity_bounded(&m, t, m.p) >= n);
    let run = run_optimal_sum(&m, t, SimConfig::default());
    assert_eq!(run.completion, t);
    let expected: f64 = (0..run.inputs).map(|v| v as f64).sum();
    assert_eq!(run.total, expected);
}

/// The FFT flows end-to-end through the facade: real data, simulated
/// machine, verified numerics.
#[test]
fn facade_fft_is_numerically_correct() {
    let m = MachinePreset::cm5().logp.with_p(8);
    let n = 512u64;
    let input: Vec<Cplx> = (0..n)
        .map(|i| Cplx::new((i as f64 * 0.05).cos(), 0.25))
        .collect();
    let spec = FftRunSpec {
        n,
        schedule: RemapSchedule::Staggered,
        local_cost: 10,
        compute: Some(ComputeModel::cm5()),
    };
    let run = run_parallel_fft(&m, &input, &spec, SimConfig::default());
    let mut reference = input.clone();
    fft_in_place(&mut reference);
    assert!(max_error(&run.output, &reference) < 1e-8);
}

/// Section 5 feeds Section 3: congestion measured on a real topology
/// (logp-net) produces a pattern-dependent gap (logp-core extension), and
/// the degraded gap changes algorithm analysis the way the paper warns.
#[test]
fn measured_congestion_degrades_the_model() {
    let base = LogP::new(60, 20, 40, 256).unwrap();
    let good = hypercube_ecube_congestion(&Permutation::shift(256, 1));
    let bad = hypercube_ecube_congestion(&Permutation::bit_reversal(256));
    let mg = derive_multi_gap(&base, &good, &bad);
    let good_model = mg.model_for(Pattern::ContentionFree);
    let bad_model = mg.model_for(Pattern::General);
    // A bandwidth-bound pattern (stream of n messages) suffers the full
    // congestion factor.
    let n = 10_000;
    let good_t = logp::core::cost::stream_time(&good_model, n);
    let bad_t = logp::core::cost::stream_time(&bad_model, n);
    assert!(
        bad_t as f64 / good_t as f64 > 3.0,
        "bit-reversal congestion must show up in the stream bound"
    );
}

/// Table 1's suggested LogP overhead for the CM-5 Active-Message layer is
/// consistent with the §4.1.4 calibration used by the presets (~2 µs).
#[test]
fn table1_and_preset_calibrations_agree() {
    let cm5_am = table1()
        .into_iter()
        .find(|r| r.machine == "CM-5 (AM)")
        .expect("row exists");
    let o_us = cm5_am.suggested_logp_o() * cm5_am.cycle_ns / 1000.0;
    let preset = MachinePreset::cm5();
    let preset_o_us = preset.cycles_to_us(preset.logp.o);
    assert!(
        (o_us - preset_o_us).abs() < 0.7,
        "Table 1 suggests o = {o_us:.2} µs; preset uses {preset_o_us} µs"
    );
}

/// The BSP baseline's executed cost is bounded below by the LogP optimum
/// for the same problem (the paper's §6.3 argument, quantified).
#[test]
fn bsp_execution_never_beats_logp_optimum() {
    let m = LogP::new(6, 2, 4, 16).unwrap();
    let machine = BspMachine::from_model(&Bsp::from_logp(&m));
    for n in [64u64, 256, 1024] {
        let values: Vec<f64> = (0..n).map(|v| v as f64).collect();
        let (run, total) = bsp_sum(&machine, &values);
        assert_eq!(total, values.iter().sum::<f64>());
        let logp_t = min_sum_time(&m, n, m.p);
        assert!(
            run.cost >= logp_t,
            "BSP cost {} below LogP optimum {logp_t} for n={n}",
            run.cost
        );
    }
}

/// Topology diameters bound the unloaded hop term of the §5.2 timing
/// model: T(M, diameter) >= T(M, avg).
#[test]
fn timing_model_is_monotone_in_distance() {
    let net = Network::build(Topology::Torus2D, 64);
    let avg = net.avg_endpoint_distance();
    let diam = net.endpoint_diameter() as f64;
    assert!(diam >= avg);
    for row in table1() {
        assert!(row.unloaded_time(160, diam) >= row.unloaded_time(160, avg));
    }
}

/// Broadcast under jitter stays correct and within the deterministic
/// bound on every preset.
#[test]
fn jittered_broadcast_within_bound_on_presets() {
    for preset in MachinePreset::all() {
        let m = preset.logp.with_p(16);
        let bound = optimal_broadcast_time(&m);
        let cfg = SimConfig::default().with_jitter(m.l / 2).with_seed(99);
        let run = run_optimal_broadcast(&m, cfg);
        assert!(run.completion <= bound, "{}", preset.name);
        assert_eq!(run.arrivals.len(), 16);
    }
}

/// The §4.2.3 model contrast, quantified end-to-end: the CRCW PRAM labels
/// a star graph in a handful of free steps; LogP charges the hub's owner
/// for every message and the naive algorithm pays dearly.
#[test]
fn crcw_loophole_vs_logp_contention() {
    use logp::algos::cc::{cc_sequential, run_cc, Graph};
    use logp::baselines::pram_cc;

    let n = 128;
    let g = Graph::star(n);
    let (pram_labels, pram_steps) = pram_cc(n, &g.edges).expect("legal CRCW program");
    assert_eq!(pram_labels, cc_sequential(&g));
    assert!(
        pram_steps <= 6,
        "the PRAM sees no hot spot: {pram_steps} steps"
    );

    let m = LogP::new(60, 20, 40, 8).unwrap();
    let logp_run = run_cc(&m, &g, false, SimConfig::default());
    assert_eq!(logp_run.labels, pram_labels);
    // Same answer; thousands of cycles apart — the paper's point.
    assert!(
        logp_run.completion > 100 * pram_steps,
        "LogP must reveal the cost the CRCW PRAM hides: {} cycles vs {} steps",
        logp_run.completion,
        pram_steps
    );
}

/// All-reduce strategies agree with a PRAM scan-of-one... rather: with
/// each other and with the direct sum, through the facade.
#[test]
fn allreduce_strategies_agree() {
    use logp::algos::allreduce::{run_allreduce_doubling, run_allreduce_reduce_bcast};
    let m = LogP::new(60, 20, 40, 16).unwrap();
    let values: Vec<f64> = (0..16).map(|i| (i as f64).sqrt()).collect();
    let a = run_allreduce_reduce_bcast(&m, &values, SimConfig::default());
    let b = run_allreduce_doubling(&m, &values, SimConfig::default());
    assert_eq!(a.value, b.value);
    assert_eq!(a.value, values.iter().sum::<f64>());
}

/// The bisection calibration reproduces the paper's own g: the CM-5
/// preset's gap equals 16-byte payloads at the quoted ~4-5 MB/s.
#[test]
fn bisection_calibration_is_consistent_with_preset() {
    use logp::net::calibrate_g_us;
    let preset = MachinePreset::cm5();
    let g_us = preset.cycles_to_us(preset.logp.g);
    // 16 B / 4 µs = 4 MB/s; the paper quotes 5 MB/s raw and chooses 4 µs.
    let implied_bw = preset.msg_payload_bytes as f64 / g_us;
    assert!((3.0..=5.0).contains(&implied_bw));
    assert!((calibrate_g_us(16.0, implied_bw) - g_us).abs() < 1e-9);
}

/// Parameter extraction works across every preset (the machine-summary
/// vision of §7).
#[test]
fn extraction_works_on_every_preset() {
    use logp::calib::{calibrate, CalibConfig, SimMachine};
    for preset in MachinePreset::all() {
        let m = preset.logp.with_p(2);
        let cal = calibrate(&mut SimMachine::new(m), &CalibConfig::default());
        assert!(
            !cal.gap_limited && cal.worst_relative_error(&m) < 0.02,
            "{}: {cal:?}",
            preset.name
        );
    }
}

/// Stencil + gather compose: a Jacobi sweep followed by a gather of the
/// block means onto processor 0 (a tiny "simulation + diagnostics" app).
#[test]
fn stencil_and_gather_compose() {
    use logp::algos::gather::run_gather;
    use logp::algos::stencil::{jacobi_sequential, run_jacobi};
    let m = LogP::new(30, 5, 10, 4).unwrap();
    let field: Vec<f64> = (0..32).map(|i| i as f64).collect();
    let run = run_jacobi(&m, &field, 3, SimConfig::default());
    assert_eq!(run.field.len(), 32);
    let seq = jacobi_sequential(&field, 3);
    for (a, b) in run.field.iter().zip(&seq) {
        assert!((a - b).abs() < 1e-12);
    }
    // Gather per-processor checksums (as integers) at the root.
    let sums: Vec<u64> = (0..4)
        .map(|q| run.field[q * 8..(q + 1) * 8].iter().sum::<f64>().round() as u64)
        .collect();
    let g = run_gather(&m, &sums, SimConfig::default());
    assert_eq!(g.received.len(), 3);
}
