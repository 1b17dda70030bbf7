//! `logp-bench`: every experiment of EXPERIMENTS.md, and the pins CI
//! checks, as named scenarios of one command.
//!
//! ```text
//! logp-bench list                     the scenarios that run, one name a line
//! logp-bench <name> [flags]           run one
//! logp-bench checks [name…] [flags]   run the checks (all of them), in registry order
//! ```
//!
//! A bad command line is an error that names the flag: usage on stderr,
//! exit code 2. `checks` stops at the first failing check, non-zero.

use logp_bench::{Args, Flag, SHARED_USAGE};

mod scenarios {
    pub mod calibrate;
    pub mod capacity_limit;
    pub mod cc_contention;
    pub mod degradation;
    pub mod fault_sweep;
    pub mod fig2_trends;
    pub mod fig3_broadcast;
    pub mod fig4_summation;
    pub mod fig5_layouts;
    pub mod fig6_fft_times;
    pub mod fig7_mflops;
    pub mod fig8_bandwidth;
    pub mod hier_sweep;
    pub mod kbcast_crossover;
    pub mod lu_layouts;
    pub mod matmul_layouts;
    pub mod model_compare;
    pub mod param_extraction;
    pub mod permutation_traffic;
    pub mod product_lines;
    pub mod saturation;
    pub mod shard_scale;
    pub mod sort_compare;
    pub mod stencil_volume;
    pub mod sweep_collectives;
    pub mod tbl1_unloaded;
    pub mod tbl_avg_distance;
    pub mod trace_overhead;
    pub mod wl_run;
}
use scenarios::*;

/// One registry entry: an experiment (`run`), a pinned check (`check`),
/// or both, and the flags it declares beside the shared ones.
struct Scenario {
    name: &'static str,
    about: &'static str,
    flags: &'static [Flag],
    run: Option<fn(&Args)>,
    check: Option<fn(&Args)>,
}

const fn exp(name: &'static str, about: &'static str, run: fn(&Args)) -> Scenario {
    Scenario {
        name,
        about,
        flags: &[],
        run: Some(run),
        check: None,
    }
}

impl Scenario {
    const fn checked(self, check: fn(&Args)) -> Scenario {
        Scenario {
            check: Some(check),
            ..self
        }
    }

    const fn with_flags(self, flags: &'static [Flag]) -> Scenario {
        Scenario { flags, ..self }
    }
}

#[rustfmt::skip]
const SCENARIOS: &[Scenario] = &[
    exp("fig2_trends", "Fig 2: µP growth fits (97%/54% per year)", fig2_trends::run),
    exp("fig3_broadcast", "Fig 3: broadcast tree, completes @24", fig3_broadcast::run),
    exp("fig4_summation", "Fig 4: optimal summation schedule", fig4_summation::run),
    exp("fig5_layouts", "Fig 5: butterfly layouts", fig5_layouts::run),
    exp("fig6_fft_times", "Fig 6: FFT compute vs remap schedules", fig6_fft_times::run),
    exp("fig7_mflops", "Fig 7: cache knee in compute rate", fig7_mflops::run),
    exp("fig8_bandwidth", "Fig 8: remap bandwidth + drift + barriers", fig8_bandwidth::run),
    exp("tbl1_unloaded", "Table 1: T(M=160) for 7 machines (exact)", tbl1_unloaded::run),
    exp("tbl_avg_distance", "§5.1: topology average distances", tbl_avg_distance::run),
    exp("saturation", "§5.3: latency-vs-load knee", saturation::run),
    exp("capacity_limit", "§3.2: multithreading saturation", capacity_limit::run),
    exp("lu_layouts", "§4.2.1: LU layout comparison", lu_layouts::run)
        .checked(lu_layouts::check),
    exp("sort_compare", "§4.2.2: splitter vs radix vs bitonic sort", sort_compare::run)
        .checked(sort_compare::check),
    exp("cc_contention", "§4.2.3: hot-spot contention", cc_contention::run)
        .checked(cc_contention::check),
    exp("sweep_collectives", "§7: the (L,o,g,P) machine space", sweep_collectives::run),
    exp("model_compare", "§6: PRAM vs BSP vs LogP", model_compare::run),
    exp("param_extraction", "§7: measure L,o,g of a black box", param_extraction::run),
    exp("stencil_volume", "§6.4: surface-to-volume Jacobi", stencil_volume::run),
    exp("matmul_layouts", "§6.6: SUMMA vs 1D matmul", matmul_layouts::run),
    exp("permutation_traffic", "§5.6: good/bad patterns", permutation_traffic::run),
    exp("kbcast_crossover", "§3.3: k-item broadcast crossovers", kbcast_crossover::run),
    exp("product_lines", "§7: vendor curves in the machine space", product_lines::run),
    exp("calibrate", "§4.1.4: calibration loop + g(rho)", calibrate::run)
        .checked(calibrate::check),
    exp("fault_sweep", "reliable collectives vs drop rate", fault_sweep::run)
        .checked(fault_sweep::check),
    exp("degradation", "crash sets vs k-machine oracle", degradation::run)
        .checked(degradation::check),
    exp("hier_sweep", "hierarchical vs flat crossover", hier_sweep::run)
        .checked(hier_sweep::check),
    exp("wl_run", "workload DSL programs", wl_run::run)
        .checked(wl_run::check).with_flags(wl_run::FLAGS),
    exp("shard_scale", "lane engine at scale", shard_scale::run)
        .checked(shard_scale::check).with_flags(shard_scale::FLAGS),
    Scenario {
        name: "trace_overhead", about: "observation never perturbs a run", flags: &[],
        run: None, check: Some(trace_overhead::check),
    },
];

fn usage(scenario: Option<&Scenario>) -> String {
    let flags = |s: &Scenario| -> String { s.flags.iter().map(|f| f.usage()).collect() };
    if let Some(s) = scenario {
        return format!("usage: logp-bench {}{} {SHARED_USAGE}\n", s.name, flags(s));
    }
    let mut out = format!(
        "usage: logp-bench list | <scenario> [flags] | checks [scenario…] [flags]\n\
         flags every scenario takes: {SHARED_USAGE}\nscenarios:\n"
    );
    for s in SCENARIOS {
        let check = if s.check.is_some() { " (check)" } else { "" };
        out += &format!("  {:<20} {}{check}{}\n", s.name, s.about, flags(s));
    }
    out
}

fn fail(message: &str, scenario: Option<&Scenario>) -> ! {
    eprint!("logp-bench: {message}\n{}", usage(scenario));
    std::process::exit(2)
}

fn parse(words: &[String], scenario: Option<&Scenario>) -> Args {
    Args::parse(words, scenario.map_or(&[], |s| s.flags)).unwrap_or_else(|e| fail(&e, scenario))
}

fn main() {
    let words: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = words.first() else {
        fail("no command", None)
    };
    match command.as_str() {
        "list" => {
            for s in SCENARIOS.iter().filter(|s| s.run.is_some()) {
                println!("{}", s.name);
            }
        }
        "checks" => {
            let named = words[1..].iter().take_while(|w| !w.starts_with("--"));
            let (names, flags) = words[1..].split_at(named.count());
            let args = parse(flags, None);
            let checked: Vec<_> = SCENARIOS
                .iter()
                .filter_map(|s| Some((s.name, s.check?)))
                .filter(|(name, _)| names.is_empty() || names.iter().any(|n| n == name))
                .collect();
            if let Some(n) = names
                .iter()
                .find(|n| !checked.iter().any(|(name, _)| name == n))
            {
                fail(&format!("no check named {n:?}"), None);
            }
            for (name, check) in &checked {
                eprintln!("== logp-bench checks: {name}");
                check(&args);
            }
            println!("logp-bench checks: {} passed", checked.len());
        }
        name => {
            let Some(s) = SCENARIOS.iter().find(|s| s.name == name) else {
                fail(&format!("unknown scenario {name:?}"), None)
            };
            let args = parse(&words[1..], Some(s));
            match s.run {
                Some(run) => run(&args),
                None => fail(
                    &format!("`logp-bench checks {name}` runs its check"),
                    Some(s),
                ),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::SCENARIOS;

    #[test]
    fn names_are_unique_runnable_and_documented() {
        let experiments = include_str!("../../../EXPERIMENTS.md");
        for (i, s) in SCENARIOS.iter().enumerate() {
            assert!(
                SCENARIOS[..i].iter().all(|t| t.name != s.name),
                "{} twice",
                s.name
            );
            assert!(s.run.is_some() || s.check.is_some(), "{} is empty", s.name);
            let documented = experiments.contains(&format!("`{}`", s.name));
            assert!(documented, "{} is not in EXPERIMENTS.md", s.name);
        }
    }
}
