//! Parallel sweep runner: fan independent simulations across threads.
//!
//! Parameter-space studies (§7 of the paper) run the same program over
//! hundreds of machine configurations; each run is an independent
//! single-threaded discrete-event simulation, so the sweep itself is
//! embarrassingly parallel. This module provides the batch/sweep entry
//! points the `logp-bench` scenarios and `logp-calib` use:
//!
//! * [`RunSpec`] — one simulation: machine, config, and a program
//!   factory (`Fn(ProcId) -> Box<dyn Process>`, shared across threads).
//! * [`run_batch`] — execute a slice of specs across worker threads
//!   and return results in spec order.
//! * [`run_sweep`] — build one spec per machine in a
//!   [`logp_core::sweep::Grid`] and batch-run them.
//! * [`sweep_map`] — the one parallel primitive: map over sweep points,
//!   results in index order. [`run_batch`] is a `sweep_map` over specs.
//!
//! # Determinism
//!
//! Results are bit-identical regardless of thread count, for two
//! reasons. First, each simulation is self-contained: its RNG stream is
//! derived from its own config seed and nothing is shared between runs.
//! Second, run `i` of a batch executes with `derive_seed(base_seed, i)`
//! — a SplitMix64 hash of the run's *index* folded into the spec's base
//! seed — so a run's draws depend only on its position in the batch,
//! never on which worker picked it up or in what order runs finished.
//! `1` thread, `8` threads, and repeated invocations all produce the
//! same bytes (`runner_determinism.rs` pins this).

use logp_core::sweep::Grid;
use logp_core::{LogP, ProcId};

use crate::perfetto::write_artifacts;
use crate::process::Process;
use crate::{Sim, SimConfig, SimError, SimResult};
use logp_core::rng::splitmix64;
use std::path::PathBuf;

/// Thread-count policy for a batch of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Threads {
    /// Use all available parallelism.
    #[default]
    Auto,
    /// Pin to exactly `n` workers (`Fixed(1)` runs inline, serially).
    Fixed(usize),
}

impl Threads {
    /// Read the policy from the `LOGP_THREADS` environment variable
    /// (`0`, unset, or unparsable mean [`Threads::Auto`]).
    pub fn from_env() -> Self {
        match std::env::var("LOGP_THREADS") {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n > 0 => Threads::Fixed(n),
                _ => Threads::Auto,
            },
            Err(_) => Threads::Auto,
        }
    }

    /// The worker count this policy resolves to.
    pub fn count(&self) -> usize {
        match self {
            Threads::Auto => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            Threads::Fixed(n) => (*n).max(1),
        }
    }
}

/// Program factory shared across worker threads: called once per
/// processor to populate a simulation.
pub type ProgramFactory = Box<dyn Fn(ProcId) -> Box<dyn Process> + Send + Sync>;

/// One independent simulation: machine, fidelity config, and programs.
pub struct RunSpec {
    pub model: LogP,
    pub config: SimConfig,
    factory: ProgramFactory,
    /// Write a Perfetto `trace_event` JSON of the run here (enables the
    /// lifecycle log for this spec).
    pub trace_out: Option<PathBuf>,
    /// Write the run's metrics registry as JSON here (enables metrics
    /// for this spec).
    pub metrics_out: Option<PathBuf>,
}

impl std::fmt::Debug for RunSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunSpec")
            .field("model", &self.model)
            .field("config", &self.config)
            .field("trace_out", &self.trace_out)
            .field("metrics_out", &self.metrics_out)
            .finish_non_exhaustive()
    }
}

impl RunSpec {
    /// Spec running `factory(p)` on each processor of `model`.
    pub fn new(
        model: LogP,
        config: SimConfig,
        factory: impl Fn(ProcId) -> Box<dyn Process> + Send + Sync + 'static,
    ) -> Self {
        RunSpec {
            model,
            config,
            factory: Box::new(factory),
            trace_out: None,
            metrics_out: None,
        }
    }

    /// Write this spec's Perfetto trace to `path` after the run.
    pub fn with_trace_out(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace_out = Some(path.into());
        self
    }

    /// Write this spec's metrics JSON to `path` after the run.
    pub fn with_metrics_out(mut self, path: impl Into<PathBuf>) -> Self {
        self.metrics_out = Some(path.into());
        self
    }

    /// Build and run this spec's simulation with an explicit seed.
    fn run_with_seed(&self, seed: u64) -> Result<SimResult, SimError> {
        let mut config = SimConfig {
            seed,
            ..self.config.clone()
        };
        // Artifact requests imply the observability they need.
        if self.trace_out.is_some() {
            config = config.with_msg_log(true);
        }
        if self.metrics_out.is_some() {
            config = config.with_metrics(true);
        }
        let mut sim = Sim::new(self.model, config);
        sim.set_all(|p| (self.factory)(p));
        let result = sim.run();
        if let Ok(res) = &result {
            if let Err(e) =
                write_artifacts(res, self.trace_out.as_deref(), self.metrics_out.as_deref())
            {
                eprintln!("warning: failed to write run artifacts: {e}");
            }
        }
        result
    }

    /// Build and run this spec's simulation with its own config seed,
    /// serially on the calling thread.
    pub fn run(&self) -> Result<SimResult, SimError> {
        self.run_with_seed(self.config.seed)
    }
}

/// Seed for run `index` of a batch whose specs carry `base` seeds.
///
/// `base ^ splitmix64(index)`: a function of the run's position only, so
/// a batch's RNG streams are decorrelated run-to-run yet independent of
/// worker scheduling. Exposed so drivers that run specs by hand (for
/// example, one run at a time under a debugger) can reproduce exactly
/// what [`run_batch`] would have executed.
#[inline]
pub fn derive_seed(base: u64, index: u64) -> u64 {
    base ^ splitmix64(index)
}

/// Run every spec, fanning across `threads` workers; results come back
/// in spec order. Run `i` uses `derive_seed(spec[i].config.seed, i)`.
pub fn run_batch(specs: &[RunSpec], threads: Threads) -> Vec<Result<SimResult, SimError>> {
    let indexed: Vec<usize> = (0..specs.len()).collect();
    sweep_map(threads, &indexed, |&i| {
        specs[i].run_with_seed(derive_seed(specs[i].config.seed, i as u64))
    })
}

/// Run one simulation per machine in `grid` (in the grid's row-major
/// enumeration order), all sharing `config` and `factory`. Returns
/// `(machine, result)` pairs in that order.
pub fn run_sweep(
    grid: &Grid,
    config: &SimConfig,
    threads: Threads,
    factory: impl Fn(ProcId) -> Box<dyn Process> + Send + Sync + Clone + 'static,
) -> Vec<(LogP, Result<SimResult, SimError>)> {
    let machines = grid.machines();
    let specs: Vec<RunSpec> = machines
        .iter()
        .map(|&m| RunSpec::new(m, config.clone(), factory.clone()))
        .collect();
    machines
        .into_iter()
        .zip(run_batch(&specs, threads))
        .collect()
}

/// Map `f` over `items` on `threads` workers, results in index order.
///
/// One `std::thread::scope` over contiguous chunks, one chunk a worker,
/// joined in chunk order; with one worker (or at most one item) `f` runs
/// inline on the calling thread. A panic in `f` is re-raised with its own
/// payload. `f` must be deterministic in its argument for the
/// thread-count-independence guarantee to carry over.
pub fn sweep_map<T, R, F>(threads: Threads, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = threads.count().min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let f = &f;
    std::thread::scope(|s| {
        let chunks: Vec<_> = items
            .chunks(items.len().div_ceil(workers))
            .map(|chunk| s.spawn(move || chunk.iter().map(f).collect::<Vec<R>>()))
            .collect();
        chunks
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Data;
    use crate::process::Ctx;

    struct Ping;
    impl Process for Ping {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if ctx.me() == 0 {
                ctx.send(1, 0, Data::U64(42));
            }
        }
    }

    #[test]
    fn threads_resolve_to_positive_counts() {
        assert!(Threads::Auto.count() >= 1);
        assert_eq!(Threads::Fixed(3).count(), 3);
        assert_eq!(Threads::Fixed(0).count(), 1);
    }

    #[test]
    fn derive_seed_decorrelates_indices() {
        let s0 = derive_seed(7, 0);
        let s1 = derive_seed(7, 1);
        assert_ne!(s0, s1);
        // Stable: same inputs, same seed, forever.
        assert_eq!(derive_seed(7, 0), s0);
    }

    #[test]
    fn run_batch_matches_serial_execution() {
        let model = LogP::new(6, 2, 4, 2).unwrap();
        let specs: Vec<RunSpec> = (0..8)
            .map(|_| RunSpec::new(model, SimConfig::default(), |_| Box::new(Ping)))
            .collect();
        let results = run_batch(&specs, Threads::Fixed(4));
        assert_eq!(results.len(), 8);
        for r in &results {
            let r = r.as_ref().expect("ping completes");
            assert_eq!(r.stats.completion, 10);
        }
    }

    #[test]
    fn run_spec_writes_requested_artifacts() {
        let dir = std::env::temp_dir().join("logp_runner_artifacts");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("ping.trace.json");
        let metrics = dir.join("ping.metrics.json");
        let model = LogP::new(6, 2, 4, 2).unwrap();
        let spec = RunSpec::new(model, SimConfig::default(), |_| Box::new(Ping))
            .with_trace_out(&trace)
            .with_metrics_out(&metrics);
        let res = spec.run().unwrap();
        // Artifact flags force the observability they need without the
        // caller touching SimConfig.
        assert!(!res.obs.msgs.is_empty());
        assert!(std::fs::read_to_string(&trace)
            .unwrap()
            .contains("traceEvents"));
        assert!(std::fs::read_to_string(&metrics)
            .unwrap()
            .contains("messages_delivered"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_sweep_covers_the_grid_in_order() {
        use logp_core::sweep::{Axis, Grid};
        let grid = Grid {
            l: Axis::list([2, 4, 8]),
            o: Axis::fixed(1),
            g: Axis::fixed(2),
            p: Axis::fixed(2),
        };
        let out = run_sweep(&grid, &SimConfig::default(), Threads::Fixed(2), |_| {
            Box::new(Ping)
        });
        assert_eq!(out.len(), 3);
        for (m, r) in &out {
            // Completion of a single ping is 2o + L.
            assert_eq!(r.as_ref().unwrap().stats.completion, 2 * m.o + m.l);
        }
    }

    #[test]
    fn sweep_map_preserves_item_order() {
        let items: Vec<u64> = (0..257).collect();
        let squares: Vec<u64> = items.iter().map(|x| x * x).collect();
        for n in [1, 2, 5, 16] {
            let out = sweep_map(Threads::Fixed(n), &items, |&x| x * x);
            assert_eq!(out, squares, "{n} threads");
        }
        // More workers than items, and no items at all.
        assert_eq!(sweep_map(Threads::Fixed(8), &[3u64, 4], |&x| x + 1), [4, 5]);
        assert!(sweep_map(Threads::Fixed(4), &[] as &[u64], |&x| x).is_empty());
    }

    #[test]
    fn one_thread_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = sweep_map(Threads::Fixed(1), &[0u8; 3], |_| {
            std::thread::current().id()
        });
        assert_eq!(ids, [caller; 3]);
    }

    #[test]
    #[should_panic(expected = "sweep point 5 failed")]
    fn a_panicking_sweep_point_reraises_its_own_message() {
        let items: Vec<u64> = (0..8).collect();
        sweep_map(Threads::Fixed(4), &items, |&x| {
            assert_ne!(x, 5, "sweep point {x} failed");
        });
    }
}
