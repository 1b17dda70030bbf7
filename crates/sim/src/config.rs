//! Simulator configuration: the fidelity knobs beyond the LogP quadruple.

use crate::faults::FaultPlan;
use crate::obs::{ObsSampling, SinkSpec};
use logp_core::Cycles;

/// Configuration for a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Maximum reduction of per-message latency below `L`. `0` means every
    /// message takes exactly `L`; a positive value makes latency a
    /// deterministic pseudo-random draw from `[L - jitter, L]`, exercising
    /// the model's allowance that "the latency experienced by any message
    /// is unpredictable, but is bounded above by L" and that messages "may
    /// not arrive in the same order as they are sent" (§3).
    pub latency_jitter: Cycles,
    /// Relative computation-time perturbation, in parts per 1024, drawn
    /// i.i.d. per `compute` call (high-frequency noise: cache misses,
    /// interrupts). `0` disables it.
    pub drift_ppk: u32,
    /// Systematic per-processor speed skew, in parts per 1024: each
    /// processor draws one fixed factor in `[-skew, +skew]` at machine
    /// construction and every `compute` is scaled by it. This is the
    /// *cumulative* desynchronization of §4.1.4 — "processors execute
    /// asynchronously ... they gradually drift out of sync during the
    /// remap phase" — which i.i.d. noise alone cannot produce (it
    /// averages out). `0` disables it.
    pub proc_skew_ppk: u32,
    /// Whether the ⌈L/g⌉ capacity constraint is enforced (ablation knob;
    /// the model always enforces it).
    pub enforce_capacity: bool,
    /// Destination network-interface buffer, in messages. A message that
    /// has arrived but whose reception has not completed still counts as
    /// "in transit" for the sender's admission check once the buffer is
    /// full — the backpressure real NIs exert. `None` defaults to
    /// `⌈L/g⌉ + 2`, which provably never blocks a schedule whose
    /// receivers drain promptly (a message is outstanding for `2o + L`
    /// and legal per-destination spacing is at least `max(g, o+1)`, so at
    /// most `⌈L/g⌉ + 2` overlap), while hot spots whose receivers cannot
    /// keep up still backpressure at the receiver's drain rate. Ignored
    /// when `enforce_capacity` is off.
    pub ni_buffer: Option<u64>,
    /// LogGP bulk gap `G`: cycles per additional word of a long message
    /// streamed by the network interface (§5.4's long-message extension,
    /// the LogGP refinement). `None` disables `send_bulk`: a program that
    /// issues one ends the run with `SimError::MissingBigG`.
    pub loggp_big_g: Option<Cycles>,
    /// Cost charged for the hardware barrier after the last processor
    /// arrives (the CM-5 has "a broadcast/scan/prefix control network";
    /// §5.5 discusses such specialized hardware).
    pub barrier_cost: Cycles,
    /// Record per-processor activity spans for Gantt rendering.
    pub record_trace: bool,
    /// Record the full message-lifecycle log (submit → inject → flight →
    /// delivery timestamps plus causal parent IDs) in
    /// `SimResult::obs`. Implies `record_trace` — the critical-path
    /// analyzer needs activity spans to attribute wait windows.
    pub record_msg_log: bool,
    /// Maintain the metrics registry (counters and latency/stall
    /// histograms) in `SimResult::metrics`.
    pub record_metrics: bool,
    /// Sampling period, in cycles, for time-series gauges (in-flight per
    /// destination, ready-queue depth, utilization). `0` disables gauge
    /// sampling; a positive value implies `record_metrics`.
    pub metrics_grid: Cycles,
    /// Seed for all pseudo-random draws (jitter, drift, skew; see
    /// [`logp_core::rng::noise`]). Two runs with the same seed and
    /// programs are bit-identical, on either engine.
    pub seed: u64,
    /// Hard cap on simulated events, to turn runaway programs into errors
    /// instead of hangs.
    pub max_events: u64,
    /// Deterministic fault-injection plan (message drop/duplicate/delay
    /// and crash-stop schedules; see [`FaultPlan`] and
    /// `docs/FAILURE_MODEL.md`). `None` — the default — monomorphizes
    /// every fault branch out of the engine's hot path, and a plan with
    /// all rates zero and no crashes is cycle-identical to `None`.
    pub faults: Option<FaultPlan>,
    /// Number of event lanes for the sharded engine (see
    /// `logp_sim::engine::shard`). `0` and `1` — the default — run the
    /// classic single-heap engine unchanged. Any value `>= 2` partitions
    /// the processors into that many contiguous lanes synchronized by
    /// conservative `o + L` lookahead windows; results are bit-identical
    /// across every lane count `>= 2`, and match the classic engine's
    /// workload-level outcome wherever destination admission does not
    /// bind: the sharded engine enforces the source-side ⌈L/g⌉ window
    /// only (no destination backpressure). Runs needing gauge sampling
    /// (`metrics_grid > 0`) fall back to the classic engine.
    pub shards: u32,
    /// Streaming observability sink: lifecycle records flow here as they
    /// complete instead of accumulating in `SimResult::obs` (which stays
    /// empty), so memory is bounded by in-flight messages, not total
    /// traffic. Implies `record_msg_log`. See [`SinkSpec`] and
    /// `docs/OBSERVABILITY.md`.
    pub sink: Option<SinkSpec>,
    /// Which records a streaming sink sees (default: all). Pure function
    /// of record identity, so the sampled set is identical across lane
    /// and thread counts.
    pub sampling: ObsSampling,
    /// Maintain [`crate::critpath::ObsAggregate`] online while records
    /// stream: per-processor and global activity totals plus the
    /// critical-path decomposition, without retaining the log. Implies a
    /// streaming sink ([`SinkSpec::Null`] if none was set) and
    /// `record_msg_log`.
    pub aggregate: bool,
    /// Time-bin width, in cycles, for the aggregate's over-time view
    /// (`0` disables binning; a positive value implies `aggregate`).
    pub agg_grid: Cycles,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            latency_jitter: 0,
            drift_ppk: 0,
            proc_skew_ppk: 0,
            enforce_capacity: true,
            ni_buffer: None,
            loggp_big_g: None,
            barrier_cost: 0,
            record_trace: false,
            record_msg_log: false,
            record_metrics: false,
            metrics_grid: 0,
            seed: 0x1092_7735_AC01,
            max_events: 2_000_000_000,
            faults: None,
            shards: 0,
            sink: None,
            sampling: ObsSampling::All,
            aggregate: false,
            agg_grid: 0,
        }
    }
}

impl SimConfig {
    /// Default config with tracing enabled. Equivalent to
    /// `SimConfig::default().with_trace(true)`.
    pub fn traced() -> Self {
        Self::default().with_trace(true)
    }

    /// Default config with full observability: activity trace, message
    /// lifecycle log, and metrics.
    pub fn observed() -> Self {
        Self::default()
            .with_trace(true)
            .with_msg_log(true)
            .with_metrics(true)
    }

    /// Enable or disable activity-span tracing.
    pub fn with_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Enable or disable the message-lifecycle log (on also enables the
    /// activity trace, which critical-path attribution requires).
    pub fn with_msg_log(mut self, on: bool) -> Self {
        self.record_msg_log = on;
        if on {
            self.record_trace = true;
        }
        self
    }

    /// Enable or disable the metrics registry.
    pub fn with_metrics(mut self, on: bool) -> Self {
        self.record_metrics = on;
        self
    }

    /// Sample time-series gauges every `grid` cycles (implies metrics
    /// when `grid > 0`).
    pub fn with_metrics_grid(mut self, grid: Cycles) -> Self {
        self.metrics_grid = grid;
        if grid > 0 {
            self.record_metrics = true;
        }
        self
    }

    /// Stream lifecycle records to `sink` instead of retaining them
    /// (implies the lifecycle log machinery; `SimResult::obs` stays
    /// empty).
    pub fn with_sink(mut self, sink: SinkSpec) -> Self {
        self.sink = Some(sink);
        self.record_msg_log = true;
        self.record_trace = true;
        self
    }

    /// Apply a sampling policy to the streaming sink.
    pub fn with_sampling(mut self, sampling: ObsSampling) -> Self {
        self.sampling = sampling;
        self
    }

    /// Maintain the online [`crate::critpath::ObsAggregate`] (implies a
    /// streaming sink — [`SinkSpec::Null`] if none was configured).
    pub fn with_aggregate(mut self, on: bool) -> Self {
        self.aggregate = on;
        if on {
            self.record_msg_log = true;
            self.record_trace = true;
        }
        self
    }

    /// Time-bin the aggregate every `grid` cycles (implies `aggregate`
    /// when `grid > 0`).
    pub fn with_agg_grid(mut self, grid: Cycles) -> Self {
        self.agg_grid = grid;
        if grid > 0 {
            self = self.with_aggregate(true);
        }
        self
    }

    /// Enable latency jitter of up to `j` cycles below `L`.
    pub fn with_jitter(mut self, j: Cycles) -> Self {
        self.latency_jitter = j;
        self
    }

    /// Enable compute drift of `ppk` parts per 1024.
    pub fn with_drift(mut self, ppk: u32) -> Self {
        self.drift_ppk = ppk;
        self
    }

    /// Enable systematic per-processor speed skew of `ppk` parts per 1024.
    pub fn with_skew(mut self, ppk: u32) -> Self {
        self.proc_skew_ppk = ppk;
        self
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable LogGP long messages with bulk gap `big_g`.
    pub fn with_big_g(mut self, big_g: Cycles) -> Self {
        self.loggp_big_g = Some(big_g);
        self
    }

    /// Install a deterministic fault-injection plan (see [`FaultPlan`]).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Run on the sharded lane engine with `n >= 2` lanes (`0` and `1`
    /// select the classic single-heap engine). Lane counts larger than
    /// `P` are clamped at partition time; results are bit-identical
    /// across every lane count `>= 2` (see the `shards` field).
    pub fn with_shards(mut self, n: u32) -> Self {
        self.shards = n;
        self
    }

    // Inert: the parallel window executor is gone (DESIGN.md, "The
    // parallel executor that was removed"). Kept only because the frozen
    // `benchmark/` harness calls it; delete together with the always-zero
    // vitals field beside `EngineVitals::arena_reallocs` once the ROADMAP
    // item 1a follow-up (`benchmark`: drop the `sim.plane.*` probes) has
    // landed.
    #[doc(hidden)]
    pub fn with_workers(self, _n: u32) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_exact_model() {
        let c = SimConfig::default();
        assert_eq!(c.latency_jitter, 0);
        assert_eq!(c.drift_ppk, 0);
        assert!(c.enforce_capacity);
    }

    #[test]
    fn builders_compose() {
        let c = SimConfig::traced()
            .with_jitter(3)
            .with_drift(10)
            .with_seed(7);
        assert!(c.record_trace);
        assert_eq!(c.latency_jitter, 3);
        assert_eq!(c.drift_ppk, 10);
        assert_eq!(c.seed, 7);
    }

    #[test]
    fn with_trace_composes_like_other_builders() {
        let c = SimConfig::default()
            .with_jitter(2)
            .with_trace(true)
            .with_seed(9);
        assert!(c.record_trace);
        assert_eq!(c, SimConfig::traced().with_jitter(2).with_seed(9));
        assert!(!SimConfig::traced().with_trace(false).record_trace);
    }

    #[test]
    fn msg_log_implies_trace() {
        let c = SimConfig::default().with_msg_log(true);
        assert!(c.record_msg_log);
        assert!(c.record_trace);
    }

    #[test]
    fn metrics_grid_implies_metrics() {
        let c = SimConfig::default().with_metrics_grid(10);
        assert!(c.record_metrics);
        assert_eq!(c.metrics_grid, 10);
        assert!(!SimConfig::default().with_metrics_grid(0).record_metrics);
    }

    #[test]
    fn observed_enables_everything() {
        let c = SimConfig::observed();
        assert!(c.record_trace && c.record_msg_log && c.record_metrics);
    }
}
