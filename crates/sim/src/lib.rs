//! # logp-sim — a deterministic LogP machine simulator
//!
//! The paper validated the LogP model on a 128-processor CM-5; this crate
//! substitutes a discrete-event simulator that implements the model's
//! execution semantics *exactly* (see `DESIGN.md` for the substitution
//! argument): send/receive overhead `o`, injection/reception gap `g`,
//! latency bounded by `L` (optionally jittered, so message order is not
//! guaranteed), and the ⌈L/g⌉ per-endpoint capacity constraint with
//! sender stalling.
//!
//! Programs implement [`process::Process`] — an event-driven actor with
//! `on_start` / `on_message` / `on_compute_done` / `on_barrier_release`
//! handlers that issue `send` / `compute` / `barrier` commands through
//! [`process::Ctx`].
//!
//! Beyond the flat model: [`Sim::new_hier`] runs the same programs on a
//! multi-level [`logp_core::hier::Hierarchy`] — every message pays the
//! (L, o, g) of its endpoints' lowest common level, with per-level
//! capacity windows (`docs/HIERARCHY.md`). [`SimConfig::with_shards`]
//! switches to the sharded engine (per-lane calendar queues under
//! L-lookahead, for million-rank runs); results are bit-identical across
//! engines and lane counts. The [`obs`]/[`critpath`]/[`metrics`]
//! modules explain *why* a run took as long as it did, [`faults`] and
//! [`reliable`] take away and rebuild the model's reliable-delivery
//! assumption, and [`runner`] fans sweeps across threads
//! deterministically.
//!
//! ```
//! use logp_core::LogP;
//! use logp_sim::{Sim, SimConfig};
//! use logp_sim::process::{Ctx, Process};
//! use logp_sim::message::Data;
//!
//! // A two-processor ping: P0 sends one word to P1.
//! struct Ping;
//! impl Process for Ping {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
//!         if ctx.me() == 0 {
//!             ctx.send(1, 0, Data::U64(42));
//!         }
//!     }
//! }
//!
//! let model = LogP::new(6, 2, 4, 2).unwrap();
//! let mut sim = Sim::new(model, SimConfig::default());
//! sim.set_all(|_| Box::new(Ping));
//! let result = sim.run().unwrap();
//! // The datum is usable at 2o + L = 10.
//! assert_eq!(result.stats.completion, 10);
//! ```

pub mod config;
pub mod critpath;
pub mod engine;
pub mod faults;
pub mod message;
pub mod metrics;
pub mod obs;
pub mod perfetto;
pub mod process;
pub mod reliable;
pub mod runner;
pub mod trace;

pub use config::SimConfig;
pub use critpath::{critical_path, Components, CritPath, ObsAggregate, PathStep, StepKind};
pub use engine::{Sim, SimError, SimResult};
pub use faults::{FaultDecision, FaultPlan};
pub use message::{Data, Message};
pub use metrics::{EngineVitals, MetricsRegistry};
pub use obs::{
    replay_jsonl, BarrierRecord, Cause, ComputeRecord, JsonlSink, MsgId, MsgRecord, NullSink,
    ObsLog, ObsSampling, ObsSink, RetainSink, SinkSpec, TimerRecord,
};
pub use perfetto::{perfetto_trace_json, PerfettoSink};
pub use process::{Ctx, Process};
pub use reliable::{Endpoint, EndpointStats, RetryConfig};
pub use runner::{derive_seed, run_batch, run_sweep, sweep_map, RunSpec, Threads};
pub use trace::{Activity, ProcStats, SimStats, Span, Trace};

/// A shared output cell for extracting results from simulated programs.
///
/// Programs are owned by the engine; algorithms that need results out of
/// them share one of these between the host and the process.
#[derive(Debug, Default)]
pub struct SharedCell<T>(std::sync::Arc<std::sync::Mutex<T>>);

impl<T> Clone for SharedCell<T> {
    fn clone(&self) -> Self {
        SharedCell(self.0.clone())
    }
}

impl<T: Default> SharedCell<T> {
    /// Fresh cell holding `T::default()`.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<T> SharedCell<T> {
    /// Cell holding `value`.
    pub fn of(value: T) -> Self {
        SharedCell(std::sync::Arc::new(std::sync::Mutex::new(value)))
    }

    /// Mutate the contents.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut self
            .0
            .lock()
            .expect("sim is single-threaded; lock cannot be poisoned"))
    }

    /// Copy the contents out.
    pub fn get(&self) -> T
    where
        T: Clone,
    {
        self.0.lock().expect("sim is single-threaded").clone()
    }

    /// Replace the contents, returning the old value.
    pub fn replace(&self, value: T) -> T {
        std::mem::replace(&mut self.0.lock().expect("sim is single-threaded"), value)
    }
}

#[cfg(test)]
mod cell_tests {
    use super::SharedCell;

    #[test]
    fn shared_cell_round_trip() {
        let c: SharedCell<Vec<u32>> = SharedCell::new();
        let c2 = c.clone();
        c2.with(|v| v.push(7));
        assert_eq!(c.get(), vec![7]);
        assert_eq!(c.replace(vec![1]), vec![7]);
        assert_eq!(c.get(), vec![1]);
    }
}
