//! A small metrics registry for simulator runs: monotonic counters,
//! grid-sampled time-series gauges, and log-bucketed histograms.
//!
//! Everything is integer-valued so [`MetricsRegistry`] keeps `Eq` (and so
//! results that embed it stay hashable/comparable); fractional quantities
//! such as utilization are stored in fixed point (parts-per-1024, see
//! [`PPK_SCALE`]). Export is hand-rolled JSON ([`MetricsRegistry::to_json`])
//! and CSV ([`MetricsRegistry::to_csv`]); the workspace has no
//! serialization dependency.

use logp_core::Cycles;
use std::fmt::Write as _;

/// Fixed-point denominator for ratio-valued gauges (utilization):
/// a gauge value of 1024 means 100%.
pub const PPK_SCALE: u64 = 1024;

/// Handle to a counter created with [`MetricsRegistry::counter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a gauge created with [`MetricsRegistry::gauge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a histogram created with [`MetricsRegistry::histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(usize);

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Counter {
    name: String,
    value: u64,
}

/// A time series sampled on the metrics cycle grid: `(t, value)` pairs in
/// nondecreasing `t` order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Gauge {
    pub name: String,
    pub samples: Vec<(Cycles, u64)>,
}

/// Log₂-bucketed histogram: bucket `i` counts values `v` with
/// `bucket_index(v) == i`, i.e. `v == 0` in bucket 0 and
/// `2^(i-1) <= v < 2^i` in bucket `i ≥ 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    pub name: String,
    pub buckets: [u64; 65],
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
}

impl Histogram {
    fn new(name: &str) -> Self {
        Histogram {
            name: name.to_string(),
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for a value: 0 for 0, otherwise `⌊log₂ v⌋ + 1`.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive lower bound of bucket `i`.
    pub fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Mean as (sum, count); callers divide if they want a float.
    pub fn mean_parts(&self) -> (u64, u64) {
        (self.sum, self.count)
    }
}

/// The registry: create instruments up front (cheap `usize` handles), feed
/// them during the run, export afterward.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: Vec<Counter>,
    gauges: Vec<Gauge>,
    hists: Vec<Histogram>,
}

impl MetricsRegistry {
    pub fn counter(&mut self, name: &str) -> CounterId {
        self.counters.push(Counter {
            name: name.to_string(),
            value: 0,
        });
        CounterId(self.counters.len() - 1)
    }

    pub fn gauge(&mut self, name: &str) -> GaugeId {
        self.gauges.push(Gauge {
            name: name.to_string(),
            samples: Vec::new(),
        });
        GaugeId(self.gauges.len() - 1)
    }

    pub fn histogram(&mut self, name: &str) -> HistId {
        self.hists.push(Histogram::new(name));
        HistId(self.hists.len() - 1)
    }

    #[inline]
    pub fn inc(&mut self, id: CounterId, by: u64) {
        self.counters[id.0].value += by;
    }

    #[inline]
    pub fn sample(&mut self, id: GaugeId, t: Cycles, value: u64) {
        self.gauges[id.0].samples.push((t, value));
    }

    #[inline]
    pub fn observe(&mut self, id: HistId, value: u64) {
        self.hists[id.0].record(value);
    }

    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    pub fn gauge_series(&self, name: &str) -> Option<&Gauge> {
        self.gauges.iter().find(|g| g.name == name)
    }

    pub fn histogram_named(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|h| h.name == name)
    }

    pub fn gauges(&self) -> &[Gauge] {
        &self.gauges
    }

    /// Export every instrument as a JSON object:
    /// `{"counters": {...}, "gauges": {name: [[t,v],...]}, "histograms":
    /// {name: {count,sum,min,max,buckets:[[lo,count],...]}}}`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"counters\": {");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\n    \"{}\": {}", c.name, c.value);
        }
        s.push_str("\n  },\n  \"gauges\": {");
        for (i, g) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\n    \"{}\": [", g.name);
            for (j, (t, v)) in g.samples.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "[{t},{v}]");
            }
            s.push(']');
        }
        s.push_str("\n  },\n  \"histograms\": {");
        for (i, h) in self.hists.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let min = if h.count == 0 { 0 } else { h.min };
            let _ = write!(
                s,
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                h.name, h.count, h.sum, min, h.max
            );
            let mut first = true;
            for (b, &n) in h.buckets.iter().enumerate() {
                if n > 0 {
                    if !first {
                        s.push(',');
                    }
                    first = false;
                    let _ = write!(s, "[{},{}]", Histogram::bucket_lo(b), n);
                }
            }
            s.push_str("]}");
        }
        s.push_str("\n  }\n}\n");
        s
    }

    /// Flat CSV export: `kind,name,a,b` rows — counters (`name,value,`),
    /// gauge samples (`name,t,value`), histogram buckets
    /// (`name,bucket_lo,count`).
    pub fn to_csv(&self) -> String {
        let mut s = String::from("kind,name,a,b\n");
        for c in &self.counters {
            let _ = writeln!(s, "counter,{},{},", c.name, c.value);
        }
        for g in &self.gauges {
            for (t, v) in &g.samples {
                let _ = writeln!(s, "gauge,{},{t},{v}", g.name);
            }
        }
        for h in &self.hists {
            for (b, &n) in h.buckets.iter().enumerate() {
                if n > 0 {
                    let _ = writeln!(s, "hist,{},{},{n}", h.name, Histogram::bucket_lo(b));
                }
            }
        }
        s
    }
}

/// Host-side self-telemetry for one engine run: how fast the engine
/// itself ran, not what the simulated machine did.
///
/// Collected by both engines at negligible cost (a wall-clock read plus
/// counters the sharded engine already touches) and reported through
/// [`SimResult::vitals`](crate::engine::SimResult). Vitals describe the
/// *host* execution, so they vary run to run and lane count to lane
/// count; they are deliberately excluded from `SimResult` equality and
/// never inserted into `SimResult::metrics` (which must stay
/// lane-count-invariant). Benches merge them into artifacts via
/// [`EngineVitals::install`] or `to_json` at write time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineVitals {
    /// Which engine ran: `"classic"` or `"sharded"`.
    pub engine: &'static str,
    /// Host wall-clock time for the event loop, in nanoseconds.
    pub wall_ns: u64,
    /// Total simulated events processed (same as `SimStats::events`).
    pub events: u64,
    /// Number of event lanes (1 for the classic engine).
    pub lanes: u32,
    /// Events processed per lane (sharded engine only; empty for
    /// classic).
    pub lane_events: Vec<u64>,
    /// Lookahead windows executed (sharded engine only; 0 for classic).
    pub windows: u64,
    /// Quiescence fast-forwards: windows whose start was advanced past
    /// empty simulated time to the global next-event instant.
    pub fast_forwards: u64,
    /// Deepest calendar bucket drained in one per-cycle batch, on either
    /// engine (0 when no queue ever outgrew its few-event heap).
    pub bucket_depth_max: u64,
    /// Events scheduled beyond a calendar ring's span, into its overflow
    /// heap (either engine).
    pub far_spills: u64,
    /// Regrowths of an overflow heap or message slab past its
    /// construction-time size (debug builds count them; release builds
    /// report 0).
    pub arena_reallocs: u64,
    // Always 0: the parallel window executor is gone. Kept only because
    // the frozen `benchmark/` harness reads it; delete together with the
    // inert builder at the end of `SimConfig` once the ROADMAP item 1a
    // follow-up (`benchmark`: drop the `sim.plane.*` probes) has landed.
    #[doc(hidden)]
    pub barrier_wait_ns: u64,
    /// 1 when the run silently relaxed `SimConfig::enforce_capacity`
    /// because the sharded engine doesn't implement the capacity stall
    /// protocol (see the one-time warning on stderr).
    pub capacity_relaxed: u64,
    /// Most span-buffer entries the online aggregate read to attribute
    /// one wait window (debug builds count; release builds report 0).
    pub agg_window_probes_max: u64,
}

impl Default for EngineVitals {
    fn default() -> Self {
        EngineVitals {
            engine: "classic",
            wall_ns: 0,
            events: 0,
            lanes: 1,
            lane_events: Vec::new(),
            windows: 0,
            fast_forwards: 0,
            bucket_depth_max: 0,
            far_spills: 0,
            arena_reallocs: 0,
            barrier_wait_ns: 0,
            capacity_relaxed: 0,
            agg_window_probes_max: 0,
        }
    }
}

impl EngineVitals {
    /// Simulated events per host second (0.0 when the run was too fast
    /// to time).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.events as f64 * 1e9 / self.wall_ns as f64
    }

    /// Mean events per lookahead window (sharded engine; 0.0 for
    /// classic).
    pub fn occupancy(&self) -> f64 {
        if self.windows == 0 {
            return 0.0;
        }
        self.events as f64 / self.windows as f64
    }

    /// Lane load-imbalance ratio: busiest lane over mean lane load
    /// (1.0 = perfectly balanced; 0.0 when there are no lanes).
    pub fn imbalance(&self) -> f64 {
        if self.lane_events.is_empty() {
            return 0.0;
        }
        let max = *self.lane_events.iter().max().unwrap() as f64;
        let avg = self.lane_events.iter().sum::<u64>() as f64 / self.lane_events.len() as f64;
        if avg == 0.0 {
            return 0.0;
        }
        max / avg
    }

    /// Export as a standalone JSON object (the `--vitals-out` artifact
    /// schema; see `docs/OBSERVABILITY.md`).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"engine\": \"{}\",", self.engine);
        let _ = writeln!(s, "  \"wall_ns\": {},", self.wall_ns);
        let _ = writeln!(s, "  \"events\": {},", self.events);
        let _ = writeln!(s, "  \"events_per_sec\": {:.1},", self.events_per_sec());
        let _ = writeln!(s, "  \"lanes\": {},", self.lanes);
        s.push_str("  \"lane_events\": [");
        for (i, n) in self.lane_events.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{n}");
        }
        s.push_str("],\n");
        let _ = writeln!(s, "  \"windows\": {},", self.windows);
        let _ = writeln!(s, "  \"window_occupancy\": {:.3},", self.occupancy());
        let _ = writeln!(s, "  \"fast_forwards\": {},", self.fast_forwards);
        let _ = writeln!(s, "  \"bucket_depth_max\": {},", self.bucket_depth_max);
        let _ = writeln!(s, "  \"far_spills\": {},", self.far_spills);
        let _ = writeln!(s, "  \"lane_imbalance\": {:.3},", self.imbalance());
        let _ = writeln!(s, "  \"arena_reallocs\": {},", self.arena_reallocs);
        let _ = writeln!(s, "  \"capacity_relaxed\": {},", self.capacity_relaxed);
        let _ = writeln!(
            s,
            "  \"agg_window_probes_max\": {}",
            self.agg_window_probes_max
        );
        s.push_str("}\n");
        s
    }

    /// Install the vitals as `vitals_*` counters in a metrics registry.
    /// Intended for artifact assembly only — installing into a
    /// `SimResult`'s registry would break lane-count invariance.
    pub fn install(&self, reg: &mut MetricsRegistry) {
        let pairs: [(&'static str, u64); 9] = [
            ("vitals_wall_ns", self.wall_ns),
            ("vitals_events", self.events),
            ("vitals_lanes", self.lanes as u64),
            ("vitals_windows", self.windows),
            ("vitals_fast_forwards", self.fast_forwards),
            ("vitals_bucket_depth_max", self.bucket_depth_max),
            ("vitals_far_spills", self.far_spills),
            ("vitals_arena_reallocs", self.arena_reallocs),
            ("vitals_capacity_relaxed", self.capacity_relaxed),
        ];
        for (name, v) in pairs {
            let id = reg.counter(name);
            reg.inc(id, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::default();
        let c = m.counter("msgs");
        m.inc(c, 3);
        m.inc(c, 4);
        assert_eq!(m.counter_value("msgs"), Some(7));
        assert_eq!(m.counter_value("nope"), None);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_lo(0), 0);
        assert_eq!(Histogram::bucket_lo(1), 1);
        assert_eq!(Histogram::bucket_lo(3), 4);
    }

    #[test]
    fn histogram_summary_stats() {
        let mut m = MetricsRegistry::default();
        let h = m.histogram("lat");
        for v in [5u64, 9, 1] {
            m.observe(h, v);
        }
        let hist = m.histogram_named("lat").unwrap();
        assert_eq!(hist.count, 3);
        assert_eq!(hist.sum, 15);
        assert_eq!(hist.min, 1);
        assert_eq!(hist.max, 9);
        // 5 -> bucket 3 ([4,8)), 9 -> bucket 4 ([8,16)), 1 -> bucket 1.
        assert_eq!(hist.buckets[3], 1);
        assert_eq!(hist.buckets[4], 1);
        assert_eq!(hist.buckets[1], 1);
    }

    #[test]
    fn json_and_csv_contain_instruments() {
        let mut m = MetricsRegistry::default();
        let c = m.counter("delivered");
        let g = m.gauge("inflight");
        let h = m.histogram("lat");
        m.inc(c, 2);
        m.sample(g, 0, 1);
        m.sample(g, 10, 3);
        m.observe(h, 6);
        let json = m.to_json();
        assert!(json.contains("\"delivered\": 2"));
        assert!(json.contains("\"inflight\": [[0,1],[10,3]]"));
        assert!(json.contains("\"lat\""));
        assert!(json.contains("\"buckets\": [[4,1]]"));
        let csv = m.to_csv();
        assert!(csv.contains("counter,delivered,2,"));
        assert!(csv.contains("gauge,inflight,10,3"));
        assert!(csv.contains("hist,lat,4,1"));
    }

    #[test]
    fn empty_registry_exports_cleanly() {
        let m = MetricsRegistry::default();
        assert!(m.to_json().contains("\"counters\""));
        assert_eq!(m.to_csv(), "kind,name,a,b\n");
    }
}
