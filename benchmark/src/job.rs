//! One job: one fixed-size, user-visible run of a workload inside a fresh
//! process. The workload code drives the library through [`Job`], which
//! times every layer call, tallies the simulations' own counters, counts
//! checks, and collects the simulated-outcome fingerprint; [`Report`] is
//! what crosses the process boundary back to the parent.

use crate::json::Json;
use crate::trace::Tracer;
use logp_core::rng::mix;
use logp_sim::{ProcStats, SimResult};
use std::collections::BTreeMap;

/// Problem sizes are constants per scale, never durations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~1/100 of `Full`: every code path and check, in about a second.
    Smoke,
    /// What the gate runs: about a second per job, so one gate run yields
    /// ten or more fresh-process samples.
    Std,
    /// The sizes the ledger was designed around (4–8 s per job on the
    /// 2-core reference host; `coll_512k` needs ~1.3 GB).
    Full,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "smoke" => Some(Scale::Smoke),
            "std" => Some(Scale::Std),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Std => "std",
            Scale::Full => "full",
        }
    }

    /// Pick the constant for this scale.
    pub fn pick<T>(self, smoke: T, std: T, full: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Std => std,
            Scale::Full => full,
        }
    }
}

pub struct Job {
    pub seed: u64,
    pub scale: Scale,
    /// Keep spans, split `load_workload`, run the probes.
    pub traced: bool,
    /// Directory for artifacts the run writes (sink files).
    pub out_dir: std::path::PathBuf,
    pub tracer: Tracer,
    /// Σ `vitals.wall_ns` over the run's simulations.
    pub loop_ns: u64,
    /// Σ over simulation calls of (call wall − its loop time).
    pub build_ns: u64,
    pub msgs: u64,
    pub events: u64,
    pub stall_cycles: u64,
    pub max_inflight_dst: u64,
    checks_attempted: u64,
    failures: Vec<String>,
    fingerprint: Vec<(String, Json)>,
    layers: BTreeMap<&'static str, f64>,
}

impl Job {
    pub fn new(seed: u64, scale: Scale, traced: bool, out_dir: std::path::PathBuf) -> Self {
        Job {
            seed,
            scale,
            traced,
            out_dir,
            tracer: Tracer::new(traced),
            loop_ns: 0,
            build_ns: 0,
            msgs: 0,
            events: 0,
            stall_cycles: 0,
            max_inflight_dst: 0,
            checks_attempted: 0,
            failures: Vec::new(),
            fingerprint: Vec::new(),
            layers: BTreeMap::new(),
        }
    }

    /// A seed for one named purpose, so the `.wl` generator, the fault
    /// plan and the grid never share a stream.
    pub fn derive(&self, purpose: u64) -> u64 {
        mix(&[self.seed, purpose])
    }

    /// Time `f` as one span; returns its result and duration (ns).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Job) -> R) -> (R, u64) {
        let open = self.tracer.begin(name);
        let r = f(self);
        (r, self.tracer.end(open))
    }

    /// Time a call that runs one or more simulations: `f` must hand every
    /// `SimResult` to [`Job::tally`] and let results drop before it
    /// returns, so construction, extraction and teardown land in
    /// `build_ns` and the event loop in `loop_ns`. Returns `(result,
    /// call ns, loop ns of this call)`.
    pub fn sim_call<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Job) -> R,
    ) -> (R, u64, u64) {
        let loop_before = self.loop_ns;
        let (r, call_ns) = self.span(name, f);
        let loop_ns = self.loop_ns - loop_before;
        self.build_ns += call_ns.saturating_sub(loop_ns);
        (r, call_ns, loop_ns)
    }

    /// Add one finished simulation's public counters to the run totals.
    pub fn tally(&mut self, r: &SimResult) {
        self.loop_ns += r.vitals.wall_ns;
        self.msgs += r.stats.total_msgs;
        self.events += r.stats.events;
        self.stall_cycles += r.stats.procs.iter().map(|p| p.stall).sum::<u64>();
        self.max_inflight_dst = self.max_inflight_dst.max(r.stats.max_inflight_per_dst);
    }

    /// Count a check; a failed one is named in the report.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.checks_attempted += 1;
        if !ok {
            self.failures.push(name.to_string());
        }
    }

    /// Record part of the *simulated* outcome for the golden comparison
    /// (never raw event counts — they differ across engines by design).
    pub fn fp(&mut self, key: &str, value: u64) {
        // As text: hashes use all 64 bits, a JSON number only 53.
        self.fingerprint
            .push((key.to_string(), Json::Str(value.to_string())));
    }

    pub fn set(&mut self, metric: &'static str, value: f64) {
        debug_assert!(crate::metrics::layer(metric).is_some(), "unknown {metric}");
        self.layers.insert(metric, value);
    }

    pub fn into_report(self, workload: &str, gen_ns: u64, run_ns: u64) -> Report {
        Report {
            workload: workload.to_string(),
            seed: self.seed,
            scale: self.scale,
            gen_ns,
            run_ns,
            loop_ns: self.loop_ns,
            msgs: self.msgs,
            rss_kb: crate::host::peak_rss_kb(),
            checks_attempted: self.checks_attempted,
            failures: self.failures,
            fingerprint: self.fingerprint,
            layers: self
                .layers
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }
}

/// Order-sensitive hash of per-processor cycle accounting.
pub fn hash_procs(procs: &[ProcStats]) -> u64 {
    procs.iter().fold(procs.len() as u64, |acc, p| {
        mix(&[
            acc,
            p.send_overhead,
            p.recv_overhead,
            p.compute,
            p.stall,
            p.barrier_wait,
            p.msgs_sent,
            p.msgs_recvd,
        ])
    })
}

pub fn hash_u64s(values: impl IntoIterator<Item = u64>) -> u64 {
    values.into_iter().fold(0, |acc, v| mix(&[acc, v]))
}

/// What a child process prints (one JSON line) when its job ends.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub scale: Scale,
    /// Input generation, off the clock.
    pub gen_ns: u64,
    /// Inputs in hand → results checked.
    pub run_ns: u64,
    pub loop_ns: u64,
    pub msgs: u64,
    pub rss_kb: u64,
    pub checks_attempted: u64,
    pub failures: Vec<String>,
    pub fingerprint: Vec<(String, Json)>,
    /// Per-layer metrics (traced jobs only).
    pub layers: Vec<(String, f64)>,
}

impl Report {
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.put("workload", self.workload.as_str())
            .put("seed", self.seed)
            .put("scale", self.scale.as_str())
            .put("gen_ns", self.gen_ns)
            .put("run_ns", self.run_ns)
            .put("loop_ns", self.loop_ns)
            .put("msgs", self.msgs)
            .put("rss_kb", self.rss_kb)
            .put("checks_attempted", self.checks_attempted)
            .put(
                "failures",
                self.failures
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect::<Vec<_>>(),
            )
            .put("fingerprint", Json::Obj(self.fingerprint.clone()))
            .put(
                "layers",
                Json::Obj(
                    self.layers
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            );
        o
    }

    pub fn from_json(j: &Json) -> Result<Report, String> {
        let num = |k: &str| {
            j.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("report: missing or non-integer `{k}`"))
        };
        let text = |k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("report: missing `{k}`"))
        };
        Ok(Report {
            workload: text("workload")?.to_string(),
            seed: num("seed")?,
            scale: Scale::parse(text("scale")?).ok_or("report: unknown scale")?,
            gen_ns: num("gen_ns")?,
            run_ns: num("run_ns")?,
            loop_ns: num("loop_ns")?,
            msgs: num("msgs")?,
            rss_kb: num("rss_kb")?,
            checks_attempted: num("checks_attempted")?,
            failures: j
                .get("failures")
                .and_then(Json::as_arr)
                .ok_or("report: missing `failures`")?
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            fingerprint: j
                .get("fingerprint")
                .map(|f| f.entries().to_vec())
                .unwrap_or_default(),
            layers: j
                .get("layers")
                .map(|l| {
                    l.entries()
                        .iter()
                        .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
                        .collect()
                })
                .unwrap_or_default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_its_json_line() {
        let mut job = Job::new(2, Scale::Smoke, true, "out".into());
        job.check("golden", true);
        job.check("closed_form", false);
        job.fp("completion", 12_345);
        job.fp("procs_hash", u64::MAX - 7);
        job.set("sim.engine.loop_s", 0.5);
        job.msgs = 99;
        job.loop_ns = 5;
        let report = job.into_report("p2p_chain", 10, 20);
        assert_eq!(report.failures, vec!["closed_form".to_string()]);
        assert_eq!(report.checks_attempted, 2);
        assert_eq!(report.layers, vec![("sim.engine.loop_s".to_string(), 0.5)]);
        let line = report.to_json().to_line();
        assert!(!line.contains('\n'));
        let back = Report::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, report);
        // 64-bit hashes survive (they would not as JSON numbers).
        assert_eq!(
            back.fingerprint[1].1.as_str(),
            Some((u64::MAX - 7).to_string().as_str())
        );
    }

    #[test]
    fn sim_call_splits_loop_from_build() {
        let mut job = Job::new(1, Scale::Smoke, false, "out".into());
        let ((), call_ns, loop_ns) = job.sim_call("sim.engine", |j| {
            let mut r = SimResult::default();
            r.vitals.wall_ns = 1;
            r.stats.total_msgs = 3;
            j.tally(&r);
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        assert_eq!(loop_ns, 1);
        assert!(call_ns >= 2_000_000);
        assert_eq!(job.build_ns, call_ns - 1);
        assert_eq!((job.msgs, job.loop_ns), (3, 1));
    }

    #[test]
    fn proc_hash_depends_on_order_and_content() {
        let a = ProcStats {
            msgs_sent: 1,
            ..Default::default()
        };
        let b = ProcStats {
            msgs_sent: 2,
            ..Default::default()
        };
        assert_ne!(hash_procs(&[a, b]), hash_procs(&[b, a]));
        assert_eq!(hash_procs(&[a, b]), hash_procs(&[a, b]));
        assert_ne!(hash_procs(&[a]), hash_procs(&[a, a]));
    }
}
