//! The parent side: every sample is one job in a **fresh child process**
//! (an in-process warm repeat hides first-touch memory and teardown,
//! which are most of a large-P run), one process at a time. This module
//! spawns the children, turns their reports into end-to-end samples, and
//! implements the two front ends: the gate's single-workload run and the
//! full suite behind `run.sh`.

use crate::golden;
use crate::host;
use crate::job::{Job, Report, Scale};
use crate::json::Json;
use crate::metrics::{self, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{self, Summary};
use crate::trace;
use crate::workloads;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Artifacts (sink files, traces, `result.json`) go next to the harness,
/// wherever it was started from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

// ------------------------------------------------------------- the child

/// Run one job in this process and print its report as the last line.
pub fn child(workload: &str, seed: u64, scale: Scale, traced: bool) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut job = Job::new(seed, scale, traced, dir.clone());
    let (gen_ns, run_ns) = workloads::execute(workload, &mut job)
        .ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let spans = trace::spans_to_json(job.tracer.spans(), workload, seed);
    let mut report = job.into_report(workload, gen_ns, run_ns);
    if let Some(matches) = golden::verdict(&report) {
        report.checks_attempted += 1;
        if !matches {
            report.failures.push("golden_fingerprint".into());
        }
    }
    if traced {
        let path = dir.join(format!("trace-{workload}.json"));
        std::fs::write(&path, spans.to_pretty())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!("{}", report.to_json().to_line());
    Ok(())
}

// ------------------------------------------------------------ the parent

/// One fresh-process job as the parent saw it.
pub struct Sample {
    pub report: Report,
    /// Spawn → exit, measured by the parent.
    pub proc_s: f64,
}

impl Sample {
    pub fn wall_s(&self) -> f64 {
        self.report.run_ns as f64 / 1e9
    }

    pub fn msgs_per_s(&self) -> f64 {
        self.report.msgs as f64 / self.wall_s()
    }

    /// Everything the user pays outside the event loops: process start
    /// and exit, parse/validate/compile, simulator construction, result
    /// extraction, artifact reads, analysis, teardown. Input generation is
    /// the benchmark's own cost and is taken out.
    pub fn setup_s(&self) -> f64 {
        self.proc_s - (self.report.gen_ns + self.report.loop_ns) as f64 / 1e9
    }

    pub fn peak_rss_mb(&self) -> f64 {
        self.report.rss_kb as f64 / 1024.0
    }

    fn metric(&self, name: &str) -> f64 {
        match name {
            "wall_s" => self.wall_s(),
            "msgs_per_s" => self.msgs_per_s(),
            "setup_s" => self.setup_s(),
            "peak_rss_mb" => self.peak_rss_mb(),
            other => unreachable!("no end-to-end metric `{other}`"),
        }
    }
}

pub fn spawn(workload: &str, seed: u64, scale: Scale, traced: bool) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let t0 = Instant::now();
    let out = Command::new(exe)
        .args(["child", "--workload", workload, "--scale", scale.as_str()])
        .args(["--seed", &seed.to_string()])
        .args(["--traced", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let proc_s = t0.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!("child for `{workload}` exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    let report = Report::from_json(&Json::parse(line)?)?;
    Ok(Sample { report, proc_s })
}

/// Checks attempted / failed over a set of jobs; a job that crashed or
/// printed garbage counts as one attempted, one failed.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    fn add(&mut self, outcome: &Result<Sample, String>) {
        match outcome {
            Ok(s) => {
                self.attempted += s.report.checks_attempted;
                self.failures.extend(s.report.failures.iter().cloned());
            }
            Err(e) => {
                self.attempted += 1;
                self.failures.push(e.clone());
            }
        }
    }
}

fn summaries(samples: &[Sample]) -> Vec<(&'static str, Vec<f64>, Summary)> {
    END_TO_END
        .iter()
        .map(|e| {
            let values: Vec<f64> = samples.iter().map(|s| s.metric(e.name)).collect();
            let summary = stats::summarize(&values);
            (e.name, values, summary)
        })
        .collect()
}

/// Per-layer metrics of a traced job plus the `bench.*` ones only the
/// parent can compute, completed with 0 for every name this workload's
/// layers did not report (0 = "layer not exercised here").
fn layer_values(traced: &Sample, untraced: &[Sample]) -> Vec<(&'static str, f64)> {
    let walls: Vec<f64> = untraced.iter().map(Sample::wall_s).collect();
    let base = stats::summarize(&walls);
    PER_LAYER
        .iter()
        .map(|l| {
            let v = match l.name {
                "bench.trace_overhead_ratio" => traced.wall_s() / base.median,
                "bench.run_spread" => base.spread(),
                "bench.checks_attempted" => traced.report.checks_attempted as f64,
                "bench.checks_failed" => traced.report.failures.len() as f64,
                name => traced
                    .report
                    .layers
                    .iter()
                    .find(|(k, _)| k == name)
                    .map_or(0.0, |(_, v)| *v),
            };
            (l.name, v)
        })
        .collect()
}

fn metric_json(value: f64, unit: &str) -> Json {
    let mut o = Json::obj();
    o.put("value", value).put("unit", unit);
    o
}

/// The gate's run: `--workload W --seed N --seconds S --trace 0|1`.
/// Prints the one-line result last; `Err` (non-zero exit, no result line)
/// when the request is malformed or nothing could be measured.
pub fn gate(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<(), String> {
    if !metrics::is_workload(workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let scale = Scale::Std;
    let mut checks = Checks::default();
    // No warm-up job: the build that precedes every run leaves the binary
    // in the page cache, and a slow first job cannot be the run's best.
    // A traced run spends about half its time on the untraced base the
    // overhead ratio needs, the rest on the traced job and its probes.
    let budget = Duration::from_secs_f64(seconds as f64 * if trace { 0.4 } else { 1.0 });
    let min_samples = if trace { 3 } else { 5 };
    let mut samples = Vec::new();
    let t0 = Instant::now();
    while samples.len() < min_samples || t0.elapsed() < budget {
        let outcome = spawn(workload, seed, scale, false);
        checks.add(&outcome);
        match outcome {
            Ok(s) => samples.push(s),
            // A workload that cannot run will not start running.
            Err(_) if samples.is_empty() => break,
            Err(_) => {}
        }
    }

    if samples.is_empty() {
        return Err(format!(
            "no job of `{workload}` completed, nothing was measured: {}",
            checks.failures.join("; ")
        ));
    }

    let mut metrics_out = Json::obj();
    if trace {
        let outcome = spawn(workload, seed, scale, true);
        checks.add(&outcome);
        // Without the traced job there is no per-layer number to print.
        let traced = outcome?;
        for (l, (name, v)) in PER_LAYER.iter().zip(layer_values(&traced, &samples)) {
            metrics_out.put(name, metric_json(v, l.unit));
        }
    } else {
        // The reference host is a shared 2-vCPU guest whose co-tenants
        // slow a CPU-bound job by 30–60 % for seconds at a time, never
        // speed it up. Over ten 11-job windows taken in such a phase the
        // windows' medians spread by 25 % and their fastest jobs by 12 %
        // (in a calm phase: 2–4 % either way), so the gate reports each
        // time metric's best job of the run. Memory is not timing: median.
        for (e, (name, _, s)) in END_TO_END.iter().zip(summaries(&samples)) {
            let value = match (e.timing, e.better) {
                (false, _) => s.median,
                (true, metrics::Better::Lower) => s.min,
                (true, metrics::Better::Higher) => s.max,
            };
            metrics_out.put(name, metric_json(value, e.unit));
        }
    }
    for f in &checks.failures {
        eprintln!("FAILED CHECK [{workload} seed {seed}]: {f}");
    }
    let mut line = Json::obj();
    line.put("correct", checks.failed() == 0)
        .put("attempted", checks.attempted.max(1))
        .put("failed", checks.failed())
        .put("metrics", metrics_out);
    println!("{}", line.to_line());
    Ok(())
}

// -------------------------------------------------------------- the suite

pub struct SuiteOpts {
    pub scale: Scale,
    pub seed: u64,
    /// Measured fresh-process runs per workload (after one discarded).
    pub runs: usize,
    pub out: PathBuf,
    /// Rewrite `golden.json` from this run's fingerprints.
    pub bless: bool,
}

/// Every workload: one discarded + `runs` measured jobs, interleaved
/// round-robin across workloads so drift hits all alike, then one traced
/// job each. Prints every metric as `name value unit`, writes
/// `result.json`; `Ok(false)` when any check failed.
pub fn suite(opts: &SuiteOpts) -> Result<bool, String> {
    let load1 = host::load_avg();
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("create out dir: {e}"))?;
    let mut samples: Vec<Vec<Sample>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    let mut checks: Vec<Checks> = WORKLOADS.iter().map(|_| Checks::default()).collect();
    for round in 0..=opts.runs {
        for (i, w) in WORKLOADS.iter().enumerate() {
            let outcome = spawn(w.name, opts.seed, opts.scale, false);
            if round == 0 {
                continue; // discarded
            }
            checks[i].add(&outcome);
            if let Ok(s) = outcome {
                samples[i].push(s);
            }
        }
        eprintln!("round {round}/{} done", opts.runs);
    }

    let mut all_ok = true;
    let mut workloads_json = Json::obj();
    let mut blessed: Vec<Report> = Vec::new();
    for (i, w) in WORKLOADS.iter().enumerate() {
        let traced = spawn(w.name, opts.seed, opts.scale, true);
        checks[i].add(&traced);
        if samples[i].is_empty() {
            all_ok = false;
            println!("{} FAILED: no job completed", w.name);
            continue;
        }
        let mut e2e = Json::obj();
        for (e, (name, values, s)) in END_TO_END.iter().zip(summaries(&samples[i])) {
            println!("{}.{} {} {}", w.name, name, s.median, e.unit);
            let mut m = Json::obj();
            m.put("unit", e.unit)
                .put("better", e.better.as_str())
                .put("bound", e.bound)
                .put("n", s.n as u64)
                .put("min", s.min)
                .put("q1", s.q1)
                .put("median", s.median)
                .put("q3", s.q3)
                .put("max", s.max)
                .put(
                    "samples",
                    values.into_iter().map(Json::Num).collect::<Vec<_>>(),
                );
            e2e.put(name, m);
        }
        let c = &checks[i];
        let fail_ratio = c.failed() as f64 / c.attempted.max(1) as f64;
        println!(
            "{}.fail_ratio {fail_ratio} ratio ({} failed / {} attempted)",
            w.name,
            c.failed(),
            c.attempted
        );
        for f in &c.failures {
            println!("{} FAILED CHECK: {f}", w.name);
        }
        all_ok &= c.failed() == 0;
        let mut cj = Json::obj();
        cj.put("attempted", c.attempted)
            .put("failed", c.failed())
            .put("fail_ratio", fail_ratio)
            .put(
                "failures",
                c.failures
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect::<Vec<_>>(),
            );
        let mut wj = Json::obj();
        wj.put("end_to_end", e2e).put("checks", cj);
        if let Ok(t) = traced {
            let mut layers = Json::obj();
            for (l, (name, v)) in PER_LAYER.iter().zip(layer_values(&t, &samples[i])) {
                // A layer this workload never enters would print 86
                // zeros per workload; the file keeps them, the console
                // does not.
                if v != 0.0 || l.name.starts_with("bench.") {
                    println!("{}.{} {} {}", w.name, name, v, l.unit);
                }
                let mut m = metric_json(v, l.unit);
                m.put("exact", l.exact);
                layers.put(name, m);
            }
            wj.put("per_layer", layers)
                .put("fingerprint", Json::Obj(t.report.fingerprint.clone()))
                .put(
                    "golden",
                    match golden::verdict(&t.report) {
                        Some(true) => "match",
                        Some(false) => "MISMATCH",
                        None => "no entry for this seed",
                    },
                );
            blessed.push(t.report);
        }
        workloads_json.put(w.name, wj);
    }

    let mut root = Json::obj();
    root.put("schema", "logp-perf/1")
        // The ledger defines names; it claims no gain.
        .put("claim", Json::Null)
        .put("host", host::fingerprint(load1))
        .put("seed", opts.seed)
        .put("scale", opts.scale.as_str())
        .put("runs", opts.runs as u64)
        .put("workloads", workloads_json);
    std::fs::write(&opts.out, root.to_pretty())
        .map_err(|e| format!("write {}: {e}", opts.out.display()))?;
    eprintln!("wrote {}", opts.out.display());

    if opts.bless {
        let old = std::fs::read_to_string(golden::GOLDEN_PATH).unwrap_or_else(|_| "{}".into());
        std::fs::write(
            golden::GOLDEN_PATH,
            golden::bless(&old, opts.scale, &blessed)?,
        )
        .map_err(|e| format!("write golden.json: {e}"))?;
        eprintln!(
            "blessed {} — rebuild before the next run",
            golden::GOLDEN_PATH
        );
    }
    Ok(all_ok)
}
