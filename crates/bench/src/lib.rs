//! # logp-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md's experiment
//! index); this library holds the shared plumbing: a plain-text table
//! printer matching the layout the binaries report, scale-factor
//! handling so every experiment can run in a quick mode (default) or at
//! paper scale (`--full`), and thread-count selection (`--threads N` /
//! `LOGP_THREADS`) for the sweep-shaped binaries.

use logp_sim::perfetto::write_artifacts;
use logp_sim::process::{Ctx, Process};
use logp_sim::runner::Threads;
use logp_sim::{Data, Message, SimConfig, SimResult};
use std::path::PathBuf;

/// P0 and P1 bounce a decrementing counter until it hits zero: pure
/// per-event overhead, queue depth 1 (the ledger's `p2p_chain`).
pub struct PingPong {
    pub rounds: u64,
}

impl Process for PingPong {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.me() == 0 {
            ctx.send(1, 0, Data::U64(self.rounds));
        }
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Ctx<'_>) {
        let r = msg.data.as_u64();
        if r > 0 {
            ctx.send(1 - ctx.me(), 0, Data::U64(r - 1));
        }
    }
}

/// Every processor sends one word to every other processor, `rounds`
/// times; a new round starts once the previous round's P−1 messages
/// have been counted in. With `stagger` each processor walks
/// destinations in rotated order `(me + k) % P` — the standard
/// hot-spot-free all-to-all schedule. Without it, everyone blasts
/// destination 0 first: under capacity enforcement that convoys the run
/// on P0's admission queue (§4.1.4's hot spot; the two halves of the
/// ledger's `p2p_dense`).
pub struct AllToAll {
    rounds: u64,
    stagger: bool,
    done: u64,
    got: u32,
}

impl AllToAll {
    pub fn new(rounds: u64, stagger: bool) -> Self {
        AllToAll {
            rounds,
            stagger,
            done: 0,
            got: 0,
        }
    }

    fn blast(&self, ctx: &mut Ctx<'_>) {
        let me = ctx.me();
        let p = ctx.procs();
        if self.stagger {
            for k in 1..p {
                ctx.send((me + k) % p, 0, Data::Empty);
            }
        } else {
            for dst in 0..p {
                if dst != me {
                    ctx.send(dst, 0, Data::Empty);
                }
            }
        }
    }
}

impl Process for AllToAll {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.blast(ctx);
    }

    fn on_message(&mut self, _msg: &Message, ctx: &mut Ctx<'_>) {
        self.got += 1;
        if self.got == ctx.procs() - 1 {
            self.got = 0;
            self.done += 1;
            if self.done < self.rounds {
                self.blast(ctx);
            }
        }
    }
}

/// A simple fixed-width table printer for experiment output.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Render with columns padded to content width.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = width[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(out.len() - 1));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format helpers used across the binaries.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Experiment scale selected on the command line: `--full` runs paper
/// scale; default is a fast shape-preserving reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Quick,
    Full,
}

impl Scale {
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Quick
        }
    }

    /// Choose between the quick and full value.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Observability artifact flags shared by the experiment binaries:
/// `--trace-out PREFIX` writes a Perfetto `trace_event` JSON per run,
/// `--metrics-out PREFIX` a metrics JSON per run, `--vitals-out PREFIX`
/// an engine-vitals JSON per run (events/sec, lane balance, lookahead
/// windows — see `logp_sim::metrics::EngineVitals`). `--stream` switches
/// the trace artifact to the bounded-memory streaming `PerfettoSink`
/// (with online aggregation instead of a retained log), which is the
/// only way to export traces at `P = 10^5..10^6`. A binary labels each
/// run it exports (e.g. the sweep point), and artifacts land in
/// `PREFIX_<label>.trace.json` / `.metrics.json` / `.vitals.json`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsArgs {
    pub trace_prefix: Option<String>,
    pub metrics_prefix: Option<String>,
    pub vitals_prefix: Option<String>,
    /// Stream artifacts instead of retaining the run in memory.
    pub stream: bool,
}

impl ObsArgs {
    /// Parse `--trace-out` / `--metrics-out` / `--vitals-out` /
    /// `--stream` from the process arguments.
    pub fn from_args() -> Self {
        let mut out = ObsArgs::default();
        let mut args = std::env::args();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--trace-out" => {
                    out.trace_prefix = Some(args.next().expect("--trace-out takes a path prefix"));
                }
                "--metrics-out" => {
                    out.metrics_prefix =
                        Some(args.next().expect("--metrics-out takes a path prefix"));
                }
                "--vitals-out" => {
                    out.vitals_prefix =
                        Some(args.next().expect("--vitals-out takes a path prefix"));
                }
                "--stream" => out.stream = true,
                _ => {}
            }
        }
        out
    }

    /// Any artifact was requested.
    pub fn active(&self) -> bool {
        self.trace_prefix.is_some() || self.metrics_prefix.is_some() || self.vitals_prefix.is_some()
    }

    /// Turn on the observability the requested artifacts need. In
    /// streaming mode the trace goes through a `PerfettoSink` (one per
    /// labeled run — see [`ObsArgs::apply_for`]) and the aggregate is
    /// maintained online; nothing is retained. Vitals are free: the
    /// engine always fills them in.
    pub fn apply(&self, config: SimConfig) -> SimConfig {
        if self.stream {
            let config = if self.trace_prefix.is_some() || self.metrics_prefix.is_some() {
                config.with_aggregate(true)
            } else {
                config
            };
            return config;
        }
        let config = if self.trace_prefix.is_some() {
            config.with_msg_log(true)
        } else {
            config
        };
        if self.metrics_prefix.is_some() {
            config.with_metrics(true)
        } else {
            config
        }
    }

    /// [`ObsArgs::apply`] plus the per-run streaming sink for `label`
    /// (streaming sinks write one file per run, so the label must be
    /// known at config time).
    pub fn apply_for(&self, label: &str, config: SimConfig) -> SimConfig {
        let config = self.apply(config);
        match (self.stream, self.trace_path(label)) {
            (true, Some(path)) => config.with_sink(logp_sim::SinkSpec::Perfetto(path)),
            _ => config,
        }
    }

    fn path(prefix: &Option<String>, label: &str, suffix: &str) -> Option<PathBuf> {
        let prefix = prefix.as_ref()?;
        let label: String = label
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        Some(PathBuf::from(format!("{prefix}_{label}{suffix}")))
    }

    /// Per-run trace artifact path, if requested.
    pub fn trace_path(&self, label: &str) -> Option<PathBuf> {
        Self::path(&self.trace_prefix, label, ".trace.json")
    }

    /// Per-run metrics artifact path, if requested.
    pub fn metrics_path(&self, label: &str) -> Option<PathBuf> {
        Self::path(&self.metrics_prefix, label, ".metrics.json")
    }

    /// Per-run vitals artifact path, if requested.
    pub fn vitals_path(&self, label: &str) -> Option<PathBuf> {
        Self::path(&self.vitals_prefix, label, ".vitals.json")
    }

    /// Write the requested artifacts for one labeled run, as the result
    /// has them: a run that kept the online aggregate streamed — its sink
    /// already wrote the trace file, the registry was never populated,
    /// and the aggregate is its metrics artifact; any other run retained
    /// what the trace and metrics artifacts are rendered from.
    pub fn write(&self, label: &str, res: &SimResult) {
        let (trace, metrics) = (self.trace_path(label), self.metrics_path(label));
        let written = match &res.aggregate {
            Some(agg) => metrics.map_or(Ok(()), |path| std::fs::write(path, agg.to_json())),
            None => write_artifacts(res, trace.as_deref(), metrics.as_deref()),
        };
        if let Err(e) = written {
            eprintln!("warning: failed to write artifacts for {label}: {e}");
        }
        if let Some(path) = self.vitals_path(label) {
            if let Err(e) = std::fs::write(&path, res.vitals.to_json()) {
                eprintln!("warning: failed to write vitals for {label}: {e}");
            }
        }
    }
}

/// Worker-count policy from the command line: `--threads N` pins the
/// sweep pool to `N` workers; otherwise the `LOGP_THREADS` environment
/// variable applies; otherwise all available parallelism is used. Every
/// sweep is bit-identical across thread counts (the runner derives each
/// run's RNG stream from its index, not its worker), so this knob trades
/// wall clock only.
pub fn threads_from_args() -> Threads {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--threads" {
            let n = args
                .next()
                .and_then(|v| v.parse::<usize>().ok())
                .expect("--threads takes a positive integer");
            if n > 0 {
                return Threads::Fixed(n);
            }
        }
    }
    Threads::from_env()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["x".into(), "1".into()]);
        t.row(&["longer".into(), "22".into()]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with(" 1"));
        assert!(lines[3].ends_with("22"));
        // All rows equal width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_checks_arity() {
        Table::new(&["a"]).row(&["1".into(), "2".into()]);
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 100), 1);
        assert_eq!(Scale::Full.pick(1, 100), 100);
    }

    #[test]
    fn threads_default_resolves_positive() {
        // The test harness argv carries no --threads, so this exercises
        // the env-then-auto fallback; either way the count is usable.
        assert!(threads_from_args().count() >= 1);
    }

    #[test]
    fn format_helpers() {
        assert_eq!(f1(1.98765), "2.0");
        assert_eq!(f2(1.98765), "1.99");
        assert_eq!(f3(1.98765), "1.988");
    }
}
