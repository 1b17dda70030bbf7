//! # logp-bench — the experiment harness
//!
//! One `logp-bench` command runs every table/figure of the paper as a
//! named scenario (see EXPERIMENTS.md); this library holds the shared
//! plumbing: the one command-line parser ([`Args`]), a plain-text table
//! printer matching the layout the scenarios report, scale-factor
//! handling so every experiment can run in a quick mode (default) or at
//! paper scale (`--full`), thread-count selection (`--threads N` /
//! `LOGP_THREADS`) for the sweep-shaped scenarios, and the observability
//! artifact flags.

use logp_core::LogP;
use logp_sim::perfetto::write_artifacts;
use logp_sim::process::{Ctx, Process};
use logp_sim::runner::Threads;
use logp_sim::{Data, Message, Sim, SimConfig, SimResult};
use std::path::PathBuf;

/// P0 and P1 bounce a decrementing counter until it hits zero: pure
/// per-event overhead, queue depth 1 (the ledger's `p2p_chain`).
struct PingPong {
    rounds: u64,
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
struct AllToAll {
    rounds: u64,
    stagger: bool,
    done: u64,
    got: u32,
}

impl AllToAll {
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

/// `PingPong` for `rounds` on two processors of `LogP(6, 2, 4, 2)`.
pub fn ping_pong_sim(config: SimConfig, rounds: u64) -> Sim {
    let pair = LogP::new(6, 2, 4, 2).expect("valid model");
    let mut sim = Sim::new(pair, config);
    sim.set_all(move |_| Box::new(PingPong { rounds }));
    sim
}

/// `AllToAll` for `rounds` on `m`.
pub fn all_to_all_sim(m: LogP, config: SimConfig, rounds: u64, stagger: bool) -> Sim {
    let mut sim = Sim::new(m, config);
    sim.set_all(move |_| {
        Box::new(AllToAll {
            rounds,
            stagger,
            done: 0,
            got: 0,
        })
    });
    sim
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
        let mut width: Vec<usize> = self.header.iter().map(String::len).collect();
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

/// Format helpers used across the scenarios.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// The largest `|a[i] - b[i]|`: how far a distributed result strays from
/// its sequential reference.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Observability artifact flags shared by the scenarios:
/// `--trace-out PREFIX` writes a Perfetto `trace_event` JSON per run,
/// `--metrics-out PREFIX` a metrics JSON per run, `--vitals-out PREFIX`
/// an engine-vitals JSON per run (events/sec, lane balance, lookahead
/// windows — see `logp_sim::metrics::EngineVitals`). `--stream` switches
/// the trace artifact to the bounded-memory streaming `PerfettoSink`
/// (with online aggregation instead of a retained log), which is the
/// only way to export traces at `P = 10^5..10^6`. A scenario labels each
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
    /// Turn on the observability the requested artifacts need. In
    /// streaming mode the trace goes through a `PerfettoSink` (one per
    /// labeled run — see [`ObsArgs::apply_for`]) and the aggregate is
    /// maintained online; nothing is retained. Vitals are free: the
    /// engine always fills them in.
    pub fn apply(&self, config: SimConfig) -> SimConfig {
        let (trace, metrics) = (self.trace_prefix.is_some(), self.metrics_prefix.is_some());
        match (self.stream, trace, metrics) {
            (_, false, false) => config,
            (true, ..) => config.with_aggregate(true),
            (false, true, false) => config.with_msg_log(true),
            (false, false, true) => config.with_metrics(true),
            (false, true, true) => config.with_msg_log(true).with_metrics(true),
        }
    }

    /// [`ObsArgs::apply`] plus the per-run streaming sink for `label`
    /// (streaming sinks write one file per run, so the label must be
    /// known at config time).
    pub fn apply_for(&self, label: &str, config: SimConfig) -> SimConfig {
        let config = self.apply(config);
        match (
            self.stream,
            Self::path(&self.trace_prefix, label, ".trace.json"),
        ) {
            (true, Some(path)) => config.with_sink(logp_sim::SinkSpec::Perfetto(path)),
            _ => config,
        }
    }

    /// Per-run artifact path `PREFIX_<label><suffix>`, if requested.
    fn path(prefix: &Option<String>, label: &str, suffix: &str) -> Option<PathBuf> {
        let prefix = prefix.as_ref()?;
        let label: String = label
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        Some(PathBuf::from(format!("{prefix}_{label}{suffix}")))
    }

    /// Write the requested artifacts for one labeled run, as the result
    /// has them: a run that kept the online aggregate streamed — its sink
    /// already wrote the trace file, the registry was never populated,
    /// and the aggregate is its metrics artifact; any other run retained
    /// what the trace and metrics artifacts are rendered from.
    pub fn write(&self, label: &str, res: &SimResult) {
        let trace = Self::path(&self.trace_prefix, label, ".trace.json");
        let metrics = Self::path(&self.metrics_prefix, label, ".metrics.json");
        let written = match &res.aggregate {
            Some(agg) => metrics.map_or(Ok(()), |path| std::fs::write(path, agg.to_json())),
            None => write_artifacts(res, trace.as_deref(), metrics.as_deref()),
        };
        if let Err(e) = written {
            eprintln!("warning: failed to write artifacts for {label}: {e}");
        }
        if let Some(path) = Self::path(&self.vitals_prefix, label, ".vitals.json") {
            if let Err(e) = std::fs::write(&path, res.vitals.to_json()) {
                eprintln!("warning: failed to write vitals for {label}: {e}");
            }
        }
    }
}

/// A flag one scenario declares beside the shared ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `NAME`, given or not.
    Switch(&'static str),
    /// `NAME VALUE`; the second field names the value in usage.
    Text(&'static str, &'static str),
    /// `NAME N`, an integer that fits a `u32`.
    Int(&'static str),
}

impl Flag {
    fn name(self) -> &'static str {
        match self {
            Flag::Switch(name) | Flag::Text(name, _) | Flag::Int(name) => name,
        }
    }

    /// The flag as usage shows it, e.g. ` [--file PATH]`.
    pub fn usage(self) -> String {
        match self {
            Flag::Switch(name) => format!(" [{name}]"),
            Flag::Text(name, value) => format!(" [{name} {value}]"),
            Flag::Int(name) => format!(" [{name} N]"),
        }
    }
}

/// The flags every scenario accepts, as usage shows them.
pub const SHARED_USAGE: &str = "[--full] [--threads N] [--trace-out PREFIX] \
                                [--metrics-out PREFIX] [--vitals-out PREFIX] [--stream]";

/// One command line, parsed once: the shared flags plus the ones the
/// chosen scenario declares. A flag that is unknown, undeclared, missing
/// its value or given a malformed one is an error that names it.
#[derive(Debug, Clone)]
pub struct Args {
    /// `--full` runs paper scale; the default is a fast shape-preserving
    /// reduction (see [`Args::pick`]).
    pub full: bool,
    /// `--threads N` pins the sweep pool to `N > 0` workers; otherwise
    /// `LOGP_THREADS` applies; otherwise every core. Every sweep is
    /// bit-identical across thread counts (the runner derives each run's
    /// RNG stream from its index, not its worker), so this trades wall
    /// clock only.
    pub threads: Threads,
    /// `--trace-out` / `--metrics-out` / `--vitals-out` / `--stream`.
    pub obs: ObsArgs,
    /// The declared flags given, in order, with their values.
    given: Vec<(&'static str, String)>,
}

impl Args {
    /// Parse `words` (everything after the command) against the shared
    /// flags and `declared`.
    pub fn parse(words: &[String], declared: &[Flag]) -> Result<Args, String> {
        let mut args = Args {
            full: false,
            threads: Threads::from_env(),
            obs: ObsArgs::default(),
            given: Vec::new(),
        };
        let mut words = words.iter();
        while let Some(word) = words.next() {
            let mut value = |what: &str| {
                words
                    .next()
                    .cloned()
                    .ok_or_else(|| format!("{word} takes {what}"))
            };
            match word.as_str() {
                "--full" => args.full = true,
                "--stream" => args.obs.stream = true,
                "--threads" => {
                    let n = value("a positive integer")?;
                    match n.parse::<usize>() {
                        Ok(n) if n > 0 => args.threads = Threads::Fixed(n),
                        _ => return Err(format!("--threads takes a positive integer, not {n:?}")),
                    }
                }
                "--trace-out" => args.obs.trace_prefix = Some(value("a path prefix")?),
                "--metrics-out" => args.obs.metrics_prefix = Some(value("a path prefix")?),
                "--vitals-out" => args.obs.vitals_prefix = Some(value("a path prefix")?),
                _ => {
                    let flag = declared
                        .iter()
                        .find(|f| f.name() == word)
                        .ok_or_else(|| format!("unknown flag {word:?}"))?;
                    let given = match flag {
                        Flag::Switch(_) => String::new(),
                        Flag::Text(_, what) => value(what)?,
                        Flag::Int(_) => {
                            let n = value("an integer")?;
                            n.parse::<u32>()
                                .map_err(|_| format!("{word} takes an integer, not {n:?}"))?;
                            n
                        }
                    };
                    args.given.push((flag.name(), given));
                }
            }
        }
        Ok(args)
    }

    /// `quick` by default, `full` under `--full`.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        if self.full {
            full
        } else {
            quick
        }
    }

    /// The value of a declared [`Flag::Text`], if given (the last one wins).
    pub fn text(&self, name: &str) -> Option<&str> {
        let (_, value) = self.given.iter().rev().find(|(n, _)| *n == name)?;
        Some(value)
    }

    /// Whether a declared [`Flag::Switch`] was given.
    pub fn switch(&self, name: &str) -> bool {
        self.text(name).is_some()
    }

    /// The value of a declared [`Flag::Int`], if given.
    pub fn int(&self, name: &str) -> Option<u32> {
        self.text(name)
            .map(|n| n.parse().expect("an Int flag is checked when parsed"))
    }
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

    const FLAGS: &[Flag] = &[
        Flag::Switch("--emit"),
        Flag::Text("--file", "PATH"),
        Flag::Int("--p"),
    ];

    fn parse(line: &str) -> Result<Args, String> {
        let words: Vec<String> = line.split_whitespace().map(String::from).collect();
        Args::parse(&words, FLAGS)
    }

    #[test]
    fn shared_and_declared_flags_parse() {
        let args = parse("--full --threads 3 --file a.wl --p 7 --emit --stream --trace-out t")
            .expect("a valid line");
        assert_eq!(args.pick(1, 100), 100);
        assert_eq!(args.threads, Threads::Fixed(3));
        assert_eq!(args.obs.trace_prefix.as_deref(), Some("t"));
        assert!(args.obs.stream && args.switch("--emit"));
        assert_eq!(
            (args.text("--file"), args.int("--p")),
            (Some("a.wl"), Some(7))
        );
        let bare = parse("").expect("no flags");
        assert_eq!(bare.pick(1, 100), 1);
        assert!(!bare.switch("--emit") && bare.int("--p").is_none());
    }

    #[test]
    fn bad_flags_are_errors_that_name_the_flag() {
        for (line, flag) in [
            ("--trace-ot /tmp/x", "--trace-ot"),
            ("--threads 0", "--threads"),
            ("--threads x", "--threads"),
            ("--trace-out", "--trace-out"),
            ("--p 1 --seed 3", "--seed"),
            ("--p x", "--p"),
        ] {
            let err = parse(line).expect_err(line);
            assert!(err.contains(flag), "{line:?}: {err:?} does not name {flag}");
        }
        let undeclared = vec!["--file".to_string(), "a.wl".to_string()];
        assert!(Args::parse(&undeclared, &[]).is_err(), "undeclared flag");
    }

    #[test]
    fn format_helpers() {
        assert_eq!(f1(1.98765), "2.0");
        assert_eq!(f2(1.98765), "1.99");
        assert_eq!(f3(1.98765), "1.988");
    }
}
