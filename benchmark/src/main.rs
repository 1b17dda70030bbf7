//! `logp-perf` — the performance ledger's harness.
//!
//! ```text
//! logp-perf --workload W --seed N --seconds S --trace 0|1   the gate's run (BENCHMARK.json)
//! logp-perf suite [--smoke | --scale smoke|std|full] [--seed N] [--runs K] [--out PATH] [--bless]
//! logp-perf compare A.json B.json
//! logp-perf manifest                                         print BENCHMARK.json
//! ```
//!
//! `run.sh` builds this and passes its arguments through. See README.md.

mod compare;
mod golden;
mod host;
mod job;
mod json;
mod metrics;
mod programs;
mod runner;
mod stats;
mod trace;
mod wlgen;
mod workloads;

use job::Scale;
use std::process::ExitCode;

/// `--flag value` pairs and bare words, in order.
struct Args {
    words: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    /// Flags in `switches` take no value.
    fn parse(raw: impl Iterator<Item = String>, switches: &[&str]) -> Result<Args, String> {
        let mut args = Args {
            words: Vec::new(),
            flags: Vec::new(),
        };
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            match a.strip_prefix("--") {
                Some(name) if switches.contains(&name) => {
                    args.flags.push((name.into(), "1".into()))
                }
                Some(name) => {
                    let value = raw
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    args.flags.push((name.into(), value));
                }
                None => args.words.push(a),
            }
        }
        Ok(args)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn num(&self, name: &str, default: u64) -> Result<u64, String> {
        self.get(name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("--{name} takes a whole number, got `{v}`"))
        })
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(k, _)| !allowed.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown flag --{k}")),
            None => Ok(()),
        }
    }
}

fn run() -> Result<bool, String> {
    let args = Args::parse(std::env::args().skip(1), &["smoke", "bless"])?;
    let scale = |default| match args.get("scale") {
        None => Ok(default),
        Some(s) => Scale::parse(s).ok_or_else(|| format!("unknown scale `{s}`")),
    };
    match args.words.first().map(String::as_str) {
        None => {
            args.only(&["workload", "seed", "seconds", "trace"])?;
            let workload = args
                .get("workload")
                .ok_or("usage: see benchmark/README.md")?;
            let trace = match args.num("trace", 0)? {
                0 => false,
                1 => true,
                n => return Err(format!("--trace takes 0 or 1, got {n}")),
            };
            let seconds = args.num("seconds", metrics::RUN_SECONDS)?;
            runner::gate(workload, args.num("seed", 1)?, seconds, trace)?;
            Ok(true)
        }
        Some("child") => {
            args.only(&["workload", "seed", "scale", "traced"])?;
            let workload = args.get("workload").ok_or("child: --workload missing")?;
            runner::child(
                workload,
                args.num("seed", 1)?,
                scale(Scale::Std)?,
                args.num("traced", 0)? == 1,
            )?;
            Ok(true)
        }
        Some("suite") => {
            args.only(&["smoke", "scale", "seed", "runs", "out", "bless"])?;
            let smoke = args.get("smoke").is_some();
            let opts = runner::SuiteOpts {
                scale: if smoke {
                    Scale::Smoke
                } else {
                    scale(Scale::Std)?
                },
                seed: args.num("seed", 1)?,
                // Smoke is a correctness pass: one job per workload.
                runs: args.num("runs", if smoke { 1 } else { 5 })? as usize,
                out: args
                    .get("out")
                    .map_or_else(|| runner::out_dir().join("result.json"), Into::into),
                bless: args.get("bless").is_some(),
            };
            runner::suite(&opts)
        }
        Some("compare") => {
            let [_, a, b] = args.words.as_slice() else {
                return Err("usage: logp-perf compare A.json B.json".into());
            };
            let read =
                |p: &String| std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"));
            compare::compare(&read(a)?, &read(b)?)
        }
        Some("manifest") => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        Some(other) => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("logp-perf: {e}");
            ExitCode::from(2)
        }
    }
}
