//! What the ledger records about the machine it ran on, and the process's
//! own peak memory.

use crate::json::Json;
use std::process::Command;

/// `VmHWM` (peak resident set, kB) from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim();
    rest.strip_suffix("kB")?.trim().parse().ok()
}

/// This process's peak resident set in kB (0 where `/proc` is absent).
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .unwrap_or(0)
}

pub fn host_cores() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .flatten()
}

/// 1-minute load average.
pub fn load_avg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Host stamp for `result.json`. `load1` is sampled by the caller before
/// the first run, since the suite itself raises it.
pub fn fingerprint(load1: f64) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cores = host_cores();
    let mut h = Json::obj();
    h.put("host_cores", cores)
        .put("cpu_model", cpu)
        .put(
            "rustc",
            first_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
        )
        // The gate runs from an exported tree that is not a git
        // repository; "unknown" is the honest stamp there.
        .put(
            "commit",
            first_line("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
        )
        .put("load_avg_start", load1)
        .put("noisy", load1 > 0.5 * cores as f64);
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_from_proc_status_text() {
        let status =
            "Name:\tlogp-perf\nVmPeak:\t  999999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\nVmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn this_process_has_a_peak_rss_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_kb() > 0);
        }
    }
}
