//! `logp-perf compare A.json B.json`: two `result.json` files, A the base.
//!
//! Per (end-to-end metric, workload): both medians and quartiles, the
//! ratio B ÷ A, and a verdict by the metrics guide's rule — the bound the
//! benchmark fixed against the run-to-run spread:
//!
//! * `improved`   — every run of B reads better than every run of A, or B
//!   is better by more than the bound and the spread is within it;
//! * `regressed`  — B's median is worse than A's by more than the bound
//!   and the spread is within the bound;
//! * `unresolved` — the spread (IQR ÷ median, the wider side) exceeds the
//!   bound, so the data cannot tell unchanged from changed;
//! * `unchanged`  — otherwise.
//!
//! Exact (†) per-layer counts are compared for equality only.

use crate::json::Json;
use crate::metrics::Better;
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The rule, on raw samples. `bound` is a share of A's median.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (sa, sb) = (stats::summarize(a), stats::summarize(b));
    let all_better = match better {
        Better::Lower => sb.max < sa.min,
        Better::Higher => sb.min > sa.max,
    };
    if all_better {
        return Verdict::Improved;
    }
    if sa.spread().max(sb.spread()) > bound {
        return Verdict::Unresolved;
    }
    // Positive = B is worse, as a share of A's median.
    let worse = match better {
        Better::Lower => (sb.median - sa.median) / sa.median,
        Better::Higher => (sa.median - sb.median) / sa.median,
    };
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn samples(metric: &Json) -> Vec<f64> {
    metric
        .get("samples")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Print the comparison; `Ok(true)` when nothing regressed and every
/// exact count is identical.
pub fn compare(a_text: &str, b_text: &str) -> Result<bool, String> {
    let (a, b) = (Json::parse(a_text)?, Json::parse(b_text)?);
    for (label, file) in [("A", &a), ("B", &b)] {
        let host = file.get("host");
        let field = |k: &str| {
            host.and_then(|h| h.get(k))
                .map_or("?".into(), Json::to_line)
        };
        println!(
            "{label}: commit {} cores {} noisy {} scale {} seed {}",
            field("commit"),
            field("host_cores"),
            field("noisy"),
            file.get("scale").map_or("?".into(), Json::to_line),
            file.get("seed").map_or("?".into(), Json::to_line),
        );
    }
    let (wa, wb) = (
        a.get("workloads").ok_or("A: no `workloads`")?,
        b.get("workloads").ok_or("B: no `workloads`")?,
    );
    let mut tally = [0usize; 4];
    let mut exact_differs = 0usize;
    let mut max_median_shift = 0.0f64;
    println!(
        "{:<14} {:<12} {:>13} {:>13} {:>9}  {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "A iqr%", "B iqr%"
    );
    for (workload, ja) in wa.entries() {
        let Some(jb) = wb.get(workload) else {
            println!("{workload}: missing from B");
            exact_differs += 1;
            continue;
        };
        let (ea, eb) = (ja.get("end_to_end"), jb.get("end_to_end"));
        for (metric, ma) in ea.map(Json::entries).unwrap_or_default() {
            let Some(mb) = eb.and_then(|e| e.get(metric)) else {
                println!("{workload}.{metric}: missing from B");
                exact_differs += 1;
                continue;
            };
            let (xa, xb) = (samples(ma), samples(mb));
            if xa.is_empty() || xb.is_empty() {
                return Err(format!("{workload}.{metric}: no samples"));
            }
            let better = match ma.get("better").and_then(Json::as_str) {
                Some("higher") => Better::Higher,
                _ => Better::Lower,
            };
            let bound = ma.get("bound").and_then(Json::as_f64).unwrap_or(0.05);
            let (sa, sb) = (stats::summarize(&xa), stats::summarize(&xb));
            let v = judge(&xa, &xb, better, bound);
            tally[v as usize] += 1;
            max_median_shift = max_median_shift.max((sb.median / sa.median - 1.0).abs());
            println!(
                "{:<14} {:<12} {:>13.6} {:>13.6} {:>8.4}x  {:>6.2}% {:>6.2}%  {} (bound {:.0}%, base A, n={}+{})",
                workload,
                metric,
                sa.median,
                sb.median,
                sb.median / sa.median,
                sa.spread() * 100.0,
                sb.spread() * 100.0,
                v.as_str(),
                bound * 100.0,
                sa.n,
                sb.n,
            );
        }
        let (la, lb) = (ja.get("per_layer"), jb.get("per_layer"));
        for (name, ma) in la.map(Json::entries).unwrap_or_default() {
            if ma.get("exact") != Some(&Json::Bool(true)) {
                continue;
            }
            let (va, vb) = (
                ma.get("value"),
                lb.and_then(|l| l.get(name)).and_then(|m| m.get("value")),
            );
            if va != vb {
                exact_differs += 1;
                println!(
                    "{workload}.{name}: exact count DIFFERS: A {} vs B {}",
                    va.map_or("?".into(), Json::to_line),
                    vb.map_or("?".into(), Json::to_line)
                );
            }
        }
        if ja.get("fingerprint") != jb.get("fingerprint") {
            exact_differs += 1;
            println!("{workload}: simulated fingerprint DIFFERS");
        }
    }
    println!(
        "summary: {} improved, {} unchanged, {} regressed, {} unresolved; {} exact differences; largest median shift {:.2}%",
        tally[Verdict::Improved as usize],
        tally[Verdict::Unchanged as usize],
        tally[Verdict::Regressed as usize],
        tally[Verdict::Unresolved as usize],
        exact_differs,
        max_median_shift * 100.0,
    );
    Ok(tally[Verdict::Regressed as usize] == 0 && exact_differs == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_versus_spread_rule() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        // Same distribution: unchanged.
        assert_eq!(judge(&base, &base, Better::Lower, 0.05), Verdict::Unchanged);
        // 20 % slower, tight: regressed (lower is better) …
        let slow = base.map(|v| v * 1.2);
        assert_eq!(judge(&base, &slow, Better::Lower, 0.05), Verdict::Regressed);
        // … and improved when higher is better (every run above A's).
        assert_eq!(judge(&base, &slow, Better::Higher, 0.05), Verdict::Improved);
        // Every run of B better than every run of A: improved even when
        // within the bound.
        let bit_faster = base.map(|v| v * 0.96);
        assert_eq!(
            judge(&base, &bit_faster, Better::Lower, 0.05),
            Verdict::Improved
        );
        // Spread wider than the bound: unresolved, whatever the medians.
        let noisy = [0.8, 1.0, 1.3, 0.9, 1.2];
        assert_eq!(
            judge(&base, &noisy, Better::Lower, 0.05),
            Verdict::Unresolved
        );
        // 3 % slower with bound 5 %: unchanged.
        let slightly = base.map(|v| v * 1.03);
        assert_eq!(
            judge(&base, &slightly, Better::Lower, 0.05),
            Verdict::Unchanged
        );
    }

    fn result(wall: [f64; 3], events: u64) -> String {
        format!(
            r#"{{"host": {{"commit": "abc", "host_cores": 2, "noisy": false}}, "scale": "smoke", "seed": 1,
               "workloads": {{"p2p_chain": {{
                 "end_to_end": {{"wall_s": {{"unit": "s", "better": "lower", "bound": 0.1,
                                            "samples": [{}, {}, {}]}}}},
                 "per_layer": {{"sim.engine.events": {{"value": {events}, "unit": "count", "exact": true}},
                                "sim.engine.loop_s": {{"value": 0.5, "unit": "s", "exact": false}}}},
                 "fingerprint": {{"completion": "10"}}}}}}}}"#,
            wall[0], wall[1], wall[2]
        )
    }

    #[test]
    fn compare_passes_a_over_a_and_flags_regressions_and_count_drift() {
        let a = result([1.0, 1.01, 0.99], 100);
        assert_eq!(compare(&a, &a), Ok(true));
        assert_eq!(compare(&a, &result([1.5, 1.51, 1.49], 100)), Ok(false));
        assert_eq!(compare(&a, &result([1.0, 1.01, 0.99], 101)), Ok(false));
        assert!(compare(&a, "{}").is_err());
    }
}
