//! Golden fingerprints: per (scale, workload, seed) the *simulated*
//! projection of a run — completion cycles, delivered/dropped messages,
//! hashes of per-processor `ProcStats` and node times, JSONL record
//! counts. Never raw event counts, which differ across engines by design.
//! A later change that claims "same behaviour" must reproduce these; seeds
//! without an entry run only the self-consistent checks.

use crate::job::{Report, Scale};
use crate::json::Json;

/// Compiled in, so a run never depends on where it was started from.
const GOLDEN: &str = include_str!("../golden.json");

pub const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden.json");

fn key(workload: &str, seed: u64) -> String {
    format!("{workload}@{seed}")
}

/// `Some(matches)` when a fingerprint is recorded for this job.
pub fn verdict(report: &Report) -> Option<bool> {
    verdict_in(
        &Json::parse(GOLDEN).expect("golden.json is valid JSON"),
        report,
    )
}

fn verdict_in(golden: &Json, report: &Report) -> Option<bool> {
    let want = golden
        .get(report.scale.as_str())?
        .get(&key(&report.workload, report.seed))?;
    Some(want.entries() == report.fingerprint.as_slice())
}

/// Merge the reports' fingerprints into the golden file's text.
pub fn bless(existing: &str, scale: Scale, reports: &[Report]) -> Result<String, String> {
    let old = Json::parse(existing)?;
    let mut root = Json::obj();
    let mut scales: Vec<(String, Json)> = old.entries().to_vec();
    if !scales.iter().any(|(k, _)| k == scale.as_str()) {
        scales.push((scale.as_str().to_string(), Json::obj()));
    }
    for (name, entries) in scales {
        let mut kept: Vec<(String, Json)> = entries.entries().to_vec();
        if name == scale.as_str() {
            for r in reports {
                let k = key(&r.workload, r.seed);
                kept.retain(|(old_key, _)| *old_key != k);
                kept.push((k, Json::Obj(r.fingerprint.clone())));
            }
            kept.sort_by(|a, b| a.0.cmp(&b.0));
        }
        root.put(&name, Json::Obj(kept));
    }
    Ok(root.to_pretty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(seed: u64, completion: &str) -> Report {
        Report {
            workload: "p2p_chain".into(),
            seed,
            scale: Scale::Smoke,
            gen_ns: 0,
            run_ns: 1,
            loop_ns: 1,
            msgs: 1,
            rss_kb: 1,
            checks_attempted: 0,
            failures: vec![],
            fingerprint: vec![("completion".into(), Json::from(completion))],
            layers: vec![],
        }
    }

    #[test]
    fn bless_then_verdict_round_trips_and_detects_mismatch() {
        let a = report(1, "4000010");
        let text = bless("{}", Scale::Smoke, std::slice::from_ref(&a)).unwrap();
        let golden = Json::parse(&text).unwrap();
        assert_eq!(verdict_in(&golden, &a), Some(true));
        assert_eq!(verdict_in(&golden, &report(1, "4000011")), Some(false));
        // No entry for seed 3: only the self-consistent checks apply.
        assert_eq!(verdict_in(&golden, &report(3, "4000010")), None);
        // Re-blessing replaces, never duplicates; other scales survive.
        let b = report(1, "77");
        let text2 = bless(&text, Scale::Smoke, std::slice::from_ref(&b)).unwrap();
        let text3 = bless(&text2, Scale::Std, std::slice::from_ref(&a)).unwrap();
        let golden = Json::parse(&text3).unwrap();
        assert_eq!(golden.get("smoke").unwrap().entries().len(), 1);
        assert_eq!(verdict_in(&golden, &b), Some(true));
    }

    #[test]
    fn the_committed_golden_file_parses() {
        assert!(Json::parse(GOLDEN).is_ok());
    }
}
