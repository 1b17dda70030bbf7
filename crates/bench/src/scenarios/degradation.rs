//! Graceful degradation under crash-stop failures: broadcast over the
//! survivors vs the analytic oracle (see `docs/FAILURE_MODEL.md`).
//!
//! For each crash set, the survivor broadcast rebuilds the §3.3 optimal
//! tree on the `k` remaining processors (re-rooting if processor 0
//! crashed) and must complete in exactly `optimal_broadcast_time` of the
//! induced `k`-processor machine — losing processors degrades the
//! collective to the smaller machine's optimum, nothing worse.
//!
//! The check asserts the oracle equality on every crash set plus the
//! crashed-root re-rooting behavior; the plain run prints the table.

use logp_algos::broadcast::run_survivor_broadcast;
use logp_algos::resilient::ResilientError;
use logp_bench::{Args, Table};
use logp_core::broadcast::optimal_broadcast_time;
use logp_core::{LogP, ProcId};
use logp_sim::{FaultPlan, SimConfig};

const CRASH_SETS: [&[ProcId]; 4] = [&[], &[5], &[3, 11], &[1, 6, 9, 14]];

fn plan_for(crashes: &[ProcId]) -> FaultPlan {
    let mut plan = FaultPlan::new(0xDE6);
    for &q in crashes {
        plan = plan.with_crash(q, 0);
    }
    plan
}

pub fn run(_: &Args) {
    degrade(false);
}

pub fn check(_: &Args) {
    degrade(true);
}

fn degrade(check: bool) {
    let m = LogP::new(12, 3, 4, 16).unwrap();

    println!("survivor broadcast vs k-machine oracle on {m}");
    let mut table = Table::new(&["crashed", "k", "completion", "oracle", "match"]);
    for crashes in CRASH_SETS {
        let run = run_survivor_broadcast(&m, &plan_for(crashes), SimConfig::default())
            .expect("at least one survivor");
        let k = m.p - crashes.len() as u32;
        let oracle = optimal_broadcast_time(&m.with_p(k));
        assert_eq!(run.arrivals.len(), k as usize);
        if check {
            assert_eq!(
                run.completion, oracle,
                "crash set {crashes:?} must degrade to the {k}-machine optimum"
            );
        }
        table.row(&[
            format!("{crashes:?}"),
            k.to_string(),
            run.completion.to_string(),
            oracle.to_string(),
            if run.completion == oracle {
                "yes"
            } else {
                "NO"
            }
            .to_string(),
        ]);
    }
    table.print();

    // Crashed root: the broadcast re-roots on the lowest survivor.
    let run = run_survivor_broadcast(&m, &plan_for(&[0]), SimConfig::default()).unwrap();
    assert!(
        run.arrivals.contains(&(1, 0)),
        "survivor 1 must take over as root"
    );
    assert_eq!(run.completion, optimal_broadcast_time(&m.with_p(m.p - 1)));
    println!(
        "crashed root: re-rooted on P1, completion {} = {}-machine optimum",
        run.completion,
        m.p - 1
    );

    // Everyone crashed: a clean error, not a hang or panic.
    let all: Vec<ProcId> = (0..m.p).collect();
    assert_eq!(
        run_survivor_broadcast(&m, &plan_for(&all), SimConfig::default()).unwrap_err(),
        ResilientError::AllCrashed
    );
    println!("all crashed: clean ResilientError::AllCrashed");

    if check {
        println!("degradation --check: OK");
    }
}
