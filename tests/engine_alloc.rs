//! What a processor costs the engine, and the reliable-delivery layer over
//! it, pinned as heap allocations — calls and bytes, counts that cannot
//! flake the way a resident-set size does.
//!
//! Allocated per processor by one collective call, `Sim::new` to the
//! returned run, at P = 2^14 on `LogP(L=60, o=4, g=8)`; "parent" is the
//! library whose trees were child lists (a `Vec` a rank, cloned into a
//! `Box<[ProcId]>` in each rank's 56-byte program) built by a priority
//! queue:
//!
//! | call, engine                         | parent: calls, bytes | now: calls, bytes | bound: calls, bytes |
//! |--------------------------------------|----------------------|-------------------|---------------------|
//! | optimal broadcast, classic           | 1.33, 663            | 1.16, 636         | 1.22, 685           |
//! | optimal broadcast, 8 lanes           | 1.44, 668            | 1.28, 638         | 1.35, 690           |
//! | reduce-broadcast all-reduce, classic | 2.16, 797            | 1.16, 689         | 1.22, 730           |
//! | reduce-broadcast all-reduce, 8 lanes | 2.28, 810            | 1.28, 690         | 1.35, 745           |
//!
//! (The all-reduce call builds its two trees itself, inside the count;
//! the broadcast call copies the caller's.) What went: one list buffer
//! and one boxed copy of it for every rank with children, in each of the
//! two trees. A tree is two arrays now — 8 bytes a rank, a constant number
//! of allocations whatever P is (the third test) — the ranks of a run
//! share the down tree, and a rank's program is 40 bytes. What a rank
//! still allocates for is its boxed program, and a command buffer if it
//! queues a second send.
//!
//! The recursive-doubling all-reduce, the one collective `sweep_small`
//! runs that the table above leaves out; "before" is the program that
//! kept the messages ahead of its round in a per-rank `HashMap` and
//! pushed its final to a list grown by doubling:
//!
//! | call, engine                            | before: calls, bytes | now: calls, bytes | bound: calls, bytes |
//! |-----------------------------------------|----------------------|-------------------|---------------------|
//! | recursive-doubling all-reduce, classic  | 3.00, 812            | 3.00, 729         | 3.15, 765           |
//! | recursive-doubling all-reduce, 8 lanes  | 3.02, 798            | 3.02, 715         | 3.17, 750           |
//!
//! A rank allocates its boxed step program, a buffer for the messages
//! that arrive ahead of their step (16 bytes each), and a command buffer:
//! it queues the next round's send behind each combine. Bytes here are
//! bytes requested, so a calendar bucket that regrows for a big batch
//! counts again; the calendar's few pooled big buffers (its "Memory
//! rule") are what keep that rare.
//!
//! The same collectives made reliable (`Reliable<TreeProc>` on every
//! rank) over the `hier_faulted` workload's network — 2 % dropped, 1 %
//! duplicated, 2 % delayed — with its retry policy, on survivor trees
//! that are the same two arrays, and the all-reduce once more under a
//! plan whose rates are all zero; "parent" is the endpoint that kept its
//! own copy of the policy, a ring buffer, a table and its counters, over
//! a calendar whose pooled buckets each kept the largest batch they held:
//!
//! | call, engine                              | parent: calls, bytes | now: calls, bytes | bound: calls, bytes |
//! |-------------------------------------------|----------------------|-------------------|---------------------|
//! | reliable broadcast, classic               | 4.52, 1,572          | 3.55, 1,221       | 3.74, 1,290         |
//! | reliable broadcast, 8 lanes               | 4.72, 1,554          | 3.76, 1,367       | 3.95, 1,415         |
//! | reliable all-reduce, classic              | 8.73, 2,182          | 7.11, 1,714       | 7.47, 1,790         |
//! | reliable all-reduce, 8 lanes              | 8.98, 1,934          | 7.37, 1,741       | 7.74, 1,815         |
//! | reliable all-reduce, zero rates, classic  | 8.45, 1,443          | 6.71, 1,327       | 7.05, 1,390         |
//!
//! A reliable rank is one 152-byte box (a 160-byte allocator chunk; it
//! was 216 bytes and two more chunks): it shares its run's policy, holds
//! its first unacked send and its first two delivered `(src, seq)` in
//! place, and keeps counters only once something goes wrong. Only a
//! second unacked send takes a ring of 40-byte slots, given back when
//! they are all acked, and only a third peer a table. The calendars stop
//! keeping a big buffer for every bucket that once held a big batch.
//! The fault layer counts the attempts of a sender's first four sequenced
//! messages in its own 64-byte row and only the rest in a table; under
//! zero rates it counts nothing and allocates neither (the third test).
//!
//! Marked sizes — blocks only a per-processor container used to allocate,
//! once a processor: 104 bytes (a `BTreeSet<u64>` leaf) reads 4; 256 (the
//! inbox heap's first buffer) and 320 (the leaf of the per-source map)
//! are now also what a rank with exactly 8 or 10 children allocates for
//! its commands, 8 × 32 and 10 × 32: 134–141 and 90–133 blocks at
//! P = 2^14, 0.9 % of the ranks at most, which the bound of P / 100
//! leaves room for. A container back in every processor would read P.
//!
//! What the online aggregate adds, over a null sink, on one staggered
//! all-to-all round of `LogP(6,2,4,P)`; "before" is the aggregate that
//! kept each processor's spans back to its oldest open wait window:
//!
//! | round, P  | before: bytes | now: bytes | bound: bytes                  |
//! |-----------|---------------|------------|-------------------------------|
//! | P = 128   | 20,888        | 1,120      | 2,048                         |
//! | P = 512   | 82,328        | 1,120      | 2,048, within 10 % of P = 128 |
//!
//! A queued send, by itself; and what a calendar still holds after a big
//! batch: the last two tests.

use logp::algos::allreduce::{
    run_allreduce_doubling, run_allreduce_reduce_bcast, run_reliable_allreduce,
};
use logp::algos::broadcast::{run_reliable_broadcast, run_tree_broadcast};
use logp::core::broadcast::optimal_broadcast_tree;
use logp::core::LogP;
use logp::sim::engine::calendar::Calendar;
use logp::sim::process::StartFn;
use logp::sim::{Data, FaultPlan, RetryConfig, Sim, SimConfig, SimError, SinkSpec};

#[path = "common/counting.rs"]
mod counting;
use counting::Allocs;

#[global_allocator]
static GLOBAL: counting::Counting = counting::Counting;

/// Block sizes that only a per-processor container allocated: a
/// `BTreeSet<u64>` leaf, the inbox `BinaryHeap`'s first buffer, a
/// `BTreeMap<ProcId, BTreeSet<u64>>` leaf.
const MARKED: [usize; 3] = [104, 256, 320];

/// What `f` allocates on this thread, [`MARKED`] sizes counted apart.
fn allocs(f: impl FnOnce()) -> Allocs {
    counting::mark(MARKED);
    counting::allocs(f).1
}

fn machine(p: u32) -> LogP {
    LogP::new(60, 4, 8, p).expect("valid model")
}

/// The classic engine and the eight lanes `coll_512k` runs on.
fn engines() -> [(&'static str, SimConfig); 2] {
    [
        ("classic", SimConfig::default()),
        ("8 lanes", SimConfig::default().with_shards(8)),
    ]
}

fn broadcast(m: &LogP, config: SimConfig) -> Allocs {
    let children = optimal_broadcast_tree(m).children();
    allocs(|| {
        let run = run_tree_broadcast(m, &children, config);
        assert_eq!(run.messages, u64::from(m.p) - 1);
    })
}

fn allreduce(m: &LogP, config: SimConfig) -> Allocs {
    let values = vec![1.0; m.p as usize];
    allocs(|| {
        let run = run_allreduce_reduce_bcast(m, &values, config);
        assert_eq!(run.value, f64::from(m.p));
    })
}

fn doubling(m: &LogP, config: SimConfig) -> Allocs {
    let values = vec![1.0; m.p as usize];
    allocs(|| {
        let run = run_allreduce_doubling(m, &values, config);
        assert_eq!(run.value, f64::from(m.p));
    })
}

/// The `hier_faulted` workload's network — 2 % dropped, 1 % duplicated,
/// 2 % delayed by up to 2L — and its retry policy.
fn lossy(m: &LogP) -> (FaultPlan, RetryConfig) {
    let plan = FaultPlan::new(1)
        .with_drop_ppm(20_000)
        .with_dup_ppm(10_000)
        .with_delay(20_000, 2 * m.l);
    (plan, RetryConfig::for_tree(m, 64).with_max_retries(16))
}

fn reliable_broadcast(m: &LogP, config: SimConfig) -> Allocs {
    let (plan, retry) = lossy(m);
    allocs(|| {
        let run = run_reliable_broadcast(m, &plan, retry, config).expect("nobody crashes");
        assert_eq!(run.arrivals.len(), m.p as usize);
        assert!(run.retries > 0);
    })
}

fn reliable_allreduce_under(plan: &FaultPlan, m: &LogP, config: SimConfig) -> Allocs {
    let (_, retry) = lossy(m);
    let values = vec![1.0; m.p as usize];
    allocs(|| {
        let run = run_reliable_allreduce(m, &values, plan, retry, config).expect("nobody crashes");
        assert_eq!(run.value, f64::from(m.p));
    })
}

fn reliable_allreduce(m: &LogP, config: SimConfig) -> Allocs {
    reliable_allreduce_under(&lossy(m).0, m, config)
}

/// The reliable all-reduce under a plan whose rates are all zero.
fn zero_rate_allreduce(m: &LogP, config: SimConfig) -> Allocs {
    reliable_allreduce_under(&FaultPlan::new(1), m, config)
}

/// One of the six collective calls, counted.
type Call = fn(&LogP, SimConfig) -> Allocs;

const CALLS: [(&str, Call); 6] = [
    ("broadcast", broadcast),
    ("all-reduce", allreduce),
    ("doubling all-reduce", doubling),
    ("reliable broadcast", reliable_broadcast),
    ("reliable all-reduce", reliable_allreduce),
    ("reliable all-reduce, zero rates", zero_rate_allreduce),
];

#[test]
fn a_processor_costs_a_bounded_number_of_bytes_and_calls() {
    let m = machine(1 << 14);
    let p = f64::from(m.p);
    let [classic, lanes] = engines();
    // The header table's rows, with its bound column.
    let [bcast, allred, dbl, rel_bcast, rel_allred, zero_allred] = CALLS;
    let rows = [
        (bcast, &classic, 1.22, 685.0),
        (bcast, &lanes, 1.35, 690.0),
        (allred, &classic, 1.22, 730.0),
        (allred, &lanes, 1.35, 745.0),
        (dbl, &classic, 3.15, 765.0),
        (dbl, &lanes, 3.17, 750.0),
        (rel_bcast, &classic, 3.74, 1_290.0),
        (rel_bcast, &lanes, 3.95, 1_415.0),
        (rel_allred, &classic, 7.47, 1_790.0),
        (rel_allred, &lanes, 7.74, 1_815.0),
        (zero_allred, &classic, 7.05, 1_390.0),
    ];
    for ((call, run), (engine, config), max_calls, max_bytes) in rows {
        let a = run(&m, config.clone());
        let (calls, bytes) = (a.calls as f64 / p, a.bytes as f64 / p);
        println!(
            "{call}, {engine}: {calls:.2} calls, {bytes:.0} bytes a processor, {:?} of {MARKED:?} bytes",
            a.of
        );
        assert!(calls <= max_calls, "{call}, {engine}: {calls} calls");
        assert!(bytes <= max_bytes, "{call}, {engine}: {bytes} bytes");
        // No inbox buffer and no tree node: nothing of a marked size once
        // per processor (the header says what still has one).
        for (of, size) in a.of.into_iter().zip(MARKED) {
            assert!(
                of * 100 <= u64::from(m.p),
                "{call}, {engine}: {of} allocations of {size} bytes"
            );
        }
    }
}

#[test]
fn the_2p_th_processor_costs_what_the_p_th_did() {
    let (small, big) = (machine(1 << 13), machine(1 << 14));
    for (engine, config) in engines() {
        for (call, run) in CALLS {
            let (a, b) = (run(&small, config.clone()), run(&big, config.clone()));
            println!(
                "{call}, {engine}: calls x {:.3}, bytes x {:.3}",
                b.calls as f64 / a.calls as f64,
                b.bytes as f64 / a.bytes as f64
            );
            assert!(
                b.calls as f64 <= 2.1 * a.calls as f64 && b.bytes as f64 <= 2.1 * a.bytes as f64,
                "{call}, {engine}: {b:?} at 2P, {a:?} at P"
            );
        }
    }
}

/// A plan whose rates are all zero decides the identity whatever the
/// attempt, so the fault layer counts no attempts under it. Its twin — a
/// delay rate with no delay to draw — decides the identity too, the same
/// run cycle for cycle, but counts attempts: one block of a 64-byte row a
/// processor, and a table for the identities that spill from the rows of
/// the wide ranks.
#[test]
fn a_zero_rate_plan_allocates_no_identity_state() {
    let m = machine(1 << 14);
    let rows = 64 * m.p as usize;
    let (_, retry) = lossy(&m);
    let values = vec![1.0; m.p as usize];
    let run = |plan: FaultPlan| {
        counting::mark([rows, 0, 0]);
        counting::allocs(|| {
            run_reliable_allreduce(&m, &values, &plan, retry.clone(), SimConfig::default())
                .expect("nobody crashes")
                .result
                .stats
        })
    };
    let (zero, zero_allocs) = run(FaultPlan::new(1));
    let (twin, twin_allocs) = run(FaultPlan::new(1).with_delay(1_000_000, 0));
    println!("zero rates: {zero_allocs:?}; the twin that counts: {twin_allocs:?}");
    assert_eq!(zero, twin, "the twin is the same run");
    assert_eq!(twin_allocs.of[0], zero_allocs.of[0] + 1, "one row block");
    assert!(
        twin_allocs.calls >= zero_allocs.calls + 2,
        "the rows and the spill table"
    );
}

/// A tree is a constant number of blocks: the builder's three arrays and
/// the tree's two, 32 bytes a processor in all, at any P.
#[test]
fn a_tree_is_five_allocations_at_any_size() {
    let build = |p| {
        let m = machine(p);
        let a = allocs(|| {
            let built = optimal_broadcast_tree(&m);
            assert_eq!(built.children().len(), p as usize);
        });
        println!("optimal tree and its children, P = {p}: {a:?}");
        (a.calls, a.bytes as f64 / f64::from(p))
    };
    let (small, big) = (build(1 << 13), build(1 << 14));
    assert_eq!(small.0, 5);
    assert_eq!(big.0, 5);
    assert!(small.1 <= 32.01 && big.1 <= 32.01, "{small:?}, {big:?}");
}

/// What the online aggregate costs a processor: bytes allocated by one
/// staggered all-to-all round on `LogP(6,2,4,P)` with `with_aggregate`,
/// less the same run with a null sink (the same record pipeline, no
/// aggregate). Window starts travel with the windows, so a processor's
/// span buffer holds a handful of spans however many sends it queued.
#[test]
fn the_online_aggregate_costs_a_processor_what_it_costs_at_any_p() {
    let per_proc = |p: u32| {
        let run = |config: SimConfig| {
            allocs(|| {
                let mut sim = Sim::new(LogP::new(6, 2, 4, p).expect("valid model"), config);
                sim.set_all(|_| {
                    Box::new(StartFn(|ctx| {
                        for k in 1..ctx.procs() {
                            ctx.send((ctx.me() + k) % ctx.procs(), 0, Data::Empty);
                        }
                    }))
                });
                let res = sim.run().expect("the round completes");
                assert_eq!(res.stats.total_msgs, u64::from(p) * u64::from(p - 1));
            })
            .bytes
        };
        let null = run(SimConfig::default().with_sink(SinkSpec::Null));
        let agg = run(SimConfig::default().with_aggregate(true));
        agg.saturating_sub(null) as f64 / f64::from(p)
    };
    let (small, big) = (per_proc(128), per_proc(512));
    println!("online aggregate: {small:.0} bytes a processor at P = 128, {big:.0} at P = 512");
    assert!(small <= 2_048.0 && big <= 2_048.0, "{small}, {big}");
    assert!(big <= 1.1 * small, "{small} at P = 128, {big} at P = 512");
}

/// What a message costs while it waits in its sender's queue: a remap
/// whose `on_start` queues a send to every other processor (the paper's
/// §4.1 all-to-all, `p2p_dense`'s shape) allocates the 32 bytes a queued
/// command is, and next to nothing else, per send: 34.37 measured, the
/// other 2.37 being the whole machine (`Sim::new`, the classic engine's
/// arrays, each processor's first injection) spread over 255 sends a
/// processor. The run is cut at its first event, so the traffic that
/// follows is not in the count. With the record pipeline on (a null
/// sink) the commands of one handler invocation share one run-queue
/// entry, so a send costs what it does without the pipeline plus the
/// pipeline's own state, spread the same way: 38.34 measured — 1.62 for
/// the in-flight record slab, 2.01 for each processor's first run-queue
/// buffer (four 128-byte entries), 0.34 for the per-processor arrays.
/// One `(cause, submit)` entry per queued command cost 24 bytes more.
#[test]
fn a_queued_send_costs_its_32_bytes() {
    const P: u32 = 256;
    let sends = u64::from(P) * u64::from(P - 1);
    let cut = SimConfig {
        max_events: 0,
        ..SimConfig::default()
    };
    for (what, config, bound) in [
        ("unobserved", cut.clone(), 35.0),
        ("null sink", cut.with_sink(SinkSpec::Null), 39.0),
    ] {
        let a = allocs(|| {
            let mut sim = Sim::new(machine(P), config);
            sim.set_all(|_| {
                Box::new(StartFn(|ctx| {
                    for k in 1..ctx.procs() {
                        let dst = (ctx.me() + k) % ctx.procs();
                        ctx.send(dst, 0, Data::U64(u64::from(k)));
                    }
                }))
            });
            let end = sim.run().expect_err("no event fits the budget");
            assert_eq!(end, SimError::MaxEventsExceeded { limit: 0 });
        });
        let per_send = a.bytes as f64 / sends as f64;
        println!("all-to-all on_start, P = {P}, {what}: {per_send:.2} bytes a send issued");
        assert!(per_send <= bound, "{what}: {per_send} bytes a send issued");
    }
}

/// A calendar keeps only the bucket storage its traffic needs. One
/// same-cycle batch of 16,384 events, then 1,000 cycles of one event each
/// — eight queued ahead, so each opens a bucket of the ring — leave it
/// holding its ring, its heap and a few small buffers. The batch's
/// 16k-entry buffer (256 KiB) is freed once 256 batches have opened
/// without it; the pool that handed every drained buffer to the next
/// empty slot passed it from bucket to bucket for good.
#[test]
fn a_calendar_keeps_no_storage_its_traffic_stopped_using() {
    const BATCH: u64 = 1 << 14;
    let (cal, a) = counting::allocs(|| {
        let mut cal: Calendar<u64> = Calendar::new(64, 16);
        for k in 0..BATCH {
            cal.push(1, k, k);
        }
        for t in 2..10 {
            cal.push(t, 0, t);
        }
        for _ in 0..BATCH {
            assert_eq!(cal.pop::<true>(u64::MAX).map(|e| e.0), Some(1));
        }
        for t in 10..1_010 {
            assert_eq!(cal.pop::<true>(u64::MAX).map(|e| e.0), Some(t - 8));
            cal.push(t, 0, t);
        }
        cal
    });
    println!("a calendar after a 16k batch and 1,000 one-event cycles: {a:?}");
    assert!(a.live <= 8 << 10, "{} bytes held", a.live);
    drop(cal);
}
