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
//! | optimal broadcast, classic           | 1.33, 663            | 1.16, 624         | 1.22, 673           |
//! | optimal broadcast, 8 lanes           | 1.44, 668            | 1.28, 626         | 1.35, 678           |
//! | reduce-broadcast all-reduce, classic | 2.16, 797            | 1.16, 677         | 1.22, 718           |
//! | reduce-broadcast all-reduce, 8 lanes | 2.28, 810            | 1.28, 677         | 1.35, 733           |
//!
//! (The all-reduce call builds its two trees itself, inside the count;
//! the broadcast call copies the caller's.) What went: one list buffer
//! and one boxed copy of it for every rank with children, in each of the
//! two trees. A tree is two arrays now — 8 bytes a rank, a constant number
//! of allocations whatever P is (the third test) — the ranks of a run
//! share the down tree, and a rank's program is 40 bytes. What a rank
//! still allocates for is its boxed program, and command bytes if it
//! queues a second send: 17 a send of a word under a tag, and 16 spare.
//! A send queued there was a 32-byte command; packing took 6–49 bytes a
//! processor off every row of these tables, and every bytes bound by as
//! much.
//!
//! The recursive-doubling all-reduce, the one collective `sweep_small`
//! runs that the table above leaves out; "before" is the program that
//! kept the messages ahead of its round in a per-rank `HashMap` and
//! pushed its final to a list grown by doubling:
//!
//! | call, engine                            | before: calls, bytes | now: calls, bytes | bound: calls, bytes |
//! |-----------------------------------------|----------------------|-------------------|---------------------|
//! | recursive-doubling all-reduce, classic  | 3.00, 812            | 3.00, 723         | 3.15, 759           |
//! | recursive-doubling all-reduce, 8 lanes  | 3.02, 798            | 3.02, 709         | 3.17, 744           |
//!
//! A rank allocates its boxed step program, a buffer for the messages
//! that arrive ahead of their step (16 bytes each), and command bytes:
//! it queues the next round's send behind each combine (17 + 25 bytes,
//! and 16 spare). Bytes here are
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
//! | reliable broadcast, classic               | 4.52, 1,572          | 3.56, 1,214       | 3.74, 1,282         |
//! | reliable broadcast, 8 lanes               | 4.72, 1,554          | 3.76, 1,359       | 3.95, 1,407         |
//! | reliable all-reduce, classic              | 8.73, 2,182          | 7.10, 1,664       | 7.47, 1,741         |
//! | reliable all-reduce, 8 lanes              | 8.98, 1,934          | 7.35, 1,692       | 7.74, 1,766         |
//! | reliable all-reduce, zero rates, classic  | 8.45, 1,443          | 6.70, 1,278       | 7.05, 1,341         |
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
//! A wire copy or an ack queued behind a first command is parked whole
//! in the engine's command slab, 5 bytes in the queue; the slab's
//! growth is the 23 calls the reliable broadcast gained.
//!
//! Marked sizes — blocks only a per-processor container used to allocate,
//! once a processor: 104 bytes (a `BTreeSet<u64>` leaf) reads 0; 256 (the
//! inbox heap's first buffer) reads 1–4; 320 (the leaf of the per-source
//! map) is also a reliable rank's ring of eight 40-byte slots: 133 blocks
//! at P = 2^14, 0.8 % of the ranks, which the bound of P / 100 leaves
//! room for. (Before the queue packed its commands, a rank with exactly 8
//! or 10 children allocated 8 × 32 or 10 × 32 bytes: 134 and 90 blocks
//! more.) A container back in every processor would read P.
//!
//! What the online aggregate adds, over a null sink, on one staggered
//! all-to-all round of `LogP(6,2,4,P)`; "before" is the aggregate that
//! kept each processor's spans back to its oldest open wait window:
//!
//! | round, P  | before: bytes | now: bytes | bound: bytes                  |
//! |-----------|---------------|------------|-------------------------------|
//! | P = 128   | 20,888        | 672        | 740                           |
//! | P = 512   | 82,328        | 672        | 740, within 10 % of P = 128   |
//!
//! A queued send, by itself; what a calendar still holds after a big
//! batch; and what a Perfetto sink keeps for processor ids up to
//! `u32::MAX`: the last three tests.

use logp::algos::allreduce::{
    run_allreduce_doubling, run_allreduce_reduce_bcast, run_reliable_allreduce,
};
use logp::algos::broadcast::{run_reliable_broadcast, run_tree_broadcast};
use logp::core::broadcast::optimal_broadcast_tree;
use logp::core::LogP;
use logp::sim::engine::calendar::Calendar;
use logp::sim::process::StartFn;
use logp::sim::{
    Activity, Data, FaultPlan, ObsSink, PerfettoSink, RetryConfig, Sim, SimConfig, SimError,
    SinkSpec, Span,
};

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
        (bcast, &classic, 1.22, 673.0),
        (bcast, &lanes, 1.35, 678.0),
        (allred, &classic, 1.22, 718.0),
        (allred, &lanes, 1.35, 733.0),
        (dbl, &classic, 3.15, 759.0),
        (dbl, &lanes, 3.17, 744.0),
        (rel_bcast, &classic, 3.74, 1_282.0),
        (rel_bcast, &lanes, 3.95, 1_407.0),
        (rel_allred, &classic, 7.47, 1_741.0),
        (rel_allred, &lanes, 7.74, 1_766.0),
        (zero_allred, &classic, 7.05, 1_341.0),
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
    assert!(small <= 740.0 && big <= 740.0, "{small}, {big}");
    assert!(big <= 1.1 * small, "{small} at P = 128, {big} at P = 512");
}

/// What a file sink holds on the engine thread: the peak live bytes of a
/// staggered all-to-all round at P = 128 through a JSONL sink — 48,768
/// records, 2.5 MB packed, 38 batches — less the same run's through a
/// null sink (the same record pipeline, nothing written). The engine
/// thread packs records into 64 KiB batches and hands them to the sink's
/// writer thread over a channel four deep, which hands them back
/// emptied: no more than 4 + 2 batches ever exist (one being filled,
/// four queued, one being written), whatever the run's length. The
/// writer thread and its two channels take 1.7 KiB more; the bound
/// allows 4 KiB for them. Measured: all six batches in a debug build
/// (+394,933 bytes), three in a release one, where the writer keeps up.
/// (The JSONL sink's own 64 KiB line buffer lives on the writer thread.)
#[test]
fn a_file_sink_holds_at_most_its_batches_on_the_engine_thread() {
    const P: u32 = 128;
    const BOUND: i64 = (4 + 2) * (64 << 10) + (4 << 10);
    let peak = |config: SimConfig| {
        let (res, a) = counting::allocs(|| {
            let mut sim = Sim::new(LogP::new(6, 2, 4, P).expect("valid model"), config);
            sim.set_all(|_| {
                Box::new(StartFn(|ctx| {
                    for k in 1..ctx.procs() {
                        ctx.send((ctx.me() + k) % ctx.procs(), 0, Data::Empty);
                    }
                }))
            });
            sim.run().expect("the round completes")
        });
        assert_eq!(res.stats.total_msgs, u64::from(P) * u64::from(P - 1));
        a.peak
    };
    let path = std::env::temp_dir().join(format!("logp_alloc_{}.jsonl", std::process::id()));
    let null = peak(SimConfig::default().with_sink(SinkSpec::Null));
    let jsonl = peak(SimConfig::default().with_sink(SinkSpec::Jsonl(path.clone())));
    let bytes = std::fs::read(&path).expect("the sink wrote its file").len();
    let _ = std::fs::remove_file(&path);
    println!(
        "peak live bytes: null sink {null}, JSONL {jsonl} (+{}), {bytes} bytes written",
        jsonl - null
    );
    assert!(bytes > 64 * (64 << 10), "{bytes} bytes written");
    assert!(jsonl - null <= BOUND, "{null} vs {jsonl}");
}

/// What a message costs while it waits in its sender's queue: a remap
/// whose `on_start` queues a send to every other processor (the paper's
/// §4.1 all-to-all, `p2p_dense`'s shape) allocates the 9 bytes a send
/// of one word under tag 0 to the processor after the last one's packs
/// into, and next to nothing else, per send: 11.45 measured, the other
/// 2.45 being the whole machine (`Sim::new`, the classic engine's arrays,
/// each processor's first injection), each queue's 16 spare bytes (4 of
/// them its last destination), and the byte or two of step of its first
/// send and of the one that wraps from P − 1 to 0, spread over 255 sends
/// a processor. With no payload a send is its header byte: 3.45 measured.
/// The run is cut at its first event, so the traffic that follows is not
/// in the count. With the record pipeline on (a null sink) the commands
/// of one handler invocation share one run-queue entry, so a send costs
/// what it does without the pipeline plus the pipeline's own state,
/// spread the same way: 15.42 measured — 1.62 for the in-flight record
/// slab, 2.01 for each processor's first run-queue buffer (four 128-byte
/// entries), 0.34 for the per-processor arrays. Bounds: the measured
/// values and 10 %. A queued send was a 32-byte command before the queue
/// packed them (34.37 and 38.34 measured), and 13 bytes while it packed
/// its destination whole (15.43 and 19.40); one `(cause, submit)` entry
/// per queued command cost 24 bytes more.
#[test]
fn a_queued_send_costs_its_fields() {
    const P: u32 = 256;
    let sends = u64::from(P) * u64::from(P - 1);
    let cut = SimConfig {
        max_events: 0,
        ..SimConfig::default()
    };
    for (what, word, config, bound) in [
        ("unobserved", true, cut.clone(), 12.6),
        (
            "null sink",
            true,
            cut.clone().with_sink(SinkSpec::Null),
            17.0,
        ),
        ("no payload", false, cut, 3.8),
    ] {
        let a = allocs(|| {
            let mut sim = Sim::new(machine(P), config);
            sim.set_all(|_| {
                Box::new(StartFn(move |ctx| {
                    for k in 1..ctx.procs() {
                        let dst = (ctx.me() + k) % ctx.procs();
                        let data = if word {
                            Data::U64(u64::from(k))
                        } else {
                            Data::Empty
                        };
                        ctx.send(dst, 0, data);
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

/// A Perfetto sink names each processor once, and what it keeps for that
/// grows with the processors named, not with the largest id: spans on six
/// processors, the largest `u32::MAX`, stay within 64 KiB. The sink that
/// kept a flag for every id up to the largest held 64 MiB for one span on
/// processor 2^26.
#[test]
fn a_perfetto_sink_keeps_only_the_processors_it_named() {
    const IDS: [u32; 6] = [0, 1, 2, 1 << 26, u32::MAX - 1, u32::MAX];
    let (json, a) = counting::allocs(|| {
        let mut json = Vec::new();
        let mut sink = PerfettoSink::new(&mut json);
        for round in 0..3 {
            for proc in IDS {
                let start = 10 * round;
                let activity = Activity::Compute;
                sink.on_span(&Span {
                    proc,
                    start,
                    end: start + 5,
                    activity,
                });
            }
        }
        sink.finish().expect("writes to memory");
        drop(sink);
        json
    });
    println!("a Perfetto sink over {} processors: {a:?}", IDS.len());
    let json = String::from_utf8(json).expect("JSON is UTF-8");
    assert_eq!(json.matches("\"thread_name\"").count(), IDS.len());
    assert!(json.contains(&format!("\"tid\":{}", u32::MAX)));
    assert!(a.peak <= 64 << 10, "{} bytes held at once", a.peak);
}
