//! Engine-level fault-injection semantics: drops, duplicates, delays,
//! crash-stops, and the retransmission timers that ride on them (see
//! `docs/FAILURE_MODEL.md`).

use logp_algos::allreduce::run_reliable_allreduce;
use logp_algos::broadcast::{run_reliable_broadcast, run_survivor_broadcast};
use logp_algos::kbroadcast::run_reliable_kbroadcast;
use logp_algos::reduce::run_reliable_sum;
use logp_algos::resilient::ResilientError;
use logp_core::broadcast::optimal_broadcast_tree;
use logp_core::LogP;
use logp_sim::critpath::critical_path;
use logp_sim::obs::UNSET;
use logp_sim::process::{Ctx, Process, StartFn};
use logp_sim::reliable::{Reliable, RetryConfig};
use logp_sim::{Cause, Data, FaultPlan, Message, MsgRecord, SharedCell, Sim, SimConfig, SimError};
use std::sync::Arc;

fn model() -> LogP {
    LogP::new(6, 2, 4, 2).unwrap()
}

/// P0 sends one word to P1; P1 counts deliveries.
struct Ping {
    got: SharedCell<Vec<u64>>,
}

impl Process for Ping {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.me() == 0 {
            ctx.send(1, 0, Data::U64(7));
        }
    }
    fn on_message(&mut self, msg: &Message, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let _ = msg;
        self.got.with(|v| v.push(now));
    }
}

fn run_ping(plan: FaultPlan, config: SimConfig) -> (Vec<u64>, logp_sim::SimResult) {
    let got: SharedCell<Vec<u64>> = SharedCell::new();
    let mut sim = Sim::new(model(), config.with_faults(plan));
    let g = got.clone();
    sim.set_all(move |_| Box::new(Ping { got: g.clone() }));
    let res = sim.run().unwrap();
    (got.get(), res)
}

#[test]
fn dropped_message_never_delivers_but_frees_capacity() {
    let plan = FaultPlan::new(1).with_drop_ppm(1_000_000);
    let (got, res) = run_ping(plan, SimConfig::default());
    assert!(got.is_empty());
    assert_eq!(res.stats.msgs_dropped, 1);
    assert_eq!(res.stats.total_msgs, 0);
    // The sender's capacity slot was released: a second run with two
    // sends back-to-back also terminates (no leaked in-flight count).
    let plan = FaultPlan::new(1).with_drop_ppm(1_000_000);
    let got: SharedCell<Vec<u64>> = SharedCell::new();
    let mut sim = Sim::new(model(), SimConfig::default().with_faults(plan));
    let g = got.clone();
    sim.set_process(
        0,
        Box::new(StartFn(|ctx: &mut Ctx<'_>| {
            for _ in 0..8 {
                ctx.send(1, 0, Data::Empty);
            }
        })),
    );
    let g2 = g;
    sim.set_process(1, Box::new(Ping { got: g2 }));
    let res = sim.run().unwrap();
    assert_eq!(res.stats.msgs_dropped, 8);
    assert!(got.get().is_empty());
}

#[test]
fn duplicated_message_delivers_twice() {
    let plan = FaultPlan::new(2).with_dup_ppm(1_000_000);
    let (got, res) = run_ping(plan, SimConfig::default());
    assert_eq!(got.len(), 2, "original + duplicate");
    assert_eq!(res.stats.msgs_duplicated, 1);
    assert_eq!(res.stats.total_msgs, 2);
    // The duplicate trails the original.
    assert!(got[1] > got[0]);
    assert_eq!(got[0], model().point_to_point());
}

#[test]
fn delayed_message_arrives_late() {
    let plan = FaultPlan::new(3).with_delay(1_000_000, 16);
    let (got, res) = run_ping(plan, SimConfig::default());
    assert_eq!(got.len(), 1);
    assert_eq!(res.stats.msgs_delayed, 1);
    let base = model().point_to_point();
    assert!(got[0] > base, "delayed past 2o+L={base}: {}", got[0]);
    assert!(got[0] <= base + 16);
}

#[test]
fn crashed_destination_drops_arrivals_without_deadlock() {
    let plan = FaultPlan::new(4).with_crash(1, 0);
    let (got, res) = run_ping(plan, SimConfig::default());
    assert!(got.is_empty());
    assert_eq!(res.stats.procs_crashed, 1);
    assert_eq!(res.stats.msgs_dropped, 1);
    assert_eq!(res.stats.total_msgs, 0);
}

#[test]
fn crash_at_arrival_cycle_beats_the_message() {
    // Crash scheduled at exactly the arrival cycle: the crash event was
    // enqueued first (lower sequence in the same class), so the message
    // finds a dead processor — deterministic crash-before-arrival.
    let t = model().point_to_point();
    let plan = FaultPlan::new(5).with_crash(1, t);
    let (got, res) = run_ping(plan, SimConfig::default());
    assert!(got.is_empty());
    assert_eq!(res.stats.msgs_dropped, 1);
}

#[test]
fn mid_run_crash_stops_a_processor() {
    // P0 streams to P1; P1 crashes mid-stream. Deliveries before the
    // crash land, the rest drop, and the run still terminates.
    let plan = FaultPlan::new(6).with_crash(1, 25);
    let got: SharedCell<Vec<u64>> = SharedCell::new();
    let mut sim = Sim::new(model(), SimConfig::default().with_faults(plan));
    let g = got.clone();
    sim.set_process(
        0,
        Box::new(StartFn(|ctx: &mut Ctx<'_>| {
            for _ in 0..10 {
                ctx.send(1, 0, Data::Empty);
            }
        })),
    );
    sim.set_process(1, Box::new(Ping { got: g }));
    let res = sim.run().unwrap();
    let got = got.get();
    assert!(!got.is_empty(), "early deliveries precede the crash");
    assert!(got.iter().all(|&t| t < 25));
    assert_eq!(got.len() as u64 + res.stats.msgs_dropped, 10);
}

#[test]
fn zero_plan_is_cycle_identical_to_no_plan() {
    // The FAULTS = true monomorphization with an all-zero plan must
    // produce the same bytes as faults: None — including under latency
    // jitter, whose RNG draws must stay aligned.
    for jitter in [0, 5] {
        let config = SimConfig::observed().with_jitter(jitter).with_seed(42);
        let (got_none, res_none) = {
            let got: SharedCell<Vec<u64>> = SharedCell::new();
            let mut sim = Sim::new(model(), config.clone());
            let g = got.clone();
            sim.set_all(move |_| Box::new(Ping { got: g.clone() }));
            (got.clone(), sim.run().unwrap())
        };
        let (got_zero, res_zero) = run_ping(FaultPlan::new(9), config);
        assert_eq!(res_none, res_zero, "jitter={jitter}");
        assert_eq!(got_none.get(), got_zero);
    }
}

// ---------------------------------------------------------------------
// Timers.
// ---------------------------------------------------------------------

struct TimerProg {
    fires: SharedCell<Vec<(u64, u64)>>,
    halt_first: bool,
}

impl Process for TimerProg {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.me() == 0 {
            ctx.timer(10, 0xAB);
            ctx.timer(3, 0xCD);
            if self.halt_first {
                ctx.halt();
            }
        }
    }
    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        self.fires.with(|v| v.push((tag, now)));
    }
}

fn run_timers(halt_first: bool, config: SimConfig) -> Vec<(u64, u64)> {
    let fires: SharedCell<Vec<(u64, u64)>> = SharedCell::new();
    let mut sim = Sim::new(model(), config);
    let f = fires.clone();
    sim.set_all(move |_| {
        Box::new(TimerProg {
            fires: f.clone(),
            halt_first,
        })
    });
    sim.run().unwrap();
    fires.get()
}

#[test]
fn timers_fire_at_their_deadline_in_order() {
    // Timers are a general engine feature: they work without any fault
    // plan (the FAULTS = false monomorphization).
    let fires = run_timers(false, SimConfig::default());
    assert_eq!(fires, vec![(0xCD, 3), (0xAB, 10)]);
    // And identically with a fault plan installed.
    let fires = {
        let f: SharedCell<Vec<(u64, u64)>> = SharedCell::new();
        let mut sim = Sim::new(model(), SimConfig::default().with_faults(FaultPlan::new(1)));
        let ff = f.clone();
        sim.set_all(move |_| {
            Box::new(TimerProg {
                fires: ff.clone(),
                halt_first: false,
            })
        });
        sim.run().unwrap();
        f.get()
    };
    assert_eq!(fires, vec![(0xCD, 3), (0xAB, 10)]);
}

#[test]
fn halt_cancels_pending_timers() {
    let fires = run_timers(true, SimConfig::default());
    assert!(fires.is_empty(), "a halted processor's timers never fire");
}

#[test]
fn crash_cancels_pending_timers() {
    let fires = {
        let f: SharedCell<Vec<(u64, u64)>> = SharedCell::new();
        let mut sim = Sim::new(
            model(),
            SimConfig::default().with_faults(FaultPlan::new(1).with_crash(0, 5)),
        );
        let ff = f.clone();
        sim.set_all(move |_| {
            Box::new(TimerProg {
                fires: ff.clone(),
                halt_first: false,
            })
        });
        sim.run().unwrap();
        f.get()
    };
    assert_eq!(fires, vec![(0xCD, 3)], "only the pre-crash fire lands");
}

#[test]
fn timer_caused_sends_appear_as_retry_edges() {
    // A send submitted from on_timer carries Cause::Retry(timer), the
    // timer is recorded, and the critical path prices the timer wait as
    // a `retry` component.
    struct SendOnTimer;
    impl Process for SendOnTimer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if ctx.me() == 0 {
                ctx.timer(10, 1);
            }
        }
        fn on_timer(&mut self, _tag: u64, ctx: &mut Ctx<'_>) {
            ctx.send(1, 0, Data::Empty);
        }
    }
    let m = model();
    let mut sim = Sim::new(m, SimConfig::default().with_msg_log(true));
    sim.set_all(|_| Box::new(SendOnTimer));
    let res = sim.run().unwrap();
    assert_eq!(res.obs.timers.len(), 1);
    let t = &res.obs.timers[0];
    assert_eq!((t.proc, t.tag, t.submit, t.fire), (0, 1, 0, 10));
    let msg = &res.obs.msgs[0];
    assert_eq!(msg.cause, Cause::Retry(0));
    let cp = critical_path(&res).unwrap();
    assert_eq!(cp.total, 10 + m.point_to_point());
    assert_eq!(cp.components.retry, 10, "the timer wait is priced as retry");
    assert_eq!(cp.components.o, 2 * m.o);
    assert_eq!(cp.components.l, m.l);
    assert_eq!(cp.components.sum(), cp.total);
}

/// A processor that crashes while it waits in a *complete* barrier must
/// not complete the quorum a second time: the classic engine used to
/// schedule a second release, which then let the next round go early
/// (releases at 10, 13, 21, 24 here). One release per quorum, on every
/// engine.
#[test]
fn crash_inside_a_complete_barrier_releases_it_once() {
    struct Rounds(u32);
    impl Process for Rounds {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.barrier();
        }
        fn on_barrier_release(&mut self, ctx: &mut Ctx<'_>) {
            self.0 -= 1;
            if self.0 > 0 {
                ctx.compute(1, 0);
                ctx.barrier();
            }
        }
    }
    for shards in [0, 2, 4] {
        let mut config = SimConfig::default()
            .with_msg_log(true)
            .with_shards(shards)
            .with_faults(FaultPlan::new(1).with_crash(1, 3));
        config.barrier_cost = 10;
        let mut sim = Sim::new(model().with_p(4), config);
        sim.set_all(|_| Box::new(Rounds(3)));
        let res = sim.run().unwrap();
        let releases: Vec<u64> = res.obs.barriers.iter().map(|b| b.release).collect();
        assert_eq!(releases, [10, 21, 32], "shards = {shards}");
        assert_eq!(res.stats.completion, 32, "shards = {shards}");
    }
}

const BURST: u64 = 12;

/// Every rank but 0 streams `BURST` words at rank 0, which counts what it
/// is handed.
struct HotSpot {
    got: SharedCell<u64>,
}

impl Process for HotSpot {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.me() != 0 {
            for i in 0..BURST {
                ctx.send(0, 0, Data::U64(i));
            }
        }
    }
    fn on_message(&mut self, _msg: &Message, _ctx: &mut Ctx<'_>) {
        self.got.with(|n| *n += 1);
    }
}

/// A message keeps one slab slot from injection to delivery, and the slot
/// frees exactly once — hardest where the destination dies holding a deep
/// inbox and a reception in progress, while drops, duplicates, delays and
/// jitter reorder what is still on its way. Debug builds check at the end
/// of `Sim::run` that the slots still in use are exactly the messages
/// chained in inboxes; every build checks that each copy put on the wire
/// was delivered or dropped, once.
#[test]
fn a_crashing_hot_spot_frees_every_slot_exactly_once() {
    const CRASH_AT: u64 = 41;
    for o in [5, 0] {
        let m = LogP::new(6, o, 4, 16).unwrap();
        // A plan seed under which the crash finds the deep inboxes the
        // assertions below ask for, on both machines and every engine.
        let plan = FaultPlan::new(5)
            .with_drop_ppm(100_000)
            .with_dup_ppm(200_000)
            .with_delay(200_000, 5)
            .with_crash(0, CRASH_AT);
        let run = |shards: u32, log: bool| {
            let got: SharedCell<u64> = SharedCell::new();
            let config = SimConfig::default()
                .with_shards(shards)
                .with_jitter(3)
                .with_msg_log(log)
                .with_faults(plan.clone());
            let mut sim = Sim::new(m, config);
            sim.set_all(|_| Box::new(HotSpot { got: got.clone() }));
            (sim.run().expect("the hot spot drains"), got.get())
        };
        let mut on_lanes = Vec::new();
        for shards in [0, 2, 8] {
            let what = format!("o = {o}, shards = {shards}");
            let (res, got) = run(shards, false);
            let (logged, _) = run(shards, true);
            assert_eq!(logged.stats, res.stats, "{what}: the log is an observer");
            let st = &res.stats;
            let sent: u64 = st.procs.iter().map(|p| p.msgs_sent).sum();
            let recvd: u64 = st.procs.iter().map(|p| p.msgs_recvd).sum();
            assert_eq!(sent, 15 * BURST, "{what}");
            assert_eq!(recvd, got, "{what}");
            assert_eq!(st.procs_crashed, 1, "{what}");
            assert_eq!(
                sent + st.msgs_duplicated,
                recvd + st.msgs_dropped,
                "{what}: a copy was lost twice, or never"
            );
            // The crash found what the test is for: a reception in
            // progress (none lasts on the `o = 0` machine), an inbox as
            // deep as it gets — capacity keeps it short on the classic
            // engine, the lanes relax the destination side — and copies
            // still on their way to the dead interface.
            let msgs = &logged.obs.msgs;
            let count = |f: fn(&&MsgRecord) -> bool| msgs.iter().filter(f).count();
            let queued = count(|r| r.arrive < CRASH_AT && r.recv_start == UNSET);
            let receiving = count(|r| r.recv_start != UNSET && r.deliver == UNSET);
            let late = count(|r| r.arrive > CRASH_AT && r.arrive != UNSET);
            assert!(queued >= if shards == 0 { 2 } else { 50 }, "{what}");
            assert_eq!(receiving, (o > 0) as usize, "{what}");
            assert!(late > 0, "{what}");
            if shards >= 2 {
                on_lanes.push(res.stats);
            }
        }
        assert_eq!(on_lanes[0], on_lanes[1], "o = {o}: 2 lanes vs 8");
    }
}

/// A reliable rank that crashes with wire sends still queued abandons
/// them, and its queue gives back every command it parked: each wire copy
/// is a `Data::Seq` (here of a shared `Data::Block`), which a packed queue
/// keeps in the engine's command slab. Debug builds check at the end of
/// `Sim::run` that the slab then holds exactly the owning commands still
/// queued — here only those of a rank that halted ahead of its own sends;
/// every build checks that the crash cut the burst short and that no copy
/// of the payload outlives the run.
#[test]
fn a_crashing_reliable_rank_releases_its_queued_wire_sends() {
    const BURST: u64 = 8;
    let m = LogP::new(6, 2, 4, 4).unwrap();
    let block = Arc::new(vec![7u64; 4]);
    let retry = Arc::new(RetryConfig::for_model(&m));
    for shards in [0, 2, 8] {
        let plan = FaultPlan::new(1).with_drop_ppm(100_000).with_crash(1, 9);
        let config = SimConfig::default().with_shards(shards).with_faults(plan);
        let mut sim = Sim::new(m, config);
        sim.set_all(|q| {
            let block = Arc::clone(&block);
            match q {
                1 => Box::new(Reliable::new(
                    StartFn(move |ctx| {
                        for i in 0..BURST {
                            ctx.send(0, 1 + i as u32, Data::Block(Arc::clone(&block)));
                        }
                    }),
                    Arc::clone(&retry),
                    SharedCell::new(),
                )),
                2 => Box::new(StartFn(move |ctx| {
                    ctx.halt();
                    ctx.send(3, 0, Data::Block(Arc::clone(&block)));
                    let inner = Box::new(Data::Block(Arc::clone(&block)));
                    ctx.send(0, 0, Data::Seq { seq: 0, inner });
                })),
                _ => Box::new(Reliable::new(
                    StartFn(|_| {}),
                    Arc::clone(&retry),
                    SharedCell::new(),
                )),
            }
        });
        let res = sim.run().expect("the survivors settle");
        let sent = res.stats.procs[1].msgs_sent;
        assert!(0 < sent && sent < BURST, "shards = {shards}: {sent} sent");
        assert_eq!(res.stats.procs_crashed, 1, "shards = {shards}");
        assert_eq!(res.stats.procs[2].msgs_sent, 0, "shards = {shards}");
        assert_eq!(Arc::strong_count(&block), 1, "shards = {shards}");
    }
}

/// A fault plan and an event budget are inputs: when the engine refuses
/// one or runs out of the other, a fallible collective says so in its
/// error — it does not panic.
#[test]
fn fallible_collectives_return_engine_errors() {
    let missing = FaultPlan::new(1).with_crash(99, 5);
    let lossy = FaultPlan::new(1).with_drop_ppm(20_000);
    let tight = SimConfig {
        max_events: 50,
        ..SimConfig::default()
    };
    // 32 processors, so that the plain broadcast outruns 50 events too.
    let cases = [
        (
            8,
            &missing,
            SimConfig::default(),
            SimError::CrashOutOfRange { proc: 99, p: 8 },
        ),
        (32, &lossy, tight, SimError::MaxEventsExceeded { limit: 50 }),
    ];
    for (p, plan, config, expect) in cases {
        let m = LogP::new(6, 2, 4, p).unwrap();
        let (retry, cfg) = (|| RetryConfig::for_model(&m), || config.clone());
        let values = vec![1.0; p as usize];
        let table: [(&str, Result<(), ResilientError>); 5] = [
            (
                "survivor broadcast",
                run_survivor_broadcast(&m, plan, cfg()).map(drop),
            ),
            (
                "reliable broadcast",
                run_reliable_broadcast(&m, plan, retry(), cfg()).map(drop),
            ),
            (
                "reliable sum",
                run_reliable_sum(&m, 64, plan, retry(), cfg()).map(drop),
            ),
            (
                "reliable all-reduce",
                run_reliable_allreduce(&m, &values, plan, retry(), cfg()).map(drop),
            ),
            (
                "reliable k-item broadcast",
                run_reliable_kbroadcast(&m, &[1, 2, 3], plan, retry(), cfg()).map(drop),
            ),
        ];
        for (what, outcome) in table {
            assert_eq!(
                outcome,
                Err(ResilientError::Engine(expect.clone())),
                "{what} under {expect}"
            );
        }
    }
}

/// With `L` far above `g` the optimal tree is flat: the root enrolls
/// 32,767 sends in one handler and then takes 32,767 acks, most of them in
/// order. No tree the other runners build fans out like this, and it is
/// where an endpoint that shifts or scans a container per ack goes
/// quadratic (a sorted vector of unacked sends ran this 11 times slower
/// than the map it replaced; the ring runs it as fast).
#[test]
fn a_flat_tree_settles_32k_sends_at_one_root() {
    let m = LogP::new(200_000, 1, 1, 1 << 15).unwrap();
    assert_eq!(optimal_broadcast_tree(&m).root_fanout() as u32, m.p - 1);
    let plan = FaultPlan::new(1).with_drop_ppm(20_000);
    let retry = || RetryConfig::for_tree(&m, m.p);
    let run =
        run_reliable_broadcast(&m, &plan, retry(), SimConfig::default()).expect("nobody crashes");
    assert_eq!(run.arrivals.len(), m.p as usize);
    assert!(run.retries > 0);
    let values: Vec<f64> = (0..m.p).map(f64::from).collect();
    let run = run_reliable_allreduce(&m, &values, &plan, retry(), SimConfig::default())
        .expect("nobody crashes");
    assert_eq!(run.value, values.iter().sum::<f64>());
    assert!(run.result.stats.msgs_dropped > 0);
}
