//! The engine's event queue, and proof that swapping it changed nothing.
//!
//! * **Identity corpus.** `tests/data/engine_identity.txt` holds, for 420
//!   seeded classic-engine configurations, one hash over the whole
//!   `SimResult` (stats including `events`, every span, the lifecycle log,
//!   metrics with gauge series, the online aggregate). Rows 0–359 are the
//!   engine as it was at the commit *before* the classic loop moved from
//!   its 4-ary heap onto the calendar queue (PR 14); rows 360–419 (machines
//!   with `o > g`, where a bulk send's `send_gate` differs from a small
//!   send's) were recorded at the parent of PR 15, before the engine's
//!   twin send arms were folded. The engine must reproduce every line:
//!   same pop order, same event count, same everything. One row was
//!   re-recorded since, for a declared change of behaviour: row 239
//!   (`chatter gauges f3`) read `err … deadlocked …` because the classic
//!   engine released a barrier twice when a processor crashed while
//!   waiting in a complete one (`tests/engine_faults.rs`,
//!   `crash_inside_a_complete_barrier_releases_it_once`); with one release
//!   per quorum the run completes, as it always did on the lanes.
//! * **Lane corpus.** `tests/data/lane_identity.txt` holds the same
//!   configurations on the lane engine — `shards ∈ {2, 8}`, gauge rows
//!   left out (they run on the classic engine) — recorded at the parent
//!   of PR 15 as well, so the lanes are pinned to a commit, not only to
//!   each other.
//! * **The queue against a model.** 10,400 seeded push/pop streams through
//!   `Calendar`, driven both the classic way and the lane-engine way,
//!   popped side by side with a `BinaryHeap`.
//! * **The two in-place containers against the `VecDeque`s they replaced**
//!   (`engine::inline`): a source's release ring over 2,000 seeded scripts
//!   of jittered pushes and expiries; a command queue — its first command
//!   in place, the rest packed into bytes, owning ones parked in a slab —
//!   over 2,000 scripts of handler batches of every command and payload
//!   variant (floats bit for bit, NaNs, zeros and infinities among them;
//!   the largest ids, tags and cycles; destinations a step from the send
//!   before of every packed form), front reads, pops, skips and crashes, a
//!   crash releasing every payload it held, and one script across a
//!   compaction, a growth and a drain — and a processor that issues one
//!   command at a time never allocates.
//! * **Zero-duration and overflow corners**, as explicit cases.

use logp::algos::broadcast::run_reliable_broadcast;
use logp::algos::resilient::ResilientError;
use logp::core::hier::{Hierarchy, Level};
use logp::core::rng::{mix, CounterRng};
use logp::core::{LogP, ProcId};
use logp::sim::engine::calendar::Calendar;
use logp::sim::engine::inline::{CmdQueue, CmdSlab, Head, SrcRing};
use logp::sim::engine::TIME_LIMIT;
use logp::sim::process::{Bulk, Command};
use logp::sim::reliable::TIMER_NAMESPACE;
use logp::sim::{
    Ctx, Data, FaultPlan, Message, Process, RetryConfig, SharedCell, Sim, SimConfig, SimError,
    SimResult,
};
use logp::wl::{
    gen_workload, load_workload, run_workload, run_workload_hier, FuzzConfig, WlRunError,
};
use std::sync::Arc;

#[path = "common/counting.rs"]
mod counting;

#[global_allocator]
static GLOBAL: counting::Counting = counting::Counting;

const IDENTITY_FILE: &str = "tests/data/engine_identity.txt";
const LANE_FILE: &str = "tests/data/lane_identity.txt";
const IDENTITY_CONFIGS: u64 = 420;
/// Configurations from here on run machines with `o > g`.
const O_ABOVE_G_FROM: u64 = 360;
const LANE_ENGINES: [u32; 2] = [2, 8];

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Everything simulated in a result (`vitals` measure the host).
fn result_hash(r: &SimResult) -> u64 {
    fnv1a(&format!(
        "{:?}{:?}{:?}{:?}{:?}",
        r.stats, r.trace, r.obs, r.metrics, r.aggregate
    ))
}

/// The five presets of `tests/observability.rs`, plus one with `o = 0`
/// (sends that complete in the cycle they start).
fn presets() -> [LogP; 6] {
    [
        LogP::fig3(),
        LogP::fig4(),
        LogP::new(60, 20, 40, 16).unwrap(),
        LogP::new(200, 4, 8, 32).unwrap(),
        LogP::new(2, 1, 12, 24).unwrap(),
        LogP::new(5, 0, 3, 12).unwrap(),
    ]
}

/// The flat machine of configuration `i`.
fn machine(i: u64) -> LogP {
    if i >= O_ABOVE_G_FROM {
        LogP::new(6, 5, 2, 8).unwrap()
    } else {
        presets()[(i % 6) as usize]
    }
}

/// Socket / node / cluster, `L_out` far past the inner levels; from
/// `O_ABOVE_G_FROM` on, the node level has `o > g`.
fn three_levels(i: u64) -> Hierarchy {
    let node_o = if i >= O_ABOVE_G_FROM { 9 } else { 4 };
    Hierarchy::new(vec![
        Level::new(4, 1, 2, 2).unwrap(),
        Level::new(20, node_o, 6, 2).unwrap(),
        Level::new(300, 12, 16, 3).unwrap(),
    ])
    .unwrap()
}

/// Seeded traffic that needs no message to arrive: sends, bulk sends,
/// computes and timers (durations include 0), forwarding chains and
/// barrier rounds. Survives drops, duplicates and crashes, so the whole
/// `SimResult` is there to hash under every fault plan.
struct Chatter {
    seed: u64,
    fanout: u64,
    hops: u64,
    rounds: u32,
    bulk: bool,
}

impl Chatter {
    fn peer(&self, ctx: &Ctx<'_>, salt: u64) -> ProcId {
        let me = ctx.me();
        let r = mix(&[self.seed, u64::from(me), salt, ctx.now()]);
        (me + 1 + (r % u64::from(ctx.procs() - 1)) as u32) % ctx.procs()
    }

    fn send(&self, ctx: &mut Ctx<'_>, salt: u64, v: u64) {
        let dst = self.peer(ctx, salt);
        if self.bulk && salt.is_multiple_of(5) {
            ctx.send_bulk(dst, salt as u32, Data::U64(v), 1 + salt % 4);
        } else {
            ctx.send(dst, salt as u32, Data::U64(v));
        }
    }
}

impl Process for Chatter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let mut rng = CounterRng::new(mix(&[self.seed, u64::from(ctx.me())]));
        for k in 0..self.fanout {
            match rng.next_in(3) {
                0 => ctx.compute(rng.next_in(6), k),
                1 => ctx.timer(rng.next_in(40), k),
                _ => {}
            }
            self.send(ctx, k, self.hops);
        }
        if self.rounds > 0 {
            ctx.barrier();
        }
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Ctx<'_>) {
        let v = msg.data.as_u64();
        if v > 0 {
            if v.is_multiple_of(3) {
                ctx.compute(0, 100 + v);
            }
            self.send(ctx, 7 * v + u64::from(msg.src), v - 1);
        }
    }

    fn on_compute_done(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        if tag.is_multiple_of(2) {
            self.send(ctx, 1000 + tag, 0);
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        self.send(ctx, 2000 + tag, 1);
        if tag == 0 {
            ctx.timer(0, 9);
        }
    }

    fn on_barrier_release(&mut self, ctx: &mut Ctx<'_>) {
        self.rounds -= 1;
        self.send(ctx, 3000 + u64::from(self.rounds), 2);
        if self.rounds > 0 {
            ctx.barrier();
        }
    }
}

/// Configuration `i` of the corpus, run on the classic engine
/// (`lanes = None`) or on that many lanes; the line it contributes to the
/// identity file of that engine.
fn identity_line(i: u64, lanes: Option<u32>) -> String {
    let mut rng = CounterRng::new(0x4556_5155_4555 ^ i); // "EVQUEU"
    let mut cfg = SimConfig::default().with_seed(rng.next_u64());
    if let Some(shards) = lanes {
        cfg = cfg.with_shards(shards);
    }
    if i % 2 == 1 {
        cfg = cfg.with_jitter(3);
    }
    match (i / 2) % 3 {
        1 => cfg = cfg.with_drift(40),
        2 => cfg = cfg.with_drift(15).with_skew(25),
        _ => {}
    }
    cfg.barrier_cost = [0, 0, 7][(i % 3) as usize];
    let obs = ["off", "trace", "msg_log", "aggregate", "gauges"][(i % 5) as usize];
    cfg = match obs {
        "trace" => cfg.with_trace(true),
        "msg_log" => cfg.with_msg_log(true).with_metrics(true),
        "aggregate" => cfg.with_aggregate(true),
        "gauges" => cfg.with_metrics_grid(1 + rng.next_in(12)),
        _ => cfg,
    };
    let family = ["wl", "hier", "chatter"][((i / 5) % 3) as usize];
    let p = match family {
        "hier" => three_levels(i).p(),
        _ => 0,
    };
    let fault = (i / 15) % 4;
    let plan = |p: u32, rng: &mut CounterRng| match fault {
        1 => Some(
            FaultPlan::new(rng.next_u64())
                .with_dup_ppm(150_000)
                .with_delay(250_000, 1 + rng.next_in(400)),
        ),
        2 => Some(
            FaultPlan::new(rng.next_u64())
                .with_drop_ppm(120_000)
                .with_dup_ppm(60_000)
                .with_delay(100_000, 9),
        ),
        3 => Some(
            FaultPlan::new(rng.next_u64())
                .with_drop_ppm(40_000)
                .with_crash(rng.next_in(u64::from(p) - 1) as ProcId, rng.next_in(60))
                .with_crash(
                    rng.next_in(u64::from(p) - 1) as ProcId,
                    1 + rng.next_in(300),
                ),
        ),
        _ => None,
    };
    let outcome = match family {
        "chatter" => {
            let m = machine(i).with_p([6, 24, 64, 160][(i % 4) as usize]);
            if let Some(plan) = plan(m.p, &mut rng) {
                cfg = cfg.with_faults(plan);
            }
            let bulk = i.is_multiple_of(7) || (i >= O_ABOVE_G_FROM && i.is_multiple_of(2));
            if bulk {
                cfg = cfg.with_big_g(1 + rng.next_in(3));
            }
            let (seed, fanout, hops) = (rng.next_u64(), 1 + rng.next_in(5), rng.next_in(9));
            let rounds = rng.next_in(3).saturating_sub(1) as u32 * (1 + rng.next_in(1) as u32);
            if rounds > 0 {
                // A processor waiting in a barrier receives nothing; keep
                // its NI buffer from filling and wedging the senders.
                cfg.ni_buffer = Some(1 << 20);
            }
            let mut sim = Sim::new(m, cfg);
            sim.set_all(|_| {
                Box::new(Chatter {
                    seed,
                    fanout,
                    hops,
                    rounds,
                    bulk,
                })
            });
            sim.run().map_err(|e| e.to_string())
        }
        family => {
            let shape = FuzzConfig {
                min_procs: if p > 0 { p } else { 2 },
                max_procs: if p > 0 { p } else { 16 },
                max_steps: 24 + 40 * (i % 2) as u32,
                ..FuzzConfig::default()
            };
            let wl = gen_workload(0x1d00 + i, &shape);
            if let Some(plan) = plan(wl.procs, &mut rng) {
                cfg = cfg.with_faults(plan);
            }
            let run = if family == "hier" {
                run_workload_hier(&wl, &three_levels(i), cfg)
            } else {
                run_workload(&wl, &machine(i), cfg)
            };
            run.map(|r| r.result).map_err(|e| e.to_string())
        }
    };
    // The recorded lane rows are labelled `s<lanes>w0`.
    let engine = lanes.map_or(String::new(), |s| format!(" s{s}w0"));
    match outcome {
        Ok(r) => format!(
            "{i:03} {family} {obs} f{fault}{engine} ok events={} {:016x}",
            r.stats.events,
            result_hash(&r)
        ),
        Err(e) => format!(
            "{i:03} {family} {obs} f{fault}{engine} err {}",
            e.escape_debug()
        ),
    }
}

fn identity_lines() -> Vec<String> {
    (0..IDENTITY_CONFIGS)
        .map(|i| identity_line(i, None))
        .collect()
}

/// Every non-gauge configuration (gauge sampling runs on the classic
/// engine whatever `shards` says) on every lane engine.
fn lane_lines() -> Vec<String> {
    (0..IDENTITY_CONFIGS)
        .filter(|i| i % 5 != 4)
        .flat_map(|i| LANE_ENGINES.map(|e| identity_line(i, Some(e))))
        .collect()
}

fn assert_reproduces(file: &str, now: &[String]) {
    let recorded = std::fs::read_to_string(file).expect(file);
    let recorded: Vec<&str> = recorded.lines().collect();
    assert_eq!(recorded.len(), now.len(), "{file}: configuration count");
    // The corpus must keep reaching full results under every fault plan.
    for f in ["f0", "f1", "f2", "f3"] {
        let ok = now
            .iter()
            .filter(|l| l.contains(f) && l.contains(" ok "))
            .count();
        assert!(ok >= 20, "only {ok} full results under plan {f}");
    }
    let bad: Vec<String> = recorded
        .iter()
        .zip(now)
        .filter(|(r, n)| r != n)
        .map(|(r, n)| format!("recorded: {r}\n     now: {n}"))
        .collect();
    assert!(
        bad.is_empty(),
        "{file}: {} of {} configurations changed:\n{}",
        bad.len(),
        now.len(),
        bad[..bad.len().min(20)].join("\n")
    );
}

#[test]
fn classic_engine_reproduces_the_recorded_corpus() {
    assert_reproduces(IDENTITY_FILE, &identity_lines());
}

#[test]
fn lane_engines_reproduce_the_recorded_corpus() {
    assert_reproduces(LANE_FILE, &lane_lines());
}

/// Rewrites both identity files from the engine in the tree (run at the
/// parent of PR 14 for classic rows 0–359, at the parent of PR 15 for
/// the `o > g` rows and the lane file, and with the barrier double-release
/// fixed, which changed classic row 239 alone); running it again pins
/// whatever the engine does now, so do that only for a deliberate change
/// of behaviour.
#[test]
#[ignore = "rewrites tests/data/engine_identity.txt and lane_identity.txt"]
fn regenerate_identity_files() {
    for (file, lines) in [(IDENTITY_FILE, identity_lines()), (LANE_FILE, lane_lines())] {
        std::fs::write(file, lines.join("\n") + "\n").expect(file);
    }
}

// ---------------------------------------------------------------------------
// The queue itself, against a binary heap.
// ---------------------------------------------------------------------------

/// One seeded push/pop stream, driven the way an engine drives the
/// calendar: `windowed = false` is the classic loop (rebase at every
/// cycle), `true` the lane engine (rebase at window start only, drain the
/// cycles before the window end, then late pushes behind the drain point
/// and a second pass). Every pop must be the model heap's minimum.
fn run_stream(span: u64, s: u64, windowed: bool) -> u64 {
    use std::cmp::Reverse;
    let mut rng = CounterRng::new(mix(&[0xCA1E_4DA2, span, s]));
    let mut cal: Calendar<u32> = Calendar::new(span, 2);
    let mut model: std::collections::BinaryHeap<Reverse<(u128, u32)>> = Default::default();
    let offsets = [
        0,
        0,
        1,
        2,
        span - 1,
        span,
        span + 1,
        3 * span + 5,
        1_000_000 + 977 * span,
    ];
    let budget = 20 + rng.next_in(60) as u32;
    let mut n = 0u32;
    let mut push = |cal: &mut Calendar<u32>, model: &mut std::collections::BinaryHeap<_>, from| {
        if n >= budget {
            return;
        }
        let mut rng = CounterRng::new(mix(&[span, s, u64::from(n)]));
        let off = match rng.next_in(2) {
            0 => rng.next_in(span / 2),
            _ => offsets[rng.next_in(offsets.len() as u64 - 1) as usize],
        };
        // Classic sequences count up; lane sequences are arbitrary.
        let seq = match windowed {
            true => (rng.next_u64() >> 30) << 22 | u64::from(n),
            false => u64::from(n),
        };
        let (t, ord) = (from + off, rng.next_in(2) << 56 | seq);
        cal.push(t, ord, n);
        model.push(Reverse(((t as u128) << 64 | ord as u128, n)));
        n += 1;
    };
    for _ in 0..=rng.next_in(12) {
        push(&mut cal, &mut model, 0);
    }
    let mut popped = 0;
    while let Some(t0) = cal.next_time() {
        assert_eq!(Some(t0), model.peek().map(|m| (m.0 .0 >> 64) as u64));
        let t_end = if windowed { t0 + span / 2 } else { t0 + 1 };
        if windowed {
            cal.advance_to(t0);
        }
        for pass in 0..2 {
            loop {
                let next = match windowed {
                    true => cal.pop::<false>(t_end - 1),
                    false => cal.pop::<true>(t_end - 1),
                };
                let Some((now, ord, item)) = next else {
                    break;
                };
                let want = model.pop().expect("model holds what the calendar holds").0;
                assert_eq!(((now as u128) << 64 | ord as u128, item), want);
                popped += 1;
                for _ in 0..rng.next_in(2) {
                    push(&mut cal, &mut model, now);
                }
            }
            assert!(model.peek().is_none_or(|m| (m.0 .0 >> 64) as u64 >= t_end));
            if !windowed || pass == 1 {
                break;
            }
            // A barrier release re-arms processors anywhere in the window.
            for _ in 0..rng.next_in(3) {
                push(&mut cal, &mut model, t0 + rng.next_in(span / 2 - 1));
            }
        }
    }
    assert!(model.is_empty() && popped == n);
    cal.far_spills
}

#[test]
fn calendar_pops_in_heap_order() {
    for span in [16, 8192] {
        let mut spilled = 0;
        for s in 0..5_200 {
            spilled += run_stream(span, s, s % 2 == 1);
        }
        assert!(spilled > 5_000, "span {span}: only {spilled} far pushes");
    }
}

// ---------------------------------------------------------------------------
// The in-place ring and command queue, against the `VecDeque`s they replaced.
// ---------------------------------------------------------------------------

/// One sender's window under a seeded script, beside the sorted
/// `VecDeque<Cycles>` the lanes kept before (the model is that code):
/// pushes whose release instants jitter out of order or coincide, a clock
/// that often lands exactly on a release, a window of 1–12 messages.
/// Returns how often the ring moved `(in place → spilled, back)`.
fn run_ring_script(s: u64) -> (u32, u32) {
    use std::collections::VecDeque;
    let mut rng = CounterRng::new(mix(&[0x5143_5249, s]));
    let capacity = 1 + rng.next_in(11) as usize;
    let (flight, jitter) = (1 + rng.next_in(40), rng.next_in(12));
    let mut ring = SrcRing::default();
    let mut model: VecDeque<u64> = VecDeque::new();
    let (mut now, mut out, mut back) = (0u64, 0, 0);
    // Where the entries should be: out of place from the fourth on, back
    // in place once the window has drained.
    let mut spilled = false;
    for _ in 0..200 {
        // Land on the model's next release half the time — expiry at
        // `t == now` frees the slot for a send attempted at `t` — and now
        // and then on its last, which drains the window.
        now = match (rng.next_in(15), model.front(), model.back()) {
            (0, _, Some(&t)) | (1..=7, Some(&t), _) => now.max(t),
            (8..=11, ..) => now + rng.next_in(3),
            _ => now,
        };
        let was_spilled = spilled;
        // Admission, as `ring_admit` did it.
        while model.front().is_some_and(|&t| t <= now) {
            model.pop_front();
        }
        ring.expire(now);
        spilled &= !model.is_empty();
        let admit = model.len() < capacity;
        assert_eq!(ring.len() < capacity, admit, "script {s} at {now}");
        // An admitted send goes in, as `ring_push` did it; now and then
        // one goes in regardless (a fault-layer duplicate does).
        if admit || rng.next_in(7) == 0 {
            let release = now + flight + rng.next_in(jitter);
            if model.back().is_some_and(|&b| b > release) {
                let pos = model.partition_point(|&t| t <= release);
                model.insert(pos, release);
            } else {
                model.push_back(release);
            }
            ring.push(release);
            spilled |= model.len() > 3;
        }
        assert_eq!(ring.len(), model.len(), "script {s} at {now}");
        assert_eq!(ring.is_empty(), model.is_empty());
        assert_eq!(ring.front(), model.front().copied());
        assert_eq!(ring.back(), model.back().copied());
        assert_eq!(matches!(ring, SrcRing::Spilled(_)), spilled);
        out += u32::from(!was_spilled && spilled);
        back += u32::from(was_spilled && !spilled);
    }
    (out, back)
}

#[test]
fn source_ring_matches_the_sorted_deque_it_replaced() {
    let (mut out, mut back) = (0, 0);
    for s in 0..2_000 {
        let (o, b) = run_ring_script(s);
        (out, back) = (out + o, back + b);
    }
    assert!(
        out > 10_000 && back > 10_000,
        "{out} spills, {back} returns"
    );
}

/// A word: the extremes as often as a random one.
fn any_word(rng: &mut CounterRng) -> u64 {
    match rng.next_in(3) {
        0 => 0,
        1 => u64::MAX,
        2 => TIMER_NAMESPACE | rng.next_in(99),
        _ => rng.next_u64(),
    }
}

/// A float whose bits must survive: NaNs with payloads, both zeros, both
/// infinities, anything.
fn any_float(rng: &mut CounterRng) -> f64 {
    match rng.next_in(5) {
        0 => f64::from_bits(0x7FF8_0000_0000_0000 | rng.next_in(0xF_FFFF)),
        1 => f64::from_bits(0xFFF0_0000_0000_0001),
        2 => -0.0,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        _ => f64::from_bits(rng.next_u64()),
    }
}

/// An id or a tag: zero (a send's tag then takes no bytes), the largest,
/// anything.
fn any_u32(rng: &mut CounterRng) -> u32 {
    match rng.next_in(2) {
        0 => 0,
        1 => u32::MAX,
        _ => rng.next_u64() as u32,
    }
}

/// A destination a step from `last`: runs of +1 as often as anything,
/// steps of 0 and ±1, at the edges of `i8` and `i16` and past them, and
/// the neighbours of 0 and `u32::MAX`.
fn any_dst(rng: &mut CounterRng, last: u32) -> u32 {
    const EDGES: [i64; 8] = [127, 128, -128, -129, 32_767, 32_768, -32_768, -32_769];
    let step = match rng.next_in(9) {
        0..=2 => 1,
        3 => 0,
        4 => -1,
        5 => EDGES[rng.next_in(7) as usize],
        6 => rng.next_in(1 << 17) as i64 - (1 << 16),
        7 => return [0, 1, u32::MAX - 1, u32::MAX][rng.next_in(3) as usize],
        _ => return rng.next_u64() as u32,
    };
    last.wrapping_add(step as u32)
}

/// How a send to `dst` behind one to `last` packs: `[+1, i8, i16, u32]`.
fn form(dst: u32, last: u32) -> usize {
    match dst.wrapping_sub(last) as i32 {
        1 => 0,
        -0x80..=0x7F => 1,
        -0x8000..=0x7FFF => 2,
        _ => 3,
    }
}

/// Any payload; a block shares `block`.
fn any_data(rng: &mut CounterRng, block: &Arc<Vec<u64>>) -> Data {
    match rng.next_in(7) {
        0 => Data::Empty,
        1 => Data::U64(any_word(rng)),
        2 => Data::F64(any_float(rng)),
        3 => Data::Pair(any_word(rng), any_word(rng)),
        4 => Data::IdxF64(any_word(rng), any_float(rng)),
        5 => Data::Cplx {
            idx: any_u32(rng),
            re: any_float(rng),
            im: any_float(rng),
        },
        6 => Data::Block(Arc::clone(block)),
        _ => Data::Seq {
            seq: any_word(rng),
            inner: Box::new(any_data(rng, block)),
        },
    }
}

/// Any command a handler can issue, half of them sends; a send goes to a
/// step from `*last`, which moves to it.
fn any_command(rng: &mut CounterRng, block: &Arc<Vec<u64>>, last: &mut u32) -> Command {
    let (dst, tag) = (any_dst(rng, *last), any_u32(rng));
    match rng.next_in(9) {
        0 => Command::Compute {
            cycles: any_word(rng),
            tag: any_word(rng),
        },
        1 => Command::Timer {
            cycles: any_word(rng),
            tag: any_word(rng),
        },
        2 => Command::Barrier,
        3 => Command::Halt,
        4 => Command::SendBulk(Box::new(Bulk {
            dst,
            tag,
            data: any_data(rng, block),
            words: 1 + any_word(rng) / 2,
        })),
        _ => {
            *last = dst;
            Command::Send {
                dst,
                tag,
                data: any_data(rng, block),
            }
        }
    }
}

/// Equal payloads, floats bit for bit.
fn same_data(a: &Data, b: &Data) -> bool {
    match (a, b) {
        (Data::F64(x), Data::F64(y)) => x.to_bits() == y.to_bits(),
        (Data::IdxF64(i, x), Data::IdxF64(j, y)) => i == j && x.to_bits() == y.to_bits(),
        (
            Data::Cplx { idx, re, im },
            Data::Cplx {
                idx: j,
                re: r,
                im: m,
            },
        ) => idx == j && re.to_bits() == r.to_bits() && im.to_bits() == m.to_bits(),
        (Data::Seq { seq, inner }, Data::Seq { seq: s, inner: i }) => {
            seq == s && same_data(inner, i)
        }
        _ => a == b,
    }
}

fn same(a: &Command, b: &Command) -> bool {
    match (a, b) {
        (
            Command::Send { dst, tag, data },
            Command::Send {
                dst: d,
                tag: t,
                data: x,
            },
        ) => dst == d && tag == t && same_data(data, x),
        (Command::SendBulk(a), Command::SendBulk(b)) => {
            (a.dst, a.tag, a.words) == (b.dst, b.tag, b.words) && same_data(&a.data, &b.data)
        }
        _ => a == b,
    }
}

/// Where a command's own heap memory is, if it has any: a queue moves
/// it, never copies it.
fn heap_of(cmd: &Command) -> Option<usize> {
    let data = match cmd {
        Command::SendBulk(b) => return Some(&**b as *const Bulk as usize),
        Command::Send { data, .. } => data,
        _ => return None,
    };
    match data {
        Data::Seq { inner, .. } => Some(&**inner as *const Data as usize),
        _ => None,
    }
}

/// One processor's queue under a seeded script, beside a
/// `VecDeque<Command>`: handlers issuing 0–5 commands of every variant,
/// the engine reading the front and popping or skipping it between them,
/// a crash abandoning everything, the program re-issuing. Adds to `forms`
/// the sends of each packed form issued behind a send, and to `drains` the
/// times pops emptied a queue of more than one command.
fn run_queue_script(s: u64, forms: &mut [u64; 4], drains: &mut u64) {
    let mut rng = CounterRng::new(mix(&[0x434D_4451, s]));
    let block = Arc::new(vec![s, 1, 2]);
    let mut slab = CmdSlab::default();
    let mut queue = CmdQueue::default();
    let mut model = std::collections::VecDeque::new();
    let mut issued = Vec::new();
    let mut last = 0;
    for _ in 0..120 {
        let deep = model.len() > 1;
        match rng.next_in(9) {
            0..=3 => {
                for _ in 0..rng.next_in(5) {
                    let before = last;
                    let cmd = any_command(&mut rng, &block, &mut last);
                    if let Command::Send { dst, .. } = cmd {
                        forms[form(dst, before)] += 1;
                    }
                    issued.push(cmd);
                }
                model.extend(issued.iter().map(|c| (c.clone(), heap_of(c))));
                queue.append(&mut issued, &mut slab);
                assert!(issued.is_empty());
            }
            4..=7 => {
                for _ in 0..=rng.next_in(3) {
                    let want = model.pop_front();
                    let head = queue.front(&slab);
                    assert_eq!(head, want.as_ref().map(|(c, _)| Head::of(c)), "script {s}");
                    if rng.next_in(3) == 0 {
                        // What the engine does with a front it has read
                        // all of: drop it undecoded.
                        queue.skip_front(&mut slab);
                        continue;
                    }
                    let got = queue.pop_front(&mut slab);
                    match (got, want) {
                        (Some(got), Some((want, heap))) => {
                            assert!(same(&got, &want), "script {s}: {got:?} != {want:?}");
                            assert_eq!(heap_of(&got), heap, "script {s}: {got:?} was copied");
                        }
                        (got, want) => assert!(got.is_none() && want.is_none(), "script {s}"),
                    }
                }
                *drains += u64::from(deep && model.is_empty());
            }
            _ => {
                queue.clear(&mut slab);
                model.clear();
                assert!(slab.is_empty(), "script {s}");
                assert_eq!(Arc::strong_count(&block), 1, "script {s}");
            }
        }
        assert_eq!(queue.len(), model.len(), "script {s}");
        assert_eq!(queue.is_empty(), model.is_empty());
        assert_eq!(queue.parked(), slab.len());
        assert_eq!(queue.front(&slab), model.front().map(|(c, _)| Head::of(c)));
    }
    drain(&mut queue, &mut slab, model, s);
    assert_eq!(Arc::strong_count(&block), 1, "script {s}");
}

/// Pop `queue` empty beside `model`, reading the front before each pop.
fn drain(
    queue: &mut CmdQueue,
    slab: &mut CmdSlab,
    mut model: std::collections::VecDeque<(Command, Option<usize>)>,
    s: u64,
) {
    while let Some((want, _)) = model.pop_front() {
        assert_eq!(queue.front(slab), Some(Head::of(&want)), "script {s}");
        let got = queue.pop_front(slab).expect("as long as the model");
        assert!(same(&got, &want), "script {s}: {got:?} != {want:?}");
    }
    assert!(queue.front(slab).is_none() && queue.pop_front(slab).is_none());
    assert!(slab.is_empty());
}

/// A send's destination packed as the step from the one before survives
/// the unread bytes moving down, a growth into a new buffer, the cursor
/// resetting when the queue drains, and a crash: its step counts from the
/// last destination written whatever happened to the bytes.
fn across_compaction_growth_and_drain() {
    type Model = std::collections::VecDeque<(Command, Option<usize>)>;
    fn append(
        queue: &mut CmdQueue,
        slab: &mut CmdSlab,
        model: &mut Model,
        mut cmds: Vec<Command>,
    ) -> counting::Allocs {
        model.extend(cmds.iter().map(|c| (c.clone(), None)));
        counting::allocs(|| queue.append(&mut cmds, slab)).1
    }
    let send = |dst| Command::Send {
        dst,
        tag: 0,
        data: Data::Empty,
    };
    let (mut slab, mut queue, mut model) = (CmdSlab::default(), CmdQueue::default(), Model::new());
    // A barrier and a send a step of -1 from 0: 3 bytes, then 12 of room
    // and 4 of the last destination, in one buffer.
    let batch = vec![Command::Barrier, send(u32::MAX)];
    let spent = append(&mut queue, &mut slab, &mut model, batch);
    assert_eq!((spent.calls, spent.bytes), (1, 19), "{spent:?}");
    queue.skip_front(&mut slab);
    model.pop_front();
    // 13 sends to the next processor, from `u32::MAX` round to 12: a byte
    // each, 1 more than the room left, which the send unread makes by
    // moving down.
    let batch = (0..13).map(send).collect();
    let spent = append(&mut queue, &mut slab, &mut model, batch);
    assert_eq!(spent.calls, 0, "{spent:?}");
    // One more, and the buffer doubles.
    let spent = append(&mut queue, &mut slab, &mut model, vec![send(13)]);
    assert_eq!((spent.calls, spent.bytes), (1, 38), "{spent:?}");
    drain(&mut queue, &mut slab, std::mem::take(&mut model), u64::MAX);
    // Drained, the cursor resets; the next steps count from 13.
    let far = 13u32.wrapping_sub(40_000);
    let batch = vec![send(14), send(14), send(13), send(far), send(u32::MAX)];
    append(&mut queue, &mut slab, &mut model, batch);
    drain(&mut queue, &mut slab, std::mem::take(&mut model), u64::MAX);
    // A crash abandons what it queued; the next step counts from the last
    // destination written, 5, though that send never left.
    append(
        &mut queue,
        &mut slab,
        &mut Model::new(),
        vec![send(5), Command::Halt],
    );
    queue.clear(&mut slab);
    let batch = vec![send(6), send(7), Command::Halt];
    append(&mut queue, &mut slab, &mut model, batch);
    drain(&mut queue, &mut slab, model, u64::MAX);
}

#[test]
fn command_queue_is_the_fifo_it_replaced() {
    let (mut forms, mut drains) = ([0; 4], 0);
    for s in 0..2_000 {
        run_queue_script(s, &mut forms, &mut drains);
    }
    // Every form, and many drains.
    assert!(forms.iter().all(|&n| n > 10_000), "{forms:?}");
    assert!(drains > 5_000, "{drains} drains");
    across_compaction_growth_and_drain();
}

/// The queue-depth-1 floor: a ping-pong, a leaf of a tree. One command
/// queued, executed, and the next queued never touches the heap — through
/// a crash as well.
#[test]
fn one_command_at_a_time_never_allocates() {
    let mut slab = CmdSlab::default();
    let mut queue = CmdQueue::default();
    let mut issued = Vec::with_capacity(4);
    let ((), spent) = counting::allocs(|| {
        for i in 0..1_000u64 {
            issued.push(match i % 3 {
                0 => Command::Send {
                    dst: 1,
                    tag: 0,
                    data: Data::U64(i),
                },
                1 => Command::Compute { cycles: i, tag: i },
                _ => Command::Barrier,
            });
            queue.append(&mut issued, &mut slab);
            assert_eq!(queue.len(), 1);
            if i % 7 == 0 {
                queue.clear(&mut slab);
            } else {
                assert!(queue.pop_front(&mut slab).is_some());
            }
            assert!(queue.is_empty());
        }
    });
    assert_eq!(spent.calls, 0, "{spent:?}");
    // A second command behind the first is what takes a buffer: one, of
    // the two (a byte each), room for one more one-word send and the last
    // destination written.
    issued.extend([Command::Barrier, Command::Halt]);
    let ((), spent) = counting::allocs(|| queue.append(&mut issued, &mut slab));
    assert_eq!((spent.calls, spent.bytes), (1, 18), "{spent:?}");
}

// ---------------------------------------------------------------------------
// Zero-duration and overflow corners.
// ---------------------------------------------------------------------------

type Log = SharedCell<Vec<(ProcId, u64, String)>>;

/// Everything at cycle 0 that can be: two zero-length computes around a
/// zero-delay timer, then a free barrier; after it a ping-pong on an
/// `o = 0` machine (reception completes in the cycle it starts).
struct ZeroCorners(Log);

impl ZeroCorners {
    fn note(&self, ctx: &Ctx<'_>, what: String) {
        self.0.with(|l| l.push((ctx.me(), ctx.now(), what)));
    }
}

impl Process for ZeroCorners {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.compute(0, 1);
        ctx.timer(0, 2);
        ctx.compute(0, 3);
        ctx.barrier();
    }
    fn on_compute_done(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        self.note(ctx, format!("compute {tag}"));
    }
    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        self.note(ctx, format!("timer {tag}"));
    }
    fn on_barrier_release(&mut self, ctx: &mut Ctx<'_>) {
        self.note(ctx, "release".into());
        if ctx.me() == 0 {
            ctx.send(1, 0, Data::U64(1));
        }
    }
    fn on_message(&mut self, msg: &Message, ctx: &mut Ctx<'_>) {
        self.note(ctx, format!("message {}", msg.data.as_u64()));
        if ctx.me() == 1 {
            ctx.send(0, 0, Data::U64(2));
        }
    }
}

#[test]
fn zero_duration_corners_keep_their_order() {
    let m = LogP::new(5, 0, 3, 2).unwrap();
    let mut runs = Vec::new();
    for shards in [0, 2] {
        let log = Log::new();
        let mut sim = Sim::new(m, SimConfig::default().with_shards(shards));
        sim.set_all(|_| Box::new(ZeroCorners(log.clone())));
        let r = sim.run().expect("runs to completion");
        assert_eq!(r.stats.completion, 10, "shards={shards}");
        let mut per_proc = log.get();
        per_proc.sort_by_key(|e| e.0); // stable: each processor's own order
        runs.push(per_proc);
        if shards == 0 {
            // 2 x (compute, timer, compute) + release + 2 x (Release,
            // Arrive, RecvDone).
            assert_eq!(r.stats.events, 13);
        }
    }
    let at0 = |p| {
        ["compute 1", "timer 2", "compute 3", "release"]
            .into_iter()
            .map(move |w| (p, 0, w.to_string()))
    };
    let mut want: Vec<_> = at0(0).collect();
    want.push((0, 10, "message 2".into()));
    want.extend(at0(1));
    want.push((1, 5, "message 1".into()));
    for got in &runs {
        assert_eq!(got, &want);
    }
}

const OVERFLOW_REPRO: &str = "workload overflow\nprocs 2\n\
    a: compute 18446744073709551615 @0\n\
    b: compute 5 @0 after: a\n\
    c: send 0 -> 1 tag=1 after: b\n\
    d: recv 0 -> 1 tag=1\n";

#[test]
fn time_overflow_is_a_typed_error_on_every_engine() {
    let wl = load_workload(OVERFLOW_REPRO).expect("the repro is a valid program");
    let huge = |command, cycles| SimError::TimeOverflow {
        proc: 0,
        now: 0,
        command,
        cycles,
    };
    for shards in [0, 2] {
        let cfg = SimConfig::default().with_shards(shards);
        match run_workload(&wl, &LogP::fig3(), cfg.clone()) {
            Err(WlRunError::Sim(e)) => {
                assert_eq!(e, huge("compute", u64::MAX), "shards={shards}");
                let text = e.to_string();
                assert!(
                    text.contains("`compute`") && text.contains("processor 0"),
                    "{text}"
                );
            }
            other => panic!("shards={shards}: {other:?}"),
        }
        // Timers and bulk streams past the limit, and a second step from
        // just under it.
        for (what, cycles) in [
            ("timer", u64::MAX - 7),
            ("send_bulk", u64::MAX),
            ("compute", TIME_LIMIT),
        ] {
            let mut sim = Sim::new(LogP::fig3(), cfg.clone().with_big_g(u64::MAX / 3));
            sim.set_process(0, Box::new(OneHuge(what, cycles)));
            assert_eq!(sim.run().err(), Some(huge(what, cycles)), "shards={shards}");
        }
        let mut sim = Sim::new(LogP::fig3(), cfg.clone());
        sim.set_process(0, Box::new(OneHuge("compute", TIME_LIMIT - 1_000)));
        sim.run().expect("a run may end just under the limit");
    }
}

/// A bulk send on a machine that never set `G` is a configuration
/// mistake, reported as one — not a panic inside the engine — whether the
/// first command of the run trips it or one issued mid-run by a processor
/// a message woke.
#[test]
fn bulk_send_without_big_g_is_a_typed_error_on_every_engine() {
    struct BulkOnMessage;
    impl Process for BulkOnMessage {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if ctx.me() == 0 {
                ctx.send(5, 0, Data::Empty);
            }
        }
        fn on_message(&mut self, _: &Message, ctx: &mut Ctx<'_>) {
            ctx.send_bulk(2, 0, Data::Empty, 4);
        }
    }
    for shards in [0, 2, 8] {
        let cfg = SimConfig::default().with_shards(shards);
        let missing = |proc, now| SimError::MissingBigG {
            proc,
            now,
            command: "send_bulk",
        };
        let mut sim = Sim::new(LogP::fig3(), cfg.clone());
        sim.set_process(0, Box::new(OneHuge("send_bulk", 0)));
        let e = sim.run().expect_err("no G to stream at");
        assert_eq!(e, missing(0, 0), "shards={shards}");
        let text = e.to_string();
        assert!(
            text.contains("`send_bulk`") && text.contains("processor 0") && text.contains("G"),
            "{text}"
        );
        // P0's message reaches P5 at 2o + L = 10.
        let mut sim = Sim::new(LogP::fig3(), cfg);
        sim.set_all(|_| Box::new(BulkOnMessage));
        assert_eq!(sim.run().err(), Some(missing(5, 10)), "shards={shards}");
    }
}

/// A fault plan that crashes a processor the machine does not have is bad
/// input, reported as such by `run` on every engine and by `run_workload`.
#[test]
fn crash_of_a_missing_processor_is_a_typed_error_on_every_engine() {
    let plan = FaultPlan::new(7).with_crash(3, 0).with_crash(99, 5);
    let bad = SimError::CrashOutOfRange { proc: 99, p: 8 };
    for shards in [0, 2, 8] {
        let cfg = SimConfig::default()
            .with_shards(shards)
            .with_faults(plan.clone());
        let sim = Sim::new(LogP::fig3(), cfg.clone());
        assert_eq!(sim.run().err(), Some(bad.clone()), "shards={shards}");
        let wl = load_workload("workload w\nprocs 8\na: compute 1 @0\n").expect("valid");
        match run_workload(&wl, &LogP::fig3(), cfg) {
            Err(WlRunError::Sim(e)) => assert_eq!(e, bad, "shards={shards}"),
            other => panic!("shards={shards}: {other:?}"),
        }
    }
    let text = bad.to_string();
    assert!(
        text.contains("processor 99") && text.contains("P = 8"),
        "{text}"
    );
}

/// A retry policy is input too. One whose timeouts outgrow the clock used
/// to overflow inside the endpoint — an addition (debug) or a remainder by
/// zero (release) for `jitter = u64::MAX`, an addition in debug only for
/// `timeout = u64::MAX` — and now saturates into one huge timer, which is
/// the engine's `TimeOverflow` in both builds. A long policy the clock can
/// hold (`1 << 60`, doubling) completes unless a third retry passes the
/// limit.
#[test]
fn a_retry_policy_past_the_clock_is_a_typed_error_on_every_engine() {
    let m = LogP::new(6, 2, 4, 8).unwrap();
    let plan = FaultPlan::new(1).with_drop_ppm(200_000);
    let sane = RetryConfig::for_model(&m);
    let all_jitter = RetryConfig {
        jitter: u64::MAX,
        ..sane.clone()
    };
    let policies = [
        ("jitter = u64::MAX", all_jitter, true),
        (
            "timeout = u64::MAX",
            sane.clone().with_timeout(u64::MAX),
            true,
        ),
        ("timeout = 1 << 60", sane.with_timeout(1 << 60), false),
    ];
    for (what, retry, must_overflow) in policies {
        for shards in [0, 2] {
            let cfg = SimConfig::default().with_shards(shards);
            match run_reliable_broadcast(&m, &plan, retry.clone(), cfg) {
                Err(ResilientError::Engine(SimError::TimeOverflow {
                    command, cycles, ..
                })) => {
                    assert_eq!(command, "timer", "{what}, shards={shards}");
                    assert!(cycles > TIME_LIMIT / 2, "{what}, shards={shards}: {cycles}");
                }
                Ok(run) if !must_overflow => assert_eq!(run.arrivals.len(), 8, "{what}"),
                other => panic!("{what}, shards={shards}: {other:?}"),
            }
        }
    }
}

/// Issues one command with a hostile duration.
struct OneHuge(&'static str, u64);

impl Process for OneHuge {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        match self.0 {
            "timer" => ctx.timer(self.1, 0),
            "send_bulk" => ctx.send_bulk(1, 0, Data::Empty, 4),
            _ => ctx.compute(self.1, 0),
        }
    }
}

/// One queue type, so the queue rows of the vitals are fed on the classic
/// engine too: a shift permutation fills buckets (64 releases in one
/// cycle), a timer longer than the ring's span goes through the overflow
/// heap.
#[test]
fn queue_vitals_are_fed_on_the_classic_engine() {
    struct Shift;
    impl Process for Shift {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if ctx.me() == 0 {
                ctx.timer(100_000, 0);
            }
            ctx.send((ctx.me() + 1) % ctx.procs(), 0, Data::Empty);
        }
    }
    let mut sim = Sim::new(LogP::new(6, 2, 4, 64).unwrap(), SimConfig::default());
    sim.set_all(|_| Box::new(Shift));
    let v = sim.run().expect("runs to completion").vitals;
    assert_eq!(v.engine, "classic");
    assert!(v.bucket_depth_max >= 64, "{v:?}");
    assert_eq!(v.far_spills, 1, "{v:?}");
    assert_eq!(v.windows, 0);
}
