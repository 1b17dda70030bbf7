//! Parallel sorting (§4.2.2).
//!
//! "Since processors handle large subproblems, sort algorithms can be
//! designed with a basic structure of alternating phases of local
//! computation and general communication."
//!
//! * **Splitter sort** (Blelloch et al.'s sample sort, the paper's
//!   "interesting recent algorithm"): local sort → regular sampling →
//!   one processor selects `P-1` splitters and broadcasts them → one
//!   all-to-all data remap using the splitters → local merge. The data
//!   crosses the network once.
//! * **Bitonic sort** (the classic network algorithm the paper holds up
//!   as "highly structured oblivious"): `log P (log P + 1)/2` rounds of
//!   pairwise compare-split, each exchanging every key — `O(log² P)`
//!   crossings of the whole data set.
//!
//! Both run with real keys on the simulator; outputs are verified to be
//! the sorted permutation of the input, including under latency jitter.

use crate::step::{run_steps, Arrival, Out, Steps};
use crate::tree::{execute, Finals, Run};
use logp_core::broadcast::binomial_children;
use logp_core::{Cycles, LogP, ProcId};
use logp_sim::{Ctx, Data, Message, Process, SharedCell, Sim, SimConfig};
use std::collections::HashMap;

const TAG_SAMPLE: u32 = 0x31;
const TAG_SPLITTER: u32 = 0x32;
const TAG_KEY: u32 = 0x33;
const TAG_COUNT: u32 = 0x34;
const TAG_XCHG: u32 = 0x35;

const STEP_LOCAL_SORT: u64 = 1;
const STEP_SELECT: u64 = 2;
const STEP_SEND: u64 = 3;
const STEP_MERGE: u64 = 4;

/// Comparison cost of one key-op, cycles.
const CMP_COST: Cycles = 1;

fn sort_cost(n: u64) -> Cycles {
    if n <= 1 {
        return 1;
    }
    n * logp_core::cost::log2_ceil(n) * CMP_COST
}

/// Result of a sort run.
#[derive(Debug, Clone)]
pub struct SortRun {
    /// Globally concatenated output.
    pub output: Vec<u64>,
    pub completion: Cycles,
    pub messages: u64,
}

/// Every rank's sorted run, concatenated in rank order.
fn sorted(mut run: Run<Vec<u64>>, completion: Cycles) -> SortRun {
    run.finals.sort_by_key(|f| f.0);
    SortRun {
        output: run.finals.into_iter().flat_map(|f| f.1).collect(),
        completion,
        messages: run.result.stats.total_msgs,
    }
}

// ---------------------------------------------------------------------
// Splitter (sample) sort.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SsPhase {
    LocalSort,
    AwaitSplitters,
    /// Processor 0 only: the splitter-selection sort is in flight.
    SelectingSplitters,
    Sending,
    AwaitKeys,
    Done,
}

struct SplitterProc {
    keys: Vec<u64>,
    /// Oversampling factor: samples per processor.
    samples_per_proc: usize,
    phase: SsPhase,
    /// Gathered samples (processor 0 only).
    samples: Vec<u64>,
    samples_expected: usize,
    splitters: Vec<u64>,
    /// Splitters received so far (non-root processors).
    splitter_count: usize,
    /// Outgoing keys grouped by destination, staggered order.
    outgoing: Vec<(ProcId, u64)>,
    next_send: usize,
    /// Received keys for the final merge.
    bucket: Vec<u64>,
    /// Per-source announced counts.
    counts: HashMap<ProcId, u64>,
    received_keys: u64,
    sent_done: bool,
    out: SharedCell<Finals<Vec<u64>>>,
}

impl SplitterProc {
    fn begin_partition(&mut self, ctx: &mut Ctx<'_>) {
        // Partition sorted keys by the splitters; destination d gets keys
        // in (splitter[d-1], splitter[d]]. Build staggered send order.
        let p = ctx.procs();
        let me = ctx.me();
        let mut by_dest: Vec<Vec<u64>> = vec![Vec::new(); p as usize];
        for &k in &self.keys {
            let d = self.splitters.partition_point(|&s| s < k) as ProcId;
            by_dest[d as usize].push(k);
        }
        // Keep own bucket locally.
        self.bucket.extend_from_slice(&by_dest[me as usize]);
        by_dest[me as usize].clear();
        // Announce counts first (jitter-safe termination), then keys in a
        // staggered destination order.
        for b in 0..p {
            let d = (me + 1 + b) % p;
            if d == me {
                continue;
            }
            ctx.send(d, TAG_COUNT, Data::U64(by_dest[d as usize].len() as u64));
        }
        self.outgoing = (0..p)
            .map(|b| (me + 1 + b) % p)
            .filter(|&d| d != me)
            .flat_map(|d| {
                by_dest[d as usize]
                    .iter()
                    .map(move |&k| (d, k))
                    .collect::<Vec<_>>()
            })
            .collect();
        self.phase = SsPhase::Sending;
        self.next_send = 0;
        self.step_send(ctx);
    }

    fn step_send(&mut self, ctx: &mut Ctx<'_>) {
        if self.next_send < self.outgoing.len() {
            let (d, k) = self.outgoing[self.next_send];
            self.next_send += 1;
            ctx.send(d, TAG_KEY, Data::U64(k));
            // One cycle of local work per key moved (address computation).
            ctx.compute(CMP_COST, STEP_SEND);
        } else {
            self.sent_done = true;
            self.phase = SsPhase::AwaitKeys;
            self.maybe_merge(ctx);
        }
    }

    fn maybe_merge(&mut self, ctx: &mut Ctx<'_>) {
        if self.phase != SsPhase::AwaitKeys || !self.sent_done {
            return;
        }
        let p = ctx.procs();
        if self.counts.len() == p as usize - 1 {
            let expected: u64 = self.counts.values().sum();
            if self.received_keys == expected {
                self.phase = SsPhase::Done;
                ctx.compute(sort_cost(self.bucket.len() as u64), STEP_MERGE);
            }
        }
    }
}

impl Process for SplitterProc {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.compute(sort_cost(self.keys.len() as u64), STEP_LOCAL_SORT);
    }

    fn on_compute_done(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        match tag {
            STEP_LOCAL_SORT => {
                self.keys.sort_unstable();
                // Regular samples of the sorted run.
                let p = ctx.procs();
                let me = ctx.me();
                let s = self.samples_per_proc;
                let stride = (self.keys.len() / (s + 1)).max(1);
                let mine: Vec<u64> = (1..=s)
                    .map(|i| self.keys[(i * stride).min(self.keys.len() - 1)])
                    .collect();
                if me == 0 {
                    self.samples.extend_from_slice(&mine);
                    self.samples_expected = s * (p as usize - 1);
                    self.phase = SsPhase::AwaitSplitters;
                    self.maybe_select(ctx);
                } else {
                    for k in mine {
                        ctx.send(0, TAG_SAMPLE, Data::U64(k));
                    }
                    self.phase = SsPhase::AwaitSplitters;
                    // The splitter broadcast may already be fully buffered.
                    if !self.splitters.is_empty() && self.splitter_count == self.splitters.len() {
                        self.begin_partition(ctx);
                    }
                }
            }
            STEP_SELECT => {
                // Processor 0: samples sorted; pick P-1 splitters and
                // broadcast down a binomial tree.
                self.samples.sort_unstable();
                let p = ctx.procs();
                let s = self.samples_per_proc;
                self.splitters = (1..p as usize).map(|i| self.samples[i * s - 1]).collect();
                for c in binomial_children(0, p) {
                    for (i, &sp) in self.splitters.iter().enumerate() {
                        ctx.send(c, TAG_SPLITTER, Data::Pair(i as u64, sp));
                    }
                }
                self.begin_partition(ctx);
            }
            STEP_SEND => self.step_send(ctx),
            STEP_MERGE => {
                self.bucket.sort_unstable();
                let me = ctx.me();
                let now = ctx.now();
                let run = std::mem::take(&mut self.bucket);
                self.out.with(|o| o.push((me, run, now)));
            }
            other => unreachable!("unknown step {other}"),
        }
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Ctx<'_>) {
        match msg.tag {
            TAG_SAMPLE => {
                self.samples.push(msg.data.as_u64());
                self.maybe_select(ctx);
            }
            TAG_SPLITTER => {
                let (i, sp) = msg.data.as_pair();
                if self.splitters.is_empty() {
                    self.splitters = vec![0; ctx.procs() as usize - 1];
                    self.counts.reserve(ctx.procs() as usize);
                }
                self.splitters[i as usize] = sp;
                // Forward down the binomial tree.
                for c in binomial_children(ctx.me(), ctx.procs()) {
                    ctx.send(c, TAG_SPLITTER, msg.data.clone());
                }
                self.splitter_count += 1;
                if self.splitter_count == self.splitters.len()
                    && self.phase == SsPhase::AwaitSplitters
                {
                    self.begin_partition(ctx);
                }
            }
            TAG_COUNT => {
                self.counts.insert(msg.src, msg.data.as_u64());
                self.maybe_merge(ctx);
            }
            TAG_KEY => {
                self.bucket.push(msg.data.as_u64());
                self.received_keys += 1;
                self.maybe_merge(ctx);
            }
            other => unreachable!("unknown tag {other}"),
        }
    }
}

impl SplitterProc {
    fn maybe_select(&mut self, ctx: &mut Ctx<'_>) {
        // Processor 0 only: all samples in and local sort done.
        if self.phase == SsPhase::AwaitSplitters
            && self.samples.len() == self.samples_expected + self.samples_per_proc
        {
            self.phase = SsPhase::SelectingSplitters;
            ctx.compute(sort_cost(self.samples.len() as u64), STEP_SELECT);
        }
    }
}

/// Run splitter sort over `keys` (distributed round-robin).
pub fn run_splitter_sort(m: &LogP, keys: &[u64], config: SimConfig) -> SortRun {
    let p = m.p;
    assert!(p >= 2 && (p as u64).is_power_of_two());
    let samples_per_proc = (2 * (p as usize)).min(keys.len() / p as usize).max(1);
    let run = execute(Sim::new(*m, config), 0..p, None, |q, out| {
        let local = dealt(keys, p, q);
        assert!(!local.is_empty(), "every processor needs at least one key");
        SplitterProc {
            keys: local,
            samples_per_proc,
            phase: SsPhase::LocalSort,
            samples: Vec::new(),
            samples_expected: 0,
            splitters: Vec::new(),
            splitter_count: 0,
            outgoing: Vec::new(),
            next_send: 0,
            bucket: Vec::new(),
            counts: HashMap::new(),
            received_keys: 0,
            sent_done: false,
            out,
        }
    })
    .expect("splitter sort terminates");
    // A rank finishes at the end of its merge.
    let completion = run.finals.iter().map(|f| f.2).max().unwrap_or(0);
    sorted(run, completion)
}

/// The keys rank `q` of `p` is dealt round-robin.
fn dealt(keys: &[u64], p: u32, q: ProcId) -> Vec<u64> {
    keys.iter()
        .skip(q as usize)
        .step_by(p as usize)
        .copied()
        .collect()
}

// ---------------------------------------------------------------------
// Bitonic sort (block compare-split on a hypercube).
// ---------------------------------------------------------------------

/// One rank of the block bitonic sort. Step 0 sorts the local run; step
/// `r + 1` is compare-split round `r`: ship the whole run to the partner
/// across one hypercube dimension, then keep the lower or upper half of
/// the union.
struct Bitonic {
    me: ProcId,
    run: Vec<u64>,
}

/// Stage `i` and dimension `j` of round `r`: stage `i` runs its rounds
/// for `j = i, i - 1, …, 0`.
fn stage(r: u32) -> (u32, u32) {
    let mut i = 0;
    while (i + 1) * (i + 2) / 2 <= r {
        i += 1;
    }
    (i, i - (r - i * (i + 1) / 2))
}

impl Steps for Bitonic {
    type Final = Vec<u64>;

    fn send(&mut self, s: u32, out: &mut Out<'_, '_>) {
        if s == 0 {
            return;
        }
        let partner = self.me ^ (1 << stage(s - 1).1);
        for &k in &self.run {
            out.send(partner, TAG_XCHG, 0, k);
        }
        // One cycle per key shipped.
        out.compute(self.run.len() as u64 * CMP_COST);
    }

    fn expect(&self, s: u32) -> usize {
        if s == 0 {
            0
        } else {
            self.run.len()
        }
    }

    fn fold(&mut self, s: u32, theirs: &[Arrival]) -> Cycles {
        let need = self.run.len();
        if s == 0 {
            self.run.sort_unstable();
            return sort_cost(need as u64);
        }
        let (i, j) = stage(s - 1);
        let ascending = (self.me >> (i + 1)) & 1 == 0;
        let keep_low = ((self.me >> j) & 1 == 0) == ascending;
        let mut all = Vec::with_capacity(2 * need);
        all.extend_from_slice(&self.run);
        all.extend(theirs.iter().map(|a| a.word));
        all.sort_unstable();
        self.run = if keep_low {
            all[..need].to_vec()
        } else {
            all[need..].to_vec()
        };
        // The merge: 2·n/P key operations.
        2 * need as u64 * CMP_COST
    }

    fn finish(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.run)
    }
}

/// Run bitonic sort over `keys` (distributed round-robin; `n` must be a
/// multiple of `P` so compare-split halves stay equal).
pub fn run_bitonic_sort(m: &LogP, keys: &[u64], config: SimConfig) -> SortRun {
    let p = m.p;
    assert!(p >= 2 && (p as u64).is_power_of_two());
    assert_eq!(
        keys.len() % p as usize,
        0,
        "bitonic block sort needs n divisible by P"
    );
    let d = logp_core::cost::log2_exact(p as u64);
    let steps = 1 + d * (d + 1) / 2;
    let run = run_steps(Sim::new(*m, config), steps, |q| Bitonic {
        me: q,
        run: dealt(keys, p, q),
    });
    // A rank is done when its last merge ends, after the fold that
    // stamped its final; the run ends with the last of those merges.
    let completion = run.result.stats.completion;
    sorted(run, completion)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize, seed: u64) -> Vec<u64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % 100_000
            })
            .collect()
    }

    fn check_sorted(run: &SortRun, input: &[u64]) {
        let mut expected = input.to_vec();
        expected.sort_unstable();
        assert_eq!(run.output, expected, "output must be the sorted input");
    }

    #[test]
    fn splitter_sort_is_correct() {
        let m = LogP::new(6, 2, 4, 4).unwrap();
        let input = keys(400, 11);
        let run = run_splitter_sort(&m, &input, SimConfig::default());
        check_sorted(&run, &input);
    }

    #[test]
    fn bitonic_sort_is_correct() {
        let m = LogP::new(6, 2, 4, 8).unwrap();
        let input = keys(512, 5);
        let run = run_bitonic_sort(&m, &input, SimConfig::default());
        check_sorted(&run, &input);
    }

    #[test]
    fn sorts_correct_under_jitter() {
        let m = LogP::new(10, 2, 3, 4).unwrap();
        let input = keys(256, 23);
        for seed in 0..3 {
            let cfg = SimConfig::default().with_jitter(9).with_seed(seed);
            check_sorted(&run_splitter_sort(&m, &input, cfg.clone()), &input);
            check_sorted(&run_bitonic_sort(&m, &input, cfg), &input);
        }
    }

    #[test]
    fn splitter_moves_data_once_bitonic_logsq_times() {
        let m = LogP::new(60, 20, 40, 8).unwrap();
        let input = keys(1024, 9);
        let sp = run_splitter_sort(&m, &input, SimConfig::default());
        let bi = run_bitonic_sort(&m, &input, SimConfig::default());
        // Bitonic exchanges the full data log P (log P + 1)/2 = 6 times;
        // splitter moves it about once (plus samples/splitters/counts).
        assert!(
            bi.messages > 3 * sp.messages,
            "bitonic {} vs splitter {} messages",
            bi.messages,
            sp.messages
        );
        assert!(
            bi.completion > sp.completion,
            "bitonic {} should be slower than splitter {}",
            bi.completion,
            sp.completion
        );
    }

    #[test]
    fn splitter_sort_handles_duplicate_keys() {
        let m = LogP::new(6, 2, 4, 4).unwrap();
        let input = vec![7u64; 100];
        let run = run_splitter_sort(&m, &input, SimConfig::default());
        check_sorted(&run, &input);
    }

    #[test]
    fn bitonic_sort_handles_already_sorted_input() {
        let m = LogP::new(6, 2, 4, 4).unwrap();
        let input: Vec<u64> = (0..256).collect();
        let run = run_bitonic_sort(&m, &input, SimConfig::default());
        check_sorted(&run, &input);
    }
}
