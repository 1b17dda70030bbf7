//! Distributed LSD radix sort.
//!
//! The paper's splitter-sort citation \[7\] (Blelloch et al.) is a
//! radix-vs-sample-sort shootout on the CM-2; this module supplies the
//! radix side so the comparison can be rerun under LogP. The structure
//! per digit pass is compute–exchange–compute, like everything else in
//! the paper:
//!
//! 1. local histogram of the current digit;
//! 2. histograms gathered at processor 0, which computes each
//!    processor's global rank offsets (digit-major, processor-minor —
//!    this ordering makes the pass *stable*) and scatters them back;
//! 3. every key moves to the processor owning its global rank —
//!    an all-to-all whose balance depends on the key distribution.
//!
//! Radix moves all data once per pass (`⌈key bits / digit bits⌉` times
//! total) where splitter sort moves it once — the same volume argument
//! as bitonic, softened by radix's fewer, larger passes.

use logp_core::{Cycles, LogP, ProcId};
use logp_sim::{Ctx, Data, Message, Process, SharedCell, Sim, SimConfig};
use std::collections::HashMap;

const TAG_HIST: u32 = 0xF0; // Pair(pass<<16|digit, count)
const TAG_OFFS: u32 = 0xF1; // Pair(pass<<16|digit, global offset)
const TAG_KEY: u32 = 0xF2; // Pair(pass<<40|rank, key)

const STEP_HISTOGRAM: u64 = 1;
const STEP_PLACE: u64 = 2;

#[derive(Debug, Default)]
struct PassBuf {
    offsets: HashMap<u16, u64>,
    hist_rows: HashMap<ProcId, Vec<(u16, u64)>>,
    keys: Vec<(u64, u64)>, // (global rank, key)
}

struct RadixProc {
    keys: Vec<u64>,
    /// Incoming keys for the current pass, placed by local slot.
    incoming: Vec<Option<u64>>,
    placed: usize,
    pass: u64,
    passes: u64,
    digit_bits: u32,
    block: usize,
    bufs: HashMap<u64, PassBuf>,
    /// Root-side accumulation of histograms.
    hist_seen: usize,
    phase_sent: bool,
    out: SharedCell<Vec<(ProcId, Vec<u64>)>>,
}

impl RadixProc {
    fn radix(&self) -> u64 {
        1 << self.digit_bits
    }

    fn digit_of(&self, key: u64) -> u64 {
        (key >> (self.pass as u32 * self.digit_bits)) & (self.radix() - 1)
    }

    fn begin_pass(&mut self, ctx: &mut Ctx<'_>) {
        if self.pass >= self.passes {
            let me = ctx.me();
            let keys = std::mem::take(&mut self.keys);
            self.out.with(|o| o.push((me, keys)));
            ctx.halt();
            return;
        }
        self.phase_sent = false;
        // Histogram cost: one cycle per key.
        ctx.compute(self.keys.len() as u64, STEP_HISTOGRAM);
    }

    fn send_histogram(&mut self, ctx: &mut Ctx<'_>) {
        let mut hist = vec![0u64; self.radix() as usize];
        for &k in &self.keys {
            hist[self.digit_of(k) as usize] += 1;
        }
        let me = ctx.me();
        let rows: Vec<(u16, u64)> = hist
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(d, &c)| (d as u16, c))
            .collect();
        if me == 0 {
            self.bufs
                .entry(self.pass)
                .or_default()
                .hist_rows
                .insert(0, rows);
            self.hist_seen += 1;
            // Peers that raced ahead may have delivered their complete
            // pass-r histograms while this processor was still placing
            // pass r-1 keys; those buffered rows were not counted at
            // arrival time (wrong pass), so absorb them now.
            self.absorb_buffered_histograms();
            self.maybe_scatter_offsets(ctx);
        } else {
            // Send an end marker carrying the row count (digit field
            // 0xFFFF) first, then the sparse rows.
            ctx.send(
                0,
                TAG_HIST,
                Data::Pair(self.pass << 16 | 0xFFFF, rows.len() as u64),
            );
            for (d, c) in rows {
                ctx.send(0, TAG_HIST, Data::Pair(self.pass << 16 | d as u64, c));
            }
        }
    }

    /// Count any fully buffered histograms for the current pass whose
    /// end marker is still present (they arrived before this processor
    /// entered the pass). Stripping the marker marks them as counted.
    fn absorb_buffered_histograms(&mut self) {
        let buf = self.bufs.entry(self.pass).or_default();
        for row in buf.hist_rows.values_mut() {
            let marker = row.iter().find(|(d, _)| *d == 0xFFFF).map(|(_, c)| *c);
            if marker == Some(row.len() as u64 - 1) {
                row.retain(|(d, _)| *d != 0xFFFF);
                self.hist_seen += 1;
            }
        }
    }

    /// Root: once all histograms are in, compute digit-major global
    /// offsets and send each processor its per-digit start ranks.
    fn maybe_scatter_offsets(&mut self, ctx: &mut Ctx<'_>) {
        let p = ctx.procs();
        if ctx.me() != 0 || self.hist_seen < p as usize {
            return;
        }
        self.hist_seen = 0;
        let radix = self.radix() as usize;
        let buf = self.bufs.entry(self.pass).or_default();
        // counts[d][q]
        let mut counts = vec![vec![0u64; p as usize]; radix];
        for (q, rows) in &buf.hist_rows {
            for &(d, c) in rows {
                counts[d as usize][*q as usize] = c;
            }
        }
        buf.hist_rows.clear();
        // Digit-major, processor-minor exclusive scan.
        let mut running = 0u64;
        let mut offsets = vec![vec![0u64; p as usize]; radix];
        for d in 0..radix {
            for q in 0..p as usize {
                offsets[d][q] = running;
                running += counts[d][q];
            }
        }
        // Scatter: processor q gets its offset for every digit it holds.
        for q in 1..p {
            for d in 0..radix {
                if counts[d][q as usize] > 0 {
                    ctx.send(
                        q,
                        TAG_OFFS,
                        Data::Pair(self.pass << 16 | d as u64, offsets[d][q as usize]),
                    );
                }
            }
            // End marker: number of digit rows sent.
            let rows = (0..radix).filter(|&d| counts[d][q as usize] > 0).count();
            ctx.send(
                q,
                TAG_OFFS,
                Data::Pair(self.pass << 16 | 0xFFFF, rows as u64),
            );
        }
        // Root's own offsets apply immediately.
        let own: HashMap<u16, u64> = (0..radix)
            .filter(|&d| counts[d][0] > 0)
            .map(|d| (d as u16, offsets[d][0]))
            .collect();
        self.bufs.entry(self.pass).or_default().offsets = own;
        self.redistribute(ctx);
    }

    /// With offsets known: assign each local key its global rank and ship
    /// it to the rank's owner.
    fn redistribute(&mut self, ctx: &mut Ctx<'_>) {
        if self.phase_sent {
            return;
        }
        self.phase_sent = true;
        let me = ctx.me();
        let keys = std::mem::take(&mut self.keys);
        let mut next_rank: HashMap<u16, u64> = self
            .bufs
            .entry(self.pass)
            .or_default()
            .offsets
            .clone()
            .into_iter()
            .collect();
        for k in keys {
            let d = self.digit_of(k) as u16;
            let rank = next_rank
                .get_mut(&d)
                .expect("every held digit has an offset");
            let r = *rank;
            *rank += 1;
            let dst = (r / self.block as u64) as ProcId;
            if dst == me {
                self.place(r, k, ctx);
            } else {
                ctx.send(dst, TAG_KEY, Data::Pair(self.pass << 40 | r, k));
            }
        }
        self.drain_buffered(ctx);
    }

    fn place(&mut self, rank: u64, key: u64, ctx: &mut Ctx<'_>) {
        let slot = (rank % self.block as u64) as usize;
        debug_assert!(self.incoming[slot].is_none(), "rank collision at {rank}");
        self.incoming[slot] = Some(key);
        self.placed += 1;
        if self.placed == self.block {
            self.keys = self
                .incoming
                .iter_mut()
                .map(|s| s.take().expect("full"))
                .collect();
            self.placed = 0;
            // Placement cost: one cycle per key.
            ctx.compute(self.block as u64, STEP_PLACE);
        }
    }

    fn drain_buffered(&mut self, ctx: &mut Ctx<'_>) {
        let buffered = std::mem::take(&mut self.bufs.entry(self.pass).or_default().keys);
        for (r, k) in buffered {
            self.place(r, k, ctx);
        }
    }
}

impl Process for RadixProc {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.begin_pass(ctx);
    }

    fn on_compute_done(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        match tag {
            STEP_HISTOGRAM => self.send_histogram(ctx),
            STEP_PLACE => {
                self.pass += 1;
                self.begin_pass(ctx);
            }
            other => unreachable!("unknown step {other}"),
        }
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Ctx<'_>) {
        match msg.tag {
            TAG_HIST => {
                let (packed, c) = msg.data.as_pair();
                let (pass, d) = (packed >> 16, (packed & 0xFFFF) as u16);
                let buf = self.bufs.entry(pass).or_default();
                let row = buf.hist_rows.entry(msg.src).or_default();
                if d == 0xFFFF {
                    // End marker: c = expected row count; completeness is
                    // (marker seen) && rows == c. Store the marker as a
                    // sentinel row.
                    row.push((0xFFFF, c));
                } else {
                    row.push((d, c));
                }
                // A processor's histogram is complete when the marker is
                // present and the row count matches.
                let complete = {
                    let marker = row.iter().find(|(d, _)| *d == 0xFFFF).map(|(_, c)| *c);
                    marker == Some(row.len() as u64 - 1)
                };
                if complete && pass == self.pass {
                    // Strip the marker before counting this processor.
                    let buf = self.bufs.entry(pass).or_default();
                    let row = buf.hist_rows.get_mut(&msg.src).expect("present");
                    row.retain(|(d, _)| *d != 0xFFFF);
                    self.hist_seen += 1;
                    self.maybe_scatter_offsets(ctx);
                }
            }
            TAG_OFFS => {
                let (packed, v) = msg.data.as_pair();
                let (pass, d) = (packed >> 16, (packed & 0xFFFF) as u16);
                let buf = self.bufs.entry(pass).or_default();
                if d == 0xFFFF {
                    buf.hist_rows.insert(ProcId::MAX, vec![(0xFFFF, v)]);
                } else {
                    buf.offsets.insert(d, v);
                }
                let expected = buf
                    .hist_rows
                    .get(&ProcId::MAX)
                    .and_then(|r| r.first())
                    .map(|(_, c)| *c as usize);
                if pass == self.pass && expected == Some(self.bufs[&pass].offsets.len()) {
                    self.redistribute(ctx);
                }
            }
            TAG_KEY => {
                let (packed, k) = msg.data.as_pair();
                let (pass, rank) = (packed >> 40, packed & 0xFF_FFFF_FFFF);
                if pass == self.pass && self.phase_sent {
                    self.place(rank, k, ctx);
                } else {
                    self.bufs.entry(pass).or_default().keys.push((rank, k));
                }
            }
            other => unreachable!("unknown tag {other}"),
        }
    }
}

/// Result of a radix sort run.
#[derive(Debug, Clone)]
pub struct RadixRun {
    pub output: Vec<u64>,
    pub completion: Cycles,
    pub messages: u64,
}

/// Distributed LSD radix sort of `keys` (block-distributed), with
/// `digit_bits`-wide digits covering `key_bits` total.
pub fn run_radix_sort(
    m: &LogP,
    keys: &[u64],
    digit_bits: u32,
    key_bits: u32,
    config: SimConfig,
) -> RadixRun {
    let p = m.p;
    assert!(p >= 2);
    assert_eq!(keys.len() % p as usize, 0, "keys must split evenly");
    assert!(
        (1..=16).contains(&digit_bits),
        "digit width must be 1..=16 bits"
    );
    let max_key = keys.iter().copied().max().unwrap_or(0);
    assert!(
        key_bits >= 64 - max_key.leading_zeros(),
        "key_bits must cover the largest key"
    );
    let block = keys.len() / p as usize;
    let passes = key_bits.div_ceil(digit_bits) as u64;
    let out: SharedCell<Vec<(ProcId, Vec<u64>)>> = SharedCell::new();
    let mut sim = Sim::new(*m, config);
    for q in 0..p {
        sim.set_process(
            q,
            Box::new(RadixProc {
                keys: keys[q as usize * block..(q as usize + 1) * block].to_vec(),
                incoming: vec![None; block],
                placed: 0,
                pass: 0,
                passes,
                digit_bits,
                block,
                bufs: HashMap::new(),
                hist_seen: 0,
                phase_sent: false,
                out: out.clone(),
            }),
        );
    }
    let r = sim.run().expect("radix terminates");
    let mut runs = out.get();
    assert_eq!(runs.len(), p as usize, "every processor must finish");
    runs.sort_by_key(|r| r.0);
    RadixRun {
        output: runs.into_iter().flat_map(|r| r.1).collect(),
        completion: r.stats.completion,
        messages: r.stats.total_msgs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize, seed: u64, modulus: u64) -> Vec<u64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % modulus
            })
            .collect()
    }

    #[test]
    fn radix_sorts_correctly() {
        let m = LogP::new(6, 2, 4, 4).unwrap();
        let input = keys(256, 3, 1 << 16);
        let run = run_radix_sort(&m, &input, 8, 16, SimConfig::default());
        let mut expect = input.clone();
        expect.sort_unstable();
        assert_eq!(run.output, expect);
    }

    #[test]
    fn radix_handles_skewed_keys() {
        // All keys share high digits: passes where one digit holds
        // everything (maximally unbalanced histograms).
        let m = LogP::new(6, 2, 4, 4).unwrap();
        let input: Vec<u64> = (0..64).map(|i| 0xAB00 + (i % 7)).collect();
        let run = run_radix_sort(&m, &input, 4, 16, SimConfig::default());
        let mut expect = input.clone();
        expect.sort_unstable();
        assert_eq!(run.output, expect);
    }

    #[test]
    fn radix_survives_a_slow_root() {
        // Regression: a peer can deliver its *entire* next-pass histogram
        // while the root is still placing the previous pass's keys (the
        // completeness check at arrival sees the wrong pass). Heavy
        // per-processor skew plus jitter makes the root lag; before the
        // buffered-histogram absorption fix this configuration hung and
        // tripped the every-processor-must-finish assertion.
        // Large blocks (1024 keys => 1024-cycle placement computes) and a
        // narrow radix (16 rows => ~50-cycle histogram trains) let a 30%
        // skew delay the root past entire peer histograms.
        let m = LogP::new(20, 2, 3, 8).unwrap();
        let input = keys(8192, 13, 1 << 12);
        let mut expect = input.clone();
        expect.sort_unstable();
        for seed in 0..10 {
            let cfg = SimConfig::default()
                .with_jitter(18)
                .with_skew(450)
                .with_seed(seed);
            let run = run_radix_sort(&m, &input, 4, 12, cfg);
            assert_eq!(run.output, expect, "seed {seed}");
        }
    }

    #[test]
    fn radix_correct_under_jitter() {
        let m = LogP::new(10, 2, 3, 4).unwrap();
        let input = keys(128, 9, 1 << 12);
        let mut expect = input.clone();
        expect.sort_unstable();
        for seed in 0..3 {
            let cfg = SimConfig::default().with_jitter(9).with_seed(seed);
            let run = run_radix_sort(&m, &input, 6, 12, cfg);
            assert_eq!(run.output, expect, "seed {seed}");
        }
    }

    #[test]
    fn digit_width_tradeoff_is_a_hot_spot_lesson() {
        // Wide digits halve the data-moving passes (fewer total
        // messages), but this implementation's *centralized* histogram
        // exchange funnels radix·P rows through processor 0's interface —
        // and at radix 256 that serialized hot spot costs more than the
        // saved pass. Under the PRAM this bookkeeping would be free;
        // under LogP the centralized scan is the bottleneck, which is
        // precisely why production radix sorts distribute the histogram
        // scan. (Blelloch et al. [7] use scan primitives throughout.)
        let m = LogP::new(60, 20, 40, 8).unwrap();
        let input = keys(8192, 5, 1 << 16);
        let narrow = run_radix_sort(&m, &input, 4, 16, SimConfig::default());
        let wide = run_radix_sort(&m, &input, 8, 16, SimConfig::default());
        assert_eq!(narrow.output, wide.output);
        assert!(
            wide.messages < narrow.messages,
            "wide digits move less data: {} vs {}",
            wide.messages,
            narrow.messages
        );
        assert!(
            wide.completion > narrow.completion,
            "...but the centralized radix-256 histogram hot-spots the root: {} vs {}",
            wide.completion,
            narrow.completion
        );
    }

    #[test]
    fn splitter_sort_beats_radix_on_data_volume() {
        // Splitter sort moves data once; 2-pass radix moves it twice plus
        // histograms.
        use crate::sort::run_splitter_sort;
        let m = LogP::new(60, 20, 40, 8).unwrap();
        let input = keys(1024, 11, 1 << 16);
        let sp = run_splitter_sort(&m, &input, SimConfig::default());
        let rx = run_radix_sort(&m, &input, 8, 16, SimConfig::default());
        assert_eq!(sp.output, rx.output);
        assert!(
            rx.messages > sp.messages,
            "radix {} vs splitter {} messages",
            rx.messages,
            sp.messages
        );
    }
}
