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

use crate::step::{run_steps, Arrival, Out, Steps};
use logp_core::{Cycles, LogP, ProcId};
use logp_sim::{Sim, SimConfig};

const TAG_HIST: u32 = 0xF0;
const TAG_OFFS: u32 = 0xF1;
const TAG_KEY: u32 = 0xF2;

/// The steps of one pass, in order.
const COUNT: u32 = 0;
const ROWS: u32 = 1;
const OFFSETS: u32 = 2;
const KEYS: u32 = 3;

/// A digit no key of a rank holds, in rank 0's table of offsets.
const NONE: u64 = u64::MAX;

/// One rank of the radix sort, four steps a pass. At `COUNT` the rank
/// builds its histogram of the pass's digit (one cycle a key) and tells
/// rank 0 how many digits it holds; at `ROWS` it sends rank 0 one
/// `(digit, count)` row for each. Rank 0 then knows every rank's count of
/// every digit, and its exclusive scan, digit-major and rank-minor (which
/// makes the pass stable), gives each rank the global rank of its first
/// key of each digit; `OFFSETS` sends those. At `KEYS` every key goes to
/// the rank owning its global rank, and each rank places what it got (one
/// cycle a key).
struct Radix {
    me: ProcId,
    p: u32,
    keys: Vec<u64>,
    digit_bits: u32,
    passes: u32,
    /// This pass's count of each digit among the rank's keys; from the
    /// offsets on, the global rank its next key of each digit takes.
    hist: Vec<u64>,
    /// Digits the rank holds this pass.
    held: usize,
    /// Rank 0: the rows the others announced.
    rows: usize,
    /// Rank 0: every rank's offset for every digit, digit-major.
    offsets: Vec<u64>,
    /// The keys of the pass, by place in the rank's block.
    placed: Vec<u64>,
    /// Keys that stay with the rank this pass.
    kept: usize,
}

/// The `bits`-wide digit of `key` that the pass of step `s` sorts on.
fn digit(bits: u32, s: u32, key: u64) -> usize {
    ((key >> (s / 4 * bits)) & ((1 << bits) - 1)) as usize
}

impl Radix {
    /// Rank 0: offsets from every rank's counts, given its own and each
    /// `(rank, row)` the others sent.
    fn scan(&mut self, rows: impl Iterator<Item = (usize, u64)>) {
        let p = self.p as usize;
        self.offsets = vec![0; self.hist.len() * p];
        for (d, &c) in self.hist.iter().enumerate() {
            self.offsets[d * p] = c;
        }
        for (q, row) in rows {
            self.offsets[(row & 0xFFFF) as usize * p + q] = row >> 16;
        }
        let mut running = 0;
        for slot in &mut self.offsets {
            let count = *slot;
            *slot = if count == 0 { NONE } else { running };
            running += count;
        }
        for (d, h) in self.hist.iter_mut().enumerate() {
            *h = self.offsets[d * p];
        }
    }
}

impl Steps for Radix {
    type Final = Vec<u64>;

    fn send(&mut self, s: u32, out: &mut Out<'_, '_>) {
        let p = self.p as usize;
        match s % 4 {
            COUNT => {
                self.hist.fill(0);
                for &k in &self.keys {
                    self.hist[digit(self.digit_bits, s, k)] += 1;
                }
                self.held = self.hist.iter().filter(|&&c| c > 0).count();
                out.compute(self.keys.len() as u64);
                if self.me != 0 {
                    out.send(0, TAG_HIST, 0, self.held as u64);
                }
            }
            ROWS if self.me != 0 => {
                // A row packs its count above its 16-bit digit; its index
                // names the sender.
                for (d, &c) in self.hist.iter().enumerate().filter(|h| *h.1 > 0) {
                    out.send(0, TAG_HIST, self.me as usize, c << 16 | d as u64);
                }
            }
            OFFSETS if self.me == 0 => {
                for q in 1..p {
                    for d in 0..self.hist.len() {
                        let at = self.offsets[d * p + q];
                        if at != NONE {
                            out.send(q as ProcId, TAG_OFFS, d, at);
                        }
                    }
                }
            }
            KEYS => {
                let block = self.keys.len() as u64;
                self.kept = 0;
                for &k in &self.keys {
                    let d = digit(self.digit_bits, s, k);
                    let rank = self.hist[d];
                    self.hist[d] += 1;
                    let (dst, slot) = ((rank / block) as ProcId, (rank % block) as usize);
                    if dst == self.me {
                        self.placed[slot] = k;
                        self.kept += 1;
                    } else {
                        out.send(dst, TAG_KEY, slot, k);
                    }
                }
            }
            _ => {}
        }
    }

    fn expect(&self, s: u32) -> usize {
        match (s % 4, self.me == 0) {
            (COUNT, true) => self.p as usize - 1,
            (ROWS, true) => self.rows,
            (OFFSETS, false) => self.held,
            (KEYS, _) => self.keys.len() - self.kept,
            _ => 0,
        }
    }

    fn fold(&mut self, s: u32, msgs: &[Arrival]) -> Cycles {
        match (s % 4, self.me == 0) {
            (COUNT, true) => self.rows = msgs.iter().map(|a| a.word as usize).sum(),
            (ROWS, true) => self.scan(msgs.iter().map(|a| (a.idx(), a.word))),
            (OFFSETS, false) => {
                for a in msgs {
                    self.hist[a.idx()] = a.word;
                }
            }
            (KEYS, _) => {
                for a in msgs {
                    self.placed[a.idx()] = a.word;
                }
                std::mem::swap(&mut self.keys, &mut self.placed);
                return self.keys.len() as u64;
            }
            _ => {}
        }
        0
    }

    fn finish(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.keys)
    }

    fn steps(&self) -> u32 {
        4 * self.passes
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
    let passes = key_bits.div_ceil(digit_bits);
    let mut run = run_steps(Sim::new(*m, config), 0..m.p, None, |q| Radix {
        me: q,
        p,
        keys: keys[q as usize * block..(q as usize + 1) * block].to_vec(),
        digit_bits,
        passes,
        hist: vec![0; 1 << digit_bits],
        held: 0,
        rows: 0,
        offsets: Vec::new(),
        placed: vec![0; block],
        kept: 0,
    })
    .expect("every rank folds its last step once");
    run.finals.sort_by_key(|f| f.0);
    RadixRun {
        output: run.finals.into_iter().flat_map(|f| f.1).collect(),
        completion: run.result.stats.completion,
        messages: run.result.stats.total_msgs,
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
    fn radix_sorts_keys_at_every_digit_maximum() {
        // Rank 1 holds nothing but 0xFFFF: every digit of it is the
        // largest a 1-bit or 16-bit digit can be, and no other rank holds
        // a key with that 16-bit digit.
        let m = LogP::new(6, 2, 4, 4).unwrap();
        let mut input = keys(32, 17, 0xFFFF);
        input[8..16].fill(0xFFFF);
        input[0] = 0xFFFE;
        input[31] = 0;
        let mut expect = input.clone();
        expect.sort_unstable();
        for digit_bits in [1, 16] {
            let run = run_radix_sort(&m, &input, digit_bits, 16, SimConfig::default());
            assert_eq!(run.output, expect, "{digit_bits}-bit digits");
        }
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
        // A peer can deliver its *entire* next-pass histogram while the
        // root is still placing the previous pass's keys; those rows must
        // wait for their step. Heavy per-processor skew plus jitter makes
        // the root lag: large blocks (1024 keys => 1024-cycle placement
        // computes) and a narrow radix (16 rows => ~50-cycle histogram
        // trains) let a 30% skew delay the root past entire peer
        // histograms.
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
