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
use crate::tree::Run;
use logp_core::broadcast::binomial_children;
use logp_core::{Cycles, LogP, ProcId};
use logp_sim::{Sim, SimConfig};

const TAG_SAMPLE: u32 = 0x31;
const TAG_SPLITTER: u32 = 0x32;
const TAG_KEY: u32 = 0x33;
const TAG_COUNT: u32 = 0x34;
const TAG_XCHG: u32 = 0x35;

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

/// Every rank's sorted run, concatenated in rank order. A rank is done
/// when its last merge ends, after the fold that stamped its final; the
/// run ends with the last of those merges.
fn sorted(mut run: Run<Vec<u64>>) -> SortRun {
    run.finals.sort_by_key(|f| f.0);
    SortRun {
        output: run.finals.into_iter().flat_map(|f| f.1).collect(),
        completion: run.result.stats.completion,
        messages: run.result.stats.total_msgs,
    }
}

// ---------------------------------------------------------------------
// Splitter (sample) sort.
// ---------------------------------------------------------------------

/// One rank of splitter sort, `d + 4` steps on `P = 2^d` ranks. Step 0
/// sorts the local run. Step 1 sends `s` regular samples to rank 0, which
/// sorts them all and picks `P - 1` splitters. Steps `2 ..= d + 1` carry
/// the splitters down the binomial tree one level a step: a rank at depth
/// `k` (`k` bits set) sends them to every child at step `2 + k`, the
/// child with the largest subtree first, since it heads the longest chain
/// of levels still to go. Step `d + 2` tells every other rank how many
/// keys it gets, so step `d + 3` knows how many to wait for; it sends the
/// keys (one cycle each) and merges what arrived.
struct Splitter {
    me: ProcId,
    p: u32,
    keys: Vec<u64>,
    /// Samples each rank sends.
    samples: usize,
    /// Rank 0's samples, then every rank's `P - 1` splitters.
    splitters: Vec<u64>,
    /// Keys the last step brings in.
    incoming: usize,
}

impl Splitter {
    /// Step of the count exchange; the key exchange is the one after.
    fn counts_step(&self) -> u32 {
        2 + self.p.ilog2()
    }

    /// The part of the sorted run that goes to rank `d`: keys above
    /// splitter `d - 1`, up to splitter `d`.
    fn bucket(&self, d: ProcId) -> &[u64] {
        let cut = |j: usize| match j {
            0 => 0,
            j if j == self.p as usize => self.keys.len(),
            j => self.keys.partition_point(|&k| k <= self.splitters[j - 1]),
        };
        &self.keys[cut(d as usize)..cut(d as usize + 1)]
    }

    /// Every other rank, in the staggered order `me + 1, me + 2, …`.
    fn others(&self) -> impl Iterator<Item = ProcId> {
        let (me, p) = (self.me, self.p);
        (1..p).map(move |b| (me + b) % p)
    }
}

impl Steps for Splitter {
    type Final = Vec<u64>;

    fn send(&mut self, s: u32, out: &mut Out<'_, '_>) {
        let counts = self.counts_step();
        if s == 1 {
            let stride = (self.keys.len() / (self.samples + 1)).max(1);
            let sample = |i: usize| self.keys[(i * stride).min(self.keys.len() - 1)];
            if self.me == 0 {
                self.splitters = (1..=self.samples).map(sample).collect();
            } else {
                for i in 1..=self.samples {
                    out.send(0, TAG_SAMPLE, i, sample(i));
                }
            }
        } else if (2..counts).contains(&s) && self.me.count_ones() == s - 2 {
            for c in binomial_children(self.me, self.p).into_iter().rev() {
                for (i, &sp) in self.splitters.iter().enumerate() {
                    out.send(c, TAG_SPLITTER, i, sp);
                }
            }
        } else if s == counts {
            for d in self.others() {
                out.send(d, TAG_COUNT, 0, self.bucket(d).len() as u64);
            }
        } else if s == counts + 1 {
            for d in self.others() {
                for &k in self.bucket(d) {
                    out.send(d, TAG_KEY, 0, k);
                    // One cycle of local work per key moved.
                    out.compute(CMP_COST);
                }
            }
        }
    }

    fn expect(&self, s: u32) -> usize {
        let (p, counts) = (self.p as usize, self.counts_step());
        match s {
            1 if self.me == 0 => self.samples * (p - 1),
            s if (2..counts).contains(&s) && self.me.count_ones() == s - 1 => p - 1,
            s if s == counts => p - 1,
            s if s == counts + 1 => self.incoming,
            _ => 0,
        }
    }

    fn fold(&mut self, s: u32, msgs: &[Arrival]) -> Cycles {
        let counts = self.counts_step();
        if s == 0 {
            self.keys.sort_unstable();
            sort_cost(self.keys.len() as u64)
        } else if s == 1 && self.me == 0 {
            let mut pool = std::mem::take(&mut self.splitters);
            pool.extend(msgs.iter().map(|a| a.word));
            pool.sort_unstable();
            self.splitters = (1..self.p as usize)
                .map(|i| pool[i * self.samples - 1])
                .collect();
            sort_cost(pool.len() as u64)
        } else if (2..counts).contains(&s) && !msgs.is_empty() {
            self.splitters = vec![0; msgs.len()];
            for a in msgs {
                self.splitters[a.idx()] = a.word;
            }
            0
        } else if s == counts {
            self.incoming = msgs.iter().map(|a| a.word as usize).sum();
            0
        } else if s == counts + 1 {
            let mut run = self.bucket(self.me).to_vec();
            run.extend(msgs.iter().map(|a| a.word));
            run.sort_unstable();
            self.keys = run;
            sort_cost(self.keys.len() as u64)
        } else {
            0
        }
    }

    fn finish(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.keys)
    }

    fn steps(&self) -> u32 {
        self.p.ilog2() + 4
    }
}

/// Run splitter sort over `keys` (distributed round-robin).
pub fn run_splitter_sort(m: &LogP, keys: &[u64], config: SimConfig) -> SortRun {
    let p = m.p;
    assert!(p >= 2 && (p as u64).is_power_of_two());
    let samples = (2 * (p as usize)).min(keys.len() / p as usize).max(1);
    let run = run_steps(Sim::new(*m, config), 0..m.p, None, |q| {
        let local = dealt(keys, p, q);
        assert!(!local.is_empty(), "every processor needs at least one key");
        Splitter {
            me: q,
            p,
            keys: local,
            samples,
            splitters: Vec::new(),
            incoming: 0,
        }
    })
    .expect("every rank folds its last step once");
    sorted(run)
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
    steps: u32,
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

    fn steps(&self) -> u32 {
        self.steps
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
    let run = run_steps(Sim::new(*m, config), 0..m.p, None, |q| Bitonic {
        me: q,
        steps,
        run: dealt(keys, p, q),
    })
    .expect("every rank folds its last step once");
    sorted(run)
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
