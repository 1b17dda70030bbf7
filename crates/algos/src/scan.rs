//! Parallel prefix (scan).
//!
//! §6.2 notes the scan-model extends the PRAM with unit-time scans
//! because "for integer scan operations this is approximately the case on
//! the CM-2 and CM-5" (the CM-5 has a hardware control network). Under
//! plain LogP there is no such magic primitive: the scan is `log P`
//! rounds of recursive doubling, each round a 1-relation. This module
//! implements it for per-processor blocks of values (local prefix +
//! cross-processor exclusive scan + local fix-up).

use crate::step::{run_steps, Arrival, Out, Steps};
use logp_core::{Cycles, LogP, ProcId};
use logp_sim::{Sim, SimConfig};

const TAG_SCAN: u32 = 0x70;

/// One rank of the block scan over `rounds` rounds of recursive doubling.
/// Step 0 is the local inclusive prefix; step `r + 1` is round `r`, in
/// which rank `i` sends its partial to `i + 2^r` and adds the one from
/// `i - 2^r` (where they exist); the step after the rounds adds the carry
/// to the local prefix.
struct Scan {
    me: ProcId,
    p: u32,
    rounds: u32,
    values: Vec<u64>,
    /// Everything strictly to this rank's left folded in so far.
    carry: u64,
    /// This rank's block plus the carry: what recursive doubling forwards.
    partial: u64,
}

impl Scan {
    /// The stride of step `s` if it is a round.
    fn stride(&self, s: u32) -> Option<u32> {
        (1..=self.rounds).contains(&s).then(|| 1 << (s - 1))
    }
}

impl Steps for Scan {
    type Final = Vec<u64>;

    fn send(&mut self, s: u32, out: &mut Out<'_, '_>) {
        if let Some(dst) = self.stride(s).map(|k| self.me + k) {
            if dst < self.p {
                out.send(dst, TAG_SCAN, 0, self.partial);
            }
        }
    }

    fn expect(&self, s: u32) -> usize {
        usize::from(self.stride(s).is_some_and(|k| self.me >= k))
    }

    fn fold(&mut self, s: u32, msgs: &[Arrival]) -> Cycles {
        let n = self.values.len() as u64;
        if s == 0 {
            for i in 1..self.values.len() {
                self.values[i] += self.values[i - 1];
            }
            self.partial = self.values.last().copied().unwrap_or(0);
            n
        } else if s <= self.rounds {
            let Some(a) = msgs.first() else { return 0 };
            self.carry += a.word;
            self.partial += a.word;
            1 // one addition
        } else {
            for v in &mut self.values {
                *v += self.carry;
            }
            n
        }
    }

    fn finish(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.values)
    }

    fn steps(&self) -> u32 {
        self.rounds + 2
    }
}

/// Result of a scan run.
#[derive(Debug, Clone)]
pub struct ScanRun {
    /// The inclusive prefix sums, concatenated in processor order.
    pub prefix: Vec<u64>,
    pub completion: Cycles,
    pub messages: u64,
}

/// Run an inclusive prefix sum over `values` distributed in blocks.
pub fn run_scan(m: &LogP, values: &[u64], config: SimConfig) -> ScanRun {
    let p = m.p;
    assert!(p >= 1);
    assert!(
        values.len().is_multiple_of(p as usize),
        "block scan wants n divisible by P"
    );
    let block = values.len() / p as usize;
    let rounds = logp_core::cost::log2_ceil(p as u64) as u32;
    let mut run = run_steps(Sim::new(*m, config), 0..m.p, None, |q| {
        let at = q as usize * block;
        Scan {
            me: q,
            p,
            rounds,
            values: values[at..at + block].to_vec(),
            carry: 0,
            partial: 0,
        }
    })
    .expect("every rank folds its last step once");
    run.finals.sort_by_key(|f| f.0);
    ScanRun {
        prefix: run.finals.into_iter().flat_map(|f| f.1).collect(),
        completion: run.result.stats.completion,
        messages: run.result.stats.total_msgs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(values: &[u64]) -> Vec<u64> {
        values
            .iter()
            .scan(0u64, |acc, &v| {
                *acc += v;
                Some(*acc)
            })
            .collect()
    }

    #[test]
    fn scan_matches_reference() {
        let m = LogP::new(6, 2, 4, 8).unwrap();
        let values: Vec<u64> = (0..64).map(|i| (i * 7 + 3) % 23).collect();
        let run = run_scan(&m, &values, SimConfig::default());
        assert_eq!(run.prefix, reference(&values));
    }

    #[test]
    fn scan_works_for_non_power_of_two_p() {
        let m = LogP::new(6, 2, 4, 5).unwrap();
        let values: Vec<u64> = (0..35).map(|i| i + 1).collect();
        let run = run_scan(&m, &values, SimConfig::default());
        assert_eq!(run.prefix, reference(&values));
    }

    #[test]
    fn scan_correct_under_jitter() {
        let m = LogP::new(10, 1, 2, 16).unwrap();
        let values: Vec<u64> = (0..128).map(|i| i % 13).collect();
        for seed in 0..4 {
            let cfg = SimConfig::default().with_jitter(9).with_seed(seed);
            let run = run_scan(&m, &values, cfg);
            assert_eq!(run.prefix, reference(&values), "seed {seed}");
        }
    }

    #[test]
    fn single_processor_scan_is_local() {
        let m = LogP::new(6, 2, 4, 1).unwrap();
        let values = vec![5u64, 1, 2];
        let run = run_scan(&m, &values, SimConfig::default());
        assert_eq!(run.prefix, vec![5, 6, 8]);
        assert_eq!(run.messages, 0);
    }

    #[test]
    fn message_count_is_recursive_doubling() {
        // Round r has P - 2^r senders; total = Σ (P - 2^r) for 2^r < P.
        let p = 8u32;
        let m = LogP::new(6, 2, 4, p).unwrap();
        let values: Vec<u64> = (0..32).collect();
        let run = run_scan(&m, &values, SimConfig::default());
        let expected: u64 = (0..3).map(|r| p as u64 - (1 << r)).sum();
        assert_eq!(run.messages, expected);
    }
}
