//! E14 — §4.2.2: splitter (sample) sort vs bitonic sort. Splitter sort
//! moves the data across the network once; bitonic moves it
//! `log P (log P + 1)/2` times. The check holds both counts to their
//! formulas and splitter sort ahead of bitonic at the largest `n`.

use logp_algos::radix::{run_radix_sort, RadixRun};
use logp_algos::sort::{run_bitonic_sort, run_splitter_sort, SortRun};
use logp_bench::{f2, Args, Table};
use logp_core::LogP;
use logp_sim::runner::sweep_map;
use logp_sim::SimConfig;

fn keys(n: usize, seed: u64) -> Vec<u64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % 1_000_000
        })
        .collect()
}

/// Splitter, radix and bitonic sort of the same keys, each output checked
/// against a sequential sort, at each of the scenario's sizes.
fn sorts(args: &Args, m: &LogP) -> (Vec<usize>, Vec<(SortRun, RadixRun, SortRun)>) {
    let sizes: Vec<usize> = args.pick(
        vec![1 << 10, 1 << 12, 1 << 14],
        vec![1 << 12, 1 << 14, 1 << 16, 1 << 18],
    );
    // Nine independent sorts (3 sizes x 3 algorithms): fan them all out.
    let runs = sweep_map(args.threads, &sizes, |&n| {
        let input = keys(n, 7);
        let sp = run_splitter_sort(m, &input, SimConfig::default());
        let rx = run_radix_sort(m, &input, 8, 20, SimConfig::default());
        let bi = run_bitonic_sort(m, &input, SimConfig::default());
        let mut expect = input;
        expect.sort_unstable();
        assert_eq!(sp.output, expect, "splitter output must be sorted");
        assert_eq!(rx.output, expect, "radix output must be sorted");
        assert_eq!(bi.output, expect, "bitonic output must be sorted");
        (sp, rx, bi)
    });
    (sizes, runs)
}

/// Bitonic sends `n` keys in each of its `d(d + 1)/2` rounds (`d = log₂
/// P`) and nothing else. Splitter sort sends `s` samples from each rank
/// but rank 0, the `P - 1` splitters to each of those ranks, `P - 1`
/// counts from every rank, and each key at most once, so its message count
/// less that traffic lies in `0 ..= n`. And it finishes first at the
/// largest `n`.
pub fn check(args: &Args) {
    let m = LogP::new(60, 20, 40, 16).unwrap();
    let (p, d) = (u64::from(m.p), u64::from(m.p.ilog2()));
    let (sizes, runs) = sorts(args, &m);
    for (&n, (sp, _, bi)) in sizes.iter().zip(&runs) {
        let n = n as u64;
        assert_eq!(
            bi.messages,
            n * d * (d + 1) / 2,
            "bitonic key messages, n = {n}"
        );
        let samples = (2 * p).min(n / p).max(1);
        let fixed = samples * (p - 1) + (p - 1) * (p - 1) + p * (p - 1);
        assert!(
            (fixed..=fixed + n).contains(&sp.messages),
            "splitter sort sent {} messages, n = {n}: not {fixed} + at most n keys",
            sp.messages
        );
    }
    let (sp, _, bi) = runs.last().expect("at least one size");
    assert!(
        sp.completion < bi.completion,
        "at n = {}: splitter sort {} cycles, bitonic {}",
        sizes[sizes.len() - 1],
        sp.completion,
        bi.completion
    );
    println!("sort_compare --check: all pins hold");
}

pub fn run(args: &Args) {
    let m = LogP::new(60, 20, 40, 16).unwrap();
    println!("§4.2.2 — sorting on {m}\n");
    let mut t = Table::new(&[
        "n",
        "splitter",
        "radix (8-bit)",
        "bitonic",
        "bitonic/splitter",
        "splitter msgs",
        "radix msgs",
        "bitonic msgs",
    ]);
    let (sizes, runs) = sorts(args, &m);
    for (&n, (sp, rx, bi)) in sizes.iter().zip(&runs) {
        t.row(&[
            n.to_string(),
            sp.completion.to_string(),
            rx.completion.to_string(),
            bi.completion.to_string(),
            f2(bi.completion as f64 / sp.completion as f64),
            sp.messages.to_string(),
            rx.messages.to_string(),
            bi.messages.to_string(),
        ]);
    }
    t.print();
    println!(
        "\nall outputs verified against a sequential sort. Splitter sort's\n\
         compute-remap-compute structure crosses the network once; 20-bit keys\n\
         cost radix three full crossings plus histogram scans; bitonic's\n\
         oblivious schedule crosses log P(log P+1)/2 = 10 times at P = 16\n\
         (the Blelloch et al. comparison the paper cites, rerun under LogP)."
    );
}
