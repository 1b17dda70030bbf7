//! E14 — §4.2.2: splitter (sample) sort vs bitonic sort. Splitter sort
//! moves the data across the network once; bitonic moves it
//! `log P (log P + 1)/2` times.

use logp_algos::radix::run_radix_sort;
use logp_algos::sort::{run_bitonic_sort, run_splitter_sort};
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

pub fn run(args: &Args) {
    let m = LogP::new(60, 20, 40, 16).unwrap();
    let sizes: Vec<usize> = args.pick(
        vec![1 << 10, 1 << 12, 1 << 14],
        vec![1 << 12, 1 << 14, 1 << 16, 1 << 18],
    );

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
    // Nine independent sorts (3 sizes x 3 algorithms): fan them all out.
    let runs = sweep_map(args.threads, &sizes, |&n| {
        let input = keys(n, 7);
        let sp = run_splitter_sort(&m, &input, SimConfig::default());
        let rx = run_radix_sort(&m, &input, 8, 20, SimConfig::default());
        let bi = run_bitonic_sort(&m, &input, SimConfig::default());
        let mut expect = input;
        expect.sort_unstable();
        assert_eq!(sp.output, expect, "splitter output must be sorted");
        assert_eq!(rx.output, expect, "radix output must be sorted");
        assert_eq!(bi.output, expect, "bitonic output must be sorted");
        (sp, rx, bi)
    });
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
