//! The benchmark's own `.wl` generator: a program of *exactly* `nodes`
//! nodes for any seed, emitted directly as text so the loader is on the
//! clock with input it has never seen as an IR.
//!
//! Valid and deadlock-free by the construction rules of `logp_wl::fuzz`:
//! `after:` edges only name earlier nodes of the same processor, every
//! send is emitted together with its recv, nobody messages itself, and a
//! barrier round puts one node on every processor. `load_workload`
//! accepting the text is the check. Unlike the fuzzer, the size is fixed
//! (`wl::fuzz` draws its step count), dependencies are drawn from a
//! processor's recent nodes so chains stay long, and barrier rounds come
//! at a fixed cadence instead of by chance.

use logp_core::rng::CounterRng;
use std::fmt::Write as _;

/// How many of a processor's latest nodes an `after:` edge may name.
const DEP_WINDOW: usize = 16;

pub struct GenSpec {
    pub procs: u32,
    pub nodes: u64,
    /// Steps between barrier rounds.
    pub barrier_every: u64,
}

struct Gen {
    rng: CounterRng,
    out: String,
    /// Latest node indices per processor (a ring of `DEP_WINDOW`).
    recent: Vec<Vec<u64>>,
    emitted: u64,
}

impl Gen {
    /// Write `n<i>: <body>[ after: ...]` for a node on `proc`.
    fn node(&mut self, proc: u32, body: std::fmt::Arguments<'_>) {
        let id = self.emitted;
        let _ = write!(self.out, "n{id}: {body}");
        let earlier = &self.recent[proc as usize];
        let want = (self.rng.next_in(2) as usize).min(earlier.len());
        let mut deps: [u64; 2] = [u64::MAX; 2];
        for slot in 0..want {
            let d = earlier[self.rng.next_in(earlier.len() as u64 - 1) as usize];
            if !deps.contains(&d) {
                deps[slot] = d;
            }
        }
        let mut sep = " after: ";
        for d in deps.into_iter().filter(|&d| d != u64::MAX) {
            let _ = write!(self.out, "{sep}n{d}");
            sep = ", ";
        }
        self.out.push('\n');
        let ring = &mut self.recent[proc as usize];
        if ring.len() == DEP_WINDOW {
            ring.remove(0);
        }
        ring.push(id);
        self.emitted += 1;
    }
}

/// Generate the program text. Panics if `spec.procs < 2` (no channel
/// exists) — sizes are constants of the benchmark, not input.
pub fn generate(seed: u64, spec: &GenSpec) -> String {
    assert!(spec.procs >= 2, "a workload needs two processors to send");
    let p = spec.procs as u64;
    let mut g = Gen {
        rng: CounterRng::new(seed ^ 0x5045_5246_574c), // "PERFWL"
        // ~30 bytes per node line.
        out: String::with_capacity(spec.nodes as usize * 32 + 64),
        recent: vec![Vec::with_capacity(DEP_WINDOW); spec.procs as usize],
        emitted: 0,
    };
    let _ = writeln!(g.out, "workload perf_{seed}\nprocs {}\n", spec.procs);
    let mut step = 0u64;
    while g.emitted < spec.nodes {
        let left = spec.nodes - g.emitted;
        step += 1;
        if step.is_multiple_of(spec.barrier_every) && left >= p {
            for q in 0..spec.procs {
                g.node(q, format_args!("barrier @{q}"));
            }
            continue;
        }
        // 0..=3: send/recv pair (two nodes: ~40 % of steps, more of the
        // nodes); 4..=6 compute; 7..=9 timer.
        let choice = if left >= 2 { g.rng.next_in(9) } else { 4 };
        match choice {
            0..=3 => {
                let src = g.rng.next_in(p - 1) as u32;
                let dst = ((src as u64 + 1 + g.rng.next_in(p - 2)) % p) as u32;
                let tag = g.rng.next_in(2);
                let tag_s = if tag == 0 {
                    String::new()
                } else {
                    format!(" tag={tag}")
                };
                let payload = match g.rng.next_in(2) {
                    0 => String::new(),
                    1 => format!(" data={}", g.rng.next_u64() & 0xFFFF),
                    _ => format!(" words={}", 1 + g.rng.next_in(3)),
                };
                g.node(src, format_args!("send {src} -> {dst}{tag_s}{payload}"));
                g.node(dst, format_args!("recv {src} -> {dst}{tag_s}"));
            }
            4..=6 => {
                let q = g.rng.next_in(p - 1) as u32;
                let cycles = g.rng.next_in(16);
                g.node(q, format_args!("compute {cycles} @{q}"));
            }
            _ => {
                let q = g.rng.next_in(p - 1) as u32;
                let cycles = 1 + g.rng.next_in(23);
                g.node(q, format_args!("timer {cycles} @{q}"));
            }
        }
    }
    g.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use logp_wl::load_workload;

    #[test]
    fn emits_exactly_the_requested_node_count_for_any_seed() {
        for (seed, nodes, procs) in [(1u64, 1u64, 2u32), (2, 2, 2), (3, 999, 8), (4, 5000, 16)] {
            let spec = GenSpec {
                procs,
                nodes,
                barrier_every: 97,
            };
            let text = generate(seed, &spec);
            let wl = load_workload(&text).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
            assert_eq!(wl.nodes.len() as u64, nodes, "seed {seed}");
            assert_eq!(wl.procs, procs);
        }
    }

    #[test]
    fn same_seed_same_text_and_barriers_appear() {
        let spec = GenSpec {
            procs: 4,
            nodes: 400,
            barrier_every: 50,
        };
        let a = generate(9, &spec);
        assert_eq!(a, generate(9, &spec));
        assert_ne!(a, generate(10, &spec));
        assert!(a.contains("barrier @3"));
        assert!(a.contains(" after: "));
    }

    #[test]
    fn generated_programs_run_to_completion() {
        let spec = GenSpec {
            procs: 8,
            nodes: 3000,
            barrier_every: 200,
        };
        let wl = load_workload(&generate(5, &spec)).unwrap();
        let run = logp_wl::run_workload(&wl, &logp_core::LogP::fig3(), Default::default())
            .expect("deadlock-free by construction");
        assert_eq!(run.node_times.len(), 3000);
        assert_eq!(run.unmatched, 0);
    }
}
