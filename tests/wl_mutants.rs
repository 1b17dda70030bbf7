//! Byte-mutation fuzz of the `.wl` loader.
//!
//! Two tests over seeded mutants of the golden corpus and of
//! `gen_workload` output:
//!
//! * **Outcome parity.** `tests/data/wl_mutants.txt` holds, for a fixed
//!   corpus of 2,400 mutants, what `load_workload` returned at the commit
//!   before the loader and validator were rebuilt (PR 13): the error's
//!   `Display`, or a hash of the loaded `Workload` (spans included; since
//!   the arena PR a hash of `tests/common`'s rendering rather than of
//!   `Debug`, re-recorded at that PR's parent with every `err` line
//!   byte-identical). The loader must reproduce every line. 2,325 lines are
//!   the old loader's verbatim; the other 75 are the two places where it
//!   had no single answer to record:
//!   - 60 `unknown dependency` errors whose "did you mean" came out of a
//!     `HashMap` iteration, so between equally close labels it changed
//!     from run to run. They are pinned to the earliest-declared of the
//!     closest labels, which is one of the answers the old loader gave
//!     (checked: same edit distance as the recorded suggestion).
//!   - 15 programs on which the old validator panicked (`residual node
//!     keeps a residual successor`): a cycle with a node downstream of
//!     it. They are pinned to the `dependency cycle` error they now get.
//! * **Error contract.** 12,000 fresh mutants, now also with non-ASCII
//!   text and hostile numbers: never a panic, every `Err` points into the
//!   file, every `Ok` survives `validate` and a text round-trip.
//! * **Cycle check.** Check-and-lower decides "acyclic" by a dry run of
//!   the plan it made. The check it replaced — the global ordering graph
//!   and Kahn's toposort, kept below as [`ordering_graph_check`] — must
//!   give the same verdict and the same error on the generated programs,
//!   the bases and both mutant corpora, the generated programs with a
//!   back edge added, and hand-built cycles of every kind of edge.

mod common;

use common::{fnv1a, render};
use logp::core::rng::CounterRng;
use logp::wl::{
    gen_workload, load_workload, parse_workload, to_text, FuzzConfig, NodeId, Op, WlError, Workload,
};

const PARITY_MUTANTS: u64 = 2_400;
const FRESH_MUTANTS: u64 = 12_000;
const PARITY_FILE: &str = "tests/data/wl_mutants.txt";

/// The programs mutants are derived from: the four golden files and 36
/// generated programs (some larger than the fuzzer's default shape).
fn bases() -> Vec<Vec<u8>> {
    let mut v: Vec<Vec<u8>> = ["allreduce_fig3", "broadcast_fig3", "summation_fig4", "tour"]
        .iter()
        .map(|f| {
            let path = format!("examples/workloads/{f}.wl");
            std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
        })
        .collect();
    let wide = FuzzConfig {
        max_procs: 16,
        max_steps: 60,
        ..FuzzConfig::default()
    };
    for seed in 0..36 {
        let cfg = if seed % 3 == 2 {
            wide.clone()
        } else {
            FuzzConfig::default()
        };
        v.push(to_text(&gen_workload(seed, &cfg)).into_bytes());
    }
    v
}

/// Bytes the lexer treats specially, over-sampled by the byte edits.
const SPICE: &[u8] = b" \t\r\n#:,->@=_$09azAZ;.\x00\x0b\x0c\x7f";
const HOSTILE_NUMBERS: &[&str] = &[
    "0",
    "1048576",
    "1048577",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999999",
];
const NON_ASCII: &[&str] = &["é", "→", "\u{feff}", "\u{2028}", "𝛌"];

fn pick(rng: &mut CounterRng, n: usize) -> usize {
    rng.next_in(n as u64 - 1) as usize
}

/// Byte ranges of the lines of `t` (without their terminators).
fn line_ranges(t: &[u8]) -> Vec<(usize, usize)> {
    let mut v = Vec::new();
    let mut start = 0;
    for (i, &b) in t.iter().enumerate() {
        if b == b'\n' {
            v.push((start, i));
            start = i + 1;
        }
    }
    if start < t.len() {
        v.push((start, t.len()));
    }
    v
}

/// Byte ranges of the whitespace-separated words of `t`.
fn word_ranges(t: &[u8]) -> Vec<(usize, usize)> {
    let mut v = Vec::new();
    let mut start = None;
    for (i, &b) in t.iter().enumerate() {
        match (b.is_ascii_whitespace(), start) {
            (false, None) => start = Some(i),
            (true, Some(s)) => {
                v.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        v.push((s, t.len()));
    }
    v
}

/// Apply one edit. `hostile` adds the two edits whose outcome changed on
/// purpose with the rebuilt loader (size limits, non-ASCII reporting).
fn edit(t: &mut Vec<u8>, rng: &mut CounterRng, hostile: bool) {
    if t.is_empty() {
        t.extend_from_slice(b"x");
    }
    let byte = |rng: &mut CounterRng| {
        if rng.next_in(3) == 0 {
            rng.next_in(127) as u8
        } else {
            SPICE[pick(rng, SPICE.len())]
        }
    };
    // `next_in` is inclusive.
    match rng.next_in(if hostile { 11 } else { 9 }) {
        0 => {
            let i = pick(rng, t.len());
            t[i] = byte(rng);
        }
        1 => {
            t.remove(pick(rng, t.len()));
        }
        2 => {
            let i = pick(rng, t.len() + 1);
            t.insert(i, byte(rng));
        }
        // Duplicate, drop or swap whole lines: duplicate labels, unmatched
        // channels, uneven barriers, forward references, cycles.
        3..=5 => {
            let lines = line_ranges(t);
            if lines.is_empty() {
                return;
            }
            let (a0, a1) = lines[pick(rng, lines.len())];
            let (b0, b1) = lines[pick(rng, lines.len())];
            match rng.next_in(2) {
                0 => {
                    let mut copy = t[a0..a1].to_vec();
                    copy.push(b'\n');
                    t.splice(b0..b0, copy);
                }
                1 => {
                    t.drain(a0..(a1 + 1).min(t.len()));
                }
                _ if a1 <= b0 => {
                    let (first, second) = (t[a0..a1].to_vec(), t[b0..b1].to_vec());
                    t.splice(b0..b1, first);
                    t.splice(a0..a1, second);
                }
                _ => {}
            }
        }
        // Replace a word by another word of the program, or drop it.
        6 | 7 => {
            let words = word_ranges(t);
            if words.is_empty() {
                return;
            }
            let (a0, a1) = words[pick(rng, words.len())];
            let (mut b0, mut b1) = words[pick(rng, words.len())];
            // Half the time insist on a word of the same kind (number,
            // `label:`, `@proc`, `key=value`, bare label), so the line still
            // parses and the validator gets to see the damage.
            let kind = |w: &[u8]| {
                let last = w[w.len() - 1];
                (
                    w[0].is_ascii_digit(),
                    w[0] == b'@',
                    last == b':',
                    last == b',',
                    w.contains(&b'='),
                )
            };
            if rng.next_in(1) == 0 {
                let start = pick(rng, words.len());
                if let Some(&(c0, c1)) = (0..words.len())
                    .map(|k| &words[(start + k) % words.len()])
                    .find(|&&(c0, c1)| kind(&t[c0..c1]) == kind(&t[a0..a1]))
                {
                    (b0, b1) = (c0, c1);
                }
            }
            let with = if rng.next_in(4) == 0 {
                Vec::new()
            } else {
                t[b0..b1].to_vec()
            };
            t.splice(a0..a1, with);
        }
        8 => t.truncate(pick(rng, t.len())),
        // Point an `after:` entry at some other statement's label: self
        // and repeated dependencies, cross-processor edges, cycles.
        9 => {
            let words = word_ranges(t);
            let labels: Vec<(usize, usize)> = words
                .iter()
                .filter(|&&(a, b)| t[b - 1] == b':' && &t[a..b] != b"after:")
                .map(|&(a, b)| (a, b - 1))
                .collect();
            let afters: Vec<usize> = (0..words.len())
                .filter(|&k| &t[words[k].0..words[k].1] == b"after:")
                .collect();
            if labels.is_empty() || afters.is_empty() {
                return;
            }
            // The entries of one `after:` list: the words up to the next
            // `label:`.
            let first = afters[pick(rng, afters.len())] + 1;
            let deps: Vec<(usize, usize)> = words[first..]
                .iter()
                .take_while(|&&(_, b)| t[b - 1] != b':')
                .map(|&(a, b)| (a, if t[b - 1] == b',' { b - 1 } else { b }))
                .collect();
            if !deps.is_empty() {
                let (a0, a1) = deps[pick(rng, deps.len())];
                let (b0, b1) = labels[pick(rng, labels.len())];
                let with = t[b0..b1].to_vec();
                t.splice(a0..a1, with);
            }
        }
        10 => {
            let i = pick(rng, t.len());
            if t[i].is_ascii_digit() {
                let n = HOSTILE_NUMBERS[pick(rng, HOSTILE_NUMBERS.len())];
                t.splice(i..i + 1, n.bytes());
            }
        }
        _ => {
            let i = pick(rng, t.len() + 1);
            let s = NON_ASCII[pick(rng, NON_ASCII.len())];
            t.splice(i..i, s.bytes());
        }
    }
}

/// Mutant `i` of stream `stream`: a base program with 1–3 edits.
fn mutant(bases: &[Vec<u8>], stream: u64, i: u64, hostile: bool) -> String {
    let mut rng = CounterRng::new(stream ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut t = bases[pick(&mut rng, bases.len())].clone();
    for _ in 0..=rng.next_in(2) {
        edit(&mut t, &mut rng, hostile);
    }
    // A later byte edit may cut a non-ASCII character in two.
    String::from_utf8_lossy(&t).into_owned()
}

/// One line of the parity file.
fn outcome(i: u64, text: &str) -> String {
    match std::panic::catch_unwind(|| load_workload(text)) {
        Ok(Ok(wl)) => format!(
            "{i:04} ok nodes={} {:016x}",
            wl.nodes.len(),
            fnv1a(&render(&wl))
        ),
        Ok(Err(e)) => format!("{i:04} err {}", e.to_string().escape_debug()),
        Err(_) => format!("{i:04} PANIC"),
    }
}

fn parity_lines() -> Vec<String> {
    let bases = bases();
    (0..PARITY_MUTANTS)
        .map(|i| outcome(i, &mutant(&bases, 0x5741_4c4d_5554, i, false)))
        .collect()
}

#[test]
fn loader_reproduces_every_recorded_outcome() {
    let recorded = std::fs::read_to_string(PARITY_FILE).expect(PARITY_FILE);
    let recorded: Vec<&str> = recorded.lines().collect();
    let now = parity_lines();
    assert_eq!(recorded.len(), now.len(), "mutant count");
    // The corpus must keep exercising both outcomes and the validator.
    let errs = now.iter().filter(|l| l[5..].starts_with("err")).count();
    assert!(errs > 1_000 && now.len() - errs > 150, "{errs} errors");
    for needle in ["dependency cycle", "no matching", "uneven barrier", "twice"] {
        assert!(now.iter().any(|l| l.contains(needle)), "no `{needle}` line");
    }
    let bad: Vec<String> = recorded
        .iter()
        .zip(&now)
        .filter(|(r, n)| r != n)
        .map(|(r, n)| format!("recorded: {r}\n     now: {n}"))
        .collect();
    assert!(
        bad.is_empty(),
        "{} of {} mutants changed outcome:\n{}",
        bad.len(),
        now.len(),
        bad[..bad.len().min(20)].join("\n")
    );
}

/// Rewrites the parity file from the loader in the tree. It was run once,
/// at the parent of PR 13; running it again pins whatever the loader does
/// now, so do that only for a deliberate change of behaviour.
#[test]
#[ignore = "rewrites tests/data/wl_mutants.txt"]
fn regenerate_parity_file() {
    let mut out = parity_lines().join("\n");
    out.push('\n');
    std::fs::write(PARITY_FILE, out).expect(PARITY_FILE);
}

#[test]
fn fresh_mutants_never_panic_and_errors_point_into_the_file() {
    let bases = bases();
    let (mut accepted, mut rejected) = (0u32, 0u32);
    for i in 0..FRESH_MUTANTS {
        let text = mutant(&bases, 0x0046_5245_5348, i, true);
        let lines = text.lines().count().max(1) as u32;
        match load_workload(&text) {
            Ok(wl) => {
                accepted += 1;
                wl.validate()
                    .unwrap_or_else(|e| panic!("mutant {i}: loaded but invalid: {e}\n{text}"));
                let back = parse_workload(&to_text(&wl))
                    .unwrap_or_else(|e| panic!("mutant {i}: round-trip: {e}\n{text}"));
                assert_eq!(back, wl, "mutant {i}");
            }
            Err(e) => {
                rejected += 1;
                assert!(
                    (1..=lines).contains(&e.line) && e.col >= 1,
                    "mutant {i}: error at {}:{} outside a {lines}-line file: {e}\n{text}",
                    e.line,
                    e.col
                );
                assert!(!e.msg.is_empty(), "mutant {i}");
            }
        }
    }
    assert!(
        accepted > 500 && rejected > 5_000,
        "{accepted} accepted, {rejected} rejected"
    );
}

/// The cycle check check-and-lower made before its dry run, for programs
/// that pass every other check. The ordering graph has a vertex per node
/// and one per barrier round (a processor's k-th barrier takes part in
/// round k): explicit dependencies (on a barrier: on its round's release),
/// a barrier entering its round, a barrier's round waiting for the
/// previous round's release, the barrier fences (every earlier node on
/// the processor before the barrier, every later one after its release)
/// and the i-th send of a channel before its i-th recv. Kahn's toposort
/// decides; the leftover vertices are walked depth-first from the first
/// one, always into the first leftover successor, and the first cycle
/// met is reported by label.
fn ordering_graph_check(wl: &Workload) -> Result<(), WlError> {
    let (n, procs) = (wl.nodes.len(), wl.procs as usize);
    const NO_ROUND: u32 = u32::MAX;
    let mut round = vec![NO_ROUND; n];
    let mut barriers = vec![0u32; procs];
    let (mut sends, mut recvs) = (Vec::new(), Vec::new());
    for node in wl.nodes.iter() {
        let p = node.proc as usize;
        match node.op {
            Op::Barrier => {
                round[node.id as usize] = barriers[p];
                barriers[p] += 1;
            }
            Op::Send { dst, tag, .. } => sends.push((dst, node.proc, tag, node.id)),
            Op::Recv { src, tag } => recvs.push((node.proc, src, tag, node.id)),
            _ => {}
        }
    }
    sends.sort_unstable();
    recvs.sort_unstable();
    let rounds = barriers[0] as usize;
    let release = |r: u32| n as u32 + r;

    // Out-edges in the order the old enumeration emitted them, which
    // decides the cycle a rejection names.
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n + rounds];
    for node in wl.nodes.iter() {
        let i = node.id;
        for &d in node.deps {
            let from = match round[d as usize] {
                NO_ROUND => d,
                r => release(r),
            };
            succs[from as usize].push(i);
        }
        let r = round[i as usize];
        if r != NO_ROUND {
            succs[i as usize].push(release(r));
            if r > 0 {
                succs[release(r - 1) as usize].push(i);
            }
        }
    }
    // The fences: every earlier node of the processor before a barrier,
    // every later one after its round's release.
    let mut last_barrier = vec![NodeId::MAX; procs];
    let mut segment: Vec<Vec<NodeId>> = vec![Vec::new(); procs];
    for node in wl.nodes.iter() {
        let (i, q) = (node.id, node.proc as usize);
        if round[i as usize] != NO_ROUND {
            for s in segment[q].drain(..) {
                succs[s as usize].push(i);
            }
            last_barrier[q] = i;
        } else {
            segment[q].push(i);
            if last_barrier[q] != NodeId::MAX {
                succs[release(round[last_barrier[q] as usize]) as usize].push(i);
            }
        }
    }
    for (send, recv) in sends.iter().zip(&recvs) {
        succs[send.3 as usize].push(recv.3);
    }

    let total = n + rounds;
    let mut waits_on = vec![0u32; total];
    for &t in succs.iter().flatten() {
        waits_on[t as usize] += 1;
    }
    let mut ready: Vec<usize> = (0..total).filter(|&v| waits_on[v] == 0).collect();
    let mut done = 0;
    while let Some(v) = ready.pop() {
        done += 1;
        for &s in &succs[v] {
            waits_on[s as usize] -= 1;
            if waits_on[s as usize] == 0 {
                ready.push(s as usize);
            }
        }
    }
    if done == total {
        return Ok(());
    }
    let (fresh, on_path, dead_end) = (0u8, 1, 2);
    let mut state = vec![fresh; total];
    let mut path: Vec<(usize, usize)> = Vec::new();
    let cycle = 'walk: {
        for first in (0..total).filter(|&v| waits_on[v] > 0) {
            if state[first] == fresh {
                state[first] = on_path;
                path.push((first, 0));
            }
            while let Some((v, next)) = path.last_mut() {
                let Some(&s) = succs[*v].get(*next) else {
                    state[*v] = dead_end;
                    path.pop();
                    continue;
                };
                let s = s as usize;
                *next += 1;
                if state[s] == on_path {
                    let from = path.iter().position(|&(x, _)| x == s).expect("on path");
                    break 'walk path[from..].to_vec();
                }
                if waits_on[s] > 0 && state[s] == fresh {
                    state[s] = on_path;
                    path.push((s, 0));
                }
            }
        }
        panic!("leftover vertices of a toposort contain a cycle")
    };
    let name = |v: usize| match wl.nodes.get(v) {
        Some(node) => format!("`{}`", node.label),
        None => format!("barrier round {}", v - n),
    };
    let mut labels: Vec<String> = cycle.iter().map(|&(v, _)| name(v)).collect();
    labels.push(name(cycle[0].0));
    let anchor = cycle.iter().map(|&(v, _)| v).find(|&v| v < n);
    let span = anchor.map_or(logp::wl::Span::NONE, |v| wl.nodes.span(v as NodeId));
    Err(WlError {
        line: span.line,
        col: span.col,
        msg: format!("dependency cycle: {}", labels.join(" -> ")),
        help: Some(
            "a node cannot (transitively) wait on itself; check `after:` lists, \
             send/recv pairing order, and barrier rounds"
                .into(),
        ),
    })
}

/// `validate` against [`ordering_graph_check`] on `wl`, if every check
/// before the cycle check passes; whether `wl` has a cycle.
fn same_cycle_verdict(wl: &Workload, what: &str) -> bool {
    let verdict = wl.validate();
    if matches!(&verdict, Err(e) if !e.msg.starts_with("dependency cycle")) {
        return false;
    }
    assert_eq!(verdict, ordering_graph_check(wl), "{what}");
    verdict.is_err()
}

/// `wl` with node `i` also waiting on node `j`.
fn with_dep(wl: &Workload, i: usize, j: NodeId) -> Workload {
    let mut out = Workload::new(&wl.name, wl.procs);
    for node in wl.nodes.iter() {
        let mut deps = node.deps.to_vec();
        if node.id as usize == i {
            deps.push(j);
        }
        out.node(node.label, node.proc, node.op, &deps);
    }
    out
}

#[test]
fn the_dry_run_cycle_check_equals_the_ordering_graph_it_replaced() {
    let mut cycles = 0;
    let wide = FuzzConfig {
        max_procs: 16,
        max_steps: 60,
        ..FuzzConfig::default()
    };
    for seed in 0..500u64 {
        let cfg = if seed % 3 == 2 {
            &wide
        } else {
            &FuzzConfig::default()
        };
        let wl = gen_workload(seed, cfg);
        assert!(!same_cycle_verdict(&wl, &format!("seed {seed}")));
        // A back edge: an earlier node also waits on a later one of its
        // processor, through whatever edges lie between them.
        let mut rng = CounterRng::new(seed);
        let i = pick(&mut rng, wl.nodes.len());
        let proc = wl.nodes.at(i).proc;
        let later: Vec<NodeId> = (wl.nodes.iter().skip(i + 1))
            .filter(|m| m.proc == proc && !wl.nodes.at(i).deps.contains(&m.id))
            .map(|m| m.id)
            .collect();
        if !later.is_empty() {
            let j = later[pick(&mut rng, later.len())];
            let what = format!("seed {seed} with {i} after {j}");
            cycles += usize::from(same_cycle_verdict(&with_dep(&wl, i, j), &what));
        }
    }
    let bases = bases();
    let texts = (bases
        .iter()
        .map(|b| String::from_utf8_lossy(b).into_owned()))
    .chain((0..PARITY_MUTANTS).map(|i| mutant(&bases, 0x5741_4c4d_5554, i, false)))
    .chain((0..FRESH_MUTANTS).map(|i| mutant(&bases, 0x0046_5245_5348, i, true)));
    for (k, text) in texts.enumerate() {
        if let Ok(wl) = parse_workload(&text) {
            cycles += usize::from(same_cycle_verdict(&wl, &format!("text {k}\n{text}")));
        }
    }
    assert!(cycles > 200, "only {cycles} programs had a cycle");
}

#[test]
fn hand_built_cycles_of_every_edge_kind_are_named_as_before() {
    let cases = [
        // `after:` edges.
        (
            "procs 1\na: compute 1 @0 after: b\nb: compute 1 @0 after: a\n",
            "`a` -> `b` -> `a`",
        ),
        // Channel order: each side receives before it sends.
        (
            "procs 2\nr0: recv 1 -> 0\ns0: send 0 -> 1 after: r0\n\
             r1: recv 0 -> 1\ns1: send 1 -> 0 after: r1\n",
            "`r0` -> `s0` -> `r1` -> `s1` -> `r0`",
        ),
        // The second send on a channel pairs with the second recv.
        (
            "procs 2\ns0: send 0 -> 1\nr0: recv 1 -> 0\ns1: send 0 -> 1 after: r0\n\
             a: recv 0 -> 1\nb: recv 0 -> 1\nt: send 1 -> 0 after: b\n",
            "`r0` -> `s1` -> `b` -> `t` -> `r0`",
        ),
        // A dependency on a barrier waits for its round to release.
        (
            "procs 2\nb0: barrier @0\ns: send 0 -> 1 after: b0\n\
             r: recv 0 -> 1\nb1: barrier @1 after: r\n",
            "`s` -> `r` -> `b1` -> barrier round 0 -> `s`",
        ),
        // Barrier fences: a recv before a barrier, its send after one.
        (
            "procs 2\nr: recv 1 -> 0\nb0: barrier @0\nb1: barrier @1\ns: send 1 -> 0\n",
            "`r` -> `b0` -> barrier round 0 -> `s` -> `r`",
        ),
        // Round r + 1 is entered only after round r released.
        (
            "procs 2\nx0: barrier @0\nr: recv 1 -> 0\nx1: barrier @0\n\
             y0: barrier @1\ny1: barrier @1\ns: send 1 -> 0\n",
            "`r` -> `x1` -> barrier round 1 -> `s` -> `r`",
        ),
    ];
    for (body, cycle) in cases {
        let text = format!("workload cyc\n{body}");
        let wl = parse_workload(&text).expect(&text);
        assert!(same_cycle_verdict(&wl, &text), "no cycle in\n{text}");
        let e = wl.validate().expect_err(&text);
        assert_eq!(e.msg, format!("dependency cycle: {cycle}"), "{text}");
    }
}
