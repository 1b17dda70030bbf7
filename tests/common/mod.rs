//! What a `Workload` *is*, as text: the one rendering the `.wl` corpora
//! (`wl_identity`, `wl_mutants`) hash. It reads public fields and span
//! accessors only, never `Debug`, so the recorded hashes pin the program
//! and its source positions, not the layout of the types that hold them.

use logp::wl::{Span, Workload};
use std::fmt::Write as _;

pub fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Name, `procs`, preset, then one line per node: index, label, processor,
/// operation, dependencies, the label's `line:col`, and each dependency's
/// (`0:0` for a node that was not loaded from text).
pub fn render(wl: &Workload) -> String {
    let mut out = format!("{} procs={} preset={:?}\n", wl.name, wl.procs, wl.preset);
    let at = |s: Span| format!("{}:{}", s.line, s.col);
    for (i, node) in wl.nodes.iter().enumerate() {
        let _ = write!(
            out,
            "{i} {} @{} {:?} after {:?} at {}",
            node.label,
            node.proc,
            node.op,
            node.deps,
            at(wl.nodes.span(i as u32))
        );
        for k in 0..node.deps.len() {
            let _ = write!(out, " {}", at(wl.nodes.dep_span(i as u32, k)));
        }
        out.push('\n');
    }
    out
}
