//! E20 — §5.6: good vs bad communication patterns, statically and
//! dynamically. Static link congestion under deterministic routing,
//! side-by-side with the packet-level delivery time of the same
//! permutations — and the per-pattern effective gap it implies for the
//! multi-`g` model extension.

use logp_bench::{f2, Args, Table};
use logp_core::extensions::Pattern;
use logp_core::LogP;
use logp_net::patterns::{
    derive_multi_gap, hypercube_ecube_congestion, mesh_xy_congestion, Permutation,
};
use logp_net::{simulate_permutation, Network, Router, Topology};

pub fn run(_: &Args) {
    let k = 32; // packets per endpoint

    println!("§5.6 — permutation congestion: static analysis vs packet simulation\n");
    let mut t = Table::new(&[
        "network",
        "permutation",
        "static congestion",
        "delivery cycles",
        "avg latency",
    ]);

    let cube = Network::build(Topology::Hypercube, 256);
    for (name, perm) in [
        ("shift+1", Permutation::shift(256, 1)),
        ("bit-reversal", Permutation::bit_reversal(256)),
    ] {
        let st = hypercube_ecube_congestion(&perm);
        let dy = simulate_permutation(&cube, Router::DimensionOrder, &perm, k, 1_000_000);
        t.row(&[
            "hypercube-256".to_string(),
            name.to_string(),
            st.max_link_load.to_string(),
            dy.completion.to_string(),
            f2(dy.avg_latency),
        ]);
    }

    let mesh = Network::build(Topology::Mesh2D, 256);
    for (name, perm) in [
        ("shift+1", Permutation::shift(256, 1)),
        ("transpose", Permutation::transpose(256)),
    ] {
        let st = mesh_xy_congestion(&perm);
        let dy = simulate_permutation(&mesh, Router::DimensionOrder, &perm, k, 1_000_000);
        t.row(&[
            "mesh-16x16".to_string(),
            name.to_string(),
            st.max_link_load.to_string(),
            dy.completion.to_string(),
            f2(dy.avg_latency),
        ]);
    }
    t.print();

    // Close the loop into the model: derive per-pattern gaps.
    let base = LogP::new(60, 20, 40, 256).unwrap();
    let good = hypercube_ecube_congestion(&Permutation::shift(256, 1));
    let bad = hypercube_ecube_congestion(&Permutation::bit_reversal(256));
    let mg = derive_multi_gap(&base, &good, &bad);
    println!(
        "\nmulti-g model (§5.6): g_contention-free = {}, g_general = {} cycles on {base}\n\
         — \"a possible extension of the LogP model ... would be to provide\n\
         multiple g's, where the one appropriate to the particular communication\n\
         pattern is used in the analysis.\"",
        mg.gap(Pattern::ContentionFree),
        mg.gap(Pattern::General)
    );
}
