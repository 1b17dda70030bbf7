//! Packet-level network simulation: latency vs offered load (§5.3).
//!
//! "Studies such as \[10\] show that there is typically a saturation point
//! at which the latency increases sharply; below the saturation point the
//! latency is fairly insensitive to the load. This characteristic is
//! captured by the capacity constraint in LogP."
//!
//! A synchronous router model over any [`Network`]: one packet per
//! directed link per cycle, FIFO output queues, shortest-path routing
//! (precomputed next-hop tables). Endpoints inject Bernoulli(load)
//! packets to uniform random destinations; we measure delivered latency
//! across a measurement window after warm-up.

use crate::patterns::Permutation;
use crate::routing::{dimension_order_next_hop, Router};
use crate::topology::Network;
use logp_core::rng::CounterRng;
use std::collections::VecDeque;

/// A packet in the router network.
#[derive(Debug, Clone, Copy)]
struct Packet {
    dst: u32,
    injected_at: u64,
    /// Counts only packets injected inside the measurement window.
    measured: bool,
}

/// Result of one load level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPoint {
    /// Offered load: injection probability per endpoint per cycle.
    pub offered: f64,
    /// Mean delivered latency, cycles.
    pub avg_latency: f64,
    /// Delivered packets per endpoint per cycle.
    pub throughput: f64,
    /// Packets still queued when the run ended (backlog indicator).
    pub backlog: u64,
}

/// The experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct PacketSimConfig {
    pub warmup_cycles: u64,
    pub measure_cycles: u64,
    /// Drain period after the window (delivers measured stragglers).
    pub drain_cycles: u64,
    pub seed: u64,
}

impl Default for PacketSimConfig {
    fn default() -> Self {
        PacketSimConfig {
            warmup_cycles: 500,
            measure_cycles: 2000,
            drain_cycles: 3000,
            seed: 0xBEEF,
        }
    }
}

/// Capacity of the directed link `v -> hop` in packets per cycle.
fn link_cap(net: &Network, v: usize, hop: u32) -> u32 {
    net.adj[v]
        .iter()
        .position(|&w| w == hop)
        .map(|i| net.cap[v][i])
        .unwrap_or(1)
}

/// Routing tables: `next_hop[node][dst]` = neighbor index toward dst.
///
/// For each destination, a reverse BFS assigns every node its parent
/// toward the destination (lowest-index tie-break for determinism).
/// Public so external packet-level experiments — e.g. the `logp-calib`
/// network backend — route identically to [`simulate_load`].
pub fn shortest_path_routes(net: &Network) -> Vec<Vec<u32>> {
    build_routes(net)
}

fn build_routes(net: &Network) -> Vec<Vec<u32>> {
    let n = net.adj.len();
    let mut next = vec![vec![u32::MAX; n]; n];
    // For each destination, a reverse BFS assigns every node its parent
    // toward the destination (lowest-index tie-break for determinism).
    for dst in 0..n as u32 {
        let dist = net.bfs(dst);
        for v in 0..n as u32 {
            if v == dst || dist[v as usize] == u32::MAX {
                continue;
            }
            let best = net.adj[v as usize]
                .iter()
                .copied()
                .filter(|&w| dist[w as usize] + 1 == dist[v as usize])
                .min()
                .expect("connected network");
            next[v as usize][dst as usize] = best;
        }
    }
    next
}

/// Simulate one offered-load level.
pub fn simulate_load(net: &Network, offered: f64, cfg: &PacketSimConfig) -> LoadPoint {
    assert!((0.0..=1.0).contains(&offered));
    let n = net.adj.len();
    let routes = build_routes(net);
    let mut rng = CounterRng::new(cfg.seed ^ (offered * 1e6) as u64);
    // Per-node FIFO of transit packets; one forward per directed link per
    // cycle means: per node, at most one packet per outgoing neighbor.
    let mut queues: Vec<VecDeque<Packet>> = vec![VecDeque::new(); n];
    let mut delivered_lat: u64 = 0;
    let mut delivered_cnt: u64 = 0;
    let total = cfg.warmup_cycles + cfg.measure_cycles + cfg.drain_cycles;
    let endpoints = &net.endpoints;
    for t in 0..total {
        // Injection phase (endpoints only, not during drain).
        if t < cfg.warmup_cycles + cfg.measure_cycles {
            for &e in endpoints {
                if rng.next_bool(offered) {
                    let dst = endpoints[rng.next_in(endpoints.len() as u64 - 1) as usize];
                    if dst != e {
                        queues[e as usize].push_back(Packet {
                            dst,
                            injected_at: t,
                            measured: t >= cfg.warmup_cycles,
                        });
                    }
                }
            }
        }
        // Forwarding phase: each node sends at most cap(link) queued
        // packets per outgoing link; we scan each queue once, granting
        // link slots to the oldest packets requesting them.
        let mut moves: Vec<(usize, Packet, u32)> = Vec::new();
        for (v, q) in queues.iter_mut().enumerate() {
            let mut used: Vec<(u32, u32)> = Vec::new(); // (hop, granted)
            let mut kept = VecDeque::new();
            while let Some(pkt) = q.pop_front() {
                let hop = routes[v][pkt.dst as usize];
                debug_assert_ne!(hop, u32::MAX);
                let limit = link_cap(net, v, hop);
                let slot = used.iter_mut().find(|(h, _)| *h == hop);
                let granted = match slot {
                    Some((_, g)) => g,
                    None => {
                        used.push((hop, 0));
                        &mut used.last_mut().expect("just pushed").1
                    }
                };
                if *granted < limit {
                    *granted += 1;
                    moves.push((v, pkt, hop));
                } else {
                    kept.push_back(pkt);
                }
            }
            *q = kept;
        }
        for (_, pkt, hop) in moves {
            if hop == pkt.dst {
                if pkt.measured {
                    delivered_lat += t + 1 - pkt.injected_at;
                    delivered_cnt += 1;
                }
            } else {
                queues[hop as usize].push_back(pkt);
            }
        }
    }
    let backlog: u64 = queues.iter().map(|q| q.len() as u64).sum();
    LoadPoint {
        offered,
        avg_latency: if delivered_cnt == 0 {
            0.0
        } else {
            delivered_lat as f64 / delivered_cnt as f64
        },
        throughput: delivered_cnt as f64 / (cfg.measure_cycles as f64 * endpoints.len() as f64),
        backlog,
    }
}

/// Result of routing a fixed permutation's worth of packets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PermutationRun {
    /// Cycles until every packet was delivered.
    pub completion: u64,
    /// Total packets delivered.
    pub delivered: u64,
    /// Mean delivery latency.
    pub avg_latency: f64,
}

/// Route `packets_per_endpoint` packets from every endpoint to its fixed
/// destination under `perm` (self-loops skipped), injecting one packet per
/// endpoint per cycle, and report when the network drains. A permutation
/// with static link congestion `c` (see `patterns`) takes ≈`c`× longer
/// than a contention-free one — §5.6's point, dynamically.
pub fn simulate_permutation(
    net: &Network,
    router: Router,
    perm: &Permutation,
    packets_per_endpoint: u64,
    max_cycles: u64,
) -> PermutationRun {
    let n = net.adj.len();
    assert_eq!(
        perm.0.len(),
        net.endpoints.len(),
        "permutation must cover endpoints"
    );
    let shortest = match router {
        Router::Shortest => Some(build_routes(net)),
        Router::DimensionOrder => None,
    };
    let next_of = |cur: u32, dst: u32| -> u32 {
        match &shortest {
            Some(tables) => tables[cur as usize][dst as usize],
            None => dimension_order_next_hop(net, cur, dst).expect("cur != dst"),
        }
    };
    let mut queues: Vec<VecDeque<Packet>> = vec![VecDeque::new(); n];
    let mut remaining: Vec<u64> = vec![packets_per_endpoint; net.endpoints.len()];
    let mut delivered = 0u64;
    let mut lat_sum = 0u64;
    let total_expected: u64 = net
        .endpoints
        .iter()
        .enumerate()
        .filter(|(i, _)| perm.0[*i] != *i as u32)
        .count() as u64
        * packets_per_endpoint;
    for t in 0..max_cycles {
        if delivered == total_expected {
            return PermutationRun {
                completion: t,
                delivered,
                avg_latency: if delivered == 0 {
                    0.0
                } else {
                    lat_sum as f64 / delivered as f64
                },
            };
        }
        // Injection: one packet per endpoint per cycle while any remain.
        for (i, &e) in net.endpoints.iter().enumerate() {
            if remaining[i] > 0 && perm.0[i] != i as u32 {
                remaining[i] -= 1;
                let dst = net.endpoints[perm.0[i] as usize];
                queues[e as usize].push_back(Packet {
                    dst,
                    injected_at: t,
                    measured: true,
                });
            }
        }
        // Forwarding: cap(link) packets per directed link per cycle.
        let mut moves: Vec<(Packet, u32)> = Vec::new();
        for (v, q) in queues.iter_mut().enumerate() {
            let mut used: Vec<(u32, u32)> = Vec::new();
            let mut kept = VecDeque::new();
            while let Some(pkt) = q.pop_front() {
                let hop = next_of(v as u32, pkt.dst);
                let limit = link_cap(net, v, hop);
                let slot = used.iter_mut().find(|(h, _)| *h == hop);
                let granted = match slot {
                    Some((_, g)) => g,
                    None => {
                        used.push((hop, 0));
                        &mut used.last_mut().expect("just pushed").1
                    }
                };
                if *granted < limit {
                    *granted += 1;
                    moves.push((pkt, hop));
                } else {
                    kept.push_back(pkt);
                }
            }
            *q = kept;
        }
        for (pkt, hop) in moves {
            if hop == pkt.dst {
                delivered += 1;
                lat_sum += t + 1 - pkt.injected_at;
            } else {
                queues[hop as usize].push_back(pkt);
            }
        }
    }
    PermutationRun {
        completion: max_cycles,
        delivered,
        avg_latency: if delivered == 0 {
            0.0
        } else {
            lat_sum as f64 / delivered as f64
        },
    }
}

/// Sweep offered load, producing the saturation curve.
pub fn load_sweep(net: &Network, loads: &[f64], cfg: &PacketSimConfig) -> Vec<LoadPoint> {
    loads.iter().map(|&l| simulate_load(net, l, cfg)).collect()
}

/// Locate the saturation knee: the lowest offered load at which average
/// latency exceeds `factor` times the zero-load latency.
pub fn knee(points: &[LoadPoint], factor: f64) -> Option<f64> {
    let base = points.first()?.avg_latency;
    points
        .iter()
        .find(|p| p.avg_latency > factor * base)
        .map(|p| p.offered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Network, Topology};

    fn torus() -> Network {
        Network::build(Topology::Torus2D, 64)
    }

    #[test]
    fn light_load_latency_is_near_average_distance() {
        let net = torus();
        let pt = simulate_load(&net, 0.02, &PacketSimConfig::default());
        let avg_d = net.avg_endpoint_distance();
        assert!(
            pt.avg_latency >= avg_d * 0.9 && pt.avg_latency < avg_d * 1.6,
            "latency {} vs distance {}",
            pt.avg_latency,
            avg_d
        );
    }

    #[test]
    fn latency_flat_then_knee() {
        // The §5.3 shape: insensitive below saturation, sharp rise past
        // it. A 2D torus with uniform traffic saturates around
        // throughput ≈ 8/side per endpoint ≈ 0.5 bisection-limited...
        // we only assert the shape, not the exact knee.
        let net = torus();
        let loads = [0.05, 0.10, 0.20, 0.30, 0.50, 0.70, 0.90];
        let cfg = PacketSimConfig {
            warmup_cycles: 250,
            measure_cycles: 900,
            drain_cycles: 1200,
            seed: 0xBEEF,
        };
        let pts = load_sweep(&net, &loads, &cfg);
        // Below saturation: modest growth.
        assert!(pts[1].avg_latency < 1.5 * pts[0].avg_latency);
        // The heaviest load must blow up well past the light-load value.
        let heavy = pts.last().expect("nonempty");
        assert!(
            heavy.avg_latency > 3.0 * pts[0].avg_latency || heavy.backlog > 500,
            "expected saturation: {:?}",
            heavy
        );
        let k = knee(&pts, 2.0);
        assert!(k.is_some(), "a knee must exist in this sweep");
        assert!(
            k.expect("checked") >= 0.2,
            "knee should not be at trivial load"
        );
    }

    #[test]
    fn throughput_saturates_below_offered() {
        let net = torus();
        let cfg = PacketSimConfig {
            warmup_cycles: 200,
            measure_cycles: 800,
            drain_cycles: 800,
            seed: 0xBEEF,
        };
        let hi = simulate_load(&net, 0.9, &cfg);
        assert!(
            hi.throughput < 0.85,
            "delivered {} cannot track a saturating offered load",
            hi.throughput
        );
    }

    #[test]
    fn richer_networks_saturate_later() {
        // Short windows keep this debug-buildable; the bench binary runs
        // the full-resolution sweep.
        let cfg = PacketSimConfig {
            warmup_cycles: 150,
            measure_cycles: 500,
            drain_cycles: 600,
            seed: 0xBEEF,
        };
        let mesh = Network::build(Topology::Mesh2D, 64);
        let cube = Network::build(Topology::Hypercube, 64);
        let loads = [0.05, 0.15, 0.3, 0.45, 0.6];
        let mesh_knee = knee(&load_sweep(&mesh, &loads, &cfg), 2.0).unwrap_or(1.0);
        let cube_knee = knee(&load_sweep(&cube, &loads, &cfg), 2.0).unwrap_or(1.0);
        assert!(
            cube_knee >= mesh_knee,
            "hypercube (knee {cube_knee}) must sustain at least the mesh (knee {mesh_knee})"
        );
    }

    #[test]
    fn permutation_traffic_shows_static_congestion_dynamically() {
        use crate::patterns::{mesh_xy_congestion, Permutation};
        use crate::routing::Router;
        // On a 8x8 mesh with XY routing: transpose congests, shift flows.
        let net = Network::build(Topology::Mesh2D, 64);
        let k = 16;
        let shift = simulate_permutation(
            &net,
            Router::DimensionOrder,
            &Permutation::shift(64, 1),
            k,
            100_000,
        );
        let transpose = simulate_permutation(
            &net,
            Router::DimensionOrder,
            &Permutation::transpose(64),
            k,
            100_000,
        );
        assert_eq!(shift.delivered, 64 * k);
        assert!(transpose.delivered > 0);
        let static_ratio = mesh_xy_congestion(&Permutation::transpose(64)).max_link_load as f64
            / mesh_xy_congestion(&Permutation::shift(64, 1)).max_link_load as f64;
        let dynamic_ratio = transpose.completion as f64 / shift.completion as f64;
        assert!(
            dynamic_ratio > static_ratio / 2.0,
            "bad permutation must cost time: static {static_ratio}x vs dynamic {dynamic_ratio}x"
        );
    }

    #[test]
    fn permutation_identity_is_free() {
        use crate::patterns::Permutation;
        use crate::routing::Router;
        let net = Network::build(Topology::Hypercube, 16);
        let run = simulate_permutation(
            &net,
            Router::DimensionOrder,
            &Permutation::identity(16),
            8,
            1000,
        );
        assert_eq!(run.delivered, 0);
        assert_eq!(run.completion, 0);
    }

    #[test]
    fn shortest_and_dimension_order_agree_on_neighbor_exchange() {
        use crate::patterns::Permutation;
        use crate::routing::Router;
        // dst = src ^ 1: single-hop routes, identical under any shortest
        // routing, fully contention-free.
        let net = Network::build(Topology::Hypercube, 32);
        let perm = Permutation((0..32).map(|i| i ^ 1).collect());
        let a = simulate_permutation(&net, Router::Shortest, &perm, 8, 10_000);
        let b = simulate_permutation(&net, Router::DimensionOrder, &perm, 8, 10_000);
        assert_eq!(a, b);
        assert_eq!(a.delivered, 32 * 8);
        // One injection per cycle, one hop: drains in ~k+1 cycles.
        assert!(a.completion <= 8 + 2, "completion {}", a.completion);
    }

    #[test]
    fn fat_tree_sustains_what_the_mesh_cannot() {
        // The CM-5's choice, reproduced: a (capacitated) fat tree shows
        // no knee where a 2D mesh saturates — its root links are as wide
        // as the traffic crossing them.
        let cfg = PacketSimConfig {
            warmup_cycles: 150,
            measure_cycles: 600,
            drain_cycles: 800,
            seed: 0xBEEF,
        };
        let loads = [0.05, 0.3, 0.6];
        let fat = load_sweep(&Network::build(Topology::FatTree4, 64), &loads, &cfg);
        let mesh = load_sweep(&Network::build(Topology::Mesh2D, 64), &loads, &cfg);
        assert!(
            fat[2].avg_latency < 2.0 * fat[0].avg_latency,
            "fat tree must stay flat: {:?}",
            fat
        );
        assert!(
            mesh[2].avg_latency > 3.0 * mesh[0].avg_latency || mesh[2].backlog > 100,
            "mesh must saturate: {:?}",
            mesh
        );
    }

    #[test]
    fn zero_load_is_silent() {
        let pt = simulate_load(&torus(), 0.0, &PacketSimConfig::default());
        assert_eq!(pt.throughput, 0.0);
        assert_eq!(pt.backlog, 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let net = torus();
        let cfg = PacketSimConfig::default();
        let a = simulate_load(&net, 0.3, &cfg);
        let b = simulate_load(&net, 0.3, &cfg);
        assert_eq!(a, b);
    }
}
