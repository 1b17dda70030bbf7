//! Calibration backend over the `logp-net` packet-level router: measure
//! LogP parameters of a machine whose "truth" is a network, not a model.
//!
//! The machine under test is an explicit [`Network`] with endpoint
//! processors attached through a serializing network interface:
//!
//! * a processor pays `overhead` cycles per send/receive action (Table
//!   1's `(Tsnd + Trcv)/2`);
//! * the interface injects one packet per `serialize = ⌈M/w⌉` cycles —
//!   the datasheet-derived gap;
//! * routers forward packets per directed link up to the link capacity
//!   each cycle (more on fat links) through FIFO queues. Saturation is
//!   the crux: when background traffic arrives at a shared link faster
//!   than it drains, the backlog grows *during the run*, each successive
//!   probe packet waits longer in it, and the measured delivery
//!   interval — the *effective* `g(ρ)` — rises. This reproduces §5.3's
//!   saturation (latency "increases rapidly" as the network approaches
//!   capacity) as a calibration observable: below the knee the measured
//!   gap sits on the Table-1 serialization value; past it, the LogP
//!   constant-`g` abstraction visibly breaks down.
//!
//! Background load is Bernoulli(ρ) injection at every non-scripted
//! endpoint toward uniform random non-scripted endpoints, so the probe
//! pair only ever sees its own packets — what changes with ρ is the
//! network between them.

use crate::calibrate::CalibConfig;
use crate::experiments::flood_series;
use crate::fit::theil_sen;
use crate::machine::Machine;
use crate::script::{Op, Script};
use logp_core::rng::CounterRng;
use logp_core::ParamEstimate;
use logp_net::shortest_path_routes;
use logp_net::timing::MachineTiming;
use logp_net::topology::{Network, Topology};
use std::collections::VecDeque;

/// A packet in flight (destination *node* index).
#[derive(Debug, Clone, Copy)]
struct Pkt {
    dst: u32,
}

/// Per-script endpoint state during a run.
struct Endpoint {
    node: u32,
    ops: VecDeque<Op>,
    /// Packets handed to the interface, not yet injected.
    outbox: VecDeque<u32>,
    /// Cycle at which the interface can inject again.
    ni_free: u64,
    /// Cycle at which the processor is free again.
    proc_free: u64,
    /// Delivered packets not yet consumed by a `Recv`.
    pending: u64,
    /// Completion cycle of the last op (set when the script empties).
    ops_done: Option<u64>,
    finish: Option<u64>,
}

/// The packet-level router as a black-box calibration target.
#[derive(Debug, Clone)]
pub struct PacketMachine {
    pub net: Network,
    routes: Vec<Vec<u32>>,
    /// Processor cycles per send/receive action.
    pub overhead: u64,
    /// Interface cycles per injected packet (`⌈M/w⌉`).
    pub serialize: u64,
    /// Background injection probability per non-scripted endpoint per
    /// cycle (the offered load ρ).
    pub background: f64,
    /// Queue positions a router examines per cycle. The head always
    /// moves when its link has a free slot, so every nonempty queue
    /// makes progress (no deadlock, no starvation); the limit only
    /// bounds how far a router looks past blocked packets for ones
    /// headed out a different link.
    pub scan_limit: usize,
    pub seed: u64,
    /// Safety valve against deadlocked scripts.
    pub max_cycles: u64,
}

impl PacketMachine {
    /// An unloaded machine over `net` with explicit endpoint constants.
    pub fn new(net: Network, overhead: u64, serialize: u64) -> Self {
        let routes = shortest_path_routes(&net);
        PacketMachine {
            net,
            routes,
            overhead,
            serialize,
            background: 0.0,
            scan_limit: 8,
            seed: 0xCA11B,
            max_cycles: 300_000,
        }
    }

    /// Build from a Table 1 row: `overhead = (Tsnd+Trcv)/2`,
    /// `serialize = ⌈M/w⌉` for an `m_bits` message, on a `p`-endpoint
    /// instance of `topology`.
    pub fn from_timing(t: &MachineTiming, topology: Topology, p: u64, m_bits: u64) -> Self {
        Self::new(
            Network::build(topology, p),
            t.suggested_logp_o().round() as u64,
            t.serialization_cycles(m_bits),
        )
    }

    /// The same machine under background load ρ.
    pub fn with_background(mut self, rho: f64) -> Self {
        assert!((0.0..=1.0).contains(&rho));
        self.background = rho;
        self
    }

    /// The Table-1-derived gap this machine should calibrate to below
    /// saturation.
    pub fn derived_g(&self) -> u64 {
        self.serialize.max(self.overhead)
    }
}

impl Machine for PacketMachine {
    fn procs(&self) -> u32 {
        self.net.endpoints.len() as u32
    }

    fn run(&mut self, programs: &[(u32, Script)]) -> Vec<u64> {
        let n = self.net.adj.len();
        let endpoints = &self.net.endpoints;
        let mut scripts: Vec<Endpoint> = programs
            .iter()
            .map(|(p, s)| Endpoint {
                node: endpoints[*p as usize],
                ops: s.ops.clone().into(),
                outbox: VecDeque::new(),
                ni_free: 0,
                proc_free: 0,
                pending: 0,
                ops_done: None,
                finish: None,
            })
            .collect();
        // Node → script index, for delivery accounting.
        let mut script_at: Vec<Option<usize>> = vec![None; n];
        for (i, e) in scripts.iter().enumerate() {
            assert!(
                script_at[e.node as usize].is_none(),
                "one script per processor"
            );
            script_at[e.node as usize] = Some(i);
        }
        // Background sources/destinations: endpoints without scripts.
        let idle: Vec<u32> = endpoints
            .iter()
            .copied()
            .filter(|e| script_at[*e as usize].is_none())
            .collect();
        let mut rng = CounterRng::new(self.seed);
        let mut queues: Vec<VecDeque<Pkt>> = vec![VecDeque::new(); n];
        let serialize = self.serialize.max(1);
        let overhead = self.overhead.max(1);

        for t in 0..self.max_cycles {
            if scripts.iter().all(|e| e.finish.is_some()) {
                return scripts.iter().map(|e| e.finish.expect("checked")).collect();
            }
            // 1. Scripted processors execute at most one op when free.
            for e in scripts.iter_mut() {
                if t < e.proc_free || e.ops_done.is_some() {
                    continue;
                }
                match e.ops.front().copied() {
                    Some(Op::Send { dst, words }) => {
                        let dst_node = endpoints[dst as usize];
                        for _ in 0..words.max(1) {
                            e.outbox.push_back(dst_node);
                        }
                        e.proc_free = t + overhead;
                        e.ops.pop_front();
                    }
                    Some(Op::Recv) if e.pending > 0 => {
                        e.pending -= 1;
                        e.proc_free = t + overhead;
                        e.ops.pop_front();
                    }
                    Some(Op::Recv) => {}
                    Some(Op::Compute(c)) => {
                        e.proc_free = t + c.max(1);
                        e.ops.pop_front();
                    }
                    None => {}
                }
                if e.ops.is_empty() && e.ops_done.is_none() {
                    e.ops_done = Some(e.proc_free.max(t));
                }
            }
            // 2. Interface injection: one packet per `serialize` cycles.
            for e in scripts.iter_mut() {
                if t >= e.ni_free && !e.outbox.is_empty() {
                    let dst = e.outbox.pop_front().expect("checked nonempty");
                    queues[e.node as usize].push_back(Pkt { dst });
                    e.ni_free = t + serialize;
                }
            }
            // 3. Background injection at idle endpoints.
            if self.background > 0.0 && idle.len() >= 2 {
                for &e in &idle {
                    if rng.next_bool(self.background) {
                        let dst = idle[rng.next_in(idle.len() as u64 - 1) as usize];
                        if dst != e {
                            queues[e as usize].push_back(Pkt { dst });
                        }
                    }
                }
            }
            // 4. Forwarding: each router scans the front of its queue
            // (up to `scan_limit` positions) and moves packets out, at
            // most `cap` per directed link per cycle. The head always
            // moves when its link has a slot, so congestion shows up as
            // *waiting* — growing FIFO backlog at oversubscribed links —
            // never as deadlock.
            let mut moves: Vec<(Pkt, u32)> = Vec::new();
            for (v, q) in queues.iter_mut().enumerate() {
                let mut used: Vec<(u32, u32)> = Vec::new(); // (hop, granted)
                let mut kept: Vec<Pkt> = Vec::new();
                let mut scanned = 0;
                while scanned < self.scan_limit {
                    let Some(pkt) = q.pop_front() else {
                        break;
                    };
                    scanned += 1;
                    let hop = self.routes[v][pkt.dst as usize];
                    debug_assert_ne!(hop, u32::MAX);
                    let cap = link_cap(&self.net, v, hop);
                    let granted = match used.iter_mut().find(|(h, _)| *h == hop) {
                        Some((_, g)) => g,
                        None => {
                            used.push((hop, 0));
                            &mut used.last_mut().expect("just pushed").1
                        }
                    };
                    if *granted < cap {
                        *granted += 1;
                        moves.push((pkt, hop));
                    } else {
                        kept.push(pkt);
                    }
                }
                // Blocked packets return to the front, order preserved.
                for pkt in kept.into_iter().rev() {
                    q.push_front(pkt);
                }
            }
            for (pkt, hop) in moves {
                if hop == pkt.dst {
                    if let Some(i) = script_at[hop as usize] {
                        scripts[i].pending += 1;
                    }
                    // Background deliveries vanish into their endpoint.
                } else {
                    queues[hop as usize].push_back(pkt);
                }
            }
            // 5. Finish accounting: a script is done when its ops have
            // completed and its interface has drained.
            for e in scripts.iter_mut() {
                if e.finish.is_none() {
                    if let Some(done) = e.ops_done {
                        if e.outbox.is_empty() && t + 1 >= done && t + 1 >= e.ni_free {
                            e.finish = Some(done.max(e.ni_free));
                        }
                    }
                }
            }
        }
        panic!(
            "packet calibration run exceeded {} cycles (deadlocked script?)",
            self.max_cycles
        );
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

/// The measured load-dependent gap curve `g(ρ)`: for each background
/// load, fit the probe's flood delivery interval. The §5.3 story as a
/// calibration output — flat on the derived `g` below the knee, rising
/// past it.
pub fn g_of_load(
    base: &PacketMachine,
    loads: &[f64],
    cfg: &CalibConfig,
) -> Vec<(f64, ParamEstimate)> {
    loads
        .iter()
        .map(|&rho| {
            let mut m = base.clone().with_background(rho);
            let fit = theil_sen(&flood_series(&mut m, cfg.src, cfg.dst, &cfg.ks, 1));
            (rho, fit.slope_estimate())
        })
        .collect()
}

/// Locate the saturation knee of a measured `g(ρ)` curve: the lowest
/// load at which the measured gap exceeds `factor` times the unloaded
/// gap. `None` means the curve never left the flat region.
pub fn g_knee(curve: &[(f64, ParamEstimate)], factor: f64) -> Option<f64> {
    let base = curve.first()?.1.value;
    curve
        .iter()
        .find(|(_, g)| g.value > factor * base)
        .map(|(rho, _)| *rho)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::{calibrate, CalibConfig};
    use logp_net::table1;

    /// Monsoon's Table 1 row: 16-bit channels, Tsnd+Trcv = 10 ⇒ o = 5,
    /// serialize(160b) = 10 > o — the regime where the network, not the
    /// endpoint, sets the gap.
    fn monsoon() -> MachineTiming {
        table1()[4].clone()
    }

    fn probe_cfg() -> CalibConfig {
        CalibConfig::quick().with_endpoints(0, 40)
    }

    #[test]
    fn unloaded_flood_interval_is_the_serialization_gap() {
        let mut m = PacketMachine::from_timing(&monsoon(), Topology::Butterfly, 64, 160);
        assert_eq!(m.derived_g(), 10);
        let series = flood_series(&mut m, 0, 40, &[4, 8, 16, 32], 1);
        let fit = theil_sen(&series);
        assert!(
            (fit.slope - 10.0).abs() < 0.5,
            "unloaded delivery interval {} vs serialize 10",
            fit.slope
        );
    }

    #[test]
    fn calibration_recovers_endpoint_overhead_and_gap() {
        let mut m = PacketMachine::from_timing(&monsoon(), Topology::Butterfly, 64, 160);
        let cal = calibrate(&mut m, &probe_cfg());
        assert!(
            cal.logp.o.within(m.overhead as f64, 0.1),
            "o measured {} vs configured {}",
            cal.logp.o,
            m.overhead
        );
        assert!(
            cal.logp.g.within(m.derived_g() as f64, 0.1),
            "g measured {} vs derived {}",
            cal.logp.g,
            m.derived_g()
        );
        assert!(!cal.overhead_bound, "serialize > o on Monsoon");
        // L covers at least the route: a few cycles of hops plus the
        // serialization pipeline.
        assert!(cal.logp.l.value > 0.0);
    }

    #[test]
    fn heavy_background_raises_the_measured_gap() {
        let base = PacketMachine::from_timing(&monsoon(), Topology::Butterfly, 64, 160);
        let curve = g_of_load(&base, &[0.0, 0.9], &probe_cfg());
        let (g0, g_hot) = (curve[0].1.value, curve[1].1.value);
        assert!(
            g_hot > 1.3 * g0,
            "gap must rise under saturation: {g0} -> {g_hot}"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let mut a = PacketMachine::from_timing(&monsoon(), Topology::Butterfly, 64, 160)
            .with_background(0.4);
        let mut b = a.clone();
        let pa = a.run(&[(0, Script::flood(40, 16, 1)), (40, Script::sink(16))]);
        let pb = b.run(&[(0, Script::flood(40, 16, 1)), (40, Script::sink(16))]);
        assert_eq!(pa, pb);
    }

    #[test]
    fn per_size_flood_scales_with_words() {
        // A w-word message is w packets: the per-message interval grows
        // linearly in the size, slope = serialize per word.
        let mut m = PacketMachine::from_timing(&monsoon(), Topology::Butterfly, 64, 160);
        let fit = crate::experiments::size_fit(&mut m, 0, 40, &[4, 8, 16], &[1, 2, 4]);
        assert!(
            (fit.slope - 10.0).abs() < 1.0,
            "per-word gap {} vs serialize 10",
            fit.slope
        );
    }
}
