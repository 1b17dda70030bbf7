//! The shared-memory veneer over message passing (§3.2).
//!
//! "Although the model is stated in terms of primitive message events, we
//! do not assume that algorithms must be described in terms of explicit
//! message passing operations... Shared memory models are implemented on
//! distributed memory machines through an implicit exchange of messages.
//! Under LogP, reading a remote location requires time `2L + 4o`.
//! Prefetch operations, which initiate a read and continue, can be issued
//! every `g` cycles and cost `2o` units of processing time."
//!
//! This module is that veneer, in the style of the Active Messages layer
//! \[33\] the paper's CM-5 numbers come from: every processor hosts a
//! memory segment served by a request handler; clients issue blocking
//! reads, pipelined prefetches, remote writes and remote fetch-and-adds.
//! The §3.2 cost claims are asserted as tests.

use logp_core::{Cycles, LogP, ProcId};
use logp_sim::{Ctx, Data, Message, Process, SharedCell, Sim, SimConfig};
use std::collections::HashSet;

const TAG_READ_REQ: u32 = 0xE0; // Pair(request id, address)
const TAG_READ_RESP: u32 = 0xE1; // IdxF64(request id, value)
const TAG_WRITE: u32 = 0xE2; // IdxF64(address, value)
const TAG_FADD_REQ: u32 = 0xE3; // IdxF64(req<<32|address, delta)
const TAG_FADD_RESP: u32 = 0xE4; // IdxF64(request id, old value)

/// The memory-serving side: a segment of `f64` cells addressed
/// `0..cells`, plus the request handlers. Algorithms embed this process
/// on every processor (a processor can be both server and client).
pub struct MemoryNode {
    pub cells: Vec<f64>,
    /// Client half, if this node also issues requests.
    pub client: Option<Box<dyn AmClient>>,
    /// Ids of the reads and fetch-adds awaiting their response.
    pending: HashSet<u64>,
    next_req: u64,
    /// Where [`run_two_node`] reads the segment back: every cell a write
    /// or fetch-add changes is mirrored here.
    mirror: Option<SharedCell<Vec<f64>>>,
}

/// A client program driving remote-memory operations through
/// [`AmCtx`]. `Send` for the same reason [`Process`] is: the sharded
/// engine may move processor state to a worker thread.
pub trait AmClient: Send {
    fn on_start(&mut self, am: &mut AmCtx<'_, '_>);
    fn on_value(&mut self, _req: u64, _value: f64, _am: &mut AmCtx<'_, '_>) {}
    fn on_compute_done(&mut self, _tag: u64, _am: &mut AmCtx<'_, '_>) {}
}

/// The client-facing operations; wraps the simulator context.
pub struct AmCtx<'a, 'b> {
    ctx: &'a mut Ctx<'b>,
    pending: &'a mut HashSet<u64>,
    next_req: &'a mut u64,
}

impl AmCtx<'_, '_> {
    pub fn now(&self) -> Cycles {
        self.ctx.now()
    }
    pub fn me(&self) -> ProcId {
        self.ctx.me()
    }
    pub fn procs(&self) -> u32 {
        self.ctx.procs()
    }
    pub fn compute(&mut self, cycles: Cycles, tag: u64) {
        self.ctx.compute(cycles, tag);
    }

    /// Initiate a read of `addr` on `node`; `on_value` fires with the
    /// returned request id when the value arrives. Non-blocking — this is
    /// the §3.2 *prefetch* ("initiate a read and continue"); a blocking
    /// read is a prefetch followed by waiting for `on_value`.
    pub fn read(&mut self, node: ProcId, addr: u64) -> u64 {
        let req = *self.next_req;
        *self.next_req += 1;
        self.pending.insert(req);
        self.ctx.send(node, TAG_READ_REQ, Data::Pair(req, addr));
        req
    }

    /// Fire-and-forget remote write.
    pub fn write(&mut self, node: ProcId, addr: u64, value: f64) {
        self.ctx.send(node, TAG_WRITE, Data::IdxF64(addr, value));
    }

    /// Remote fetch-and-add; `on_value` fires with the *old* value.
    pub fn fetch_add(&mut self, node: ProcId, addr: u64, delta: f64) -> u64 {
        let req = *self.next_req;
        *self.next_req += 1;
        self.pending.insert(req);
        assert!(
            addr < 1 << 32 && req < 1 << 32,
            "fadd packs req and addr in 32 bits each"
        );
        self.ctx
            .send(node, TAG_FADD_REQ, Data::IdxF64(req << 32 | addr, delta));
        req
    }
}

impl MemoryNode {
    pub fn new(cells: Vec<f64>, client: Option<Box<dyn AmClient>>) -> Self {
        MemoryNode {
            cells,
            client,
            pending: HashSet::new(),
            next_req: 0,
            mirror: None,
        }
    }

    fn store(&mut self, addr: usize, v: f64) {
        self.cells[addr] = v;
        if let Some(mirror) = &self.mirror {
            mirror.with(|m| m[addr] = v);
        }
    }

    fn with_client<F>(&mut self, ctx: &mut Ctx<'_>, f: F)
    where
        F: FnOnce(&mut dyn AmClient, &mut AmCtx<'_, '_>),
    {
        if let Some(mut client) = self.client.take() {
            {
                let mut am = AmCtx {
                    ctx,
                    pending: &mut self.pending,
                    next_req: &mut self.next_req,
                };
                f(client.as_mut(), &mut am);
            }
            self.client = Some(client);
        }
    }
}

impl Process for MemoryNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.with_client(ctx, |c, am| c.on_start(am));
    }

    fn on_compute_done(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        self.with_client(ctx, |c, am| c.on_compute_done(tag, am));
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Ctx<'_>) {
        match msg.tag {
            TAG_READ_REQ => {
                let (req, addr) = msg.data.as_pair();
                let v = self.cells[addr as usize];
                ctx.send(msg.src, TAG_READ_RESP, Data::IdxF64(req, v));
            }
            TAG_WRITE => {
                let (addr, v) = msg.data.as_idx_f64();
                self.store(addr as usize, v);
            }
            TAG_FADD_REQ => {
                let (packed, delta) = msg.data.as_idx_f64();
                let (req, addr) = (packed >> 32, packed & 0xFFFF_FFFF);
                let old = self.cells[addr as usize];
                self.store(addr as usize, old + delta);
                ctx.send(msg.src, TAG_FADD_RESP, Data::IdxF64(req, old));
            }
            TAG_READ_RESP | TAG_FADD_RESP => {
                let (req, v) = msg.data.as_idx_f64();
                assert!(self.pending.remove(&req), "response matches a request");
                self.with_client(ctx, |c, am| c.on_value(req, v, am));
            }
            other => unreachable!("unknown AM tag {other}"),
        }
    }
}

/// Run a two-node AM experiment: node 1 holds `cells`; node 0 runs the
/// `client`; returns (final cells, completion).
pub fn run_two_node<C: AmClient + 'static>(
    m: &LogP,
    cells: Vec<f64>,
    client: C,
    config: SimConfig,
) -> (Vec<f64>, Cycles) {
    assert!(m.p >= 2);
    let out = SharedCell::of(cells.clone());
    let mut sim = Sim::new(*m, config);
    sim.set_process(
        0,
        Box::new(MemoryNode::new(Vec::new(), Some(Box::new(client)))),
    );
    let mut memory = MemoryNode::new(cells, None);
    memory.mirror = Some(out.clone());
    sim.set_process(1, Box::new(memory));
    let r = sim.run().expect("AM experiment terminates");
    (out.get(), r.stats.completion)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// §3.2 golden claim: one blocking remote read takes 2L + 4o.
    #[test]
    fn remote_read_costs_2l_plus_4o() {
        struct OneRead {
            done_at: SharedCell<Cycles>,
            value: SharedCell<f64>,
        }
        impl AmClient for OneRead {
            fn on_start(&mut self, am: &mut AmCtx<'_, '_>) {
                am.read(1, 3);
            }
            fn on_value(&mut self, _req: u64, v: f64, am: &mut AmCtx<'_, '_>) {
                let now = am.now();
                self.done_at.with(|t| *t = now);
                self.value.with(|x| *x = v);
            }
        }
        let m = LogP::new(6, 2, 4, 2).unwrap();
        let done: SharedCell<Cycles> = SharedCell::new();
        let value: SharedCell<f64> = SharedCell::new();
        run_two_node(
            &m,
            vec![0.0, 0.0, 0.0, 42.5],
            OneRead {
                done_at: done.clone(),
                value: value.clone(),
            },
            SimConfig::default(),
        );
        assert_eq!(value.get(), 42.5);
        assert_eq!(done.get(), m.remote_read(), "remote read must cost 2L + 4o");
    }

    /// §3.2: prefetches issue every g and cost 2o of processing each; k
    /// pipelined reads complete in ~(k-1)·g + 2L + 4o, far below k
    /// blocking reads.
    #[test]
    fn prefetch_pipelines_at_the_gap() {
        struct PrefetchAll {
            k: u64,
            got: u64,
            done_at: SharedCell<Cycles>,
        }
        impl AmClient for PrefetchAll {
            fn on_start(&mut self, am: &mut AmCtx<'_, '_>) {
                for a in 0..self.k {
                    am.read(1, a);
                }
            }
            fn on_value(&mut self, _req: u64, _v: f64, am: &mut AmCtx<'_, '_>) {
                self.got += 1;
                if self.got == self.k {
                    let now = am.now();
                    self.done_at.with(|t| *t = now);
                }
            }
        }
        let m = LogP::new(60, 2, 10, 2).unwrap();
        let k = 16u64;
        let done: SharedCell<Cycles> = SharedCell::new();
        run_two_node(
            &m,
            (0..k).map(|v| v as f64).collect(),
            PrefetchAll {
                k,
                got: 0,
                done_at: done.clone(),
            },
            SimConfig::default(),
        );
        let pipelined = done.get();
        let blocking = k * m.remote_read();
        assert!(
            pipelined < blocking / 2,
            "prefetching must pipeline: {pipelined} vs blocking {blocking}"
        );
        // Lower bound: the requests leave every g.
        assert!(pipelined >= (k - 1) * m.g + m.remote_read());
        // And within a couple of gaps of that bound (the reply stream
        // shares the client's interface).
        assert!(pipelined <= (k - 1) * m.g.max(2 * m.o) * 2 + m.remote_read() + m.g);
    }

    /// Remote writes land; fetch-and-add returns old values and
    /// serializes correctly at the memory node.
    #[test]
    fn writes_and_fetch_adds_are_ordered_at_the_owner() {
        struct Mixed {
            olds: SharedCell<Vec<f64>>,
        }
        impl AmClient for Mixed {
            fn on_start(&mut self, am: &mut AmCtx<'_, '_>) {
                am.write(1, 0, 10.0);
                am.fetch_add(1, 0, 5.0);
                am.fetch_add(1, 0, 7.0);
            }
            fn on_value(&mut self, _req: u64, old: f64, _am: &mut AmCtx<'_, '_>) {
                self.olds.with(|o| o.push(old));
            }
        }
        let m = LogP::new(6, 2, 4, 2).unwrap();
        let olds: SharedCell<Vec<f64>> = SharedCell::new();
        let (cells, _) = run_two_node(
            &m,
            vec![0.0],
            Mixed { olds: olds.clone() },
            SimConfig::default(),
        );
        // Same-source messages without jitter arrive in order: write 10,
        // then +5 (old 10), then +7 (old 15).
        assert_eq!(olds.get(), vec![10.0, 15.0]);
        assert_eq!(cells, vec![22.0]);
    }

    /// Under latency jitter the *final* cell value is still the sum of
    /// all updates (fetch-add commutes), though old values may reorder.
    #[test]
    fn fetch_add_commutes_under_jitter() {
        struct Adds;
        impl AmClient for Adds {
            fn on_start(&mut self, am: &mut AmCtx<'_, '_>) {
                for i in 0..10 {
                    am.fetch_add(1, 0, (i + 1) as f64);
                }
            }
        }
        let m = LogP::new(20, 2, 3, 2).unwrap();
        for seed in 0..4 {
            let cfg = SimConfig::default().with_jitter(15).with_seed(seed);
            let (cells, _) = run_two_node(&m, vec![0.0], Adds, cfg);
            assert_eq!(cells, vec![55.0], "seed {seed}");
        }
    }
}
