//! An independent LogP machine for `.wl` programs: the oracle the classic
//! engine is held to.
//!
//! It is written from the paper and from DESIGN.md "Simulator semantics
//! (normative)", not from the engine, in the shape of fennel's
//! `LogPMachine`: three busy-until arrays (`procs`, `nic_sends`,
//! `nic_recvs`), per-processor in-transit counts, and an agenda of tasks
//! ordered by `(time, key)` with one handler per task. There is no slab,
//! no calendar, no lane and no monomorph. `host_noise` and
//! `network_noise` perturb compute and flight times by DESIGN.md's noise
//! rule: the k-th draw of a processor on a stream is
//! `mix(seed, stream, proc, k) % (max + 1)`, which an independent machine
//! reproduces because it depends on no global event order.
//!
//! Capacity is the paper's (§3): at most ⌈L/g⌉ messages in transit from
//! or to any processor — a message is in transit for its flight `L`, from
//! the start of its send — and a sender that would exceed either bound
//! stalls. A destination's interface also holds a message from its send
//! until its reception completes, at most ⌈L/g⌉ + (⌈L/g⌉ + 2) of them (NI
//! backpressure). The program side is the `.wl` execution model of
//! `docs/WORKLOADS.md`: a node fires once its dependencies (`after:` edges
//! and the barrier fence) completed, the ready nodes of a processor fire
//! in declaration order, and the i-th delivery on a `(src, dst, tag)`
//! channel satisfies that channel's i-th `recv`.

use logp_core::rng::{mix, stream};
use logp_core::{Cycles, LogP};
use logp_wl::{Op, Workload};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The machine's noise, as `SimConfig` names it: latency jitter below
/// `L`, per-compute drift and per-processor skew in parts per 1024, and
/// the seed of every draw. The default draws nothing.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Noise {
    pub(crate) seed: u64,
    pub(crate) jitter: Cycles,
    pub(crate) drift_ppk: u64,
    pub(crate) skew_ppk: u64,
}

/// What a run of the oracle reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Outcome {
    /// Time of the last task.
    pub(crate) completion: Cycles,
    /// Completion cycle of every node (`Cycles::MAX` if it never did).
    pub(crate) node_times: Vec<Cycles>,
    /// Per processor: send and receive overhead, compute and stall cycles.
    pub(crate) busy: Vec<Cycles>,
    /// Per processor: cycles stalled on capacity.
    pub(crate) stall: Vec<Cycles>,
    /// Tasks the agenda ran.
    pub(crate) tasks: u64,
}

#[derive(Clone, Copy)]
enum Task {
    /// A message's flight ends: it leaves both capacity windows.
    Land(usize, usize),
    /// A message reaches its destination's interface.
    Arrive(usize),
    SendDone(usize),
    ComputeDone(usize, usize),
    RecvDone(usize, usize),
    TimerFire(usize, usize),
    BarrierRelease,
    /// A processor looks at itself again.
    Wake(usize),
}

/// A message: source, destination, tag.
type Msg = (usize, usize, u32);

#[derive(Default)]
struct Proc {
    /// The nodes whose operation it has yet to start, in the order they
    /// fired.
    cmds: VecDeque<usize>,
    /// Arrived messages, oldest first.
    inbox: VecDeque<usize>,
    /// Busy with an operation whose end is on the agenda.
    engaged: bool,
    waiting_src: bool,
    waiting_dst: bool,
    stall_since: Option<Cycles>,
    /// Messages in transit from and to it, and held by its interface.
    from: u64,
    to: u64,
    held: u64,
    /// Overhead and compute cycles, and stall cycles.
    work: Cycles,
    stall: Cycles,
    /// Senders stalled on it, in the order they stalled.
    waiters: VecDeque<usize>,
    /// Its ready nodes (ids grow in declaration order), and the barrier
    /// it waits in.
    ready: BTreeSet<usize>,
    barrier: usize,
}

/// The machine; [`run`] builds and runs one.
#[derive(Default)]
struct LogPMachine {
    l: Cycles,
    o: Cycles,
    g: Cycles,
    capacity: u64,
    /// When each processor is free, and when its interface may start the
    /// next send and the next reception (the gap `g`).
    procs: Vec<Cycles>,
    nic_sends: Vec<Cycles>,
    nic_recvs: Vec<Cycles>,
    agenda: BTreeMap<(Cycles, (u8, u64)), Task>,
    seq: u64,
    now: Cycles,
    noise: Noise,
    /// Per processor: its skew in parts per 1024 (1024 is nominal), and
    /// how many jitter and drift draws it has made.
    scale: Vec<i64>,
    draws: Vec<u64>,
    p: Vec<Proc>,
    /// Per node: its processor and operation, the dependencies it waits
    /// for, its successors, whether its message was delivered, and when
    /// it completed.
    ops: Vec<(usize, Op)>,
    deps_left: Vec<u32>,
    succs: Vec<Vec<usize>>,
    delivered: Vec<bool>,
    times: Vec<Cycles>,
    msgs: Vec<Msg>,
    /// Per `(src, dst, tag)`, its recvs not yet matched, in order.
    channels: BTreeMap<Msg, VecDeque<usize>>,
    entered: usize,
}

/// Run `wl`, which must be valid, on `m` re-dimensioned to `wl.procs`
/// processors, with capacity enforced and `noise` drawn. A processor
/// whose nodes all completed has nothing left to do: every message sent
/// to it was received, and every processor takes part in every barrier.
pub(crate) fn run(wl: &Workload, m: &LogP, noise: Noise) -> Outcome {
    let (n, k) = (wl.procs as usize, wl.nodes.len());
    let mut o = LogPMachine::default();
    (o.l, o.o, o.g, o.capacity) = (m.l, m.o, m.g, m.l.div_ceil(m.g));
    (o.procs, o.nic_sends, o.nic_recvs) = (vec![0; n], vec![0; n], vec![0; n]);
    // Skew is each processor's draw 0 on its own stream.
    let skew = noise.skew_ppk;
    let scale = |q| 1024 + draw(noise.seed, stream::SKEW, q, 0, 2 * skew) as i64 - skew as i64;
    (o.noise, o.scale, o.draws) = (noise, (0..n).map(scale).collect(), vec![0; n]);
    o.p = (0..n).map(|_| Proc::default()).collect();
    (o.succs, o.delivered, o.times) = (vec![Vec::new(); k], vec![false; k], vec![Cycles::MAX; k]);
    // The edges a processor's own completions carry: `after:`, and the
    // barrier fence — a barrier waits for every earlier node of its
    // processor, and every later node waits for the barrier.
    let (mut last_barrier, mut segment) = (vec![None; n], vec![Vec::new(); n]);
    for node in wl.nodes.iter() {
        let (id, q) = (node.id as usize, node.proc as usize);
        let mut deps: Vec<usize> = node.deps.iter().map(|&d| d as usize).collect();
        deps.extend(last_barrier[q]);
        if matches!(node.op, Op::Barrier) {
            deps.append(&mut segment[q]);
            last_barrier[q] = Some(id);
        } else {
            segment[q].push(id);
        }
        deps.iter().for_each(|&d| o.succs[d].push(id));
        if let Op::Recv { src, tag } = node.op {
            let chan = (src as usize, q, tag);
            o.channels.entry(chan).or_default().push_back(id);
        }
        o.deps_left.push(deps.len() as u32);
        o.ops.push((q, node.op));
        if deps.is_empty() {
            o.p[q].ready.insert(id);
        }
    }
    (0..n).for_each(|q| o.drive(q));
    (0..n).for_each(|q| o.advance(q));
    while let Some(((t, _), task)) = o.agenda.pop_first() {
        o.now = t;
        o.handle(task);
    }
    Outcome {
        completion: o.now,
        node_times: o.times,
        busy: o.p.iter().map(|p| p.work + p.stall).collect(),
        stall: o.p.iter().map(|p| p.stall).collect(),
        tasks: o.seq,
    }
}

impl LogPMachine {
    /// Put `task` on the agenda at `t`. Same-cycle order: the network
    /// first (a message arriving, a flight ending), then the end of an
    /// operation, then a processor waking; within a class, the order
    /// they were put there.
    fn at(&mut self, t: Cycles, task: Task) {
        self.seq += 1;
        let class = match task {
            Task::Land(..) | Task::Arrive(_) => 0,
            Task::Wake(_) => 2,
            _ => 1,
        };
        self.agenda.insert((t, (class, self.seq)), task);
    }

    // ---- The program: a `.wl` interpreter on every processor. ----

    /// Node `id` completes now; its successors may become ready.
    fn finish(&mut self, id: usize) {
        self.times[id] = self.now;
        for s in std::mem::take(&mut self.succs[id]) {
            self.deps_left[s] -= 1;
            if self.deps_left[s] == 0 {
                self.p[self.ops[s].0].ready.insert(s);
            }
        }
    }

    /// Fire ready nodes in declaration order until none is left: a send
    /// completes as it is queued, a recv once its message is delivered,
    /// the rest when their operation ends.
    fn drive(&mut self, q: usize) {
        while let Some(id) = self.p[q].ready.pop_first() {
            match self.ops[id].1 {
                Op::Recv { .. } if self.delivered[id] => self.finish(id),
                Op::Recv { .. } => {}
                op => {
                    self.p[q].cmds.push_back(id);
                    if matches!(op, Op::Send { .. }) {
                        self.finish(id);
                    }
                }
            }
        }
    }

    fn complete(&mut self, id: usize) {
        self.finish(id);
        self.drive(self.ops[id].0);
    }

    // ---- The machine. ----

    fn handle(&mut self, task: Task) {
        if let Task::SendDone(q) | Task::ComputeDone(q, _) | Task::RecvDone(q, _) = task {
            self.p[q].engaged = false;
        }
        match task {
            Task::Land(src, dst) => {
                self.p[src].from -= 1;
                self.p[dst].to -= 1;
                self.wake_waiters(dst);
                if std::mem::take(&mut self.p[src].waiting_src) {
                    self.advance(src);
                }
            }
            Task::Arrive(msg) => {
                let q = self.msgs[msg].1;
                self.p[q].inbox.push_back(msg);
                self.advance(q);
            }
            Task::SendDone(q) | Task::Wake(q) => self.advance(q),
            Task::ComputeDone(q, id) | Task::TimerFire(q, id) => {
                self.complete(id);
                self.advance(q);
            }
            // The message satisfies its channel's next unmatched recv.
            Task::RecvDone(q, msg) => {
                self.p[q].held -= 1;
                self.wake_waiters(q);
                let next = self.channels.get_mut(&self.msgs[msg]);
                let id = next
                    .and_then(VecDeque::pop_front)
                    .expect("a recv per message");
                self.delivered[id] = true;
                if self.deps_left[id] == 0 {
                    self.complete(id);
                }
                self.advance(q);
            }
            Task::BarrierRelease => {
                self.entered = 0;
                for q in 0..self.p.len() {
                    (self.p[q].engaged, self.procs[q]) = (false, self.now);
                    self.complete(self.p[q].barrier);
                }
                (0..self.p.len()).for_each(|q| self.advance(q));
            }
        }
    }

    /// Let processor `q` make progress now: receive, start its next
    /// operation, or put itself on the agenda for when it can.
    fn advance(&mut self, q: usize) {
        let (now, p) = (self.now, &self.p[q]);
        if p.engaged {
            return;
        }
        // Polling at an operation boundary: an arrived message whose
        // reception can start now goes first, unless the processor is
        // stalled on capacity.
        let free = self.procs[q] <= now && self.nic_recvs[q] <= now;
        if free && !p.waiting_src && !p.waiting_dst && !p.inbox.is_empty() {
            return self.receive(q);
        }
        let Some(&id) = p.cmds.front() else {
            // Idle: receive the oldest arrival once processor and gap allow.
            let r = self.procs[q].max(self.nic_recvs[q]);
            match p.inbox.is_empty() {
                false if now < r => self.at(r, Task::Wake(q)),
                false => self.receive(q),
                true => {}
            }
            return;
        };
        match self.ops[id].1 {
            Op::Send { dst, .. } => self.send(q, dst as usize),
            Op::Compute { .. } | Op::Barrier if now < self.procs[q] => {
                self.at(self.procs[q], Task::Wake(q));
            }
            Op::Compute { cycles } => {
                self.p[q].cmds.pop_front();
                let cycles = self.host_noise(q, cycles);
                (self.procs[q], self.p[q].engaged) = (now + cycles, true);
                self.p[q].work += cycles;
                self.at(now + cycles, Task::ComputeDone(q, id));
            }
            Op::Barrier => {
                self.p[q].cmds.pop_front();
                (self.p[q].engaged, self.p[q].barrier) = (true, id);
                self.entered += 1;
                if self.entered == self.p.len() {
                    self.at(now, Task::BarrierRelease);
                }
            }
            Op::Timer { cycles } => {
                self.p[q].cmds.pop_front();
                self.at(now + cycles, Task::TimerFire(q, id));
                self.advance(q);
            }
            Op::Recv { .. } => unreachable!("a recv is never queued"),
        }
    }

    fn send(&mut self, q: usize, dst: usize) {
        let now = self.now;
        let s = self.procs[q].max(self.nic_sends[q]);
        if now < s {
            return self.at(s, Task::Wake(q));
        }
        // Capacity, from the paper: stall while either window is full; a
        // flight from `q` ending retries the send, as does anything that
        // frees room at `dst`.
        let cap = self.capacity;
        let src_full = self.p[q].from >= cap;
        if src_full || self.p[dst].to >= cap || self.p[dst].held >= 2 * cap + 2 {
            self.p[q].stall_since.get_or_insert(now);
            if src_full {
                self.p[q].waiting_src = true;
            } else if !std::mem::replace(&mut self.p[q].waiting_dst, true) {
                self.p[dst].waiters.push_back(q);
            }
            return;
        }
        let id = self.p[q].cmds.pop_front().expect("a send is at the front");
        let Op::Send { tag, .. } = self.ops[id].1 else {
            unreachable!("a send is at the front");
        };
        self.p[q].waiting_src = false;
        self.end_stall(q);
        let flight = self.network_noise(q);
        (self.procs[q], self.nic_sends[q]) = (now + self.o, now + self.g);
        self.p[q].work += self.o;
        self.p[q].from += 1;
        self.p[dst].to += 1;
        self.p[dst].held += 1;
        self.msgs.push((q, dst, tag));
        self.at(now + flight, Task::Land(q, dst));
        self.at(now + self.o + flight, Task::Arrive(self.msgs.len() - 1));
        // With nothing queued and nothing arrived, the processor is free
        // when its overhead ends, and no task marks that.
        if !self.p[q].cmds.is_empty() || !self.p[q].inbox.is_empty() {
            self.p[q].engaged = true;
            self.at(now + self.o, Task::SendDone(q));
        }
    }

    fn receive(&mut self, q: usize) {
        let now = self.now;
        let msg = self.p[q].inbox.pop_front().expect("an arrival to receive");
        self.end_stall(q);
        (self.procs[q], self.nic_recvs[q]) = (now + self.o, now + self.g);
        (self.p[q].engaged, self.p[q].work) = (true, self.p[q].work + self.o);
        self.at(now + self.o, Task::RecvDone(q, msg));
    }

    // ---- Noise. ----

    /// Processor `q`'s next draw on `tag`, uniform on `0..=max`.
    fn draw(&mut self, q: usize, tag: u64, max: u64) -> u64 {
        self.draws[q] += 1;
        draw(self.noise.seed, tag, q, self.draws[q] - 1, max)
    }

    /// How long a `cycles`-long compute on `q` takes: scaled by its skew
    /// plus a fresh drift draw, unless it is empty or neither is on.
    fn host_noise(&mut self, q: usize, cycles: Cycles) -> Cycles {
        let (drift, skew) = (self.noise.drift_ppk, self.noise.skew_ppk);
        if cycles == 0 || drift + skew == 0 {
            return cycles;
        }
        let drift = match drift {
            0 => 0,
            _ => self.draw(q, stream::DRIFT, 2 * drift) as i64 - drift as i64,
        };
        cycles * (self.scale[q] + drift).max(0) as u64 / 1024
    }

    /// The flight of a message `q` sends: `L` less a jitter draw, the
    /// jitter capped at `L - 1`; no draw when that cap is 0.
    fn network_noise(&mut self, q: usize) -> Cycles {
        match self.noise.jitter.min(self.l.saturating_sub(1)) {
            0 => self.l,
            j => self.l - self.draw(q, stream::LATENCY, j),
        }
    }

    fn end_stall(&mut self, q: usize) {
        if let Some(since) = self.p[q].stall_since.take() {
            self.p[q].stall += self.now - since;
        }
    }

    /// Every sender stalled on `dst` tries again, in the order it stalled.
    fn wake_waiters(&mut self, dst: usize) {
        for w in std::mem::take(&mut self.p[dst].waiters) {
            self.p[w].waiting_dst = false;
            self.advance(w);
        }
    }
}

/// Draw `k` of processor `q` on stream `tag`, uniform on `0..=max`.
fn draw(seed: u64, tag: u64, q: usize, k: u64, max: u64) -> u64 {
    mix(&[seed, tag, q as u64, k]) % (max + 1)
}
