//! The two point-to-point traffic patterns the workloads and probes share.

use logp_sim::{Ctx, Data, Message, Process};

/// P0 and P1 bounce a decrementing counter until it reaches zero: queue
/// depth ≈ 1 and one handler dispatch per event — the per-event floor.
pub struct PingPong {
    pub rounds: u64,
}

impl Process for PingPong {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.me() == 0 {
            ctx.send(1, 0, Data::U64(self.rounds));
        }
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Ctx<'_>) {
        let r = msg.data.as_u64();
        if r > 0 {
            ctx.send(1 - ctx.me(), 0, Data::U64(r - 1));
        }
    }
}

/// In which order a processor visits its `P − 1` peers in one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Step `j` of every sender targets `(me + k_j) % P` with the same
    /// `k_j`, so each step is a permutation: no destination is ever
    /// oversubscribed and nobody stalls (the paper's staggered remap).
    /// `offset` rotates the `k` sequence.
    Stagger { offset: u32 },
    /// Everyone walks `start, start+1, …` in the same order, so all
    /// senders converge on one destination at a time: the §4.1.4 convoy —
    /// capacity stalls, destination-side admission, waiter wake-ups.
    HotSpot { start: u32 },
}

/// All-to-all: each processor sends one empty message to every other, for
/// `rounds` rounds; a round starts once the previous one's `P − 1`
/// messages have been counted in.
pub struct AllToAll {
    pub order: Order,
    pub rounds: u32,
    done: u32,
    got: u32,
}

impl AllToAll {
    pub fn new(order: Order, rounds: u32) -> Self {
        AllToAll {
            order,
            rounds,
            done: 0,
            got: 0,
        }
    }

    fn blast(&self, ctx: &mut Ctx<'_>) {
        let (p, me) = (ctx.procs(), ctx.me());
        match self.order {
            Order::Stagger { offset } => {
                for j in 0..p - 1 {
                    let k = 1 + (j + offset) % (p - 1);
                    ctx.send((me + k) % p, 0, Data::Empty);
                }
            }
            Order::HotSpot { start } => {
                for j in 0..p {
                    let dst = (start + j) % p;
                    if dst != me {
                        ctx.send(dst, 0, Data::Empty);
                    }
                }
            }
        }
    }
}

impl Process for AllToAll {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.blast(ctx);
    }

    fn on_message(&mut self, _msg: &Message, ctx: &mut Ctx<'_>) {
        self.got += 1;
        if self.got == ctx.procs() - 1 {
            self.got = 0;
            self.done += 1;
            if self.done < self.rounds {
                self.blast(ctx);
            }
        }
    }
}
