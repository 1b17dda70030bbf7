//! Micro-benchmark scripts: the tiny programs the calibrator runs on a
//! black-box machine.
//!
//! A [`Script`] is a straight-line sequence of the three things a LogP
//! processor can do — send a message, wait for one, compute locally.
//! Every calibration experiment (§4.1.4's ping-pong, the spaced-send
//! overhead probe, the flood that measures the gap) is expressible in
//! this vocabulary, which is exactly why the backend trait can stay
//! small: a machine only has to run scripts and report clocks.

/// One scripted action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Transmit a `words`-word message to processor `dst` (1 word = the
    /// machine's native small-message payload; larger values probe the
    /// per-size gap).
    Send { dst: u32, words: u64 },
    /// Block until one message has been received (reception overhead is
    /// paid by the machine, not scripted).
    Recv,
    /// Spin for `0` cycles of local work.
    Compute(u64),
}

/// A straight-line program for one processor. The machine reports the
/// clock at which the script's last action completed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Script {
    pub ops: Vec<Op>,
}

impl Script {
    pub fn new(ops: Vec<Op>) -> Self {
        Script { ops }
    }

    /// `k` request/reply exchanges with `peer`: the ping side of the
    /// ping-pong. Finishes on receipt of the `k`-th reply, so the finish
    /// clock is `k · RTT` plus a constant.
    pub fn ping(peer: u32, k: u64) -> Self {
        let mut ops = Vec::with_capacity(2 * k as usize);
        for _ in 0..k {
            ops.push(Op::Send {
                dst: peer,
                words: 1,
            });
            ops.push(Op::Recv);
        }
        Script::new(ops)
    }

    /// The echo side: `k` receive-then-reply exchanges with `peer`.
    pub fn pong(peer: u32, k: u64) -> Self {
        let mut ops = Vec::with_capacity(2 * k as usize);
        for _ in 0..k {
            ops.push(Op::Recv);
            ops.push(Op::Send {
                dst: peer,
                words: 1,
            });
        }
        Script::new(ops)
    }

    /// Issue `k` back-to-back `words`-word sends to `peer`: the flood
    /// whose steady-state issue interval is `max(g, o)`.
    pub fn flood(peer: u32, k: u64, words: u64) -> Self {
        Script::new(vec![Op::Send { dst: peer, words }; k as usize])
    }

    /// Absorb `k` messages: the sink paired with [`Script::flood`]. Its
    /// finish clock tracks the delivery rate — the receiver-side view of
    /// the gap.
    pub fn sink(k: u64) -> Self {
        Script::new(vec![Op::Recv; k as usize])
    }

    /// `k` iterations of send-then-compute(`spacing`): with `spacing`
    /// comfortably above the gap, each iteration costs exactly
    /// `o + spacing`, isolating the overhead.
    pub fn spaced_flood(peer: u32, k: u64, spacing: u64) -> Self {
        let mut ops = Vec::with_capacity(2 * k as usize);
        for _ in 0..k {
            ops.push(Op::Send {
                dst: peer,
                words: 1,
            });
            ops.push(Op::Compute(spacing));
        }
        Script::new(ops)
    }

    /// Number of messages this script sends.
    pub fn sends(&self) -> u64 {
        self.ops
            .iter()
            .filter(|op| matches!(op, Op::Send { .. }))
            .count() as u64
    }

    /// Number of messages this script waits for.
    pub fn recvs(&self) -> u64 {
        self.ops.iter().filter(|op| matches!(op, Op::Recv)).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_balance_sends_and_recvs() {
        let k = 7;
        assert_eq!(Script::ping(1, k).sends(), k);
        assert_eq!(Script::ping(1, k).recvs(), k);
        assert_eq!(Script::pong(0, k).sends(), k);
        assert_eq!(Script::flood(1, k, 1).sends(), k);
        assert_eq!(Script::flood(1, k, 1).recvs(), 0);
        assert_eq!(Script::sink(k).recvs(), k);
        assert_eq!(Script::spaced_flood(1, k, 100).sends(), k);
    }

    #[test]
    fn ping_interleaves_send_then_recv() {
        let s = Script::ping(3, 2);
        assert_eq!(
            s.ops,
            vec![
                Op::Send { dst: 3, words: 1 },
                Op::Recv,
                Op::Send { dst: 3, words: 1 },
                Op::Recv,
            ]
        );
        let p = Script::pong(0, 1);
        assert_eq!(p.ops, vec![Op::Recv, Op::Send { dst: 0, words: 1 }]);
    }
}
