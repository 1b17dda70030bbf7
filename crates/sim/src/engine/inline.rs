//! The two per-processor containers of the message path, each holding its
//! common case in place: a tree rank has one or two messages in flight and
//! queues one send, so neither allocates for it. Both are `pub` for the
//! same reason [`super::calendar::Calendar`] is — `tests/engine_queue.rs`
//! runs each against the `VecDeque` it replaced.

use crate::process::Command;
use logp_core::Cycles;
use std::collections::VecDeque;

/// An empty inline slot of a [`SrcRing`]: later than any release instant
/// (`engine::TIME_LIMIT` is half the range), so it also sorts last.
const EMPTY: Cycles = Cycles::MAX;

/// The network-release instants of one source's in-flight messages,
/// ascending: the lanes' source-side capacity window. Up to three sit in
/// place; a sender with more in flight spills to a `VecDeque` and comes
/// back when the window drains.
#[derive(Debug, Clone)]
pub enum SrcRing {
    /// Ascending, `Cycles::MAX` past the last.
    Inline([Cycles; 3]),
    Spilled(VecDeque<Cycles>),
}

impl Default for SrcRing {
    fn default() -> Self {
        SrcRing::Inline([EMPTY; 3])
    }
}

impl SrcRing {
    /// Messages in the window.
    pub fn len(&self) -> usize {
        match self {
            SrcRing::Inline(at) => at.iter().filter(|&&t| t != EMPTY).count(),
            SrcRing::Spilled(q) => q.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.front().is_none()
    }

    /// The earliest release still ahead.
    pub fn front(&self) -> Option<Cycles> {
        match self {
            SrcRing::Inline(at) => Some(at[0]).filter(|&t| t != EMPTY),
            SrcRing::Spilled(q) => q.front().copied(),
        }
    }

    /// The latest release.
    pub fn back(&self) -> Option<Cycles> {
        match self {
            SrcRing::Inline(at) => at.iter().rev().copied().find(|&t| t != EMPTY),
            SrcRing::Spilled(q) => q.back().copied(),
        }
    }

    /// Drop every message released at or before `now`: a release at `t`
    /// frees its slot for a send attempted at `t`.
    pub fn expire(&mut self, now: Cycles) {
        match self {
            SrcRing::Inline(at) => {
                while at[0] != EMPTY && at[0] <= now {
                    *at = [at[1], at[2], EMPTY];
                }
            }
            SrcRing::Spilled(q) => {
                while q.front().is_some_and(|&t| t <= now) {
                    q.pop_front();
                }
                if q.is_empty() {
                    *self = SrcRing::default();
                }
            }
        }
    }

    /// Add a message released at `release` (before `Cycles::MAX`), keeping
    /// the order; equal instants keep theirs. Jitter-free traffic appends.
    pub fn push(&mut self, release: Cycles) {
        debug_assert!(release < EMPTY);
        match self {
            SrcRing::Inline(at) if at[2] == EMPTY => {
                let pos = at.partition_point(|&t| t <= release);
                at[pos..].rotate_right(1);
                at[pos] = release;
            }
            SrcRing::Inline(at) => {
                let mut q = VecDeque::with_capacity(2 * at.len() + 2);
                q.extend(*at);
                *self = SrcRing::Spilled(q);
                self.push(release);
            }
            SrcRing::Spilled(q) if q.back().is_some_and(|&b| b > release) => {
                q.insert(q.partition_point(|&t| t <= release), release);
            }
            SrcRing::Spilled(q) => q.push_back(release),
        }
    }
}

/// The commands one processor has issued and not yet executed, oldest
/// first. A processor that issues one command at a time — a ping-pong, a
/// leaf of a tree — keeps it in place and never allocates; a second
/// command queued behind the first moves both to a contiguous `VecDeque`,
/// which then stays (its buffer is the queue's working set on dense
/// traffic, 32 bytes a send).
#[derive(Debug)]
pub enum CmdQueue {
    Inline(Option<Command>),
    Spilled(VecDeque<Command>),
}

impl Default for CmdQueue {
    fn default() -> Self {
        CmdQueue::Inline(None)
    }
}

impl CmdQueue {
    pub fn len(&self) -> usize {
        match self {
            CmdQueue::Inline(slot) => usize::from(slot.is_some()),
            CmdQueue::Spilled(q) => q.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.front().is_none()
    }

    pub fn front(&self) -> Option<&Command> {
        match self {
            CmdQueue::Inline(slot) => slot.as_ref(),
            CmdQueue::Spilled(q) => q.front(),
        }
    }

    pub fn pop_front(&mut self) -> Option<Command> {
        match self {
            CmdQueue::Inline(slot) => slot.take(),
            CmdQueue::Spilled(q) => q.pop_front(),
        }
    }

    /// Abandon everything queued (a crash).
    pub fn clear(&mut self) {
        match self {
            CmdQueue::Inline(slot) => *slot = None,
            CmdQueue::Spilled(q) => q.clear(),
        }
    }

    /// Queue what one handler `issued`, in order, leaving `issued` empty.
    /// A first buffer is exactly what it has to hold — two sends for a rank
    /// of a binary tree — not the growth policy's minimum.
    pub fn append(&mut self, issued: &mut Vec<Command>) {
        match self {
            CmdQueue::Spilled(q) => q.extend(issued.drain(..)),
            CmdQueue::Inline(slot) if slot.is_none() && issued.len() <= 1 => *slot = issued.pop(),
            CmdQueue::Inline(_) if issued.is_empty() => {}
            CmdQueue::Inline(slot) => {
                let mut q = VecDeque::new();
                q.reserve_exact(usize::from(slot.is_some()) + issued.len());
                q.extend(slot.take());
                q.extend(issued.drain(..));
                *self = CmdQueue::Spilled(q);
            }
        }
    }
}
