//! The two per-processor containers of the message path, each holding its
//! common case in place: a tree rank has one or two messages in flight and
//! queues one send, so neither allocates for it. Past its first command a
//! queue packs each into a few bytes, a send's destination as the step
//! from the send before it: one byte for a bare send to the next
//! processor, the common case of an all-to-all burst. Both are `pub` for the
//! same reason [`super::calendar::Calendar`] is — `tests/engine_queue.rs`
//! runs each against the `VecDeque` it replaced.

use crate::message::Data;
use crate::process::Command;
use logp_core::{Cycles, ProcId};
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
/// leaf of a tree — keeps it in place and never allocates. A second
/// command queued behind the first moves both into one byte string,
/// which then stays: a header byte a command and its fields, little-endian.
/// A send's destination is the step from the last send's before it, none
/// for +1 — 1 byte for a send of no payload under tag 0 to the processor
/// after the last one's, 9 with one word, and 5 and 13 at most; 17 for a
/// compute. A command that owns heap memory — a
/// `SendBulk`, a send of a `Data::Block` or `Data::Seq` — parks whole in
/// the engine's [`CmdSlab`], and the string holds its slot.
///
/// The string's first buffer is what the handler issued and 16 bytes
/// more: the last 4 hold the destination of the last send written, the
/// rest is room for one more send of a word. An append that does not fit
/// moves the unread bytes down first and only then grows, and the cursor
/// resets when the string drains, so a queue that holds k commands at a
/// time allocates once.
#[derive(Debug, Default)]
pub struct CmdQueue(Repr);

#[derive(Debug)]
enum Repr {
    Inline(Option<Command>),
    Packed(Packed),
}

/// `buf[read..end]` is the queue: `count` commands. The whole buffer is
/// initialized, so a command is written field by field in place. Its last
/// `TAIL` bytes are the destination of the last in-place send written, the
/// writer's base for the next one's step; `dst` is the reader's, that of
/// the last in-place send read. Both start at 0, and they are equal
/// whenever the queue is empty.
#[derive(Debug)]
struct Packed {
    buf: Box<[u8]>,
    read: u32,
    end: u32,
    count: u32,
    dst: ProcId,
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Inline(None)
    }
}

/// The front of a [`CmdQueue`] without its payload: all the engine needs
/// to decide whether the command can run now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Head {
    Send { dst: ProcId },
    SendBulk { dst: ProcId, words: u64 },
    Compute { cycles: Cycles, tag: u64 },
    Barrier,
    Timer { cycles: Cycles, tag: u64 },
    Halt,
}

impl Head {
    /// `cmd`'s head.
    pub fn of(cmd: &Command) -> Head {
        match *cmd {
            Command::Send { dst, .. } => Head::Send { dst },
            Command::SendBulk(ref b) => Head::SendBulk {
                dst: b.dst,
                words: b.words,
            },
            Command::Compute { cycles, tag } => Head::Compute { cycles, tag },
            Command::Barrier => Head::Barrier,
            Command::Timer { cycles, tag } => Head::Timer { cycles, tag },
            Command::Halt => Head::Halt,
        }
    }

    /// The command's name as programs spell it, as [`Command::name`].
    pub fn name(&self) -> &'static str {
        match self {
            Head::Send { .. } => "send",
            Head::SendBulk { .. } => "send_bulk",
            Head::Compute { .. } => "compute",
            Head::Barrier => "barrier",
            Head::Timer { .. } => "timer",
            Head::Halt => "halt",
        }
    }
}

/// Where the queued commands that own heap memory wait: moved in whole
/// when a packed [`CmdQueue`] takes one, moved out when it pops or
/// abandons it, so a `Box` or an `Arc` is never copied or re-allocated.
/// One slab serves every processor of an engine; slots recycle through
/// `free`.
#[derive(Debug, Default)]
pub struct CmdSlab {
    /// A free slot holds `Command::Halt`.
    slots: Vec<Command>,
    free: Vec<u32>,
}

impl CmdSlab {
    /// Commands parked.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn park(&mut self, cmd: Command) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = cmd;
                slot
            }
            None => {
                self.slots.push(cmd);
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 parked commands")
            }
        }
    }

    fn take(&mut self, slot: u32) -> Command {
        self.free.push(slot);
        std::mem::replace(&mut self.slots[slot as usize], Command::Halt)
    }
}

// A packed command: a header byte, then its fields.
//
// * A send of an in-place payload: its destination as the header's
//   form says, from the last in-place send's before it — `NEXT`, one
//   more, in no bytes; `STEP8` or `STEP16`, a signed step of `i8` or
//   `i16` (wrapping in `u32`); `ABS`, `dst: u32` itself. Then `tag: u32`
//   only when the header has `TAGGED`, then the payload by op — nothing,
//   one word, two, or `Cplx`'s `idx: u32, re, im`; an `f64` as its bits.
// * `PARKED`: the slab slot, `u32`.
// * `COMPUTE`, `TIMER`: `cycles: u64, tag: u64`.
// * `BARRIER`, `HALT`: nothing.
const NIL: u8 = 0;
const U64: u8 = 1;
const F64: u8 = 2;
const PAIR: u8 = 3;
const IDX_F64: u8 = 4;
const CPLX: u8 = 5;
const PARKED: u8 = 6;
const COMPUTE: u8 = 7;
const TIMER: u8 = 8;
const BARRIER: u8 = 9;
const HALT: u8 = 10;
/// The op of a header byte.
const OP: u8 = 0x0F;
/// A send whose tag is not zero.
const TAGGED: u8 = 0x10;
/// How a send's destination is packed.
const FORM: u8 = 0x60;
const NEXT: u8 = 0x00;
const STEP8: u8 = 0x20;
const STEP16: u8 = 0x40;
const ABS: u8 = 0x60;
/// Destination bytes of each form, by `(h & FORM) >> 5`.
const DST: [u8; 4] = [0, 1, 2, 4];
/// Payload bytes of the send ops.
const PAYLOAD: [u8; 6] = [0, 8, 8, 16, 16, 20];
/// The bytes a first buffer has past its batch: the last destination
/// written, and room for one more send of a word up to a 16-bit step
/// away.
const SLACK: usize = 16;
/// The bytes at a buffer's end that hold the last destination written.
const TAIL: usize = 4;
/// The longest command: a tagged send of a `Data::Cplx`.
const MAX_LEN: usize = 1 + 4 + 4 + 20;

/// A command's encoded length, by its header byte.
const LEN: [u8; 256] = {
    let mut len = [1; 256];
    let mut h = 0;
    while h < len.len() {
        let op = h as u8 & OP;
        if op <= CPLX {
            let tag = if h as u8 & TAGGED != 0 { 4 } else { 0 };
            len[h] = 1 + dst_len(h as u8) as u8 + tag + PAYLOAD[op as usize];
        } else if op == PARKED {
            len[h] = 5;
        } else if op == COMPUTE || op == TIMER {
            len[h] = 17;
        }
        h += 1;
    }
    len
};

/// The destination bytes of a send whose header is `h`; 0 for any other
/// command, whose fields then start at 1 as well.
const fn dst_len(h: u8) -> usize {
    DST[((h & FORM) >> 5) as usize] as usize
}

/// `cmd`'s header byte behind an in-place send to `*last`, which moves to
/// `cmd`'s destination if `cmd` is one.
#[inline(always)]
fn header(cmd: &Command, last: &mut ProcId) -> u8 {
    match cmd {
        Command::Send { dst, tag, data } => {
            let op = match data {
                Data::Empty => NIL,
                Data::U64(_) => U64,
                Data::F64(_) => F64,
                Data::Pair(..) => PAIR,
                Data::IdxF64(..) => IDX_F64,
                Data::Cplx { .. } => CPLX,
                Data::Block(_) | Data::Seq { .. } => return PARKED,
            };
            let tagged = if *tag != 0 { TAGGED } else { 0 };
            let form = match dst.wrapping_sub(*last) as i32 {
                1 => NEXT,
                -0x80..=0x7F => STEP8,
                -0x8000..=0x7FFF => STEP16,
                _ => ABS,
            };
            *last = *dst;
            op | tagged | form
        }
        Command::SendBulk(_) => PARKED,
        Command::Compute { .. } => COMPUTE,
        Command::Timer { .. } => TIMER,
        Command::Barrier => BARRIER,
        Command::Halt => HALT,
    }
}

/// The bytes `cmd` takes in a packed queue whose last in-place send
/// before it went to `last`.
pub fn encoded_len(cmd: &Command, mut last: ProcId) -> usize {
    LEN[header(cmd, &mut last) as usize] as usize
}

/// The bytes `cmds` take in a packed queue, behind an in-place send to
/// `last`.
fn packed_len<'a>(cmds: impl Iterator<Item = &'a Command>, mut last: ProcId) -> usize {
    cmds.map(|cmd| LEN[header(cmd, &mut last) as usize] as usize)
        .sum()
}

fn put<const N: usize>(out: &mut [u8], at: usize, field: [u8; N]) {
    out[at..at + N].copy_from_slice(&field);
}

fn u32_at(b: &[u8], at: usize) -> u32 {
    let mut w = [0; 4];
    w.copy_from_slice(&b[at..at + 4]);
    u32::from_le_bytes(w)
}

fn u64_at(b: &[u8], at: usize) -> u64 {
    let mut w = [0; 8];
    w.copy_from_slice(&b[at..at + 8]);
    u64::from_le_bytes(w)
}

/// Write `cmd`, whose header behind an in-place send to `last` is `h`,
/// into `out`, its `LEN[h]` bytes; park it in `slab` if it owns heap
/// memory.
#[inline(always)]
fn encode(cmd: Command, h: u8, last: ProcId, out: &mut [u8], slab: &mut CmdSlab) {
    out[0] = h;
    match cmd {
        Command::Send { dst, tag, data } if h != PARKED => {
            let step = dst.wrapping_sub(last);
            match h & FORM {
                STEP8 => out[1] = step as u8,
                STEP16 => put(out, 1, (step as u16).to_le_bytes()),
                ABS => put(out, 1, dst.to_le_bytes()),
                _ => {}
            }
            let at = 1 + dst_len(h);
            let at = if tag != 0 {
                put(out, at, tag.to_le_bytes());
                at + 4
            } else {
                at
            };
            match data {
                Data::U64(v) => put(out, at, v.to_le_bytes()),
                Data::F64(v) => put(out, at, v.to_bits().to_le_bytes()),
                Data::Pair(x, y) => {
                    put(out, at, x.to_le_bytes());
                    put(out, at + 8, y.to_le_bytes());
                }
                Data::IdxF64(i, v) => {
                    put(out, at, i.to_le_bytes());
                    put(out, at + 8, v.to_bits().to_le_bytes());
                }
                Data::Cplx { idx, re, im } => {
                    put(out, at, idx.to_le_bytes());
                    put(out, at + 4, re.to_bits().to_le_bytes());
                    put(out, at + 12, im.to_bits().to_le_bytes());
                }
                // `Empty`; an owning payload is parked below.
                _ => {}
            }
        }
        Command::Compute { cycles, tag } | Command::Timer { cycles, tag } => {
            put(out, 1, cycles.to_le_bytes());
            put(out, 9, tag.to_le_bytes());
        }
        Command::Barrier | Command::Halt => {}
        owning => put(out, 1, slab.park(owning).to_le_bytes()),
    }
}

/// The destination of the in-place send at the start of `b`, behind one
/// to `last`.
#[inline(always)]
fn dst_at(b: &[u8], last: ProcId) -> ProcId {
    let step = match b[0] & FORM {
        NEXT => 1,
        STEP8 => b[1] as i8 as u32,
        STEP16 => i16::from_le_bytes([b[1], b[2]]) as u32,
        _ => return u32_at(b, 1),
    };
    last.wrapping_add(step)
}

/// The command at the start of `b`, moved out of the slab if parked; if
/// it is an in-place send, to `dst`.
#[inline(always)]
fn decode(b: &[u8], dst: ProcId, slab: &mut CmdSlab) -> Command {
    let h = b[0];
    // Where a send's payload starts; a non-send has no `TAGGED` bit.
    let at = 1 + dst_len(h);
    let (tag, at) = if h & TAGGED != 0 {
        (u32_at(b, at), at + 4)
    } else {
        (0, at)
    };
    let send = |data| Command::Send { dst, tag, data };
    let word = |k: usize| u64_at(b, at + 8 * k);
    match h & OP {
        NIL => send(Data::Empty),
        U64 => send(Data::U64(word(0))),
        F64 => send(Data::F64(f64::from_bits(word(0)))),
        PAIR => send(Data::Pair(word(0), word(1))),
        IDX_F64 => send(Data::IdxF64(word(0), f64::from_bits(word(1)))),
        CPLX => send(Data::Cplx {
            idx: u32_at(b, at),
            re: f64::from_bits(u64_at(b, at + 4)),
            im: f64::from_bits(u64_at(b, at + 12)),
        }),
        PARKED => slab.take(u32_at(b, 1)),
        COMPUTE => Command::Compute {
            cycles: u64_at(b, 1),
            tag: u64_at(b, 9),
        },
        TIMER => Command::Timer {
            cycles: u64_at(b, 1),
            tag: u64_at(b, 9),
        },
        BARRIER => Command::Barrier,
        _ => Command::Halt,
    }
}

/// The [`Head`] of the command at the start of `b`, behind an in-place
/// send to `last`.
#[inline(always)]
fn head(b: &[u8], last: ProcId, slab: &CmdSlab) -> Head {
    match b[0] & OP {
        PARKED => Head::of(&slab.slots[u32_at(b, 1) as usize]),
        COMPUTE => Head::Compute {
            cycles: u64_at(b, 1),
            tag: u64_at(b, 9),
        },
        TIMER => Head::Timer {
            cycles: u64_at(b, 1),
            tag: u64_at(b, 9),
        },
        BARRIER => Head::Barrier,
        HALT => Head::Halt,
        _ => Head::Send {
            dst: dst_at(b, last),
        },
    }
}

/// The slab slots of the parked commands among the packed commands `b`.
fn parked_slots(mut b: &[u8]) -> impl Iterator<Item = u32> + '_ {
    std::iter::from_fn(move || loop {
        let &h = b.first()?;
        let slot = (h & OP == PARKED).then(|| u32_at(b, 1));
        b = &b[LEN[h as usize] as usize..];
        if slot.is_some() {
            return slot;
        }
    })
}

impl Packed {
    /// A buffer of `cap` bytes, empty.
    fn with_capacity(cap: usize) -> Self {
        Packed {
            buf: Self::buffer(cap),
            read: 0,
            end: 0,
            count: 0,
            dst: 0,
        }
    }

    /// `cap` zeroed bytes, few enough for `u32` cursors.
    fn buffer(cap: usize) -> Box<[u8]> {
        assert!(
            u32::try_from(cap).is_ok(),
            "a processor queues under 4 GiB of commands"
        );
        vec![0; cap].into_boxed_slice()
    }

    /// Where the room for commands ends and the last destination written
    /// starts.
    #[inline(always)]
    fn tail(&self) -> usize {
        self.buf.len() - TAIL
    }

    /// The destination of the last in-place send written.
    fn written(&self) -> ProcId {
        u32_at(&self.buf, self.tail())
    }

    #[inline(always)]
    fn unread(&self) -> &[u8] {
        &self.buf[self.read as usize..self.end as usize]
    }

    #[inline(never)]
    fn front(&self, slab: &CmdSlab) -> Option<Head> {
        (self.count > 0).then(|| head(self.unread(), self.dst, slab))
    }

    #[inline(never)]
    fn skip(&mut self, slab: &mut CmdSlab) {
        if self.count > 0 {
            let b = &self.buf[self.read as usize..self.end as usize];
            match b[0] & OP {
                PARKED => drop(slab.take(u32_at(b, 1))),
                op if op <= CPLX => self.dst = dst_at(b, self.dst),
                _ => {}
            }
            self.consume(LEN[b[0] as usize]);
        }
    }

    #[inline(never)]
    fn pop(&mut self, slab: &mut CmdSlab) -> Option<Command> {
        if self.count == 0 {
            return None;
        }
        let b = &self.buf[self.read as usize..self.end as usize];
        if b[0] & OP <= CPLX {
            self.dst = dst_at(b, self.dst);
        }
        let (cmd, len) = (decode(b, self.dst, slab), LEN[b[0] as usize]);
        self.consume(len);
        Some(cmd)
    }

    /// Past the front command, `len` bytes; the cursor resets when the
    /// queue drains.
    #[inline(always)]
    fn consume(&mut self, len: u8) {
        self.count -= 1;
        self.read += u32::from(len);
        if self.count == 0 {
            (self.read, self.end) = (0, 0);
        }
    }

    /// Add `cmds` at the back; the caller has made room for them.
    #[inline(always)]
    fn push_all(&mut self, cmds: impl Iterator<Item = Command>, slab: &mut CmdSlab) {
        let (mut end, mut last) = (self.end as usize, self.written());
        for cmd in cmds {
            let before = last;
            let h = header(&cmd, &mut last);
            let len = LEN[h as usize] as usize;
            encode(cmd, h, before, &mut self.buf[end..end + len], slab);
            end += len;
            self.count += 1;
        }
        let tail = self.tail();
        debug_assert!(end <= tail);
        put(&mut self.buf, tail, last.to_le_bytes());
        self.end = end as u32;
    }

    /// Room for `need` more bytes: the unread bytes moved down, and only
    /// if that is not enough a buffer twice the size (or of what it must
    /// hold, if more), the writer's destination moved with them.
    #[cold]
    #[inline(never)]
    fn make_room(&mut self, need: usize) {
        let (read, end, tail) = (self.read as usize, self.end as usize, self.tail());
        let unread = end - read;
        if unread + need > tail {
            let mut buf = Self::buffer((2 * self.buf.len()).max(unread + need + TAIL));
            buf[..unread].copy_from_slice(&self.buf[read..end]);
            let at = buf.len() - TAIL;
            buf[at..].copy_from_slice(&self.buf[tail..]);
            self.buf = buf;
        } else {
            self.buf.copy_within(read..end, 0);
        }
        (self.read, self.end) = (0, unread as u32);
    }
}

impl CmdQueue {
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline(slot) => usize::from(slot.is_some()),
            Repr::Packed(q) => q.count as usize,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // `front`, `skip_front`, `pop_front` and `append` inline the in-place
    // case and call out for the packed one: the engine's eight monomorphs
    // share one copy of the codec.

    /// The front command, payload left where it is.
    #[inline(always)]
    pub fn front(&self, slab: &CmdSlab) -> Option<Head> {
        match &self.0 {
            Repr::Inline(slot) => slot.as_ref().map(Head::of),
            Repr::Packed(q) => q.front(slab),
        }
    }

    /// Drop the front command without decoding it: the caller has read
    /// all it needs in its [`Head`].
    #[inline(always)]
    pub fn skip_front(&mut self, slab: &mut CmdSlab) {
        match &mut self.0 {
            Repr::Inline(slot) => *slot = None,
            Repr::Packed(q) => q.skip(slab),
        }
    }

    /// The front command, decoded (moved out of the slab if parked).
    #[inline(always)]
    pub fn pop_front(&mut self, slab: &mut CmdSlab) -> Option<Command> {
        match &mut self.0 {
            Repr::Inline(slot) => slot.take(),
            Repr::Packed(q) => q.pop(slab),
        }
    }

    /// Abandon everything queued (a crash), releasing what it parked.
    pub fn clear(&mut self, slab: &mut CmdSlab) {
        match &mut self.0 {
            Repr::Inline(slot) => *slot = None,
            Repr::Packed(q) => {
                for slot in parked_slots(q.unread()) {
                    slab.take(slot);
                }
                (q.read, q.end, q.count, q.dst) = (0, 0, 0, q.written());
            }
        }
    }

    /// How many of the queued commands are parked in the slab.
    pub fn parked(&self) -> usize {
        match &self.0 {
            Repr::Inline(_) => 0,
            Repr::Packed(q) => parked_slots(q.unread()).count(),
        }
    }

    /// Queue what one handler `issued`, in order, leaving `issued` empty.
    #[inline(always)]
    pub fn append(&mut self, issued: &mut Vec<Command>, slab: &mut CmdSlab) {
        match &mut self.0 {
            Repr::Inline(slot) if slot.is_none() && issued.len() <= 1 => *slot = issued.pop(),
            _ if issued.is_empty() => {}
            _ => self.pack(issued, slab),
        }
    }

    /// [`CmdQueue::append`] past the in-place case.
    #[inline(never)]
    fn pack(&mut self, issued: &mut Vec<Command>, slab: &mut CmdSlab) {
        match &mut self.0 {
            Repr::Inline(slot) => {
                let first = slot.take();
                let need = packed_len(first.iter().chain(&*issued), 0);
                let mut q = Packed::with_capacity(need + SLACK);
                q.push_all(first.into_iter().chain(issued.drain(..)), slab);
                self.0 = Repr::Packed(q);
            }
            Repr::Packed(q) => {
                // Room for the longest commands, or else for exactly these.
                let room = q.tail() - q.end as usize;
                if issued.len() * MAX_LEN > room {
                    let need = packed_len(issued.iter(), q.written());
                    if need > room {
                        q.make_room(need);
                    }
                }
                q.push_all(issued.drain(..), slab);
            }
        }
    }
}
