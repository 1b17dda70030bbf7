//! The event queue of every engine: a calendar of per-cycle buckets.
//!
//! **Order contract.** Events come out in exactly ascending `(time, ord)`
//! — the order a binary heap keyed on that pair would pop them — where
//! `ord` is the caller's within-cycle order (`class << 56 | seq` for the
//! engines, unique per event). That holds for events pushed *into the
//! cycle being drained* too (`o = 0` sends, `compute(0)`, `timer(0)`,
//! `barrier_cost = 0`, a same-cycle wake): the next event is always the
//! minimum remaining one.
//!
//! **Layout.** A power-of-two ring of `span` buckets covers the cycles
//! `[base, base + span)`; cycle `t` lives in slot `t & (span - 1)` and an
//! event's time *is* its slot, so a bucketed entry carries only `ord` and
//! the payload. One occupancy bit per slot makes "next non-empty cycle" a
//! `trailing_zeros` over `span / 64` words instead of a probe per cycle.
//! The cycle being drained is taken out of its slot, sorted once, and
//! consumed through a cursor; late same-cycle pushes are sorted into the
//! unconsumed tail.
//!
//! **Overflow.** Events beyond the ring wait in a 4-ary heap and join
//! their cycle's batch when it opens — so a span clamped below the
//! model's reach costs time, never correctness. A queue only a few events
//! deep lives in that heap entirely: at depth one or two a sift is cheaper
//! than a bucket, its occupancy bit and a pool round trip.
//!
//! **Memory rule.** A drained bucket's storage goes back to a pool and the
//! next push into an empty slot draws from it, so the queue holds as many
//! small buffers (room for at most `POOLED` = 1,024 entries) as cycles
//! were ever occupied *at once* — not one per slot. A bigger buffer, grown
//! by a same-cycle batch of a big collective, is pooled apart: at most
//! `BIG` = 4 of them, each freed once `AGE` = 256 batches have opened
//! since it was pooled. A slot opened just after a big batch drained takes
//! one of them, and a batch that outgrows its small buffer moves into one
//! rather than grow its own. So a run of big batches passes a few big
//! buffers around, and they go once the big batches stop, where one pool
//! for all let every buffer grow to the largest batch it ever carried.

use logp_core::Cycles;

#[derive(Clone, Copy)]
struct Entry<T> {
    ord: u64,
    item: T,
}

/// A 4-ary min-heap on `time << 64 | ord` with the keys in their own
/// array, so sift comparisons touch nothing else. All keys are distinct,
/// so pop order is total.
struct FarHeap<T> {
    keys: Vec<u128>,
    items: Vec<T>,
}

impl<T: Copy> FarHeap<T> {
    const ARITY: usize = 4;

    #[inline]
    fn min_time(&self) -> Option<Cycles> {
        self.keys.first().map(|&k| (k >> 64) as Cycles)
    }

    /// [`FarHeap::pop`], if the minimum lies at cycle `t`.
    #[inline]
    fn pop_at(&mut self, t: Cycles) -> Option<(Cycles, u64, T)> {
        if self.min_time()? != t {
            return None;
        }
        self.pop()
    }

    #[inline]
    fn push(&mut self, key: u128, item: T) {
        self.keys.push(key);
        self.items.push(item);
        let mut i = self.keys.len() - 1;
        while i > 0 {
            let parent = (i - 1) / Self::ARITY;
            if self.keys[parent] <= key {
                break;
            }
            self.keys.swap(i, parent);
            self.items.swap(i, parent);
            i = parent;
        }
    }

    /// Remove the minimum: `(time, ord, item)`, the shape the calendar
    /// hands on — out of line, so a shallow queue's pop writes its result
    /// once, where the event loop reads it.
    #[inline(never)]
    fn pop(&mut self) -> Option<(Cycles, u64, T)> {
        let n = self.keys.len().checked_sub(1)?;
        let (key, item) = (self.keys.swap_remove(0), self.items.swap_remove(0));
        // Sift down over fixed-length slices: the bound `n` is pinned to
        // both lengths up front, so every index below is provably in range.
        let (keys, items) = (&mut self.keys[..n], &mut self.items[..n]);
        let mut i = 0;
        loop {
            let first = i * Self::ARITY + 1;
            if first >= n {
                break;
            }
            let mut min = first;
            for c in first + 1..(first + Self::ARITY).min(n) {
                if keys[c] < keys[min] {
                    min = c;
                }
            }
            if keys[i] <= keys[min] {
                break;
            }
            keys.swap(i, min);
            items.swap(i, min);
            i = min;
        }
        Some(((key >> 64) as Cycles, key as u64, item))
    }
}

/// See the module documentation.
pub struct Calendar<T> {
    slots: Vec<Vec<Entry<T>>>,
    /// Bit `i` set ⇔ `slots[i]` is non-empty (⇔ it owns storage).
    occ: Vec<u64>,
    /// First cycle the ring covers; no pending event is earlier.
    base: Cycles,
    /// Events parked in `slots`.
    ring_len: usize,
    /// The cycle being drained, ascending in `ord`; `live[..cur]` is
    /// consumed. Empty between drains.
    live: Vec<Entry<T>>,
    cur: usize,
    live_t: Cycles,
    /// Pooled small buffers.
    spare: Vec<Vec<Entry<T>>>,
    /// Pooled big buffers, each with `opened` as of when it was pooled.
    big: Vec<(u64, Vec<Entry<T>>)>,
    /// Batches opened so far.
    opened: u64,
    /// The last batch drained was big.
    big_last: bool,
    far: FarHeap<T>,
    /// Deepest bucket batch drained, late pushes included (0 while the
    /// queue never outgrew its heap).
    pub depth_max: u64,
    /// Pushes that went to the overflow heap.
    pub far_spills: u64,
    /// Debug-only: overflow-heap growths past its construction-time size.
    #[cfg(debug_assertions)]
    pub far_regrows: u64,
}

impl<T> Default for Calendar<T> {
    /// A placeholder that holds nothing (span 0); build with
    /// [`Calendar::new`] before pushing.
    fn default() -> Self {
        Calendar {
            slots: Vec::new(),
            occ: Vec::new(),
            base: 0,
            ring_len: 0,
            live: Vec::new(),
            cur: 0,
            live_t: 0,
            spare: Vec::new(),
            big: Vec::new(),
            opened: 0,
            big_last: false,
            far: FarHeap {
                keys: Vec::new(),
                items: Vec::new(),
            },
            depth_max: 0,
            far_spills: 0,
            #[cfg(debug_assertions)]
            far_regrows: 0,
        }
    }
}

impl<T: Copy> Calendar<T> {
    /// A queue this short stays in the heap (module docs, "Overflow").
    const SMALL: usize = 4;

    /// Room for more entries than this makes a buffer big (module docs,
    /// "Memory rule"), 24 KiB of the engines' entries.
    const POOLED: usize = 1024;

    /// The most big buffers pooled.
    const BIG: usize = 4;

    /// Batches opened after which an unused pooled big buffer is freed.
    const AGE: u64 = 256;

    /// A calendar whose ring spans `span` cycles (a power of two) and
    /// whose overflow heap is pre-sized for `far_cap` events.
    pub fn new(span: Cycles, far_cap: usize) -> Self {
        assert!(span.is_power_of_two(), "ring span must be a power of two");
        Calendar {
            slots: (0..span).map(|_| Vec::new()).collect(),
            occ: vec![0; (span as usize).div_ceil(64)],
            far: FarHeap {
                keys: Vec::with_capacity(far_cap),
                items: Vec::with_capacity(far_cap),
            },
            ..Self::default()
        }
    }

    /// Cycles the ring covers from its base.
    fn span(&self) -> Cycles {
        self.slots.len() as Cycles
    }

    /// Queue an event at cycle `t >= base` (callers never schedule into
    /// the past).
    #[inline]
    pub fn push(&mut self, t: Cycles, ord: u64, item: T) {
        debug_assert!(t >= self.base, "event scheduled before the ring base");
        let tiny = self.ring_len == 0 && self.far.keys.len() < Self::SMALL;
        if tiny && self.live.is_empty() && t - self.base < self.span() {
            self.far.push((t as u128) << 64 | ord as u128, item);
        } else {
            self.park(t, ord, item);
        }
    }

    /// [`Calendar::push`] beyond the tiny-queue case: into the batch being
    /// drained, the ring, or the heap.
    #[inline(never)]
    fn park(&mut self, t: Cycles, ord: u64, item: T) {
        let e = Entry { ord, item };
        if !self.live.is_empty() && t == self.live_t {
            let at = self.cur + self.live[self.cur..].partition_point(|x| x.ord < ord);
            self.live.insert(at, e);
        } else if t - self.base < self.span() {
            let i = (t & (self.span() - 1)) as usize;
            let slot = &mut self.slots[i];
            if slot.capacity() == 0 {
                // After a big batch, the next one is likely big too.
                let big = if self.big_last { self.big.pop() } else { None };
                *slot = big
                    .map(|b| b.1)
                    .or_else(|| self.spare.pop())
                    .unwrap_or_default();
                self.occ[i / 64] |= 1 << (i % 64);
            }
            if slot.len() == slot.capacity() && slot.len() >= Self::POOLED {
                self.outgrow(i);
            }
            self.slots[i].push(e);
            self.ring_len += 1;
        } else {
            #[cfg(debug_assertions)]
            if self.far.keys.len() == self.far.keys.capacity() {
                self.far_regrows += 1;
            }
            self.far.push((t as u128) << 64 | ord as u128, item);
            self.far_spills += 1;
        }
    }

    /// Slot `i`'s batch fills a buffer of `POOLED` entries or more: move
    /// it into a pooled big buffer with room to spare, if there is one,
    /// rather than reallocate; the buffer it leaves goes to the pool.
    #[cold]
    fn outgrow(&mut self, i: usize) {
        let slot = &mut self.slots[i];
        let Some(k) = self.big.iter().position(|b| b.1.capacity() > slot.len()) else {
            return;
        };
        let (_, mut buf) = self.big.swap_remove(k);
        buf.append(slot);
        std::mem::swap(slot, &mut buf);
        self.pool(buf);
    }

    /// Keep an emptied buffer for reuse, as the memory rule allows.
    fn pool(&mut self, buf: Vec<Entry<T>>) {
        if buf.capacity() <= Self::POOLED {
            if buf.capacity() > 0 {
                self.spare.push(buf);
            }
        } else if self.big.len() < Self::BIG {
            self.big.push((self.opened, buf));
        }
    }

    /// The earliest cycle holding a queued event (the batch being
    /// drained, if any, is not counted).
    #[inline]
    pub fn next_time(&self) -> Option<Cycles> {
        let far = self.far.min_time();
        if self.ring_len == 0 {
            return far;
        }
        let start = (self.base & (self.span() - 1)) as usize;
        let (w0, b0) = (start / 64, start % 64);
        let first = self.occ[w0] >> b0;
        let mut off = first.trailing_zeros() as Cycles;
        if first == 0 {
            // Walk the remaining words in ring order; the last step wraps
            // to `w0` again for its bits below `b0`.
            off = self.span().min(64) - b0 as Cycles;
            let n = self.occ.len();
            let mut k = 1;
            while self.occ[(w0 + k) % n] == 0 {
                off += 64;
                k += 1;
            }
            off += self.occ[(w0 + k) % n].trailing_zeros() as Cycles;
        }
        let ring = self.base + off;
        Some(far.map_or(ring, |f| f.min(ring)))
    }

    /// Move the ring base up to `t0`; no queued event may be earlier.
    /// Parked events stay valid: they lie in `[t0, old base + span)`.
    #[inline]
    pub fn advance_to(&mut self, t0: Cycles) {
        debug_assert!(t0 >= self.base && self.live.is_empty());
        self.base = t0;
    }

    /// The minimum queued event `(time, ord, item)`, unless its cycle lies
    /// after `last`. `REBASE` moves the ring base up to each cycle as it
    /// opens (the classic loop, whose clock only runs forward; a lane
    /// keeps its base at the window start, because a later pass may still
    /// push behind the drain point).
    #[inline(always)]
    pub fn pop<const REBASE: bool>(&mut self, last: Cycles) -> Option<(Cycles, u64, T)> {
        if self.ring_len > 0 || !self.live.is_empty() {
            if let Some(e) = self.live.get(self.cur) {
                self.cur += 1;
                return Some((self.live_t, e.ord, e.item));
            }
            return self.open_next::<REBASE>(last);
        }
        // Only the heap holds events; its order needs no batch.
        let t = self.far.min_time().filter(|&t| t <= last)?;
        if REBASE {
            self.base = t;
        }
        self.far.pop()
    }

    /// Retire the drained batch, open the earliest pending cycle and pop
    /// its first event. `cold` relative to `pop`: that runs per event,
    /// this per cycle, and it stays out of the caller's loop body.
    #[cold]
    fn open_next<const REBASE: bool>(&mut self, last: Cycles) -> Option<(Cycles, u64, T)> {
        if self.cur > 0 {
            self.depth_max = self.depth_max.max(self.cur as u64);
            self.big_last = self.cur > Self::POOLED;
        }
        self.live.clear();
        self.cur = 0;
        if self.ring_len == 0 {
            return self.pop::<REBASE>(last);
        }
        let t = self.next_time().filter(|&t| t <= last)?;
        if REBASE {
            self.base = t;
        }
        self.opened += 1;
        if !self.big.is_empty() {
            let opened = self.opened;
            self.big.retain(|b| opened - b.0 <= Self::AGE);
        }
        let i = (t & (self.span() - 1)) as usize;
        if t - self.base < self.span() && self.occ[i / 64] & (1 << (i % 64)) != 0 {
            self.occ[i / 64] &= !(1 << (i % 64));
            // The drained batch's storage goes to the pool.
            let old = std::mem::replace(&mut self.live, std::mem::take(&mut self.slots[i]));
            self.pool(old);
            self.ring_len -= self.live.len();
        }
        while let Some((_, ord, item)) = self.far.pop_at(t) {
            self.live.push(Entry { ord, item });
        }
        self.live.sort_unstable_by_key(|e| e.ord);
        (self.live_t, self.cur) = (t, 1);
        Some((t, self.live[0].ord, self.live[0].item))
    }
}
