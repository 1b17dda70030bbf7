//! Deterministic mixing primitives shared across the workspace.
//!
//! Every pseudo-random draw in the workspace goes through this module: the
//! simulator's latency jitter, compute drift and skew ([`noise`]), the
//! sweep runner's per-spec seed derivation, the fault layer's per-message
//! decisions, the reliable endpoint's retransmission jitter, and the
//! packet-level network's traffic ([`CounterRng`]). It is the single
//! definition of "a well-mixed u64 from a handful of integers,
//! independent of execution order".

/// SplitMix64: Steele, Lea & Flood's 64-bit finalizer (the `splitmix64`
/// output function). Bijective on `u64`, so distinct inputs never collide,
/// and statistically strong enough to decorrelate adjacent integers.
#[inline]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fold a sequence of words into one well-mixed value by chaining
/// [`splitmix64`]: `mix(&[a, b])` is `splitmix64(splitmix64(a) ^ b)`-style
/// feed-forward, so every prefix acts as the seed of the next word. Used
/// where a decision must be a pure function of several identity fields
/// (seed, processor, counter) rather than of a mutable generator state.
#[inline]
pub fn mix(words: &[u64]) -> u64 {
    let mut acc = 0u64;
    for &w in words {
        acc = splitmix64(acc ^ w);
    }
    acc
}

/// A tiny counter-mode stream over [`splitmix64`]: draw `i` of stream
/// `seed` is `splitmix64(seed ^ splitmix64(i))`. Unlike a stateful RNG,
/// any draw can be computed independently of the others, which is what
/// makes simulation results independent of event-processing order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterRng {
    seed: u64,
    next: u64,
}

impl CounterRng {
    /// Stream rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        CounterRng { seed, next: 0 }
    }

    /// The `i`-th draw of this stream, without advancing it.
    #[inline]
    pub fn at(&self, i: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(i))
    }

    /// The next sequential draw (advances the counter).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let v = self.at(self.next);
        self.next += 1;
        v
    }

    /// The next draw reduced to `0..=bound` (inclusive). `bound + 1` need
    /// not divide `2^64`; the modulo bias is negligible for the cycle-size
    /// ranges the simulator draws (jitter, drift are tiny next to 2^64).
    #[inline]
    pub fn next_in(&mut self, bound: u64) -> u64 {
        self.next_u64() % (bound + 1)
    }

    /// The next draw as a Bernoulli trial: `true` with probability `p`
    /// (the top 53 bits as a uniform in `[0, 1)`, compared against `p`).
    #[inline]
    pub fn next_bool(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }
}

/// The simulator's noise streams, one tag per kind of draw (see
/// [`noise`]). The tags are ASCII: `LAT`, `DRF`, `SKW`.
pub mod stream {
    /// Latency jitter: drawn by the source of every message whose
    /// clamped jitter is non-zero.
    pub const LATENCY: u64 = 0x004C_4154;
    /// Compute drift: drawn by the computing processor for every
    /// non-zero compute when drift is on.
    pub const DRIFT: u64 = 0x0044_5246;
    /// Systematic skew: drawn once per processor, as its draw 0.
    pub const SKEW: u64 = 0x0053_4B57;
}

/// The one noise rule of both simulator engines: draw `k` of processor
/// `proc` on `stream` under `seed`, uniform on `0..=max`. `k` counts the
/// processor's earlier latency and drift draws, so what a processor sees
/// depends only on its own progress — not on the global event order, the
/// engine, or how processors are partitioned into lanes.
#[inline]
pub fn noise(seed: u64, stream: u64, proc: u64, k: u64, max: u64) -> u64 {
    mix(&[seed, stream, proc, k]) % (max + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_bijective_on_samples() {
        // Distinct inputs map to distinct outputs (spot check).
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096u64 {
            assert!(seen.insert(splitmix64(i)));
        }
    }

    #[test]
    fn mix_distinguishes_order() {
        assert_ne!(mix(&[1, 2]), mix(&[2, 1]));
        assert_ne!(mix(&[1, 2]), mix(&[1, 3]));
        assert_eq!(mix(&[7, 9]), mix(&[7, 9]));
    }

    #[test]
    fn counter_rng_is_order_free() {
        let mut a = CounterRng::new(42);
        let b = CounterRng::new(42);
        let first = a.next_u64();
        let second = a.next_u64();
        // Random access reproduces the sequential stream.
        assert_eq!(b.at(0), first);
        assert_eq!(b.at(1), second);
        // Bounded draws stay in range.
        let mut c = CounterRng::new(7);
        for _ in 0..256 {
            assert!(c.next_in(5) <= 5);
        }
        // Bernoulli trials: the extremes are exact, a half is near half.
        assert!((0..256).all(|_| c.next_bool(1.0) && !c.next_bool(0.0)));
        let heads = (0..4096).filter(|_| c.next_bool(0.5)).count();
        assert!((1792..2304).contains(&heads), "{heads}");
    }
}
