//! Model extensions the paper sketches.
//!
//! * **Long messages** (§3, §5.4): "The basic model assumes that all
//!   messages are of a small size (a simple extension deals with longer
//!   messages)." We provide the standard extension — a per-word gap `G`
//!   for bulk transfers (this is the LogGP refinement that grew out of the
//!   paper) and the paper's own observation that DMA support "can simply
//!   be modeled as two processors at each node".
//! * **Pattern-dependent gaps** (§5.6): "A possible extension of the LogP
//!   model to reflect network performance on various communication
//!   patterns would be to provide multiple g's, where the one appropriate
//!   to the particular communication pattern is used in the analysis."

use crate::params::{Cycles, LogP};
use std::collections::BTreeMap;

/// LogP plus a per-word bulk gap `G` (cycles per additional word once a
/// long message is streaming). With `G = g` a `k`-word message degenerates
/// to `k` small messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogGP {
    pub base: LogP,
    /// Gap per word of a long message.
    pub big_g: Cycles,
}

impl LogGP {
    pub fn new(base: LogP, big_g: Cycles) -> Self {
        LogGP { base, big_g }
    }

    /// End-to-end time for a `k`-word message: `o + (k-1)·G + L + o`.
    pub fn long_message_time(&self, words: u64) -> Cycles {
        if words == 0 {
            return 0;
        }
        2 * self.base.o + (words - 1) * self.big_g + self.base.l
    }

    /// Time to move `words` as a sequence of small messages for
    /// comparison: `(⌈words⌉-1)·max(g,o) + 2o + L`.
    pub fn small_message_time(&self, words: u64) -> Cycles {
        crate::cost::stream_time(&self.base, words)
    }

    /// Break-even message size at which bulk transfer beats small
    /// messages. Returns `None` when bulk never wins (`G >= max(g,o)`).
    pub fn bulk_break_even(&self) -> Option<u64> {
        let small_per_word = self.base.send_interval();
        if self.big_g >= small_per_word {
            return None;
        }
        // Find smallest k with long_message_time(k) < small_message_time(k).
        (1..=1_000_000).find(|&k| self.long_message_time(k) < self.small_message_time(k))
    }
}

/// §5.4: special hardware for long messages (a DMA engine) "is tantamount
/// to providing two processors on each node, one to handle messages and
/// one to do the computation... can at best double the performance of each
/// node."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaNode {
    pub base: LogP,
    /// One-time processor cost to program the DMA device.
    pub setup: Cycles,
}

impl DmaNode {
    /// Processor occupancy to ship `words`: only the setup; the transfer
    /// itself overlaps computation.
    pub fn send_occupancy(&self, _words: u64) -> Cycles {
        self.setup
    }

    /// Wall-clock delivery time for `words` (the message processor streams
    /// at the gap rate).
    pub fn delivery(&self, words: u64) -> Cycles {
        if words == 0 {
            return 0;
        }
        self.setup + (words - 1) * self.base.g + self.base.l + self.base.o
    }
}

/// Named communication patterns for the multi-`g` extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pattern {
    /// A permutation known to be contention-free on the target network.
    ContentionFree,
    /// A random / general permutation.
    General,
    /// All processors target one destination.
    HotSpot,
    /// Nearest-neighbor exchange.
    Neighbor,
}

/// LogP with a per-pattern gap (§5.6). Unlisted patterns fall back to the
/// base `g`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiGap {
    pub base: LogP,
    gaps: BTreeMap<Pattern, Cycles>,
}

impl MultiGap {
    pub fn new(base: LogP) -> Self {
        MultiGap {
            base,
            gaps: BTreeMap::new(),
        }
    }

    /// Record the effective gap for a pattern (must be >= 1).
    pub fn with_gap(mut self, pattern: Pattern, g: Cycles) -> Self {
        assert!(g >= 1, "gap must be at least one cycle");
        self.gaps.insert(pattern, g);
        self
    }

    /// The gap to use when analyzing `pattern`.
    pub fn gap(&self, pattern: Pattern) -> Cycles {
        self.gaps.get(&pattern).copied().unwrap_or(self.base.g)
    }

    /// The base model with `g` replaced by the pattern's gap.
    pub fn model_for(&self, pattern: Pattern) -> LogP {
        LogP {
            g: self.gap(pattern),
            ..self.base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> LogP {
        LogP::new(60, 20, 40, 128).unwrap()
    }

    #[test]
    fn long_message_beats_small_messages_when_big_g_is_small() {
        let m = LogGP::new(base(), 2);
        assert!(m.long_message_time(100) < m.small_message_time(100));
        let k = m.bulk_break_even().expect("bulk must win eventually");
        assert!(k >= 2);
        assert!(m.long_message_time(k) < m.small_message_time(k));
        assert!(m.long_message_time(k - 1) >= m.small_message_time(k - 1));
    }

    #[test]
    fn degenerate_big_g_never_wins() {
        let m = LogGP::new(base(), 40);
        assert!(m.bulk_break_even().is_none());
        // With G = max(g,o) both formulas agree.
        assert_eq!(m.long_message_time(10), m.small_message_time(10));
    }

    #[test]
    fn zero_words_cost_nothing() {
        let m = LogGP::new(base(), 2);
        assert_eq!(m.long_message_time(0), 0);
        assert_eq!(m.small_message_time(0), 0);
    }

    #[test]
    fn dma_occupancy_is_constant() {
        let d = DmaNode {
            base: base(),
            setup: 100,
        };
        assert_eq!(d.send_occupancy(1), d.send_occupancy(1_000_000));
        assert!(d.delivery(1000) > d.send_occupancy(1000));
    }

    #[test]
    fn multi_gap_falls_back_to_base() {
        let mg = MultiGap::new(base())
            .with_gap(Pattern::ContentionFree, 10)
            .with_gap(Pattern::HotSpot, 400);
        assert_eq!(mg.gap(Pattern::ContentionFree), 10);
        assert_eq!(mg.gap(Pattern::HotSpot), 400);
        assert_eq!(mg.gap(Pattern::General), base().g);
        assert_eq!(mg.model_for(Pattern::ContentionFree).g, 10);
        assert_eq!(mg.model_for(Pattern::General), base());
    }

    #[test]
    #[should_panic(expected = "gap must be at least one cycle")]
    fn multi_gap_rejects_zero() {
        MultiGap::new(base()).with_gap(Pattern::General, 0);
    }
}
