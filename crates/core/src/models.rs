//! Cost models the paper compares against (§6): PRAM variants and
//! Valiant's BSP. These produce *predicted* times for the same problems so
//! that `logp-bench model_compare` can reproduce the paper's motivating
//! observation — PRAM predictions wildly underestimate machines with real
//! communication costs, BSP rounds every pattern up to a full h-relation
//! superstep, and LogP sits between.

use crate::cost::log2_ceil;
use crate::params::{Cycles, LogP};

/// PRAM memory-access discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PramVariant {
    /// Exclusive read, exclusive write.
    Erew,
    /// Concurrent read, exclusive write.
    Crew,
    /// Concurrent read, concurrent write (arbitrary resolution).
    Crcw,
}

/// The PRAM model: `P` synchronous processors, unit-time access to any
/// shared cell. "In effect, the PRAM assumes that interprocessor
/// communication has infinite bandwidth, zero latency, and zero overhead
/// (g = 0, L = 0, o = 0)" (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pram {
    pub p: u32,
    pub variant: PramVariant,
}

impl Pram {
    pub fn new(p: u32, variant: PramVariant) -> Self {
        Pram { p, variant }
    }

    /// Predicted broadcast time. CRCW/CREW: one concurrent read ⇒ 1 step.
    /// EREW: doubling ⇒ ⌈log2 P⌉ steps.
    pub fn broadcast_time(&self) -> Cycles {
        match self.variant {
            PramVariant::Erew => log2_ceil(self.p as u64),
            PramVariant::Crew | PramVariant::Crcw => 1,
        }
    }

    /// Predicted time to sum `n` values: parallel binary reduction,
    /// `⌈n/P⌉ - 1` local additions then `⌈log2 min(n,P)⌉` combining steps.
    pub fn sum_time(&self, n: u64) -> Cycles {
        if n <= 1 {
            return 0;
        }
        let p = self.p as u64;
        let local = n.div_ceil(p).saturating_sub(1);
        local + log2_ceil(n.min(p))
    }

    /// Predicted n-point FFT time: `(n/P)·log2 n` butterfly steps; the
    /// data motion is free.
    pub fn fft_time(&self, n: u64) -> Cycles {
        (n / self.p as u64) * log2_ceil(n)
    }
}

/// Valiant's Bulk-Synchronous Parallel model (§6.3): supersteps of local
/// computation plus an `h`-relation, charged `w + g·h + l` where `w` is the
/// max local work, `g` the per-message bandwidth coefficient and `l` the
/// barrier/synchronization cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bsp {
    pub p: u32,
    /// Per-message cost coefficient (cycles per message of the h-relation).
    pub g: Cycles,
    /// Barrier synchronization cost per superstep.
    pub l: Cycles,
}

impl Bsp {
    pub fn new(p: u32, g: Cycles, l: Cycles) -> Self {
        Bsp { p, g, l }
    }

    /// Derive a BSP machine from LogP parameters, the usual correspondence:
    /// BSP `g` is LogP `g` (both are reciprocal bandwidth); the barrier
    /// cost of a superstep must cover a full message round-trip and the
    /// synchronization itself — we charge `L + 2o` per superstep minimum.
    pub fn from_logp(m: &LogP) -> Self {
        Bsp {
            p: m.p,
            g: m.g.max(m.o),
            l: m.l + 2 * m.o,
        }
    }

    /// Cost of one superstep with `w` local work and an `h`-relation.
    pub fn superstep(&self, w: Cycles, h: u64) -> Cycles {
        w + self.g * h + self.l
    }

    /// Broadcast: `⌈log2 P⌉` supersteps each a 1-relation.
    pub fn broadcast_time(&self) -> Cycles {
        log2_ceil(self.p as u64) * self.superstep(0, 1)
    }

    /// Sum of `n` values: one local superstep then `⌈log2 P⌉` combining
    /// supersteps (each a 1-relation plus one addition).
    pub fn sum_time(&self, n: u64) -> Cycles {
        if n <= 1 {
            return 0;
        }
        let p = self.p as u64;
        let local = n.div_ceil(p).saturating_sub(1);
        self.superstep(local, 0) + log2_ceil(n.min(p)) * self.superstep(1, 1)
    }

    /// Hybrid-layout FFT: two compute supersteps and one remap superstep
    /// whose h-relation is `n/P` messages.
    pub fn fft_time(&self, n: u64, butterfly: Cycles) -> Cycles {
        let p = self.p as u64;
        let per_phase = (n / p) * log2_ceil(n) * butterfly / 2;
        self.superstep(per_phase, 0) + self.superstep(0, n / p) + self.superstep(per_phase, 0)
    }
}

/// A side-by-side prediction for one problem instance under the three
/// models, as printed by the `model_compare` experiment (E16).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelComparison {
    pub problem: String,
    pub pram: Cycles,
    pub bsp: Cycles,
    pub logp: Cycles,
}

impl ModelComparison {
    /// How many times slower the LogP prediction is than the PRAM's —
    /// the "loophole factor" the paper warns about.
    pub fn pram_optimism(&self) -> f64 {
        if self.pram == 0 {
            return f64::INFINITY;
        }
        self.logp as f64 / self.pram as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broadcast::optimal_broadcast_time;
    use crate::summation::min_sum_time;

    #[test]
    fn pram_broadcast_is_free_of_communication_cost() {
        assert_eq!(Pram::new(1024, PramVariant::Crcw).broadcast_time(), 1);
        assert_eq!(Pram::new(1024, PramVariant::Erew).broadcast_time(), 10);
    }

    #[test]
    fn pram_underestimates_logp_broadcast() {
        // The motivating gap: on CM-5-like parameters, LogP's optimal
        // broadcast takes far longer than any PRAM variant predicts.
        let m = LogP::new(60, 20, 40, 128).unwrap();
        let logp = optimal_broadcast_time(&m);
        let pram = Pram::new(128, PramVariant::Erew).broadcast_time();
        assert!(logp > 10 * pram, "LogP {logp} vs PRAM {pram}");
    }

    #[test]
    fn bsp_charges_a_full_superstep_per_round() {
        let m = LogP::new(6, 2, 4, 8).unwrap();
        let bsp = Bsp::from_logp(&m);
        // BSP broadcast >= LogP optimal: every round pays the barrier.
        assert!(bsp.broadcast_time() >= optimal_broadcast_time(&m));
    }

    #[test]
    fn bsp_sum_dominates_logp_optimal_sum() {
        let m = LogP::new(6, 2, 4, 8).unwrap();
        let bsp = Bsp::from_logp(&m);
        for n in [8u64, 64, 256, 1024] {
            assert!(
                bsp.sum_time(n) >= min_sum_time(&m, n, m.p),
                "BSP must not beat the LogP optimum at n={n}"
            );
        }
    }

    #[test]
    fn pram_sum_time_shape() {
        let p = Pram::new(8, PramVariant::Erew);
        assert_eq!(p.sum_time(1), 0);
        assert_eq!(p.sum_time(8), 3); // log2(8) combining steps
        assert_eq!(p.sum_time(16), 1 + 3);
    }

    #[test]
    fn comparison_ratio() {
        let c = ModelComparison {
            problem: "broadcast".into(),
            pram: 1,
            bsp: 50,
            logp: 24,
        };
        assert_eq!(c.pram_optimism(), 24.0);
    }
}
