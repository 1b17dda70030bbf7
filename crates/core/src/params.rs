//! The four LogP parameters and the network capacity law.
//!
//! The model (paper §3) characterizes a distributed-memory machine by:
//!
//! * `L` — an upper bound on the latency incurred communicating a small
//!   message from source to target module,
//! * `o` — the overhead: cycles a processor is engaged in transmission or
//!   reception of a message and can do nothing else,
//! * `g` — the gap: minimum interval between consecutive message
//!   transmissions (or receptions) at one processor; `1/g` is the available
//!   per-processor communication bandwidth,
//! * `P` — the number of processor/memory modules.
//!
//! All of `L`, `o`, `g` are measured in processor cycles (unit local
//! operation time). The network has finite capacity: at most `⌈L/g⌉`
//! messages may be in transit from any processor, or to any processor, at
//! any time; a sender that would exceed this stalls.

/// Simulated/analyzed time, in processor cycles.
pub type Cycles = u64;

/// Processor identifier, `0..P`.
pub type ProcId = u32;

/// The LogP parameter quadruple.
///
/// Invariants enforced by [`LogP::new`]: `p >= 1`, `g >= 1` (a processor
/// cannot inject two messages in the same cycle), `l >= 1`.
/// `o == 0` is allowed — the paper explicitly hopes "architectures improve
/// to a point where `o` can be eliminated" (§3.1) — and footnote 3 analyzes
/// the `o = 0, g = 1` special case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LogP {
    /// Latency upper bound `L`, in cycles.
    pub l: Cycles,
    /// Overhead `o`, in cycles.
    pub o: Cycles,
    /// Gap `g`, in cycles.
    pub g: Cycles,
    /// Processor count `P`.
    pub p: u32,
}

/// Errors raised when constructing or combining model parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamError {
    /// `P` must be at least 1.
    NoProcessors,
    /// `g` must be at least 1 cycle.
    ZeroGap,
    /// `L` must be at least 1 cycle.
    ZeroLatency,
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamError::NoProcessors => write!(f, "LogP requires at least one processor"),
            ParamError::ZeroGap => write!(f, "gap g must be at least one cycle"),
            ParamError::ZeroLatency => write!(f, "latency L must be at least one cycle"),
        }
    }
}

impl std::error::Error for ParamError {}

impl LogP {
    /// Construct a validated parameter set.
    ///
    /// ```
    /// use logp_core::LogP;
    /// let cm5 = LogP::new(60, 20, 40, 128).expect("valid");
    /// assert_eq!(cm5.capacity(), 2);           // ⌈L/g⌉
    /// assert_eq!(cm5.point_to_point(), 100);   // 2o + L
    /// assert_eq!(cm5.remote_read(), 200);      // 2L + 4o
    /// ```
    pub fn new(l: Cycles, o: Cycles, g: Cycles, p: u32) -> Result<Self, ParamError> {
        if p == 0 {
            return Err(ParamError::NoProcessors);
        }
        if g == 0 {
            return Err(ParamError::ZeroGap);
        }
        if l == 0 {
            return Err(ParamError::ZeroLatency);
        }
        Ok(LogP { l, o, g, p })
    }

    /// The parameters used for the paper's Figure 3 broadcast example:
    /// `P = 8, L = 6, g = 4, o = 2`.
    pub fn fig3() -> Self {
        LogP {
            l: 6,
            o: 2,
            g: 4,
            p: 8,
        }
    }

    /// The parameters used for the paper's Figure 4 summation example:
    /// `P = 8, L = 5, g = 4, o = 2`.
    pub fn fig4() -> Self {
        LogP {
            l: 5,
            o: 2,
            g: 4,
            p: 8,
        }
    }

    /// Network capacity: at most `⌈L/g⌉` messages in transit from any
    /// processor or to any processor at any time (§3).
    pub fn capacity(&self) -> u64 {
        self.l.div_ceil(self.g)
    }

    /// End-to-end time for one small message between two processors on an
    /// otherwise idle machine: `2o + L` (send overhead, flight, receive
    /// overhead) — §5: "the time to transmit a small message will be
    /// `2o + L`".
    pub fn point_to_point(&self) -> Cycles {
        2 * self.o + self.l
    }

    /// Cost of reading a remote location under a shared-memory veneer:
    /// `2L + 4o` (§3.2) — a request message plus a reply, each `2o + L`.
    pub fn remote_read(&self) -> Cycles {
        2 * self.l + 4 * self.o
    }

    /// Processing cost of issuing a prefetch (initiate read and continue):
    /// `2o` of processor time, issuable every `g` cycles (§3.2).
    pub fn prefetch_issue(&self) -> Cycles {
        2 * self.o
    }

    /// The conservative simplification of §3.1: raise `o` to `g` so that
    /// `g` can be ignored. "This is conservative by at most a factor of
    /// two."
    pub fn o_raised_to_g(&self) -> Self {
        LogP {
            o: self.o.max(self.g),
            ..*self
        }
    }

    /// The effective per-message injection interval at a busy processor:
    /// consecutive sends are separated by at least `g`, and each costs `o`
    /// of processor time, so a send-only loop emits one message per
    /// `max(g, o)` cycles.
    pub fn send_interval(&self) -> Cycles {
        self.g.max(self.o)
    }

    /// Number of virtual processors per physical processor at which
    /// multithreading saturates the capacity constraint: `L/g` (§3.2).
    pub fn multithreading_limit(&self) -> u64 {
        (self.l / self.g).max(1)
    }

    /// Scale every time parameter by an integer factor (e.g. convert a
    /// coarse calibration to a finer cycle granularity).
    pub fn scaled(&self, factor: u64) -> Self {
        LogP {
            l: self.l * factor,
            o: self.o * factor,
            g: self.g * factor,
            p: self.p,
        }
    }

    /// Same parameters, different processor count.
    pub fn with_p(&self, p: u32) -> Self {
        LogP { p, ..*self }
    }

    /// The "double network" variant of §4.1.4 / Figure 8: using both CM-5
    /// fat-tree data networks doubles the available per-processor
    /// bandwidth, i.e. halves `g` (floor, min 1).
    pub fn double_network(&self) -> Self {
        LogP {
            g: (self.g / 2).max(1),
            ..*self
        }
    }
}

impl std::fmt::Display for LogP {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LogP(L={}, o={}, g={}, P={})",
            self.l, self.o, self.g, self.p
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_degenerate_parameters() {
        assert_eq!(LogP::new(6, 2, 4, 0), Err(ParamError::NoProcessors));
        assert_eq!(LogP::new(6, 2, 0, 8), Err(ParamError::ZeroGap));
        assert_eq!(LogP::new(0, 2, 4, 8), Err(ParamError::ZeroLatency));
        assert!(LogP::new(6, 0, 4, 8).is_ok(), "o = 0 is a legal aspiration");
    }

    #[test]
    fn capacity_is_ceiling_of_l_over_g() {
        assert_eq!(LogP::fig3().capacity(), 2); // ceil(6/4)
        assert_eq!(LogP::fig4().capacity(), 2); // ceil(5/4)
        assert_eq!(LogP::new(8, 2, 4, 8).unwrap().capacity(), 2);
        assert_eq!(LogP::new(9, 2, 4, 8).unwrap().capacity(), 3);
        assert_eq!(LogP::new(1, 0, 1, 2).unwrap().capacity(), 1);
    }

    #[test]
    fn point_to_point_matches_paper() {
        // Fig. 3 narrative: datum enters network at time o, takes L cycles,
        // is received at time L + 2o = 10 for (L=6, o=2).
        assert_eq!(LogP::fig3().point_to_point(), 10);
    }

    #[test]
    fn remote_read_is_2l_plus_4o() {
        let m = LogP::new(10, 3, 4, 16).unwrap();
        assert_eq!(m.remote_read(), 32);
        assert_eq!(m.remote_read(), 2 * m.point_to_point());
    }

    #[test]
    fn conservative_o_raise_never_lowers_o() {
        let m = LogP::new(6, 2, 4, 8).unwrap().o_raised_to_g();
        assert_eq!(m.o, 4);
        let n = LogP::new(6, 5, 4, 8).unwrap().o_raised_to_g();
        assert_eq!(n.o, 5);
    }

    #[test]
    fn double_network_halves_gap() {
        assert_eq!(LogP::fig3().double_network().g, 2);
        assert_eq!(LogP::new(6, 2, 1, 8).unwrap().double_network().g, 1);
    }

    #[test]
    fn multithreading_limit_is_l_over_g() {
        assert_eq!(LogP::new(12, 2, 4, 8).unwrap().multithreading_limit(), 3);
        assert_eq!(LogP::new(3, 2, 4, 8).unwrap().multithreading_limit(), 1);
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(LogP::fig3().to_string(), "LogP(L=6, o=2, g=4, P=8)");
    }
}
