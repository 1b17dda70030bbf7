//! Messages exchanged between simulated processors.
//!
//! The basic LogP model assumes small messages — "a word (or small number
//! of words)" — so payloads are compact values. A long message is
//! `Ctx::send_bulk`, priced by LogGP's `G` per word (§5.4).

use logp_core::ProcId;
use std::sync::Arc;

/// Small-message payload. One machine word (or a small number of words).
#[derive(Debug, Clone, PartialEq)]
pub enum Data {
    /// No payload beyond the tag (pure control message).
    Empty,
    /// One unsigned word.
    U64(u64),
    /// One floating-point word.
    F64(f64),
    /// Two words (e.g. index + value).
    Pair(u64, u64),
    /// An index plus a float (e.g. element id + partial sum).
    IdxF64(u64, f64),
    /// An indexed complex value (e.g. one FFT element in a remap). The
    /// index is 32 bits so that this, the only three-word variant, fits
    /// the 24 bytes every other payload does: a `Command` is 32 bytes and
    /// a parked message 48 (pinned in `engine::tests`). A producer
    /// converts with `u32::try_from`; [`Data::as_cplx`] widens it back.
    Cplx { idx: u32, re: f64, im: f64 },
    /// A shared block of words. The *model* still treats the message as
    /// small; this exists so tests can ship structured payloads without
    /// serializing. A long message the model should charge for is
    /// `Ctx::send_bulk` with its word count.
    Block(Arc<Vec<u64>>),
    /// A sequenced payload: an inner payload tagged with a per-sender
    /// sequence number. This is the wire format of the reliable-delivery
    /// layer (`logp_sim::reliable`); the fault layer keys its decisions on
    /// `seq` so every retransmission of the same logical message draws the
    /// same fault lottery ticket per attempt.
    Seq {
        /// Logical message identity on this channel.
        seq: u64,
        /// The wrapped application payload.
        inner: Box<Data>,
    },
}

impl Data {
    /// A coarse payload size in words, used only for statistics.
    pub fn words(&self) -> u64 {
        match self {
            Data::Empty => 0,
            Data::U64(_) | Data::F64(_) => 1,
            Data::Pair(..) | Data::IdxF64(..) => 2,
            Data::Cplx { .. } => 3,
            Data::Block(b) => b.len() as u64,
            // One header word for the sequence number.
            Data::Seq { inner, .. } => 1 + inner.words(),
        }
    }

    /// The sequence number of a [`Data::Seq`] payload, `None` otherwise.
    pub fn seq(&self) -> Option<u64> {
        match self {
            Data::Seq { seq, .. } => Some(*seq),
            _ => None,
        }
    }

    /// Unwrap a [`Data::Seq`] payload into `(seq, inner)`.
    pub fn as_seq(&self) -> (u64, &Data) {
        match self {
            Data::Seq { seq, inner } => (*seq, inner),
            other => panic!("expected Data::Seq, got {other:?}"),
        }
    }

    /// Extract a `u64`, panicking with context otherwise (simulation
    /// programs are internally typed; a mismatch is a program bug).
    pub fn as_u64(&self) -> u64 {
        match self {
            Data::U64(v) => *v,
            other => panic!("expected Data::U64, got {other:?}"),
        }
    }

    /// Extract an `f64`.
    pub fn as_f64(&self) -> f64 {
        match self {
            Data::F64(v) => *v,
            other => panic!("expected Data::F64, got {other:?}"),
        }
    }

    /// Extract a pair.
    pub fn as_pair(&self) -> (u64, u64) {
        match self {
            Data::Pair(a, b) => (*a, *b),
            other => panic!("expected Data::Pair, got {other:?}"),
        }
    }

    /// Extract an index/float pair.
    pub fn as_idx_f64(&self) -> (u64, f64) {
        match self {
            Data::IdxF64(i, v) => (*i, *v),
            other => panic!("expected Data::IdxF64, got {other:?}"),
        }
    }

    /// Extract an indexed complex value (the index widened to a word).
    pub fn as_cplx(&self) -> (u64, f64, f64) {
        match self {
            Data::Cplx { idx, re, im } => (u64::from(*idx), *re, *im),
            other => panic!("expected Data::Cplx, got {other:?}"),
        }
    }
}

/// A message in flight or delivered.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Sender.
    pub src: ProcId,
    /// Destination.
    pub dst: ProcId,
    /// Application-level tag for dispatch in `on_message`.
    pub tag: u32,
    /// Payload.
    pub data: Data,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_sizes() {
        assert_eq!(Data::Empty.words(), 0);
        assert_eq!(Data::U64(3).words(), 1);
        assert_eq!(Data::Pair(1, 2).words(), 2);
        assert_eq!(Data::Block(Arc::new(vec![1, 2, 3])).words(), 3);
    }

    #[test]
    fn typed_extraction() {
        assert_eq!(Data::U64(7).as_u64(), 7);
        assert_eq!(Data::F64(1.5).as_f64(), 1.5);
        assert_eq!(Data::Pair(1, 2).as_pair(), (1, 2));
        assert_eq!(Data::IdxF64(4, 0.5).as_idx_f64(), (4, 0.5));
    }

    /// The widest index a remap element can carry survives the round trip
    /// (and the clone every fault-layer duplicate takes).
    #[test]
    fn a_cplx_index_round_trips_at_u32_max() {
        let sent = Data::Cplx {
            idx: u32::MAX,
            re: -0.5,
            im: 2.25,
        };
        assert_eq!(sent.words(), 3);
        let (idx, re, im) = sent.clone().as_cplx();
        assert_eq!((idx, re, im), (u64::from(u32::MAX), -0.5, 2.25));
        let back = Data::Cplx {
            idx: u32::try_from(idx).expect("as_cplx widened a u32"),
            re,
            im,
        };
        assert_eq!(back, sent);
    }

    #[test]
    #[should_panic(expected = "expected Data::U64")]
    fn extraction_mismatch_panics() {
        Data::F64(0.0).as_u64();
    }
}
