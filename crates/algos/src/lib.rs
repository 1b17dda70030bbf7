//! # logp-algos — portable parallel algorithms under LogP
//!
//! Executable versions of every algorithm the paper designs or analyzes,
//! running on the `logp-sim` machine. Every algorithm is verified for
//! *correctness under message reordering* (the paper's criterion: correct
//! results "under all interleavings of messages consistent with the upper
//! bound of L on latency") and, where the paper gives one, checked
//! against its closed-form time.
//!
//! | Module | Paper | Contents |
//! |---|---|---|
//! | [`am`] | §3.2 | shared-memory veneer: remote read 2L+4o, prefetch, fetch-add |
//! | `tree` (private) | §3.3 | the one tree program (up the reverse of one tree, down another) and the one runner behind the five modules marked † — flat or hierarchical machine, all ranks or survivors, plain sends or `logp_sim::reliable::Reliable` |
//! | `step` (private) | §4.2.2 | the one step program (send, wait for the step's messages, fold them and charge the work) and its runner behind the eight runners in the modules marked ‡ |
//! | [`broadcast`] † | §3.3, Fig. 3 | optimal tree + fixed-shape baselines; survivor and reliable variants |
//! | [`reduce`] † | §3.3, Fig. 4 | optimal summation schedules, binomial baseline; reliable sum |
//! | [`allreduce`] †‡ | — | reduce+broadcast (plain, reliable) vs recursive doubling |
//! | [`scan`] ‡ | §6.2 | block parallel prefix by recursive doubling |
//! | [`gather`] ‡ | §6.6 | scatter / gather / ring all-gather primitives |
//! | [`hier`] † | ext. | level-aware broadcast/sum/all-reduce on hierarchical machines |
//! | [`kbroadcast`] †‡ | §3.3 ext. | k-item broadcast: pipelined trees (plain, reliable) vs scatter+all-gather |
//! | [`remap`] | §4.1.2–4 | all-to-all schedules: naive/staggered/barrier; the one remap program behind `run_remap` and the FFT |
//! | [`fft`] | §4.1 | hybrid-layout FFT with real data (local phases around the remap program) + Fig. 6/7/8 driver |
//! | [`lu`] | §4.2.1 | pivoted LU, column-cyclic executable + layout costs |
//! | [`sort`] ‡ | §4.2.2 | splitter (sample) sort vs bitonic |
//! | [`radix`] | §4.2.2 \[7\] | distributed LSD radix sort, per-digit remaps |
//! | [`cc`] | §4.2.3 | connected components, hot-spot contention + combining |
//! | [`multithread`] | §3.2 | latency masking bounded by the capacity window, a client of [`am`] |
//! //! | [`stencil`] ‡ | §6.4 | 1D Jacobi halo exchange; surface-to-volume economics |
//! | [`stencil2d`] ‡ | §6.4 | 5-point Jacobi on a √P×√P grid; 4b surface vs b² volume |
//! | [`matmul`] ‡ | §6.6 | SUMMA on a √P×√P grid; 1D-vs-2D layout costs |
//! | [`resilient`] | — | survivor remapping for fault-tolerant collectives; `ResilientError` |

pub mod allreduce;
pub mod am;
pub mod broadcast;
pub mod cc;
pub mod fft;
pub mod gather;
pub mod hier;
pub mod kbroadcast;
pub mod lu;
pub mod matmul;
pub mod multithread;
pub mod radix;
pub mod reduce;
pub mod remap;
pub mod resilient;
pub mod scan;
pub mod sort;
pub mod stencil;
pub mod stencil2d;
mod step;
mod tree;
