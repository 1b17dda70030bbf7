//! # logp-core — the LogP machine model
//!
//! Rust implementation of the parallel machine model of
//! *"LogP: Towards a Realistic Model of Parallel Computation"*
//! (Culler, Karp, Patterson, Sahay, Schauser, Santos, Subramonian,
//! von Eicken — PPoPP 1993).
//!
//! The model characterizes a distributed-memory machine by four
//! parameters — latency **L**, overhead **o**, gap **g**, processors
//! **P** — plus a network capacity of ⌈L/g⌉ in-flight messages per
//! endpoint. This crate provides:
//!
//! * [`params::LogP`] — the validated parameter quadruple and the basic
//!   laws (capacity, `2o+L` point-to-point, `2L+4o` remote read, …);
//! * [`machines`] — calibrated presets (CM-5 with the paper's §4.1.4
//!   parameters, and others);
//! * [`estimate`] — measured parameters with uncertainty
//!   ([`estimate::ParamEstimate`]), the shared vocabulary of every
//!   calibration path (`logp-net` datasheet arithmetic, `logp-algos`
//!   micro-benchmarks, the `logp-calib` black-box calibrator);
//! * [`broadcast`] — the optimal single-datum broadcast of §3.3 / Fig. 3,
//!   plus baseline tree shapes;
//! * [`tree`] — the one tree object every builder returns and every
//!   evaluator and runner reads ([`Tree`], 8 bytes a rank), with the check
//!   that turns somebody else's child lists into one or a [`TreeError`];
//! * [`summation`] — the optimal summation schedules of §3.3 / Fig. 4;
//! * [`cost`] — closed-form costs for streams, remaps, FFT layouts and LU
//!   layouts (§4);
//! * [`models`] — PRAM and BSP predictions for the comparisons of §6;
//! * [`extensions`] — long messages/DMA (§5.4) and multiple gaps (§5.6);
//! * [`hier`] — the hierarchical extension: nested levels of (L, o, g)
//!   for clusters of multi-core machines ([`hier::Hierarchy`]), with
//!   level-aware broadcast trees and engine-exact analytic evaluation;
//! * [`sweep`] — exploration of the 4-dimensional machine space (§7);
//! * [`product_line`] — vendor product lines as curves in that space (§7);
//! * [`techtrends`] — the Figure 2 microprocessor growth data and fit.
//!
//! Executable versions of every algorithm live in `logp-algos` and run on
//! the discrete-event machine in `logp-sim`.

pub mod broadcast;
pub mod cost;
pub mod estimate;
pub mod extensions;
pub mod hier;
pub mod machines;
pub mod models;
pub mod params;
pub mod product_line;
pub mod rng;
pub mod summation;
pub mod sweep;
pub mod techtrends;
pub mod tree;

pub use estimate::{LogPEstimate, ParamEstimate};
pub use hier::{HierError, Hierarchy, Level};
pub use machines::MachinePreset;
pub use params::{Cycles, LogP, ParamError, ProcId};
pub use tree::{Children, Tree, TreeError};
