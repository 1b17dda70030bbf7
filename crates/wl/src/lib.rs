//! # logp-wl — the workload DSL
//!
//! Run external programs on the LogP simulator, not just built-in Rust
//! `Process` implementations: a small schedule IR (a validated DAG of
//! `send` / `recv` / `compute` / `barrier` / `timer` nodes), a
//! human-writable text format with a real error-reporting loader, a
//! deterministic interpreter that executes any loaded DAG on the
//! classic or sharded engine — flat or hierarchical
//! ([`run_workload_hier`]) — trace replay (ObsLog → DAG, which is also
//! how a built-in runner becomes a program), and a seeded fuzz generator
//! for differential testing.
//!
//! ```
//! use logp_wl::{load_workload, run_workload};
//! use logp_core::LogP;
//! use logp_sim::SimConfig;
//!
//! let wl = load_workload(
//!     "workload pingpong\n\
//!      procs 2\n\
//!      ping: send 0 -> 1 data=7\n\
//!      got:  recv 0 -> 1\n\
//!      pong: send 1 -> 0 after: got\n\
//!      done: recv 1 -> 0\n",
//! )
//! .expect("valid program");
//! let m = LogP::fig3(); // L=6, o=2, g=4
//! let run = run_workload(&wl, &m, SimConfig::default()).expect("runs");
//! assert_eq!(run.completion, 2 * m.point_to_point()); // 2(2o + L)
//! ```
//!
//! See `docs/WORKLOADS.md` for the format grammar, validation rules,
//! and the golden corpus under `examples/workloads/`.

pub mod corpus;
pub mod fuzz;
pub mod interp;
pub mod ir;
mod lower;
pub mod parse;
pub mod replay;

pub use corpus::{preset, PRESET_NAMES};
pub use fuzz::{gen_workload, FuzzConfig};
pub use interp::{projection, run_workload, run_workload_hier, WlRun, WlRunError, UNSET};
pub use ir::{Node, NodeId, Nodes, Op, Payload, Span, WlError, Workload};
pub use parse::{load_workload, parse_workload, to_text};
pub use replay::workload_from_obslog;
