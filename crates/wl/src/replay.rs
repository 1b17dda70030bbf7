//! Trace replay: convert a recorded [`ObsLog`] (retained in-memory or
//! read back from JSONL via `logp_sim::replay_jsonl`) into a workload
//! DAG, so any previously recorded run is itself a loadable program.
//!
//! The conversion is per-processor serialization: every record becomes
//! a node, placed in its processor's timeline at the moment it started
//! *executing* (send → overhead start, recv → program delivery, compute
//! → execution start, timer → arming, barrier → release), and chained
//! sequentially. Cross-processor ordering re-emerges from the send/recv
//! channel pairing, so replaying the DAG reproduces the original run's
//! command issue order — and therefore its timing — exactly, which
//! `tests/workloads.rs` pins cycle-for-cycle.
//!
//! Caveats (rejected or approximated, never silently wrong):
//! * undelivered messages (dropped by a fault plan, or in flight at
//!   quiescence) are an error — a DAG recv must complete;
//! * logs whose fault plan *delayed* messages past a later send on the
//!   same channel can pair sends with the wrong recv; the validator's
//!   cycle check catches contradictory cases;
//! * every processor is assumed to participate in every barrier episode
//!   (the log records only the last entrant).

use crate::ir::{bail, NodeId, Op, Payload, Span, WlError, Workload};
use crate::lower::{MAX_BLOCK_WORDS, MAX_PROCS};
use logp_core::{Cycles, ProcId};
use logp_sim::obs::UNSET;
use logp_sim::ObsLog;

/// One log record placed in a processor's timeline.
struct Item {
    proc: ProcId,
    /// (execution-start time, same-time kind rank, record id).
    key: (Cycles, u8, u64),
    label: String,
    op: Op,
}

/// Same-instant ordering: a delivery is observed before anything the
/// handler it runs issues; a barrier release precedes the released
/// handlers' commands; timer arming is free so it precedes a
/// simultaneous send's overhead; computes start after a simultaneous
/// send's overhead ends.
const RANK_RECV: u8 = 0;
const RANK_BARRIER: u8 = 1;
const RANK_TIMER: u8 = 2;
const RANK_SEND: u8 = 3;
const RANK_COMPUTE: u8 = 4;

/// Convert a recorded log over `procs` processors into a workload DAG.
///
/// The log is untrusted (it may come from `replay_jsonl`): errors, with an
/// explanatory message naming the record and no span — logs have no source
/// text — if `procs` is outside what the engines address, the log replays
/// to more nodes than ids are wide (both checked before anything is
/// allocated for them), a record names a processor outside `0..procs`, a
/// compute or timer ends before it starts, a message carries more words
/// than a block may, or a message was never delivered.
pub fn workload_from_obslog(log: &ObsLog, procs: u32, name: &str) -> Result<Workload, WlError> {
    if !(1..=MAX_PROCS).contains(&procs) {
        bail!(
            Span::NONE,
            "the replay declares procs {procs}; need 1..={MAX_PROCS} (what the engines address)"
        );
    }
    // Every processor gets a node per barrier episode.
    let nodes = log.barriers.len() as u128 * u128::from(procs)
        + 2 * log.msgs.len() as u128
        + log.computes.len() as u128
        + log.timers.len() as u128;
    if nodes >= u128::from(NodeId::MAX) {
        bail!(
            Span::NONE,
            "the log replays to {nodes} nodes ({} barriers on each of {procs} processors, {} \
             messages, {} computes, {} timers); node ids are 32 bits",
            log.barriers.len(),
            log.msgs.len(),
            log.computes.len(),
            log.timers.len()
        );
    }
    let on_machine = |kind: &str, id: u64, proc: ProcId| {
        if proc >= procs {
            bail!(
                Span::NONE,
                "{kind} {id} has `proc` {proc} but the replay declares procs {procs}"
            );
        }
        Ok(())
    };
    let mut items: Vec<Item> = Vec::new();
    for r in &log.msgs {
        if r.src >= procs || r.dst >= procs {
            bail!(
                Span::NONE,
                "message {} runs {} -> {} but the replay declares procs {procs}",
                r.id,
                r.src,
                r.dst
            );
        }
        if r.deliver == UNSET {
            bail!(
                Span::NONE,
                "message {} ({} -> {} tag={}) was never delivered; a DAG recv must \
                 complete — replay needs a fault-free (or fully delivered) log",
                r.id,
                r.src,
                r.dst,
                r.tag
            );
        }
        let payload = match r.words {
            0 => Payload::Empty,
            1 => Payload::Word(r.id),
            w if w <= u64::from(MAX_BLOCK_WORDS) => Payload::Block(w as u32),
            w => bail!(
                Span::NONE,
                "message {} has `words` {w}; a block holds at most {MAX_BLOCK_WORDS}",
                r.id
            ),
        };
        items.push(Item {
            proc: r.src,
            key: (r.inject, RANK_SEND, r.id),
            label: format!("m{}_tx", r.id),
            op: Op::Send {
                dst: r.dst,
                tag: r.tag,
                payload,
            },
        });
        items.push(Item {
            proc: r.dst,
            key: (r.deliver, RANK_RECV, r.id),
            label: format!("m{}_rx", r.id),
            op: Op::Recv {
                src: r.src,
                tag: r.tag,
            },
        });
    }
    for c in &log.computes {
        on_machine("compute", c.id, c.proc)?;
        let Some(cycles) = c.end.checked_sub(c.start) else {
            bail!(
                Span::NONE,
                "compute {} has `end` {} before its `start` {}",
                c.id,
                c.end,
                c.start
            );
        };
        items.push(Item {
            proc: c.proc,
            key: (c.start, RANK_COMPUTE, c.id),
            label: format!("c{}", c.id),
            op: Op::Compute { cycles },
        });
    }
    for t in &log.timers {
        on_machine("timer", t.id, t.proc)?;
        let Some(cycles) = t.fire.checked_sub(t.armed) else {
            bail!(
                Span::NONE,
                "timer {} has `fire` {} before its `armed` {}",
                t.id,
                t.fire,
                t.armed
            );
        };
        items.push(Item {
            proc: t.proc,
            key: (t.armed, RANK_TIMER, t.id),
            label: format!("t{}", t.id),
            op: Op::Timer { cycles },
        });
    }
    for (k, b) in log.barriers.iter().enumerate() {
        for q in 0..procs {
            items.push(Item {
                proc: q,
                key: (b.release, RANK_BARRIER, k as u64),
                label: format!("b{k}_p{q}"),
                op: Op::Barrier,
            });
        }
    }
    items.sort_by_key(|a| (a.proc, a.key));
    let mut wl = Workload::new(name, procs);
    let mut prev: Vec<Option<NodeId>> = vec![None; procs as usize];
    for item in items {
        let after = &mut prev[item.proc as usize];
        let id = wl.node(item.label, item.proc, item.op, after.as_slice());
        *after = Some(id);
    }
    Ok(wl)
}
