//! A caller's tree is outside input. The four ways child lists fail to be
//! a tree that spans the machine — a cycle, a child the machine lacks, a
//! rank under two parents, a rank under none — each get a `TreeError`
//! where a `Tree` is made, and the same error's message, before anything
//! is walked or simulated, from every function that prices or runs lists
//! as they stand. (They used to be, in order: an allocation until the
//! process aborted, an index panic, and two asserts in the middle of a
//! walk or an `Incomplete` after a whole simulation.)

use logp::algos::broadcast::run_tree_broadcast;
use logp::algos::hier::{run_tree_allreduce_on, run_tree_broadcast_on, run_tree_reduce_on};
use logp::core::broadcast::tree_broadcast_times;
use logp::core::hier::{eval_allreduce, eval_broadcast, eval_reduce, Hierarchy};
use logp::core::{Children, LogP, ProcId, Tree, TreeError};
use logp::sim::SimConfig;
use std::panic::{catch_unwind, UnwindSafe};

#[path = "common/counting.rs"]
mod counting;

#[global_allocator]
static GLOBAL: counting::Counting = counting::Counting;

/// The message `f` panics with.
fn panic_of<T>(f: impl FnOnce() -> T + UnwindSafe) -> String {
    let payload = match catch_unwind(f) {
        Ok(_) => return "no panic".into(),
        Err(payload) => payload,
    };
    match payload.downcast::<String>() {
        Ok(msg) => *msg,
        Err(payload) => payload
            .downcast::<&str>()
            .map_or("a panic without a message".into(), |msg| msg.to_string()),
    }
}

#[test]
fn malformed_trees_are_refused_before_they_are_walked() {
    // Shape, its child lists, its parent array if one can say it, what is
    // wrong with it.
    let table = [
        (
            "a two-rank cycle",
            vec![vec![1 as ProcId], vec![0]],
            Some(vec![Some(1 as ProcId), Some(0)]),
            TreeError::Unreached { rank: 0 },
        ),
        (
            "a child the machine lacks",
            vec![vec![1, 4], vec![2], vec![3], vec![]],
            Some(vec![None, Some(0), Some(1), Some(4)]),
            TreeError::OutOfRange { rank: 4, p: 4 },
        ),
        (
            "a rank under two parents",
            vec![vec![1, 2], vec![3], vec![3], vec![]],
            None, // a parent array cannot say it
            TreeError::TwoParents { rank: 3 },
        ),
        (
            "a rank under none",
            vec![vec![1], vec![2], vec![], vec![]],
            Some(vec![None, Some(0), Some(1), None]),
            TreeError::Unreached { rank: 3 },
        ),
    ];
    for (shape, lists, parents, error) in table {
        // Where a `Tree` is made.
        assert_eq!(Tree::try_from_lists(&lists), Err(error), "{shape}");
        assert_eq!(lists.check(0), Err(error), "{shape}");
        if let Some(parents) = parents {
            assert_eq!(Tree::from_parents(&parents), Err(error), "{shape}");
        }

        // Where lists are priced or run as they stand: the same message,
        // from the well-formed tree's seat beside it too.
        let m = LogP::new(6, 2, 4, lists.len() as u32).expect("a valid machine");
        let h = Hierarchy::flat(&m);
        let good = Tree::binomial(m.p);
        let values = vec![1.0; lists.len()];
        let cfg = SimConfig::default;
        let calls: [(&str, String); 10] = [
            (
                "tree_broadcast_times",
                panic_of(|| tree_broadcast_times(&m, &lists)),
            ),
            ("eval_broadcast", panic_of(|| eval_broadcast(&h, &lists))),
            ("eval_reduce", panic_of(|| eval_reduce(&h, &lists[..]))),
            (
                "eval_allreduce, up",
                panic_of(|| eval_allreduce(&h, &lists, &good)),
            ),
            (
                "eval_allreduce, down",
                panic_of(|| eval_allreduce(&h, &good, &lists)),
            ),
            (
                "run_tree_broadcast",
                panic_of(|| run_tree_broadcast(&m, &lists, cfg())),
            ),
            (
                "run_tree_broadcast_on",
                panic_of(|| run_tree_broadcast_on(&h, &lists, 1.0, cfg())),
            ),
            (
                "run_tree_reduce_on",
                panic_of(|| run_tree_reduce_on(&h, &lists, &values, cfg())),
            ),
            (
                "run_tree_allreduce_on, up",
                panic_of(|| run_tree_allreduce_on(&h, &lists, &good, &values, cfg())),
            ),
            (
                "run_tree_allreduce_on, down",
                panic_of(|| run_tree_allreduce_on(&h, &good, &lists, &values, cfg())),
            ),
        ];
        for (call, message) in calls {
            assert_eq!(message, error.to_string(), "{call} on {shape}");
        }
    }
}

#[test]
fn a_cycle_costs_its_check_and_no_more() {
    // The reduction's post-order walk used to push a cycle's ranks until
    // memory ran out. The check marks each rank once: a byte a rank, and
    // the root on its stack.
    let two: Vec<Vec<ProcId>> = vec![vec![1], vec![0]];
    let (verdict, spent) = counting::allocs(|| Tree::try_from_lists(&two));
    assert_eq!(verdict, Err(TreeError::Unreached { rank: 0 }));
    assert!(spent.bytes <= 64, "{spent:?}");

    // A cycle the root is not on: 0 -> 1, then 2 -> 3 -> ... -> P-1 -> 2.
    const P: u32 = 1 << 12;
    let mut ring: Vec<Vec<ProcId>> = (0..P).map(|i| vec![(i + 1) % P]).collect();
    (ring[1], ring[P as usize - 1]) = (vec![], vec![2]);
    let (verdict, spent) = counting::allocs(|| ring.check(0));
    assert_eq!(verdict, Err(TreeError::Unreached { rank: 2 }));
    assert!(spent.bytes <= 2 * u64::from(P), "{spent:?}");
}

#[test]
fn a_survivor_tree_is_not_a_tree_over_the_whole_machine() {
    // A well-formed `Tree` that does not span the machine from rank 0 —
    // here one that skips a crashed processor — is refused the same way.
    let m = LogP::fig3();
    let survivors: Vec<ProcId> = (0..m.p).filter(|&q| q != 5).collect();
    let partial = Tree::binomial(m.p - 1).relabel(m.p, &survivors);
    assert_eq!(partial.check(0), Err(TreeError::Unreached { rank: 5 }));
    assert_eq!(
        panic_of(|| run_tree_broadcast(&m, &partial, SimConfig::default())),
        TreeError::Unreached { rank: 5 }.to_string()
    );
}
