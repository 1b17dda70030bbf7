//! Seeded property loops. Case `i` of property `name` draws its inputs
//! from a `CounterRng` keyed by `(name, i)`, so a failure reproduces from
//! the test name and case index it reports. A test crate includes this
//! file with `#[path = "common/cases.rs"] mod cases;`.

use logp::core::rng::{splitmix64, CounterRng};
use logp::core::LogP;
use std::ops::RangeInclusive;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Machines earlier property runs shrank failures to (`LogP{3,8,3,4}` at
/// `t = 46`, `LogP{1,0,2,2}` at `seed = 0`, `LogP{1,0,3,2}`). Every
/// property that draws a machine runs these as its first cases, with its
/// other inputs drawn as in any case.
#[rustfmt::skip]
const CORNERS: [LogP; 3] = [
    LogP { l: 3, o: 8, g: 3, p: 4 },
    LogP { l: 1, o: 0, g: 2, p: 2 },
    LogP { l: 1, o: 0, g: 3, p: 2 },
];

/// Run `case` on `cases` seeded streams; a panic names the test and case.
pub fn check(name: &str, cases: u64, mut case: impl FnMut(&mut CounterRng)) {
    for i in 0..cases {
        let key = name.bytes().fold(i, |h, b| splitmix64(h ^ u64::from(b)));
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| case(&mut CounterRng::new(key)))) {
            eprintln!("property {name} failed at case {i}");
            resume_unwind(panic);
        }
    }
}

/// [`check`] over the [`CORNERS`], then `cases` machines from `machine`.
pub fn check_machines(
    name: &str,
    cases: u64,
    machine: fn(&mut CounterRng) -> LogP,
    mut case: impl FnMut(LogP, &mut CounterRng),
) {
    let mut corners = CORNERS.into_iter();
    check(name, CORNERS.len() as u64 + cases, |rng| {
        case(corners.next().unwrap_or_else(|| machine(rng)), rng)
    });
}

/// A uniform draw from `range`.
pub fn draw(rng: &mut CounterRng, range: RangeInclusive<u64>) -> u64 {
    range.start() + rng.next_in(range.end() - range.start())
}
