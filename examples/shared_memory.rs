//! The shared-memory veneer of §3.2: remote reads, prefetching, and
//! remote atomics over explicit messages — plus black-box parameter
//! extraction (§7) to confirm the machine is what it claims.
//!
//! ```sh
//! cargo run --release --example shared_memory
//! ```

use logp::algos::am::{run_two_node, AmClient, AmCtx};
use logp::calib::{calibrate, CalibConfig, SimMachine};
use logp::prelude::*;

/// Sum a remote array two ways: blocking reads (one at a time) vs
/// prefetching everything up front.
struct RemoteSummer {
    n: u64,
    prefetch: bool,
    received: u64,
    sum: f64,
    started: bool,
    result: SharedCell<(f64, Cycles)>,
}

impl AmClient for RemoteSummer {
    fn on_start(&mut self, am: &mut AmCtx<'_, '_>) {
        if self.prefetch {
            for a in 0..self.n {
                am.read(1, a);
            }
        } else {
            am.read(1, 0);
        }
        self.started = true;
    }

    fn on_value(&mut self, _req: u64, v: f64, am: &mut AmCtx<'_, '_>) {
        self.sum += v;
        self.received += 1;
        if self.received == self.n {
            let rec = (self.sum, am.now());
            self.result.with(|r| *r = rec);
        } else if !self.prefetch {
            am.read(1, self.received);
        }
    }
}

fn main() {
    let m = LogP::new(60, 20, 40, 2).unwrap(); // CM-5 calibration
    let n = 64u64;
    let cells: Vec<f64> = (0..n).map(|v| v as f64).collect();
    let expect: f64 = cells.iter().sum();

    println!("remote-memory access on {m}\n");
    println!(
        "single remote read costs 2L + 4o = {} cycles",
        m.remote_read()
    );

    for prefetch in [false, true] {
        let result: SharedCell<(f64, Cycles)> = SharedCell::new();
        run_two_node(
            &m,
            cells.clone(),
            RemoteSummer {
                n,
                prefetch,
                received: 0,
                sum: 0.0,
                started: false,
                result: result.clone(),
            },
            SimConfig::default(),
        );
        let (sum, done) = result.get();
        assert_eq!(sum, expect);
        println!(
            "summing {n} remote values with {:9}: {done:>6} cycles ({:.1} cycles/value)",
            if prefetch { "prefetch" } else { "blocking" },
            done as f64 / n as f64
        );
    }
    println!(
        "\nblocking pays the full round trip per value; prefetch pipelines at\n\
         the gap — §3.2: \"prefetch operations ... can be issued every g cycles\"."
    );

    // Trust, but verify: extract the machine's parameters by micro-benchmark.
    let cal = calibrate(&mut SimMachine::new(m), &CalibConfig::default());
    println!(
        "\nblack-box extraction (§7): L = {:.1}, o = {:.1}, send interval = {:.1} \
         (true: {}, {}, {})",
        cal.logp.l.value,
        cal.logp.o.value,
        cal.interval.value,
        m.l,
        m.o,
        m.send_interval()
    );
}
