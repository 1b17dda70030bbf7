//! E9 — Figure 2: "Performance of state-of-the-art microprocessors over
//! time", with the paper's growth-rate fits (~97%/yr FP, ~54%/yr int).

use logp_bench::{f1, Args, Table};
use logp_core::techtrends::{figure2_data, fp_growth, integer_growth};

pub fn run(_: &Args) {
    println!("Figure 2 — microprocessor performance vs time (xVAX-11/780)\n");
    let mut t = Table::new(&["machine", "year", "SPEC int", "SPEC fp"]);
    for s in figure2_data() {
        t.row(&[
            s.name.to_string(),
            s.year.to_string(),
            f1(s.spec_int),
            f1(s.spec_fp),
        ]);
    }
    t.print();
    let int = integer_growth();
    let fp = fp_growth();
    println!();
    println!(
        "integer growth fit: {:.0}%/year   (paper reports ~54%/year)",
        int.annual_rate * 100.0
    );
    println!(
        "floating-point fit: {:.0}%/year   (paper reports ~97%/year)",
        fp.annual_rate * 100.0
    );
    println!(
        "\nextrapolation to 1995: int {:.0}x, fp {:.0}x the VAX-11/780",
        int.predict(1995),
        fp.predict(1995)
    );
}
