//! Experiment 1 (Section 6.1, Figure 4): batched TPCD queries.
//!
//! Regenerates the data behind Figure 4a (plan costs at 1 GB) and Figure 4b
//! (plan costs at 100 GB). Figure 4c's optimization times are the
//! `opt_time` bench's series, recorded in `BENCH_opt_time.json`.
//! Composite query `BQi` consists of the first `i` of Q3, Q5, Q7, Q8, Q9,
//! Q10, each repeated twice with different selection constants.
//!
//! Usage: `experiment1 [--sf <scale factor>]` (default: both 1 and 100).

use mqo_bench::{experiment1, print_cost_table, PAPER_STRATEGIES};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let sf_arg = args
        .iter()
        .position(|a| a == "--sf")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse::<f64>().expect("--sf takes a number"));

    let sfs: Vec<f64> = match sf_arg {
        Some(sf) => vec![sf],
        None => vec![1.0, 100.0],
    };

    for sf in sfs {
        let label = if sf == 1.0 {
            "1GB Total Size (Figure 4a)".to_string()
        } else if sf == 100.0 {
            "100GB Total Size (Figure 4b)".to_string()
        } else {
            format!("SF {sf}")
        };
        let rows = experiment1(sf, &PAPER_STRATEGIES);
        print_cost_table(&format!("Experiment 1 — {label}"), &rows);
    }
}
