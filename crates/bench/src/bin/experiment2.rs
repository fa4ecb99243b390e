//! Experiment 2 (Section 6.2, Figure 5): stand-alone TPCD queries.
//!
//! Regenerates the data behind Figure 5a (plan costs at 1 GB) and Figure 5b
//! (plan costs at 100 GB). Figure 5c's optimization times are the
//! `opt_time` bench's series, recorded in `BENCH_opt_time.json`. The
//! workloads are single queries with common subexpressions *within*
//! themselves: Q2 (correlated nested subquery), Q2-D (its decorrelated
//! batch), Q11 and Q15 (views referenced twice).
//!
//! Usage: `experiment2 [--sf <scale factor>]` (default: both 1 and 100).

use mqo_bench::{experiment2, print_cost_table, PAPER_STRATEGIES};

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
            "1GB Total Size (Figure 5a)".to_string()
        } else if sf == 100.0 {
            "100GB Total Size (Figure 5b)".to_string()
        } else {
            format!("SF {sf}")
        };
        let rows = experiment2(sf, &PAPER_STRATEGIES);
        print_cost_table(&format!("Experiment 2 — {label}"), &rows);
    }
}
