//! Benchmark harness: runs the paper's experiments and prints the tables
//! behind every figure.
//!
//! * Experiment 1 (Figure 4a/4b): batched TPCD queries BQ1..BQ6 at SF 1
//!   and SF 100 — plan costs and number of materialized nodes.
//! * Experiment 2 (Figure 5a/5b): stand-alone Q2, Q2-D, Q11, Q15.
//! * Ablations: lazy vs eager, incremental vs full `bestCost`, Theorem 4
//!   universe reduction, decomposition choice, cleanup.
//!
//! The optimization-time series of Figures 4c and 5c are the `opt_time`
//! bench (`benches/opt_time.rs`), recorded with sample count and spread in
//! `BENCH_opt_time.json`.

#![forbid(unsafe_code)]

pub mod timing;

use mqo_core::session::Session;
use mqo_core::strategies::{RunReport, Strategy};
use mqo_tpcd::Workload;
use mqo_volcano::cost::{CostModel, DiskCostModel};
use mqo_volcano::rules::RuleSet;

/// The three contenders of the paper's figures.
pub const PAPER_STRATEGIES: [Strategy; 3] = [
    Strategy::Volcano,
    Strategy::Greedy,
    Strategy::MarginalGreedy,
];

/// One row of an experiment table: a workload optimized by every strategy.
pub struct ExperimentRow {
    /// Workload name (`BQ3`, `Q11`, ...).
    pub workload: String,
    /// Shareable-universe size.
    pub universe: usize,
    /// Memo size after expansion (groups, exprs).
    pub dag_size: (usize, usize),
    /// One report per strategy, in the caller-provided strategy order.
    pub reports: Vec<RunReport>,
}

/// Builds a `Session` for a workload and optimizes it with each strategy.
pub fn run_workload(
    w: Workload,
    cm: impl CostModel + 'static,
    strategies: &[Strategy],
) -> ExperimentRow {
    let session = Session::builder()
        .context(w.ctx)
        .queries(w.queries)
        .rules(RuleSet::default())
        .cost_model(cm)
        .build();
    let reports = session.run_all(strategies);
    ExperimentRow {
        workload: w.name,
        universe: session.universe_size(),
        dag_size: (
            session.batch().expansion().groups,
            session.batch().expansion().exprs,
        ),
        reports,
    }
}

/// Runs Experiment 1 (Figure 4) at the given scale factor.
pub fn experiment1(sf: f64, strategies: &[Strategy]) -> Vec<ExperimentRow> {
    (1..=6)
        .map(|i| run_workload(mqo_tpcd::batched(i, sf), DiskCostModel::paper(), strategies))
        .collect()
}

/// Runs Experiment 2 (Figure 5) at the given scale factor.
pub fn experiment2(sf: f64, strategies: &[Strategy]) -> Vec<ExperimentRow> {
    mqo_tpcd::STANDALONE_NAMES
        .iter()
        .map(|name| {
            run_workload(
                mqo_tpcd::standalone(name, sf),
                DiskCostModel::paper(),
                strategies,
            )
        })
        .collect()
}

/// Prints the cost table of an experiment (the bar heights of Figures 4a/4b
/// and 5a/5b: estimated plan cost per strategy, with the number of
/// materialized nodes annotated as in the paper).
pub fn print_cost_table(title: &str, rows: &[ExperimentRow]) {
    println!("\n{title}");
    print!("{:<10} {:>9}", "workload", "universe");
    for r in &rows[0].reports {
        print!(" {:>26}", r.strategy);
    }
    println!();
    for row in rows {
        print!("{:<10} {:>9}", row.workload, row.universe);
        for r in &row.reports {
            print!(" {:>17.0} ({:>3} mat)", r.total_cost, r.materialized.len());
        }
        println!();
    }
    println!("improvement over stand-alone Volcano:");
    for row in rows {
        print!("{:<10} {:>9}", row.workload, "");
        for r in &row.reports {
            print!(" {:>25.1}%", r.improvement_pct());
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment1_bq1_runs() {
        let row = run_workload(
            mqo_tpcd::batched(1, 1.0),
            DiskCostModel::paper(),
            &PAPER_STRATEGIES,
        );
        assert_eq!(row.workload, "BQ1");
        assert_eq!(row.reports.len(), 3);
        // MQO strategies never exceed Volcano.
        let volcano = row.reports[0].total_cost;
        for r in &row.reports[1..] {
            assert!(r.total_cost <= volcano + 1e-6);
        }
    }

    #[test]
    fn experiment2_q15_halves_cost() {
        let row = run_workload(
            mqo_tpcd::standalone("Q15", 1.0),
            DiskCostModel::paper(),
            &PAPER_STRATEGIES,
        );
        let volcano = row.reports[0].total_cost;
        let greedy = row.reports[1].total_cost;
        assert!(
            greedy < 0.6 * volcano,
            "Q15's shared revenue view must roughly halve the cost"
        );
    }
}
