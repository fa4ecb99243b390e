//! The scale-tier workload generator through the `Session` prelude.
//!
//! Generates seeded chain/star/clique/snowflake batches
//! (`mqo_tpcd::workloads`), optimizes each with MarginalGreedy, and then
//! demonstrates the Theorem 4 universe-reduction pre-pass: same plans,
//! smaller ranked candidate universe. Pass `--big` to run the calibrated
//! 10k-candidate chain instance (`WorkloadSpec::scale_10k(7)`, the first
//! instance of `mqobench`'s `batch-10k` workload at seed 7) and assert
//! that its universe exceeds 10k candidates (slow in debug builds; use
//! `--release`).
//!
//! Run with `cargo run --release --example scale_sweep [-- --big]`.

use mqo_tpcd::workloads::{generate, Shape, WorkloadSpec};
use provable_mqo::prelude::*;

fn run_spec(spec: &WorkloadSpec, config: MqoConfig) -> RunReport {
    let w = generate(spec);
    let session = Session::builder()
        .context(w.ctx)
        .queries(w.queries)
        .cost_model(DiskCostModel::paper())
        .config(config)
        .build();
    session.run(Strategy::MarginalGreedy)
}

fn main() {
    let big = std::env::args().any(|a| a == "--big");

    println!("shape      queries  universe  ranked  materialized  improvement");
    for shape in Shape::ALL {
        let spec = if big && shape == Shape::Chain {
            WorkloadSpec::scale_10k(7)
        } else {
            WorkloadSpec::smoke(shape, 7)
        };
        let r = run_spec(&spec, MqoConfig::default());
        if big && shape == Shape::Chain {
            assert!(
                r.universe >= 10_000,
                "the --big chain must exceed 10k materialization candidates, got {}",
                r.universe
            );
        }
        println!(
            "{:10} {:>7}  {:>8}  {:>6}  {:>12}  {:>10.1}%",
            shape.name(),
            spec.queries,
            r.universe,
            r.candidates,
            r.materialized.len(),
            r.improvement_pct()
        );
    }

    // The universe-reduction pre-pass: cost-based decomposition plus a
    // materialization budget make Theorem 4 actually prune, and the
    // ranked universe the greedy sees shrinks accordingly.
    let spec = if big {
        WorkloadSpec::scale_10k(7)
    } else {
        WorkloadSpec::smoke(Shape::Chain, 7)
    };
    let budget = 16;
    let off = run_spec(
        &spec,
        MqoConfig {
            decomposition: DecompositionKind::MaterializationCost,
            universe_reduction: false,
            max_materializations: Some(budget),
            ..MqoConfig::default()
        },
    );
    let on = run_spec(
        &spec,
        MqoConfig {
            decomposition: DecompositionKind::MaterializationCost,
            universe_reduction: true,
            max_materializations: Some(budget),
            ..MqoConfig::default()
        },
    );
    println!("\nuniverse-reduction pre-pass (chain, k = {budget}):");
    println!(
        "  off: ranked {:>6} of {:>6}   cost {:>14.0}   bc_calls {:>8}   opt {:?}",
        off.candidates, off.universe, off.total_cost, off.bc_calls, off.opt_time
    );
    println!(
        "  on:  ranked {:>6} of {:>6}   cost {:>14.0}   bc_calls {:>8}   opt {:?}",
        on.candidates, on.universe, on.total_cost, on.bc_calls, on.opt_time
    );
    assert_eq!(
        off.materialized, on.materialized,
        "Theorem 4: the pre-pass must not change the chosen set"
    );
    println!("  chosen sets identical (Theorem 4 holds)");
}
