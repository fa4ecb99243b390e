//! Serving layer: a live MQO service under concurrent admission.
//!
//! Builds the batched TPCD workload minus its last two queries, wraps the
//! batch in an [`MqoService`], and then drives the three roles the
//! serving layer separates:
//!
//! * **writers** — two threads submit the held-back queries concurrently;
//!   the single service writer coalesces simultaneous admissions into one
//!   optimization round (flat combining) and publishes a fresh immutable
//!   [`EngineState`] snapshot per round;
//! * **readers** — a thread keeps optimizing against the snapshot it took
//!   *before* the writers started. Snapshots are immutable: the reader's
//!   answers are unaffected by commits landing next door;
//! * **maintenance** — a benefit-ranked materialization cache and
//!   re-baselining (history compaction past a watermark) run inside the
//!   writer's round, so they never block readers either.
//!
//! Run with `cargo run --release --example serve`.

use provable_mqo::prelude::*;

fn main() {
    let w = mqo_tpcd::batched(4, 1.0);
    let mut queries = w.queries;
    let arrivals = queries.split_off(queries.len() - 2);

    // The batch editor becomes a service: the one writer lives behind the
    // service lock, and every published snapshot is an immutable
    // `Arc<EngineState>` readers hold for as long as they like.
    let service = Session::builder()
        .context(w.ctx)
        .queries(queries)
        .cost_model(DiskCostModel::paper())
        .build()
        .serve_with(ServeConfig {
            strategy: Strategy::MarginalGreedy,
            // Drop retired provenance entries once the history (live plus
            // retired queries) outgrows this; compaction leaves the memo as
            // it is, so it never re-expands.
            history_watermark: 64,
            // Keep the 4 highest-marginal-benefit materializations warm.
            cache_capacity: 4,
            ..ServeConfig::default()
        });

    let before = service.snapshot();
    let base_report = service.run();
    println!(
        "base batch : {} queries, universe {}, MarginalGreedy cost {:>12.0}",
        before.n_queries(),
        before.universe_size(),
        base_report.total_cost,
    );

    let reader_cost = std::thread::scope(|s| {
        for q in &arrivals {
            let service = &service;
            s.spawn(move || {
                let ticket = service.submit_query(q.clone());
                println!("admitted   : {ticket:?} (snapshot already published)");
            });
        }
        // Concurrent reader pinned to the pre-admission snapshot: commits
        // landing on the service cannot move its answers.
        s.spawn(|| {
            before
                .run(Strategy::MarginalGreedy, MqoConfig::default())
                .total_cost
        })
        .join()
        .expect("reader thread")
    });
    assert_eq!(reader_cost, base_report.total_cost);
    println!("reader     : old snapshot still answers {reader_cost:>12.0}");

    let after = service.snapshot();
    let report = service.run();
    println!(
        "served     : {} queries, universe {}, MarginalGreedy cost {:>12.0}",
        after.n_queries(),
        after.universe_size(),
        report.total_cost,
    );
    println!(
        "hot cache  : {} materializations ranked by marginal benefit",
        service.cached_materializations().len()
    );

    let stats = service.stats();
    println!(
        "stats      : {} rounds for {} admissions ({} coalesced), {} compactions",
        stats.rounds, stats.admitted, stats.coalesced, stats.compactions
    );

    // The service hands the batch editor back; extraction and rendering
    // work as on any OptimizedBatch.
    let batch = service.finish();
    println!(
        "\nconsolidated plan:\n{}",
        report.plan.render(batch.batch())
    );
}
