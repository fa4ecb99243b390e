//! Optimality-gap measurement: on workloads whose shareable universe is
//! small enough, compare the greedy heuristics against the exhaustive
//! optimum (the ground truth the paper calls untenable at scale — here the
//! `bc` oracle makes 2^n evaluations affordable for small n).

use mqo_core::session::{OptimizedBatch, Session};
use mqo_core::strategies::{RunReport, Strategy};
use mqo_core::MqoConfig;
use mqo_volcano::cost::DiskCostModel;
use mqo_volcano::rules::RuleSet;

fn build(name: &str) -> OptimizedBatch {
    let w = mqo_tpcd::standalone(name, 1.0);
    Session::builder()
        .context(w.ctx)
        .queries(w.queries)
        .rules(RuleSet::default())
        .cost_model(DiskCostModel::paper())
        .build()
}

#[test]
fn greedy_is_optimal_on_q11_and_q15() {
    for name in ["Q11", "Q15"] {
        let batch = build(name);
        assert!(batch.universe_size() <= 20, "{name} universe too large");
        let exhaustive = batch.run(Strategy::Exhaustive);
        let greedy = batch.run(Strategy::Greedy);
        assert!(
            greedy.total_cost <= exhaustive.total_cost + 1e-6 * (1.0 + exhaustive.total_cost),
            "{name}: Greedy {} worse than optimal {}",
            greedy.total_cost,
            exhaustive.total_cost
        );
    }
}

#[test]
fn marginal_greedy_with_cleanup_closes_the_gap_on_q11() {
    // MarginalGreedy alone trails the optimum on Q11 (the mb function
    // violates submodularity there — see EXPERIMENTS.md); the cleanup
    // extension recovers it.
    let batch = build("Q11");
    let exhaustive = batch.run(Strategy::Exhaustive);
    let cleaned = batch.run(Strategy::MarginalGreedyCleanup);
    assert!(
        cleaned.total_cost <= exhaustive.total_cost + 1e-6 * (1.0 + exhaustive.total_cost),
        "cleanup must reach the optimum on Q11: {} vs {}",
        cleaned.total_cost,
        exhaustive.total_cost
    );
}

/// The gap certificate is a *valid* bound wherever the exhaustive ground
/// truth is affordable and the submodularity assumption holds: the
/// certified `cost_lower_bound` must not exceed the exhaustive optimum,
/// and the returned plan must be within `ratio` of it — i.e.
/// `total_cost ≤ ratio × exhaustive cost` whenever the ratio is finite.
///
/// Q11 is the documented counterexample for the marginal decomposition
/// (its `mb` violates submodularity — see
/// `marginal_greedy_with_cleanup_closes_the_gap_on_q11` above), so the
/// marginal strategies are asserted on Q15 only; Greedy/LazyGreedy
/// observe `mb` marginals that are exact on both.
#[test]
fn gap_certificates_are_valid_bounds_against_exhaustive() {
    for name in ["Q11", "Q15"] {
        let batch = build(name);
        let exhaustive = batch.run(Strategy::Exhaustive);
        assert!(
            exhaustive.gap_certificate.is_none(),
            "exhaustive never certifies"
        );
        let mut strategies = vec![Strategy::Greedy, Strategy::LazyGreedy];
        if name != "Q11" {
            strategies.extend([Strategy::MarginalGreedy, Strategy::LazyMarginalGreedy]);
        }
        for strategy in strategies {
            let r = batch.run(strategy);
            let cert = r
                .gap_certificate
                .unwrap_or_else(|| panic!("{name}/{strategy:?}: greedy runs always certify"));
            assert!(
                !cert.truncated,
                "{name}/{strategy:?}: unbudgeted run truncated"
            );
            assert!(
                cert.ratio >= 1.0,
                "{name}/{strategy:?}: certified ratio {} below 1",
                cert.ratio
            );
            let eps = 1e-6 * (1.0 + exhaustive.total_cost);
            assert!(
                cert.cost_lower_bound <= exhaustive.total_cost + eps,
                "{name}/{strategy:?}: lower bound {} exceeds the optimum {}",
                cert.cost_lower_bound,
                exhaustive.total_cost
            );
            if cert.ratio.is_finite() {
                assert!(
                    r.total_cost <= cert.ratio * exhaustive.total_cost + eps,
                    "{name}/{strategy:?}: cost {} outside certified ratio {} of optimum {}",
                    r.total_cost,
                    cert.ratio,
                    exhaustive.total_cost
                );
            }
        }
    }
}

/// The caveat itself, pinned: on Q11 the marginal decomposition's
/// converged certificate is self-consistent (it certifies its own run at
/// ratio 1.0 — no observed marginal promises more) but the submodularity
/// violation makes it blind to the better optimum Greedy finds. The
/// certificate is exactly as trustworthy as the heuristic it certifies.
#[test]
fn q11_marginal_certificate_inherits_the_submodularity_caveat() {
    let batch = build("Q11");
    let exhaustive = batch.run(Strategy::Exhaustive);
    let r = batch.run(Strategy::MarginalGreedy);
    let cert = r.gap_certificate.expect("greedy strategies certify");
    assert!(!cert.truncated);
    assert!(
        cert.ratio >= 1.0 && cert.cost_lower_bound <= r.total_cost + 1e-6,
        "the certificate must at least be consistent with its own run"
    );
    assert!(
        r.total_cost > exhaustive.total_cost + 1.0,
        "if this starts holding, Q11 stopped violating submodularity — \
         fold the marginal strategies back into the validity test above"
    );
}

/// Deadline-budgeted (anytime) runs still return a complete plan and a
/// valid — possibly vacuous (`+∞`) — certificate, and a generous budget
/// converges to the unbudgeted run bit-for-bit.
#[test]
fn budgeted_runs_certify_validly() {
    let batch = build("Q11");
    let exhaustive = batch.run(Strategy::Exhaustive);
    let eps = 1e-6 * (1.0 + exhaustive.total_cost);

    // A zero budget truncates immediately: the no-sharing plan comes back
    // with a vacuous-or-valid certificate, never a wrong one.
    let strangled = MqoConfig {
        time_budget: Some(std::time::Duration::ZERO),
        ..MqoConfig::serial()
    };
    let r = batch.run_with(Strategy::MarginalGreedy, strangled);
    let cert = r.gap_certificate.expect("budgeted greedy certifies");
    assert!(cert.truncated);
    assert!(cert.ratio >= 1.0);
    assert!(cert.cost_lower_bound <= exhaustive.total_cost + eps);
    assert!(r.total_cost.is_finite() && !r.plan.query_plans.is_empty());

    // A generous budget changes nothing: same picks, same costs, and the
    // converged certificate.
    let generous = MqoConfig {
        time_budget: Some(std::time::Duration::from_secs(3600)),
        ..MqoConfig::serial()
    };
    let budgeted = batch.run_with(Strategy::MarginalGreedy, generous);
    let plain = batch.run_with(Strategy::MarginalGreedy, MqoConfig::serial());
    assert_eq!(budgeted.total_cost.to_bits(), plain.total_cost.to_bits());
    assert_eq!(budgeted.materialized, plain.materialized);
    assert!(!budgeted.gap_certificate.unwrap().truncated);

    // The deterministic early-exit knob: an impossibly high marginal floor
    // also degrades to the no-sharing plan, with a certificate.
    let floored = MqoConfig {
        marginal_floor: f64::MAX,
        ..MqoConfig::serial()
    };
    let r = batch.run_with(Strategy::Greedy, floored);
    let cert = r.gap_certificate.expect("floored greedy certifies");
    assert!(
        cert.truncated,
        "an unreachable floor must cut the run short"
    );
    assert!(r.materialized.is_empty());

    // The floored run's certificate is machine-independent: one full
    // observation round, then cut, so its ratio is finite and bit-stable
    // across hosts and thread counts. Pinned on BQ4 minus its last query,
    // the base a warm BQ4 service holds before an arrival.
    let mut w = mqo_tpcd::batched(4, 1.0);
    w.queries.pop();
    let bq4_base = Session::builder()
        .context(w.ctx)
        .queries(w.queries)
        .rules(RuleSet::default())
        .cost_model(DiskCostModel::paper())
        .build();
    for threads in [1usize, 4] {
        let floored = MqoConfig {
            threads,
            marginal_floor: f64::MAX,
            ..MqoConfig::default()
        };
        let cert = bq4_base
            .run_with(Strategy::MarginalGreedy, floored)
            .gap_certificate
            .expect("floored greedy certifies");
        assert!(cert.truncated, "threads {threads}: floor must truncate");
        assert_eq!(
            cert.ratio.to_bits(),
            0x4002_601f_0685_d006,
            "threads {threads}: certified gap {} drifted from 2.296934",
            cert.ratio
        );
    }
}

/// A converged certificate never reads below 1, even where the greedy's
/// running value and `bc(S)` round apart: every sub-batch of BQ4, at
/// threads 1 and 4 (several of them once certified 0.9999999999999999).
#[test]
fn converged_certificates_never_certify_below_one() {
    for_each_bq4_sub_batch_run(|mask, threads, r| {
        let cert = r.gap_certificate.expect("greedy runs certify");
        assert!(!cert.truncated);
        assert!(
            cert.ratio >= 1.0,
            "sub-batch {mask:#b} threads {threads}: certified ratio {} below 1",
            cert.ratio
        );
    });
}

/// The sub-batch of BQ4 holding the queries whose bits are set in `mask`.
fn bq4_sub_batch(mask: u32) -> OptimizedBatch {
    let w = mqo_tpcd::batched(4, 1.0);
    let queries = w
        .queries
        .into_iter()
        .enumerate()
        .filter(|(i, _)| mask >> i & 1 == 1)
        .map(|(_, q)| q);
    Session::builder()
        .context(w.ctx)
        .queries(queries)
        .cost_model(DiskCostModel::paper())
        .build()
}

/// Runs MarginalGreedy on every sub-batch of BQ4 at threads 1 and 4 and
/// hands each report to `check` with its sub-batch mask and thread count.
fn for_each_bq4_sub_batch_run(mut check: impl FnMut(u32, usize, &RunReport)) {
    let pool = mqo_tpcd::batched(4, 1.0).queries.len();
    for mask in 1u32..(1 << pool) {
        let batch = bq4_sub_batch(mask);
        for threads in [1usize, 4] {
            let r = batch.run_with(Strategy::MarginalGreedy, MqoConfig::with_threads(threads));
            check(mask, threads, &r);
        }
    }
}

/// A run that materializes nothing reports exactly the no-sharing plan:
/// `total_cost` is `bc(∅)` to the bit and the benefit is zero. Swept over
/// every sub-batch of BQ4 at threads 1 and 4. MarginalGreedy picks nothing
/// on several of them, and there the engine, asked for `bc(∅)` from the
/// base its rounds had moved, once answered a cost one ulp off the
/// construction-time solve: a phantom benefit of 2.3e-10.
#[test]
fn empty_picks_report_the_volcano_cost_exactly() {
    let mut empty_picks = 0;
    for_each_bq4_sub_batch_run(|mask, threads, r| {
        if !r.materialized.is_empty() {
            return;
        }
        empty_picks += 1;
        assert_eq!(
            r.total_cost.to_bits(),
            r.volcano_cost.to_bits(),
            "sub-batch {mask:#b} threads {threads}: empty pick costs {} against bc(∅) {}",
            r.total_cost,
            r.volcano_cost
        );
        assert_eq!(
            r.benefit, 0.0,
            "sub-batch {mask:#b} threads {threads}: phantom benefit"
        );
    });
    assert!(empty_picks > 0, "the sweep must cover empty picks");
}

/// The stop rules all four greedy strategies share, on BQ4 and on its
/// largest sub-batch the exhaustive ground truth affords (queries 0 and 4,
/// 19 shareable nodes), at threads 1 and 4: a zero time budget, an
/// unreachable benefit floor and a cap of two materializations stop every
/// strategy alike, and no certificate promises less than the optimum.
#[test]
fn stop_rules_agree_across_greedy_strategies() {
    use std::time::Duration;
    let greedy = [
        Strategy::Greedy,
        Strategy::LazyGreedy,
        Strategy::MarginalGreedy,
        Strategy::LazyMarginalGreedy,
    ];
    for mask in [0xff, 0b1_0001] {
        let batch = bq4_sub_batch(mask);
        let optimum =
            (batch.universe_size() <= 20).then(|| batch.run(Strategy::Exhaustive).total_cost);
        for threads in [1usize, 4] {
            let base = MqoConfig::with_threads(threads);
            for (setting, config) in [
                (
                    "zero budget",
                    MqoConfig {
                        time_budget: Some(Duration::ZERO),
                        ..base
                    },
                ),
                (
                    "floor",
                    MqoConfig {
                        marginal_floor: f64::MAX,
                        ..base
                    },
                ),
                (
                    "k = 2",
                    MqoConfig {
                        max_materializations: Some(2),
                        ..base
                    },
                ),
            ] {
                let mut truncated = None;
                for strategy in greedy {
                    let at = format!("BQ4 mask {mask:#b} threads {threads} {setting} {strategy:?}");
                    let r = batch.run_with(strategy, config);
                    let cert = r.gap_certificate.expect("greedy runs certify");
                    let first = *truncated.get_or_insert(cert.truncated);
                    assert_eq!(first, cert.truncated, "{at}: truncation differs");
                    match setting {
                        "zero budget" => {
                            assert!(cert.truncated && cert.ratio == f64::INFINITY, "{at}")
                        }
                        "floor" => {
                            assert!(cert.ratio.is_finite(), "{at}: every candidate was observed")
                        }
                        _ => assert!(r.materialized.len() <= 2, "{at}: cap exceeded"),
                    }
                    if let Some(optimum) = optimum {
                        assert!(
                            cert.cost_lower_bound <= optimum + 1e-6 * (1.0 + optimum),
                            "{at}: lower bound {} above the optimum {optimum}",
                            cert.cost_lower_bound
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn exhaustive_never_beats_bc_empty_without_reason() {
    // Sanity: the exhaustive optimum is at most bc(∅) (the empty set is a
    // candidate) and matches Volcano exactly when nothing helps.
    let batch = build("Q2");
    let volcano = batch.run(Strategy::Volcano);
    let exhaustive = batch.run(Strategy::Exhaustive);
    assert!(exhaustive.total_cost <= volcano.total_cost + 1e-6);
}
