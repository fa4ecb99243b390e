//! Output checks, run outside every timed region.
//!
//! A plan's cost is re-derived with the volcano reference optimizer — the
//! hash-map DP the differential suites pin the compiled engine against —
//! as `bestUseCost(root, S) + Σ_{s ∈ S} (produce(s) + write(s))`, the
//! paper's `bestCost(Q, S)`.

use mqo_core::{MqoConfig, OptimizedBatch, RunReport};
use mqo_submod::bitset::BitSet;
use mqo_volcano::memo::GroupId;
use mqo_volcano::optimizer::{MatOverlay, Optimizer, PlanTable};

/// Largest relative error accepted between a reported and a re-derived
/// cost.
pub const REL_TOL: f64 = 1e-9;

/// Whether `a` and `b` agree to [`REL_TOL`].
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// Collects failed checks; a run with any is reported as incorrect.
#[derive(Default)]
pub struct Checks {
    pub failures: Vec<String>,
    /// Test hook: scales every re-derived cost, so a run must fail.
    pub corrupt: bool,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Re-derives `report.total_cost` on `batch` with the reference
    /// optimizer, and checks the extracted plan against it.
    pub fn plan_cost(&mut self, label: &str, batch: &OptimizedBatch, report: &RunReport) {
        let dag = batch.batch();
        let opt = Optimizer::new(dag.memo(), batch.cost_model());
        let overlay = MatOverlay::new(dag.memo(), report.materialized.iter().copied());
        let mut cost = opt.best_use_cost(dag.root(), &overlay, &mut PlanTable::new());
        for &g in &report.materialized {
            cost += opt.produce_cost(g, &overlay) + opt.write_cost(g);
        }
        if self.corrupt {
            cost *= 1.0 + 1e-6;
        }
        self.expect(close(report.total_cost, cost), || {
            format!(
                "{label}: reported cost {} but the reference optimizer re-derives {cost}",
                report.total_cost
            )
        });
        self.expect(close(report.plan.total_cost, report.total_cost), || {
            format!(
                "{label}: extracted plan costs {} but the run reports {}",
                report.plan.total_cost, report.total_cost
            )
        });
        self.expect(report.plan.query_plans.len() == dag.live_queries(), || {
            format!(
                "{label}: plan covers {} queries",
                report.plan.query_plans.len()
            )
        });
        self.expect(report.total_cost <= report.volcano_cost, || {
            format!(
                "{label}: cost {} above stand-alone Volcano {}",
                report.total_cost, report.volcano_cost
            )
        });
    }

    /// Checks that two batches over the same queries are one DAG as far as
    /// the oracle can tell: the same universe by structural fingerprint,
    /// the same stand-alone Volcano cost, and each prices the set the
    /// other's run chose at the other's cost. MarginalGreedy itself may
    /// choose differently on the two: near-equal candidates are ranked by
    /// universe element order and by sums whose rounding both follow the
    /// evolution history.
    pub fn same_batch(
        &mut self,
        label: &str,
        (a, ra): (&OptimizedBatch, &RunReport),
        (b, rb): (&OptimizedBatch, &RunReport),
    ) {
        self.expect(
            a.batch().universe_fingerprints() == b.batch().universe_fingerprints(),
            || format!("{label}: the universes differ"),
        );
        self.expect(close(ra.volcano_cost, rb.volcano_cost), || {
            format!(
                "{label}: Volcano cost {} vs {}",
                ra.volcano_cost, rb.volcano_cost
            )
        });
        for ((on, from), r) in [((a, b), rb), ((b, a), ra)] {
            let cost = price(on, from, &r.materialized);
            self.expect(cost.is_some_and(|c| close(c, r.total_cost)), || {
                format!(
                    "{label}: a set costing {} prices at {cost:?} on the other batch",
                    r.total_cost
                )
            });
        }
    }
}

/// `bestCost` on `on` of the groups `groups` of `from`, matched by
/// structural fingerprint; `None` if one is not in `on`'s universe.
fn price(on: &OptimizedBatch, from: &OptimizedBatch, groups: &[GroupId]) -> Option<f64> {
    let from_fps = from.batch().shareable_fingerprints();
    let on_fps = on.batch().shareable_fingerprints();
    let elems = groups
        .iter()
        .map(|&g| {
            let fp = from_fps[from.batch().shareable_index(g)?];
            on_fps.iter().position(|&f| f == fp)
        })
        .collect::<Option<Vec<_>>>()?;
    let set = BitSet::from_iter(on.universe_size(), elems);
    Some(on.snapshot().engine(MqoConfig::serial()).bc(&set))
}
