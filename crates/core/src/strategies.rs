//! Optimization strategies and run reports: the algorithms the paper's
//! experiments compare (stand-alone Volcano, Greedy of Roy et al.,
//! MarginalGreedy, and their lazy accelerations), plus the
//! materialize-everything baseline of Silva et al. \[26].
//!
//! The entry point is the `Session` API
//! ([`crate::session::OptimizedBatch::run`] /
//! [`crate::session::OptimizedBatch::run_all`]); the free functions
//! `optimize` / `optimize_with` / `compare` of earlier versions are gone
//! (see the README migration guide).

use std::time::{Duration, Instant};

use mqo_submod::algorithms::cardinality::universe_reduction;
use mqo_submod::algorithms::greedy::{select, Config, Evaluation, Ranking};
use mqo_submod::algorithms::Outcome;
use mqo_submod::bitset::BitSet;
use mqo_submod::decompose::Decomposition;
use mqo_submod::function::SetFunction;
use mqo_volcano::memo::GroupId;

use crate::benefit::MbFunction;
use crate::config::{DecompositionKind, MqoConfig};
use crate::consolidated::ConsolidatedPlan;
use crate::engine::EngineState;

/// The optimization strategies of the experimental section.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Stand-alone Volcano: no materialization (`S = ∅`).
    Volcano,
    /// Algorithm 1 (Roy et al.): pick the node minimizing `bc(X ∪ {x})`
    /// while it improves.
    Greedy,
    /// Algorithm 1 with the Minoux-style heap (Pyro's "monotonicity
    /// heuristic" acceleration).
    LazyGreedy,
    /// Algorithm 2 with the canonical decomposition (this paper).
    MarginalGreedy,
    /// Algorithm 2 with the Section 5.2 heap acceleration.
    LazyMarginalGreedy,
    /// Materialize every shareable node (the heuristic of Silva et al.
    /// \[26]; "horribly inefficient" when costs outweigh benefits).
    MaterializeAll,
    /// MarginalGreedy followed by a removal cleanup pass — an *extension*
    /// beyond the paper that quantifies how far the workload's benefit
    /// function deviates from the submodularity assumption (a no-op when
    /// the assumption holds).
    MarginalGreedyCleanup,
    /// Exhaustive search over all 2^n materialization sets — the ground
    /// truth the paper calls untenable in general (O(n^n) with plan
    /// enumeration; 2^n bc calls here thanks to the bc oracle). Only
    /// usable on small universes; `run` panics above 20 shareable nodes.
    Exhaustive,
}

impl Strategy {
    /// Display name used in reports and tables.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Volcano => "Volcano",
            Strategy::Greedy => "Greedy",
            Strategy::LazyGreedy => "LazyGreedy",
            Strategy::MarginalGreedy => "MarginalGreedy",
            Strategy::LazyMarginalGreedy => "LazyMarginalGreedy",
            Strategy::MaterializeAll => "MaterializeAll",
            Strategy::MarginalGreedyCleanup => "MarginalGreedy+Cleanup",
            Strategy::Exhaustive => "Exhaustive",
        }
    }
}

/// A certified bound on how much an anytime (deadline- or floor-cut)
/// greedy run may have left on the table, derived from the run's observed
/// marginals under the monotonicity heuristic: stale marginals are upper
/// bounds when the benefit function is submodular, so
/// `achieved benefit + Σ max(0, m̂(e))` over unpicked candidates bounds the
/// best achievable benefit, and `bc(∅) − that bound` lower-bounds the best
/// achievable consolidated cost. On workloads that violate the
/// submodularity assumption the bound inherits the heuristic's caveat —
/// like the lazy variants' correctness, it is exact whenever they are.
#[derive(Clone, Copy, Debug)]
pub struct GapCertificate {
    /// Upper bound on the best achievable benefit `mb(S*)` over the ranked
    /// candidate set: achieved value plus certified headroom. `+∞` when
    /// the run stopped before observing every candidate at least once
    /// (the certificate is then vacuous, never wrong).
    pub benefit_bound: f64,
    /// `bc(∅) − benefit_bound`: lower bound on the best achievable
    /// consolidated cost. Can be ≤ 0 when the benefit bound is loose (the
    /// ratio is then reported as `+∞`).
    pub cost_lower_bound: f64,
    /// `total_cost / cost_lower_bound`, clamped to at least `1.0` against
    /// rounding: the certified approximation ratio
    /// of the returned plan — the plan is within this factor of the best
    /// plan any materialization choice could reach. `1.0` means certified
    /// optimal (over the candidate set, under the heuristic); `+∞` means
    /// the certificate is vacuous.
    pub ratio: f64,
    /// Whether the run actually stopped early (deadline or benefit floor).
    /// When `false` the certificate reflects a converged run: the headroom
    /// is whatever the stopping rule left (non-positive marginals only).
    pub truncated: bool,
}

/// The outcome of optimizing one batch with one strategy.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Strategy display name.
    pub strategy: String,
    /// `bc(S)` of the chosen set: the consolidated plan cost.
    pub total_cost: f64,
    /// `bc(∅)`: the stand-alone Volcano cost.
    pub volcano_cost: f64,
    /// `mb(S) = bc(∅) − bc(S)`.
    pub benefit: f64,
    /// The materialized equivalence nodes.
    pub materialized: Vec<GroupId>,
    /// The extracted consolidated physical plan: every materialization's
    /// production plan plus one plan per query, read straight off the
    /// compiled engine's arenas.
    pub plan: ConsolidatedPlan,
    /// Node-selection wall-clock time (the Figure 4c / 5c metric; plan
    /// extraction is excluded, as in the paper's measurements).
    pub opt_time: Duration,
    /// Plan-extraction wall-clock time (the `extract` bench series).
    pub extract_time: Duration,
    /// Number of `bc` oracle invocations.
    pub bc_calls: u64,
    /// Shareable-universe size.
    pub universe: usize,
    /// Candidate-universe size the strategy actually ranked, after the
    /// optional Theorem 4 universe-reduction pre-pass
    /// ([`MqoConfig::universe_reduction`]); equals `universe` when the
    /// pre-pass is off, pruned nothing, or does not apply to the strategy.
    pub candidates: usize,
    /// Certified optimality gap of the greedy run (the four greedy
    /// strategies only; `None` for Volcano, MaterializeAll, the cleanup
    /// variant, and Exhaustive). Always present for those strategies, not
    /// just truncated runs — a converged run simply certifies a tight
    /// (often `1.0`-ish) ratio.
    pub gap_certificate: Option<GapCertificate>,
}

impl RunReport {
    /// Percentage improvement over stand-alone Volcano.
    pub fn improvement_pct(&self) -> f64 {
        if self.volcano_cost <= 0.0 {
            0.0
        } else {
            100.0 * (self.volcano_cost - self.total_cost) / self.volcano_cost
        }
    }
}

/// Resolves the decomposition `f = f_M − c` the ratio-ranked strategy
/// family uses under this configuration.
fn decomposition_for(mb: &MbFunction, config: &MqoConfig) -> Decomposition {
    match config.decomposition {
        DecompositionKind::Canonical => mb.canonical_decomposition(),
        DecompositionKind::MaterializationCost => {
            Decomposition::from_costs(mb.materialization_costs())
        }
    }
}

/// Applies the Theorem 4 universe-reduction pre-pass when the
/// configuration asks for it, returning the candidate set a ratio-ranked
/// greedy should run on. The cardinality bound is
/// [`MqoConfig::max_materializations`]; without one the reduction is
/// provably vacuous (`k = n` short-circuits) and the full universe comes
/// back untouched.
fn reduced_candidates(
    mb: &MbFunction,
    decomp: &Decomposition,
    full: &BitSet,
    config: &MqoConfig,
) -> BitSet {
    if !config.universe_reduction {
        return full.clone();
    }
    let k = config.max_materializations.unwrap_or(full.len());
    universe_reduction(mb, decomp, full, k).kept
}

impl EngineState {
    /// Optimizes the snapshot with one strategy under an explicit
    /// configuration — the reader-side entry point: any number of callers
    /// can `run` concurrently against the same snapshot, each through its
    /// own per-caller engine handle, without blocking a writer evolving
    /// the batch this snapshot came from.
    pub fn run(&self, strategy: Strategy, config: MqoConfig) -> RunReport {
        run_strategy(self, strategy, config)
    }
}

/// Optimizes a committed snapshot with one strategy under an explicit
/// configuration: the node-selection phase (timed as `opt_time`), then
/// consolidated-plan extraction off the same engine handle (timed as
/// `extract_time`). The greedy strategies route each round's candidates
/// through the batched oracle, so `config.threads > 1` shards their
/// evaluation with no change in the chosen set or costs. The per-run
/// engine handle spins up from the snapshot's shared arenas (no
/// recompilation).
pub(crate) fn run_strategy(
    state: &EngineState,
    strategy: Strategy,
    config: MqoConfig,
) -> RunReport {
    // mqo-lint: allow(wall-clock) -- the anytime-budget anchor (`deadline = start + time_budget`) and the paper's opt_time metric
    let start = Instant::now();
    let engine = state.engine(config);
    let mb = MbFunction::new(engine);
    let n = mb.universe();
    let full = BitSet::full(n);

    // The cardinality cap threads into every greedy variant; the
    // universe-reduction pre-pass applies to the ratio-ranked (marginal)
    // family, where Theorem 4 proves it output-preserving.
    // Anytime controls: the deadline is anchored at the start of node
    // selection, so `time_budget` bounds the greedy rounds themselves.
    let greedy_cfg = Config {
        max_picks: config.max_materializations,
        deadline: config.time_budget.map(|b| start + b),
        benefit_floor: config.marginal_floor,
    };
    let mut candidates = n;
    // The four greedy strategies keep their full `Outcome` so the gap
    // certificate below can read the achieved value and the certified
    // headroom. The cleanup variant certifies nothing: its post-pass
    // changes the set the headroom was observed for.
    let mut anytime: Option<Outcome> = None;
    let chosen: BitSet = match strategy {
        Strategy::Volcano => BitSet::empty(n),
        Strategy::Greedy
        | Strategy::LazyGreedy
        | Strategy::MarginalGreedy
        | Strategy::LazyMarginalGreedy
        | Strategy::MarginalGreedyCleanup => {
            let (ratio_ranked, evaluation) = match strategy {
                Strategy::Greedy => (false, Evaluation::Eager),
                Strategy::LazyGreedy => (false, Evaluation::Lazy),
                Strategy::LazyMarginalGreedy => (true, Evaluation::Lazy),
                _ => (true, Evaluation::Eager),
            };
            let decomp = ratio_ranked.then(|| decomposition_for(&mb, &config));
            let (ranking, cands) = match &decomp {
                Some(d) => (
                    Ranking::Ratio(d),
                    reduced_candidates(&mb, d, &full, &config),
                ),
                None => (Ranking::Benefit, full.clone()),
            };
            candidates = cands.len();
            let out = select(&mb, ranking, evaluation, &cands, greedy_cfg);
            if strategy == Strategy::MarginalGreedyCleanup {
                mqo_submod::algorithms::cleanup::cleanup(&mb, &out.set).set
            } else {
                anytime.insert(out).set.clone()
            }
        }
        Strategy::MaterializeAll => full.clone(),
        Strategy::Exhaustive => {
            assert!(
                n <= 20,
                "exhaustive MQO is limited to 20 shareable nodes (got {n})"
            );
            mqo_submod::algorithms::exhaustive::exhaustive_max(&mb, &full).0
        }
    };

    let volcano_cost = mb.bc_empty();
    // An empty pick is the no-sharing plan, whose cost is the
    // construction-time solve. The engine would answer `bc(∅)` from the
    // base the greedy rounds moved, and that overlay total can differ in
    // the last bit: a phantom benefit.
    let total_cost = if chosen.is_empty() {
        volcano_cost
    } else {
        mb.bc(&chosen)
    };
    let bc_calls = mb.bc_calls();
    let opt_time = start.elapsed();

    let gap_certificate = anytime.map(|out| {
        let benefit_bound = out.value + out.remaining_bound;
        let cost_lower_bound = volcano_cost - benefit_bound;
        // Exactly, `cost_lower_bound ≤ total_cost`. The greedy's running
        // value sums its marginals in pick order while `total_cost` is one
        // `bc(S)`, so a converged quotient can round an ulp below 1; a
        // plan cannot beat the optimum, so the ratio is clamped to 1.
        let ratio = if cost_lower_bound > 0.0 {
            (total_cost / cost_lower_bound).max(1.0)
        } else {
            f64::INFINITY
        };
        GapCertificate {
            benefit_bound,
            cost_lower_bound,
            ratio,
            truncated: out.truncated,
        }
    });

    // mqo-lint: allow(wall-clock) -- measures the reported extract_time metric; never feeds back into optimization
    let extract_start = Instant::now();
    let engine = mb.into_engine();
    let plan = ConsolidatedPlan::extract_with_engine(state.query_roots_dense(), &engine, &chosen);
    let extract_time = extract_start.elapsed();

    let materialized: Vec<GroupId> = chosen.iter().map(|e| state.shareable()[e]).collect();
    RunReport {
        strategy: strategy.name().to_string(),
        total_cost,
        volcano_cost,
        benefit: volcano_cost - total_cost,
        materialized,
        plan,
        opt_time,
        extract_time,
        bc_calls,
        universe: n,
        candidates,
        gap_certificate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{OptimizedBatch, Session};
    use mqo_catalog::{Catalog, TableBuilder};
    use mqo_volcano::cost::DiskCostModel;
    use mqo_volcano::rules::RuleSet;
    use mqo_volcano::{Constraint, DagContext, PlanNode, Predicate};

    fn session() -> OptimizedBatch {
        let mut cat = Catalog::new();
        for (name, rows) in [
            ("a", 50_000.0),
            ("b", 100_000.0),
            ("c", 25_000.0),
            ("d", 10_000.0),
        ] {
            cat.add_table(
                TableBuilder::new(name, rows)
                    .key_column(format!("{name}_key"), 4)
                    .column(
                        format!("{name}_fk"),
                        rows / 50.0,
                        (0, (rows as i64) / 50 - 1),
                        4,
                    )
                    .column(format!("{name}_x"), 100.0, (0, 99), 8)
                    .primary_key(&[&format!("{name}_key")])
                    .build(),
            );
        }
        let mut ctx = DagContext::new(cat);
        let a = ctx.instance_by_name("a", 0);
        let b = ctx.instance_by_name("b", 0);
        let c = ctx.instance_by_name("c", 0);
        let d = ctx.instance_by_name("d", 0);
        let p_ab = Predicate::join(ctx.col(a, "a_key"), ctx.col(b, "b_fk"));
        let p_bc = Predicate::join(ctx.col(b, "b_key"), ctx.col(c, "c_fk"));
        let p_bd = Predicate::join(ctx.col(b, "b_key"), ctx.col(d, "d_fk"));
        let sel = Predicate::on(ctx.col(b, "b_x"), Constraint::eq(7));
        let q1 = PlanNode::scan(a).join(PlanNode::scan(b).select(sel.clone()), p_ab);
        let q2 = PlanNode::scan(b)
            .select(sel.clone())
            .join(PlanNode::scan(c), p_bc);
        let q3 = PlanNode::scan(b).select(sel).join(PlanNode::scan(d), p_bd);
        Session::builder()
            .context(ctx)
            .queries([q1, q2, q3])
            .cost_model(DiskCostModel::paper())
            .rules(RuleSet::default())
            .build()
    }

    #[test]
    fn all_mqo_strategies_beat_or_match_volcano() {
        let s = session();
        for strat in [
            Strategy::Greedy,
            Strategy::LazyGreedy,
            Strategy::MarginalGreedy,
            Strategy::LazyMarginalGreedy,
        ] {
            let r = s.run(strat);
            assert!(
                r.total_cost <= r.volcano_cost + 1e-6,
                "{}: {} > volcano {}",
                r.strategy,
                r.total_cost,
                r.volcano_cost
            );
            assert!(r.benefit >= -1e-6);
        }
    }

    #[test]
    fn sharing_strictly_helps_on_this_batch() {
        let s = session();
        let greedy = s.run(Strategy::Greedy);
        assert!(
            greedy.benefit > 0.0,
            "three queries share σ(b); materialization must pay off"
        );
        assert!(!greedy.materialized.is_empty());
    }

    #[test]
    fn lazy_variants_match_eager() {
        let s = session();
        let eager_g = s.run(Strategy::Greedy);
        let lazy_g = s.run(Strategy::LazyGreedy);
        assert_eq!(eager_g.materialized, lazy_g.materialized);
        let eager_m = s.run(Strategy::MarginalGreedy);
        let lazy_m = s.run(Strategy::LazyMarginalGreedy);
        assert_eq!(eager_m.materialized, lazy_m.materialized);
    }

    #[test]
    fn volcano_report_is_baseline() {
        let s = session();
        let r = s.run(Strategy::Volcano);
        assert_eq!(r.total_cost, r.volcano_cost);
        assert_eq!(r.benefit, 0.0);
        assert!(r.materialized.is_empty());
        assert!(r.plan.materializations.is_empty());
        assert_eq!(r.plan.query_plans.len(), 3);
        assert_eq!(r.improvement_pct(), 0.0);
    }

    #[test]
    fn reports_carry_the_extracted_plan() {
        let s = session();
        let r = s.run(Strategy::Greedy);
        assert_eq!(r.plan.materializations.len(), r.materialized.len());
        assert_eq!(r.plan.query_plans.len(), 3);
        assert!(
            (r.plan.total_cost - r.total_cost).abs() <= 1e-9 * (1.0 + r.total_cost),
            "plan total {} vs bc(S) {}",
            r.plan.total_cost,
            r.total_cost
        );
    }

    #[test]
    fn materialize_all_is_worse_than_greedy() {
        let s = session();
        let all = s.run(Strategy::MaterializeAll);
        let greedy = s.run(Strategy::Greedy);
        assert!(
            all.total_cost >= greedy.total_cost - 1e-6,
            "cost-blind materialize-everything must not beat greedy"
        );
    }

    #[test]
    fn cardinality_constraint_limits_materializations() {
        let s = session();
        // Section 5.3: MarginalGreedy stopped after k picks, with or
        // without the Theorem 4 pre-pass.
        let capped = |universe_reduction| MqoConfig {
            max_materializations: Some(1),
            universe_reduction,
            ..s.config()
        };
        let r = s.run_with(Strategy::MarginalGreedy, capped(false));
        assert!(r.materialized.len() <= 1);
        let pruned = s.run_with(Strategy::MarginalGreedy, capped(true));
        assert_eq!(r.materialized, pruned.materialized, "Theorem 4");
    }
}
