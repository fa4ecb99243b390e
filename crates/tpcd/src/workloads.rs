//! The seeded scale-tier workload generator: chain/star/clique/snowflake
//! join graphs at controllable batch size and subexpression overlap.
//!
//! The TPCD batches ([`crate::batches`]) top out at 12 queries and
//! ~110-element shareable universes; the paper's provable-approximation
//! claims — and `mqobench`'s `batch-10k` workload — need hundreds of
//! queries and 10k+ materialization candidates. This module generates
//! them over a pool of `s0..s{tables-1}` tables: every query is first
//! drawn as a recipe (an ordered table list, an attachment tree, and a
//! selection mask), and the **overlap knob** reuses or extends earlier
//! recipes, so batches share whole subplans the way real workloads share
//! subexpressions — exactly the shapes the many-to-many-joins and GLADE
//! MQO papers describe.
//!
//! Everything is driven by one [`Prng`] seeded from
//! [`WorkloadSpec::seed`]: the same spec always generates the same
//! workload, pinned by a determinism test.

use mqo_catalog::{Catalog, TableBuilder};
use mqo_submod::prng::Prng;
use mqo_volcano::{Constraint, DagContext, PlanNode, Predicate};

use crate::batches::Workload;

/// Join-graph shape of a generated query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// A linear join path `t0 ⋈ t1 ⋈ ... ⋈ t{m-1}`; consecutive windows
    /// over the table pool, so overlapping queries share subspans.
    Chain,
    /// A hub joined to `m − 1` spokes (every non-hub table attaches to the
    /// hub).
    Star,
    /// Dense random attachment: each new table joins a uniformly random
    /// already-joined table, yielding random join trees between the chain
    /// and star extremes.
    Clique,
    /// A star whose spokes each extend one chain step (hub → spoke →
    /// leaf), the classic dimension-hierarchy shape.
    Snowflake,
}

impl Shape {
    /// All shapes, for sweeps.
    pub const ALL: [Shape; 4] = [Shape::Chain, Shape::Star, Shape::Clique, Shape::Snowflake];

    /// Display name used in bench series and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Shape::Chain => "chain",
            Shape::Star => "star",
            Shape::Clique => "clique",
            Shape::Snowflake => "snowflake",
        }
    }
}

/// Parameters of a generated workload. Construct with a struct literal
/// (all fields public) or start from [`WorkloadSpec::scale_10k`] /
/// [`WorkloadSpec::smoke`].
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Join-graph shape of every query in the batch.
    pub shape: Shape,
    /// Size of the table pool `s0..s{tables-1}`.
    pub tables: usize,
    /// Number of queries in the batch.
    pub queries: usize,
    /// Tables per query, drawn uniformly from this inclusive range (each
    /// end is clamped to the pool size).
    pub span: (usize, usize),
    /// Probability in `[0, 1]` that a query derives from an earlier one —
    /// half the derivations reuse the earlier recipe verbatim (maximal
    /// sharing), half keep a random prefix and extend it fresh (partial
    /// sharing). `0.0` makes every query independent.
    pub overlap: f64,
    /// Probability of a selection `σ(s{i}_x = c)` above each scan, with
    /// `c` drawn from a 4-value range so independent queries still share
    /// subsumable predicates.
    pub select_prob: f64,
    /// Row count of pool table `i` is `base_rows * (i % 7 + 1)`.
    pub base_rows: f64,
    /// PRNG seed; same spec + same seed = same workload.
    pub seed: u64,
}

impl WorkloadSpec {
    /// A small smoke-test spec (a few queries, two-digit universe) for
    /// CI and examples.
    pub fn smoke(shape: Shape, seed: u64) -> Self {
        WorkloadSpec {
            shape,
            tables: 12,
            queries: 6,
            span: (3, 5),
            overlap: 0.3,
            select_prob: 0.4,
            base_rows: 500.0,
            seed,
        }
    }

    /// The scale-tier chain spec calibrated to exceed 10k materialization
    /// candidates (shareable universe elements): hundreds of chain
    /// queries over the full 64-table pool (the batch-DAG instance
    /// limit), moderate overlap so sharing exists but windows do not
    /// collapse onto each other. Distinct selection constants keep the
    /// subchains of independent queries distinct, so the universe grows
    /// roughly linearly in the query count.
    pub fn scale_10k(seed: u64) -> Self {
        WorkloadSpec {
            shape: Shape::Chain,
            tables: 64,
            queries: 390,
            span: (8, 12),
            overlap: 0.25,
            select_prob: 0.35,
            base_rows: 500.0,
            seed,
        }
    }
}

/// A query drawn as data before it becomes a plan: `tables[0]` is the
/// root scan, and table `j > 0` joins the already-built tree at
/// `tables[attach[j]]` (`attach[j] < j`). `sels[j]` optionally places
/// `σ(s{t}_x = c)` above scan `j`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Recipe {
    tables: Vec<usize>,
    attach: Vec<usize>,
    sels: Vec<Option<i64>>,
}

/// Catalog for the generator's table pool: table `i` has a clustered key
/// `s{i}_key`, a generic join-source column `s{i}_ref` (wide range, so it
/// can join any other table's key), and a low-cardinality value column
/// `s{i}_x` for selections. Row counts cycle through 7 size classes so
/// join orders matter.
pub fn pool_catalog(tables: usize, base_rows: f64) -> Catalog {
    let mut cat = Catalog::new();
    for i in 0..tables {
        let rows = base_rows * ((i % 7) + 1) as f64;
        cat.add_table(
            TableBuilder::new(format!("s{i}"), rows)
                .key_column(format!("s{i}_key"), 4)
                .column(format!("s{i}_ref"), rows, (0, rows as i64 - 1), 4)
                .column(format!("s{i}_x"), 20.0, (0, 19), 4)
                .primary_key(&[&format!("s{i}_key")])
                .build(),
        );
    }
    cat
}

/// Draws a fresh recipe of `span` tables in the requested shape.
fn draw_recipe(rng: &mut Prng, spec: &WorkloadSpec, span: usize) -> Recipe {
    let mut tables = Vec::with_capacity(span);
    let mut attach = Vec::with_capacity(span);
    match spec.shape {
        Shape::Chain => {
            // A consecutive window keeps distinct chains overlappable.
            let lo = rng.gen_range(0..spec.tables - span + 1);
            for j in 0..span {
                tables.push(lo + j);
                attach.push(j.saturating_sub(1));
            }
        }
        Shape::Star | Shape::Clique | Shape::Snowflake => {
            // Distinct tables drawn without replacement from the pool.
            let mut pool: Vec<usize> = (0..spec.tables).collect();
            for j in 0..span {
                let pick = rng.gen_range(0..pool.len());
                tables.push(pool.swap_remove(pick));
                attach.push(match spec.shape {
                    Shape::Star => 0,
                    Shape::Clique => {
                        if j == 0 {
                            0
                        } else {
                            rng.gen_range(0..j)
                        }
                    }
                    // Snowflake: odd positions are spokes off the hub,
                    // even positions (> 0) extend the previous spoke.
                    Shape::Snowflake => {
                        if j % 2 == 1 || j == 0 {
                            0
                        } else {
                            j - 1
                        }
                    }
                    Shape::Chain => unreachable!(),
                });
            }
        }
    }
    let sels = (0..span)
        .map(|_| {
            if rng.gen_bool(spec.select_prob) {
                Some(rng.gen_range(0_i64..=3))
            } else {
                None
            }
        })
        .collect();
    Recipe {
        tables,
        attach,
        sels,
    }
}

/// Draws the next query recipe: fresh, an exact reuse of an earlier one,
/// or a prefix of an earlier one extended fresh — per the overlap knob.
fn next_recipe(rng: &mut Prng, spec: &WorkloadSpec, span: usize, past: &[Recipe]) -> Recipe {
    if !past.is_empty() && rng.gen_bool(spec.overlap) {
        let base = &past[rng.gen_range(0..past.len())];
        if rng.gen_bool(0.5) {
            return base.clone();
        }
        // Keep a shared prefix (the subplan both queries will build
        // identically), extend the rest fresh in the same shape.
        let keep = rng
            .gen_range(2..=base.tables.len().max(2))
            .min(base.tables.len());
        let fresh = draw_recipe(rng, spec, span.max(keep));
        let mut r = Recipe {
            tables: base.tables[..keep].to_vec(),
            attach: base.attach[..keep].to_vec(),
            sels: base.sels[..keep].to_vec(),
        };
        for j in keep..fresh.tables.len() {
            // Skip tables already in the prefix so scans stay distinct.
            if r.tables.contains(&fresh.tables[j]) {
                continue;
            }
            r.attach.push(fresh.attach[j].min(r.tables.len() - 1));
            r.tables.push(fresh.tables[j]);
            r.sels.push(fresh.sels[j]);
        }
        return r;
    }
    draw_recipe(rng, spec, span)
}

/// Materializes a recipe as a left-deep plan over `ctx`.
fn build_plan(ctx: &mut DagContext, recipe: &Recipe) -> PlanNode {
    let scan = |ctx: &mut DagContext, j: usize| {
        let t = recipe.tables[j];
        let inst = ctx.instance_by_name(&format!("s{t}"), 0);
        let mut node = PlanNode::scan(inst);
        if let Some(c) = recipe.sels[j] {
            node = node.select(Predicate::on(
                ctx.col(inst, &format!("s{t}_x")),
                Constraint::eq(c),
            ));
        }
        node
    };
    let mut plan = scan(ctx, 0);
    for j in 1..recipe.tables.len() {
        let rhs = scan(ctx, j);
        let (src, dst) = (recipe.tables[recipe.attach[j]], recipe.tables[j]);
        let src_inst = ctx.instance_by_name(&format!("s{src}"), 0);
        let dst_inst = ctx.instance_by_name(&format!("s{dst}"), 0);
        let pred = Predicate::join(
            ctx.col(src_inst, &format!("s{src}_ref")),
            ctx.col(dst_inst, &format!("s{dst}_key")),
        );
        plan = plan.join(rhs, pred);
    }
    plan
}

/// Generates the whole workload a spec describes. Deterministic in the
/// spec (including its seed).
pub fn generate(spec: &WorkloadSpec) -> Workload {
    assert!(spec.tables >= 2, "need at least 2 pool tables");
    assert!(
        spec.tables <= 64,
        "the batch DAG supports at most 64 table instances"
    );
    assert!(
        (0.0..=1.0).contains(&spec.overlap),
        "overlap must be a probability"
    );
    let mut rng = Prng::seed_from_u64(spec.seed);
    let mut ctx = DagContext::new(pool_catalog(spec.tables, spec.base_rows));
    let (lo, hi) = spec.span;
    let lo = lo.clamp(2, spec.tables);
    let hi = hi.clamp(lo, spec.tables);
    let mut recipes: Vec<Recipe> = Vec::with_capacity(spec.queries);
    let mut queries = Vec::with_capacity(spec.queries);
    for _ in 0..spec.queries {
        let span = rng.gen_range(lo..=hi);
        let recipe = next_recipe(&mut rng, spec, span, &recipes);
        queries.push(build_plan(&mut ctx, &recipe));
        recipes.push(recipe);
    }
    Workload {
        name: format!("{}-q{}-t{}", spec.shape.name(), spec.queries, spec.tables),
        ctx,
        queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_submod::prng::seeded_sweep;

    #[test]
    fn generator_is_deterministic_per_seed() {
        for shape in Shape::ALL {
            let spec = WorkloadSpec::smoke(shape, 0xD5EED);
            let a = generate(&spec);
            let b = generate(&spec);
            assert_eq!(a.name, b.name);
            assert_eq!(
                format!("{:?}", a.queries),
                format!("{:?}", b.queries),
                "{shape:?}"
            );
            assert_eq!(a.queries.len(), spec.queries);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&WorkloadSpec::smoke(Shape::Chain, 1));
        let b = generate(&WorkloadSpec::smoke(Shape::Chain, 2));
        assert_ne!(format!("{:?}", a.queries), format!("{:?}", b.queries));
    }

    #[test]
    fn recipes_are_well_formed_sweep() {
        seeded_sweep("workload_recipes_well_formed", 0x5CA1E, 40, |rng| {
            let shape = Shape::ALL[rng.gen_range(0..Shape::ALL.len())];
            let spec = WorkloadSpec {
                shape,
                tables: rng.gen_range(4_usize..20),
                queries: 4,
                span: (2, rng.gen_range(3_usize..8)),
                overlap: rng.gen_range(0.0..1.0),
                select_prob: rng.gen_range(0.0..1.0),
                base_rows: 200.0,
                seed: rng.next_u64(),
            };
            let mut inner = Prng::seed_from_u64(spec.seed);
            let mut past: Vec<Recipe> = Vec::new();
            for _ in 0..spec.queries {
                let span = inner.gen_range(2..=spec.span.1.clamp(2, spec.tables));
                let r = next_recipe(&mut inner, &spec, span, &past);
                // Attachment tree: attach[j] < j, scans distinct.
                assert_eq!(r.tables.len(), r.attach.len());
                assert_eq!(r.tables.len(), r.sels.len());
                assert!(r.tables.len() >= 2);
                for j in 1..r.tables.len() {
                    assert!(r.attach[j] < j, "attach must reference an earlier table");
                }
                let mut sorted = r.tables.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), r.tables.len(), "scans must be distinct");
                past.push(r);
            }
        });
    }

    #[test]
    fn overlap_one_reuses_subplans() {
        // With overlap forced to 1.0 every query after the first derives
        // from an earlier recipe; exact reuses make whole queries repeat.
        let spec = WorkloadSpec {
            overlap: 1.0,
            ..WorkloadSpec::smoke(Shape::Chain, 9)
        };
        let w = generate(&spec);
        let reprs: Vec<String> = w.queries.iter().map(|q| format!("{q:?}")).collect();
        let mut distinct = reprs.clone();
        distinct.sort();
        distinct.dedup();
        assert!(
            distinct.len() < reprs.len(),
            "forced overlap must repeat at least one query verbatim"
        );
    }
}
