//! Multi-query optimization as unconstrained normalized submodular
//! maximization — the primary contribution of *"Efficient and Provable
//! Multi-Query Optimization"* (Kathuria & Sudarshan, PODS 2017).
//!
//! Pipeline:
//!
//! 1. [`batch::BatchDag`] — insert a batch of queries into one memo,
//!    expand under the transformation rules, add the dummy root, and
//!    compute the shareable-node universe (Section 2.2).
//! 2. [`engine::BestCostEngine`] — the compiled `bestCost(Q, S)` oracle
//!    with incremental recomputation (Section 5.1's optimizations).
//! 3. [`benefit::MbFunction`] — the materialization benefit
//!    `mb(S) = bc(∅) − bc(S)` as a set function (Section 2.4), with the
//!    canonical decomposition of Proposition 1.
//! 4. [`strategies`] — stand-alone Volcano, Greedy (Algorithm 1),
//!    MarginalGreedy (Algorithm 2), their lazy accelerations, the
//!    materialize-everything baseline; the Section 5.3
//!    cardinality-constrained variant is MarginalGreedy under
//!    [`MqoConfig::max_materializations`] (plus
//!    [`MqoConfig::universe_reduction`] for the Theorem 4 pre-pass).
//! 5. [`consolidated::ConsolidatedPlan`] — the extracted physical artifact
//!    (materialization productions + per-query plans).
//! 6. [`serve::MqoService`] — the concurrent serving layer: a single
//!    writer coalesces concurrent admissions into optimization rounds and
//!    publishes immutable [`engine::EngineState`] snapshots that any
//!    number of readers optimize against without blocking it.
//!
//! # Example
//!
//! ```no_run
//! use mqo_core::session::Session;
//! use mqo_core::strategies::Strategy;
//! use mqo_volcano::cost::DiskCostModel;
//!
//! # fn queries() -> (mqo_volcano::DagContext, Vec<mqo_volcano::PlanNode>) { unimplemented!() }
//! let (ctx, qs) = queries();
//! let batch = Session::builder()
//!     .context(ctx)
//!     .queries(qs)
//!     .cost_model(DiskCostModel::paper())
//!     .build();
//! let report = batch.run(Strategy::MarginalGreedy);
//! println!("cost {} vs volcano {}", report.total_cost, report.volcano_cost);
//! println!("{}", report.plan.render(batch.batch()));
//! ```

#![forbid(unsafe_code)]

pub mod batch;
pub mod benefit;
pub mod config;
pub mod consolidated;
pub mod engine;
pub mod error;
pub mod fault;
pub mod serve;
pub mod session;
pub mod strategies;

pub use batch::{BatchDag, BatchSavepoint, QueryTicket};
pub use benefit::MbFunction;
pub use config::{DecompositionKind, MqoConfig};
pub use consolidated::ConsolidatedPlan;
pub use engine::{BestCostEngine, EngineState};
pub use error::{MqoError, PlanFault, PlanValidator};
pub use serve::{MqoService, PriorityClass, ServeConfig, ServeStats};
pub use session::{OptimizedBatch, Session, SessionBuilder};
pub use strategies::{GapCertificate, RunReport, Strategy};
