//! A Volcano/Cascades-style query-optimizer substrate.
//!
//! This crate provides everything the MQO layer (`mqo-core`) needs from a
//! transformation-based optimizer, reimplementing the substrate described in
//! Section 2 and Section 6 of *"Efficient and Provable Multi-Query
//! Optimization"*:
//!
//! * [`context`] — table instances and synthetic (aggregate-output) columns
//!   shared across a batch of queries.
//! * [`expr`] — normalized conjunctive predicates with selectivity
//!   estimation.
//! * [`logical`] — logical operators and group-consistent logical
//!   properties.
//! * [`memo`] — the hash-consed AND-OR DAG (LQDAG) with group merging.
//! * [`fphash`] — the multiply-xor hasher behind the memo's hash-consing
//!   index and `mqo-core`'s structural group fingerprints.
//! * [`rules`] — transformation rules: join associativity (bushy, no cross
//!   products), select push-down & merge, select subsumption, aggregate
//!   subsumption.
//! * [`physical`] — physical operators and sort-order properties.
//! * [`cost`] — the cost-model trait, the paper's disk cost model (4 KB
//!   blocks, 6 MB per operator, 10 ms seek, 2/4 ms block read/write,
//!   0.2 ms/block CPU) and the unit model of Example 1.
//! * [`optimizer`] — the reference physical DP over
//!   `(group, required order)` with sort enforcers and a
//!   materialized-node overlay: this is `bestUseCost(Q, S)` from
//!   Section 2.4, kept as the test oracle for `mqo-core`'s compiled
//!   engine and arena-based plan extraction.
//! * [`plan`] — extracted physical plans with pretty-printing.
#![forbid(unsafe_code)]

pub mod context;
pub mod cost;
pub mod expr;
pub mod fphash;
pub mod logical;
pub mod memo;
pub mod optimizer;
pub mod physical;
pub mod plan;
pub mod rules;

pub use context::{ColId, DagContext, InstanceId};
pub use expr::{Constraint, Predicate};
pub use logical::{AggCall, AggFunc, AggSpec, LogicalOp, PlanNode};
pub use memo::{ExprId, GroupId, Memo};
