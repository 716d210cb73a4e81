//! # mdj-algebra
//!
//! Relational algebra with an MD-join node, plus the paper's algebraic
//! transformations as rewrite rules and a small cost-based optimizer.
//!
//! Section 4's argument is that because the MD-join is *one operator* with
//! clean algebraic properties, complex OLAP queries become optimizable by an
//! ordinary rewrite/cost framework instead of per-query-class algorithms. The
//! rule set here implements exactly the paper's transformations:
//!
//! | Rule | Paper | Effect |
//! |---|---|---|
//! | [`rules::partition`] | Thm 4.1 | `MD(B,R,l,θ) = ⋃ᵢ MD(Bᵢ,R,l,θ)` |
//! | [`rules::pushdown`] | Thm 4.2 | detail-only conjuncts of θ become `σ` on `R` |
//! | [`rules::pushdown`] (base ranges) | Obs 4.1 | range selections on `B` copied to `R` |
//! | [`rules::commute`] | Thm 4.3 | independent MD-joins swap |
//! | [`rules::coalesce`] | Thm 4.3 | a chain collapses into generalized MD-joins (O(k²) scheduling) |
//! | [`rules::split`] | Thm 4.4 | a chain over different detail tables splits into an equijoin |
//!
//! (Theorem 4.5's roll-up lives in `mdj-cube`, where the cuboid lattice it
//! needs is available.)

pub mod cost;
pub mod error;
pub mod exec;
pub mod explain;
pub mod optimizer;
pub mod plan;
pub mod rules;

pub use error::{AlgebraError, Result};
pub use exec::{execute, select};
pub use optimizer::{optimize, Optimizer};
pub use plan::{BaseShape, Plan, PlanBlock};
