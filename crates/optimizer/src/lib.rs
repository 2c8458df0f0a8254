//! # xia-optimizer
//!
//! The cost-based XML query optimizer the advisor couples to — the role the
//! modified DB2 9 optimizer plays in the paper.
//!
//! The advisor treats the optimizer as an oracle through two modes
//! (Section III of the paper):
//!
//! * **Enumerate Indexes** ([`Optimizer::enumerate_indexes`]): optimize a
//!   statement with the universal `//*` virtual index in place and report
//!   every rewritten query pattern that index matching matched — the *basic
//!   candidates*.
//! * **Evaluate Indexes** ([`Optimizer::optimize`]): cost a statement under
//!   the current catalog (including virtual indexes) and return the best
//!   plan. Every call increments a counter, because minimizing optimizer
//!   calls is one of the paper's claims (Fig. 3) and the advisor's
//!   sub-configuration machinery is measured against it.
//!
//! Plans really do use multiple indexes (index-ANDing over document sets),
//! so *index interaction* — the benefit of an index depending on what other
//! indexes exist — is a real phenomenon here, which the paper's top-down
//! *full* search exploits and its *lite* variant ignores.
//!
//! [`exec`] executes plans against physical storage; it refuses virtual
//! indexes, mirroring the paper's separation between what-if costing and
//! execution.

pub mod cost;
pub mod exec;
pub mod maintenance;
pub mod matching;
pub mod modes;
pub mod plan;
pub mod selectivity;

pub use cost::CostModel;
pub use exec::{execute_query, execute_query_items, ExecError, ExecResult};
pub use matching::{index_matches, statement_signature, CandidatePattern};
pub use modes::{CostError, Optimizer, PathStatsMemo, PreparedStatement};
pub use plan::{AccessChoice, IndexUse, Plan, PlanStep};
pub use selectivity::PatternStats;
