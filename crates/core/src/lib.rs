//! # xia-advisor
//!
//! An **XML Index Advisor with tight optimizer coupling** — a from-scratch
//! Rust reproduction of Elghandour et al., ICDE 2008.
//!
//! Given an XML [`Database`](xia_storage::Database), a query/update
//! [`Workload`](xia_workloads::Workload), and a disk-space budget, the
//! advisor recommends the set of partial XML value indexes (linear XPath
//! index patterns) that maximizes the estimated workload benefit.
//!
//! The pipeline mirrors the paper's architecture (its Fig. 1):
//!
//! 1. **Candidate enumeration** ([`enumerate`]) — for every workload
//!    statement, the query optimizer's *Enumerate Indexes* mode reports the
//!    rewritten patterns that its index matching matched against the
//!    universal `//*` virtual index. These are the *basic candidates*.
//! 2. **Candidate generalization** ([`generalize`]) — pairwise
//!    generalization (the paper's Algorithm 1 + Table II rules) expands the
//!    set with patterns like `/Security//*` that can serve multiple queries
//!    and unseen future queries; a DAG records which candidates each
//!    generalized index covers.
//! 3. **Configuration search** ([`search`]) — five algorithms over the 0/1
//!    knapsack of candidates: plain greedy, greedy with the paper's
//!    heuristics, top-down lite, top-down full, and dynamic programming.
//!    Benefit queries go through [`benefit::BenefitEvaluator`], which
//!    implements the paper's affected-set + sub-configuration + cache
//!    machinery to minimize *Evaluate Indexes* optimizer calls.
//!
//! See `examples/quickstart.rs` for an end-to-end walkthrough.

pub mod advisor;
pub mod benefit;
pub mod candidate;
pub mod compress;
pub mod costing;
pub mod drift;
pub mod enumerate;
pub mod error;
pub mod generalize;
pub mod report;
pub mod runctl;
pub mod search;
pub mod session;

pub use advisor::{Advisor, AdvisorParams, PartialRecommendation, Recommendation, SearchAlgorithm};
pub use benefit::{BenefitEvaluator, WhatIfBudget};
pub use candidate::{CandId, Candidate, CandidateSet, StmtSet};
pub use compress::{compress_workload, compute_weights, CompressedWorkload, WorkloadTemplate};
pub use costing::CostingState;
pub use drift::DriftTracker;
pub use enumerate::{
    enumerate_candidates, enumerate_candidates_into, enumerate_candidates_traced, size_candidates,
    size_candidates_ids, size_candidates_traced,
};
pub use error::{IssueStage, StatementIssue, XiaError};
pub use generalize::{
    generalize_pair, generalize_set, generalize_set_extend, generalize_set_fast,
    generalize_set_naive,
};
pub use report::TuningReport;
pub use runctl::{candidate_digest, load_checkpoint, GovernorRung, RunController, StopReason};
pub use session::TuningSession;
