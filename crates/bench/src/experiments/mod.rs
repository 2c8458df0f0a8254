//! Experiment implementations, one module per paper artifact.

pub mod ablation;
pub mod candidates;
pub mod cophy_scaling;
pub mod generality;
pub mod generalization;
pub mod parallel;
pub mod scalability;
pub mod server_warm;
pub mod speedup_budget;
pub mod update_cost;
pub mod xmark_exp;

// Retired experiments whose acceptance gates live on as tests: E11
// (statement-relevance pruning) and E12 (semi-naive generalization).
#[cfg(test)]
mod generalization_speedup;
#[cfg(test)]
#[path = "../../../../tests/support/naive_fixpoint.rs"]
mod naive_fixpoint;
#[cfg(test)]
mod pruning;
