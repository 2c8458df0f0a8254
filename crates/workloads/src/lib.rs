//! # xia-workloads
//!
//! Benchmark data generators and query workloads for the XML Index Advisor
//! experiments.
//!
//! * [`tpox`] — a TPoX-like financial benchmark: `security`, `order`, and
//!   `custacc` documents (the element vocabulary of the paper's running
//!   example: `Symbol`, `Yield`, `SecInfo/*/Sector`, …) and the 11-query
//!   workload the paper evaluates on, plus an update mix.
//! * [`xmark`] — an XMark-like auction benchmark (the paper's secondary
//!   benchmark, reported in its tech report).
//! * [`synthetic`] — random XPath workloads drawn from paths that occur in
//!   the data (paper Section VII-C, Table III and Figs. 4–5).
//! * [`Workload`] — statements with frequencies, the advisor's input.

pub mod prng;
pub mod synthetic;
pub mod tpox;
pub mod workload;
pub mod xmark;

pub use workload::{Entries, EntryIter, Workload, WorkloadEntry};
