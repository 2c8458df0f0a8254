//! # xia-bench
//!
//! Experiment harness for the XML Index Advisor reproduction. Every table
//! and figure of the paper's evaluation section has a module here and an
//! entry of the one `xia-bench` binary that regenerates it (see DESIGN.md
//! §4 for the experiment index):
//!
//! | paper artifact | module | command |
//! |---|---|---|
//! | Fig. 2 (estimated speedup vs budget)  | [`experiments::speedup_budget`] | `xia-bench tables fig2` |
//! | Fig. 3 (advisor run time vs budget)   | [`experiments::speedup_budget`] | `xia-bench tables fig3` |
//! | Table III (candidate counts)          | [`experiments::candidates`] | `xia-bench tables table3` |
//! | Table IV (general vs specific counts) | [`experiments::generality`] | `xia-bench tables table4` |
//! | Fig. 4 (generalization, estimated)    | [`experiments::generalization`] | `xia-bench tables fig4` |
//! | Fig. 5 (generalization, actual)       | [`experiments::generalization`] | `xia-bench tables fig5` |
//! | XMark (tech-report appendix)          | [`experiments::xmark_exp`] | `xia-bench tables xmark` |
//! | Maintenance cost (tech report)        | [`experiments::update_cost`] | `xia-bench tables update_cost` |
//! | Scalability / E15 data path           | [`experiments::scalability`] | `xia-bench tables scalability datapath` |
//! | E9 ablations (cache/affected/β)       | [`experiments::ablation`] | `xia-bench tables ablation` |
//! | E10 parallel what-if evaluation       | [`experiments::parallel`] | `xia-bench tables parallel` |
//! | E16 CoPhy scaling                     | [`experiments::cophy_scaling`] | `xia-bench tables cophy_scaling` |
//! | E17 warm service vs cold batch        | [`experiments::server_warm`] | `xia-bench tables server_warm` |
//!
//! The CI gates are `xia-bench gate cophy datapath lifecycle obs server`
//! ([`gate`]).

pub mod experiments;
pub mod gate;
pub mod lab;
pub mod report;
pub mod tables;

pub use lab::TpoxLab;
pub use report::{write_csv, Table};
