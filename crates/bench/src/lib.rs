//! # vif-bench
//!
//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§V, §VI, appendices) against this reproduction.
//!
//! Run `cargo run -p vif-bench --release --bin repro -- <experiment>` with
//! one of: `fig3a`, `fig3b`, `fig8`, `fig13`, `latency`, `fig14`, `tab1`,
//! `gap`, `fig9`, `tab2`, `batch`, `shard`, `scenario`, `fig11a`,
//! `fig11b`, `tab3`, `attestation`, `ablation-copy`, `ablation-conn`,
//! `ablation-lambda`, `ablation-sketch`, or `all`. Each report prints the measured values
//! next to the paper's where the paper states them; see the repository
//! `README.md` for how the experiments map onto the crates.
//!
//! The throughput and latency figures run the calibrated testbed model of
//! [`model`] in virtual time, and the §IV / Fig. 5 rule-partitioned pool
//! and the §VI-D deployment sizing are [`partitioned`]; the serving crates
//! carry no part of either.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod model;
pub mod partitioned;

pub use harness::{run_experiment, ExperimentId, ALL_EXPERIMENTS};
