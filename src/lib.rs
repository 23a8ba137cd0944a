//! # vif — Verifiable In-network Filtering for DDoS defense
//!
//! Facade crate for the VIF reproduction (Gong et al., ICDCS 2019). It
//! re-exports the crates of the serving system — the enclave filter and
//! its cluster, the dataplane, the scenario engine, telemetry and their
//! substrates — under a single namespace, so examples, integration tests
//! and downstream users can depend on one crate. The paper-experiment
//! crates (`vif_interdomain`'s routing models, `vif_optimizer`'s solvers,
//! `vif_bench`'s figure models) are not part of it: depend on them
//! directly.
//!
//! See the repository `README.md` for the architecture overview, the crate
//! map, the serving filter ([`HybridFilter`](vif_core::hybrid::HybridFilter))
//! over its §III-A reference, and how to run the `repro` experiment harness.
//!
//! ## Quickstart
//!
//! ```
//! use vif::core::prelude::*;
//!
//! // A victim under DDoS asks a filtering network to drop a flow.
//! let rule = FilterRule::drop(FlowPattern::exact(
//!     "203.0.113.7:53".parse().unwrap(),
//!     "198.51.100.1:4444".parse().unwrap(),
//!     Protocol::Udp,
//! ));
//! assert_eq!(rule.action(), RuleAction::Drop);
//! ```

pub use vif_core as core;
pub use vif_crypto as crypto;
pub use vif_dataplane as dataplane;
pub use vif_scenario as scenario;
pub use vif_sgx as sgx;
pub use vif_sketch as sketch;
pub use vif_telemetry as telemetry;
pub use vif_trie as trie;
