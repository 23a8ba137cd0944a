//! # vif-core
//!
//! **VIF: Verifiable In-network Filtering** — the primary contribution of
//! Gong et al. (ICDCS 2019), reimplemented as a Rust library over the
//! workspace's substrates (`vif-sgx`, `vif-dataplane`, `vif-sketch`,
//! `vif-trie`, `vif-crypto`).
//!
//! A DDoS victim asks a transit network (ideally an IXP) to drop attack
//! traffic on its behalf. VIF makes that service *verifiable*: neither the
//! victim nor the filtering network's neighbors have to trust the operator,
//! because
//!
//! 1. filtering runs inside an attested SGX enclave ([`session`]),
//! 2. the filter is a **stateless** function of each packet's five tuple
//!    ([`filter`]) — immune to the operator's control over packet order,
//!    timing, and injected traffic (§III-A),
//! 3. the enclave keeps count-min-sketch packet logs ([`logs`]) that the
//!    victim and neighbor ASes compare against their own observations to
//!    detect all three bypass attacks ([`verify`], §III-B),
//! 4. capacity scales across a pool of replicated enclave slices fed by
//!    RSS steering, with failover, quarantine and probation decided by the
//!    audits ([`scale`], [`rounds`], §IV); the paper's rule-partitioned
//!    Fig. 5 pool is an experiment beside the figure models
//!    (`vif_bench::partitioned`),
//! 5. rule requests are authorized against RPKI so victims can only filter
//!    traffic addressed to their own prefixes ([`rpki`], §VII).
//!
//! The enclave serves with one filter, [`hybrid::HybridFilter`]: the
//! reference [`filter::StatelessFilter`] plus an exact-match cache of its
//! hash-based verdicts (Appendix F). Both decide per packet (`decide`) or
//! per RX burst (`decide_batch`), and the hybrid must equal the reference
//! in every verdict's action and matched rule ([`filter`] module docs).
//!
//! The per-packet decide path is *compiled*: rule installs rebuild a
//! flat, read-only [`classifier::CompiledClassifier`] (stride walk over
//! compiled trie arrays, flattened candidate lists) and the hot-path
//! tables key on the deterministic multiply-xor hasher of [`fasthash`],
//! so steady-state classification performs no heap allocation, no
//! SipHash, and no ordered-map probes.
//!
//! [`enclave_app::EnclaveFilterStage`] plugs the enclave into the
//! dataplane service's stage seam and reports verdicts only; it prices no
//! packet. The [`cost`] module keeps just the [`cost::FilterMode`] the
//! paper compares; the calibrated per-packet model that reproduces the
//! paper's §V performance envelope in virtual time lives beside the
//! figures that use it, in `vif-bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classifier;
pub mod cost;
pub mod enclave_app;
pub mod fasthash;
pub mod filter;
pub mod hybrid;
pub mod logs;
pub mod retry;
pub mod rounds;
pub mod rpki;
pub mod rules;
pub mod ruleset;
pub mod scale;
pub mod session;
pub mod verify;

/// Convenient re-exports of the crate's primary types.
pub mod prelude {
    pub use crate::cost::FilterMode;
    pub use crate::enclave_app::{EnclaveFilterStage, FilterEnclaveApp, RuleEdit};
    pub use crate::filter::StatelessFilter;
    pub use crate::hybrid::HybridFilter;
    pub use crate::logs::{AuthenticatedSketch, LogDirection, PacketLogs};
    pub use crate::retry::RetryPolicy;
    pub use crate::rounds::{
        ClusterRoundDriver, ClusterRoundOutcome, ContractState, RoundOutcome, RoundPolicy,
    };
    pub use crate::rpki::RpkiRegistry;
    pub use crate::rules::{FilterRule, FlowPattern, PortRange, RuleAction, RuleDecision};
    pub use crate::ruleset::{RuleId, RuleSet};
    pub use crate::scale::{EnclaveCluster, PublishReport, ResyncReport};
    pub use crate::session::{FilteringSession, SessionConfig, SessionError};
    pub use crate::verify::{BypassVerdict, Verifier};
    pub use vif_dataplane::{FiveTuple, Packet, Protocol};
    pub use vif_trie::Ipv4Prefix;
}

pub use prelude::*;
