//! # vif-dataplane
//!
//! A DPDK-style packet-processing substrate standing in for the paper's
//! DPDK 17.05 + 10 GbE testbed (§V-A/V-B), run on real threads:
//!
//! - [`packet`]: five-tuples, protocols, and lightweight packets — the
//!   "5T + size" representation at the heart of the near-zero-copy design,
//! - [`ring`]: bounded rings with DPDK-style burst enqueue / dequeue —
//!   a mutex ring that costs one lock per burst, not a lock-free queue
//!   (the RX and TX rings of the service),
//! - [`nic`]: 10 GbE line-rate arithmetic including Ethernet preamble and
//!   inter-frame gap (why 64 B line rate is 14.88 Mpps),
//! - [`pktgen`]: a pktgen-dpdk-style traffic generator (constant bit rate,
//!   weighted flow mixes, lognormal flow sizes),
//! - [`stage`]: the filter-stage seam — [`PacketStage`] takes an RX
//!   burst and returns one [`StageOutcome`] per packet,
//! - [`service`]: the RX → filter → TX pipeline — RSS-hashed flows across
//!   N always-on filter workers that share one TX path (§IV), persistent
//!   rings, rounds as in-band flush messages, spin-then-park
//!   idling; a one-shot run is one round of the service,
//! - [`sharded`]: the sharding model the service and the audit layer
//!   share — the public RSS steering hash and the per-worker round
//!   counters,
//! - [`lifecycle`]: the one place a slice's lifecycle state lives — a
//!   `SliceState` per slice, one checked transition function, and the
//!   failover steering hash the service, the cluster and the verifiers
//!   all read,
//! - [`fault`]: seeded, deterministic fault plans (worker crashes/stalls,
//!   export corruption, publish-ack loss, overflow storms) that harnesses
//!   inject into the service for reproducible chaos runs.
//!
//! The filter itself is supplied by the caller as a [`PacketStage`] (in
//! VIF, `vif-core`'s enclave filter stage): this crate is policy-free.
//!
//! # Example
//!
//! ```
//! use vif_dataplane::nic::LineRate;
//! // 64-byte frames on 10 GbE: the classic 14.88 Mpps.
//! let mpps = LineRate::TEN_GBE.max_pps(64) / 1e6;
//! assert!((14.8..14.9).contains(&mpps));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod lifecycle;
pub mod nic;
pub mod packet;
pub mod pktgen;
pub mod ring;
pub mod service;
pub mod sharded;
pub mod stage;

pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use lifecycle::{SliceEvent, SliceLifecycle, SliceState};
pub use nic::LineRate;
pub use packet::{FiveTuple, Packet, Protocol};
pub use pktgen::{FlowSet, RateShape, TrafficConfig, TrafficGenerator};
pub use ring::Ring;
pub use service::{
    ContractMap, ContractRoundDelta, DataplaneService, DegradedMode, ServiceConfig, ServiceHandle,
};
pub use sharded::{shard_of, shard_of_fingerprint, ShardedReport, ThreadedReport};
pub use stage::{PacketStage, StageOutcome, StageVerdict};
