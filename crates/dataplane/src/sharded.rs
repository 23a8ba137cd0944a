//! The sharding model of the live pipeline: RX → N filter workers → TX.
//!
//! The paper's Fig. 6 pipeline has one filter thread; the §IV scale-out
//! architecture runs `N` of them on real threads
//! ([`crate::service::DataplaneService`]). One RX thread RSS-hashes each
//! flow onto one of `N` per-worker rings with the public
//! [`fingerprint`](vif_sketch::hash::fingerprint)-based [`shard_of`], so
//! flow → worker assignment is deterministic and connection preserving.
//! Each worker owns its own [`PacketStage`](crate::stage::PacketStage)
//! (in deployments, one enclave slice of `vif-core`'s replicated
//! `EnclaveCluster`), drains its ring in bursts, and pushes forwarded
//! packets onto a shared TX ring that a single TX thread drains into the
//! caller's sink.
//!
//! Flow-hash (RSS) steering sends a flow to a worker *independently of
//! which rules it matches*, so each worker's stage must be able to decide
//! any flow — in enclave terms, every slice holds the full rule set
//! (replication trades EPC for steering simplicity). Because steering is a
//! public deterministic function of the five tuple, verifiers can attribute
//! every packet to its slice and audit each slice's logs independently —
//! which is what lets bypass *and* misroute detection work per worker over
//! this live path (see `vif-core`'s `ClusterRoundDriver`). Failover
//! re-steers through [`SliceLifecycle::steer`](crate::SliceLifecycle::steer),
//! the one steering function for slices that are not steered.
//!
//! The threads, rings and round barrier live in [`crate::service`]; this
//! module holds what the audit layer shares with it: the public steering
//! hash and the per-worker round counters.

use vif_telemetry::PacketCounts;

/// RSS steering: the worker that owns `t`'s flow in an `n`-way shard.
///
/// Deterministic in the five tuple (connection preserving) and public, so
/// a verifier can recompute the packet → slice attribution offline.
///
/// Exactly [`shard_of_fingerprint`] over
/// [`FiveTuple::tuple_fingerprint`](crate::packet::FiveTuple::tuple_fingerprint);
/// callers that already hold the packet's tuple fingerprint (the audit
/// layer derives it once per packet for the logs) should pass it to the
/// fingerprint variant instead of re-encoding here.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn shard_of(t: &crate::packet::FiveTuple, n: usize) -> usize {
    shard_of_fingerprint(t.tuple_fingerprint(), n)
}

/// [`shard_of`] for a pre-computed tuple fingerprint
/// ([`FiveTuple::tuple_fingerprint`](crate::packet::FiveTuple::tuple_fingerprint)):
/// the fingerprint-once hot path shares one per-packet hash between
/// steering and the audited packet logs.
///
/// # Panics
///
/// Panics if `n` is zero.
#[inline]
pub fn shard_of_fingerprint(tuple_fp: u64, n: usize) -> usize {
    assert!(n > 0, "at least one shard");
    (tuple_fp % n as u64) as usize
}

/// Counters from a sharded round: one [`PacketCounts`] row per worker.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardedReport {
    /// Per-worker counters, indexed by worker id.
    pub per_worker: Vec<PacketCounts>,
    /// Per-worker quarantine flags: `true` once the service excised the
    /// worker's slice after a detected death (empty or all-false on
    /// healthy runs).
    pub quarantined: Vec<bool>,
}

impl ShardedReport {
    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.per_worker.len()
    }

    /// Worker indices currently quarantined.
    pub fn quarantined_workers(&self) -> Vec<usize> {
        self.quarantined
            .iter()
            .enumerate()
            .filter_map(|(w, &q)| q.then_some(w))
            .collect()
    }

    /// Aggregate counters across all workers.
    pub fn total(&self) -> PacketCounts {
        let mut total = PacketCounts::default();
        for &w in &self.per_worker {
            total += w;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pktgen::{FlowSet, TrafficConfig, TrafficGenerator};

    #[test]
    fn fingerprint_variant_matches_shard_of() {
        // The fingerprint-once path must name the same worker as the
        // encoding path for every flow and worker count — a divergence
        // would let steering and audit attribution disagree.
        let flows = FlowSet::random_toward_victim(64, 7, 3);
        let traffic = TrafficGenerator::new(2).generate(
            &flows,
            TrafficConfig {
                packet_size: 64,
                offered_gbps: 5.0,
                count: 500,
            },
        );
        for p in traffic {
            let fp = p.tuple.tuple_fingerprint();
            for n in [1usize, 2, 3, 4, 7, 16] {
                assert_eq!(shard_of(&p.tuple, n), shard_of_fingerprint(fp, n));
            }
        }
    }
}
