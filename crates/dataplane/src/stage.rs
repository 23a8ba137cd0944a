//! The filter-stage seam: what a worker hands a burst to, and what it
//! gets back.
//!
//! [`DataplaneService`](crate::DataplaneService) workers drain their RX
//! ring in bursts and pass each burst to their [`PacketStage`] (the
//! enclave filter in VIF's pipeline, §V-A / Fig. 6), which returns one
//! [`StageOutcome`] per packet.
//!
//! # Batch processing and the batch invariant
//!
//! The stage is *burst-oriented*: a burst flows through the stage whole,
//! via [`PacketStage::process_batch`]. This mirrors how the real filter
//! thread drains the RX ring with DPDK burst dequeues and is the hook that
//! lets a stage amortize per-packet overhead (enclave-thread transitions,
//! hash/secret setup, trie-node cache misses) across a burst.
//!
//! Batching is *semantically invisible* by design. VIF's filter is a
//! stateless function of each packet's five tuple (§III-A): verdicts do
//! not depend on packet order, arrival time, or neighboring packets, so a
//! stage may compute a burst's verdicts in any order — or all at once —
//! and must produce exactly the verdicts the per-packet path would.
//! Because audit logs and bypass detection consume only per-flow verdict
//! counts, batching can never change an audit outcome. The property test
//! `batch_decide_equals_single_decide` in `vif-core` pins this invariant
//! down for the stateless and the hybrid filter.

use crate::packet::Packet;

/// Verdict of a filter stage for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageVerdict {
    /// Forward toward the victim network.
    Forward,
    /// Drop (matched a DROP rule).
    Drop,
}

/// Outcome of processing one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageOutcome {
    /// Forward or drop.
    pub verdict: StageVerdict,
    /// True when the verdict took the SHA-256 hash-based decision path
    /// (a probabilistic rule with no cached flow entry, Appendix A).
    pub hashed: bool,
}

/// A packet-processing stage (the filter in VIF's pipeline).
///
/// The one entry point is [`process_batch`](PacketStage::process_batch):
/// a worker hands each RX burst to the stage whole, so implementations can
/// amortize fixed per-packet costs over the burst. Implementations must
/// uphold the batch invariant (module docs): the verdict for a packet may
/// not depend on its position in the burst or on the other packets in it.
pub trait PacketStage {
    /// Processes a burst: appends exactly one [`StageOutcome`] per packet
    /// of `pkts` to `out`, in order. Callers must pass `out` cleared —
    /// implementations append without clearing, so `out[i]` pairs with
    /// `pkts[i]` only when the buffer starts empty.
    fn process_batch(&mut self, pkts: &[Packet], out: &mut Vec<StageOutcome>);

    /// Human-readable stage name for reports.
    fn name(&self) -> &str {
        "stage"
    }
}

impl<F> PacketStage for F
where
    F: FnMut(&Packet) -> StageOutcome,
{
    fn process_batch(&mut self, pkts: &[Packet], out: &mut Vec<StageOutcome>) {
        out.extend(pkts.iter().map(self));
    }
}
