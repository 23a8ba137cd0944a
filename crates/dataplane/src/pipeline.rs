//! The RX → filter → TX pipeline, simulated in virtual time.
//!
//! This is **the paper-figure model, not a serving path**: [`run`] advances
//! a virtual clock by modelled costs to reproduce the paper's throughput
//! and latency figures deterministically. Packets are actually served,
//! on real threads and in wall-clock time, by
//! [`DataplaneService`](crate::DataplaneService).
//!
//! Models the paper's three-core DPDK pipeline (§V-A, Fig. 6): an RX thread
//! polls the NIC in bursts, a filter thread consumes the RX ring and pushes
//! verdicts, a TX thread serializes allowed packets back onto the wire.
//! Each stage is a server in a tandem queue; per-packet costs come from the
//! caller-supplied [`PacketStage`] (the enclave filter with its cost model)
//! plus fixed RX/TX handling costs. Saturation, ring overflow, batching
//! delay, and wire serialization fall out of the queueing dynamics, so the
//! simulation reproduces throughput *and* latency behavior
//! deterministically.
//!
//! # Batch processing and the batch invariant
//!
//! The pipeline is *burst-oriented*: an RX burst that clears ring admission
//! flows through the filter stage whole, via
//! [`PacketStage::process_batch`]. This mirrors how the real filter thread
//! drains the RX ring with DPDK burst dequeues and is the hook that lets
//! backends amortize per-packet overhead (enclave-thread transitions,
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
//! down for every backend.

use crate::nic::LineRate;
use crate::packet::Packet;
use std::collections::VecDeque;
use std::sync::Arc;
use vif_telemetry::{Histogram, TelemetryHub};

/// Verdict of a filter stage for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageVerdict {
    /// Forward toward the victim network.
    Forward,
    /// Drop (matched a DROP rule).
    Drop,
}

/// Outcome of processing one packet: verdict plus simulated cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageOutcome {
    /// Forward or drop.
    pub verdict: StageVerdict,
    /// Simulated processing time, nanoseconds.
    pub cost_ns: u64,
}

/// A packet-processing stage (the filter in VIF's pipeline).
///
/// The primary entry point is [`process_batch`](PacketStage::process_batch):
/// the pipeline hands each admitted RX burst to the stage whole, so
/// implementations can amortize fixed per-packet costs over the burst.
/// Implementations must uphold the batch invariant (module docs): the
/// verdict for a packet may not depend on its position in the burst or on
/// the other packets in it.
pub trait PacketStage {
    /// Processes a burst: appends exactly one [`StageOutcome`] per packet
    /// of `pkts` to `out`, in order. Callers must pass `out` cleared —
    /// implementations append without clearing, so `out[i]` pairs with
    /// `pkts[i]` only when the buffer starts empty.
    fn process_batch(&mut self, pkts: &[Packet], out: &mut Vec<StageOutcome>);

    /// Processes one packet (a burst of one).
    fn process(&mut self, pkt: &Packet) -> StageOutcome {
        let mut out = Vec::with_capacity(1);
        self.process_batch(std::slice::from_ref(pkt), &mut out);
        out.pop()
            .expect("process_batch yields one outcome per packet")
    }

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

    fn process(&mut self, pkt: &Packet) -> StageOutcome {
        self(pkt)
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Packets fetched per RX poll (DPDK burst size).
    pub burst_size: usize,
    /// Capacity of the RX → filter ring.
    pub ring_capacity: usize,
    /// Per-packet RX handling cost, ns (descriptor + mbuf work).
    pub rx_cost_ns: u64,
    /// Per-packet TX handling cost, ns (excluding wire serialization).
    pub tx_cost_ns: u64,
    /// Output link speed (wire serialization).
    pub line_rate: LineRate,
    /// Fixed latency offset, ns: NIC/driver queues and the generator's own
    /// measurement path. Calibrated so absolute latencies land in the
    /// paper's Appendix/§V-B envelope.
    pub base_latency_ns: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            burst_size: 32,
            ring_capacity: 1024,
            rx_cost_ns: 18,
            tx_cost_ns: 18,
            line_rate: LineRate::TEN_GBE,
            base_latency_ns: 22_000,
        }
    }
}

/// Aggregate results of a pipeline run.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Packets offered by the generator.
    pub offered: u64,
    /// Packets forwarded to the victim.
    pub forwarded: u64,
    /// Packets dropped by filter verdict.
    pub filtered: u64,
    /// Packets lost to RX-ring overflow (filter too slow).
    pub overflow: u64,
    /// Bytes offered (frame bytes).
    pub offered_bytes: u64,
    /// Bytes forwarded.
    pub forwarded_bytes: u64,
    /// Bytes accepted into the filter (offered − overflow), the basis of
    /// the throughput the paper reports.
    pub processed_bytes: u64,
    /// Packets processed by the filter (offered − overflow).
    pub processed: u64,
    /// Simulated duration from first arrival to last departure, ns.
    pub duration_ns: u64,
    /// Per-forwarded-packet latency distribution, ns (arrival → fully on
    /// the wire), on the shared telemetry histogram: exact mean/min/max,
    /// O(64) bucket-resolution percentiles, and order-free merging — the
    /// one percentile implementation every report shares, replacing the
    /// old clone-and-sort `Vec<u64>` path.
    latency: Histogram,
}

impl PipelineReport {
    /// Filter throughput in Gb/s: bytes that made it through the filter
    /// stage per unit time (the quantity in Figs. 8 and 14).
    pub fn throughput_gbps(&self) -> f64 {
        if self.duration_ns == 0 {
            return 0.0;
        }
        (self.processed_bytes * 8) as f64 / self.duration_ns as f64
    }

    /// Filter throughput counting wire bytes (frame + 20 B preamble/IFG),
    /// the convention of the paper's throughput plots — a saturated
    /// 10 GbE link reads 10 Gb/s at any frame size.
    pub fn wire_throughput_gbps(&self) -> f64 {
        if self.duration_ns == 0 || self.processed == 0 {
            return 0.0;
        }
        let wire_bytes =
            self.processed_bytes + self.processed * crate::nic::WIRE_OVERHEAD_BYTES as u64;
        (wire_bytes * 8) as f64 / self.duration_ns as f64
    }

    /// Filter throughput in Mpps (the quantity in Figs. 3a and 13).
    pub fn throughput_mpps(&self) -> f64 {
        if self.duration_ns == 0 {
            return 0.0;
        }
        self.processed as f64 * 1e3 / self.duration_ns as f64
    }

    /// Fraction of offered packets that survived to the victim.
    pub fn forwarding_ratio(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.forwarded as f64 / self.offered as f64
    }

    /// Mean forwarding latency in nanoseconds (exact).
    pub fn mean_latency_ns(&self) -> f64 {
        self.latency.mean()
    }

    /// Latency percentile (`q` in 0..=100). O(64) per call regardless of
    /// packet count: a bucket-resolution estimate clamped to the exact
    /// observed min/max (see [`Histogram::percentile`]).
    pub fn latency_percentile_ns(&self, q: f64) -> u64 {
        self.latency.percentile(q)
    }

    /// The full forwarding-latency distribution, for merging into a
    /// [`TelemetryHub`] or combining across runs.
    pub fn latency_histogram(&self) -> &Histogram {
        &self.latency
    }
}

/// Runs `traffic` (sorted by arrival time) through the pipeline.
///
/// Each RX burst is admitted packet-by-packet against the ring occupancy,
/// then the admitted packets flow through the filter stage *as one batch*
/// ([`PacketStage::process_batch`]); the per-packet outcome costs then
/// advance the filter and TX clocks in order. Ring slots freed by filter
/// completions are reclaimed at burst granularity (the filter thread
/// signals completion when it hands a burst to TX), which matches the
/// DPDK burst-dequeue behavior the paper's pipeline is built on.
///
/// # Panics
///
/// Panics if `traffic` is not sorted by `arrival_ns` or config is
/// degenerate (zero burst or ring capacity).
pub fn run(
    traffic: &[Packet],
    stage: &mut dyn PacketStage,
    cfg: &PipelineConfig,
) -> PipelineReport {
    assert!(
        cfg.burst_size > 0 && cfg.ring_capacity > 0,
        "degenerate pipeline config"
    );
    assert!(
        traffic
            .windows(2)
            .all(|w| w[1].arrival_ns >= w[0].arrival_ns),
        "traffic must be sorted by arrival time"
    );
    let mut report = PipelineReport::default();
    if traffic.is_empty() {
        return report;
    }

    let mut rx_free_at = 0u64;
    let mut filter_free_at = 0u64;
    let mut tx_free_at = 0u64;
    // Completion times of packets currently queued in (or being served by)
    // the filter; used for RX-ring occupancy accounting.
    let mut in_flight: VecDeque<u64> = VecDeque::new();
    let mut last_event = 0u64;
    // Reused per-burst buffers (no per-packet allocation on the hot path).
    let mut admitted: Vec<Packet> = Vec::with_capacity(cfg.burst_size);
    let mut admitted_rx_done: Vec<u64> = Vec::with_capacity(cfg.burst_size);
    let mut outcomes: Vec<StageOutcome> = Vec::with_capacity(cfg.burst_size);

    for batch in traffic.chunks(cfg.burst_size) {
        // The RX burst is dispatched when its last packet has arrived.
        let batch_ready = batch.last().expect("non-empty chunk").arrival_ns;
        let rx_start = batch_ready.max(rx_free_at);

        // Phase 1 — RX admission: enqueue each packet onto the ring unless
        // it is full. Slots held by packets of *this* burst are counted via
        // `admitted.len()`; their completion times are not yet known (the
        // filter publishes them when the whole burst completes below).
        admitted.clear();
        admitted_rx_done.clear();
        for (i, pkt) in batch.iter().enumerate() {
            report.offered += 1;
            report.offered_bytes += pkt.wire_size as u64;
            let rx_done = rx_start + cfg.rx_cost_ns * (i as u64 + 1);
            rx_free_at = rx_done;

            // Drain filter completions that happened before this enqueue.
            while in_flight.front().is_some_and(|&t| t <= rx_done) {
                in_flight.pop_front();
            }
            if in_flight.len() + admitted.len() >= cfg.ring_capacity {
                report.overflow += 1;
                last_event = last_event.max(rx_done);
                continue;
            }
            admitted.push(*pkt);
            admitted_rx_done.push(rx_done);
        }

        // Phase 2 — the filter stage consumes the admitted burst whole.
        // A fully-overflowed burst never enters the stage (no enclave
        // entry paid when the ring is saturated).
        if admitted.is_empty() {
            continue;
        }
        outcomes.clear();
        stage.process_batch(&admitted, &mut outcomes);
        debug_assert_eq!(outcomes.len(), admitted.len(), "one outcome per packet");

        // Phase 3 — advance the filter/TX clocks with the returned costs.
        for ((pkt, &rx_done), outcome) in admitted.iter().zip(&admitted_rx_done).zip(&outcomes) {
            let filter_start = rx_done.max(filter_free_at);
            let filter_done = filter_start + outcome.cost_ns;
            filter_free_at = filter_done;
            in_flight.push_back(filter_done);
            report.processed += 1;
            report.processed_bytes += pkt.wire_size as u64;

            match outcome.verdict {
                StageVerdict::Drop => {
                    report.filtered += 1;
                    last_event = last_event.max(filter_done);
                }
                StageVerdict::Forward => {
                    // TX descriptor handling (tx_cost_ns) pipelines with wire
                    // serialization: the wire is occupied for wire_time only.
                    let tx_start = (filter_done + cfg.tx_cost_ns).max(tx_free_at);
                    let tx_done =
                        tx_start + cfg.line_rate.wire_time_ns(pkt.wire_size as u32) as u64;
                    tx_free_at = tx_done;
                    report.forwarded += 1;
                    report.forwarded_bytes += pkt.wire_size as u64;
                    report
                        .latency
                        .record(tx_done - pkt.arrival_ns + cfg.base_latency_ns);
                    last_event = last_event.max(tx_done);
                }
            }
        }
    }

    let first_arrival = traffic[0].arrival_ns;
    report.duration_ns = last_event.saturating_sub(first_arrival).max(1);
    report
}

/// A [`PacketStage`] wrapper that records each packet's simulated cost
/// into a [`TelemetryHub`] worker's cost histogram.
///
/// Costs for a burst are batched into a stack-resident [`Histogram`] and
/// merged with O(64) relaxed atomics once per burst, so wrapping a stage
/// adds a few plain adds per packet and zero allocation — cheap enough to
/// leave on in production (the `telemetry_overhead` bench gates it).
#[derive(Debug)]
pub struct RecordingStage<S> {
    inner: S,
    hub: Arc<TelemetryHub>,
    worker: usize,
    scratch: Histogram,
}

impl<S> RecordingStage<S> {
    /// Wraps `inner`, charging its per-packet costs to `hub`'s worker `w`.
    pub fn new(inner: S, hub: Arc<TelemetryHub>, w: usize) -> Self {
        RecordingStage {
            inner,
            hub,
            worker: w,
            scratch: Histogram::new(),
        }
    }

    /// Unwraps the inner stage.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: PacketStage> PacketStage for RecordingStage<S> {
    fn process_batch(&mut self, pkts: &[Packet], out: &mut Vec<StageOutcome>) {
        let base = out.len();
        self.inner.process_batch(pkts, out);
        self.scratch.clear();
        for o in &out[base..] {
            self.scratch.record(o.cost_ns);
        }
        self.hub.worker(self.worker).record_cost(&self.scratch);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FiveTuple, Protocol};
    use crate::pktgen::{FlowSet, TrafficConfig, TrafficGenerator};

    fn forward_all(cost_ns: u64) -> impl FnMut(&Packet) -> StageOutcome {
        move |_pkt| StageOutcome {
            verdict: StageVerdict::Forward,
            cost_ns,
        }
    }

    fn traffic(size: u16, gbps: f64, count: usize) -> Vec<Packet> {
        let fs = FlowSet::random_toward_victim(16, 0x01020304, 1);
        TrafficGenerator::new(1).generate(
            &fs,
            TrafficConfig {
                packet_size: size,
                offered_gbps: gbps,
                count,
            },
        )
    }

    #[test]
    fn fast_filter_keeps_line_rate() {
        // 30 ns filter on 1500 B frames at 8 Gb/s: no loss, throughput ≈ 8G.
        let t = traffic(1500, 8.0, 20_000);
        let mut stage = forward_all(30);
        let r = run(&t, &mut stage, &PipelineConfig::default());
        assert_eq!(r.overflow, 0);
        assert_eq!(r.forwarded, 20_000);
        let g = r.throughput_gbps();
        assert!((7.8..8.3).contains(&g), "throughput {g}");
    }

    #[test]
    fn slow_filter_caps_throughput() {
        // 500 ns/packet filter can do 2 Mpps; offer 64 B at line rate
        // (14.88 Mpps): throughput must collapse to ≈2 Mpps with overflow.
        let t = traffic(64, 7.6, 100_000);
        let mut stage = forward_all(500);
        let r = run(&t, &mut stage, &PipelineConfig::default());
        assert!(r.overflow > 0, "expected ring overflow");
        let mpps = r.throughput_mpps();
        assert!((1.7..2.3).contains(&mpps), "capacity {mpps} Mpps");
    }

    #[test]
    fn drops_do_not_count_as_forwarded() {
        let t = traffic(256, 2.0, 1000);
        let mut flip = false;
        let mut stage = move |_pkt: &Packet| {
            flip = !flip;
            StageOutcome {
                verdict: if flip {
                    StageVerdict::Drop
                } else {
                    StageVerdict::Forward
                },
                cost_ns: 50,
            }
        };
        let r = run(&t, &mut stage, &PipelineConfig::default());
        assert_eq!(r.forwarded + r.filtered, 1000);
        assert_eq!(r.filtered, 500);
        assert!((r.forwarding_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn latency_grows_with_packet_size_at_fixed_gbps() {
        // The paper's §V-B observation: at a fixed 8 Gb/s offered load,
        // bigger packets mean longer burst-fill times, so latency rises.
        let mut results = Vec::new();
        for size in [128u16, 256, 512, 1024, 1500] {
            let t = traffic(size, 8.0, 30_000);
            let mut stage = forward_all(60);
            let r = run(&t, &mut stage, &PipelineConfig::default());
            results.push((size, r.mean_latency_ns()));
        }
        for w in results.windows(2) {
            assert!(
                w[1].1 > w[0].1,
                "latency should grow with size: {results:?}"
            );
        }
    }

    #[test]
    fn empty_traffic() {
        let mut stage = forward_all(10);
        let r = run(&[], &mut stage, &PipelineConfig::default());
        assert_eq!(r.offered, 0);
        assert_eq!(r.throughput_gbps(), 0.0);
        assert_eq!(r.latency_percentile_ns(99.0), 0);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_traffic_rejected() {
        let t0 = Packet::new(FiveTuple::new(1, 2, 3, 4, Protocol::Udp), 64, 100, 0);
        let t1 = Packet::new(FiveTuple::new(1, 2, 3, 4, Protocol::Udp), 64, 50, 1);
        let mut stage = forward_all(10);
        run(&[t0, t1], &mut stage, &PipelineConfig::default());
    }

    #[test]
    fn recording_stage_charges_costs_to_hub() {
        let hub = Arc::new(TelemetryHub::for_workers(1));
        let t = traffic(256, 2.0, 1000);
        let mut stage = RecordingStage::new(forward_all(75), Arc::clone(&hub), 0);
        let r = run(&t, &mut stage, &PipelineConfig::default());
        assert_eq!(r.forwarded, 1000);
        let costs = hub.worker(0).cost_ns();
        assert_eq!(costs.count(), r.processed);
        assert_eq!(costs.min(), 75);
        assert_eq!(costs.max(), 75);
    }

    #[test]
    fn percentiles_are_ordered() {
        let t = traffic(512, 6.0, 5_000);
        let mut stage = forward_all(100);
        let r = run(&t, &mut stage, &PipelineConfig::default());
        let p50 = r.latency_percentile_ns(50.0);
        let p99 = r.latency_percentile_ns(99.0);
        assert!(p50 <= p99);
        assert!(r.mean_latency_ns() > 0.0);
    }
}
