//! The paper's §V testbed as a calibrated model run in virtual time.
//!
//! The reproduction has no SGX hardware or 10 GbE DPDK testbed, so the
//! throughput and latency figures (Figs. 3a, 8, 13, 14, the §V-B latency
//! list and the copy ablation) are reproduced by an explicit per-packet
//! cost model driving a simulated RX → filter → TX pipeline. Nothing here
//! serves packets: the live path is `vif_dataplane::DataplaneService`,
//! whose enclave stage returns verdicts only. The model borrows that same
//! stage for its verdicts and prices each packet itself.
//!
//! # The cost model
//!
//! Every constant of [`CostModel`] is documented, and the defaults are
//! calibrated against the paper's §V-B envelope:
//!
//! - 64 B near-zero-copy throughput ≈ 8 Gb/s with 3,000 rules (Fig. 8),
//! - full-packet-copy capacity cap ≈ 6 Mpps (Fig. 13),
//! - all modes reach 10 GbE line rate at ≥256 B (Fig. 8),
//! - throughput collapse as the rule table outgrows the EPC (Fig. 3a),
//! - ≤25 % degradation at 64 B when every packet is SHA-256-hashed
//!   (Fig. 14, Appendix F).
//!
//! The model prices one packet as
//!
//! ```text
//! cost = base + copy(mode, size) + sketch + lookup + mem_stall(table)
//!        [+ sha256 if hash-filtered]
//! ```
//!
//! where `mem_stall` ramps linearly from zero (table within last-level
//! cache) to `dram_ramp_ns` (table filling usable EPC) and is multiplied by
//! the EPC paging penalty ([`EpcUsage::access_multiplier_for`]) once the
//! working set exceeds the EPC.
//!
//! # The pipeline
//!
//! [`run`] models the paper's three-core DPDK pipeline (§V-A, Fig. 6): an
//! RX thread polls the NIC in bursts, a filter thread consumes the RX ring
//! and pushes verdicts, a TX thread serializes allowed packets back onto
//! the wire. Each stage is a server in a tandem queue; per-packet filter
//! costs come from the caller's price function, plus fixed RX/TX handling
//! costs. Saturation, ring overflow, batching delay, and wire serialization
//! fall out of the queueing dynamics, so the simulation reproduces
//! throughput *and* latency deterministically.

use std::collections::VecDeque;
use vif_core::cost::FilterMode;
use vif_core::enclave_app::EnclaveFilterStage;
use vif_dataplane::nic::{LineRate, WIRE_OVERHEAD_BYTES};
use vif_dataplane::{Packet, PacketStage, StageOutcome, StageVerdict};
use vif_sgx::epc::{EpcConfig, EpcUsage};
use vif_telemetry::Histogram;

/// Per-packet cost constants (simulated nanoseconds).
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Fixed per-packet work: header parse, verdict, ring operations, and
    /// the exact-match table probe (a multiply-xor fast-hash lookup —
    /// `vif_core::fasthash` — not std's per-byte SipHash).
    pub base_ns: f64,
    /// Two count-min-sketch log updates (4 linear hashes, §V-A). The
    /// implementation's analogue is the fingerprint-once burst path: one
    /// tuple + one source-IP fingerprint per packet, masked (not divided)
    /// bin reduction on the paper's power-of-two width, and counter lines
    /// software-prefetched across the burst
    /// (`vif_sketch::CountMinSketch::add_batch_fingerprints`; the
    /// `logging_throughput` bench tracks the real-machine trajectory —
    /// batch-prefetch ≈ 5× the per-packet keyed `add` at burst 32).
    pub sketch_ns: f64,
    /// Copying ⟨5T, size, ref⟩ (52 bytes) into the enclave.
    pub nzc_copy_ns: f64,
    /// Fixed overhead of a full-packet copy into EPC (allocation, fences).
    pub full_copy_fixed_ns: f64,
    /// Per-byte cost of the full-packet copy.
    pub full_copy_per_byte_ns: f64,
    /// The compiled-classifier stride walk with a cache-resident table
    /// (`vif_core::classifier`): flat array reads, allocation-free — the
    /// `classifier_throughput` bench tracks the real-machine analogue.
    pub lookup_core_ns: f64,
    /// Last-level-cache size: tables below this stall nothing.
    pub llc_bytes: usize,
    /// Memory-stall at the point the table exactly fills usable EPC.
    pub dram_ramp_ns: f64,
    /// Discount on memory stalls outside SGX (no EPC crypto engine).
    pub native_stall_factor: f64,
    /// SHA-256 over the 5-tuple for hash-based connection-preserving
    /// filtering (Appendix A): one compression of a single stack-padded
    /// block (`Sha256::digest_one_block` — the 45-byte `5T ‖ secret`
    /// message fits one block), so the cost is a constant, not a
    /// streaming function of message length. The threshold compare the
    /// digest feeds is an install-time `u128` constant
    /// (`RuleSet::allow_threshold`) — no per-packet float math rides on
    /// top of the hash.
    ///
    /// This models the paper's testbed (Fig. 14) and is deliberately
    /// **not** re-measured when this tree's kernel changes: on the
    /// development VM the real one-block digest is ~73 ns on the SHA
    /// extensions (323 ns on the scalar rounds before them) against the
    /// model's 28.
    pub sha256_ns: f64,
}

impl CostModel {
    /// Constants calibrated to the paper's testbed (i7-6700 @ 3.4 GHz).
    pub fn paper_default() -> Self {
        CostModel {
            base_ns: 24.0,
            sketch_ns: 10.0,
            nzc_copy_ns: 7.0,
            full_copy_fixed_ns: 72.0,
            full_copy_per_byte_ns: 0.18,
            lookup_core_ns: 24.0,
            llc_bytes: 8 << 20,
            dram_ramp_ns: 40.0,
            native_stall_factor: 0.75,
            sha256_ns: 28.0,
        }
    }

    /// Memory-stall term for a rule table of `table_bytes` under `epc`.
    pub fn mem_stall_ns(&self, table_bytes: usize, epc: &EpcConfig) -> f64 {
        if table_bytes <= self.llc_bytes {
            return 0.0;
        }
        let usable = epc.usable_bytes.max(self.llc_bytes + 1);
        if table_bytes <= usable {
            self.dram_ramp_ns * (table_bytes - self.llc_bytes) as f64
                / (usable - self.llc_bytes) as f64
        } else {
            let usage = EpcUsage::new(*epc);
            self.dram_ramp_ns * usage.access_multiplier_for(table_bytes)
        }
    }

    /// Full per-packet cost in nanoseconds.
    ///
    /// `table_bytes` is the enclave's rule-table working set; `hashed` is
    /// true when the packet takes the SHA-256 hash-based decision path.
    pub fn packet_cost_ns(
        &self,
        mode: FilterMode,
        wire_size: u16,
        table_bytes: usize,
        hashed: bool,
        epc: &EpcConfig,
    ) -> u64 {
        let stall = self.mem_stall_ns(table_bytes, epc);
        let cost = match mode {
            FilterMode::Native => {
                self.base_ns
                    + self.sketch_ns
                    + self.lookup_core_ns
                    + stall * self.native_stall_factor
            }
            FilterMode::SgxNearZeroCopy => {
                self.base_ns + self.nzc_copy_ns + self.sketch_ns + self.lookup_core_ns + stall
            }
            FilterMode::SgxFullCopy => {
                self.base_ns
                    + self.full_copy_fixed_ns
                    + self.full_copy_per_byte_ns * wire_size as f64
                    + self.sketch_ns
                    + self.lookup_core_ns
                    + stall
            }
        };
        let cost = if hashed { cost + self.sha256_ns } else { cost };
        cost.round().max(1.0) as u64
    }

    /// Packet-rate capacity (Mpps) of a filter in the given configuration —
    /// the reciprocal of the per-packet cost.
    pub fn capacity_mpps(
        &self,
        mode: FilterMode,
        wire_size: u16,
        table_bytes: usize,
        epc: &EpcConfig,
    ) -> f64 {
        1e3 / self.packet_cost_ns(mode, wire_size, table_bytes, false, epc) as f64
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
    /// the wire), on the shared telemetry histogram: exact mean/min/max
    /// and O(64) bucket-resolution percentiles.
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
        let wire_bytes = self.processed_bytes + self.processed * WIRE_OVERHEAD_BYTES as u64;
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
}

/// Runs `traffic` (sorted by arrival time) through the pipeline, charging
/// each packet's filter time as `price(packet, outcome)`.
///
/// Each RX burst is admitted packet-by-packet against the ring occupancy,
/// then the admitted packets flow through the filter stage *as one batch*
/// ([`PacketStage::process_batch`]); the priced outcomes then advance the
/// filter and TX clocks in order. Ring slots freed by filter completions
/// are reclaimed at burst granularity (the filter thread signals
/// completion when it hands a burst to TX), which matches the DPDK
/// burst-dequeue behavior the paper's pipeline is built on.
///
/// # Panics
///
/// Panics if `traffic` is not sorted by `arrival_ns` or config is
/// degenerate (zero burst or ring capacity).
pub fn run(
    traffic: &[Packet],
    stage: &mut dyn PacketStage,
    price: impl Fn(&Packet, &StageOutcome) -> u64,
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

        // Phase 3 — advance the filter/TX clocks with the priced outcomes.
        for ((pkt, &rx_done), outcome) in admitted.iter().zip(&admitted_rx_done).zip(&outcomes) {
            let filter_start = rx_done.max(filter_free_at);
            let filter_done = filter_start + price(pkt, outcome);
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

/// Runs `traffic` through an enclave filter stage on the default pipeline,
/// priced by `cost` for the stage's mode on the paper's EPC.
///
/// The enclave's working set is read once, before the run: no figure
/// publishes rules mid-run, and the sketches are fixed-size, so it cannot
/// change while the traffic flows.
pub fn run_enclave(
    traffic: &[Packet],
    stage: &mut EnclaveFilterStage,
    cost: &CostModel,
) -> PipelineReport {
    let mode = stage.mode();
    let table_bytes = stage.enclave().in_enclave_thread(|app| app.table_bytes());
    let epc = EpcConfig::paper_default();
    run(
        traffic,
        stage,
        |pkt, o| cost.packet_cost_ns(mode, pkt.wire_size, table_bytes, o.hashed, &epc),
        &PipelineConfig::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vif_dataplane::{FiveTuple, FlowSet, Protocol, TrafficConfig, TrafficGenerator};

    fn epc() -> EpcConfig {
        EpcConfig::paper_default()
    }

    /// The 3,000-rule table size (≈14.5 KB per rule + fixed overhead).
    const TABLE_3K: usize = 47 << 20;

    #[test]
    fn near_zero_copy_64b_is_about_8gbps() {
        // Throughput in the paper's convention (wire rate: frame + 20 B
        // Ethernet preamble/IFG): "8 Gb/s throughput performance even with
        // 64 Byte packets and 3,000 filter rules" (§V-B).
        let m = CostModel::paper_default();
        let mpps = m.capacity_mpps(FilterMode::SgxNearZeroCopy, 64, TABLE_3K, &epc());
        let wire_gbps = mpps * 1e6 * (64.0 + 20.0) * 8.0 / 1e9;
        assert!(
            (7.0..9.0).contains(&wire_gbps),
            "NZC 64B = {wire_gbps} Gb/s"
        );
    }

    #[test]
    fn full_copy_caps_near_6mpps() {
        let m = CostModel::paper_default();
        for size in [64u16, 128, 256] {
            let mpps = m.capacity_mpps(FilterMode::SgxFullCopy, size, TABLE_3K, &epc());
            assert!(
                (4.5..7.0).contains(&mpps),
                "full-copy {size}B = {mpps} Mpps"
            );
        }
    }

    #[test]
    fn all_modes_line_rate_at_256b_and_above() {
        let m = CostModel::paper_default();
        let line_pps_256 = 10e9 / ((256.0 + 20.0) * 8.0) / 1e6; // ≈4.53 Mpps
        for mode in FilterMode::ALL {
            let cap = m.capacity_mpps(mode, 256, TABLE_3K, &epc());
            assert!(
                cap >= line_pps_256,
                "{mode} at 256B: {cap} Mpps < line {line_pps_256}"
            );
        }
    }

    #[test]
    fn native_beats_sgx_modes() {
        let m = CostModel::paper_default();
        let native = m.packet_cost_ns(FilterMode::Native, 64, TABLE_3K, false, &epc());
        let nzc = m.packet_cost_ns(FilterMode::SgxNearZeroCopy, 64, TABLE_3K, false, &epc());
        let full = m.packet_cost_ns(FilterMode::SgxFullCopy, 64, TABLE_3K, false, &epc());
        assert!(native < nzc, "native {native} !< nzc {nzc}");
        assert!(nzc < full, "nzc {nzc} !< full {full}");
    }

    #[test]
    fn full_copy_costs_more_than_near_zero_copy_at_1500b() {
        let m = CostModel::paper_default();
        let nzc = m.packet_cost_ns(FilterMode::SgxNearZeroCopy, 1500, 0, false, &epc());
        let full = m.packet_cost_ns(FilterMode::SgxFullCopy, 1500, 0, false, &epc());
        assert!(full > nzc, "full {full} !> nzc {nzc}");
    }

    #[test]
    fn cost_collapses_beyond_epc() {
        let m = CostModel::paper_default();
        let inside = m.packet_cost_ns(FilterMode::SgxNearZeroCopy, 64, 80 << 20, false, &epc());
        let beyond = m.packet_cost_ns(FilterMode::SgxNearZeroCopy, 64, 150 << 20, false, &epc());
        assert!(
            beyond as f64 > inside as f64 * 3.0,
            "EPC cliff missing: {inside} -> {beyond}"
        );
    }

    #[test]
    fn stall_zero_within_llc() {
        let m = CostModel::paper_default();
        assert_eq!(m.mem_stall_ns(1 << 20, &epc()), 0.0);
        assert_eq!(m.mem_stall_ns(8 << 20, &epc()), 0.0);
    }

    #[test]
    fn stall_monotonic() {
        let m = CostModel::paper_default();
        let mut last = -1.0;
        for mb in (0..200).step_by(5) {
            let s = m.mem_stall_ns(mb << 20, &epc());
            assert!(s >= last, "stall not monotonic at {mb} MB");
            last = s;
        }
    }

    #[test]
    fn hash_penalty_bounded_at_64b() {
        // Fig. 14: ≤ ~25% degradation at 64 B, hash ratio 1.0.
        let m = CostModel::paper_default();
        let plain = m.packet_cost_ns(FilterMode::SgxNearZeroCopy, 64, TABLE_3K, false, &epc());
        let hashed = m.packet_cost_ns(FilterMode::SgxNearZeroCopy, 64, TABLE_3K, true, &epc());
        let ratio = plain as f64 / hashed as f64;
        assert!(
            (0.70..0.85).contains(&ratio),
            "hashed/plain throughput ratio {ratio}"
        );
    }

    #[test]
    fn minimum_cost_one_ns() {
        let m = CostModel {
            base_ns: 0.0,
            sketch_ns: 0.0,
            nzc_copy_ns: 0.0,
            full_copy_fixed_ns: 0.0,
            full_copy_per_byte_ns: 0.0,
            lookup_core_ns: 0.0,
            llc_bytes: 1 << 30,
            dram_ramp_ns: 0.0,
            native_stall_factor: 1.0,
            sha256_ns: 0.0,
        };
        assert_eq!(
            m.packet_cost_ns(FilterMode::Native, 64, 0, false, &epc()),
            1
        );
    }

    fn forward(_pkt: &Packet) -> StageOutcome {
        StageOutcome {
            verdict: StageVerdict::Forward,
            hashed: false,
        }
    }

    /// A price function charging every packet `ns`.
    fn flat(ns: u64) -> impl Fn(&Packet, &StageOutcome) -> u64 {
        move |_, _| ns
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
        let r = run(&t, &mut forward, flat(30), &PipelineConfig::default());
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
        let r = run(&t, &mut forward, flat(500), &PipelineConfig::default());
        assert!(r.overflow > 0, "expected ring overflow");
        let mpps = r.throughput_mpps();
        assert!((1.7..2.3).contains(&mpps), "capacity {mpps} Mpps");
    }

    #[test]
    fn hashed_packets_are_priced_by_the_caller() {
        // The stage only reports the hash path; the price function turns
        // it into time. All-hashed at 2× the cost halves the capacity.
        let t = traffic(64, 7.6, 50_000);
        let mut hashed = |_p: &Packet| StageOutcome {
            verdict: StageVerdict::Forward,
            hashed: true,
        };
        let by_path = |_: &Packet, o: &StageOutcome| if o.hashed { 400 } else { 200 };
        let slow = run(&t, &mut hashed, by_path, &PipelineConfig::default());
        let fast = run(&t, &mut forward, by_path, &PipelineConfig::default());
        let ratio = fast.throughput_mpps() / slow.throughput_mpps();
        assert!((1.8..2.2).contains(&ratio), "capacity ratio {ratio}");
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
                hashed: false,
            }
        };
        let r = run(&t, &mut stage, flat(50), &PipelineConfig::default());
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
            let r = run(&t, &mut forward, flat(60), &PipelineConfig::default());
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
        let r = run(&[], &mut forward, flat(10), &PipelineConfig::default());
        assert_eq!(r.offered, 0);
        assert_eq!(r.throughput_gbps(), 0.0);
        assert_eq!(r.latency_percentile_ns(99.0), 0);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_traffic_rejected() {
        let t0 = Packet::new(FiveTuple::new(1, 2, 3, 4, Protocol::Udp), 64, 100, 0);
        let t1 = Packet::new(FiveTuple::new(1, 2, 3, 4, Protocol::Udp), 64, 50, 1);
        run(
            &[t0, t1],
            &mut forward,
            flat(10),
            &PipelineConfig::default(),
        );
    }

    #[test]
    fn percentiles_are_ordered() {
        let t = traffic(512, 6.0, 5_000);
        let r = run(&t, &mut forward, flat(100), &PipelineConfig::default());
        let p50 = r.latency_percentile_ns(50.0);
        let p99 = r.latency_percentile_ns(99.0);
        assert!(p50 <= p99);
        assert!(r.mean_latency_ns() > 0.0);
    }

    proptest! {
        /// Pipeline conservation: offered = processed + overflow,
        /// processed = forwarded + filtered.
        #[test]
        fn pipeline_conservation(
            cost in 1u64..2000,
            drop_every in 1u64..10,
            size in prop::sample::select(vec![64u16, 128, 512, 1500]),
            gbps in 1.0f64..9.0,
        ) {
            let flows = FlowSet::random_toward_victim(8, 1, 1);
            let traffic = TrafficGenerator::new(2).generate(
                &flows,
                TrafficConfig { packet_size: size, offered_gbps: gbps, count: 2000 },
            );
            let mut n = 0u64;
            let mut stage = move |_p: &Packet| {
                n += 1;
                StageOutcome {
                    verdict: if n.is_multiple_of(drop_every) { StageVerdict::Drop } else { StageVerdict::Forward },
                    hashed: false,
                }
            };
            let r = run(&traffic, &mut stage, flat(cost), &PipelineConfig::default());
            prop_assert_eq!(r.offered, 2000);
            prop_assert_eq!(r.processed + r.overflow, r.offered);
            prop_assert_eq!(r.forwarded + r.filtered, r.processed);
            prop_assert!(r.throughput_mpps() >= 0.0);
        }

        /// Measured capacity under saturation tracks 1/cost within 20%.
        #[test]
        fn saturated_capacity_tracks_cost(cost in 100u64..1500) {
            let flows = FlowSet::random_toward_victim(8, 1, 1);
            let traffic = TrafficGenerator::new(3).generate(
                &flows,
                TrafficConfig::saturating_10g(64, 3),
            );
            let r = run(&traffic, &mut forward, flat(cost), &PipelineConfig::default());
            let expected_mpps = 1e3 / cost as f64;
            let measured = r.throughput_mpps();
            prop_assert!(
                (measured - expected_mpps).abs() / expected_mpps < 0.2,
                "cost {cost}: measured {measured} vs expected {expected_mpps}"
            );
        }
    }
}
