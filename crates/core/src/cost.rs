//! Calibrated data-plane cost model.
//!
//! The reproduction has no SGX hardware or 10 GbE testbed, so the paper's
//! measured per-packet costs are reproduced by an explicit model (see
//! DESIGN.md). Every constant is documented and the defaults are calibrated
//! against the paper's §V-B envelope:
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
//! the EPC paging penalty ([`vif_sgx::epc::EpcUsage::access_multiplier_for`])
//! once the working set exceeds the EPC.
//!
//! Telemetry recording is **not** a term of this model: the hot path
//! batches into a stack-resident [`vif_telemetry::WorkerScratch`]
//! (one branch, two increments, and a log2-bucket add per packet —
//! single-digit real nanoseconds, merged into shared atomics once per
//! round at the flush barrier), which is below the model's resolution.
//! The real-machine cost is tracked empirically instead: the
//! `telemetry_overhead` bench runs the same service hot path with
//! recording off and on, and `scripts/bench_regress.py` gates the
//! on/off ratio against the ≤5 % budget in `BENCH_hotpath.json`.

use vif_sgx::epc::{EpcConfig, EpcUsage};

/// Filter implementation variants benchmarked in Figs. 8 and 13.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FilterMode {
    /// The filter running as a plain userspace process (no SGX).
    Native,
    /// SGX enclave copying the full packet into the EPC (the baseline
    /// approach of prior SGX middleboxes, Fig. 7a).
    SgxFullCopy,
    /// SGX enclave copying only ⟨5-tuple, size, mbuf reference⟩ — VIF's
    /// near-zero-copy design (Fig. 7b).
    SgxNearZeroCopy,
}

impl FilterMode {
    /// All three modes in the order the paper plots them.
    pub const ALL: [FilterMode; 3] = [
        FilterMode::Native,
        FilterMode::SgxFullCopy,
        FilterMode::SgxNearZeroCopy,
    ];
}

impl std::fmt::Display for FilterMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FilterMode::Native => write!(f, "Native (no SGX)"),
            FilterMode::SgxFullCopy => write!(f, "SGX with full packet copy"),
            FilterMode::SgxNearZeroCopy => write!(f, "SGX with near zero copy"),
        }
    }
}

/// Per-packet cost constants (simulated nanoseconds).
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Fixed per-packet work: header parse, verdict, ring operations, and
    /// the exact-match table probe (a multiply-xor fast-hash lookup —
    /// [`crate::fasthash`] — not std's per-byte SipHash).
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
    /// ([`crate::classifier`]): flat array reads, allocation-free — the
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

impl Default for CostModel {
    fn default() -> Self {
        Self::paper_default()
    }
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
