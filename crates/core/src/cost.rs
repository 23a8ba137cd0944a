//! The filter implementation variants the paper compares (§V-B).
//!
//! [`FilterMode`] names how the filter meets the packet: natively, or in
//! an SGX enclave with a full or a near-zero packet copy. The live
//! [`EnclaveFilterStage`](crate::enclave_app::EnclaveFilterStage) carries
//! its mode; what each mode costs on the paper's testbed is priced by the
//! calibrated model beside the `repro` figures (`vif_bench::model`).

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
