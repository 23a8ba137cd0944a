//! # vif-sgx
//!
//! A faithful *simulator* of the Intel SGX mechanisms that VIF relies on
//! (paper §II-C, §III, Appendix G). This reproduction runs without SGX
//! hardware, so this crate models the architectural features that the
//! paper's design and evaluation depend on:
//!
//! - **Isolated execution** ([`enclave`]): an [`enclave::Enclave`] owns its
//!   protected state; the untrusted host can reach it *only* through
//!   explicit `ECall`s, which are counted — reproducing the integrity
//!   guarantee and letting tests pin VIF's "one ECall, zero OCalls"
//!   data-plane design (§V-A).
//! - **EPC memory limits** ([`epc`]): the ~92 MB usable Enclave Page Cache
//!   and a paging-cost model for working sets that exceed it — the
//!   constraint that caps each filter at ≈3,000 rules (Fig. 3) and drives
//!   the multi-enclave design (§IV).
//! - **Measurement & remote attestation** ([`measure`], [`attest`]): code
//!   measurement (`MRENCLAVE`), platform-keyed quotes, and an Intel
//!   Attestation Service (IAS) verifier with a WAN latency model calibrated
//!   to the paper's Appendix G numbers (≈28.8 ms quote generation, ≈3.04 s
//!   end-to-end).
//!
//! ## Substitution note (see DESIGN.md)
//!
//! EPID group signatures are replaced by HMAC-SHA-256 under a simulated
//! hardware root key shared between the quoting enclave and the IAS. The
//! *protocol shape* — challenge, report, quote, IAS verdict — and all the
//! trust relationships are preserved; only the signature primitive differs.
//!
//! # Example
//!
//! ```
//! use vif_sgx::prelude::*;
//!
//! let root = AttestationRootKey::new([7u8; 32]);
//! let platform = SgxPlatform::new(1, EpcConfig::paper_default(), &root);
//! let image = EnclaveImage::new("vif-filter", 1, b"filter code".to_vec());
//!
//! // Launch an enclave holding protected state (here, a counter).
//! let mut enclave = platform.launch(image.clone(), 0u64);
//! enclave.ecall(|count| *count += 1);
//!
//! // Remote attestation: quote the enclave, verify at the IAS.
//! let quote = enclave.quote([0u8; 64]);
//! let ias = AttestationService::new(root.clone());
//! let report = ias.verify_quote(&quote).unwrap();
//! assert_eq!(report.quote.report.measurement, image.measurement());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attest;
pub mod enclave;
pub mod epc;
pub mod measure;

/// Convenient re-exports of the crate's primary types.
pub mod prelude {
    pub use crate::attest::{
        AttestationError, AttestationLatencyModel, AttestationReport, AttestationRootKey,
        AttestationService, IasVerifier, Quote, Report,
    };
    pub use crate::enclave::{Enclave, SgxPlatform};
    pub use crate::epc::{EpcConfig, EpcUsage};
    pub use crate::measure::{EnclaveImage, Measurement};
}

pub use prelude::*;
