//! # vif-sketch
//!
//! Count-min sketch packet logs — the accountability substrate of VIF.
//!
//! The paper (§III-B, §V-A) keeps two sketch-based packet logs inside each
//! enclave: a **per-source-IP** sketch of the *incoming* stream (so neighbor
//! ASes can detect *drop-before-filter*) and a **per-5-tuple** sketch of the
//! *outgoing* stream (so the victim can detect *drop-after-filter* and
//! *inject-after-filter*). The paper's configuration — 2 independent linear
//! hash rows, 64 K bins — is the default here
//! ([`SketchConfig::paper_default`]). The paper's 64-bit counters took
//! ≈1 MB per sketch; here counters are 32 bits and wrap mod 2³², beside an
//! exact 64-bit total, so a sketch takes 512 KiB and a comparison refuses
//! any sketch whose total could have wrapped a counter (module [`cms`]).
//!
//! Both the enclave and the verifiers (victim network, neighbor ASes) build
//! sketches over the streams they observe using the *same seeded hash
//! family*; an honest run yields **identical counter arrays**, so bypass
//! detection reduces to comparing two sketches ([`compare()`](fn@crate::compare)).
//!
//! # Example
//!
//! ```
//! use vif_sketch::{CountMinSketch, SketchConfig};
//! let cfg = SketchConfig::paper_default(7);
//! let mut enclave_log = CountMinSketch::new(cfg.clone());
//! let mut victim_log = CountMinSketch::new(cfg);
//! for pkt in 0u64..1000 {
//!     enclave_log.add(&pkt.to_be_bytes(), 1);
//!     victim_log.add(&pkt.to_be_bytes(), 1);
//! }
//! assert!(vif_sketch::compare(&enclave_log, &victim_log).unwrap().identical());
//! ```

// `deny` rather than `forbid`: the one sanctioned exception is the
// software-prefetch hint in `cms` (an `#[allow]`-scoped intrinsic call
// with no memory effects); everything else remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cms;
pub mod compare;
pub mod hash;

pub use cms::{CountMinSketch, SketchConfig, SketchDecodeError, SketchView};
pub use compare::{compare, compare_views, CompareError, Discrepancy, SketchComparison};
