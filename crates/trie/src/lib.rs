//! # vif-trie
//!
//! Multi-bit trie rule lookup table — the data structure behind the VIF
//! filter's rule matching (paper §IV-A, §V-A: "the state-of-the-art
//! multi-bit tries data structure for looking up the filter rules").
//!
//! Provides:
//! - [`Ipv4Prefix`]: a validated IPv4 prefix (`addr/len`, host bits zero),
//! - [`MultiBitTrie`]: a stride-configurable multi-bit trie with controlled
//!   prefix expansion, longest-prefix-match lookup, incremental and batch
//!   (rebuild) insertion, and byte-level memory accounting. The memory
//!   accounting feeds the paper's per-enclave memory cost model
//!   `C_j = u·(#rules) + v` (§IV-B) and the EPC-limit experiments (Fig. 3b).
//!
//! Batch insertion rebuilds the table as a whole, mirroring the paper's
//! hybrid connection-preserving design in which newly observed flows are
//! promoted to exact-match rules in batches at every rule-update period
//! (Appendix F, Table II).
//!
//! For the per-packet path, [`MultiBitTrie::compile`] produces a
//! [`CompiledTrie`]: a flat, read-only stride-walk structure whose
//! covering-prefix queries ([`CompiledTrie::path`]) run with no hashing,
//! no ordered-map probes, and no heap allocation — the lookup engine of
//! `vif-core`'s compiled classifier.
//!
//! # Example
//!
//! ```
//! use vif_trie::{Ipv4Prefix, MultiBitTrie};
//! let mut t = MultiBitTrie::new(4);
//! t.insert("10.0.0.0/8".parse().unwrap(), "coarse");
//! t.insert("10.1.0.0/16".parse().unwrap(), "finer");
//! let hit = t.lookup(u32::from_be_bytes([10, 1, 2, 3])).unwrap();
//! assert_eq!(*hit.value, "finer"); // longest prefix wins
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compiled;
pub mod prefix;
pub mod trie;

pub use compiled::{CompiledPath, CompiledTrie, NodeRecycler};
pub use prefix::{Ipv4Prefix, PrefixParseError};
pub use trie::{MultiBitTrie, RuleMatch};
