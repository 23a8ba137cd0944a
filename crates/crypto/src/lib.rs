//! # vif-crypto
//!
//! Self-contained cryptographic substrate for the VIF reproduction.
//!
//! The paper's implementation relies on an SSL library inside the enclave
//! (remote attestation, TLS channels to the DDoS victim) and on SHA-256 for
//! hash-based connection-preserving filtering (Appendix A). None of the
//! crates permitted for this reproduction provide these primitives, so this
//! crate implements them from scratch:
//!
//! - [`sha256`]: FIPS 180-4 SHA-256 (streaming + one-shot),
//! - [`hmac`]: RFC 2104 HMAC-SHA-256 with constant-time verification,
//! - [`kdf`]: RFC 5869 HKDF (extract/expand),
//! - [`bignum`]: fixed-purpose big unsigned integers (Knuth Algorithm D
//!   division, square-and-multiply modular exponentiation),
//! - [`dh`]: finite-field Diffie-Hellman over the RFC 3526 2048-bit MODP
//!   group (group 14) plus a small test group,
//! - [`channel`]: an encrypt-then-MAC authenticated channel with replay
//!   protection, standing in for the paper's TLS session between a victim
//!   network and a VIF enclave,
//! - [`hex`]: hexadecimal encoding helpers used throughout tests and tools.
//!
//! # Security note
//!
//! These are textbook implementations intended for a research reproduction:
//! correct and tested against official vectors, but not hardened against
//! side channels beyond constant-time tag comparison. The paper itself
//! declares side-channel attacks out of scope (§II-D).
//!
//! # `unsafe` policy
//!
//! The crate is `deny(unsafe_code)` with exactly one `allow`: the call in
//! `sha256::compress_blocks` that enters the SHA-extension kernel. That
//! kernel is itself a *safe* `#[target_feature]` fn — it moves words in and
//! out of vector registers by value and touches no pointer — so the only
//! thing the `unsafe` asserts is that the CPU has the features, and the
//! `is_x86_feature_detected!` check on the line above it is that proof.
//! It is the same audited-helper exception `vif_sketch` makes for
//! `_mm_prefetch`. Selection is automatic (no cargo feature, no
//! environment variable); [`sha256::kernel`] names the kernel in use, and
//! the scalar rounds remain both the path on every other CPU and the
//! oracle the hardware path is tested against.
//!
//! `sha256rnds2` / `sha256msg1` / `sha256msg2` are ordinary user-mode
//! instructions and legal inside an SGX enclave. Server parts have them
//! from Ice Lake-SP on (every SGX-capable Xeon since); the paper's own
//! testbed CPU, the Skylake i7-6700, and the other client SGX parts of
//! that era (Skylake to Coffee Lake) do not, and run the scalar rounds.
//!
//! # Example
//!
//! ```
//! use vif_crypto::sha256::Sha256;
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(
//!     vif_crypto::hex::encode(&digest),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bignum;
pub mod channel;
pub mod dh;
pub mod hex;
pub mod hmac;
pub mod kdf;
pub mod sha256;

pub use channel::{ChannelError, SecureChannel};
pub use dh::{DhGroup, DhKeyPair};
pub use hmac::HmacSha256;
pub use sha256::Sha256;
