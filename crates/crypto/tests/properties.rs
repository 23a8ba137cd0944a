//! Property-based tests for the crypto substrate.

use proptest::collection::vec;
use proptest::prelude::*;
use vif_crypto::bignum::BigUint;
use vif_crypto::channel::SecureChannel;
use vif_crypto::hmac::HmacSha256;
use vif_crypto::sha256::Sha256;
use vif_crypto::{hex, kdf};

proptest! {
    /// Streaming SHA-256 equals one-shot for arbitrary chunkings — at a
    /// random length up to 4 KiB, and at one of the lengths where the
    /// padding changes shape (one block or two, either side of a block
    /// edge).
    #[test]
    fn sha256_streaming_equivalence(
        data in vec(any::<u8>(), 0..4096),
        edge in prop::sample::select(vec![55usize, 56, 63, 64, 65, 119, 120]),
        split in any::<prop::sample::Index>(),
    ) {
        let mut at_edge = data.clone();
        at_edge.resize(edge, 0xA5);
        for msg in [&data, &at_edge] {
            let cut = split.index(msg.len() + 1);
            let mut h = Sha256::new();
            h.update(&msg[..cut]);
            h.update(&msg[cut..]);
            prop_assert_eq!(h.finalize(), Sha256::digest(msg));
        }
    }

    /// The single-block fast path is bit-identical to the streaming hasher
    /// for every message that fits one padded block.
    #[test]
    fn sha256_one_block_equivalence(data in vec(any::<u8>(), 0..=55)) {
        prop_assert_eq!(Sha256::digest_one_block(&data), Sha256::digest(&data));
    }

    /// HMAC verifies its own tags and rejects any single-bit flip.
    #[test]
    fn hmac_detects_bit_flips(
        key in vec(any::<u8>(), 1..80),
        msg in vec(any::<u8>(), 1..256),
        flip in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let tag = HmacSha256::mac(&key, &msg);
        prop_assert!(HmacSha256::verify(&key, &msg, &tag));
        let mut tampered = msg.clone();
        let idx = flip.index(tampered.len());
        tampered[idx] ^= 1 << bit;
        prop_assert!(!HmacSha256::verify(&key, &tampered, &tag));
    }

    /// hex encode/decode round-trips.
    #[test]
    fn hex_roundtrip(data in vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(hex::decode(&hex::encode(&data)).unwrap(), data);
    }

    /// HKDF output length is honored and prefixes agree.
    #[test]
    fn hkdf_prefix_property(ikm in vec(any::<u8>(), 1..64), len in 1usize..128) {
        let long = kdf::hkdf(b"salt", &ikm, b"info", len.max(16));
        let short = kdf::hkdf(b"salt", &ikm, b"info", 16);
        prop_assert_eq!(&long[..short.len()], &short[..]);
    }

    /// Big-integer division reconstructs: q·d + r == n, r < d.
    #[test]
    fn bignum_divrem_reconstruction(n_bytes in vec(any::<u8>(), 1..48), d_bytes in vec(any::<u8>(), 1..24)) {
        let n = BigUint::from_be_bytes(&n_bytes);
        let d = BigUint::from_be_bytes(&d_bytes);
        prop_assume!(!d.is_zero());
        let (q, r) = n.div_rem(&d);
        prop_assert!(r < d);
        prop_assert_eq!(q.mul(&d).add(&r), n);
    }

    /// mod_exp matches u128 arithmetic on small operands.
    #[test]
    fn bignum_modexp_matches_u128(base in 0u64..1_000_000, exp in 0u32..64, m in 2u64..100_000) {
        let expected = {
            let mut acc: u128 = 1;
            for _ in 0..exp {
                acc = acc * (base as u128 % m as u128) % m as u128;
            }
            acc as u64
        };
        let got = BigUint::from_u64(base)
            .mod_exp(&BigUint::from_u64(exp as u64), &BigUint::from_u64(m));
        prop_assert_eq!(got, BigUint::from_u64(expected));
    }

    /// Channel round-trips arbitrary payload sequences, in order.
    #[test]
    fn channel_roundtrip_sequences(msgs in vec(vec(any::<u8>(), 0..200), 1..12)) {
        let (mut a, mut b) = SecureChannel::pair_from_secret(b"secret", b"prop");
        for msg in &msgs {
            let frame = a.seal(msg);
            prop_assert_eq!(&b.open(&frame).unwrap(), msg);
        }
    }

    /// Any bit flip anywhere in a frame is rejected.
    #[test]
    fn channel_rejects_any_tamper(
        msg in vec(any::<u8>(), 0..128),
        flip in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let (mut a, mut b) = SecureChannel::pair_from_secret(b"secret", b"prop2");
        let mut frame = a.seal(&msg);
        let idx = flip.index(frame.len());
        frame[idx] ^= 1 << bit;
        prop_assert!(b.open(&frame).is_err());
    }
}
