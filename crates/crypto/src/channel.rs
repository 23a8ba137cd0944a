//! Authenticated secure channel (encrypt-then-MAC) with replay protection.
//!
//! Stands in for the TLS session between a DDoS victim network and an
//! attested VIF enclave (paper §VI-B). After remote attestation, both sides
//! hold a Diffie-Hellman shared secret; [`SecureChannel::pair_from_secret`]
//! derives four directional keys (encrypt + MAC, each way) via HKDF and
//! yields two connected endpoints.
//!
//! Confidentiality uses a counter-mode keystream built from HMAC-SHA-256 as
//! a PRF (textbook CTR-over-PRF construction); integrity is HMAC-SHA-256
//! over `(sequence number ‖ ciphertext)`, which also defeats replays and
//! reorderings by the untrusted filtering network that carries the bytes.

use crate::hmac::{constant_time_eq, HmacSha256};
use crate::kdf;
use crate::sha256::DIGEST_LEN;

/// Length of the per-message authentication tag.
pub const TAG_LEN: usize = DIGEST_LEN;

/// Errors returned when opening a sealed message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelError {
    /// Message shorter than the minimum frame (sequence + tag).
    Truncated,
    /// Authentication tag mismatch: forged or corrupted message.
    BadTag,
    /// Sequence number is not the next expected one: replay or reorder.
    Replay {
        /// Sequence number expected next.
        expected: u64,
        /// Sequence number carried by the message.
        got: u64,
    },
}

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelError::Truncated => write!(f, "message truncated"),
            ChannelError::BadTag => write!(f, "authentication tag mismatch"),
            ChannelError::Replay { expected, got } => {
                write!(f, "sequence mismatch: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for ChannelError {}

/// One endpoint of an authenticated channel.
///
/// # Example
///
/// ```
/// use vif_crypto::channel::SecureChannel;
/// let (mut victim, mut enclave) = SecureChannel::pair_from_secret(b"dh shared secret", b"vif session 1");
/// let wire = victim.seal(b"Drop 50% of HTTP flows");
/// assert_eq!(enclave.open(&wire).unwrap(), b"Drop 50% of HTTP flows");
/// ```
#[derive(Debug, Clone)]
pub struct SecureChannel {
    enc_key_out: [u8; 32],
    mac_key_out: [u8; 32],
    enc_key_in: [u8; 32],
    mac_key_in: [u8; 32],
    seq_out: u64,
    seq_in: u64,
}

impl SecureChannel {
    /// Derives a connected pair of endpoints (initiator, responder) from a
    /// shared secret and a context label (e.g., session identifier).
    pub fn pair_from_secret(
        shared_secret: &[u8],
        context: &[u8],
    ) -> (SecureChannel, SecureChannel) {
        let okm = kdf::hkdf(b"vif-channel-v1", shared_secret, context, 128);
        let key = |i: usize| -> [u8; 32] {
            let mut k = [0u8; 32];
            k.copy_from_slice(&okm[i * 32..(i + 1) * 32]);
            k
        };
        let initiator = SecureChannel {
            enc_key_out: key(0),
            mac_key_out: key(1),
            enc_key_in: key(2),
            mac_key_in: key(3),
            seq_out: 0,
            seq_in: 0,
        };
        let responder = SecureChannel {
            enc_key_out: key(2),
            mac_key_out: key(3),
            enc_key_in: key(0),
            mac_key_in: key(1),
            seq_out: 0,
            seq_in: 0,
        };
        (initiator, responder)
    }

    /// Encrypts and authenticates `plaintext`, producing a wire frame
    /// `seq(8) ‖ ciphertext ‖ tag(32)` and advancing the send sequence.
    pub fn seal(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let seq = self.seq_out;
        self.seq_out += 1;
        let mut frame = Vec::with_capacity(8 + plaintext.len() + TAG_LEN);
        frame.extend_from_slice(&seq.to_be_bytes());
        let mut ct = plaintext.to_vec();
        apply_keystream(&self.enc_key_out, seq, &mut ct);
        frame.extend_from_slice(&ct);
        let mut mac = HmacSha256::new(&self.mac_key_out);
        mac.update(&frame);
        frame.extend_from_slice(&mac.finalize());
        frame
    }

    /// Verifies and decrypts a frame produced by the peer's [`seal`].
    ///
    /// # Errors
    ///
    /// [`ChannelError::Truncated`] for short frames, [`ChannelError::BadTag`]
    /// on MAC failure, [`ChannelError::Replay`] for out-of-order sequence
    /// numbers (strictly increasing by one is required).
    ///
    /// [`seal`]: SecureChannel::seal
    pub fn open(&mut self, frame: &[u8]) -> Result<Vec<u8>, ChannelError> {
        if frame.len() < 8 + TAG_LEN {
            return Err(ChannelError::Truncated);
        }
        let (body, tag) = frame.split_at(frame.len() - TAG_LEN);
        let mut mac = HmacSha256::new(&self.mac_key_in);
        mac.update(body);
        if !constant_time_eq(&mac.finalize(), tag) {
            return Err(ChannelError::BadTag);
        }
        let seq = u64::from_be_bytes(body[..8].try_into().expect("checked length"));
        if seq != self.seq_in {
            return Err(ChannelError::Replay {
                expected: self.seq_in,
                got: seq,
            });
        }
        self.seq_in += 1;
        let mut pt = body[8..].to_vec();
        apply_keystream(&self.enc_key_in, seq, &mut pt);
        Ok(pt)
    }

    /// Number of messages sealed so far.
    pub fn sent_count(&self) -> u64 {
        self.seq_out
    }

    /// Number of messages successfully opened so far.
    pub fn received_count(&self) -> u64 {
        self.seq_in
    }
}

/// XORs `buf` with a keystream generated as `HMAC(key, seq ‖ block_index)`.
fn apply_keystream(key: &[u8; 32], seq: u64, buf: &mut [u8]) {
    // Keyed once: each block clones the state that has absorbed the key
    // pad instead of compressing it again.
    let keyed = HmacSha256::new(key);
    for (block_index, chunk) in buf.chunks_mut(DIGEST_LEN).enumerate() {
        let mut h = keyed.clone();
        h.update(&seq.to_be_bytes());
        h.update(&(block_index as u64).to_be_bytes());
        let ks = h.finalize();
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn pair() -> (SecureChannel, SecureChannel) {
        SecureChannel::pair_from_secret(b"secret", b"test")
    }

    #[test]
    fn roundtrip_both_directions() {
        let (mut a, mut b) = pair();
        let f1 = a.seal(b"hello enclave");
        assert_eq!(b.open(&f1).unwrap(), b"hello enclave");
        let f2 = b.seal(b"hello victim");
        assert_eq!(a.open(&f2).unwrap(), b"hello victim");
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let (mut a, _) = pair();
        let frame = a.seal(b"sensitive filter rule");
        assert!(!frame.windows(b"sensitive".len()).any(|w| w == b"sensitive"));
    }

    #[test]
    fn tamper_detected() {
        let (mut a, mut b) = pair();
        let mut frame = a.seal(b"data");
        frame[9] ^= 0x01;
        assert_eq!(b.open(&frame), Err(ChannelError::BadTag));
    }

    #[test]
    fn replay_detected() {
        let (mut a, mut b) = pair();
        let frame = a.seal(b"one");
        assert!(b.open(&frame).is_ok());
        assert_eq!(
            b.open(&frame),
            Err(ChannelError::Replay {
                expected: 1,
                got: 0
            })
        );
    }

    #[test]
    fn reorder_detected() {
        let (mut a, mut b) = pair();
        let f0 = a.seal(b"zero");
        let f1 = a.seal(b"one");
        assert_eq!(
            b.open(&f1),
            Err(ChannelError::Replay {
                expected: 0,
                got: 1
            })
        );
        // f0 still opens fine afterwards.
        assert_eq!(b.open(&f0).unwrap(), b"zero");
    }

    #[test]
    fn truncated_detected() {
        let (mut a, mut b) = pair();
        let frame = a.seal(b"x");
        assert_eq!(b.open(&frame[..10]), Err(ChannelError::Truncated));
    }

    #[test]
    fn cross_session_frames_rejected() {
        let (mut a, _) = SecureChannel::pair_from_secret(b"secret", b"session-1");
        let (_, mut b2) = SecureChannel::pair_from_secret(b"secret", b"session-2");
        let frame = a.seal(b"data");
        assert_eq!(b2.open(&frame), Err(ChannelError::BadTag));
    }

    #[test]
    fn empty_message() {
        let (mut a, mut b) = pair();
        let frame = a.seal(b"");
        assert_eq!(b.open(&frame).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn large_message_multiblock_keystream() {
        let (mut a, mut b) = pair();
        let msg: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let frame = a.seal(&msg);
        assert_eq!(b.open(&frame).unwrap(), msg);
    }

    #[test]
    fn sealed_frame_known_answer() {
        // Fixed secret, label, sequence number 1 and a 70-byte plaintext
        // (three keystream blocks, the last one partial): the wire bytes
        // must not depend on how the keystream's HMAC state is keyed,
        // cloned or compressed.
        let (mut a, mut b) = SecureChannel::pair_from_secret(b"pinned dh secret", b"pinned label");
        let first = a.seal(b"");
        let plaintext: Vec<u8> = (0..70u8).collect();
        let frame = a.seal(&plaintext);
        assert_eq!(hex::encode(&frame), SEALED_FRAME_SEQ1);
        b.open(&first).unwrap();
        assert_eq!(b.open(&frame).unwrap(), plaintext);
    }

    const SEALED_FRAME_SEQ1: &str = concat!(
        "000000000000000128d83c4a6feb949f47492d333a47e7da54678713f244bfa3",
        "24124826f948d4b3653da1a567fd0b00ca2c5275fbe272e9e8b064a1eef3d7bd",
        "bfba1337d5f7932c62e4e9852121373b76c85ad1c992bd613ca1980868fa1e60",
        "59bdadb73b81fb99e527b1a1eddf",
    );

    #[test]
    fn counters_track() {
        let (mut a, mut b) = pair();
        for i in 0..5 {
            assert_eq!(a.sent_count(), i);
            let f = a.seal(b"m");
            b.open(&f).unwrap();
        }
        assert_eq!(a.sent_count(), 5);
        assert_eq!(b.received_count(), 5);
    }
}
