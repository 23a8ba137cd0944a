//! RFC 2104 HMAC-SHA-256 with constant-time verification.
//!
//! HMAC authenticates every artifact the untrusted filtering network relays
//! on behalf of an enclave: attestation quotes (signed by the simulated
//! hardware key), exported sketch packet logs, and rule-set acknowledgements.

use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// Streaming HMAC-SHA-256.
///
/// # Example
///
/// ```
/// use vif_crypto::hmac::HmacSha256;
/// let tag = HmacSha256::mac(b"key", b"message");
/// assert!(HmacSha256::verify(b"key", b"message", &tag));
/// assert!(!HmacSha256::verify(b"key", b"tampered", &tag));
/// ```
#[derive(Debug, Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    /// The outer hash with the `opad` key block already absorbed, so a
    /// `clone()` of a keyed instance costs no compression.
    outer: Sha256,
}

impl HmacSha256 {
    /// Creates a new MAC instance keyed with `key`.
    ///
    /// Keys longer than the block size are hashed first, per RFC 2104.
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let d = Sha256::digest(key);
            k[..DIGEST_LEN].copy_from_slice(&d);
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = k[i] ^ 0x36;
            opad[i] = k[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacSha256 { inner, outer }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Produces the authentication tag, consuming the instance.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        self.outer.update(&self.inner.finalize());
        self.outer.finalize()
    }

    /// One-shot MAC of `data` under `key`.
    pub fn mac(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = HmacSha256::new(key);
        h.update(data);
        h.finalize()
    }

    /// Verifies `tag` over `data` under `key` in constant time.
    pub fn verify(key: &[u8], data: &[u8], tag: &[u8]) -> bool {
        let expected = Self::mac(key, data);
        constant_time_eq(&expected, tag)
    }
}

/// Constant-time byte-slice equality (length leaks, contents do not).
pub fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use crate::sha256::tests::{digest_with, Kernel, KERNELS};

    /// RFC 4231 test cases 1, 2, 3 and 6 (key longer than a block).
    fn rfc4231() -> [(Vec<u8>, Vec<u8>, &'static str); 4] {
        [
            (
                vec![0x0b; 20],
                b"Hi There".to_vec(),
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe".to_vec(),
                b"what do ya want for nothing?".to_vec(),
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                vec![0xaa; 20],
                vec![0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                vec![0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
        ]
    }

    #[test]
    fn rfc4231_vectors() {
        for (key, data, want) in rfc4231() {
            assert_eq!(hex::encode(&HmacSha256::mac(&key, &data)), want);
        }
    }

    /// RFC 2104 spelled out over one compression kernel, with no
    /// `Sha256` / `HmacSha256` in the path.
    fn hmac_with(kernel: Kernel, key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            k[..DIGEST_LEN].copy_from_slice(&digest_with(kernel, key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let inner = [&k.map(|b| b ^ 0x36)[..], data].concat();
        let outer = [&k.map(|b| b ^ 0x5c)[..], &digest_with(kernel, &inner)].concat();
        digest_with(kernel, &outer)
    }

    #[test]
    fn rfc4231_vectors_on_both_kernels() {
        for (name, kernel) in KERNELS {
            for (key, data, want) in rfc4231() {
                assert_eq!(hex::encode(&hmac_with(kernel, &key, &data)), want, "{name}");
            }
        }
    }

    #[test]
    fn streaming_matches_oneshot() {
        let mut h = HmacSha256::new(b"k");
        h.update(b"hello ");
        h.update(b"world");
        assert_eq!(h.finalize(), HmacSha256::mac(b"k", b"hello world"));
    }

    #[test]
    fn verify_rejects_wrong_length() {
        let tag = HmacSha256::mac(b"k", b"m");
        assert!(!HmacSha256::verify(b"k", b"m", &tag[..31]));
        assert!(HmacSha256::verify(b"k", b"m", &tag));
    }

    #[test]
    fn constant_time_eq_basics() {
        assert!(constant_time_eq(b"", b""));
        assert!(constant_time_eq(b"abc", b"abc"));
        assert!(!constant_time_eq(b"abc", b"abd"));
        assert!(!constant_time_eq(b"abc", b"ab"));
    }
}
