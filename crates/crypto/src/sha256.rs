//! FIPS 180-4 SHA-256.
//!
//! Streaming implementation with the usual `update`/`finalize` interface,
//! a one-shot [`Sha256::digest`] helper, a single-block path
//! ([`Sha256::digest_one_block`]) for short messages, and a single block
//! with a fixed tail built once ([`BlockTail`]) for messages whose first 16
//! bytes are all that change from call to call. Used by the enclave
//! measurement (`MRENCLAVE`), HMAC, HKDF, the hash-based
//! connection-preserving filter (paper Appendix A — its 45-byte
//! `5-tuple ‖ secret` message is a `BlockTail` per filter with the tuple as
//! the head) and the count-min sketch's keyed hash seeding.
//!
//! All of them run one compression entry, which uses the x86 SHA
//! extensions when the CPU has them and the scalar rounds otherwise
//! ([`kernel`] says which); the bytes are the same either way. The entry is
//! generic over where the message words come from: the blocks of a byte
//! slice, or a head passed by value in registers and a tail in memory.

/// Number of bytes in a SHA-256 digest.
pub const DIGEST_LEN: usize = 32;

/// Internal block size in bytes.
pub const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher.
///
/// # Example
///
/// ```
/// use vif_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), Sha256::digest(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffered: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; BLOCK_LEN],
            buffered: 0,
            total_len: 0,
        }
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Largest message that pads into a single SHA-256 block (55 bytes of
    /// data + `0x80` + 8-byte length = 64).
    pub const ONE_BLOCK_MAX: usize = BLOCK_LEN - 9;

    /// One-shot digest of a message that fits one padded block
    /// (`data.len() <= ONE_BLOCK_MAX`).
    ///
    /// Identical output to [`digest`](Sha256::digest), but skips the
    /// streaming machinery entirely: the padded block is assembled on the
    /// stack and compressed once — no hasher state, no buffered copies,
    /// no length bookkeeping. A message whose tail stays fixed across
    /// calls, such as the Appendix-A `5-tuple ‖ secret`, is cheaper still
    /// as a [`BlockTail`], which builds the block's fixed part once.
    ///
    /// # Panics
    ///
    /// Panics if `data` exceeds [`ONE_BLOCK_MAX`](Sha256::ONE_BLOCK_MAX)
    /// bytes.
    #[inline]
    pub fn digest_one_block(data: &[u8]) -> [u8; DIGEST_LEN] {
        assert!(
            data.len() <= Self::ONE_BLOCK_MAX,
            "digest_one_block: message exceeds one padded block"
        );
        let mut block = [0u8; BLOCK_LEN];
        block[..data.len()].copy_from_slice(data);
        block[data.len()] = 0x80;
        block[BLOCK_LEN - 8..].copy_from_slice(&((data.len() as u64) * 8).to_be_bytes());
        let mut state = H0;
        compress(&mut state, &block[..]);
        state_bytes(&state)
    }

    /// Absorbs `data` into the hash state.
    ///
    /// Whole blocks are compressed straight from `data`; only a trailing
    /// partial block is copied into the hasher.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (BLOCK_LEN - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < BLOCK_LEN {
                return;
            }
            compress(&mut self.state, &self.buffer[..]);
        }
        let (blocks, tail) = data.split_at(data.len() - data.len() % BLOCK_LEN);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Finishes the computation and returns the digest, consuming the hasher.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // The buffered tail, 0x80, zeros to 56 mod 64, then the 64-bit
        // length: one block, or two when the tail leaves no room for the
        // nine bytes of padding.
        let mut pad = [0u8; 2 * BLOCK_LEN];
        pad[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        pad[self.buffered] = 0x80;
        let end = if self.buffered <= Self::ONE_BLOCK_MAX {
            BLOCK_LEN
        } else {
            2 * BLOCK_LEN
        };
        pad[end - 8..end].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress(&mut self.state, &pad[..end]);
        state_bytes(&self.state)
    }
}

/// The fixed part of a one-block message whose first 16 bytes change from
/// call to call: the bytes after them, the padding and the bit length, as
/// the block's last twelve message words, built once.
///
/// [`digest_u64`](BlockTail::digest_u64) then takes the four varying head
/// words by value and compresses the block without assembling it in
/// memory: the first message quad is built from the head in registers and
/// the other three are read from here. This is the per-packet hash of the
/// Appendix-A decision, whose `5-tuple ‖ secret` message is 45 bytes: the
/// tuple and the secret's first three bytes make the head, and the
/// secret's other 29 bytes are the tail.
///
/// # Example
///
/// ```
/// use vif_crypto::sha256::{BlockTail, Sha256};
/// let tail = BlockTail::new(b"rest of the message");
/// let head = *b"16-byte head ...";
/// let words = std::array::from_fn(|i| u32::from_be_bytes(head[4 * i..4 * i + 4].try_into().unwrap()));
/// let digest = Sha256::digest(b"16-byte head ...rest of the message");
/// assert_eq!(tail.digest_u64(words), u64::from_le_bytes(digest[..8].try_into().unwrap()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockTail {
    words: [u32; 12],
}

impl BlockTail {
    /// Bytes in the varying head of the message.
    pub const HEAD_LEN: usize = 16;

    /// Longest `rest`: the head and the rest together fit one padded block.
    pub const REST_MAX: usize = Sha256::ONE_BLOCK_MAX - Self::HEAD_LEN;

    /// The tail of the padded block for the message `head ‖ rest`, where
    /// the head is any [`HEAD_LEN`](BlockTail::HEAD_LEN) bytes.
    ///
    /// # Panics
    ///
    /// Panics if `rest` exceeds [`REST_MAX`](BlockTail::REST_MAX) bytes.
    pub fn new(rest: &[u8]) -> Self {
        assert!(
            rest.len() <= Self::REST_MAX,
            "BlockTail: message exceeds one padded block"
        );
        const LEN: usize = BLOCK_LEN - BlockTail::HEAD_LEN;
        let mut bytes = [0u8; LEN];
        bytes[..rest.len()].copy_from_slice(rest);
        bytes[rest.len()] = 0x80;
        let bits = ((Self::HEAD_LEN + rest.len()) as u64) * 8;
        bytes[LEN - 8..].copy_from_slice(&bits.to_be_bytes());
        BlockTail {
            words: std::array::from_fn(|i| {
                u32::from_be_bytes(bytes[4 * i..4 * i + 4].try_into().expect("4 bytes"))
            }),
        }
    }

    /// SHA-256 of `head ‖ rest`, where `head` is the message's first 16
    /// bytes as four big-endian words, returned as its first eight digest
    /// bytes read as a little-endian `u64`.
    #[inline]
    pub fn digest_u64(&self, head: [u32; 4]) -> u64 {
        compress(&self.words, Head::from(head))
    }

    /// [`digest_u64`](BlockTail::digest_u64) on the scalar rounds, whatever
    /// the CPU offers: the oracle the dispatching kernel is tested against.
    pub fn digest_u64_portable(&self, head: [u32; 4]) -> u64 {
        portable::compress(&self.words, Head::from(head))
    }
}

/// The first eight bytes of the digest of `state`, read as a little-endian
/// `u64`.
#[inline]
fn prefix_u64(state: &[u32; 8]) -> u64 {
    u64::from(state[0].swap_bytes()) | u64::from(state[1].swap_bytes()) << 32
}

/// The big-endian serialisation of the eight state words.
fn state_bytes(state: &[u32; 8]) -> [u8; DIGEST_LEN] {
    let mut out = [0u8; DIGEST_LEN];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Whether [`ni::compress`] may run here: every target feature it
/// is compiled with (`sse2` is part of the x86-64 baseline). Detection is
/// cached by `std` — one relaxed load per call.
#[cfg(target_arch = "x86_64")]
#[inline]
fn ni_available() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn ni_available() -> bool {
    false
}

/// Which compression kernel this process runs: `"sha-ni"` on a CPU with
/// the x86 SHA extensions, `"portable"` otherwise. The two produce the
/// same bytes; the name only explains a timing.
pub fn kernel() -> &'static str {
    if ni_available() {
        "sha-ni"
    } else {
        "portable"
    }
}

/// One call into a compression kernel. The kernel starts from
/// [`start`](Message::start), runs the rounds over each block of
/// [`blocks`](Message::blocks) in turn (a block given as the map from a
/// word index `0..16` to that big-endian message word) and hands the final
/// state to [`finish`](Message::finish).
///
/// A call crosses into the kernel as two arguments: the message itself,
/// two registers wide, and [`Mem`](Message::Mem), one pointer to what the
/// call reads or writes in memory. So a byte message passes its slice and
/// the state it updates, and a head-and-tail block passes its four head
/// words by value, with no store and reload on the way to the first
/// message quad, and the fixed tail by reference.
trait Message {
    type Mem<'m>;
    type Out;
    fn start(mem: &Self::Mem<'_>) -> [u32; 8];
    fn blocks(self, mem: &Self::Mem<'_>) -> impl Iterator<Item = impl Fn(usize) -> u32>;
    fn finish(mem: Self::Mem<'_>, state: [u32; 8]) -> Self::Out;
}

/// Every 64-byte block of a byte message in turn (the length is a multiple
/// of [`BLOCK_LEN`]), absorbed into a state in memory.
impl Message for &[u8] {
    type Mem<'m> = &'m mut [u32; 8];
    type Out = ();

    #[inline]
    fn start(state: &Self::Mem<'_>) -> [u32; 8] {
        **state
    }

    #[inline]
    fn blocks(self, _: &Self::Mem<'_>) -> impl Iterator<Item = impl Fn(usize) -> u32> {
        debug_assert_eq!(self.len() % BLOCK_LEN, 0);
        self.as_chunks::<BLOCK_LEN>().0.iter().map(|block| {
            |j: usize| {
                u32::from_be_bytes([
                    block[4 * j],
                    block[4 * j + 1],
                    block[4 * j + 2],
                    block[4 * j + 3],
                ])
            }
        })
    }

    #[inline]
    fn finish(state: &mut [u32; 8], out: [u32; 8]) {
        *state = out;
    }
}

/// The four head words of a one-block message, two to a `u64` with the
/// earlier word in the low half (two scalar fields, not an array, so the
/// pair is passed in two registers); the block's other twelve words are a
/// [`BlockTail`]'s. The digest starts from the initial state and hands
/// back [`prefix_u64`].
#[derive(Clone, Copy)]
struct Head {
    w01: u64,
    w23: u64,
}

impl From<[u32; 4]> for Head {
    #[inline]
    fn from([w0, w1, w2, w3]: [u32; 4]) -> Self {
        Head {
            w01: u64::from(w0) | u64::from(w1) << 32,
            w23: u64::from(w2) | u64::from(w3) << 32,
        }
    }
}

impl Message for Head {
    type Mem<'m> = &'m [u32; 12];
    type Out = u64;

    #[inline]
    fn start(_: &Self::Mem<'_>) -> [u32; 8] {
        H0
    }

    #[inline]
    fn blocks(self, tail: &Self::Mem<'_>) -> impl Iterator<Item = impl Fn(usize) -> u32> {
        let tail = *tail;
        std::iter::once(move |j: usize| {
            if j < 4 {
                let pair = if j < 2 { self.w01 } else { self.w23 };
                (pair >> (32 * (j % 2))) as u32
            } else {
                tail[j - 4]
            }
        })
    }

    #[inline]
    fn finish(_: &[u32; 12], state: [u32; 8]) -> u64 {
        prefix_u64(&state)
    }
}

/// The FIPS 180-4 compression function over the blocks of `msg` — the one
/// entry every hasher in this crate goes through.
#[inline]
fn compress<M: Message>(mem: M::Mem<'_>, msg: M) -> M::Out {
    #[cfg(target_arch = "x86_64")]
    if ni_available() {
        // SAFETY: `ni::compress` is a safe fn whose only requirement is
        // the CPU features it is compiled for, and `ni_available` on the
        // line above just confirmed each of them.
        #[allow(unsafe_code)]
        return unsafe { ni::compress(mem, msg) };
    }
    portable::compress(mem, msg)
}

/// The scalar rounds: the path on CPUs without the SHA extensions, and the
/// oracle the hardware kernel is tested against.
mod portable {
    use super::{Message, K};

    pub(super) fn compress<M: Message>(mem: M::Mem<'_>, msg: M) -> M::Out {
        let mut state = M::start(&mem);
        for block in msg.blocks(&mem) {
            compress_one(&mut state, block);
        }
        M::finish(mem, state)
    }

    fn compress_one(state: &mut [u32; 8], block: impl Fn(usize) -> u32) {
        let mut w = [0u32; 64];
        for (i, wi) in w[..16].iter_mut().enumerate() {
            *wi = block(i);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The same function on the x86 SHA extensions: `sha256rnds2` runs two
/// rounds on the state held as the word quads `ABEF` / `CDGH`,
/// `sha256msg1` / `sha256msg2` extend the message schedule four words at
/// a time.
///
/// Every intrinsic here is a safe call inside a fn compiled for its
/// target features, and words enter and leave vector registers by value
/// (`_mm_set_epi32` / `_mm_extract_epi32`), so the module holds no
/// `unsafe` — the one obligation, that the CPU has the features, sits
/// with the caller. There is one round loop, [`compress`](ni::compress),
/// generic over the [`Message`].
#[cfg(target_arch = "x86_64")]
mod ni {
    use super::{Message, K};
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    /// Words `4i..4i + 4` of `words`, word `4i` in the low lane.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn quad(words: &impl Fn(usize) -> u32, i: usize) -> __m128i {
        let w = |j| words(4 * i + j) as i32;
        _mm_set_epi32(w(3), w(2), w(1), w(0))
    }

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress<M: Message>(mem: M::Mem<'_>, msg: M) -> M::Out {
        let [a, b, c, d, e, f, g, h] = M::start(&mem).map(|w| w as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        for block in msg.blocks(&mem) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // The last four schedule quads, oldest first.
            let mut w = [
                quad(&block, 0),
                quad(&block, 1),
                quad(&block, 2),
                quad(&block, 3),
            ];
            for i in 0..16 {
                let wi = if i < 4 {
                    w[i]
                } else {
                    let partial = _mm_add_epi32(
                        _mm_sha256msg1_epu32(w[0], w[1]),
                        _mm_alignr_epi8::<4>(w[3], w[2]),
                    );
                    let next = _mm_sha256msg2_epu32(partial, w[3]);
                    w = [w[1], w[2], w[3], next];
                    next
                };
                let wk = _mm_add_epi32(wi, quad(&|j| K[j], i));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|w| w as u32);
        M::finish(mem, state)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::hex;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// A compression kernel, as the tests drive one.
    pub(crate) type Kernel = fn(&mut [u32; 8], &[u8]);

    /// Both kernels under test: the dispatching entry (the hardware kernel
    /// where the CPU has one) and the scalar rounds called directly, so a
    /// box without the SHA extensions still tests the portable path and a
    /// box with them tests both.
    pub(crate) const KERNELS: [(&str, Kernel); 2] = [("dispatch", dispatch), ("portable", scalar)];

    fn dispatch(state: &mut [u32; 8], blocks: &[u8]) {
        compress(state, blocks);
    }

    fn scalar(state: &mut [u32; 8], blocks: &[u8]) {
        portable::compress(state, blocks);
    }

    /// SHA-256 of `data` on `kernel` alone: the padded message is built
    /// here and handed over in one call, independent of `Sha256`.
    pub(crate) fn digest_with(kernel: Kernel, data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut msg = data.to_vec();
        msg.push(0x80);
        msg.resize((data.len() + 9).next_multiple_of(BLOCK_LEN) - 8, 0);
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        kernel(&mut state, &msg);
        state_bytes(&state)
    }

    /// FIPS 180-4 / NIST CAVP example messages and their digests.
    const NIST_VECTORS: [(&[u8], &str); 4] = [
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
    ];

    #[test]
    fn nist_vectors_on_the_hasher() {
        for (msg, want) in NIST_VECTORS {
            assert_eq!(hex::encode(&Sha256::digest(msg)), want);
        }
    }

    #[test]
    fn nist_vectors_on_both_kernels() {
        for (name, kernel) in KERNELS {
            for (msg, want) in NIST_VECTORS {
                assert_eq!(hex::encode(&digest_with(kernel, msg)), want, "{name}");
            }
        }
    }

    #[test]
    fn million_a() {
        const WANT: &str = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(hex::encode(&h.finalize()), WANT);
        for (name, kernel) in KERNELS {
            let got = digest_with(kernel, &vec![b'a'; 1_000_000]);
            assert_eq!(hex::encode(&got), WANT, "{name}");
        }
    }

    #[test]
    fn kernel_name_follows_detection() {
        let want = if ni_available() { "sha-ni" } else { "portable" };
        assert_eq!(kernel(), want);
    }

    #[test]
    fn streaming_equals_oneshot_for_all_split_points() {
        let data: Vec<u8> = (0..255u8).collect();
        let reference = digest_with(scalar, &data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), reference, "split at {split}");
        }
    }

    #[test]
    fn every_padding_length_matches_the_scalar_oracle() {
        // 0..=200 covers the one- and two-block padding boundaries (55/56,
        // 119/120) and the block edges (63/64/65, 127/128/129).
        let data: Vec<u8> = (0..=200u8).map(|i| i ^ 0x5A).collect();
        for n in 0..=data.len() {
            assert_eq!(
                Sha256::digest(&data[..n]),
                digest_with(scalar, &data[..n]),
                "length {n}"
            );
        }
    }

    #[test]
    fn one_block_matches_streaming_for_every_length() {
        let data: Vec<u8> = (0..Sha256::ONE_BLOCK_MAX as u8).map(|i| i ^ 0xA5).collect();
        for n in 0..=Sha256::ONE_BLOCK_MAX {
            assert_eq!(
                Sha256::digest_one_block(&data[..n]),
                Sha256::digest(&data[..n]),
                "length {n}"
            );
        }
    }

    #[test]
    fn one_block_nist_vectors() {
        for (msg, want) in &NIST_VECTORS[..2] {
            assert_eq!(hex::encode(&Sha256::digest_one_block(msg)), *want);
        }
    }

    #[test]
    #[should_panic(expected = "one padded block")]
    fn one_block_rejects_long_messages() {
        let _ = Sha256::digest_one_block(&[0u8; 56]);
    }

    #[test]
    fn block_tail_matches_streaming_for_every_length() {
        let head = [0x0102_0304, 0xa5a5_5a5a, 0xffff_0000, 0x1100_aabb];
        let head_bytes: Vec<u8> = head.iter().flat_map(|w: &u32| w.to_be_bytes()).collect();
        let data: Vec<u8> = (0..BlockTail::REST_MAX as u8).map(|i| i ^ 0x3C).collect();
        for n in 0..=BlockTail::REST_MAX {
            let digest = Sha256::digest(&[&head_bytes[..], &data[..n]].concat());
            let want = u64::from_le_bytes(digest[..8].try_into().unwrap());
            let tail = BlockTail::new(&data[..n]);
            assert_eq!(tail.digest_u64(head), want, "length {n}");
            assert_eq!(tail.digest_u64_portable(head), want, "length {n}");
        }
    }

    #[test]
    #[should_panic(expected = "one padded block")]
    fn block_tail_rejects_long_messages() {
        let _ = BlockTail::new(&[0u8; BlockTail::REST_MAX + 1]);
    }

    proptest! {
        /// The hardware kernel, fed through `update` at random split
        /// points, produces the scalar rounds' digest.
        #[test]
        fn hardware_equals_scalar(
            data in vec(any::<u8>(), 0..4096),
            splits in vec(any::<prop::sample::Index>(), 0..6),
        ) {
            if !ni_available() {
                eprintln!("hardware_equals_scalar: no SHA extensions on this CPU, skipped");
                return Ok(());
            }
            let mut cuts: Vec<usize> = splits.iter().map(|s| s.index(data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut h = Sha256::new();
            let mut from = 0;
            for cut in cuts {
                h.update(&data[from..cut]);
                from = cut;
            }
            h.update(&data[from..]);
            prop_assert_eq!(h.finalize(), digest_with(scalar, &data));
        }
    }
}
