//! The count-min sketch data structure (Cormode & Muthukrishnan 2005).
//!
//! # The burst update path
//!
//! Per-packet sketch updates are the audited logging cost the paper budgets
//! at "only 4 linear hash function operations" (§V-A) — but on a ~1 MB
//! counter array the real cost is the dependent cache miss per row, not the
//! arithmetic. [`CountMinSketch::add_batch_fingerprints`] therefore
//! processes a burst in two pipelined passes: first compute every row bin
//! for the whole burst (pure arithmetic, no memory dependence) and issue a
//! software prefetch for each counter line, then apply the updates once the
//! lines are in flight. [`CountMinSketch::estimate_batch`] does the same
//! for queries. Both are **bit-identical** to looping the single-key
//! [`add_fingerprint`](CountMinSketch::add_fingerprint) /
//! [`estimate_fingerprint`](CountMinSketch::estimate_fingerprint) — counter
//! updates are sums mod 2³², which commute — and the property test
//! `sketch_batch_equals_sequential` pins full counter-array equality, so
//! batching can never change an audit outcome.
//!
//! # 32-bit wrapping counters
//!
//! Counters are `u32` and wrap mod 2³²; the sketch keeps the exact `u64`
//! total beside them. Every packet adds to exactly one bin per row, so no
//! bin ever holds more than the total: while the total stays within
//! `u32::MAX` no counter has wrapped and every counter equals the `u64`
//! count it stands for. [`compare`](crate::compare()) refuses sketches
//! past that bound ([`CompareError::CounterOverflow`]), and the paper's
//! sketch takes half the memory a 64-bit one would: 512 KiB.
//!
//! # The wire format
//!
//! [`CountMinSketch::encode`] writes a 32-byte header, `width ‖ depth ‖
//! seed ‖ total` as little-endian `u64`s, then the counter array row-major
//! as little-endian `u32`s. [`SketchView::parse`] reads that format in
//! place: an audit compares the counters straight out of the received
//! bytes and never decodes them into a second array.
//!
//! [`CompareError::CounterOverflow`]: crate::CompareError::CounterOverflow

use crate::hash::{fingerprint, reduce_fingerprint, LinearHash};

/// Burst lanes per pipelined chunk: enough to cover the prefetch latency,
/// small enough that the bin scratch stays a few cache lines of stack.
const BURST_LANES: usize = 32;

/// Depth bound of the pipelined path (stack scratch is sized
/// `BURST_LANES × MAX_PIPELINED_DEPTH`). Deeper sketches — far beyond the
/// paper's `d = 2` — fall back to the sequential loop.
const MAX_PIPELINED_DEPTH: usize = 8;

/// Hints the CPU to pull `slice[index]`'s cache line toward L1. A pure
/// performance hint: no-op on non-x86-64 targets and for out-of-bounds
/// indices (callers pass valid indices; the guard keeps the hint safe).
#[inline(always)]
fn prefetch_read<T>(slice: &[T], index: usize) {
    #[cfg(target_arch = "x86_64")]
    if let Some(v) = slice.get(index) {
        // SAFETY: `_mm_prefetch` only hints the cache hierarchy — it
        // performs no load, faults on nothing, and touches no memory; the
        // reference guarantees the pointer is valid anyway.
        #[allow(unsafe_code)]
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(v as *const T as *const i8);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (slice, index);
}

/// Configuration of a count-min sketch: dimensions plus the shared hash seed.
///
/// Two parties that construct sketches with the *same* configuration over the
/// *same* stream obtain identical counter arrays — the property VIF's bypass
/// detection relies on (§III-B).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchConfig {
    /// Number of bins per row (`w`).
    pub width: usize,
    /// Number of independent hash rows (`d`).
    pub depth: usize,
    /// Seed from which the per-row linear hash coefficients are derived.
    pub seed: u64,
}

impl SketchConfig {
    /// The paper's configuration (§V-A): 2 linear hash rows, 64 K bins —
    /// 512 KiB of enclave memory per sketch instance with this crate's
    /// 32-bit counters (the paper's 64-bit counters took 1 MiB).
    pub fn paper_default(seed: u64) -> Self {
        SketchConfig {
            width: 65_536,
            depth: 2,
            seed,
        }
    }

    /// A small configuration for unit tests.
    pub fn small(seed: u64) -> Self {
        SketchConfig {
            width: 512,
            depth: 4,
            seed,
        }
    }

    /// Memory consumed by the counter array in bytes (32-bit counters).
    pub fn memory_bytes(&self) -> usize {
        self.width * self.depth * COUNTER_BYTES
    }
}

/// Bytes of one counter, in memory and on the wire.
const COUNTER_BYTES: usize = 4;

/// Bytes of the encoded header: `width ‖ depth ‖ seed ‖ total`, each a
/// little-endian `u64`.
const HEADER_BYTES: usize = 32;

/// Most counters a decoded header may advertise (2²⁸, 1 GiB of counters).
const MAX_COUNTERS: usize = 1 << 28;

/// Errors from [`SketchView::parse`] and [`CountMinSketch::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SketchDecodeError {
    /// Byte buffer too short or not the advertised size.
    Malformed,
    /// Header advertises dimensions that overflow practical limits.
    ImplausibleDimensions,
}

impl std::fmt::Display for SketchDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SketchDecodeError::Malformed => write!(f, "malformed sketch encoding"),
            SketchDecodeError::ImplausibleDimensions => {
                write!(f, "sketch header advertises implausible dimensions")
            }
        }
    }
}

impl std::error::Error for SketchDecodeError {}

/// A count-min sketch with 32-bit wrapping counters and an exact `u64`
/// total (module docs).
///
/// Supports point updates, point queries (upper-bound estimates while the
/// total stays within `u32::MAX`), merging, and a stable byte encoding for
/// authenticated export out of the enclave.
///
/// # Example
///
/// ```
/// use vif_sketch::{CountMinSketch, SketchConfig};
/// let mut s = CountMinSketch::new(SketchConfig::small(1));
/// s.add(b"10.0.0.1", 3);
/// s.add(b"10.0.0.1", 2);
/// assert!(s.estimate(b"10.0.0.1") >= 5); // never under-counts
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountMinSketch {
    config: SketchConfig,
    /// Pre-reduced hash rows, stored ready to evaluate — the per-op
    /// wrapper conversion the hot path used to pay is gone.
    rows: Vec<LinearHash>,
    counters: Vec<u32>,
    total: u64,
    /// `width - 1` when the width is a power of two (the paper's 64 K
    /// bins), else 0: the bin reduction is then a single AND instead of a
    /// 64-bit division. Derived from `config`, identical across parties.
    mask: u64,
}

/// The bin-reduction mask for a width: `w - 1` for power-of-two widths,
/// 0 (= "divide") otherwise. `w == 1` also takes the divide path — both
/// reductions yield bin 0 there, so the choice is cosmetic.
fn width_mask(width: usize) -> u64 {
    if width.is_power_of_two() {
        (width - 1) as u64
    } else {
        0
    }
}

impl CountMinSketch {
    /// Creates an empty sketch with the given configuration.
    pub fn new(config: SketchConfig) -> Self {
        assert!(config.width > 0 && config.depth > 0, "degenerate sketch");
        let rows = (0..config.depth)
            .map(|r| LinearHash::from_seed(config.seed, r))
            .collect();
        let counters = vec![0u32; config.width * config.depth];
        CountMinSketch {
            mask: width_mask(config.width),
            config,
            rows,
            counters,
            total: 0,
        }
    }

    /// Maps a row value into `[0, width)` — masked for power-of-two
    /// widths, divided otherwise. Must equal `value % width` exactly
    /// (and does: for `w = 2^k`, `v % w == v & (w-1)`).
    #[inline(always)]
    fn bin_of(&self, value: u64) -> usize {
        if self.mask != 0 {
            (value & self.mask) as usize
        } else {
            (value % self.config.width as u64) as usize
        }
    }

    /// The shared pipelining pass of the burst paths: computes the
    /// row-major counter index of every `(row, fingerprint)` pair of one
    /// chunk into `bins` (`bins[r * BURST_LANES + i]` for `chunk[i]`) and
    /// issues a software prefetch for each counter line as its index is
    /// known. Pure arithmetic plus hints — callers apply their update or
    /// min-read pass over `bins` afterwards, with the misses in flight.
    #[inline]
    fn pipeline_chunk_bins(
        &self,
        chunk: &[u64],
        bins: &mut [usize; BURST_LANES * MAX_PIPELINED_DEPTH],
    ) {
        let w = self.config.width;
        for (i, &x) in chunk.iter().enumerate() {
            let xr = reduce_fingerprint(x);
            for (r, row) in self.rows.iter().enumerate() {
                let idx = r * w + self.bin_of(row.value_reduced(xr));
                bins[r * BURST_LANES + i] = idx;
                prefetch_read(&self.counters, idx);
            }
        }
    }

    /// The sketch configuration.
    pub fn config(&self) -> &SketchConfig {
        &self.config
    }

    /// Sum of all added counts: exact, not an estimate, and not reduced
    /// mod 2³² like the counters (it saturates at `u64::MAX`).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Memory consumed by the counter array, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.config.memory_bytes()
    }

    /// Adds `count` occurrences of `key`.
    #[inline]
    pub fn add(&mut self, key: &[u8], count: u64) {
        let x = fingerprint(key);
        self.add_fingerprint(x, count);
    }

    /// Adds `count` occurrences of a pre-computed 64-bit fingerprint: each
    /// row's bin grows by `count` mod 2³², the total by `count` exactly.
    ///
    /// The data-plane fast path fingerprints the 5-tuple once and feeds both
    /// sketches, matching the paper's "4 linear hash operations per packet".
    ///
    /// This is the sequential oracle of the burst path: a loop of
    /// `add_fingerprint` and one [`add_batch_fingerprints`] call over the
    /// same fingerprints produce bit-identical counter arrays.
    ///
    /// [`add_batch_fingerprints`]: CountMinSketch::add_batch_fingerprints
    #[inline]
    pub fn add_fingerprint(&mut self, x: u64, count: u64) {
        let w = self.config.width;
        let xr = reduce_fingerprint(x);
        for r in 0..self.rows.len() {
            let bin = self.bin_of(self.rows[r].value_reduced(xr));
            self.counters[r * w + bin] = self.counters[r * w + bin].wrapping_add(count as u32);
        }
        self.total = self.total.saturating_add(count);
    }

    /// Adds `count` occurrences of **each** fingerprint in `fps`, with the
    /// burst pipelined: all row bins for a chunk are computed first (pure
    /// arithmetic), each counter line is software-prefetched as its bin is
    /// known, and the updates are applied once the lines are in flight —
    /// the dependent-miss-per-packet pattern of the sequential loop becomes
    /// overlapping misses across the whole burst.
    ///
    /// Bit-identical to `for &x in fps { self.add_fingerprint(x, count) }`
    /// (counter sums mod 2³² commute), allocation-free (fixed stack
    /// scratch), and falls back to the sequential loop for depths beyond
    /// the pipelined bound (the paper's depth is 2).
    pub fn add_batch_fingerprints(&mut self, fps: &[u64], count: u64) {
        let d = self.rows.len();
        if d > MAX_PIPELINED_DEPTH {
            for &x in fps {
                self.add_fingerprint(x, count);
            }
            return;
        }
        let step = count as u32;
        let mut bins = [0usize; BURST_LANES * MAX_PIPELINED_DEPTH];
        for chunk in fps.chunks(BURST_LANES) {
            self.pipeline_chunk_bins(chunk, &mut bins);
            for r in 0..d {
                for i in 0..chunk.len() {
                    let idx = bins[r * BURST_LANES + i];
                    self.counters[idx] = self.counters[idx].wrapping_add(step);
                }
            }
        }
        // min(total + count·n, MAX): exactly where n sequential saturating
        // adds of `count` land, since every step is monotone.
        self.total = self
            .total
            .saturating_add(count.saturating_mul(fps.len() as u64));
    }

    /// Upper-bound estimate of the count of `key` (exact bound while the
    /// total stays within `u32::MAX`; module docs).
    #[inline]
    pub fn estimate(&self, key: &[u8]) -> u64 {
        self.estimate_fingerprint(fingerprint(key))
    }

    /// Upper-bound estimate for a pre-computed fingerprint.
    #[inline]
    pub fn estimate_fingerprint(&self, x: u64) -> u64 {
        let w = self.config.width;
        let xr = reduce_fingerprint(x);
        self.rows
            .iter()
            .enumerate()
            .map(|(r, row)| self.counters[r * w + self.bin_of(row.value_reduced(xr))])
            .min()
            .map_or(0, u64::from)
    }

    /// Appends the [`estimate_fingerprint`] of every fingerprint in `fps`
    /// to `out`, in order, with the same pipelined bin-compute/prefetch
    /// pass as [`add_batch_fingerprints`]. Result-identical to the
    /// per-fingerprint loop.
    ///
    /// [`estimate_fingerprint`]: CountMinSketch::estimate_fingerprint
    /// [`add_batch_fingerprints`]: CountMinSketch::add_batch_fingerprints
    pub fn estimate_batch(&self, fps: &[u64], out: &mut Vec<u64>) {
        out.reserve(fps.len());
        let d = self.rows.len();
        if d > MAX_PIPELINED_DEPTH {
            out.extend(fps.iter().map(|&x| self.estimate_fingerprint(x)));
            return;
        }
        let mut bins = [0usize; BURST_LANES * MAX_PIPELINED_DEPTH];
        for chunk in fps.chunks(BURST_LANES) {
            self.pipeline_chunk_bins(chunk, &mut bins);
            for i in 0..chunk.len() {
                let min = (0..d)
                    .map(|r| self.counters[bins[r * BURST_LANES + i]])
                    .min()
                    .map_or(0, u64::from);
                out.push(min);
            }
        }
    }

    /// Merges another sketch into this one (counter-wise sum mod 2³², exact
    /// total).
    ///
    /// # Errors
    ///
    /// Returns `Err` if the configurations differ (different dimensions or
    /// hash seeds make counters incomparable).
    pub fn merge(&mut self, other: &CountMinSketch) -> Result<(), SketchDecodeError> {
        if self.config != other.config {
            return Err(SketchDecodeError::Malformed);
        }
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a = a.wrapping_add(*b);
        }
        self.total = self.total.saturating_add(other.total);
        Ok(())
    }

    /// Resets all counters to zero (start of a new filtering round, §III-B).
    pub fn clear(&mut self) {
        self.counters.fill(0);
        self.total = 0;
    }

    /// Raw view of the counter array (row-major, each counter mod 2³²).
    pub fn counters(&self) -> &[u32] {
        &self.counters
    }

    /// This sketch as a [`SketchView`]: what [`compare_views`] reads.
    ///
    /// [`compare_views`]: crate::compare_views
    pub fn view(&self) -> SketchView<'_> {
        SketchView {
            config: self.config.clone(),
            total: self.total,
            counters: Counters::Array(&self.counters),
        }
    }

    /// Stable byte encoding (module docs: the wire format): the header,
    /// then the counter array as little-endian `u32`s. Used for
    /// authenticated export (HMAC computed by the enclave over exactly
    /// these bytes).
    pub fn encode(&self) -> Vec<u8> {
        let header = [
            self.config.width as u64,
            self.config.depth as u64,
            self.config.seed,
            self.total,
        ];
        // One pre-sized buffer filled through fixed-width zips, which the
        // compiler turns into vector copies.
        let mut out = vec![0u8; HEADER_BYTES + self.counters.len() * COUNTER_BYTES];
        let (head, body) = out.split_at_mut(HEADER_BYTES);
        for (bytes, word) in head.chunks_exact_mut(8).zip(header) {
            bytes.copy_from_slice(&word.to_le_bytes());
        }
        for (bytes, counter) in body.chunks_exact_mut(COUNTER_BYTES).zip(&self.counters) {
            bytes.copy_from_slice(&counter.to_le_bytes());
        }
        out
    }

    /// Decodes a sketch from [`encode`]'s byte format into an owned sketch
    /// ([`SketchView::parse`], then a copy of the counters).
    ///
    /// # Errors
    ///
    /// As [`SketchView::parse`].
    ///
    /// [`encode`]: CountMinSketch::encode
    pub fn decode(bytes: &[u8]) -> Result<Self, SketchDecodeError> {
        let view = SketchView::parse(bytes)?;
        let mut sketch = CountMinSketch::new(view.config.clone());
        sketch.total = view.total;
        for (counter, value) in sketch.counters.iter_mut().zip(view.counters()) {
            *counter = value;
        }
        Ok(sketch)
    }
}

/// Where a [`SketchView`]'s counters live.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Counters<'a> {
    /// A sketch's own array.
    Array(&'a [u32]),
    /// An encoded payload's counter bytes, four little-endian bytes each.
    Encoded(&'a [u8]),
}

/// A sketch read in place: its configuration, exact total and counters,
/// either borrowed from a [`CountMinSketch`] ([`CountMinSketch::view`]) or
/// parsed out of [`CountMinSketch::encode`]'s bytes
/// ([`SketchView::parse`]) without copying them. Comparisons take views
/// ([`compare_views`](crate::compare_views)), so an audit reads the
/// enclave's counters straight out of the authenticated payload.
#[derive(Debug, Clone)]
pub struct SketchView<'a> {
    config: SketchConfig,
    total: u64,
    pub(crate) counters: Counters<'a>,
}

impl<'a> SketchView<'a> {
    /// Reads the header of an encoded sketch and checks that the bytes
    /// hold exactly the counters it advertises. Allocates nothing and
    /// copies no counter.
    ///
    /// # Errors
    ///
    /// [`SketchDecodeError::Malformed`] if the bytes are shorter than the
    /// header; [`SketchDecodeError::ImplausibleDimensions`] if the header
    /// advertises a zero dimension or more than 2²⁸ counters;
    /// [`SketchDecodeError::Malformed`] if the length is not the header's
    /// plus the advertised counters'.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, SketchDecodeError> {
        let Some((head, body)) = bytes.split_first_chunk::<HEADER_BYTES>() else {
            return Err(SketchDecodeError::Malformed);
        };
        let word = |i: usize| u64::from_le_bytes(head[i * 8..(i + 1) * 8].try_into().unwrap());
        let (width, depth, seed, total) = (word(0) as usize, word(1) as usize, word(2), word(3));
        if width == 0 || depth == 0 || width.saturating_mul(depth) > MAX_COUNTERS {
            return Err(SketchDecodeError::ImplausibleDimensions);
        }
        if body.len() != width * depth * COUNTER_BYTES {
            return Err(SketchDecodeError::Malformed);
        }
        Ok(SketchView {
            config: SketchConfig { width, depth, seed },
            total,
            counters: Counters::Encoded(body),
        })
    }

    /// The sketch configuration.
    pub fn config(&self) -> &SketchConfig {
        &self.config
    }

    /// The exact total ([`CountMinSketch::total`]).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The counters, row-major.
    pub fn counters(&self) -> impl Iterator<Item = u32> + 'a {
        let (array, encoded): (&[u32], &[u8]) = match self.counters {
            Counters::Array(a) => (a, &[]),
            Counters::Encoded(e) => (&[], e),
        };
        array.iter().copied().chain(
            encoded
                .chunks_exact(COUNTER_BYTES)
                .map(|b| u32::from_le_bytes(b.try_into().unwrap())),
        )
    }
}

/// Equal configuration, total and counters, wherever the counters live.
impl PartialEq for SketchView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.total == other.total
            && self.counters().eq(other.counters())
    }
}

impl Eq for SketchView<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CountMinSketch {
        CountMinSketch::new(SketchConfig::small(42))
    }

    #[test]
    fn empty_estimates_zero() {
        let s = small();
        assert_eq!(s.estimate(b"anything"), 0);
        assert_eq!(s.total(), 0);
    }

    #[test]
    fn never_undercounts() {
        let mut s = small();
        let keys: Vec<Vec<u8>> = (0..200u32).map(|i| i.to_be_bytes().to_vec()).collect();
        for (i, k) in keys.iter().enumerate() {
            s.add(k, (i as u64 % 7) + 1);
        }
        for (i, k) in keys.iter().enumerate() {
            let true_count = (i as u64 % 7) + 1;
            assert!(s.estimate(k) >= true_count, "undercount for key {i}");
        }
    }

    #[test]
    fn exact_when_sparse() {
        // With few keys and a wide sketch, estimates should be exact.
        let mut s = CountMinSketch::new(SketchConfig::paper_default(1));
        s.add(b"a", 10);
        s.add(b"b", 20);
        assert_eq!(s.estimate(b"a"), 10);
        assert_eq!(s.estimate(b"b"), 20);
        assert_eq!(s.total(), 30);
    }

    #[test]
    fn identical_streams_identical_sketches() {
        let mut a = small();
        let mut b = small();
        for i in 0..1000u64 {
            a.add(&i.to_le_bytes(), 1);
            b.add(&i.to_le_bytes(), 1);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_different_layout() {
        let mut a = CountMinSketch::new(SketchConfig::small(1));
        let mut b = CountMinSketch::new(SketchConfig::small(2));
        for i in 0..100u64 {
            a.add(&i.to_le_bytes(), 1);
            b.add(&i.to_le_bytes(), 1);
        }
        assert_ne!(a.counters(), b.counters());
    }

    #[test]
    fn merge_equals_concatenated_stream() {
        let cfg = SketchConfig::small(9);
        let mut left = CountMinSketch::new(cfg.clone());
        let mut right = CountMinSketch::new(cfg.clone());
        let mut combined = CountMinSketch::new(cfg);
        for i in 0..500u64 {
            left.add(&i.to_le_bytes(), 2);
            combined.add(&i.to_le_bytes(), 2);
        }
        for i in 500..900u64 {
            right.add(&i.to_le_bytes(), 3);
            combined.add(&i.to_le_bytes(), 3);
        }
        left.merge(&right).unwrap();
        assert_eq!(left, combined);
    }

    #[test]
    fn merge_rejects_mismatched_config() {
        let mut a = CountMinSketch::new(SketchConfig::small(1));
        let b = CountMinSketch::new(SketchConfig::small(2));
        assert!(a.merge(&b).is_err());
        let c = CountMinSketch::new(SketchConfig {
            width: 256,
            depth: 4,
            seed: 1,
        });
        assert!(a.merge(&c).is_err());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut s = small();
        for i in 0..300u64 {
            s.add(&i.to_le_bytes(), i % 5 + 1);
        }
        let bytes = s.encode();
        let back = CountMinSketch::decode(&bytes).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn wire_format_known_answer() {
        // `width ‖ depth ‖ seed ‖ total` as little-endian u64, then the
        // counters as little-endian u32.
        let mut s = CountMinSketch::new(SketchConfig {
            width: 8,
            depth: 2,
            seed: 0x0123_4567_89ab_cdef,
        });
        for i in 0..64u64 {
            s.add(&i.to_le_bytes(), i * 0x0101_0101 + 1);
        }
        let bytes = s.encode();
        assert_eq!(bytes.len(), 32 + 16 * 4);
        assert_eq!(bytes[..32], WIRE_HEADER);
        assert_eq!(bytes[32..36], WIRE_FIRST_COUNTER);
        assert_eq!(bytes[bytes.len() - 4..], WIRE_LAST_COUNTER);
        assert_eq!(CountMinSketch::decode(&bytes).unwrap(), s);
    }

    // The total is Σ (i · 0x01010101 + 1) over i < 64 = 2016 · 0x01010101
    // + 64 = 0x7_e7e7_e820, exact. The first and last bins held
    // 0x1_4343_434b and 0x1_5e5e_5e68 as exact u64 sums (the 64-bit
    // format's pinned bytes); a u32 counter holds them mod 2³², their low
    // four bytes.
    const WIRE_HEADER: [u8; 32] = [
        8, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23,
        0x01, 0x20, 0xe8, 0xe7, 0xe7, 0x07, 0, 0, 0,
    ];
    const WIRE_FIRST_COUNTER: [u8; 4] = [0x4b, 0x43, 0x43, 0x43];
    const WIRE_LAST_COUNTER: [u8; 4] = [0x68, 0x5e, 0x5e, 0x5e];

    #[test]
    fn view_parses_in_place_and_equals_the_sketch_it_encodes() {
        let mut s = small();
        for i in 0..300u64 {
            s.add(&i.to_le_bytes(), i % 5 + 1);
        }
        let bytes = s.encode();
        let view = SketchView::parse(&bytes).unwrap();
        assert!(matches!(view.counters, Counters::Encoded(_)));
        assert_eq!(view, s.view());
        assert_eq!((view.config(), view.total()), (s.config(), s.total()));
        assert!(view.counters().eq(s.counters().iter().copied()));
        let mut other = small();
        other.add(b"x", 1);
        assert_ne!(view, other.view());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(
            CountMinSketch::decode(&[1, 2, 3]),
            Err(SketchDecodeError::Malformed)
        );
        // Plausible header, wrong body length.
        let mut bytes = small().encode();
        bytes.pop();
        assert_eq!(
            CountMinSketch::decode(&bytes),
            Err(SketchDecodeError::Malformed)
        );
        // Absurd dimensions.
        let mut huge = vec![0u8; 32];
        huge[0..8].copy_from_slice(&u64::MAX.to_le_bytes());
        huge[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            CountMinSketch::decode(&huge),
            Err(SketchDecodeError::ImplausibleDimensions)
        );
    }

    #[test]
    fn paper_default_memory_is_half_a_megabyte() {
        let cfg = SketchConfig::paper_default(0);
        assert_eq!(cfg.memory_bytes(), 2 * 65_536 * 4); // 512 KiB
        assert_eq!(cfg.memory_bytes(), 1 << 19);
        let s = CountMinSketch::new(cfg);
        assert_eq!(s.encode().len(), 32 + s.memory_bytes());
    }

    #[test]
    fn clear_resets() {
        let mut s = small();
        s.add(b"x", 5);
        s.clear();
        assert_eq!(s.estimate(b"x"), 0);
        assert_eq!(s.total(), 0);
        assert!(s.counters().iter().all(|&c| c == 0));
    }

    #[test]
    fn counters_wrap_and_the_total_stays_exact() {
        let mut s = small();
        s.add(b"k", u64::from(u32::MAX));
        assert_eq!(s.estimate(b"k"), u64::from(u32::MAX));
        s.add(b"k", 3);
        // Every bin of `k` wrapped past 2³² to 2; the total did not.
        assert_eq!(s.estimate(b"k"), 2);
        assert_eq!(s.total(), u64::from(u32::MAX) + 3);
        // A count of 2³² + 5 adds 5 to each bin and 2³² + 5 to the total.
        s.add(b"k", (1 << 32) + 5);
        assert_eq!(s.estimate(b"k"), 7);
        assert_eq!(s.total(), u64::from(u32::MAX) + 3 + (1 << 32) + 5);
        // The total saturates instead of wrapping.
        s.add(b"k", u64::MAX);
        assert_eq!(s.total(), u64::MAX);
    }

    #[test]
    fn batch_add_matches_sequential_including_chunk_tails() {
        // Exercise burst sizes around the pipelining chunk boundary.
        for n in [0usize, 1, 31, 32, 33, 64, 200] {
            let fps: Vec<u64> = (0..n as u64).map(crate::hash::splitmix64).collect();
            let mut batch = small();
            let mut seq = small();
            batch.add_batch_fingerprints(&fps, 3);
            for &x in &fps {
                seq.add_fingerprint(x, 3);
            }
            assert_eq!(batch, seq, "burst {n}");
            let mut got = Vec::new();
            batch.estimate_batch(&fps, &mut got);
            let want: Vec<u64> = fps.iter().map(|&x| seq.estimate_fingerprint(x)).collect();
            assert_eq!(got, want, "burst {n}");
        }
    }

    #[test]
    fn non_power_of_two_width_takes_divide_path() {
        // width 300 has no mask; batch and sequential must still agree and
        // bins must match the plain `% w` reduction.
        let cfg = SketchConfig {
            width: 300,
            depth: 3,
            seed: 11,
        };
        let fps: Vec<u64> = (0..500u64).map(crate::hash::splitmix64).collect();
        let mut batch = CountMinSketch::new(cfg.clone());
        let mut seq = CountMinSketch::new(cfg);
        batch.add_batch_fingerprints(&fps, 1);
        for &x in &fps {
            seq.add_fingerprint(x, 1);
        }
        assert_eq!(batch, seq);
    }

    #[test]
    fn masked_reduction_equals_modulo() {
        // The pow2 fast path must be `value % w` bit-for-bit: pin the bin
        // layout against LinearHash::bin (which divides).
        let s = CountMinSketch::new(SketchConfig::paper_default(5));
        let w = s.config().width;
        for x in (0..2000u64).map(crate::hash::splitmix64) {
            for (r, row) in (0..s.config().depth).map(|r| (r, LinearHash::from_seed(5, r))) {
                let _ = r;
                assert_eq!(s.bin_of(row.value(x)), row.bin(x, w));
            }
        }
    }

    #[test]
    fn batch_wraps_like_sequential() {
        let fps = [1u64, 2, 3, 1];
        for count in [u64::from(u32::MAX), (1 << 32) + 5, u64::MAX / 3] {
            let mut batch = small();
            let mut seq = small();
            batch.add_batch_fingerprints(&fps, count);
            for &x in &fps {
                seq.add_fingerprint(x, count);
            }
            assert_eq!(batch, seq, "count {count:#x}");
            let total = count.saturating_mul(4);
            assert_eq!(batch.total(), total, "count {count:#x}");
            // Fingerprint 1 was added twice: its bins hold 2 · count mod 2³²
            // (or more, where another fingerprint shares a bin).
            let twice = u64::from((count as u32).wrapping_mul(2));
            assert!(batch.counters().iter().any(|&c| u64::from(c) == twice));
        }
    }

    #[test]
    fn fingerprint_path_matches_byte_path() {
        let mut a = small();
        let mut b = small();
        let key = b"198.51.100.7";
        a.add(key, 4);
        b.add_fingerprint(crate::hash::fingerprint(key), 4);
        assert_eq!(a, b);
        assert_eq!(
            a.estimate(key),
            b.estimate_fingerprint(crate::hash::fingerprint(key))
        );
    }
}
