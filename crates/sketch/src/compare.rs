//! Sketch comparison — the primitive behind VIF's bypass detection (§III-B).
//!
//! A verifier (the victim network or a neighbor AS) compares the sketch it
//! built locally against the authenticated sketch exported by the enclave.
//! Because both sides use the same seeded hash family over the same stream,
//! an honest run produces identical counter arrays; any divergence implies
//! packets were dropped or injected outside the enclave.
//!
//! The direction of each divergent bin distinguishes the attack:
//! - enclave's outgoing counter **>** victim's received counter ⇒ packets
//!   vanished after the filter (*drop-after-filter*),
//! - victim's counter **>** enclave's outgoing counter ⇒ packets appeared
//!   that the filter never forwarded (*inject-after-filter*),
//! - neighbor's sent counter **>** enclave's incoming counter ⇒ packets
//!   vanished before the filter (*drop-before-filter*).
//!
//! There is one comparison loop, [`compare_views`]; [`compare`] is its
//! entry for two in-memory sketches, and an audit calls it on the
//! enclave's authenticated payload as received ([`SketchView::parse`]).

use crate::cms::{CountMinSketch, Counters, SketchConfig, SketchView};

/// Errors from [`compare_views`] and [`compare`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareError {
    /// The sketches were built with different configurations.
    ConfigMismatch,
    /// A sketch's exact total exceeds `u32::MAX`, so its 32-bit counters
    /// may have wrapped and no longer bound what they count.
    CounterOverflow,
}

impl std::fmt::Display for CompareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompareError::ConfigMismatch => write!(f, "sketch configurations differ"),
            CompareError::CounterOverflow => {
                write!(f, "sketch total exceeds the 32-bit counter range")
            }
        }
    }
}

impl std::error::Error for CompareError {}

/// One divergent counter bin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Discrepancy {
    /// Row index of the divergent bin.
    pub row: usize,
    /// Bin index within the row.
    pub bin: usize,
    /// Counter value in the reference (first) sketch.
    pub reference: u64,
    /// Counter value in the observed (second) sketch.
    pub observed: u64,
}

impl Discrepancy {
    /// Packets present in the reference but missing from the observation.
    pub fn missing(&self) -> u64 {
        self.reference.saturating_sub(self.observed)
    }

    /// Packets present in the observation but absent from the reference.
    pub fn excess(&self) -> u64 {
        self.observed.saturating_sub(self.reference)
    }
}

/// Result of comparing a reference sketch against an observed sketch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchComparison {
    discrepancies: Vec<Discrepancy>,
    max_missing: u64,
    max_excess: u64,
    total_reference: u64,
    total_observed: u64,
}

impl SketchComparison {
    /// True if every counter matched exactly.
    pub fn identical(&self) -> bool {
        self.discrepancies.is_empty()
    }

    /// All divergent bins.
    pub fn discrepancies(&self) -> &[Discrepancy] {
        &self.discrepancies
    }

    /// Largest per-bin shortfall (reference − observed), an upper bound on
    /// the volume of the largest single dropped aggregate.
    pub fn max_missing(&self) -> u64 {
        self.max_missing
    }

    /// Largest per-bin excess (observed − reference).
    pub fn max_excess(&self) -> u64 {
        self.max_excess
    }

    /// Exact totals of the two streams (reference, observed).
    pub fn totals(&self) -> (u64, u64) {
        (self.total_reference, self.total_observed)
    }

    /// Declares a *drop* bypass if some bin is short by more than
    /// `tolerance` packets. Tolerance absorbs benign loss on the path
    /// between the filter and the verifier (paper: "Handling malicious
    /// intermediate ASes" — small benign losses should not raise alarms).
    pub fn drop_detected(&self, tolerance: u64) -> bool {
        self.max_missing > tolerance
    }

    /// Declares an *injection* bypass if some bin exceeds the reference by
    /// more than `tolerance` packets.
    pub fn injection_detected(&self, tolerance: u64) -> bool {
        self.max_excess > tolerance
    }
}

/// Compares two in-memory sketches bin by bin:
/// [`compare_views`] of their [`view`](CountMinSketch::view)s.
///
/// `reference` is the authenticated sketch exported by the enclave;
/// `observed` is the verifier's locally built sketch.
///
/// # Errors
///
/// As [`compare_views`].
pub fn compare(
    reference: &CountMinSketch,
    observed: &CountMinSketch,
) -> Result<SketchComparison, CompareError> {
    compare_views(&reference.view(), &observed.view())
}

/// Compares counters bin by bin, in one pass over both sides, wherever
/// they live: a sketch's array or an encoded payload read in place.
/// Allocates nothing unless some bin differs.
///
/// Every packet adds to one bin per row, so no bin exceeds its sketch's
/// total; below `u32::MAX` no counter has wrapped, and each comparison
/// equals the one over exact 64-bit counts.
///
/// # Errors
///
/// [`CompareError::ConfigMismatch`] if dimensions or hash seeds differ;
/// [`CompareError::CounterOverflow`] if either total exceeds `u32::MAX`.
pub fn compare_views(
    reference: &SketchView<'_>,
    observed: &SketchView<'_>,
) -> Result<SketchComparison, CompareError> {
    if reference.config() != observed.config() {
        return Err(CompareError::ConfigMismatch);
    }
    if reference.total().max(observed.total()) > u64::from(u32::MAX) {
        return Err(CompareError::CounterOverflow);
    }
    let mut comparison = SketchComparison {
        discrepancies: Vec::new(),
        max_missing: 0,
        max_excess: 0,
        total_reference: reference.total(),
        total_observed: observed.total(),
    };
    let SketchConfig { width, depth, .. } = *reference.config();
    let len = width * depth;
    let c = &mut comparison;
    match (reference.counters, observed.counters) {
        (Counters::Array(r), Counters::Array(o)) => c.walk(width, len, r, o),
        (Counters::Array(r), Counters::Encoded(o)) => c.walk(width, len, r, o),
        (Counters::Encoded(r), Counters::Array(o)) => c.walk(width, len, r, o),
        (Counters::Encoded(r), Counters::Encoded(o)) => c.walk(width, len, r, o),
    }
    Ok(comparison)
}

/// Counters per block of the comparison's fast path: one 64-byte line of
/// each side is checked for equality before any bin is looked at.
const BLOCK: usize = 16;

/// Counter storage the comparison walks in blocks of [`BLOCK`].
trait CounterBlocks {
    /// Counter `i`.
    fn at(&self, i: usize) -> u32;
    /// Counters `start .. start + BLOCK`.
    fn block(&self, start: usize) -> [u32; BLOCK];
}

impl CounterBlocks for &[u32] {
    #[inline(always)]
    fn at(&self, i: usize) -> u32 {
        self[i]
    }

    #[inline(always)]
    fn block(&self, start: usize) -> [u32; BLOCK] {
        self[start..start + BLOCK].try_into().unwrap()
    }
}

/// Four little-endian bytes a counter.
impl CounterBlocks for &[u8] {
    #[inline(always)]
    fn at(&self, i: usize) -> u32 {
        u32::from_le_bytes(self[4 * i..4 * i + 4].try_into().unwrap())
    }

    #[inline(always)]
    fn block(&self, start: usize) -> [u32; BLOCK] {
        let bytes: &[u8; 4 * BLOCK] = self[4 * start..4 * (start + BLOCK)].try_into().unwrap();
        std::array::from_fn(|i| u32::from_le_bytes(bytes[4 * i..4 * i + 4].try_into().unwrap()))
    }
}

impl SketchComparison {
    /// The comparison loop over `len` counters of rows `width` wide: equal
    /// blocks are skipped whole, and each differing bin of an unequal
    /// block is recorded.
    fn walk(
        &mut self,
        width: usize,
        len: usize,
        reference: impl CounterBlocks,
        observed: impl CounterBlocks,
    ) {
        let whole = len - len % BLOCK;
        for start in (0..whole).step_by(BLOCK) {
            let (r, o) = (reference.block(start), observed.block(start));
            if r != o {
                for lane in 0..BLOCK {
                    self.record(width, start + lane, r[lane], o[lane]);
                }
            }
        }
        for idx in whole..len {
            self.record(width, idx, reference.at(idx), observed.at(idx));
        }
    }

    /// Records counter `idx` if the two sides differ there.
    #[inline(always)]
    fn record(&mut self, width: usize, idx: usize, reference: u32, observed: u32) {
        if reference != observed {
            let d = Discrepancy {
                row: idx / width,
                bin: idx % width,
                reference: u64::from(reference),
                observed: u64::from(observed),
            };
            self.max_missing = self.max_missing.max(d.missing());
            self.max_excess = self.max_excess.max(d.excess());
            self.discrepancies.push(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cms::SketchConfig;

    fn pair() -> (CountMinSketch, CountMinSketch) {
        let cfg = SketchConfig::small(5);
        (CountMinSketch::new(cfg.clone()), CountMinSketch::new(cfg))
    }

    #[test]
    fn identical_streams_no_discrepancy() {
        let (mut a, mut b) = pair();
        for i in 0..500u64 {
            a.add(&i.to_le_bytes(), 1);
            b.add(&i.to_le_bytes(), 1);
        }
        let cmp = compare(&a, &b).unwrap();
        assert!(cmp.identical());
        assert!(!cmp.drop_detected(0));
        assert!(!cmp.injection_detected(0));
    }

    #[test]
    fn dropped_packets_detected() {
        let (mut enclave_out, mut victim) = pair();
        for i in 0..100u64 {
            enclave_out.add(&i.to_le_bytes(), 1);
            // Victim misses 10 packets (dropped after the filter).
            if i >= 10 {
                victim.add(&i.to_le_bytes(), 1);
            }
        }
        let cmp = compare(&enclave_out, &victim).unwrap();
        assert!(!cmp.identical());
        assert!(cmp.drop_detected(0));
        assert!(!cmp.injection_detected(0));
        assert!(cmp.max_missing() >= 1);
        assert_eq!(cmp.totals(), (100, 90));
    }

    #[test]
    fn injected_packets_detected() {
        let (mut enclave_out, mut victim) = pair();
        for i in 0..100u64 {
            enclave_out.add(&i.to_le_bytes(), 1);
            victim.add(&i.to_le_bytes(), 1);
        }
        // Attacker injects a burst of a single flow after the filter.
        victim.add(b"injected-flow", 50);
        let cmp = compare(&enclave_out, &victim).unwrap();
        assert!(cmp.injection_detected(0));
        assert!(cmp.injection_detected(49));
        assert!(!cmp.injection_detected(50));
        assert!(!cmp.drop_detected(0));
    }

    #[test]
    fn tolerance_absorbs_benign_loss() {
        let (mut enclave_out, mut victim) = pair();
        for i in 0..1000u64 {
            enclave_out.add(&i.to_le_bytes(), 1);
            // 0.3% benign loss.
            if i % 333 != 0 {
                victim.add(&i.to_le_bytes(), 1);
            }
        }
        let cmp = compare(&enclave_out, &victim).unwrap();
        assert!(!cmp.drop_detected(5), "benign loss under tolerance");
        assert!(cmp.drop_detected(0), "still visible at zero tolerance");
    }

    #[test]
    fn a_total_past_the_counter_range_is_refused() {
        let (mut a, mut b) = pair();
        a.add(b"k", u64::from(u32::MAX));
        b.add(b"k", u64::from(u32::MAX));
        assert!(compare(&a, &b).unwrap().identical(), "at the bound");
        // One more packet wraps no bin of `k`'s, but the bound is the
        // total: refused on either side.
        a.add(b"other", 1);
        assert_eq!(compare(&a, &b), Err(CompareError::CounterOverflow));
        assert_eq!(compare(&b, &a), Err(CompareError::CounterOverflow));
        // A configuration mismatch is reported first.
        let c = CountMinSketch::new(SketchConfig::small(6));
        assert_eq!(compare(&a, &c), Err(CompareError::ConfigMismatch));
    }

    #[test]
    fn encoded_and_in_memory_counters_compare_alike() {
        // 300 × 3 = 900 counters: 56 whole blocks and a 4-counter tail.
        let cfg = SketchConfig {
            width: 300,
            depth: 3,
            seed: 8,
        };
        let (mut a, mut b) = (CountMinSketch::new(cfg.clone()), CountMinSketch::new(cfg));
        for i in 0..2_000u64 {
            a.add(&i.to_le_bytes(), 1 + i % 3);
            if i % 7 != 0 {
                b.add(&i.to_le_bytes(), 1 + i % 3);
            }
        }
        b.add(b"injected", 40);
        let want = compare(&a, &b).unwrap();
        assert!(want.drop_detected(0) && want.injection_detected(0));
        let (ea, eb) = (a.encode(), b.encode());
        let (va, vb) = (
            SketchView::parse(&ea).unwrap(),
            SketchView::parse(&eb).unwrap(),
        );
        for (r, o) in [(&va, &b.view()), (&a.view(), &vb), (&va, &vb)] {
            assert_eq!(compare_views(r, o).unwrap(), want);
        }
        assert_eq!(compare_views(&vb, &va).unwrap(), compare(&b, &a).unwrap());
        // The last counter sits in the tail, past the last whole block.
        let mut bytes = ea.clone();
        bytes[32 + 4 * 899] ^= 1;
        let d = compare_views(&SketchView::parse(&bytes).unwrap(), &a.view()).unwrap();
        assert_eq!(d.discrepancies().len(), 1);
        assert_eq!(
            (d.discrepancies()[0].row, d.discrepancies()[0].bin),
            (2, 299)
        );
    }

    #[test]
    fn config_mismatch_rejected() {
        let a = CountMinSketch::new(SketchConfig::small(1));
        let b = CountMinSketch::new(SketchConfig::small(2));
        assert_eq!(compare(&a, &b), Err(CompareError::ConfigMismatch));
    }

    #[test]
    fn discrepancy_accessors() {
        let d = Discrepancy {
            row: 1,
            bin: 7,
            reference: 10,
            observed: 4,
        };
        assert_eq!(d.missing(), 6);
        assert_eq!(d.excess(), 0);
        let e = Discrepancy {
            row: 0,
            bin: 0,
            reference: 3,
            observed: 9,
        };
        assert_eq!(e.missing(), 0);
        assert_eq!(e.excess(), 6);
    }

    #[test]
    fn both_drop_and_injection_simultaneously() {
        let (mut enclave_out, mut victim) = pair();
        for i in 0..100u64 {
            enclave_out.add(&i.to_le_bytes(), 1);
        }
        for i in 50..100u64 {
            victim.add(&i.to_le_bytes(), 1);
        }
        victim.add(b"spoofed", 20);
        let cmp = compare(&enclave_out, &victim).unwrap();
        assert!(cmp.drop_detected(0));
        assert!(cmp.injection_detected(0));
    }
}
